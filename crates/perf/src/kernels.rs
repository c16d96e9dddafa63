//! Deterministic benchmark kernels shared by the `components` criterion
//! bench and the `perf` report binary.
//!
//! Each kernel returns a checksum-ish value so optimizers cannot delete
//! the work, and takes its scale as a parameter so `--quick` runs and
//! full runs exercise identical code.

use std::sync::Arc;

use memnet_core::{PolicyKind, RunReport, SimConfig};
use memnet_faults::{FaultConfig, FaultModel};
use memnet_net::mech::N_BW_MODES;
use memnet_net::{LinkId, Topology};
use memnet_policy::{Mechanism, PowerController};
use memnet_power::HmcPowerModel;
use memnet_simcore::{EventQueue, SimDuration, SimTime, SplitMix64};

/// Pushes and pops `n` randomly timed events through the two-tier event
/// queue, the simulator's innermost data structure.
pub fn event_queue_churn(n: u64, seed: u64) -> u64 {
    let mut rng = SplitMix64::new(seed);
    let mut q = EventQueue::with_capacity(1024);
    let mut sum = 0u64;
    // Sliding window: keep ~64 events pending, matching the simulator's
    // observed queue depth, rather than enqueueing all n at once.
    for i in 0..n {
        q.push(SimTime::from_ps(rng.next_below(1_000_000)), i);
        if i >= 64 {
            if let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
        }
    }
    while let Some((_, v)) = q.pop() {
        sum = sum.wrapping_add(v);
    }
    sum
}

/// Prices one link residency snapshot `n` times through the HMC power
/// model (the per-link inner loop of report finalization).
pub fn link_pricing(n: u64) -> f64 {
    let model = HmcPowerModel::paper();
    let snapshot: Vec<SimDuration> =
        (0..2 + 3 * N_BW_MODES).map(|i| SimDuration::from_ns((i as u64 + 1) * 10)).collect();
    let mut acc = 0.0;
    for _ in 0..n {
        acc += std::hint::black_box(model.link_energy(&snapshot)).io_total();
    }
    acc
}

/// Draws `n` transmission CRC outcomes from a fault model with a
/// realistic flit error rate, returning the corruption count.
pub fn fault_draws(n: u64, seed: u64) -> u64 {
    let cfg = FaultConfig { flit_error_rate: 1e-3, ..FaultConfig::none() };
    let mut fm = FaultModel::new(&cfg, 16, seed);
    let mut corrupted = 0u64;
    for i in 0..n {
        corrupted += u64::from(fm.transmission_corrupted((i % 16) as usize, 5));
    }
    corrupted
}

/// Runs `epochs` controller epochs under the network-aware policy: each
/// epoch feeds a burst of packet departures into the delay monitors, then
/// triggers the AMS/ISP decision step. Returns total decisions made.
pub fn policy_epochs(epochs: u64) -> usize {
    let cfg = base_config(100, 1);
    let topo = Arc::new(Topology::build(cfg.topology, cfg.n_hmcs()));
    let n_links = topo.n_links();
    let mut pc = PowerController::new(
        Arc::clone(&topo),
        cfg.policy_config(),
        cfg.dram.nominal_read_latency(),
    );
    let mut decisions = 0usize;
    let mut now = SimTime::ZERO;
    let flit = SimDuration::from_ps(640);
    for _ in 0..epochs {
        for p in 0..64u64 {
            let link = LinkId((p % n_links as u64) as usize);
            let arrival = now + flit * (p * 7);
            let start = arrival + flit;
            let departure = start + flit * 5;
            pc.on_packet_arrival(link, arrival, p.is_multiple_of(2));
            pc.on_packet_departure(link, arrival, start, departure, 5, p.is_multiple_of(2));
        }
        now += SimDuration::from_us(100);
        decisions += pc.epoch_end(now).len();
    }
    decisions
}

/// Runs a small end-to-end simulation under the paper's network-aware
/// VWL+ROO configuration and returns the full report (the caller derives
/// events/sec from `events_processed`).
pub fn end_to_end(eval_us: u64, seed: u64) -> RunReport {
    base_config(eval_us, seed).run()
}

/// [`end_to_end`] with the observability recorder explicitly on or off.
/// The off variant is the suite's control for the on variant: both run
/// identical configurations, so the events/sec delta between them is the
/// cost of per-epoch time-series sampling (`--obs-gate` enforces a bound
/// on it).
pub fn end_to_end_obs(eval_us: u64, seed: u64, enabled: bool) -> RunReport {
    let mut cfg = base_config(eval_us, seed);
    cfg.obs.enabled = enabled;
    cfg.obs.ring_capacity = 64;
    cfg.run()
}

/// The replica count of the multi-seed bench.
pub const MULTI_SEED_K: usize = 8;

/// Seeds of the multi-seed bench: K distinct replicas of the
/// end-to-end configuration.
pub fn multi_seed_seeds() -> Vec<u64> {
    (0..MULTI_SEED_K as u64).map(|i| 7 + i).collect()
}

/// The multi-seed bench: runs the end-to-end configuration once per
/// seed, sequentially — K independent engines.
pub fn end_to_end_multi_seed_solo(eval_us: u64, seeds: &[u64]) -> Vec<RunReport> {
    seeds.iter().map(|&s| end_to_end(eval_us, s)).collect()
}

fn base_config(eval_us: u64, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::builder()
        .workload("mixD")
        .eval_period(SimDuration::from_us(eval_us))
        .seed(seed)
        .build()
        .expect("static config is valid");
    cfg.policy = PolicyKind::NetworkAware;
    cfg.mechanism = Mechanism::VwlRoo;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_are_deterministic() {
        assert_eq!(event_queue_churn(10_000, 11), event_queue_churn(10_000, 11));
        assert_eq!(fault_draws(50_000, 42), fault_draws(50_000, 42));
        let a = end_to_end(30, 7);
        let b = end_to_end(30, 7);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.completed_reads, b.completed_reads);
        assert!(a.events_processed > 0);
    }

    #[test]
    fn obs_recorder_does_not_perturb_the_simulation() {
        let off = end_to_end_obs(120, 7, false);
        let on = end_to_end_obs(120, 7, true);
        assert_eq!(off.events_processed, on.events_processed);
        assert_eq!(off.completed_reads, on.completed_reads);
        assert_eq!(off.power.watts().to_bits(), on.power.watts().to_bits());
        assert!(off.obs.is_none());
        assert!(on.obs.as_ref().is_some_and(|o| !o.epochs.is_empty()));
    }

    #[test]
    fn policy_epochs_produce_decisions() {
        assert!(policy_epochs(3) > 0);
    }

    #[test]
    fn fault_draws_hit_a_plausible_rate() {
        // 5 flits × 1e-3 per flit ≈ 0.5 % of packets corrupted.
        let corrupted = fault_draws(200_000, 42);
        assert!(corrupted > 200 && corrupted < 4_000, "corrupted = {corrupted}");
    }
}
