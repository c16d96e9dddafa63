//! Experiment execution helpers: baseline pairing and parallel sweeps.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use memnet_policy::{Mechanism, PolicyKind};

use crate::config::SimConfig;
use crate::metrics::RunReport;

/// Runs `cfg` and its full-power baseline (same workload / topology /
/// scale / seed, links always on), returning `(managed, baseline)`.
///
/// Every power-reduction and performance-degradation number in the paper
/// is relative to this baseline.
pub fn run_pair(cfg: SimConfig) -> (RunReport, RunReport) {
    let mut base = cfg.clone();
    base.policy = PolicyKind::FullPower;
    base.mechanism = Mechanism::FullPower;
    let managed = cfg.run();
    let baseline = base.run();
    (managed, baseline)
}

/// Runs a batch of configurations across `threads` worker threads,
/// returning reports in input order. Multi-seed plans pass one
/// configuration per `(key, seed)` cell, so the replicas of one key
/// spread across the pool like any other jobs.
///
/// # Panics
///
/// Panics if `threads` is zero, or if a worker panics — in which case the
/// panic message names the configuration and seed whose run failed rather
/// than surfacing as an opaque poisoned-lock error in the caller.
pub fn sweep(configs: Vec<SimConfig>, threads: usize) -> Vec<RunReport> {
    assert!(threads > 0, "need at least one thread");
    let n = configs.len();
    let queue = Mutex::new(configs.into_iter().enumerate().collect::<Vec<_>>());
    // One slot per job: the report, or the panic message of a failed run.
    type Slot = Option<Result<RunReport, String>>;
    let results: Mutex<Vec<Slot>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n.max(1)) {
            scope.spawn(|| loop {
                // A panicking worker poisons the mutexes; recover the guard
                // so other workers keep draining the queue and the panic is
                // attributed below instead of dying on "queue lock".
                let job = queue.lock().unwrap_or_else(|p| p.into_inner()).pop();
                let Some((idx, cfg)) = job else { break };
                // Copy the identifying fields out so the description is
                // only formatted on the panic path, not once per job.
                let (workload, topology, policy, mechanism, seed) =
                    (cfg.workload.name, cfg.topology, cfg.policy, cfg.mechanism, cfg.seed);
                let outcome = catch_unwind(AssertUnwindSafe(|| cfg.run())).map_err(|cause| {
                    let msg = cause
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| cause.downcast_ref::<&str>().copied())
                        .unwrap_or("non-string panic payload");
                    format!(
                        "workload {workload:?}, topology {topology:?}, policy {policy:?}, \
                         mechanism {mechanism:?}, seed {seed}: {msg}"
                    )
                });
                results.lock().unwrap_or_else(|p| p.into_inner())[idx] = Some(outcome);
            });
        }
    });
    let slots = results.into_inner().unwrap_or_else(|p| p.into_inner());
    let failures: Vec<String> = slots
        .iter()
        .filter_map(|s| match s {
            Some(Err(msg)) => Some(msg.clone()),
            _ => None,
        })
        .collect();
    assert!(
        failures.is_empty(),
        "sweep: {} of {n} runs panicked:\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
    slots.into_iter().map(|r| r.expect("every job ran").expect("failures checked above")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use memnet_simcore::SimDuration;

    fn quick(workload: &str) -> SimConfig {
        SimConfig::builder()
            .workload(workload)
            .eval_period(SimDuration::from_us(30))
            .build()
            .unwrap()
    }

    #[test]
    fn sweep_preserves_input_order() {
        let reports = sweep(vec![quick("mixD"), quick("lu.D"), quick("mixB")], 3);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].workload, "mixD");
        assert_eq!(reports[1].workload, "lu.D");
        assert_eq!(reports[2].workload, "mixB");
    }

    #[test]
    fn run_pair_returns_matching_baseline() {
        let mut cfg = quick("mixD");
        cfg.policy = PolicyKind::NetworkUnaware;
        cfg.mechanism = Mechanism::Vwl;
        let (managed, baseline) = run_pair(cfg);
        assert_eq!(managed.workload, baseline.workload);
        assert_eq!(baseline.policy, "full power");
        assert_eq!(managed.policy, "network-unaware");
    }
}
