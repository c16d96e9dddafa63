//! Per-layer metrics of traced runs. Each kernel times calls into one
//! module's public functions from outside the engine, over inputs taken
//! from the workload's own cells; layer shares multiply a kernel's unit
//! cost by the matching count in each cell's `RunReport` and divide by
//! the cell's solo `Engine::run` wall time.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use memnet_bench::DiskCache;
use memnet_core::{Engine, PolicyKind, RunReport, SimConfig};
use memnet_dram::{line_to_vault_bank, Vault, VaultOp};
use memnet_faults::{FaultConfig, FaultModel};
use memnet_net::mech::N_BW_MODES;
use memnet_net::{BwMode, LinkId, LinkSim, ModuleId, Packet, PacketKind, Topology};
use memnet_policy::PowerController;
use memnet_power::EnergyBackendKind;
use memnet_simcore::{EventQueue, SimDuration, SimTime};

use crate::common::{dir_bytes, median, time_median, Ctx, Outcome};

/// Per-layer metrics only the serve workload produces.
pub const SERVE_LAYERS: &[&str] = &[
    "serve.parse_us",
    "serve.queue_wait_ms",
    "serve.run_ms",
    "serve.coalesced_frac",
    "serve.cache_hit_frac",
    "serve.backlog_max",
    "serve.tail_ms",
    "serve.tail_pct",
    "serve.tail_n",
    "serve.light_p50_ms",
    "serve.gen_late_ms",
];

/// Cells the engine kernels sample at most (each kernel runs per cell).
const MAX_CELLS: usize = 6;
/// Requests recorded per cell for the workload and DRAM kernels.
const TRACE_CAP: usize = 4_000_000;

/// Network packets a run moved, hop by hop: every read crosses the
/// network twice (request and response), every write once.
fn packets(r: &RunReport) -> f64 {
    (2 * r.completed_reads + r.retired_writes) as f64 * r.avg_modules_traversed
}

/// Engine-layer metrics over solo runs `(wall_s, config, report)` of a
/// sample of the workload's cells.
pub fn engine_layers(ctx: &Ctx, out: &mut Outcome, solos: &[(f64, SimConfig, RunReport)]) {
    let solos: Vec<&(f64, SimConfig, RunReport)> = {
        // Spread the sample over the list so both scales and every
        // configuration kind are represented.
        let step = solos.len().div_ceil(MAX_CELLS).max(1);
        solos.iter().step_by(step).collect()
    };
    let queue_ns = queue_ns_per_op();
    let link_ns = link_ns_per_packet();
    let fault_ns = fault_draw_ns();
    let energy_ns = link_energy_ns();
    let mut new_us = Vec::new();
    let mut ns_per_event = Vec::new();
    let mut gen_ns = Vec::new();
    let mut vault_ns = Vec::new();
    let mut topo_us = Vec::new();
    let mut pol_ns = Vec::new();
    let mut epoch_us = Vec::new();
    let (mut run_ns, mut q_ns, mut w_ns, mut d_ns, mut n_ns, mut p_ns) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for (i, (wall, cfg, report)) in solos.iter().enumerate() {
        // Spans of one cell share its id; ids above 2^32 keep them apart
        // from round and job ids.
        let tr = ctx.spans.tracer((1 << 32) + i as u64, true);
        let root = tr.open("cell", None);
        let (t_new, _) = tr.time("core.new", root, || time_median(5, || Engine::new(cfg.clone())));
        new_us.push(t_new * 1e6);
        let events = report.events_processed.max(1) as f64;
        ns_per_event.push(wall * 1e9 / events);
        let (g, v) = tr.time("workload+dram", root, || workload_and_vault_ns(cfg));
        gen_ns.push(g);
        vault_ns.push(v);
        topo_us.push(tr.time("net.topology", root, || topology_build_us(cfg)));
        let (pp, pe) = tr.time("policy", root, || policy_costs(cfg));
        pol_ns.push(pp);
        epoch_us.push(pe);
        tr.close(root);
        let pk = packets(report);
        run_ns += wall * 1e9;
        q_ns += queue_ns * events;
        w_ns += g * report.injected_accesses as f64;
        d_ns += v * (report.completed_reads + report.retired_writes) as f64;
        n_ns += link_ns * pk;
        if cfg.policy != PolicyKind::FullPower {
            p_ns += pp * pk + pe * 1e3 * report.epochs as f64;
        }
    }
    let share = |ns: f64| if run_ns > 0.0 { ns / run_ns } else { 0.0 };
    let shares = [share(q_ns), share(w_ns), share(d_ns), share(n_ns), share(p_ns)];
    let l = &mut out.layer;
    l.insert("core.new_us", median(&new_us));
    l.insert("core.ns_per_event", median(&ns_per_event));
    l.insert("core.unattributed_frac", 1.0 - shares.iter().sum::<f64>());
    l.insert("simcore.queue_ns_per_op", queue_ns);
    l.insert("simcore.queue_share", shares[0]);
    l.insert("workload.gen_ns_per_req", median(&gen_ns));
    l.insert("workload.share", shares[1]);
    l.insert("dram.vault_ns_per_access", median(&vault_ns));
    l.insert("dram.share", shares[2]);
    l.insert("net.link_ns_per_packet", link_ns);
    l.insert("net.topology_build_us", median(&topo_us));
    l.insert("net.share", shares[3]);
    l.insert("policy.ns_per_packet", median(&pol_ns));
    l.insert("policy.epoch_us", median(&epoch_us));
    l.insert("policy.share", shares[4]);
    l.insert("power.link_energy_ns", energy_ns);
    l.insert("faults.draw_ns", fault_ns);
    let first = solos.first().map(|s| s.1.clone());
    l.insert("obs.overhead_frac", first.map_or(0.0, |cfg| obs_overhead(&cfg)));
}

/// Persistent-cache kernels over a filled cache directory:
/// `DiskCache::open` (ms, and MB/s of cache files), `get` per fingerprint
/// (µs), and `store` of every entry found into a fresh directory (ms).
pub fn cache_layers(ctx: &Ctx, out: &mut Outcome, filled: &Path, fps: &[String]) {
    let (open_s, cache) = time_median(3, || DiskCache::open(filled).expect("filled cache opens"));
    out.layer.insert("bench.cache_open_ms", open_s * 1e3);
    out.layer.insert("bench.cache_mb_per_s", dir_bytes(filled) as f64 / 1e6 / open_s);
    let (get_s, _) = time_median(5, || fps.iter().filter(|fp| cache.get(fp).is_some()).count());
    out.layer.insert("bench.cache_get_us", get_s / fps.len().max(1) as f64 * 1e6);
    let entries: Vec<(String, RunReport)> =
        fps.iter().filter_map(|fp| cache.get(fp).map(|r| (fp.clone(), r.clone()))).collect();
    let (store_s, _) = time_median(3, || {
        let dir = ctx.fresh_dir("store-kernel");
        let mut fresh = DiskCache::open(&dir).expect("fresh cache opens");
        fresh.store(entries.clone()).expect("store succeeds")
    });
    out.layer.insert("bench.cache_store_ms", store_s * 1e3);
}

/// One push plus one pop through the event queue at the engine's
/// typical pending depth (about 64 events), in ns.
fn queue_ns_per_op() -> f64 {
    const N: u64 = 400_000;
    let (s, _) = time_median(5, || {
        let mut rng = memnet_simcore::SplitMix64::new(7);
        let mut q = EventQueue::with_capacity(1024);
        let mut now = 0u64;
        let mut sum = 0u64;
        for i in 0..64 {
            q.push(SimTime::from_ps(rng.next_below(1_000_000)), i);
        }
        for i in 0..N {
            if let Some((t, v)) = q.pop() {
                now = t.as_ps();
                sum = sum.wrapping_add(v);
            }
            q.push(SimTime::from_ps(now + rng.next_below(1_000_000)), i);
        }
        sum
    });
    s * 1e9 / N as f64
}

/// Request generation (`SimConfig::record_trace`) per request, and vault
/// timing (`Vault::enqueue` + `advance_into`) per access over that trace
/// mapped by `line_to_vault_bank`, both in ns.
fn workload_and_vault_ns(cfg: &SimConfig) -> (f64, f64) {
    let t = Instant::now();
    let trace = match cfg.record_trace(TRACE_CAP) {
        Ok(trace) => trace,
        Err(_) => return (0.0, 0.0),
    };
    let gen = t.elapsed().as_secs_f64() * 1e9 / trace.len().max(1) as f64;
    let records = trace.records();
    let (s, _) = time_median(3, || {
        let mut vaults: Vec<Vault> =
            (0..cfg.dram.vaults).map(|_| Vault::new(&cfg.dram, SimTime::ZERO)).collect();
        let mut issued = Vec::with_capacity(64);
        let mut done = 0usize;
        for (id, r) in records.iter().enumerate() {
            let (v, bank) = line_to_vault_bank(r.line_addr, &cfg.dram);
            let op = if r.is_read {
                VaultOp::read(id as u64, bank, r.ready_at)
            } else {
                VaultOp::write(id as u64, bank, r.ready_at)
            };
            let vault = &mut vaults[v];
            while vault.enqueue(op).is_err() {
                let at = vault.next_issue_time(r.ready_at).expect("a full vault has a head");
                vault.advance_into(at, &mut issued);
                done += issued.len();
                issued.clear();
            }
            vault.advance_into(r.ready_at, &mut issued);
            done += issued.len();
            issued.clear();
        }
        done
    });
    (gen, s * 1e9 / records.len().max(1) as f64)
}

/// Enqueue, start and finish of one packet on one link, in ns.
fn link_ns_per_packet() -> f64 {
    const N: u64 = 200_000;
    let (s, _) = time_median(5, || {
        let mut link = LinkSim::new(LinkId(0), BwMode::FULL_VWL, SimTime::ZERO);
        let mut now = SimTime::ZERO;
        for i in 0..N {
            let kind = if i % 3 == 0 { PacketKind::ReadResponse } else { PacketKind::ReadRequest };
            let pkt = Packet { id: i, kind, dest: ModuleId(0), line_addr: i, created: now };
            let _ = link.enqueue(pkt, now);
            if let Some((_, _, done)) = link.start_transmission(now) {
                now = done;
                link.finish_transmission(now);
            }
        }
        link.packets_sent()
    });
    s * 1e9 / N as f64
}

/// `Topology::build` plus a route to every module, in µs.
fn topology_build_us(cfg: &SimConfig) -> f64 {
    let n = cfg.n_hmcs();
    let (s, _) = time_median(5, || {
        let topo = Topology::build(cfg.topology, n);
        (0..n).map(|d| topo.route(ModuleId(d)).len()).sum::<usize>()
    });
    s * 1e6
}

/// `PowerController::on_packet_arrival` + `on_packet_departure` per
/// packet (ns), and one `epoch_end` (µs), under the cell's policy.
fn policy_costs(cfg: &SimConfig) -> (f64, f64) {
    const PACKETS: u64 = 20_000;
    const EPOCHS: u64 = 20;
    let topo = Arc::new(Topology::build(cfg.topology, cfg.n_hmcs()));
    let n_links = topo.n_links() as u64;
    let mut pc = PowerController::new(
        Arc::clone(&topo),
        cfg.policy_config(),
        cfg.dram.nominal_read_latency(),
    );
    let flit = SimDuration::from_ps(640);
    let mut now = SimTime::ZERO;
    let mut packet_s = Vec::new();
    let mut epoch_s = Vec::new();
    for _ in 0..EPOCHS {
        let t = Instant::now();
        for p in 0..PACKETS / EPOCHS {
            let link = LinkId((p % n_links) as usize);
            let arrival = now + flit * (p * 3);
            let start = arrival + flit;
            let departure = start + flit * 5;
            pc.on_packet_arrival(link, arrival, p % 2 == 0);
            std::hint::black_box(pc.on_packet_departure(
                link,
                arrival,
                start,
                departure,
                5,
                p % 2 == 0,
            ));
        }
        packet_s.push(t.elapsed().as_secs_f64() / (PACKETS / EPOCHS) as f64);
        now += cfg.epoch;
        let t = Instant::now();
        std::hint::black_box(pc.epoch_end(now));
        epoch_s.push(t.elapsed().as_secs_f64());
    }
    (median(&packet_s) * 1e9, median(&epoch_s) * 1e6)
}

/// `EnergyBackend::link_energy` per call, averaged over both backends, ns.
fn link_energy_ns() -> f64 {
    const N: u64 = 200_000;
    let snapshot: Vec<SimDuration> =
        (0..2 + 3 * N_BW_MODES).map(|i| SimDuration::from_ns((i as u64 + 1) * 10)).collect();
    let mut per = Vec::new();
    for kind in [EnergyBackendKind::Analytical, EnergyBackendKind::Idd] {
        let backend = kind.build();
        let (s, _) = time_median(5, || {
            (0..N)
                .map(|_| std::hint::black_box(backend.link_energy(&snapshot)).io_total())
                .sum::<f64>()
        });
        per.push(s * 1e9 / N as f64);
    }
    per.iter().sum::<f64>() / per.len() as f64
}

/// One `FaultModel::transmission_corrupted` draw, ns.
fn fault_draw_ns() -> f64 {
    const N: u64 = 400_000;
    let cfg = FaultConfig { flit_error_rate: 1e-6, ..FaultConfig::none() };
    let (s, _) = time_median(5, || {
        let mut fm = FaultModel::new(&cfg, 16, 42);
        (0..N).filter(|i| fm.transmission_corrupted((i % 16) as usize, 5)).count()
    });
    s * 1e9 / N as f64
}

/// Relative cost of per-epoch observability on one cell: `Engine::run`
/// with obs on over obs off, alternating, median of three each.
fn obs_overhead(cfg: &SimConfig) -> f64 {
    let mut off = Vec::new();
    let mut on = Vec::new();
    for _ in 0..3 {
        for enabled in [false, true] {
            let mut c = cfg.clone();
            c.obs.enabled = enabled;
            let t = Instant::now();
            std::hint::black_box(c.run());
            let s = t.elapsed().as_secs_f64();
            if enabled {
                on.push(s)
            } else {
                off.push(s)
            }
        }
    }
    median(&on) / median(&off) - 1.0
}
