//! Per-layer accounting: exact work counts from the program's own
//! counters (`EngineMetrics`, `WorkModel`, `CacheStats`, `MemoryStats`,
//! `PlanCache::stats`), a counting wrapper around warp-program
//! generation, and replays of the generated access stream through the
//! coalescer, one L1 and the L2/DRAM system for per-access host time.

use gpu_kernels::{Workload, WorkloadInfo};
use gpu_sim::{
    coalesce_lines_into, Cache, CacheOp, CtaContext, EngineMetrics, GpuConfig, KernelSpec,
    LaunchConfig, MemAccess, MemorySystem, Op, Program, ReadOutcome, RunStats, WriteOutcome,
};
use locality::CanonHasher;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric of a traced run, with its unit, in report
/// order. Layers a workload does not exercise report 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runner.plan_new_ms", "ms"),
    ("runner.transform_ms", "ms"),
    ("runner.program_cache_hit_rate", "ratio"),
    ("kernels.programs", "count"),
    ("kernels.ops", "count"),
    ("kernels.gen_ns_per_op", "ns"),
    ("engine.sim_ms", "ms"),
    ("engine.events", "count"),
    ("engine.issues", "count"),
    ("engine.skip_ratio", "ratio"),
    ("engine.ns_per_event", "ns"),
    ("engine.ready_heap_pushes", "count"),
    ("engine.sm_heap_pushes", "count"),
    ("coalesce.calls", "count"),
    ("coalesce.contiguous", "count"),
    ("coalesce.sorted", "count"),
    ("coalesce.divergent", "count"),
    ("coalesce.ns_per_call", "ns"),
    ("l1.reads", "count"),
    ("l1.read_hit_rate", "ratio"),
    ("l1.tag_chunks", "count"),
    ("l1.victim_ways", "count"),
    ("l1.set_conflicts", "count"),
    ("l1.mshr_stalls", "count"),
    ("l1.ns_per_access", "ns"),
    ("l2.reads", "count"),
    ("l2.read_hit_rate", "ratio"),
    ("l2.tag_chunks", "count"),
    ("l2.victim_ways", "count"),
    ("l2.set_conflicts", "count"),
    ("dram.reads", "count"),
    ("dram.writes", "count"),
    ("l2.ns_per_access", "ns"),
    ("walk.profile_ms", "ms"),
    ("walk.streaming_tags_ms", "ms"),
    ("walk.costsum_ms", "ms"),
    ("walk.hit_interval_ms", "ms"),
    ("walk.programs_per_plan", "count"),
    ("audit.us", "us"),
    ("proto.parse_ns", "ns"),
    ("proto.digest_ns", "ns"),
    ("cache.lookups", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.lookup_ns", "ns"),
    ("render.ns", "ns"),
    ("render.bytes", "bytes"),
    ("server.answer_self_ns", "ns"),
    ("sweep.points", "count"),
    ("sweep.simulated", "count"),
    ("sweep.pruned", "count"),
    ("sweep.prune_rate", "ratio"),
    ("sweep.static_ms", "ms"),
    ("obs.sink_overhead", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
    ("self_ms.op", "ms"),
    ("self_ms.runner.plan_new", "ms"),
    ("self_ms.runner.transform", "ms"),
    ("self_ms.engine.run", "ms"),
    ("self_ms.planner.plan", "ms"),
    ("self_ms.walk.profile", "ms"),
    ("self_ms.walk.streaming_tags", "ms"),
    ("self_ms.walk.costsum", "ms"),
    ("self_ms.walk.hit_interval", "ms"),
    ("self_ms.audit", "ms"),
    ("self_ms.proto.parse", "ms"),
    ("self_ms.proto.digest", "ms"),
    ("self_ms.cache.lookup", "ms"),
    ("self_ms.render", "ms"),
    ("self_ms.sweep.run", "ms"),
    ("self_ms.sweep.static", "ms"),
    ("self_ms.sweep.costsum", "ms"),
    ("self_ms.sweep.hit_interval", "ms"),
    ("self_ms.sweep.set_conflicts", "ms"),
];

/// Named per-layer sums; derived ratios are filled in by [`Layers::finish`].
#[derive(Debug, Default)]
pub struct Layers {
    vals: HashMap<&'static str, f64>,
}

impl Layers {
    /// Adds `v` to metric (or hidden sum) `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.vals.entry(name).or_insert(0.0) += v;
    }

    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.vals.insert(name, v);
    }

    /// Current value of `name` (0 when never touched).
    pub fn get(&self, name: &str) -> f64 {
        self.vals.get(name).copied().unwrap_or(0.0)
    }

    /// Folds one simulation's counters into the engine, coalescer, L1
    /// and L2/DRAM sums.
    pub fn absorb_run(&mut self, stats: &RunStats, m: &EngineMetrics) {
        let w = &m.work;
        for (k, v) in [
            ("engine.events", m.events),
            ("engine.issues", m.issues),
            ("_engine.cycles_skipped", m.cycles_skipped),
            ("engine.ready_heap_pushes", w.ready_heap_pushes),
            ("engine.sm_heap_pushes", w.sm_heap_pushes),
            ("coalesce.calls", w.coalesce_calls),
            ("coalesce.contiguous", w.coalesce_contiguous),
            ("coalesce.sorted", w.coalesce_sorted),
            ("coalesce.divergent", w.coalesce_divergent),
            ("l1.reads", stats.l1.reads),
            ("_l1.read_hits", stats.l1.read_hits),
            ("l1.tag_chunks", w.l1.tag_chunks),
            ("l1.victim_ways", w.l1.victim_ways),
            ("l1.set_conflicts", w.l1.set_conflicts),
            ("l1.mshr_stalls", stats.l1.mshr_stalls),
            ("l2.reads", stats.l2.reads),
            ("_l2.read_hits", stats.l2.read_hits),
            ("l2.tag_chunks", w.l2.tag_chunks),
            ("l2.victim_ways", w.l2.victim_ways),
            ("l2.set_conflicts", w.l2.set_conflicts),
            ("dram.reads", stats.memory.dram_reads),
            ("dram.writes", stats.memory.dram_writes),
        ] {
            self.add(k, v as f64);
        }
    }

    /// Folds warp-program generation counters in.
    pub fn absorb_gen(&mut self, c: &GenCounters) {
        self.add(
            "kernels.programs",
            c.programs.load(Ordering::Relaxed) as f64,
        );
        self.add("kernels.ops", c.ops.load(Ordering::Relaxed) as f64);
        self.add("_kernels.gen_ns", c.ns.load(Ordering::Relaxed) as f64);
    }

    /// Folds replay timings in.
    pub fn absorb_replay(&mut self, r: &Replay) {
        self.add("_replay.coalesce_calls", r.coalesce_calls as f64);
        self.add("_replay.coalesce_ns", r.coalesce_ns as f64);
        self.add("_replay.l1_accesses", r.l1_accesses as f64);
        self.add("_replay.l1_ns", r.l1_ns as f64);
        self.add("_replay.l2_accesses", r.l2_accesses as f64);
        self.add("_replay.l2_ns", r.l2_ns as f64);
    }

    /// Computes the derived ratios from the accumulated sums.
    pub fn finish(&mut self) {
        let div = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let g = |k: &str| self.get(k);
        let derived = [
            (
                "engine.skip_ratio",
                div(
                    g("_engine.cycles_skipped"),
                    g("engine.issues") + g("_engine.cycles_skipped"),
                ),
            ),
            (
                "engine.ns_per_event",
                div(g("engine.sim_ms") * 1e6, g("engine.events")),
            ),
            ("l1.read_hit_rate", div(g("_l1.read_hits"), g("l1.reads"))),
            ("l2.read_hit_rate", div(g("_l2.read_hits"), g("l2.reads"))),
            (
                "kernels.gen_ns_per_op",
                div(g("_kernels.gen_ns"), g("kernels.ops")),
            ),
            (
                "coalesce.ns_per_call",
                div(g("_replay.coalesce_ns"), g("_replay.coalesce_calls")),
            ),
            (
                "l1.ns_per_access",
                div(g("_replay.l1_ns"), g("_replay.l1_accesses")),
            ),
            (
                "l2.ns_per_access",
                div(g("_replay.l2_ns"), g("_replay.l2_accesses")),
            ),
        ];
        for (k, v) in derived {
            self.set(k, v);
        }
    }

    /// Takes every planning-layer metric (warp-program generation, the
    /// static walks, the audit and their self times) from `cold`, a
    /// traced `plan-cold` pass; the other metrics stay as they are.
    pub fn overlay_planning(&mut self, cold: &Layers) {
        const PLANNING: [&str; 6] = [
            "kernels.",
            "walk.",
            "audit.",
            "self_ms.planner.",
            "self_ms.walk.",
            "self_ms.audit",
        ];
        for &(name, _) in PER_LAYER {
            if PLANNING.iter().any(|p| name.starts_with(p)) {
                self.set(name, cold.get(name));
            }
        }
    }

    /// The published metrics, in [`PER_LAYER`] order.
    pub fn published(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.get(name), unit))
            .collect()
    }
}

/// Warp-program generation counters shared by every clone of a
/// [`Counting`] wrapper.
#[derive(Debug, Default)]
pub struct GenCounters {
    programs: AtomicU64,
    ops: AtomicU64,
    ns: AtomicU64,
}

impl GenCounters {
    fn note(&self, ops: usize, t0: Instant) {
        self.ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.programs.fetch_add(1, Ordering::Relaxed);
        self.ops.fetch_add(ops as u64, Ordering::Relaxed);
    }
}

/// A kernel wrapper that counts and times every warp program generated
/// through it.
#[derive(Debug)]
pub struct Counting<K> {
    inner: K,
    counters: Arc<GenCounters>,
}

impl<K> Counting<K> {
    /// Wraps `inner`, counting into `counters`.
    pub fn new(inner: K, counters: Arc<GenCounters>) -> Self {
        Counting { inner, counters }
    }
}

impl<K: KernelSpec> KernelSpec for Counting<K> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn launch(&self) -> LaunchConfig {
        self.inner.launch()
    }
    fn warp_program(&self, ctx: &CtaContext, warp: u32) -> Program {
        let t0 = Instant::now();
        let p = self.inner.warp_program(ctx, warp);
        self.counters.note(p.len(), t0);
        p
    }
    fn warp_program_into(&self, ctx: &CtaContext, warp: u32, out: &mut Program) {
        let t0 = Instant::now();
        self.inner.warp_program_into(ctx, warp, out);
        self.counters.note(out.len(), t0);
    }
}

impl<K: Workload> Workload for Counting<K> {
    fn info(&self) -> WorkloadInfo {
        self.inner.info()
    }
}

/// Host time of the access-stream replays.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    /// `coalesce_lines_into` calls replayed.
    pub coalesce_calls: u64,
    /// Their host time, ns.
    pub coalesce_ns: u64,
    /// L1 `read`/`write`/`fill` calls replayed.
    pub l1_accesses: u64,
    /// Their host time, ns.
    pub l1_ns: u64,
    /// L2 `read_line`/`write_line` calls replayed.
    pub l2_accesses: u64,
    /// Their host time, ns.
    pub l2_ns: u64,
}

/// The first `cap` memory accesses of `kernel` under idealized
/// round-robin dispatch (CTA-major, warp-minor).
pub fn access_stream(kernel: &dyn KernelSpec, cfg: &GpuConfig, cap: usize) -> Vec<(u8, MemAccess)> {
    let warps = kernel.launch().warps_per_cta(cfg.warp_size.max(1));
    let mut out = Vec::new();
    let mut prog = Program::new();
    'grid: for ctx in gpu_sim::walk::dispatch_contexts(kernel, cfg.num_sms) {
        for warp in 0..warps {
            kernel.warp_program_into(&ctx, warp, &mut prog);
            for op in &prog {
                let kind = match op {
                    Op::Load(a) if a.cache_op != CacheOp::BypassL1 => 0,
                    Op::Store(a) if a.cache_op == CacheOp::CacheAll => 1,
                    _ => continue,
                };
                out.push((kind, op.access().expect("memory op").clone()));
                if out.len() >= cap {
                    break 'grid;
                }
            }
        }
    }
    out
}

/// Replays `stream` through the coalescer, one fresh L1 and a fresh
/// L2/DRAM system of `cfg`, the way the engine routes loads and
/// stores, timing each layer separately.
pub fn replay(stream: &[(u8, MemAccess)], cfg: &GpuConfig, r: &mut Replay) {
    let line = cfg.l1.line_bytes;
    let mut buf = Vec::new();
    let lines: Vec<(u8, Vec<u64>)> = stream
        .iter()
        .map(|(kind, acc)| {
            coalesce_lines_into(acc, line, &mut buf);
            (*kind, buf.clone())
        })
        .collect();
    // A second pass times the coalescer alone, into the reused buffer.
    let t0 = Instant::now();
    for (_, acc) in stream {
        std::hint::black_box(coalesce_lines_into(acc, line, &mut buf));
        std::hint::black_box(&buf);
    }
    r.coalesce_ns += t0.elapsed().as_nanos() as u64;
    r.coalesce_calls += stream.len() as u64;

    // L1: loads probe and fill on miss; stores write (evict or allocate).
    // Misses become L2 requests in whole-L1-line chunks, as in the engine.
    let chunks = cfg.l2_txns_per_l1_miss().max(1) as u64;
    let mut l1 = Cache::new(cfg.l1.clone());
    let mut l2_reqs: Vec<(bool, u64, u64)> = Vec::new();
    let t0 = Instant::now();
    for (t, (kind, ls)) in lines.iter().enumerate() {
        let t = t as u64;
        for &l in ls {
            r.l1_accesses += 1;
            if *kind == 0 {
                if let ReadOutcome::Miss { .. } = l1.read(l, t) {
                    l1.fill(l, t + 200);
                    for c in 0..chunks {
                        l2_reqs.push((false, l + c * cfg.l2.line_bytes as u64, t));
                    }
                }
            } else {
                if let WriteOutcome::AllocateMiss { .. } = l1.write(l, t) {
                    l1.fill(l, t + 200);
                }
                l2_reqs.push((true, l, t));
            }
        }
    }
    r.l1_ns += t0.elapsed().as_nanos() as u64;
    std::hint::black_box(&l1.stats);

    let mut mem = MemorySystem::new(cfg);
    let t0 = Instant::now();
    for &(write, l, t) in &l2_reqs {
        if write {
            mem.write_line(l, t);
        } else {
            std::hint::black_box(mem.read_line(l, t));
        }
    }
    r.l2_ns += t0.elapsed().as_nanos() as u64;
    r.l2_accesses += l2_reqs.len() as u64;
    std::hint::black_box(&mem.stats);
}

/// Digest of every simulated statistic of one run (cycles, instructions,
/// per-SM and aggregate cache stats, memory stats, occupancy and every
/// CTA placement). Simulator-only speedups must leave it unchanged.
pub fn stats_digest(s: &RunStats) -> u64 {
    let mut h = CanonHasher::new("perfbench/run-stats");
    h.u64(s.cycles).u64(s.instructions);
    for c in std::iter::once(&s.l1)
        .chain(std::iter::once(&s.l2))
        .chain(s.per_sm_l1.iter())
    {
        h.str(&format!("{c:?}"));
    }
    h.str(&format!("{:?}", s.memory));
    h.f64(s.achieved_occupancy).u64(s.max_ctas_per_sm as u64);
    for &v in s.l1_bypass_per_sm.iter().chain(&s.ctas_per_sm) {
        h.u64(v);
    }
    for p in &s.placements {
        h.u64(p.cta)
            .u64(p.sm_id as u64)
            .u64(p.slot as u64)
            .u64(p.dispatched)
            .u64(p.retired);
    }
    h.digest().lo()
}

/// A response line with its correlation id blanked: responses to equal
/// requests must agree on everything else.
pub fn strip_id(resp: &str) -> String {
    const KEY: &str = "\"id\":\"";
    let Some(start) = resp.find(KEY).map(|i| i + KEY.len()) else {
        return resp.to_string();
    };
    match resp[start..].find('"') {
        Some(len) => format!("{}{}", &resp[..start], &resp[start + len..]),
        None => resp.to_string(),
    }
}

/// Digest of a response, ignoring its correlation id.
pub fn response_digest(resp: &str) -> u64 {
    CanonHasher::new("perfbench/response")
        .str(&strip_id(resp))
        .digest()
        .lo()
}

/// Folds the trace's self times, coverage and overhead into `layers`
/// and writes the spans out.
pub fn finish_trace(
    tr: &crate::trace::Tracer,
    layers: &mut Layers,
    untraced_op_ns: u64,
    workload: &str,
    seed: u64,
) {
    let agg = tr.aggregate();
    let ms = |name: &str| agg.get(name).map_or(0.0, |a| a.total_ns as f64 / 1e6);
    layers.add("runner.plan_new_ms", ms("runner.plan_new"));
    layers.add("runner.transform_ms", ms("runner.transform"));
    layers.add("engine.sim_ms", ms("engine.run"));
    layers.add("walk.profile_ms", ms("walk.profile"));
    layers.add("walk.streaming_tags_ms", ms("walk.streaming_tags"));
    layers.add("walk.costsum_ms", ms("walk.costsum"));
    layers.add("walk.hit_interval_ms", ms("walk.hit_interval"));
    layers.add("sweep.static_ms", ms("sweep.static"));
    for (name, _) in PER_LAYER {
        if let Some(span) = name.strip_prefix("self_ms.") {
            if let Some(a) = agg.get(span) {
                layers.set(name, a.self_ns as f64 / 1e6);
            }
        }
    }
    let traced_op_ns = agg.get(crate::trace::OP).map_or(0, |a| a.total_ns);
    layers.set("trace.coverage", tr.coverage());
    if untraced_op_ns > 0 {
        layers.set(
            "trace.overhead",
            traced_op_ns as f64 / untraced_op_ns as f64 - 1.0,
        );
    }
    layers.set("trace.spans", tr.len() as f64);
    layers.finish();
    let path = std::path::PathBuf::from(format!(".bench_trace/{workload}-{seed}.spans.jsonl"));
    match tr.write_jsonl(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_id_blanks_only_the_id() {
        let a = r#"{"proto":"plan/v1","id":"c17","gpu":"GTX570","app":"NW"}"#;
        let b = r#"{"proto":"plan/v1","id":"h9","gpu":"GTX570","app":"NW"}"#;
        assert_eq!(
            strip_id(a),
            r#"{"proto":"plan/v1","id":"","gpu":"GTX570","app":"NW"}"#
        );
        assert_eq!(response_digest(a), response_digest(b));
        assert_ne!(response_digest(a), response_digest(&a.replace("NW", "BS")));
    }

    #[test]
    fn published_metrics_cover_the_list_and_derive_ratios() {
        let mut l = Layers::default();
        l.add("l1.reads", 10.0);
        l.add("_l1.read_hits", 4.0);
        l.finish();
        let out = l.published();
        assert_eq!(out.len(), PER_LAYER.len());
        let hit = out.iter().find(|m| m.0 == "l1.read_hit_rate").unwrap();
        assert_eq!(hit.1, 0.4);
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len(), "names are unique");
    }

    #[test]
    fn overlay_takes_only_the_planning_layers() {
        let (mut hot, mut cold) = (Layers::default(), Layers::default());
        for (name, _) in PER_LAYER {
            hot.set(name, 1.0);
            cold.set(name, 2.0);
        }
        hot.overlay_planning(&cold);
        for name in [
            "walk.profile_ms",
            "kernels.ops",
            "audit.us",
            "self_ms.planner.plan",
        ] {
            assert_eq!(hot.get(name), 2.0, "{name}");
        }
        for name in [
            "proto.parse_ns",
            "cache.hits",
            "self_ms.op",
            "trace.coverage",
        ] {
            assert_eq!(hot.get(name), 1.0, "{name}");
        }
    }
}
