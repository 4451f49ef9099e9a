//! The `dse-reduced` sweep, traced inside the `fig12-sim` traced run:
//! `bench::sweep::run_sweep` over the reduced grid (256 points: 4 L1
//! sizes × 2 ways × 2 index functions × 2 `MAX_AGENTS` caps × 2
//! schedulers × baseline/opt clustering) for NW and BS, in a seeded
//! order; the default seed sweeps the committed grid as committed.
//!
//! Why: without it the sweep's proof rules and
//! `costsum::set_conflicts` go unmeasured. It is not a timed workload:
//! on a shared 2-core host its 10-run spreads reached 0.27–0.28 of the
//! median at 20 s a run, and its latency figures rest on only 8
//! sub-sweeps per pass.

use crate::common::Checker;
use crate::gen;
use crate::layers::Layers;
use crate::trace::Tracer;
use cluster_bench::sweep::{geometry_config, run_sweep, SweepOutcome, SweepPoint, SweepSpec};
use cluster_bench::{AppPlan, SimRequest};
use gpu_sim::{GpuConfig, IndexFn};
use locality::{AccessSummary, CanonHasher};

/// Pinned per-point digests of the default-seed sweep.
const PINS: &str = include_str!("../pins/dse-reduced.tsv");

/// The reduced grid over NW and BS, in the seed's app order.
pub fn spec(seed: u64) -> SweepSpec {
    let mut spec = SweepSpec::reduced();
    spec.apps = gen::dse_apps(seed).iter().map(|a| a.to_string()).collect();
    spec
}

fn point_key(p: &SweepPoint) -> String {
    format!(
        "{}/L1-{}KB-{}w-{}/ma-{}/{}/{}",
        p.app, p.l1_size_kb, p.l1_assoc, p.l1_index, p.max_agents, p.sched, p.agents
    )
}

fn point_digest(p: &SweepPoint) -> u64 {
    let m = &p.metrics;
    CanonHasher::new("perfbench/sweep-point")
        .str(&p.request)
        .u64(m.cycles)
        .u64(m.l2_txns)
        .f64(m.l1_hit_rate)
        .f64(m.occupancy)
        .f64(p.model_lo)
        .f64(p.model_hi)
        .bool(p.pruned)
        .digest()
        .lo()
}

/// Per-point digests of the default-seed sweep, for `perfbench pin`.
pub fn pins() -> Vec<(String, u64)> {
    let out = run_sweep(&spec(gen::DEFAULT_SEED), true).expect("reduced sweep");
    out.points
        .iter()
        .map(|p| (point_key(p), point_digest(p)))
        .collect()
}

/// Checks every point of one sweep against its pin (default seed) and
/// the sweep's own accounting; returns the operations checked and failed.
fn check_outcome(seed: u64, spec: &SweepSpec, out: &SweepOutcome) -> Checker {
    let mut checker = Checker::new(PINS, seed == gen::DEFAULT_SEED);
    let accounted = out.simulated + out.pruned() == out.points.len() as u64
        && out.points.len() == spec.num_points();
    if !accounted {
        eprintln!(
            "sweep accounting broken: {} points, {} simulated + {} pruned, grid of {}",
            out.points.len(),
            out.simulated,
            out.pruned(),
            spec.num_points()
        );
    }
    for p in &out.points {
        checker.check(&point_key(p), point_digest(p), accounted);
    }
    checker
}

fn request(label: &str) -> SimRequest {
    match label.strip_prefix("TOT").and_then(|n| n.parse().ok()) {
        Some(n) => SimRequest::Throttled(n),
        None => SimRequest::Baseline,
    }
}

fn point_plan(base: &GpuConfig, p: &SweepPoint) -> AppPlan {
    let index = if p.l1_index == IndexFn::Modulo.label() {
        IndexFn::Modulo
    } else {
        IndexFn::Hashed
    };
    let cfg = geometry_config(base, p.l1_size_kb, p.l1_assoc, index).expect("sweep geometry");
    let w = gpu_kernels::suite::by_abbr(&p.app, cfg.arch).expect("sweep app");
    AppPlan::with_config_capped(cfg, w, p.max_agents.parse().ok())
}

/// Traces one sweep (`sweep.run`), checks its points, and re-composes
/// its static side from the same public functions: one access summary
/// per (app, cap, clustering) class (`sweep.costsum`), then the hit
/// interval (`sweep.hit_interval`) and set-conflict model
/// (`sweep.set_conflicts`) of every point, all under `sweep.static`.
pub fn trace_sweep(seed: u64, tr: &Tracer, layers: &mut Layers, checker: &mut Checker) {
    let spec = spec(seed);
    let out = match tr.span("sweep.run", 0, || run_sweep(&spec, true)) {
        Ok(out) => out,
        Err(e) => return checker.fail("sweep", &e.to_string()),
    };
    let checked = check_outcome(seed, &spec, &out);
    checker.attempted += checked.attempted;
    checker.failed += checked.failed;
    layers.set("sweep.points", out.points.len() as f64);
    layers.set("sweep.simulated", out.simulated as f64);
    layers.set("sweep.pruned", out.pruned() as f64);
    layers.set("sweep.prune_rate", out.prune_rate());

    let base = gpu_sim::arch::all_presets()
        .into_iter()
        .find(|c| c.name.eq_ignore_ascii_case(&spec.arch))
        .expect("sweep preset");
    tr.span("sweep.static", 0, || {
        let mut summary: Option<(String, AccessSummary)> = None;
        for (i, p) in out.points.iter().enumerate() {
            let req_id = i as u64;
            let plan = point_plan(&base, p);
            let class = format!("{}/{}/{}", p.app, p.max_agents, p.agents);
            if summary.as_ref().is_none_or(|(c, _)| *c != class) {
                let s = tr.span("sweep.costsum", req_id, || {
                    plan.with_variant_kernel(request(&p.request), |k| {
                        AccessSummary::collect_on(k, &plan.cfg)
                    })
                    .expect("variant kernel")
                });
                summary = Some((class, s));
            }
            let (_, s) = summary.as_ref().expect("summary collected");
            std::hint::black_box(
                tr.span("sweep.hit_interval", req_id, || s.hit_interval(&plan.cfg)),
            );
            std::hint::black_box(
                tr.span("sweep.set_conflicts", req_id, || s.set_conflicts(&plan.cfg)),
            );
        }
    });
}
