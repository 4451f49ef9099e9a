//! `fig12-sim`: the Figure 12 request matrix — phase A (baseline,
//! redirection, clustering, throttle sweep) then phase B (bypass and
//! prefetch at the selected degree), as `cluster_bench::matrix` drives
//! it — over NBO, BS, HST, MM, BKP and NW on all four presets: 215
//! simulations through `AppPlan::run_metered_sched` under
//! `HardwareLike::new(seed)`.
//!
//! Why: this path is dominated by the engine, the coalescer, the L1 and
//! the L2; the six apps span its regimes (see `gen::FIG12_APPS`).

use crate::common::{timed_passes, Checker, Figures, OpTimes, Opts, Outcome, Timed};
use crate::gen;
use crate::layers::{access_stream, replay, stats_digest, Counting, GenCounters, Layers, Replay};
use crate::trace::{Tracer, OP};
use cluster_bench::{AppPlan, SimRequest};
use gpu_kernels::Workload;
use gpu_sim::sched::HardwareLike;
use gpu_sim::{EngineMetrics, GpuConfig, RunStats, Simulation};
use std::sync::Arc;
use std::time::Instant;

/// Pinned `RunStats` digests of every simulation at the default seed.
const PINS: &str = include_str!("../pins/fig12-sim.tsv");

/// Host time of one pass on a 2-core x86-64 VM.
const NOMINAL_PASS_S: f64 = 10.0;

/// Memory accesses replayed per (app, preset) kernel in the traced run.
const REPLAY_CAP: usize = 40_000;

/// The four Table 1 presets.
pub fn presets() -> Vec<GpuConfig> {
    vec![
        gpu_sim::arch::gtx570(),
        gpu_sim::arch::tesla_k40(),
        gpu_sim::arch::gtx980(),
        gpu_sim::arch::gtx1080(),
    ]
}

fn workload(app: &str, cfg: &GpuConfig) -> Box<dyn Workload> {
    gpu_kernels::suite::by_abbr(app, cfg.arch).expect("Figure 12 apps are Table 2 apps")
}

/// One simulation request's host time (ns) and result.
type Ran = (SimRequest, u64, Result<(RunStats, EngineMetrics), String>);

/// Runs one app's phase A, selects the throttle, runs phase B.
/// `sim` runs one request (timed, traced, ...) and returns its result.
fn app_stack(
    plan: &AppPlan,
    mut sim: impl FnMut(SimRequest) -> (u64, Result<(RunStats, EngineMetrics), String>),
) -> Vec<Ran> {
    let mut out: Vec<Ran> = Vec::new();
    for req in plan.phase_a() {
        let (ns, r) = sim(req);
        out.push((req, ns, r));
    }
    // Phase B needs every phase-A result; a failed one ends the stack.
    let phase_a: Option<Vec<RunStats>> = out
        .iter()
        .map(|(_, _, r)| r.as_ref().ok().map(|(s, _)| s.clone()))
        .collect();
    let Some(phase_a) = phase_a else { return out };
    let chosen = plan.select_throttle(&phase_a);
    for req in plan.phase_b(chosen.0) {
        let (ns, r) = sim(req);
        out.push((req, ns, r));
    }
    out
}

fn run_one(
    plan: &AppPlan,
    req: SimRequest,
    seed: u64,
) -> Result<(RunStats, EngineMetrics), String> {
    plan.run_metered_sched(req, Box::new(HardwareLike::new(gen::sched_seed(seed))))
        .map_err(|e| e.to_string())
}

/// [`run_one`] with its host time in nanoseconds.
fn timed_run(
    plan: &AppPlan,
    req: SimRequest,
    seed: u64,
) -> (u64, Result<(RunStats, EngineMetrics), String>) {
    let t0 = Instant::now();
    let r = run_one(plan, req, seed);
    (t0.elapsed().as_nanos() as u64, r)
}

/// Checks one simulation: conservation laws, then its stats digest.
fn check(
    checker: &mut Checker,
    plan: &AppPlan,
    req: SimRequest,
    r: &Result<(RunStats, EngineMetrics), String>,
) -> u64 {
    let key = format!("{}/{}/{}", plan.cfg.name, plan.info.abbr, req.label());
    match r {
        Ok((stats, m)) => {
            let laws = m.check_conservation(stats);
            if let Err(law) = laws {
                eprintln!("conservation violation: {key}: {law}");
            }
            checker.check(&key, stats_digest(stats), laws.is_ok());
            stats.instructions
        }
        Err(e) => {
            checker.fail(&key, e);
            0
        }
    }
}

/// One run of the workload: the timed loop, or the traced run.
pub fn run(opts: &Opts, record: bool) -> Outcome {
    let matrix: Vec<(GpuConfig, &str)> = presets()
        .into_iter()
        .flat_map(|cfg| gen::FIG12_APPS.iter().map(move |&a| (cfg.clone(), a)))
        .collect();
    // Set-up: warm the allocator and caches with one short app stack
    // (NW on the first preset).
    let setup = || {
        let (cfg, _) = &matrix[0];
        let plan = AppPlan::new(cfg, workload("NW", cfg));
        for (_, _, r) in app_stack(&plan, |req| (0, run_one(&plan, req, opts.seed))) {
            r.expect("warm-up simulation");
        }
    };
    let mut checker = Checker::new(PINS, opts.seed == gen::DEFAULT_SEED);
    if record {
        checker.recorded = Some(Vec::new());
    }
    if opts.trace {
        setup();
        let layers = traced(opts, &matrix, &mut checker);
        return Outcome {
            checker,
            figures: Figures::Traced(layers),
        };
    }
    let mut ops = OpTimes::default();
    let (setup, passes) = timed_passes(opts.seconds, NOMINAL_PASS_S, setup, |()| {
        for (cfg, app) in &matrix {
            // Building the plan counts toward the stack's first request,
            // so work moved from the simulations into it still shows.
            let t0 = Instant::now();
            let plan = AppPlan::new(cfg, workload(app, cfg));
            let mut plan_ns = t0.elapsed().as_nanos() as u64;
            for (req, ns, r) in &app_stack(&plan, |req| timed_run(&plan, req, opts.seed)) {
                let instructions = check(&mut checker, &plan, *req, r);
                ops.record(ns + std::mem::take(&mut plan_ns), instructions as f64);
            }
        }
        ops.end_pass();
    });
    Outcome {
        checker,
        figures: Figures::Timed(Timed {
            setup,
            unit_of_work: "simulated warp instructions",
            passes,
            ops,
        }),
    }
}

/// The traced run: one untraced pass (the overhead baseline), one pass
/// with spans around each layer call, then the access-stream replays,
/// the obs-sink overhead sample and one traced `dse-reduced` sweep.
pub fn traced(opts: &Opts, matrix: &[(GpuConfig, &str)], checker: &mut Checker) -> Layers {
    let mut untraced_ns = 0u64;
    for (cfg, app) in matrix {
        let plan = AppPlan::new(cfg, workload(app, cfg));
        for (_, ns, r) in app_stack(&plan, |req| timed_run(&plan, req, opts.seed)) {
            r.expect("untraced baseline simulation");
            untraced_ns += ns;
        }
    }

    let tr = Tracer::default();
    let mut layers = Layers::default();
    let counters = Arc::new(GenCounters::default());
    let (mut hits, mut fills) = (0u64, 0u64);
    let mut req_id = 0u64;
    for (cfg, app) in matrix {
        let w: Box<dyn Workload> =
            Box::new(Counting::new(workload(app, cfg), Arc::clone(&counters)));
        let plan = tr.span("runner.plan_new", req_id, || AppPlan::new(cfg, w));
        let ran = app_stack(&plan, |req| {
            req_id += 1;
            let r = tr.span(OP, req_id, || {
                tr.span("runner.transform", req_id, || {
                    plan.with_variant_kernel(req, |_| ())
                })
                .expect("transform builds");
                tr.span("engine.run", req_id, || run_one(&plan, req, opts.seed))
            });
            (0, r)
        });
        for (req, _, r) in &ran {
            check(checker, &plan, *req, r);
            if let Ok((stats, m)) = r {
                layers.absorb_run(stats, m);
            }
        }
        let (h, f) = plan.cache_counters();
        hits += h;
        fills += f;
    }
    layers.absorb_gen(&counters);
    layers.set(
        "runner.program_cache_hit_rate",
        hits as f64 / (hits + fills).max(1) as f64,
    );

    let mut r = Replay::default();
    for (cfg, app) in matrix {
        let plan = AppPlan::new(cfg, workload(app, cfg));
        plan.with_variant_kernel(SimRequest::Baseline, |k| {
            replay(&access_stream(k, &plan.cfg, REPLAY_CAP), &plan.cfg, &mut r)
        })
        .expect("baseline kernel");
    }
    layers.absorb_replay(&r);
    layers.set("obs.sink_overhead", obs_sink_overhead(opts, matrix));
    crate::dse::trace_sweep(opts.seed, &tr, &mut layers, checker);
    crate::layers::finish_trace(&tr, &mut layers, untraced_ns, "fig12-sim", opts.seed);
    layers
}

/// Ratio of `run_traced_metered` with a `locality::ObsSink` attached to
/// plain `run_metered`, over the baseline and clustered requests of the
/// six apps on the first preset.
fn obs_sink_overhead(opts: &Opts, matrix: &[(GpuConfig, &str)]) -> f64 {
    let (mut plain, mut sinked) = (0f64, 0f64);
    let cfg = &matrix[0].0;
    for (_, app) in matrix.iter().filter(|(c, _)| c.name == cfg.name) {
        let plan = AppPlan::new(cfg, workload(app, cfg));
        for req in [SimRequest::Baseline, SimRequest::Clustering] {
            let t0 = Instant::now();
            run_one(&plan, req, opts.seed).expect("plain run");
            plain += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            plan.with_variant_kernel(req, |k| {
                let mut sink = locality::ObsSink::new("perfbench", |_cta, sm| sm as u32);
                let out = Simulation::new(plan.cfg.clone(), k)
                    .with_scheduler(Box::new(HardwareLike::new(gen::sched_seed(opts.seed))))
                    .run_traced_metered(&mut sink)
                    .expect("sinked run");
                sink.finish(&cta_obs::Obs::new());
                out
            })
            .expect("variant kernel");
            sinked += t0.elapsed().as_secs_f64();
        }
    }
    sinked / plain
}
