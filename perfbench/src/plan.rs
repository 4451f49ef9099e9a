//! `plan-cold` and `plan-hot`: the `cta-serve` plan path through
//! `Server::answer` on a 1-thread server, one closed-loop client.
//!
//! * `plan-cold` — a fresh server per pass answers every distinct
//!   request once (92 Table 2 × preset requests plus a band of 16
//!   structural kernels of the `cta_serve::bench::mix` shape), so every
//!   request misses the cache and plans.
//!   Why: cold planning is the three static walks over regenerated warp
//!   programs; the engine and the L2 do no work here. Its timed run is
//!   kept for hand-made A/B runs but is not in `BENCHMARK.json` (too
//!   noisy on a shared host); its traced pass is part of the `plan-hot`
//!   traced run.
//! * `plan-hot` — the cache is warmed outside the timed loop with 64
//!   cheap-to-plan digests, then a seeded Zipf stream of hits is
//!   answered. Why: this path is parse, digest, cache lookup and render
//!   with no planning — the same cache `plan-cold` fills, used for reads.

use crate::common::{timed_passes, Checker, Figures, OpTimes, Opts, Outcome, Timed};
use crate::gen;
use crate::layers::{finish_trace, response_digest, Counting, GenCounters, Layers};
use crate::trace::{Tracer, OP};
use cta_analyzer::plan::audit_served;
use cta_analyzer::{Report, StaticProfile};
use cta_clustering::{clamp_active_agents, Axis, Framework, Plan};
use cta_serve::cache::CachedPlan;
use cta_serve::planner::{lookup_app, resolve_gpu, DescribedKernel, PlanBody};
use cta_serve::proto::{normalize_gpu, render_error, KernelRef, ProtoError, Request};
use cta_serve::{parse_request, Server, ServerConfig};
use gpu_kernels::PartitionHint;
use gpu_sim::{GpuConfig, KernelSpec};
use locality::{AccessSummary, CanonHasher};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// Pinned response digests (id blanked) of every cold and hot request
/// body at the default seed, keyed by the body's digest.
const PINS: &str = include_str!("../pins/plan.tsv");

/// Requests of the `plan-hot` stream traced per traced run.
const HOT_TRACED: usize = 20_000;

/// Host time of one `plan-cold` pass on a 2-core x86-64 VM.
const COLD_PASS_S: f64 = 10.0;

/// Host time of one `plan-hot` stream pass on a 2-core x86-64 VM.
const HOT_PASS_S: f64 = 0.4;

fn server() -> Server {
    Server::new(ServerConfig {
        threads: 1,
        queue_cap: 0,
        ..ServerConfig::default()
    })
}

/// Pin key of a request body.
pub fn body_key(body: &str) -> String {
    let digest = CanonHasher::new("perfbench/request-body")
        .str(body)
        .digest();
    format!("{:016x}", digest.lo())
}

fn is_plan(resp: &str) -> bool {
    resp.starts_with("{\"proto\":\"plan/v1\"") && !resp.contains("\"error\":")
}

/// Checks one response against its pin (or first sighting).
fn check(checker: &mut Checker, body: &str, resp: &str) -> bool {
    checker.check(&body_key(body), response_digest(resp), is_plan(resp))
}

/// One request line per `plan-cold` body.
fn cold_lines(bodies: &[String]) -> Vec<String> {
    bodies
        .iter()
        .enumerate()
        .map(|(i, b)| gen::line(&format!("c{i}"), b))
        .collect()
}

/// The `plan-cold` run.
pub fn run_cold(opts: &Opts, record: bool) -> Outcome {
    // Set-up: the requests, and a throwaway server that plans two short
    // Table 2 apps and one structural kernel.
    let setup = || {
        let bodies = gen::cold_bodies(opts.seed);
        let lines = cold_lines(&bodies);
        let warm_server = server();
        let warm = [
            gen::named_body("GTX570", "NW"),
            gen::named_body("GTX570", "DXT"),
            gen::structural_body(gen::MIX_STRIDES[0]),
        ];
        for body in &warm {
            let resp = warm_server.answer(&gen::line("warm", body), None);
            assert!(is_plan(&resp), "warm-up plan: {resp}");
        }
        (bodies, lines)
    };
    let mut checker = Checker::new(PINS, true);
    if record {
        checker.recorded = Some(Vec::new());
    }
    if opts.trace {
        let (bodies, lines) = setup();
        let layers = traced_cold(&bodies, &lines, &mut checker, opts.seed);
        return Outcome {
            checker,
            figures: Figures::Traced(layers),
        };
    }
    let mut ops = OpTimes::default();
    let (setup, passes) = timed_passes(opts.seconds, COLD_PASS_S, setup, |(bodies, lines)| {
        // Building the fresh server counts toward its first request.
        let t0 = Instant::now();
        let server = server();
        let mut new_ns = t0.elapsed().as_nanos() as u64;
        for (body, line) in bodies.iter().zip(lines) {
            let t0 = Instant::now();
            let resp = server.answer(line, None);
            let ns = t0.elapsed().as_nanos() as u64 + std::mem::take(&mut new_ns);
            ops.record(ns, 1.0);
            check(&mut checker, body, &resp);
        }
        ops.end_pass();
    });
    Outcome {
        checker,
        figures: Figures::Timed(Timed {
            setup,
            unit_of_work: "cold plans",
            passes,
            ops,
        }),
    }
}

/// The warmed hot-path state: the server, one request line per hot-set
/// item, the stream of items, and the cold response to each line.
pub struct Hot {
    server: Server,
    /// Per hot-set item: its request line, with a fixed id.
    lines: Vec<String>,
    /// The stream: indices into `lines`.
    item: Vec<usize>,
    /// Per hot-set item: the cold (cache-filling) response to its line.
    cold: Vec<String>,
}

impl Hot {
    /// Whether response `resp` to stream entry `j` equals the cold
    /// response to the same line.
    fn matches(&self, j: usize, resp: &str) -> bool {
        resp == self.cold[self.item[j]]
    }
}

pub fn warm_hot(seed: u64, checker: &mut Checker) -> Hot {
    let set = gen::hot_set(seed);
    let server = server();
    let lines: Vec<String> = set
        .iter()
        .enumerate()
        .map(|(i, body)| gen::line(&format!("w{i}"), body))
        .collect();
    let mut cold = Vec::with_capacity(set.len());
    for (body, line) in set.iter().zip(&lines) {
        let resp = server.answer(line, None);
        check(checker, body, &resp);
        cold.push(resp);
    }
    Hot {
        server,
        lines,
        item: gen::zipf_stream(seed, set.len(), gen::HOT_STREAM_LEN),
        cold,
    }
}

/// The `plan-hot` run.
pub fn run_hot(opts: &Opts, record: bool) -> Outcome {
    // Set-up answers of every warm-up count as checked operations.
    let checker = RefCell::new(Checker::new(PINS, true));
    if record {
        checker.borrow_mut().recorded = Some(Vec::new());
    }
    let setup = || warm_hot(opts.seed, &mut checker.borrow_mut());
    if opts.trace {
        // The planning layers are measured on a traced `plan-cold` pass
        // (the hot stream never plans), everything else on the stream.
        let mut checker = checker.into_inner();
        let bodies = gen::cold_bodies(opts.seed);
        let cold = traced_cold(&bodies, &cold_lines(&bodies), &mut checker, opts.seed);
        let hot = warm_hot(opts.seed, &mut checker);
        let mut layers = traced_hot(&hot, &mut checker, opts.seed);
        layers.overlay_planning(&cold);
        return Outcome {
            checker,
            figures: Figures::Traced(layers),
        };
    }
    let mut ops = OpTimes::default();
    let (setup, passes) = timed_passes(opts.seconds, HOT_PASS_S, setup, |hot| {
        let mut checker = checker.borrow_mut();
        for (j, &i) in hot.item.iter().enumerate() {
            let resp = ops.time(|| (hot.server.answer(&hot.lines[i], None), 1.0));
            checker.attempted += 1;
            if !hot.matches(j, &resp) {
                checker.failed += 1;
                eprintln!("hot response {j} differs from its cold response: {resp}");
            }
        }
        ops.end_pass();
        let stats = hot.server.cache_stats();
        if stats.misses != hot.cold.len() as u64 {
            eprintln!("hot stream missed the cache: {stats:?}");
            checker.failed += 1;
        }
    });
    Outcome {
        checker: checker.into_inner(),
        figures: Figures::Timed(Timed {
            setup,
            unit_of_work: "hot requests",
            passes,
            ops,
        }),
    }
}

/// `plan_kernel` of `cta_serve::planner`, re-composed from the same
/// public layer functions with a span around each.
#[allow(clippy::too_many_arguments)]
fn plan_kernel_traced<K: KernelSpec + ?Sized>(
    tr: &Tracer,
    req_id: u64,
    kernel: &K,
    cfg: &GpuConfig,
    axis: Axis,
    opt_agents: Option<u32>,
    app: Option<String>,
    subject: &str,
) -> CachedPlan {
    kernel
        .launch()
        .validate()
        .map_err(|e| ProtoError::new("bad-kernel", e.to_string()))?;
    let fw = Framework::new(cfg.clone());
    let max_agents = fw
        .max_agents_for(kernel)
        .map_err(|e| ProtoError::new("bad-kernel", e.to_string()))?;
    let profile = tr.span("walk.profile", req_id, || {
        StaticProfile::collect(kernel, cfg)
    });
    let exploit = profile.category.exploitable();
    let plan = Plan {
        category: profile.category,
        axis,
        exploit_locality: exploit,
        active_agents: opt_agents.map(|n| clamp_active_agents(n, max_agents)),
        bypass: if exploit {
            tr.span("walk.streaming_tags", req_id, || {
                fw.streaming_tags_static(kernel)
            })
        } else {
            Vec::new()
        },
        prefetch: if exploit { 0 } else { 2 },
    };
    let mut report = Report::new();
    if !tr.span("audit", req_id, || {
        audit_served(&plan, &profile, max_agents, subject, &mut report)
    }) {
        let detail = report
            .diagnostics()
            .iter()
            .map(|d| format!("{}: {}", d.code, d.message))
            .collect::<Vec<_>>()
            .join("; ");
        return Err(ProtoError::new("audit", detail));
    }
    let summary = tr.span("walk.costsum", req_id, || {
        AccessSummary::collect_on(kernel, cfg)
    });
    let hit = tr.span("walk.hit_interval", req_id, || summary.hit_interval(cfg));
    let launch = kernel.launch();
    Ok(PlanBody {
        app,
        gpu: normalize_gpu(&cfg.name),
        plan,
        max_agents,
        hit,
        warps_per_cta: launch.warps_per_cta(cfg.warp_size),
        ctas: launch.num_ctas(),
    })
}

/// `plan_request` (static mode) re-composed with spans, counting the
/// warp programs its walks generate.
fn plan_traced(tr: &Tracer, req_id: u64, req: &Request, counters: &Arc<GenCounters>) -> CachedPlan {
    let cfg = resolve_gpu(&req.gpu)
        .ok_or_else(|| ProtoError::new("unknown-gpu", format!("no preset named {:?}", req.gpu)))?;
    match &req.kernel {
        KernelRef::Named(abbr) => {
            let workload = lookup_app(abbr, &cfg).ok_or_else(|| {
                ProtoError::new("unknown-app", format!("no suite workload named {abbr:?}"))
            })?;
            let info = workload.info();
            let axis = match info.partition {
                PartitionHint::X => Axis::X,
                PartitionHint::Y => Axis::Y,
            };
            let kernel = Counting::new(workload, Arc::clone(counters));
            let subject = format!("{}/{}", info.abbr, req.gpu);
            plan_kernel_traced(
                tr,
                req_id,
                &kernel,
                &cfg,
                axis,
                Some(info.opt_agents_for(cfg.arch)),
                Some(info.abbr.to_string()),
                &subject,
            )
        }
        KernelRef::Raw(raw) => {
            let axis = if raw.grid[1] > 1 { Axis::Y } else { Axis::X };
            let kernel = Counting::new(DescribedKernel::new(raw.clone()), Arc::clone(counters));
            let subject = format!("raw:{}/{}", req.digest(), req.gpu);
            plan_kernel_traced(tr, req_id, &kernel, &cfg, axis, None, None, &subject)
        }
    }
}

/// One request through the answer path's layers, each in a span:
/// parse, digest, cache lookup (planning on a miss), render.
fn answer_traced(
    tr: &Tracer,
    req_id: u64,
    server: &Server,
    line: &str,
    counters: &Arc<GenCounters>,
    layers: &mut Layers,
) -> String {
    tr.span(OP, req_id, || {
        let req = match tr.span("proto.parse", req_id, || parse_request(line)) {
            Ok(req) => req,
            Err((id, err)) => return render_error(&id, &err, None),
        };
        let digest = tr.span("proto.digest", req_id, || req.digest());
        let (outcome, _hit) = tr.span("cache.lookup", req_id, || {
            server.cache().get_or_plan(digest, || {
                tr.span("planner.plan", req_id, || {
                    plan_traced(tr, req_id, &req, counters)
                })
            })
        });
        let resp = tr.span("render", req_id, || match &outcome {
            Ok(body) => body.render(&req.id),
            Err(err) => render_error(&req.id, err, None),
        });
        layers.add("render.bytes", resp.len() as f64);
        resp
    })
}

/// Mean per-span figures of the answer path, after a traced pass.
fn answer_layers(
    tr: &Tracer,
    layers: &mut Layers,
    requests: u64,
    untraced_ns: u64,
    server: &Server,
) {
    let agg = tr.aggregate();
    let per_req = |name: &str| {
        agg.get(name)
            .map_or(0.0, |a| a.total_ns as f64 / requests as f64)
    };
    let self_per_req = |name: &str| {
        agg.get(name)
            .map_or(0.0, |a| a.self_ns as f64 / requests as f64)
    };
    let per_call = |name: &str, scale: f64| {
        agg.get(name)
            .map_or(0.0, |a| a.total_ns as f64 / a.count.max(1) as f64 / scale)
    };
    layers.set("proto.parse_ns", per_req("proto.parse"));
    layers.set("proto.digest_ns", per_req("proto.digest"));
    layers.set("cache.lookup_ns", self_per_req("cache.lookup"));
    layers.set("render.ns", per_req("render"));
    layers.set("audit.us", per_call("audit", 1e3));
    let traced_parts = per_req("proto.parse")
        + per_req("proto.digest")
        + per_req("cache.lookup")
        + per_req("render");
    let untraced = untraced_ns as f64 / requests as f64;
    layers.set("server.answer_self_ns", (untraced - traced_parts).max(0.0));
    layers.set("render.bytes", layers.get("render.bytes") / requests as f64);
    let stats = server.cache_stats();
    layers.set("cache.lookups", stats.lookups as f64);
    layers.set("cache.hits", stats.hits as f64);
    layers.set("cache.misses", stats.misses as f64);
    layers.set("cache.hit_rate", stats.hit_rate());
}

pub fn traced_cold(
    bodies: &[String],
    lines: &[String],
    checker: &mut Checker,
    seed: u64,
) -> Layers {
    let baseline = server();
    let mut untraced_ns = 0u64;
    let mut untraced = Vec::with_capacity(lines.len());
    for line in lines {
        let t0 = Instant::now();
        untraced.push(baseline.answer(line, None));
        untraced_ns += t0.elapsed().as_nanos() as u64;
    }
    let tr = Tracer::default();
    let mut layers = Layers::default();
    let counters = Arc::new(GenCounters::default());
    let traced_server = server();
    for (i, ((body, line), expected)) in bodies.iter().zip(lines).zip(&untraced).enumerate() {
        let resp = answer_traced(&tr, i as u64, &traced_server, line, &counters, &mut layers);
        let same = resp == *expected;
        if !same {
            eprintln!("traced plan differs from Server::answer: {resp} vs {expected}");
        }
        checker.check(
            &body_key(body),
            response_digest(expected),
            is_plan(expected) && same,
        );
    }
    layers.absorb_gen(&counters);
    let plans = lines.len() as f64;
    layers.set(
        "walk.programs_per_plan",
        layers.get("kernels.programs") / plans,
    );
    answer_layers(
        &tr,
        &mut layers,
        lines.len() as u64,
        untraced_ns,
        &traced_server,
    );
    finish_trace(&tr, &mut layers, untraced_ns, "plan-cold", seed);
    layers
}

pub fn traced_hot(hot: &Hot, checker: &mut Checker, seed: u64) -> Layers {
    let n = HOT_TRACED.min(hot.item.len());
    let mut untraced_ns = 0u64;
    for &i in &hot.item[..n] {
        let t0 = Instant::now();
        std::hint::black_box(hot.server.answer(&hot.lines[i], None));
        untraced_ns += t0.elapsed().as_nanos() as u64;
    }
    let tr = Tracer::default();
    let mut layers = Layers::default();
    let counters = Arc::new(GenCounters::default());
    let before = hot.server.cache_stats();
    for (j, &i) in hot.item[..n].iter().enumerate() {
        let resp = answer_traced(
            &tr,
            j as u64,
            &hot.server,
            &hot.lines[i],
            &counters,
            &mut layers,
        );
        checker.attempted += 1;
        if !hot.matches(j, &resp) {
            checker.failed += 1;
            eprintln!("traced hot response {j} differs from its cold response: {resp}");
        }
    }
    layers.absorb_gen(&counters);
    answer_layers(&tr, &mut layers, n as u64, untraced_ns, &hot.server);
    // Cache figures of the traced stream only (the warm-up misses and
    // the untraced baseline pass are excluded).
    let after = hot.server.cache_stats();
    let d = |a: u64, b: u64| (a - b) as f64;
    layers.set("cache.lookups", d(after.lookups, before.lookups));
    layers.set("cache.hits", d(after.hits, before.hits));
    layers.set("cache.misses", d(after.misses, before.misses));
    layers.set(
        "cache.hit_rate",
        d(after.hits, before.hits) / d(after.lookups, before.lookups).max(1.0),
    );
    finish_trace(&tr, &mut layers, untraced_ns, "plan-hot", seed);
    layers
}
