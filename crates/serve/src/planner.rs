//! Request planning: from a parsed [`Request`] to a `plan/v1` body.
//!
//! The default path is fully static — no cache or timing simulation:
//!
//! 1. Resolve the GPU preset and materialize the kernel (suite workload
//!    for `"app"`, a [`DescribedKernel`] for structural descriptions).
//! 2. Classify the locality source from the statically enumerated
//!    address streams ([`StaticProfile`]) and read the streaming tags
//!    off the same walk.
//! 3. Assemble the clustering plan the way `Framework::plan` does
//!    (Figure 5's decision table), with the throttle seeded from the
//!    Table 2 optimum for named apps.
//! 4. Bound the predicted L1 hit rate with the sound static cost model
//!    ([`locality::AccessSummary::hit_interval`]).
//! 5. Gate the response through the analyzer's served-plan audit
//!    (CL401): a plan that fails the audit never leaves the server.
//!
//! `"mode":"measured"` additionally sweeps throttling degrees with real
//! simulations through the content-addressed program registry
//! ([`cluster_bench::AppPlan::with_content_key`]), so digest twins
//! share one traced program arena even across worker threads.

use crate::proto::{AccessKind, KernelRef, Mode, ProtoError, RawKernel, Request};
use cta_analyzer::plan::audit_served;
use cta_analyzer::{Report, StaticProfile};
use cta_clustering::{clamp_active_agents, Axis, Framework, Plan};
use gpu_kernels::{PartitionHint, Workload};
use gpu_sim::{arch, CtaContext, Dim3, GpuConfig, KernelSpec, LaunchConfig, MemAccess, Op};
use locality::{AccessSummary, HitInterval};

/// Resolves a normalized preset name (see [`crate::proto::normalize_gpu`])
/// to its [`GpuConfig`]. Covers the four Table 1 presets plus the
/// GTX 750 Ti used by the sectored-cache experiments.
pub fn resolve_gpu(normalized: &str) -> Option<GpuConfig> {
    match normalized {
        "GTX570" => Some(arch::gtx570()),
        "TESLAK40" | "K40" => Some(arch::tesla_k40()),
        "GTX980" => Some(arch::gtx980()),
        "GTX1080" => Some(arch::gtx1080()),
        "GTX750TI" => Some(arch::gtx750ti()),
        _ => None,
    }
}

/// Looks up a suite workload by abbreviation: the 23 Table 2 rows plus
/// the Figure 3 extras.
pub fn lookup_app(abbr: &str, cfg: &GpuConfig) -> Option<Box<dyn Workload>> {
    gpu_kernels::suite::by_abbr(abbr, cfg.arch).or_else(|| {
        gpu_kernels::suite::fig3_suite(cfg.arch)
            .into_iter()
            .find(|w| w.info().abbr == abbr)
    })
}

/// A kernel materialized from a structural description: every warp
/// performs the described access patterns at its grid position.
#[derive(Debug, Clone)]
pub struct DescribedKernel {
    raw: RawKernel,
}

impl DescribedKernel {
    /// Wraps a parsed description.
    pub fn new(raw: RawKernel) -> Self {
        DescribedKernel { raw }
    }
}

impl KernelSpec for DescribedKernel {
    fn name(&self) -> String {
        "described".into()
    }

    fn launch(&self) -> LaunchConfig {
        let [x, y, z] = self.raw.grid;
        LaunchConfig::new(Dim3::new(x, y, z), self.raw.block)
            .with_regs(self.raw.regs)
            .with_smem(self.raw.smem)
    }

    fn warp_program(&self, ctx: &CtaContext, warp: u32) -> Vec<Op> {
        let mut prog = Vec::with_capacity(self.raw.accesses.len());
        for a in &self.raw.accesses {
            for rep in 0..a.reps {
                let base = a.base
                    + ctx.cta * a.cta_stride
                    + warp as u64 * a.warp_stride
                    + rep as u64 * a.rep_stride;
                let acc = MemAccess::coalesced(a.tag, base, a.lanes, a.bytes);
                prog.push(match a.kind {
                    AccessKind::Load => Op::Load(acc),
                    AccessKind::Store => Op::Store(acc),
                });
            }
        }
        prog
    }
}

/// Everything a success response carries. Pure data: rendering it (with
/// the per-request correlation id patched in) is the cache-hit path.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanBody {
    /// App abbreviation for named requests.
    pub app: Option<String>,
    /// Normalized GPU preset name.
    pub gpu: String,
    /// The clustering plan.
    pub plan: Plan,
    /// Occupancy bound the throttle was validated against.
    pub max_agents: u32,
    /// Sound static L1 hit-rate bounds.
    pub hit: HitInterval,
    /// Warps per CTA at this GPU's warp width.
    pub warps_per_cta: u32,
    /// CTAs in the grid.
    pub ctas: u64,
}

impl PlanBody {
    /// Renders the response line for correlation id `id` (no trailing
    /// newline). Field order and float formatting are part of the
    /// protocol, pinned by the golden tests.
    pub fn render(&self, id: &str) -> String {
        use crate::proto::PROTO;
        use cta_obs::json::escape;
        let mut out = format!(
            "{{\"proto\":\"{PROTO}\",\"id\":\"{}\",\"gpu\":\"{}\"",
            escape(id),
            escape(&self.gpu)
        );
        if let Some(app) = &self.app {
            out.push_str(&format!(",\"app\":\"{}\"", escape(app)));
        }
        out.push_str(&format!(
            ",\"category\":\"{}\",\"exploit\":{},\"axis\":\"{}\"",
            self.plan.category, self.plan.exploit_locality, self.plan.axis
        ));
        match self.plan.active_agents {
            Some(n) => out.push_str(&format!(",\"active_agents\":{n}")),
            None => out.push_str(",\"active_agents\":null"),
        }
        out.push_str(&format!(",\"max_agents\":{}", self.max_agents));
        out.push_str(",\"bypass\":[");
        for (i, t) in self.plan.bypass.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&t.to_string());
        }
        out.push_str(&format!("],\"prefetch\":{}", self.plan.prefetch));
        out.push_str(&format!(
            ",\"hit_lo\":{:.6},\"hit_hi\":{:.6},\"reads\":{}",
            self.hit.lo, self.hit.hi, self.hit.reads
        ));
        out.push_str(&format!(
            ",\"warps_per_cta\":{},\"ctas\":{}}}",
            self.warps_per_cta, self.ctas
        ));
        out
    }
}

fn axis_of(hint: PartitionHint) -> Axis {
    match hint {
        PartitionHint::X => Axis::X,
        PartitionHint::Y => Axis::Y,
    }
}

fn plan_kernel<K: KernelSpec + ?Sized>(
    kernel: &K,
    cfg: &GpuConfig,
    axis: Axis,
    opt_agents: Option<u32>,
    app: Option<String>,
    subject: &str,
) -> Result<PlanBody, ProtoError> {
    kernel
        .launch()
        .validate()
        .map_err(|e| ProtoError::new("bad-kernel", e.to_string()))?;
    let fw = Framework::new(cfg.clone());
    let max_agents = fw
        .max_agents_for(kernel)
        .map_err(|e| ProtoError::new("bad-kernel", e.to_string()))?;
    let profile = StaticProfile::collect(kernel, cfg);
    let exploit = profile.category.exploitable();
    // Figure 5's decision table, as in `Framework::plan`: exploit plans
    // bypass the streaming arrays; unexploitable ones fall back to
    // cross-CTA prefetching.
    let plan = Plan {
        category: profile.category,
        axis,
        exploit_locality: exploit,
        active_agents: opt_agents.map(|n| clamp_active_agents(n, max_agents)),
        bypass: if exploit {
            profile.word_streaming_tags()
        } else {
            Vec::new()
        },
        prefetch: if exploit { 0 } else { 2 },
    };
    let mut report = Report::new();
    if !audit_served(&plan, &profile, max_agents, subject, &mut report) {
        let detail = report
            .diagnostics()
            .iter()
            .map(|d| format!("{}: {}", d.code, d.message))
            .collect::<Vec<_>>()
            .join("; ");
        return Err(ProtoError::new("audit", detail));
    }
    let hit = AccessSummary::collect_on(kernel, cfg).hit_interval(cfg);
    let launch = kernel.launch();
    Ok(PlanBody {
        app,
        gpu: crate::proto::normalize_gpu(&cfg.name),
        plan,
        max_agents,
        hit,
        warps_per_cta: launch.warps_per_cta(cfg.warp_size),
        ctas: launch.num_ctas(),
    })
}

/// Plans one request end to end. Deterministic: the result is a pure
/// function of the request's semantic fields, which is what makes the
/// content-addressed cache sound and responses byte-identical across
/// worker counts.
pub fn plan_request(req: &Request) -> Result<PlanBody, ProtoError> {
    let cfg = resolve_gpu(&req.gpu)
        .ok_or_else(|| ProtoError::new("unknown-gpu", format!("no preset named {:?}", req.gpu)))?;
    match &req.kernel {
        KernelRef::Named(abbr) => {
            let workload = lookup_app(abbr, &cfg).ok_or_else(|| {
                ProtoError::new("unknown-app", format!("no suite workload named {abbr:?}"))
            })?;
            let info = workload.info();
            let subject = format!("{}/{}", info.abbr, req.gpu);
            let mut body = plan_kernel(
                workload.as_ref(),
                &cfg,
                axis_of(info.partition),
                Some(info.opt_agents_for(cfg.arch)),
                Some(info.abbr.to_string()),
                &subject,
            )?;
            if req.mode == Mode::Measured {
                body.plan.active_agents = Some(measured_throttle(&cfg, workload, req)?);
            }
            Ok(body)
        }
        KernelRef::Raw(raw) => {
            // Structural descriptions carry no Table 2 hint; partition
            // along Y when the grid has rows to cluster (row-major CTA
            // ids make Y-neighbours address-adjacent), else X.
            let axis = if raw.grid[1] > 1 { Axis::Y } else { Axis::X };
            let kernel = DescribedKernel::new(raw.clone());
            let subject = format!("raw:{}/{}", req.digest(), req.gpu);
            plan_kernel(&kernel, &cfg, axis, None, None, &subject)
        }
    }
}

/// The measured path: sweep the phase-A throttling candidates with real
/// simulations and return the cycle-optimal `ACTIVE_AGENTS`. Uses the
/// content-addressed program registry so requests with equal digests
/// (and the phase's own variants) share one traced program arena.
fn measured_throttle(
    cfg: &GpuConfig,
    workload: Box<dyn Workload>,
    req: &Request,
) -> Result<u32, ProtoError> {
    let plan = cluster_bench::AppPlan::with_content_key(cfg, workload, req.digest());
    let stats = plan
        .phase_a()
        .into_iter()
        .map(|r| plan.run(r))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| ProtoError::new("bad-kernel", e.to_string()))?;
    Ok(plan.select_throttle(&stats).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::parse_request;

    fn req(line: &str) -> Request {
        parse_request(line).expect("test request parses")
    }

    #[test]
    fn named_app_plans_match_table2_metadata() {
        let body = plan_request(&req(r#"{"id":"a","gpu":"GTX570","app":"MM"}"#)).expect("MM plans");
        assert_eq!(body.app.as_deref(), Some("MM"));
        assert!(body.plan.exploit_locality, "MM is exploitable");
        assert_eq!(body.plan.axis, Axis::Y, "Table 2 partitions MM along Y");
        let active = body
            .plan
            .active_agents
            .expect("named apps carry a throttle");
        assert!(active >= 1 && active <= body.max_agents);
        assert!(body.hit.lo >= 0.0 && body.hit.hi <= 1.0 && body.hit.lo <= body.hit.hi);
    }

    #[test]
    fn streaming_app_gets_prefetch_not_bypass() {
        let body = plan_request(&req(r#"{"id":"a","gpu":"GTX570","app":"BS"}"#)).expect("BS plans");
        assert!(!body.plan.exploit_locality);
        assert_eq!(body.plan.prefetch, 2);
        assert!(body.plan.bypass.is_empty());
    }

    #[test]
    fn raw_kernel_plans_deterministically() {
        let line = r#"{"id":"a","gpu":"GTX980","kernel":{"grid":[32,8],"block":64,
            "accesses":[{"tag":0,"base":0,"warp_stride":0,"reps":4},
                        {"tag":1,"base":1048576,"cta_stride":8192,"warp_stride":256}]}}"#;
        let a = plan_request(&req(line)).expect("raw kernel plans");
        let b = plan_request(&req(line)).expect("raw kernel plans again");
        assert_eq!(a, b);
        assert_eq!(a.plan.axis, Axis::Y, "multi-row grid partitions along Y");
        assert_eq!(a.plan.active_agents, None);
        assert_eq!(a.ctas, 256);
    }

    #[test]
    fn unknown_names_map_to_protocol_errors() {
        let e = plan_request(&req(r#"{"id":"a","gpu":"GTX570","app":"NOPE"}"#)).unwrap_err();
        assert_eq!(e.code, "unknown-app");
        let e = plan_request(&req(r#"{"id":"a","gpu":"RTX9090","app":"MM"}"#)).unwrap_err();
        assert_eq!(e.code, "unknown-gpu");
    }

    #[test]
    fn zero_cta_grid_is_a_bad_kernel() {
        let e = plan_request(&req(
            r#"{"id":"a","gpu":"GTX570","kernel":{"grid":[0],"block":32}}"#,
        ))
        .unwrap_err();
        assert_eq!(e.code, "bad-kernel");
    }

    fn assert_same_bypass<K: KernelSpec + ?Sized>(kernel: &K, cfg: &GpuConfig, what: &str) {
        assert_eq!(
            StaticProfile::collect(kernel, cfg).word_streaming_tags(),
            Framework::new(cfg.clone()).streaming_tags_static(kernel),
            "{what} on {}",
            cfg.name
        );
    }

    #[test]
    fn profile_bypass_set_equals_the_static_probe() {
        // `plan_kernel` reads the bypass set off the profile's walk
        // instead of walking every warp program a second time.
        let gtx570 = arch::gtx570();
        let suite = gpu_kernels::suite::table2_suite(gtx570.arch);
        assert_eq!(suite.len(), 23);
        for w in &suite {
            assert_same_bypass(w.as_ref(), &gtx570, w.info().abbr);
        }
        let (lines, distinct) = crate::bench::mix(4, &[], &[]);
        assert_eq!(distinct, 4, "the structural band of the bench mix");
        for line in &lines {
            let r = req(line);
            let KernelRef::Raw(raw) = r.kernel else {
                panic!("structural kernel expected: {line}");
            };
            let cfg = resolve_gpu(&r.gpu).expect("mix presets resolve");
            assert_same_bypass(&DescribedKernel::new(raw), &cfg, line);
        }
    }

    #[test]
    fn response_rendering_is_stable() {
        let body = plan_request(&req(r#"{"id":"a","gpu":"GTX570","app":"NW"}"#)).unwrap();
        let line = body.render("r-9");
        assert!(line.starts_with(r#"{"proto":"plan/v1","id":"r-9","gpu":"GTX570","app":"NW""#));
        assert!(line.contains("\"hit_lo\":"));
        assert!(line.ends_with('}'));
        assert_eq!(line, body.render("r-9"), "rendering is a pure function");
    }
}
