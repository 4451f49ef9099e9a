//! Benchmarks the simulator core itself: wall-clock over the Figure 12
//! request matrix, engine event accounting, and program-cache
//! effectiveness, emitted as a single JSON document (`sim-core-bench/v1`)
//! on stdout.
//!
//! Every run is checked against the engine's conservation laws
//! (issues == instructions, one dispatch poll per CTA retirement, ...);
//! any violation is reported on stderr and the process exits nonzero, so
//! CI can gate on it.
//!
//! Usage:
//!   sim_core [--reduced] [--arch ata] [--profile] [--check <path>] [--before <seconds>] [--out <path>]
//!
//! `--reduced` runs a small Fermi-only subset (the CI smoke matrix).
//! `--arch ata` appends the aggregated-tag-array sweep: every Table 2
//! app simulated under the stock Maxwell preset and its ATA variant,
//! with both L1 and L2 hit rates in an `ata` JSON section.
//! `--profile` prints a deterministic per-run work-model table on
//! stderr: coalescer shape-path hits, tag-scan chunks, victim-scan
//! ways, set conflicts and heap pushes for every (arch, app, request).
//! The counters are exact event counts, not wall-clock samples, so two
//! runs of the same matrix produce byte-identical tables — this is the
//! profiler the speed work is aimed with.
//! `--check` compares the fresh run against a committed
//! `BENCH_sim_core.json` (run count, conservation violations, skip
//! ratio, and the exact `work_model` counters) and exits nonzero on
//! regression — the CI perf-smoke gate.
//! `--before` overrides the committed pre-rework baseline wall time the
//! speedup is normalized against (full matrix, 1 thread).
//! `--out` additionally writes the JSON to a file.

use cluster_bench::matrix::{drive_matrix, MatrixTotals};
use cta_clustering::ClusterError;
use cta_obs::{parse_json, Json};
use gpu_sim::GpuConfig;
use std::time::Instant;

/// Largest skip-ratio drop tolerated by `--check` before it fails: the
/// ratio is a structural property of the event-driven engine (fraction
/// of cycles never stepped), deterministic for a fixed matrix, so any
/// real movement beyond rounding noise means the engine regressed into
/// cycle-stepping behavior.
const SKIP_RATIO_TOLERANCE: f64 = 0.02;

/// Wall-clock of the full request matrix at 1 thread on the cycle-stepped
/// engine this bin's rework replaced (commit 2ceca1b, `fig12_speedup`).
const BASELINE_COMMIT: &str = "2ceca1b";
const BASELINE_WALL_S: f64 = 188.4;

fn main() -> Result<(), ClusterError> {
    cluster_bench::tune_allocator();
    let mut reduced = false;
    let mut verbose = false;
    let mut ata_sweep = false;
    let mut profile = false;
    let mut before = BASELINE_WALL_S;
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--reduced" => reduced = true,
            "--verbose" => verbose = true,
            "--profile" => profile = true,
            "--arch" => {
                let v = args
                    .next()
                    .ok_or_else(|| ClusterError::harness("--arch needs a value"))?;
                match v.as_str() {
                    "ata" => ata_sweep = true,
                    other => {
                        return Err(ClusterError::harness(format!(
                            "unknown --arch {other:?}; the only modeled variant is \"ata\""
                        )))
                    }
                }
            }
            "--check" => {
                check_path = Some(
                    args.next()
                        .ok_or_else(|| ClusterError::harness("--check needs a path"))?,
                );
            }
            "--before" => {
                let v = args
                    .next()
                    .ok_or_else(|| ClusterError::harness("--before needs a value"))?;
                before = v
                    .parse()
                    .map_err(|e| ClusterError::harness(format!("--before {v:?}: {e}")))?;
            }
            "--out" => {
                out_path = Some(
                    args.next()
                        .ok_or_else(|| ClusterError::harness("--out needs a path"))?,
                );
            }
            other => {
                return Err(ClusterError::harness(format!(
                    "unknown argument {other:?}; usage: \
                     sim_core [--reduced] [--verbose] [--arch ata] [--profile] \
                     [--check <path>] [--before <s>] [--out <path>]"
                )))
            }
        }
    }

    let configs: Vec<GpuConfig> = if reduced {
        vec![gpu_sim::arch::gtx570()]
    } else {
        gpu_sim::arch::all_presets().to_vec()
    };

    let t0 = Instant::now();
    let mut totals = MatrixTotals::default();
    // The matrix enumeration itself lives in `cluster_bench::matrix` so
    // the costmodel soundness gate (`analyze --verify-costmodel`) checks
    // exactly the runs this bin commits; this bin only observes.
    let ata = drive_matrix(
        &configs,
        reduced,
        ata_sweep,
        &mut totals,
        &mut |plan, req, _stats, metrics, elapsed| {
            if verbose {
                eprintln!(
                    "{}/{}/{}: {:.0}ms ({} issues)",
                    plan.cfg.name,
                    plan.info.abbr,
                    req.label(),
                    elapsed.as_secs_f64() * 1e3,
                    metrics.issues,
                );
            }
            if profile {
                let w = &metrics.work;
                eprintln!(
                    "profile {}/{}/{}: coalesce {} (contig {} sorted {} div {}) \
                     l1 chunks {} victims {} conflicts {} \
                     l2 chunks {} victims {} conflicts {} \
                     heaps ready {} sm {}",
                    plan.cfg.name,
                    plan.info.abbr,
                    req.label(),
                    w.coalesce_calls,
                    w.coalesce_contiguous,
                    w.coalesce_sorted,
                    w.coalesce_divergent,
                    w.l1.tag_chunks,
                    w.l1.victim_ways,
                    w.l1.set_conflicts,
                    w.l2.tag_chunks,
                    w.l2.victim_ways,
                    w.l2.set_conflicts,
                    w.ready_heap_pushes,
                    w.sm_heap_pushes,
                );
            }
        },
    )?;
    let ata_json = match &ata {
        Some(sweep) => {
            let rows: Vec<String> = sweep
                .rows
                .iter()
                .map(|r| {
                    format!(
                        "{{\"abbr\": \"{}\", \"l1_base\": {:.4}, \"l1_ata\": {:.4}, \
                         \"l2_base\": {:.4}, \"l2_ata\": {:.4}}}",
                        r.abbr, r.l1_base, r.l1_ata, r.l2_base, r.l2_ata,
                    )
                })
                .collect();
            format!(
                "{{\n    \"base_arch\": \"{}\",\n    \"ata_arch\": \"{}\",\n    \"apps\": [\n      {}\n    ],\n    \"l1_improved\": {},\n    \"apps_total\": {},\n    \"mean_l1_delta\": {:.4}\n  }}",
                sweep.base_arch,
                sweep.ata_arch,
                rows.join(",\n      "),
                sweep.improved,
                sweep.rows.len(),
                sweep.mean_l1_delta,
            )
        }
        None => "null".to_string(),
    };
    let wall_s = t0.elapsed().as_secs_f64();

    let (runs, violations) = (totals.runs, totals.violations);
    let (cache_hits, cache_fills) = (totals.cache_hits, totals.cache_fills);
    let total = &totals.engine;
    let skip_ratio = totals.skip_ratio();
    let hit_rate = totals.cache_hit_rate();
    let baseline = if reduced {
        "null".to_string()
    } else {
        format!(
            "{{\"commit\": \"{BASELINE_COMMIT}\", \"wall_s\": {BASELINE_WALL_S}, \"speedup\": {:.2}}}",
            before / wall_s
        )
    };
    let work = &total.work;
    let json = format!(
        "{{\n  \"format\": \"sim-core-bench/v1\",\n  \"mode\": \"{mode}\",\n  \"runs\": {runs},\n  \"wall_s\": {wall_s:.2},\n  \"baseline\": {baseline},\n  \"conservation_violations\": {violations},\n  \"engine\": {{\n    \"events\": {events},\n    \"issues\": {issues},\n    \"cycles_skipped\": {skipped},\n    \"skip_ratio\": {skip_ratio:.4},\n    \"warps_dispatched\": {warps},\n    \"warp_retires\": {warp_retires},\n    \"cta_retires\": {cta_retires},\n    \"dispatch_polls\": {polls}\n  }},\n  \"work_model\": {{\n    \"coalesce_calls\": {co_calls},\n    \"coalesce_contiguous\": {co_contig},\n    \"coalesce_sorted\": {co_sorted},\n    \"coalesce_divergent\": {co_div},\n    \"l1_tag_chunks\": {l1_chunks},\n    \"l1_victim_ways\": {l1_victims},\n    \"l1_set_conflicts\": {l1_conflicts},\n    \"l2_tag_chunks\": {l2_chunks},\n    \"l2_victim_ways\": {l2_victims},\n    \"l2_set_conflicts\": {l2_conflicts},\n    \"ready_heap_pushes\": {ready_pushes},\n    \"sm_heap_pushes\": {sm_pushes}\n  }},\n  \"program_cache\": {{\n    \"hits\": {cache_hits},\n    \"fills\": {cache_fills},\n    \"hit_rate\": {hit_rate:.4}\n  }},\n  \"ata\": {ata_json}\n}}",
        mode = if reduced { "reduced" } else { "full" },
        events = total.events,
        issues = total.issues,
        skipped = total.cycles_skipped,
        warps = total.warps_dispatched,
        warp_retires = total.warp_retires,
        cta_retires = total.cta_retires,
        polls = total.dispatch_polls,
        co_calls = work.coalesce_calls,
        co_contig = work.coalesce_contiguous,
        co_sorted = work.coalesce_sorted,
        co_div = work.coalesce_divergent,
        l1_chunks = work.l1.tag_chunks,
        l1_victims = work.l1.victim_ways,
        l1_conflicts = work.l1.set_conflicts,
        l2_chunks = work.l2.tag_chunks,
        l2_victims = work.l2.victim_ways,
        l2_conflicts = work.l2.set_conflicts,
        ready_pushes = work.ready_heap_pushes,
        sm_pushes = work.sm_heap_pushes,
    );
    println!("{json}");
    if let Some(path) = out_path {
        std::fs::write(&path, format!("{json}\n"))
            .map_err(|e| ClusterError::harness(format!("writing {path}: {e}")))?;
    }
    let mut check_failed = false;
    if let Some(path) = &check_path {
        let committed = std::fs::read_to_string(path)
            .map_err(|e| ClusterError::harness(format!("reading {path}: {e}")))?;
        check_failed = !diff_against_committed(
            &committed,
            path,
            if reduced { "reduced" } else { "full" },
            runs,
            violations,
            skip_ratio,
            work,
        )?;
    }
    if violations > 0 {
        eprintln!("sim_core: {violations} conservation violation(s)");
        std::process::exit(1);
    }
    if check_failed {
        std::process::exit(1);
    }
    Ok(())
}

/// Compares the fresh run against a committed `sim-core-bench/v1`
/// document and reports each criterion on stderr. The document is
/// parsed and every value is read from its own path (`mode`, `runs`,
/// `engine.skip_ratio`, `work_model.<key>`, ...), so a same-named key in
/// another section can never stand in for the pinned one; a missing or
/// mistyped field is an error. Returns `false` (and
/// logs `FAIL` lines) on any regression:
///
/// * the committed artifact itself must be violation-free and of the
///   same mode — otherwise the comparison is meaningless;
/// * the fresh run count must equal the committed one (the matrix
///   changed without regenerating the artifact);
/// * the fresh run must have zero conservation violations;
/// * the skip ratio may not drop more than [`SKIP_RATIO_TOLERANCE`]
///   below the committed value (the engine regressed toward
///   cycle-stepping);
/// * every `work_model` counter must match the committed value
///   *exactly* — the matrix is deterministic, so the counters are too,
///   and any drift means the coalescer, cache probe/victim scans or
///   event heaps are doing different work than the committed baseline.
///   This is the regression gate wall-clock is too noisy to provide.
///
/// Wall-clock is deliberately *not* gated: CI machines vary too much
/// for a hard threshold; the skip ratio and the exact work-model
/// counters are the portable proxies.
#[allow(clippy::too_many_arguments)]
fn diff_against_committed(
    committed: &str,
    path: &str,
    mode: &str,
    runs: u64,
    violations: u64,
    skip_ratio: f64,
    work: &gpu_sim::WorkModel,
) -> Result<bool, ClusterError> {
    let doc = parse_json(committed)
        .map_err(|e| ClusterError::harness(format!("{path}: not JSON: {e}")))?;
    let bad = |keys: &[&str], what: &str| {
        ClusterError::harness(format!("{path}: {} missing or not {what}", keys.join(".")))
    };
    let count = |keys: &[&str]| {
        doc.at(keys)
            .and_then(Json::as_u64)
            .ok_or_else(|| bad(keys, "an unsigned integer"))
    };
    let committed_mode = doc
        .at(&["mode"])
        .and_then(Json::as_str)
        .ok_or_else(|| bad(&["mode"], "a string"))?;
    let committed_runs = count(&["runs"])?;
    let committed_violations = count(&["conservation_violations"])?;
    let committed_skip = doc
        .at(&["engine", "skip_ratio"])
        .and_then(Json::as_f64)
        .ok_or_else(|| bad(&["engine", "skip_ratio"], "a number"))?;
    let mut ok = true;
    let mut report = |pass: bool, msg: String| {
        eprintln!(
            "sim_core --check: {} {msg}",
            if pass { "PASS" } else { "FAIL" }
        );
        ok &= pass;
    };
    report(
        committed_violations == 0,
        format!("committed artifact violation-free (has {committed_violations})"),
    );
    report(
        committed_mode == mode,
        format!("mode matches committed ({committed_mode:?} vs fresh {mode:?})"),
    );
    report(
        runs == committed_runs,
        format!("run count {runs} == committed {committed_runs}"),
    );
    report(
        violations == 0,
        format!("fresh violations == 0 (got {violations})"),
    );
    report(
        skip_ratio >= committed_skip - SKIP_RATIO_TOLERANCE,
        format!(
            "skip ratio {skip_ratio:.4} within {SKIP_RATIO_TOLERANCE} of committed {committed_skip:.4}"
        ),
    );
    // Work-model counters: deterministic event counts, pinned exactly.
    for (key, value) in work_pins(work) {
        let pinned = count(&["work_model", key])?;
        report(
            value == pinned,
            format!("work_model {key} {value} == committed {pinned}"),
        );
    }
    report(
        work.check_conservation().is_ok(),
        format!(
            "work_model conservation laws hold ({})",
            work.check_conservation().err().unwrap_or("ok")
        ),
    );
    Ok(ok)
}

/// The `work_model` counters `--check` pins, by artifact key.
fn work_pins(work: &gpu_sim::WorkModel) -> [(&'static str, u64); 12] {
    [
        ("coalesce_calls", work.coalesce_calls),
        ("coalesce_contiguous", work.coalesce_contiguous),
        ("coalesce_sorted", work.coalesce_sorted),
        ("coalesce_divergent", work.coalesce_divergent),
        ("l1_tag_chunks", work.l1.tag_chunks),
        ("l1_victim_ways", work.l1.victim_ways),
        ("l1_set_conflicts", work.l1.set_conflicts),
        ("l2_tag_chunks", work.l2.tag_chunks),
        ("l2_victim_ways", work.l2.victim_ways),
        ("l2_set_conflicts", work.l2.set_conflicts),
        ("ready_heap_pushes", work.ready_heap_pushes),
        ("sm_heap_pushes", work.sm_heap_pushes),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::WorkModel;

    /// A committed `reduced` artifact (3 runs, skip ratio 0.9) pinning
    /// every `work_model` counter at 0 except `l2_tag_chunks`, with
    /// `engine_extra` spliced into the `engine` section and the `drop`
    /// counter left out.
    fn fixture(engine_extra: &str, l2_chunks: u64, drop: &str) -> String {
        let work_model: Vec<String> = work_pins(&WorkModel::default())
            .into_iter()
            .filter(|(k, _)| *k != drop)
            .map(|(k, _)| {
                let v = if k == "l2_tag_chunks" { l2_chunks } else { 0 };
                format!("\"{k}\": {v}")
            })
            .collect();
        format!(
            "{{\"format\": \"sim-core-bench/v1\", \"mode\": \"reduced\", \"runs\": 3, \
             \"conservation_violations\": 0, \
             \"engine\": {{{engine_extra}\"skip_ratio\": 0.9}}, \
             \"work_model\": {{{}}}}}",
            work_model.join(", ")
        )
    }

    /// Checks `doc` against a fresh run whose counters are all 0.
    fn check(doc: &str) -> Result<bool, ClusterError> {
        diff_against_committed(doc, "fixture", "reduced", 3, 0, 0.9, &WorkModel::default())
    }

    #[test]
    fn exact_pins_pass() {
        assert!(check(&fixture("", 0, "")).unwrap());
    }

    #[test]
    fn decoy_key_in_an_earlier_section_cannot_mask_a_regression() {
        // A substring search for `"l2_tag_chunks":` finds the engine
        // section's decoy (equal to the fresh count) first; the pinned
        // value under `work_model` differs and must fail the gate.
        let doc = fixture("\"l2_tag_chunks\": 0, ", 7, "");
        let decoy = doc.find("\"l2_tag_chunks\": 0").unwrap();
        assert!(decoy < doc.find("\"l2_tag_chunks\": 7").unwrap());
        assert!(!check(&doc).unwrap());
    }

    #[test]
    fn missing_work_model_counter_is_an_error() {
        let doc = fixture("\"sm_heap_pushes\": 0, ", 0, "sm_heap_pushes");
        let err = check(&doc).unwrap_err();
        assert!(
            err.to_string().contains("work_model.sm_heap_pushes"),
            "{err}"
        );
    }
}
