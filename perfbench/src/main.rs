//! The repository benchmark. One command runs one workload at one seed:
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig12-sim --seed 3248488471 --seconds 40 --trace 0
//! ```
//!
//! It prints every metric by name with its unit and sample count, the
//! operations attempted and failed, and — as the last line of standard
//! output — one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of the traced run with `--trace 1`.
//!
//! `perfbench compare A B` compares two result sets (see `compare.rs`);
//! `perfbench pin --workload W` rewrites W's pinned output digests from
//! a run at the default seed. See README.md for the workloads, the
//! metric → layer → workload map and what stays out of scope.

mod common;
mod compare;
#[cfg(test)]
mod determinism;
mod dse;
mod fig12;
mod gen;
mod layers;
mod plan;
mod stats;
mod trace;

use common::{render_pins, Figures, Opts, Outcome, Timed};
use std::process::ExitCode;

/// The workloads: `BENCHMARK.json` times `fig12-sim` and `plan-hot`;
/// `plan-cold` is for hand-made runs (its traced pass is part of the
/// `plan-hot` traced run).
const WORKLOADS: [&str; 3] = ["fig12-sim", "plan-hot", "plan-cold"];

fn run(workload: &str, opts: &Opts, record: bool) -> Option<Outcome> {
    Some(match workload {
        "fig12-sim" => fig12::run(opts, record),
        "plan-cold" => plan::run_cold(opts, record),
        "plan-hot" => plan::run_hot(opts, record),
        _ => return None,
    })
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A metric of the report: name, value, unit, sample count.
type Metric = (&'static str, f64, &'static str, Option<u64>);

fn end_to_end(timed: &Timed) -> Vec<Metric> {
    let ops = &timed.ops;
    let n = Some(ops.samples());
    println!(
        "{} passes of {} operations; the rate is over all {} operation times, each \
         percentile the mean over the {} passes of the pass's exact nearest-rank value",
        timed.passes,
        ops.samples() / timed.passes as u64,
        ops.samples(),
        ops.passes()
    );
    let metrics = vec![
        (
            "setup_s",
            timed.setup.median_s,
            "s",
            Some(timed.setup.repeats as u64),
        ),
        ("peak_rss_mb", peak_rss_mb(), "MiB", None),
        ("ops_per_s", ops.rate(), "1/s", n),
        ("op_ms_p50", ops.percentile_ms(0.5).unwrap_or(0.0), "ms", n),
        ("op_ms_p90", ops.percentile_ms(0.9).unwrap_or(0.0), "ms", n),
    ];
    println!("ops_per_s counts {}", timed.unit_of_work);
    metrics
}

fn report(workload: &str, opts: &Opts, out: Outcome) {
    println!(
        "workload {workload}, seed {}, trace {}",
        opts.seed,
        u8::from(opts.trace)
    );
    let metrics: Vec<Metric> = match &out.figures {
        Figures::Timed(timed) => end_to_end(timed),
        Figures::Traced(layers) => layers
            .published()
            .into_iter()
            .map(|(n, v, u)| (n, v, u, None))
            .collect(),
    };
    let checker = out.checker;
    for (name, value, unit, n) in &metrics {
        match n {
            Some(n) => println!("  {name:<32} {value:>16.6} {unit:<6} (n={n})"),
            None => println!("  {name:<32} {value:>16.6} {unit}"),
        }
    }
    println!("attempted {}, failed {}", checker.attempted, checker.failed);
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit, _)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.failed == 0 && checker.attempted > 0,
        checker.attempted.max(1),
        checker.failed,
        body.join(", ")
    );
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       perfbench compare <A> <B> [--benchmark BENCHMARK.json]\n       perfbench pin --workload <name>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// `pin`: rewrites a workload's pinned digests from a default-seed run.
fn pin(workload: &str) -> ExitCode {
    let opts = Opts {
        seed: gen::DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
    };
    let (file, recorded) = match workload {
        "plan-cold" | "plan-hot" => {
            let mut rec = run("plan-cold", &opts, true)
                .and_then(|o| o.checker.recorded)
                .unwrap_or_default();
            rec.extend(
                run("plan-hot", &opts, true)
                    .and_then(|o| o.checker.recorded)
                    .unwrap_or_default(),
            );
            ("plan", rec)
        }
        "fig12-sim" => (
            workload,
            run(workload, &opts, true)
                .and_then(|o| o.checker.recorded)
                .unwrap_or_default(),
        ),
        "dse-reduced" => (workload, dse::pins()),
        _ => return usage(),
    };
    let path = format!("perfbench/pins/{file}.tsv");
    match std::fs::write(&path, render_pins(&recorded)) {
        Ok(()) => {
            eprintln!("wrote {} pins to {path}", recorded.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    // The timed paths are single-threaded closed loops with telemetry off,
    // under the allocator tuning every bin of the repository applies.
    std::env::set_var("CLUSTER_BENCH_THREADS", "1");
    std::env::remove_var("CLUSTER_OBS");
    cluster_bench::tune_allocator();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
            return usage();
        };
        let bench = args
            .iter()
            .position(|a| a == "--benchmark")
            .and_then(|i| args.get(i + 1))
            .map_or("BENCHMARK.json", String::as_str);
        let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        let result = (|| compare::compare(&read(bench)?, &read(a)?, &read(b)?))();
        return match result {
            Ok((text, pass)) => {
                print!("{text}");
                println!("{}", if pass { "PASS" } else { "FAIL" });
                if pass {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let pin_mode = args.first().map(String::as_str) == Some("pin");
    let flags = if pin_mode { &args[1..] } else { &args[..] };
    let mut workload = None;
    let mut opts = Opts {
        seed: gen::DEFAULT_SEED,
        seconds: 40.0,
        trace: false,
    };
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => match parse_seed(value) {
                Some(s) => opts.seed = s,
                None => return usage(),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s >= 0.0 => opts.seconds = s,
                _ => return usage(),
            },
            "--trace" => match value.as_str() {
                "0" => opts.trace = false,
                "1" => opts.trace = true,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    if pin_mode {
        return pin(&workload);
    }
    match run(&workload, &opts, false) {
        Some(out) => {
            report(&workload, &opts, out);
            ExitCode::SUCCESS
        }
        None => usage(),
    }
}
