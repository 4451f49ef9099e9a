//! Parallel evaluation engine: fans the independent simulations of the
//! Figure 12/13 matrix across OS threads.
//!
//! Each simulation is single-threaded and deterministic; what this
//! module parallelizes is the *matrix* — app × architecture × variant,
//! with every throttle-sweep candidate as its own job. Work is
//! distributed through an index-keyed job queue (`std::thread::scope` +
//! `std::sync::mpsc`; zero external dependencies) and results land in
//! preallocated slots keyed by job index, so output is byte-identical to
//! the serial path regardless of thread count or scheduling order.
//!
//! Thread count comes from the `CLUSTER_BENCH_THREADS` environment
//! variable; unset defaults to [`std::thread::available_parallelism`],
//! and `1` selects the legacy serial path (no threads spawned at all).

use crate::evaluation::ArchEvaluation;
use crate::runner::{AppPlan, SimRequest};
use cta_clustering::ClusterError;
use gpu_sim::{GpuConfig, RunStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Total simulation time accumulated across all threads (nanoseconds).
/// Drives the "effective parallel speedup" line in bin footers.
static BUSY_NANOS: AtomicU64 = AtomicU64::new(0);

/// Adds `d` to the process-wide busy-time counter. Called by
/// [`AppPlan::run`] around every simulation, on whichever thread runs it.
///
/// When telemetry is on, the same quantity lands on the recorder as
/// `time/busy_ns` — a wall-clock metric, so it appears in the Chrome
/// trace but is excluded from the deterministic JSONL export.
pub fn record_busy(d: Duration) {
    BUSY_NANOS.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    if let Some(obs) = cta_obs::maybe_global() {
        obs.counter("time/busy_ns", "", d.as_nanos() as u64);
    }
}

/// Busy time accumulated so far.
pub fn busy_time() -> Duration {
    Duration::from_nanos(BUSY_NANOS.load(Ordering::Relaxed))
}

/// Number of worker threads the harness should use.
///
/// Reads `CLUSTER_BENCH_THREADS`; a missing, empty, or unparsable value
/// falls back to [`std::thread::available_parallelism`]. `1` means the
/// legacy serial path. Values are clamped to at least 1.
pub fn configured_threads() -> usize {
    match std::env::var("CLUSTER_BENCH_THREADS") {
        Ok(v) if !v.trim().is_empty() => match v.trim().parse::<usize>() {
            Ok(n) => n.max(1),
            Err(_) => {
                eprintln!(
                    "warning: ignoring unparsable CLUSTER_BENCH_THREADS={v:?}; \
                     using available parallelism"
                );
                default_threads()
            }
        },
        _ => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item, using up to `threads` worker threads, and
/// returns results in input order.
///
/// With `threads <= 1` (or fewer than two items) this runs inline on the
/// calling thread — the legacy serial path, spawning nothing. Otherwise
/// workers pull item indices from a shared queue and write results into
/// the slot of the same index, which makes the output independent of
/// which worker ran which item. A panic in `f` propagates to the caller
/// once the scope joins.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let (tx, rx) = mpsc::channel::<usize>();
    for i in 0..items.len() {
        tx.send(i).expect("queue send");
    }
    drop(tx); // Workers drain until the queue reports disconnected.
    let queue = Mutex::new(rx);
    let slots: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.min(items.len()) {
            s.spawn(|| loop {
                // Hold the queue lock only for the recv, not the work.
                let wait_start = Instant::now();
                let next = queue.lock().expect("queue lock").recv();
                if let Some(obs) = cta_obs::maybe_global() {
                    // Queue-wait vs busy: wall-clock, so `time/`-prefixed
                    // (Chrome trace only, never the deterministic JSONL).
                    obs.counter(
                        "time/queue_wait_ns",
                        "",
                        wait_start.elapsed().as_nanos() as u64,
                    );
                }
                match next {
                    Ok(i) => *slots[i].lock().expect("slot lock") = Some(f(&items[i])),
                    Err(_) => break,
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("slot lock").expect("every job ran"))
        .collect()
}

/// Runs the full evaluation matrix for the given GPUs across `threads`
/// workers, producing exactly what mapping
/// [`crate::evaluate_app`] over each preset's Table 2 suite produces.
///
/// Two fan-out phases: phase A runs every simulation whose inputs are
/// known up front (baseline, RD, CLU, and each throttle-sweep candidate,
/// for every app on every architecture); after the sweep winners are
/// selected, phase B runs the two variants that depend on them
/// (CLU+TOT+BPS and PFH+TOT).
///
/// # Errors
///
/// Propagates the first [`AppPlan::run`] failure of either phase.
pub fn evaluate_matrix(
    cfgs: &[GpuConfig],
    threads: usize,
) -> Result<Vec<ArchEvaluation>, ClusterError> {
    // Plans are cheap (no simulation), so build them inline.
    let plans: Vec<Vec<AppPlan>> = cfgs
        .iter()
        .map(|cfg| {
            gpu_kernels::suite::table2_suite(cfg.arch)
                .into_iter()
                .map(|w| AppPlan::new(cfg, w))
                .collect()
        })
        .collect();
    Ok(cfgs
        .iter()
        .zip(run_plans(&plans, threads)?)
        .map(|(cfg, apps)| ArchEvaluation {
            gpu: cfg.name.clone(),
            arch: cfg.arch,
            apps,
        })
        .collect())
}

/// Evaluates an explicit set of workloads on one GPU across `threads`
/// workers. Equivalent to calling [`crate::evaluate_app`] on each
/// workload in order; useful for partial matrices (and the determinism
/// regression tests).
pub fn evaluate_apps_par(
    cfg: &GpuConfig,
    workloads: Vec<Box<dyn gpu_kernels::Workload>>,
    threads: usize,
) -> Result<Vec<crate::runner::AppEvaluation>, ClusterError> {
    let plans = vec![workloads
        .into_iter()
        .map(|w| AppPlan::new(cfg, w))
        .collect()];
    Ok(run_plans(&plans, threads)?
        .pop()
        .expect("one plan row in, one out"))
}

/// The two-phase fan-out over prepared plans (outer index = architecture,
/// inner = app). Returns evaluations in the same shape and order.
///
/// Each phase runs all its jobs to completion (the pool has no early
/// cancellation), then surfaces the first error in job order so the
/// reported failure is deterministic.
fn run_plans(
    plans: &[Vec<AppPlan>],
    threads: usize,
) -> Result<Vec<Vec<crate::runner::AppEvaluation>>, ClusterError> {
    // Phase A: flatten (arch, app, request) into one job list.
    let jobs_a: Vec<(usize, usize, SimRequest)> = plans
        .iter()
        .enumerate()
        .flat_map(|(ai, apps)| {
            apps.iter().enumerate().flat_map(move |(pi, plan)| {
                plan.phase_a().into_iter().map(move |req| (ai, pi, req))
            })
        })
        .collect();
    let stats_a: Vec<RunStats> = par_map(&jobs_a, threads, |&(ai, pi, req)| plans[ai][pi].run(req))
        .into_iter()
        .collect::<Result<_, _>>()?;

    // Regroup phase-A stats per app (jobs were emitted app-major) and
    // pick each app's throttle winner.
    let mut grouped_a: Vec<Vec<Vec<RunStats>>> = plans
        .iter()
        .map(|apps| apps.iter().map(|_| Vec::new()).collect())
        .collect();
    for (&(ai, pi, _), stats) in jobs_a.iter().zip(stats_a) {
        grouped_a[ai][pi].push(stats);
    }
    let chosen: Vec<Vec<(u32, usize)>> = plans
        .iter()
        .zip(&grouped_a)
        .map(|(apps, stats)| {
            apps.iter()
                .zip(stats)
                .map(|(plan, s)| plan.select_throttle(s))
                .collect()
        })
        .collect();

    // Phase B: the sweep-dependent variants.
    let jobs_b: Vec<(usize, usize, SimRequest)> = plans
        .iter()
        .enumerate()
        .flat_map(|(ai, apps)| {
            apps.iter().enumerate().flat_map({
                let chosen = &chosen;
                move |(pi, plan)| {
                    plan.phase_b(chosen[ai][pi].0)
                        .into_iter()
                        .map(move |req| (ai, pi, req))
                }
            })
        })
        .collect();
    let stats_b: Vec<RunStats> = par_map(&jobs_b, threads, |&(ai, pi, req)| plans[ai][pi].run(req))
        .into_iter()
        .collect::<Result<_, _>>()?;
    let mut grouped_b: Vec<Vec<Vec<RunStats>>> = plans
        .iter()
        .map(|apps| apps.iter().map(|_| Vec::new()).collect())
        .collect();
    for (&(ai, pi, _), stats) in jobs_b.iter().zip(stats_b) {
        grouped_b[ai][pi].push(stats);
    }

    // Assemble in input order — identical to the serial path.
    Ok(plans
        .iter()
        .enumerate()
        .map(|(ai, apps)| {
            apps.iter()
                .enumerate()
                .map(|(pi, plan)| {
                    plan.assemble(
                        std::mem::take(&mut grouped_a[ai][pi]),
                        chosen[ai][pi],
                        std::mem::take(&mut grouped_b[ai][pi]),
                    )
                })
                .collect()
        })
        .collect())
}

/// Tunes glibc's allocator for the harness's allocation pattern.
///
/// Each simulation allocates a handful of MB-scale slabs (cache arrays,
/// CTA placements, profiler pages) that die with the run. Under glibc's
/// defaults those exceed the mmap threshold, so every run pays
/// mmap/munmap plus a page fault per touched page — measured at ~14% of
/// `fig12_speedup` wall time as system time. Raising the mmap and trim
/// thresholds keeps the slabs in the main arena, where the next run
/// reuses the same already-faulted pages. No-op off glibc; values are
/// per-process hints, not correctness-relevant.
pub fn tune_allocator() {
    #[cfg(target_env = "gnu")]
    {
        // From <malloc.h>: M_TRIM_THRESHOLD = -1, M_MMAP_THRESHOLD = -3.
        extern "C" {
            fn mallopt(param: core::ffi::c_int, value: core::ffi::c_int) -> core::ffi::c_int;
        }
        // SAFETY: mallopt only writes malloc's own tuning parameters;
        // called once at bin startup before any worker threads exist.
        unsafe {
            mallopt(-1, 512 << 20);
            mallopt(-3, 64 << 20);
        }
    }
}

/// Wraps a bin's body in a root telemetry span and, when `CLUSTER_OBS`
/// is set, exports `<bin>.jsonl` (deterministic) and `<bin>.trace.json`
/// (Chrome trace) on the way out. The export paths go to *stderr* so a
/// bin's stdout stays byte-comparable across telemetry modes.
///
/// Also applies [`tune_allocator`], so every figure bin gets the
/// allocator tuned the same way.
pub fn with_obs<R>(bin: &str, f: impl FnOnce() -> R) -> R {
    tune_allocator();
    let result = {
        let _root = cta_obs::span(format!("bin/{bin}"));
        f()
    };
    if let Some((jsonl, trace)) = cta_obs::export_global(bin) {
        eprintln!(
            "telemetry: wrote {} and {}",
            jsonl.display(),
            trace.display()
        );
    }
    result
}

/// Wall-clock + busy-time bracket for a bin's report footer.
#[derive(Debug)]
pub struct RunClock {
    start: Instant,
    busy_at_start: Duration,
    threads: usize,
}

impl RunClock {
    /// Starts timing; `threads` is echoed in the footer.
    pub fn start(threads: usize) -> RunClock {
        RunClock {
            start: Instant::now(),
            busy_at_start: busy_time(),
            threads,
        }
    }

    /// The footer line: elapsed wall-clock, accumulated simulation time,
    /// and the effective parallel speedup (busy / wall).
    pub fn footer(&self) -> String {
        let wall = self.start.elapsed();
        let busy = busy_time().saturating_sub(self.busy_at_start);
        let speedup = busy.as_secs_f64() / wall.as_secs_f64().max(1e-9);
        format!(
            "elapsed {:.2}s wall, {:.2}s simulating on {} thread{} (effective parallel speedup {:.2}x)",
            wall.as_secs_f64(),
            busy.as_secs_f64(),
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            speedup,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..64).collect();
        for threads in [1, 2, 4, 7] {
            let out = par_map(&items, threads, |&x| x * x);
            assert_eq!(
                out,
                items.iter().map(|&x| x * x).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let none: Vec<u32> = vec![];
        assert_eq!(par_map(&none, 4, |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[7u32], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_runs_every_job_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        let calls = AtomicUsize::new(0);
        let items: Vec<usize> = (0..33).collect();
        let out = par_map(&items, 3, |&i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 33);
        assert_eq!(calls.load(Ordering::Relaxed), 33);
    }

    #[test]
    fn busy_clock_accumulates() {
        let clock = RunClock::start(2);
        record_busy(Duration::from_millis(10));
        let footer = clock.footer();
        assert!(footer.contains("2 threads"), "{footer}");
        assert!(footer.contains("effective parallel speedup"), "{footer}");
    }

    #[test]
    fn thread_count_env_parsing() {
        // Can't mutate the environment safely in parallel tests; just
        // check the fallback is sane.
        assert!(default_threads() >= 1);
    }
}
