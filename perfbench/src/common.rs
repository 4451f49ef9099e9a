//! Pieces every workload shares: run options, output checks against
//! pinned digests, and the end-to-end report of one run.

use crate::layers::Layers;
use crate::stats::{nearest_rank, percentile_sorted};
use std::collections::HashMap;
use std::time::Instant;

/// Options of one run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// Traced per-layer run instead of the timed run.
    pub trace: bool,
}

/// Set-up runs at least this often in one run; the median is reported.
const SETUP_MIN_REPEATS: usize = 5;

/// A cheaper set-up repeats more often, up to about this much in total.
const SETUP_BUDGET_S: f64 = 1.0;

/// Set-up runs at most this often in one run.
const SETUP_MAX_REPEATS: usize = 25;

/// The set-up time of one run.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Median time of one set-up, seconds.
    pub median_s: f64,
    /// Set-ups made: the sample count of the median.
    pub repeats: usize,
}

/// Runs a workload's timed loop: whole passes over its inputs, as many
/// as fit in `seconds` at the workload's nominal pass time
/// `nominal_pass_s` (at least one), with `setup` repeated between them.
/// The pass count depends on the arguments only, never on the host's
/// speed, so every run times the same operations the same number of
/// times.
///
/// Set-up runs 5 to 25 times, as many as fit in about a second at the
/// first set-up's time. The repeats are spread evenly over the passes,
/// so their median sees the host over the whole run, as the passes do:
/// this host's speed drifts over seconds. Each pass uses the newest
/// set-up's state. Returns the set-up time and the pass count.
pub fn timed_passes<T>(
    seconds: f64,
    nominal_pass_s: f64,
    mut setup: impl FnMut() -> T,
    mut pass: impl FnMut(&T),
) -> (Setup, usize) {
    let n = ((seconds / nominal_pass_s).round() as usize).max(1);
    let mut times = Vec::new();
    let mut state = None;
    let mut set_up = |state: &mut Option<T>, times: &mut Vec<f64>| {
        // Free the previous set-up first, so the peak RSS holds one.
        drop(state.take());
        let t0 = Instant::now();
        *state = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    };
    set_up(&mut state, &mut times);
    let repeats =
        ((SETUP_BUDGET_S / times[0]).ceil() as usize).clamp(SETUP_MIN_REPEATS, SETUP_MAX_REPEATS);
    for i in 0..n {
        while times.len() < (repeats * (i + 1)).div_ceil(n) {
            set_up(&mut state, &mut times);
        }
        let t0 = Instant::now();
        pass(state.as_ref().expect("set up before the first pass"));
        eprintln!("pass {i}: {:.3} s", t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    let setup = Setup {
        median_s: percentile_sorted(&times, 0.5).expect("at least one set-up"),
        repeats: times.len(),
    };
    (setup, n)
}

/// Checks outputs against pinned digests, or — for keys with no pin —
/// against the first digest this run saw for the key. A mismatch counts
/// one failed operation; it never aborts the run.
#[derive(Debug, Default)]
pub struct Checker {
    pins: HashMap<String, u64>,
    seen: HashMap<String, u64>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// Every `(key, digest)` checked, in order, when pin recording is on.
    pub recorded: Option<Vec<(String, u64)>>,
}

impl Checker {
    /// A checker over a pin file (`key<TAB>hex digest` lines); `use_pins`
    /// false ignores the pins (inputs that differ from the pinned seed).
    pub fn new(pin_file: &str, use_pins: bool) -> Checker {
        let pins = if use_pins {
            parse_pins(pin_file)
        } else {
            HashMap::new()
        };
        Checker {
            pins,
            ..Checker::default()
        }
    }

    /// Checks one operation's output digest; `valid` carries any other
    /// check of the output (conservation laws, error-free response).
    pub fn check(&mut self, key: &str, digest: u64, valid: bool) -> bool {
        self.attempted += 1;
        if let Some(rec) = &mut self.recorded {
            rec.push((key.to_string(), digest));
        }
        let expected = match self.pins.get(key) {
            Some(&pin) => pin,
            None => *self.seen.entry(key.to_string()).or_insert(digest),
        };
        let ok = valid && expected == digest;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {key}: digest {digest:016x}, expected {expected:016x}, valid={valid}");
        }
        ok
    }

    /// Counts one operation that failed outright (an error result).
    pub fn fail(&mut self, key: &str, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("operation failed: {key}: {why}");
    }
}

/// Parses a pin file: `key<TAB>16-hex-digit digest` per line.
pub fn parse_pins(text: &str) -> HashMap<String, u64> {
    text.lines()
        .filter_map(|l| {
            let (k, v) = l.rsplit_once('\t')?;
            Some((k.to_string(), u64::from_str_radix(v.trim(), 16).ok()?))
        })
        .collect()
}

/// Renders recorded digests as a pin file.
pub fn render_pins(rec: &[(String, u64)]) -> String {
    let mut seen = std::collections::HashSet::new();
    rec.iter()
        .filter(|(k, _)| seen.insert(k.clone()))
        .map(|(k, d)| format!("{k}\t{d:016x}\n"))
        .collect()
}

/// Times below this many nanoseconds are counted per nanosecond.
const DENSE_NS: usize = 1 << 17;

/// The percentiles the end-to-end report gives.
pub const PERCENTILES: [f64; 2] = [0.5, 0.9];

/// Host time of every operation a run executed. The times of the
/// current pass are kept exactly — a count per nanosecond below
/// [`DENSE_NS`] (the hot path's requests), every longer time as is —
/// and when the pass ends its exact nearest-rank [`PERCENTILES`] are
/// taken. A reported percentile is the mean over the passes of each
/// pass's percentile; the rate is the total work over the total timed
/// time.
///
/// Why per pass: this host's speed jumps between a fast and a slow
/// state for seconds at a time. Where the operation times form
/// clusters (the hot stream's two request kinds), a percentile over
/// the whole run jumps from one cluster to the next when the share of
/// the run spent in the fast state crosses a threshold; the mean of
/// the per-pass percentiles moves in proportion to that share, as the
/// rate does.
#[derive(Debug)]
pub struct OpTimes {
    dense: Vec<u32>,
    long: Vec<u64>,
    pass_samples: u64,
    /// Per ended pass: its [`PERCENTILES`], ns.
    pass_percentiles: Vec<[u64; 2]>,
    samples: u64,
    total_ns: u64,
    work: f64,
}

impl Default for OpTimes {
    fn default() -> OpTimes {
        OpTimes {
            dense: vec![0; DENSE_NS],
            long: Vec::new(),
            pass_samples: 0,
            pass_percentiles: Vec::new(),
            samples: 0,
            total_ns: 0,
            work: 0.0,
        }
    }
}

impl OpTimes {
    /// Records one operation that took `ns` and did `work` units of work.
    pub fn record(&mut self, ns: u64, work: f64) {
        match self.dense.get_mut(ns as usize) {
            Some(count) => *count += 1,
            None => self.long.push(ns),
        }
        self.pass_samples += 1;
        self.samples += 1;
        self.total_ns += ns;
        self.work += work;
    }

    /// Times `f` as one operation; `f` returns its work units.
    pub fn time<R>(&mut self, f: impl FnOnce() -> (R, f64)) -> R {
        let t0 = Instant::now();
        let (out, work) = f();
        self.record(t0.elapsed().as_nanos() as u64, work);
        out
    }

    /// Ends a pass: takes its exact percentiles and forgets its times.
    pub fn end_pass(&mut self) {
        if self.pass_samples == 0 {
            return;
        }
        self.long.sort_unstable();
        let mut pass = [0; 2];
        for (out, &p) in pass.iter_mut().zip(&PERCENTILES) {
            *out = self.nth(nearest_rank(self.pass_samples, p));
        }
        self.pass_percentiles.push(pass);
        self.dense.fill(0);
        self.long.clear();
        self.pass_samples = 0;
    }

    /// The current pass's time of 1-based rank `rank`, ns.
    fn nth(&self, mut rank: u64) -> u64 {
        for (ns, &count) in self.dense.iter().enumerate() {
            if rank <= u64::from(count) {
                return ns as u64;
            }
            rank -= u64::from(count);
        }
        self.long[rank as usize - 1]
    }

    /// Operations timed over all passes.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Passes ended: the count each reported percentile is a mean over.
    pub fn passes(&self) -> usize {
        self.pass_percentiles.len()
    }

    /// Work units per host second over the whole run.
    pub fn rate(&self) -> f64 {
        self.work / (self.total_ns as f64 / 1e9)
    }

    /// Mean over the ended passes of each pass's exact nearest-rank
    /// percentile `p` (one of [`PERCENTILES`]), in milliseconds.
    pub fn percentile_ms(&self, p: f64) -> Option<f64> {
        let i = PERCENTILES.iter().position(|&q| q == p)?;
        if self.pass_percentiles.is_empty() {
            return None;
        }
        let sum: u64 = self.pass_percentiles.iter().map(|pass| pass[i]).sum();
        Some(sum as f64 / self.pass_percentiles.len() as f64 / 1e6)
    }
}

/// End-to-end outcome of one timed run.
#[derive(Debug)]
pub struct Timed {
    /// Set-up time.
    pub setup: Setup,
    /// What one work unit is, for the report.
    pub unit_of_work: &'static str,
    /// Passes run.
    pub passes: usize,
    /// Every operation's time.
    pub ops: OpTimes,
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Output checks.
    pub checker: Checker,
    /// What the run measured.
    pub figures: Figures,
}

/// The figures of a timed (`--trace 0`) or a traced (`--trace 1`) run.
#[derive(Debug)]
pub enum Figures {
    /// End-to-end figures.
    Timed(Timed),
    /// Per-layer figures.
    Traced(Layers),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_times_percentiles_are_means_of_exact_per_pass_ranks() {
        // Two passes of short and long times, recorded out of order.
        let passes: [Vec<u64>; 2] = [
            vec![5, 2_000_000, 700, 700, 90, DENSE_NS as u64, 3, 1_000],
            vec![40, 10, 30, 20, 3_000_000],
        ];
        let mut ops = OpTimes::default();
        let mut expected = [0.0; 2];
        for ns in &passes {
            for &t in ns {
                ops.record(t, 2.0);
            }
            ops.end_pass();
            let mut sorted: Vec<f64> = ns.iter().map(|&t| t as f64 / 1e6).collect();
            sorted.sort_by(f64::total_cmp);
            for (e, &p) in expected.iter_mut().zip(&PERCENTILES) {
                *e += percentile_sorted(&sorted, p).unwrap() / 2.0;
            }
        }
        // Pass 1 (n = 8): p50 -> rank 4 (700 ns), p90 -> rank 8 (2 ms).
        // Pass 2 (n = 5): p50 -> rank 3 (30 ns), p90 -> rank 5 (3 ms).
        assert_eq!(ops.percentile_ms(0.5), Some(365.0 / 1e6));
        assert_eq!(ops.percentile_ms(0.9), Some(2.5));
        for (e, &p) in expected.iter().zip(&PERCENTILES) {
            assert!((ops.percentile_ms(p).unwrap() - e).abs() < 1e-12, "p{p}");
        }
        assert_eq!(ops.percentile_ms(0.99), None, "not a reported percentile");
        assert_eq!((ops.samples(), ops.passes()), (13, 2));
        let total: u64 = passes.iter().flatten().sum();
        assert_eq!(ops.rate(), 26.0 / (total as f64 / 1e9));
        // Ending an empty pass adds nothing.
        ops.end_pass();
        assert_eq!(ops.passes(), 2);
        assert_eq!(OpTimes::default().percentile_ms(0.5), None);
    }
}
