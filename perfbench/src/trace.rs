//! In-memory span recorder for the traced (`--trace 1`) run.
//!
//! Spans are recorded around the benchmark's own calls into each
//! layer's public functions: name, start, end, parent span and request
//! id. They stay in memory and are written out once, at the end.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Name of the root span of one end-to-end operation.
pub const OP: &str = "op";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span wraps.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (operation) id the span belongs to.
    pub req: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name aggregate of a trace.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameAgg {
    /// Spans of this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times (duration minus direct children), ns.
    pub self_ns: u64,
}

/// Records nested spans; single-threaded by construction.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for request `req`.
    pub fn span<R>(&self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                req,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let start = self.now();
        let out = f();
        let end = self.now();
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[idx].start_ns = start;
        spans[idx].end_ns = end;
        out
    }

    /// Per-name count, total and self time.
    pub fn aggregate(&self) -> BTreeMap<&'static str, NameAgg> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur();
            }
        }
        let mut out: BTreeMap<&'static str, NameAgg> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += s.dur();
            a.self_ns += s.dur().saturating_sub(child_ns[i]);
        }
        out
    }

    /// Share of the root [`OP`] spans' time that their direct child
    /// spans (the traced layers) account for.
    pub fn coverage(&self) -> f64 {
        let spans = self.spans.borrow();
        let (mut root, mut covered) = (0u64, 0u64);
        for s in spans.iter() {
            match s.parent {
                None if s.name == OP => root += s.dur(),
                Some(p) if spans[p].name == OP && spans[p].parent.is_none() => covered += s.dur(),
                _ => {}
            }
        }
        if root == 0 {
            0.0
        } else {
            covered as f64 / root as f64
        }
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"req":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_coverage_counts_direct_children() {
        let t = Tracer::default();
        t.span(OP, 1, || {
            t.span("a", 1, || {
                spin(200_000);
                t.span("b", 1, || spin(300_000));
            });
            spin(100_000);
        });
        let agg = t.aggregate();
        assert_eq!(agg["op"].count, 1);
        assert!(agg["a"].total_ns >= 500_000);
        assert!(agg["a"].self_ns < agg["a"].total_ns - 290_000);
        assert_eq!(agg["b"].self_ns, agg["b"].total_ns, "leaf self == total");
        let cov = t.coverage();
        assert!(cov > 0.5 && cov < 1.0, "{cov}");
        assert_eq!(t.len(), 3);
    }
}
