//! The benchmark's own check that its work counts are exact: every
//! count-valued per-layer metric repeats identically across two traced
//! runs at the same seed.

use crate::common::{Checker, Opts};
use crate::layers::{Layers, PER_LAYER};
use crate::{fig12, gen, plan};

const OPTS: Opts = Opts {
    seed: gen::DEFAULT_SEED,
    seconds: 0.0,
    trace: true,
};

/// Every count-valued per-layer metric, by name.
fn counts(l: &Layers) -> Vec<(&'static str, f64)> {
    PER_LAYER
        .iter()
        .filter(|(_, unit)| *unit == "count")
        .map(|&(name, _)| (name, l.get(name)))
        .collect()
}

/// Runs `traced` twice; asserts the counts agree, the named ones are
/// nonzero, and no output check failed.
fn assert_repeats(nonzero: &[&str], mut traced: impl FnMut(&mut Checker) -> Layers) {
    let (mut c1, mut c2) = (Checker::default(), Checker::default());
    let (a, b) = (traced(&mut c1), traced(&mut c2));
    assert_eq!(counts(&a), counts(&b));
    for name in nonzero {
        assert!(a.get(name) > 0.0, "{name} is zero");
    }
    assert_eq!((c1.failed, c2.failed), (0, 0));
    assert!(c1.attempted > 0);
}

#[test]
fn fig12_counts_repeat() {
    let matrix = [(gpu_sim::arch::gtx570(), "NW")];
    assert_repeats(
        &[
            "engine.events",
            "coalesce.calls",
            "l1.reads",
            "l2.reads",
            "kernels.programs",
        ],
        |c| fig12::traced(&OPTS, &matrix, c),
    );
}

#[test]
fn plan_cold_counts_repeat() {
    let bodies: Vec<String> = [
        gen::named_body("GTX570", "NW"),
        gen::named_body("GTX980", "DXT"),
    ]
    .into_iter()
    .chain(gen::structural_band(gen::DEFAULT_SEED, 2))
    .collect();
    let lines: Vec<String> = bodies.iter().map(|b| gen::line("t", b)).collect();
    assert_repeats(
        &["kernels.programs", "cache.misses", "walk.programs_per_plan"],
        |c| plan::traced_cold(&bodies, &lines, c, gen::DEFAULT_SEED),
    );
}

#[test]
fn plan_hot_counts_repeat() {
    assert_repeats(&["cache.hits", "cache.lookups"], |c| {
        let hot = plan::warm_hot(gen::DEFAULT_SEED, c);
        plan::traced_hot(&hot, c, gen::DEFAULT_SEED)
    });
}
