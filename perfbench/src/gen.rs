//! Seeded input generators. Every input a workload hands the program is
//! a pure function of `--seed`; the program itself never sees the seed.
//!
//! The default seed is the engine's own scheduler seed (`0xC1A0_0017`),
//! so at the default seed `fig12-sim` reproduces the committed
//! `sim_core` matrix runs and `dse-reduced` sweeps the committed NW+BS
//! grid in its committed order.

use std::collections::HashSet;

/// The engine's default scheduler seed; the benchmark's default seed.
pub const DEFAULT_SEED: u64 = 0xC1A0_0017;

/// The four Table 1 presets, as request `gpu` fields.
pub const PRESETS: [&str; 4] = ["GTX570", "TeslaK40", "GTX980", "GTX1080"];

/// The Figure 12 apps `fig12-sim` runs: L2-bound (NBO), streaming (BS),
/// divergent-coalescer (HST), L1-victim-heavy (MM),
/// contiguous-coalescer-heavy (BKP) and short runs that shape p50 (NW).
pub const FIG12_APPS: [&str; 6] = ["NBO", "BS", "HST", "MM", "BKP", "NW"];

/// The six Table 2 apps whose static plan is cheapest on every preset
/// (6–60 ms each): with the structural band they fill the `plan-hot`
/// cache in under a second.
pub const CHEAP_PLAN_APPS: [&str; 6] = ["DXT", "SAD", "NW", "MON", "3CV", "HST"];

/// Structural kernels in the `plan-cold` set.
pub const COLD_BAND: usize = 16;

/// Structural kernels in the `plan-hot` set (a superset of the cold
/// band: the band generator is prefix-stable).
pub const HOT_BAND: usize = 40;

/// The app pair `dse-reduced` sweeps: the committed NW+BS grid.
pub const DSE_PAIR: [&str; 2] = ["NW", "BS"];

/// Requests per `plan-hot` stream pass.
pub const HOT_STREAM_LEN: usize = 100_000;

/// Zipf exponent of the `plan-hot` stream.
pub const ZIPF_S: f64 = 1.0;

/// SplitMix64: tiny, seedable, and stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream; `stream` keeps the streams of
    /// one seed independent of each other.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The CTA-scheduler seed of the simulations (`HardwareLike::new`).
pub fn sched_seed(seed: u64) -> u64 {
    seed
}

/// A request line: correlation id plus a semantic body.
pub fn line(id: &str, body: &str) -> String {
    format!("{{\"id\":\"{id}\",{body}}}")
}

/// The request body of a named suite app on a preset.
pub fn named_body(gpu: &str, app: &str) -> String {
    format!(r#""gpu":"{gpu}","app":"{app}""#)
}

/// The 92 Table 2 × preset request bodies, preset-major.
pub fn table2_bodies() -> Vec<String> {
    let apps: Vec<&'static str> = gpu_kernels::suite::table2_suite(gpu_sim::ArchGen::Fermi)
        .iter()
        .map(|w| w.info().abbr)
        .collect();
    PRESETS
        .iter()
        .flat_map(|gpu| apps.iter().map(move |app| named_body(gpu, app)))
        .collect()
}

/// The `cta_stride`s of the structural kernels in `cta_serve::bench::mix`.
pub const MIX_STRIDES: [u64; 4] = [0, 128, 4096, 65536];

/// A structural kernel in the shape `cta_serve::bench::mix` uses —
/// a 64×4 grid of 64-thread CTAs on GTX980, a strided streaming array
/// plus an array re-read four times — with tag 0's CTA stride `stride`.
pub fn structural_body(stride: u64) -> String {
    format!(
        r#""gpu":"GTX980","kernel":{{"grid":[64,4],"block":64,"accesses":[{{"tag":0,"base":0,"cta_stride":{stride},"warp_stride":256}},{{"tag":1,"base":1073741824,"reps":4}}]}}"#
    )
}

/// A band of `n` distinct structural kernels of the `bench::mix` shape:
/// the mix's own four CTA strides first, then seeded line-aligned
/// strides in the mix's range `0..=65536`. Only the stride varies, as
/// in the mix. A shorter band is a prefix of a longer one at the same
/// seed.
pub fn structural_band(seed: u64, n: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, 1);
    let mut fixed = MIX_STRIDES.into_iter();
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let stride = fixed
            .next()
            .unwrap_or_else(|| 128 * rng.below(65536 / 128 + 1));
        if seen.insert(stride) {
            out.push(structural_body(stride));
        }
    }
    out
}

/// The `plan-cold` request set: every Table 2 app on every preset, then
/// the structural band.
pub fn cold_bodies(seed: u64) -> Vec<String> {
    let mut bodies = table2_bodies();
    bodies.extend(structural_band(seed, COLD_BAND));
    bodies
}

/// The digests `plan-hot` warms: the structural band plus the cheap
/// Table 2 apps on every preset (64 distinct bodies), in popularity
/// order. Structural and named requests alternate down the ranks: a
/// structural line is several times longer to parse, so a seed-chosen
/// order would move the stream's mean cost with the seed.
pub fn hot_set(seed: u64) -> Vec<String> {
    let mut band = structural_band(seed, HOT_BAND).into_iter();
    let mut named = PRESETS
        .iter()
        .flat_map(|gpu| CHEAP_PLAN_APPS.iter().map(move |app| named_body(gpu, app)));
    let mut bodies = Vec::with_capacity(HOT_BAND + PRESETS.len() * CHEAP_PLAN_APPS.len());
    loop {
        let (b, n) = (band.next(), named.next());
        if b.is_none() && n.is_none() {
            return bodies;
        }
        bodies.extend(b.into_iter().chain(n));
    }
}

/// A Zipf(`ZIPF_S`) stream of `n` seeded draws of indices into a set
/// of `k` items; index 0 is the most popular.
pub fn zipf_stream(seed: u64, k: usize, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 2);
    let weights: Vec<f64> = (1..=k).map(|r| 1.0 / (r as f64).powf(ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(k);
    let mut acc = 0.0;
    for w in weights {
        acc += w / total;
        cdf.push(acc);
    }
    (0..n)
        .map(|_| {
            let u = rng.unit();
            cdf.partition_point(|&c| c <= u).min(k - 1)
        })
        .collect()
}

/// The order in which `dse-reduced` sweeps its app pair: NW then BS at
/// the default seed, else seed-chosen. Only the order is seeded: other
/// pairs of short apps that cost the same to sweep still differ in peak
/// memory (142 vs 204 MiB for NW+BS and SAD+3CV) and in the cost of
/// their sub-sweeps, which would move the figures with the seed.
pub fn dse_apps(seed: u64) -> [&'static str; 2] {
    let [a, b] = DSE_PAIR;
    if seed == DEFAULT_SEED || Rng::new(seed, 3).below(2) == 0 {
        [a, b]
    } else {
        [b, a]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_stable_per_seed() {
        for seed in [DEFAULT_SEED, 1, 42] {
            assert_eq!(structural_band(seed, 16), structural_band(seed, 16));
            assert_eq!(hot_set(seed), hot_set(seed));
            assert_eq!(zipf_stream(seed, 64, 1000), zipf_stream(seed, 64, 1000));
            assert_eq!(dse_apps(seed), dse_apps(seed));
            assert_eq!(sched_seed(seed), sched_seed(seed));
        }
        assert_ne!(structural_band(1, 16), structural_band(2, 16));
        assert_eq!(structural_band(5, 40)[..16], structural_band(5, 16)[..]);
        assert_ne!(zipf_stream(1, 64, 1000), zipf_stream(2, 64, 1000));
    }

    #[test]
    fn default_seed_reproduces_the_committed_inputs() {
        assert_eq!(sched_seed(DEFAULT_SEED), 0xC1A0_0017);
        assert_eq!(dse_apps(DEFAULT_SEED), ["NW", "BS"]);
        assert_eq!(table2_bodies().len(), 92);
        assert_eq!(cold_bodies(DEFAULT_SEED).len(), 108);
        // The band opens with the serve-bench mix's own four kernels.
        let mix: Vec<String> = MIX_STRIDES.iter().map(|&s| structural_body(s)).collect();
        assert_eq!(structural_band(DEFAULT_SEED, 4), mix);
        assert_eq!(structural_band(99, 4), mix);
        let (lines, _) = cta_serve::bench::mix(4, &[], &[]);
        let ours: Vec<String> = mix
            .iter()
            .enumerate()
            .map(|(i, b)| line(&format!("b{i}"), b))
            .collect();
        assert_eq!(lines, ours);
    }

    #[test]
    fn sets_are_distinct_and_large_enough() {
        let band = structural_band(7, 16);
        assert_eq!(band.iter().collect::<HashSet<_>>().len(), 16);
        let hot = hot_set(7);
        assert_eq!(hot.len(), 64);
        assert_eq!(hot.iter().collect::<HashSet<_>>().len(), hot.len());
        let cold = cold_bodies(7);
        assert_eq!(cold.iter().collect::<HashSet<_>>().len(), cold.len());
    }

    #[test]
    fn zipf_stream_is_skewed_and_in_range() {
        let s = zipf_stream(9, 64, 20_000);
        assert!(s.iter().all(|&i| i < 64));
        let mut counts = vec![0u32; 64];
        for &i in &s {
            counts[i] += 1;
        }
        // Zipf(1) over 64 items: the top item draws ~21% of requests.
        assert!(counts[0] > 3000, "{counts:?}");
        assert!(counts[63] < 200, "{counts:?}");
    }
}
