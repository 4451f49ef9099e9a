//! Static locality profiling: the address-stream statistics the plan
//! audit and the IR lints share, computed by walking warp programs with
//! [`gpu_sim::walk`] — no timing model involved.

use cta_clustering::STREAMING_MIN_ACCESSES;
use gpu_sim::{walk, ArrayTag, CacheOp, FxHashMap, FxHashSet, GpuConfig, KernelSpec, Op};
use locality::{classify, Category, Signature, StaticFeed, TagReuseProfiler, TagSummary};

/// Reference line size the static analysis is defined over (the 128-byte
/// Fermi/Kepler L1 line, where cache-line locality lives).
const LINE_BYTES: u64 = 128;

/// Per-tag cache-line statistics (read path only).
#[derive(Debug, Clone, Copy, Default)]
pub struct TagLineStats {
    /// Demand-read line touches of this tag.
    pub read_touches: u64,
    /// Touches that hit a line this tag had touched before.
    pub reused_touches: u64,
}

impl TagLineStats {
    /// Fraction of read line touches that land on already-touched lines.
    pub fn line_reuse_share(&self) -> f64 {
        if self.read_touches == 0 {
            return 0.0;
        }
        self.reused_touches as f64 / self.read_touches as f64
    }
}

/// The statically derived locality profile of one kernel on one GPU.
#[derive(Debug)]
pub struct StaticProfile {
    /// Locality signature over the full static access stream.
    pub signature: Signature,
    /// Category the signature classifies to.
    pub category: Category,
    /// Per-tag word-reuse summaries.
    tags: TagReuseProfiler,
    /// Per-tag line touch statistics.
    line_stats: FxHashMap<ArrayTag, TagLineStats>,
    /// Tags the kernel stores to or atomics, sorted.
    written_tags: Vec<ArrayTag>,
    /// Demand accesses walked.
    pub accesses: u64,
}

/// Word-reuse-rate ceiling for a bypass candidate (mirrors the dynamic
/// `streaming_tags` threshold).
const STREAM_WORD_REUSE_MAX: f64 = 0.02;

/// Line-reuse-share ceiling for a bypass candidate. Stricter than the
/// `CL021` firing threshold (0.25) so selection and lint cannot flap on
/// borderline tags.
const STREAM_LINE_REUSE_MAX: f64 = 0.10;

impl StaticProfile {
    /// Walks `kernel`'s warp programs under `cfg`'s geometry and builds
    /// the profile.
    pub fn collect<K: KernelSpec + ?Sized>(kernel: &K, cfg: &GpuConfig) -> Self {
        let mut category = StaticFeed::new(locality::CategoryProfiler::with_line_bytes(128));
        let mut tags = StaticFeed::new(TagReuseProfiler::new());
        let mut line_stats: FxHashMap<ArrayTag, TagLineStats> = FxHashMap::default();
        let mut seen_lines: FxHashSet<(ArrayTag, u64)> = FxHashSet::default();
        let mut scratch: Vec<u64> = Vec::new();
        let mut written: FxHashSet<ArrayTag> = FxHashSet::default();

        walk::each_warp_program_on(kernel, cfg, |ctx, warp, prog| {
            for op in prog {
                category.op(ctx.cta, ctx.sm_id, warp, op);
                tags.op(ctx.cta, ctx.sm_id, warp, op);
                if let Op::Store(a) | Op::Atomic(a) = op {
                    written.insert(a.tag);
                }
                // Line statistics: demand reads only.
                if let Op::Load(a) = op {
                    if a.cache_op == CacheOp::PrefetchL1 {
                        continue;
                    }
                    scratch.clear();
                    for &addr in &a.addrs {
                        let line = addr / LINE_BYTES;
                        if !scratch.contains(&line) {
                            scratch.push(line);
                        }
                    }
                    let stats = line_stats.entry(a.tag).or_default();
                    for &line in &scratch {
                        stats.read_touches += 1;
                        if !seen_lines.insert((a.tag, line)) {
                            stats.reused_touches += 1;
                        }
                    }
                }
            }
        });

        let accesses = category.issued();
        let category = category.into_inner();
        let mut written_tags: Vec<ArrayTag> = written.into_iter().collect();
        written_tags.sort_unstable();
        StaticProfile {
            signature: category.signature(),
            category: category.classify(),
            tags: tags.into_inner(),
            line_stats,
            written_tags,
            accesses,
        }
    }

    /// Re-runs the classification (e.g. after threshold changes).
    pub fn classify(&self) -> Category {
        classify(&self.signature)
    }

    /// Word-reuse summary of one tag.
    pub fn tag_summary(&self, tag: ArrayTag) -> TagSummary {
        self.tags.summary(tag)
    }

    /// Line statistics of one tag.
    pub fn tag_line_stats(&self, tag: ArrayTag) -> TagLineStats {
        self.line_stats.get(&tag).copied().unwrap_or_default()
    }

    /// All tags observed, sorted.
    pub fn tags(&self) -> Vec<ArrayTag> {
        self.tags.summaries().into_iter().map(|(t, _)| t).collect()
    }

    /// Tags the kernel stores to or atomics, sorted. A read of any other
    /// tag cannot participate in a data race within this launch.
    pub fn written_tags(&self) -> &[ArrayTag] {
        &self.written_tags
    }

    /// The word-reuse bypass set — tags with at least
    /// [`STREAMING_MIN_ACCESSES`] word accesses and under 2% word reuse —
    /// read off this profile's walk. Equal to
    /// [`cta_clustering::Framework::streaming_tags_static`], which feeds
    /// the same profiler over the same idealized-RR walk, so a caller
    /// holding a profile needs no second walk for it.
    pub fn word_streaming_tags(&self) -> Vec<ArrayTag> {
        self.tags.streaming_tags(STREAMING_MIN_ACCESSES)
    }

    /// Statically derived bypass candidates: heavily-accessed tags with
    /// neither word reuse (under 2%) nor line reuse (under 10%). The
    /// double criterion keeps cache-line-sourced reuse — invisible to the
    /// word-level test — out of the bypass set, which is exactly what
    /// lint `CL021` would flag.
    pub fn streaming_tags(&self) -> Vec<ArrayTag> {
        let mut v: Vec<ArrayTag> = self
            .tags
            .summaries()
            .into_iter()
            .filter(|(t, s)| {
                s.accesses >= STREAMING_MIN_ACCESSES
                    && s.reuse_rate() < STREAM_WORD_REUSE_MAX
                    && self.tag_line_stats(*t).line_reuse_share() < STREAM_LINE_REUSE_MAX
            })
            .map(|(t, _)| t)
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{arch, CtaContext, Dim3, LaunchConfig, MemAccess, Program};

    /// CTAs share a table (tag 0), stream private slices (tag 1), and
    /// quarter-walk shared lines (tag 2: line reuse without word reuse).
    #[derive(Debug, Clone)]
    struct Mixed;

    impl KernelSpec for Mixed {
        fn name(&self) -> String {
            "mixed".into()
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::linear(16), 32u32)
        }
        fn warp_program(&self, ctx: &CtaContext, _warp: u32) -> Program {
            let quarter: Vec<u64> = (0..8)
                .map(|l| (ctx.cta / 4) * 128 + (ctx.cta % 4) * 32 + l * 4)
                .collect();
            vec![
                Op::Load(MemAccess::coalesced(0, 0, 32, 4)),
                Op::Load(MemAccess::coalesced(1, (1 << 30) + ctx.cta * 128, 32, 4)),
                Op::Load(MemAccess::gather(2, quarter, 4)),
            ]
        }
    }

    #[test]
    fn streaming_selection_respects_both_reuse_criteria() {
        let p = StaticProfile::collect(&Mixed, &arch::gtx570());
        // Tag 0 is word-reused, tag 2 is line-reused: neither may be
        // bypassed. Tag 1 truly streams.
        assert!(p.tag_summary(0).reuse_rate() > 0.5);
        assert!(p.tag_summary(2).reuse_rate() < 0.02);
        assert!(p.tag_line_stats(2).line_reuse_share() > 0.5);
        assert_eq!(p.streaming_tags(), vec![1]);
        assert_eq!(p.tags(), vec![0, 1, 2]);
    }

    #[test]
    fn profile_is_deterministic() {
        let a = StaticProfile::collect(&Mixed, &arch::gtx570());
        let b = StaticProfile::collect(&Mixed, &arch::gtx570());
        assert_eq!(a.signature, b.signature);
        assert_eq!(a.category, b.category);
        assert_eq!(a.accesses, b.accesses);
    }
}
