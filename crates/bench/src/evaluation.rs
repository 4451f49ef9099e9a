//! The Figure 12 / Figure 13 evaluation matrix: all Table 2 applications
//! under all optimization variants on all four architectures.

use crate::runner::{AppEvaluation, Variant};
use gpu_kernels::PaperCategory;
use gpu_sim::{geometric_mean, ArchGen};

/// The paper's three figure panels per architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Panel {
    /// Left panels: algorithm-related applications.
    Algorithm,
    /// Middle panels: cache-line-related applications.
    CacheLine,
    /// Right panels: data-, write-related and streaming applications
    /// (no exploitable inter-CTA locality).
    Unexploitable,
}

impl Panel {
    /// Which panel an application belongs to.
    pub fn of(category: PaperCategory) -> Panel {
        match category {
            PaperCategory::Algorithm => Panel::Algorithm,
            PaperCategory::CacheLine => Panel::CacheLine,
            _ => Panel::Unexploitable,
        }
    }

    /// All panels in figure order.
    pub const ALL: [Panel; 3] = [Panel::Algorithm, Panel::CacheLine, Panel::Unexploitable];
}

impl std::fmt::Display for Panel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Panel::Algorithm => "algorithm-related",
            Panel::CacheLine => "cache-line-related",
            Panel::Unexploitable => "data/write/streaming",
        })
    }
}

/// Complete evaluation of one architecture.
#[derive(Debug, Clone)]
pub struct ArchEvaluation {
    /// GPU evaluated.
    pub gpu: String,
    /// Architecture generation.
    pub arch: ArchGen,
    /// Per-application results, in Table 2 order.
    pub apps: Vec<AppEvaluation>,
}

impl ArchEvaluation {
    /// Applications belonging to `panel`, in suite order.
    pub fn panel_apps(&self, panel: Panel) -> Vec<&AppEvaluation> {
        self.apps
            .iter()
            .filter(|a| Panel::of(a.info.category) == panel)
            .collect()
    }

    /// Geometric-mean speedup of `variant` over the apps of `panel`
    /// (the paper's "G-M" bars).
    pub fn geomean_speedup(&self, panel: Panel, variant: Variant) -> f64 {
        geometric_mean(self.panel_apps(panel).iter().map(|a| a.speedup(variant)))
    }

    /// Geometric-mean normalized L2 transactions of `variant` over the
    /// apps of `panel` (Figure 13's aggregate).
    pub fn geomean_l2(&self, panel: Panel, variant: Variant) -> f64 {
        geometric_mean(
            self.panel_apps(panel)
                .iter()
                .map(|a| a.l2_norm(variant).max(1e-9)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_classification() {
        assert_eq!(Panel::of(PaperCategory::Algorithm), Panel::Algorithm);
        assert_eq!(Panel::of(PaperCategory::CacheLine), Panel::CacheLine);
        assert_eq!(Panel::of(PaperCategory::Streaming), Panel::Unexploitable);
        assert_eq!(Panel::of(PaperCategory::DataWrite), Panel::Unexploitable);
        assert_eq!(Panel::of(PaperCategory::Write), Panel::Unexploitable);
        assert_eq!(Panel::of(PaperCategory::Data), Panel::Unexploitable);
    }
}
