//! The ten-plus additional applications that appear only in the paper's
//! Figure 3 reuse quantification (COR, LUD, FWT, PFD, STD, MRI, SRD, LIB,
//! SR2, NE, SP, BNO, SLA, FTD, LPS, GES, HRT).
//!
//! These are modelled as parameterizations of [`ExtraApp`], a composable
//! pattern kernel mixing the five locality sources: a shared table
//! (algorithm), row panels (cache-line), private streams (streaming),
//! seeded gathers (data) and shifted read/write strips (write-related).
//! Each preset's mix is chosen to match the app's published access
//! structure; only their Figure 3 reuse shares are evaluated, so the mix
//! — not cycle-accurate structure — is what matters.

use crate::common::{array_base, gather_words, mix_range, panel_reads, read_words, write_words};
use crate::info::{PaperCategory, PartitionHint, Workload, WorkloadInfo};
use gpu_sim::{CtaContext, Dim3, KernelSpec, LaunchConfig, Op, Program};

const TAG_TABLE: u16 = 0;
const TAG_STREAM: u16 = 1;
const TAG_PANEL: u16 = 2;
const TAG_IRREG: u16 = 3;
const TAG_OUT: u16 = 4;

/// Which CTAs share the kernel's table data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingAxis {
    /// Table indexed by `blockIdx.x`: shared down grid columns.
    X,
    /// Table indexed by `blockIdx.y`: shared along grid rows.
    Y,
    /// One global table shared by every CTA.
    All,
}

/// A composable pattern kernel standing in for a named benchmark.
#[derive(Debug, Clone)]
pub struct ExtraApp {
    info: WorkloadInfo,
    grid: Dim3,
    threads: u32,
    /// Words of axis-shared table read per warp (0 = none).
    shared_words: u64,
    axis: SharingAxis,
    /// Private streaming words per warp.
    stream_words: u64,
    /// Cache-line panel words per thread (0 = none).
    panel_words: u64,
    /// Irregular gather ops per warp (0 = none).
    gathers: u32,
    /// NW-style shifted read/write strip.
    write_shift: bool,
    seed: u64,
}

impl KernelSpec for ExtraApp {
    fn name(&self) -> String {
        format!("{}({}x{})", self.info.abbr, self.grid.x, self.grid.y)
    }

    fn launch(&self) -> LaunchConfig {
        LaunchConfig::new(self.grid, self.threads)
            .with_regs(self.info.regs[0])
            .with_smem(self.info.smem)
    }

    fn warp_program(&self, ctx: &CtaContext, warp: u32) -> Program {
        let (bx, by, _) = self.grid.coords_row_major(ctx.cta);
        let mut prog = Program::new();
        // Axis-shared table.
        if self.shared_words > 0 {
            let index = match self.axis {
                SharingAxis::X => bx as u64,
                SharingAxis::Y => by as u64,
                SharingAxis::All => 0,
            };
            let base = index * self.shared_words;
            let mut w = 0;
            while w < self.shared_words {
                let lanes = (self.shared_words - w).min(32) as u32;
                prog.push(read_words(TAG_TABLE, base + w, lanes));
                w += 32;
            }
        }
        // Private stream.
        let warps = self.threads.div_ceil(32) as u64;
        let mut w = 0;
        while w < self.stream_words {
            let lanes = (self.stream_words - w).min(32) as u32;
            let word = (ctx.cta * warps + warp as u64) * self.stream_words + w;
            prog.push(read_words(TAG_STREAM, word, lanes));
            w += 32;
        }
        // Cache-line panel.
        if self.panel_words > 0 {
            let row0 = bx as u64 * self.threads as u64 + warp as u64 * 32;
            let row_words = self.grid.y as u64 * self.panel_words;
            let col0 = by as u64 * self.panel_words;
            prog.extend(panel_reads(
                TAG_PANEL,
                row0,
                row_words,
                col0,
                self.panel_words,
                32,
            ));
        }
        // Irregular gathers.
        for g in 0..self.gathers as u64 {
            let addrs: Vec<u64> = (0..32u64)
                .map(|lane| {
                    mix_range(
                        self.seed ^ (ctx.cta * 131 + warp as u64 * 37 + g * 7 + lane),
                        1 << 14,
                    )
                })
                .collect();
            prog.push(gather_words(TAG_IRREG, &addrs));
        }
        prog.push(Op::Compute(10));
        // Output: shifted strip (write-related) or private strip.
        let strip = ctx.cta * warps * 32 + warp as u64 * 32;
        if self.write_shift {
            prog.push(Op::Load(gpu_sim::MemAccess::coalesced(
                TAG_OUT,
                array_base(TAG_OUT) + strip.saturating_sub(2) * 4,
                32,
                4,
            )));
            prog.push(write_words(TAG_OUT, strip, 32));
        } else {
            prog.push(write_words(TAG_OUT, strip, 32));
        }
        prog
    }
}

impl Workload for ExtraApp {
    fn info(&self) -> WorkloadInfo {
        self.info
    }
}

macro_rules! extra {
    ($fn_name:ident, $abbr:literal, $full:literal, $desc:literal, $cat:ident, $wp:literal,
     $part:ident, $source:literal, grid: ($gx:literal, $gy:literal), threads: $threads:literal,
     shared: $shared:literal, axis: $axis:ident, stream: $stream:literal,
     panel: $panel:literal, gathers: $gathers:literal, write_shift: $ws:literal) => {
        /// Figure 3 workload preset (see module docs).
        pub fn $fn_name() -> ExtraApp {
            ExtraApp {
                info: WorkloadInfo {
                    abbr: $abbr,
                    full_name: $full,
                    description: $desc,
                    category: PaperCategory::$cat,
                    warps_per_cta: $wp,
                    partition: PartitionHint::$part,
                    opt_agents: [8, 16, 32, 32],
                    regs: [20, 24, 24, 26],
                    smem: 0,
                    source: $source,
                },
                grid: Dim3::plane($gx, $gy),
                threads: $threads,
                shared_words: $shared,
                axis: SharingAxis::$axis,
                stream_words: $stream,
                panel_words: $panel,
                gathers: $gathers,
                write_shift: $ws,
                seed: 0x5EED ^ ($abbr.len() as u64) << 8,
            }
        }
    };
}

extra!(cor, "COR", "correlation", "Correlation matrix computation", Algorithm, 8,
    X, "PolyBench", grid: (8, 32), threads: 256, shared: 128, axis: X, stream: 64,
    panel: 0, gathers: 0, write_shift: false);
extra!(lud, "LUD", "lud", "LU matrix decomposition", Algorithm, 4,
    X, "Rodinia", grid: (16, 16), threads: 128, shared: 96, axis: X, stream: 32,
    panel: 0, gathers: 0, write_shift: false);
extra!(fwt, "FWT", "fastWalshTransform", "Fast Walsh-Hadamard transform", Algorithm, 8,
    Y, "CUDA SDK", grid: (16, 16), threads: 256, shared: 64, axis: Y, stream: 96,
    panel: 0, gathers: 0, write_shift: false);
extra!(pfd, "PFD", "pathfinder", "Dynamic-programming grid path search", Algorithm, 8,
    X, "Rodinia", grid: (32, 8), threads: 256, shared: 96, axis: X, stream: 32,
    panel: 0, gathers: 0, write_shift: true);
extra!(std_2d, "STD", "stencil2d", "2D 9-point stencil", Algorithm, 8,
    Y, "Parboil", grid: (16, 16), threads: 256, shared: 160, axis: Y, stream: 32,
    panel: 0, gathers: 0, write_shift: false);
extra!(mri, "MRI", "mri-q", "MRI Q-matrix reconstruction", Algorithm, 8,
    X, "Parboil", grid: (24, 8), threads: 256, shared: 256, axis: All, stream: 64,
    panel: 0, gathers: 0, write_shift: false);
extra!(srd, "SRD", "srad", "Speckle-reducing anisotropic diffusion", Algorithm, 8,
    Y, "Rodinia", grid: (16, 16), threads: 256, shared: 128, axis: Y, stream: 64,
    panel: 0, gathers: 0, write_shift: false);
extra!(lib, "LIB", "libor", "LIBOR market-model Monte Carlo", Algorithm, 4,
    X, "CUDA SDK", grid: (32, 8), threads: 128, shared: 192, axis: All, stream: 96,
    panel: 0, gathers: 0, write_shift: false);
extra!(sr2, "SR2", "srad2", "SRAD second stage", CacheLine, 8,
    X, "Rodinia", grid: (8, 24), threads: 256, shared: 0, axis: X, stream: 32,
    panel: 8, gathers: 0, write_shift: false);
extra!(ne, "NE", "nearestNeighbor", "Nearest-neighbor search", Data, 8,
    X, "Rodinia", grid: (24, 8), threads: 256, shared: 0, axis: X, stream: 32,
    panel: 0, gathers: 6, write_shift: false);
extra!(sp, "SP", "scalarProd", "Batched scalar products", Streaming, 8,
    X, "CUDA SDK", grid: (32, 8), threads: 256, shared: 0, axis: X, stream: 160,
    panel: 0, gathers: 0, write_shift: false);
extra!(bno, "BNO", "binomialOptions", "Binomial option pricing", Algorithm, 8,
    X, "CUDA SDK", grid: (24, 8), threads: 256, shared: 96, axis: X, stream: 32,
    panel: 0, gathers: 0, write_shift: false);
extra!(sla, "SLA", "scanLargeArray", "Work-efficient prefix scan", Streaming, 8,
    X, "CUDA SDK", grid: (32, 8), threads: 256, shared: 0, axis: X, stream: 128,
    panel: 0, gathers: 0, write_shift: false);
extra!(ftd, "FTD", "fdtd2d", "2D finite-difference time domain", Algorithm, 8,
    Y, "PolyBench", grid: (16, 16), threads: 256, shared: 128, axis: Y, stream: 64,
    panel: 0, gathers: 0, write_shift: true);
extra!(lps, "LPS", "laplace3d", "3D Laplace solver", Algorithm, 8,
    Y, "GPGPU-Sim", grid: (16, 16), threads: 256, shared: 144, axis: Y, stream: 48,
    panel: 0, gathers: 0, write_shift: false);
extra!(ges, "GES", "gaussian", "Gaussian elimination", CacheLine, 8,
    X, "Rodinia", grid: (8, 24), threads: 256, shared: 32, axis: X, stream: 32,
    panel: 8, gathers: 0, write_shift: false);
extra!(hrt, "HRT", "heartwall", "Heart-wall motion tracking", Data, 8,
    X, "Rodinia", grid: (24, 8), threads: 256, shared: 32, axis: All, stream: 64,
    panel: 0, gathers: 8, write_shift: false);

/// All Figure 3 extra presets, in the paper's bar order.
pub fn all_extras() -> Vec<ExtraApp> {
    vec![
        cor(),
        lud(),
        fwt(),
        pfd(),
        std_2d(),
        mri(),
        srd(),
        lib(),
        sr2(),
        ne(),
        sp(),
        bno(),
        sla(),
        ftd(),
        lps(),
        ges(),
        hrt(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(cta: u64) -> CtaContext {
        CtaContext {
            cta,
            sm_id: 0,
            slot: 0,
            arrival: 0,
            num_sms: 15,
        }
    }

    #[test]
    fn all_extras_have_distinct_abbrs() {
        let extras = all_extras();
        let mut abbrs: Vec<_> = extras.iter().map(|e| e.info.abbr).collect();
        assert_eq!(abbrs.len(), 17);
        abbrs.sort_unstable();
        abbrs.dedup();
        assert_eq!(abbrs.len(), 17);
    }

    #[test]
    fn launches_validate_everywhere() {
        for e in all_extras() {
            e.launch()
                .validate()
                .unwrap_or_else(|err| panic!("{}: {err}", e.info.abbr));
        }
    }

    #[test]
    fn table_apps_share_along_declared_axis() {
        let c = cor(); // axis X, grid (8, 32)
        let table = |cta| {
            c.warp_program(&ctx(cta), 0)
                .iter()
                .filter_map(|op| op.access().cloned())
                .filter(|a| a.tag == TAG_TABLE)
                .flat_map(|a| a.addrs)
                .collect::<Vec<_>>()
        };
        // Same bx=1: ctas 1 and 9 (row-major, grid_x=8).
        assert_eq!(table(1), table(9));
        assert_ne!(table(1), table(2));
    }

    #[test]
    fn streaming_presets_have_no_table() {
        for app in [sp(), sla()] {
            let p = app.warp_program(&ctx(0), 0);
            assert!(p
                .iter()
                .all(|op| op.access().map(|a| a.tag != TAG_TABLE).unwrap_or(true)));
        }
    }

    #[test]
    fn gather_presets_are_deterministic() {
        let a = ne().warp_program(&ctx(3), 1);
        let b = ne().warp_program(&ctx(3), 1);
        assert_eq!(a, b);
    }
}
