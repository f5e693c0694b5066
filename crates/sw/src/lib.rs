//! # megasw-sw — Smith-Waterman dynamic-programming kernels
//!
//! This crate implements every DP kernel the multi-GPU strategy is built
//! from, in pure Rust:
//!
//! * [`scoring`] — the affine-gap scoring scheme (CUDAlign defaults:
//!   match +1, mismatch −3, gap open 3, gap extend 2);
//! * [`reference`] — full-matrix Smith-Waterman with affine gaps (Gotoh
//!   recurrences), quadratic memory: the ground truth everything else is
//!   tested against;
//! * [`gotoh`] — linear-space score-only scan over whole sequences (the
//!   sequential CPU baseline);
//! * [`border`] + [`block`] — the **border-to-border block kernel**: compute
//!   a `bh × bw` tile of the matrix from its incoming top/left borders and
//!   emit its bottom/right borders plus the local best cell. This is the
//!   exact unit of work a simulated GPU executes, and the unit whose right
//!   column is streamed between GPUs in the paper's strategy;
//! * [`grid`] — blocked decomposition of the whole matrix and a sequential
//!   external-diagonal executor (single-device semantics);
//! * [`antidiag`] — anti-diagonal (wavefront) full-matrix scan mirroring the
//!   intra-block parallel shape of the CUDA kernel;
//! * [`prune`] — CUDAlign 2.1-style block pruning: the sequential pruned
//!   executor plus the bound/substitute/corner-restore helpers the
//!   multi-GPU pipeline composes into distributed pruning;
//! * [`traceback`] — optimal local alignment retrieval in linear space
//!   (Myers–Miller divide-and-conquer), the analogue of CUDAlign stages 2–4;
//! * [`kernel`] — the unified [`kernel::Kernel`] trait over every DP entry
//!   point, with runtime CPU-feature dispatch ([`kernel::KernelDispatch`])
//!   across the scalar engine and the private anti-diagonal SIMD engines
//!   (AVX-512BW / AVX2 / SSE4.1, i16 lanes with overflow rescue).
//!
//! The old free-function entry points (`compute_block`, `gotoh_best`,
//! `banded_best`, …) were deprecated shims over the trait surface and have
//! been removed; call `kernel::scalar()` / `kernel::auto()` /
//! `kernel::select(dispatch)` instead.
//!
//! ## Matrix conventions
//!
//! DP indices are 1-based: `H[i][j]` scores alignments ending at
//! `a[i-1]`/`b[j-1]`, with row 0 and column 0 forming the all-zero local
//! alignment boundary. Sequence `a` spans the **rows** (the "human"
//! chromosome in the paper's datasets) and `b` spans the **columns** (the
//! "chimpanzee" chromosome; columns are what get partitioned across GPUs).

pub mod antidiag;
pub mod banded;
pub mod block;
pub mod border;
pub mod cell;
pub mod gotoh;
pub mod grid;
pub mod kernel;
pub mod prune;
pub mod reference;
pub mod render;
pub mod scoring;
#[cfg(target_arch = "x86_64")]
mod simd;
pub mod traceback;

/// ASCII letter for a base code (`0..=4`); used by renderers.
#[inline]
pub fn ascii_base(code: u8) -> char {
    match code {
        0 => 'A',
        1 => 'C',
        2 => 'G',
        3 => 'T',
        _ => 'N',
    }
}

pub use block::{skip_block, BlockInput, BlockOutput};
pub use border::{ColBorder, RowBorder};
pub use cell::{BestCell, Score, NEG_INF};
pub use kernel::{Kernel, KernelDispatch, KernelId, KernelSelection};
pub use prune::{prune_bound, restore_corner, tile_is_prunable};
pub use scoring::ScoreScheme;
