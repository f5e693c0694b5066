//! The unified kernel surface: one trait, many engines, runtime dispatch.
//!
//! Historically each DP entry point was a free function in its own module
//! (`block::compute_block`, `gotoh::gotoh_best`, `banded::banded_best`),
//! which made it impossible to swap the inner loop without touching every
//! caller. This module collapses them behind the [`Kernel`] trait: the
//! threaded pipeline, the DES model, the baselines and the tests all ask
//! for a kernel once and invoke every DP primitive through it.
//!
//! Four engines implement the trait:
//!
//! * **scalar** — the original portable inner loops; always available and
//!   the ground truth the vector engines are tested against;
//! * **sse41** — anti-diagonal wavefront with 8 × i16 lanes (SSE4.1);
//! * **avx2** — the same wavefront with 16 × i16 lanes (AVX2);
//! * **avx512** — the same wavefront with 32 × i16 lanes (AVX-512BW); a
//!   tile too narrow for two 32-lane vectors runs the 16-lane wave.
//!
//! The vector engines use saturating i16 arithmetic on **bias-rebased**
//! scores (every value is stored relative to the tile's corner, so absolute
//! scores far beyond `i16::MAX` still vectorize) and fall back to the
//! scalar i32 kernel whenever a tile's dynamic range could leave the safe
//! band — the *overflow rescue* protocol described in DESIGN.md §11. Every
//! engine is **bit-identical**: same scores, same borders, same
//! deterministic best-cell tie-break.
//!
//! [`KernelDispatch`] picks the engine: [`KernelDispatch::Auto`] probes the
//! CPU at runtime (AVX-512BW → AVX2 → SSE4.1 → scalar, overridable with the
//! `MEGASW_KERNEL` environment variable); the `Force*` variants insist on
//! one engine and error when the host cannot run it.
//!
//! ```
//! use megasw_sw::kernel::{auto, scalar};
//! use megasw_sw::ScoreScheme;
//! use megasw_seq::DnaSeq;
//!
//! let a = DnaSeq::from_str_unwrap("TTTACGTACGT");
//! let b = DnaSeq::from_str_unwrap("GGACGTACGTGG");
//! let scheme = ScoreScheme::cudalign();
//! let best = auto().best(a.codes(), b.codes(), &scheme);
//! assert_eq!(best, scalar().best(a.codes(), b.codes(), &scheme));
//! assert_eq!(best.score, 8);
//! ```

use crate::banded::{self, BandedResult};
use crate::block::{self, BlockInput, BlockOutput};
use crate::border::{ColBorder, RowBorder};
use crate::cell::BestCell;
use crate::grid::BlockGrid;
use crate::scoring::ScoreScheme;

/// How a run picks its DP engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelDispatch {
    /// Probe the CPU: AVX-512BW if available, else AVX2, else SSE4.1, else
    /// scalar. The `MEGASW_KERNEL` environment variable
    /// (`scalar|sse41|avx2|avx512`) overrides the probe — useful for CI
    /// sweeps — but never a `Force*` request.
    #[default]
    Auto,
    /// Always use the scalar i32 engine.
    ForceScalar,
    /// Require the SSE4.1 engine; [`select`] errors if unsupported.
    ForceSse41,
    /// Require the AVX2 engine; [`select`] errors if unsupported.
    ForceAvx2,
    /// Require the AVX-512BW engine; [`select`] errors if unsupported.
    ForceAvx512,
}

impl KernelDispatch {
    /// Canonical lowercase name, matching the CLI `--kernel` syntax.
    pub fn name(self) -> &'static str {
        match self {
            KernelDispatch::Auto => "auto",
            KernelDispatch::ForceScalar => "scalar",
            KernelDispatch::ForceSse41 => "sse41",
            KernelDispatch::ForceAvx2 => "avx2",
            KernelDispatch::ForceAvx512 => "avx512",
        }
    }

    /// Parse a CLI / environment spelling.
    pub fn parse(s: &str) -> Result<KernelDispatch, String> {
        match s {
            "auto" => Ok(KernelDispatch::Auto),
            "scalar" => Ok(KernelDispatch::ForceScalar),
            "sse41" => Ok(KernelDispatch::ForceSse41),
            "avx2" => Ok(KernelDispatch::ForceAvx2),
            "avx512" => Ok(KernelDispatch::ForceAvx512),
            other => Err(format!(
                "unknown kernel dispatch `{other}` (expected auto|scalar|sse41|avx2|avx512)"
            )),
        }
    }

    /// The engine a *model* (e.g. the DES backend, which computes no real
    /// cells) should report: `Force*` maps straight to its engine —
    /// a simulated device does not need host support — and `Auto` maps to
    /// what the probe on this host would pick.
    pub fn modeled_id(self) -> KernelId {
        match self {
            KernelDispatch::Auto => detected_best(),
            KernelDispatch::ForceScalar => KernelId::Scalar,
            KernelDispatch::ForceSse41 => KernelId::Sse41,
            KernelDispatch::ForceAvx2 => KernelId::Avx2,
            KernelDispatch::ForceAvx512 => KernelId::Avx512,
        }
    }
}

impl std::fmt::Display for KernelDispatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for KernelDispatch {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        KernelDispatch::parse(s)
    }
}

/// The engine a dispatch request actually resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelId {
    Scalar,
    Sse41,
    Avx2,
    Avx512,
}

impl KernelId {
    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            KernelId::Scalar => "scalar",
            KernelId::Sse41 => "sse41",
            KernelId::Avx2 => "avx2",
            KernelId::Avx512 => "avx512",
        }
    }
}

impl std::fmt::Display for KernelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A dispatch request together with the engine it resolved to — what a run
/// records in its report so an artifact says which inner loop produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelSelection {
    /// What was asked for.
    pub dispatch: KernelDispatch,
    /// What actually ran (or, for analytic models, was modeled).
    pub resolved: KernelId,
}

impl KernelSelection {
    /// Selection for an analytic model (see [`KernelDispatch::modeled_id`]).
    pub fn modeled(dispatch: KernelDispatch) -> KernelSelection {
        KernelSelection {
            dispatch,
            resolved: dispatch.modeled_id(),
        }
    }
}

impl Default for KernelSelection {
    fn default() -> Self {
        KernelSelection::modeled(KernelDispatch::Auto)
    }
}

impl std::fmt::Display for KernelSelection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.dispatch {
            KernelDispatch::Auto => write!(f, "auto({})", self.resolved),
            _ => write!(f, "{}", self.resolved),
        }
    }
}

/// One DP engine: every kernel primitive of the workspace behind a single
/// object-safe surface.
///
/// ## Contract
///
/// Implementations must be **bit-identical** to the scalar engine (and thus
/// to [`crate::reference`]): identical `H`/`E`/`F` border values, identical
/// best cell under the deterministic `(score, i, j)` order of
/// [`BestCell::beats`], identical cell counts. An engine may internally
/// fall back to scalar execution for any tile (degenerate geometry,
/// overflow rescue) — callers cannot observe the difference.
///
/// Implementations are stateless and `Send + Sync`: one `&'static dyn
/// Kernel` is resolved per run and shared by every worker thread.
pub trait Kernel: Send + Sync {
    /// Which engine this is.
    fn id(&self) -> KernelId;

    /// Border-to-border tile kernel, local (Smith-Waterman) semantics.
    /// See [`crate::block`] for the dataflow contract.
    fn block(&self, input: BlockInput<'_>, scheme: &ScoreScheme) -> BlockOutput;

    /// Border-to-border tile kernel, anchored semantics (no zero floor).
    fn block_anchored(&self, input: BlockInput<'_>, scheme: &ScoreScheme) -> BlockOutput;

    /// Best local-alignment cell over whole sequences in `O(n)` memory —
    /// the unified replacement for `gotoh_best`. The default implementation
    /// strip-mines the matrix through [`Kernel::block`], so vector engines
    /// accelerate it without a dedicated scan.
    fn best(&self, a: &[u8], b: &[u8], scheme: &ScoreScheme) -> BestCell {
        const STRIP: usize = 512;
        let grid = BlockGrid::new(a.len(), b.len(), STRIP, STRIP);
        let rows = grid.rows();
        let cols = grid.cols();
        let mut best = BestCell::ZERO;
        let mut tops: Vec<RowBorder> = (0..cols)
            .map(|c| RowBorder::zero(grid.col_width(c)))
            .collect();
        for r in 0..rows {
            let (i0, i1) = grid.row_range(r);
            let mut left = ColBorder::zero(i1 - i0);
            for (c, top) in tops.iter_mut().enumerate() {
                let (j0, j1) = grid.col_range(c);
                let out = self.block(
                    BlockInput {
                        a_rows: &a[i0 - 1..i1 - 1],
                        b_cols: &b[j0 - 1..j1 - 1],
                        top,
                        left: &left,
                        row_offset: i0,
                        col_offset: j0,
                    },
                    scheme,
                );
                best = best.merge(out.best);
                *top = out.bottom;
                left = out.right;
            }
        }
        best
    }

    /// Banded local alignment with half-width `width`. The band scan is
    /// control-flow-irregular and not worth vectorizing at current sizes,
    /// so the default (scalar) implementation is shared by every engine;
    /// routing it through the trait keeps one call surface.
    fn banded(&self, a: &[u8], b: &[u8], scheme: &ScoreScheme, width: usize) -> BandedResult {
        banded::banded_best_impl(a, b, scheme, width)
    }

    /// Adaptive band doubling until convergence (see [`crate::banded`]).
    fn banded_adaptive(
        &self,
        a: &[u8],
        b: &[u8],
        scheme: &ScoreScheme,
        initial_width: usize,
    ) -> BandedResult {
        banded::banded_adaptive_impl(a, b, scheme, initial_width)
    }
}

/// The portable scalar engine — the original i32 inner loops.
#[derive(Debug, Clone, Copy)]
pub struct ScalarKernel;

impl Kernel for ScalarKernel {
    fn id(&self) -> KernelId {
        KernelId::Scalar
    }

    fn block(&self, input: BlockInput<'_>, scheme: &ScoreScheme) -> BlockOutput {
        block::scalar_block(input, scheme)
    }

    fn block_anchored(&self, input: BlockInput<'_>, scheme: &ScoreScheme) -> BlockOutput {
        block::scalar_block_anchored(input, scheme)
    }

    fn best(&self, a: &[u8], b: &[u8], scheme: &ScoreScheme) -> BestCell {
        // The rolling-row scan beats strip-mining for the scalar engine
        // (no border bookkeeping) and is bit-identical to it.
        crate::gotoh::rolling_best(a, b, scheme)
    }
}

static SCALAR_KERNEL: ScalarKernel = ScalarKernel;

/// The always-available scalar engine.
pub fn scalar() -> &'static dyn Kernel {
    &SCALAR_KERNEL
}

#[cfg(target_arch = "x86_64")]
fn detected_best() -> KernelId {
    if std::arch::is_x86_feature_detected!("avx512bw") {
        KernelId::Avx512
    } else if std::arch::is_x86_feature_detected!("avx2") {
        KernelId::Avx2
    } else if std::arch::is_x86_feature_detected!("sse4.1") {
        KernelId::Sse41
    } else {
        KernelId::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detected_best() -> KernelId {
    KernelId::Scalar
}

/// Engines the current host can run, best first.
pub fn available() -> Vec<KernelId> {
    let mut out = Vec::with_capacity(4);
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512bw") {
            out.push(KernelId::Avx512);
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            out.push(KernelId::Avx2);
        }
        if std::arch::is_x86_feature_detected!("sse4.1") {
            out.push(KernelId::Sse41);
        }
    }
    out.push(KernelId::Scalar);
    out
}

fn env_override() -> Option<KernelDispatch> {
    let raw = std::env::var("MEGASW_KERNEL").ok()?;
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    KernelDispatch::parse(trimmed).ok()
}

/// Resolve a dispatch request to an engine. `Auto` probes the CPU (after
/// honouring a `MEGASW_KERNEL` override); `Force*` errors with a
/// description when the host lacks the instruction set.
pub fn select(dispatch: KernelDispatch) -> Result<&'static dyn Kernel, String> {
    let effective = match dispatch {
        KernelDispatch::Auto => env_override().unwrap_or(KernelDispatch::Auto),
        forced => forced,
    };
    match effective {
        KernelDispatch::Auto => Ok(match detected_best() {
            KernelId::Scalar => scalar(),
            #[cfg(target_arch = "x86_64")]
            KernelId::Sse41 => crate::simd::sse41_kernel(),
            #[cfg(target_arch = "x86_64")]
            KernelId::Avx2 => crate::simd::avx2_kernel(),
            #[cfg(target_arch = "x86_64")]
            KernelId::Avx512 => crate::simd::avx512_kernel(),
            #[cfg(not(target_arch = "x86_64"))]
            _ => scalar(),
        }),
        KernelDispatch::ForceScalar => Ok(scalar()),
        KernelDispatch::ForceSse41 => {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("sse4.1") {
                    return Ok(crate::simd::sse41_kernel());
                }
            }
            Err("kernel dispatch `sse41` requested but this CPU does not support SSE4.1".into())
        }
        KernelDispatch::ForceAvx2 => {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx2") {
                    return Ok(crate::simd::avx2_kernel());
                }
            }
            Err("kernel dispatch `avx2` requested but this CPU does not support AVX2".into())
        }
        KernelDispatch::ForceAvx512 => {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx512bw") {
                    return Ok(crate::simd::avx512_kernel());
                }
            }
            Err("kernel dispatch `avx512` requested but this CPU does not support AVX-512BW".into())
        }
    }
}

/// The engine `Auto` dispatch resolves to on this host (ignoring any
/// `MEGASW_KERNEL` override is deliberate here: this is the probe result).
pub fn auto() -> &'static dyn Kernel {
    select(match env_override() {
        Some(d) => d,
        None => KernelDispatch::Auto,
    })
    .unwrap_or_else(|_| scalar())
}

/// Number of tiles the vector engines have re-run through the scalar i32
/// path because the i16 band could not hold them (the overflow-rescue
/// protocol). Diagnostic; monotone over the process lifetime.
pub fn simd_rescues() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        crate::simd::rescue_count()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        0
    }
}

/// Wall-clock nanoseconds the overflow-rescue protocol has spent re-running
/// tiles through the scalar path. Like [`simd_rescues`], process-global and
/// monotone; phase attribution samples it before and after a run to bill
/// rescue time as its own phase.
pub fn simd_rescue_ns() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        crate::simd::rescue_ns()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        0
    }
}

/// [`simd_rescue_ns`] restricted to the calling thread. A pipeline worker
/// samples this before and after its run to get exact per-device rescue
/// time even with other workers (or tests) rescuing concurrently.
pub fn simd_rescue_ns_thread() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        crate::simd::rescue_ns_thread()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        0
    }
}

/// Tiles a vector engine's dispatch sent down each path. Every tile handed
/// to a SIMD engine's `block`/`block_anchored` lands in exactly one field;
/// the scalar engine counts nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathCounts {
    /// Tiles the engine's full-width wave computed.
    pub wide: u64,
    /// Tiles the AVX-512BW engine ran on the 16-lane AVX2 wave because
    /// their short side is below its own vector minimum (always 0 on the
    /// other engines).
    pub half: u64,
    /// Tiles whose short side is too small for any wave, run scalar.
    pub scalar: u64,
    /// Tiles a wave refused because the i16 band could not hold them,
    /// re-run scalar (the [`simd_rescues`] protocol).
    pub rescued: u64,
}

impl std::ops::Add for PathCounts {
    type Output = PathCounts;
    fn add(self, o: PathCounts) -> PathCounts {
        PathCounts {
            wide: self.wide + o.wide,
            half: self.half + o.half,
            scalar: self.scalar + o.scalar,
            rescued: self.rescued + o.rescued,
        }
    }
}

impl std::ops::Sub for PathCounts {
    type Output = PathCounts;
    /// Counts since an earlier sample `o` of the same thread (saturating).
    fn sub(self, o: PathCounts) -> PathCounts {
        PathCounts {
            wide: self.wide.saturating_sub(o.wide),
            half: self.half.saturating_sub(o.half),
            scalar: self.scalar.saturating_sub(o.scalar),
            rescued: self.rescued.saturating_sub(o.rescued),
        }
    }
}

/// The calling thread's [`PathCounts`], monotone over the thread's
/// lifetime. A pipeline worker samples it before and after its rows; its
/// `rescued` field is the thread's share of [`simd_rescues`].
pub fn path_counts() -> PathCounts {
    #[cfg(target_arch = "x86_64")]
    {
        crate::simd::path_counts_thread()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        PathCounts::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megasw_seq::{ChromosomeGenerator, DivergenceModel, GenerateConfig};

    #[test]
    fn dispatch_parse_roundtrip() {
        for d in [
            KernelDispatch::Auto,
            KernelDispatch::ForceScalar,
            KernelDispatch::ForceSse41,
            KernelDispatch::ForceAvx2,
            KernelDispatch::ForceAvx512,
        ] {
            assert_eq!(KernelDispatch::parse(d.name()).unwrap(), d);
            assert_eq!(d.name().parse::<KernelDispatch>().unwrap(), d);
        }
        assert!(KernelDispatch::parse("sse42").is_err());
        assert!(KernelDispatch::parse("").is_err());
    }

    #[test]
    fn selection_display_distinguishes_auto_from_forced() {
        let auto_sel = KernelSelection {
            dispatch: KernelDispatch::Auto,
            resolved: KernelId::Avx2,
        };
        assert_eq!(auto_sel.to_string(), "auto(avx2)");
        let forced = KernelSelection {
            dispatch: KernelDispatch::ForceScalar,
            resolved: KernelId::Scalar,
        };
        assert_eq!(forced.to_string(), "scalar");
    }

    #[test]
    fn scalar_is_always_selectable_and_auto_never_fails() {
        assert_eq!(
            select(KernelDispatch::ForceScalar).unwrap().id(),
            KernelId::Scalar
        );
        let k = select(KernelDispatch::Auto).unwrap();
        assert!(available().contains(&k.id()));
        assert_eq!(available().last(), Some(&KernelId::Scalar));
    }

    #[test]
    fn forced_engines_match_host_support() {
        for (dispatch, id) in [
            (KernelDispatch::ForceSse41, KernelId::Sse41),
            (KernelDispatch::ForceAvx2, KernelId::Avx2),
            (KernelDispatch::ForceAvx512, KernelId::Avx512),
        ] {
            match select(dispatch) {
                Ok(k) => {
                    assert_eq!(k.id(), id);
                    assert!(available().contains(&id));
                }
                Err(msg) => {
                    assert!(!available().contains(&id));
                    assert!(msg.contains(dispatch.name()));
                }
            }
        }
    }

    #[test]
    fn every_available_engine_matches_scalar_best() {
        let scheme = ScoreScheme::cudalign();
        let a = ChromosomeGenerator::new(GenerateConfig::sized(1_500, 0x5E_01)).generate();
        let (b, _) = DivergenceModel::test_scale(0x5E_02).apply(&a);
        let want = scalar().best(a.codes(), b.codes(), &scheme);
        for id in available() {
            let k = select(match id {
                KernelId::Scalar => KernelDispatch::ForceScalar,
                KernelId::Sse41 => KernelDispatch::ForceSse41,
                KernelId::Avx2 => KernelDispatch::ForceAvx2,
                KernelId::Avx512 => KernelDispatch::ForceAvx512,
            })
            .unwrap();
            assert_eq!(k.best(a.codes(), b.codes(), &scheme), want, "{id}");
        }
    }

    #[test]
    fn trait_banded_matches_free_standing_scan() {
        let scheme = ScoreScheme::cudalign();
        let a = ChromosomeGenerator::new(GenerateConfig::sized(800, 0x5E_03)).generate();
        let (b, _) = DivergenceModel::snp_only(0x5E_04, 0.02).apply(&a);
        let via_trait = scalar().banded(a.codes(), b.codes(), &scheme, 8);
        let direct = crate::banded::banded_best_impl(a.codes(), b.codes(), &scheme, 8);
        assert_eq!(via_trait, direct);
        let adaptive = scalar().banded_adaptive(a.codes(), b.codes(), &scheme, 4);
        assert_eq!(adaptive.best, scalar().best(a.codes(), b.codes(), &scheme));
    }

    #[test]
    fn default_strip_mined_best_equals_rolling_best() {
        // The default trait implementation (strip-mined through block())
        // must agree with the scalar rolling scan — this is what makes the
        // vector engines' `best` exact.
        struct StripScalar;
        impl Kernel for StripScalar {
            fn id(&self) -> KernelId {
                KernelId::Scalar
            }
            fn block(&self, input: BlockInput<'_>, scheme: &ScoreScheme) -> BlockOutput {
                crate::block::compute_block_impl::<true>(input, scheme)
            }
            fn block_anchored(&self, input: BlockInput<'_>, scheme: &ScoreScheme) -> BlockOutput {
                crate::block::compute_block_impl::<false>(input, scheme)
            }
            // `best` left as the default strip-mined implementation.
        }
        let scheme = ScoreScheme::cudalign();
        for (len, seed) in [(0usize, 1u64), (1, 2), (511, 3), (512, 4), (1_300, 5)] {
            let a = ChromosomeGenerator::new(GenerateConfig::sized(len.max(1), seed)).generate();
            let (b, _) = DivergenceModel::test_scale(seed + 50).apply(&a);
            let (a, b) = if len == 0 {
                (&[][..], b.codes())
            } else {
                (a.codes(), b.codes())
            };
            assert_eq!(
                StripScalar.best(a, b, &scheme),
                scalar().best(a, b, &scheme),
                "len {len}"
            );
        }
    }

    #[test]
    fn modeled_id_maps_forced_variants_without_host_probe() {
        assert_eq!(KernelDispatch::ForceScalar.modeled_id(), KernelId::Scalar);
        assert_eq!(KernelDispatch::ForceSse41.modeled_id(), KernelId::Sse41);
        assert_eq!(KernelDispatch::ForceAvx2.modeled_id(), KernelId::Avx2);
        assert_eq!(KernelDispatch::ForceAvx512.modeled_id(), KernelId::Avx512);
        assert!(available().contains(&KernelDispatch::Auto.modeled_id()));
    }
}
