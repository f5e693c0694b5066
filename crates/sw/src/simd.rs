//! Anti-diagonal SIMD wavefront kernels (x86-64: AVX-512BW, AVX2 and
//! SSE4.1).
//!
//! The scalar block kernel walks the tile row-major; every cell depends on
//! its left neighbour through `E`, so rows cannot be vectorized directly.
//! Cells on one **anti-diagonal** (`i + j = const`) are mutually
//! independent, which is the classic wavefront shape GPU Smith-Waterman
//! kernels exploit. This module runs the same recurrences over striped
//! anti-diagonal state vectors with 16-bit lanes (32 per vector on
//! AVX-512BW, 16 on AVX2, 8 on SSE4.1):
//!
//! * state is held per tile row `k` in seven rolling arrays (`H` at
//!   diagonals `d`, `d−1`, `d−2`; the **gap arms** at `d`, `d−1`), so a
//!   lane load at offset `k` reads the neighbour values of cells `(k, d−k)`.
//!   A cell computes `H − (open + ext)` once and stores the arms its
//!   neighbours read: `max(E − ext, H − open − ext)`, the `E` of the cell
//!   to its right, and the same with `F` for the cell below it. A cell's
//!   own `E` and `F` are thus plain loads, and the emitted `right.e` and
//!   `bottom.f` are read from the previous diagonal's arm rows. Border
//!   patches and the diagonal-1 seeds store arms too, computed in scalar
//!   saturating i16 exactly as the lanes would. The rows share one
//!   allocation, each placed so that slot 1 — where the chunks of every
//!   diagonal that starts at the top row load and store — sits on a
//!   64-byte boundary;
//! * N (code ≥ 4) is stored as `0x40` in `a` and as `0x50` in `b`, so one
//!   lane compare means "match, and not N";
//! * sequence `b` is stored **reversed** so that ascending lane index `k`
//!   maps to the descending column `l = d − k` with a single contiguous
//!   load;
//! * a diagonal runs as full-lane vector chunks from its first row; when
//!   its length is not a multiple of the lane count, one more **overlapped
//!   chunk** ends exactly at its last row and recomputes a few cells of
//!   the chunk before it. Recomputing is idempotent, because a cell reads
//!   only diagonals `d−1` and `d−2`;
//! * a **corner diagonal** shorter than one vector runs as one chunk from
//!   its first row whose lanes past the last row are dead. The inputs and
//!   state rows are padded by one vector, so those lanes load and store in
//!   bounds; they write only slots no live cell reads (a live cell of
//!   diagonal `d` reads slots up to `khi(d−1) + 1`, each of them a real
//!   cell or a patched border cell), and a lane-index mask keeps them out
//!   of the diagonal's min/max. No cell of a vector tile runs scalar;
//! * scores are **rebased** against the tile's corner value (`bias =
//!   top.h[0]`): all arithmetic is saturating i16 on `value − bias`, so
//!   tiles whose absolute scores are far beyond `i16::MAX` (megabase
//!   alignments reach millions) still vectorize.
//!
//! **Overflow rescue.** i16 lanes hold a tile only if its dynamic range
//! fits the safe band `±28_000`. A pre-scan bounds every incoming border
//! value and adds a per-cell drift margin (`(bh + bw + 4) · step`, where
//! `step` is the largest per-cell score change the scheme allows); a tile
//! that could leave the band — or, belt and braces, one whose computed `H`
//! values actually do — is re-run through the scalar i32 kernel and counted
//! in [`rescue_count`]. The post-check always tracks the largest `H`; it
//! tracks the smallest only where the local zero floor cannot bound it
//! (anchored tiles, and local tiles whose corner lies above the band). The
//! rescue is invisible to callers: the vector and scalar paths are
//! bit-identical (same borders, same deterministic best cell), which the
//! conformance matrix asserts under every dispatch mode.
//!
//! Out-of-band "minus infinity" lanes (`E`/`F` seeds) are pinned at
//! [`NEG_INF16`]; the pre-scan margin guarantees any real arm of a `max`
//! beats any `NEG_INF16`-derived arm, so saturating decay of the infinity
//! lanes can never surface in a stored value.
//!
//! This module is private: the engines are reachable only through
//! [`crate::kernel::select`], which verifies CPU support at runtime.

use std::arch::x86_64::*;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::block::{compute_block_impl, BlockInput, BlockOutput};
use crate::border::{ColBorder, RowBorder};
use crate::cell::{BestCell, Score, NEG_INF};
use crate::kernel::{Kernel, KernelId, PathCounts};
use crate::scoring::ScoreScheme;

/// Rebased i16 "minus infinity" for E/F lanes. Far enough below the safe
/// band that a real arm always wins a `max` against anything derived from
/// it, far enough above `i16::MIN` that one saturating subtraction cannot
/// wrap.
const NEG_INF16: i16 = -30_000;

/// Safe dynamic range for rebased values, `|value − bias| ≤ BAND`. Leaves
/// `i16::MAX − BAND > 4_000` of headroom so a single saturating add/sub on
/// an in-band value cannot saturate.
const BAND: i64 = 28_000;

static RESCUES: AtomicU64 = AtomicU64::new(0);
static RESCUE_NS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread mirror of the global rescue clock. A pipeline runs one
    /// worker thread per device, so sampling it from the worker gives
    /// *exact* per-device rescue attribution — the process-global counters
    /// cannot separate concurrent workers (or concurrent tests).
    static TLS_RESCUE_NS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Tiles this thread's vector dispatches sent down each path; its
    /// `rescued` field is the per-thread rescue count.
    static TLS_PATHS: std::cell::Cell<PathCounts> = const {
        std::cell::Cell::new(PathCounts { wide: 0, half: 0, scalar: 0, rescued: 0 })
    };
}

/// Tiles re-run through the scalar i32 kernel by the overflow-rescue
/// protocol, process-wide and monotone.
pub(crate) fn rescue_count() -> u64 {
    RESCUES.load(Ordering::Relaxed)
}

/// Wall-clock nanoseconds spent in those scalar re-runs, process-wide and
/// monotone. Phase-attribution samples this around each tile to bill
/// rescue time separately from ordinary compute.
pub(crate) fn rescue_ns() -> u64 {
    RESCUE_NS.load(Ordering::Relaxed)
}

/// [`rescue_ns`], but only the nanoseconds the *calling thread* spent.
pub(crate) fn rescue_ns_thread() -> u64 {
    TLS_RESCUE_NS.with(|c| c.get())
}

/// [`PathCounts`] of the calling thread, monotone.
pub(crate) fn path_counts_thread() -> PathCounts {
    TLS_PATHS.with(|c| c.get())
}

fn count_path(bump: impl FnOnce(&mut PathCounts)) {
    TLS_PATHS.with(|c| {
        let mut paths = c.get();
        bump(&mut paths);
        c.set(paths);
    });
}

/// Run the scalar fallback for a tile the vector engine gave up on,
/// charging its duration to the rescue clock.
fn rescue_block<const LOCAL: bool>(input: BlockInput<'_>, scheme: &ScoreScheme) -> BlockOutput {
    RESCUES.fetch_add(1, Ordering::Relaxed);
    count_path(|p| p.rescued += 1);
    let t = std::time::Instant::now();
    let out = compute_block_impl::<LOCAL>(input, scheme);
    let spent = t.elapsed().as_nanos() as u64;
    RESCUE_NS.fetch_add(spent, Ordering::Relaxed);
    TLS_RESCUE_NS.with(|c| c.set(c.get() + spent));
    out
}

/// One SIMD instruction set: the i16-lane operations the wavefront needs.
trait Engine: Copy {
    const LANES: usize;
    type V: Copy;
    unsafe fn splat(v: i16) -> Self::V;
    unsafe fn loadu(p: *const i16) -> Self::V;
    unsafe fn storeu(p: *mut i16, v: Self::V);
    unsafe fn adds(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn subs(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn min(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn cmpeq(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn cmpgt(a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise select: `mask` lanes all-ones take `yes`, zeros take `no`.
    unsafe fn blendv(no: Self::V, yes: Self::V, mask: Self::V) -> Self::V;
    /// Byte-granular mask of `v` (2 bits per i16 lane); nonzero iff any
    /// lane of a compare result is set.
    unsafe fn movemask(v: Self::V) -> u64;
    unsafe fn hmax(v: Self::V) -> i16;
    unsafe fn hmin(v: Self::V) -> i16;
}

#[derive(Clone, Copy)]
struct Avx512;

impl Engine for Avx512 {
    const LANES: usize = 32;
    type V = __m512i;
    #[inline(always)]
    unsafe fn splat(v: i16) -> __m512i {
        _mm512_set1_epi16(v)
    }
    #[inline(always)]
    unsafe fn loadu(p: *const i16) -> __m512i {
        _mm512_loadu_si512(p as *const _)
    }
    #[inline(always)]
    unsafe fn storeu(p: *mut i16, v: __m512i) {
        _mm512_storeu_si512(p as *mut _, v)
    }
    #[inline(always)]
    unsafe fn adds(a: __m512i, b: __m512i) -> __m512i {
        _mm512_adds_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn subs(a: __m512i, b: __m512i) -> __m512i {
        _mm512_subs_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn max(a: __m512i, b: __m512i) -> __m512i {
        _mm512_max_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn min(a: __m512i, b: __m512i) -> __m512i {
        _mm512_min_epi16(a, b)
    }
    // AVX-512 compares yield mask registers; the generic wave takes
    // vector masks, so these convert (`movm` / `movepi16_mask`). A
    // mask-register form of the per-cell substitution measured level with
    // this one end to end.
    #[inline(always)]
    unsafe fn cmpeq(a: __m512i, b: __m512i) -> __m512i {
        _mm512_movm_epi16(_mm512_cmpeq_epi16_mask(a, b))
    }
    #[inline(always)]
    unsafe fn cmpgt(a: __m512i, b: __m512i) -> __m512i {
        _mm512_movm_epi16(_mm512_cmpgt_epi16_mask(a, b))
    }
    #[inline(always)]
    unsafe fn blendv(no: __m512i, yes: __m512i, mask: __m512i) -> __m512i {
        _mm512_mask_blend_epi16(_mm512_movepi16_mask(mask), no, yes)
    }
    #[inline(always)]
    unsafe fn movemask(v: __m512i) -> u64 {
        _mm512_movepi8_mask(v)
    }
    #[inline(always)]
    unsafe fn hmax(v: __m512i) -> i16 {
        Avx2::hmax(_mm256_max_epi16(
            _mm512_castsi512_si256(v),
            _mm512_extracti64x4_epi64::<1>(v),
        ))
    }
    #[inline(always)]
    unsafe fn hmin(v: __m512i) -> i16 {
        Avx2::hmin(_mm256_min_epi16(
            _mm512_castsi512_si256(v),
            _mm512_extracti64x4_epi64::<1>(v),
        ))
    }
}

#[derive(Clone, Copy)]
struct Avx2;

impl Engine for Avx2 {
    const LANES: usize = 16;
    type V = __m256i;
    #[inline(always)]
    unsafe fn splat(v: i16) -> __m256i {
        _mm256_set1_epi16(v)
    }
    #[inline(always)]
    unsafe fn loadu(p: *const i16) -> __m256i {
        _mm256_loadu_si256(p as *const __m256i)
    }
    #[inline(always)]
    unsafe fn storeu(p: *mut i16, v: __m256i) {
        _mm256_storeu_si256(p as *mut __m256i, v)
    }
    #[inline(always)]
    unsafe fn adds(a: __m256i, b: __m256i) -> __m256i {
        _mm256_adds_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn subs(a: __m256i, b: __m256i) -> __m256i {
        _mm256_subs_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn max(a: __m256i, b: __m256i) -> __m256i {
        _mm256_max_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn min(a: __m256i, b: __m256i) -> __m256i {
        _mm256_min_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn cmpeq(a: __m256i, b: __m256i) -> __m256i {
        _mm256_cmpeq_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn cmpgt(a: __m256i, b: __m256i) -> __m256i {
        _mm256_cmpgt_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn blendv(no: __m256i, yes: __m256i, mask: __m256i) -> __m256i {
        // The i16 compare masks are all-ones/all-zero per lane, so the
        // byte-granular blend selects whole lanes.
        _mm256_blendv_epi8(no, yes, mask)
    }
    #[inline(always)]
    unsafe fn movemask(v: __m256i) -> u64 {
        u64::from(_mm256_movemask_epi8(v) as u32)
    }
    #[inline(always)]
    unsafe fn hmax(v: __m256i) -> i16 {
        let m = _mm_max_epi16(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        let m = _mm_max_epi16(m, _mm_srli_si128::<8>(m));
        let m = _mm_max_epi16(m, _mm_srli_si128::<4>(m));
        let m = _mm_max_epi16(m, _mm_srli_si128::<2>(m));
        _mm_extract_epi16::<0>(m) as i16
    }
    #[inline(always)]
    unsafe fn hmin(v: __m256i) -> i16 {
        let m = _mm_min_epi16(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        let m = _mm_min_epi16(m, _mm_srli_si128::<8>(m));
        let m = _mm_min_epi16(m, _mm_srli_si128::<4>(m));
        let m = _mm_min_epi16(m, _mm_srli_si128::<2>(m));
        _mm_extract_epi16::<0>(m) as i16
    }
}

#[derive(Clone, Copy)]
struct Sse41;

impl Engine for Sse41 {
    const LANES: usize = 8;
    type V = __m128i;
    #[inline(always)]
    unsafe fn splat(v: i16) -> __m128i {
        _mm_set1_epi16(v)
    }
    #[inline(always)]
    unsafe fn loadu(p: *const i16) -> __m128i {
        _mm_loadu_si128(p as *const __m128i)
    }
    #[inline(always)]
    unsafe fn storeu(p: *mut i16, v: __m128i) {
        _mm_storeu_si128(p as *mut __m128i, v)
    }
    #[inline(always)]
    unsafe fn adds(a: __m128i, b: __m128i) -> __m128i {
        _mm_adds_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn subs(a: __m128i, b: __m128i) -> __m128i {
        _mm_subs_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn max(a: __m128i, b: __m128i) -> __m128i {
        _mm_max_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn min(a: __m128i, b: __m128i) -> __m128i {
        _mm_min_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn cmpeq(a: __m128i, b: __m128i) -> __m128i {
        _mm_cmpeq_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn cmpgt(a: __m128i, b: __m128i) -> __m128i {
        _mm_cmpgt_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn blendv(no: __m128i, yes: __m128i, mask: __m128i) -> __m128i {
        _mm_blendv_epi8(no, yes, mask)
    }
    #[inline(always)]
    unsafe fn movemask(v: __m128i) -> u64 {
        u64::from(_mm_movemask_epi8(v) as u32)
    }
    #[inline(always)]
    unsafe fn hmax(v: __m128i) -> i16 {
        let m = _mm_max_epi16(v, _mm_srli_si128::<8>(v));
        let m = _mm_max_epi16(m, _mm_srli_si128::<4>(m));
        let m = _mm_max_epi16(m, _mm_srli_si128::<2>(m));
        _mm_extract_epi16::<0>(m) as i16
    }
    #[inline(always)]
    unsafe fn hmin(v: __m128i) -> i16 {
        let m = _mm_min_epi16(v, _mm_srli_si128::<8>(v));
        let m = _mm_min_epi16(m, _mm_srli_si128::<4>(m));
        let m = _mm_min_epi16(m, _mm_srli_si128::<2>(m));
        _mm_extract_epi16::<0>(m) as i16
    }
}

/// Overflow pre-scan: the largest score change any single DP step can make,
/// times the longest in-tile path plus slack, bounds how far any in-tile
/// value can drift from the border extremes. `false` when that drift could
/// leave the i16 band, so the tile is rescued before anything is computed.
/// The bound is directional: a step can only *raise* a score by the match
/// bonus, but can *lower* it by a fresh gap open+extend or a mismatch — so
/// high-bias drift uses the (usually much smaller) match step and large
/// tiles stay vectorized far longer than a symmetric bound allows.
fn fits_band(input: BlockInput<'_>, scheme: &ScoreScheme) -> bool {
    let bias = i64::from(input.top.h[0]);
    let path = (input.a_rows.len() + input.b_cols.len() + 4) as i64;
    let margin_up = path * i64::from(scheme.match_score);
    let margin_down = path
        * (i64::from(scheme.gap_open) + i64::from(scheme.gap_extend))
            .max(-i64::from(scheme.mismatch_score));
    let mut lo = bias;
    let mut hi = bias;
    for &v in input.top.h.iter().chain(input.left.h.iter()) {
        lo = lo.min(i64::from(v));
        hi = hi.max(i64::from(v));
    }
    for &v in input.top.f.iter().chain(input.left.e.iter()) {
        if v > NEG_INF / 2 {
            lo = lo.min(i64::from(v));
            hi = hi.max(i64::from(v));
        }
    }
    hi - bias + margin_up <= BAND && bias - lo + margin_down <= BAND
}

/// Lane index `x` in lane `x`: the widest engine's lanes, loaded as a
/// prefix by narrower ones.
const LANE_INDEX: [i16; 32] = {
    let mut lanes = [0i16; 32];
    let mut x = 0;
    while x < lanes.len() {
        lanes[x] = x as i16;
        x += 1;
    }
    lanes
};

/// The wave's seven state rows of `len` slots each, carved from one
/// allocation held in `backing`. Every row starts so that its slot 1 sits
/// on a 64-byte boundary: the chunks of each diagonal that begins at the
/// top row (`klo = 1`) then load and store whole cache lines.
fn state_rows(backing: &mut Vec<i16>, len: usize) -> [&mut [i16]; 7] {
    const LINE: usize = 64 / std::mem::size_of::<i16>();
    let stride = len.next_multiple_of(LINE);
    *backing = vec![NEG_INF16; 7 * stride + LINE];
    // `i16` storage is 2-byte aligned, so some `off < LINE` puts slot
    // `off + 1` on the boundary.
    let addr = backing.as_ptr() as usize + std::mem::size_of::<i16>();
    let off = (64 - addr % 64) % 64 / std::mem::size_of::<i16>();
    let mut rows = backing[off..off + 7 * stride].chunks_exact_mut(stride);
    std::array::from_fn(|_| {
        let row = rows
            .next()
            .expect("seven rows carved from 7 * stride slots");
        &mut row[..len]
    })
}

/// Compute one tile with the anti-diagonal wavefront, or return `None` when
/// the i16 band cannot hold it (the caller re-runs the tile in scalar i32).
///
/// Bit-identical to [`compute_block_impl`] whenever it returns `Some`:
/// identical borders, cell count, and deterministic best cell.
///
/// # Safety
///
/// The CPU must support the instruction set of `E`; callers reach this only
/// through the `#[target_feature]` wrappers below after a runtime check.
#[inline(always)]
unsafe fn wave<E: Engine, const LOCAL: bool>(
    input: BlockInput<'_>,
    scheme: &ScoreScheme,
) -> Option<BlockOutput> {
    let bh = input.a_rows.len();
    let bw = input.b_cols.len();
    debug_assert!(bh >= 1 && bw >= 1);
    debug_assert_eq!(input.top.width(), bw, "top border width mismatch");
    debug_assert_eq!(input.left.height(), bh, "left border height mismatch");
    debug_assert_eq!(
        input.top.h[0], input.left.h[0],
        "top and left borders disagree on the corner element"
    );
    debug_assert!(input.row_offset >= 1 && input.col_offset >= 1);

    if !fits_band(input, scheme) {
        return None;
    }
    wave_unscanned::<E, LOCAL>(input, scheme)
}

/// [`wave`] without the pre-scan: only the band post-check guards the
/// tile. Chooses the body once per tile by whether the low side of the
/// band needs watching.
///
/// # Safety
///
/// As [`wave`].
#[inline(always)]
unsafe fn wave_unscanned<E: Engine, const LOCAL: bool>(
    input: BlockInput<'_>,
    scheme: &ScoreScheme,
) -> Option<BlockOutput> {
    // In local semantics every H is `max(…, floor16)` with `floor16 =
    // −bias`, and `−bias ≥ −BAND` whenever `bias ≤ BAND`: no H of such a
    // tile can fall below the band, so tracking its minimum could never
    // trip the post-check. Every other tile tracks it.
    if LOCAL && i64::from(input.top.h[0]) <= BAND {
        wave_tile::<E, LOCAL, false>(input, scheme)
    } else {
        wave_tile::<E, LOCAL, true>(input, scheme)
    }
}

/// The wavefront over one tile. Each vector chunk of a diagonal loads its
/// cells' `E` and `F` from the gap-arm rows their left and upper
/// neighbours filled on the diagonal before, computes `H`, and stores `H`
/// and its own arms; the emitted `right.e` and `bottom.f` are read from
/// those arm rows too (see the module docs). `MIN` tracks the smallest `H`
/// for the low-side band post-check; [`wave_unscanned`] turns it off only
/// where the local floor already bounds every `H` inside the band.
///
/// # Safety
///
/// As [`wave`].
#[inline(always)]
unsafe fn wave_tile<E: Engine, const LOCAL: bool, const MIN: bool>(
    input: BlockInput<'_>,
    scheme: &ScoreScheme,
) -> Option<BlockOutput> {
    let bh = input.a_rows.len();
    let bw = input.b_cols.len();
    let bias = i64::from(input.top.h[0]);

    let lanes = E::LANES;
    let open_ext = (scheme.gap_open + scheme.gap_extend) as i16;
    let ext = scheme.gap_extend as i16;

    let reb_h = |v: Score| -> i16 { (i64::from(v) - bias) as i16 };
    let reb_aux = |v: Score| -> i16 {
        if v <= NEG_INF / 2 {
            NEG_INF16
        } else {
            (i64::from(v) - bias) as i16
        }
    };
    // The gap arm a border cell with `H = h` and `E` (or `F`) `= aux` hands
    // the tile cell right of (or below) it, in the lanes' saturating i16.
    let border_arm = |aux: Score, h: Score| -> i16 {
        reb_aux(aux)
            .saturating_sub(ext)
            .max(reb_h(h).saturating_sub(open_ext))
    };

    // Inputs and state rows carry one vector of padding: a corner
    // diagonal's single chunk may run up to `lanes − 1` slots past its last
    // row (see the module docs). N (code ≥ 4) is stored as a different
    // value on each side, so one lane compare means "match, and not N".
    let mut a16 = vec![0i16; bh + lanes];
    for (x, &c) in input.a_rows.iter().enumerate() {
        a16[x] = if c < 4 { i16::from(c) } else { 0x40 };
    }
    // b reversed: the vector load for cells (k, d−k), k ascending, reads
    // b_rev16[bw + k − d ..] contiguously.
    let mut b_rev16 = vec![0i16; bw + lanes];
    for (x, &c) in input.b_cols.iter().enumerate() {
        b_rev16[bw - 1 - x] = if c < 4 { i16::from(c) } else { 0x50 };
    }

    // Rolling anti-diagonal state, indexed by tile row k (0 = border row):
    // H at diagonals d−2/d−1/d, and the gap arms at d−1/d — slot k of the
    // E-arm row holds the E of the cell right of (k, d−k), slot k of the
    // F-arm row the F of the cell below it. Slots outside the valid range
    // of a diagonal hold stale values that are provably never read.
    let mut backing = Vec::new();
    let [mut hp2, mut hp1, mut hc, mut ep, mut ec, mut fp, mut fc] =
        state_rows(&mut backing, bh + 1 + lanes);

    // Diagonals 0 and 1 are pure border cells.
    hp2[0] = reb_h(input.top.h[0]);
    hp1[0] = reb_h(input.top.h[1]);
    hp1[1] = reb_h(input.left.h[1]);
    ep[1] = border_arm(input.left.e[1], input.left.h[1]);
    fp[0] = border_arm(input.top.f[1], input.top.h[1]);

    // Rebased zero floor for local semantics. When `bias` exceeds i16 range
    // the clamp pins it at i16::MIN, which is exact: the pre-scan guarantees
    // in-tile values stay within BAND of the (huge) corner, so neither the
    // true zero floor nor the clamped one can ever bind.
    let floor16: i16 = (-bias).clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i16;

    let v_ext = E::splat(ext);
    let v_oe = E::splat(open_ext);
    let v_match = E::splat(scheme.match_score as i16);
    let v_mis = E::splat(scheme.mismatch_score as i16);
    let v_floor = E::splat(floor16);
    let v_ninf = E::splat(NEG_INF16);
    let v_top = E::splat(i16::MAX);
    debug_assert!(lanes <= LANE_INDEX.len());
    let v_iota = E::loadu(LANE_INDEX.as_ptr());

    // Band check accumulators over every computed (pre-store) H value.
    let mut v_maxall = v_ninf;
    let mut v_minall = v_top;

    // Outgoing borders, captured lane-exactly as diagonals sweep past the
    // tile's bottom row and right column (index 0 unused here; the corner
    // is attached during assembly).
    let mut bot_h16 = vec![0i16; bw + 1];
    let mut bot_f16 = vec![0i16; bw + 1];
    let mut rgt_h16 = vec![0i16; bh + 1];
    let mut rgt_e16 = vec![0i16; bh + 1];

    let mut best = BestCell::ZERO;

    for d in 2..=(bh + bw) {
        let klo = if d > bw { d - bw } else { 1 };
        let khi = if d - 1 < bh { d - 1 } else { bh };
        let span = khi - klo + 1;
        let kend = klo + (span - span % lanes);

        let mut v_dmax = v_ninf;
        let mut v_dmin = v_top;

        // Vector chunks step by `lanes` from klo. On a diagonal holding at
        // least one full vector, the last chunk is pulled back to end
        // exactly at khi, so the `span % lanes` leftover cells run as a
        // vector: its first lanes recompute cells of the previous chunk,
        // and since a cell reads only diagonals d−1 and d−2, which this
        // loop never writes, the recomputed values equal the stored ones.
        // Every lane is a real cell, so no masking is needed. A corner
        // diagonal runs one chunk from klo whose lanes past khi are dead:
        // a lane-index mask keeps them out of the min/max accumulators.
        //
        // A cell's E and F are the arms its left and upper neighbours
        // stored on diagonal d−1; it stores its own arms, built from one
        // `H − (open + ext)`, for its right and lower neighbours.
        let last = (khi + 1).saturating_sub(lanes).max(klo);
        let mut k = klo;
        loop {
            let ev = E::loadu(ep.as_ptr().add(k));
            let fv = E::loadu(fp.as_ptr().add(k - 1));
            let va = E::loadu(a16.as_ptr().add(k - 1));
            let vb = E::loadu(b_rev16.as_ptr().add(bw + k - d));
            let sub = E::blendv(v_mis, v_match, E::cmpeq(va, vb));
            let mut hv = E::adds(E::loadu(hp2.as_ptr().add(k - 1)), sub);
            hv = E::max(hv, ev);
            hv = E::max(hv, fv);
            if LOCAL {
                hv = E::max(hv, v_floor);
            }
            let ho = E::subs(hv, v_oe);
            E::storeu(hc.as_mut_ptr().add(k), hv);
            E::storeu(ec.as_mut_ptr().add(k), E::max(E::subs(ev, v_ext), ho));
            E::storeu(fc.as_mut_ptr().add(k), E::max(E::subs(fv, v_ext), ho));
            if span < lanes {
                let live = E::cmpgt(E::splat(span as i16), v_iota);
                v_dmax = E::blendv(v_ninf, hv, live);
                if MIN {
                    v_dmin = E::blendv(v_top, hv, live);
                }
                break;
            }
            v_dmax = E::max(v_dmax, hv);
            if MIN {
                v_dmin = E::min(v_dmin, hv);
            }
            if k == last {
                break;
            }
            k = (k + lanes).min(last);
        }
        // Band accumulators merge once per diagonal, not per step.
        v_maxall = E::max(v_maxall, v_dmax);
        if MIN {
            v_minall = E::min(v_minall, v_dmin);
        }

        // Border capture. A cell's own F and E are the arms its upper and
        // left neighbours stored on diagonal d−1; those rows are read
        // before the swap, and the patches below write only diagonal d.
        if d > bh {
            bot_h16[d - bh] = hc[bh];
            bot_f16[d - bh] = fp[bh - 1];
        }
        if d > bw {
            rgt_h16[d - bw] = hc[d - bw];
            rgt_e16[d - bw] = ep[d - bw];
        }

        // Best-cell tracking: a diagonal matters only when its max can reach
        // the running best. `>=` (not `>`) because a later diagonal can tie
        // the score at a smaller row index, which wins the deterministic
        // (score, i, j) order. The diagonal's own winner is fully determined
        // by its max: among equal-H cells the smallest k has the smallest
        // row index (and a larger k at the same d means a smaller column,
        // which only matters at the same row — impossible within one
        // diagonal). So instead of building a BestCell per cell — which
        // degenerates to scalar speed on homologous inputs, where the score
        // climbs on almost every diagonal — locate the first lane equal to
        // the max with a vector compare.
        //
        // The vector scan stops at `kend`, the end of the last full-lane
        // chunk from klo; the `find` covers `kend..=khi`, which the
        // overlapped chunk (or, on a corner diagonal, the single chunk from
        // klo) has filled. A scan chunk starting at or past `kend` would
        // compare slots past khi: dead lanes and stale values, any of which
        // may equal the max.
        //
        // On a tile that ends up out of band, the candidate (or the whole
        // best) may be garbage, because the band post-check below discards
        // the tile.
        let dmax = E::hmax(v_dmax);
        if i64::from(dmax) + bias >= i64::from(best.score.max(1)) {
            let v_target = E::splat(dmax);
            let mut hit = None;
            let mut k = klo;
            while k < kend {
                let m = E::movemask(E::cmpeq(E::loadu(hc.as_ptr().add(k)), v_target));
                if m != 0 {
                    hit = Some(k + m.trailing_zeros() as usize / 2);
                    break;
                }
                k += lanes;
            }
            if hit.is_none() {
                hit = (kend..=khi).find(|&k| hc[k] == dmax);
            }
            if let Some(k) = hit {
                let cand = BestCell::new(
                    (i64::from(dmax) + bias) as Score,
                    input.row_offset + k - 1,
                    input.col_offset + (d - k) - 1,
                );
                if cand.beats(&best) {
                    best = cand;
                }
            }
        }

        // Patch the border cells the next diagonals read: row 0 comes from
        // the top border, column 0 from the left border. Their arm slots
        // take the arm the border cell hands the tile, computed as the
        // lanes would.
        if d <= bw {
            hc[0] = reb_h(input.top.h[d]);
            fc[0] = border_arm(input.top.f[d], input.top.h[d]);
        }
        if d <= bh {
            hc[d] = reb_h(input.left.h[d]);
            ec[d] = border_arm(input.left.e[d], input.left.h[d]);
        }

        std::mem::swap(&mut hp2, &mut hp1);
        std::mem::swap(&mut hp1, &mut hc);
        std::mem::swap(&mut ep, &mut ec);
        std::mem::swap(&mut fp, &mut fc);
    }

    // Belt-and-braces band check: the pre-scan margin should make this
    // unreachable, but if any computed H touched the band edge the tile is
    // rescued rather than trusted. Without `MIN` the low side is bounded by
    // the local floor (see [`wave_unscanned`]).
    if i64::from(E::hmax(v_maxall)) > BAND || (MIN && i64::from(E::hmin(v_minall)) < -BAND) {
        return None;
    }

    // Rebase back. Emitted E/F values are always real (each is ≥ some real
    // H minus open+extend — the border rows that carry NEG_INF never reach
    // the emitted edges), so adding the bias back is exact.
    let mut bottom_h = Vec::with_capacity(bw + 1);
    let mut bottom_f = Vec::with_capacity(bw + 1);
    bottom_h.push(input.left.h[bh]);
    bottom_f.push(NEG_INF);
    bottom_h.extend(
        bot_h16[1..=bw]
            .iter()
            .map(|&v| (i64::from(v) + bias) as Score),
    );
    bottom_f.extend(
        bot_f16[1..=bw]
            .iter()
            .map(|&v| (i64::from(v) + bias) as Score),
    );
    let mut right_h = Vec::with_capacity(bh + 1);
    let mut right_e = Vec::with_capacity(bh + 1);
    right_h.push(input.top.h[bw]);
    right_e.push(NEG_INF);
    right_h.extend(
        rgt_h16[1..=bh]
            .iter()
            .map(|&v| (i64::from(v) + bias) as Score),
    );
    right_e.extend(
        rgt_e16[1..=bh]
            .iter()
            .map(|&v| (i64::from(v) + bias) as Score),
    );

    Some(BlockOutput {
        bottom: RowBorder {
            h: bottom_h,
            f: bottom_f,
        },
        right: ColBorder {
            h: right_h,
            e: right_e,
        },
        best,
        cells: bh as u64 * bw as u64,
    })
}

/// # Safety
/// Requires AVX-512BW (checked by `kernel::select` before this is
/// reachable).
#[target_feature(enable = "avx512bw")]
unsafe fn wave_avx512<const LOCAL: bool>(
    input: BlockInput<'_>,
    scheme: &ScoreScheme,
) -> Option<BlockOutput> {
    wave::<Avx512, LOCAL>(input, scheme)
}

/// # Safety
/// Requires AVX2 (checked by `kernel::select` before this is reachable).
#[target_feature(enable = "avx2")]
unsafe fn wave_avx2<const LOCAL: bool>(
    input: BlockInput<'_>,
    scheme: &ScoreScheme,
) -> Option<BlockOutput> {
    wave::<Avx2, LOCAL>(input, scheme)
}

/// # Safety
/// Requires SSE4.1 (checked by `kernel::select` before this is reachable).
#[target_feature(enable = "sse4.1")]
unsafe fn wave_sse41<const LOCAL: bool>(
    input: BlockInput<'_>,
    scheme: &ScoreScheme,
) -> Option<BlockOutput> {
    wave::<Sse41, LOCAL>(input, scheme)
}

/// Below ~2 vectors per anti-diagonal the wavefront bookkeeping outweighs
/// the lane win; such tiles run scalar without counting as rescues.
const fn vector_min(lanes: usize) -> usize {
    2 * lanes
}

/// Settle a tile a wave ran on: count it under `path`, or rescue it when
/// the wave refused it.
fn settle<const LOCAL: bool>(
    out: Option<BlockOutput>,
    input: BlockInput<'_>,
    scheme: &ScoreScheme,
    path: fn(&mut PathCounts),
) -> BlockOutput {
    match out {
        Some(out) => {
            count_path(path);
            out
        }
        None => rescue_block::<LOCAL>(input, scheme),
    }
}

/// A tile too small for any wave of its engine.
fn scalar_by_size<const LOCAL: bool>(input: BlockInput<'_>, scheme: &ScoreScheme) -> BlockOutput {
    count_path(|p| p.scalar += 1);
    compute_block_impl::<LOCAL>(input, scheme)
}

/// Tile dispatch of the AVX-512BW engine (32 × i16 lanes). A tile whose
/// short side is below its vector minimum but still fills two AVX2
/// vectors runs the 16-lane wave, so small tiles keep a vector path.
fn avx512_block<const LOCAL: bool>(input: BlockInput<'_>, scheme: &ScoreScheme) -> BlockOutput {
    let short = input.a_rows.len().min(input.b_cols.len());
    if short >= vector_min(Avx512::LANES) {
        // SAFETY: this dispatch is only reachable through the kernel
        // `kernel::select` hands out after a runtime AVX-512BW check.
        let out = unsafe { wave_avx512::<LOCAL>(input, scheme) };
        return settle::<LOCAL>(out, input, scheme, |p| p.wide += 1);
    }
    if short >= vector_min(Avx2::LANES) {
        // SAFETY: as above, and AVX-512BW implies AVX-512F, which implies
        // AVX2.
        let out = unsafe { wave_avx2::<LOCAL>(input, scheme) };
        return settle::<LOCAL>(out, input, scheme, |p| p.half += 1);
    }
    scalar_by_size::<LOCAL>(input, scheme)
}

/// Tile dispatch of the AVX2 engine (16 × i16 lanes).
fn avx2_block<const LOCAL: bool>(input: BlockInput<'_>, scheme: &ScoreScheme) -> BlockOutput {
    if input.a_rows.len().min(input.b_cols.len()) >= vector_min(Avx2::LANES) {
        // SAFETY: this dispatch is only reachable through the kernel
        // `kernel::select` hands out after a runtime AVX2 check.
        let out = unsafe { wave_avx2::<LOCAL>(input, scheme) };
        return settle::<LOCAL>(out, input, scheme, |p| p.wide += 1);
    }
    scalar_by_size::<LOCAL>(input, scheme)
}

/// Tile dispatch of the SSE4.1 engine (8 × i16 lanes).
fn sse41_block<const LOCAL: bool>(input: BlockInput<'_>, scheme: &ScoreScheme) -> BlockOutput {
    if input.a_rows.len().min(input.b_cols.len()) >= vector_min(Sse41::LANES) {
        // SAFETY: this dispatch is only reachable through the kernel
        // `kernel::select` hands out after a runtime SSE4.1 check.
        let out = unsafe { wave_sse41::<LOCAL>(input, scheme) };
        return settle::<LOCAL>(out, input, scheme, |p| p.wide += 1);
    }
    scalar_by_size::<LOCAL>(input, scheme)
}

/// A vector engine: its id and its tile dispatch for each semantics.
pub(crate) struct SimdKernel {
    id: KernelId,
    local: fn(BlockInput<'_>, &ScoreScheme) -> BlockOutput,
    anchored: fn(BlockInput<'_>, &ScoreScheme) -> BlockOutput,
}

impl Kernel for SimdKernel {
    fn id(&self) -> KernelId {
        self.id
    }
    fn block(&self, input: BlockInput<'_>, scheme: &ScoreScheme) -> BlockOutput {
        (self.local)(input, scheme)
    }
    fn block_anchored(&self, input: BlockInput<'_>, scheme: &ScoreScheme) -> BlockOutput {
        (self.anchored)(input, scheme)
    }
}

static AVX512_KERNEL: SimdKernel = SimdKernel {
    id: KernelId::Avx512,
    local: avx512_block::<true>,
    anchored: avx512_block::<false>,
};
static AVX2_KERNEL: SimdKernel = SimdKernel {
    id: KernelId::Avx2,
    local: avx2_block::<true>,
    anchored: avx2_block::<false>,
};
static SSE41_KERNEL: SimdKernel = SimdKernel {
    id: KernelId::Sse41,
    local: sse41_block::<true>,
    anchored: sse41_block::<false>,
};

pub(crate) fn avx512_kernel() -> &'static dyn Kernel {
    &AVX512_KERNEL
}

pub(crate) fn avx2_kernel() -> &'static dyn Kernel {
    &AVX2_KERNEL
}

pub(crate) fn sse41_kernel() -> &'static dyn Kernel {
    &SSE41_KERNEL
}

#[cfg(test)]
mod tests {
    use super::*;
    use megasw_seq::rng::ChaCha8Rng;
    use megasw_seq::{ChromosomeGenerator, DivergenceModel, GenerateConfig};

    fn engines() -> Vec<(&'static str, &'static dyn Kernel)> {
        let mut out: Vec<(&'static str, &'static dyn Kernel)> = Vec::new();
        if std::arch::is_x86_feature_detected!("avx512bw") {
            out.push(("avx512", avx512_kernel()));
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            out.push(("avx2", avx2_kernel()));
        }
        if std::arch::is_x86_feature_detected!("sse4.1") {
            out.push(("sse41", sse41_kernel()));
        }
        out
    }

    fn lanes_of(name: &str) -> usize {
        match name {
            "avx512" => Avx512::LANES,
            "avx2" => Avx2::LANES,
            "sse41" => Sse41::LANES,
            _ => unreachable!(),
        }
    }

    fn run_wave(
        name: &str,
        local: bool,
        input: BlockInput<'_>,
        scheme: &ScoreScheme,
    ) -> Option<BlockOutput> {
        // SAFETY: `engines()` only yields names whose feature check passed.
        unsafe {
            match (name, local) {
                ("avx512", true) => wave_avx512::<true>(input, scheme),
                ("avx512", false) => wave_avx512::<false>(input, scheme),
                ("avx2", true) => wave_avx2::<true>(input, scheme),
                ("avx2", false) => wave_avx2::<false>(input, scheme),
                ("sse41", true) => wave_sse41::<true>(input, scheme),
                ("sse41", false) => wave_sse41::<false>(input, scheme),
                _ => unreachable!(),
            }
        }
    }

    #[target_feature(enable = "avx512bw")]
    unsafe fn unscanned_avx512<const LOCAL: bool>(
        input: BlockInput<'_>,
        scheme: &ScoreScheme,
    ) -> Option<BlockOutput> {
        wave_unscanned::<Avx512, LOCAL>(input, scheme)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn unscanned_avx2<const LOCAL: bool>(
        input: BlockInput<'_>,
        scheme: &ScoreScheme,
    ) -> Option<BlockOutput> {
        wave_unscanned::<Avx2, LOCAL>(input, scheme)
    }

    #[target_feature(enable = "sse4.1")]
    unsafe fn unscanned_sse41<const LOCAL: bool>(
        input: BlockInput<'_>,
        scheme: &ScoreScheme,
    ) -> Option<BlockOutput> {
        wave_unscanned::<Sse41, LOCAL>(input, scheme)
    }

    /// [`run_wave`] without the pre-scan, so the band post-check alone
    /// decides whether the tile is kept.
    fn run_unscanned(
        name: &str,
        local: bool,
        input: BlockInput<'_>,
        scheme: &ScoreScheme,
    ) -> Option<BlockOutput> {
        // SAFETY: `engines()` only yields names whose feature check passed.
        unsafe {
            match (name, local) {
                ("avx512", true) => unscanned_avx512::<true>(input, scheme),
                ("avx512", false) => unscanned_avx512::<false>(input, scheme),
                ("avx2", true) => unscanned_avx2::<true>(input, scheme),
                ("avx2", false) => unscanned_avx2::<false>(input, scheme),
                ("sse41", true) => unscanned_sse41::<true>(input, scheme),
                ("sse41", false) => unscanned_sse41::<false>(input, scheme),
                _ => unreachable!(),
            }
        }
    }

    fn scalar_out(local: bool, input: BlockInput<'_>, scheme: &ScoreScheme) -> BlockOutput {
        if local {
            compute_block_impl::<true>(input, scheme)
        } else {
            compute_block_impl::<false>(input, scheme)
        }
    }

    /// Borders of a tile in the matrix's first block-row and block-column:
    /// all-zero for local semantics, the gap-from-origin boundary for
    /// anchored.
    fn origin_borders(
        local: bool,
        h: usize,
        w: usize,
        row: usize,
        col: usize,
        scheme: &ScoreScheme,
    ) -> (RowBorder, ColBorder) {
        if local {
            (RowBorder::zero(w), ColBorder::zero(h))
        } else {
            (
                RowBorder::anchored(w, col, scheme),
                ColBorder::anchored(h, row, scheme),
            )
        }
    }

    #[test]
    fn wave_matches_scalar_on_whole_matrix_tiles() {
        for (bh, bw, seed) in [
            (33usize, 40usize, 1u64),
            (64, 96, 2),
            (100, 100, 3),
            (48, 200, 4),
            (200, 48, 5),
        ] {
            let a = ChromosomeGenerator::new(GenerateConfig::sized(bh, seed)).generate();
            let b = ChromosomeGenerator::new(GenerateConfig::sized(bw, seed + 77)).generate();
            for scheme in [ScoreScheme::cudalign(), ScoreScheme::lenient()] {
                for local in [true, false] {
                    let (top, left) = origin_borders(local, bh, bw, 1, 1, &scheme);
                    let input = BlockInput {
                        a_rows: a.codes(),
                        b_cols: b.codes(),
                        top: &top,
                        left: &left,
                        row_offset: 1,
                        col_offset: 1,
                    };
                    let want = scalar_out(local, input, &scheme);
                    for (name, _) in engines() {
                        let got = run_wave(name, local, input, &scheme)
                            .unwrap_or_else(|| panic!("{name}: unexpected rescue"));
                        assert_eq!(got, want, "{name} {bh}x{bw} local={local}");
                    }
                }
            }
        }
    }

    #[test]
    fn wave_matches_scalar_with_composed_borders() {
        // The bottom-right tile of a 2×2 split sees genuinely non-trivial
        // incoming borders (produced by the scalar kernel) — the exact
        // situation the pipeline puts the vector engines in.
        let scheme = ScoreScheme::cudalign();
        let a = ChromosomeGenerator::new(GenerateConfig::sized(260, 0x51_01)).generate();
        let (b, _) = DivergenceModel::test_scale(0x51_02).apply(&a);
        let (si, sj) = (130usize, 120usize);
        for local in [true, false] {
            let (top0, left0) = origin_borders(local, si, sj, 1, 1, &scheme);
            let t00 = scalar_out(
                local,
                BlockInput {
                    a_rows: &a.codes()[..si],
                    b_cols: &b.codes()[..sj],
                    top: &top0,
                    left: &left0,
                    row_offset: 1,
                    col_offset: 1,
                },
                &scheme,
            );
            let (top01, left10) =
                origin_borders(local, a.len() - si, b.len() - sj, si + 1, sj + 1, &scheme);
            let t01 = scalar_out(
                local,
                BlockInput {
                    a_rows: &a.codes()[..si],
                    b_cols: &b.codes()[sj..],
                    top: &top01,
                    left: &t00.right,
                    row_offset: 1,
                    col_offset: sj + 1,
                },
                &scheme,
            );
            let t10 = scalar_out(
                local,
                BlockInput {
                    a_rows: &a.codes()[si..],
                    b_cols: &b.codes()[..sj],
                    top: &t00.bottom,
                    left: &left10,
                    row_offset: si + 1,
                    col_offset: 1,
                },
                &scheme,
            );
            let t11_input = BlockInput {
                a_rows: &a.codes()[si..],
                b_cols: &b.codes()[sj..],
                top: &t01.bottom,
                left: &t10.right,
                row_offset: si + 1,
                col_offset: sj + 1,
            };
            let want = scalar_out(local, t11_input, &scheme);
            for (name, _) in engines() {
                let got = run_wave(name, local, t11_input, &scheme)
                    .unwrap_or_else(|| panic!("{name}: unexpected rescue"));
                assert_eq!(got, want, "{name} local={local}");
            }
        }
    }

    #[test]
    fn large_bias_tile_stays_vectorized_and_exact() {
        // Absolute border scores way beyond i16::MAX: the bias rebase keeps
        // the tile in i16 range — no rescue, bit-identical output.
        let scheme = ScoreScheme::cudalign();
        let (bh, bw) = (128usize, 128usize);
        let a = ChromosomeGenerator::new(GenerateConfig::sized(bh, 0x52_01)).generate();
        let b = ChromosomeGenerator::new(GenerateConfig::sized(bw, 0x52_02)).generate();
        let big: Score = 40_000;
        assert!(i64::from(big) > i64::from(i16::MAX));
        let top = RowBorder {
            h: vec![big; bw + 1],
            f: vec![NEG_INF; bw + 1],
        };
        let left = ColBorder {
            h: vec![big; bh + 1],
            e: vec![NEG_INF; bh + 1],
        };
        let input = BlockInput {
            a_rows: a.codes(),
            b_cols: b.codes(),
            top: &top,
            left: &left,
            row_offset: 500,
            col_offset: 900,
        };
        for local in [true, false] {
            let want = scalar_out(local, input, &scheme);
            assert!(want.best.score >= big, "borders must dominate the tile");
            for (name, _) in engines() {
                let got = run_wave(name, local, input, &scheme)
                    .unwrap_or_else(|| panic!("{name}: rebased tile should not rescue"));
                assert_eq!(got, want, "{name} local={local}");
            }
        }
    }

    #[test]
    fn wide_range_scheme_triggers_rescue_and_stays_exact() {
        // match = 30 over a 600×600 tile: the pre-scan margin alone exceeds
        // the band, so the wave refuses and the kernel falls back — and the
        // fallback is the scalar kernel, so outputs stay bit-identical.
        let scheme = ScoreScheme {
            match_score: 30,
            mismatch_score: -3,
            gap_open: 3,
            gap_extend: 2,
        };
        let n = 600usize;
        let a = ChromosomeGenerator::new(GenerateConfig::sized(n, 0x53_01)).generate();
        let top = RowBorder::zero(n);
        let left = ColBorder::zero(n);
        let input = BlockInput {
            a_rows: a.codes(),
            b_cols: a.codes(),
            top: &top,
            left: &left,
            row_offset: 1,
            col_offset: 1,
        };
        let want = scalar_out(true, input, &scheme);
        for (name, kernel) in engines() {
            assert!(
                run_wave(name, true, input, &scheme).is_none(),
                "{name}: expected an overflow rescue"
            );
            let before = rescue_count();
            let via_kernel = kernel.block(input, &scheme);
            assert_eq!(via_kernel, want, "{name}");
            assert!(rescue_count() > before, "{name}: rescue not counted");
        }
    }

    #[test]
    fn running_score_across_i16_max_is_bit_identical_to_reference() {
        // Satellite regression: a single tile whose running score crosses
        // i16::MAX mid-wave (identical 1200 bp sequences at match = 30 peak
        // at 36_000). The rescue path must reproduce the reference exactly.
        let scheme = ScoreScheme {
            match_score: 30,
            mismatch_score: -3,
            gap_open: 3,
            gap_extend: 2,
        };
        let a = ChromosomeGenerator::new(GenerateConfig::sized(1_200, 0x54_01)).generate();
        let want = crate::reference::reference_best(a.codes(), a.codes(), &scheme);
        assert!(
            i64::from(want.score) > i64::from(i16::MAX),
            "test must actually cross i16::MAX, got {}",
            want.score
        );
        for (name, kernel) in engines() {
            let got = kernel.best(a.codes(), a.codes(), &scheme);
            assert_eq!(got, want, "{name}");
        }
    }

    /// One differential case: a tile with its borders and semantics, built
    /// from a seed and a shape alone, so a failure replays from its message.
    struct Case {
        a: Vec<u8>,
        b: Vec<u8>,
        top: RowBorder,
        left: ColBorder,
        row_offset: usize,
        col_offset: usize,
        local: bool,
        scheme: ScoreScheme,
        what: String,
    }

    impl Case {
        fn input(&self) -> BlockInput<'_> {
            BlockInput {
                a_rows: &self.a,
                b_cols: &self.b,
                top: &self.top,
                left: &self.left,
                row_offset: self.row_offset,
                col_offset: self.col_offset,
            }
        }
    }

    /// `n` base codes, N (code 4) at rate `n_rate`.
    fn random_codes(rng: &mut ChaCha8Rng, n: usize, n_rate: f64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                if rng.gen::<f64>() < n_rate {
                    4
                } else {
                    rng.gen_range(0u8..4)
                }
            })
            .collect()
    }

    /// `src` with substitutions (N among them) at rate `rate`: two copies of
    /// one source score like a homologous pair, so the best cell climbs.
    fn diverged(rng: &mut ChaCha8Rng, src: &[u8], rate: f64) -> Vec<u8> {
        src.iter()
            .map(|&c| {
                if rng.gen::<f64>() < rate {
                    rng.gen_range(0u8..5)
                } else {
                    c
                }
            })
            .collect()
    }

    /// Random in-band values `lo..=hi`.
    fn band_value(rng: &mut ChaCha8Rng, lo: i64, hi: i64) -> Score {
        (lo + i64::from(rng.gen_range(0u32..=(hi - lo) as u32))) as Score
    }

    /// Build the differential case for `(seed, bh, bw)`. The seed picks the
    /// semantics (local or anchored), the scheme (`cudalign` or `lenient`),
    /// the N rate, random or homologous sequences, and one of three border
    /// kinds:
    /// * `origin`: the matrix's own zero / anchored boundary, E/F all
    ///   `NEG_INF`;
    /// * `composed`: the bottom-right tile of a 2×2 split, its borders
    ///   produced by scalar neighbour tiles, as the pipeline composes them;
    /// * `band-edge`: synthetic borders spread over the whole range the
    ///   pre-scan admits, with one value pinned at each band edge, E/F a
    ///   mix of `NEG_INF` and real values, far from the matrix origin.
    fn build_case(seed: u64, bh: usize, bw: usize) -> Case {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let local = rng.gen::<bool>();
        let (scheme, scheme_name) = if rng.gen::<bool>() {
            (ScoreScheme::cudalign(), "cudalign")
        } else {
            (ScoreScheme::lenient(), "lenient")
        };
        let n_rate = [0.0, 0.02, 0.3][rng.gen_range(0usize..3)];
        let homologous = rng.gen::<bool>();
        let kind = ["origin", "composed", "band-edge"][rng.gen_range(0usize..3)];
        let (h0, w0) = if kind == "composed" {
            (rng.gen_range(1usize..=48), rng.gen_range(1usize..=48))
        } else {
            (0, 0)
        };
        let (a_full, b_full) = if homologous {
            let shift = rng.gen_range(0usize..=16);
            let src = random_codes(&mut rng, (h0 + bh).max(w0 + bw) + 16, n_rate);
            let a = diverged(&mut rng, &src[..h0 + bh], 0.08);
            let b = diverged(&mut rng, &src[shift..shift + w0 + bw], 0.08);
            (a, b)
        } else {
            (
                random_codes(&mut rng, h0 + bh, n_rate),
                random_codes(&mut rng, w0 + bw, n_rate),
            )
        };
        let what = format!(
            "seed={seed:#018x} shape={bh}x{bw} local={local} scheme={scheme_name} \
             borders={kind} n_rate={n_rate} homologous={homologous}"
        );
        let (top, left, row_offset, col_offset) = match kind {
            "origin" => {
                let (top, left) = origin_borders(local, bh, bw, 1, 1, &scheme);
                (top, left, 1, 1)
            }
            "composed" => {
                let tile = |a: &[u8], b: &[u8], top: &RowBorder, left: &ColBorder, r, c| {
                    let input = BlockInput {
                        a_rows: a,
                        b_cols: b,
                        top,
                        left,
                        row_offset: r,
                        col_offset: c,
                    };
                    scalar_out(local, input, &scheme)
                };
                let (top00, left00) = origin_borders(local, h0, w0, 1, 1, &scheme);
                let t00 = tile(&a_full[..h0], &b_full[..w0], &top00, &left00, 1, 1);
                let (top01, left10) = origin_borders(local, bh, bw, h0 + 1, w0 + 1, &scheme);
                let t01 = tile(&a_full[..h0], &b_full[w0..], &top01, &t00.right, 1, w0 + 1);
                let t10 = tile(
                    &a_full[h0..],
                    &b_full[..w0],
                    &t00.bottom,
                    &left10,
                    h0 + 1,
                    1,
                );
                (t01.bottom, t10.right, h0 + 1, w0 + 1)
            }
            _ => {
                let path = (bh + bw + 4) as i64;
                let up = BAND - path * i64::from(scheme.match_score);
                let down = BAND
                    - path
                        * i64::from(scheme.gap_open + scheme.gap_extend)
                            .max(-i64::from(scheme.mismatch_score));
                assert!(up >= 0 && down >= 0, "{what}: shape too large for any band");
                let bias = if local {
                    i64::from(rng.gen_range(0u32..=2_000_000))
                } else {
                    i64::from(rng.gen_range(0u32..=4_000_000)) - 2_000_000
                };
                let (lo, hi) = (
                    if local {
                        (bias - down).max(0)
                    } else {
                        bias - down
                    },
                    bias + up,
                );
                let mut top_h: Vec<Score> =
                    (0..=bw).map(|_| band_value(&mut rng, lo, hi)).collect();
                let mut left_h: Vec<Score> =
                    (0..=bh).map(|_| band_value(&mut rng, lo, hi)).collect();
                top_h[0] = bias as Score;
                left_h[0] = bias as Score;
                let (edge_top, edge_left) = if rng.gen::<bool>() {
                    (hi, lo)
                } else {
                    (lo, hi)
                };
                top_h[rng.gen_range(1..=bw)] = edge_top as Score;
                left_h[rng.gen_range(1..=bh)] = edge_left as Score;
                let mut aux = |n: usize| -> Vec<Score> {
                    (0..=n)
                        .map(|x| {
                            if x == 0 || rng.gen::<bool>() {
                                NEG_INF
                            } else {
                                band_value(&mut rng, lo, hi)
                            }
                        })
                        .collect()
                };
                let top_f = aux(bw);
                let left_e = aux(bh);
                let row_offset = rng.gen_range(1usize..=1_000_000);
                let col_offset = rng.gen_range(1usize..=1_000_000);
                (
                    RowBorder { h: top_h, f: top_f },
                    ColBorder {
                        h: left_h,
                        e: left_e,
                    },
                    row_offset,
                    col_offset,
                )
            }
        };
        Case {
            a: a_full[h0..].to_vec(),
            b: b_full[w0..].to_vec(),
            top,
            left,
            row_offset,
            col_offset,
            local,
            scheme,
            what,
        }
    }

    /// The first field where two tile outputs differ, short enough for a
    /// panic message (a strip's borders run to thousands of values).
    fn first_difference(got: &BlockOutput, want: &BlockOutput) -> String {
        if got.best != want.best {
            return format!("best {:?} != {:?}", got.best, want.best);
        }
        let fields = [
            ("bottom.h", &got.bottom.h, &want.bottom.h),
            ("bottom.f", &got.bottom.f, &want.bottom.f),
            ("right.h", &got.right.h, &want.right.h),
            ("right.e", &got.right.e, &want.right.e),
        ];
        for (field, g, w) in fields {
            if let Some(x) = (0..g.len().max(w.len())).find(|&x| g.get(x) != w.get(x)) {
                return format!("{field}[{x}] {:?} != {:?}", g.get(x), w.get(x));
            }
        }
        format!("cells {} != {}", got.cells, want.cells)
    }

    /// Run sweep case `(seed, bh, bw)` on engine `name`: an in-band tile
    /// must come back from the wave exact, an out-of-band one refused and
    /// exact through the kernel's rescue. `Ok(in_band)`, or what differs.
    fn check_case(name: &str, seed: u64, bh: usize, bw: usize) -> Result<bool, String> {
        let (_, kernel) = engines()
            .into_iter()
            .find(|&(n, _)| n == name)
            .ok_or_else(|| format!("engine `{name}` is not available on this CPU"))?;
        let case = build_case(seed, bh, bw);
        let input = case.input();
        let want = scalar_out(case.local, input, &case.scheme);
        let got = run_wave(name, case.local, input, &case.scheme);
        if fits_band(input, &case.scheme) {
            let got = got.ok_or_else(|| format!("{}: in-band tile was rescued", case.what))?;
            if got != want {
                return Err(format!(
                    "{}: wave differs from scalar: {}",
                    case.what,
                    first_difference(&got, &want)
                ));
            }
            return Ok(true);
        }
        if got.is_some() {
            return Err(format!("{}: out-of-band tile was not refused", case.what));
        }
        let via = if case.local {
            kernel.block(input, &case.scheme)
        } else {
            kernel.block_anchored(input, &case.scheme)
        };
        if via != want {
            return Err(format!(
                "{}: rescued tile differs from scalar: {}",
                case.what,
                first_difference(&via, &want)
            ));
        }
        Ok(false)
    }

    /// The one-line replay of a sweep case, as `MEGASW_KERNEL_REPRO` takes
    /// it.
    fn kernel_repro(name: &str, seed: u64, bh: usize, bw: usize) -> String {
        format!("engine={name} seed={seed:#x} shape={bh}x{bw}")
    }

    /// Parse [`kernel_repro`]'s form back into `(engine, seed, bh, bw)`.
    fn parse_kernel_repro(line: &str) -> Result<(String, u64, usize, usize), String> {
        let (mut engine, mut seed, mut shape) = (None, None, None);
        for field in line.split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("`{field}` is not key=value"))?;
            match key {
                "engine" => engine = Some(value.to_string()),
                "seed" => {
                    let parsed = match value.strip_prefix("0x") {
                        Some(hex) => u64::from_str_radix(hex, 16),
                        None => value.parse(),
                    };
                    seed = Some(parsed.map_err(|e| format!("seed `{value}`: {e}"))?);
                }
                "shape" => {
                    let side = |v: &str| v.parse::<usize>().ok().filter(|&n| n >= 1);
                    shape = value
                        .split_once('x')
                        .and_then(|(h, w)| Some((side(h)?, side(w)?)));
                    if shape.is_none() {
                        return Err(format!("shape `{value}` is not BHxBW"));
                    }
                }
                _ => return Err(format!("unknown key `{key}`")),
            }
        }
        let (bh, bw) = shape.ok_or("missing shape=BHxBW")?;
        Ok((
            engine.ok_or("missing engine=")?,
            seed.ok_or("missing seed=")?,
            bh,
            bw,
        ))
    }

    /// Greedily shrink a failing shape: halve a side, else take one off,
    /// while `fails` still holds; the smallest failing shape found.
    fn shrink_shape(
        mut bh: usize,
        mut bw: usize,
        mut fails: impl FnMut(usize, usize) -> bool,
    ) -> (usize, usize) {
        'shrink: loop {
            for (h, w) in [(bh / 2, bw), (bh, bw / 2), (bh - 1, bw), (bh, bw - 1)] {
                if h >= 1 && w >= 1 && (h, w) != (bh, bw) && fails(h, w) {
                    (bh, bw) = (h, w);
                    continue 'shrink;
                }
            }
            return (bh, bw);
        }
    }

    /// Shrink a failing sweep case and panic with its smallest replay.
    fn fail_case(name: &str, seed: u64, bh: usize, bw: usize, err: String) -> ! {
        let (h, w) = shrink_shape(bh, bw, |h, w| check_case(name, seed, h, w).is_err());
        let err = check_case(name, seed, h, w).err().unwrap_or(err);
        panic!(
            "engine={name} {err}\n  MEGASW_KERNEL_REPRO='{}'",
            kernel_repro(name, seed, h, w)
        );
    }

    #[test]
    fn differential_sweep_matches_scalar_on_every_residue_and_border_kind() {
        // Every available engine against the scalar tile kernel, whole
        // `BlockOutput` compared. The shapes cover every (bh mod lanes,
        // bw mod lanes) residue for sides 2·lanes ..< 4·lanes, so every
        // ragged-span length meets the overlapped last chunk, then strips up
        // to 512 × 4096 and random shapes. Every case the pre-scan admits
        // must come back `Some` and exact; the rest must be refused. A
        // failure is shrunk and reported as a `MEGASW_KERNEL_REPRO` line.
        const SEED: u64 = 0x5eed_0d1f_f000_0000;
        let (tiles, side_max) = if cfg!(debug_assertions) {
            (1_500, 160)
        } else {
            (12_000, 320)
        };
        for (e, (name, _)) in engines().into_iter().enumerate() {
            let lanes = lanes_of(name);
            let mut shapes: Vec<(usize, usize)> = (2 * lanes..4 * lanes)
                .flat_map(|bh| (2 * lanes..4 * lanes).map(move |bw| (bh, bw)))
                .collect();
            shapes.extend([
                (512, 4096),
                (512, 2051),
                (512, 512),
                (2 * lanes + 1, 4096),
                (4096, 2 * lanes + 3),
            ]);
            let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ e as u64);
            while shapes.len() < tiles {
                shapes.push((
                    rng.gen_range(2 * lanes..=side_max),
                    rng.gen_range(2 * lanes..=side_max),
                ));
            }
            let (mut in_band, mut refused) = (0usize, 0usize);
            for (x, &(bh, bw)) in shapes.iter().enumerate() {
                let seed = SEED ^ ((e as u64) << 40) ^ x as u64;
                match check_case(name, seed, bh, bw) {
                    Ok(true) => in_band += 1,
                    Ok(false) => refused += 1,
                    Err(err) => fail_case(name, seed, bh, bw, err),
                }
            }
            let floor = if cfg!(debug_assertions) {
                1_000
            } else {
                10_000
            };
            assert!(
                in_band >= floor,
                "engine={name}: only {in_band} in-band tiles (want ≥ {floor})"
            );
            eprintln!("{name}: {in_band} in-band tiles exact, {refused} out-of-band refused");
        }
    }

    #[test]
    fn kernel_repro_from_env() {
        // Replays the sweep case in MEGASW_KERNEL_REPRO, so a failure's
        // one-liner is directly actionable:
        //   MEGASW_KERNEL_REPRO='engine=avx2 seed=0x… shape=BHxBW' \
        //       cargo test --release -p megasw-sw --lib kernel_repro_from_env
        let Ok(line) = std::env::var("MEGASW_KERNEL_REPRO") else {
            return;
        };
        let (name, seed, bh, bw) =
            parse_kernel_repro(&line).unwrap_or_else(|e| panic!("MEGASW_KERNEL_REPRO: {e}"));
        match check_case(&name, seed, bh, bw) {
            Ok(in_band) => eprintln!(
                "replayed {}: {} ({})",
                kernel_repro(&name, seed, bh, bw),
                if in_band {
                    "in band, exact"
                } else {
                    "out of band, refused and rescued exactly"
                },
                build_case(seed, bh, bw).what
            ),
            Err(err) => panic!(
                "repro failed: {err}\n  MEGASW_KERNEL_REPRO='{}'",
                kernel_repro(&name, seed, bh, bw)
            ),
        }
    }

    #[test]
    fn kernel_repro_round_trips_and_the_shrinker_finds_the_smallest_shape() {
        let line = kernel_repro("avx2", 0x5eed_0d1f_f000_0123, 64, 80);
        assert_eq!(
            parse_kernel_repro(&line),
            Ok(("avx2".to_string(), 0x5eed_0d1f_f000_0123, 64, 80))
        );
        assert_eq!(
            parse_kernel_repro("engine=sse41 seed=17 shape=9x3"),
            Ok(("sse41".to_string(), 17, 9, 3))
        );
        for bad in [
            "engine=avx2 seed=0x1",
            "engine=avx2 seed=0x1 shape=0x4",
            "engine=avx2 seed=zz shape=4x4",
            "engine=avx2 seed=1 shape=4x4 extra=1",
        ] {
            assert!(parse_kernel_repro(bad).is_err(), "{bad}");
        }
        // A synthetic failure that needs both sides large enough shrinks to
        // exactly its threshold, whichever side it starts on.
        let fails = |h: usize, w: usize| h >= 37 && w >= 50;
        assert_eq!(shrink_shape(300, 400, fails), (37, 50));
        assert_eq!(shrink_shape(37, 4096, fails), (37, 50));
        assert_eq!(shrink_shape(1, 1, |_, _| true), (1, 1));
    }

    #[test]
    fn max_at_khi_beside_an_equal_border_slot_is_exact() {
        // All-N sequences (every pair mismatches) and a left-border spike at
        // tile row r = 2·lanes + 4. On diagonal d = r + 2 (klo = 1, khi =
        // r + 1, span = 2·lanes + 5) the diagonal max is the single cell
        // (r + 1, 1) = spike − 3, at k = khi: a ragged-tail cell that only
        // the overlapped last chunk computes. The left border at row r + 2 —
        // the slot just past khi, patched in after the diagonal — holds the
        // same value as the diagonal max. The wave must report that cell.
        let scheme = ScoreScheme::cudalign();
        for (name, _) in engines() {
            let lanes = lanes_of(name);
            let n = 4 * lanes + 3;
            let r = 2 * lanes + 4;
            let spike: Score = 100;
            let all_n = vec![4u8; n];
            let top = RowBorder::zero(n);
            let mut left = ColBorder::zero(n);
            left.h[r] = spike;
            left.h[r + 2] = spike + scheme.mismatch_score;
            let input = BlockInput {
                a_rows: &all_n,
                b_cols: &all_n,
                top: &top,
                left: &left,
                row_offset: 7,
                col_offset: 11,
            };
            let want = scalar_out(true, input, &scheme);
            assert_eq!(
                want.best,
                BestCell::new(spike + scheme.mismatch_score, 7 + r, 11),
                "{name}: the tile's best must be the spike's diagonal cell"
            );
            let (k, d) = (r + 1, r + 2);
            let (klo, khi) = (1, (d - 1).min(n));
            let span = khi - klo + 1;
            assert!(span >= lanes && span % lanes != 0 && k == khi);
            assert!(
                k >= klo + span - span % lanes,
                "the max must be a tail cell"
            );
            assert_eq!(left.h[khi + 1], want.best.score);
            let got = run_wave(name, true, input, &scheme)
                .unwrap_or_else(|| panic!("{name}: unexpected rescue"));
            assert!(got == want, "{name}: {}", first_difference(&got, &want));
        }
    }

    #[test]
    fn dispatch_threshold_is_vector_min_on_the_short_side() {
        // A tile whose top border sits 29_000 above its corner is out of
        // band, so a kernel that tries a wave on it records exactly one
        // thread-local rescue; one that goes straight to scalar records
        // none. That makes the dispatch decision observable at each
        // threshold on either side, while the output stays scalar-exact.
        // The path counts name which wave ran an in-band tile: AVX-512
        // runs a short side below 64 on the 16-lane AVX2 wave, and below
        // 32 scalar.
        let scheme = ScoreScheme::cudalign();
        for (name, kernel) in engines() {
            let lanes = lanes_of(name);
            let long = 3 * lanes + 5;
            let mut sides = vec![
                (vector_min(lanes) - 1, "scalar"),
                (vector_min(lanes), "wide"),
            ];
            if name == "avx512" {
                sides = vec![
                    (vector_min(Avx2::LANES) - 1, "scalar"),
                    (vector_min(Avx2::LANES), "half"),
                    (vector_min(lanes) - 1, "half"),
                    (vector_min(lanes), "wide"),
                ];
            }
            for (short, path) in sides {
                for (bh, bw) in [(short, long), (long, short)] {
                    let a = ChromosomeGenerator::new(GenerateConfig::sized(bh, 0x55_01)).generate();
                    let b = ChromosomeGenerator::new(GenerateConfig::sized(bw, 0x55_02)).generate();
                    let left = ColBorder::zero(bh);
                    let mut far_top = RowBorder::zero(bw);
                    far_top.h[bw] = 29_000;
                    for (top, in_band) in [(RowBorder::zero(bw), true), (far_top, false)] {
                        let input = BlockInput {
                            a_rows: a.codes(),
                            b_cols: b.codes(),
                            top: &top,
                            left: &left,
                            row_offset: 1,
                            col_offset: 1,
                        };
                        let want = scalar_out(true, input, &scheme);
                        let before = crate::kernel::path_counts();
                        let got = kernel.block(input, &scheme);
                        let paths = crate::kernel::path_counts() - before;
                        let what = format!("{name} {bh}x{bw} in_band={in_band}");
                        assert_eq!(got, want, "{what}");
                        let expect = match (path, in_band) {
                            ("scalar", _) => PathCounts {
                                scalar: 1,
                                ..PathCounts::default()
                            },
                            (_, false) => PathCounts {
                                rescued: 1,
                                ..PathCounts::default()
                            },
                            ("half", true) => PathCounts {
                                half: 1,
                                ..PathCounts::default()
                            },
                            _ => PathCounts {
                                wide: 1,
                                ..PathCounts::default()
                            },
                        };
                        assert_eq!(paths, expect, "{what}");
                        if path == "wide" && in_band {
                            assert_eq!(run_wave(name, true, input, &scheme), Some(want), "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn max_on_a_corner_diagonal_beside_an_equal_dead_lane_is_exact() {
        // An n × n tile of A against A with zero top border: each left-
        // border value g(t) starts a matching diagonal that ends on the
        // bottom row at (n, n − t) with g(t) + n − t. With g(2) = 5 and
        // g(4) = 6 the tile's best is (n, l = n − 2) = n + 3 =: M, alone,
        // and (n, l − 2) holds M − 1. The best's diagonal d = n + l has
        // span 3 < lanes, so it runs one chunk from klo = l whose lane k =
        // n + 1 is dead. That lane computes a phantom row n + 1 out of the
        // padding (code 0, A): H(n, l − 2) plus a match, which is M — an
        // equal value in the slot just past khi when the best cell is
        // searched. The wave must report the live cell at khi.
        let scheme = ScoreScheme::cudalign();
        for (name, _) in engines() {
            let lanes = lanes_of(name);
            let n = 2 * lanes + 3;
            let l = n - 2;
            let m = (n + 3) as Score;
            let all_a = vec![0u8; n];
            let top = RowBorder::zero(n);
            let mut left = ColBorder::zero(n);
            left.h[2] = 5;
            left.h[4] = 6;
            let input = BlockInput {
                a_rows: &all_a,
                b_cols: &all_a,
                top: &top,
                left: &left,
                row_offset: 7,
                col_offset: 11,
            };
            let want = scalar_out(true, input, &scheme);
            assert_eq!(want.best, BestCell::new(m, 7 + n - 1, 11 + l - 1), "{name}");
            assert_eq!(want.bottom.h[l - 2] + scheme.match_score, m, "{name}");
            let d = n + l;
            let (klo, khi) = (d - n, n);
            assert!(khi - klo + 1 < lanes, "{name}: d must be a corner diagonal");
            let got = run_wave(name, true, input, &scheme)
                .unwrap_or_else(|| panic!("{name}: unexpected rescue"));
            assert!(got == want, "{name}: {}", first_difference(&got, &want));
        }
    }

    #[test]
    fn local_tiles_at_the_min_tracking_boundary_are_exact() {
        // The wave drops the low-side min tracking on local tiles whose
        // corner bias is at most BAND, where the zero floor (rebased −bias)
        // bounds every H. Both sides of that boundary are pinned:
        // * through the pre-scan, a tile at bias BAND and one at BAND + 1,
        //   each with a left-border value at the lowest the pre-scan admits,
        //   must be exact on the engine's wide wave, not rescued;
        // * without the pre-scan, all-N tiles under steep penalties, whose
        //   cells sink from the corner to the zero floor, which rebases to
        //   −BAND at bias BAND (in band: exact) and to −BAND − 1 at
        //   BAND + 1, which the post-check must refuse.
        let scheme = ScoreScheme::cudalign();
        let steep = ScoreScheme {
            match_score: 1,
            mismatch_score: -1_000,
            gap_open: 500,
            gap_extend: 500,
        };
        let step_down =
            i64::from(scheme.gap_open + scheme.gap_extend).max(-i64::from(scheme.mismatch_score));
        for (name, kernel) in engines() {
            let n = 3 * lanes_of(name) + 5;
            let a = ChromosomeGenerator::new(GenerateConfig::sized(n, 0x56_01)).generate();
            let b = ChromosomeGenerator::new(GenerateConfig::sized(n, 0x56_02)).generate();
            let all_n = vec![4u8; n];
            for bias in [BAND, BAND + 1] {
                let what = format!("{name} bias={bias}");
                let top = RowBorder {
                    h: vec![bias as Score; n + 1],
                    f: vec![NEG_INF; n + 1],
                };
                let mut left = ColBorder {
                    h: vec![bias as Score; n + 1],
                    e: vec![NEG_INF; n + 1],
                };
                left.h[n / 2] = (bias - BAND + (2 * n + 4) as i64 * step_down) as Score;
                let input = BlockInput {
                    a_rows: a.codes(),
                    b_cols: b.codes(),
                    top: &top,
                    left: &left,
                    row_offset: 300,
                    col_offset: 700,
                };
                assert!(
                    fits_band(input, &scheme),
                    "{what}: edge value must be admitted"
                );
                let mut below = left.clone();
                below.h[n / 2] -= 1;
                let edge_input = BlockInput {
                    left: &below,
                    ..input
                };
                assert!(
                    !fits_band(edge_input, &scheme),
                    "{what}: must sit at the edge"
                );
                let want = scalar_out(true, input, &scheme);
                let before = crate::kernel::path_counts();
                let got = kernel.block(input, &scheme);
                let paths = crate::kernel::path_counts() - before;
                assert!(got == want, "{what}: {}", first_difference(&got, &want));
                let wide = PathCounts {
                    wide: 1,
                    ..PathCounts::default()
                };
                assert_eq!(paths, wide, "{what}: must run the wide wave, unrescued");

                let mut sink_top = RowBorder::zero(n);
                let mut sink_left = ColBorder::zero(n);
                sink_top.h[0] = bias as Score;
                sink_left.h[0] = bias as Score;
                let sink = BlockInput {
                    a_rows: &all_n,
                    b_cols: &all_n,
                    top: &sink_top,
                    left: &sink_left,
                    ..input
                };
                assert!(
                    !fits_band(sink, &steep),
                    "{what}: the pre-scan refuses the sink"
                );
                let want = scalar_out(true, sink, &steep);
                assert_eq!(want.bottom.h[n], 0, "{what}: cells must sink to the floor");
                let got = run_unscanned(name, true, sink, &steep);
                if bias == BAND {
                    let got = got.unwrap_or_else(|| panic!("{what}: floor at −BAND refused"));
                    assert!(got == want, "{what}: {}", first_difference(&got, &want));
                } else {
                    assert!(got.is_none(), "{what}: floor below −BAND was kept");
                }
            }
        }
    }

    #[test]
    fn anchored_tile_sinking_below_the_band_is_refused() {
        // Anchored tiles have no floor, so they keep the low-side min
        // tracking whatever their bias. Corner 0, every other border value
        // at −27 500, all-N sequences and steep penalties: cells sink past
        // −BAND within a few steps of the border. The pre-scan refuses the
        // tile; so must the post-check alone, and the kernel's rescue must
        // still be exact.
        let scheme = ScoreScheme {
            match_score: 1,
            mismatch_score: -1_000,
            gap_open: 500,
            gap_extend: 500,
        };
        for (name, kernel) in engines() {
            let n = 3 * lanes_of(name) + 5;
            let all_n = vec![4u8; n];
            let low: Score = -27_500;
            let mut top = RowBorder {
                h: vec![low; n + 1],
                f: vec![NEG_INF; n + 1],
            };
            let mut left = ColBorder {
                h: vec![low; n + 1],
                e: vec![NEG_INF; n + 1],
            };
            top.h[0] = 0;
            left.h[0] = 0;
            let input = BlockInput {
                a_rows: &all_n,
                b_cols: &all_n,
                top: &top,
                left: &left,
                row_offset: 40,
                col_offset: 90,
            };
            let want = scalar_out(false, input, &scheme);
            assert!(
                want.bottom.h.iter().any(|&h| i64::from(h) < -BAND),
                "{name}: cells must cross −BAND"
            );
            assert!(
                run_wave(name, false, input, &scheme).is_none(),
                "{name}: pre-scan"
            );
            assert!(
                run_unscanned(name, false, input, &scheme).is_none(),
                "{name}: the post-check kept an anchored tile below −BAND"
            );
            let before = crate::kernel::path_counts();
            let via = kernel.block_anchored(input, &scheme);
            assert_eq!((crate::kernel::path_counts() - before).rescued, 1, "{name}");
            assert!(via == want, "{name}: {}", first_difference(&via, &want));
        }
    }

    #[test]
    fn n_against_n_mismatches_in_an_overlapped_chunk_and_on_a_corner_diagonal() {
        // N is stored as a different value in `a16` and `b_rev16`, so one
        // lane compare means "match, and not N". Put N on both sides of one
        // cell of an all-A tile, where scoring it as a match would lift a
        // whole matching diagonal: once at a cell two chunks of a ragged
        // diagonal both compute (the overlapped last chunk), once on a
        // corner diagonal shorter than one vector.
        let scheme = ScoreScheme::cudalign();
        for (name, _) in engines() {
            let lanes = lanes_of(name);
            let n = 2 * lanes + 3;
            // Overlap: d = lanes + 4 from klo = 1 to khi = lanes + 3; the
            // chunks start at 1 and at last = 4, so k = 4 is in both.
            let (k, d) = (4, lanes + 4);
            let (klo, khi) = (1, d - 1);
            let last = khi + 1 - lanes;
            assert!(k >= last && k < klo + lanes && (khi - klo + 1) % lanes != 0);
            // Corner: d = 2n − 1 spans rows n − 1 ..= n.
            let corner = (n, 2 * n - 1);
            assert!(corner.0 - (corner.1 - n) + 1 < lanes);
            for (k, d, place) in [(k, d, "overlapped chunk"), (corner.0, corner.1, "corner")] {
                let mut a = vec![0u8; n];
                let mut b = vec![0u8; n];
                a[k - 1] = 4;
                b[d - k - 1] = 4;
                for local in [true, false] {
                    let (top, left) = origin_borders(local, n, n, 1, 1, &scheme);
                    let input = BlockInput {
                        a_rows: &a,
                        b_cols: &b,
                        top: &top,
                        left: &left,
                        row_offset: 1,
                        col_offset: 1,
                    };
                    let want = scalar_out(local, input, &scheme);
                    let got = run_wave(name, local, input, &scheme)
                        .unwrap_or_else(|| panic!("{name} {place}: unexpected rescue"));
                    assert!(
                        got == want,
                        "{name} {place} local={local}: {}",
                        first_difference(&got, &want)
                    );
                }
            }
        }
    }
}
