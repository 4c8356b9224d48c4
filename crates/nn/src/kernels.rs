//! Optimized inference kernels: im2col + register/cache-blocked GEMM, a
//! packed-weight AVX2 int8 conv microkernel, and the rounding epilogues of
//! the integer datapath.
//!
//! Two regimes, two contracts:
//!
//! * **Float kernels** must be *bit-identical* to
//!   [`crate::reference::conv2d_f32`] / [`crate::reference::dense_f32`].
//!   `f32` addition is non-associative, so the optimized code reproduces
//!   the reference accumulation order exactly — per `(ky, kx)` kernel row
//!   a partial sum is folded sequentially from `0.0` over the channel
//!   chunk and then added to the bias-initialized accumulator, with
//!   out-of-bounds rows skipped (never zero-padded: `-0.0 + 0.0`
//!   normalizes the sign bit, which a skip does not). Speed comes from
//!   hoisting bounds checks out of the hot loops, gathering each output
//!   pixel's valid chunks into a contiguous im2col panel once, and
//!   running four output channels as independent accumulation chains so
//!   the sequential floating-point folds overlap in the pipeline.
//!
//! * **Integer kernels** accumulate `i8 × i8` products in `i32`, which is
//!   associative (wrapping arithmetic forms a group), so they are free to
//!   reorder. On x86-64 with AVX2 the conv runs a `vpmaddwd`
//!   direct-convolution microkernel over a zero-padded `i16` copy of the
//!   input and weights pre-packed once per layer
//!   ([`pack_conv_weights`]);
//!   otherwise, and for dense layers, a zero-padded im2col panel is
//!   multiplied as a cache-blocked GEMM whose microkernel is compiled a
//!   second time for AVX2. Integer arithmetic is exact, so every path
//!   produces identical accumulators.
//!
//! * **Rounding epilogues** turn `f32` values into activation codes with
//!   one rule, `round_code`, and are compiled for baseline x86-64 and
//!   for AVX2 from one body (`avx2_dispatch!`), selected at run time.
//!   Both builds run the same `f32` operations in the same order, so
//!   their codes are identical.
//!
//! All `_into` variants write into caller-provided buffers and borrow
//! their temporaries from a [`Scratch`] arena, so a warmed-up executor
//! performs no per-inference allocations.

use crate::graph::ConvParams;
use crate::tensor::{QTensor, Tensor};
use redvolt_num::fixed::IntFormat;

/// Compiles the `#[inline(always)]` function `$body` a second time with
/// AVX2 enabled as `$avx2`, and defines `$name` to run that build when
/// the CPU supports AVX2 and `$body` otherwise. The feature probe is a
/// cached atomic load in `std`, so dispatching per call is free.
macro_rules! avx2_dispatch {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident / $avx2:ident
            => $body:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
    ) => {
        #[doc = concat!("[`", stringify!($body), "`] compiled with AVX2 enabled.")]
        ///
        /// # Safety
        ///
        /// The caller must have verified AVX2 support
        /// (`is_x86_feature_detected!("avx2")`).
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $avx2($($arg: $ty),*) $(-> $ret)? {
            $body($($arg),*)
        }

        $(#[$attr])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was just verified.
                return unsafe { $avx2($($arg),*) };
            }
            $body($($arg),*)
        }
    };
}
pub(crate) use avx2_dispatch;

/// Output-pixel tile width of the integer GEMM: the weight row fetched
/// for an output channel is reused across this many im2col panel rows
/// while hot in L1.
const QTILE: usize = 8;

/// Reusable kernel workspace (im2col panels and chunk tables). Create
/// once, thread through every kernel call; buffers grow to the largest
/// layer seen and are then reused allocation-free.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// f32 im2col panel: the valid input chunks of one output pixel.
    panel_f: Vec<f32>,
    /// Weight-row offsets of the valid chunks in `panel_f`.
    chunk_offs: Vec<usize>,
    /// i8 im2col panel: `QTILE` zero-padded rows of `k·k·ic` codes.
    panel_q: Vec<i8>,
    /// The AVX2 conv's zero-padded input, widened to `i16`.
    panel_w: Vec<i16>,
    /// The AVX2 conv's window origin per output pixel in `panel_w`.
    origins: Vec<usize>,
}

impl Scratch {
    /// A fresh, empty workspace.
    pub fn new() -> Self {
        Scratch::default()
    }
}

/// Optimized float convolution writing into `out` (length `oh·ow·out_ch`).
///
/// Bit-identical to [`crate::reference::conv2d_f32`].
///
/// # Panics
///
/// Panics if a buffer length does not match the parameters.
pub fn conv2d_f32_into(
    input: &Tensor,
    p: &ConvParams,
    weights: &[f32],
    bias: &[f32],
    scratch: &mut Scratch,
    out: &mut [f32],
) {
    let (ih, iw, ic) = (input.h(), input.w(), input.c());
    let (oh, ow) = p.out_hw(ih, iw);
    assert_eq!(out.len(), oh * ow * p.out_ch, "output buffer length");
    assert_eq!(weights.len(), p.weight_count(), "weights length");
    assert_eq!(bias.len(), p.out_ch, "bias length");
    let data = input.data();
    let k2ic = p.k * p.k * ic;
    scratch.panel_f.resize(k2ic, 0.0);
    for oy in 0..oh {
        let base_y = (oy * p.stride) as isize - p.pad as isize;
        for ox in 0..ow {
            let base_x = (ox * p.stride) as isize - p.pad as isize;
            // im2col gather: copy this pixel's in-bounds chunks into one
            // contiguous panel row, remembering each chunk's offset into
            // the weight row. Chunks keep the reference's (ky, kx) order.
            scratch.chunk_offs.clear();
            let mut filled = 0usize;
            for ky in 0..p.k {
                let y = base_y + ky as isize;
                if y < 0 || y >= ih as isize {
                    continue;
                }
                for kx in 0..p.k {
                    let x = base_x + kx as isize;
                    if x < 0 || x >= iw as isize {
                        continue;
                    }
                    let in_off = ((y as usize) * iw + x as usize) * ic;
                    scratch.panel_f[filled..filled + ic]
                        .copy_from_slice(&data[in_off..in_off + ic]);
                    scratch.chunk_offs.push((ky * p.k + kx) * ic);
                    filled += ic;
                }
            }
            let panel = &scratch.panel_f[..filled];
            let chunks = &scratch.chunk_offs[..];
            let outs = &mut out[(oy * ow + ox) * p.out_ch..][..p.out_ch];
            // Register-blocked GEMV: four output channels advance four
            // independent accumulation chains over the shared panel, each
            // chain replaying the reference op sequence exactly.
            let mut oc = 0;
            while oc + 4 <= p.out_ch {
                let w0 = &weights[oc * k2ic..][..k2ic];
                let w1 = &weights[(oc + 1) * k2ic..][..k2ic];
                let w2 = &weights[(oc + 2) * k2ic..][..k2ic];
                let w3 = &weights[(oc + 3) * k2ic..][..k2ic];
                let (mut a0, mut a1, mut a2, mut a3) =
                    (bias[oc], bias[oc + 1], bias[oc + 2], bias[oc + 3]);
                for (ci, &woff) in chunks.iter().enumerate() {
                    let xs = &panel[ci * ic..][..ic];
                    let (mut p0, mut p1, mut p2, mut p3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                    let ws0 = &w0[woff..][..ic];
                    let ws1 = &w1[woff..][..ic];
                    let ws2 = &w2[woff..][..ic];
                    let ws3 = &w3[woff..][..ic];
                    for ((((&x, &v0), &v1), &v2), &v3) in
                        xs.iter().zip(ws0).zip(ws1).zip(ws2).zip(ws3)
                    {
                        p0 += x * v0;
                        p1 += x * v1;
                        p2 += x * v2;
                        p3 += x * v3;
                    }
                    a0 += p0;
                    a1 += p1;
                    a2 += p2;
                    a3 += p3;
                }
                if p.relu {
                    a0 = a0.max(0.0);
                    a1 = a1.max(0.0);
                    a2 = a2.max(0.0);
                    a3 = a3.max(0.0);
                }
                outs[oc] = a0;
                outs[oc + 1] = a1;
                outs[oc + 2] = a2;
                outs[oc + 3] = a3;
                oc += 4;
            }
            while oc < p.out_ch {
                let w0 = &weights[oc * k2ic..][..k2ic];
                let mut a0 = bias[oc];
                for (ci, &woff) in chunks.iter().enumerate() {
                    let xs = &panel[ci * ic..][..ic];
                    let ws0 = &w0[woff..][..ic];
                    let mut p0 = 0.0f32;
                    for (&x, &v0) in xs.iter().zip(ws0) {
                        p0 += x * v0;
                    }
                    a0 += p0;
                }
                outs[oc] = if p.relu { a0.max(0.0) } else { a0 };
                oc += 1;
            }
        }
    }
}

/// Optimized float convolution returning a fresh tensor (convenience
/// wrapper over [`conv2d_f32_into`], signature-compatible with
/// [`crate::reference::conv2d_f32`]).
pub fn conv2d_f32(input: &Tensor, p: &ConvParams, weights: &[f32], bias: &[f32]) -> Tensor {
    let (oh, ow) = p.out_hw(input.h(), input.w());
    let mut out = Tensor::zeros(oh, ow, p.out_ch);
    let mut scratch = Scratch::new();
    conv2d_f32_into(input, p, weights, bias, &mut scratch, out.data_mut());
    out
}

/// Optimized float dense layer writing into `out` (length `out_len`).
///
/// Bit-identical to [`crate::reference::dense_f32`]: each output's dot
/// product folds sequentially from `0.0` and is added to the bias, with
/// four outputs advancing as independent chains.
///
/// # Panics
///
/// Panics if a buffer length does not match.
pub fn dense_f32_into(
    input: &[f32],
    out_len: usize,
    relu: bool,
    weights: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    let n = input.len();
    assert_eq!(weights.len(), n * out_len, "weights length");
    assert_eq!(bias.len(), out_len, "bias length");
    assert_eq!(out.len(), out_len, "output buffer length");
    let mut o = 0;
    while o + 4 <= out_len {
        let w0 = &weights[o * n..][..n];
        let w1 = &weights[(o + 1) * n..][..n];
        let w2 = &weights[(o + 2) * n..][..n];
        let w3 = &weights[(o + 3) * n..][..n];
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for ((((&x, &v0), &v1), &v2), &v3) in input.iter().zip(w0).zip(w1).zip(w2).zip(w3) {
            s0 += x * v0;
            s1 += x * v1;
            s2 += x * v2;
            s3 += x * v3;
        }
        let (mut a0, mut a1, mut a2, mut a3) = (
            bias[o] + s0,
            bias[o + 1] + s1,
            bias[o + 2] + s2,
            bias[o + 3] + s3,
        );
        if relu {
            a0 = a0.max(0.0);
            a1 = a1.max(0.0);
            a2 = a2.max(0.0);
            a3 = a3.max(0.0);
        }
        out[o] = a0;
        out[o + 1] = a1;
        out[o + 2] = a2;
        out[o + 3] = a3;
        o += 4;
    }
    while o < out_len {
        let ws = &weights[o * n..][..n];
        let mut s = 0.0f32;
        for (&x, &w) in input.iter().zip(ws) {
            s += x * w;
        }
        let a = bias[o] + s;
        out[o] = if relu { a.max(0.0) } else { a };
        o += 1;
    }
}

/// Optimized float dense layer returning a fresh tensor.
pub fn dense_f32(
    input: &Tensor,
    out_len: usize,
    relu: bool,
    weights: &[f32],
    bias: &[f32],
) -> Tensor {
    let mut out = vec![0.0f32; out_len];
    dense_f32_into(input.data(), out_len, relu, weights, bias, &mut out);
    Tensor::vector(out)
}

/// Output channels per packed weight block: one 256-bit register of
/// `i32` accumulators.
const OC_BLOCK: usize = 8;
/// Output pixels per AVX2 microkernel tile.
const PX_TILE: usize = 4;

/// Packs conv weight codes (`[oc][ky][kx][ic]`, as [`conv2d_q_into`]
/// takes them) into `packed` in the layout the AVX2 microkernel reads,
/// reusing its allocation. Done once per layer and kept beside the plain
/// codes; faulted passes run on it too and correct the accumulators.
///
/// Output channels are grouped in blocks of 8, the last block
/// zero-padded. Within a block, each kernel row `ky` holds its `k·ic`
/// codes as pairs of consecutive taps (an odd row gets one zero tap), and
/// each pair stores 16 codes `[w(oc₀,2j), w(oc₀,2j+1), w(oc₁,2j), …]`:
/// exactly one `vpmaddwd` operand once widened to `i16` in a register.
///
/// # Panics
///
/// Panics if `wcodes.len() != p.weight_count()`.
pub fn pack_conv_weights(p: &ConvParams, wcodes: &[i8], packed: &mut Vec<i8>) {
    assert_eq!(wcodes.len(), p.weight_count(), "weights length");
    packed.clear();
    packed.resize(packed_len(p), 0);
    for (i, &w) in wcodes.iter().enumerate() {
        packed[packed_pos(p, i)] = w;
    }
}

/// Length of [`pack_conv_weights`]' layout for `p`.
fn packed_len(p: &ConvParams) -> usize {
    p.out_ch.div_ceil(OC_BLOCK) * p.k * (p.k * p.in_ch).div_ceil(2) * 2 * OC_BLOCK
}

/// Where [`pack_conv_weights`] puts weight code `i`.
fn packed_pos(p: &ConvParams, i: usize) -> usize {
    let seg = p.k * p.in_ch;
    let row_len = seg.div_ceil(2) * 2 * OC_BLOCK;
    let (oc, ky, t) = (i / (p.k * seg), i / seg % p.k, i % seg);
    let (block, lane) = (oc / OC_BLOCK, oc % OC_BLOCK);
    (block * p.k + ky) * row_len + (t / 2) * 2 * OC_BLOCK + 2 * lane + t % 2
}

/// Optimized integer convolution writing raw accumulators into `acc`
/// (length `oh·ow·out_ch`). Produces values identical to
/// [`crate::reference::conv2d_q`] — integer accumulation is associative,
/// so any blocking is exact.
///
/// `packed` must be `wcodes` packed by [`pack_conv_weights`]: on x86-64
/// with AVX2 the `vpmaddwd` microkernel reads it, elsewhere the portable
/// im2col GEMM reads `wcodes`.
///
/// # Panics
///
/// Panics if a buffer length does not match.
pub fn conv2d_q_into(
    input: &QTensor,
    p: &ConvParams,
    wcodes: &[i8],
    packed: &[i8],
    bias_q: &[i32],
    scratch: &mut Scratch,
    acc: &mut [i32],
) {
    let (oh, ow) = p.out_hw(input.h(), input.w());
    assert_eq!(input.c(), p.in_ch, "input channels");
    assert_eq!(acc.len(), oh * ow * p.out_ch, "accumulator buffer length");
    assert_eq!(wcodes.len(), p.weight_count(), "weights length");
    assert_eq!(bias_q.len(), p.out_ch, "bias length");
    // Checked in place, not by repacking: a warm inference must not
    // allocate, in debug builds too.
    debug_assert!(
        packed.len() == packed_len(p)
            && wcodes
                .iter()
                .enumerate()
                .all(|(i, &w)| packed[packed_pos(p, i)] == w),
        "stale packed weights"
    );
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified.
        return unsafe { conv2d_q_avx2(input, p, packed, bias_q, scratch, acc) };
    }
    conv2d_q_portable(input, p, wcodes, bias_q, scratch, acc)
}

/// The portable integer convolution: a zero-padded im2col panel per tile
/// of [`QTILE`] output pixels, multiplied by [`gemm_q_dispatch`].
fn conv2d_q_portable(
    input: &QTensor,
    p: &ConvParams,
    wcodes: &[i8],
    bias_q: &[i32],
    scratch: &mut Scratch,
    acc: &mut [i32],
) {
    let (ih, iw, ic) = (input.h(), input.w(), input.c());
    let (oh, ow) = p.out_hw(ih, iw);
    let k2ic = p.k * p.k * ic;
    let pixels = oh * ow;
    scratch.panel_q.resize(QTILE * k2ic, 0);
    let mut tile_start = 0usize;
    while tile_start < pixels {
        let tile = QTILE.min(pixels - tile_start);
        // Zero-padded im2col: out-of-bounds taps contribute exact zeros
        // in integer arithmetic, so every panel row has the full k·k·ic
        // layout of a weight row.
        for row in 0..tile {
            let pixel = tile_start + row;
            let (oy, ox) = (pixel / ow, pixel % ow);
            let base_y = (oy * p.stride) as isize - p.pad as isize;
            let base_x = (ox * p.stride) as isize - p.pad as isize;
            let prow = &mut scratch.panel_q[row * k2ic..][..k2ic];
            prow.fill(0);
            for ky in 0..p.k {
                let y = base_y + ky as isize;
                if y < 0 || y >= ih as isize {
                    continue;
                }
                let x_lo = (-base_x).clamp(0, p.k as isize) as usize;
                let x_hi = (iw as isize - base_x).clamp(0, p.k as isize) as usize;
                if x_lo >= x_hi {
                    continue;
                }
                let in_off = ((y as usize) * iw + (base_x + x_lo as isize) as usize) * ic;
                let w_off = (ky * p.k + x_lo) * ic;
                let len = (x_hi - x_lo) * ic;
                prow[w_off..w_off + len].copy_from_slice(&input.codes[in_off..in_off + len]);
            }
        }
        gemm_q_dispatch(
            &scratch.panel_q[..QTILE * k2ic],
            tile,
            k2ic,
            wcodes,
            p.out_ch,
            bias_q,
            &mut acc[tile_start * p.out_ch..][..tile * p.out_ch],
        );
        tile_start += tile;
    }
}

/// The AVX2 integer convolution: direct convolution over a zero-padded
/// copy of the input widened to `i16` once per call, so no per-pixel
/// panel is built. Each kernel row of an output pixel's window is then a
/// contiguous run of that copy; its taps are read in pairs, broadcast,
/// and multiplied by one packed weight pair of [`OC_BLOCK`] channels with
/// `vpmaddwd`. A tile is [`PX_TILE`] pixels × [`OC_BLOCK`] channels held
/// in four `i32` registers.
///
/// An odd-length kernel row reads one element past its end; the packed
/// weight of that tap is zero, so it adds exactly nothing, and the copy
/// carries one trailing zero so the last row's extra read stays in it.
///
/// # Safety
///
/// The caller must have verified AVX2 support
/// (`is_x86_feature_detected!("avx2")`). Buffer lengths are checked
/// here; results are only meaningful if `packed` was packed for `p`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn conv2d_q_avx2(
    input: &QTensor,
    p: &ConvParams,
    packed: &[i8],
    bias_q: &[i32],
    scratch: &mut Scratch,
    acc: &mut [i32],
) {
    use std::arch::x86_64::*;

    let (ih, iw, ic) = (input.h(), input.w(), input.c());
    let (oh, ow) = p.out_hw(ih, iw);
    let iwp = iw + 2 * p.pad;
    let row_stride = iwp * ic;
    let pairs = (p.k * ic).div_ceil(2);
    let xw = &mut scratch.panel_w;
    xw.clear();
    xw.resize((ih + 2 * p.pad) * row_stride + 1, 0);
    for (src, dst) in input
        .codes
        .chunks_exact(iw * ic)
        .zip(xw[p.pad * row_stride + p.pad * ic..].chunks_mut(row_stride))
    {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = i16::from(s);
        }
    }
    // Window origin of every output pixel in the padded copy.
    let origins = &mut scratch.origins;
    origins.clear();
    for oy in 0..oh {
        origins.extend((0..ow).map(|ox| (oy * iwp + ox) * p.stride * ic));
    }
    let Some(&last) = origins.last() else {
        return;
    };
    // Every read below is at `origin + ky·row_stride + 2j` (+1) with
    // `ky < k` and `j < pairs`, so this bounds them all.
    assert!(last + (p.k - 1) * row_stride + 2 * pairs <= xw.len());
    // Every weight read is 16 codes at `ky · pairs · 16 + 16j` inside one
    // block of `block_len`, so this bounds them all.
    let block_len = p.k * pairs * 2 * OC_BLOCK;
    assert_eq!(
        packed.len(),
        p.out_ch.div_ceil(OC_BLOCK) * block_len,
        "packed weights length"
    );
    let xp = xw.as_ptr();
    let out_ch = p.out_ch;
    for (block, wblock) in packed.chunks_exact(block_len).enumerate() {
        let oc0 = block * OC_BLOCK;
        let lanes = OC_BLOCK.min(out_ch - oc0);
        let mut bias = [0i32; OC_BLOCK];
        bias[..lanes].copy_from_slice(&bias_q[oc0..oc0 + lanes]);
        // SAFETY: `bias` holds exactly eight i32.
        let bias = unsafe { _mm256_loadu_si256(bias.as_ptr().cast()) };
        for (t, tile) in origins.chunks(PX_TILE).enumerate() {
            // A short tail tile repeats its last pixel; only real pixels
            // are stored.
            let o = |i: usize| tile[i.min(tile.len() - 1)];
            let (o0, o1, o2, o3) = (o(0), o(1), o(2), o(3));
            let (mut a0, mut a1, mut a2, mut a3) = (bias, bias, bias, bias);
            for ky in 0..p.k {
                let r = ky * row_stride;
                let wrow = wblock[ky * pairs * 2 * OC_BLOCK..].as_ptr();
                for j in 0..pairs {
                    // SAFETY: the pair reads are bounded by the assert on
                    // `xw` above; `wrow + 16j + 16` stays inside this
                    // block's `k · pairs · 16` codes.
                    unsafe {
                        let w = _mm256_cvtepi8_epi16(_mm_loadu_si128(wrow.add(16 * j).cast()));
                        let x = |o: usize| {
                            _mm256_set1_epi32(xp.add(o + r + 2 * j).cast::<i32>().read_unaligned())
                        };
                        a0 = _mm256_add_epi32(a0, _mm256_madd_epi16(x(o0), w));
                        a1 = _mm256_add_epi32(a1, _mm256_madd_epi16(x(o1), w));
                        a2 = _mm256_add_epi32(a2, _mm256_madd_epi16(x(o2), w));
                        a3 = _mm256_add_epi32(a3, _mm256_madd_epi16(x(o3), w));
                    }
                }
            }
            for (i, a) in [a0, a1, a2, a3].into_iter().take(tile.len()).enumerate() {
                let dst = &mut acc[(t * PX_TILE + i) * out_ch + oc0..][..lanes];
                if lanes == OC_BLOCK {
                    // SAFETY: `dst` is exactly eight i32.
                    unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), a) };
                } else {
                    let mut lane_vals = [0i32; OC_BLOCK];
                    // SAFETY: `lane_vals` holds exactly eight i32.
                    unsafe { _mm256_storeu_si256(lane_vals.as_mut_ptr().cast(), a) };
                    dst.copy_from_slice(&lane_vals[..lanes]);
                }
            }
        }
    }
}

/// The integer GEMM microkernel: `tile` panel rows × `out_ch` weight
/// rows, `acc[row * out_ch + oc] = bias[oc] + panel_row · weight_row`.
///
/// Four output channels advance as interleaved reductions so each panel
/// element is loaded once per four weight rows; integer accumulation is
/// associative, so the autovectorizer is free to widen the chains.
///
/// `#[inline(always)]` so the body inlines into both the baseline and
/// the [`gemm_q_avx2`] wrapper and is compiled at each feature level.
#[inline(always)]
fn gemm_q(
    panel: &[i8],
    tile: usize,
    k2ic: usize,
    wcodes: &[i8],
    out_ch: usize,
    bias_q: &[i32],
    acc: &mut [i32],
) {
    for row in 0..tile {
        let prow = &panel[row * k2ic..][..k2ic];
        let outs = &mut acc[row * out_ch..][..out_ch];
        let mut oc = 0;
        while oc + 4 <= out_ch {
            let w0 = &wcodes[oc * k2ic..][..k2ic];
            let w1 = &wcodes[(oc + 1) * k2ic..][..k2ic];
            let w2 = &wcodes[(oc + 2) * k2ic..][..k2ic];
            let w3 = &wcodes[(oc + 3) * k2ic..][..k2ic];
            let (mut s0, mut s1, mut s2, mut s3) = (0i32, 0i32, 0i32, 0i32);
            for ((((&x, &v0), &v1), &v2), &v3) in prow.iter().zip(w0).zip(w1).zip(w2).zip(w3) {
                let xw = i32::from(x);
                s0 += xw * i32::from(v0);
                s1 += xw * i32::from(v1);
                s2 += xw * i32::from(v2);
                s3 += xw * i32::from(v3);
            }
            outs[oc] = bias_q[oc] + s0;
            outs[oc + 1] = bias_q[oc + 1] + s1;
            outs[oc + 2] = bias_q[oc + 2] + s2;
            outs[oc + 3] = bias_q[oc + 3] + s3;
            oc += 4;
        }
        while oc < out_ch {
            let ws = &wcodes[oc * k2ic..][..k2ic];
            let mut sum = 0i32;
            for (&x, &w) in prow.iter().zip(ws) {
                sum += i32::from(x) * i32::from(w);
            }
            outs[oc] = bias_q[oc] + sum;
            oc += 1;
        }
    }
}

avx2_dispatch! {
    /// Picks the widest GEMM microkernel the CPU supports.
    fn gemm_q_dispatch / gemm_q_avx2 => gemm_q(
        panel: &[i8],
        tile: usize,
        k2ic: usize,
        wcodes: &[i8],
        out_ch: usize,
        bias_q: &[i32],
        acc: &mut [i32],
    )
}

/// Optimized integer convolution returning fresh accumulators.
pub fn conv2d_q(input: &QTensor, p: &ConvParams, wcodes: &[i8], bias_q: &[i32]) -> Vec<i32> {
    let (oh, ow) = p.out_hw(input.h(), input.w());
    let mut acc = vec![0i32; oh * ow * p.out_ch];
    let mut packed = Vec::new();
    pack_conv_weights(p, wcodes, &mut packed);
    let mut scratch = Scratch::new();
    conv2d_q_into(input, p, wcodes, &packed, bias_q, &mut scratch, &mut acc);
    acc
}

/// Optimized integer dense layer writing raw accumulators into `acc`.
/// Identical values to [`crate::reference::dense_q`].
///
/// # Panics
///
/// Panics if a buffer length does not match.
pub fn dense_q_into(
    input: &QTensor,
    in_len: usize,
    out_len: usize,
    wcodes: &[i8],
    bias_q: &[i32],
    acc: &mut [i32],
) {
    debug_assert_eq!(input.codes.len(), in_len);
    assert_eq!(wcodes.len(), in_len * out_len, "weights length");
    assert_eq!(bias_q.len(), out_len, "bias length");
    assert_eq!(acc.len(), out_len, "accumulator buffer length");
    // A dense layer is a one-row GEMM: the input vector is the panel.
    gemm_q_dispatch(&input.codes, 1, in_len, wcodes, out_len, bias_q, acc);
}

/// Optimized integer dense layer returning fresh accumulators.
pub fn dense_q(
    input: &QTensor,
    in_len: usize,
    out_len: usize,
    wcodes: &[i8],
    bias_q: &[i32],
) -> Vec<i32> {
    let mut acc = vec![0i32; out_len];
    dense_q_into(input, in_len, out_len, wcodes, bias_q, &mut acc);
    acc
}

/// `1.5 · 2²³`: adding it to an integral `f32` of magnitude below 2²² is
/// exact and leaves the integer's two's-complement bits in the low bits
/// of the sum's mantissa.
const INT_BITS_MAGIC: f32 = 12_582_912.0;

/// The integer datapath's one code-rounding rule: round half away from
/// zero, saturate into the code range of `format`, and map NaN to 0 —
/// exactly `v.round().clamp(lo, hi) as i8`. Every activation code the
/// quantized executor writes goes through it, by way of the slice
/// epilogues below.
///
/// The epilogues are compiled a second time for AVX2: on baseline x86-64
/// (SSE2) `f32::round` has no instruction and becomes a `roundf` call per
/// element, which also blocks vectorization, while with AVX2 it lowers to
/// `vroundps`. The final conversion reads the code out of the mantissa
/// bits instead of using a saturating `as` cast, which LLVM would split
/// into one scalar conversion per lane; the clamp already bounds the
/// value, so the two agree.
#[inline(always)]
fn round_code(v: f32, format: IntFormat) -> i8 {
    let (lo, hi) = (format.min_value() as f32, format.max_value() as f32);
    let r = v.round().clamp(lo, hi);
    if r.is_nan() {
        0
    } else {
        (r + INT_BITS_MAGIC).to_bits() as i8
    }
}

/// `dst[i] = round_code(src[i] / scale)`.
#[inline(always)]
fn quantize_body(src: &[f32], scale: f32, format: IntFormat, dst: &mut [i8]) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = round_code(v / scale, format);
    }
}

/// Per-channel requantization of HWC accumulators: channel `ch` of every
/// pixel scales by `rescales[ch]`, then optional ReLU, then rounding.
#[inline(always)]
fn requantize_body(acc: &[i32], rescales: &[f32], relu: bool, format: IntFormat, dst: &mut [i8]) {
    let c = rescales.len();
    for (d, a) in dst.chunks_exact_mut(c).zip(acc.chunks_exact(c)) {
        for ((d, &a), &r) in d.iter_mut().zip(a).zip(rescales) {
            let mut v = a as f32 * r;
            if relu && v < 0.0 {
                v = 0.0;
            }
            *d = round_code(v, format);
        }
    }
}

/// Residual add of two code tensors into a third scale.
#[inline(always)]
fn add_body(
    a: &QTensor,
    b: &QTensor,
    out_scale: f32,
    relu: bool,
    format: IntFormat,
    dst: &mut [i8],
) {
    let (a_scale, b_scale) = (a.scale, b.scale);
    for ((d, &x), &y) in dst.iter_mut().zip(&a.codes).zip(&b.codes) {
        let mut v = (f32::from(x) * a_scale + f32::from(y) * b_scale) / out_scale;
        if relu && v < 0.0 {
            v = 0.0;
        }
        *d = round_code(v, format);
    }
}

/// Rescales pixel rows of `width` codes from `scale` to `out_scale`,
/// writing row `i` at `dst[i * dst_stride..]` (concat writes each input's
/// channels into a slot of the wider output pixel).
#[inline(always)]
fn rescale_body(
    src: &[i8],
    width: usize,
    scale: f32,
    out_scale: f32,
    format: IntFormat,
    dst: &mut [i8],
    dst_stride: usize,
) {
    for (s, d) in src.chunks_exact(width).zip(dst.chunks_mut(dst_stride)) {
        for (d, &x) in d.iter_mut().zip(s) {
            *d = round_code(f32::from(x) * scale / out_scale, format);
        }
    }
}

avx2_dispatch! {
    /// Quantizes floats: `dst[i] = round_code(src[i] / scale)` over the
    /// common length.
    pub fn quantize_into / quantize_avx2 => quantize_body(
        src: &[f32],
        scale: f32,
        format: IntFormat,
        dst: &mut [i8],
    )
}

avx2_dispatch! {
    /// Requantizes HWC accumulators with per-channel factors
    /// (`rescales.len()` is the channel count; a single factor applies
    /// uniformly), zeroing negatives first when `relu` is set.
    ///
    /// # Panics
    ///
    /// Panics if `rescales` is empty.
    pub fn requantize_into / requantize_avx2 => requantize_body(
        acc: &[i32],
        rescales: &[f32],
        relu: bool,
        format: IntFormat,
        dst: &mut [i8],
    )
}

avx2_dispatch! {
    /// Adds two code tensors elementwise in real units and requantizes:
    /// `dst[i] = round_code(relu?((a.codes[i]·a.scale + b.codes[i]·b.scale) / out_scale))`
    /// over the common length.
    pub fn add_into / add_avx2 => add_body(
        a: &QTensor,
        b: &QTensor,
        out_scale: f32,
        relu: bool,
        format: IntFormat,
        dst: &mut [i8],
    )
}

avx2_dispatch! {
    /// Requantizes rows of `width` codes from `scale` to `out_scale`
    /// (`round_code(x · scale / out_scale)`), writing row `i` at
    /// `dst[i · dst_stride..]`.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `dst_stride` is zero.
    pub fn rescale_into / rescale_avx2 => rescale_body(
        src: &[i8],
        width: usize,
        scale: f32,
        out_scale: f32,
        format: IntFormat,
        dst: &mut [i8],
        dst_stride: usize,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn tensor(h: usize, w: usize, c: usize, seed: f32) -> Tensor {
        Tensor::from_vec(
            h,
            w,
            c,
            (0..h * w * c)
                .map(|i| ((i as f32 + seed) * 0.37).sin())
                .collect(),
        )
    }

    fn qtensor(h: usize, w: usize, c: usize, seed: i32) -> QTensor {
        let mut q = QTensor::zeros(h, w, c, 0.05);
        for (i, code) in q.codes.iter_mut().enumerate() {
            *code = (((i as i32 * 37 + seed * 11) % 255) - 127) as i8;
        }
        q
    }

    #[test]
    fn conv_f32_matches_reference_bitwise() {
        for (k, stride, pad, in_ch, out_ch) in [
            (3, 1, 1, 3, 7),
            (1, 1, 0, 4, 4),
            (5, 2, 2, 2, 6),
            (3, 2, 0, 1, 5),
        ] {
            let p = ConvParams {
                in_ch,
                out_ch,
                k,
                stride,
                pad,
                relu: k % 2 == 1,
            };
            let input = tensor(7, 6, in_ch, k as f32);
            let weights: Vec<f32> = (0..p.weight_count())
                .map(|i| ((i as f32) * 0.73).cos())
                .collect();
            let bias: Vec<f32> = (0..out_ch).map(|i| (i as f32) * 0.11 - 0.3).collect();
            let want = reference::conv2d_f32(&input, &p, &weights, &bias);
            let got = conv2d_f32(&input, &p, &weights, &bias);
            assert_eq!(
                want.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                got.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "k={k} stride={stride} pad={pad}"
            );
        }
    }

    #[test]
    fn dense_f32_matches_reference_bitwise() {
        for out_len in [1, 3, 4, 9] {
            let input = tensor(1, 1, 17, 0.5);
            let weights: Vec<f32> = (0..17 * out_len)
                .map(|i| ((i as f32) * 0.31).sin())
                .collect();
            let bias: Vec<f32> = (0..out_len).map(|i| (i as f32) * 0.2 - 0.4).collect();
            let want = reference::dense_f32(&input, out_len, out_len % 2 == 0, &weights, &bias);
            let got = dense_f32(&input, out_len, out_len % 2 == 0, &weights, &bias);
            assert_eq!(
                want.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                got.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn conv_q_matches_reference() {
        for (k, stride, pad, in_ch, out_ch) in [
            (3, 1, 1, 3, 7),
            (1, 1, 0, 4, 4),
            (5, 2, 2, 2, 6),
            (3, 3, 0, 1, 5),
        ] {
            let p = ConvParams {
                in_ch,
                out_ch,
                k,
                stride,
                pad,
                relu: false,
            };
            let input = qtensor(7, 9, in_ch, k as i32);
            let wcodes: Vec<i8> = (0..p.weight_count())
                .map(|i| (((i * 29) % 255) as i32 - 127) as i8)
                .collect();
            let bias_q: Vec<i32> = (0..out_ch).map(|i| i as i32 * 100 - 250).collect();
            assert_eq!(
                reference::conv2d_q(&input, &p, &wcodes, &bias_q),
                conv2d_q(&input, &p, &wcodes, &bias_q),
                "k={k} stride={stride} pad={pad}"
            );
        }
    }

    #[test]
    fn dense_q_matches_reference() {
        let input = qtensor(1, 1, 23, 3);
        let wcodes: Vec<i8> = (0..23 * 5)
            .map(|i| (((i * 17) % 255) - 127) as i8)
            .collect();
        let bias_q: Vec<i32> = vec![5, -7, 0, 999, -12345];
        assert_eq!(
            reference::dense_q(&input, 23, 5, &wcodes, &bias_q),
            dense_q(&input, 23, 5, &wcodes, &bias_q)
        );
    }

    /// Both builds of every multiversioned routine run here only when the
    /// CPU has AVX2; otherwise the dispatchers only ever take the portable
    /// body and there is nothing to compare.
    #[cfg(target_arch = "x86_64")]
    fn has_avx2() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    fn formats() -> impl Iterator<Item = IntFormat> {
        (1..=8).map(|bits| IntFormat::new(bits).expect("width in 1..=8"))
    }

    /// Pre-rounding values that stress [`round_code`]: ties, signed zero,
    /// NaN, infinities, values past the `i32` range, the code-range edges
    /// ± 1, and a ramp of ordinary values.
    fn edge_values(format: IntFormat) -> Vec<f32> {
        let (lo, hi) = (format.min_value() as f32, format.max_value() as f32);
        let mut v = vec![
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.0,
            -0.0,
            0.499_999_97,
            -0.499_999_97,
            f32::NAN,
            -f32::NAN,
            // NaNs whose payload reaches the low mantissa bits.
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0xffff_ffff),
            f32::INFINITY,
            f32::NEG_INFINITY,
            2_147_483_648.0,
            -2_147_483_648.0,
            -2_147_483_904.0,
            3e9,
            -3e9,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            8_388_609.0,
            4_194_304.5,
        ];
        for edge in [lo, hi] {
            v.extend([edge - 1.0, edge - 0.5, edge, edge + 0.5, edge + 1.0]);
        }
        v.extend((-300..300).map(|i| i as f32 * 0.37));
        v
    }

    #[test]
    fn round_code_rounds_half_away_and_saturates() {
        let int4 = IntFormat::new(4).expect("INT4");
        let cases = [
            (0.5, 1),
            (-0.5, -1),
            (1.5, 2),
            (2.5, 3),
            (-2.5, -3),
            (0.499_999_97, 0),
            (-0.0, 0),
            (f32::NAN, 0),
            (f32::INFINITY, 7),
            (f32::NEG_INFINITY, -8),
            (3e9, 7),
            (-3e9, -8),
            (7.5, 7),
            (-8.5, -8),
        ];
        for (v, want) in cases {
            assert_eq!(round_code(v, int4), want, "{v}");
        }
    }

    /// The mantissa-bits conversion is the saturating `as` cast it
    /// replaces, on every edge value of every format.
    #[test]
    fn round_code_is_round_clamp_cast() {
        for format in formats() {
            let (lo, hi) = (format.min_value() as f32, format.max_value() as f32);
            for v in edge_values(format) {
                assert_eq!(round_code(v, format), v.round().clamp(lo, hi) as i8, "{v}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn quantize_epilogue_builds_agree() {
        if !has_avx2() {
            return;
        }
        for format in formats() {
            let src = edge_values(format);
            for scale in [1.0f32, 0.5, -1.0, 3.0, 1e-30] {
                for len in (1..=17).chain([src.len() - 3]) {
                    for start in [0, 3] {
                        let src = &src[start..start + len];
                        let mut want = vec![0i8; len];
                        let mut got = vec![0i8; len];
                        quantize_body(src, scale, format, &mut want);
                        // SAFETY: AVX2 support was just verified.
                        unsafe { quantize_avx2(src, scale, format, &mut got) };
                        assert_eq!(want, got, "INT{} scale={scale} len={len}", format.bits());
                    }
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn requantize_epilogue_builds_agree() {
        if !has_avx2() {
            return;
        }
        // Factor × accumulator products cover ties (0.5 × odd), -0.0
        // (-1 × 0), NaN (NaN × a, ∞ × 0), ±∞, values past i32 (i32
        // extremes × 1 and × 4) and the code-range edges ± 1 (× 1).
        let factors = [
            1.0f32,
            0.5,
            -0.5,
            -1.0,
            0.25,
            4.0,
            1.0 / 3.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e30,
        ];
        for format in formats() {
            let (lo, hi) = (format.min_value(), format.max_value());
            let mut accs = vec![
                0,
                1,
                -1,
                3,
                -3,
                5,
                -5,
                255,
                -255,
                i32::MAX,
                i32::MIN,
                77_777,
            ];
            accs.extend([lo - 1, lo, lo + 1, hi - 1, hi, hi + 1]);
            accs.extend(-40..40);
            for relu in [false, true] {
                for c in 1..=17 {
                    for shift in 0..factors.len() {
                        let rescales: Vec<f32> = (0..c)
                            .map(|ch| factors[(ch + shift) % factors.len()])
                            .collect();
                        let pixels = accs.len();
                        let acc: Vec<i32> = (0..pixels * c)
                            .map(|i| accs[(i / c + i % c) % accs.len()])
                            .collect();
                        let mut want = vec![0i8; pixels * c];
                        let mut got = vec![0i8; pixels * c];
                        requantize_body(&acc, &rescales, relu, format, &mut want);
                        // SAFETY: AVX2 support was just verified.
                        unsafe { requantize_avx2(&acc, &rescales, relu, format, &mut got) };
                        assert_eq!(
                            want,
                            got,
                            "INT{} relu={relu} c={c} shift={shift}",
                            format.bits()
                        );
                    }
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn add_and_rescale_epilogue_builds_agree() {
        if !has_avx2() {
            return;
        }
        let codes: Vec<i8> = (-128..=127).collect();
        let flipped: Vec<i8> = codes.iter().rev().copied().collect();
        let scales = [1.0f32, 0.5, 0.25, -0.5, 3.0, 1e30, f32::NAN, f32::INFINITY];
        for format in formats() {
            for &sa in &scales {
                for &sb in &scales {
                    for out_scale in [1.0f32, 0.5, 7.0] {
                        for relu in [false, true] {
                            for len in (1..=17).chain([codes.len()]) {
                                let mut a = QTensor::zeros(1, 1, len, sa);
                                a.codes.copy_from_slice(&codes[..len]);
                                let mut b = QTensor::zeros(1, 1, len, sb);
                                b.codes.copy_from_slice(&flipped[..len]);
                                let mut want = vec![0i8; len];
                                let mut got = vec![0i8; len];
                                add_body(&a, &b, out_scale, relu, format, &mut want);
                                // SAFETY: AVX2 support was just verified.
                                unsafe { add_avx2(&a, &b, out_scale, relu, format, &mut got) };
                                assert_eq!(want, got, "INT{} {sa}/{sb}/{out_scale}", format.bits());
                            }
                        }
                    }
                }
                for width in 1..=17 {
                    let stride = width + 3;
                    let src = &codes[..width * (codes.len() / width)];
                    let rows = src.len() / width;
                    let mut want = vec![0i8; rows * stride];
                    let mut got = vec![0i8; rows * stride];
                    rescale_body(src, width, sa, 0.5, format, &mut want[2..], stride);
                    // SAFETY: AVX2 support was just verified.
                    unsafe { rescale_avx2(src, width, sa, 0.5, format, &mut got[2..], stride) };
                    assert_eq!(want, got, "INT{} scale={sa} width={width}", format.bits());
                }
            }
        }
    }

    /// The AVX2 conv microkernel against the portable im2col GEMM (and
    /// the reference): odd and even `k·ic`, every `out_ch` in 1..=17 so
    /// the last channel block is partial, pixel counts that leave a
    /// partial tile, strides 1–2, 1×1 and kernels larger than the input.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn conv_q_builds_agree() {
        if !has_avx2() {
            return;
        }
        let shapes = [
            (5, 5, 3, 1, 1),
            (6, 7, 1, 1, 0),
            (7, 6, 3, 2, 1),
            (3, 3, 5, 1, 2),
            (2, 3, 5, 2, 2),
            (9, 4, 2, 2, 0),
        ];
        for (ih, iw, k, stride, pad) in shapes {
            for in_ch in [1, 2, 3, 5] {
                for out_ch in 1..=17 {
                    let p = ConvParams {
                        in_ch,
                        out_ch,
                        k,
                        stride,
                        pad,
                        relu: false,
                    };
                    let input = qtensor(ih, iw, in_ch, (k * 7 + in_ch) as i32);
                    let wcodes: Vec<i8> = (0..p.weight_count())
                        .map(|i| (((i * 29 + out_ch) % 256) as i32 - 128) as i8)
                        .collect();
                    let bias_q: Vec<i32> = (0..out_ch).map(|i| i as i32 * 977 - 5000).collect();
                    let (oh, ow) = p.out_hw(ih, iw);
                    let mut scratch = Scratch::new();
                    let mut want = vec![0i32; oh * ow * out_ch];
                    conv2d_q_portable(&input, &p, &wcodes, &bias_q, &mut scratch, &mut want);
                    let mut packed = Vec::new();
                    pack_conv_weights(&p, &wcodes, &mut packed);
                    let mut got = vec![0i32; oh * ow * out_ch];
                    // SAFETY: AVX2 support was just verified; `packed` is
                    // packed for `p` and every buffer has its length.
                    unsafe { conv2d_q_avx2(&input, &p, &packed, &bias_q, &mut scratch, &mut got) };
                    let shape = format!("{ih}x{iw}x{in_ch} k={k} s={stride} p={pad} oc={out_ch}");
                    assert_eq!(want, got, "{shape}");
                    assert_eq!(
                        reference::conv2d_q(&input, &p, &wcodes, &bias_q),
                        want,
                        "{shape}"
                    );
                }
            }
        }
    }
}
