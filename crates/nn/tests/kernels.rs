//! Differential tests: optimized kernels vs the naive references.
//!
//! The contract under test (see `redvolt_nn::kernels` module docs):
//!
//! * float kernels are **bit-identical** to `redvolt_nn::reference` —
//!   compared on `f32::to_bits`, not approximate equality, because the
//!   optimized code must replay the reference accumulation order exactly;
//! * integer kernels produce identical `i32` accumulators (associative
//!   arithmetic, so any blocking/reordering must still be exact).
//!
//! Shapes are randomized across strides, padding, channel counts and the
//! ReLU flag, including the 1×1-kernel fast case and kernels larger than
//! the input (where padding keeps the output non-empty and most taps fall
//! out of bounds — the regime that distinguishes skip-based from
//! zero-fill-based handling).

use proptest::prelude::*;
use redvolt_nn::abft::DefensePolicy;
use redvolt_nn::graph::NodeId;
use redvolt_nn::graph::{ConvParams, GraphBuilder};
use redvolt_nn::kernels::{self, Scratch};
use redvolt_nn::quant::{FaultBurst, FaultInjector, FaultKind, FaultSite, QuantizedGraph};
use redvolt_nn::reference;
use redvolt_nn::tensor::{QTensor, Tensor};

/// Deterministic pseudo-random f32 in roughly [-0.6, 0.6], with the
/// occasional exact zero and negative zero so sign-of-zero handling in
/// the float kernels is actually exercised.
fn f32_at(seed: u64, i: usize) -> f32 {
    let h = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i as u64)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    match h % 23 {
        0 => 0.0,
        1 => -0.0,
        m => (m as f32 / 23.0 - 0.5) * 1.2,
    }
}

fn i8_at(seed: u64, i: usize) -> i8 {
    let h = seed
        .wrapping_mul(0x2545_f491_4f6c_dd1d)
        .wrapping_add(i as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    ((h % 255) as i32 - 127) as i8
}

/// Input codes, weight codes and biases for a quantized conv test case.
fn conv_q_operands(
    seed: u64,
    ih: usize,
    iw: usize,
    p: &ConvParams,
) -> (QTensor, Vec<i8>, Vec<i32>) {
    let mut input = QTensor::zeros(ih, iw, p.in_ch, 0.05);
    for (i, code) in input.codes.iter_mut().enumerate() {
        *code = i8_at(seed, i);
    }
    let wcodes = (0..p.weight_count())
        .map(|i| i8_at(seed ^ 0x77, i))
        .collect();
    let bias_q = (0..p.out_ch)
        .map(|i| i32::from(i8_at(seed ^ 0xb, i)) * 100)
        .collect();
    (input, wcodes, bias_q)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #[test]
    fn conv_f32_bit_identical_across_shapes(
        seed in 0u64..1000,
        ih in 1usize..8,
        iw in 1usize..8,
        ic in 1usize..6,
        out_ch in 1usize..10,
        k in 1usize..6,
        stride in 1usize..4,
        pad in 0usize..3,
        relu in any::<bool>(),
    ) {
        // Output must be non-empty; k > ih/iw is allowed when padding
        // makes up the difference.
        prop_assume!(ih + 2 * pad >= k && iw + 2 * pad >= k);
        let p = ConvParams { in_ch: ic, out_ch, k, stride, pad, relu };
        let input = Tensor::from_vec(
            ih, iw, ic,
            (0..ih * iw * ic).map(|i| f32_at(seed, i)).collect(),
        );
        let weights: Vec<f32> =
            (0..p.weight_count()).map(|i| f32_at(seed ^ 0x0e1, i)).collect();
        let bias: Vec<f32> = (0..out_ch).map(|i| f32_at(seed ^ 0xb1a5, i)).collect();
        let want = reference::conv2d_f32(&input, &p, &weights, &bias);
        let got = kernels::conv2d_f32(&input, &p, &weights, &bias);
        prop_assert_eq!(bits(&want), bits(&got), "k={} s={} p={}", k, stride, pad);
    }

    #[test]
    fn dense_f32_bit_identical_across_widths(
        seed in 0u64..1000,
        n in 1usize..40,
        out_len in 1usize..12,
        relu in any::<bool>(),
    ) {
        let input = Tensor::vector((0..n).map(|i| f32_at(seed, i)).collect());
        let weights: Vec<f32> = (0..n * out_len).map(|i| f32_at(seed ^ 0xdead, i)).collect();
        let bias: Vec<f32> = (0..out_len).map(|i| f32_at(seed ^ 0xb1a5, i)).collect();
        let want = reference::dense_f32(&input, out_len, relu, &weights, &bias);
        let got = kernels::dense_f32(&input, out_len, relu, &weights, &bias);
        prop_assert_eq!(bits(&want), bits(&got));
    }

    /// Spans odd and even `k·k·ic`, `out_ch` across one to three
    /// 8-channel blocks (mostly not a multiple of 8), pixel counts that
    /// leave a partial 4-pixel tile, strides 1–3, 1×1 kernels and kernels
    /// larger than the input.
    #[test]
    fn conv_q_exact_across_shapes(
        seed in 0u64..1000,
        ih in 1usize..12,
        iw in 1usize..12,
        ic in 1usize..10,
        out_ch in 1usize..21,
        k in 1usize..6,
        stride in 1usize..4,
        pad in 0usize..3,
    ) {
        prop_assume!(ih + 2 * pad >= k && iw + 2 * pad >= k);
        let p = ConvParams { in_ch: ic, out_ch, k, stride, pad, relu: false };
        let (input, wcodes, bias_q) = conv_q_operands(seed, ih, iw, &p);
        prop_assert_eq!(
            reference::conv2d_q(&input, &p, &wcodes, &bias_q),
            kernels::conv2d_q(&input, &p, &wcodes, &bias_q),
            "k={} s={} p={}", k, stride, pad
        );
    }

    #[test]
    fn dense_q_exact_across_widths(
        seed in 0u64..1000,
        n in 1usize..60,
        out_len in 1usize..12,
    ) {
        let mut input = QTensor::zeros(1, 1, n, 0.05);
        for (i, code) in input.codes.iter_mut().enumerate() {
            *code = i8_at(seed, i);
        }
        let wcodes: Vec<i8> = (0..n * out_len).map(|i| i8_at(seed ^ 0x42, i)).collect();
        let bias_q: Vec<i32> =
            (0..out_len).map(|i| i32::from(i8_at(seed ^ 0x9, i)) * 7).collect();
        prop_assert_eq!(
            reference::dense_q(&input, n, out_len, &wcodes, &bias_q),
            kernels::dense_q(&input, n, out_len, &wcodes, &bias_q)
        );
    }

    #[test]
    fn scratch_reuse_does_not_leak_state_between_shapes(
        seed in 0u64..200,
        big_first in any::<bool>(),
    ) {
        // One Scratch instance threaded through two very different
        // layers, in both orders — buffer reuse must not leak a larger
        // layer's panel contents into a smaller layer's result.
        let mut scratch = Scratch::new();
        let mut shapes = vec![
            (6usize, 6usize, ConvParams { in_ch: 4, out_ch: 8, k: 3, stride: 1, pad: 1, relu: true }),
            (3, 2, ConvParams { in_ch: 1, out_ch: 3, k: 3, stride: 1, pad: 2, relu: false }),
        ];
        if big_first {
            shapes.reverse();
        }
        for (n, (h, w, p)) in shapes.into_iter().enumerate() {
            let input = Tensor::from_vec(
                h, w, p.in_ch,
                (0..h * w * p.in_ch).map(|i| f32_at(seed + n as u64, i)).collect(),
            );
            let weights: Vec<f32> =
                (0..p.weight_count()).map(|i| f32_at(seed ^ 0x3, i)).collect();
            let bias: Vec<f32> = vec![0.1; p.out_ch];
            let (oh, ow) = p.out_hw(h, w);
            let mut out = vec![0.0f32; oh * ow * p.out_ch];
            kernels::conv2d_f32_into(&input, &p, &weights, &bias, &mut scratch, &mut out);
            let want = reference::conv2d_f32(&input, &p, &weights, &bias);
            prop_assert_eq!(bits(&want), out.iter().map(|v| v.to_bits()).collect::<Vec<_>>());

            let mut qin = QTensor::zeros(h, w, p.in_ch, 0.1);
            for (i, code) in qin.codes.iter_mut().enumerate() {
                *code = i8_at(seed + n as u64, i);
            }
            let wq: Vec<i8> = (0..p.weight_count()).map(|i| i8_at(seed ^ 0x5, i)).collect();
            let bq: Vec<i32> = vec![11; p.out_ch];
            let mut acc = vec![0i32; oh * ow * p.out_ch];
            let mut packed = Vec::new();
            kernels::pack_conv_weights(&p, &wq, &mut packed);
            kernels::conv2d_q_into(&qin, &p, &wq, &packed, &bq, &mut scratch, &mut acc);
            prop_assert_eq!(reference::conv2d_q(&qin, &p, &wq, &bq), acc);
        }
    }
}

/// The 1×1-kernel case hit by GoogleNet/ResNet bottlenecks, pinned
/// explicitly (stride 2 as well, which skips input pixels entirely).
#[test]
fn one_by_one_kernels_match() {
    for stride in [1usize, 2] {
        let p = ConvParams {
            in_ch: 8,
            out_ch: 16,
            k: 1,
            stride,
            pad: 0,
            relu: true,
        };
        let input = Tensor::from_vec(5, 7, 8, (0..5 * 7 * 8).map(|i| f32_at(3, i)).collect());
        let weights: Vec<f32> = (0..p.weight_count()).map(|i| f32_at(19, i)).collect();
        let bias: Vec<f32> = (0..16).map(|i| f32_at(23, i)).collect();
        let want = reference::conv2d_f32(&input, &p, &weights, &bias);
        let got = kernels::conv2d_f32(&input, &p, &weights, &bias);
        assert_eq!(bits(&want), bits(&got), "stride={stride}");
    }
}

/// Kernel strictly larger than the input in both dimensions: every
/// output pixel sees mostly out-of-bounds taps.
#[test]
fn kernel_larger_than_input_matches() {
    let p = ConvParams {
        in_ch: 2,
        out_ch: 3,
        k: 5,
        stride: 1,
        pad: 2,
        relu: false,
    };
    let input = Tensor::from_vec(2, 3, 2, (0..12).map(|i| f32_at(7, i)).collect());
    let weights: Vec<f32> = (0..p.weight_count()).map(|i| f32_at(11, i)).collect();
    let bias = vec![0.5, -0.5, 0.0];
    let want = reference::conv2d_f32(&input, &p, &weights, &bias);
    let got = kernels::conv2d_f32(&input, &p, &weights, &bias);
    assert_eq!(bits(&want), bits(&got));

    let mut qin = QTensor::zeros(2, 3, 2, 0.05);
    for (i, code) in qin.codes.iter_mut().enumerate() {
        *code = i8_at(13, i);
    }
    let wq: Vec<i8> = (0..p.weight_count()).map(|i| i8_at(17, i)).collect();
    let bq = vec![1, -2, 3];
    assert_eq!(
        reference::conv2d_q(&qin, &p, &wq, &bq),
        kernels::conv2d_q(&qin, &p, &wq, &bq)
    );
}

/// The shape classes the AVX2 microkernel treats specially, pinned
/// explicitly rather than left to sampling.
#[test]
fn conv_q_exact_on_microkernel_edge_shapes() {
    let cases = [
        // (ih, iw, in_ch, out_ch, k, stride, pad)
        (5, 5, 3, 9, 3, 1, 1),  // odd k·k·ic = 27, 25 pixels = 6 tiles + 1
        (6, 6, 4, 16, 3, 1, 1), // even k·k·ic, whole blocks and tiles
        (7, 7, 5, 17, 3, 2, 1), // stride 2, 16 pixels, 17 channels
        (5, 7, 8, 16, 1, 2, 0), // 1×1 stride 2 (skipped input pixels)
        (4, 4, 7, 3, 1, 1, 0),  // 1×1, odd ic, out_ch < 8
        (2, 3, 2, 12, 5, 1, 2), // kernel larger than the input
        (1, 1, 1, 1, 1, 1, 0),  // one pixel, one channel, one tap
        (3, 2, 3, 24, 3, 1, 2), // three full channel blocks
    ];
    for (n, (ih, iw, in_ch, out_ch, k, stride, pad)) in cases.into_iter().enumerate() {
        let p = ConvParams {
            in_ch,
            out_ch,
            k,
            stride,
            pad,
            relu: false,
        };
        let (input, wcodes, bias_q) = conv_q_operands(n as u64, ih, iw, &p);
        assert_eq!(
            reference::conv2d_q(&input, &p, &wcodes, &bias_q),
            kernels::conv2d_q(&input, &p, &wcodes, &bias_q),
            "{ih}x{iw}x{in_ch} -> {out_ch} k={k} s={stride} p={pad}"
        );
    }
}

/// Plans the same weight flips on every pass of each scripted node — a
/// stuck fault, so every ABFT re-execution sees it again.
struct WeightFlips(Vec<(NodeId, Vec<FaultBurst>)>);

impl FaultInjector for WeightFlips {
    fn plan_faults(&mut self, site: FaultSite, _: usize, plan: &mut Vec<FaultBurst>) {
        if let FaultKind::Weight { .. } = site.kind {
            for (node, flips) in &self.0 {
                if *node == site.node {
                    plan.extend_from_slice(flips);
                }
            }
        }
    }
}

/// A weight flip must reach the optimized conv's accumulators: its delta
/// lands on the layer's clean packed-weight output, the result equals the
/// reference kernels on the flipped codes, and the next clean pass is
/// clean again. The oracle is the same graph on the reference kernels,
/// which compute `reference::conv2d_q` on a flipped copy of the codes.
#[test]
fn faulted_conv_weights_reach_the_accumulators() {
    let p = ConvParams {
        in_ch: 3,
        out_ch: 11,
        k: 3,
        stride: 1,
        pad: 1,
        relu: false,
    };
    let mut b = GraphBuilder::new();
    let x = b.input(6, 5, 3);
    let weights = (0..p.weight_count()).map(|i| f32_at(31, i)).collect();
    let bias = (0..p.out_ch).map(|i| f32_at(37, i)).collect();
    let y = b.conv("c", x, p, weights, bias);
    let g = b.finish(y);
    let image = |seed: u64| Tensor::from_vec(6, 5, 3, (0..90).map(|i| f32_at(seed, i)).collect());
    let mut q = QuantizedGraph::quantize(&g, 8, &[image(1), image(2)]).expect("quantizes");
    let img = image(3);
    let clean = bits(&q.forward(&img).expect("clean pass"));
    // Bit 6 of a weight in output channel 9 (the partial second block).
    let mut flip = WeightFlips(vec![(y, vec![FaultBurst::single(9 * 27 + 13, 6)])]);
    let faulted = bits(&q.forward_with(&img, &mut flip).expect("faulted pass"));
    q.set_reference_kernels(true);
    let oracle = bits(&q.forward_with(&img, &mut flip).expect("reference pass"));
    q.set_reference_kernels(false);
    assert_eq!(faulted, oracle, "faulted codes must reach the kernel");
    assert_ne!(faulted, clean, "the flip must be visible");
    assert_eq!(bits(&q.forward(&img).expect("clean pass")), clean);
}

/// Four drawn code indices (reduced modulo the layer size).
type Picks = (usize, usize, usize, usize);

fn index_picks() -> impl Strategy<Value = Picks> {
    (
        0usize..1 << 20,
        0usize..1 << 20,
        0usize..1 << 20,
        0usize..1 << 20,
    )
}

/// A scripted weight plan over a layer of `len` codes, from four drawn
/// indices and two bits: a flip repeated later in the plan (it cancels),
/// one code flipped at two bits, a 3-code burst, an index past the end
/// (dropped) and a lone flip.
fn weight_script(len: usize, picks: Picks, (b0, b1): (u32, u32)) -> Vec<FaultBurst> {
    let (a, b, c, d) = (picks.0 % len, picks.1 % len, picks.2 % len, picks.3 % len);
    vec![
        FaultBurst::single(a, b0),
        FaultBurst::single(b, b0),
        FaultBurst::single(b, b1),
        FaultBurst {
            start: c,
            len: 3,
            bit: b1,
        },
        FaultBurst::single(len + d, b0),
        FaultBurst::single(a, b0),
        FaultBurst::single(d, b1),
    ]
}

/// Runs `image` through `q` under `flips` on the optimized kernels and on
/// the reference oracle, under the defense off and correcting, and
/// asserts bit-identical logits and identical ABFT counters.
fn assert_weight_faults_match_oracle(
    q: &mut QuantizedGraph,
    image: &Tensor,
    flips: Vec<(NodeId, Vec<FaultBurst>)>,
) {
    let mut inj = WeightFlips(flips);
    for policy in [DefensePolicy::off(), DefensePolicy::correct()] {
        q.set_defense(policy);
        q.set_reference_kernels(false);
        let fast = bits(&q.forward_with(image, &mut inj).expect("optimized pass"));
        let fast_stats = q.take_defense_stats();
        q.set_reference_kernels(true);
        let oracle = bits(&q.forward_with(image, &mut inj).expect("reference pass"));
        assert_eq!(fast, oracle, "{:?}", policy.mode);
        assert_eq!(fast_stats, q.take_defense_stats());
    }
}

proptest! {
    /// Weight faults as accumulator deltas are exact on every conv shape
    /// class of [`conv_q_exact_across_shapes`]: partial 8-channel blocks,
    /// strides, padding and kernels larger than the input, where many
    /// output pixels' windows miss the faulted tap.
    #[test]
    fn conv_weight_deltas_match_the_reference_oracle(
        seed in 0u64..1000,
        ih in 1usize..12,
        iw in 1usize..12,
        ic in 1usize..10,
        out_ch in 1usize..21,
        k in 1usize..5,
        stride in 1usize..3,
        pad in 0usize..2,
        picks in index_picks(),
        bit_picks in (0u32..8, 0u32..8),
    ) {
        prop_assume!(ih + 2 * pad >= k && iw + 2 * pad >= k);
        let p = ConvParams { in_ch: ic, out_ch, k, stride, pad, relu: false };
        let mut b = GraphBuilder::new();
        let x = b.input(ih, iw, ic);
        let weights = (0..p.weight_count()).map(|i| f32_at(seed ^ 0x0e1, i)).collect();
        let bias = (0..out_ch).map(|i| f32_at(seed ^ 0xb1a5, i)).collect();
        let y = b.conv("c", x, p, weights, bias);
        let g = b.finish(y);
        let image = |s: u64| Tensor::from_vec(ih, iw, ic, (0..ih * iw * ic).map(|i| f32_at(s, i)).collect());
        let mut q = QuantizedGraph::quantize(&g, 8, &[image(seed), image(seed + 1)]).expect("quantizes");
        let script = weight_script(p.weight_count(), picks, bit_picks);
        assert_weight_faults_match_oracle(&mut q, &image(seed + 2), vec![(y, script)]);
    }

    /// The same for dense layers, behind a conv so both kinds of delta
    /// run in one pass, at code widths down to INT4.
    #[test]
    fn dense_weight_deltas_match_the_reference_oracle(
        seed in 0u64..1000,
        hw in 1usize..5,
        ic in 1usize..6,
        out_len in 1usize..12,
        code_bits in 4u32..=8,
        picks in index_picks(),
        conv_picks in index_picks(),
        bit_picks in (0u32..8, 0u32..8),
    ) {
        let p = ConvParams { in_ch: ic, out_ch: 3, k: 1, stride: 1, pad: 0, relu: true };
        let mut b = GraphBuilder::new();
        let x = b.input(hw, hw, ic);
        let cw = (0..p.weight_count()).map(|i| f32_at(seed ^ 0x5, i)).collect();
        let c = b.conv("c", x, p, cw, vec![0.1, -0.1, 0.0]);
        let in_len = hw * hw * 3;
        let dw = (0..in_len * out_len).map(|i| f32_at(seed ^ 0xd, i)).collect();
        let db = (0..out_len).map(|i| f32_at(seed ^ 0xe, i)).collect();
        let d = b.dense("fc", c, out_len, false, dw, db);
        let g = b.finish(d);
        let image = |s: u64| Tensor::from_vec(hw, hw, ic, (0..hw * hw * ic).map(|i| f32_at(s, i)).collect());
        let mut q = QuantizedGraph::quantize(&g, code_bits, &[image(seed), image(seed + 1)])
            .expect("quantizes");
        let bits = (bit_picks.0 % code_bits, bit_picks.1 % code_bits);
        let flips = vec![
            (c, weight_script(p.weight_count(), conv_picks, bits)),
            (d, weight_script(in_len * out_len, picks, bits)),
        ];
        assert_weight_faults_match_oracle(&mut q, &image(seed + 2), flips);
    }
}
