//! The faulty inference path allocates nothing once its arena is warm.
//!
//! A counting global allocator tallies heap allocations per thread, so
//! tests running concurrently on other threads cannot disturb the count.
//! One image warms an [`ExecScratch`] (activation tensors, accumulators,
//! kernel panels and the fault-plan buffer); every later image runs
//! through [`QuantizedGraph::predict_shared`] with an
//! `EccInjector<SlackFaultInjector>` at a deep sub-Vmin rate — thousands
//! of accumulator flips per layer, weight and activation bursts through
//! the ECC regrouping — and must not touch the heap, with the SDC
//! defense off and correcting.

use redvolt_faults::ecc::EccInjector;
use redvolt_faults::injector::SlackFaultInjector;
use redvolt_faults::model::FaultRates;
use redvolt_nn::abft::{DefenseMode, DefensePolicy, DefenseStats};
use redvolt_nn::graph::{ConvParams, GraphBuilder};
use redvolt_nn::quant::{ExecScratch, QuantizedGraph};
use redvolt_nn::tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations made by the current thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn value(seed: u64, i: usize) -> f32 {
    let h = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i as u64)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    ((h >> 40) % 1000) as f32 / 1000.0 - 0.5
}

/// Two 3×3 convs, a max-pool and a dense readout over a 16×16×4 input.
fn small_graph() -> QuantizedGraph {
    let mut b = GraphBuilder::new();
    let x = b.input(16, 16, 4);
    let p1 = ConvParams {
        in_ch: 4,
        out_ch: 16,
        k: 3,
        stride: 1,
        pad: 1,
        relu: true,
    };
    let w1 = (0..p1.weight_count()).map(|i| value(1, i) * 0.4).collect();
    let c1 = b.conv("c1", x, p1, w1, vec![0.01; 16]);
    let p2 = ConvParams {
        in_ch: 16,
        out_ch: 16,
        k: 3,
        stride: 1,
        pad: 1,
        relu: true,
    };
    let w2 = (0..p2.weight_count()).map(|i| value(2, i) * 0.2).collect();
    let c2 = b.conv("c2", c1, p2, w2, vec![0.0; 16]);
    let pool = b.max_pool("mp", c2, 2, 2);
    let wd = (0..8 * 8 * 16 * 10).map(|i| value(3, i) * 0.1).collect();
    let d = b.dense("fc", pool, 10, false, wd, vec![0.0; 10]);
    let graph = b.finish(d);
    QuantizedGraph::quantize(&graph, 8, &[image(0), image(1)]).expect("quantizes")
}

fn image(seed: u64) -> Tensor {
    Tensor::from_vec(16, 16, 4, (0..1024).map(|i| value(seed + 10, i)).collect())
}

/// Deep below Vmin: ~40 accumulator bursts (thousands of flips) per conv
/// pass, a dozen weight flips and a few activation bursts per layer.
const DEEP: FaultRates = FaultRates {
    per_mac: 4e-5,
    per_weight: 5e-3,
    per_activation: 1e-3,
};

/// Runs one image and returns the flips planned and the ECC words that
/// the regrouping decoded.
fn run(graph: &QuantizedGraph, seed: u64, img: &Tensor, scratch: &mut ExecScratch) -> (u64, u64) {
    let mode = graph.defense().mode;
    let mut injector = EccInjector::new(SlackFaultInjector::new(DEEP, seed), mode);
    let mut stats = DefenseStats::default();
    graph
        .predict_shared(img, &mut injector, scratch, &mut stats)
        .expect("runs");
    let ecc = injector.stats();
    (
        injector.inner().injected_count(),
        ecc.corrected_words + ecc.uncorrectable_words,
    )
}

#[test]
fn faulty_inference_allocates_nothing_once_warm() {
    let images: Vec<Tensor> = (0..12).map(|s| image(100 + s)).collect();
    for policy in [DefensePolicy::off(), DefensePolicy::correct()] {
        let mut graph = small_graph();
        graph.set_defense(policy);
        let mut scratch = ExecScratch::new();
        run(&graph, 0, &images[0], &mut scratch);
        let before = allocations();
        let (mut injected, mut ecc_words) = (0, 0);
        for (i, img) in images.iter().enumerate().skip(1) {
            let (flips, words) = run(&graph, i as u64, img, &mut scratch);
            injected += flips;
            ecc_words += words;
        }
        let allocated = allocations() - before;
        let runs = images.len() as u64 - 1;
        assert_eq!(allocated, 0, "{:?}: heap allocations", policy.mode);
        assert!(
            injected > 1000 * runs,
            "{:?}: only {injected} flips over {runs} images",
            policy.mode
        );
        if policy.mode == DefenseMode::Correct {
            assert!(ecc_words > 0, "the ECC regrouping must run");
        }
    }
}
