//! Kernel and end-to-end inference throughput baseline.
//!
//! ```text
//! cargo run --release -p redvolt-bench --bin kernels -- --quick
//! cargo run --release -p redvolt-bench --bin kernels -- --out BENCH_6.json
//! cargo run --release -p redvolt-bench --bin kernels -- --quick --min-speedup 1.0
//! cargo run --release -p redvolt-bench --bin kernels -- --check BENCH_6.json
//! ```
//!
//! Measures the optimized im2col + blocked-GEMM kernels
//! (`redvolt_nn::kernels`) against the retained naive reference
//! implementations (`redvolt_nn::reference`), at two levels:
//!
//! * **Kernel micro-benchmarks** — conv/dense, float and quantized, on
//!   representative layer shapes, reported as ns/call.
//! * **End-to-end inference** — quantized `predict` over the paper's
//!   benchmark models, optimized vs `set_reference_kernels(true)`,
//!   reported as images/s. Both arms classify every image identically
//!   (bit-identical kernels), so the comparison is pure throughput.
//!
//! The workload is fully deterministic (fixed seeds, fixed iteration
//! counts); only the wall-clock timings vary run to run. Results go to
//! a JSON report (schema `redvolt-bench/kernels/v1`, default
//! `BENCH_6.json`). `--min-speedup X` exits non-zero if any end-to-end
//! speedup falls below `X` — the CI smoke gate. `--check PATH` validates
//! an existing report against the schema instead of benchmarking.

use redvolt_nn::dataset::SyntheticDataset;
use redvolt_nn::graph::ConvParams;
use redvolt_nn::kernels::{self, Scratch};
use redvolt_nn::models::{ModelKind, ModelScale};
use redvolt_nn::quant::QuantizedGraph;
use redvolt_nn::reference;
use redvolt_nn::tensor::{QTensor, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// Report schema identifier; bump on layout changes.
const SCHEMA: &str = "redvolt-bench/kernels/v1";

struct KernelResult {
    name: String,
    shape: String,
    reference_ns: f64,
    optimized_ns: f64,
}

struct EndToEndResult {
    benchmark: &'static str,
    bits: u32,
    images: usize,
    reference_images_per_s: f64,
    optimized_images_per_s: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut out_path = "BENCH_6.json".to_string();
    let mut min_speedup: Option<f64> = None;
    let mut check_path: Option<String> = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => {}
            "--out" => out_path = expect_value(&mut it, "--out"),
            "--min-speedup" => {
                let v = expect_value(&mut it, "--min-speedup");
                min_speedup = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("error: --min-speedup wants a number, got {v}");
                    std::process::exit(2);
                }));
            }
            "--check" => check_path = Some(expect_value(&mut it, "--check")),
            other => {
                eprintln!("error: unknown flag {other}");
                eprintln!("usage: kernels [--quick] [--out PATH] [--min-speedup X] [--check PATH]");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = check_path {
        check_report(&path);
        return;
    }

    let reps = if quick { 3 } else { 20 };
    eprintln!("# kernel micro-benchmarks ({reps} reps)");
    let kernel_results = bench_kernels(reps);
    for k in &kernel_results {
        eprintln!(
            "  {:<12} {:<26} ref {:>10.0} ns  opt {:>10.0} ns  x{:.2}",
            k.name,
            k.shape,
            k.reference_ns,
            k.optimized_ns,
            k.reference_ns / k.optimized_ns
        );
    }

    let models: &[ModelKind] = if quick {
        &[ModelKind::VggNet]
    } else {
        &ModelKind::ALL
    };
    let images = if quick { 12 } else { 40 };
    eprintln!("# end-to-end quantized inference ({images} images/arm)");
    let e2e: Vec<EndToEndResult> = models
        .iter()
        .map(|&m| bench_end_to_end(m, images))
        .collect();
    let mut min_seen = f64::INFINITY;
    for r in &e2e {
        let speedup = r.optimized_images_per_s / r.reference_images_per_s;
        min_seen = min_seen.min(speedup);
        eprintln!(
            "  {:<10} INT{} ref {:>8.1} img/s  opt {:>8.1} img/s  x{:.2}",
            r.benchmark, r.bits, r.reference_images_per_s, r.optimized_images_per_s, speedup
        );
    }

    let json = render_report(quick, &kernel_results, &e2e);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("error: writing {out_path}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out_path}");

    if let Some(floor) = min_speedup {
        if min_seen < floor {
            eprintln!(
                "FAIL: minimum end-to-end speedup x{min_seen:.2} is below the x{floor:.2} floor"
            );
            std::process::exit(1);
        }
        eprintln!("OK: minimum end-to-end speedup x{min_seen:.2} >= x{floor:.2}");
    }
}

fn expect_value(it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str) -> String {
    it.next().cloned().unwrap_or_else(|| {
        eprintln!("error: {flag} wants a value");
        std::process::exit(2);
    })
}

/// ns/call of `f`, median of `reps` timed calls after one warm-up call.
fn time_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn synth_tensor(h: usize, w: usize, c: usize) -> Tensor {
    Tensor::from_vec(
        h,
        w,
        c,
        (0..h * w * c).map(|i| ((i as f32) * 0.37).sin()).collect(),
    )
}

fn synth_qtensor(h: usize, w: usize, c: usize) -> QTensor {
    let mut q = QTensor::zeros(h, w, c, 0.05);
    for (i, code) in q.codes.iter_mut().enumerate() {
        *code = (((i * 37) % 255) as i32 - 127) as i8;
    }
    q
}

fn bench_kernels(reps: usize) -> Vec<KernelResult> {
    let mut results = Vec::new();
    let mut scratch = Scratch::new();

    // A mid-network conv layer: 16x16x32 input, 3x3, 64 filters.
    let p = ConvParams {
        in_ch: 32,
        out_ch: 64,
        k: 3,
        stride: 1,
        pad: 1,
        relu: true,
    };
    let shape = "16x16x32 k3 s1 p1 oc64".to_string();
    let xf = synth_tensor(16, 16, 32);
    let wf: Vec<f32> = (0..p.weight_count())
        .map(|i| ((i as f32) * 0.73).cos())
        .collect();
    let bf: Vec<f32> = (0..p.out_ch).map(|i| i as f32 * 0.01).collect();
    let (oh, ow) = p.out_hw(16, 16);
    let mut out_f = vec![0.0f32; oh * ow * p.out_ch];
    results.push(KernelResult {
        name: "conv2d_f32".to_string(),
        shape: shape.clone(),
        reference_ns: time_ns(reps, || {
            black_box(reference::conv2d_f32(black_box(&xf), &p, &wf, &bf));
        }),
        optimized_ns: time_ns(reps, || {
            kernels::conv2d_f32_into(black_box(&xf), &p, &wf, &bf, &mut scratch, &mut out_f);
            black_box(&out_f);
        }),
    });

    let xq = synth_qtensor(16, 16, 32);
    let wq: Vec<i8> = (0..p.weight_count())
        .map(|i| (((i * 29) % 255) as i32 - 127) as i8)
        .collect();
    let bq: Vec<i32> = (0..p.out_ch).map(|i| i as i32 * 3 - 90).collect();
    let mut packed = Vec::new();
    kernels::pack_conv_weights(&p, &wq, &mut packed);
    let mut acc = vec![0i32; oh * ow * p.out_ch];
    results.push(KernelResult {
        name: "conv2d_q".to_string(),
        shape,
        reference_ns: time_ns(reps, || {
            black_box(reference::conv2d_q(black_box(&xq), &p, &wq, &bq));
        }),
        optimized_ns: time_ns(reps, || {
            kernels::conv2d_q_into(
                black_box(&xq),
                &p,
                &wq,
                &packed,
                &bq,
                &mut scratch,
                &mut acc,
            );
            black_box(&acc);
        }),
    });

    // A readout-sized dense layer: 1024 -> 256.
    let (n, m) = (1024usize, 256usize);
    let shape = format!("{n}->{m}");
    let xf = synth_tensor(1, 1, n);
    let wf: Vec<f32> = (0..n * m).map(|i| ((i as f32) * 0.31).sin()).collect();
    let bf: Vec<f32> = (0..m).map(|i| i as f32 * 0.01).collect();
    let mut out_f = vec![0.0f32; m];
    results.push(KernelResult {
        name: "dense_f32".to_string(),
        shape: shape.clone(),
        reference_ns: time_ns(reps, || {
            black_box(reference::dense_f32(black_box(&xf), m, true, &wf, &bf));
        }),
        optimized_ns: time_ns(reps, || {
            kernels::dense_f32_into(black_box(xf.data()), m, true, &wf, &bf, &mut out_f);
            black_box(&out_f);
        }),
    });

    let xq = synth_qtensor(1, 1, n);
    let wq: Vec<i8> = (0..n * m)
        .map(|i| (((i * 17) % 255) as i32 - 127) as i8)
        .collect();
    let bq: Vec<i32> = (0..m).map(|i| i as i32 - 100).collect();
    let mut acc = vec![0i32; m];
    results.push(KernelResult {
        name: "dense_q".to_string(),
        shape,
        reference_ns: time_ns(reps, || {
            black_box(reference::dense_q(black_box(&xq), n, m, &wq, &bq));
        }),
        optimized_ns: time_ns(reps, || {
            kernels::dense_q_into(black_box(&xq), n, m, &wq, &bq, &mut acc);
            black_box(&acc);
        }),
    });

    results
}

fn bench_end_to_end(kind: ModelKind, images: usize) -> EndToEndResult {
    let graph = kind.build(ModelScale::Paper).fold_batch_norms();
    let in_shape = graph.input_shape();
    let classes = graph.num_classes();
    let ds = SyntheticDataset::new(in_shape.h, in_shape.w, in_shape.c, classes, 42);
    let mut q = QuantizedGraph::quantize(&graph, 8, &ds.images(4)).expect("quantize");
    let batch: Vec<Tensor> = (0..images).map(|i| ds.image(i).0).collect();

    // Warm both arms (arena growth, cache residency), then verify the
    // two arms agree before timing them.
    q.set_reference_kernels(true);
    let ref_preds: Vec<usize> = batch
        .iter()
        .map(|im| q.predict(im).expect("predict"))
        .collect();
    q.set_reference_kernels(false);
    let opt_preds: Vec<usize> = batch
        .iter()
        .map(|im| q.predict(im).expect("predict"))
        .collect();
    assert_eq!(ref_preds, opt_preds, "kernel arms disagree on {kind:?}");

    q.set_reference_kernels(true);
    let t = Instant::now();
    for im in &batch {
        black_box(q.predict(im).expect("predict"));
    }
    let ref_s = t.elapsed().as_secs_f64();

    q.set_reference_kernels(false);
    let t = Instant::now();
    for im in &batch {
        black_box(q.predict(im).expect("predict"));
    }
    let opt_s = t.elapsed().as_secs_f64();

    EndToEndResult {
        benchmark: kind.name(),
        bits: q.bits(),
        images,
        reference_images_per_s: images as f64 / ref_s,
        optimized_images_per_s: images as f64 / opt_s,
    }
}

fn render_report(quick: bool, kernels: &[KernelResult], e2e: &[EndToEndResult]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str("  \"kernels\": [\n");
    for (i, k) in kernels.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"shape\": \"{}\", \"reference_ns_per_call\": {:.1}, \
             \"optimized_ns_per_call\": {:.1}, \"speedup\": {:.3}}}{}\n",
            k.name,
            k.shape,
            k.reference_ns,
            k.optimized_ns,
            k.reference_ns / k.optimized_ns,
            if i + 1 < kernels.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"end_to_end\": [\n");
    for (i, r) in e2e.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"benchmark\": \"{}\", \"bits\": {}, \"images\": {}, \
             \"reference_images_per_s\": {:.2}, \"optimized_images_per_s\": {:.2}, \
             \"speedup\": {:.3}}}{}\n",
            r.benchmark,
            r.bits,
            r.images,
            r.reference_images_per_s,
            r.optimized_images_per_s,
            r.optimized_images_per_s / r.reference_images_per_s,
            if i + 1 < e2e.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    let min = e2e
        .iter()
        .map(|r| r.optimized_images_per_s / r.reference_images_per_s)
        .fold(f64::INFINITY, f64::min);
    s.push_str(&format!("  \"min_end_to_end_speedup\": {min:.3}\n"));
    s.push_str("}\n");
    s
}

/// Structural validation of a report file: correct schema tag, at least
/// one kernel and one end-to-end entry, every required key present, all
/// speedups positive and finite.
fn check_report(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: reading {path}: {e}");
        std::process::exit(1);
    });
    let mut problems = Vec::new();
    if !text.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        problems.push(format!("missing or wrong schema tag (want {SCHEMA})"));
    }
    for key in [
        "\"quick\":",
        "\"kernels\":",
        "\"end_to_end\":",
        "\"min_end_to_end_speedup\":",
        "\"reference_ns_per_call\":",
        "\"optimized_ns_per_call\":",
        "\"reference_images_per_s\":",
        "\"optimized_images_per_s\":",
        "\"speedup\":",
    ] {
        if !text.contains(key) {
            problems.push(format!("missing key {key}"));
        }
    }
    for line in text.lines() {
        if let Some(rest) = line.trim().strip_prefix("\"min_end_to_end_speedup\":") {
            let v: f64 = rest
                .trim()
                .trim_end_matches(',')
                .parse()
                .unwrap_or(f64::NAN);
            if !v.is_finite() || v <= 0.0 {
                problems.push(format!("min_end_to_end_speedup not positive-finite: {v}"));
            }
        }
    }
    if problems.is_empty() {
        eprintln!("OK: {path} conforms to {SCHEMA}");
    } else {
        for p in &problems {
            eprintln!("FAIL: {p}");
        }
        std::process::exit(1);
    }
}
