//! Host-time performance gates: optimized vs reference inference kernels
//! and the clean-path cost of the ABFT defense.
//!
//! ```text
//! cargo run --release -p redvolt-bench --bin gates -- --quick --out gates.json
//! cargo run --release -p redvolt-bench --bin gates -- --out BENCH_13.json
//! cargo run --release -p redvolt-bench --bin gates -- --check BENCH_13.json
//! ```
//!
//! For each benchmark model (`--quick`: VGGNet only) one interleaved loop
//! times quantized inference on four arms of the same graph, keeping
//! per-arm medians so clock drift and scheduler noise hit every arm alike:
//!
//! * `reference` — the naive [`redvolt_nn::reference`] kernels;
//! * `off` — the optimized kernels, defense off;
//! * `detect` / `correct` — the optimized kernels under ABFT.
//!
//! All four classify every image identically (checked before timing), so
//! the comparison is pure throughput. Four kernel micro-benchmarks report
//! ns/call for the optimized and reference conv/dense kernels.
//!
//! Two gates are always enforced (exit 1 on failure): every model's
//! `off` arm is at least [`MIN_SPEEDUP`]× its `reference` arm, and the
//! worst `detect`/`correct` slowdown over `off` is at most
//! [`MAX_OVERHEAD`]. The report (schema [`SCHEMA`]) goes to `--out PATH`,
//! or stdout. `--check PATH` parses a report back into its rows and
//! accepts it only if re-rendering them gives back the same bytes and the
//! gates hold.

use redvolt_nn::abft::DefensePolicy;
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
const SCHEMA: &str = "redvolt-bench/gates/v1";
/// Floor on optimized / reference end-to-end throughput, per model. 1.0
/// (not the several-fold speedup measured on dev machines) because shared
/// CI runners are noisy: the gate is "never slower".
const MIN_SPEEDUP: f64 = 1.0;
/// Ceiling on the fractional clean-path slowdown of `detect`/`correct`.
const MAX_OVERHEAD: f64 = 0.25;
/// Interleaved repetitions per model; each arm keeps its median.
const REPS: usize = 15;
/// The timed arms, in report order.
const ARMS: [&str; 4] = ["reference", "off", "detect", "correct"];

/// One kernel micro-benchmark: median ns/call of both implementations.
#[derive(Debug, PartialEq)]
struct KernelRow {
    name: String,
    shape: String,
    reference_ns: u64,
    optimized_ns: u64,
}

/// One model's end-to-end throughput, images/s per arm of [`ARMS`],
/// rounded to the two decimals the report renders.
#[derive(Debug, PartialEq)]
struct ModelRow {
    benchmark: String,
    bits: u32,
    images: usize,
    rates: [f64; 4],
}

impl ModelRow {
    fn speedup(&self) -> f64 {
        self.rates[1] / self.rates[0]
    }

    fn overhead(&self, arm: usize) -> f64 {
        self.rates[1] / self.rates[arm] - 1.0
    }
}

#[derive(Debug, PartialEq)]
struct Report {
    quick: bool,
    kernels: Vec<KernelRow>,
    models: Vec<ModelRow>,
}

impl Report {
    fn min_speedup(&self) -> f64 {
        self.models
            .iter()
            .map(ModelRow::speedup)
            .fold(f64::INFINITY, f64::min)
    }

    fn worst_overhead(&self) -> f64 {
        self.models
            .iter()
            .flat_map(|m| [m.overhead(2), m.overhead(3)])
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Everything wrong with the report's values: empty sections,
    /// non-positive or non-finite measurements, failed gates.
    fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.kernels.is_empty() || self.models.is_empty() {
            v.push("report has no kernel or no model rows".to_string());
        }
        for k in &self.kernels {
            if k.reference_ns == 0 || k.optimized_ns == 0 {
                v.push(format!("{}: zero ns/call", k.name));
            }
        }
        for m in &self.models {
            if m.images == 0 || !m.rates.iter().all(|r| r.is_finite() && *r > 0.0) {
                v.push(format!("{}: images/s not positive and finite", m.benchmark));
            }
        }
        let (speedup, overhead) = (self.min_speedup(), self.worst_overhead());
        if speedup < MIN_SPEEDUP {
            v.push(format!(
                "minimum end-to-end speedup x{speedup:.3} is below x{MIN_SPEEDUP}"
            ));
        }
        if overhead > MAX_OVERHEAD {
            v.push(format!(
                "worst defense overhead {overhead:.3} exceeds {MAX_OVERHEAD}"
            ));
        }
        v
    }

    /// The one writer of [`SCHEMA`]; `--check` compares against it.
    fn render(&self) -> String {
        let mut s = format!(
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \"quick\": {},\n  \"kernels\": [\n",
            self.quick
        );
        for (i, k) in self.kernels.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"shape\": \"{}\", \"reference_ns_per_call\": {}, \
                 \"optimized_ns_per_call\": {}, \"speedup\": {:.3}}}{}\n",
                k.name,
                k.shape,
                k.reference_ns,
                k.optimized_ns,
                k.reference_ns as f64 / k.optimized_ns as f64,
                if i + 1 < self.kernels.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n  \"models\": [\n");
        for (i, m) in self.models.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"benchmark\": \"{}\", \"bits\": {}, \"images\": {}",
                m.benchmark, m.bits, m.images
            ));
            for (arm, rate) in ARMS.iter().zip(m.rates) {
                s.push_str(&format!(", \"{arm}_images_per_s\": {rate:.2}"));
            }
            s.push_str(&format!(
                ", \"speedup\": {:.3}, \"detect_overhead\": {:.3}, \"correct_overhead\": {:.3}}}{}\n",
                m.speedup(),
                m.overhead(2),
                m.overhead(3),
                if i + 1 < self.models.len() { "," } else { "" }
            ));
        }
        s.push_str(&format!(
            "  ],\n  \"min_speedup\": {:.3},\n  \"worst_overhead\": {:.3}\n}}\n",
            self.min_speedup(),
            self.worst_overhead()
        ));
        s
    }

    /// Reads the rows back out of a parsed report. Derived fields
    /// (speedups, overheads) are skipped: re-rendering recomputes them.
    fn from_json(j: &Json) -> Result<Report, String> {
        let schema = j.get("schema")?.as_str()?;
        if schema != SCHEMA {
            return Err(format!("schema is {schema}, want {SCHEMA}"));
        }
        let kernels = j
            .get("kernels")?
            .as_array()?
            .iter()
            .map(|k| {
                Ok(KernelRow {
                    name: k.get("name")?.as_str()?.to_string(),
                    shape: k.get("shape")?.as_str()?.to_string(),
                    reference_ns: k.get("reference_ns_per_call")?.as_u64()?,
                    optimized_ns: k.get("optimized_ns_per_call")?.as_u64()?,
                })
            })
            .collect::<Result<_, String>>()?;
        let models = j
            .get("models")?
            .as_array()?
            .iter()
            .map(|m| {
                let mut rates = [0.0; 4];
                for (rate, arm) in rates.iter_mut().zip(ARMS) {
                    *rate = m.get(&format!("{arm}_images_per_s"))?.as_f64()?;
                }
                Ok(ModelRow {
                    benchmark: m.get("benchmark")?.as_str()?.to_string(),
                    bits: u32::try_from(m.get("bits")?.as_u64()?).map_err(|e| e.to_string())?,
                    images: usize::try_from(m.get("images")?.as_u64()?)
                        .map_err(|e| e.to_string())?,
                    rates,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Report {
            quick: j.get("quick")?.as_bool()?,
            kernels,
            models,
        })
    }
}

/// Validates a report: it must parse into rows whose values pass the
/// gates and whose rendering is byte-identical to `text`.
fn check(text: &str) -> Result<Report, String> {
    let report = Report::from_json(&Json::parse(text)?)?;
    let violations = report.violations();
    if !violations.is_empty() {
        return Err(violations.join("; "));
    }
    if report.render() != text {
        return Err(format!("not the canonical {SCHEMA} rendering of its rows"));
    }
    Ok(report)
}

/// The JSON subset the report uses: no null, no string escapes.
#[derive(Debug, PartialEq)]
enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Nesting deeper than this is rejected instead of recursed into.
    const MAX_DEPTH: usize = 8;

    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value(0)?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    fn get(&self, key: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing key {key}")),
            _ => Err(format!("want an object holding {key}")),
        }
    }

    fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("want a string, got {other:?}")),
        }
    }

    fn as_bool(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("want a bool, got {other:?}")),
        }
    }

    fn as_f64(&self) -> Result<f64, String> {
        match self {
            Json::Num(x) => Ok(*x),
            other => Err(format!("want a number, got {other:?}")),
        }
    }

    fn as_u64(&self) -> Result<u64, String> {
        let x = self.as_f64()?;
        if x >= 0.0 && x.fract() == 0.0 && x < u64::MAX as f64 {
            Ok(x as u64)
        } else {
            Err(format!("want an unsigned integer, got {x}"))
        }
    }

    fn as_array(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(format!("want an array, got {other:?}")),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while matches!(self.s.get(self.i), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.ws();
        self.s
            .get(self.i)
            .copied()
            .ok_or_else(|| "unexpected end of report".to_string())
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek()? != c {
            return Err(format!("want `{}` at offset {}", c as char, self.i));
        }
        self.i += 1;
        Ok(())
    }

    /// After an item: `true` if another follows, `false` at `close`.
    fn next_item(&mut self, close: u8) -> Result<bool, String> {
        let c = self.peek()?;
        self.i += 1;
        match c {
            b',' => Ok(true),
            c if c == close => Ok(false),
            _ => Err(format!(
                "want `,` or `{}` at offset {}",
                close as char,
                self.i - 1
            )),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > Json::MAX_DEPTH {
            return Err(format!("nesting deeper than {}", Json::MAX_DEPTH));
        }
        match self.peek()? {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                if self.peek()? == b'}' {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value(depth + 1)?));
                    if !self.next_item(b'}')? {
                        return Ok(Json::Obj(fields));
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    if !self.next_item(b']')? {
                        return Ok(Json::Arr(items));
                    }
                }
            }
            b'"' => self.string().map(Json::Str),
            b't' | b'f' => {
                let b = self.s[self.i] == b't';
                let word: &[u8] = if b { b"true" } else { b"false" };
                if !self.s[self.i..].starts_with(word) {
                    return Err(format!("bad literal at offset {}", self.i));
                }
                self.i += word.len();
                Ok(Json::Bool(b))
            }
            _ => {
                let start = self.i;
                while matches!(
                    self.s.get(self.i),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.i += 1;
                }
                let tok = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII token");
                tok.parse()
                    .map(Json::Num)
                    .map_err(|_| format!("bad value at offset {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.i;
        while let Some(&c) = self.s.get(self.i) {
            match c {
                b'"' => {
                    self.i += 1;
                    let s = std::str::from_utf8(&self.s[start..self.i - 1])
                        .map_err(|e| e.to_string())?;
                    return Ok(s.to_string());
                }
                b'\\' | 0..=0x1f => {
                    return Err(format!("unsupported string byte at offset {}", self.i))
                }
                _ => self.i += 1,
            }
        }
        Err("unterminated string".to_string())
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" | "--check" => {
                let Some(v) = it.next() else {
                    eprintln!("error: {a} wants a path");
                    std::process::exit(2);
                };
                if a == "--out" {
                    out = Some(v.clone());
                } else {
                    check_path = Some(v.clone());
                }
            }
            other => {
                eprintln!("error: unknown flag {other}");
                eprintln!("usage: gates [--quick] [--out PATH] | gates --check PATH");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = check_path {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("error: reading {path}: {e}");
            std::process::exit(1);
        });
        match check(&text) {
            Ok(_) => eprintln!("OK: {path} conforms to {SCHEMA}"),
            Err(e) => {
                eprintln!("FAIL: {path}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let report = run(quick);
    let json = report.render();
    match &out {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| {
                eprintln!("error: writing {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
    let violations = report.violations();
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("FAIL: {v}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "OK: minimum speedup x{:.2} >= x{MIN_SPEEDUP}, worst overhead {:+.1}% <= {:.0}%",
        report.min_speedup(),
        report.worst_overhead() * 100.0,
        MAX_OVERHEAD * 100.0
    );
}

fn run(quick: bool) -> Report {
    let reps = if quick { 3 } else { 20 };
    eprintln!("# kernel micro-benchmarks ({reps} reps)");
    let kernels = bench_kernels(reps);
    for k in &kernels {
        eprintln!(
            "  {:<12} {:<26} ref {:>10} ns  opt {:>10} ns",
            k.name, k.shape, k.reference_ns, k.optimized_ns
        );
    }

    let models: &[ModelKind] = if quick {
        &[ModelKind::VggNet]
    } else {
        &ModelKind::ALL
    };
    let images = if quick { 12 } else { 40 };
    eprintln!("# end-to-end quantized inference ({images} images/arm, {REPS} interleaved reps)");
    let models: Vec<ModelRow> = models.iter().map(|&m| bench_model(m, images)).collect();
    for m in &models {
        eprintln!(
            "  {:<10} INT{} ref {:>8.1}  off {:>8.1} (x{:.2})  detect {:>8.1} ({:+.1}%)  \
             correct {:>8.1} ({:+.1}%) img/s",
            m.benchmark,
            m.bits,
            m.rates[0],
            m.rates[1],
            m.speedup(),
            m.rates[2],
            m.overhead(2) * 100.0,
            m.rates[3],
            m.overhead(3) * 100.0,
        );
    }
    Report {
        quick,
        kernels,
        models,
    }
}

/// ns/call of `f`, median of `reps` timed calls after one warm-up call.
fn time_ns<F: FnMut()>(reps: usize, mut f: F) -> u64 {
    f();
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    u64::try_from(samples[samples.len() / 2]).unwrap_or(u64::MAX)
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

fn bench_kernels(reps: usize) -> Vec<KernelRow> {
    let mut rows = Vec::new();
    let mut scratch = Scratch::new();
    let mut row = |name: &str, shape: &str, reference_ns, optimized_ns| {
        rows.push(KernelRow {
            name: name.to_string(),
            shape: shape.to_string(),
            reference_ns,
            optimized_ns,
        });
    };

    // A mid-network conv layer: 16x16x32 input, 3x3, 64 filters.
    let p = ConvParams {
        in_ch: 32,
        out_ch: 64,
        k: 3,
        stride: 1,
        pad: 1,
        relu: true,
    };
    let shape = "16x16x32 k3 s1 p1 oc64";
    let xf = synth_tensor(16, 16, 32);
    let wf: Vec<f32> = (0..p.weight_count())
        .map(|i| ((i as f32) * 0.73).cos())
        .collect();
    let bf: Vec<f32> = (0..p.out_ch).map(|i| i as f32 * 0.01).collect();
    let (oh, ow) = p.out_hw(16, 16);
    let mut out_f = vec![0.0f32; oh * ow * p.out_ch];
    row(
        "conv2d_f32",
        shape,
        time_ns(reps, || {
            black_box(reference::conv2d_f32(black_box(&xf), &p, &wf, &bf));
        }),
        time_ns(reps, || {
            kernels::conv2d_f32_into(black_box(&xf), &p, &wf, &bf, &mut scratch, &mut out_f);
            black_box(&out_f);
        }),
    );

    let xq = synth_qtensor(16, 16, 32);
    let wq: Vec<i8> = (0..p.weight_count())
        .map(|i| (((i * 29) % 255) as i32 - 127) as i8)
        .collect();
    let bq: Vec<i32> = (0..p.out_ch).map(|i| i as i32 * 3 - 90).collect();
    let mut packed = Vec::new();
    kernels::pack_conv_weights(&p, &wq, &mut packed);
    let mut acc = vec![0i32; oh * ow * p.out_ch];
    row(
        "conv2d_q",
        shape,
        time_ns(reps, || {
            black_box(reference::conv2d_q(black_box(&xq), &p, &wq, &bq));
        }),
        time_ns(reps, || {
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
    );

    // A readout-sized dense layer: 1024 -> 256.
    let (n, m) = (1024usize, 256usize);
    let shape = "1024->256";
    let xf = synth_tensor(1, 1, n);
    let wf: Vec<f32> = (0..n * m).map(|i| ((i as f32) * 0.31).sin()).collect();
    let bf: Vec<f32> = (0..m).map(|i| i as f32 * 0.01).collect();
    let mut out_f = vec![0.0f32; m];
    row(
        "dense_f32",
        shape,
        time_ns(reps, || {
            black_box(reference::dense_f32(black_box(&xf), m, true, &wf, &bf));
        }),
        time_ns(reps, || {
            kernels::dense_f32_into(black_box(xf.data()), m, true, &wf, &bf, &mut out_f);
            black_box(&out_f);
        }),
    );

    let xq = synth_qtensor(1, 1, n);
    let wq: Vec<i8> = (0..n * m)
        .map(|i| (((i * 17) % 255) as i32 - 127) as i8)
        .collect();
    let bq: Vec<i32> = (0..m).map(|i| i as i32 - 100).collect();
    let mut acc = vec![0i32; m];
    row(
        "dense_q",
        shape,
        time_ns(reps, || {
            black_box(reference::dense_q(black_box(&xq), n, m, &wq, &bq));
        }),
        time_ns(reps, || {
            kernels::dense_q_into(black_box(&xq), n, m, &wq, &bq, &mut acc);
            black_box(&acc);
        }),
    );

    rows
}

/// Puts `q` in the executor configuration of arm `k` of [`ARMS`].
fn set_arm(q: &mut QuantizedGraph, k: usize) {
    q.set_reference_kernels(k == 0);
    q.set_defense(match k {
        2 => DefensePolicy::detect(),
        3 => DefensePolicy::correct(),
        _ => DefensePolicy::off(),
    });
}

fn bench_model(kind: ModelKind, images: usize) -> ModelRow {
    let graph = kind.build(ModelScale::Paper).fold_batch_norms();
    let in_shape = graph.input_shape();
    let ds = SyntheticDataset::new(in_shape.h, in_shape.w, in_shape.c, graph.num_classes(), 42);
    let mut q = QuantizedGraph::quantize(&graph, 8, &ds.images(4)).expect("quantize");
    let batch: Vec<Tensor> = (0..images).map(|i| ds.image(i).0).collect();
    let predict_all = |q: &mut QuantizedGraph| -> Vec<usize> {
        batch
            .iter()
            .map(|im| black_box(q.predict(im).expect("predict")))
            .collect()
    };

    // Warm every arm (arena growth, cache residency) and verify they all
    // classify the batch alike before timing any of them.
    let mut preds = Vec::new();
    for k in 0..ARMS.len() {
        set_arm(&mut q, k);
        preds.push(predict_all(&mut q));
    }
    for (arm, p) in ARMS.iter().zip(&preds) {
        assert_eq!(*p, preds[0], "{arm} arm diverged on {kind:?}");
    }

    let mut samples: [Vec<f64>; 4] = Default::default();
    for _ in 0..REPS {
        for (k, arm) in samples.iter_mut().enumerate() {
            set_arm(&mut q, k);
            let t = Instant::now();
            predict_all(&mut q);
            arm.push(images as f64 / t.elapsed().as_secs_f64());
        }
    }
    let mut rates = [0.0f64; 4];
    for (rate, arm) in rates.iter_mut().zip(&mut samples) {
        arm.sort_by(f64::total_cmp);
        *rate = (arm[arm.len() / 2] * 100.0).round() / 100.0;
    }
    ModelRow {
        benchmark: kind.name().to_string(),
        bits: q.bits(),
        images,
        rates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            quick: true,
            kernels: vec![KernelRow {
                name: "conv2d_q".to_string(),
                shape: "16x16x32 k3 s1 p1 oc64".to_string(),
                reference_ns: 1_546_527,
                optimized_ns: 327_424,
            }],
            models: vec![ModelRow {
                benchmark: "VGGNet".to_string(),
                bits: 8,
                images: 12,
                rates: [316.91, 1197.97, 1180.5, 1001.25],
            }],
        }
    }

    #[test]
    fn rendered_report_checks_back_to_its_rows() {
        let r = sample();
        assert_eq!(check(&r.render()), Ok(r));
    }

    #[test]
    fn truncated_report_fails() {
        let text = sample().render();
        for cut in [0, 1, text.len() / 2, text.len() - 3, text.len() - 1] {
            assert!(check(&text[..cut]).is_err(), "cut at {cut} passed");
        }
    }

    #[test]
    fn wrong_schema_tag_fails() {
        let text = sample().render();
        for tag in ["redvolt-bench/gates/v2", "redvolt-bench/kernels/v1"] {
            let e = check(&text.replace(SCHEMA, tag)).unwrap_err();
            assert!(e.contains("schema"), "{e}");
        }
    }

    #[test]
    fn non_finite_gated_value_fails() {
        let text = sample().render();
        for bad in ["1e999", "-1e999", "NaN", "inf"] {
            let edited = text.replace(
                "\"off_images_per_s\": 1197.97",
                &format!("\"off_images_per_s\": {bad}"),
            );
            assert_ne!(edited, text);
            assert!(check(&edited).is_err(), "{bad} passed");
        }
        let edited = text.replace("\"min_speedup\": 3.780", "\"min_speedup\": NaN");
        assert_ne!(edited, text);
        assert!(check(&edited).is_err());
    }

    #[test]
    fn out_of_range_gated_value_fails() {
        // Consistently rendered, so only the gates can reject them.
        let mut slow = sample();
        slow.models[0].rates[0] = 1200.0;
        assert!(check(&slow.render()).unwrap_err().contains("speedup"));
        let mut costly = sample();
        costly.models[0].rates[3] = 950.0;
        assert!(check(&costly.render()).unwrap_err().contains("overhead"));
        // A hand-edited derived value no longer matches its rows.
        let text = sample().render();
        let edited = text.replace("\"worst_overhead\": 0.196", "\"worst_overhead\": 0.100");
        assert_ne!(edited, text);
        assert!(check(&edited).is_err());
    }

    #[test]
    fn hostile_nesting_is_rejected_without_recursing() {
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn committed_baseline_passes() {
        let baseline = include_str!("../../../../BENCH_13.json");
        let report = check(baseline).expect("committed baseline");
        assert!(!report.quick, "the baseline is a full run");
    }
}
