//! Shared pieces: run context, metrics, statistics, the result line and
//! the exact-repeat store.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use redvolt_core::experiment::Accelerator;
use redvolt_nn::tensor::Tensor;

/// Directory (relative to the repository root) for traces and the
/// exact-repeat store.
pub const OUT_DIR: &str = ".bench_out";

/// Nominal `VCCINT`, mV.
pub const VNOM_MV: f64 = 850.0;
/// The paper's mean GOPs/W gain at Vmin over Vnom.
pub const VMIN_GAIN_PAPER: f64 = 2.6;
/// The paper's guardband as a fraction of Vnom: (850 - 570) / 850 mV.
pub const GUARDBAND_PAPER: f64 = (850.0 - 570.0) / 850.0;

/// Sets the modeled guards from per-board (or per-benchmark) GOPs/W
/// gains at Vmin and guardband fractions: their means, with the
/// calibration residuals against the paper's anchors on standard error.
/// The model is fitted to these anchors, so the residuals are not a
/// validation.
pub fn set_guards(v: &mut Values, gains: &[f64], guardbands: &[f64]) {
    let mean = |x: &[f64]| x.iter().sum::<f64>() / x.len() as f64;
    let (gain, guardband) = (mean(gains), mean(guardbands));
    eprintln!(
        "# calibration residuals: vmin_gain_err {:?} (vs {VMIN_GAIN_PAPER}x), guardband_err {:?} (vs {GUARDBAND_PAPER:.4})",
        (gain / VMIN_GAIN_PAPER - 1.0).abs(),
        (guardband - GUARDBAND_PAPER).abs()
    );
    v.set("vmin_gain", gain);
    v.set("guardband_frac", guardband);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    Seconds,
    Millis,
    Micros,
    PerSecond,
    Megabytes,
    Fraction,
    Ratio,
    Cycles,
    MicroJoules,
    Bytes,
    Count,
}

impl Unit {
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::Seconds => "s",
            Unit::Millis => "ms",
            Unit::Micros => "us",
            Unit::PerSecond => "1/s",
            Unit::Megabytes => "MB",
            Unit::Fraction => "fraction",
            Unit::Ratio => "x",
            Unit::Cycles => "cycles",
            Unit::MicroJoules => "uJ",
            Unit::Bytes => "bytes",
            Unit::Count => "count",
        }
    }
}

/// One reported metric. Modeled quantities (virtual time, modeled
/// energy, calibration residuals) and counts must repeat exactly across
/// runs of one build and seed.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: Unit,
    pub kind: Kind,
}

/// How a metric is produced: host time, a simulated quantity, or an
/// exact count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Host,
    Modeled,
    Count,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Modeled => "modeled",
            Kind::Count => "exact",
        }
    }
}

/// The end-to-end metrics, printed by every untraced run of every
/// workload, in this order.
pub const END_TO_END: &[(&str, Unit, Kind)] = &[
    ("setup_s", Unit::Seconds, Kind::Host),
    ("req_per_s", Unit::PerSecond, Kind::Host),
    ("images_per_s", Unit::PerSecond, Kind::Host),
    ("peak_rss_mb", Unit::Megabytes, Kind::Host),
    ("ok_frac", Unit::Fraction, Kind::Count),
    ("sim_p99_cycles", Unit::Cycles, Kind::Modeled),
    ("energy_per_req_uj", Unit::MicroJoules, Kind::Modeled),
    ("vmin_gain", Unit::Ratio, Kind::Modeled),
    ("guardband_frac", Unit::Fraction, Kind::Modeled),
];

/// The benchmarks whose per-image DPU time is reported.
pub const DPU_IMAGE_METRICS: [&str; 5] = [
    "dpu.image_us.VGGNet",
    "dpu.image_us.GoogleNet",
    "dpu.image_us.AlexNet",
    "dpu.image_us.ResNet50",
    "dpu.image_us.Inception",
];

/// The per-layer metrics, printed by every traced run of every workload,
/// in this order. A layer a workload does not run reports 0.
pub const PER_LAYER: &[(&str, Unit, Kind)] = &[
    ("nn.build_s", Unit::Seconds, Kind::Host),
    ("core.prepare_self_s", Unit::Seconds, Kind::Host),
    ("core.cache_hits", Unit::Count, Kind::Count),
    ("core.cache_misses", Unit::Count, Kind::Count),
    ("core.measure_clean_ms_p50", Unit::Millis, Kind::Host),
    ("core.measure_clean_ms_p95", Unit::Millis, Kind::Host),
    ("core.measure_fault_ms_p50", Unit::Millis, Kind::Host),
    (DPU_IMAGE_METRICS[0], Unit::Micros, Kind::Host),
    (DPU_IMAGE_METRICS[1], Unit::Micros, Kind::Host),
    (DPU_IMAGE_METRICS[2], Unit::Micros, Kind::Host),
    (DPU_IMAGE_METRICS[3], Unit::Micros, Kind::Host),
    (DPU_IMAGE_METRICS[4], Unit::Micros, Kind::Host),
    ("core.cell_s_max", Unit::Seconds, Kind::Host),
    ("core.executor_util", Unit::Fraction, Kind::Host),
    ("core.set_vccint_us_p50", Unit::Micros, Kind::Host),
    ("pmbus.transactions", Unit::Count, Kind::Count),
    ("fpga.power_cycles", Unit::Count, Kind::Count),
    ("serve.calibrate_ms", Unit::Millis, Kind::Host),
    ("serve.loop_s", Unit::Seconds, Kind::Host),
    ("serve.batch_us_p50", Unit::Micros, Kind::Host),
    ("serve.batch_us_p99", Unit::Micros, Kind::Host),
    ("serve.loop_self_s", Unit::Seconds, Kind::Host),
    ("serve.render_ms.text", Unit::Millis, Kind::Host),
    ("serve.render_ms.jsonl", Unit::Millis, Kind::Host),
    ("serve.render_ms.prom", Unit::Millis, Kind::Host),
    ("serve.render_ms.chrome_trace", Unit::Millis, Kind::Host),
    ("serve.render_ms.flight", Unit::Millis, Kind::Host),
    ("serve.batches", Unit::Count, Kind::Count),
    ("serve.images_per_batch", Unit::Count, Kind::Count),
    ("serve.events", Unit::Count, Kind::Count),
    ("serve.escalations", Unit::Count, Kind::Count),
    ("faults.injected", Unit::Count, Kind::Count),
    ("faults.points", Unit::Count, Kind::Count),
    ("dpu.modeled_cycles", Unit::Cycles, Kind::Modeled),
    ("telemetry.spans", Unit::Count, Kind::Count),
    ("telemetry.spans_dropped", Unit::Count, Kind::Count),
    ("telemetry.chrome_trace_bytes", Unit::Bytes, Kind::Count),
    ("bench.trace_overhead_frac", Unit::Fraction, Kind::Host),
    ("bench.unattributed_frac", Unit::Fraction, Kind::Host),
];

/// Values a workload measured, by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The metrics of `table` in its order. Every name measured must be
    /// in the table; a table entry not measured is an error when
    /// `required`, and reads 0 (the workload bypasses that layer)
    /// otherwise.
    pub fn into_metrics(
        self,
        table: &[(&'static str, Unit, Kind)],
        required: bool,
    ) -> Result<Vec<Metric>, String> {
        if let Some(stray) = self.0.keys().find(|k| !table.iter().any(|(n, ..)| n == *k)) {
            return Err(format!("metric {stray} is not in the metric table"));
        }
        table
            .iter()
            .map(|&(name, unit, kind)| {
                let value = match self.0.get(name) {
                    Some(&v) => v,
                    None if required => return Err(format!("metric {name} was not measured")),
                    None => 0.0,
                };
                Ok(Metric {
                    name: name.to_string(),
                    value,
                    unit,
                    kind,
                })
            })
            .collect()
    }
}

/// What one benchmark run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Deterministic outputs (payload digests) that must repeat exactly
    /// but are not printed as metrics.
    pub digests: Vec<(String, u64)>,
}

impl Outcome {
    /// Marks the run incorrect with a reason on standard error.
    pub fn fail(&mut self, why: &str) {
        eprintln!("CHECK FAILED: {why}");
        self.correct = false;
    }

    pub fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name,
                m.value,
                m.unit.as_str()
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Run-wide settings and identity.
pub struct Context {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub run_id: String,
    /// FNV-1a digest of the program and benchmark sources; stands in for
    /// the commit, since the benchmark may run outside a git checkout.
    pub fingerprint: u64,
}

impl Context {
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Self, String> {
        let fingerprint = source_fingerprint()?;
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        let run_id = format!("{:016x}", fnv1a(nanos ^ std::process::id() as u64, b"run"));
        Ok(Context {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            run_id,
            fingerprint,
        })
    }

    /// One line describing the host and the build under test.
    pub fn host_line(&self) -> String {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        format!(
            "workload {} seed {} seconds {} trace {} | host nproc {nproc} cpu \"{cpu}\" | sources {:016x} | run {}",
            self.workload, self.seed, self.seconds, self.trace as u8, self.fingerprint, self.run_id
        )
    }

    /// Whether the timed phase has used its `--seconds`.
    pub fn time_left(&self, phase_start: Instant) -> bool {
        phase_start.elapsed().as_secs_f64() < self.seconds
    }

    /// Writes the traced run's spans under [`OUT_DIR`].
    pub fn write_trace(&self, jsonl: &str) -> Result<PathBuf, String> {
        let dir = Path::new(OUT_DIR).join("traces");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!(
            "{}-s{}-{}.jsonl",
            self.workload, self.seed, self.run_id
        ));
        std::fs::write(&path, jsonl).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }

    /// Exact-repeat check: every modeled metric, count and digest must
    /// equal what the first run of these sources, workload, seed and
    /// trace mode recorded. A difference is a behaviour change, not
    /// noise, so the run is marked incorrect.
    pub fn check_exact_repeat(&self, outcome: &mut Outcome) {
        let mut record = String::new();
        for m in outcome.metrics.iter().filter(|m| m.kind != Kind::Host) {
            let _ = writeln!(record, "{} {:?}", m.name, m.value);
        }
        for (name, d) in &outcome.digests {
            let _ = writeln!(record, "{name} {d:016x}");
        }
        let dir = Path::new(OUT_DIR).join("repeat");
        let path = dir.join(format!(
            "{:016x}-{}-s{}-t{}.txt",
            self.fingerprint, self.workload, self.seed, self.trace as u8
        ));
        match std::fs::read_to_string(&path) {
            Ok(first) if first == record => {}
            Ok(first) => {
                for (a, b) in first.lines().zip(record.lines()).filter(|(a, b)| a != b) {
                    eprintln!("behaviour change: first run `{a}`, this run `{b}`");
                }
                outcome.fail("modeled metrics or counts differ from the first run of this build");
            }
            Err(_) => {
                let written =
                    std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &record));
                if let Err(e) = written {
                    outcome.fail(&format!("cannot record {}: {e}", path.display()));
                }
            }
        }
    }
}

/// FNV-1a over `bytes`, seeded with `seed`.
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325 ^ seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn source_fingerprint() -> Result<u64, String> {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files)?;
                }
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
            {
                files.push(path);
            }
        }
        Ok(())
    }
    let mut files = vec![PathBuf::from("Cargo.lock")];
    for dir in ["crates", "vendor", "perfbench"] {
        walk(Path::new(dir), &mut files).map_err(|e| format!("reading {dir}/: {e}"))?;
    }
    files.sort();
    let mut h = 0;
    for f in files {
        let bytes = std::fs::read(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        h = fnv1a(h, f.to_string_lossy().as_bytes());
        h = fnv1a(h, &bytes);
    }
    Ok(h)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs`; 0 for empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Times `f`, returning its result and the elapsed host seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Images per `dpu.image_us` batch.
const DPU_BATCH: usize = 32;

/// Host microseconds per image of a [`DPU_BATCH`]-image `run_batch` at
/// the accelerator's current operating point (median of 5 batches).
pub fn image_us(acc: &mut Accelerator) -> Result<f64, String> {
    let eval = &acc.workload().eval.images;
    let images: Vec<Tensor> = (0..DPU_BATCH)
        .map(|i| eval[i % eval.len()].clone())
        .collect();
    let (runtime, workload) = acc.runtime_and_workload_mut();
    let mut samples = Vec::new();
    for seed in 0..5 {
        let (r, secs) = timed(|| runtime.run_batch(&mut workload.task, &images, seed));
        r.map_err(|e| e.to_string())?;
        samples.push(secs * 1e6 / DPU_BATCH as f64);
    }
    Ok(median(&samples))
}
