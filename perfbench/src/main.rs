//! `redvolt-perfbench`: the repository benchmark.
//!
//! Times calls into the public functions of each layer from outside the
//! program, on two workloads:
//!
//! * `serve_subvmin` — the serving smoke scenario scaled to tens of
//!   thousands of requests (see `serve_wl`);
//! * `campaign_sweep` — the `repro --quick` voltage-sweep grid (see
//!   `campaign_wl`).
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_subvmin --seed 42 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` runs the
//! traced variant and prints the per-layer metrics. The last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Human-readable lines go to
//! standard error. Metric meanings are documented in `perfbench/METRICS.md`.

mod campaign_wl;
mod common;
mod serve_wl;
mod trace;

use common::{Context, Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// The seed the goldens were recorded at.
const DEFAULT_SEED: u64 = 42;

const WORKLOADS: [&str; 2] = ["serve_subvmin", "campaign_sweep"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn value<'a>(args: &'a [String], i: usize, flag: &str) -> Result<&'a str, String> {
    args.get(i + 1)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let v = value(&args, i, &args[i])?;
        match args[i].as_str() {
            "--workload" => out.workload = v.to_string(),
            "--seed" => out.seed = v.parse().map_err(|e| format!("--seed {v}: {e}"))?,
            "--seconds" => {
                out.seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err(format!("--seconds {v}: must be in (0, 600]"));
                }
            }
            "--trace" => {
                out.trace = match v {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {v}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            out.workload
        ));
    }
    Ok(out)
}

/// Runs the correctness gate, then the workload: untraced for the
/// end-to-end metrics, traced for the per-layer ones.
fn run(ctx: &Context) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    serve_wl::golden_gate(&mut out)?;
    let values = match (ctx.workload.as_str(), ctx.trace) {
        ("serve_subvmin", false) => serve_wl::untraced(ctx, &mut out)?,
        ("serve_subvmin", true) => serve_wl::traced(ctx, &mut out)?,
        (_, false) => campaign_wl::untraced(ctx, &mut out)?,
        (_, true) => campaign_wl::traced(ctx, &mut out)?,
    };
    out.metrics = if ctx.trace {
        values.into_metrics(PER_LAYER, false)?
    } else {
        values.into_metrics(END_TO_END, true)?
    };
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = match Context::new(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("# {}", ctx.host_line());
    let mut outcome = match run(&ctx) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    ctx.check_exact_repeat(&mut outcome);
    if !outcome.correct {
        // A run whose correctness check fails counts as failed in full.
        outcome.failed = outcome.attempted;
    }
    for m in &outcome.metrics {
        eprintln!(
            "{:<32} {:>22?} {:<8} {}",
            m.name,
            m.value,
            m.unit.as_str(),
            m.kind.label()
        );
    }
    match outcome.to_json() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
