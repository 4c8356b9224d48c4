//! `serve_subvmin`: the serving smoke scenario (`ServeConfig::smoke()`:
//! 3 boards, tiny VGGNet, defense `correct`, governor on, 10 mV below
//! each board's calibrated Vmin, open-loop Poisson arrivals at 40k req/s
//! in virtual time) scaled to [`REQUESTS`] requests on one host thread.

use crate::common::{self, fnv1a, median, quantile, timed, Context, Outcome, Values, VNOM_MV};
use crate::trace::{check_accounting, Tracer};
use redvolt_core::bench_suite::{BenchmarkId, Workload, WorkloadConfig};
use redvolt_core::experiment::{Accelerator, AcceleratorConfig};
use redvolt_core::workload_cache;
use redvolt_nn::models::ModelScale;
use redvolt_serve::fleet::FleetBoard;
use redvolt_serve::report::ServeReport;
use redvolt_serve::sim::{self, BoardSummary, ServeConfig, ServeOutcome};

/// Offered requests per timed `sim::run`.
const REQUESTS: u64 = 16_000;
/// Cold set-ups per run (the median is reported).
const SETUP_REPS: usize = 9;

fn config(seed: u64, requests: u64) -> ServeConfig {
    ServeConfig {
        seed,
        requests,
        image_jobs: 1,
        ..ServeConfig::smoke()
    }
}

/// The accelerator every fleet board is brought up with, as `sim::run`
/// derives it from the serving config.
fn accelerator_config(cfg: &ServeConfig, board: usize) -> AcceleratorConfig {
    AcceleratorConfig {
        board_sample: board as u32,
        eval_images: cfg.eval_images,
        seed: cfg.seed,
        defense: cfg.defense,
        repetitions: 1,
        governor: false,
        ..AcceleratorConfig::tiny(cfg.benchmark)
    }
}

/// Every rendering of a finished run.
struct Renders {
    text: String,
    jsonl: String,
    prom: String,
    chrome: String,
    flight: String,
}

impl Renders {
    fn digest(&self) -> u64 {
        [
            &self.text,
            &self.jsonl,
            &self.prom,
            &self.chrome,
            &self.flight,
        ]
        .iter()
        .fold(0, |h, s| fnv1a(h, s.as_bytes()))
    }
}

const RENDER_SPANS: [&str; 5] = [
    "serve.render_ms.text",
    "serve.render_ms.jsonl",
    "serve.render_ms.prom",
    "serve.render_ms.chrome_trace",
    "serve.render_ms.flight",
];

/// Renders `report` in every format, each under its own span when traced.
fn render(report: &ServeReport, tracer: Option<(&Tracer, u64)>) -> Renders {
    let each = |i: usize, f: &dyn Fn() -> String| match tracer {
        Some((t, parent)) => t.span(RENDER_SPANS[i], Some(parent), 0, |_| f()),
        None => f(),
    };
    Renders {
        text: each(0, &|| report.to_text()),
        jsonl: each(1, &|| report.to_jsonl()),
        prom: each(2, &|| report.to_prometheus()),
        chrome: each(3, &|| report.to_chrome_trace()),
        flight: each(4, &|| report.to_flight_jsonl()),
    }
}

/// Correctness gate: the smoke scenario must render byte-for-byte as the
/// committed goldens. The goldens are read, never written.
pub fn golden_gate(out: &mut Outcome) -> Result<(), String> {
    let cfg = ServeConfig::smoke();
    let report = ServeReport::build(&cfg, sim::run(&cfg).map_err(|e| e.to_string())?);
    for (ext, got) in [
        ("txt", report.to_text()),
        ("jsonl", report.to_jsonl()),
        ("prom", report.to_prometheus()),
    ] {
        let path = format!("tests/golden/serve_smoke.{ext}");
        let want = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        if want != got {
            out.fail(&format!("serve smoke output differs from {path}"));
        }
    }
    Ok(())
}

/// One timed serving pass: `sim::run`, report build and every render.
struct Pass {
    secs: f64,
    report: ServeReport,
    renders: Renders,
}

fn serve_pass(cfg: &ServeConfig, tracer: Option<(&Tracer, u64)>) -> Result<Pass, String> {
    let (result, secs) = timed(|| -> Result<_, String> {
        let outcome = match tracer {
            Some((t, parent)) => t.span("serve.loop", Some(parent), 0, |_| sim::run(cfg)),
            None => sim::run(cfg),
        }
        .map_err(|e| e.to_string())?;
        let report = match tracer {
            Some((t, parent)) => t.span("serve.report_build", Some(parent), 0, |_| {
                ServeReport::build(cfg, outcome)
            }),
            None => ServeReport::build(cfg, outcome),
        };
        let renders = render(&report, tracer);
        Ok((report, renders))
    });
    let (report, renders) = result?;
    Ok(Pass {
        secs,
        report,
        renders,
    })
}

/// Conservation and silent-corruption invariants of one pass; returns
/// the failed-request count.
fn check_pass(pass: &Pass, out: &mut Outcome) -> u64 {
    let c = &pass.report.outcome.counters;
    if c.completed + c.shed + c.dropped_on_crash != c.offered {
        out.fail(&format!(
            "completed {} + shed {} + dropped {} != offered {}",
            c.completed, c.shed, c.dropped_on_crash, c.offered
        ));
    }
    if c.silently_corrupt != 0 {
        out.fail(&format!(
            "{} silently corrupt responses",
            c.silently_corrupt
        ));
    }
    out.attempted += c.offered;
    c.shed + c.dropped_on_crash + c.silently_corrupt
}

fn images_of(outcome: &ServeOutcome) -> u64 {
    outcome.batch_spans.iter().map(|b| b.requests as u64).sum()
}

/// Cold set-up: a 1-request `sim::run` after emptying the workload cache
/// (model build, quantization, reference pass, fleet bring-up and Vmin
/// calibration). Leaves the cache warm.
fn setup_once(seed: u64) -> Result<f64, String> {
    workload_cache::reset();
    let (r, secs) = timed(|| sim::run(&config(seed, 1)));
    r.map_err(|e| e.to_string())?;
    Ok(secs)
}

/// Modeled guards: each board's GOPs/W gain at its calibrated Vmin over
/// nominal, and its guardband as a fraction of Vnom.
fn modeled_guards(
    cfg: &ServeConfig,
    boards: &[BoardSummary],
    v: &mut Values,
) -> Result<(), String> {
    let mut gains = Vec::new();
    let mut guardbands = Vec::new();
    for b in boards {
        let mut acc =
            Accelerator::bring_up(&accelerator_config(cfg, b.index)).map_err(|e| e.to_string())?;
        let nominal = acc
            .measure(cfg.calib.probe_images)
            .map_err(|e| e.to_string())?;
        acc.set_vccint_mv(b.vmin_mv).map_err(|e| e.to_string())?;
        let at_vmin = acc
            .measure(cfg.calib.probe_images)
            .map_err(|e| e.to_string())?;
        gains.push(at_vmin.gops_per_w / nominal.gops_per_w);
        guardbands.push((VNOM_MV - b.vmin_mv) / VNOM_MV);
    }
    common::set_guards(v, &gains, &guardbands);
    Ok(())
}

/// Records the pass's deterministic outputs and checks they match every
/// earlier pass of this run.
fn pin_digest(pass: &Pass, out: &mut Outcome) {
    let d = pass.renders.digest();
    match out.digests.first() {
        Some((_, first)) if *first != d => out.fail("serve renderings differ between passes"),
        Some(_) => {}
        None => out.digests.push(("serve.renders".into(), d)),
    }
}

pub fn untraced(ctx: &Context, out: &mut Outcome) -> Result<Values, String> {
    let cfg = &config(ctx.seed, REQUESTS);
    let setups = (0..SETUP_REPS)
        .map(|_| setup_once(ctx.seed))
        .collect::<Result<Vec<_>, _>>()?;

    // Only the modeled results of the last pass are kept, so one pass's
    // buffers are alive at a time and `peak_rss_mb` measures one pass.
    let mut req_rates = Vec::new();
    let mut image_rates = Vec::new();
    let mut last = None;
    let phase = std::time::Instant::now();
    while last.is_none() || ctx.time_left(phase) {
        let pass = serve_pass(cfg, None)?;
        out.failed += check_pass(&pass, out);
        pin_digest(&pass, out);
        let r = pass.report;
        req_rates.push(r.outcome.counters.completed as f64 / pass.secs);
        image_rates.push(images_of(&r.outcome) as f64 / pass.secs);
        last = Some((r.p99_cycles, r.energy_per_completed_j, r.outcome.boards));
    }
    let (p99_cycles, energy_j, boards) = last.expect("at least one pass");
    eprintln!(
        "# serve passes {} req/s {:?}",
        req_rates.len(),
        req_rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    );

    let mut v = Values::default();
    v.set("setup_s", median(&setups));
    v.set("req_per_s", median(&req_rates));
    v.set("images_per_s", median(&image_rates));
    v.set("peak_rss_mb", common::peak_rss_mb()?);
    v.set(
        "ok_frac",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    v.set("sim_p99_cycles", p99_cycles as f64);
    v.set("energy_per_req_uj", energy_j * 1e6);
    modeled_guards(cfg, &boards, &mut v)?;
    Ok(v)
}

pub fn traced(ctx: &Context, out: &mut Outcome) -> Result<Values, String> {
    let cfg = &config(ctx.seed, REQUESTS);
    let tracer = Tracer::new(ctx.run_id.clone());
    let mut v = Values::default();

    // Set-up, split by layer: model build, the rest of workload
    // preparation, then the cold 1-request run.
    let prep_cfg = WorkloadConfig {
        benchmark: cfg.benchmark,
        bits: 8,
        scale: ModelScale::Tiny,
        prune_fraction: 0.0,
        calib_images: 8,
        eval_images: cfg.eval_images,
        seed: cfg.seed,
    };
    let (build_s, prepare_s) = tracer.span("setup", None, 0, |root| -> Result<_, String> {
        let (_, build_s) = tracer.span("nn.build", Some(root), 0, |_| {
            timed(|| std::hint::black_box(BenchmarkId::build(cfg.benchmark, ModelScale::Tiny)))
        });
        let (prepared, prepare_s) = tracer.span("core.prepare", Some(root), 0, |_| {
            timed(|| Workload::prepare(prep_cfg))
        });
        prepared.map_err(|e| e.to_string())?;
        tracer.span("serve.setup_run", Some(root), 0, |_| setup_once(ctx.seed))?;
        Ok((build_s, prepare_s))
    })?;
    v.set("nn.build_s", build_s);
    v.set("core.prepare_self_s", (prepare_s - build_s).max(0.0));

    // Alternate untraced and traced passes. The cache is warm, so every
    // bring-up in a timed pass must hit.
    let mut plain = Vec::new();
    let mut traced_secs = Vec::new();
    let mut phases = Vec::new();
    let mut last = None;
    let start = std::time::Instant::now();
    while last.is_none() || ctx.time_left(start) {
        let before = workload_cache::stats();
        let pass = serve_pass(cfg, None)?;
        let after = workload_cache::stats();
        v.set("core.cache_hits", (after.hits - before.hits) as f64);
        v.set("core.cache_misses", (after.misses - before.misses) as f64);
        out.failed += check_pass(&pass, out);
        pin_digest(&pass, out);
        plain.push(pass.secs);
        let (pass, root) = tracer.span("phase", None, 0, |root| {
            (serve_pass(cfg, Some((&tracer, root))), root)
        });
        let pass = pass?;
        out.failed += check_pass(&pass, out);
        pin_digest(&pass, out);
        traced_secs.push(pass.secs);
        phases.push(root);
        last = Some(pass);
    }
    let last = last.expect("at least one pass");
    let overhead = median(&traced_secs) / median(&plain) - 1.0;
    let tolerance = overhead.abs().max(0.01);

    // Replay each board's batch sequence on boards brought up and
    // calibrated as `sim::run` does.
    let o = &last.report.outcome;
    let replay_root = tracer.span("replay", None, 0, |root| {
        replay(cfg, o, &tracer, root, out).map(|()| root)
    })?;

    let spans = tracer.spans();
    let mut unattributed = Vec::new();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        let frac = check_accounting(&spans, s.id, tolerance, out);
        if s.name == "phase" {
            unattributed.push(frac);
        }
    }
    let sum_ms = |name: &str, parent: u64| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name && s.parent == Some(parent))
            .map(|s| s.dur_ns() as f64 * 1e-6)
            .sum()
    };
    let last_phase = *phases.last().expect("one phase");
    let loop_s = sum_ms("serve.loop", last_phase) * 1e-3;
    let batch_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "serve.batch")
        .map(|s| s.dur_ns() as f64 * 1e-3)
        .collect();
    let calibrate_ms = sum_ms("serve.calibrate", replay_root);
    let bring_up_ms = sum_ms("serve.bring_up", replay_root);
    v.set("serve.calibrate_ms", calibrate_ms);
    v.set("serve.loop_s", loop_s);
    v.set("serve.batch_us_p50", quantile(&batch_us, 0.5));
    v.set("serve.batch_us_p99", quantile(&batch_us, 0.99));
    v.set(
        "serve.loop_self_s",
        loop_s - batch_us.iter().sum::<f64>() * 1e-6 - (calibrate_ms + bring_up_ms) * 1e-3,
    );
    for name in RENDER_SPANS {
        v.set(name, sum_ms(name, last_phase));
    }
    let mut acc = Accelerator::bring_up(&accelerator_config(cfg, 0)).map_err(|e| e.to_string())?;
    v.set("dpu.image_us.VGGNet", common::image_us(&mut acc)?);

    v.set("serve.batches", o.counters.batches as f64);
    v.set(
        "serve.images_per_batch",
        images_of(o) as f64 / o.counters.batches.max(1) as f64,
    );
    v.set(
        "serve.events",
        o.boards.iter().map(|b| b.events).sum::<u64>() as f64,
    );
    v.set("serve.escalations", o.counters.escalations as f64);
    v.set(
        "dpu.modeled_cycles",
        o.boards.iter().map(|b| b.busy_cycles).sum::<u64>() as f64,
    );
    v.set("telemetry.spans", o.trace_spans.len() as f64);
    v.set("telemetry.spans_dropped", o.trace_dropped as f64);
    v.set(
        "telemetry.chrome_trace_bytes",
        last.renders.chrome.len() as f64,
    );
    v.set("bench.trace_overhead_frac", overhead);
    v.set("bench.unattributed_frac", median(&unattributed));

    let path = ctx.write_trace(&tracer.to_jsonl())?;
    eprintln!("# spans written to {}", path.display());
    Ok(v)
}

/// Replays every board's batch sequence from `outcome.batch_spans`
/// through `FleetBoard::run_serving_batch`, following the recorded crash
/// and escalation decisions so each board walks the same operating
/// points. The requests' image indices are not part of the outcome, so
/// each board's batches walk the eval set in order instead.
fn replay(
    cfg: &ServeConfig,
    outcome: &ServeOutcome,
    tracer: &Tracer,
    root: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let acc_cfg = accelerator_config(cfg, 0);
    let mut boards = Vec::with_capacity(cfg.boards);
    for summary in &outcome.boards {
        let mut board = tracer
            .span("serve.bring_up", Some(root), 0, |_| {
                FleetBoard::bring_up(summary.index, &acc_cfg)
            })
            .map_err(|e| e.to_string())?;
        let ops = board.accelerator().workload().dense_equivalent_ops;
        tracer
            .span("serve.calibrate", Some(root), 0, |_| {
                board.calibrate(&cfg.calib, ops)
            })
            .map_err(|e| e.to_string())?;
        board.set_image_jobs(cfg.image_jobs);
        if board.vmin_mv != summary.vmin_mv || board.base_mv != summary.base_mv {
            out.fail(&format!(
                "replayed board {} calibrated to {}/{} mV, the run to {}/{} mV",
                summary.index, board.vmin_mv, board.base_mv, summary.vmin_mv, summary.base_mv
            ));
        }
        boards.push(board);
    }
    let mut served = vec![0usize; boards.len()];
    for span in &outcome.batch_spans {
        let board = &mut boards[span.board];
        let first = served[span.board];
        let indices: Vec<usize> = (first..first + span.requests)
            .map(|i| i % cfg.eval_images)
            .collect();
        served[span.board] += span.requests;
        let exec = tracer
            .span("serve.batch", Some(root), 0, |_| {
                board.run_serving_batch(&indices, cfg.batch_overhead_cycles)
            })
            .map_err(|e| e.to_string())?;
        std::hint::black_box(exec);
        if span.crashed {
            board.on_crash();
        } else if cfg.governor && span.events > 0 {
            board.escalate();
        }
    }
    Ok(())
}
