//! `campaign_sweep`: the `repro --quick` sweep grid. The five Table-1
//! benchmarks at paper scale on board 0, 850 to 520 mV in 5 mV steps,
//! 32 images per point and 3 repetitions at faulting points, defense
//! off, on [`JOBS`] cell workers.

use crate::common::{
    fnv1a, image_us, median, quantile, set_guards, timed, Context, Outcome, Values,
    DPU_IMAGE_METRICS,
};
use crate::trace::{check_accounting, Tracer};
use redvolt_bench::harness::{sweep_plan, Settings};
use redvolt_core::bench_suite::benchmark_index;
use redvolt_core::efficiency;
use redvolt_core::executor::{run_indexed, CampaignPlan, CampaignReport, CellAction};
use redvolt_core::experiment::{Accelerator, MeasureError};
use redvolt_core::guardband::VoltageRegions;
use redvolt_core::supervisor::{run_supervised_observed, SupervisorConfig};
use redvolt_core::sweep::VoltageSweep;
use redvolt_core::telemetry::CampaignTelemetry;
use redvolt_core::workload_cache;
use redvolt_serve::fleet::energy_per_inference_j;
use redvolt_telemetry::AttrValue;

/// Cell workers.
const JOBS: usize = 2;
/// Cold set-ups per untraced run (the median is reported).
const SETUP_REPS: usize = 3;
/// Accuracy tolerance the figures use to place Vmin.
const VMIN_TOLERANCE: f64 = 0.01;

/// The quick sweep grid with the workload seed as its master seed. At
/// the default seed 42 this is exactly the plan `harness::prefetch_sweeps`
/// runs for `repro --quick`.
fn plan(seed: u64) -> CampaignPlan {
    let mut plan = sweep_plan(&Settings::quick());
    plan.master_seed = seed;
    plan
}

/// Cold set-up: empties the workload cache and brings every cell's
/// workload up with its cell seed on the cell workers. Leaves the cache
/// holding every cell's workload.
fn setup_once(plan: &CampaignPlan) -> Result<f64, String> {
    workload_cache::reset();
    let (r, secs) = timed(|| {
        run_indexed(plan.len(), JOBS, |i, _| {
            Accelerator::bring_up(&plan.cells()[i].config.with_seed(plan.cell_seed(i))).map(drop)
        })
    });
    r.into_iter()
        .collect::<Result<Vec<()>, MeasureError>>()
        .map_err(|e| e.to_string())?;
    Ok(secs)
}

/// One timed pass over the grid through the campaign supervisor (what
/// `harness::prefetch_sweeps` runs), with its invariants checked.
struct Pass {
    secs: f64,
    report: CampaignReport,
    points: u64,
    images: u64,
    cache_hits: u64,
    cache_misses: u64,
}

fn campaign_pass(plan: &CampaignPlan, out: &mut Outcome) -> Result<Pass, String> {
    let before = workload_cache::stats();
    let (sup, secs) =
        timed(|| run_supervised_observed(plan, JOBS, &SupervisorConfig::default(), None, None));
    let sup = sup.map_err(|e| e.to_string())?;
    let after = workload_cache::stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    if hits != plan.len() as u64 || misses != 0 {
        out.fail(&format!(
            "timed pass: {hits} cache hits / {misses} misses, want {} / 0 (set-up leaked into the timed phase)",
            plan.len()
        ));
    }
    out.attempted += plan.len() as u64;
    out.failed += sup.aborted_cells as u64;
    if sup.aborted_cells > 0 {
        out.fail(&format!("{} aborted cells", sup.aborted_cells));
    }
    let digest = fnv1a(0, sup.report.to_csv().as_bytes());
    match out.digests.first() {
        Some((_, first)) if *first != digest => out.fail("campaign payload differs between passes"),
        Some(_) => {}
        None => out.digests.push(("campaign.payload".into(), digest)),
    }
    let images_per_point = images_per_point(plan);
    let mut points = 0;
    let mut runs = 0;
    for r in &sup.report.results {
        points += r.outcome.as_sweep().map_or(0, |s| s.points.len() as u64);
        runs += dpu_runs(r).count() as u64;
    }
    Ok(Pass {
        secs,
        report: sup.report,
        points,
        images: runs * images_per_point,
        cache_hits: hits,
        cache_misses: misses,
    })
}

fn images_per_point(plan: &CampaignPlan) -> u64 {
    match plan.cells()[0].action {
        CellAction::Sweep(s) => s.images as u64,
        _ => 0,
    }
}

/// The cell's completed `dpu_run` spans.
fn dpu_runs(
    r: &redvolt_core::executor::CellResult,
) -> impl Iterator<Item = &redvolt_telemetry::SpanRecord> {
    r.telemetry.spans.iter().filter(|s| {
        s.name == "dpu_run"
            && s.attrs
                .iter()
                .any(|(k, v)| k == "ok" && matches!(v, AttrValue::Str(s) if s == "1"))
    })
}

fn sweeps(report: &CampaignReport) -> Result<Vec<&VoltageSweep>, String> {
    report
        .results
        .iter()
        .map(|r| {
            r.outcome
                .as_sweep()
                .ok_or_else(|| format!("cell {} has no sweep", r.index))
        })
        .collect()
}

/// Modeled metrics of one pass: p99 modeled DPU-run cycles, mean modeled
/// energy per image, and per benchmark the GOPs/W gain at Vmin and the
/// guardband fraction.
fn modeled(plan: &CampaignPlan, report: &CampaignReport, v: &mut Values) -> Result<(), String> {
    let cycles: Vec<f64> = report
        .results
        .iter()
        .flat_map(|r| dpu_runs(r).map(|s| s.cycles() as f64))
        .collect();
    let mut energy = Vec::new();
    let mut gains = Vec::new();
    let mut guardbands = Vec::new();
    for (i, sweep) in sweeps(report)?.into_iter().enumerate() {
        let acc = Accelerator::bring_up(&plan.cells()[i].config.with_seed(plan.cell_seed(i)))
            .map_err(|e| e.to_string())?;
        let ops = acc.workload().dense_equivalent_ops;
        energy.extend(
            sweep
                .points
                .iter()
                .map(|m| energy_per_inference_j(m, ops) * 1e6),
        );
        let regions = VoltageRegions::from_sweep(sweep, VMIN_TOLERANCE).ok_or("empty sweep")?;
        let headline =
            efficiency::headline(sweep, regions.vmin_mv).ok_or("sweep did not cross Vmin")?;
        gains.push(headline.gain_at_vmin);
        guardbands.push(regions.guardband_fraction());
    }
    v.set("sim_p99_cycles", quantile(&cycles, 0.99));
    v.set(
        "energy_per_req_uj",
        energy.iter().sum::<f64>() / energy.len() as f64,
    );
    set_guards(v, &gains, &guardbands);
    Ok(())
}

pub fn untraced(ctx: &Context, out: &mut Outcome) -> Result<Values, String> {
    let plan = &plan(ctx.seed);
    let setups = (0..SETUP_REPS)
        .map(|_| setup_once(plan))
        .collect::<Result<Vec<_>, _>>()?;
    let mut point_rates = Vec::new();
    let mut image_rates = Vec::new();
    let mut last = None;
    let phase = std::time::Instant::now();
    while last.is_none() || ctx.time_left(phase) {
        let pass = campaign_pass(plan, out)?;
        point_rates.push(pass.points as f64 / pass.secs);
        image_rates.push(pass.images as f64 / pass.secs);
        last = Some(pass);
    }
    let last = last.expect("at least one pass");
    eprintln!("# campaign setups {setups:?} passes {image_rates:?} images/s");
    let mut v = Values::default();
    v.set("setup_s", median(&setups));
    v.set("req_per_s", median(&point_rates));
    v.set("images_per_s", median(&image_rates));
    v.set("peak_rss_mb", crate::common::peak_rss_mb()?);
    v.set(
        "ok_frac",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    modeled(plan, &last.report, &mut v)?;
    Ok(v)
}

/// Host times of one replayed sweep, by layer.
#[derive(Default)]
struct ReplayTimes {
    set_vccint_us: Vec<f64>,
    clean_ms: Vec<f64>,
    fault_ms: Vec<f64>,
}

/// Replays cell `i`'s sweep through the accelerator's public API, as
/// `sweep::voltage_sweep` runs it, with a span around every layer call.
fn replay_cell(
    plan: &CampaignPlan,
    i: usize,
    tracer: &Tracer,
    parent: u64,
    thread: u64,
) -> Result<(VoltageSweep, ReplayTimes), String> {
    let CellAction::Sweep(cfg) = plan.cells()[i].action else {
        return Err(format!("cell {i} is not a sweep"));
    };
    let config = plan.cells()[i].config.with_seed(plan.cell_seed(i));
    let mut acc = tracer
        .span("core.bring_up", Some(parent), thread, |_| {
            Accelerator::bring_up(&config)
        })
        .map_err(|e| e.to_string())?;
    let mut times = ReplayTimes::default();
    let mut points = Vec::new();
    let mut crashed_at_mv = None;
    for mv in cfg.voltages_mv() {
        let (set, secs) = tracer.span("core.set_vccint", Some(parent), thread, |_| {
            timed(|| acc.set_vccint_mv(mv))
        });
        times.set_vccint_us.push(secs * 1e6);
        let step = set.and_then(|()| {
            let (m, secs) = tracer.span("core.measure", Some(parent), thread, |_| {
                timed(|| acc.measure(cfg.images))
            });
            if let Ok(m) = &m {
                let bucket = if m.injected_faults == 0 {
                    &mut times.clean_ms
                } else {
                    &mut times.fault_ms
                };
                bucket.push(secs * 1e3);
            }
            m
        });
        match step {
            Ok(m) => points.push(m),
            Err(MeasureError::Crashed { vccint_mv }) => {
                crashed_at_mv = Some(vccint_mv);
                break;
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    tracer.span("fpga.power_cycle", Some(parent), thread, |_| {
        acc.power_cycle()
    });
    Ok((
        VoltageSweep {
            points,
            crashed_at_mv,
        },
        times,
    ))
}

pub fn traced(ctx: &Context, out: &mut Outcome) -> Result<Values, String> {
    let plan = &plan(ctx.seed);
    let tracer = Tracer::new(ctx.run_id.clone());
    let mut v = Values::default();

    // Set-up, split by layer: each cell's model build, then its cold
    // bring-up (build again, fold, quantize, label calibration).
    workload_cache::reset();
    let (build_s, bring_up_s) = tracer.span("setup", None, 0, |root| -> Result<_, String> {
        let (mut build_s, mut bring_up_s) = (0.0, 0.0);
        for (i, cell) in plan.cells().iter().enumerate() {
            let kind = cell.config.benchmark;
            let scale = cell.config.scale;
            let (_, b) = tracer.span("nn.build", Some(root), 0, |_| {
                timed(|| std::hint::black_box(kind.build(scale)))
            });
            let (acc, u) = tracer.span("core.bring_up", Some(root), 0, |_| {
                timed(|| Accelerator::bring_up(&cell.config.with_seed(plan.cell_seed(i))))
            });
            acc.map_err(|e| e.to_string())?;
            build_s += b;
            bring_up_s += u;
        }
        Ok((build_s, bring_up_s))
    })?;
    v.set("nn.build_s", build_s);
    v.set("core.prepare_self_s", (bring_up_s - build_s).max(0.0));

    let mut plain = Vec::new();
    let mut traced_secs = Vec::new();
    let mut last = None;
    let mut times = ReplayTimes::default();
    let start = std::time::Instant::now();
    while last.is_none() || ctx.time_left(start) {
        let pass = campaign_pass(plan, out)?;
        v.set("core.cache_hits", pass.cache_hits as f64);
        v.set("core.cache_misses", pass.cache_misses as f64);
        plain.push(pass.secs);

        let (replayed, secs) = tracer.span("phase", None, 0, |root| {
            timed(|| {
                run_indexed(plan.len(), JOBS, |i, worker| {
                    tracer.span("cell", Some(root), worker as u64 + 1, |cell| {
                        replay_cell(plan, i, &tracer, cell, worker as u64 + 1)
                    })
                })
            })
        });
        traced_secs.push(secs);
        times = ReplayTimes::default();
        for (i, r) in replayed.into_iter().enumerate() {
            let (sweep, t) = r?;
            if Some(&sweep) != pass.report.results[i].outcome.as_sweep() {
                out.fail(&format!(
                    "replayed sweep of cell {i} differs from the campaign's"
                ));
            }
            times.set_vccint_us.extend(t.set_vccint_us);
            times.clean_ms.extend(t.clean_ms);
            times.fault_ms.extend(t.fault_ms);
        }
        last = Some(pass);
    }
    let last = last.expect("at least one pass");
    let overhead = median(&traced_secs) / median(&plain) - 1.0;
    let tolerance = overhead.abs().max(0.01);

    let spans = tracer.spans();
    let mut unattributed = Vec::new();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        let frac = check_accounting(&spans, s.id, tolerance, out);
        if s.name == "phase" {
            unattributed.push(frac);
        }
    }

    v.set("core.measure_clean_ms_p50", quantile(&times.clean_ms, 0.5));
    v.set("core.measure_clean_ms_p95", quantile(&times.clean_ms, 0.95));
    v.set("core.measure_fault_ms_p50", quantile(&times.fault_ms, 0.5));
    v.set(
        "core.set_vccint_us_p50",
        quantile(&times.set_vccint_us, 0.5),
    );
    let report = &last.report;
    let busy: f64 = report.results.iter().map(|r| r.elapsed.as_secs_f64()).sum();
    let cell_max = report
        .results
        .iter()
        .map(|r| r.elapsed.as_secs_f64())
        .fold(0.0, f64::max);
    v.set("core.cell_s_max", cell_max);
    v.set(
        "core.executor_util",
        busy / (report.elapsed.as_secs_f64() * report.jobs as f64),
    );

    // Per-image DPU time of a 32-image batch at Vnom, per benchmark.
    for (i, cell) in plan.cells().iter().enumerate() {
        let mut acc = Accelerator::bring_up(&cell.config.with_seed(plan.cell_seed(i)))
            .map_err(|e| e.to_string())?;
        let name = DPU_IMAGE_METRICS[benchmark_index(cell.config.benchmark)];
        v.set(name, image_us(&mut acc)?);
    }

    let tel = |f: fn(&redvolt_core::telemetry::CellTelemetry) -> u64| -> f64 {
        report.results.iter().map(|r| f(&r.telemetry)).sum::<u64>() as f64
    };
    v.set("faults.injected", tel(|t| t.dpu_faults));
    v.set("dpu.modeled_cycles", tel(|t| t.cycles));
    v.set("pmbus.transactions", tel(|t| t.bus_transactions));
    v.set("fpga.power_cycles", tel(|t| t.power_cycles));
    let faulty_points = sweeps(report)?
        .iter()
        .flat_map(|s| &s.points)
        .filter(|m| m.injected_faults > 0)
        .count();
    v.set("faults.points", faulty_points as f64);
    let collected = CampaignTelemetry::collect(report);
    v.set("telemetry.spans", collected.spans.len() as f64);
    v.set("telemetry.spans_dropped", collected.spans.dropped() as f64);
    v.set("bench.trace_overhead_frac", overhead);
    v.set("bench.unattributed_frac", median(&unattributed));

    let path = ctx.write_trace(&tracer.to_jsonl())?;
    eprintln!("# spans written to {}", path.display());
    Ok(v)
}
