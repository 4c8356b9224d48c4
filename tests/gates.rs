//! Modeled performance gates: the campaign scheduler and serve routing.
//!
//! Both gated quantities are pure functions of `(seed, config)` — the
//! campaign's per-cell simulated cycles and the fleet's modeled energy —
//! so they are ordinary assertions that hold on any host, whatever its
//! core count or speed. The host-time gates (optimized vs reference
//! kernels, ABFT overhead) live in the `gates` binary of `redvolt-bench`.

use redvolt::core::bench_suite::BenchmarkId;
use redvolt::core::executor::{CampaignPlan, CampaignReport};
use redvolt::core::experiment::AcceleratorConfig;
use redvolt::core::sweep::SweepConfig;
use redvolt::serve::fleet::CalibConfig;
use redvolt::serve::report::ServeReport;
use redvolt::serve::router::RouterPolicy;
use redvolt::serve::sim::{self, ServeConfig};

/// Modeled worker count the scheduler gate is evaluated at.
const WORKERS: usize = 16;
/// Floor on the modeled two-level campaign speedup at [`WORKERS`].
const MIN_CAMPAIGN_SPEEDUP: f64 = 2.0;
/// Floor on round-robin / Vmin-aware modeled energy per completed request.
const MIN_ENERGY_GAIN: f64 = 1.01;

/// Replays the per-cell simulated-cycle costs of `report` through the
/// engine's two-level split at `workers` modeled workers and returns the
/// serial / two-level makespan ratio. Cells run on `min(workers, cells)`
/// workers; each cell's batches of `images` images shard across the
/// surplus workers, which scales its duration by
/// `ceil(images / image_jobs) / images` (batches stay sequential).
fn modeled_speedup(report: &CampaignReport, images: usize, workers: usize) -> f64 {
    let costs: Vec<f64> = report
        .results
        .iter()
        .map(|r| r.telemetry.cycles as f64)
        .collect();
    let cell_jobs = workers.min(costs.len()).max(1);
    let image_jobs = (workers / cell_jobs).max(1);
    let shard_factor = images.div_ceil(image_jobs) as f64 / images.max(1) as f64;
    let sharded: Vec<f64> = costs.iter().map(|c| c * shard_factor).collect();
    costs.iter().sum::<f64>() / lpt_makespan(&sharded, cell_jobs).max(1e-9)
}

/// Longest-processing-time list schedule: sort tasks by duration
/// (descending, index-stable), greedily assign each to the least-loaded
/// worker, return the maximum load.
fn lpt_makespan(durations: &[f64], workers: usize) -> f64 {
    let mut order: Vec<usize> = (0..durations.len()).collect();
    order.sort_by(|&a, &b| durations[b].total_cmp(&durations[a]).then(a.cmp(&b)));
    let mut loads = vec![0.0f64; workers.max(1)];
    for &i in &order {
        let least = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
            .map(|(k, _)| k)
            .expect("at least one worker");
        loads[least] += durations[i];
    }
    loads.iter().fold(0.0f64, |a, &b| a.max(b))
}

/// A small sweep campaign with fewer cells than modeled workers — the
/// regime a cell-level-only scheduler wastes — must give the same payload
/// serially and two-level sharded, and the two-level model must beat
/// serial by at least [`MIN_CAMPAIGN_SPEEDUP`].
#[test]
fn campaign_scheduler_gate() {
    let images = 16;
    let base = AcceleratorConfig {
        eval_images: images,
        repetitions: 1,
        ..AcceleratorConfig::tiny(BenchmarkId::VggNet)
    };
    let sweep = SweepConfig {
        start_mv: 620.0,
        stop_mv: 580.0,
        step_mv: 20.0,
        images,
    };
    let plan = CampaignPlan::sweep_grid(
        1908,
        &[BenchmarkId::VggNet, BenchmarkId::AlexNet],
        &[0],
        base,
        sweep,
    );
    let serial = plan.run_sharded(1, 1).expect("serial campaign");
    let sharded = plan.run_sharded(0, 0).expect("sharded campaign");
    assert_eq!(
        serial.to_csv(),
        sharded.to_csv(),
        "sharded payload diverged from the serial payload"
    );

    let speedup = modeled_speedup(&serial, images, WORKERS);
    assert!(
        speedup >= MIN_CAMPAIGN_SPEEDUP,
        "modeled campaign speedup x{speedup:.3} at {WORKERS} workers is below x{MIN_CAMPAIGN_SPEEDUP}"
    );
}

/// A fleet served just below Vmin under load (defense `correct`, governor
/// on): Vmin-aware routing must spend at least [`MIN_ENERGY_GAIN`]× less
/// modeled energy per completed request than round-robin, neither arm may
/// return a silently corrupt response, and the Vmin-aware arm must meet
/// its p99 SLO.
#[test]
fn serve_routing_gate() {
    let serve = |router| {
        let cfg = ServeConfig {
            seed: 1909,
            boards: 4,
            requests: 160,
            rps: 30_000.0,
            calib: CalibConfig {
                margin_mv: -10.0,
                ..CalibConfig::default()
            },
            slo_p99_cycles: 60_000_000,
            router,
            ..ServeConfig::default()
        };
        let outcome = sim::run(&cfg).expect("serve scenario");
        ServeReport::build(&cfg, outcome)
    };
    let vmin = serve(RouterPolicy::VminAware);
    let rr = serve(RouterPolicy::RoundRobin);

    assert_eq!(vmin.outcome.counters.silently_corrupt, 0, "vmin arm");
    assert_eq!(rr.outcome.counters.silently_corrupt, 0, "round-robin arm");
    assert!(
        vmin.slo_ok,
        "vmin arm violated its SLO (p99 {} > {})",
        vmin.p99_cycles, vmin.config.slo_p99_cycles
    );
    let gain = rr.energy_per_completed_j / vmin.energy_per_completed_j.max(1e-18);
    assert!(
        gain >= MIN_ENERGY_GAIN,
        "modeled energy gain x{gain:.4} is below x{MIN_ENERGY_GAIN}"
    );
}
