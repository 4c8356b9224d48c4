//! The process-wide workload cache: once semantics under concurrency,
//! hit/miss accounting, the disabled path and bounded occupancy.

use redvolt_core::bench_suite::{BenchmarkId, Workload, WorkloadConfig};
use redvolt_core::workload_cache::{get_or_prepare, metrics_registry, reset, set_enabled, stats};
use std::sync::Mutex;

// The cache and its counters are process-wide, so these tests live in a
// test binary of their own: no other test's lookups can land between a
// test's before and after readings. Each asserts on *deltas* with its own
// distinct seed space, and they serialize on this lock, because the
// exact-delta assertions would otherwise race with each other's counter
// updates.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn second_lookup_hits_and_matches_fresh_preparation() {
    let _guard = serial();
    reset();
    let config = WorkloadConfig {
        seed: 90001,
        ..WorkloadConfig::tiny(BenchmarkId::VggNet)
    };
    let before = stats();
    let first = get_or_prepare(config).unwrap();
    let second = get_or_prepare(config).unwrap();
    let after = stats();
    assert_eq!(after.misses - before.misses, 1, "one preparation");
    assert_eq!(after.hits - before.hits, 1, "one cached hit");
    let fresh = Workload::prepare(config).unwrap();
    assert_eq!(first.eval.labels, fresh.eval.labels);
    assert_eq!(second.eval.labels, fresh.eval.labels);
    assert_eq!(first.dense_equivalent_ops, fresh.dense_equivalent_ops);
}

#[test]
fn different_configs_do_not_alias() {
    let _guard = serial();
    reset();
    let a = WorkloadConfig {
        seed: 90002,
        ..WorkloadConfig::tiny(BenchmarkId::VggNet)
    };
    let b = WorkloadConfig { bits: 6, ..a };
    let before = stats();
    get_or_prepare(a).unwrap();
    get_or_prepare(b).unwrap();
    let after = stats();
    assert_eq!(after.misses - before.misses, 2);
    assert_eq!(after.hits - before.hits, 0);
}

#[test]
fn disabled_cache_prepares_fresh() {
    let _guard = serial();
    reset();
    let config = WorkloadConfig {
        seed: 90003,
        ..WorkloadConfig::tiny(BenchmarkId::VggNet)
    };
    set_enabled(false);
    let before = stats();
    get_or_prepare(config).unwrap();
    get_or_prepare(config).unwrap();
    let after = stats();
    set_enabled(true);
    assert_eq!(after.misses - before.misses, 2, "no caching while off");
    assert_eq!(after.hits - before.hits, 0);
}

#[test]
fn concurrent_lookups_prepare_once() {
    let _guard = serial();
    reset();
    let config = WorkloadConfig {
        seed: 90004,
        ..WorkloadConfig::tiny(BenchmarkId::GoogleNet)
    };
    let before = stats();
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(move || get_or_prepare(config).unwrap());
        }
    });
    let after = stats();
    assert_eq!(after.misses - before.misses, 1, "once semantics");
    assert_eq!(after.hits - before.hits, 3);
}

#[test]
fn registry_exports_the_counters() {
    let _guard = serial();
    reset();
    let names: Vec<String> = metrics_registry()
        .samples()
        .iter()
        .map(|s| s.id.name.clone())
        .collect();
    assert!(names.iter().any(|n| n == "redvolt_quant_cache_hits_total"));
    assert!(names
        .iter()
        .any(|n| n == "redvolt_quant_cache_misses_total"));
    assert!(names.iter().any(|n| n == "redvolt_quant_cache_occupancy"));
}

#[test]
fn occupancy_tracks_held_slots() {
    let _guard = serial();
    reset();
    assert_eq!(stats().occupancy, 0);
    let a = WorkloadConfig {
        seed: 90005,
        ..WorkloadConfig::tiny(BenchmarkId::VggNet)
    };
    get_or_prepare(a).unwrap();
    assert_eq!(stats().occupancy, 1);
    get_or_prepare(a).unwrap();
    assert_eq!(stats().occupancy, 1, "hits do not grow the cache");
    let b = WorkloadConfig { seed: 90006, ..a };
    get_or_prepare(b).unwrap();
    assert_eq!(stats().occupancy, 2);
    reset();
    assert_eq!(stats().occupancy, 0);
}
