//! Deterministic burst bit-flip injector.
//!
//! Implements [`redvolt_nn::quant::FaultInjector`] by sampling, for each
//! fault site of a node execution, a Poisson-distributed number of *fault
//! events* at the rates of a [`FaultRates`] operating point, and writing
//! each event as one [`FaultBurst`] into the executor's plan buffer.
//!
//! A timing-fault event is **correlated**, not an isolated upset: a
//! physical path that misses timing fails for the whole tile it is
//! streaming, so one datapath event corrupts a *burst* of consecutive
//! outputs in one MAC lane, all at the same bit position. And because the
//! most-significant accumulator bits arrive last through the carry chain,
//! the bits that miss timing first are the *high* bits — which is why
//! undervolting faults are so damaging to CNN accuracy (§4.4) compared to
//! random soft errors. Weight-fetch faults (BRAM read upsets) remain
//! independent single-bit flips: bursts of length 1.
//!
//! The RNG draws per event, and their order, are those of the earlier
//! planner that returned one `(index, bit)` record per flipped element, so
//! every golden built on injected faults is unchanged
//! (`plan_stream_is_pinned` checks a digest of the expanded flips).

use crate::model::FaultRates;
use redvolt_nn::quant::{FaultBurst, FaultInjector, FaultKind, FaultSite};
use redvolt_num::rng::Xoshiro256StarStar;

/// Accumulator bit range hit by datapath fault events: the late-arriving
/// carry-chain bits of the 32-bit MAC accumulator.
pub const ACC_FAULT_BIT_LO: u32 = 12;
/// Exclusive upper end of the accumulator fault-bit range.
pub const ACC_FAULT_BIT_HI: u32 = 25;

/// Log2 of the minimum datapath burst length (16 outputs).
const BURST_LOG2_MIN: u32 = 4;
/// Log2 of the maximum datapath burst length (512 outputs).
const BURST_LOG2_MAX: u32 = 9;

/// Burst length of activation-buffer write events.
const ACT_BURST: usize = 32;

/// Cap on expected events per layer call: past this everything is
/// corrupted anyway and larger plans only waste memory (reachable only
/// below the crash boundary, where the board hangs first).
const MAX_EXPECTED_EVENTS: f64 = 2000.0;

/// A seeded injector bound to one operating point's fault rates.
///
/// # Examples
///
/// ```
/// use redvolt_faults::injector::SlackFaultInjector;
/// use redvolt_faults::model::FaultRates;
/// use redvolt_nn::quant::{FaultInjector, FaultKind, FaultSite};
///
/// let rates = FaultRates::for_deficit(0.3);
/// let site = FaultSite { node: 1, kind: FaultKind::Accumulator { macs_per_out: 288 } };
/// let mut inj = SlackFaultInjector::new(rates, 42);
/// let mut plan = Vec::new();
/// inj.plan_faults(site, 4096, &mut plan);
/// // One burst per fault event, all flipped sites counted.
/// assert_eq!(plan.len() as u64, inj.event_count());
/// let flips: u64 = plan.iter().map(|b| u64::from(b.len)).sum();
/// assert_eq!(flips, inj.injected_count());
/// // Deterministic given the seed.
/// let mut again = Vec::new();
/// SlackFaultInjector::new(rates, 42).plan_faults(site, 4096, &mut again);
/// assert_eq!(plan, again);
/// ```
#[derive(Debug, Clone)]
pub struct SlackFaultInjector {
    rates: FaultRates,
    rng: Xoshiro256StarStar,
    injected: u64,
    events: u64,
}

impl SlackFaultInjector {
    /// Creates an injector for the given rates and seed.
    pub fn new(rates: FaultRates, seed: u64) -> Self {
        SlackFaultInjector {
            rates,
            rng: Xoshiro256StarStar::seed_from(seed ^ 0xFA017),
            injected: 0,
            events: 0,
        }
    }

    /// The operating point's rates.
    pub fn rates(&self) -> FaultRates {
        self.rates
    }

    /// Total bit flips injected so far (across all site classes).
    pub fn injected_count(&self) -> u64 {
        self.injected
    }

    /// Total fault events so far (each event may flip many bits).
    pub fn event_count(&self) -> u64 {
        self.events
    }

    fn sample_events(&mut self, expected: f64) -> u64 {
        if expected <= 0.0 {
            return 0;
        }
        let n = self.rng.next_poisson(expected.min(MAX_EXPECTED_EVENTS));
        self.events += n;
        n
    }

    /// Appends `burst` and counts its flipped sites.
    fn push(&mut self, burst: FaultBurst, plan: &mut Vec<FaultBurst>) {
        self.injected += u64::from(burst.len);
        plan.push(burst);
    }
}

impl FaultInjector for SlackFaultInjector {
    fn plan_faults(&mut self, site: FaultSite, len: usize, plan: &mut Vec<FaultBurst>) {
        if len == 0 {
            return;
        }
        match site.kind {
            // Weight-fetch faults: independent single-bit read upsets.
            FaultKind::Weight { bits } => {
                let n = self.sample_events(self.rates.per_weight * len as f64);
                for _ in 0..n {
                    let index = self.rng.next_index(len);
                    let bit = self.rng.next_bounded_u32(bits);
                    self.push(FaultBurst::single(index, bit), plan);
                }
            }
            // Datapath events: consecutive outputs, one late high bit.
            FaultKind::Accumulator { macs_per_out } => {
                let n = self.sample_events(self.rates.per_mac * (len * macs_per_out) as f64);
                for _ in 0..n {
                    let start = self.rng.next_index(len);
                    let burst_len = 1usize
                        << self
                            .rng
                            .next_bounded_u32(BURST_LOG2_MAX - BURST_LOG2_MIN + 1)
                            .saturating_add(BURST_LOG2_MIN);
                    let bit = ACC_FAULT_BIT_LO
                        + self
                            .rng
                            .next_bounded_u32(ACC_FAULT_BIT_HI - ACC_FAULT_BIT_LO);
                    self.push(wrapped_burst(start, burst_len, len, bit), plan);
                }
            }
            FaultKind::Activation { bits } => {
                let n = self.sample_events(self.rates.per_activation * len as f64);
                for _ in 0..n {
                    let start = self.rng.next_index(len);
                    let bit = self.rng.next_bounded_u32(bits);
                    self.push(wrapped_burst(start, ACT_BURST, len, bit), plan);
                }
            }
        }
    }
}

/// One burst of `burst_len` flips starting at `start` in a `len`-element
/// buffer. The executor wraps it past the buffer end back to index 0
/// instead of dropping the overflow: the failing lane keeps streaming
/// from the start of the buffer, so the tail of the burst lands there.
/// The burst is capped at `len` distinct indices (a longer burst would
/// revisit sites, and XOR-applied revisits cancel, which would make
/// `injected_count` overstate the corrupted sites).
fn wrapped_burst(start: usize, burst_len: usize, len: usize, bit: u32) -> FaultBurst {
    FaultBurst {
        start,
        len: burst_len.min(len) as u32,
        bit,
    }
}

/// An *ablation* injector: same event rates as [`SlackFaultInjector`] but
/// every event is a single independent uniform bit flip (the naive
/// soft-error-style model). Exists to demonstrate why the correlated
/// burst model is necessary: CNNs absorb independent single-bit upsets
/// almost entirely, which would contradict the paper's measured accuracy
/// collapse below Vmin.
#[derive(Debug, Clone)]
pub struct SingleBitFaultInjector {
    rates: FaultRates,
    rng: Xoshiro256StarStar,
    injected: u64,
}

impl SingleBitFaultInjector {
    /// Creates the ablation injector for the given rates and seed.
    pub fn new(rates: FaultRates, seed: u64) -> Self {
        SingleBitFaultInjector {
            rates,
            rng: Xoshiro256StarStar::seed_from(seed ^ 0x51B17),
            injected: 0,
        }
    }

    /// Total bit flips injected so far.
    pub fn injected_count(&self) -> u64 {
        self.injected
    }
}

impl FaultInjector for SingleBitFaultInjector {
    fn plan_faults(&mut self, site: FaultSite, len: usize, plan: &mut Vec<FaultBurst>) {
        let (expected, bits) = match site.kind {
            FaultKind::Weight { bits } => (self.rates.per_weight * len as f64, bits),
            FaultKind::Accumulator { macs_per_out } => {
                (self.rates.per_mac * (len * macs_per_out) as f64, 31)
            }
            FaultKind::Activation { bits } => (self.rates.per_activation * len as f64, bits),
        };
        if expected <= 0.0 || len == 0 {
            return;
        }
        let n = self.rng.next_poisson(expected.min(MAX_EXPECTED_EVENTS));
        for _ in 0..n {
            let index = self.rng.next_index(len);
            let bit = self.rng.next_bounded_u32(bits);
            plan.push(FaultBurst::single(index, bit));
        }
        self.injected += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W8: FaultKind = FaultKind::Weight { bits: 8 };
    const A8: FaultKind = FaultKind::Activation { bits: 8 };

    fn acc(macs_per_out: usize) -> FaultKind {
        FaultKind::Accumulator { macs_per_out }
    }

    /// One planning call's bursts.
    fn plan(inj: &mut impl FaultInjector, kind: FaultKind, len: usize) -> Vec<FaultBurst> {
        let mut plan = Vec::new();
        inj.plan_faults(FaultSite { node: 1, kind }, len, &mut plan);
        plan
    }

    /// The `(index, bit)` flips a plan makes in a `len`-element buffer,
    /// in burst order.
    fn flips(plan: &[FaultBurst], len: usize) -> Vec<(usize, u32)> {
        plan.iter()
            .flat_map(|b| b.ranges(len).into_iter().flatten().map(move |i| (i, b.bit)))
            .collect()
    }

    #[test]
    fn zero_rates_plan_nothing() {
        let mut inj = SlackFaultInjector::new(FaultRates::default(), 1);
        assert!(plan(&mut inj, W8, 1000).is_empty());
        assert!(plan(&mut inj, acc(100), 1000).is_empty());
        assert!(plan(&mut inj, A8, 1000).is_empty());
        assert_eq!(inj.injected_count(), 0);
        assert_eq!(inj.event_count(), 0);
    }

    #[test]
    fn event_counts_follow_expectation() {
        let rates = FaultRates {
            per_mac: 1e-4,
            per_weight: 0.0,
            per_activation: 0.0,
        };
        let mut inj = SlackFaultInjector::new(rates, 7);
        let trials = 3000;
        for _ in 0..trials {
            plan(&mut inj, acc(100), 100); // expected 1 event
        }
        let mean = inj.event_count() as f64 / trials as f64;
        assert!((mean - 1.0).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn datapath_bursts_are_correlated_high_bit_runs() {
        let rates = FaultRates {
            per_mac: 5e-5,
            per_weight: 0.0,
            per_activation: 0.0,
        };
        let mut inj = SlackFaultInjector::new(rates, 3);
        let mut saw_burst = false;
        for _ in 0..200 {
            let plan = plan(&mut inj, acc(100), 10_000);
            for b in &plan {
                // One high bit per event, 16..=512 consecutive outputs.
                assert!((ACC_FAULT_BIT_LO..ACC_FAULT_BIT_HI).contains(&b.bit));
                assert!(b.len.is_power_of_two() && (16..=512).contains(&b.len));
                assert!(b.start < 10_000);
            }
            let flips = flips(&plan, 10_000);
            if flips.len() >= 2 {
                saw_burst = true;
                // Same bit, consecutive indices within an event's run,
                // modulo the buffer length (a burst starting at the last
                // index wraps to 0).
                assert_eq!(flips[1], ((flips[0].0 + 1) % 10_000, flips[0].1));
            }
        }
        assert!(saw_burst, "expected at least one multi-flip burst");
    }

    #[test]
    fn bursts_clip_at_buffer_end() {
        // Historically flips past the buffer end were silently dropped,
        // which made `injected_count` overstate the corruption the model
        // actually applied. Bursts now wrap deterministically: every flip
        // stays in bounds, an event's flips are distinct sites, and the
        // count matches the emitted plan exactly.
        let rates = FaultRates {
            per_mac: 1.0, // guarantee events
            per_weight: 0.0,
            per_activation: 0.0,
        };
        let mut inj = SlackFaultInjector::new(rates, 5);
        let mut total = 0u64;
        let mut saw_wrap = false;
        for _ in 0..50 {
            // A 10-element buffer is smaller than the minimum burst, so
            // every event is capped to exactly one full cover of the
            // buffer.
            for event in plan(&mut inj, acc(1), 10) {
                assert_eq!(event.len, 10, "events must cover the buffer");
                let flips = flips(&[event], 10);
                total += flips.len() as u64;
                let mut seen = [false; 10];
                for (i, _) in flips {
                    if i < event.start {
                        saw_wrap = true;
                    }
                    assert!(!seen[i], "event revisits index {i}");
                    seen[i] = true;
                }
            }
        }
        assert_eq!(inj.injected_count(), total, "count must match the plan");
        assert!(saw_wrap, "expected at least one wrapped burst");
    }

    #[test]
    fn weight_faults_are_single_flips_within_width() {
        let rates = FaultRates {
            per_mac: 0.0,
            per_weight: 1e-2,
            per_activation: 0.0,
        };
        let mut inj = SlackFaultInjector::new(rates, 9);
        for _ in 0..100 {
            for f in plan(&mut inj, FaultKind::Weight { bits: 4 }, 500) {
                assert_eq!(f.len, 1);
                assert!(f.start < 500);
                assert!(f.bit < 4);
            }
        }
        assert!(inj.injected_count() > 0);
        assert_eq!(inj.injected_count(), inj.event_count());
    }

    #[test]
    fn deterministic_given_seed() {
        let rates = FaultRates::for_deficit(0.4);
        let mut a = SlackFaultInjector::new(rates, 11);
        let mut b = SlackFaultInjector::new(rates, 11);
        for _ in 0..10 {
            assert_eq!(plan(&mut a, acc(512), 256), plan(&mut b, acc(512), 256));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let rates = FaultRates::for_deficit(0.5);
        let mut a = SlackFaultInjector::new(rates, 1);
        let mut b = SlackFaultInjector::new(rates, 2);
        let pa: Vec<_> = (0..20).flat_map(|_| plan(&mut a, acc(512), 1024)).collect();
        let pb: Vec<_> = (0..20).flat_map(|_| plan(&mut b, acc(512), 1024)).collect();
        assert_ne!(pa, pb);
    }

    #[test]
    fn single_bit_injector_spreads_flips() {
        let rates = FaultRates {
            per_mac: 1e-4,
            per_weight: 0.0,
            per_activation: 0.0,
        };
        let mut inj = SingleBitFaultInjector::new(rates, 7);
        let mut total = 0usize;
        for _ in 0..2000 {
            let plan = plan(&mut inj, acc(100), 100);
            // One flip per event, never bursts.
            assert!(plan.iter().all(|b| b.len == 1));
            total += plan.len();
        }
        assert_eq!(total as u64, inj.injected_count());
        let mean = total as f64 / 2000.0;
        assert!((mean - 1.0).abs() < 0.12, "mean = {mean}");
    }

    #[test]
    fn expected_events_are_capped() {
        // Absurd rates (reachable only past crash) must not blow memory.
        let rates = FaultRates {
            per_mac: 1e6,
            per_weight: 0.0,
            per_activation: 0.0,
        };
        let mut inj = SlackFaultInjector::new(rates, 13);
        let plan = plan(&mut inj, acc(1000), 1000);
        assert!(plan.len() < 3000, "plan len = {}", plan.len());
        assert!(flips(&plan, 1000).len() < 3000 * 512);
    }

    /// FNV-1a over 64-bit words.
    fn fold(h: &mut u64, x: u64) {
        for b in x.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Digest of the flip stream both injectors emit over a fixed
    /// schedule of weight, accumulator and activation calls: three seeds,
    /// three rate points, buffer lengths 1, 10 (below the minimum burst),
    /// 4096 and 10 000, code widths 8 and 4. Each call folds its flip
    /// count and every expanded `(index, bit)` in order; each injector
    /// folds its final counters.
    fn plan_stream_digests() -> (u64, u64) {
        let rates = [
            FaultRates {
                per_mac: 1e-5,
                per_weight: 1e-4,
                per_activation: 1e-4,
            },
            FaultRates {
                per_mac: 2e-3,
                per_weight: 2e-2,
                per_activation: 2e-2,
            },
            FaultRates::for_deficit(0.3),
        ];
        let fold_plan = |h: &mut u64, plan: Vec<FaultBurst>, len: usize| {
            let flips = flips(&plan, len);
            fold(h, flips.len() as u64);
            for (index, bit) in flips {
                fold(h, index as u64);
                fold(h, u64::from(bit));
            }
        };
        let mut slack = 0xcbf2_9ce4_8422_2325u64;
        let mut single = 0xcbf2_9ce4_8422_2325u64;
        for seed in [1, 42, 7919] {
            for r in rates {
                let mut s = SlackFaultInjector::new(r, seed);
                let mut b = SingleBitFaultInjector::new(r, seed);
                for len in [1, 10, 4096, 10_000] {
                    for bits in [8, 4] {
                        for kind in [
                            FaultKind::Weight { bits },
                            acc(288),
                            FaultKind::Activation { bits },
                        ] {
                            fold_plan(&mut slack, plan(&mut s, kind, len), len);
                            fold_plan(&mut single, plan(&mut b, kind, len), len);
                        }
                    }
                }
                fold(&mut slack, s.injected_count());
                fold(&mut slack, s.event_count());
                fold(&mut single, b.injected_count());
            }
        }
        (slack, single)
    }

    #[test]
    fn plan_stream_is_pinned() {
        // Recorded from the per-flip planner this burst API replaced:
        // the same RNG draws in the same order, so every golden built on
        // injected faults stays byte-identical.
        assert_eq!(
            plan_stream_digests(),
            (0x8f41_1674_def7_da2d, 0x79ed_3505_dd64_4b97)
        );
    }
}
