//! SECDED filtering of BRAM-resident fault plans.
//!
//! Weight and activation buffers live in block RAM, which ships the
//! built-in SECDED(72,64) code modeled in [`redvolt_fpga::ecc`]; MAC
//! accumulators live in DSP slices and carry no ECC. [`EccInjector`]
//! wraps any [`FaultInjector`] and pushes every planned weight/activation
//! flip through the real codec: the plan's bursts are split into single
//! flips and regrouped by the 64-bit ECC word their storage falls in
//! (eight 8-bit codes per word), the word's error pattern is encoded and
//! decoded, and the decode outcome decides the fate of the word's flips:
//!
//! * `Corrected` — a single-bit upset; under [`DefenseMode::Correct`] the
//!   flip is dropped (the hardware fixed the read) and recorded as a
//!   latent stored upset for the scrubber; under `Detect` it is counted
//!   but still delivered (monitoring without correction).
//! * `Uncorrectable` — a multi-bit pattern; the flips are delivered and
//!   the event is counted, feeding the governor's escalation signal.
//!
//! The regrouping happens inside the caller's plan buffer (an in-place
//! unstable sort and compaction), so filtering allocates nothing once
//! that buffer has grown. Accumulator plans pass through untouched —
//! defending those is ABFT's job (`redvolt_nn::abft`). With
//! [`DefenseMode::Off`] the wrapper is fully transparent.

use redvolt_fpga::ecc::{self, Decode};
use redvolt_nn::abft::DefenseMode;
use redvolt_nn::quant::{split_bursts, FaultBurst, FaultInjector, FaultKind, FaultSite};

/// Quantized weight/activation codes stored per 64-bit ECC word.
pub const CODES_PER_WORD: usize = 8;

/// ECC event counters for one injector lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EccStats {
    /// Words whose single-bit upset the code corrected.
    pub corrected_words: u64,
    /// Words with a multi-bit (detectable, uncorrectable) pattern.
    pub uncorrectable_words: u64,
    /// Individual flips dropped by correction.
    pub dropped_flips: u64,
    /// Individual flips delivered despite ECC (uncorrectable words, or
    /// all flips when not correcting).
    pub delivered_flips: u64,
}

impl EccStats {
    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: &EccStats) {
        self.corrected_words += other.corrected_words;
        self.uncorrectable_words += other.uncorrectable_words;
        self.dropped_flips += other.dropped_flips;
        self.delivered_flips += other.delivered_flips;
    }
}

/// A [`FaultInjector`] adapter applying SECDED(72,64) to weight and
/// activation fault plans.
#[derive(Debug)]
pub struct EccInjector<I> {
    inner: I,
    mode: DefenseMode,
    stats: EccStats,
    /// Corrected-on-read upsets not yet retired by a scrub pass; drained
    /// by the runtime into its [`redvolt_fpga::ecc::Scrubber`].
    latent: u64,
}

impl<I: FaultInjector> EccInjector<I> {
    /// Wraps `inner`, filtering per `mode`.
    pub fn new(inner: I, mode: DefenseMode) -> Self {
        EccInjector {
            inner,
            mode,
            stats: EccStats::default(),
            latent: 0,
        }
    }

    /// Accumulated ECC event counters.
    pub fn stats(&self) -> EccStats {
        self.stats
    }

    /// Drains the corrected-upset count destined for the scrubber.
    pub fn take_latent(&mut self) -> u64 {
        std::mem::take(&mut self.latent)
    }

    /// The wrapped injector.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// Consumes the adapter, returning the wrapped injector.
    pub fn into_inner(self) -> I {
        self.inner
    }

    /// Runs the flips in `plan[from..]`, planned for a `len`-element
    /// buffer, through the codec, leaving the delivered ones there as
    /// single flips. Flips are grouped by the ECC word containing their
    /// target code; each faulted word's error pattern is decoded with the
    /// real SECDED implementation. The decode depends only on the set of
    /// flips per word, and the executor applies flips by XOR, so neither
    /// their order within a word nor the order of words matters.
    fn filter(&mut self, plan: &mut Vec<FaultBurst>, from: usize, len: usize) {
        split_bursts(plan, from, len);
        plan[from..].sort_unstable_by_key(|f| (f.start, f.bit));
        let word_of = |f: &FaultBurst| f.start / CODES_PER_WORD;
        let mut kept = from;
        let mut i = from;
        while i < plan.len() {
            let word = word_of(&plan[i]);
            let mut j = i;
            // Build the word's error pattern: code k, bit b lands on data
            // bit (k mod 8)*8 + b of the 64-bit ECC word.
            let mut pattern = 0u64;
            while j < plan.len() && word_of(&plan[j]) == word {
                let data_bit = (plan[j].start % CODES_PER_WORD) as u32 * 8 + (plan[j].bit % 8);
                pattern ^= 1u64 << data_bit;
                j += 1;
            }
            let flips = (j - i) as u64;
            // The decode outcome depends only on the error pattern, never
            // on the stored value — encode any word and corrupt it.
            let clean = ecc::encode(0);
            let read = ecc::Codeword {
                data: clean.data ^ pattern,
                check: clean.check,
            };
            let deliver = match ecc::decode(read) {
                Decode::Clean(_) => {
                    // Paired flips cancelled (same code, same bit twice):
                    // nothing to deliver and nothing stored.
                    self.stats.dropped_flips += flips;
                    false
                }
                Decode::Corrected(_) => {
                    self.stats.corrected_words += 1;
                    if self.mode == DefenseMode::Correct {
                        self.stats.dropped_flips += flips;
                        self.latent += 1;
                        false
                    } else {
                        self.stats.delivered_flips += flips;
                        true
                    }
                }
                Decode::Uncorrectable(_) => {
                    self.stats.uncorrectable_words += 1;
                    self.stats.delivered_flips += flips;
                    true
                }
            };
            if deliver {
                plan.copy_within(i..j, kept);
                kept += j - i;
            }
            i = j;
        }
        plan.truncate(kept);
    }
}

impl<I: FaultInjector> FaultInjector for EccInjector<I> {
    fn plan_faults(&mut self, site: FaultSite, len: usize, plan: &mut Vec<FaultBurst>) {
        let from = plan.len();
        self.inner.plan_faults(site, len, plan);
        // DSP accumulators carry no ECC.
        let in_bram = !matches!(site.kind, FaultKind::Accumulator { .. });
        if in_bram && self.mode != DefenseMode::Off && plan.len() > from {
            self.filter(plan, from, len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scripted injector: returns the queued plans in order.
    struct Scripted {
        weight: Vec<Vec<FaultBurst>>,
        activation: Vec<Vec<FaultBurst>>,
    }

    impl FaultInjector for Scripted {
        fn plan_faults(&mut self, site: FaultSite, _: usize, plan: &mut Vec<FaultBurst>) {
            let queue = match site.kind {
                FaultKind::Weight { .. } => &mut self.weight,
                FaultKind::Activation { .. } => &mut self.activation,
                FaultKind::Accumulator { .. } => {
                    plan.push(FaultBurst::single(9, 20));
                    return;
                }
            };
            if !queue.is_empty() {
                plan.extend(queue.remove(0));
            }
        }
    }

    fn scripted(weight: Vec<Vec<FaultBurst>>, activation: Vec<Vec<FaultBurst>>) -> Scripted {
        Scripted { weight, activation }
    }

    /// The delivered plan of one call for `kind` over a 64-code buffer.
    fn deliver<I: FaultInjector>(ecc: &mut EccInjector<I>, kind: FaultKind) -> Vec<FaultBurst> {
        let mut plan = Vec::new();
        ecc.plan_faults(FaultSite { node: 1, kind }, 64, &mut plan);
        plan
    }

    const W: FaultKind = FaultKind::Weight { bits: 8 };
    const A: FaultKind = FaultKind::Activation { bits: 8 };

    fn single() -> Vec<FaultBurst> {
        vec![FaultBurst::single(3, 6)]
    }

    fn double_same_word() -> Vec<FaultBurst> {
        // Codes 16 and 19 share ECC word 2.
        vec![FaultBurst::single(16, 1), FaultBurst::single(19, 7)]
    }

    #[test]
    fn correct_mode_drops_single_bit_upsets_and_records_latency() {
        let mut ecc = EccInjector::new(scripted(vec![single()], vec![]), DefenseMode::Correct);
        assert!(deliver(&mut ecc, W).is_empty());
        let stats = ecc.stats();
        assert_eq!(stats.corrected_words, 1);
        assert_eq!(stats.dropped_flips, 1);
        assert_eq!(stats.delivered_flips, 0);
        assert_eq!(ecc.take_latent(), 1);
        assert_eq!(ecc.take_latent(), 0, "latent drains once");
    }

    #[test]
    fn double_flips_in_one_word_pass_through_as_uncorrectable() {
        let mut ecc = EccInjector::new(
            scripted(vec![double_same_word()], vec![]),
            DefenseMode::Correct,
        );
        assert_eq!(deliver(&mut ecc, W), double_same_word());
        let stats = ecc.stats();
        assert_eq!(stats.uncorrectable_words, 1);
        assert_eq!(stats.delivered_flips, 2);
        assert_eq!(ecc.take_latent(), 0);
    }

    #[test]
    fn singles_in_different_words_are_each_corrected() {
        let plan = vec![
            FaultBurst::single(0, 0),
            FaultBurst::single(8, 3),
            FaultBurst::single(60, 5),
        ];
        let mut ecc = EccInjector::new(scripted(vec![plan], vec![]), DefenseMode::Correct);
        assert!(deliver(&mut ecc, W).is_empty());
        assert_eq!(ecc.stats().corrected_words, 3);
        assert_eq!(ecc.take_latent(), 3);
    }

    #[test]
    fn detect_mode_counts_but_delivers_everything() {
        let mut ecc = EccInjector::new(
            scripted(vec![single()], vec![double_same_word()]),
            DefenseMode::Detect,
        );
        assert_eq!(deliver(&mut ecc, W), single());
        assert_eq!(deliver(&mut ecc, A), double_same_word());
        let stats = ecc.stats();
        assert_eq!(stats.corrected_words, 1);
        assert_eq!(stats.uncorrectable_words, 1);
        assert_eq!(stats.dropped_flips, 0);
        assert_eq!(stats.delivered_flips, 3);
        assert_eq!(ecc.take_latent(), 0, "detect mode fixes nothing");
    }

    #[test]
    fn off_mode_is_transparent() {
        let burst = vec![FaultBurst {
            start: 60,
            len: 32,
            bit: 2,
        }];
        let mut ecc = EccInjector::new(
            scripted(vec![double_same_word()], vec![burst.clone()]),
            DefenseMode::Off,
        );
        assert_eq!(deliver(&mut ecc, W), double_same_word());
        assert_eq!(deliver(&mut ecc, A), burst, "bursts pass unsplit");
        assert_eq!(ecc.stats(), EccStats::default());
    }

    #[test]
    fn accumulator_plans_bypass_ecc() {
        let mut ecc = EccInjector::new(scripted(vec![], vec![]), DefenseMode::Correct);
        let acc = FaultKind::Accumulator { macs_per_out: 9 };
        assert_eq!(deliver(&mut ecc, acc), vec![FaultBurst::single(9, 20)]);
        assert_eq!(ecc.stats(), EccStats::default());
    }

    #[test]
    fn cancelled_flip_pairs_are_dropped_silently() {
        // The same (index, bit) twice XOR-cancels: the stored word is
        // untouched and the decode is Clean.
        let plan = vec![FaultBurst::single(5, 2), FaultBurst::single(5, 2)];
        let mut ecc = EccInjector::new(scripted(vec![plan], vec![]), DefenseMode::Correct);
        assert!(deliver(&mut ecc, W).is_empty());
        let stats = ecc.stats();
        assert_eq!(stats.corrected_words, 0);
        assert_eq!(stats.dropped_flips, 2);
    }

    #[test]
    fn bursts_regroup_by_word_across_the_wrap() {
        // A 3-code burst from the last code of the 64-code buffer wraps to
        // codes 0 and 1: one flip in word 7 (corrected and dropped), two
        // in word 0 (uncorrectable, both delivered as single flips).
        let burst = FaultBurst {
            start: 63,
            len: 3,
            bit: 4,
        };
        let mut ecc = EccInjector::new(scripted(vec![], vec![vec![burst]]), DefenseMode::Correct);
        assert_eq!(
            deliver(&mut ecc, A),
            vec![FaultBurst::single(0, 4), FaultBurst::single(1, 4)]
        );
        let stats = ecc.stats();
        assert_eq!((stats.corrected_words, stats.uncorrectable_words), (1, 1));
        assert_eq!((stats.dropped_flips, stats.delivered_flips), (1, 2));
        assert_eq!(ecc.take_latent(), 1);
    }

    #[test]
    fn filtering_leaves_earlier_plan_entries_alone() {
        let mut ecc = EccInjector::new(scripted(vec![single()], vec![]), DefenseMode::Correct);
        let earlier = FaultBurst {
            start: 40,
            len: 7,
            bit: 1,
        };
        let mut plan = vec![earlier];
        ecc.plan_faults(FaultSite { node: 2, kind: W }, 64, &mut plan);
        assert_eq!(plan, vec![earlier]);
        assert_eq!(ecc.stats().corrected_words, 1);
    }
}
