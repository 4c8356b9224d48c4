//! Algorithm-based fault tolerance (ABFT) for the inference kernels.
//!
//! Below Vmin the DPU keeps answering but silently corrupts results — the
//! paper's central hazard. This module supplies the detection layer of the
//! SDC defense stack:
//!
//! * [`DefenseMode`] / [`DefensePolicy`] — the knob the `--defense` flag
//!   maps onto. `Off` leaves every execution path bit-identical to the
//!   undefended kernels; `Detect` computes checksums and counts
//!   mismatches; `Correct` additionally re-executes a corrupted layer (a
//!   bounded number of times) before giving up.
//! * [`IntChecksum`] — dual row/column-style checksums over the integer
//!   path: a plain wrapping sum plus a position-weighted sum. A single
//!   high-bit accumulator flip perturbs both; a pair of flips that cancels
//!   in the plain sum (one `0→1`, one `1→0` of the same bit — exactly
//!   what a correlated same-bit burst produces) still perturbs the
//!   weighted sum, because the two sites carry different weights.
//!
//! The integer checksums are *temporal* (before/after the fault-injection
//! points inside one execution); weight-read corruption is detected by the
//! precomputed-checksum-column model: any surviving weight flip is
//! reported by construction, since a real ABFT weight checksum row is
//! computed offline from clean weights. Checksum aliasing (a fault
//! pattern that preserves both sums) is possible in principle, as in real
//! ABFT, but requires simultaneous cancellation in two differently
//! weighted sums.

use crate::kernels;

/// How aggressively the inference path defends against silent data
/// corruption. Maps 1:1 onto the `--defense` CLI flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DefenseMode {
    /// No checksums at all; the execution path is bit-identical to the
    /// undefended kernels.
    #[default]
    Off,
    /// Compute and verify checksums, count mismatches, but deliver the
    /// (possibly corrupt) result unchanged — monitoring mode.
    Detect,
    /// Detect and re-execute corrupted layers (bounded retries); ECC
    /// drops correctable weight/activation upsets upstream.
    Correct,
}

impl DefenseMode {
    /// Parses the CLI spelling (`off` / `detect` / `correct`).
    pub fn parse(s: &str) -> Option<DefenseMode> {
        match s {
            "off" => Some(DefenseMode::Off),
            "detect" => Some(DefenseMode::Detect),
            "correct" => Some(DefenseMode::Correct),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            DefenseMode::Off => "off",
            DefenseMode::Detect => "detect",
            DefenseMode::Correct => "correct",
        }
    }

    /// Whether any checksum work happens at all.
    pub fn is_on(self) -> bool {
        self != DefenseMode::Off
    }
}

/// The defense configuration carried by an executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefensePolicy {
    /// Defense mode.
    pub mode: DefenseMode,
    /// Re-executions allowed per checksum stage per layer under
    /// [`DefenseMode::Correct`] before the mismatch is declared
    /// unresolved.
    pub max_reexecutions: u32,
}

/// Default re-execution budget: two retries covers the overwhelming
/// majority of transient upsets without letting a persistently faulting
/// operating point spin.
pub const DEFAULT_MAX_REEXECUTIONS: u32 = 2;

impl Default for DefensePolicy {
    fn default() -> Self {
        DefensePolicy::off()
    }
}

impl DefensePolicy {
    /// No defense (the undefended fast path).
    pub fn off() -> Self {
        DefensePolicy {
            mode: DefenseMode::Off,
            max_reexecutions: 0,
        }
    }

    /// Detection-only monitoring.
    pub fn detect() -> Self {
        DefensePolicy {
            mode: DefenseMode::Detect,
            max_reexecutions: 0,
        }
    }

    /// Detect + re-execute with the default retry budget.
    pub fn correct() -> Self {
        DefensePolicy {
            mode: DefenseMode::Correct,
            max_reexecutions: DEFAULT_MAX_REEXECUTIONS,
        }
    }

    /// Builds the policy for a mode with the default budgets.
    pub fn for_mode(mode: DefenseMode) -> Self {
        match mode {
            DefenseMode::Off => DefensePolicy::off(),
            DefenseMode::Detect => DefensePolicy::detect(),
            DefenseMode::Correct => DefensePolicy::correct(),
        }
    }

    /// Whether checksum work happens.
    pub fn is_on(&self) -> bool {
        self.mode.is_on()
    }

    /// Re-executions permitted per checksum stage.
    pub fn reexec_budget(&self) -> u32 {
        if self.mode == DefenseMode::Correct {
            self.max_reexecutions
        } else {
            0
        }
    }
}

/// ABFT event counters, accumulated across inferences.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefenseStats {
    /// Checksum verifications performed.
    pub checks: u64,
    /// Verifications that flagged a corrupted tile.
    pub mismatches: u64,
    /// Layer re-executions triggered by mismatches.
    pub reexecutions: u64,
    /// Mismatches still present after the re-execution budget — the
    /// corruption the governor must escalate on.
    pub unresolved: u64,
}

impl DefenseStats {
    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: &DefenseStats) {
        self.checks += other.checks;
        self.mismatches += other.mismatches;
        self.reexecutions += other.reexecutions;
        self.unresolved += other.unresolved;
    }

    /// True when every detected mismatch was resolved.
    pub fn clean(&self) -> bool {
        self.unresolved == 0
    }
}

/// Dual checksum over an integer buffer: plain sum and position-weighted
/// sum, both wrapping. See the module docs for why one sum is not enough
/// under correlated same-bit bursts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntChecksum {
    /// Wrapping sum of elements.
    pub sum: i64,
    /// Wrapping sum of `(index + 1) * element`.
    pub weighted: i64,
}

impl IntChecksum {
    /// Checksums raw 32-bit accumulators.
    pub fn of_acc(acc: &[i32]) -> IntChecksum {
        acc_checksum(acc)
    }

    /// Checksums quantized activation codes.
    pub fn of_codes(codes: &[i8]) -> IntChecksum {
        codes_checksum(codes)
    }

    /// Both sums over [`CHECKSUM_LANES`] interleaved lanes using additions
    /// only, so the loop vectorizes (a per-element 64-bit multiply by the
    /// index does not). Element `L·c + l` sits in lane `l` of chunk `c`;
    /// per lane, `s` sums the values and `q` sums the running `s`, which
    /// gives `Σ_c c·v = C·s − q` over `C` chunks. Wrapping arithmetic is
    /// arithmetic mod 2⁶⁴, where these identities hold exactly, so the
    /// result equals the sequential definition bit for bit.
    #[inline(always)]
    fn of<T: Copy + Into<i64>>(xs: &[T]) -> IntChecksum {
        const L: usize = CHECKSUM_LANES;
        let mut s = [0i64; L];
        let mut q = [0i64; L];
        let chunks = xs.chunks_exact(L);
        let tail = chunks.remainder();
        let c = chunks.len() as i64;
        for chunk in chunks {
            for l in 0..L {
                s[l] = s[l].wrapping_add(chunk[l].into());
                q[l] = q[l].wrapping_add(s[l]);
            }
        }
        let mut sum = 0i64;
        let mut weighted = 0i64;
        for l in 0..L {
            // Σ_c (L·c + l + 1)·v over lane l.
            let index_sum = c.wrapping_mul(s[l]).wrapping_sub(q[l]);
            weighted = weighted
                .wrapping_add((L as i64).wrapping_mul(index_sum))
                .wrapping_add((l as i64 + 1).wrapping_mul(s[l]));
            sum = sum.wrapping_add(s[l]);
        }
        let base = xs.len() - tail.len();
        for (i, &v) in tail.iter().enumerate() {
            let v: i64 = v.into();
            sum = sum.wrapping_add(v);
            weighted = weighted.wrapping_add(v.wrapping_mul((base + i) as i64 + 1));
        }
        IntChecksum { sum, weighted }
    }
}

/// Interleaved lanes of [`IntChecksum::of`]: two 256-bit registers of
/// `i64`.
const CHECKSUM_LANES: usize = 8;

#[inline(always)]
fn acc_checksum_body(acc: &[i32]) -> IntChecksum {
    IntChecksum::of(acc)
}

#[inline(always)]
fn codes_checksum_body(codes: &[i8]) -> IntChecksum {
    IntChecksum::of(codes)
}

kernels::avx2_dispatch! {
    fn acc_checksum / acc_checksum_avx2 => acc_checksum_body(acc: &[i32]) -> IntChecksum
}

kernels::avx2_dispatch! {
    fn codes_checksum / codes_checksum_avx2 => codes_checksum_body(codes: &[i8]) -> IntChecksum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defense_mode_parses_cli_spellings() {
        for mode in [DefenseMode::Off, DefenseMode::Detect, DefenseMode::Correct] {
            assert_eq!(DefenseMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(DefenseMode::parse("banana"), None);
        assert!(!DefenseMode::Off.is_on());
        assert!(DefenseMode::Detect.is_on());
        assert_eq!(DefensePolicy::detect().reexec_budget(), 0);
        assert_eq!(
            DefensePolicy::correct().reexec_budget(),
            DEFAULT_MAX_REEXECUTIONS
        );
    }

    /// The sequential definition the lane-parallel checksum must equal.
    fn sequential(xs: &[i64]) -> IntChecksum {
        let mut sum = 0i64;
        let mut weighted = 0i64;
        for (i, &v) in xs.iter().enumerate() {
            sum = sum.wrapping_add(v);
            weighted = weighted.wrapping_add(v.wrapping_mul(i as i64 + 1));
        }
        IntChecksum { sum, weighted }
    }

    #[test]
    fn int_checksum_equals_the_sequential_definition() {
        let extremes = [i32::MIN, i32::MAX, -1, 0, 1, i32::MIN + 1];
        for n in (0..=40).chain([1000, 4099]) {
            let acc: Vec<i32> = (0..n)
                .map(|i| {
                    if i % 7 == 0 {
                        extremes[i % extremes.len()]
                    } else {
                        (i as i32).wrapping_mul(0x2545_f491)
                    }
                })
                .collect();
            // The dispatchers take the AVX2 build where the CPU has it;
            // the bodies are the portable build.
            let wide: Vec<i64> = acc.iter().map(|&v| i64::from(v)).collect();
            assert_eq!(IntChecksum::of_acc(&acc), sequential(&wide), "n={n}");
            assert_eq!(acc_checksum_body(&acc), sequential(&wide), "n={n}");
            let codes: Vec<i8> = acc.iter().map(|&v| (v >> 24) as i8).collect();
            let wide: Vec<i64> = codes.iter().map(|&v| i64::from(v)).collect();
            assert_eq!(IntChecksum::of_codes(&codes), sequential(&wide), "n={n}");
            assert_eq!(codes_checksum_body(&codes), sequential(&wide), "n={n}");
        }
        // Long enough for the weighted sum to wrap.
        let big = vec![i32::MAX; 1 << 20];
        let wide: Vec<i64> = big.iter().map(|&v| i64::from(v)).collect();
        assert_eq!(IntChecksum::of_acc(&big), sequential(&wide));
    }

    #[test]
    fn int_checksum_catches_single_high_bit_flip() {
        let mut acc: Vec<i32> = (0..64).map(|i| i * 3 - 17).collect();
        let clean = IntChecksum::of_acc(&acc);
        acc[13] ^= 1 << 20;
        assert_ne!(IntChecksum::of_acc(&acc), clean);
    }

    #[test]
    fn weighted_sum_catches_sum_cancelling_burst_pair() {
        // A same-bit burst that flips 0→1 at one site and 1→0 at another
        // leaves the plain sum unchanged; the weighted sum still moves.
        let mut acc = vec![0i32; 32];
        acc[7] = 1 << 20; // 1→0 under XOR
        let clean = IntChecksum::of_acc(&acc);
        acc[6] ^= 1 << 20; // +2^20
        acc[7] ^= 1 << 20; // -2^20
        let faulty = IntChecksum::of_acc(&acc);
        assert_eq!(faulty.sum, clean.sum, "plain sum aliases by construction");
        assert_ne!(faulty.weighted, clean.weighted);
    }

    #[test]
    fn code_checksum_detects_activation_flip() {
        let mut codes: Vec<i8> = (0..100).map(|i| (i % 13 - 6) as i8).collect();
        let clean = IntChecksum::of_codes(&codes);
        codes[42] ^= 0x40;
        assert_ne!(IntChecksum::of_codes(&codes), clean);
    }
}
