//! Undervolting fault models and injection.
//!
//! Bridges the board physics to the CNN datapath: the board's timing model
//! yields a relative slack deficit at the current (V, f, T) point;
//! [`model`] maps the deficit to per-site fault rates (exponential in the
//! deficit, as the paper's measured accuracy curves imply); and
//! [`injector::SlackFaultInjector`] turns rates into deterministic,
//! Poisson-sampled bursts of transient bit flips, which the quantized
//! executor of `redvolt-nn` plans per fault site (graph node and storage
//! kind) into a reused buffer and applies in place.
//!
//! [`bus`] models a different failure surface: transient PMBus-transaction
//! faults (NACKs, timeouts, read bit flips) on the *control plane*, which
//! the host adapter's retry/verify policy must absorb.
//!
//! [`ecc`] layers the board's built-in SECDED(72,64) BRAM protection over
//! weight/activation fault plans, regrouping their flips by ECC word in
//! place — the first stage of the SDC defense.
//!
//! # Examples
//!
//! ```
//! use redvolt_faults::board_injector;
//! use redvolt_fpga::board::Zcu102Board;
//! use redvolt_fpga::power::LoadProfile;
//!
//! let mut board = Zcu102Board::new(0);
//! board.set_load(LoadProfile::nominal());
//! // At nominal voltage there is slack to spare: a clean injector.
//! let inj = board_injector(&board, 42);
//! assert!(inj.rates().is_zero());
//! ```

pub mod bus;
pub mod ecc;
pub mod injector;
pub mod model;

use injector::SlackFaultInjector;
use model::FaultRates;
use redvolt_fpga::board::Zcu102Board;

/// The fault rates at the board's *current* operating point (voltage,
/// clock, junction temperature): logic-rail timing faults plus BRAM
/// read-margin faults when `VCCBRAM` is driven below its own safe floor
/// (see [`model::bram_weight_rate`]). All zero means every injector built
/// here plans no flips and draws nothing from its RNG.
pub fn board_rates(board: &Zcu102Board) -> FaultRates {
    let mut rates = FaultRates::for_deficit(board.slack_deficit());
    rates.per_weight += model::bram_weight_rate(board.vccbram_mv());
    rates
}

/// Builds a seeded injector at [`board_rates`].
pub fn board_injector(board: &Zcu102Board, seed: u64) -> SlackFaultInjector {
    SlackFaultInjector::new(board_rates(board), seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use redvolt_fpga::power::LoadProfile;
    use redvolt_pmbus::adapter::PmbusAdapter;

    #[test]
    fn injector_tracks_board_voltage() {
        let mut board = Zcu102Board::new(0).with_exact_telemetry();
        board.set_load(LoadProfile::nominal());
        let mut host = PmbusAdapter::new();

        host.set_vout(&mut board, 0x13, 0.600).unwrap();
        assert!(board_injector(&board, 1).rates().is_zero());

        host.set_vout(&mut board, 0x13, 0.550).unwrap();
        let critical = board_injector(&board, 1);
        assert!(critical.rates().per_mac > 0.0);

        host.set_vout(&mut board, 0x13, 0.545).unwrap();
        let deeper = board_injector(&board, 1);
        assert!(deeper.rates().per_mac > critical.rates().per_mac);
    }

    #[test]
    fn lower_clock_removes_faults() {
        // Table 2: (540 mV, 200 MHz) runs without accuracy loss.
        let mut board = Zcu102Board::new(0).with_exact_telemetry();
        board.set_load(LoadProfile {
            f_mhz: 200.0,
            ..LoadProfile::nominal()
        });
        let mut host = PmbusAdapter::new();
        host.set_vout(&mut board, 0x13, 0.540).unwrap();
        assert!(board_injector(&board, 1).rates().is_zero());
    }

    #[test]
    fn higher_temperature_reduces_rates() {
        // ITD (§7.2): at a fixed sub-Vmin voltage, heat reduces fault rates.
        let mut board = Zcu102Board::new(0).with_exact_telemetry();
        board.set_load(LoadProfile::nominal());
        let mut host = PmbusAdapter::new();
        host.set_vout(&mut board, 0x13, 0.550).unwrap();

        board.thermal_mut().force_temperature(34.0);
        let cold = board_injector(&board, 1).rates().per_mac;
        board.thermal_mut().force_temperature(52.0);
        let hot = board_injector(&board, 1).rates().per_mac;
        assert!(hot < cold, "hot {hot} should be below cold {cold}");
    }
}
