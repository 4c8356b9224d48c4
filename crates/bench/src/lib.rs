//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Each function in [`harness`] reproduces one table or figure of the
//! DSN-2020 study and returns it as a printable [`redvolt_core::report::Table`].
//! The `repro` binary prints them (`cargo run --release -p redvolt-bench
//! --bin repro -- all`); EXPERIMENTS.md records paper-vs-measured for a
//! full run. The crate's other binaries drive the serving fleet (`serve`),
//! audit the model constants (`calibrate`) and check the host-time
//! performance bounds (`gates`).

pub mod harness;

pub use harness::Settings;
