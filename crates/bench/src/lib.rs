//! Experiment harness regenerating every figure of the paper's evaluation
//! (§V), plus the log-complexity table implied by §IV.
//!
//! | experiment | paper | binary |
//! |---|---|---|
//! | write latency vs. cluster size | Fig. 6 (top) | `cargo run -p rmem-bench --bin fig6 -- top` |
//! | write latency vs. payload size | Fig. 6 (bottom) | `cargo run -p rmem-bench --bin fig6 -- bottom` |
//! | causal logs per operation (+ ablation violations) | §IV Theorems 1–2 | `cargo run -p rmem-bench --bin log_table` |
//! | real-mode calibration (loopback UDP + fsync) | §V-A setup | `cargo run -p rmem-bench --bin real_mode` |
//! | sharded-store throughput per flavor (uniform/Zipf keys) | store layer over §V | `cargo run -p rmem-bench --bin kv_throughput` |
//!
//! The simulator is calibrated to the paper's constants — one-way message
//! delay δ ≈ 100 µs, synchronous log λ ≈ 200 µs (§I-B) — so the *shape*
//! of every result is comparable: who wins, by roughly what factor, and
//! where the curves grow.
//!
//! `kv_throughput`'s wall-clock sections — [`disk`], [`obs`], [`trace`],
//! and [`pipeline`] — run on real clusters and share one load
//! driver, [`load`]: closed-loop worker threads whose step is a Zipf
//! `get`/`put` or a rotating `multi_*` batch, and a per-key-certified
//! recorded twin of the same traffic that gates every reported row.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod disk;
pub mod experiments;
pub mod explore;
pub mod kv;
pub mod load;
pub mod obs;
pub mod pipeline;
pub mod scenarios;
pub mod table;
pub mod trace;

pub use experiments::{
    ablation_table, fig6_bottom, fig6_top, log_table, real_mode, recovery_table, AblationRow,
    AlgoChoice, Fig6BottomRow, Fig6TopRow, LogTableRow, RecoveryRow,
};
pub use table::Table;
