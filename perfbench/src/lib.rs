//! End-to-end benchmark of the served PCOR release path.
//!
//! One run starts the real stack in this process (`DatasetRegistry`,
//! `BudgetLedger` or `DurableLedger`, `Server`, and `NetFront` on loopback
//! where the workload uses the wire), drives it with seeded traffic,
//! checks every output and reports the end-to-end metrics; a traced run
//! reports per-layer metrics instead. See `perfbench/README.md`.

pub mod check;
pub mod drive;
pub mod env;
pub mod gen;
pub mod replay;
pub mod run;
pub mod spec;
pub mod stack;
pub mod stats;
pub mod trace;
