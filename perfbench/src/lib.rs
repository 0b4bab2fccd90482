//! Host-throughput benchmark of the mtbalance simulator.
//!
//! Runs a named workload (`meso-noise`, `cycle-paper`, `cycle-cluster`)
//! through the simulator's public entry points for a fixed time, checks
//! every case's output, and reports end-to-end metrics or — in a traced
//! run — per-layer ones. `NOTES.md` beside this crate says why each
//! workload exists and which layer metric should move which end-to-end
//! metric on which workload.

#![forbid(unsafe_code)]

pub mod bench;
pub mod calibrate;
pub mod exec;
pub mod metrics;
pub mod probe;
pub mod trace;
pub mod workload;
