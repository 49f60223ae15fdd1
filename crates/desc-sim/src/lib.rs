//! # desc-sim
//!
//! Trace-driven system simulator standing in for the paper's modified
//! SESC (§4.1): a shared, banked L2 cache with pluggable data-transfer
//! schemes, a DRAM channel model, and core timing models for the two
//! evaluated machines (Table 1) — an 8-core Niagara-like fine-grained
//! multithreaded processor and a 4-issue out-of-order core.
//!
//! The simulator is *activity-exact* where the paper's results need it
//! to be: every L2 block transfer runs through a real
//! [`TransferScheme`] from `desc-core` with real block contents from
//! `desc-workloads`, so H-tree transition counts and value-dependent
//! transfer latencies are measured, not estimated. Timing uses an
//! iterated event model: bank occupancy and queueing are simulated
//! event-by-event, and the resulting stalls feed back into the access
//! arrival rate until execution time converges.
//!
//! The simulator starts at the L2: `desc-workloads` generates post-L1
//! access streams, so there is no per-core L1 or coherence model.
//! DESC's results depend on L2 H-tree activity alone (paper §4).
//!
//! ```
//! use desc_sim::{SimConfig, SystemSim};
//! use desc_workloads::BenchmarkId;
//! use desc_core::schemes::SchemeKind;
//!
//! let cfg = SimConfig::paper_multithreaded();
//! let result = SystemSim::new(cfg, BenchmarkId::Radix.profile(), 1)
//!     .run(SchemeKind::ZeroSkippedDesc.build_paper_config(), 5_000);
//! assert!(result.exec_time_s > 0.0);
//! assert!(result.activity.htree_transitions > 0);
//! ```
//!
//! [`TransferScheme`]: desc_core::TransferScheme

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
mod batch;
pub mod cache;
pub mod config;
pub mod dram;
mod shard;
pub mod snuca;
pub mod system;

pub use cache::SetAssocCache;
pub use config::{CoreModel, SimConfig};
pub use snuca::SnucaSim;
pub use system::{SimResult, SystemSim};
