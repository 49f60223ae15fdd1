//! # desc-core
//!
//! Bit-exact implementation of **DESC** — *energy-efficient Data Exchange
//! using Synchronized Counters* (Bojnordi & Ipek, MICRO 2013) — together
//! with every baseline data-transfer scheme the paper evaluates.
//!
//! DESC represents information by the *delay in clock cycles* between two
//! consecutive pulses on a set of wires: one pulse on a shared reset wire
//! opens a transfer window, and a single toggle on a data wire at cycle
//! `v` communicates the chunk value `v`. Each chunk therefore costs
//! exactly one wire transition regardless of the data pattern, which
//! decouples interconnect activity from data content.
//!
//! ## What lives here
//!
//! * [`analysis`] — per-wire activity-balance statistics.
//! * [`block`] — cache-block containers ([`Block`]).
//! * [`chunk`] — block ⇄ chunk partitioning and wire assignment
//!   (paper Fig. 4).
//! * [`wire`] — per-wire toggle state and exact transition tallies.
//! * [`cost`] — [`TransferCost`], the common currency all schemes report.
//! * [`scheme`] — the [`TransferScheme`] trait.
//! * [`schemes`] — the eight transfer schemes of the paper's Fig. 16:
//!   conventional binary, serial, dynamic zero compression, bus-invert
//!   coding, zero-skipped bus-invert (sparse and encoded variants), and
//!   DESC (basic, zero-skipped, last-value-skipped).
//! * [`protocol`] — a cycle-stepped transmitter/receiver pair that
//!   produces real signal traces (paper Fig. 5) and is used to
//!   cross-check the analytic cost model.
//! * [`rng`] — the in-tree deterministic PRNG every crate in the
//!   workspace uses (the build is hermetic: no external dependencies).
//! * [`circuits`] — toggle generator / detector / regenerator behavioural
//!   models (paper Fig. 8).
//! * [`synthesis`] — area / peak-power / delay estimates for a DESC
//!   transmitter+receiver pair (paper Fig. 17, Table 3).
//!
//! ## Quick example
//!
//! ```
//! use desc_core::{Block, ChunkSize, schemes::{DescScheme, SkipMode}, TransferScheme};
//!
//! // A 64-byte cache block, mostly zero (common in last-level caches).
//! let mut bytes = [0u8; 64];
//! bytes[0] = 0x53;
//! let block = Block::from_bytes(&bytes);
//!
//! // Zero-skipped DESC over 128 data wires with 4-bit chunks.
//! let mut desc = DescScheme::new(128, ChunkSize::new(4).unwrap(), SkipMode::Zero);
//! let cost = desc.transfer(&block);
//!
//! // Only the two non-zero chunks toggle; everything else is skipped.
//! assert_eq!(cost.data_transitions, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod block;
pub mod chunk;
pub mod circuits;
pub mod cost;
pub mod protocol;
pub mod rng;
pub mod scheme;
pub mod schemes;
mod swar;
pub mod synthesis;
pub mod wire;

pub use block::{Block, BlockSlab};
pub use chunk::{ChunkSize, Chunks, WireAssignment};
pub use cost::{CostSummary, TransferCost};
pub use scheme::{transfer_each, TransferScheme};
