//! # desc-cacti
//!
//! An analytic cache energy / delay / area model standing in for the
//! paper's modified CACTI 6.5 (§4.1).
//!
//! The DESC evaluation needs exactly five quantities from CACTI, all as
//! functions of the cache organisation (capacity, banks, bus width)
//! and the ITRS device classes used for the SRAM cells and the
//! peripheral circuitry:
//!
//! 1. H-tree energy **per wire transition** (the quantity DESC
//!    optimises),
//! 2. array energy per access (decode, wordline, bitline, sense),
//! 3. leakage power,
//! 4. area,
//! 5. access delay.
//!
//! This crate computes all five from first-order circuit equations
//! (C·V² wire switching, per-bit leakage, square-root floorplanning)
//! with technology constants documented in [`tech`] and calibrated to
//! the paper's anchors: with low-standby-power (LSTP) devices the
//! H-tree dominates L2 energy (≈80%, paper Fig. 2), and the most
//! energy-efficient organisation of an 8 MB cache is 8 banks with a
//! 64-bit bus (paper Fig. 14).
//!
//! ## Example
//!
//! ```
//! use desc_cacti::{CacheConfig, CacheModel};
//!
//! let config = CacheConfig::paper_baseline();
//! assert_eq!(config.banks, 8);
//! let model = CacheModel::new(config);
//!
//! // The five CACTI quantities:
//! assert!(model.htree_energy_per_transition() > 0.0);
//! assert!(model.array_read_energy() > 0.0);
//! assert!(model.leakage_power() > 0.0);
//! assert!(model.area_mm2() > 0.0);
//! assert!(model.hit_latency_cycles() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod geometry;
pub mod snuca;
pub mod tech;
pub mod wire;

pub use cache::{CacheConfig, CacheModel, EnergyBreakdown};
pub use tech::{DeviceType, TechParams};
pub use wire::{Signaling, WireModel};
