//! Transfer cost accounting — the common currency of all schemes.
//!
//! A [`TransferCost`] reports, for one cache-block transfer, the exact
//! number of wire transitions broken down by wire class, the transfer
//! latency in bus clock cycles, and the wire counts the scheme occupies.
//! Energy models downstream (the `desc-cacti` crate) convert transitions
//! into joules; performance models convert cycles into hit latency.

use crate::wire::WireClass;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// Exact cost of transferring one block over the interconnect.
///
/// # Examples
///
/// ```
/// use desc_core::TransferCost;
///
/// let a = TransferCost { data_transitions: 4, cycles: 1, ..TransferCost::ZERO };
/// let b = TransferCost { data_transitions: 2, control_transitions: 1, cycles: 3, ..TransferCost::ZERO };
/// let sum = a + b;
/// assert_eq!(sum.total_transitions(), 7);
/// assert_eq!(sum.cycles, 4);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TransferCost {
    /// Transitions on the data wires of the bus.
    pub data_transitions: u64,
    /// Transitions on shared strobe wires (DESC reset/skip) and
    /// per-segment control wires (invert / zero-indicator / mode wires).
    pub control_transitions: u64,
    /// Transitions on the synchronization strobe (DESC only).
    pub sync_transitions: u64,
    /// Bus clock cycles the transfer occupies the link.
    pub cycles: u64,
    /// Effective latency in bus clock cycles before the receiver can
    /// use the block — the critical-path delay, which for DESC sits at
    /// the *effective* window position rather than the worst strobe
    /// (Fig. 21's window interpretation). `0` is a sentinel meaning
    /// "same as `cycles`"; read through [`TransferCost::latency`]. Only
    /// latency accounting uses this — occupancy, queueing and energy
    /// keep using `cycles`.
    pub latency_cycles: u64,
}

impl TransferCost {
    /// The zero cost (no transfer).
    pub const ZERO: TransferCost = TransferCost {
        data_transitions: 0,
        control_transitions: 0,
        sync_transitions: 0,
        cycles: 0,
        latency_cycles: 0,
    };

    /// Effective receiver latency in cycles.
    ///
    /// Falls back to `cycles` (full link occupancy) for schemes that do
    /// not distinguish the two — all fixed-cycle baselines.
    ///
    /// # Examples
    ///
    /// ```
    /// use desc_core::TransferCost;
    ///
    /// let fixed = TransferCost { cycles: 4, ..TransferCost::ZERO };
    /// assert_eq!(fixed.latency(), 4);
    /// let desc = TransferCost { cycles: 14, latency_cycles: 9, ..TransferCost::ZERO };
    /// assert_eq!(desc.latency(), 9);
    /// ```
    #[must_use]
    pub fn latency(&self) -> u64 {
        if self.latency_cycles == 0 {
            self.cycles
        } else {
            self.latency_cycles
        }
    }

    /// Transitions summed over every wire class.
    #[must_use]
    pub fn total_transitions(&self) -> u64 {
        self.data_transitions + self.control_transitions + self.sync_transitions
    }

    /// Adds `n` transitions attributed to `class`.
    pub fn add_transitions(&mut self, class: WireClass, n: u64) {
        match class {
            WireClass::Data => self.data_transitions += n,
            WireClass::ResetSkip | WireClass::Control => self.control_transitions += n,
            WireClass::Sync => self.sync_transitions += n,
        }
    }
}

impl Add for TransferCost {
    type Output = TransferCost;

    fn add(mut self, rhs: TransferCost) -> TransferCost {
        self += rhs;
        self
    }
}

impl AddAssign for TransferCost {
    fn add_assign(&mut self, rhs: TransferCost) {
        // Resolve latencies before mutating `cycles` so the sentinel
        // ("0 means same as cycles") is read against the pre-add state.
        // The sum stays in sentinel form when both operands are — this
        // keeps `c + ZERO == c` exact for plain costs.
        let latency_sum = if self.latency_cycles == 0 && rhs.latency_cycles == 0 {
            0
        } else {
            self.latency() + rhs.latency()
        };
        self.data_transitions += rhs.data_transitions;
        self.control_transitions += rhs.control_transitions;
        self.sync_transitions += rhs.sync_transitions;
        self.cycles += rhs.cycles;
        self.latency_cycles = latency_sum;
    }
}

impl Sum for TransferCost {
    fn sum<I: Iterator<Item = TransferCost>>(iter: I) -> TransferCost {
        iter.fold(TransferCost::ZERO, Add::add)
    }
}

impl fmt::Display for TransferCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} data + {} ctrl + {} sync transitions in {} cycles",
            self.data_transitions, self.control_transitions, self.sync_transitions, self.cycles
        )
    }
}

/// Wire resources a scheme occupies, used for area accounting and for
/// normalising energy across schemes with different wire counts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WireBudget {
    /// Data wires in the bus.
    pub data_wires: usize,
    /// Shared strobes plus per-segment control wires.
    pub control_wires: usize,
    /// Synchronization strobe wires (0 or 1).
    pub sync_wires: usize,
}

impl WireBudget {
    /// Total physical wires.
    #[must_use]
    pub fn total(&self) -> usize {
        self.data_wires + self.control_wires + self.sync_wires
    }
}

impl fmt::Display for WireBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} data + {} ctrl + {} sync wires",
            self.data_wires, self.control_wires, self.sync_wires
        )
    }
}

/// Running aggregate over many block transfers, with convenience
/// statistics used throughout the evaluation.
///
/// # Examples
///
/// ```
/// use desc_core::{CostSummary, TransferCost};
///
/// let mut s = CostSummary::new();
/// s.record(TransferCost { data_transitions: 4, cycles: 2, ..TransferCost::ZERO });
/// s.record(TransferCost { data_transitions: 2, cycles: 4, ..TransferCost::ZERO });
/// assert_eq!(s.blocks(), 2);
/// assert_eq!(s.mean_cycles(), 3.0);
/// assert_eq!(s.total().data_transitions, 6);
/// ```
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct CostSummary {
    total: TransferCost,
    blocks: u64,
    max_cycles: u64,
}

impl CostSummary {
    /// An empty summary.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reconstructs a summary from its serialized parts (the cache
    /// codec round-trips `total()`/`blocks()`/`max_cycles()` through
    /// this). Does not touch telemetry — replaying cached metrics is
    /// the caller's job.
    #[must_use]
    pub fn from_parts(total: TransferCost, blocks: u64, max_cycles: u64) -> Self {
        Self { total, blocks, max_cycles }
    }

    /// Records the cost of one block transfer.
    ///
    /// When telemetry is enabled the transfer is also mirrored into
    /// the global registry (`core.cost.*`) — this is the one point
    /// every scheme's every block passes through. All updates are
    /// order-independent, so totals are identical for any sweep
    /// worker count.
    pub fn record(&mut self, cost: TransferCost) {
        self.total += cost;
        self.blocks += 1;
        self.max_cycles = self.max_cycles.max(cost.cycles);
        if desc_telemetry::enabled() {
            desc_telemetry::counter!("core.cost.blocks").incr();
            desc_telemetry::counter!("core.cost.data_transitions").add(cost.data_transitions);
            desc_telemetry::counter!("core.cost.control_transitions").add(cost.control_transitions);
            desc_telemetry::counter!("core.cost.sync_transitions").add(cost.sync_transitions);
            desc_telemetry::counter!("core.cost.cycles").add(cost.cycles);
            desc_telemetry::gauge!("core.cost.max_cycles").record_max(cost.cycles);
        }
    }

    /// Number of blocks recorded.
    #[must_use]
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Summed cost over all recorded blocks.
    #[must_use]
    pub fn total(&self) -> TransferCost {
        self.total
    }

    /// Mean transitions per block (all wire classes).
    #[must_use]
    pub fn mean_transitions(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.total.total_transitions() as f64 / self.blocks as f64
        }
    }

    /// Mean transfer latency per block in cycles.
    #[must_use]
    pub fn mean_cycles(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.total.cycles as f64 / self.blocks as f64
        }
    }

    /// Mean *effective* receiver latency per block in cycles (see
    /// [`TransferCost::latency`]); equals [`CostSummary::mean_cycles`]
    /// for schemes without a distinct effective window.
    #[must_use]
    pub fn mean_latency_cycles(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.total.latency() as f64 / self.blocks as f64
        }
    }

    /// Worst-case transfer latency observed.
    #[must_use]
    pub fn max_cycles(&self) -> u64 {
        self.max_cycles
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &CostSummary) {
        self.total += other.total;
        self.blocks += other.blocks;
        self.max_cycles = self.max_cycles.max(other.max_cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_cost_is_identity() {
        let c = TransferCost {
            data_transitions: 3,
            control_transitions: 2,
            sync_transitions: 1,
            cycles: 7,
            latency_cycles: 0,
        };
        assert_eq!(c + TransferCost::ZERO, c);
        assert_eq!(c.total_transitions(), 6);
    }

    #[test]
    fn add_transitions_routes_by_class() {
        let mut c = TransferCost::ZERO;
        c.add_transitions(WireClass::Data, 5);
        c.add_transitions(WireClass::ResetSkip, 2);
        c.add_transitions(WireClass::Control, 1);
        c.add_transitions(WireClass::Sync, 4);
        assert_eq!(c.data_transitions, 5);
        assert_eq!(c.control_transitions, 3);
        assert_eq!(c.sync_transitions, 4);
    }

    #[test]
    fn sum_over_iterator() {
        let costs = vec![
            TransferCost { data_transitions: 1, cycles: 1, ..TransferCost::ZERO },
            TransferCost { data_transitions: 2, cycles: 2, ..TransferCost::ZERO },
        ];
        let s: TransferCost = costs.into_iter().sum();
        assert_eq!(s.data_transitions, 3);
        assert_eq!(s.cycles, 3);
    }

    #[test]
    fn summary_statistics() {
        let mut s = CostSummary::new();
        assert_eq!(s.mean_transitions(), 0.0);
        s.record(TransferCost { data_transitions: 10, cycles: 5, ..TransferCost::ZERO });
        s.record(TransferCost {
            data_transitions: 20,
            sync_transitions: 2,
            cycles: 15,
            ..TransferCost::ZERO
        });
        assert_eq!(s.mean_transitions(), 16.0);
        assert_eq!(s.mean_cycles(), 10.0);
        assert_eq!(s.max_cycles(), 15);
    }

    #[test]
    fn summary_merge_combines() {
        let mut a = CostSummary::new();
        a.record(TransferCost { cycles: 3, ..TransferCost::ZERO });
        let mut b = CostSummary::new();
        b.record(TransferCost { cycles: 9, ..TransferCost::ZERO });
        a.merge(&b);
        assert_eq!(a.blocks(), 2);
        assert_eq!(a.max_cycles(), 9);
    }

    #[test]
    fn latency_sentinel_resolves_and_sums() {
        // Sentinel: 0 reads as `cycles`.
        let plain = TransferCost { cycles: 7, ..TransferCost::ZERO };
        assert_eq!(plain.latency(), 7);

        // Adding two sentinel costs stays in sentinel form (ZERO identity).
        let sum = plain + TransferCost { cycles: 3, ..TransferCost::ZERO };
        assert_eq!(sum.latency_cycles, 0);
        assert_eq!(sum.latency(), 10);

        // Mixing sentinel and explicit latencies resolves both sides.
        let desc = TransferCost { cycles: 14, latency_cycles: 9, ..TransferCost::ZERO };
        let mixed = plain + desc;
        assert_eq!(mixed.cycles, 21);
        assert_eq!(mixed.latency(), 7 + 9);
        let mixed_rev = desc + plain;
        assert_eq!(mixed_rev.latency(), 9 + 7);

        let mut s = CostSummary::new();
        s.record(plain);
        s.record(desc);
        assert_eq!(s.mean_cycles(), 10.5);
        assert_eq!(s.mean_latency_cycles(), 8.0);
    }

    #[test]
    fn wire_budget_total() {
        let w = WireBudget { data_wires: 128, control_wires: 1, sync_wires: 1 };
        assert_eq!(w.total(), 130);
        assert!(format!("{w}").contains("128 data"));
    }
}
