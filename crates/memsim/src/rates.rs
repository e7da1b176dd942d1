//! Per-instruction event rates — the interface between the cache
//! simulation and the timing model.
//!
//! A characterization run (see [`crate::trace::Characterizer`]) boils a
//! configuration down to events-per-instruction in each space. The engine
//! multiplies these by instruction counts to advance simulated time and to
//! drive the EMON counters.

use crate::hierarchy::HierarchyCounts;
use odb_core::breakdown::StallCosts;

/// Events per instruction for one execution space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpaceRates {
    /// Trace-cache misses per instruction.
    pub tc_miss: f64,
    /// L2 misses per instruction (code + data).
    pub l2_miss: f64,
    /// L3 misses per instruction — the MPI of Figs 13–15.
    pub l3_miss: f64,
    /// Portion of `l3_miss` caused by coherence invalidations.
    pub l3_coherence_miss: f64,
    /// Dirty L3 writebacks per instruction (extra bus transactions).
    pub l3_writeback: f64,
    /// TLB misses per instruction.
    pub tlb_miss: f64,
    /// Mispredicted branches per instruction. Not cache-derived: the
    /// paper observes this component is flat across the configuration
    /// space, so it enters as a workload constant.
    pub branch_mispred: f64,
    /// Residual stall CPI (pipeline hazards, resource stalls) folded into
    /// the paper's "Other" component.
    pub other_stall_cpi: f64,
}

impl SpaceRates {
    /// Derives rates from simulated counts plus the non-simulated
    /// constants; `None` when no instructions were retired.
    pub fn from_counts(
        counts: &HierarchyCounts,
        branch_mispred: f64,
        other_stall_cpi: f64,
    ) -> Option<Self> {
        if counts.instructions == 0 {
            return None;
        }
        let instr = counts.instructions as f64;
        Some(Self {
            tc_miss: counts.tc_misses as f64 / instr,
            l2_miss: counts.l2_misses as f64 / instr,
            l3_miss: counts.l3_misses as f64 / instr,
            l3_coherence_miss: counts.l3_coherence_misses as f64 / instr,
            l3_writeback: counts.l3_writebacks as f64 / instr,
            tlb_miss: counts.tlb_misses as f64 / instr,
            branch_mispred,
            other_stall_cpi,
        })
    }

    /// The CPI these rates imply under the paper's Table 4 cost model,
    /// given the current IOQ latency (which inflates each L3 miss beyond
    /// the unloaded baseline).
    ///
    /// This is the timing law the full-system simulator runs on; the
    /// measured counters then reproduce it, which is exactly the
    /// self-consistency the iron law asserts.
    pub fn cpi(&self, costs: &StallCosts, ioq_latency_cycles: f64) -> f64 {
        let l3_cost =
            costs.l3_miss + (ioq_latency_cycles - costs.bus_transaction_1p).max(0.0);
        costs.instruction
            + self.branch_mispred * costs.branch_misprediction
            + self.tlb_miss * costs.tlb_miss
            + self.tc_miss * costs.tc_miss
            + (self.l2_miss - self.l3_miss).max(0.0) * costs.l2_miss
            + self.l3_miss * l3_cost
            + self.other_stall_cpi
    }

    /// Bus transactions generated per instruction: every L3 miss fetches a
    /// line and every dirty victim writes one back.
    pub fn bus_transactions_per_instr(&self) -> f64 {
        self.l3_miss + self.l3_writeback
    }
}

/// Rates for both spaces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRates {
    /// User-space rates.
    pub user: SpaceRates,
    /// OS-space rates.
    pub os: SpaceRates,
}

impl EventRates {
    /// Instruction-weighted blend of the user and OS CPIs: the overall
    /// CPI for a stream whose OS instruction share is `os_fraction`.
    pub fn blended_cpi(
        &self,
        costs: &StallCosts,
        ioq_latency_cycles: f64,
        os_fraction: f64,
    ) -> f64 {
        let f = os_fraction.clamp(0.0, 1.0);
        (1.0 - f) * self.user.cpi(costs, ioq_latency_cycles)
            + f * self.os.cpi(costs, ioq_latency_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rates() -> SpaceRates {
        SpaceRates {
            tc_miss: 0.003,
            l2_miss: 0.02,
            l3_miss: 0.008,
            l3_coherence_miss: 0.0001,
            l3_writeback: 0.002,
            tlb_miss: 0.002,
            branch_mispred: 0.004,
            other_stall_cpi: 0.25,
        }
    }

    #[test]
    fn from_counts_divides_by_instructions() {
        let counts = HierarchyCounts {
            instructions: 1_000_000,
            tc_misses: 3_000,
            l2_misses: 20_000,
            l3_misses: 8_000,
            l3_coherence_misses: 100,
            l3_writebacks: 2_000,
            tlb_misses: 2_000,
            ..Default::default()
        };
        let r = SpaceRates::from_counts(&counts, 0.004, 0.25).unwrap();
        assert_eq!(r, sample_rates());
        assert!(SpaceRates::from_counts(&HierarchyCounts::default(), 0.0, 0.0).is_none());
    }

    #[test]
    fn cpi_matches_hand_computation_at_unloaded_bus() {
        let r = sample_rates();
        let costs = StallCosts::xeon();
        let expected = 0.5
            + 0.004 * 20.0
            + 0.002 * 20.0
            + 0.003 * 20.0
            + (0.02 - 0.008) * 16.0
            + 0.008 * 300.0
            + 0.25;
        assert!((r.cpi(&costs, 102.0) - expected).abs() < 1e-12);
    }

    #[test]
    fn loaded_bus_raises_cpi_via_l3_only() {
        let r = sample_rates();
        let costs = StallCosts::xeon();
        let base = r.cpi(&costs, 102.0);
        let loaded = r.cpi(&costs, 152.0);
        assert!((loaded - base - 0.008 * 50.0).abs() < 1e-12);
        // Below-baseline IOQ readings never grant a discount.
        assert_eq!(r.cpi(&costs, 50.0), base);
    }

    #[test]
    fn bus_transactions_include_writebacks() {
        let r = sample_rates();
        assert!((r.bus_transactions_per_instr() - 0.010).abs() < 1e-12);
    }

    #[test]
    fn blended_cpi_interpolates() {
        let user = sample_rates();
        let os = SpaceRates {
            l3_miss: 0.004,
            l2_miss: 0.01,
            ..user
        };
        let rates = EventRates { user, os };
        let costs = StallCosts::xeon();
        let u = user.cpi(&costs, 102.0);
        let o = os.cpi(&costs, 102.0);
        assert!(o < u);
        let b = rates.blended_cpi(&costs, 102.0, 0.25);
        assert!((b - (0.75 * u + 0.25 * o)).abs() < 1e-12);
        assert_eq!(rates.blended_cpi(&costs, 102.0, 0.0), u);
        assert_eq!(rates.blended_cpi(&costs, 102.0, 1.0), o);
        // Out-of-range fractions clamp.
        assert_eq!(rates.blended_cpi(&costs, 102.0, 2.0), o);
    }
}
