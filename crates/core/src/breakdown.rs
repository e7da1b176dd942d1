//! CPI decomposition by microarchitectural event (§5.1.1, Tables 2–4).
//!
//! The paper attributes CPI to components by assigning a *fixed* stall cost
//! to each performance-monitoring event (Table 3), multiplying by the event
//! count (Table 4) and reporting the residual between the measured and the
//! computed CPI as *Other*.

use crate::error::Error;
use crate::metrics::SpaceCounts;
use std::fmt;

/// The performance-monitoring events of Table 2, by the alias the paper
/// uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// Instructions retired.
    Instructions,
    /// Mispredicted branches retired.
    BranchMispredictions,
    /// TLB misses (page walks).
    TlbMiss,
    /// Trace-cache misses.
    TcMiss,
    /// L2 cache misses.
    L2Miss,
    /// L3 cache misses.
    L3Miss,
    /// Unhalted clock cycles.
    ClockCycles,
    /// Fraction of time the processor bus is transferring data.
    BusUtilization,
    /// Average time for a bus transaction to complete once it enters the
    /// IOQ.
    BusTransactionTime,
}

impl Event {
    /// All events, in the order of the paper's Table 2.
    pub const ALL: [Event; 9] = [
        Event::Instructions,
        Event::BranchMispredictions,
        Event::TlbMiss,
        Event::TcMiss,
        Event::L2Miss,
        Event::L3Miss,
        Event::ClockCycles,
        Event::BusUtilization,
        Event::BusTransactionTime,
    ];

    /// The underlying EMON event name(s) (Table 2, middle column).
    pub fn emon_events(&self) -> &'static str {
        match self {
            Event::Instructions => "instr_retired",
            Event::BranchMispredictions => "mispred_branch_retired",
            Event::TlbMiss => "page_walk_type",
            Event::TcMiss => "BPU_fetch_request",
            Event::L2Miss => "BSU_cache_reference",
            Event::L3Miss => "BSU_cache_reference",
            Event::ClockCycles => "Global_power_events",
            Event::BusUtilization => "FSB_data_activity",
            Event::BusTransactionTime => "IOQ_active_entries & IOQ_allocation",
        }
    }

    /// The descriptive text of Table 2 (right column).
    pub fn description(&self) -> &'static str {
        match self {
            Event::Instructions => "The number of instructions retired",
            Event::BranchMispredictions => "The number of mispredicted branches",
            Event::TlbMiss => "The number of misses in the TLB",
            Event::TcMiss => "The number of misses in the Trace Cache",
            Event::L2Miss => "The number of misses in the L2 cache",
            Event::L3Miss => "The number of misses in the L3 cache",
            Event::ClockCycles => "The number of unhalted clock cycles",
            Event::BusUtilization => {
                "The percentage of time the processor bus is transferring data"
            }
            Event::BusTransactionTime => {
                "The average amount of time to complete a bus transaction once it enters the IOQ"
            }
        }
    }

    /// The alias the paper uses for this event (Table 2, left column).
    pub fn alias(&self) -> &'static str {
        match self {
            Event::Instructions => "Instructions",
            Event::BranchMispredictions => "Branch Mispredictions",
            Event::TlbMiss => "TLB Miss",
            Event::TcMiss => "TC Miss",
            Event::L2Miss => "L2 Miss",
            Event::L3Miss => "L3 Miss",
            Event::ClockCycles => "Clock Cycles",
            Event::BusUtilization => "Bus Utilization",
            Event::BusTransactionTime => "Bus-Transaction Time",
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.alias())
    }
}

/// The fixed per-event stall costs of Table 3, in clock cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallCosts {
    /// Base cycles per retired instruction (0.5: the NetBurst core can
    /// retire roughly two instructions per cycle when nothing stalls).
    pub instruction: f64,
    /// Cycles per mispredicted branch.
    pub branch_misprediction: f64,
    /// Cycles per TLB miss (page walk).
    pub tlb_miss: f64,
    /// Cycles per trace-cache miss.
    pub tc_miss: f64,
    /// Cycles per L2 miss that hits in L3 (measured: 16).
    pub l2_miss: f64,
    /// Cycles per L3 miss at unloaded bus (measured: 300).
    pub l3_miss: f64,
    /// Unloaded (1P) bus-transaction time in the IOQ (measured: 102).
    /// The L3 component charges `l3_miss + (observed IOQ time − this)` per
    /// miss, so bus queueing inflates only the L3 term (Table 4).
    pub bus_transaction_1p: f64,
}

impl StallCosts {
    /// The paper's Table 3 values for the Xeon MP machine.
    pub fn xeon() -> Self {
        Self {
            instruction: 0.5,
            branch_misprediction: 20.0,
            tlb_miss: 20.0,
            tc_miss: 20.0,
            l2_miss: 16.0,
            l3_miss: 300.0,
            bus_transaction_1p: 102.0,
        }
    }
}

impl Default for StallCosts {
    fn default() -> Self {
        Self::xeon()
    }
}

/// The CPI components of Table 4 / Fig 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Base compute: `instructions × 0.5 / instructions`.
    Inst,
    /// Branch-misprediction stalls.
    Branch,
    /// TLB-miss stalls.
    Tlb,
    /// Trace-cache-miss stalls.
    Tc,
    /// L2-miss (L3-hit) stalls: `(L2 − L3 misses) × 16`.
    L2,
    /// L3-miss stalls: `L3 × (300 + IOQ − IOQ_1P)`.
    L3,
    /// Residual: measured CPI minus the sum of computed components.
    Other,
}

impl Component {
    /// All components, in the paper's stacking order (Fig 12).
    pub const ALL: [Component; 7] = [
        Component::Inst,
        Component::Branch,
        Component::Tlb,
        Component::Tc,
        Component::L2,
        Component::L3,
        Component::Other,
    ];

    /// The contribution formula of Table 4 as written in the paper.
    pub fn formula(&self) -> &'static str {
        match self {
            Component::Inst => "Instructions * 0.5",
            Component::Branch => "Branch Mispredictions * 20",
            Component::Tlb => "TLB Miss * 20",
            Component::Tc => "TC Miss * 20",
            Component::L2 => "(L2 Miss - L3 Miss) * 16",
            Component::L3 => {
                "L3 Miss * (300 + Bus-Transaction Time - Bus-Transaction Time for 1P)"
            }
            Component::Other => "Clock Cycles / Instructions - sum(computed components)",
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Component::Inst => "Inst",
            Component::Branch => "Branch",
            Component::Tlb => "TLB",
            Component::Tc => "TC",
            Component::L2 => "L2",
            Component::L3 => "L3",
            Component::Other => "Other",
        };
        f.write_str(s)
    }
}

/// A computed CPI decomposition for one configuration (one bar of Fig 12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpiBreakdown {
    /// Base compute component (always `costs.instruction`).
    pub inst: f64,
    /// Branch-misprediction component.
    pub branch: f64,
    /// TLB component.
    pub tlb: f64,
    /// Trace-cache component.
    pub tc: f64,
    /// L2 component.
    pub l2: f64,
    /// L3 component (includes bus-queueing inflation).
    pub l3: f64,
    /// Residual; may be slightly negative if the fixed costs overestimate.
    pub other: f64,
    /// The measured CPI the decomposition explains.
    pub measured_cpi: f64,
}

impl CpiBreakdown {
    /// Decomposes measured counts into CPI components per Table 4.
    ///
    /// `bus_transaction_cycles` is the observed IOQ time for this
    /// configuration; the excess over `costs.bus_transaction_1p` inflates
    /// each L3 miss (this is how CPI grows with `P` even when MPI does
    /// not — §5.2).
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooFewPoints`] if no instructions were retired, and
    /// [`Error::NonFinite`] if the IOQ time is not finite.
    pub fn compute(
        counts: &SpaceCounts,
        costs: &StallCosts,
        bus_transaction_cycles: f64,
    ) -> Result<Self, Error> {
        if counts.instructions == 0 {
            return Err(Error::TooFewPoints { needed: 1, got: 0 });
        }
        if !bus_transaction_cycles.is_finite() {
            return Err(Error::NonFinite {
                what: "bus_transaction_cycles",
            });
        }
        let instr = counts.instructions as f64;
        let per_instr = |count: u64, cost: f64| count as f64 * cost / instr;
        let inst = costs.instruction;
        let branch = per_instr(counts.branch_mispredictions, costs.branch_misprediction);
        let tlb = per_instr(counts.tlb_misses, costs.tlb_miss);
        let tc = per_instr(counts.tc_misses, costs.tc_miss);
        let l2_only = counts.l2_misses.saturating_sub(counts.l3_misses);
        let l2 = per_instr(l2_only, costs.l2_miss);
        let l3_cost =
            costs.l3_miss + (bus_transaction_cycles - costs.bus_transaction_1p).max(0.0);
        let l3 = per_instr(counts.l3_misses, l3_cost);
        let measured_cpi = counts.cycles as f64 / instr;
        let other = measured_cpi - (inst + branch + tlb + tc + l2 + l3);
        // Additivity identity: the components plus the residual must
        // reconstruct the measured CPI exactly (up to float re-association)
        // — the breakdown is a partition of cycles, not an estimate of it.
        #[cfg(feature = "invariants")]
        debug_assert!(
            ((inst + branch + tlb + tc + l2 + l3 + other) - measured_cpi).abs()
                <= 1e-9 * measured_cpi.max(1.0),
            "CPI breakdown does not reconstruct measured CPI"
        );
        Ok(Self {
            inst,
            branch,
            tlb,
            tc,
            l2,
            l3,
            other,
            measured_cpi,
        })
    }

    /// The sum of the non-residual components.
    pub fn computed_cpi(&self) -> f64 {
        self.inst + self.branch + self.tlb + self.tc + self.l2 + self.l3
    }

    /// Component value by kind.
    pub fn component(&self, c: Component) -> f64 {
        match c {
            Component::Inst => self.inst,
            Component::Branch => self.branch,
            Component::Tlb => self.tlb,
            Component::Tc => self.tc,
            Component::L2 => self.l2,
            Component::L3 => self.l3,
            Component::Other => self.other,
        }
    }

    /// Fraction of the measured CPI a component explains, in `[-1, 1]`;
    /// `0` when measured CPI is zero.
    pub fn fraction(&self, c: Component) -> f64 {
        if self.measured_cpi > 0.0 {
            self.component(c) / self.measured_cpi
        } else {
            0.0
        }
    }

    /// `(component, value)` pairs in stacking order.
    pub fn components(&self) -> [(Component, f64); 7] {
        Component::ALL.map(|c| (c, self.component(c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts() -> SpaceCounts {
        SpaceCounts {
            instructions: 1_000_000_000,
            cycles: 5_000_000_000,
            l3_misses: 10_000_000,
            l2_misses: 40_000_000,
            tc_misses: 8_000_000,
            tlb_misses: 4_000_000,
            branch_mispredictions: 5_000_000,
        }
    }

    #[test]
    fn table4_formulas_at_unloaded_bus() {
        let b = CpiBreakdown::compute(&counts(), &StallCosts::xeon(), 102.0).unwrap();
        assert!((b.inst - 0.5).abs() < 1e-12);
        assert!((b.branch - 0.005 * 20.0).abs() < 1e-12);
        assert!((b.tlb - 0.004 * 20.0).abs() < 1e-12);
        assert!((b.tc - 0.008 * 20.0).abs() < 1e-12);
        // (40M - 10M) × 16 / 1G = 0.48
        assert!((b.l2 - 0.48).abs() < 1e-12);
        // 10M × 300 / 1G = 3.0
        assert!((b.l3 - 3.0).abs() < 1e-12);
        let expected_other = 5.0 - b.computed_cpi();
        assert!((b.other - expected_other).abs() < 1e-12);
        assert!((b.measured_cpi - 5.0).abs() < 1e-12);
    }

    #[test]
    fn loaded_bus_inflates_only_l3() {
        let unloaded = CpiBreakdown::compute(&counts(), &StallCosts::xeon(), 102.0).unwrap();
        let loaded = CpiBreakdown::compute(&counts(), &StallCosts::xeon(), 152.0).unwrap();
        assert!((loaded.l3 - (unloaded.l3 + 0.01 * 50.0)).abs() < 1e-12);
        assert_eq!(loaded.l2, unloaded.l2);
        assert_eq!(loaded.branch, unloaded.branch);
    }

    #[test]
    fn ioq_below_1p_baseline_is_clamped() {
        let b = CpiBreakdown::compute(&counts(), &StallCosts::xeon(), 90.0).unwrap();
        // No negative bus adjustment: cost stays at 300.
        assert!((b.l3 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn l2_only_misses_saturate_when_l3_exceeds_l2() {
        let mut c = counts();
        c.l3_misses = c.l2_misses + 1_000_000; // pathological counter skew
        let b = CpiBreakdown::compute(&c, &StallCosts::xeon(), 102.0).unwrap();
        assert_eq!(b.l2, 0.0);
    }

    #[test]
    fn rejects_zero_instructions_and_nan_bus() {
        let zero = SpaceCounts::default();
        assert!(CpiBreakdown::compute(&zero, &StallCosts::xeon(), 102.0).is_err());
        assert!(CpiBreakdown::compute(&counts(), &StallCosts::xeon(), f64::NAN).is_err());
    }

    #[test]
    fn fractions_sum_to_one() {
        let b = CpiBreakdown::compute(&counts(), &StallCosts::xeon(), 130.0).unwrap();
        let total: f64 = Component::ALL.iter().map(|&c| b.fraction(c)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table2_metadata_is_complete() {
        for e in Event::ALL {
            assert!(!e.emon_events().is_empty());
            assert!(!e.description().is_empty());
            assert!(!e.alias().is_empty());
            assert_eq!(e.to_string(), e.alias());
        }
        assert_eq!(Event::L3Miss.emon_events(), "BSU_cache_reference");
    }

    #[test]
    fn component_formulas_match_table4() {
        assert_eq!(Component::Inst.formula(), "Instructions * 0.5");
        assert!(Component::L3.formula().contains("300"));
        for c in Component::ALL {
            assert!(!c.formula().is_empty());
            assert!(!c.to_string().is_empty());
        }
    }

    #[test]
    fn components_iterates_in_stacking_order() {
        let b = CpiBreakdown::compute(&counts(), &StallCosts::xeon(), 102.0).unwrap();
        let comps = b.components();
        assert_eq!(comps[0].0, Component::Inst);
        assert_eq!(comps[6].0, Component::Other);
        let sum: f64 = comps.iter().map(|(_, v)| v).sum();
        assert!((sum - b.measured_cpi).abs() < 1e-9);
    }
}
