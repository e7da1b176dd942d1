//! Measurement vocabulary: the quantities the paper reports per
//! configuration (TPS, IPX, CPI, MPI, utilization, I/O and context-switch
//! rates), split into user and OS space where the paper splits them.

/// Raw event counts attributed to one execution space (user or OS).
///
/// Ratios such as CPI and MPI are always *derived* from counts rather than
/// stored, so that aggregating spaces (user + OS) remains exact: the total
/// CPI is total cycles over total instructions, **not** the sum of the
/// per-space CPIs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceCounts {
    /// Instructions retired.
    pub instructions: u64,
    /// Unhalted clock cycles consumed.
    pub cycles: u64,
    /// Misses in the third-level cache.
    pub l3_misses: u64,
    /// Misses in the second-level cache (includes those that also miss L3).
    pub l2_misses: u64,
    /// Misses in the trace cache (first-level instruction store).
    pub tc_misses: u64,
    /// Data-TLB misses (page walks).
    pub tlb_misses: u64,
    /// Mispredicted retired branches.
    pub branch_mispredictions: u64,
}

impl SpaceCounts {
    /// Cycles per instruction; `None` when no instructions retired.
    pub fn cpi(&self) -> Option<f64> {
        (self.instructions > 0).then(|| self.cycles as f64 / self.instructions as f64)
    }

    /// L3 misses per instruction; `None` when no instructions retired.
    pub fn mpi(&self) -> Option<f64> {
        (self.instructions > 0).then(|| self.l3_misses as f64 / self.instructions as f64)
    }

    /// Element-wise sum of two spaces' counts.
    ///
    /// Saturates on overflow: counter hardware saturates rather than wraps,
    /// and a saturated total is preferable to a panic deep in an analysis
    /// pipeline.
    #[must_use]
    pub fn merged(&self, other: &SpaceCounts) -> SpaceCounts {
        SpaceCounts {
            instructions: self.instructions.saturating_add(other.instructions),
            cycles: self.cycles.saturating_add(other.cycles),
            l3_misses: self.l3_misses.saturating_add(other.l3_misses),
            l2_misses: self.l2_misses.saturating_add(other.l2_misses),
            tc_misses: self.tc_misses.saturating_add(other.tc_misses),
            tlb_misses: self.tlb_misses.saturating_add(other.tlb_misses),
            branch_mispredictions: self
                .branch_mispredictions
                .saturating_add(other.branch_mispredictions),
        }
    }
}

/// Disk-traffic rates per committed transaction, in units of 1 KB blocks
/// (the paper's Fig 7 unit).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IoPerTxn {
    /// Database blocks read from disk, in KB.
    pub read_kb: f64,
    /// Redo-log bytes written, in KB (≈6 KB/txn in the paper, independent
    /// of `W` and `P`).
    pub log_write_kb: f64,
    /// Dirty database pages written back by the DB writer, in KB.
    pub page_write_kb: f64,
}

impl IoPerTxn {
    /// Total disk traffic per transaction in KB (reads + all writes).
    pub fn total_kb(&self) -> f64 {
        self.read_kb + self.log_write_kb + self.page_write_kb
    }

    /// Total write traffic per transaction in KB.
    pub fn write_kb(&self) -> f64 {
        self.log_write_kb + self.page_write_kb
    }
}

/// Everything the paper measures for one `(W, C, P)` configuration:
/// the row of data behind every figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Number of warehouses (`W`).
    pub warehouses: u32,
    /// Number of concurrent clients (`C`).
    pub clients: u32,
    /// Number of processors (`P`).
    pub processors: u32,
    /// Wall-clock length of the measurement window, in seconds.
    pub elapsed_seconds: f64,
    /// Transactions committed during the window.
    pub transactions: u64,
    /// Event counts attributed to user space.
    pub user: SpaceCounts,
    /// Event counts attributed to OS space.
    pub os: SpaceCounts,
    /// Fraction of CPU capacity not idle, in `[0, 1]`.
    pub cpu_utilization: f64,
    /// Fraction of *busy* CPU time spent in OS code, in `[0, 1]`.
    pub os_busy_fraction: f64,
    /// Disk traffic per transaction.
    pub io_per_txn: IoPerTxn,
    /// Disk read *requests* per transaction (for correlation with context
    /// switches, §4.3).
    pub disk_reads_per_txn: f64,
    /// Context switches per committed transaction (Fig 8).
    pub context_switches_per_txn: f64,
    /// Fraction of time the front-side bus is transferring data, `[0, 1]`.
    pub bus_utilization: f64,
    /// Mean cycles for a bus transaction to complete once in the IOQ
    /// (Fig 16; 102 cycles unloaded on the paper's machine).
    pub bus_transaction_cycles: f64,
}

impl Measurement {
    /// Transactions per second over the measurement window.
    pub fn tps(&self) -> f64 {
        if self.elapsed_seconds > 0.0 {
            self.transactions as f64 / self.elapsed_seconds
        } else {
            0.0
        }
    }

    /// Combined user+OS counts.
    pub fn total(&self) -> SpaceCounts {
        self.user.merged(&self.os)
    }

    /// Total instructions per transaction (Fig 4).
    pub fn ipx(&self) -> f64 {
        per_txn(self.total().instructions, self.transactions)
    }

    /// User-space instructions per transaction (Fig 5).
    pub fn ipx_user(&self) -> f64 {
        per_txn(self.user.instructions, self.transactions)
    }

    /// OS-space instructions per transaction (Fig 6).
    pub fn ipx_os(&self) -> f64 {
        per_txn(self.os.instructions, self.transactions)
    }

    /// Overall cycles per instruction (Fig 9); 0 when nothing retired.
    pub fn cpi(&self) -> f64 {
        self.total().cpi().unwrap_or(0.0)
    }

    /// User-space CPI (Fig 10).
    pub fn cpi_user(&self) -> f64 {
        self.user.cpi().unwrap_or(0.0)
    }

    /// OS-space CPI (Fig 11).
    pub fn cpi_os(&self) -> f64 {
        self.os.cpi().unwrap_or(0.0)
    }

    /// Overall L3 misses per instruction (Fig 13).
    pub fn mpi(&self) -> f64 {
        self.total().mpi().unwrap_or(0.0)
    }

    /// User-space MPI (Fig 14).
    pub fn mpi_user(&self) -> f64 {
        self.user.mpi().unwrap_or(0.0)
    }

    /// OS-space MPI (Fig 15).
    pub fn mpi_os(&self) -> f64 {
        self.os.mpi().unwrap_or(0.0)
    }

    /// The throughput the iron law predicts from this measurement's own
    /// IPX, CPI and utilization:
    /// `util × P × F / (IPX × CPI)`.
    ///
    /// For a self-consistent measurement this matches [`Measurement::tps`]
    /// closely; the integration tests assert it.
    pub fn iron_law_tps(&self, frequency_hz: f64) -> f64 {
        let ipx = self.ipx();
        let cpi = self.cpi();
        if ipx <= 0.0 || cpi <= 0.0 {
            return 0.0;
        }
        self.cpu_utilization * crate::ironlaw::tps(self.processors, frequency_hz, ipx, cpi)
    }
}

fn per_txn(count: u64, transactions: u64) -> f64 {
    if transactions > 0 {
        count as f64 / transactions as f64
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Measurement {
        Measurement {
            warehouses: 100,
            clients: 48,
            processors: 4,
            elapsed_seconds: 10.0,
            transactions: 10_000,
            user: SpaceCounts {
                instructions: 10_000_000_000,
                cycles: 40_000_000_000,
                l3_misses: 80_000_000,
                l2_misses: 300_000_000,
                tc_misses: 50_000_000,
                tlb_misses: 20_000_000,
                branch_mispredictions: 40_000_000,
            },
            os: SpaceCounts {
                instructions: 2_000_000_000,
                cycles: 4_000_000_000,
                l3_misses: 10_000_000,
                l2_misses: 40_000_000,
                tc_misses: 5_000_000,
                tlb_misses: 4_000_000,
                branch_mispredictions: 10_000_000,
            },
            cpu_utilization: 0.95,
            os_busy_fraction: 0.12,
            io_per_txn: IoPerTxn {
                read_kb: 20.0,
                log_write_kb: 6.0,
                page_write_kb: 10.0,
            },
            disk_reads_per_txn: 2.5,
            context_switches_per_txn: 6.0,
            bus_utilization: 0.40,
            bus_transaction_cycles: 140.0,
        }
    }

    #[test]
    fn tps_is_transactions_over_time() {
        assert!((sample().tps() - 1000.0).abs() < 1e-12);
    }

    #[test]
    fn ipx_splits_sum_to_total() {
        let m = sample();
        assert!((m.ipx_user() + m.ipx_os() - m.ipx()).abs() < 1e-6);
        assert!((m.ipx() - 1_200_000.0).abs() < 1e-6);
    }

    #[test]
    fn total_cpi_is_count_weighted_not_sum_of_ratios() {
        let m = sample();
        // user CPI 4.0, os CPI 2.0; total = 44e9 / 12e9 ≈ 3.667.
        assert!((m.cpi_user() - 4.0).abs() < 1e-12);
        assert!((m.cpi_os() - 2.0).abs() < 1e-12);
        assert!((m.cpi() - 44.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn mpi_derivations() {
        let m = sample();
        assert!((m.mpi_user() - 0.008).abs() < 1e-12);
        assert!((m.mpi_os() - 0.005).abs() < 1e-12);
        assert!((m.mpi() - 90.0e6 / 12.0e9).abs() < 1e-12);
    }

    #[test]
    fn io_totals() {
        let io = sample().io_per_txn;
        assert!((io.total_kb() - 36.0).abs() < 1e-12);
        assert!((io.write_kb() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn iron_law_self_consistency_bound() {
        let m = sample();
        // With these numbers: util × P × F / (IPX × CPI)
        // = 0.95 × 4 × 1.6e9 / (1.2e6 × 3.667) = 1381.8.
        let predicted = m.iron_law_tps(1.6e9);
        assert!((predicted - 1381.8).abs() < 1.0, "predicted {predicted}");
    }

    #[test]
    fn zero_transactions_and_instructions_are_safe() {
        let mut m = sample();
        m.transactions = 0;
        m.user = SpaceCounts::default();
        m.os = SpaceCounts::default();
        m.elapsed_seconds = 0.0;
        assert_eq!(m.tps(), 0.0);
        assert_eq!(m.ipx(), 0.0);
        assert_eq!(m.cpi(), 0.0);
        assert_eq!(m.mpi(), 0.0);
        assert_eq!(m.iron_law_tps(1.6e9), 0.0);
    }

    #[test]
    fn merged_saturates() {
        let a = SpaceCounts {
            instructions: u64::MAX - 1,
            ..Default::default()
        };
        let b = SpaceCounts {
            instructions: 10,
            ..Default::default()
        };
        assert_eq!(a.merged(&b).instructions, u64::MAX);
    }
}
