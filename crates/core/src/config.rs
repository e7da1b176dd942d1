//! The OLTP configuration space of the paper (§3.2).
//!
//! The paper reduces the configuration space to four parameters: warehouses
//! (`W`) and clients (`C`) describe the *workload*; processors (`P`) and
//! disks (`D`) describe the *system*. [`SystemConfig`] additionally carries
//! the microarchitectural attributes (§3.3) that the scaling analysis in
//! §6.3 varies: cache geometry, bus bandwidth and memory capacity.

use crate::error::Error;

/// Geometry of one set-associative cache level.
///
/// ```
/// use odb_core::config::CacheGeometry;
///
/// let l3 = CacheGeometry::new(1 << 20, 64, 8)?;
/// assert_eq!(l3.sets(), 2048);
/// assert_eq!(l3.lines(), 16384);
/// # Ok::<(), odb_core::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    size_bytes: u64,
    line_bytes: u32,
    associativity: u32,
}

impl CacheGeometry {
    /// Creates a cache geometry.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if any dimension is zero, the line
    /// size is not a power of two, or if `size / (line × assoc)` is not a
    /// whole power of two (the number of sets, which must support simple
    /// bit-mask indexing). Note the total size itself need not be a power
    /// of two: Itanium2's 3 MB 12-way L3 has 2048 sets and is valid.
    pub fn new(size_bytes: u64, line_bytes: u32, associativity: u32) -> Result<Self, Error> {
        fn pow2_u64(v: u64) -> bool {
            v != 0 && v & (v - 1) == 0
        }
        if size_bytes == 0 {
            return Err(Error::InvalidConfig {
                field: "size_bytes",
                reason: "must be nonzero".to_owned(),
            });
        }
        if !pow2_u64(line_bytes as u64) {
            return Err(Error::InvalidConfig {
                field: "line_bytes",
                reason: format!("{line_bytes} must be a nonzero power of two"),
            });
        }
        if associativity == 0 {
            return Err(Error::InvalidConfig {
                field: "associativity",
                reason: "must be nonzero".to_owned(),
            });
        }
        let way_bytes = line_bytes as u64 * associativity as u64;
        if !size_bytes.is_multiple_of(way_bytes) {
            return Err(Error::InvalidConfig {
                field: "size_bytes",
                reason: format!("{size_bytes} is not divisible by line×assoc = {way_bytes}"),
            });
        }
        let sets = size_bytes / way_bytes;
        if !pow2_u64(sets) {
            return Err(Error::InvalidConfig {
                field: "size_bytes",
                reason: format!("implied set count {sets} is not a power of two"),
            });
        }
        Ok(Self {
            size_bytes,
            line_bytes,
            associativity,
        })
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Cache line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Number of ways per set.
    pub fn associativity(&self) -> u32 {
        self.associativity
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes as u64 * self.associativity as u64)
    }

    /// Total number of cache lines.
    pub fn lines(&self) -> u64 {
        self.size_bytes / self.line_bytes as u64
    }
}

/// Front-side-bus attributes used by the IOQ latency model (§5.2, Fig 16).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusConfig {
    /// Unloaded time, in CPU cycles, for one bus transaction to complete
    /// once it enters the in-order queue (IOQ). The paper measures 102
    /// cycles on the 1P Xeon configuration (Table 3).
    pub base_transaction_cycles: f64,
    /// Cycles the shared bus is *occupied* by one transaction (data phase);
    /// this, times the transaction rate, is the bus utilization of §5.2.
    pub occupancy_cycles: f64,
}

impl BusConfig {
    /// Validates the bus parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if either field is non-positive or
    /// non-finite, or if the occupancy exceeds the unloaded latency.
    pub fn validate(&self) -> Result<(), Error> {
        for (field, v) in [
            ("base_transaction_cycles", self.base_transaction_cycles),
            ("occupancy_cycles", self.occupancy_cycles),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(Error::InvalidConfig {
                    field,
                    reason: format!("{v} must be finite and positive"),
                });
            }
        }
        if self.occupancy_cycles > self.base_transaction_cycles {
            return Err(Error::InvalidConfig {
                field: "occupancy_cycles",
                reason: "occupancy cannot exceed the unloaded transaction time".to_owned(),
            });
        }
        Ok(())
    }
}

/// Disk-array attributes (§3.3: 26 Ultra320 drives on the Xeon machine).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskArrayConfig {
    /// Number of spindles the database is striped over.
    pub disks: u32,
    /// Mean per-request service time of one spindle, in milliseconds
    /// (seek + rotation + transfer for an 8 KB block).
    pub service_time_ms: f64,
}

impl DiskArrayConfig {
    /// Maximum sustainable random-I/O throughput of the array, in requests
    /// per second: `disks / service_time`.
    pub fn max_iops(&self) -> f64 {
        self.disks as f64 * 1000.0 / self.service_time_ms
    }

    /// Validates the disk parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `disks` is zero or the service
    /// time is non-positive or non-finite.
    pub fn validate(&self) -> Result<(), Error> {
        if self.disks == 0 {
            return Err(Error::InvalidConfig {
                field: "disks",
                reason: "must be nonzero".to_owned(),
            });
        }
        if !self.service_time_ms.is_finite() || self.service_time_ms <= 0.0 {
            return Err(Error::InvalidConfig {
                field: "service_time_ms",
                reason: format!("{} must be finite and positive", self.service_time_ms),
            });
        }
        Ok(())
    }
}

/// The system half of the configuration space: processors, frequency,
/// memory hierarchy, bus and disks.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of processors (`P`); the paper studies 1, 2 and 4.
    pub processors: u32,
    /// Core clock frequency `F`, in Hz.
    pub frequency_hz: f64,
    /// First-level instruction store (the Xeon's execution trace cache),
    /// modelled as a small code cache.
    pub trace_cache: CacheGeometry,
    /// Unified second-level cache (256 KB on the Xeon MP).
    pub l2: CacheGeometry,
    /// Unified third-level cache (1 MB on the Xeon MP, 3 MB on Itanium2).
    pub l3: CacheGeometry,
    /// Number of data-TLB entries (4 KB pages).
    pub tlb_entries: u32,
    /// Front-side bus parameters.
    pub bus: BusConfig,
    /// Physical memory capacity in bytes (4 GB on the Xeon machine).
    pub memory_bytes: u64,
    /// Bytes of memory devoted to the database buffer cache within the SGA
    /// (2.8 GB in the paper's setup).
    pub buffer_cache_bytes: u64,
    /// Disk array attached to the machine.
    pub disk_array: DiskArrayConfig,
    /// Relative size of in-memory control structures and code versus the
    /// IA-32 baseline. LP64 architectures (Itanium2) roughly double
    /// pointer-heavy structures and EPIC code is markedly less dense, so
    /// the §6.3 machine carries `2.0` here; the Xeon baseline is `1.0`.
    pub structure_scale: f64,
}

impl SystemConfig {
    /// Builds a geometry from compile-time constants known to satisfy
    /// [`CacheGeometry::new`]'s rules; validity is asserted in debug
    /// builds instead of unwrapped at runtime, keeping the preset
    /// constructors panic-free.
    fn static_geometry(size_bytes: u64, line_bytes: u32, associativity: u32) -> CacheGeometry {
        debug_assert!(
            CacheGeometry::new(size_bytes, line_bytes, associativity).is_ok(),
            "preset cache geometry must be valid"
        );
        CacheGeometry {
            size_bytes,
            line_bytes,
            associativity,
        }
    }

    /// The paper's primary machine: a 4-way 1.6 GHz Intel Xeon MP with
    /// 256 KB L2, 1 MB L3, 4 GB of memory, a 2.8 GB database buffer cache
    /// and 26 Ultra320 disks (§3.3).
    pub fn xeon_quad() -> Self {
        Self {
            processors: 4,
            frequency_hz: 1.6e9,
            // The 12k-uop trace cache stores decoded traces; its effective
            // x86 code coverage is nearer 32 KB than its raw uop budget.
            trace_cache: Self::static_geometry(32 << 10, 64, 8),
            l2: Self::static_geometry(256 << 10, 64, 8),
            l3: Self::static_geometry(1 << 20, 64, 8),
            tlb_entries: 64,
            bus: BusConfig {
                base_transaction_cycles: 102.0,
                occupancy_cycles: 52.0,
            },
            memory_bytes: 4 << 30,
            buffer_cache_bytes: (28 << 30) / 10, // 2.8 GB
            disk_array: DiskArrayConfig {
                disks: 26,
                service_time_ms: 7.0,
            },
            structure_scale: 1.0,
        }
    }

    /// The validation machine of §6.3: a quad Itanium2 with a 3 MB L3,
    /// roughly 50% more bus bandwidth, 16 GB of memory and 34 disks.
    ///
    /// The paper reports this configuration flattens both the cached region
    /// (larger L3) and the scaled region (more bus and disk bandwidth),
    /// leaving the CPI pivot near 118 warehouses.
    pub fn itanium2_quad() -> Self {
        let xeon = Self::xeon_quad();
        Self {
            processors: 4,
            frequency_hz: 1.5e9,
            trace_cache: Self::static_geometry(32 << 10, 64, 8),
            l2: Self::static_geometry(256 << 10, 128, 8),
            // Itanium2's 3 MB L3 is 12-way with 128 B lines: 2048 sets.
            l3: Self::static_geometry(3 << 20, 128, 12),
            tlb_entries: 128,
            bus: BusConfig {
                base_transaction_cycles: 95.0,
                occupancy_cycles: xeon.bus.occupancy_cycles / 1.5,
            },
            memory_bytes: 16 << 30,
            buffer_cache_bytes: 12 << 30,
            disk_array: DiskArrayConfig {
                disks: 34,
                service_time_ms: 6.0,
            },
            structure_scale: 2.0,
        }
    }

    /// Returns a copy with a different processor count, used to sweep `P`.
    ///
    /// ```
    /// use odb_core::config::SystemConfig;
    ///
    /// let two_way = SystemConfig::xeon_quad().with_processors(2);
    /// assert_eq!(two_way.processors, 2);
    /// ```
    #[must_use]
    pub fn with_processors(mut self, processors: u32) -> Self {
        self.processors = processors;
        self
    }

    /// Validates every field.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] naming the first offending field.
    pub fn validate(&self) -> Result<(), Error> {
        if self.processors == 0 {
            return Err(Error::InvalidConfig {
                field: "processors",
                reason: "must be nonzero".to_owned(),
            });
        }
        if !self.frequency_hz.is_finite() || self.frequency_hz <= 0.0 {
            return Err(Error::InvalidConfig {
                field: "frequency_hz",
                reason: format!("{} must be finite and positive", self.frequency_hz),
            });
        }
        if self.tlb_entries == 0 {
            return Err(Error::InvalidConfig {
                field: "tlb_entries",
                reason: "must be nonzero".to_owned(),
            });
        }
        self.bus.validate()?;
        self.disk_array.validate()?;
        if self.buffer_cache_bytes == 0 {
            return Err(Error::InvalidConfig {
                field: "buffer_cache_bytes",
                reason: "must be nonzero".to_owned(),
            });
        }
        if self.buffer_cache_bytes >= self.memory_bytes {
            return Err(Error::InvalidConfig {
                field: "buffer_cache_bytes",
                reason: format!(
                    "buffer cache ({}) must leave room below physical memory ({})",
                    self.buffer_cache_bytes, self.memory_bytes
                ),
            });
        }
        if !self.structure_scale.is_finite() || self.structure_scale <= 0.0 {
            return Err(Error::InvalidConfig {
                field: "structure_scale",
                reason: format!("{} must be finite and positive", self.structure_scale),
            });
        }
        if self.l2.size_bytes() > self.l3.size_bytes() {
            return Err(Error::InvalidConfig {
                field: "l2",
                reason: "L2 must not exceed L3 capacity".to_owned(),
            });
        }
        Ok(())
    }
}

/// The workload half of the configuration space: warehouses and clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadConfig {
    /// Number of warehouses (`W`); the cached↔scaled knob (§3.2.1).
    pub warehouses: u32,
    /// Number of concurrent database clients (`C`).
    pub clients: u32,
}

impl WorkloadConfig {
    /// Creates a workload configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if either count is zero.
    pub fn new(warehouses: u32, clients: u32) -> Result<Self, Error> {
        if warehouses == 0 {
            return Err(Error::InvalidConfig {
                field: "warehouses",
                reason: "must be nonzero".to_owned(),
            });
        }
        if clients == 0 {
            return Err(Error::InvalidConfig {
                field: "clients",
                reason: "must be nonzero".to_owned(),
            });
        }
        Ok(Self {
            warehouses,
            clients,
        })
    }
}

/// A complete OLTP configuration: the `(W, C, P, D)` tuple of §3.2 plus the
/// machine's microarchitectural attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct OltpConfig {
    /// Workload parameters (`W`, `C`).
    pub workload: WorkloadConfig,
    /// System parameters (`P`, `D`, caches, bus, memory).
    pub system: SystemConfig,
}

impl OltpConfig {
    /// Creates and validates a complete configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if any field fails validation.
    pub fn new(workload: WorkloadConfig, system: SystemConfig) -> Result<Self, Error> {
        system.validate()?;
        Ok(Self { workload, system })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_geometry_derives_sets_and_lines() {
        let g = CacheGeometry::new(256 << 10, 64, 8).unwrap();
        assert_eq!(g.sets(), 512);
        assert_eq!(g.lines(), 4096);
        assert_eq!(g.size_bytes(), 256 << 10);
        assert_eq!(g.line_bytes(), 64);
        assert_eq!(g.associativity(), 8);
    }

    #[test]
    fn cache_geometry_rejects_bad_dimensions() {
        assert!(CacheGeometry::new(0, 64, 8).is_err());
        assert!(CacheGeometry::new(1 << 20, 48, 8).is_err());
        assert!(CacheGeometry::new(1 << 20, 64, 0).is_err());
        // 1 MB / (64 B × 3 ways) is not a whole number of sets.
        assert!(CacheGeometry::new(1 << 20, 64, 3).is_err());
        // 192 KB / (64 B × 3 ways) = 1024 sets: divisible, pow2, valid.
        assert!(CacheGeometry::new(192 << 10, 64, 3).is_ok());
        // 3 MB 12-way with 128 B lines = 2048 sets (the Itanium2 L3).
        let ita = CacheGeometry::new(3 << 20, 128, 12).unwrap();
        assert_eq!(ita.sets(), 2048);
        // 3 MB direct-mapped would need 49152 sets... which IS pow2? No:
        // 3 MB / 64 B = 49152 = 3 × 2^14, not a power of two.
        assert!(CacheGeometry::new(3 << 20, 64, 1).is_err());
    }

    #[test]
    fn xeon_preset_matches_paper() {
        let s = SystemConfig::xeon_quad();
        s.validate().unwrap();
        assert_eq!(s.processors, 4);
        assert_eq!(s.frequency_hz, 1.6e9);
        assert_eq!(s.l2.size_bytes(), 256 << 10);
        assert_eq!(s.l3.size_bytes(), 1 << 20);
        assert_eq!(s.bus.base_transaction_cycles, 102.0);
        assert_eq!(s.disk_array.disks, 26);
        assert_eq!(s.memory_bytes, 4 << 30);
        // 2.8 GB buffer cache, within 1% of the paper's figure.
        let gb = s.buffer_cache_bytes as f64 / (1u64 << 30) as f64;
        assert!((gb - 2.8).abs() < 0.01, "buffer cache {gb} GB");
    }

    #[test]
    fn itanium_preset_is_larger_where_it_matters() {
        let xeon = SystemConfig::xeon_quad();
        let ita = SystemConfig::itanium2_quad();
        ita.validate().unwrap();
        assert!(ita.l3.size_bytes() > xeon.l3.size_bytes());
        assert!(ita.disk_array.disks > xeon.disk_array.disks);
        assert!(ita.memory_bytes > xeon.memory_bytes);
        // 50% more bus bandwidth == occupancy shrunk by 1.5x.
        assert!(ita.bus.occupancy_cycles < xeon.bus.occupancy_cycles);
    }

    #[test]
    fn with_processors_sweeps_p() {
        for p in [1, 2, 4] {
            let s = SystemConfig::xeon_quad().with_processors(p);
            assert_eq!(s.processors, p);
            s.validate().unwrap();
        }
    }

    #[test]
    fn validate_rejects_zero_processors() {
        let s = SystemConfig::xeon_quad().with_processors(0);
        assert!(matches!(
            s.validate(),
            Err(Error::InvalidConfig {
                field: "processors",
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_buffer_cache_at_or_above_memory() {
        let mut s = SystemConfig::xeon_quad();
        s.buffer_cache_bytes = s.memory_bytes;
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_l2_bigger_than_l3() {
        let mut s = SystemConfig::xeon_quad();
        s.l2 = CacheGeometry::new(2 << 20, 64, 8).unwrap();
        assert!(s.validate().is_err());
    }

    #[test]
    fn bus_validate_rejects_occupancy_above_base() {
        let b = BusConfig {
            base_transaction_cycles: 50.0,
            occupancy_cycles: 60.0,
        };
        assert!(b.validate().is_err());
    }

    #[test]
    fn disk_array_max_iops() {
        let d = DiskArrayConfig {
            disks: 26,
            service_time_ms: 8.0,
        };
        assert!((d.max_iops() - 3250.0).abs() < 1e-9);
    }

    #[test]
    fn workload_config_rejects_zeroes() {
        assert!(WorkloadConfig::new(0, 8).is_err());
        assert!(WorkloadConfig::new(10, 0).is_err());
        let w = WorkloadConfig::new(10, 8).unwrap();
        assert_eq!(w.warehouses, 10);
        assert_eq!(w.clients, 8);
    }

    #[test]
    fn oltp_config_validates_system() {
        let w = WorkloadConfig::new(100, 48).unwrap();
        let bad = SystemConfig::xeon_quad().with_processors(0);
        assert!(OltpConfig::new(w, bad).is_err());
        let ok = OltpConfig::new(w, SystemConfig::xeon_quad()).unwrap();
        assert_eq!(ok.workload.warehouses, 100);
    }
}
