//! Samplers for skewed reference streams.
//!
//! OLTP reference streams are highly skewed: B-tree roots, warehouse and
//! district rows, and hot catalog items are touched orders of magnitude
//! more often than the data tail. The [`Zipf`] sampler provides that skew;
//! it is table-driven (exact inverse-CDF) for small domains and switches
//! to an approximate rejection-free inversion for large ones so that a
//! billion-page domain needs no billion-entry table.

use odb_core::Error;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A Zipf(`n`, `s`) sampler over `0..n` where rank 0 is the hottest.
///
/// ```
/// use odb_memsim::dist::Zipf;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let z = Zipf::new(1000, 0.9)?;
/// let mut rng = SmallRng::seed_from_u64(1);
/// let x = z.sample(&mut rng);
/// assert!(x < 1000);
/// # Ok::<(), odb_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    /// Exact inverse CDF for domains small enough to tabulate. The table
    /// is `Arc`-shared through a process-wide cache: sweep points and
    /// fixed-point rounds construct identical samplers over and over, and
    /// the O(n) table build used to dominate `Zipf::new`.
    Table(Arc<CdfTable>),
    /// Continuous bounded-Pareto approximation for huge domains.
    Approx {
        s: f64,
        /// `n^(1-s)` precomputed (for s != 1).
        n_pow: f64,
    },
    /// Harmonic (s == 1) continuous approximation: inverse CDF is
    /// `n^u - 1` scaled.
    Harmonic { ln_n: f64 },
}

/// A tabulated CDF plus its search accelerator.
#[derive(Debug, Clone)]
struct CdfTable {
    cdf: Vec<f64>,
    /// Bucket accelerator over the unit interval: `accel` has `K + 1`
    /// entries and `accel[j]` is the first index whose CDF value reaches
    /// `j / K`. A draw `u` lands in bucket `⌊u·K⌋` and binary-searches
    /// only the handful of entries inside it — *bit-identical* to the
    /// full-table binary search because the CDF is strictly increasing
    /// (unique values), so both searches resolve the same unique index.
    /// Empty when the CDF has duplicate adjacent values (degenerate
    /// float underflow); those tables fall back to the full search.
    accel: Vec<u32>,
}

impl CdfTable {
    fn build(cdf: Vec<f64>) -> Self {
        let n = cdf.len();
        let strictly_increasing = cdf.windows(2).all(|w| w[0] < w[1]);
        let accel = if strictly_increasing && n >= 2 {
            // K = n buckets: one expected entry per bucket, 4 bytes each.
            let k = n;
            let mut accel = Vec::with_capacity(k + 1);
            let mut i = 0usize;
            for j in 0..=k {
                let boundary = j as f64 / k as f64;
                while i < n && cdf[i] < boundary {
                    i += 1;
                }
                accel.push(i as u32);
            }
            accel
        } else {
            Vec::new()
        };
        Self { cdf, accel }
    }
}

/// Domains up to this size get an exact table (8 bytes per entry).
const TABLE_LIMIT: u64 = 1 << 20;

/// Process-wide cache of built CDF tables keyed by `(n, s)`. Bounded:
/// once full, new shapes are built uncached (the sweep only ever uses a
/// handful of shapes, so eviction machinery would be dead weight).
type CdfCacheMap = BTreeMap<(u64, u64), Arc<CdfTable>>;
static CDF_CACHE: OnceLock<Mutex<CdfCacheMap>> = OnceLock::new();
const CDF_CACHE_CAP: usize = 64;

fn cached_cdf_table(n: u64, s: f64) -> Arc<CdfTable> {
    let cache = CDF_CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
    let key = (n, s.to_bits());
    let map = cache.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(table) = map.get(&key) {
        return Arc::clone(table);
    }
    drop(map);
    // Build outside the lock: tables can be megabytes and parallel sweep
    // workers should not serialize on the build.
    let mut cdf = Vec::with_capacity(n as usize);
    let mut total = 0.0;
    for k in 0..n {
        total += 1.0 / ((k + 1) as f64).powf(s);
        cdf.push(total);
    }
    for v in &mut cdf {
        *v /= total;
    }
    let table = Arc::new(CdfTable::build(cdf));
    let mut map = cache.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(winner) = map.get(&key) {
        return Arc::clone(winner);
    }
    if map.len() < CDF_CACHE_CAP {
        map.insert(key, Arc::clone(&table));
    }
    table
}

impl Zipf {
    /// Creates a sampler over `0..n` with exponent `s ≥ 0`.
    ///
    /// `s = 0` degenerates to uniform; larger `s` concentrates mass on
    /// small ranks.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `n` is zero or `s` is negative
    /// or non-finite. A successfully constructed sampler has a finite,
    /// monotone CDF, so [`Zipf::sample`] is infallible by invariant.
    pub fn new(n: u64, s: f64) -> Result<Self, Error> {
        if n == 0 {
            return Err(Error::InvalidConfig {
                field: "zipf_domain",
                reason: "Zipf domain must be nonempty".to_owned(),
            });
        }
        if !(s.is_finite() && s >= 0.0) {
            return Err(Error::InvalidConfig {
                field: "zipf_exponent",
                reason: format!("Zipf exponent must be finite and >= 0, got {s}"),
            });
        }
        let repr = if n <= TABLE_LIMIT {
            Repr::Table(cached_cdf_table(n, s))
        } else if (s - 1.0).abs() < 1e-9 {
            Repr::Harmonic {
                ln_n: (n as f64).ln(),
            }
        } else {
            Repr::Approx {
                s,
                n_pow: (n as f64).powf(1.0 - s),
            }
        };
        Ok(Self { n, repr })
    }

    /// The domain size.
    pub fn domain(&self) -> u64 {
        self.n
    }

    /// Checks the tabulated CDF for corruption: every entry must be finite
    /// and the sequence non-decreasing. Approximate representations carry
    /// no table and always pass.
    ///
    /// Construction guarantees this holds, so the check only fails if the
    /// sampler's state was corrupted after the fact (see
    /// [`Zipf::inject_poison_cdf`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::CorruptState`] describing the first bad entry.
    pub fn check_cdf(&self) -> Result<(), Error> {
        if let Repr::Table(table) = &self.repr {
            let mut prev = 0.0f64;
            for (i, &v) in table.cdf.iter().enumerate() {
                if !v.is_finite() {
                    return Err(Error::corrupt(
                        "memsim::dist",
                        format!("cdf entry {i} is not finite ({v})"),
                    ));
                }
                if v < prev {
                    return Err(Error::corrupt(
                        "memsim::dist",
                        format!("cdf entry {i} decreases ({v} < {prev})"),
                    ));
                }
                prev = v;
            }
        }
        Ok(())
    }

    /// Fault injection: overwrites the first tabulated CDF entry with NaN.
    ///
    /// Returns `true` if the sampler is table-backed and was poisoned,
    /// `false` for the approximate representations (nothing to poison).
    /// After poisoning, [`Zipf::check_cdf`] reports
    /// [`Error::CorruptState`]; [`Zipf::sample`] stays abort-free (its
    /// total-order search tolerates NaN) but its draws are meaningless.
    #[cfg(feature = "invariants")]
    pub fn inject_poison_cdf(&mut self) -> bool {
        if let Repr::Table(table) = &mut self.repr {
            // Clone-on-write: the table is shared through the process-wide
            // CDF cache and poison must stay local to this sampler.
            let owned = Arc::make_mut(table);
            if let Some(first) = owned.cdf.first_mut() {
                *first = f64::NAN;
                return true;
            }
        }
        false
    }

    /// Draws one rank in `0..n`.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match &self.repr {
            Repr::Table(table) => {
                let u: f64 = rng.gen();
                (Self::search_table(table, u)).min(self.n - 1)
            }
            Repr::Approx { s, n_pow } => {
                // Continuous bounded Pareto on [1, n+1): invert
                // F(x) = (x^(1-s) - 1) / ((n+1)^(1-s) - 1).
                let u: f64 = rng.gen();
                let one_minus_s = 1.0 - s;
                let x = (1.0 + u * (n_pow - 1.0)).powf(1.0 / one_minus_s);
                ((x.floor() as u64).saturating_sub(1)).min(self.n - 1)
            }
            Repr::Harmonic { ln_n } => {
                let u: f64 = rng.gen();
                let x = (u * ln_n).exp();
                ((x.floor() as u64).saturating_sub(1)).min(self.n - 1)
            }
        }
    }

    /// The `f64::total_cmp` order as a monotone integer key: comparing
    /// keys with `<` equals comparing the floats with `total_cmp` (the
    /// standard sign-magnitude-to-two's-complement bit trick), which
    /// lets the windowed search run on integer selects instead of
    /// three-way float compares.
    #[inline]
    fn total_order_key(v: f64) -> i64 {
        let bits = v.to_bits() as i64;
        bits ^ (((bits >> 63) as u64) >> 1) as i64
    }

    /// Branch-free lower bound of `u` over `cdf[lo..hi]` (never empty:
    /// the last CDF entry is exactly 1.0, so `lo < cdf.len()`) in
    /// `total_cmp` order — the collapsed `Ok(i) | Err(i)` index of
    /// `cdf[lo..hi].binary_search_by(|v| v.total_cmp(&u))`, offset by
    /// `lo`, for the strictly-increasing tables the accelerator exists
    /// for.
    #[inline]
    fn search_window(cdf: &[f64], lo: usize, hi: usize, u: f64) -> usize {
        let target = Self::total_order_key(u);
        let mut base = lo;
        let mut size = hi - lo;
        while size > 1 {
            let half = size / 2;
            let mid = base + half;
            base = if Self::total_order_key(cdf[mid]) < target {
                mid
            } else {
                base
            };
            size -= half;
        }
        base + usize::from(Self::total_order_key(cdf[base]) < target)
    }

    /// Inverse-CDF lookup for `u`, accelerated by the bucket table when
    /// present. Returns exactly what
    /// `cdf.binary_search_by(|v| v.total_cmp(&u))` (Ok and Err collapsed
    /// to the index) returns on the full table: the bucket only narrows
    /// the range, and a strictly increasing CDF (the precondition for the
    /// accelerator to exist) has a unique answer, so the windowed search
    /// cannot resolve differently — and for a strictly increasing table
    /// the collapsed index is the count of entries totally below `u`,
    /// which the select-style lower bound below computes. Pinned by the
    /// `accelerated_search_matches_full_binary_search` test against the
    /// full binary search, this layer's one reference.
    #[inline]
    fn search_table(table: &CdfTable, u: f64) -> u64 {
        let cdf = &table.cdf;
        if table.accel.is_empty() {
            return match cdf.binary_search_by(|v| v.total_cmp(&u)) {
                Ok(i) | Err(i) => i as u64,
            };
        }
        let k = table.accel.len() - 1;
        let mut j = ((u * k as f64) as usize).min(k - 1);
        // `u * k` rounding can land one bucket off; nudge (select-style)
        // so that `j/K <= u < (j+1)/K` holds before trusting the window.
        // When `K` is a power of two — every benchmarked table size —
        // the scaling is exact (multiplying by 2^m only shifts the
        // exponent), so `⌊u·K⌋` already satisfies the invariant and the
        // nudge comparisons can never fire. Skipping them matters: each
        // costs an f64 division, and the host divider's throughput was
        // the serializing resource across otherwise-independent draws.
        if !k.is_power_of_two() {
            let down = u < j as f64 / k as f64;
            let up = !down & (j + 1 < k) & (u >= (j + 1) as f64 / k as f64);
            j = j - usize::from(down) + usize::from(up);
        }
        let lo = table.accel[j] as usize;
        let hi = (table.accel[j + 1] as usize + 1).min(cdf.len());
        Self::search_window(cdf, lo, hi, u) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn histogram(z: &Zipf, draws: usize, seed: u64) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut h = vec![0u64; z.domain() as usize];
        for _ in 0..draws {
            h[z.sample(&mut rng) as usize] += 1;
        }
        h
    }

    #[test]
    fn uniform_when_s_is_zero() {
        let z = Zipf::new(10, 0.0).unwrap();
        let h = histogram(&z, 100_000, 7);
        for &count in &h {
            let p = count as f64 / 100_000.0;
            assert!((p - 0.1).abs() < 0.01, "p = {p}");
        }
    }

    #[test]
    fn skew_concentrates_on_low_ranks() {
        let z = Zipf::new(100, 1.0).unwrap();
        let h = histogram(&z, 200_000, 11);
        assert!(h[0] > h[10], "rank 0 hotter than rank 10");
        assert!(h[0] > h[50] * 5, "strong skew");
        // Rank-0 mass for Zipf(100, 1) is 1/H_100 ≈ 0.1928.
        let p0 = h[0] as f64 / 200_000.0;
        assert!((p0 - 0.1928).abs() < 0.02, "p0 = {p0}");
    }

    #[test]
    fn samples_stay_in_domain() {
        for &(n, s) in &[(1u64, 0.9), (7, 0.5), (1000, 1.2), (1 << 22, 0.9), (1 << 22, 1.0)] {
            let z = Zipf::new(n, s).unwrap();
            let mut rng = SmallRng::seed_from_u64(3);
            for _ in 0..2_000 {
                assert!(z.sample(&mut rng) < n);
            }
        }
    }

    #[test]
    fn large_domain_is_still_skewed() {
        // Approximate path: top 1% of ranks should get far more than 1%
        // of mass at s = 0.9.
        let n = (TABLE_LIMIT + 1) * 4;
        let z = Zipf::new(n, 0.9).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let cutoff = n / 100;
        let mut hot = 0;
        let draws = 50_000;
        for _ in 0..draws {
            if z.sample(&mut rng) < cutoff {
                hot += 1;
            }
        }
        let frac = hot as f64 / draws as f64;
        assert!(frac > 0.3, "top-1% mass was {frac}");
    }

    #[test]
    fn determinism_per_seed() {
        let z = Zipf::new(5000, 0.8).unwrap();
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }

    #[test]
    fn zero_domain_is_rejected() {
        assert!(matches!(
            Zipf::new(0, 1.0),
            Err(Error::InvalidConfig { field: "zipf_domain", .. })
        ));
    }

    #[test]
    fn bad_exponents_are_rejected() {
        for s in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                Zipf::new(10, s),
                Err(Error::InvalidConfig { field: "zipf_exponent", .. })
            ));
        }
    }

    #[test]
    fn fresh_cdf_passes_check() {
        for &(n, s) in &[(1u64, 0.5), (1000, 1.09), (1 << 22, 0.9)] {
            assert_eq!(Zipf::new(n, s).unwrap().check_cdf(), Ok(()));
        }
    }

    #[test]
    fn accelerated_search_matches_full_binary_search() {
        use rand::Rng;
        // Shapes spanning tiny/odd/large domains and uniform/skewed
        // exponents; each draws thousands of uniforms and requires the
        // bucket-accelerated lookup to equal the full-table search bit
        // for bit, including bucket-boundary values of u.
        for &(n, s) in &[
            (1u64, 0.9),
            (2, 0.0),
            (7, 0.5),
            (100, 1.0),
            (1000, 0.0),
            (5000, 0.8),
            (65_536, 1.2),
        ] {
            let z = Zipf::new(n, s).unwrap();
            let Repr::Table(table) = &z.repr else {
                panic!("n={n} should be table-backed");
            };
            let full = |u: f64| -> u64 {
                match table.cdf.binary_search_by(|v| v.total_cmp(&u)) {
                    Ok(i) | Err(i) => i as u64,
                }
            };
            let mut rng = SmallRng::seed_from_u64(0xACCE1);
            for _ in 0..5_000 {
                let u: f64 = rng.gen();
                assert_eq!(Zipf::search_table(table, u), full(u), "n={n} s={s} u={u}");
            }
            // Exact bucket boundaries are the rounding-sensitive inputs.
            for j in 0..n.min(64) {
                let u = j as f64 / n as f64;
                assert_eq!(Zipf::search_table(table, u), full(u), "n={n} s={s} boundary {j}");
            }
        }
    }

    #[test]
    fn cdf_cache_shares_tables_across_constructions() {
        let a = Zipf::new(4096, 0.77).unwrap();
        let b = Zipf::new(4096, 0.77).unwrap();
        let (Repr::Table(ta), Repr::Table(tb)) = (&a.repr, &b.repr) else {
            panic!("expected table-backed samplers");
        };
        assert!(
            std::sync::Arc::ptr_eq(ta, tb),
            "identical (n, s) must share one cached table"
        );
        // A different shape gets its own table.
        let c = Zipf::new(4096, 0.78).unwrap();
        let Repr::Table(tc) = &c.repr else {
            panic!("expected table-backed sampler");
        };
        assert!(!std::sync::Arc::ptr_eq(ta, tc));
    }

    #[cfg(feature = "invariants")]
    #[test]
    fn poisoned_cdf_is_detected_and_sampling_does_not_abort() {
        let mut z = Zipf::new(64, 1.0).unwrap();
        assert!(z.inject_poison_cdf());
        assert!(matches!(
            z.check_cdf(),
            Err(Error::CorruptState { component: "memsim::dist", .. })
        ));
        // Sampling a poisoned table must not abort the process; the draws
        // are garbage but stay inside the domain.
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..1_000 {
            assert!(z.sample(&mut rng) < 64);
        }
        // Poison is clone-on-write local: a fresh sampler of the same
        // shape comes from the shared cache unpoisoned.
        let fresh = Zipf::new(64, 1.0).unwrap();
        assert_eq!(fresh.check_cdf(), Ok(()));
    }
}
