//! Two-segment piecewise-linear fitting and the **pivot point** (§6.1–6.2).
//!
//! The paper models CPI and MPI trends as two linear regions — a steep
//! *cached* region and a flatter *scaled* region — fitted independently by
//! least squares. The intersection of the two lines is the *pivot point*:
//! the workload size at which execution stops behaving like a cached setup
//! and starts behaving like a scaled one. Configurations larger than the
//! pivot are representative of fully scaled setups (Figs 17–18, Table 5).

use crate::error::Error;
use crate::regression::LinearFit;

/// The intersection of the cached-region and scaled-region lines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PivotPoint {
    /// Workload size (warehouses) at the transition.
    pub x: f64,
    /// Metric value (CPI or MPI) at the transition.
    pub y: f64,
}

/// A two-segment piecewise-linear model of a scaling trend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoSegmentFit {
    /// Fit over the cached (left) region.
    pub cached: LinearFit,
    /// Fit over the scaled (right) region.
    pub scaled: LinearFit,
    /// Index of the first point assigned to the scaled region.
    pub split_index: usize,
    /// Midpoint between the last cached `x` and the first scaled `x`; used
    /// as the region boundary when the lines do not intersect inside the
    /// data range.
    pub boundary_x: f64,
}

impl TwoSegmentFit {
    /// Minimum points per segment (a line needs two).
    pub const MIN_SEGMENT: usize = 2;

    /// Fits two linear segments to `(xs, ys)`, choosing the split that
    /// minimizes the total sum of squared residuals.
    ///
    /// `xs` must be strictly increasing (warehouse counts are), and at
    /// least four points are required so each segment has two.
    ///
    /// # Errors
    ///
    /// * [`Error::TooFewPoints`] with `needed = 4` for short inputs.
    /// * [`Error::UnsortedXs`] if `xs` is not strictly increasing.
    /// * Any error from the underlying [`LinearFit::fit`].
    ///
    /// ```
    /// use odb_core::pivot::TwoSegmentFit;
    ///
    /// // Steep then flat, knee at x = 100.
    /// let xs = [10.0, 25.0, 50.0, 100.0, 200.0, 400.0, 800.0];
    /// let ys = [1.3, 1.9, 2.9, 4.9, 5.3, 5.7, 6.5];
    /// let fit = TwoSegmentFit::fit(&xs, &ys)?;
    /// assert!(fit.cached.slope > fit.scaled.slope);
    /// let p = fit.pivot().expect("lines cross");
    /// assert!(p.x > 50.0 && p.x < 250.0);
    /// # Ok::<(), odb_core::Error>(())
    /// ```
    pub fn fit(xs: &[f64], ys: &[f64]) -> Result<Self, Error> {
        if xs.len() != ys.len() {
            return Err(Error::LengthMismatch {
                xs: xs.len(),
                ys: ys.len(),
            });
        }
        if xs.len() < 2 * Self::MIN_SEGMENT {
            return Err(Error::TooFewPoints {
                needed: 2 * Self::MIN_SEGMENT,
                got: xs.len(),
            });
        }
        if xs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(Error::UnsortedXs);
        }
        let candidate_at = |split: usize| -> Result<(f64, Self), Error> {
            let cached = LinearFit::fit(&xs[..split], &ys[..split])?;
            let scaled = LinearFit::fit(&xs[split..], &ys[split..])?;
            let total_sse = cached.sse + scaled.sse;
            Ok((
                total_sse,
                Self {
                    cached,
                    scaled,
                    split_index: split,
                    boundary_x: 0.5 * (xs[split - 1] + xs[split]),
                },
            ))
        };
        // n >= 2 × MIN_SEGMENT guarantees the split range is non-empty, so
        // seed with the first split and scan the rest — no Option needed.
        let mut best = candidate_at(Self::MIN_SEGMENT)?;
        for split in (Self::MIN_SEGMENT + 1)..=(xs.len() - Self::MIN_SEGMENT) {
            let candidate = candidate_at(split)?;
            if candidate.0 < best.0 {
                best = candidate;
            }
        }
        Ok(best.1)
    }

    /// The pivot point — the intersection of the two fitted lines — or
    /// `None` when the lines are parallel.
    ///
    /// The paper reads the pivot off the intersection even when it falls
    /// slightly outside the split gap (Table 5's CPI pivots differ from
    /// the MPI pivots this way), so no range clamping is applied here; use
    /// [`TwoSegmentFit::boundary_x`] for a data-bounded transition.
    pub fn pivot(&self) -> Option<PivotPoint> {
        let x = self.cached.intersection_x(&self.scaled)?;
        Some(PivotPoint {
            x,
            y: self.cached.predict(x),
        })
    }

    /// The transition `x` used for prediction: the pivot when the lines
    /// intersect, otherwise the data-derived boundary.
    pub fn transition_x(&self) -> f64 {
        self.pivot().map_or(self.boundary_x, |p| p.x)
    }

    /// Evaluates the piecewise model: the cached line left of the
    /// transition, the scaled line at or right of it.
    pub fn predict(&self, x: f64) -> f64 {
        if x < self.transition_x() {
            self.cached.predict(x)
        } else {
            self.scaled.predict(x)
        }
    }

    /// Total sum of squared residuals over both segments.
    pub fn sse(&self) -> f64 {
        self.cached.sse + self.scaled.sse
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded::check;

    /// Paper-shaped CPI data: steep to ~100 W, then gentle (Fig 17).
    fn paper_like() -> (Vec<f64>, Vec<f64>) {
        let xs = vec![10.0, 25.0, 50.0, 100.0, 200.0, 300.0, 500.0, 800.0];
        let ys = xs
            .iter()
            .map(|&x| {
                if x <= 100.0 {
                    1.0 + 0.04 * x // steep cached region
                } else {
                    4.6 + 0.004 * x // gentle scaled region
                }
            })
            .collect();
        (xs, ys)
    }

    #[test]
    fn recovers_knee_on_paper_shaped_data() {
        let (xs, ys) = paper_like();
        let f = TwoSegmentFit::fit(&xs, &ys).unwrap();
        // The 100 W point lies exactly on both lines, so splits at index 3
        // and 4 tie at zero SSE; either region assignment is valid.
        assert!(
            f.split_index == 3 || f.split_index == 4,
            "split at {}",
            f.split_index
        );
        assert!((f.cached.slope - 0.04).abs() < 1e-9);
        assert!((f.scaled.slope - 0.004).abs() < 1e-9);
        let p = f.pivot().unwrap();
        // 1 + 0.04x = 4.6 + 0.004x  =>  x = 100
        assert!((p.x - 100.0).abs() < 1e-6, "pivot at {}", p.x);
        assert!((p.y - 5.0).abs() < 1e-6);
    }

    #[test]
    fn predict_uses_correct_segment() {
        let (xs, ys) = paper_like();
        let f = TwoSegmentFit::fit(&xs, &ys).unwrap();
        assert!((f.predict(50.0) - 3.0).abs() < 1e-9);
        assert!((f.predict(500.0) - 6.6).abs() < 1e-9);
        // Extrapolation beyond the data keeps the scaled line (§6.2).
        assert!((f.predict(2000.0) - (4.6 + 8.0)).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            TwoSegmentFit::fit(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]),
            Err(Error::TooFewPoints { needed: 4, .. })
        ));
        assert!(matches!(
            TwoSegmentFit::fit(&[1.0, 3.0, 2.0, 4.0], &[1.0; 4]),
            Err(Error::UnsortedXs)
        ));
        assert!(matches!(
            TwoSegmentFit::fit(&[1.0, 2.0, 2.0, 4.0], &[1.0; 4]),
            Err(Error::UnsortedXs)
        ));
        assert!(matches!(
            TwoSegmentFit::fit(&[1.0, 2.0, 3.0, 4.0], &[1.0; 3]),
            Err(Error::LengthMismatch { .. })
        ));
    }

    #[test]
    fn parallel_segments_have_no_pivot_but_a_boundary() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [1.0, 2.0, 3.0, 4.0]; // one perfect line: both fits identical
        let f = TwoSegmentFit::fit(&xs, &ys).unwrap();
        assert!(f.pivot().is_none());
        let b = f.transition_x();
        assert!(b > 1.0 && b < 4.0);
        // Prediction still works and matches the single line.
        assert!((f.predict(2.5) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn sse_is_sum_of_segments() {
        let (xs, ys) = paper_like();
        let f = TwoSegmentFit::fit(&xs, &ys).unwrap();
        assert!((f.sse() - (f.cached.sse + f.scaled.sse)).abs() < 1e-15);
        assert!(f.sse() < 1e-12, "noiseless data fits exactly");
    }

    /// The chosen split's SSE is no worse than any other valid split.
    #[test]
    fn split_is_sse_optimal() {
        check("split_is_sse_optimal", |d| {
            let ys = d.vec_f64(0.0..100.0, 6..14);
            let xs: Vec<f64> = (0..ys.len()).map(|i| (i + 1) as f64 * 10.0).collect();
            let best = TwoSegmentFit::fit(&xs, &ys).unwrap();
            for split in 2..=(xs.len() - 2) {
                let c = LinearFit::fit(&xs[..split], &ys[..split]).unwrap();
                let s = LinearFit::fit(&xs[split..], &ys[split..]).unwrap();
                assert!(best.sse() <= c.sse + s.sse + 1e-9);
            }
        });
    }

    /// A genuine two-slope signal with a knee is recovered with the
    /// pivot near the knee, for a range of knee positions and slopes.
    #[test]
    fn knee_recovery() {
        check("knee_recovery", |d| {
            let knee_idx = d.usize_in(2..6);
            let steep = d.f64_in(0.05..0.5);
            let gentle_frac = d.f64_in(0.0..0.2);
            let xs: Vec<f64> = (0..8).map(|i| (i + 1) as f64 * 25.0).collect();
            let knee_x = xs[knee_idx];
            let gentle = steep * gentle_frac;
            let y_at = |x: f64| {
                if x <= knee_x {
                    steep * x
                } else {
                    steep * knee_x + gentle * (x - knee_x)
                }
            };
            let ys: Vec<f64> = xs.iter().map(|&x| y_at(x)).collect();
            let f = TwoSegmentFit::fit(&xs, &ys).unwrap();
            if let Some(p) = f.pivot() {
                // The recovered pivot sits within one grid step of the knee.
                assert!(
                    (p.x - knee_x).abs() <= 30.0,
                    "pivot {} vs knee {}",
                    p.x,
                    knee_x
                );
            }
        });
    }
}
