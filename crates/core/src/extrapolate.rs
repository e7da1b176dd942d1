//! Extrapolating large-configuration behaviour from a minimal
//! representative setup (§6.2).
//!
//! The paper's proposal: fit the two-region model on measurements spanning
//! the pivot, pick the smallest configuration *larger* than the pivot as
//! the representative workload, and project bigger setups with the
//! scaled-region line — "there is no need to simulate larger setups."

use crate::error::Error;
use crate::pivot::TwoSegmentFit;
use crate::regression::mape;

/// Picks the smallest candidate workload size strictly greater than the
/// pivot — the paper's minimal representative configuration (it picks
/// 200 W for a pivot near 130 W on the Xeon's standard ladder).
///
/// Returns `None` when every candidate is at or below the pivot.
///
/// ```
/// use odb_core::extrapolate::representative_workload;
///
/// let ladder = [10, 25, 50, 100, 200, 300, 500, 800];
/// assert_eq!(representative_workload(130.0, &ladder), Some(200));
/// assert_eq!(representative_workload(900.0, &ladder), None);
/// ```
pub fn representative_workload(pivot_x: f64, candidates: &[u32]) -> Option<u32> {
    candidates
        .iter()
        .copied()
        .filter(|&w| (w as f64) > pivot_x)
        .min()
}

/// Quality report for an extrapolation validated against held-out
/// measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtrapolationReport {
    /// Mean absolute percentage error across the held-out points.
    pub mape: f64,
    /// Worst single-point absolute percentage error.
    pub worst_ape: f64,
    /// `(x, predicted, actual)` triples for every held-out point.
    pub points: Vec<(f64, f64, f64)>,
}

/// Predicts scaled-setup metric values from measurements around the pivot.
#[derive(Debug, Clone, PartialEq)]
pub struct Extrapolator {
    fit: TwoSegmentFit,
}

impl Extrapolator {
    /// Builds an extrapolator by fitting the two-region model to
    /// measurements (`xs` strictly increasing, typically 10 W up to a few
    /// points past the expected pivot).
    ///
    /// # Errors
    ///
    /// Propagates fitting errors from [`TwoSegmentFit::fit`].
    pub fn from_measurements(xs: &[f64], ys: &[f64]) -> Result<Self, Error> {
        Ok(Self {
            fit: TwoSegmentFit::fit(xs, ys)?,
        })
    }

    /// The underlying two-segment fit.
    pub fn fit(&self) -> &TwoSegmentFit {
        &self.fit
    }

    /// Predicts the metric at workload size `x`; beyond the pivot this is
    /// the scaled-region line — the paper's projection rule.
    pub fn predict(&self, x: f64) -> f64 {
        self.fit.predict(x)
    }

    /// Scores the extrapolation against held-out `(x, actual)` pairs
    /// (larger configurations that were *not* part of the fit).
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooFewPoints`] when `held_out` is empty or all
    /// actuals are zero.
    pub fn validate(&self, held_out: &[(f64, f64)]) -> Result<ExtrapolationReport, Error> {
        if held_out.is_empty() {
            return Err(Error::TooFewPoints { needed: 1, got: 0 });
        }
        let predicted: Vec<f64> = held_out.iter().map(|&(x, _)| self.predict(x)).collect();
        let actual: Vec<f64> = held_out.iter().map(|&(_, a)| a).collect();
        let mape = mape(&predicted, &actual)?;
        let mut worst = 0.0f64;
        let mut points = Vec::with_capacity(held_out.len());
        for (&(x, a), &p) in held_out.iter().zip(&predicted) {
            if a != 0.0 {
                worst = worst.max(((p - a) / a).abs());
            }
            points.push((x, p, a));
        }
        Ok(ExtrapolationReport {
            mape,
            worst_ape: worst,
            points,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Noiseless paper-shaped CPI trend with a knee at 100 W.
    fn trend(x: f64) -> f64 {
        if x <= 100.0 {
            1.0 + 0.04 * x
        } else {
            4.6 + 0.004 * x
        }
    }

    #[test]
    fn extrapolates_scaled_region_accurately() {
        // Fit only on 10..300 W, predict 500 and 800 W.
        let xs = [10.0, 25.0, 50.0, 100.0, 200.0, 300.0];
        let ys: Vec<f64> = xs.iter().map(|&x| trend(x)).collect();
        let ex = Extrapolator::from_measurements(&xs, &ys).unwrap();
        let report = ex
            .validate(&[(500.0, trend(500.0)), (800.0, trend(800.0))])
            .unwrap();
        assert!(report.mape < 0.02, "mape {}", report.mape);
        assert!(report.worst_ape < 0.03);
        assert_eq!(report.points.len(), 2);
    }

    #[test]
    fn representative_workload_is_smallest_above_pivot() {
        let ladder = [10, 25, 50, 100, 200, 300, 500, 800];
        assert_eq!(representative_workload(99.9, &ladder), Some(100));
        assert_eq!(representative_workload(100.0, &ladder), Some(200));
        assert_eq!(representative_workload(0.0, &ladder), Some(10));
        assert_eq!(representative_workload(800.0, &ladder), None);
        assert_eq!(representative_workload(50.0, &[]), None);
        // Order independence.
        assert_eq!(representative_workload(130.0, &[800, 200, 500]), Some(200));
    }

    #[test]
    fn validate_rejects_empty_holdout() {
        let xs = [10.0, 25.0, 50.0, 100.0];
        let ys: Vec<f64> = xs.iter().map(|&x| trend(x)).collect();
        let ex = Extrapolator::from_measurements(&xs, &ys).unwrap();
        assert!(ex.validate(&[]).is_err());
        assert!(ex.validate(&[(500.0, 0.0)]).is_err());
    }

    #[test]
    fn fit_is_exposed_for_reporting() {
        let xs = [10.0, 25.0, 50.0, 100.0, 200.0, 300.0];
        let ys: Vec<f64> = xs.iter().map(|&x| trend(x)).collect();
        let ex = Extrapolator::from_measurements(&xs, &ys).unwrap();
        let pivot = ex.fit().pivot().unwrap();
        assert!(pivot.x > 50.0 && pivot.x < 200.0);
    }
}
