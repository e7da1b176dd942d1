//! Ordinary least-squares linear regression (§6.1).
//!
//! The paper approximates CPI and MPI trends with straight lines fitted by
//! least squares within each behavioural region. [`LinearFit`] is the
//! building block that [`crate::pivot::TwoSegmentFit`] composes.

use crate::error::Error;

/// A fitted line `y = slope × x + intercept` with goodness-of-fit data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept of the fitted line.
    pub intercept: f64,
    /// Sum of squared residuals.
    pub sse: f64,
    /// Coefficient of determination in `[0, 1]`; `1.0` for a perfect fit.
    /// Defined as `1` when the data has zero variance and zero residual.
    pub r_squared: f64,
    /// Number of points the fit used.
    pub n: usize,
    /// Standard error of the slope estimate (`None` for n ≤ 2, where the
    /// residual degrees of freedom vanish).
    pub slope_stderr: Option<f64>,
    /// Standard error of the intercept estimate (`None` for n ≤ 2).
    pub intercept_stderr: Option<f64>,
}

impl LinearFit {
    /// Fits a line to `(xs[i], ys[i])` by ordinary least squares.
    ///
    /// # Errors
    ///
    /// * [`Error::LengthMismatch`] if the slices differ in length.
    /// * [`Error::TooFewPoints`] if fewer than two points are given.
    /// * [`Error::DegenerateXs`] if all `x` values are equal.
    /// * [`Error::NonFinite`] if any coordinate is NaN or infinite.
    ///
    /// ```
    /// use odb_core::regression::LinearFit;
    ///
    /// let fit = LinearFit::fit(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0])?;
    /// assert!((fit.slope - 2.0).abs() < 1e-12);
    /// assert!(fit.intercept.abs() < 1e-12);
    /// assert!((fit.r_squared - 1.0).abs() < 1e-12);
    /// # Ok::<(), odb_core::Error>(())
    /// ```
    pub fn fit(xs: &[f64], ys: &[f64]) -> Result<Self, Error> {
        if xs.len() != ys.len() {
            return Err(Error::LengthMismatch {
                xs: xs.len(),
                ys: ys.len(),
            });
        }
        if xs.len() < 2 {
            return Err(Error::TooFewPoints {
                needed: 2,
                got: xs.len(),
            });
        }
        if xs.iter().any(|v| !v.is_finite()) {
            return Err(Error::NonFinite { what: "x" });
        }
        if ys.iter().any(|v| !v.is_finite()) {
            return Err(Error::NonFinite { what: "y" });
        }
        let n = xs.len() as f64;
        let mean_x = xs.iter().sum::<f64>() / n;
        let mean_y = ys.iter().sum::<f64>() / n;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        let mut syy = 0.0;
        for (&x, &y) in xs.iter().zip(ys) {
            let dx = x - mean_x;
            let dy = y - mean_y;
            sxx += dx * dx;
            sxy += dx * dy;
            syy += dy * dy;
        }
        if sxx == 0.0 {
            return Err(Error::DegenerateXs);
        }
        let slope = sxy / sxx;
        let intercept = mean_y - slope * mean_x;
        let mut sse = 0.0;
        for (&x, &y) in xs.iter().zip(ys) {
            let r = y - (slope * x + intercept);
            sse += r * r;
        }
        let r_squared = if syy > 0.0 {
            (1.0 - sse / syy).clamp(0.0, 1.0)
        } else {
            1.0 // zero-variance data perfectly explained by a flat line
        };
        // Classical OLS standard errors, when residual dof exist.
        let (slope_stderr, intercept_stderr) = if xs.len() > 2 {
            let dof = (xs.len() - 2) as f64;
            let s2 = sse / dof;
            let se_slope = (s2 / sxx).sqrt();
            let sum_x2: f64 = xs.iter().map(|x| x * x).sum();
            let se_intercept = (s2 * sum_x2 / (n * sxx)).sqrt();
            (Some(se_slope), Some(se_intercept))
        } else {
            (None, None)
        };
        Ok(Self {
            slope,
            intercept,
            sse,
            r_squared,
            n: xs.len(),
            slope_stderr,
            intercept_stderr,
        })
    }

    /// Evaluates the fitted line at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }

    /// The `x` at which this line intersects `other`, or `None` when the
    /// lines are (numerically) parallel.
    pub fn intersection_x(&self, other: &LinearFit) -> Option<f64> {
        let dslope = self.slope - other.slope;
        if dslope.abs() < 1e-12 {
            return None;
        }
        let x = (other.intercept - self.intercept) / dslope;
        x.is_finite().then_some(x)
    }
}

/// A Theil–Sen robust line estimate: the median of all pairwise slopes,
/// with the intercept chosen as the median of `y − slope × x`.
///
/// Hardware-counter series carry occasional sampling outliers (the
/// paper's own Fig 11 shows them at small `W`); the Theil–Sen estimator
/// tolerates up to ~29% contamination where least squares chases every
/// outlier. Useful as a cross-check on the two-segment fits.
///
/// # Errors
///
/// Same conditions as [`LinearFit::fit`].
///
/// ```
/// use odb_core::regression::theil_sen;
///
/// // One wild outlier barely moves the robust fit.
/// let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
/// let ys = [2.0, 4.0, 6.0, 80.0, 10.0];
/// let (slope, _intercept) = theil_sen(&xs, &ys)?;
/// assert!((slope - 2.0).abs() < 0.7, "robust slope {slope}");
/// # Ok::<(), odb_core::Error>(())
/// ```
pub fn theil_sen(xs: &[f64], ys: &[f64]) -> Result<(f64, f64), Error> {
    if xs.len() != ys.len() {
        return Err(Error::LengthMismatch {
            xs: xs.len(),
            ys: ys.len(),
        });
    }
    if xs.len() < 2 {
        return Err(Error::TooFewPoints {
            needed: 2,
            got: xs.len(),
        });
    }
    if xs.iter().chain(ys).any(|v| !v.is_finite()) {
        return Err(Error::NonFinite { what: "input" });
    }
    let mut slopes = Vec::with_capacity(xs.len() * (xs.len() - 1) / 2);
    for i in 0..xs.len() {
        for j in (i + 1)..xs.len() {
            let dx = xs[j] - xs[i];
            if dx != 0.0 {
                slopes.push((ys[j] - ys[i]) / dx);
            }
        }
    }
    if slopes.is_empty() {
        return Err(Error::DegenerateXs);
    }
    let slope = median(&mut slopes);
    let mut intercepts: Vec<f64> = xs
        .iter()
        .zip(ys)
        .map(|(&x, &y)| y - slope * x)
        .collect();
    let intercept = median(&mut intercepts);
    Ok((slope, intercept))
}

/// In-place median (average of the middle two for even counts).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// Mean absolute percentage error between predictions and actuals, in
/// `[0, ∞)`; pairs with a zero actual are skipped.
///
/// Used by EXPERIMENTS.md to score extrapolation quality (§6.2).
///
/// # Errors
///
/// Returns [`Error::LengthMismatch`] when lengths differ, and
/// [`Error::TooFewPoints`] when no pair has a nonzero actual.
pub fn mape(predicted: &[f64], actual: &[f64]) -> Result<f64, Error> {
    if predicted.len() != actual.len() {
        return Err(Error::LengthMismatch {
            xs: predicted.len(),
            ys: actual.len(),
        });
    }
    let mut total = 0.0;
    let mut n = 0usize;
    for (&p, &a) in predicted.iter().zip(actual) {
        if a != 0.0 {
            total += ((p - a) / a).abs();
            n += 1;
        }
    }
    if n == 0 {
        return Err(Error::TooFewPoints { needed: 1, got: 0 });
    }
    Ok(total / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded::check;

    #[test]
    fn perfect_line_recovered() {
        let xs = [10.0, 50.0, 100.0, 500.0, 800.0];
        let ys: Vec<f64> = xs.iter().map(|x| 0.004 * x + 3.0).collect();
        let f = LinearFit::fit(&xs, &ys).unwrap();
        assert!((f.slope - 0.004).abs() < 1e-12);
        assert!((f.intercept - 3.0).abs() < 1e-10);
        assert!(f.sse < 1e-18);
        assert_eq!(f.n, 5);
    }

    #[test]
    fn standard_errors_behave() {
        // Exact fit: zero residual, zero standard errors.
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        let f = LinearFit::fit(&xs, &ys).unwrap();
        assert!(f.slope_stderr.unwrap() < 1e-9);
        assert!(f.intercept_stderr.unwrap() < 1e-9);
        // Two points: no residual dof, no standard errors.
        let f2 = LinearFit::fit(&[0.0, 1.0], &[0.0, 1.0]).unwrap();
        assert!(f2.slope_stderr.is_none());
        assert!(f2.intercept_stderr.is_none());
        // Noisier data has larger slope uncertainty than cleaner data.
        let noisy: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 2.0 * x + if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let fnoisy = LinearFit::fit(&xs, &noisy).unwrap();
        assert!(fnoisy.slope_stderr.unwrap() > f.slope_stderr.unwrap());
    }

    #[test]
    fn noisy_line_has_residual_and_good_r2() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 2.0 * x + 1.0 + if i % 2 == 0 { 0.1 } else { -0.1 })
            .collect();
        let f = LinearFit::fit(&xs, &ys).unwrap();
        assert!((f.slope - 2.0).abs() < 0.01);
        assert!(f.sse > 0.0);
        assert!(f.r_squared > 0.99);
    }

    #[test]
    fn flat_data_is_perfectly_fit_by_flat_line() {
        let f = LinearFit::fit(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.intercept, 5.0);
        assert_eq!(f.r_squared, 1.0);
    }

    #[test]
    fn input_validation() {
        assert!(matches!(
            LinearFit::fit(&[1.0], &[1.0]),
            Err(Error::TooFewPoints { needed: 2, got: 1 })
        ));
        assert!(matches!(
            LinearFit::fit(&[1.0, 2.0], &[1.0]),
            Err(Error::LengthMismatch { .. })
        ));
        assert!(matches!(
            LinearFit::fit(&[2.0, 2.0], &[1.0, 3.0]),
            Err(Error::DegenerateXs)
        ));
        assert!(matches!(
            LinearFit::fit(&[1.0, f64::NAN], &[1.0, 2.0]),
            Err(Error::NonFinite { what: "x" })
        ));
        assert!(matches!(
            LinearFit::fit(&[1.0, 2.0], &[1.0, f64::INFINITY]),
            Err(Error::NonFinite { what: "y" })
        ));
    }

    #[test]
    fn intersection_of_crossing_lines() {
        let a = LinearFit {
            slope: 1.0,
            intercept: 0.0,
            sse: 0.0,
            r_squared: 1.0,
            n: 2,
            slope_stderr: None,
            intercept_stderr: None,
        };
        let b = LinearFit {
            slope: -1.0,
            intercept: 10.0,
            sse: 0.0,
            r_squared: 1.0,
            n: 2,
            slope_stderr: None,
            intercept_stderr: None,
        };
        assert!((a.intersection_x(&b).unwrap() - 5.0).abs() < 1e-12);
        assert!(a.intersection_x(&a).is_none());
    }

    #[test]
    fn mape_scores_errors() {
        let m = mape(&[110.0, 90.0], &[100.0, 100.0]).unwrap();
        assert!((m - 0.1).abs() < 1e-12);
        assert!(mape(&[1.0], &[0.0]).is_err());
        assert!(mape(&[1.0, 2.0], &[1.0]).is_err());
        // zero-actual pairs skipped, not fatal, when another pair exists
        let m = mape(&[1.0, 50.0], &[0.0, 100.0]).unwrap();
        assert!((m - 0.5).abs() < 1e-12);
    }

    #[test]
    fn theil_sen_resists_outliers_where_ols_does_not() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let mut ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        ys[7] = 500.0; // one corrupted sample
        let ols = LinearFit::fit(&xs, &ys).unwrap();
        let (robust_slope, robust_intercept) = theil_sen(&xs, &ys).unwrap();
        assert!((robust_slope - 3.0).abs() < 0.2, "robust {robust_slope}");
        assert!((robust_intercept - 1.0).abs() < 1.5);
        assert!(
            (ols.slope - 3.0).abs() > 2.0 * (robust_slope - 3.0).abs(),
            "OLS should be visibly pulled: {}",
            ols.slope
        );
    }

    #[test]
    fn theil_sen_validates_inputs() {
        assert!(theil_sen(&[1.0], &[1.0]).is_err());
        assert!(theil_sen(&[1.0, 2.0], &[1.0]).is_err());
        assert!(theil_sen(&[2.0, 2.0], &[1.0, 3.0]).is_err());
        assert!(theil_sen(&[1.0, f64::NAN], &[1.0, 2.0]).is_err());
        // Exact line round-trip.
        let (a, b) = theil_sen(&[0.0, 1.0, 2.0], &[5.0, 7.0, 9.0]).unwrap();
        assert!((a - 2.0).abs() < 1e-12);
        assert!((b - 5.0).abs() < 1e-12);
    }

    /// Theil–Sen also recovers exact lines.
    #[test]
    fn theil_sen_exact_line_roundtrip() {
        check("theil_sen_exact_line_roundtrip", |d| {
            let a = d.f64_in(-100.0..100.0);
            let b = d.f64_in(-1e4..1e4);
            let n = d.usize_in(3..15);
            let xs: Vec<f64> = (0..n).map(|i| i as f64 * 7.0).collect();
            let ys: Vec<f64> = xs.iter().map(|x| a * x + b).collect();
            let (sa, sb) = theil_sen(&xs, &ys).unwrap();
            assert!((sa - a).abs() < 1e-6 * (1.0 + a.abs()));
            assert!((sb - b).abs() < 1e-5 * (1.0 + b.abs()));
        });
    }

    /// Fitting y = a·x + b exactly recovers (a, b) for any finite
    /// coefficients and ≥2 distinct xs.
    #[test]
    fn exact_line_roundtrip() {
        check("exact_line_roundtrip", |d| {
            let a = d.f64_in(-1e3..1e3);
            let b = d.f64_in(-1e6..1e6);
            let x0 = d.f64_in(-1e3..1e3);
            let step = d.f64_in(0.1..100.0);
            let n = d.usize_in(2..30);
            let xs: Vec<f64> = (0..n).map(|i| x0 + step * i as f64).collect();
            let ys: Vec<f64> = xs.iter().map(|x| a * x + b).collect();
            let f = LinearFit::fit(&xs, &ys).unwrap();
            assert!((f.slope - a).abs() < 1e-6 * (1.0 + a.abs()));
            assert!((f.intercept - b).abs() < 1e-5 * (1.0 + b.abs()));
        });
    }

    /// The least-squares line always passes through the centroid.
    #[test]
    fn passes_through_centroid() {
        check("passes_through_centroid", |d| {
            let ys = d.vec_f64(-1e3..1e3, 3..20);
            let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
            let f = LinearFit::fit(&xs, &ys).unwrap();
            let mx = xs.iter().sum::<f64>() / xs.len() as f64;
            let my = ys.iter().sum::<f64>() / ys.len() as f64;
            assert!((f.predict(mx) - my).abs() < 1e-6);
        });
    }

    /// R² stays within [0, 1] and SSE is non-negative.
    #[test]
    fn goodness_of_fit_bounds() {
        check("goodness_of_fit_bounds", |d| {
            let ys = d.vec_f64(-1e3..1e3, 2..20);
            let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
            let f = LinearFit::fit(&xs, &ys).unwrap();
            assert!(f.sse >= 0.0);
            assert!((0.0..=1.0).contains(&f.r_squared));
        });
    }
}
