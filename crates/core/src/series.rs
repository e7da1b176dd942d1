//! Labelled `(x, y)` series — the data behind every figure in the paper.

/// One labelled data series (e.g. "4P CPI vs warehouses").
///
/// ```
/// use odb_core::series::Series;
///
/// let mut s = Series::new("4P");
/// s.push(10.0, 3.1);
/// s.push(100.0, 4.8);
/// assert_eq!(s.xs(), vec![10.0, 100.0]);
/// assert!(s.is_sorted_by_x());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Series {
    label: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series with a display label.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Creates a series from parallel `x`/`y` iterators.
    pub fn from_xy<X, Y>(label: impl Into<String>, xs: X, ys: Y) -> Self
    where
        X: IntoIterator<Item = f64>,
        Y: IntoIterator<Item = f64>,
    {
        Self {
            label: label.into(),
            points: xs.into_iter().zip(ys).collect(),
        }
    }

    /// The display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// All points in insertion order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The `x` coordinates, copied.
    pub fn xs(&self) -> Vec<f64> {
        self.points.iter().map(|&(x, _)| x).collect()
    }

    /// The `y` coordinates, copied.
    pub fn ys(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, y)| y).collect()
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the series holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// `true` when `x` values are strictly increasing (a prerequisite for
    /// the two-segment fit).
    pub fn is_sorted_by_x(&self) -> bool {
        self.points.windows(2).all(|w| w[0].0 < w[1].0)
    }

    /// The `y` value at a given `x`, if present (exact match).
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|&&(px, _)| px == x).map(|&(_, y)| y)
    }

    /// Maximum `y` value; `None` for an empty series.
    pub fn max_y(&self) -> Option<f64> {
        self.points.iter().map(|&(_, y)| y).fold(None, |acc, y| {
            Some(acc.map_or(y, |m: f64| m.max(y)))
        })
    }

    /// Minimum `y` value; `None` for an empty series.
    pub fn min_y(&self) -> Option<f64> {
        self.points.iter().map(|&(_, y)| y).fold(None, |acc, y| {
            Some(acc.map_or(y, |m: f64| m.min(y)))
        })
    }

    /// Iterates over `(x, y)` points.
    pub fn iter(&self) -> std::slice::Iter<'_, (f64, f64)> {
        self.points.iter()
    }
}

impl Extend<(f64, f64)> for Series {
    fn extend<T: IntoIterator<Item = (f64, f64)>>(&mut self, iter: T) {
        self.points.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Series {
    type Item = &'a (f64, f64);
    type IntoIter = std::slice::Iter<'a, (f64, f64)>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let s = Series::from_xy("1P", [10.0, 50.0, 100.0], [1.0, 2.0, 3.0]);
        assert_eq!(s.label(), "1P");
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.xs(), vec![10.0, 50.0, 100.0]);
        assert_eq!(s.ys(), vec![1.0, 2.0, 3.0]);
        assert_eq!(s.y_at(50.0), Some(2.0));
        assert_eq!(s.y_at(51.0), None);
    }

    #[test]
    fn sortedness_check() {
        let sorted = Series::from_xy("a", [1.0, 2.0, 3.0], [0.0; 3]);
        assert!(sorted.is_sorted_by_x());
        let unsorted = Series::from_xy("b", [1.0, 3.0, 2.0], [0.0; 3]);
        assert!(!unsorted.is_sorted_by_x());
        let dup = Series::from_xy("c", [1.0, 1.0], [0.0; 2]);
        assert!(!dup.is_sorted_by_x());
        assert!(Series::new("empty").is_sorted_by_x());
    }

    #[test]
    fn extrema() {
        let s = Series::from_xy("a", [1.0, 2.0, 3.0], [5.0, -1.0, 4.0]);
        assert_eq!(s.max_y(), Some(5.0));
        assert_eq!(s.min_y(), Some(-1.0));
        assert_eq!(Series::new("e").max_y(), None);
        assert_eq!(Series::new("e").min_y(), None);
    }

    #[test]
    fn extend_and_iterate() {
        let mut s = Series::new("x");
        s.extend([(1.0, 1.0), (2.0, 4.0)]);
        let sum_y: f64 = (&s).into_iter().map(|&(_, y)| y).sum();
        assert_eq!(sum_y, 5.0);
        assert_eq!(s.iter().count(), 2);
        assert_eq!(s.points(), &[(1.0, 1.0), (2.0, 4.0)]);
    }

    #[test]
    fn default_is_empty_with_empty_label() {
        let s = Series::default();
        assert!(s.is_empty());
        assert_eq!(s.label(), "");
        assert_eq!(s.len(), 0);
    }
}
