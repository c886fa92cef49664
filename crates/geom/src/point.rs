use serde::{Deserialize, Serialize};

use crate::DBU_PER_MICRON;

/// A point in layout space, in database units (DBU).
///
/// # Example
///
/// ```
/// use drcshap_geom::Point;
///
/// let a = Point::new(0, 0);
/// let b = Point::from_microns(1.0, 2.0);
/// assert_eq!(a.manhattan_distance(b), 3_000);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Point {
    /// Horizontal coordinate in DBU.
    pub x: i64,
    /// Vertical coordinate in DBU.
    pub y: i64,
}

impl Point {
    /// Creates a point from DBU coordinates.
    pub const fn new(x: i64, y: i64) -> Self {
        Self { x, y }
    }

    /// Creates a point from micron coordinates, rounding to the nearest DBU.
    ///
    /// # Example
    ///
    /// ```
    /// use drcshap_geom::Point;
    /// assert_eq!(Point::from_microns(0.5, 1.0), Point::new(500, 1000));
    /// ```
    pub fn from_microns(x: f64, y: f64) -> Self {
        Self {
            x: (x * DBU_PER_MICRON as f64).round() as i64,
            y: (y * DBU_PER_MICRON as f64).round() as i64,
        }
    }

    /// The Manhattan (L1) distance to `other`, the metric used for the paper's
    /// *pin spacing* feature (mean pairwise Manhattan distance of pins).
    pub fn manhattan_distance(self, other: Point) -> i64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Component-wise translation.
    pub fn offset(self, dx: i64, dy: i64) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }

    /// This point's coordinates in microns.
    pub fn to_microns(self) -> (f64, f64) {
        (self.x as f64 / DBU_PER_MICRON as f64, self.y as f64 / DBU_PER_MICRON as f64)
    }
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(i64, i64)> for Point {
    fn from((x, y): (i64, i64)) -> Self {
        Point::new(x, y)
    }
}

crate::codec_struct!(Point { x: i64, y: i64 });

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn manhattan_distance_is_symmetric_and_zero_on_self() {
        let a = Point::new(10, -3);
        let b = Point::new(-5, 7);
        assert_eq!(a.manhattan_distance(b), b.manhattan_distance(a));
        assert_eq!(a.manhattan_distance(a), 0);
        assert_eq!(a.manhattan_distance(b), 15 + 10);
    }

    #[test]
    fn micron_round_trip() {
        let p = Point::from_microns(123.456, 0.001);
        assert_eq!(p, Point::new(123_456, 1));
        let (x, y) = p.to_microns();
        assert!((x - 123.456).abs() < 1e-9);
        assert!((y - 0.001).abs() < 1e-9);
    }

    #[test]
    fn offset_translates_both_axes() {
        assert_eq!(Point::new(1, 2).offset(-3, 4), Point::new(-2, 6));
    }

    proptest! {
        #[test]
        fn prop_triangle_inequality(
            ax in -1_000_000i64..1_000_000, ay in -1_000_000i64..1_000_000,
            bx in -1_000_000i64..1_000_000, by in -1_000_000i64..1_000_000,
            cx in -1_000_000i64..1_000_000, cy in -1_000_000i64..1_000_000,
        ) {
            let (a, b, c) = (Point::new(ax, ay), Point::new(bx, by), Point::new(cx, cy));
            prop_assert!(a.manhattan_distance(c) <= a.manhattan_distance(b) + b.manhattan_distance(c));
        }

        #[test]
        fn prop_distance_nonnegative(ax in any::<i32>(), ay in any::<i32>(), bx in any::<i32>(), by in any::<i32>()) {
            let a = Point::new(ax as i64, ay as i64);
            let b = Point::new(bx as i64, by as i64);
            prop_assert!(a.manhattan_distance(b) >= 0);
        }
    }
}
