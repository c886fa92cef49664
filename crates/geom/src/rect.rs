use serde::{Deserialize, Serialize};

use crate::{Point, DBU_PER_MICRON};

/// An axis-aligned rectangle in layout space, in DBU, with inclusive lower-left
/// and exclusive upper-right corners (`lo.x <= x < hi.x`).
///
/// Rectangles model die areas, macro outlines, cell outlines, routing
/// blockages and DRC-violation bounding boxes.
///
/// # Example
///
/// ```
/// use drcshap_geom::Rect;
///
/// let die = Rect::from_microns(0.0, 0.0, 600.0, 600.0);
/// let blockage = Rect::from_microns(100.0, 100.0, 200.0, 150.0);
/// assert!(die.contains_rect(&blockage));
/// assert_eq!(blockage.area(), 100_000 * 50_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Rect {
    /// Lower-left corner (inclusive).
    pub lo: Point,
    /// Upper-right corner (exclusive).
    pub hi: Point,
}

impl Rect {
    /// Creates a rectangle from corner coordinates in DBU.
    ///
    /// # Panics
    ///
    /// Panics if `x1 > x2` or `y1 > y2` (degenerate, zero-area rectangles are
    /// allowed; inverted ones are not).
    pub fn new(x1: i64, y1: i64, x2: i64, y2: i64) -> Self {
        assert!(x1 <= x2 && y1 <= y2, "inverted rectangle ({x1},{y1})-({x2},{y2})");
        Self { lo: Point::new(x1, y1), hi: Point::new(x2, y2) }
    }

    /// Creates a rectangle from corner coordinates in microns.
    pub fn from_microns(x1: f64, y1: f64, x2: f64, y2: f64) -> Self {
        Self::new(
            (x1 * DBU_PER_MICRON as f64).round() as i64,
            (y1 * DBU_PER_MICRON as f64).round() as i64,
            (x2 * DBU_PER_MICRON as f64).round() as i64,
            (y2 * DBU_PER_MICRON as f64).round() as i64,
        )
    }

    /// Width along x, in DBU.
    pub fn width(&self) -> i64 {
        self.hi.x - self.lo.x
    }

    /// Height along y, in DBU.
    pub fn height(&self) -> i64 {
        self.hi.y - self.lo.y
    }

    /// Area in DBU².
    pub fn area(&self) -> i64 {
        self.width() * self.height()
    }

    /// The center point (rounded down to DBU).
    pub fn center(&self) -> Point {
        Point::new((self.lo.x + self.hi.x) / 2, (self.lo.y + self.hi.y) / 2)
    }

    /// Whether `p` lies inside (lower-left inclusive, upper-right exclusive).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.lo.x && p.x < self.hi.x && p.y >= self.lo.y && p.y < self.hi.y
    }

    /// Whether `other` lies entirely inside `self` (boundary-touching allowed).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.lo.x >= self.lo.x
            && other.lo.y >= self.lo.y
            && other.hi.x <= self.hi.x
            && other.hi.y <= self.hi.y
    }

    /// Whether the two rectangles overlap with positive area.
    ///
    /// Hotspot labelling in the paper is "g-cell overlaps any DRC error
    /// bounding box"; edge-touching rectangles do *not* overlap.
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.lo.x < other.hi.x
            && other.lo.x < self.hi.x
            && self.lo.y < other.hi.y
            && other.lo.y < self.hi.y
    }

    /// The overlapping region, if any.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.overlaps(other) {
            return None;
        }
        Some(Rect::new(
            self.lo.x.max(other.lo.x),
            self.lo.y.max(other.lo.y),
            self.hi.x.min(other.hi.x),
            self.hi.y.min(other.hi.y),
        ))
    }

    /// Area of overlap with `other`, zero when disjoint.
    pub fn overlap_area(&self, other: &Rect) -> i64 {
        self.intersection(other).map_or(0, |r| r.area())
    }

    /// The smallest rectangle covering both `self` and `other`.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect::new(
            self.lo.x.min(other.lo.x),
            self.lo.y.min(other.lo.y),
            self.hi.x.max(other.hi.x),
            self.hi.y.max(other.hi.y),
        )
    }

    /// Grows the rectangle by `margin` DBU on every side.
    ///
    /// # Panics
    ///
    /// Panics if a negative margin would invert the rectangle.
    pub fn inflate(&self, margin: i64) -> Rect {
        Rect::new(self.lo.x - margin, self.lo.y - margin, self.hi.x + margin, self.hi.y + margin)
    }

    /// Clamps the rectangle into `bounds`; `None` when disjoint from it.
    pub fn clip_to(&self, bounds: &Rect) -> Option<Rect> {
        self.intersection(bounds)
    }
}

impl std::fmt::Display for Rect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} - {}]", self.lo, self.hi)
    }
}

crate::codec_struct!(Rect { lo: Point, hi: Point });

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_dimensions() {
        let r = Rect::new(0, 0, 10, 5);
        assert_eq!(r.width(), 10);
        assert_eq!(r.height(), 5);
        assert_eq!(r.area(), 50);
        assert_eq!(r.center(), Point::new(5, 2));
    }

    #[test]
    #[should_panic(expected = "inverted rectangle")]
    fn inverted_rect_panics() {
        let _ = Rect::new(10, 0, 0, 5);
    }

    #[test]
    fn containment_is_half_open() {
        let r = Rect::new(0, 0, 10, 10);
        assert!(r.contains(Point::new(0, 0)));
        assert!(!r.contains(Point::new(10, 0)));
        assert!(!r.contains(Point::new(0, 10)));
        assert!(r.contains(Point::new(9, 9)));
    }

    #[test]
    fn edge_touching_rects_do_not_overlap() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(10, 0, 20, 10);
        assert!(!a.overlaps(&b));
        assert_eq!(a.overlap_area(&b), 0);
    }

    #[test]
    fn intersection_and_union() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 15, 15);
        assert_eq!(a.intersection(&b), Some(Rect::new(5, 5, 10, 10)));
        assert_eq!(a.overlap_area(&b), 25);
        assert_eq!(a.union(&b), Rect::new(0, 0, 15, 15));
    }

    #[test]
    fn inflate_grows_every_side() {
        let r = Rect::new(5, 5, 10, 10).inflate(2);
        assert_eq!(r, Rect::new(3, 3, 12, 12));
    }

    fn arb_rect() -> impl Strategy<Value = Rect> {
        (0i64..1000, 0i64..1000, 1i64..1000, 1i64..1000)
            .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
    }

    proptest! {
        #[test]
        fn prop_intersection_within_both(a in arb_rect(), b in arb_rect()) {
            if let Some(i) = a.intersection(&b) {
                prop_assert!(a.contains_rect(&i));
                prop_assert!(b.contains_rect(&i));
                prop_assert!(i.area() > 0);
            }
        }

        #[test]
        fn prop_union_contains_both(a in arb_rect(), b in arb_rect()) {
            let u = a.union(&b);
            prop_assert!(u.contains_rect(&a));
            prop_assert!(u.contains_rect(&b));
        }

        #[test]
        fn prop_overlap_symmetric(a in arb_rect(), b in arb_rect()) {
            prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
            prop_assert_eq!(a.overlap_area(&b), b.overlap_area(&a));
        }

        #[test]
        fn prop_overlap_area_bounded(a in arb_rect(), b in arb_rect()) {
            let ov = a.overlap_area(&b);
            prop_assert!(ov <= a.area().min(b.area()));
        }
    }
}
