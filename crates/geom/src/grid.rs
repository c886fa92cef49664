use serde::{Deserialize, Serialize};

use crate::codec::{CodecError, Decode, Encode, Reader};
use crate::{Point, Rect};

/// Identifier of a global-routing cell (g-cell) within a [`GcellGrid`]:
/// column `x` and row `y`, zero-based from the lower-left corner of the die.
///
/// # Example
///
/// ```
/// use drcshap_geom::GcellId;
/// let id = GcellId::new(3, 7);
/// assert_eq!((id.x, id.y), (3, 7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GcellId {
    /// Column index.
    pub x: u32,
    /// Row index.
    pub y: u32,
}

impl GcellId {
    /// Creates a g-cell identifier from column and row indices.
    pub const fn new(x: u32, y: u32) -> Self {
        Self { x, y }
    }
}

impl std::fmt::Display for GcellId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g({},{})", self.x, self.y)
    }
}

/// A uniform tessellation of the die area into square g-cells — the spatial
/// granularity at which global routing is performed and DRC hotspots are
/// predicted ([Westra et al. 2005] as cited by the paper).
///
/// The last column/row of cells absorbs any remainder when the die dimension
/// is not an exact multiple of the g-cell size, matching industrial practice.
///
/// # Example
///
/// ```
/// use drcshap_geom::{GcellGrid, GcellId, Rect};
///
/// let grid = GcellGrid::with_gcell_size(Rect::from_microns(0.0, 0.0, 265.0, 265.0), 5_000);
/// assert_eq!(grid.dims(), (53, 53));
/// assert_eq!(grid.num_cells(), 53 * 53);
/// let rect = grid.cell_rect(GcellId::new(52, 52));
/// assert_eq!(rect.hi, grid.die().hi);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GcellGrid {
    die: Rect,
    gcell_size: i64,
    nx: u32,
    ny: u32,
}

impl GcellGrid {
    /// Creates a grid over `die` with square g-cells of side `gcell_size` DBU.
    /// A partial final column/row is merged into the previous one.
    ///
    /// # Panics
    ///
    /// Panics if `gcell_size <= 0` or the die is smaller than one g-cell.
    pub fn with_gcell_size(die: Rect, gcell_size: i64) -> Self {
        assert!(gcell_size > 0, "g-cell size must be positive");
        assert!(
            die.width() >= gcell_size && die.height() >= gcell_size,
            "die {die} smaller than one g-cell ({gcell_size})"
        );
        let nx = (die.width() / gcell_size).max(1) as u32;
        let ny = (die.height() / gcell_size).max(1) as u32;
        Self { die, gcell_size, nx, ny }
    }

    /// Creates a grid with exactly `nx` × `ny` cells covering `die`.
    ///
    /// The nominal g-cell size is `die.width() / nx` (used for the x pitch)
    /// and rows use `die.height() / ny`; any remainder goes to the last
    /// column/row.
    ///
    /// # Panics
    ///
    /// Panics if `nx == 0 || ny == 0`.
    pub fn with_dims(die: Rect, nx: u32, ny: u32) -> Self {
        assert!(nx > 0 && ny > 0, "grid dims must be positive");
        let gcell_size = die.width() / nx as i64;
        assert!(gcell_size > 0, "die too narrow for {nx} columns");
        Self { die, gcell_size, nx, ny }
    }

    /// The die rectangle this grid tessellates.
    pub fn die(&self) -> &Rect {
        &self.die
    }

    /// Nominal g-cell side length in DBU.
    pub fn gcell_size(&self) -> i64 {
        self.gcell_size
    }

    /// Grid dimensions `(columns, rows)`.
    pub fn dims(&self) -> (u32, u32) {
        (self.nx, self.ny)
    }

    /// Total number of g-cells.
    pub fn num_cells(&self) -> usize {
        self.nx as usize * self.ny as usize
    }

    /// Whether `id` addresses a cell inside this grid.
    pub fn contains_cell(&self, id: GcellId) -> bool {
        id.x < self.nx && id.y < self.ny
    }

    /// Linear index of `id` in row-major order (row `y`, then column `x`).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn index_of(&self, id: GcellId) -> usize {
        assert!(self.contains_cell(id), "{id} outside {}x{} grid", self.nx, self.ny);
        id.y as usize * self.nx as usize + id.x as usize
    }

    /// The cell at linear `index` (inverse of [`GcellGrid::index_of`]).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.num_cells()`.
    pub fn cell_at_index(&self, index: usize) -> GcellId {
        assert!(index < self.num_cells(), "index {index} out of bounds");
        GcellId::new((index % self.nx as usize) as u32, (index / self.nx as usize) as u32)
    }

    /// The cell whose rectangle contains `p`, or `None` if `p` is off-die.
    pub fn cell_containing(&self, p: Point) -> Option<GcellId> {
        if !self.die.contains(p) {
            return None;
        }
        let x = (((p.x - self.die.lo.x) / self.gcell_size) as u32).min(self.nx - 1);
        let ystep = self.die.height() / self.ny as i64;
        let y = (((p.y - self.die.lo.y) / ystep) as u32).min(self.ny - 1);
        Some(GcellId::new(x, y))
    }

    /// The rectangle covered by `id`. Last column/row extends to the die edge.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn cell_rect(&self, id: GcellId) -> Rect {
        assert!(self.contains_cell(id), "{id} outside {}x{} grid", self.nx, self.ny);
        let ystep = self.die.height() / self.ny as i64;
        let x1 = self.die.lo.x + id.x as i64 * self.gcell_size;
        let y1 = self.die.lo.y + id.y as i64 * ystep;
        let x2 = if id.x + 1 == self.nx { self.die.hi.x } else { x1 + self.gcell_size };
        let y2 = if id.y + 1 == self.ny { self.die.hi.y } else { y1 + ystep };
        Rect::new(x1, y1, x2, y2)
    }

    /// Center of `id`'s rectangle, normalized so each axis spans `[0, 1]`
    /// across the die — the paper's g-cell coordinate features.
    pub fn normalized_center(&self, id: GcellId) -> (f64, f64) {
        let c = self.cell_rect(id).center();
        (
            (c.x - self.die.lo.x) as f64 / self.die.width() as f64,
            (c.y - self.die.lo.y) as f64 / self.die.height() as f64,
        )
    }

    /// The neighbor of `id` offset by `(dx, dy)` grid steps, or `None` when
    /// that would fall off the grid (the paper pads such neighbours blank).
    pub fn neighbor(&self, id: GcellId, dx: i32, dy: i32) -> Option<GcellId> {
        let x = id.x as i64 + dx as i64;
        let y = id.y as i64 + dy as i64;
        if x < 0 || y < 0 || x >= self.nx as i64 || y >= self.ny as i64 {
            None
        } else {
            Some(GcellId::new(x as u32, y as u32))
        }
    }

    /// Iterates all cells in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = GcellId> + '_ {
        (0..self.ny).flat_map(move |y| (0..self.nx).map(move |x| GcellId::new(x, y)))
    }

    /// All g-cells whose rectangle overlaps `rect` (positive-area overlap).
    pub fn cells_overlapping(&self, rect: &Rect) -> Vec<GcellId> {
        let Some(clipped) = rect.clip_to(&self.die) else {
            return Vec::new();
        };
        let lo = self.cell_containing(clipped.lo).expect("clipped.lo is on-die by construction");
        // hi is exclusive; step one DBU inside to find the last covered cell.
        let hi_probe = Point::new(clipped.hi.x - 1, clipped.hi.y - 1);
        let hi = self.cell_containing(hi_probe).expect("clipped.hi-1 is on-die by construction");
        let mut out = Vec::with_capacity(((hi.x - lo.x + 1) * (hi.y - lo.y + 1)) as usize);
        for y in lo.y..=hi.y {
            for x in lo.x..=hi.x {
                out.push(GcellId::new(x, y));
            }
        }
        out
    }
}

crate::codec_struct!(GcellId { x: u32, y: u32 });

impl Encode for GcellGrid {
    fn encode(&self, out: &mut Vec<u8>) {
        self.die.encode(out);
        self.gcell_size.encode(out);
        self.nx.encode(out);
        self.ny.encode(out);
    }
}

impl Decode for GcellGrid {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let die = Rect::decode(r)?;
        let gcell_size = i64::decode(r)?;
        let (nx, ny) = (u32::decode(r)?, u32::decode(r)?);
        if gcell_size <= 0 || nx == 0 || ny == 0 {
            return Err(CodecError::Invalid(format!(
                "g-cell grid {nx}x{ny} with g-cell size {gcell_size}"
            )));
        }
        Ok(GcellGrid { die, gcell_size, nx, ny })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid_100() -> GcellGrid {
        GcellGrid::with_gcell_size(Rect::from_microns(0.0, 0.0, 600.0, 600.0), 6_000)
    }

    #[test]
    fn dims_match_table1_designs() {
        // des_perf_b: 600x600 um, 10000 g-cells at 6 um pitch.
        assert_eq!(grid_100().num_cells(), 10_000);
        // fft_2: 265x265 um, 3249 g-cells -> 57x57 at ~4.64 um; with_dims path.
        let g = GcellGrid::with_dims(Rect::from_microns(0.0, 0.0, 265.0, 265.0), 57, 57);
        assert_eq!(g.num_cells(), 3_249);
    }

    #[test]
    fn index_round_trip() {
        let g = grid_100();
        for idx in [0usize, 1, 99, 100, 9_999] {
            assert_eq!(g.index_of(g.cell_at_index(idx)), idx);
        }
    }

    #[test]
    fn cell_containing_handles_boundaries() {
        let g = grid_100();
        assert_eq!(g.cell_containing(Point::new(0, 0)), Some(GcellId::new(0, 0)));
        assert_eq!(g.cell_containing(Point::from_microns(600.0, 0.0)), None);
        assert_eq!(
            g.cell_containing(Point::from_microns(599.999, 599.999)),
            Some(GcellId::new(99, 99))
        );
    }

    #[test]
    fn last_cell_absorbs_remainder() {
        // 265 um / 6 um = 44 cells, last cell wider.
        let g = GcellGrid::with_gcell_size(Rect::from_microns(0.0, 0.0, 265.0, 265.0), 6_000);
        assert_eq!(g.dims(), (44, 44));
        let last = g.cell_rect(GcellId::new(43, 43));
        assert_eq!(last.hi, g.die().hi);
        assert!(last.width() > g.gcell_size());
    }

    #[test]
    fn neighbor_respects_boundaries() {
        let g = grid_100();
        assert_eq!(g.neighbor(GcellId::new(0, 0), -1, 0), None);
        assert_eq!(g.neighbor(GcellId::new(0, 0), 1, 1), Some(GcellId::new(1, 1)));
        assert_eq!(g.neighbor(GcellId::new(99, 99), 0, 1), None);
    }

    #[test]
    fn normalized_center_in_unit_square() {
        let g = grid_100();
        let (x0, y0) = g.normalized_center(GcellId::new(0, 0));
        let (x1, y1) = g.normalized_center(GcellId::new(99, 99));
        assert!(x0 > 0.0 && x0 < 0.02 && y0 > 0.0 && y0 < 0.02);
        assert!(x1 > 0.98 && x1 < 1.0 && y1 > 0.98 && y1 < 1.0);
    }

    #[test]
    fn cells_overlapping_counts() {
        let g = grid_100();
        // A rect exactly covering 2x3 cells.
        let r = Rect::from_microns(6.0, 12.0, 18.0, 30.0);
        assert_eq!(g.cells_overlapping(&r).len(), 6);
        // Off-die rect overlaps nothing.
        let r = Rect::from_microns(700.0, 700.0, 710.0, 710.0);
        assert!(g.cells_overlapping(&r).is_empty());
        // A rect poking one DBU into a cell overlaps it.
        let r = Rect::new(5_999, 0, 6_001, 1);
        assert_eq!(g.cells_overlapping(&r).len(), 2);
    }

    #[test]
    fn iter_visits_every_cell_once() {
        let g = GcellGrid::with_dims(Rect::from_microns(0.0, 0.0, 30.0, 20.0), 3, 2);
        let cells: Vec<_> = g.iter().collect();
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0], GcellId::new(0, 0));
        assert_eq!(cells[5], GcellId::new(2, 1));
    }

    proptest! {
        #[test]
        fn prop_cell_rects_tile_die(nx in 1u32..20, ny in 1u32..20) {
            let die = Rect::from_microns(0.0, 0.0, 100.0, 80.0);
            let g = GcellGrid::with_dims(die, nx, ny);
            let total: i64 = g.iter().map(|c| g.cell_rect(c).area()).sum();
            prop_assert_eq!(total, die.area());
        }

        #[test]
        fn prop_cell_containing_consistent(px in 0i64..600_000, py in 0i64..600_000) {
            let g = grid_100();
            let p = Point::new(px, py);
            let c = g.cell_containing(p).unwrap();
            prop_assert!(g.cell_rect(c).contains(p));
        }

        #[test]
        fn prop_overlapping_cells_actually_overlap(
            x in 0i64..590_000, y in 0i64..590_000, w in 1i64..50_000, h in 1i64..50_000
        ) {
            let g = grid_100();
            let r = Rect::new(x, y, x + w, y + h);
            let cells = g.cells_overlapping(&r);
            prop_assert!(!cells.is_empty());
            for c in cells {
                prop_assert!(g.cell_rect(c).overlaps(&r));
            }
        }
    }
}
