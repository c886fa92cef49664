//! A placed design: the netlist plus placement, die, g-cell grid and routing
//! blockages — everything the global router and feature extractor consume.

use drcshap_geom::{codec_struct, GcellGrid, Point, Rect};
use serde::{Deserialize, Serialize};

use crate::ids::{CellId, PinId};
use crate::model::{Netlist, PinOwner};
use crate::suite::DesignSpec;

/// Cell placement: one optional origin (lower-left corner) per cell.
///
/// # Example
///
/// ```
/// use drcshap_netlist::{Placement, CellId};
/// use drcshap_geom::Point;
///
/// let mut p = Placement::new(2);
/// p.place(CellId::from_index(0), Point::new(100, 200));
/// assert_eq!(p.position(CellId::from_index(0)), Some(Point::new(100, 200)));
/// assert_eq!(p.position(CellId::from_index(1)), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    positions: Vec<Option<Point>>,
}

impl Placement {
    /// Creates an all-unplaced placement for `num_cells` cells.
    pub fn new(num_cells: usize) -> Self {
        Self { positions: vec![None; num_cells] }
    }

    /// Records the origin of `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn place(&mut self, cell: CellId, origin: Point) {
        self.positions[cell.index()] = Some(origin);
    }

    /// The placed origin of `cell`, `None` if unplaced.
    pub fn position(&self, cell: CellId) -> Option<Point> {
        self.positions.get(cell.index()).copied().flatten()
    }

    /// Number of cells this placement covers.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the placement covers zero cells.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Number of cells that have been placed.
    pub fn num_placed(&self) -> usize {
        self.positions.iter().filter(|p| p.is_some()).count()
    }

    /// Grows the placement to cover `num_cells` cells (new cells unplaced).
    pub fn resize(&mut self, num_cells: usize) {
        self.positions.resize(num_cells, None);
    }
}

/// A design being pushed through the paper's Fig. 1 pipeline: die, g-cell
/// grid, logical netlist, placement and routing blockages.
///
/// Construction order mirrors the flow: [`Design::new`] from a
/// [`DesignSpec`], then `drcshap_netlist::synth::generate_cells`, then
/// placement (`drcshap-place`), then `synth::generate_nets`, then global
/// routing and labelling in the downstream crates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Design {
    /// The suite spec this design was generated from.
    pub spec: DesignSpec,
    /// Die outline.
    pub die: Rect,
    /// Global-routing grid over the die.
    pub grid: GcellGrid,
    /// Logical netlist (cells, macros, pins, nets, NDRs).
    pub netlist: Netlist,
    /// Cell placement.
    pub placement: Placement,
    /// Explicit routing blockages (in addition to macro outlines).
    pub routing_blockages: Vec<Rect>,
}

impl Design {
    /// Creates an empty design with the die and grid implied by `spec`.
    pub fn new(spec: DesignSpec) -> Self {
        let die = spec.die();
        let (nx, ny) = spec.grid_dims();
        let grid = GcellGrid::with_dims(die, nx, ny);
        Self {
            spec,
            die,
            grid,
            netlist: Netlist::new(),
            placement: Placement::new(0),
            routing_blockages: Vec::new(),
        }
    }

    /// Absolute position of a pin, `None` while its owning cell is unplaced.
    pub fn pin_position(&self, pin: PinId) -> Option<Point> {
        match self.netlist.pin(pin).owner {
            PinOwner::Cell { cell, offset } => {
                self.placement.position(cell).map(|origin| origin.offset(offset.x, offset.y))
            }
            PinOwner::Macro { position, .. } => Some(position),
        }
    }

    /// Outline of a placed cell, `None` while unplaced.
    pub fn cell_outline(&self, cell: CellId) -> Option<Rect> {
        self.placement.position(cell).map(|origin| self.netlist.cell(cell).outline_at(origin))
    }

    /// All blockage rectangles: macro outlines plus explicit routing blockages.
    pub fn blockages(&self) -> impl Iterator<Item = Rect> + '_ {
        self.netlist.macros().map(|(_, m)| m.rect).chain(self.routing_blockages.iter().copied())
    }

    /// The fraction of `region` covered by blockages (clipped to the region).
    ///
    /// Blockages in these synthetic designs do not overlap each other, so the
    /// covered areas add up.
    pub fn blockage_fraction(&self, region: &Rect) -> f64 {
        if region.area() == 0 {
            return 0.0;
        }
        let covered: i64 = self.blockages().map(|b| b.overlap_area(region)).sum();
        (covered as f64 / region.area() as f64).min(1.0)
    }
}

codec_struct!(Placement { positions: Vec<Option<Point>> });
codec_struct!(Design {
    spec: DesignSpec,
    die: Rect,
    grid: GcellGrid,
    netlist: Netlist,
    placement: Placement,
    routing_blockages: Vec<Rect>,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cell, Macro};
    use crate::suite;

    #[test]
    fn new_design_matches_spec_geometry() {
        let spec = suite::spec("fft_2").unwrap();
        let d = Design::new(spec.clone());
        assert_eq!(d.die, spec.die());
        assert_eq!(d.grid.num_cells(), 57 * 57);
        assert_eq!(d.netlist.num_cells(), 0);
    }

    #[test]
    fn placement_tracks_placed_count() {
        let mut p = Placement::new(3);
        assert_eq!(p.num_placed(), 0);
        p.place(CellId::from_index(1), Point::new(5, 5));
        assert_eq!(p.num_placed(), 1);
        assert_eq!(p.len(), 3);
        p.resize(5);
        assert_eq!(p.len(), 5);
        assert_eq!(p.position(CellId::from_index(1)), Some(Point::new(5, 5)));
    }

    #[test]
    fn pin_position_follows_cell_placement() {
        let spec = suite::spec("fft_1").unwrap();
        let mut d = Design::new(spec);
        let c = d.netlist.add_cell(Cell {
            width: 400,
            height: 1800,
            multi_height: false,
            pins: vec![],
        });
        let pin = d.netlist.add_pin(crate::Pin {
            owner: PinOwner::Cell { cell: c, offset: Point::new(100, 900) },
            net: crate::NetId::from_index(0),
        });
        d.placement.resize(1);
        assert_eq!(d.pin_position(pin), None);
        d.placement.place(c, Point::new(10_000, 20_000));
        assert_eq!(d.pin_position(pin), Some(Point::new(10_100, 20_900)));
    }

    #[test]
    fn blockage_fraction_counts_macros_and_blockages() {
        let spec = suite::spec("fft_1").unwrap();
        let mut d = Design::new(spec);
        d.netlist.add_macro(Macro { rect: Rect::new(0, 0, 50, 100), pins: vec![] });
        d.routing_blockages.push(Rect::new(50, 0, 100, 100));
        let region = Rect::new(0, 0, 100, 100);
        assert!((d.blockage_fraction(&region) - 1.0).abs() < 1e-12);
        let half = Rect::new(0, 0, 50, 100);
        assert!((d.blockage_fraction(&half) - 1.0).abs() < 1e-12);
        let outside = Rect::new(200, 200, 300, 300);
        assert_eq!(d.blockage_fraction(&outside), 0.0);
    }
}
