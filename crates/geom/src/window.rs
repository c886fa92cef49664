//! The 3×3 g-cell window of the paper's Section II-A (Fig. 2): every data
//! sample is a central g-cell expanded to its eight neighbours, with
//! off-layout neighbours padded blank, plus the 12 congestion border edges
//! between adjacent cells inside the window.

use serde::{Deserialize, Serialize};

use crate::codec::{CodecError, Decode, Encode, Reader};
use crate::{GcellGrid, GcellId};

/// Position of a g-cell within a 3×3 window, using the compass codes of the
/// paper's feature-naming convention (Fig. 3(d)): `o` is the central g-cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Neighbor {
    /// North-west neighbour.
    Nw,
    /// North neighbour.
    N,
    /// North-east neighbour.
    Ne,
    /// West neighbour.
    W,
    /// The central g-cell (`o` in the paper's naming).
    Center,
    /// East neighbour.
    E,
    /// South-west neighbour.
    Sw,
    /// South neighbour.
    S,
    /// South-east neighbour.
    Se,
}

/// The canonical feature-ordering of window positions: raster order from the
/// top-left of the window, as the cells read in Fig. 2.
pub const NEIGHBOR_ORDER: [Neighbor; 9] = [
    Neighbor::Nw,
    Neighbor::N,
    Neighbor::Ne,
    Neighbor::W,
    Neighbor::Center,
    Neighbor::E,
    Neighbor::Sw,
    Neighbor::S,
    Neighbor::Se,
];

impl Neighbor {
    /// Grid-step offset `(dx, dy)` from the central cell (y grows north).
    pub const fn offset(self) -> (i32, i32) {
        match self {
            Neighbor::Nw => (-1, 1),
            Neighbor::N => (0, 1),
            Neighbor::Ne => (1, 1),
            Neighbor::W => (-1, 0),
            Neighbor::Center => (0, 0),
            Neighbor::E => (1, 0),
            Neighbor::Sw => (-1, -1),
            Neighbor::S => (0, -1),
            Neighbor::Se => (1, -1),
        }
    }

    /// The compass code used in feature names (`"o"`, `"N"`, `"NE"`, ...).
    pub const fn code(self) -> &'static str {
        match self {
            Neighbor::Nw => "NW",
            Neighbor::N => "N",
            Neighbor::Ne => "NE",
            Neighbor::W => "W",
            Neighbor::Center => "o",
            Neighbor::E => "E",
            Neighbor::Sw => "SW",
            Neighbor::S => "S",
            Neighbor::Se => "SE",
        }
    }

    /// Window coordinates `(wx, wy)` with `(0, 0)` at the south-west corner.
    pub const fn window_coords(self) -> (u8, u8) {
        let (dx, dy) = self.offset();
        ((dx + 1) as u8, (dy + 1) as u8)
    }
}

impl std::fmt::Display for Neighbor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// One of the 12 congestion border edges inside a 3×3 window: the border
/// between two adjacent window cells. `V` edges are vertical borders (crossed
/// by horizontal wires), `H` edges are horizontal borders (crossed by
/// vertical wires).
///
/// Edges are numbered 1–12 in raster order from the window's top-left, the
/// same scheme as the paper's Fig. 3(d) labels (`4V`, `7H`, ...): the two
/// vertical borders of the top row, then the three horizontal borders below
/// it, and so on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WindowEdge {
    /// Label number, 1–12.
    pub label: u8,
    /// `true` for a vertical border (`V` suffix), `false` for horizontal (`H`).
    pub vertical: bool,
    /// Window coordinates of the first adjacent cell (south or west side).
    pub a: (u8, u8),
    /// Window coordinates of the second adjacent cell (north or east side).
    pub b: (u8, u8),
}

impl WindowEdge {
    /// The paper-style label, e.g. `"4V"` or `"7H"`.
    pub fn code(&self) -> String {
        format!("{}{}", self.label, if self.vertical { "V" } else { "H" })
    }
}

impl std::fmt::Display for WindowEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// Number of congestion border edges in a 3×3 window.
pub const EDGE_COUNT: usize = 12;

/// The 12 window edges in canonical (label) order.
///
/// Layout (window rows top to bottom; `wy = 2` is the north row):
///
/// ```text
///   +----1V----+----2V----+      (vertical borders inside the top row)
///   |   3H     |   4H     |  5H  (horizontal borders below the top row)
///   +----6V----+----7V----+
///   |   8H     |   9H     | 10H
///   +---11V----+---12V----+      (vertical borders inside the bottom row)
/// ```
pub fn window_edges() -> [WindowEdge; EDGE_COUNT] {
    let mut edges = Vec::with_capacity(EDGE_COUNT);
    let mut label = 1u8;
    // wy = 2 (north row) down to wy = 0 (south row).
    for wy in (0..3u8).rev() {
        // Vertical borders inside row wy: between (wx, wy) and (wx+1, wy).
        for wx in 0..2u8 {
            edges.push(WindowEdge { label, vertical: true, a: (wx, wy), b: (wx + 1, wy) });
            label += 1;
        }
        // Horizontal borders between row wy and row wy-1.
        if wy > 0 {
            for wx in 0..3u8 {
                edges.push(WindowEdge { label, vertical: false, a: (wx, wy - 1), b: (wx, wy) });
                label += 1;
            }
        }
    }
    edges.try_into().expect("exactly 12 window edges")
}

/// A resolved 3×3 window around a central g-cell: each position holds the
/// g-cell at that offset or `None` when it falls off the layout (footnote 2
/// of the paper: boundary windows are padded with blank g-cells).
///
/// # Example
///
/// ```
/// use drcshap_geom::{GcellGrid, GcellId, Neighbor, Rect, Window3x3};
///
/// let grid = GcellGrid::with_dims(Rect::from_microns(0.0, 0.0, 30.0, 30.0), 3, 3);
/// let w = Window3x3::around(&grid, GcellId::new(0, 0));
/// assert_eq!(w.cell(Neighbor::Center), Some(GcellId::new(0, 0)));
/// assert_eq!(w.cell(Neighbor::W), None); // off-layout: padded blank
/// assert_eq!(w.cell(Neighbor::Ne), Some(GcellId::new(1, 1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Window3x3 {
    center: GcellId,
    cells: [Option<GcellId>; 9],
}

impl Window3x3 {
    /// Resolves the window around `center` on `grid`.
    ///
    /// # Panics
    ///
    /// Panics if `center` is outside `grid`.
    pub fn around(grid: &GcellGrid, center: GcellId) -> Self {
        assert!(grid.contains_cell(center), "window center {center} off-grid");
        let mut cells = [None; 9];
        for (slot, n) in cells.iter_mut().zip(NEIGHBOR_ORDER) {
            let (dx, dy) = n.offset();
            *slot = grid.neighbor(center, dx, dy);
        }
        Self { center, cells }
    }

    /// The central g-cell.
    pub fn center(&self) -> GcellId {
        self.center
    }

    /// The g-cell at window position `n`, `None` when off-layout.
    pub fn cell(&self, n: Neighbor) -> Option<GcellId> {
        let idx = NEIGHBOR_ORDER
            .iter()
            .position(|&m| m == n)
            .expect("NEIGHBOR_ORDER covers all positions");
        self.cells[idx]
    }

    /// The g-cell at window coordinates `(wx, wy)` (`(0,0)` = south-west).
    ///
    /// # Panics
    ///
    /// Panics if `wx >= 3 || wy >= 3`.
    pub fn cell_at(&self, wx: u8, wy: u8) -> Option<GcellId> {
        assert!(wx < 3 && wy < 3, "window coords ({wx},{wy}) out of range");
        let n = NEIGHBOR_ORDER
            .iter()
            .copied()
            .find(|m| m.window_coords() == (wx, wy))
            .expect("all 9 window coords covered");
        self.cell(n)
    }

    /// Iterates `(position, optional g-cell)` in canonical feature order.
    pub fn iter(&self) -> impl Iterator<Item = (Neighbor, Option<GcellId>)> + '_ {
        NEIGHBOR_ORDER.iter().copied().zip(self.cells.iter().copied())
    }
}

crate::codec_enum!(Neighbor { Nw = 0, N = 1, Ne = 2, W = 3, Center = 4, E = 5, Sw = 6, S = 7, Se = 8 });

impl Encode for WindowEdge {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&[
            self.label,
            u8::from(self.vertical),
            self.a.0,
            self.a.1,
            self.b.0,
            self.b.1,
        ]);
    }
}

impl Decode for WindowEdge {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let label = u8::decode(r)?;
        let vertical = bool::decode(r)?;
        let [ax, ay, bx, by] = r.array()?;
        Ok(WindowEdge { label, vertical, a: (ax, ay), b: (bx, by) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rect;

    fn grid() -> GcellGrid {
        GcellGrid::with_dims(Rect::from_microns(0.0, 0.0, 50.0, 50.0), 5, 5)
    }

    #[test]
    fn neighbor_codes_are_unique() {
        let codes: std::collections::HashSet<_> = NEIGHBOR_ORDER.iter().map(|n| n.code()).collect();
        assert_eq!(codes.len(), 9);
    }

    #[test]
    fn window_coords_cover_square() {
        let coords: std::collections::HashSet<_> =
            NEIGHBOR_ORDER.iter().map(|n| n.window_coords()).collect();
        assert_eq!(coords.len(), 9);
        for (wx, wy) in coords {
            assert!(wx < 3 && wy < 3);
        }
        assert_eq!(Neighbor::Center.window_coords(), (1, 1));
        assert_eq!(Neighbor::Sw.window_coords(), (0, 0));
        assert_eq!(Neighbor::Ne.window_coords(), (2, 2));
    }

    #[test]
    fn exactly_twelve_edges_with_unique_labels() {
        let edges = window_edges();
        assert_eq!(edges.len(), EDGE_COUNT);
        let labels: std::collections::HashSet<_> = edges.iter().map(|e| e.label).collect();
        assert_eq!(labels.len(), 12);
        assert!(edges.iter().all(|e| (1..=12).contains(&e.label)));
        // 6 vertical and 6 horizontal borders.
        assert_eq!(edges.iter().filter(|e| e.vertical).count(), 6);
        assert_eq!(edges.iter().filter(|e| !e.vertical).count(), 6);
    }

    #[test]
    fn edges_connect_adjacent_window_cells() {
        for e in window_edges() {
            let (ax, ay) = e.a;
            let (bx, by) = e.b;
            if e.vertical {
                assert_eq!(ay, by);
                assert_eq!(ax + 1, bx);
            } else {
                assert_eq!(ax, bx);
                assert_eq!(ay + 1, by);
            }
        }
    }

    #[test]
    fn edge_codes_match_documented_scheme() {
        let edges = window_edges();
        assert_eq!(edges[0].code(), "1V");
        assert_eq!(edges[2].code(), "3H");
        assert_eq!(edges[5].code(), "6V");
        assert_eq!(edges[11].code(), "12V");
    }

    #[test]
    fn interior_window_fully_populated() {
        let g = grid();
        let w = Window3x3::around(&g, GcellId::new(2, 2));
        assert!(w.iter().all(|(_, c)| c.is_some()));
        assert_eq!(w.cell(Neighbor::N), Some(GcellId::new(2, 3)));
        assert_eq!(w.cell(Neighbor::Sw), Some(GcellId::new(1, 1)));
    }

    #[test]
    fn corner_window_pads_blank() {
        let g = grid();
        let w = Window3x3::around(&g, GcellId::new(0, 0));
        let missing = w.iter().filter(|(_, c)| c.is_none()).count();
        assert_eq!(missing, 5); // NW, N, NE are off for y; W, SW, S... corner = 5 blanks
        assert_eq!(w.cell(Neighbor::S), None);
        assert_eq!(w.cell(Neighbor::E), Some(GcellId::new(1, 0)));
    }

    #[test]
    fn edge_window_pads_three_blank() {
        let g = grid();
        let w = Window3x3::around(&g, GcellId::new(2, 0));
        assert_eq!(w.iter().filter(|(_, c)| c.is_none()).count(), 3);
    }

    #[test]
    fn cell_at_agrees_with_neighbor_lookup() {
        let g = grid();
        let w = Window3x3::around(&g, GcellId::new(3, 3));
        assert_eq!(w.cell_at(1, 1), Some(GcellId::new(3, 3)));
        assert_eq!(w.cell_at(0, 0), w.cell(Neighbor::Sw));
        assert_eq!(w.cell_at(2, 1), w.cell(Neighbor::E));
    }
}
