#![warn(missing_docs)]
//! Geometry substrate for the `drcshap` workspace.
//!
//! Layout geometry in this workspace follows the conventions of the ISPD-2015
//! benchmark suite that the reproduced paper uses: coordinates are in
//! **database units** (DBU, 1 DBU = 1 nm at 65 nm; layouts are given in µm and
//! converted by [`DBU_PER_MICRON`]), the origin is the lower-left corner of the
//! die, and the die is tessellated into a uniform grid of global-routing cells
//! ([`GcellGrid`]).
//!
//! # Example
//!
//! ```
//! use drcshap_geom::{GcellGrid, Point, Rect};
//!
//! // A 600 µm × 600 µm die with 6 µm g-cells is a 100 × 100 grid.
//! let grid = GcellGrid::with_gcell_size(Rect::from_microns(0.0, 0.0, 600.0, 600.0), 6_000);
//! assert_eq!(grid.dims(), (100, 100));
//! let cell = grid.cell_containing(Point::from_microns(3.0, 597.0)).unwrap();
//! assert_eq!((cell.x, cell.y), (0, 99));
//! ```

pub mod budget;
pub mod codec;
mod grid;
mod point;
mod rect;
mod window;

pub use budget::{BudgetState, CancelToken, Interrupted, Pacer, StageBudget};
pub use grid::{GcellGrid, GcellId};
pub use point::Point;
pub use rect::Rect;
pub use window::{window_edges, Neighbor, Window3x3, WindowEdge, EDGE_COUNT, NEIGHBOR_ORDER};

/// Database units per micron (65 nm node convention: 1 DBU = 1 nm).
pub const DBU_PER_MICRON: i64 = 1_000;
