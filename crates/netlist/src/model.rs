//! The logical design model: cells, macros, pins, nets and non-default rules.
//!
//! Arena-based storage with typed ids keeps the model compact (the paper's
//! largest design, `mult_1`/`mult_2`, has ~155k cells) and serializable.

use drcshap_geom::codec::{CodecError, Decode, Encode, Reader};
use drcshap_geom::{codec_enum, codec_struct, Point, Rect};
use serde::{Deserialize, Serialize};

use crate::ids::{CellId, MacroId, NdrId, NetId, PinId};

/// A standard cell: outline dimensions and its pins. Multi-height cells
/// (double row height) are flagged because prior works treat them as a
/// routability risk factor (paper §II-A, "special pins and cells").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cell {
    /// Cell width in DBU.
    pub width: i64,
    /// Cell height in DBU (one or two row heights).
    pub height: i64,
    /// Whether the cell spans two placement rows.
    pub multi_height: bool,
    /// Pins owned by this cell.
    pub pins: Vec<PinId>,
}

impl Cell {
    /// The cell outline placed with its origin (lower-left) at `origin`.
    pub fn outline_at(&self, origin: Point) -> Rect {
        Rect::new(origin.x, origin.y, origin.x + self.width, origin.y + self.height)
    }
}

/// A macro block, fixed at generation time (the ISPD-2015 suite fixes macros;
/// macro count per design is a Table I column). Macros block placement under
/// their outline and block routing on lower metal layers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Macro {
    /// Placed outline.
    pub rect: Rect,
    /// Boundary pins of the macro.
    pub pins: Vec<PinId>,
}

/// Who owns a pin: a standard cell (offset relative to the cell origin) or a
/// macro (absolute position on the macro boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PinOwner {
    /// Pin on a standard cell, at `offset` from the cell origin.
    Cell {
        /// Owning cell.
        cell: CellId,
        /// Offset of the pin from the cell's lower-left corner, in DBU.
        offset: Point,
    },
    /// Pin on a macro, at an absolute layout position.
    Macro {
        /// Owning macro.
        id: MacroId,
        /// Absolute pin location in DBU.
        position: Point,
    },
}

/// A pin: an electrical connection point belonging to a cell or macro and to
/// exactly one net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pin {
    /// Physical owner of the pin.
    pub owner: PinOwner,
    /// The net this pin belongs to.
    pub net: NetId,
}

/// Net kind. Clock pins are one of the paper's "special pin" features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetKind {
    /// Ordinary signal net.
    Signal,
    /// Clock(-tree) net; its pins count toward the `#clock pins` feature.
    Clock,
}

/// A non-default routing rule: wider wires and larger spacing, as defined in
/// the ISPD-2015 benchmarks. Pins of NDR nets count toward the `#NDR pins`
/// feature and consume extra routing capacity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ndr {
    /// Wire width multiplier (≥ 1.0).
    pub width_mult: f64,
    /// Wire spacing multiplier (≥ 1.0).
    pub spacing_mult: f64,
}

impl Ndr {
    /// Extra routing-track demand of an NDR wire relative to a default wire.
    ///
    /// A wire with width `w·width_mult` and spacing `s·spacing_mult` occupies
    /// roughly `(width_mult + spacing_mult) / 2` default tracks.
    pub fn track_demand(&self) -> f64 {
        (self.width_mult + self.spacing_mult) / 2.0
    }
}

/// A net: a set of electrically connected pins.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Net {
    /// Pins of the net (≥ 2 after synthesis).
    pub pins: Vec<PinId>,
    /// Signal or clock.
    pub kind: NetKind,
    /// Optional non-default rule.
    pub ndr: Option<NdrId>,
}

/// The logical netlist: arenas of cells, macros, pins, nets and NDR classes.
///
/// # Example
///
/// ```
/// use drcshap_netlist::{Netlist, Ndr};
///
/// let mut nl = Netlist::new();
/// let ndr = nl.add_ndr(Ndr { width_mult: 2.0, spacing_mult: 2.0 });
/// assert_eq!(nl.ndr(ndr).track_demand(), 2.0);
/// assert_eq!(nl.num_cells(), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Netlist {
    cells: Vec<Cell>,
    macros: Vec<Macro>,
    pins: Vec<Pin>,
    nets: Vec<Net>,
    ndrs: Vec<Ndr>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a cell, returning its id.
    pub fn add_cell(&mut self, cell: Cell) -> CellId {
        self.cells.push(cell);
        CellId::from_index(self.cells.len() - 1)
    }

    /// Adds a macro, returning its id.
    pub fn add_macro(&mut self, m: Macro) -> MacroId {
        self.macros.push(m);
        MacroId::from_index(self.macros.len() - 1)
    }

    /// Adds a pin, registering it with its owner, returning its id.
    pub fn add_pin(&mut self, pin: Pin) -> PinId {
        self.pins.push(pin);
        let id = PinId::from_index(self.pins.len() - 1);
        match pin.owner {
            PinOwner::Cell { cell, .. } => self.cells[cell.index()].pins.push(id),
            PinOwner::Macro { id: m, .. } => self.macros[m.index()].pins.push(id),
        }
        id
    }

    /// Adds a net, returning its id. The net's pins must already exist and
    /// will have their `net` field rewritten to the new id.
    pub fn add_net(&mut self, net: Net) -> NetId {
        self.nets.push(net);
        let id = NetId::from_index(self.nets.len() - 1);
        let pin_ids = self.nets[id.index()].pins.clone();
        for p in pin_ids {
            self.pins[p.index()].net = id;
        }
        id
    }

    /// Adds a non-default rule class, returning its id.
    pub fn add_ndr(&mut self, ndr: Ndr) -> NdrId {
        self.ndrs.push(ndr);
        NdrId::from_index(self.ndrs.len() - 1)
    }

    /// Cell lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale (not from this netlist).
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Macro lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale.
    pub fn macro_block(&self, id: MacroId) -> &Macro {
        &self.macros[id.index()]
    }

    /// Pin lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale.
    pub fn pin(&self, id: PinId) -> &Pin {
        &self.pins[id.index()]
    }

    /// Net lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// NDR lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale.
    pub fn ndr(&self, id: NdrId) -> &Ndr {
        &self.ndrs[id.index()]
    }

    /// Number of standard cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of macros.
    pub fn num_macros(&self) -> usize {
        self.macros.len()
    }

    /// Number of pins.
    pub fn num_pins(&self) -> usize {
        self.pins.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Iterates `(id, cell)` pairs.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells.iter().enumerate().map(|(i, c)| (CellId::from_index(i), c))
    }

    /// Iterates `(id, macro)` pairs.
    pub fn macros(&self) -> impl Iterator<Item = (MacroId, &Macro)> {
        self.macros.iter().enumerate().map(|(i, m)| (MacroId::from_index(i), m))
    }

    /// Iterates `(id, pin)` pairs.
    pub fn pins(&self) -> impl Iterator<Item = (PinId, &Pin)> {
        self.pins.iter().enumerate().map(|(i, p)| (PinId::from_index(i), p))
    }

    /// Iterates `(id, net)` pairs.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets.iter().enumerate().map(|(i, n)| (NetId::from_index(i), n))
    }
}

codec_struct!(Cell { width: i64, height: i64, multi_height: bool, pins: Vec<PinId> });
codec_struct!(Macro { rect: Rect, pins: Vec<PinId> });
codec_struct!(Pin { owner: PinOwner, net: NetId });
codec_struct!(Ndr { width_mult: f64, spacing_mult: f64 });
codec_struct!(Net { pins: Vec<PinId>, kind: NetKind, ndr: Option<NdrId> });
codec_struct!(Netlist {
    cells: Vec<Cell>,
    macros: Vec<Macro>,
    pins: Vec<Pin>,
    nets: Vec<Net>,
    ndrs: Vec<Ndr>,
});

impl Encode for PinOwner {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            PinOwner::Cell { cell, offset } => {
                out.push(0);
                cell.encode(out);
                offset.encode(out);
            }
            PinOwner::Macro { id, position } => {
                out.push(1);
                id.encode(out);
                position.encode(out);
            }
        }
    }
}

impl Decode for PinOwner {
    const MIN_ENCODED_LEN: usize = 21;

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.tag()? {
            0 => Ok(PinOwner::Cell { cell: CellId::decode(r)?, offset: Point::decode(r)? }),
            1 => Ok(PinOwner::Macro { id: MacroId::decode(r)?, position: Point::decode(r)? }),
            tag => Err(CodecError::BadTag { what: "PinOwner", tag }),
        }
    }
}

codec_enum!(NetKind { Signal = 0, Clock = 1 });

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_netlist() -> (Netlist, CellId, CellId) {
        let mut nl = Netlist::new();
        let a = nl.add_cell(Cell { width: 400, height: 1800, multi_height: false, pins: vec![] });
        let b = nl.add_cell(Cell { width: 800, height: 3600, multi_height: true, pins: vec![] });
        let placeholder = NetId::from_index(0);
        let p1 = nl.add_pin(Pin {
            owner: PinOwner::Cell { cell: a, offset: Point::new(100, 900) },
            net: placeholder,
        });
        let p2 = nl.add_pin(Pin {
            owner: PinOwner::Cell { cell: b, offset: Point::new(400, 1800) },
            net: placeholder,
        });
        nl.add_net(Net { pins: vec![p1, p2], kind: NetKind::Signal, ndr: None });
        (nl, a, b)
    }

    #[test]
    fn add_pin_registers_with_owner() {
        let (nl, a, b) = tiny_netlist();
        assert_eq!(nl.cell(a).pins.len(), 1);
        assert_eq!(nl.cell(b).pins.len(), 1);
        assert_eq!(nl.num_pins(), 2);
    }

    #[test]
    fn add_net_rewrites_pin_net_ids() {
        let (nl, _, _) = tiny_netlist();
        let net = NetId::from_index(0);
        for (_, p) in nl.pins() {
            assert_eq!(p.net, net);
        }
        assert_eq!(nl.net(net).pins.len(), 2);
    }

    #[test]
    fn cell_outline_is_translated() {
        let (nl, a, _) = tiny_netlist();
        let r = nl.cell(a).outline_at(Point::new(1000, 2000));
        assert_eq!(r, Rect::new(1000, 2000, 1400, 3800));
    }

    #[test]
    fn ndr_track_demand() {
        let ndr = Ndr { width_mult: 2.0, spacing_mult: 3.0 };
        assert_eq!(ndr.track_demand(), 2.5);
        let default = Ndr { width_mult: 1.0, spacing_mult: 1.0 };
        assert_eq!(default.track_demand(), 1.0);
    }

    #[test]
    fn iterators_agree_with_counts() {
        let (nl, _, _) = tiny_netlist();
        assert_eq!(nl.cells().count(), nl.num_cells());
        assert_eq!(nl.pins().count(), nl.num_pins());
        assert_eq!(nl.nets().count(), nl.num_nets());
        assert_eq!(nl.macros().count(), 0);
    }
}
