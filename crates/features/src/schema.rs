//! The canonical 387-feature schema: structured descriptors and the paper's
//! naming convention.

use drcshap_geom::codec::{CodecError, Decode, Encode, Reader};
use drcshap_geom::codec_enum;
use drcshap_geom::{window_edges, Neighbor, WindowEdge, NEIGHBOR_ORDER};
use drcshap_route::{MetalLayer, ViaLayer, ALL_METALS, ALL_VIAS};
use serde::{Deserialize, Serialize};

/// The placement-stage quantity of a placement feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlacementQuantity {
    /// Normalized center x-coordinate.
    CenterX,
    /// Normalized center y-coordinate.
    CenterY,
    /// Number of standard cells fully inside the g-cell.
    CellCount,
    /// Number of pins inside the g-cell.
    PinCount,
    /// Number of clock pins inside the g-cell.
    ClockPinCount,
    /// Number of local nets (all pins inside this g-cell).
    LocalNetCount,
    /// Number of pins that belong to any local net.
    LocalPinCount,
    /// Number of pins with non-default rules.
    NdrPinCount,
    /// Mean pairwise Manhattan distance of pins, in microns.
    PinSpacing,
    /// Fraction of area occupied by blockages.
    BlockageArea,
    /// Fraction of area occupied by standard cells.
    CellArea,
}

/// All placement quantities, in canonical order.
pub const PLACEMENT_QUANTITIES: [PlacementQuantity; 11] = [
    PlacementQuantity::CenterX,
    PlacementQuantity::CenterY,
    PlacementQuantity::CellCount,
    PlacementQuantity::PinCount,
    PlacementQuantity::ClockPinCount,
    PlacementQuantity::LocalNetCount,
    PlacementQuantity::LocalPinCount,
    PlacementQuantity::NdrPinCount,
    PlacementQuantity::PinSpacing,
    PlacementQuantity::BlockageArea,
    PlacementQuantity::CellArea,
];

impl PlacementQuantity {
    /// The name prefix used in feature names.
    pub const fn prefix(self) -> &'static str {
        match self {
            PlacementQuantity::CenterX => "x",
            PlacementQuantity::CenterY => "y",
            PlacementQuantity::CellCount => "ncell",
            PlacementQuantity::PinCount => "npin",
            PlacementQuantity::ClockPinCount => "nclk",
            PlacementQuantity::LocalNetCount => "nlocnet",
            PlacementQuantity::LocalPinCount => "nlocpin",
            PlacementQuantity::NdrPinCount => "nndr",
            PlacementQuantity::PinSpacing => "pinsp",
            PlacementQuantity::BlockageArea => "blk",
            PlacementQuantity::CellArea => "cellden",
        }
    }
}

/// Which of the three congestion numbers a congestion feature reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CongestionQuantity {
    /// Capacity `C` (prefix `c`).
    Capacity,
    /// Load `L` (prefix `l`).
    Load,
    /// Margin `C − L` (prefix `d`, for *difference*, as in `edM4_6V`).
    Margin,
}

/// All congestion quantities, in canonical order.
pub const CONGESTION_QUANTITIES: [CongestionQuantity; 3] =
    [CongestionQuantity::Capacity, CongestionQuantity::Load, CongestionQuantity::Margin];

impl CongestionQuantity {
    /// The single-letter code used in feature names.
    pub const fn code(self) -> char {
        match self {
            CongestionQuantity::Capacity => 'c',
            CongestionQuantity::Load => 'l',
            CongestionQuantity::Margin => 'd',
        }
    }
}

/// A structured descriptor of one of the 387 features.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FeatureDesc {
    /// A placement feature of one window cell.
    Placement {
        /// The quantity measured.
        quantity: PlacementQuantity,
        /// Window position.
        position: Neighbor,
    },
    /// An edge-congestion feature: one metal layer on one window edge.
    Edge {
        /// Capacity, load or margin.
        quantity: CongestionQuantity,
        /// Metal layer.
        layer: MetalLayer,
        /// The window edge.
        edge: WindowEdge,
    },
    /// A via-congestion feature: one via layer in one window cell.
    Via {
        /// Capacity, load or margin.
        quantity: CongestionQuantity,
        /// Via layer.
        layer: ViaLayer,
        /// Window position.
        position: Neighbor,
    },
}

impl FeatureDesc {
    /// The feature name, in the paper's convention.
    pub fn name(&self) -> String {
        match self {
            FeatureDesc::Placement { quantity, position } => {
                format!("{}_{}", quantity.prefix(), position.code())
            }
            FeatureDesc::Edge { quantity, layer, edge } => {
                format!("e{}{}_{}", quantity.code(), layer.name(), edge.code())
            }
            FeatureDesc::Via { quantity, layer, position } => {
                format!("v{}{}_{}", quantity.code(), layer.name(), position.code())
            }
        }
    }

    /// A one-line human description (used by explanation rendering).
    pub fn describe(&self) -> String {
        match self {
            FeatureDesc::Placement { quantity, position } => {
                let what = match quantity {
                    PlacementQuantity::CenterX => "normalized x-coordinate",
                    PlacementQuantity::CenterY => "normalized y-coordinate",
                    PlacementQuantity::CellCount => "number of standard cells",
                    PlacementQuantity::PinCount => "number of pins",
                    PlacementQuantity::ClockPinCount => "number of clock pins",
                    PlacementQuantity::LocalNetCount => "number of local nets",
                    PlacementQuantity::LocalPinCount => "number of pins in local nets",
                    PlacementQuantity::NdrPinCount => "number of NDR pins",
                    PlacementQuantity::PinSpacing => "mean pin spacing (um)",
                    PlacementQuantity::BlockageArea => "blockage area fraction",
                    PlacementQuantity::CellArea => "std-cell area fraction",
                };
                format!("{what} in the {} cell", position_phrase(*position))
            }
            FeatureDesc::Edge { quantity, layer, edge } => {
                format!(
                    "GR edge {} of layer {} on window edge {}",
                    quantity_phrase(*quantity),
                    layer,
                    edge.code()
                )
            }
            FeatureDesc::Via { quantity, layer, position } => {
                format!(
                    "via {} of layer {} in the {} cell",
                    quantity_phrase(*quantity),
                    layer,
                    position_phrase(*position)
                )
            }
        }
    }
}

fn position_phrase(n: Neighbor) -> &'static str {
    match n {
        Neighbor::Center => "central",
        Neighbor::N => "north",
        Neighbor::S => "south",
        Neighbor::E => "east",
        Neighbor::W => "west",
        Neighbor::Ne => "north-east",
        Neighbor::Nw => "north-west",
        Neighbor::Se => "south-east",
        Neighbor::Sw => "south-west",
    }
}

fn quantity_phrase(q: CongestionQuantity) -> &'static str {
    match q {
        CongestionQuantity::Capacity => "capacity",
        CongestionQuantity::Load => "load",
        CongestionQuantity::Margin => "margin (capacity - load)",
    }
}

/// The full ordered feature schema.
///
/// # Example
///
/// ```
/// use drcshap_features::FeatureSchema;
///
/// let schema = FeatureSchema::paper_387();
/// assert_eq!(schema.len(), 387);
/// assert_eq!(schema.name(0), "x_NW");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureSchema {
    descs: Vec<FeatureDesc>,
    names: Vec<String>,
}

impl FeatureSchema {
    /// Builds the canonical 387-feature schema of the paper.
    pub fn paper_387() -> Self {
        let mut descs = Vec::with_capacity(387);
        // 1. Placement features: 9 cells x 11 quantities.
        for position in NEIGHBOR_ORDER {
            for quantity in PLACEMENT_QUANTITIES {
                descs.push(FeatureDesc::Placement { quantity, position });
            }
        }
        // 2. Edge congestion: 12 edges x 5 metals x 3 quantities.
        for edge in window_edges() {
            for layer in ALL_METALS {
                for quantity in CONGESTION_QUANTITIES {
                    descs.push(FeatureDesc::Edge { quantity, layer, edge });
                }
            }
        }
        // 3. Via congestion: 9 cells x 4 via layers x 3 quantities.
        for position in NEIGHBOR_ORDER {
            for layer in ALL_VIAS {
                for quantity in CONGESTION_QUANTITIES {
                    descs.push(FeatureDesc::Via { quantity, layer, position });
                }
            }
        }
        let names = descs.iter().map(FeatureDesc::name).collect();
        Self { descs, names }
    }

    /// Number of features (387 for the paper schema).
    pub fn len(&self) -> usize {
        self.descs.len()
    }

    /// Whether the schema is empty (never, for the paper schema).
    pub fn is_empty(&self) -> bool {
        self.descs.is_empty()
    }

    /// The descriptor of feature `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn desc(&self, index: usize) -> &FeatureDesc {
        &self.descs[index]
    }

    /// The name of feature `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn name(&self, index: usize) -> &str {
        &self.names[index]
    }

    /// All names, in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The index of the feature named `name`, if any.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Iterates `(index, descriptor)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &FeatureDesc)> {
        self.descs.iter().enumerate()
    }

    /// A stable 64-bit fingerprint of the schema: FNV-1a over the ordered
    /// feature names. Model artifacts embed it so a model trained against
    /// one schema is rejected when served with another (renamed, reordered,
    /// added or removed features all change the fingerprint).
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for name in &self.names {
            for &b in name.as_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
            // Separator so ["ab","c"] and ["a","bc"] differ.
            h = (h ^ 0xff).wrapping_mul(FNV_PRIME);
        }
        h
    }
}

codec_enum!(PlacementQuantity {
    CenterX = 0,
    CenterY = 1,
    CellCount = 2,
    PinCount = 3,
    ClockPinCount = 4,
    LocalNetCount = 5,
    LocalPinCount = 6,
    NdrPinCount = 7,
    PinSpacing = 8,
    BlockageArea = 9,
    CellArea = 10,
});
codec_enum!(CongestionQuantity { Capacity = 0, Load = 1, Margin = 2 });

impl Encode for FeatureDesc {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            FeatureDesc::Placement { quantity, position } => {
                out.push(0);
                quantity.encode(out);
                position.encode(out);
            }
            FeatureDesc::Edge { quantity, layer, edge } => {
                out.push(1);
                quantity.encode(out);
                layer.encode(out);
                edge.encode(out);
            }
            FeatureDesc::Via { quantity, layer, position } => {
                out.push(2);
                quantity.encode(out);
                layer.encode(out);
                position.encode(out);
            }
        }
    }
}

impl Decode for FeatureDesc {
    const MIN_ENCODED_LEN: usize = 3;

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.tag()? {
            0 => Ok(FeatureDesc::Placement {
                quantity: PlacementQuantity::decode(r)?,
                position: Neighbor::decode(r)?,
            }),
            1 => Ok(FeatureDesc::Edge {
                quantity: CongestionQuantity::decode(r)?,
                layer: MetalLayer::decode(r)?,
                edge: WindowEdge::decode(r)?,
            }),
            2 => Ok(FeatureDesc::Via {
                quantity: CongestionQuantity::decode(r)?,
                layer: ViaLayer::decode(r)?,
                position: Neighbor::decode(r)?,
            }),
            tag => Err(CodecError::BadTag { what: "FeatureDesc", tag }),
        }
    }
}

impl Encode for FeatureSchema {
    fn encode(&self, out: &mut Vec<u8>) {
        self.descs.encode(out);
        self.names.encode(out);
    }
}

impl Decode for FeatureSchema {
    /// Decodes a schema; every descriptor must have exactly one name.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let schema = Self { descs: Vec::decode(r)?, names: Vec::decode(r)? };
        if schema.descs.len() != schema.names.len() {
            return Err(CodecError::Invalid(format!(
                "{} feature descriptors but {} names",
                schema.descs.len(),
                schema.names.len()
            )));
        }
        Ok(schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_has_exactly_387_features() {
        let s = FeatureSchema::paper_387();
        assert_eq!(s.len(), 387);
        // Group sizes per the paper's Section II-A.
        let placement =
            s.iter().filter(|(_, d)| matches!(d, FeatureDesc::Placement { .. })).count();
        let edge = s.iter().filter(|(_, d)| matches!(d, FeatureDesc::Edge { .. })).count();
        let via = s.iter().filter(|(_, d)| matches!(d, FeatureDesc::Via { .. })).count();
        assert_eq!(placement, 99);
        assert_eq!(edge, 180);
        assert_eq!(via, 108);
    }

    #[test]
    fn fingerprint_is_stable_and_order_sensitive() {
        let a = FeatureSchema::paper_387();
        let b = FeatureSchema::paper_387();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Any structural change (here: a renamed feature) changes it.
        let mut c = FeatureSchema::paper_387();
        c.names[0] = "x_NW_renamed".to_owned();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn names_are_unique() {
        let s = FeatureSchema::paper_387();
        let set: std::collections::HashSet<_> = s.names().iter().collect();
        assert_eq!(set.len(), 387);
    }

    #[test]
    fn paper_example_names_resolve() {
        let s = FeatureSchema::paper_387();
        // Names quoted in the paper's Fig. 4 discussion (modulo our
        // documented edge-numbering scheme).
        for name in ["edM4_6V", "edM5_1V", "vlV2_E", "vlV2_N", "vlV2_o", "vlV3_NE", "edM3_4H"] {
            assert!(s.index_of(name).is_some(), "{name} missing");
        }
        assert!(s.index_of("edM6_1V").is_none());
    }

    #[test]
    fn index_of_round_trips() {
        let s = FeatureSchema::paper_387();
        for i in [0usize, 42, 98, 99, 278, 279, 386] {
            assert_eq!(s.index_of(s.name(i)), Some(i));
        }
    }

    #[test]
    fn descriptions_are_informative() {
        let s = FeatureSchema::paper_387();
        let i = s.index_of("vlV2_E").unwrap();
        let d = s.desc(i).describe();
        assert!(d.contains("via load"));
        assert!(d.contains("V2"));
        assert!(d.contains("east"));
    }

    #[test]
    fn placement_block_comes_first() {
        let s = FeatureSchema::paper_387();
        assert_eq!(s.name(0), "x_NW");
        assert_eq!(s.name(10), "cellden_NW");
        // Central cell is the 5th in NEIGHBOR_ORDER.
        assert_eq!(s.name(44), "x_o");
        assert_eq!(s.name(99), "ecM1_1V");
        assert_eq!(s.name(279), "vcV1_NW");
    }
}
