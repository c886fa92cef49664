//! DRC violation records: kind, layer and bounding box — the shape of the
//! data a sign-off DRC run reports (and what the paper's Fig. 3 overlays).

use drcshap_geom::{codec_enum, codec_struct, Rect};
use drcshap_route::MetalLayer;
use serde::{Deserialize, Serialize};

/// The violation categories seen in the paper's examples (§IV-B lists
/// shorts, end-of-line spacing errors and different-net spacing errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ViolationKind {
    /// Two nets short together.
    Short,
    /// End-of-line spacing violation (typically via-crowding induced).
    EolSpacing,
    /// Different-net spacing violation.
    DiffNetSpacing,
}

impl ViolationKind {
    /// Human-readable name.
    pub const fn name(self) -> &'static str {
        match self {
            ViolationKind::Short => "short",
            ViolationKind::EolSpacing => "end-of-line space",
            ViolationKind::DiffNetSpacing => "different-net space",
        }
    }
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One DRC violation: its kind, the metal layer it occurs on, and the
/// bounding box the checker reports. G-cells overlapping `bbox` are hotspots.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Violation category.
    pub kind: ViolationKind,
    /// Metal layer of the violation.
    pub layer: MetalLayer,
    /// Reported bounding box in DBU.
    pub bbox: Rect,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} in {} at {}", self.kind, self.layer, self.bbox)
    }
}

codec_struct!(Violation { kind: ViolationKind, layer: MetalLayer, bbox: Rect });

codec_enum!(ViolationKind { Short = 0, EolSpacing = 1, DiffNetSpacing = 2 });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_reads_like_a_drc_report_line() {
        let v = Violation {
            kind: ViolationKind::EolSpacing,
            layer: MetalLayer::M3,
            bbox: Rect::new(0, 0, 100, 100),
        };
        let s = v.to_string();
        assert!(s.contains("end-of-line space"));
        assert!(s.contains("M3"));
    }

    #[test]
    fn kinds_have_distinct_names() {
        let names: std::collections::HashSet<_> =
            [ViolationKind::Short, ViolationKind::EolSpacing, ViolationKind::DiffNetSpacing]
                .iter()
                .map(|k| k.name())
                .collect();
        assert_eq!(names.len(), 3);
    }
}
