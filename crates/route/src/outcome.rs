//! Routing results: per-connection paths with layer-assigned segments, the
//! final congestion map, and summary statistics.

use drcshap_geom::codec::{CodecError, Decode, Encode, Reader};
use drcshap_geom::{codec_enum, codec_struct, GcellId};
use drcshap_netlist::NetId;
use serde::{Deserialize, Serialize};

use crate::congestion::CongestionMap;
use crate::layers::MetalLayer;

/// A maximal straight run of a routed connection, assigned to one metal
/// layer. `from`/`to` are inclusive endpoint g-cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segment {
    /// Metal layer carrying the segment.
    pub layer: MetalLayer,
    /// First g-cell of the run.
    pub from: GcellId,
    /// Last g-cell of the run.
    pub to: GcellId,
}

impl Segment {
    /// Length of the segment in crossed g-cell borders.
    pub fn len(&self) -> u32 {
        self.from.x.abs_diff(self.to.x) + self.from.y.abs_diff(self.to.y)
    }

    /// Whether the segment crosses no border (degenerate single-cell run).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A routed two-pin connection: the g-cell path and its layer assignment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutedConn {
    /// The net this connection belongs to.
    pub net: NetId,
    /// The cell-by-cell path from source to sink (length ≥ 1).
    pub path: Vec<GcellId>,
    /// Layer-assigned straight segments covering the path.
    pub segments: Vec<Segment>,
}

impl RoutedConn {
    /// Wirelength in crossed g-cell borders.
    pub fn wirelength(&self) -> u32 {
        (self.path.len() - 1) as u32
    }
}

/// Why a routing run degraded instead of completing normally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradeReason {
    /// The stage's wall-clock budget expired: remaining connections fell
    /// back to uncosted L patterns and negotiation stopped early.
    DeadlineExpired,
    /// Layer assignment could not produce a normal route for some
    /// connections; they carry fallback pattern routes instead.
    Unassigned,
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DegradeReason::DeadlineExpired => "deadline expired",
            DegradeReason::Unassigned => "unassigned connections",
        })
    }
}

/// Completion status of a routing run.
///
/// A `Degraded` outcome is still a *complete* routing state — every
/// connection has a path, the congestion map is consistent, and the DRC
/// oracle and feature extractor accept it — but `unrouted` connections got a
/// cheap fallback (L/Z pattern without negotiation) and their overflow is
/// recorded rather than negotiated away.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RouteStatus {
    /// Every connection was routed under full negotiation.
    #[default]
    Complete,
    /// The run finished in degraded mode.
    Degraded {
        /// Connections that received a fallback pattern route.
        unrouted: usize,
        /// Why the run degraded.
        reason: DegradeReason,
    },
}

impl RouteStatus {
    /// Whether this outcome is degraded.
    pub fn is_degraded(&self) -> bool {
        matches!(self, RouteStatus::Degraded { .. })
    }
}

/// The outcome of global routing a design.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RouteOutcome {
    /// Completion status ([`RouteStatus::Complete`] or degraded).
    #[serde(default)]
    pub status: RouteStatus,
    /// Final per-layer congestion map (capacities, loads).
    pub congestion: CongestionMap,
    /// All routed two-pin connections.
    pub conns: Vec<RoutedConn>,
    /// Total wirelength in g-cell border crossings.
    pub total_wirelength: u64,
    /// Number of nets whose pins all fall in one g-cell.
    pub local_nets: usize,
    /// Total edge overflow after routing, `Σ max(0, load − cap)`.
    pub edge_overflow: f64,
    /// Number of overflowed (layer, edge) resources.
    pub overflowed_edges: usize,
    /// Total via overflow after routing.
    pub via_overflow: f64,
}

impl std::fmt::Display for RouteOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "routed {} connections ({} local nets): wirelength {}, \
             edge overflow {:.1} on {} edges, via overflow {:.1}",
            self.conns.len(),
            self.local_nets,
            self.total_wirelength,
            self.edge_overflow,
            self.overflowed_edges,
            self.via_overflow
        )?;
        if let RouteStatus::Degraded { unrouted, reason } = self.status {
            write!(f, " [DEGRADED: {unrouted} fallback routes, {reason}]")?;
        }
        Ok(())
    }
}

codec_struct!(Segment { layer: MetalLayer, from: GcellId, to: GcellId });
codec_struct!(RoutedConn { net: NetId, path: Vec<GcellId>, segments: Vec<Segment> });
codec_struct!(RouteOutcome {
    status: RouteStatus,
    congestion: CongestionMap,
    conns: Vec<RoutedConn>,
    total_wirelength: u64,
    local_nets: usize,
    edge_overflow: f64,
    overflowed_edges: usize,
    via_overflow: f64,
});

codec_enum!(DegradeReason { DeadlineExpired = 0, Unassigned = 1 });

impl Encode for RouteStatus {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RouteStatus::Complete => out.push(0),
            RouteStatus::Degraded { unrouted, reason } => {
                out.push(1);
                unrouted.encode(out);
                reason.encode(out);
            }
        }
    }
}

impl Decode for RouteStatus {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.tag()? {
            0 => Ok(RouteStatus::Complete),
            1 => Ok(RouteStatus::Degraded {
                unrouted: usize::decode(r)?,
                reason: DegradeReason::decode(r)?,
            }),
            tag => Err(CodecError::BadTag { what: "RouteStatus", tag }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::CongestionMap;

    #[test]
    fn outcome_display_summarizes() {
        let mut out = RouteOutcome {
            status: RouteStatus::Complete,
            congestion: CongestionMap::zeros(2, 2),
            conns: vec![],
            total_wirelength: 123,
            local_nets: 4,
            edge_overflow: 7.5,
            overflowed_edges: 3,
            via_overflow: 0.0,
        };
        let s = out.to_string();
        assert!(s.contains("wirelength 123"));
        assert!(s.contains("4 local nets"));
        assert!(s.contains("overflow 7.5 on 3 edges"));
        assert!(!s.contains("DEGRADED"));
        out.status = RouteStatus::Degraded { unrouted: 7, reason: DegradeReason::DeadlineExpired };
        let s = out.to_string();
        assert!(s.contains("DEGRADED: 7 fallback routes, deadline expired"), "{s}");
        assert!(out.status.is_degraded());
    }

    #[test]
    fn status_default_is_complete_and_round_trips() {
        assert_eq!(RouteStatus::default(), RouteStatus::Complete);
        let degraded = RouteStatus::Degraded { unrouted: 3, reason: DegradeReason::Unassigned };
        let json = serde_json::to_string(&degraded).unwrap();
        assert_eq!(serde_json::from_str::<RouteStatus>(&json).unwrap(), degraded);
    }

    #[test]
    fn every_status_round_trips_through_the_codec() {
        use drcshap_geom::codec::decode_exact;
        for status in [
            RouteStatus::Complete,
            RouteStatus::Degraded { unrouted: 3, reason: DegradeReason::DeadlineExpired },
            RouteStatus::Degraded { unrouted: usize::MAX, reason: DegradeReason::Unassigned },
        ] {
            let mut bytes = Vec::new();
            status.encode(&mut bytes);
            assert_eq!(decode_exact::<RouteStatus>(&bytes).unwrap(), status);
        }
        assert!(matches!(
            decode_exact::<RouteStatus>(&[1, 0, 0, 0, 0, 0, 0, 0, 0, 2]),
            Err(CodecError::BadTag { what: "DegradeReason", tag: 2 })
        ));
    }

    #[test]
    fn congestion_map_shape_is_checked_on_decode() {
        use drcshap_geom::codec::decode_exact;
        let map = CongestionMap::zeros(3, 2);
        let mut bytes = Vec::new();
        map.encode(&mut bytes);
        let back: CongestionMap = decode_exact(&bytes).unwrap();
        let mut again = Vec::new();
        back.encode(&mut again);
        assert_eq!(again, bytes);
        // Claim a 4-column grid: the layer vectors no longer fit it.
        bytes[..4].copy_from_slice(&4u32.to_le_bytes());
        assert!(matches!(decode_exact::<CongestionMap>(&bytes), Err(CodecError::Invalid(_))));
    }

    #[test]
    fn segment_len_is_manhattan() {
        let s = Segment { layer: MetalLayer::M3, from: GcellId::new(2, 5), to: GcellId::new(7, 5) };
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        let dot =
            Segment { layer: MetalLayer::M1, from: GcellId::new(1, 1), to: GcellId::new(1, 1) };
        assert!(dot.is_empty());
    }

    #[test]
    fn conn_wirelength_counts_borders() {
        let conn = RoutedConn {
            net: NetId::from_index(0),
            path: vec![GcellId::new(0, 0), GcellId::new(1, 0), GcellId::new(1, 1)],
            segments: vec![],
        };
        assert_eq!(conn.wirelength(), 2);
    }
}
