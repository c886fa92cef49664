//! The DRC report: violations, per-g-cell hotspot labels, and the oracle's
//! internal risk field (exposed for validation and diagnostics).

use drcshap_geom::{codec_struct, GcellGrid, GcellId};
use serde::{Deserialize, Serialize};

use crate::violation::Violation;

/// Result of a DRC oracle run over one design.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DrcReport {
    /// All violation boxes, as a sign-off DRC run would report them.
    pub violations: Vec<Violation>,
    /// Per-g-cell hotspot label, row-major: `true` iff the g-cell overlaps
    /// at least one violation bounding box (the paper's label definition).
    pub labels: Vec<bool>,
    /// The oracle's per-g-cell risk intensity (diagnostic; *not* available
    /// to models, which see only the extracted features).
    pub risk: Vec<f64>,
}

impl DrcReport {
    /// Builds a report from violations by rasterizing their boxes onto
    /// `grid` (hotspot = positive-area overlap).
    pub fn from_violations(grid: &GcellGrid, violations: Vec<Violation>, risk: Vec<f64>) -> Self {
        let mut labels = vec![false; grid.num_cells()];
        for v in &violations {
            for g in grid.cells_overlapping(&v.bbox) {
                labels[grid.index_of(g)] = true;
            }
        }
        Self { violations, labels, risk }
    }

    /// Whether g-cell `g` (by grid index) is a hotspot.
    pub fn is_hotspot(&self, index: usize) -> bool {
        self.labels[index]
    }

    /// Number of hotspot g-cells.
    pub fn num_hotspots(&self) -> usize {
        self.labels.iter().filter(|&&b| b).count()
    }

    /// The violations whose bounding box overlaps g-cell `g` of `grid`.
    pub fn violations_in(&self, grid: &GcellGrid, g: GcellId) -> Vec<&Violation> {
        let rect = grid.cell_rect(g);
        self.violations.iter().filter(|v| v.bbox.overlaps(&rect)).collect()
    }

    /// Violation counts per (kind, metal layer), sorted descending — the
    /// summary a sign-off report leads with.
    pub fn kind_layer_histogram(
        &self,
    ) -> Vec<(crate::ViolationKind, drcshap_route::MetalLayer, usize)> {
        let mut counts: std::collections::HashMap<_, usize> = Default::default();
        for v in &self.violations {
            *counts.entry((v.kind, v.layer)).or_default() += 1;
        }
        let mut out: Vec<_> = counts.into_iter().map(|((k, l), c)| (k, l, c)).collect();
        out.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.1.cmp(&b.1)));
        out
    }

    /// Renders the histogram as a small report table.
    pub fn render_summary(&self) -> String {
        let mut out = format!(
            "{} violations across {} hotspot g-cells\n",
            self.violations.len(),
            self.num_hotspots()
        );
        for (kind, layer, count) in self.kind_layer_histogram() {
            out.push_str(&format!("  {count:>6}  {kind} in {layer}\n"));
        }
        out
    }
}

codec_struct!(DrcReport { violations: Vec<Violation>, labels: Vec<bool>, risk: Vec<f64> });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::violation::ViolationKind;
    use drcshap_geom::Rect;
    use drcshap_route::MetalLayer;

    fn grid() -> GcellGrid {
        GcellGrid::with_dims(Rect::from_microns(0.0, 0.0, 100.0, 100.0), 10, 10)
    }

    #[test]
    fn labels_follow_bbox_overlap() {
        let g = grid();
        // A box spanning two cells horizontally.
        let v = Violation {
            kind: ViolationKind::Short,
            layer: MetalLayer::M3,
            bbox: Rect::from_microns(9.0, 1.0, 11.0, 2.0),
        };
        let report = DrcReport::from_violations(&g, vec![v], vec![0.0; 100]);
        assert_eq!(report.num_hotspots(), 2);
        assert!(report.is_hotspot(0));
        assert!(report.is_hotspot(1));
        assert!(!report.is_hotspot(2));
    }

    #[test]
    fn violations_in_returns_overlapping_boxes() {
        let g = grid();
        let inside = Violation {
            kind: ViolationKind::EolSpacing,
            layer: MetalLayer::M2,
            bbox: Rect::from_microns(55.0, 55.0, 56.0, 56.0),
        };
        let elsewhere = Violation {
            kind: ViolationKind::Short,
            layer: MetalLayer::M4,
            bbox: Rect::from_microns(5.0, 5.0, 6.0, 6.0),
        };
        let report = DrcReport::from_violations(&g, vec![inside, elsewhere], vec![0.0; 100]);
        let hits = report.violations_in(&g, GcellId::new(5, 5));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].kind, ViolationKind::EolSpacing);
    }

    #[test]
    fn empty_report_has_no_hotspots() {
        let g = grid();
        let report = DrcReport::from_violations(&g, vec![], vec![0.0; 100]);
        assert_eq!(report.num_hotspots(), 0);
        assert!(report.kind_layer_histogram().is_empty());
    }

    #[test]
    fn histogram_counts_and_sorts() {
        let g = grid();
        let mk =
            |kind, layer| Violation { kind, layer, bbox: Rect::from_microns(1.0, 1.0, 2.0, 2.0) };
        let report = DrcReport::from_violations(
            &g,
            vec![
                mk(ViolationKind::Short, MetalLayer::M3),
                mk(ViolationKind::Short, MetalLayer::M3),
                mk(ViolationKind::EolSpacing, MetalLayer::M2),
            ],
            vec![0.0; 100],
        );
        let hist = report.kind_layer_histogram();
        assert_eq!(hist[0], (ViolationKind::Short, MetalLayer::M3, 2));
        assert_eq!(hist[1], (ViolationKind::EolSpacing, MetalLayer::M2, 1));
        let s = report.render_summary();
        assert!(s.contains("3 violations"));
        assert!(s.contains("short in M3"));
    }
}
