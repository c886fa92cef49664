//! Feature extraction over a placed-and-routed design.

use drcshap_geom::codec::{CodecError, Decode, Encode, Reader};
use drcshap_geom::{GcellGrid, Window3x3};
use drcshap_netlist::{Design, NetKind};
use drcshap_route::{RouteOutcome, ALL_METALS, ALL_VIAS};
use drcshap_telemetry as telemetry;
use serde::{Deserialize, Serialize};

use crate::schema::{FeatureSchema, CONGESTION_QUANTITIES, PLACEMENT_QUANTITIES};
use crate::{CongestionQuantity, PlacementQuantity};

/// Per-g-cell placement aggregates, computed once per design and shared by
/// all windows that include the cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DesignStats {
    /// Standard cells fully inside each g-cell.
    pub cell_count: Vec<u32>,
    /// Pins inside each g-cell.
    pub pin_count: Vec<u32>,
    /// Clock pins inside each g-cell.
    pub clock_pin_count: Vec<u32>,
    /// Nets whose pins all fall inside the g-cell.
    pub local_net_count: Vec<u32>,
    /// Pins belonging to any local net.
    pub local_pin_count: Vec<u32>,
    /// Pins belonging to NDR nets.
    pub ndr_pin_count: Vec<u32>,
    /// Mean pairwise Manhattan pin distance, in microns (0 when < 2 pins).
    pub pin_spacing_um: Vec<f32>,
    /// Fraction of the g-cell covered by blockages.
    pub blockage_frac: Vec<f32>,
    /// Fraction of the g-cell covered by standard cells.
    pub cell_area_frac: Vec<f32>,
}

/// Cap on pins used for the O(p²) pin-spacing computation per cell.
const PIN_SPACING_SAMPLE_CAP: usize = 256;

impl DesignStats {
    /// Computes all per-g-cell aggregates for `design`.
    ///
    /// # Panics
    ///
    /// Panics if any cell is unplaced.
    pub fn compute(design: &Design) -> Self {
        let grid = &design.grid;
        let n = grid.num_cells();
        let mut cell_count = vec![0u32; n];
        let mut pin_count = vec![0u32; n];
        let mut clock_pin_count = vec![0u32; n];
        let mut local_net_count = vec![0u32; n];
        let mut local_pin_count = vec![0u32; n];
        let mut ndr_pin_count = vec![0u32; n];
        let mut cell_area = vec![0f64; n];
        let mut pin_positions: Vec<Vec<drcshap_geom::Point>> = vec![Vec::new(); n];

        // Cells fully inside a g-cell, and per-cell area coverage.
        for (id, _) in design.netlist.cells() {
            let outline = design.cell_outline(id).expect("stats require a fully placed design");
            for g in grid.cells_overlapping(&outline) {
                let rect = grid.cell_rect(g);
                let i = grid.index_of(g);
                cell_area[i] += outline.overlap_area(&rect) as f64;
                if rect.contains_rect(&outline) {
                    cell_count[i] += 1;
                }
            }
        }

        // Pins: counts, clock pins, NDR pins, positions for spacing.
        for (pid, pin) in design.netlist.pins() {
            let Some(pos) = design.pin_position(pid) else { continue };
            let Some(g) = grid.cell_containing(pos) else { continue };
            let i = grid.index_of(g);
            pin_count[i] += 1;
            pin_positions[i].push(pos);
            let net = design.netlist.net(pin.net);
            if net.kind == NetKind::Clock {
                clock_pin_count[i] += 1;
            }
            if net.ndr.is_some() {
                ndr_pin_count[i] += 1;
            }
        }

        // Local nets: all pins inside one g-cell.
        for (_, net) in design.netlist.nets() {
            let mut cell: Option<usize> = None;
            let mut local = net.pins.len() >= 2;
            for &p in &net.pins {
                let Some(pos) = design.pin_position(p) else {
                    local = false;
                    break;
                };
                let Some(g) = grid.cell_containing(pos) else {
                    local = false;
                    break;
                };
                let i = grid.index_of(g);
                match cell {
                    None => cell = Some(i),
                    Some(c) if c != i => {
                        local = false;
                        break;
                    }
                    _ => {}
                }
            }
            if local {
                if let Some(i) = cell {
                    local_net_count[i] += 1;
                    local_pin_count[i] += net.pins.len() as u32;
                }
            }
        }

        // Pin spacing and area fractions.
        let mut pin_spacing_um = vec![0f32; n];
        let mut blockage_frac = vec![0f32; n];
        let mut cell_area_frac = vec![0f32; n];
        for g in grid.iter() {
            let i = grid.index_of(g);
            let rect = grid.cell_rect(g);
            blockage_frac[i] = design.blockage_fraction(&rect) as f32;
            cell_area_frac[i] = (cell_area[i] / rect.area() as f64).min(1.0) as f32;
            let pins = &pin_positions[i];
            if pins.len() >= 2 {
                let sample = &pins[..pins.len().min(PIN_SPACING_SAMPLE_CAP)];
                let mut sum = 0u64;
                let mut pairs = 0u64;
                for (k, &a) in sample.iter().enumerate() {
                    for &b in &sample[k + 1..] {
                        sum += a.manhattan_distance(b) as u64;
                        pairs += 1;
                    }
                }
                pin_spacing_um[i] =
                    (sum as f64 / pairs as f64 / drcshap_geom::DBU_PER_MICRON as f64) as f32;
            }
        }

        Self {
            cell_count,
            pin_count,
            clock_pin_count,
            local_net_count,
            local_pin_count,
            ndr_pin_count,
            pin_spacing_um,
            blockage_frac,
            cell_area_frac,
        }
    }
}

/// A dense samples × features matrix (row-major, `f32`), one row per g-cell
/// in grid row-major order, with its [`FeatureSchema`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureMatrix {
    schema: FeatureSchema,
    n_samples: usize,
    data: Vec<f32>,
}

impl FeatureMatrix {
    /// Number of samples (= g-cells of the extracted design).
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Number of features per sample.
    pub fn n_features(&self) -> usize {
        self.schema.len()
    }

    /// The schema describing the columns.
    pub fn schema(&self) -> &FeatureSchema {
        &self.schema
    }

    /// The feature row of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n_samples()`.
    pub fn row(&self, i: usize) -> &[f32] {
        let m = self.n_features();
        &self.data[i * m..(i + 1) * m]
    }

    /// The value of feature `j` for sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn value(&self, i: usize, j: usize) -> f32 {
        self.row(i)[j]
    }

    /// Consumes the matrix into `(schema, n_samples, row-major data)`.
    pub fn into_parts(self) -> (FeatureSchema, usize, Vec<f32>) {
        (self.schema, self.n_samples, self.data)
    }
}

/// Extracts the 387-feature vector of a *single* g-cell window.
///
/// For incremental what-if analysis: after a local congestion change
/// (re-routing a region, moving cells), only the affected windows need
/// re-extraction — `stats` can be reused when placement is unchanged.
///
/// # Panics
///
/// Panics if `center` lies outside the design's grid.
pub fn extract_window(
    design: &Design,
    route: &RouteOutcome,
    stats: &DesignStats,
    center: drcshap_geom::GcellId,
) -> Vec<f32> {
    let schema_len = FeatureSchema::paper_387().len();
    let window = Window3x3::around(&design.grid, center);
    let mut row = vec![0f32; schema_len];
    fill_row(&mut row, route, stats, &window, &design.grid);
    row
}

/// Extracts the 387 features for every g-cell of a routed design.
///
/// Row `i` of the result corresponds to g-cell `grid.cell_at_index(i)`.
pub fn extract_design(design: &Design, route: &RouteOutcome) -> FeatureMatrix {
    let _extract_span = telemetry::span_with("extract/design", || design.spec.name.clone());
    let schema = FeatureSchema::paper_387();
    let stats = DesignStats::compute(design);
    let grid = &design.grid;
    let n = grid.num_cells();
    let m = schema.len();
    let mut data = vec![0f32; n * m];
    for (i, center) in grid.iter().enumerate() {
        let window = Window3x3::around(grid, center);
        fill_row(&mut data[i * m..(i + 1) * m], route, &stats, &window, grid);
    }
    telemetry::counter("extract/gcells", n as u64);
    FeatureMatrix { schema, n_samples: n, data }
}

/// Fills one 387-wide feature row. The write order must match
/// [`FeatureSchema::paper_387`].
fn fill_row(
    row: &mut [f32],
    route: &RouteOutcome,
    stats: &DesignStats,
    window: &Window3x3,
    grid: &GcellGrid,
) {
    let map = &route.congestion;
    let mut k = 0usize;

    // 1. Placement features.
    for (_, cell) in window.iter() {
        for quantity in PLACEMENT_QUANTITIES {
            row[k] = match cell {
                None => 0.0,
                Some(g) => {
                    let i = grid.index_of(g);
                    match quantity {
                        PlacementQuantity::CenterX => grid.normalized_center(g).0 as f32,
                        PlacementQuantity::CenterY => grid.normalized_center(g).1 as f32,
                        PlacementQuantity::CellCount => stats.cell_count[i] as f32,
                        PlacementQuantity::PinCount => stats.pin_count[i] as f32,
                        PlacementQuantity::ClockPinCount => stats.clock_pin_count[i] as f32,
                        PlacementQuantity::LocalNetCount => stats.local_net_count[i] as f32,
                        PlacementQuantity::LocalPinCount => stats.local_pin_count[i] as f32,
                        PlacementQuantity::NdrPinCount => stats.ndr_pin_count[i] as f32,
                        PlacementQuantity::PinSpacing => stats.pin_spacing_um[i],
                        PlacementQuantity::BlockageArea => stats.blockage_frac[i],
                        PlacementQuantity::CellArea => stats.cell_area_frac[i],
                    }
                }
            };
            k += 1;
        }
    }

    // 2. Edge congestion.
    for edge in drcshap_geom::window_edges() {
        let a = window.cell_at(edge.a.0, edge.a.1);
        let b = window.cell_at(edge.b.0, edge.b.1);
        for layer in ALL_METALS {
            for quantity in CONGESTION_QUANTITIES {
                row[k] = match (a, b) {
                    (Some(a), Some(b)) => match quantity {
                        CongestionQuantity::Capacity => map.edge_capacity(layer, a, b) as f32,
                        CongestionQuantity::Load => map.edge_load(layer, a, b) as f32,
                        CongestionQuantity::Margin => map.edge_margin(layer, a, b) as f32,
                    },
                    _ => 0.0,
                };
                k += 1;
            }
        }
    }

    // 3. Via congestion.
    for (_, cell) in window.iter() {
        for layer in ALL_VIAS {
            for quantity in CONGESTION_QUANTITIES {
                row[k] = match cell {
                    Some(g) => match quantity {
                        CongestionQuantity::Capacity => map.via_capacity(layer, g) as f32,
                        CongestionQuantity::Load => map.via_load(layer, g) as f32,
                        CongestionQuantity::Margin => map.via_margin(layer, g) as f32,
                    },
                    None => 0.0,
                };
                k += 1;
            }
        }
    }
    debug_assert_eq!(k, row.len());
}

impl Encode for FeatureMatrix {
    fn encode(&self, out: &mut Vec<u8>) {
        self.schema.encode(out);
        self.n_samples.encode(out);
        self.data.encode(out);
    }
}

impl Decode for FeatureMatrix {
    /// Decodes a matrix; its data must hold exactly `n_samples` rows of
    /// the schema's width.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let matrix = Self {
            schema: FeatureSchema::decode(r)?,
            n_samples: usize::decode(r)?,
            data: Vec::decode(r)?,
        };
        if matrix.n_samples.checked_mul(matrix.schema.len()) != Some(matrix.data.len()) {
            return Err(CodecError::Invalid(format!(
                "{} values do not form {} rows of {} features",
                matrix.data.len(),
                matrix.n_samples,
                matrix.schema.len()
            )));
        }
        Ok(matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcshap_drc::{run_drc, DrcConfig};
    use drcshap_geom::GcellId;
    use drcshap_netlist::{suite, synth, Design};
    use drcshap_place::place;
    use drcshap_route::{route_design, MetalLayer, RouteConfig, ViaLayer};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn pipeline(name: &str, scale: f64) -> (Design, RouteOutcome, FeatureMatrix) {
        let spec = suite::spec(name).unwrap().scaled(scale);
        let mut d = Design::new(spec);
        let mut rng = ChaCha8Rng::seed_from_u64(d.spec.seed());
        synth::generate_cells(&mut d, &mut rng);
        place(&mut d, &mut rng);
        synth::generate_nets(&mut d, &mut rng);
        let route = route_design(&d, &RouteConfig::default(), &mut rng);
        let fm = extract_design(&d, &route);
        (d, route, fm)
    }

    #[test]
    fn feature_matrix_codec_keeps_every_bit_pattern() {
        use drcshap_geom::codec::decode_exact;
        let (_, _, mut fm) = pipeline("fft_1", 0.1);
        let specials = [f32::NAN, -f32::NAN, -0.0, f32::INFINITY, f32::NEG_INFINITY];
        for (v, special) in fm.data.iter_mut().zip(specials) {
            *v = special;
        }
        let mut bytes = Vec::new();
        fm.encode(&mut bytes);
        let back: FeatureMatrix = decode_exact(&bytes).expect("round trip");
        assert_eq!(back.schema, fm.schema);
        assert_eq!(back.n_samples, fm.n_samples);
        let bits = |m: &FeatureMatrix| m.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&fm));
        let mut again = Vec::new();
        back.encode(&mut again);
        assert_eq!(again, bytes);

        // Data that does not fill the declared rows is rejected.
        let mut short = fm.clone();
        short.data.pop();
        let mut bytes = Vec::new();
        short.encode(&mut bytes);
        assert!(matches!(decode_exact::<FeatureMatrix>(&bytes), Err(CodecError::Invalid(_))));

        // An empty matrix (no rows) round-trips too.
        let empty = FeatureMatrix { schema: fm.schema.clone(), n_samples: 0, data: Vec::new() };
        let mut bytes = Vec::new();
        empty.encode(&mut bytes);
        assert_eq!(decode_exact::<FeatureMatrix>(&bytes).expect("empty").n_samples(), 0);
    }

    #[test]
    fn matrix_shape_matches_grid() {
        let (d, _, fm) = pipeline("fft_1", 0.25);
        assert_eq!(fm.n_samples(), d.grid.num_cells());
        assert_eq!(fm.n_features(), 387);
    }

    #[test]
    fn center_coordinates_match_grid() {
        let (d, _, fm) = pipeline("fft_1", 0.25);
        let schema = fm.schema();
        let ix = schema.index_of("x_o").unwrap();
        let iy = schema.index_of("y_o").unwrap();
        for (i, g) in d.grid.iter().enumerate() {
            let (x, y) = d.grid.normalized_center(g);
            assert!((fm.value(i, ix) as f64 - x).abs() < 1e-6);
            assert!((fm.value(i, iy) as f64 - y).abs() < 1e-6);
        }
    }

    #[test]
    fn corner_windows_have_blank_neighbors() {
        let (d, _, fm) = pipeline("fft_1", 0.25);
        let schema = fm.schema();
        // Sample 0 is the SW corner: its W/SW/S/NW/SE neighbours are blank.
        let sw_cell = d.grid.index_of(GcellId::new(0, 0));
        for name in ["x_W", "npin_SW", "pinsp_S", "vcV1_NW", "vlV3_SW"] {
            let j = schema.index_of(name).unwrap();
            assert_eq!(fm.value(sw_cell, j), 0.0, "{name} not blank-padded");
        }
    }

    #[test]
    fn congestion_features_match_map() {
        let (d, route, fm) = pipeline("fft_2", 0.25);
        let schema = fm.schema();
        let (nx, ny) = d.grid.dims();
        let center = GcellId::new(nx / 2, ny / 2);
        let i = d.grid.index_of(center);
        // Via load of the central cell.
        let j = schema.index_of("vlV2_o").unwrap();
        assert_eq!(
            fm.value(i, j) as f64,
            route.congestion.via_load(ViaLayer::V2, center) as f32 as f64
        );
        // Edge margin on window edge 8H (south border of the central cell):
        // edge 8H connects window cells (0,0)-(0,1) per the documented
        // numbering, i.e. the SW cell and the W cell.
        let j = schema.index_of("edM2_9H").unwrap();
        let south = GcellId::new(nx / 2, ny / 2 - 1);
        assert_eq!(
            fm.value(i, j),
            route.congestion.edge_margin(MetalLayer::M2, south, center) as f32
        );
    }

    #[test]
    fn wrong_direction_layers_read_zero() {
        let (d, _, fm) = pipeline("fft_1", 0.25);
        let schema = fm.schema();
        let (nx, ny) = d.grid.dims();
        let i = d.grid.index_of(GcellId::new(nx / 2, ny / 2));
        // Edge 6V is a vertical border (crossed by horizontal wires):
        // vertical layers M2/M4 have no capacity across it.
        for name in ["ecM2_6V", "elM4_6V"] {
            let j = schema.index_of(name).unwrap();
            assert_eq!(fm.value(i, j), 0.0, "{name} should be zero");
        }
        // Horizontal layers do.
        let j = schema.index_of("ecM3_6V").unwrap();
        assert!(fm.value(i, j) > 0.0);
    }

    #[test]
    fn pin_counts_aggregate_to_total() {
        let (d, _, _) = pipeline("fft_1", 0.25);
        let stats = DesignStats::compute(&d);
        let total: u32 = stats.pin_count.iter().sum();
        // Macro pins on the die boundary might fall outside cell_containing
        // when exactly on the top/right edge; allow a tiny deficit.
        assert!(total as usize >= d.netlist.num_pins() * 99 / 100);
        assert!(total as usize <= d.netlist.num_pins());
    }

    #[test]
    fn local_pin_count_at_least_twice_local_nets() {
        let (d, _, _) = pipeline("fft_1", 0.3);
        let stats = DesignStats::compute(&d);
        for i in 0..stats.local_net_count.len() {
            assert!(stats.local_pin_count[i] >= 2 * stats.local_net_count[i]);
        }
    }

    #[test]
    fn pin_spacing_bounded_by_cell_diameter() {
        let (d, _, fm) = pipeline("fft_1", 0.3);
        let schema = fm.schema();
        let j = schema.index_of("pinsp_o").unwrap();
        let diameter_um = 2.0 * d.grid.gcell_size() as f64 / 1000.0;
        for i in 0..fm.n_samples() {
            let v = fm.value(i, j) as f64;
            assert!((0.0..=diameter_um * 1.5).contains(&v), "pinsp {v} vs {diameter_um}");
        }
    }

    #[test]
    fn single_window_extraction_matches_design_extraction() {
        let (d, route, fm) = pipeline("fft_2", 0.25);
        let stats = DesignStats::compute(&d);
        for idx in [0usize, 17, fm.n_samples() / 2, fm.n_samples() - 1] {
            let g = d.grid.cell_at_index(idx);
            let row = extract_window(&d, &route, &stats, g);
            assert_eq!(row.as_slice(), fm.row(idx), "window {g} diverges");
        }
    }

    #[test]
    fn extraction_is_deterministic() {
        let (_, _, a) = pipeline("fft_2", 0.2);
        let (_, _, b) = pipeline("fft_2", 0.2);
        assert_eq!(a.row(10), b.row(10));
    }

    #[test]
    fn hotspot_cells_show_worse_margins() {
        // Average minimum edge margin of hotspot windows should be lower
        // than that of clean windows — the learnable signal.
        let spec = suite::spec("des_perf_1").unwrap().scaled(0.35);
        let mut d = Design::new(spec);
        let mut rng = ChaCha8Rng::seed_from_u64(d.spec.seed());
        synth::generate_cells(&mut d, &mut rng);
        place(&mut d, &mut rng);
        synth::generate_nets(&mut d, &mut rng);
        let stress = d.spec.stress();
        let cfg = RouteConfig::default().derated(1.0 - 0.4 * (stress - 0.25));
        let route = route_design(&d, &cfg, &mut rng);
        let report = run_drc(&d, &route, &DrcConfig::default(), &mut rng);
        let fm = extract_design(&d, &route);
        let schema = fm.schema();
        let margin_cols: Vec<usize> = schema
            .iter()
            .filter(|(_, desc)| {
                matches!(
                    desc,
                    crate::FeatureDesc::Edge { quantity: crate::CongestionQuantity::Margin, .. }
                )
            })
            .map(|(i, _)| i)
            .collect();
        let min_margin = |i: usize| -> f32 {
            margin_cols.iter().map(|&j| fm.value(i, j)).fold(f32::INFINITY, f32::min)
        };
        let (mut hot_sum, mut hot_n, mut cold_sum, mut cold_n) = (0f64, 0usize, 0f64, 0usize);
        for i in 0..fm.n_samples() {
            if report.labels[i] {
                hot_sum += min_margin(i) as f64;
                hot_n += 1;
            } else {
                cold_sum += min_margin(i) as f64;
                cold_n += 1;
            }
        }
        assert!(hot_n > 0 && cold_n > 0);
        let (hot_avg, cold_avg) = (hot_sum / hot_n as f64, cold_sum / cold_n as f64);
        assert!(
            hot_avg < cold_avg,
            "hotspot windows not more congested: {hot_avg:.2} vs {cold_avg:.2}"
        );
    }
}
