//! The 14-design synthetic suite mirroring Table I of the paper.
//!
//! Each [`DesignSpec`] carries the published per-design statistics of the
//! ISPD-2015 benchmarks the paper uses (layout size, g-cell count, standard
//! cell count, macro count, DRC hotspot count) and the paper's five-group
//! split. The synthetic generator reproduces the *statistics*; the actual
//! contest netlists are not redistributable and their detailed-routed DRC
//! results were never published (see `DESIGN.md` §1).
//!
//! Designs can be scaled down uniformly ([`DesignSpec::scaled`]) for fast
//! test/bench runs: the die shrinks linearly, g-cell and cell counts shrink
//! quadratically, so placement utilization and congestion statistics are
//! preserved.

use drcshap_geom::{codec_struct, Rect};
use serde::{Deserialize, Serialize};

/// Row-height of the 65 nm standard-cell library, in DBU (1.8 µm).
pub const ROW_HEIGHT_DBU: i64 = 1_800;
/// Placement-site width, in DBU (0.2 µm).
pub const SITE_WIDTH_DBU: i64 = 200;

/// Statistics of one suite design, as published in Table I of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Number of g-cells.
    pub gcells: u32,
    /// Number of DRC hotspots after detailed routing.
    pub hotspots: u32,
    /// Number of macros.
    pub macros: u32,
    /// Number of standard cells, in thousands.
    pub cells_k: f64,
    /// Layout size in microns (width, height).
    pub size_um: (f64, f64),
}

/// Specification of one synthetic design.
///
/// # Example
///
/// ```
/// use drcshap_netlist::suite;
///
/// let spec = suite::spec("des_perf_1").unwrap();
/// assert_eq!(spec.table1.hotspots, 676);
/// let small = spec.scaled(0.25);
/// assert!(small.num_cells() < spec.num_cells() / 10);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignSpec {
    /// Design name (ISPD-2015 naming).
    pub name: String,
    /// Cross-validation group (1–5), as assigned in Table I.
    pub group: u8,
    /// Published Table I statistics for the original design.
    pub table1: Table1Row,
    /// Linear scale factor (1.0 = paper scale).
    pub scale: f64,
}

impl DesignSpec {
    /// A copy of this spec scaled linearly by `factor` (composable).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < factor <= 1.0`.
    pub fn scaled(&self, factor: f64) -> DesignSpec {
        assert!(factor > 0.0 && factor <= 1.0, "scale factor must be in (0, 1]");
        DesignSpec { scale: self.scale * factor, ..self.clone() }
    }

    /// The (scaled) die outline, origin at (0, 0).
    pub fn die(&self) -> Rect {
        let (w, h) = self.table1.size_um;
        Rect::from_microns(0.0, 0.0, w * self.scale, h * self.scale)
    }

    /// The (scaled) g-cell grid dimensions `(nx, ny)`, chosen as the
    /// near-square factorization of the Table I g-cell count.
    ///
    /// Perfect squares (most suite designs) reproduce Table I exactly at
    /// scale 1.0; the rest land within a fraction of a percent.
    pub fn grid_dims(&self) -> (u32, u32) {
        let n = self.table1.gcells as f64;
        let nx0 = n.sqrt().round();
        let ny0 = (n / nx0).round();
        let nx = ((nx0 * self.scale).round() as u32).max(9);
        let ny = ((ny0 * self.scale).round() as u32).max(9);
        (nx, ny)
    }

    /// The (scaled) number of standard cells to generate.
    pub fn num_cells(&self) -> usize {
        ((self.table1.cells_k * 1_000.0 * self.scale * self.scale).round() as usize).max(50)
    }

    /// The number of macros (not scaled: macro count is small and their area
    /// scales with the die).
    pub fn num_macros(&self) -> usize {
        self.table1.macros as usize
    }

    /// The (scaled) DRC hotspot count the label oracle is calibrated to.
    pub fn target_hotspots(&self) -> usize {
        (self.table1.hotspots as f64 * self.scale * self.scale).round() as usize
    }

    /// Published hotspot rate (hotspots per g-cell) of the original design.
    pub fn hotspot_rate(&self) -> f64 {
        self.table1.hotspots as f64 / self.table1.gcells as f64
    }

    /// Congestion stress in `[0.25, 1.0]`, derived from the published hotspot
    /// rate: stressed designs get tighter cell clustering and higher routing
    /// demand so that congestion (and therefore labels) emerge where the
    /// original design had them. `des_perf_1` (12.3% hotspots) maps to ~1.0;
    /// DRC-clean designs map to 0.25.
    pub fn stress(&self) -> f64 {
        let normalized = (self.hotspot_rate() / 0.125).min(1.0);
        0.25 + 0.75 * normalized.sqrt()
    }

    /// Placement utilization implied by Table I: total cell area over
    /// non-macro die area, assuming the library's mean cell area.
    pub fn utilization(&self) -> f64 {
        // Mean cell: ~4.5 sites wide, one row tall.
        let mean_cell_area = (4.5 * SITE_WIDTH_DBU as f64) * ROW_HEIGHT_DBU as f64;
        let die = self.die();
        let macro_area = 0.08 * die.area() as f64 * self.num_macros() as f64 / 6.0;
        let free = (die.area() as f64 - macro_area).max(1.0);
        (self.num_cells() as f64 * mean_cell_area / free).min(0.97)
    }

    /// A deterministic per-design RNG seed (stable across runs and platforms).
    pub fn seed(&self) -> u64 {
        // FNV-1a over the name; scale does not change the seed so that a
        // scaled design is a coarser look at "the same" design.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

macro_rules! spec {
    ($name:literal, $group:literal, $gcells:literal, $hotspots:literal, $macros:literal,
     $cells_k:literal, $w:literal x $h:literal) => {
        DesignSpec {
            name: $name.to_owned(),
            group: $group,
            table1: Table1Row {
                gcells: $gcells,
                hotspots: $hotspots,
                macros: $macros,
                cells_k: $cells_k,
                size_um: ($w as f64, $h as f64),
            },
            scale: 1.0,
        }
    };
}

/// All 14 designs of Table I, in table order.
pub fn all_specs() -> Vec<DesignSpec> {
    vec![
        // Group 1
        spec!("des_perf_b", 1, 10_000, 0, 0, 112.6, 600 x 600),
        spec!("fft_2", 1, 3_249, 17, 0, 32.3, 265 x 265),
        spec!("mult_1", 1, 8_281, 154, 0, 155.3, 550 x 550),
        spec!("mult_2", 1, 8_464, 193, 0, 155.3, 555 x 555),
        // Group 2
        spec!("fft_b", 2, 6_506, 534, 6, 30.6, 800 x 800),
        spec!("mult_a", 2, 21_757, 13, 5, 149.7, 1500 x 1500),
        // Group 3
        spec!("mult_b", 3, 24_257, 613, 7, 146.4, 1500 x 1500),
        spec!("bridge32_a", 3, 3_569, 56, 4, 29.5, 400 x 400),
        // Group 4
        spec!("des_perf_1", 4, 5_476, 676, 0, 112.6, 445 x 445),
        spec!("mult_c", 4, 24_213, 62, 7, 146.4, 1500 x 1500),
        // Group 5
        spec!("des_perf_a", 5, 11_498, 246, 4, 108.3, 900 x 900),
        spec!("fft_1", 5, 1_936, 50, 0, 32.3, 265 x 265),
        spec!("fft_a", 5, 6_491, 2, 6, 30.6, 800 x 800),
        spec!("bridge32_b", 5, 10_393, 0, 6, 28.9, 800 x 800),
    ]
}

/// Looks up a design spec by name.
pub fn spec(name: &str) -> Option<DesignSpec> {
    all_specs().into_iter().find(|s| s.name == name)
}

/// The designs of cross-validation group `group` (1–5).
pub fn group_specs(group: u8) -> Vec<DesignSpec> {
    all_specs().into_iter().filter(|s| s.group == group).collect()
}

/// Designs evaluated in Table II: all designs with at least one hotspot
/// (the paper's footnote 3 excludes the two DRC-clean designs, for which
/// TPR/Prec/AUPRC are undefined).
pub fn evaluated_specs() -> Vec<DesignSpec> {
    all_specs().into_iter().filter(|s| s.table1.hotspots > 0).collect()
}

codec_struct!(Table1Row {
    gcells: u32,
    hotspots: u32,
    macros: u32,
    cells_k: f64,
    size_um: (f64, f64)
});
codec_struct!(DesignSpec { name: String, group: u8, table1: Table1Row, scale: f64 });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_fourteen_designs_in_five_groups() {
        let specs = all_specs();
        assert_eq!(specs.len(), 14);
        for g in 1..=5u8 {
            assert!(!group_specs(g).is_empty(), "group {g} empty");
        }
        assert_eq!((1..=5u8).map(|g| group_specs(g).len()).sum::<usize>(), 14);
    }

    #[test]
    fn group_gcell_totals_match_table1() {
        // Table I group headers: 29994, 28263, 27826, 29689, 30318.
        let totals: Vec<u32> =
            (1..=5u8).map(|g| group_specs(g).iter().map(|s| s.table1.gcells).sum()).collect();
        assert_eq!(totals, vec![29_994, 28_263, 27_826, 29_689, 30_318]);
    }

    #[test]
    fn group_hotspot_totals_match_table1() {
        let totals: Vec<u32> =
            (1..=5u8).map(|g| group_specs(g).iter().map(|s| s.table1.hotspots).sum()).collect();
        assert_eq!(totals, vec![364, 547, 669, 738, 298]);
    }

    #[test]
    fn perfect_square_grids_reproduce_gcell_counts() {
        for name in ["des_perf_b", "fft_2", "mult_1", "mult_2", "des_perf_1", "fft_1"] {
            let s = spec(name).unwrap();
            let (nx, ny) = s.grid_dims();
            assert_eq!(nx * ny, s.table1.gcells, "{name}");
        }
    }

    #[test]
    fn non_square_grids_are_close() {
        for s in all_specs() {
            let (nx, ny) = s.grid_dims();
            let err =
                (nx as f64 * ny as f64 - s.table1.gcells as f64).abs() / s.table1.gcells as f64;
            assert!(err < 0.02, "{}: {}x{} vs {}", s.name, nx, ny, s.table1.gcells);
        }
    }

    #[test]
    fn evaluated_specs_excludes_drc_clean_designs() {
        let eval = evaluated_specs();
        assert_eq!(eval.len(), 12);
        assert!(!eval.iter().any(|s| s.name == "des_perf_b"));
        assert!(!eval.iter().any(|s| s.name == "bridge32_b"));
    }

    #[test]
    fn scaling_preserves_utilization_roughly() {
        let s = spec("mult_1").unwrap();
        let small = s.scaled(0.25);
        let ratio = small.utilization() / s.utilization();
        assert!((0.8..1.25).contains(&ratio), "utilization drifted: {ratio}");
        assert!(small.num_cells() >= 50);
        assert_eq!(small.seed(), s.seed());
    }

    #[test]
    fn scaled_compose() {
        let s = spec("fft_1").unwrap().scaled(0.5).scaled(0.5);
        assert!((s.scale - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn zero_scale_rejected() {
        let _ = spec("fft_1").unwrap().scaled(0.0);
    }

    #[test]
    fn stress_orders_by_hotspot_rate() {
        let hot = spec("des_perf_1").unwrap().stress();
        let warm = spec("mult_2").unwrap().stress();
        let clean = spec("des_perf_b").unwrap().stress();
        assert!(hot > warm && warm > clean);
        assert!(clean >= 0.25 && hot <= 1.0);
    }

    #[test]
    fn seeds_are_distinct_per_design() {
        let seeds: std::collections::HashSet<u64> = all_specs().iter().map(|s| s.seed()).collect();
        assert_eq!(seeds.len(), 14);
    }

    #[test]
    fn utilization_is_sane_for_dense_and_sparse_designs() {
        let dense = spec("mult_1").unwrap().utilization();
        let sparse = spec("fft_b").unwrap().utilization();
        assert!(dense > 0.5, "mult_1 should be dense: {dense}");
        assert!(sparse < 0.2, "fft_b should be sparse: {sparse}");
    }
}
