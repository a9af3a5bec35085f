//! Multiscale visualization support.
//!
//! The paper lists "multiscale visualization" among its contributions: the
//! continuum and atomistic solutions must be assembled onto a common
//! representation for rendering. This crate implements that data path —
//! merged uniform-grid field assembly plus writers for CSV and legacy-VTK
//! structured points (loadable by ParaView, the toolchain the paper's
//! Argonne co-authors used).

#![forbid(unsafe_code)]

use std::fmt::Write as _;

/// A scalar or vector field sampled on a uniform 2D grid — the common
/// representation both solvers are merged onto.
#[derive(Debug, Clone)]
pub struct UniformGrid2d {
    /// Grid origin.
    pub origin: [f64; 2],
    /// Grid spacing.
    pub spacing: [f64; 2],
    /// Points per axis.
    pub dims: [usize; 2],
    /// Named per-point fields (length `dims[0]·dims[1]`, x fastest).
    pub fields: Vec<(String, Vec<f64>)>,
}

impl UniformGrid2d {
    /// Create an empty grid.
    pub fn new(origin: [f64; 2], spacing: [f64; 2], dims: [usize; 2]) -> Self {
        assert!(dims[0] >= 1 && dims[1] >= 1);
        assert!(spacing[0] > 0.0 && spacing[1] > 0.0);
        Self {
            origin,
            spacing,
            dims,
            fields: Vec::new(),
        }
    }

    /// Number of grid points.
    pub fn num_points(&self) -> usize {
        self.dims[0] * self.dims[1]
    }

    /// Physical coordinates of grid point `(i, j)`.
    pub fn point(&self, i: usize, j: usize) -> [f64; 2] {
        [
            self.origin[0] + i as f64 * self.spacing[0],
            self.origin[1] + j as f64 * self.spacing[1],
        ]
    }

    /// Sample a field by evaluating `f` at every grid point (`None` values
    /// become NaN = "outside domain", which ParaView blanks).
    pub fn add_sampled_field(&mut self, name: &str, f: impl Fn(f64, f64) -> Option<f64>) {
        let mut data = Vec::with_capacity(self.num_points());
        for j in 0..self.dims[1] {
            for i in 0..self.dims[0] {
                let [x, y] = self.point(i, j);
                data.push(f(x, y).unwrap_or(f64::NAN));
            }
        }
        self.fields.push((name.to_string(), data));
    }

    /// Add a precomputed field.
    ///
    /// # Panics
    /// Panics if the length does not match the grid.
    pub fn add_field(&mut self, name: &str, data: Vec<f64>) {
        assert_eq!(data.len(), self.num_points(), "field length mismatch");
        self.fields.push((name.to_string(), data));
    }

    /// Overlay an atomistic field onto an existing continuum field: inside
    /// the window `[lo, hi]` the atomistic values win — this is the
    /// "telescoping" merged view of the paper's Fig. 1/9 renderings.
    pub fn overlay(&mut self, base: &str, patch: &str, lo: [f64; 2], hi: [f64; 2]) {
        let base_idx = self
            .fields
            .iter()
            .position(|(n, _)| n == base)
            .expect("base field missing");
        let patch_data: Vec<f64> = self
            .fields
            .iter()
            .find(|(n, _)| n == patch)
            .expect("patch field missing")
            .1
            .clone();
        let dims = self.dims;
        let mut merged = self.fields[base_idx].1.clone();
        for j in 0..dims[1] {
            for i in 0..dims[0] {
                let [x, y] = self.point(i, j);
                let k = j * dims[0] + i;
                if x >= lo[0] && x <= hi[0] && y >= lo[1] && y <= hi[1] && !patch_data[k].is_nan() {
                    merged[k] = patch_data[k];
                }
            }
        }
        self.fields.push((format!("{base}_merged"), merged));
    }

    /// Serialize as CSV: `x,y,field1,field2,...`.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("x,y");
        for (name, _) in &self.fields {
            let _ = write!(out, ",{name}");
        }
        out.push('\n');
        for j in 0..self.dims[1] {
            for i in 0..self.dims[0] {
                let [x, y] = self.point(i, j);
                let _ = write!(out, "{x},{y}");
                let k = j * self.dims[0] + i;
                for (_, data) in &self.fields {
                    let _ = write!(out, ",{}", data[k]);
                }
                out.push('\n');
            }
        }
        out
    }

    /// Serialize as legacy-VTK structured points (ASCII).
    pub fn to_vtk(&self) -> String {
        let mut out = String::new();
        out.push_str("# vtk DataFile Version 3.0\nnektarg multiscale field\nASCII\n");
        out.push_str("DATASET STRUCTURED_POINTS\n");
        let _ = writeln!(out, "DIMENSIONS {} {} 1", self.dims[0], self.dims[1]);
        let _ = writeln!(out, "ORIGIN {} {} 0", self.origin[0], self.origin[1]);
        let _ = writeln!(out, "SPACING {} {} 1", self.spacing[0], self.spacing[1]);
        let _ = writeln!(out, "POINT_DATA {}", self.num_points());
        for (name, data) in &self.fields {
            let _ = writeln!(out, "SCALARS {name} double 1");
            out.push_str("LOOKUP_TABLE default\n");
            for v in data {
                let _ = writeln!(out, "{v}");
            }
        }
        out
    }
}

/// Write a simple two-column (or more) CSV from named series of equal
/// length — the tabular output format of the bench harnesses.
pub fn series_csv(columns: &[(&str, &[f64])]) -> String {
    assert!(!columns.is_empty());
    let n = columns[0].1.len();
    for (name, data) in columns {
        assert_eq!(data.len(), n, "column {name} length mismatch");
    }
    let mut out = String::new();
    out.push_str(
        &columns
            .iter()
            .map(|(n, _)| n.to_string())
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for k in 0..n {
        out.push_str(
            &columns
                .iter()
                .map(|(_, d)| d[k].to_string())
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_geometry() {
        let g = UniformGrid2d::new([1.0, 2.0], [0.5, 0.25], [3, 2]);
        assert_eq!(g.num_points(), 6);
        assert_eq!(g.point(2, 1), [2.0, 2.25]);
    }

    #[test]
    fn sampled_field_marks_outside_as_nan() {
        let mut g = UniformGrid2d::new([0.0, 0.0], [1.0, 1.0], [3, 1]);
        g.add_sampled_field("u", |x, _| if x < 1.5 { Some(x) } else { None });
        let (_, data) = &g.fields[0];
        assert_eq!(data[0], 0.0);
        assert_eq!(data[1], 1.0);
        assert!(data[2].is_nan());
    }

    #[test]
    fn overlay_prefers_patch_inside_window() {
        let mut g = UniformGrid2d::new([0.0, 0.0], [1.0, 1.0], [4, 1]);
        g.add_field("cont", vec![1.0, 1.0, 1.0, 1.0]);
        g.add_field("atom", vec![9.0, 9.0, 9.0, f64::NAN]);
        g.overlay("cont", "atom", [1.0, -1.0], [3.0, 1.0]);
        let merged = &g.fields.last().unwrap().1;
        assert_eq!(merged[0], 1.0); // outside window
        assert_eq!(merged[1], 9.0);
        assert_eq!(merged[2], 9.0);
        assert_eq!(merged[3], 1.0); // inside window but atomistic NaN
    }

    #[test]
    fn csv_round_shape() {
        let mut g = UniformGrid2d::new([0.0, 0.0], [1.0, 1.0], [2, 2]);
        g.add_field("u", vec![1.0, 2.0, 3.0, 4.0]);
        let csv = g.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[0], "x,y,u");
        assert!(lines[4].starts_with("1,1,4"));
    }

    #[test]
    fn vtk_header_well_formed() {
        let mut g = UniformGrid2d::new([0.0, 0.0], [0.1, 0.1], [2, 3]);
        g.add_field("p", vec![0.0; 6]);
        let vtk = g.to_vtk();
        assert!(vtk.contains("DIMENSIONS 2 3 1"));
        assert!(vtk.contains("POINT_DATA 6"));
        assert!(vtk.contains("SCALARS p double 1"));
    }

    #[test]
    fn series_csv_columns() {
        let a = [1.0, 2.0];
        let b = [3.0, 4.0];
        let csv = series_csv(&[("x", &a), ("y", &b)]);
        assert_eq!(csv, "x,y\n1,3\n2,4\n");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn ragged_series_rejected() {
        let a = [1.0];
        let b = [1.0, 2.0];
        series_csv(&[("x", &a), ("y", &b)]);
    }
}
