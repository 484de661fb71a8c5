//! Correctness gate: every measured result is checked outside the timed
//! spans, and each failed operation or failed check is counted.
//!
//! The reference is the paper's *other* scheme: a per-point evaluation of
//! the same convolution (same kernel width) on a sub-grid of sampled rows.
//! Both schemes compute the same integral, so their values agree to
//! rounding; [`TOL`] is the repository's equivalence contract.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use ustencil_core::{ComputationGrid, PostProcessor, Scheme};
use ustencil_dg::DgField;
use ustencil_mesh::TriMesh;

/// Largest absolute difference accepted between two evaluations of the
/// same convolution.
pub const TOL: f64 = 1e-12;

/// Operations attempted and failed, plus the reason for each failure.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or failed a check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Counts one attempted operation.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records a failure.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 32 {
            self.failures.push(what);
        }
    }

    /// Records a failure unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }
}

/// Per-point reference values at a seeded sample of grid rows.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Sampled row indices, ascending.
    pub rows: Vec<usize>,
    /// Reference value at each sampled row.
    pub values: Vec<f64>,
}

/// `n` distinct row indices of a `len`-row grid, ascending, from `seed`.
pub fn sample_rows(len: usize, n: usize, seed: u64) -> Vec<usize> {
    let n = n.min(len);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows: Vec<usize> = Vec::with_capacity(n);
    while rows.len() < n {
        let r = (rng.random_range(0.0..1.0) * len as f64) as usize;
        if !rows.contains(&r) {
            rows.push(r);
        }
    }
    rows.sort_unstable();
    rows
}

impl Reference {
    /// Evaluates the per-point scheme at `rows` of `grid`.
    pub fn per_point(
        mesh: &TriMesh,
        field: &DgField,
        grid: &ComputationGrid,
        h_factor: f64,
        rows: Vec<usize>,
    ) -> Self {
        let sub = ComputationGrid::from_points(
            rows.iter().map(|&r| grid.points()[r]).collect(),
            rows.iter().map(|&r| grid.owners()[r]).collect(),
        );
        let values = PostProcessor::new(Scheme::PerPoint)
            .h_factor(h_factor)
            .run(mesh, field, &sub)
            .values;
        Self { rows, values }
    }

    /// Largest deviation of a full result from the reference rows
    /// (infinite when the result has the wrong length).
    pub fn max_diff(&self, values: &[f64]) -> f64 {
        self.rows
            .iter()
            .zip(&self.values)
            .map(|(&r, &v)| values.get(r).map_or(f64::INFINITY, |x| (x - v).abs()))
            .fold(0.0, max_nan)
    }

    /// Like [`max_diff`](Self::max_diff), for values already gathered at
    /// the sampled rows.
    pub fn max_diff_sampled(&self, sampled: &[f64]) -> f64 {
        if sampled.len() != self.values.len() {
            return f64::INFINITY;
        }
        max_abs_diff(sampled, &self.values)
    }
}

/// NaN-propagating max, so a NaN result can never pass a tolerance check.
fn max_nan(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else {
        a.max(b)
    }
}

/// Largest absolute elementwise difference (infinite on length mismatch,
/// NaN when either side holds a NaN).
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, max_nan)
}

/// Whether `d` is within [`TOL`] (false for NaN).
pub fn within_tol(d: f64) -> bool {
    d <= TOL
}

/// Bitwise equality of two value vectors.
pub fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Root-mean-square error of `values` against `exact` at the grid points.
pub fn rms_error(grid: &ComputationGrid, values: &[f64], exact: impl Fn(f64, f64) -> f64) -> f64 {
    if grid.len() != values.len() || values.is_empty() {
        return f64::INFINITY;
    }
    let sum: f64 = grid
        .points()
        .iter()
        .zip(values)
        .map(|(p, v)| (v - exact(p.x, p.y)).powi(2))
        .sum();
    (sum / values.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{analytic, Problem};
    use crate::trace::Tracer;
    use ustencil_mesh::{generate_mesh, MeshClass};

    fn problem() -> Problem {
        let tracer = Tracer::new(false);
        Problem::on(
            generate_mesh(MeshClass::LowVariance, 300, 5),
            1,
            2.0,
            0.1,
            &tracer,
            0,
        )
    }

    #[test]
    fn direct_result_matches_reference_and_a_perturbed_value_is_caught() {
        let pb = problem();
        let direct = PostProcessor::new(Scheme::PerElement)
            .h_factor(pb.h_factor)
            .run(&pb.mesh, &pb.field, &pb.grid)
            .values;
        let rows = sample_rows(pb.grid.len(), 8, 3);
        let reference = Reference::per_point(&pb.mesh, &pb.field, &pb.grid, pb.h_factor, rows);
        assert!(within_tol(reference.max_diff(&direct)));

        // One sampled row nudged by 1e-9 — far below any visible error,
        // far above rounding — must fail the gate.
        let mut perturbed = direct.clone();
        perturbed[reference.rows[3]] += 1e-9;
        assert!(!within_tol(reference.max_diff(&perturbed)));
        let mut nan = direct.clone();
        nan[reference.rows[0]] = f64::NAN;
        assert!(!within_tol(reference.max_diff(&nan)));
        assert!(!within_tol(reference.max_diff(&direct[1..])));

        let mut flipped = direct.clone();
        flipped[7] = f64::from_bits(flipped[7].to_bits() ^ 1);
        assert!(!bitwise_eq(&direct, &flipped));
        assert!(bitwise_eq(&direct, &direct.clone()));

        let rms = rms_error(&pb.grid, &direct, analytic(pb.shift));
        assert!(rms.is_finite() && rms > 0.0);
        let mut off = direct;
        off.iter_mut().for_each(|v| *v += 0.1);
        assert!(rms_error(&pb.grid, &off, analytic(pb.shift)) > rms);
    }

    #[test]
    fn ledger_counts_failures() {
        let mut l = Ledger::default();
        l.attempt(3);
        l.expect(true, || unreachable!());
        l.expect(false, || "bad".into());
        assert_eq!((l.attempted, l.failed), (3, 1));
    }
}
