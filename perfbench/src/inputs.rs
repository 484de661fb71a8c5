//! Seeded input generation shared by the workloads.
//!
//! The benchmark derives every mesh, field and request stream from the
//! `--seed` argument; the program under test only ever sees the generated
//! inputs. Setup calls are wrapped in `mesh.generate`, `mesh.edit` and
//! `dg.project` spans, the per-layer figures that explain `setup_s`.

use crate::trace::Tracer;
use ustencil_core::ComputationGrid;
use ustencil_dg::{project_l2, DgField};
use ustencil_mesh::{generate_mesh, refine_elements, MeshClass, TriMesh};

/// Extra projection strength for the smooth analytic field (as in the
/// repository's own experiment harness).
const PROJECT_EXTRA: usize = 4;

/// SplitMix64 finalizer: decorrelates derived seeds.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed for input `tag` of run seed `seed`.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    mix(mix(seed) ^ tag)
}

/// The analytic field every workload filters, translated by `shift` in x:
/// `sin(2π(x + shift)) cos(2πy) + 1/2`.
pub fn analytic(shift: f64) -> impl Fn(f64, f64) -> f64 + Copy {
    move |x, y| {
        let tau = std::f64::consts::TAU;
        (tau * (x + shift)).sin() * (tau * y).cos() + 0.5
    }
}

/// Mean edge length (each triangle's three edges, shared edges counted
/// twice).
fn mean_edge(mesh: &TriMesh) -> f64 {
    let vs = mesh.vertices();
    let tris = mesh.triangle_indices();
    let sum: f64 = tris
        .iter()
        .map(|t| {
            (0..3)
                .map(|k| vs[t[k] as usize].distance(vs[t[(k + 1) % 3] as usize]))
                .sum::<f64>()
        })
        .sum();
    sum / (3 * tris.len()).max(1) as f64
}

/// Kernel width factor for a kernel scale of `ratio` mean edge lengths,
/// capped so the degree-`p` stencil stays inside the periodic unit square.
///
/// The schemes scale the kernel as `h = h_factor * max_edge`. The longest
/// edge is an extreme statistic that swings by several percent from seed to
/// seed, and the work per evaluation grows with `h²`; pinning `h` to the
/// mean edge (stable to within 1%) keeps the work of one operation the same
/// for every seed, so seeds vary the inputs without varying the cost.
pub fn kernel_h_factor(mesh: &TriMesh, p: usize, ratio: f64) -> f64 {
    let h = (ratio * mean_edge(mesh)).min(0.98 / (3 * p + 1) as f64);
    h / mesh.max_edge_length()
}

/// One filtering problem: mesh, projected field, quadrature-point grid.
#[derive(Debug, Clone)]
pub struct Problem {
    /// The mesh.
    pub mesh: TriMesh,
    /// Degree-`p` projection of [`analytic`]`(shift)`.
    pub field: DgField,
    /// Element quadrature points.
    pub grid: ComputationGrid,
    /// Kernel width factor used by every scheme on this problem.
    pub h_factor: f64,
    /// Field translation.
    pub shift: f64,
}

/// Generates a seeded mesh under a `mesh.generate` span.
pub fn mesh(class: MeshClass, n_tri: usize, seed: u64, tracer: &Tracer, parent: u64) -> TriMesh {
    let _span = tracer.span("mesh.generate", "", parent);
    generate_mesh(class, n_tri, seed)
}

/// Midpoint-refines `elements` of `base` under a `mesh.edit` span.
pub fn edit(base: &TriMesh, elements: &[u32], tracer: &Tracer, parent: u64) -> TriMesh {
    let _span = tracer.span("mesh.edit", "", parent);
    refine_elements(base, elements)
}

/// Projects [`analytic`]`(shift)` onto `mesh` under a `dg.project` span.
pub fn project(mesh: &TriMesh, p: usize, shift: f64, tracer: &Tracer, parent: u64) -> DgField {
    let _span = tracer.span("dg.project", "", parent);
    project_l2(mesh, p, analytic(shift), PROJECT_EXTRA)
}

impl Problem {
    /// Field and grid for `mesh` at degree `p`, with a kernel of `ratio`
    /// mean edge lengths (see [`kernel_h_factor`]).
    pub fn on(
        mesh: TriMesh,
        p: usize,
        ratio: f64,
        shift: f64,
        tracer: &Tracer,
        parent: u64,
    ) -> Self {
        let field = project(&mesh, p, shift, tracer, parent);
        let grid = ComputationGrid::quadrature_points(&mesh, p);
        let h_factor = kernel_h_factor(&mesh, p, ratio);
        Self {
            mesh,
            field,
            grid,
            h_factor,
            shift,
        }
    }
}
