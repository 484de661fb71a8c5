//! Property tests of the batched plan apply: `apply_many` streams the CSR
//! once per chunk of fields, and every field's values are *bitwise* those
//! of a per-field `apply_with` under the same options — across layouts,
//! every SIMD policy this host supports, degrees 1–3 (3, 6 and 10 modes:
//! partial, full-plus-tail and two-block mode counts on both vector
//! widths), batch sizes around the batch width, serial and parallel
//! sweeps, several block counts, and instrumentation on and off. The
//! per-result contract rides along: per-field metrics equal
//! `apply_with`'s, exactly `⌈B / W⌉` results carry block stats (one per
//! CSR pass), and each sweep's results share its wall time.

use proptest::prelude::*;
use ustencil::dg::{project_l2, DgField};
use ustencil::engine::prelude::*;
use ustencil::mesh::{generate_mesh, MeshClass};
use ustencil::plan::{ApplyOptions, CompileOptions, PlanSolution};
use ustencil::EvalPlan;

/// `B` fields derived from `base`: distinct scalings and signs, one field
/// of zeros, and a mode-dependent tilt, so no two lanes of a sweep carry
/// the same numbers.
fn batch(base: &DgField, b: usize) -> Vec<DgField> {
    (0..b)
        .map(|i| {
            let mut f = base.clone();
            let scale = if i == 1 {
                0.0
            } else {
                (1.0 + 0.31 * i as f64) * if i % 3 == 2 { -1.0 } else { 1.0 }
            };
            for (j, c) in f.coefficients_mut().iter_mut().enumerate() {
                *c = *c * scale + 1e-3 * ((i * 7 + j) % 11) as f64 * scale;
            }
            f
        })
        .collect()
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Checks one `apply_many` batch against per-field `apply_with`.
fn check_batch(
    plan: &EvalPlan,
    fields: &[DgField],
    opts: &ApplyOptions,
    what: &str,
) -> Result<(), TestCaseError> {
    let width = opts.batch_width();
    let many: Vec<PlanSolution> = plan.apply_many(fields, opts);
    prop_assert_eq!(many.len(), fields.len(), "{}: one result per field", what);
    for (i, (field, sol)) in fields.iter().zip(&many).enumerate() {
        let single = plan.apply_with(field, opts);
        prop_assert!(
            bitwise_eq(&sol.values, &single.values),
            "{}: field {} differs from apply_with",
            what,
            i
        );
        prop_assert_eq!(sol.metrics, single.metrics, "{}: field {} metrics", what, i);
        let first_of_sweep = i % width == 0;
        prop_assert_eq!(
            !sol.block_stats.is_empty(),
            first_of_sweep,
            "{}: field {} block stats",
            what,
            i
        );
        prop_assert_eq!(
            !sol.spans.is_empty(),
            first_of_sweep && opts.instrument,
            "{}: field {} spans",
            what,
            i
        );
        prop_assert_eq!(
            sol.wall,
            many[i - i % width].wall,
            "{}: field {} sweep wall",
            what,
            i
        );
    }
    let sweeps = many.iter().filter(|s| !s.block_stats.is_empty()).count();
    prop_assert_eq!(sweeps, fields.len().div_ceil(width), "{}: CSR passes", what);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn apply_many_is_bitwise_per_field_apply_with(
        seed in 0u64..1000,
        n in 60usize..140,
    ) {
        for degree in 1..=3usize {
            let mesh = generate_mesh(MeshClass::LowVariance, n, seed);
            let base = project_l2(&mesh, degree, |x, y| (x * 5.3).sin() - y * y + 0.7 * x * y, 2);
            let grid = ComputationGrid::quadrature_points(&mesh, degree);
            let h_factor = (0.9 / ((3 * degree + 1) as f64 * mesh.max_edge_length())).min(1.0);
            for layout in Layout::ALL {
                let plan = EvalPlan::compile(&mesh, &grid, degree, &CompileOptions {
                    h_factor,
                    parallel: false,
                    layout,
                    ..CompileOptions::default()
                });
                for simd in SimdPolicy::ALL {
                    // A forced width the host lacks resolves to scalar,
                    // which the explicit scalar policy already covers.
                    if matches!(simd, SimdPolicy::Forced(_)) && simd.resolve() == SimdIsa::Scalar {
                        continue;
                    }
                    let w = ApplyOptions { simd, ..ApplyOptions::default() }.batch_width();
                    let sizes = [1, 2, 3, w - 1, w, w + 1, 2 * w + 1];
                    let fields = batch(&base, 2 * w + 1);
                    for (parallel, n_blocks, instrument) in
                        [(false, 1, false), (true, 3, true), (true, 16, false), (false, 7, true)]
                    {
                        let opts = ApplyOptions { n_blocks, parallel, instrument, simd };
                        for b in sizes {
                            let what = format!(
                                "p={degree} {} {} B={b} parallel={parallel} n_blocks={n_blocks} instrument={instrument}",
                                layout.label(),
                                simd.label()
                            );
                            check_batch(&plan, &fields[..b], &opts, &what)?;
                        }
                    }
                }
            }
        }
    }
}
