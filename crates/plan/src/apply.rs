//! Applying a compiled plan to dG fields: the SpMV-style hot loop.
//!
//! Every apply entry point ([`EvalPlan::apply_with`],
//! [`EvalPlan::apply_many`], [`EvalPlan::apply_into`]) runs through one
//! sweep routine: a single pass over the CSR that evaluates a chunk of up
//! to one batch width of fields (DESIGN.md §9). One field runs the
//! modes-in-lanes row kernels; several fields run the lanes-over-fields
//! kernels, which load each weight once and feed it to every field of the
//! chunk, so a batch of `B` fields streams the CSR `⌈B / W⌉` times instead
//! of `B` times. Both kernel families keep each field's per-mode chain in
//! the same entry order and reduce it with the same fixed-order
//! expression, so every field's values are bitwise those of a single
//! apply under the same [`SimdPolicy`].

use crate::plan::EvalPlan;
use rayon::prelude::*;
use std::time::{Duration, Instant};
use ustencil_core::integrate::MAX_MODES;
use ustencil_core::{BlockStats, Metrics, Probe, SimdIsa, SimdPolicy, SimdRecord};
use ustencil_dg::DgField;
use ustencil_trace::{SpanRecord, Tracer};

/// Fields one sweep evaluates under [`SimdIsa::Scalar`]: the portable
/// batch kernel's fixed lane count.
const SCALAR_BATCH: usize = 4;

/// Fields one CSR sweep evaluates under `isa`: one vector register of
/// per-field lanes per mode. With at most [`MAX_MODES`] modes, the
/// per-mode accumulators plus one broadcast weight and one coefficient
/// load fit every ISA's register file (10 + 2 of 16 ymm, of 32 zmm), so
/// the mode count never narrows the chunk below the lane count.
fn batch_width(isa: SimdIsa) -> usize {
    match isa {
        SimdIsa::Scalar => SCALAR_BATCH,
        _ => isa.lanes(),
    }
}

/// Configuration of a plan apply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApplyOptions {
    /// Concurrent row blocks (default 16, matching the engine).
    pub n_blocks: usize,
    /// Whether to apply blocks on worker threads (default true).
    pub parallel: bool,
    /// Whether to record spans and per-row entry-count probes (default
    /// false; off, the hot loop pays only its counter increments).
    pub instrument: bool,
    /// SIMD dispatch policy of the row kernel (default
    /// [`SimdPolicy::Auto`]: widest ISA the host supports).
    pub simd: SimdPolicy,
}

impl Default for ApplyOptions {
    fn default() -> Self {
        Self {
            n_blocks: 16,
            parallel: true,
            instrument: false,
            simd: SimdPolicy::Auto,
        }
    }
}

impl ApplyOptions {
    /// Fields one CSR sweep of [`EvalPlan::apply_many`] evaluates under
    /// these options: the resolved ISA's lane count (8 on AVX-512, 4 on
    /// AVX2) or 4 under the scalar policy. A batch of `B` fields costs
    /// `⌈B / batch_width⌉` passes over the CSR.
    pub fn batch_width(&self) -> usize {
        batch_width(self.simd.resolve())
    }
}

/// Result of applying a plan to one field.
///
/// Fields evaluated by one CSR sweep (a chunk of
/// [`apply_many`](EvalPlan::apply_many), or a single
/// [`apply_with`](EvalPlan::apply_with)) share the sweep's cost, and the
/// results say so:
///
/// - `metrics` are the field's own work counters, exactly what
///   `apply_with` reports for that field, whichever sweep ran it;
/// - `block_stats` and `spans` ride on the *first* result of each sweep
///   only (the others carry empty vectors), so the results with non-empty
///   `block_stats` count CSR passes;
/// - `wall` is the whole sweep's wall time, carried by every result of it.
#[derive(Debug, Clone)]
pub struct PlanSolution {
    /// Post-processed value at each grid point (one per plan row).
    pub values: Vec<f64>,
    /// Aggregated work counters of this field's apply.
    pub metrics: Metrics,
    /// Per-block stats of the sweep (wall time, owned rows, entry-count
    /// probes; counters are one field's share, so they sum to `metrics`).
    /// Empty unless this is the sweep's first result.
    pub block_stats: Vec<BlockStats>,
    /// Phase spans of the sweep (empty unless instrumented, and empty
    /// unless this is the sweep's first result).
    pub spans: Vec<SpanRecord>,
    /// Wall-clock time of the sweep that produced this result.
    pub wall: Duration,
    /// SIMD dispatch summary: requested policy, resolved ISA, achieved
    /// fraction of nominal peak over the sweep's flops and wall time.
    pub simd: SimdRecord,
}

impl PlanSolution {
    /// Maximum absolute difference against another value vector (e.g. a
    /// direct [`Solution::values`](ustencil_core::Solution)).
    pub fn max_abs_diff(&self, other: &[f64]) -> f64 {
        self.values
            .iter()
            .zip(other)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl EvalPlan {
    /// Applies the plan to `field` with default options (16 blocks,
    /// parallel, uninstrumented).
    ///
    /// # Panics
    /// Panics when the field's degree or element count does not match the
    /// plan.
    pub fn apply(&self, field: &DgField) -> PlanSolution {
        self.apply_with(field, &ApplyOptions::default())
    }

    /// Applies the plan to `field` with explicit options.
    ///
    /// The row kernel dispatches on [`ApplyOptions::simd`]:
    /// [`SimdPolicy::Scalar`] runs the pre-SIMD per-mode lane loop
    /// byte-for-byte (bitwise-stable against historical golden vectors),
    /// vector ISAs agree with it to ≤1e-12.
    ///
    /// ```
    /// use ustencil_core::{ComputationGrid, SimdPolicy};
    /// use ustencil_dg::project_l2;
    /// use ustencil_mesh::{generate_mesh, MeshClass};
    /// use ustencil_plan::{ApplyOptions, CompileOptions, EvalPlan};
    ///
    /// let mesh = generate_mesh(MeshClass::LowVariance, 60, 9);
    /// let field = project_l2(&mesh, 1, |x, y| x - 0.5 * y, 0);
    /// let grid = ComputationGrid::quadrature_points(&mesh, 1);
    /// let opts = CompileOptions {
    ///     h_factor: 0.25,
    ///     parallel: false,
    ///     ..CompileOptions::default()
    /// };
    /// let plan = EvalPlan::compile(&mesh, &grid, 1, &opts);
    ///
    /// // The scalar policy is the bit-compatibility anchor: whatever ISA
    /// // `Auto` picks on this host, forcing Scalar reproduces the exact
    /// // pre-SIMD arithmetic, and the vector result stays within 1e-12.
    /// let scalar = plan.apply_with(&field, &ApplyOptions {
    ///     simd: SimdPolicy::Scalar,
    ///     parallel: false,
    ///     ..ApplyOptions::default()
    /// });
    /// let auto = plan.apply_with(&field, &ApplyOptions {
    ///     parallel: false,
    ///     ..ApplyOptions::default()
    /// });
    /// assert_eq!(scalar.simd.isa, "scalar");
    /// assert!(auto.max_abs_diff(&scalar.values) <= 1e-12);
    /// ```
    ///
    /// # Panics
    /// Panics when the field's degree or element count does not match the
    /// plan.
    pub fn apply_with(&self, field: &DgField, options: &ApplyOptions) -> PlanSolution {
        self.solve(&[field], options)
            .pop()
            .expect("a sweep returns one result per field")
    }

    /// Applies the plan to a batch of fields (e.g. the timesteps of a
    /// simulation), streaming the CSR once per chunk of fields: 8 fields
    /// per pass on AVX-512, 4 on AVX2 and under the scalar policy. Each
    /// field's values are bitwise those of [`apply_with`](Self::apply_with)
    /// under the same options; see [`PlanSolution`] for how the results
    /// share each sweep's stats and wall time.
    ///
    /// # Panics
    /// Panics when any field's degree or element count does not match the
    /// plan.
    pub fn apply_many(&self, fields: &[DgField], options: &ApplyOptions) -> Vec<PlanSolution> {
        let fields: Vec<&DgField> = fields.iter().collect();
        fields
            .chunks(options.batch_width())
            .flat_map(|chunk| self.solve(chunk, options))
            .collect()
    }

    /// The bare SpMV: writes values into a caller-provided buffer, with no
    /// spans, probes or output allocation — the serve-time fast path. It
    /// runs the same sweep as [`apply_with`](Self::apply_with), on one
    /// thread under [`SimdPolicy::Auto`]; reordered plans also allocate
    /// the coefficient gather and the internally ordered rows.
    ///
    /// # Panics
    /// Panics when the field does not match the plan or `out` is not
    /// exactly [`rows`](EvalPlan::rows) long.
    pub fn apply_into(&self, field: &DgField, out: &mut [f64]) {
        assert_eq!(out.len(), self.rows(), "output buffer/plan row mismatch");
        let options = ApplyOptions {
            n_blocks: 1,
            parallel: false,
            instrument: false,
            simd: SimdPolicy::Auto,
        };
        let isa = options.simd.resolve();
        self.sweep(&[field], &mut [out], &options, isa, &Tracer::disabled());
    }

    /// Applies only the named rows of a natural-layout plan, writing row
    /// `r`'s value into `out[r]` and leaving every other slot untouched.
    /// Each named row runs the same per-row dot product as a full
    /// apply, so a partition of the rows into subset calls reproduces
    /// `apply_with`'s values *bitwise* — the property the distributed
    /// runtime's interior/frontier overlap split rests on. Rows are swept
    /// in the order given, chunked into at most `n_blocks` uniform blocks
    /// for per-block stats; counters sum exactly across a row partition.
    ///
    /// # Panics
    /// Panics when the field does not match the plan, the plan's layout
    /// permutes rows (subset slots would be ambiguous), or `out` is not
    /// exactly [`rows`](EvalPlan::rows) long.
    pub fn apply_rows_into(
        &self,
        rows: &[u32],
        field: &DgField,
        out: &mut [f64],
        n_blocks: usize,
        simd: SimdPolicy,
    ) -> Vec<BlockStats> {
        self.check_field(field);
        assert!(
            !self.layout.reorders(),
            "row-subset apply requires a layout that keeps natural row order"
        );
        assert_eq!(out.len(), self.rows(), "output buffer/plan row mismatch");
        let isa = simd.resolve();
        let coeffs = field.coefficients();
        let n = rows.len();
        if n == 0 {
            return Vec::new();
        }
        let n_blocks = n_blocks.clamp(1, n);
        (0..n_blocks)
            .map(|b| (b * n / n_blocks, (b + 1) * n / n_blocks))
            .map(|(s, e)| {
                let block_start = Instant::now();
                let mut metrics = Metrics::default();
                for &r in &rows[s..e] {
                    let r = r as usize;
                    out[r] = self.row_dot(r, coeffs, isa);
                    self.count_row(r, &mut metrics);
                }
                metrics.partial_slots += (e - s) as u64;
                BlockStats {
                    metrics,
                    wall_ns: block_start.elapsed().as_nanos() as u64,
                    elements: 0,
                    points: (e - s) as u64,
                    probe: Probe::disabled(),
                }
            })
            .collect()
    }

    /// Runs one sweep over `fields` (at most one batch width of them) and
    /// packages one [`PlanSolution`] per field, under the contract
    /// documented there.
    fn solve(&self, fields: &[&DgField], options: &ApplyOptions) -> Vec<PlanSolution> {
        let isa = options.simd.resolve();
        let start = Instant::now();
        let tracer = Tracer::new(options.instrument);
        let mut values: Vec<Vec<f64>> = fields.iter().map(|_| vec![0.0; self.rows()]).collect();
        let block_stats = {
            let mut outs: Vec<&mut [f64]> = values.iter_mut().map(Vec::as_mut_slice).collect();
            self.sweep(fields, &mut outs, options, isa, &tracer)
        };
        let wall = start.elapsed();
        let metrics = Metrics::sum(block_stats.iter().map(|s| &s.metrics));
        let simd = SimdRecord::measured(
            options.simd,
            isa,
            metrics.flops * fields.len() as u64,
            wall.as_secs_f64(),
        );
        let mut block_stats = Some(block_stats);
        let mut spans = Some(tracer.into_records());
        values
            .into_iter()
            .map(|values| PlanSolution {
                values,
                metrics,
                block_stats: block_stats.take().unwrap_or_default(),
                spans: spans.take().unwrap_or_default(),
                wall,
                simd: simd.clone(),
            })
            .collect()
    }

    /// The one CSR sweep behind every apply: evaluates every row of the
    /// plan for each of `fields`, writing field `f`'s values (in caller
    /// point order) into `outs[f]`, and returns one [`BlockStats`] per row
    /// block with one field's counters.
    ///
    /// One field reads its coefficients in place (natural layout) or
    /// gathered into permuted slots, and writes natural-layout rows
    /// straight into its output. Several fields are gathered interleaved,
    /// `[slot][mode][lane]` with zero-padded lanes, and their rows are
    /// staged `[row][lane]` and scattered back afterwards. Either way the
    /// row blocks split the output into disjoint slices, so workers never
    /// share a write.
    fn sweep(
        &self,
        fields: &[&DgField],
        outs: &mut [&mut [f64]],
        options: &ApplyOptions,
        isa: SimdIsa,
        tracer: &Tracer,
    ) -> Vec<BlockStats> {
        for field in fields {
            self.check_field(field);
        }
        let lanes = if fields.len() == 1 {
            1
        } else {
            batch_width(isa)
        };
        assert!(
            !fields.is_empty() && fields.len() <= lanes && outs.len() == fields.len(),
            "a sweep takes one to {lanes} fields and one output per field"
        );

        // Only a single natural-layout field reads and writes in place.
        let staged = lanes > 1 || self.layout.reorders();
        let gathered = staged.then(|| {
            let _span = tracer.span("apply.gather");
            self.gather_coeffs(fields, lanes)
        });
        let coeffs: &[f64] = gathered
            .as_deref()
            .unwrap_or_else(|| fields[0].coefficients());
        let mut staging = if staged {
            vec![0.0; self.rows() * lanes]
        } else {
            Vec::new()
        };
        let bounds = self.row_blocks(options.n_blocks);
        let block_stats: Vec<BlockStats> = {
            let _span = tracer.span("apply.spmv");
            let mut rest: &mut [f64] = if staged { &mut staging } else { &mut *outs[0] };
            let mut slices: Vec<&mut [f64]> = Vec::with_capacity(bounds.len());
            for &(s, e) in &bounds {
                let (head, tail) = rest.split_at_mut((e - s) * lanes);
                slices.push(head);
                rest = tail;
            }
            let block = |(&(s, e), slice): (&(usize, usize), &mut [f64])| -> BlockStats {
                let block_start = Instant::now();
                let mut probe = Probe::new(options.instrument);
                let metrics = self.sweep_rows(s, e, coeffs, lanes, slice, isa, &mut probe);
                BlockStats {
                    metrics,
                    wall_ns: block_start.elapsed().as_nanos() as u64,
                    elements: 0,
                    points: (e - s) as u64,
                    probe,
                }
            };
            if options.parallel {
                bounds.par_iter().zip(slices).map(block).collect()
            } else {
                bounds.iter().zip(slices).map(block).collect()
            }
        };

        if staged {
            let _span = tracer.span("apply.scatter");
            self.scatter_rows(&staging, lanes, outs);
        }
        block_stats
    }

    /// Row blocks of a sweep. Blocked layouts sweep cache-sized row tiles
    /// (work-stealing units whose coefficient span fits in L2); other
    /// layouts split the rows into `n_blocks` uniform chunks. Either way
    /// the per-row arithmetic order is identical.
    fn row_blocks(&self, n_blocks: usize) -> Vec<(usize, usize)> {
        if self.layout.blocked() && self.tiles.len() >= 2 {
            return self
                .tiles
                .windows(2)
                .map(|w| (w[0] as usize, w[1] as usize))
                .collect();
        }
        let n = self.rows();
        let n_blocks = n_blocks.clamp(1, n.max(1));
        (0..n_blocks)
            .map(|b| (b * n / n_blocks, (b + 1) * n / n_blocks))
            .collect()
    }

    /// Lays the fields' coefficients out for a sweep: slot `c` (element
    /// `col_perm[c]` of a reordered plan, element `c` otherwise), mode
    /// `m`, field `f` lands at `(c * n_modes + m) * lanes + f`. Lanes past
    /// the last field stay zero.
    fn gather_coeffs(&self, fields: &[&DgField], lanes: usize) -> Vec<f64> {
        let nm = self.n_modes;
        let mut out = vec![0.0; self.n_elements * nm * lanes];
        for (f, field) in fields.iter().enumerate() {
            let src = field.coefficients();
            for slot in 0..self.n_elements {
                let old = if self.layout.reorders() {
                    self.col_perm[slot] as usize
                } else {
                    slot
                };
                for m in 0..nm {
                    out[(slot * nm + m) * lanes + f] = src[old * nm + m];
                }
            }
        }
        out
    }

    /// Scatters staged rows (`[row][lane]`, internal row order) back to
    /// each field's output in original point order.
    fn scatter_rows(&self, staged: &[f64], lanes: usize, outs: &mut [&mut [f64]]) {
        for r in 0..self.rows() {
            let p = if self.layout.reorders() {
                self.row_perm[r] as usize
            } else {
                r
            };
            for (f, out) in outs.iter_mut().enumerate() {
                out[p] = staged[r * lanes + f];
            }
        }
    }

    fn check_field(&self, field: &DgField) {
        assert!(
            self.n_modes <= MAX_MODES,
            "plan exceeds the row kernels' {MAX_MODES}-mode budget"
        );
        assert_eq!(
            field.degree(),
            self.degree,
            "field degree does not match the plan"
        );
        assert_eq!(
            field.n_elements(),
            self.n_elements,
            "field element count does not match the plan"
        );
    }

    /// Charges row `r`'s work for one field to `metrics`.
    #[inline]
    fn count_row(&self, r: usize, metrics: &mut Metrics) {
        let (lo, hi) = self.row_range(r);
        let entries = (hi - lo) as u64;
        metrics.solution_writes += 1;
        metrics.elem_data_loads += entries * self.n_modes as u64;
        metrics.flops += 2 * entries * self.n_modes as u64;
    }

    /// Evaluates rows `[start, end)` into `out` (`(end - start) * lanes`
    /// values, `[row][lane]`), returning one field's counters.
    #[allow(clippy::too_many_arguments)]
    fn sweep_rows(
        &self,
        start: usize,
        end: usize,
        coeffs: &[f64],
        lanes: usize,
        out: &mut [f64],
        isa: SimdIsa,
        probe: &mut Probe,
    ) -> Metrics {
        let mut metrics = Metrics::default();
        for (slot, r) in (start..end).enumerate() {
            if lanes == 1 {
                out[slot] = self.row_dot(r, coeffs, isa);
            } else {
                self.row_dot_batch(r, coeffs, isa, &mut out[slot * lanes..(slot + 1) * lanes]);
            }
            let (lo, hi) = self.row_range(r);
            // Row entries are this scheme's "candidates": the histogram
            // shows how many stored elements each output point reads.
            probe.record_candidates((hi - lo) as u64);
            self.count_row(r, &mut metrics);
        }
        metrics.partial_slots += (end - start) as u64;
        metrics
    }

    /// One row's dot product against `coeffs`, dispatched on the resolved
    /// SIMD ISA. The scalar arm is byte-for-byte the historical per-mode
    /// lane kernel, so `SimdPolicy::Scalar` reproduces pre-SIMD results
    /// bitwise. The vector arms keep the same shape — independent per-mode
    /// accumulator chains, reduced in a fixed order at the end — so every
    /// ISA stays deterministic and bitwise identical across layouts
    /// (each layout stores a row's entries in the same sequence), while
    /// agreeing with the scalar arm to rounding (`≤ 1e-12`).
    #[inline]
    fn row_dot(&self, r: usize, coeffs: &[f64], isa: SimdIsa) -> f64 {
        match isa {
            SimdIsa::Scalar => self.row_dot_scalar(r, coeffs),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `resolve` only yields these ISAs when the CPU
            // reports the matching feature flags.
            SimdIsa::Avx2 => unsafe { self.row_dot_avx2(r, coeffs) },
            #[cfg(target_arch = "x86_64")]
            SimdIsa::Avx512 => unsafe { self.row_dot_avx512(r, coeffs) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => self.row_dot_scalar(r, coeffs),
        }
    }

    /// The portable row kernel, accumulated in per-mode lanes. The lanes
    /// break the single-accumulator FMA dependency chain (the former
    /// hot-loop bottleneck: one serial add per mode-entry) into `n_modes`
    /// independent chains the CPU can overlap and auto-vectorize.
    #[inline]
    fn row_dot_scalar(&self, r: usize, coeffs: &[f64]) -> f64 {
        // Pick the narrowest lane array that holds n_modes, so the per-row
        // lane reset and reduction don't pay for unused slots. The branch
        // is perfectly predicted (n_modes is fixed per plan).
        match self.n_modes {
            1..=4 => self.row_dot_lanes::<4>(r, coeffs),
            5..=8 => self.row_dot_lanes::<8>(r, coeffs),
            _ => self.row_dot_lanes::<MAX_MODES>(r, coeffs),
        }
    }

    #[inline]
    fn row_dot_lanes<const L: usize>(&self, r: usize, coeffs: &[f64]) -> f64 {
        let nm = self.n_modes;
        debug_assert!(nm <= L);
        let (lo, hi) = self.row_range(r);
        let mut lane = [0.0f64; L];
        for e in lo..hi {
            let w = &self.weights[e * nm..(e + 1) * nm];
            let col = self.cols[e] as usize;
            let c = &coeffs[col * nm..col * nm + nm];
            for m in 0..nm {
                lane[m] += w[m] * c[m];
            }
        }
        lane[..nm].iter().sum()
    }

    /// AVX2+FMA row kernel: the mode dimension is batched into 4-wide
    /// vector lanes, one accumulator vector per 4-mode block (so the
    /// per-mode chains stay independent, exactly like the scalar lanes),
    /// with a fault-suppressing `maskload` for the `n_modes % 4` tail.
    /// The whole entries loop lives inside one `#[target_feature]` body —
    /// per-entry calls into a feature-gated function would block inlining
    /// and cost a dynamic-dispatch-sized penalty per CSR entry.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn row_dot_avx2(&self, r: usize, coeffs: &[f64]) -> f64 {
        use core::arch::x86_64::*;
        let nm = self.n_modes;
        let (lo, hi) = self.row_range(r);
        let full = nm / 4;
        let rem = nm % 4;
        let mut acc = [_mm256_setzero_pd(); MAX_MODES / 4];
        let mut tail_acc = _mm256_setzero_pd();
        // -1 in a lane's high bit enables the load; maskload suppresses
        // faults on the disabled lanes, so reading past a row's final
        // entry-slice is safe even at the end of the weights buffer.
        let mask = match rem {
            1 => _mm256_setr_epi64x(-1, 0, 0, 0),
            2 => _mm256_setr_epi64x(-1, -1, 0, 0),
            3 => _mm256_setr_epi64x(-1, -1, -1, 0),
            _ => _mm256_setzero_si256(),
        };
        for e in lo..hi {
            let w = self.weights.as_ptr().add(e * nm);
            let c = coeffs.as_ptr().add(self.cols[e] as usize * nm);
            for (b, a) in acc.iter_mut().enumerate().take(full) {
                let wv = _mm256_loadu_pd(w.add(b * 4));
                let cv = _mm256_loadu_pd(c.add(b * 4));
                *a = _mm256_fmadd_pd(wv, cv, *a);
            }
            if rem != 0 {
                let wv = _mm256_maskload_pd(w.add(full * 4), mask);
                let cv = _mm256_maskload_pd(c.add(full * 4), mask);
                tail_acc = _mm256_fmadd_pd(wv, cv, tail_acc);
            }
        }
        // Fixed-order reduction: block order, then `(l0+l1)+(l2+l3)`
        // within each block — deterministic for a given ISA.
        let mut total = 0.0;
        let mut lanes = [0.0f64; 4];
        for a in acc.iter().take(full) {
            _mm256_storeu_pd(lanes.as_mut_ptr(), *a);
            total += (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        }
        if rem != 0 {
            _mm256_storeu_pd(lanes.as_mut_ptr(), tail_acc);
            total += (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        }
        total
    }

    /// AVX-512 row kernel: 8-wide mode blocks with a `maskz` tail load
    /// (`__mmask8` of the low `n_modes % 8` lanes). Same accumulator and
    /// reduction discipline as [`Self::row_dot_avx2`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn row_dot_avx512(&self, r: usize, coeffs: &[f64]) -> f64 {
        use core::arch::x86_64::*;
        let nm = self.n_modes;
        let (lo, hi) = self.row_range(r);
        let full = nm / 8;
        let rem = nm % 8;
        let mut acc = [_mm512_setzero_pd(); MAX_MODES / 8];
        let mut tail_acc = _mm512_setzero_pd();
        let mask: __mmask8 = (1u8 << rem).wrapping_sub(1);
        for e in lo..hi {
            let w = self.weights.as_ptr().add(e * nm);
            let c = coeffs.as_ptr().add(self.cols[e] as usize * nm);
            for (b, a) in acc.iter_mut().enumerate().take(full) {
                let wv = _mm512_loadu_pd(w.add(b * 8));
                let cv = _mm512_loadu_pd(c.add(b * 8));
                *a = _mm512_fmadd_pd(wv, cv, *a);
            }
            if rem != 0 {
                let wv = _mm512_maskz_loadu_pd(mask, w.add(full * 8));
                let cv = _mm512_maskz_loadu_pd(mask, c.add(full * 8));
                tail_acc = _mm512_fmadd_pd(wv, cv, tail_acc);
            }
        }
        let mut total = 0.0;
        let mut lanes = [0.0f64; 8];
        for a in acc.iter().take(full) {
            _mm512_storeu_pd(lanes.as_mut_ptr(), *a);
            total += ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
                + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
        }
        if rem != 0 {
            _mm512_storeu_pd(lanes.as_mut_ptr(), tail_acc);
            total += ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
                + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
        }
        total
    }

    /// One row for a chunk of fields: `coeffs` is interleaved
    /// `[slot][mode][lane]` and `out` receives one value per lane. Lanes
    /// are fields: each weight is loaded once, broadcast, and fused into
    /// every field's accumulator for that mode. Each lane then runs
    /// exactly the single-field kernel's arithmetic for its field — the
    /// same per-mode chain in the same entry order (`fma` on vector ISAs,
    /// `mul` then `add` on scalar) and the same fixed-order reduction,
    /// zero-padded modes included — so the values are bitwise those of
    /// [`Self::row_dot`] under the same ISA.
    #[inline]
    fn row_dot_batch(&self, r: usize, coeffs: &[f64], isa: SimdIsa, out: &mut [f64]) {
        // The vector arms store a full register of lanes into `out`.
        assert_eq!(out.len(), batch_width(isa), "one output slot per lane");
        match isa {
            SimdIsa::Scalar => self.row_dot_batch_scalar(r, coeffs, out),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `row_dot` for the CPU features; `out` holds
            // one value per lane (asserted above), and the sweep gathered
            // `coeffs` with `n_modes` lanes-wide blocks per element slot,
            // every column being a valid slot.
            SimdIsa::Avx2 => unsafe { self.row_dot_batch_avx2(r, coeffs, out) },
            #[cfg(target_arch = "x86_64")]
            SimdIsa::Avx512 => unsafe { self.row_dot_batch_avx512(r, coeffs, out) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => self.row_dot_batch_scalar(r, coeffs, out),
        }
    }

    /// Portable batch kernel: [`SCALAR_BATCH`] fields per row, each lane
    /// the `mul`-then-`add` chain and left-to-right mode sum of
    /// [`Self::row_dot_lanes`].
    #[inline]
    fn row_dot_batch_scalar(&self, r: usize, coeffs: &[f64], out: &mut [f64]) {
        const L: usize = SCALAR_BATCH;
        let nm = self.n_modes;
        let (lo, hi) = self.row_range(r);
        let mut acc = [[0.0f64; L]; MAX_MODES];
        for e in lo..hi {
            let w = &self.weights[e * nm..(e + 1) * nm];
            let col = self.cols[e] as usize;
            let c = &coeffs[col * nm * L..(col + 1) * nm * L];
            for (m, a) in acc.iter_mut().enumerate().take(nm) {
                let cm = &c[m * L..(m + 1) * L];
                for f in 0..L {
                    a[f] += w[m] * cm[f];
                }
            }
        }
        for (f, o) in out.iter_mut().enumerate() {
            *o = acc[..nm].iter().map(|a| a[f]).sum();
        }
    }

    /// AVX2+FMA batch kernel: 4 fields per row, one accumulator vector
    /// per mode. The reduction is [`Self::row_dot_avx2`]'s, lane-wise:
    /// 4-mode blocks in order, `(m0+m1)+(m2+m3)` within each, modes past
    /// `n_modes` contributing the zeros its masked tail loads.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA, `out` must hold 4 values, and
    /// `coeffs` must hold `n_modes * 4` values for every element slot the
    /// row's columns name.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn row_dot_batch_avx2(&self, r: usize, coeffs: &[f64], out: &mut [f64]) {
        use core::arch::x86_64::*;
        const L: usize = 4;
        let nm = self.n_modes;
        let (lo, hi) = self.row_range(r);
        let mut acc = [_mm256_setzero_pd(); MAX_MODES.next_multiple_of(L)];
        for e in lo..hi {
            let w = self.weights.as_ptr().add(e * nm);
            let c = coeffs.as_ptr().add(self.cols[e] as usize * nm * L);
            for (m, a) in acc.iter_mut().enumerate().take(nm) {
                let wv = _mm256_set1_pd(*w.add(m));
                let cv = _mm256_loadu_pd(c.add(m * L));
                *a = _mm256_fmadd_pd(wv, cv, *a);
            }
        }
        let mut total = _mm256_setzero_pd();
        for q in acc[..nm.next_multiple_of(L)].chunks_exact(L) {
            let block = _mm256_add_pd(_mm256_add_pd(q[0], q[1]), _mm256_add_pd(q[2], q[3]));
            total = _mm256_add_pd(total, block);
        }
        _mm256_storeu_pd(out.as_mut_ptr(), total);
    }

    /// AVX-512 batch kernel: 8 fields per row, one accumulator vector per
    /// mode, reduced like [`Self::row_dot_avx512`]: 8-mode blocks in
    /// order, `((m0+m1)+(m2+m3))+((m4+m5)+(m6+m7))` within each.
    ///
    /// # Safety
    /// The CPU must support AVX-512F, `out` must hold 8 values, and
    /// `coeffs` must hold `n_modes * 8` values for every element slot the
    /// row's columns name.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn row_dot_batch_avx512(&self, r: usize, coeffs: &[f64], out: &mut [f64]) {
        use core::arch::x86_64::*;
        const L: usize = 8;
        let nm = self.n_modes;
        let (lo, hi) = self.row_range(r);
        let mut acc = [_mm512_setzero_pd(); MAX_MODES.next_multiple_of(L)];
        for e in lo..hi {
            let w = self.weights.as_ptr().add(e * nm);
            let c = coeffs.as_ptr().add(self.cols[e] as usize * nm * L);
            for (m, a) in acc.iter_mut().enumerate().take(nm) {
                let wv = _mm512_set1_pd(*w.add(m));
                let cv = _mm512_loadu_pd(c.add(m * L));
                *a = _mm512_fmadd_pd(wv, cv, *a);
            }
        }
        let mut total = _mm512_setzero_pd();
        for q in acc[..nm.next_multiple_of(L)].chunks_exact(L) {
            let low = _mm512_add_pd(_mm512_add_pd(q[0], q[1]), _mm512_add_pd(q[2], q[3]));
            let high = _mm512_add_pd(_mm512_add_pd(q[4], q[5]), _mm512_add_pd(q[6], q[7]));
            total = _mm512_add_pd(total, _mm512_add_pd(low, high));
        }
        _mm512_storeu_pd(out.as_mut_ptr(), total);
    }
}
