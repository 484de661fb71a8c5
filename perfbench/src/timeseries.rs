//! `timeseries`: compile one plan, then filter many frames with it.
//!
//! A fixed low-variance p=1 mesh carries [`FRAMES`] frames of an advected
//! field. The plan is compiled (`EvalPlan::compile`), then every frame is
//! filtered by single `apply_with` calls and by `apply_many` batches of all
//! frames. This is the compile-once / apply-many path: the apply does most
//! of the work here and none in `direct`. The mesh is large enough that
//! the CSR outgrows the host's last-level cache, so the apply streams its
//! operator from memory on every call.

use crate::check::{self, Ledger, Reference};
use crate::inputs::{analytic, kernel_h_factor, mesh, project, sub_seed};
use crate::trace::Tracer;
use std::time::Instant;
use ustencil_core::ComputationGrid;
use ustencil_dg::DgField;
use ustencil_mesh::{MeshClass, TriMesh};
use ustencil_plan::{ApplyOptions, CompileOptions, EvalPlan};

/// Triangles of the time-series mesh.
pub const N_TRI: usize = 12_000;
/// Frames per batch (and per cycle).
pub const FRAMES: usize = 8;
/// Kernel scale in mean edge lengths (about the longest edge).
const H_RATIO: f64 = 2.0;
/// Advection per frame, in units of the domain.
const SHIFT_PER_FRAME: f64 = 0.05;
/// Single `apply_with` calls per cycle.
const SINGLES_PER_CYCLE: usize = 2;
/// RMS error every frame must stay within (largest value measured over
/// seeds 1–10, plus 25%).
const RMS_BOUND: f64 = 1.7e-5;
/// Grid rows checked against the per-point reference per frame.
const CHECK_ROWS: usize = 16;

/// Generated inputs.
#[derive(Debug)]
pub struct Inputs {
    /// The fixed mesh.
    pub mesh: TriMesh,
    /// Element quadrature points.
    pub grid: ComputationGrid,
    /// The frames, in time order.
    pub frames: Vec<DgField>,
    /// Kernel width factor.
    pub h_factor: f64,
}

/// Builds the seeded inputs.
pub fn setup(seed: u64, tracer: &Tracer, parent: u64) -> Inputs {
    let m = mesh(
        MeshClass::LowVariance,
        N_TRI,
        sub_seed(seed, 300),
        tracer,
        parent,
    );
    let frames = (0..FRAMES)
        .map(|t| project(&m, 1, shift(t), tracer, parent))
        .collect();
    Inputs {
        grid: ComputationGrid::quadrature_points(&m, 1),
        h_factor: kernel_h_factor(&m, 1, H_RATIO),
        mesh: m,
        frames,
    }
}

fn shift(frame: usize) -> f64 {
    SHIFT_PER_FRAME * frame as f64
}

/// Everything `timeseries` measured.
#[derive(Debug, Default)]
pub struct Out {
    /// Compile walls, seconds.
    pub compile_s: Vec<f64>,
    /// Single `apply_with` walls, milliseconds.
    pub apply_ms: Vec<f64>,
    /// `apply_many` walls divided by the batch size, milliseconds.
    pub batch_ms_per_field: Vec<f64>,
    /// CSR sweeps per batch divided by the batch size.
    pub sweeps_per_field: f64,
    /// Plan shape: rows, nnz, CSR bytes.
    pub rows: u64,
    /// Stored CSR entries.
    pub nnz: u64,
    /// In-memory CSR bytes.
    pub bytes: u64,
    /// Bytes of one frame's coefficients plus one output vector.
    pub vector_bytes: u64,
}

/// Holds the compiled plan and runs apply cycles against it, checking
/// every result outside the timed calls.
#[derive(Debug)]
pub struct Runner<'a> {
    inputs: &'a Inputs,
    compile_opts: CompileOptions,
    plan: Option<EvalPlan>,
    apply_opts: ApplyOptions,
    refs: Vec<Reference>,
    /// Warm-up single-apply result per frame: the bitwise anchor for every
    /// later apply and batch.
    anchors: Vec<Vec<f64>>,
    /// Frame the next cycle's single applies start at.
    next_frame: usize,
    /// What was measured.
    pub out: Out,
}

impl<'a> Runner<'a> {
    /// Compiles the plan (the first compile of a run is a warm-up, not
    /// timed), computes the per-point references, and applies every frame
    /// once untimed, checking each result and its RMS error and keeping it
    /// as the bitwise anchor for batches.
    pub fn new(
        inputs: &'a Inputs,
        seed: u64,
        tracer: &Tracer,
        parent: u64,
        ledger: &mut Ledger,
    ) -> Self {
        let rows = check::sample_rows(inputs.grid.len(), CHECK_ROWS, sub_seed(seed, 301));
        let refs = inputs
            .frames
            .iter()
            .map(|f| {
                Reference::per_point(&inputs.mesh, f, &inputs.grid, inputs.h_factor, rows.clone())
            })
            .collect();
        let mut runner = Self {
            inputs,
            compile_opts: CompileOptions {
                h_factor: inputs.h_factor,
                ..CompileOptions::default()
            },
            plan: None,
            apply_opts: ApplyOptions::default(),
            refs,
            anchors: Vec::with_capacity(FRAMES),
            next_frame: 0,
            out: Out::default(),
        };
        runner.compile(false, tracer, parent, ledger);
        if let Some(plan) = runner.plan.as_ref() {
            let warm = tracer.span("timeseries.warmup", "", parent);
            for (t, frame) in inputs.frames.iter().enumerate() {
                ledger.attempt(1);
                let solution = {
                    let _span = tracer.span("plan.apply_with", "", warm.id());
                    plan.apply_with(frame, &runner.apply_opts)
                };
                let d = runner.refs[t].max_diff(&solution.values);
                ledger.expect(check::within_tol(d), || {
                    format!("timeseries frame {t}: apply vs per-point differ by {d:e}")
                });
                let rms = check::rms_error(&inputs.grid, &solution.values, analytic(shift(t)));
                ledger.expect(rms <= RMS_BOUND, || {
                    format!("timeseries frame {t}: RMS error {rms:e} above recorded {RMS_BOUND:e}")
                });
                runner.anchors.push(solution.values);
            }
        }
        runner
    }

    /// Compiles the plan from scratch, replacing the current one; `timed`
    /// records its wall in `compile_s`. The shape of every compile must
    /// match: the compile is deterministic.
    pub fn compile(&mut self, timed: bool, tracer: &Tracer, parent: u64, ledger: &mut Ledger) {
        // Drop the current plan first: one CSR resident at a time.
        let recompile = self.plan.take().is_some();
        ledger.attempt(1);
        let t = Instant::now();
        let plan = {
            let _span = tracer.span("plan.compile", "", parent);
            EvalPlan::compile(&self.inputs.mesh, &self.inputs.grid, 1, &self.compile_opts)
        };
        if timed {
            self.out.compile_s.push(t.elapsed().as_secs_f64());
        }
        let shape = (plan.rows() as u64, plan.nnz() as u64, plan.bytes() as u64);
        if recompile {
            ledger.expect(
                shape == (self.out.rows, self.out.nnz, self.out.bytes),
                || format!("timeseries: recompile changed the plan shape to {shape:?}"),
            );
        }
        (self.out.rows, self.out.nnz, self.out.bytes) = shape;
        self.out.vector_bytes =
            (self.inputs.frames[0].coefficients().len() + plan.rows()) as u64 * 8;
        self.plan = Some(plan);
    }

    /// What was measured; drops the plan.
    pub fn finish(self) -> Out {
        self.out
    }

    /// One cycle: the next [`SINGLES_PER_CYCLE`] frames (in rotation)
    /// through `apply_with`, then all frames through one `apply_many`
    /// batch. A batch takes as long as eight single applies: with every
    /// frame applied singly in each cycle, the batch figure got an eighth
    /// of the samples of the single-apply one, and spread the most.
    pub fn cycle(&mut self, tracer: &Tracer, parent: u64, ledger: &mut Ledger) {
        let Some(plan) = self.plan.as_ref() else {
            return;
        };
        let cycle_span = tracer.span("timeseries.cycle", "", parent);
        for _ in 0..SINGLES_PER_CYCLE {
            let t = self.next_frame;
            self.next_frame = (t + 1) % FRAMES;
            let frame = &self.inputs.frames[t];
            ledger.attempt(1);
            let clock = Instant::now();
            let solution = {
                let _span = tracer.span("plan.apply_with", "", cycle_span.id());
                plan.apply_with(frame, &self.apply_opts)
            };
            self.out.apply_ms.push(clock.elapsed().as_secs_f64() * 1e3);
            let d = self.refs[t].max_diff(&solution.values);
            ledger.expect(check::within_tol(d), || {
                format!("timeseries frame {t}: apply vs per-point differ by {d:e}")
            });
            ledger.expect(
                check::bitwise_eq(&solution.values, &self.anchors[t]),
                || {
                    format!(
                        "timeseries frame {t}: apply_with differs bitwise from its first result"
                    )
                },
            );
        }
        ledger.attempt(FRAMES as u64);
        let clock = Instant::now();
        let batch = {
            let _span = tracer.span("plan.apply_many", "", cycle_span.id());
            plan.apply_many(&self.inputs.frames, &self.apply_opts)
        };
        self.out
            .batch_ms_per_field
            .push(clock.elapsed().as_secs_f64() * 1e3 / FRAMES as f64);
        // A result that reports its own block sweep streamed the CSR once.
        let sweeps = batch.iter().filter(|s| !s.block_stats.is_empty()).count();
        self.out.sweeps_per_field = sweeps as f64 / FRAMES as f64;
        ledger.expect(batch.len() == FRAMES, || {
            format!(
                "timeseries: apply_many returned {} of {FRAMES} results",
                batch.len()
            )
        });
        for (t, solution) in batch.iter().enumerate() {
            ledger.expect(
                check::bitwise_eq(&solution.values, &self.anchors[t]),
                || format!("timeseries frame {t}: apply_many differs bitwise from apply_with"),
            );
        }
    }
}
