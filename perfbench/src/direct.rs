//! `direct`: filter one field from scratch, with no reuse.
//!
//! The per-element scheme (`PostProcessor::run`) runs on three inputs that
//! load the traversal differently — a low-variance mesh at p=1 (baseline),
//! a high-variance mesh at p=1 (graded elements: more candidate tests and
//! clips per point) and a low-variance mesh at p=2 (more quadrature and
//! reduce work per sub-region). The low-variance p=1 input is also sharded
//! over two ranks through both runtime paths: `run_dist` (halo push, then
//! per-element evaluation) and `run_plan_dist` (per-rank plan compile,
//! then apply). The traversal does almost all the work here; plan apply and
//! the serve layer do none.

use crate::check::{self, Ledger, Reference};
use crate::inputs::{analytic, mesh, sub_seed, Problem};
use crate::trace::Tracer;
use std::time::Instant;
use ustencil_core::{Metrics, PostProcessor, Scheme};
use ustencil_dist::{run_dist, run_plan_dist, DistOptions, RankReport, HEADER_BYTES};
use ustencil_mesh::MeshClass;
use ustencil_trace::CommStats;

/// One per-element case.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// Label used in metric names.
    pub label: &'static str,
    /// Mesh class.
    pub class: MeshClass,
    /// Target triangles.
    pub n_tri: usize,
    /// Polynomial degree.
    pub p: usize,
    /// Kernel scale in mean edge lengths: about the longest edge, the
    /// paper's `h`, for each class (capped by the domain).
    pub h_ratio: f64,
    /// RMS error against the analytic field the result must stay within
    /// (the largest value measured over seeds 1–10, plus 25%).
    pub rms_bound: f64,
}

/// The three per-element cases.
pub const CASES: [Case; 3] = [
    Case {
        label: "lv_p1",
        class: MeshClass::LowVariance,
        n_tri: 600,
        p: 1,
        h_ratio: 2.0,
        rms_bound: 6.6e-3,
    },
    Case {
        label: "hv_p1",
        class: MeshClass::HighVariance,
        n_tri: 200,
        p: 1,
        h_ratio: 4.7,
        rms_bound: 6.4e-2,
    },
    Case {
        label: "lv_p2",
        class: MeshClass::LowVariance,
        n_tri: 100,
        p: 2,
        h_ratio: 2.0,
        rms_bound: 2.0e-3,
    },
];

/// The sharded paths, both over [`RANKS`] ranks on the `lv_p1` input.
pub const PATHS: [&str; 2] = ["push", "pull"];

/// Ranks of the sharded runs.
pub const RANKS: usize = 2;

/// Grid rows checked against the per-point reference per case.
const CHECK_ROWS: usize = 24;

/// Generated inputs, one problem per case.
#[derive(Debug)]
pub struct Inputs {
    /// `(label, problem)` in [`CASES`] order.
    pub cases: Vec<(&'static str, Problem)>,
}

/// Builds the seeded inputs.
pub fn setup(seed: u64, tracer: &Tracer, parent: u64) -> Inputs {
    let cases = CASES
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let m = mesh(
                c.class,
                c.n_tri,
                sub_seed(seed, 100 + i as u64),
                tracer,
                parent,
            );
            (c.label, Problem::on(m, c.p, c.h_ratio, 0.0, tracer, parent))
        })
        .collect();
    Inputs { cases }
}

/// Wire bytes that were payload: every message carries one
/// [`HEADER_BYTES`] header and acknowledgements carry nothing else.
pub fn payload_bytes(bytes_sent: u64, msgs_sent: u64) -> u64 {
    bytes_sent.saturating_sub(msgs_sent * HEADER_BYTES)
}

/// Counters and timings of one sharded run.
#[derive(Debug, Clone, Copy)]
pub struct DistSummary {
    /// Transport counters summed over ranks.
    pub comm: CommStats,
    /// Largest exposed exchange time of any rank, ms.
    pub exchange_ms: f64,
    /// Slowest rank's evaluation time, ms.
    pub eval_ms: f64,
    /// Slowest over mean rank evaluation time.
    pub imbalance: f64,
    /// Halo elements over owned elements, summed over ranks.
    pub halo_frac: f64,
    /// Critical-path plan compile time (pull path only), ms.
    pub compile_ms: f64,
}

impl DistSummary {
    fn of(ranks: &[RankReport], comm: CommStats, compile_ms: f64) -> Self {
        let eval: Vec<f64> = ranks.iter().map(|r| r.eval_ns as f64 / 1e6).collect();
        let max_eval = eval.iter().cloned().fold(0.0, f64::max);
        let mean_eval = eval.iter().sum::<f64>() / eval.len().max(1) as f64;
        let owned: u64 = ranks.iter().map(|r| r.owned_elements).sum();
        let halo: u64 = ranks.iter().map(|r| r.halo_elements).sum();
        Self {
            comm,
            exchange_ms: ranks
                .iter()
                .map(|r| r.exchange_ns as f64 / 1e6)
                .fold(0.0, f64::max),
            eval_ms: max_eval,
            imbalance: if mean_eval > 0.0 {
                max_eval / mean_eval
            } else {
                0.0
            },
            halo_frac: halo as f64 / owned.max(1) as f64,
            compile_ms,
        }
    }
}

/// Everything `direct` measured.
#[derive(Debug, Default)]
pub struct Out {
    /// Timed walls per case label (seconds), warm-up excluded.
    pub case_walls: Vec<(&'static str, Vec<f64>)>,
    /// Work counters of each case's last run (exact: every run of a case
    /// counts the same work).
    pub case_metrics: Vec<(&'static str, Metrics)>,
    /// Timed walls per sharded path (seconds), warm-up excluded.
    pub path_walls: Vec<(&'static str, Vec<f64>)>,
    /// Per-run summaries per sharded path, warm-up excluded.
    pub path_runs: Vec<(&'static str, Vec<DistSummary>)>,
}

/// Runs rounds of every case and sharded path, checking every result
/// outside the timed calls.
#[derive(Debug)]
pub struct Runner<'a> {
    inputs: &'a Inputs,
    refs: Vec<Reference>,
    dist_opts: DistOptions,
    /// The in-process per-element `lv_p1` result the sharded paths must
    /// reproduce.
    in_process: Option<Vec<f64>>,
    /// What the timed rounds measured.
    pub out: Out,
}

impl<'a> Runner<'a> {
    /// Computes the per-point references and runs the warm-up round (the
    /// first op of a kind runs measurably slower), checking its results and
    /// their RMS error.
    pub fn new(
        inputs: &'a Inputs,
        seed: u64,
        tracer: &Tracer,
        parent: u64,
        ledger: &mut Ledger,
    ) -> Self {
        let refs = inputs
            .cases
            .iter()
            .enumerate()
            .map(|(i, (_, pb))| {
                let rows =
                    check::sample_rows(pb.grid.len(), CHECK_ROWS, sub_seed(seed, 200 + i as u64));
                Reference::per_point(&pb.mesh, &pb.field, &pb.grid, pb.h_factor, rows)
            })
            .collect();
        let mut runner = Self {
            inputs,
            refs,
            dist_opts: DistOptions::new(RANKS).h_factor(inputs.cases[0].1.h_factor),
            in_process: None,
            out: Out {
                case_walls: inputs.cases.iter().map(|(l, _)| (*l, Vec::new())).collect(),
                case_metrics: inputs
                    .cases
                    .iter()
                    .map(|(l, _)| (*l, Metrics::default()))
                    .collect(),
                path_walls: PATHS.iter().map(|p| (*p, Vec::new())).collect(),
                path_runs: PATHS.iter().map(|p| (*p, Vec::new())).collect(),
            },
        };
        runner.run_round(true, tracer, parent, ledger);
        runner
    }

    /// One timed round: each case, then each sharded path, once.
    pub fn round(&mut self, tracer: &Tracer, parent: u64, ledger: &mut Ledger) {
        self.run_round(false, tracer, parent, ledger);
    }

    fn run_round(&mut self, warm: bool, tracer: &Tracer, parent: u64, ledger: &mut Ledger) {
        let round_span = tracer.span(
            if warm {
                "direct.warmup"
            } else {
                "direct.round"
            },
            "",
            parent,
        );
        for (i, (label, pb)) in self.inputs.cases.iter().enumerate() {
            ledger.attempt(1);
            let t = Instant::now();
            let solution = {
                let _span = tracer.span("core.run", label, round_span.id());
                PostProcessor::new(Scheme::PerElement)
                    .h_factor(pb.h_factor)
                    .run(&pb.mesh, &pb.field, &pb.grid)
            };
            let wall = t.elapsed().as_secs_f64();
            let d = self.refs[i].max_diff(&solution.values);
            ledger.expect(check::within_tol(d), || {
                format!("direct {label}: per-element vs per-point differ by {d:e}")
            });
            if warm {
                let rms = check::rms_error(&pb.grid, &solution.values, analytic(pb.shift));
                let bound = CASES[i].rms_bound;
                ledger.expect(rms <= bound, || {
                    format!("direct {label}: RMS error {rms:e} above recorded {bound:e}")
                });
            } else {
                self.out.case_walls[i].1.push(wall);
            }
            if i == 0 && self.in_process.is_none() {
                self.in_process = Some(solution.values.clone());
            }
            self.out.case_metrics[i].1 = solution.metrics;
        }
        let lv = &self.inputs.cases[0].1;
        for (j, path) in PATHS.iter().enumerate() {
            ledger.attempt(1);
            let t = Instant::now();
            let result = {
                let _span = tracer.span("dist.run", path, round_span.id());
                if j == 0 {
                    run_dist(&lv.mesh, &lv.field, &lv.grid, &self.dist_opts).map(|s| {
                        let summary = DistSummary::of(&s.ranks, s.total_comm(), 0.0);
                        (s.values, summary)
                    })
                } else {
                    run_plan_dist(&lv.mesh, &lv.field, &lv.grid, &self.dist_opts).map(|s| {
                        let summary =
                            DistSummary::of(&s.ranks, s.total_comm(), s.plan_stats.build_ms);
                        (s.values, summary)
                    })
                }
            };
            let wall = t.elapsed().as_secs_f64();
            match result {
                Ok((values, summary)) => {
                    let reference = self.in_process.as_deref().unwrap_or(&[]);
                    let d = check::max_abs_diff(&values, reference);
                    ledger.expect(check::within_tol(d), || {
                        format!("sharded {path}: differs from in-process per-element by {d:e}")
                    });
                    if !warm {
                        self.out.path_walls[j].1.push(wall);
                        self.out.path_runs[j].1.push(summary);
                    }
                }
                Err(e) => ledger.fail(format!("sharded {path}: {e}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustencil_plan::{CompileOptions, EvalPlan};

    /// The exact counters are drift detectors: the same seed must give the
    /// same numbers, so a change between commits is a workload change.
    #[test]
    fn exact_counts_repeat_for_a_seed() {
        let tracer = Tracer::new(false);
        let (a, b) = (setup(11, &tracer, 0), setup(11, &tracer, 0));
        for ((label, pa), (_, pb)) in a.cases.iter().zip(&b.cases) {
            let run = |p: &Problem| {
                PostProcessor::new(Scheme::PerElement)
                    .h_factor(p.h_factor)
                    .run(&p.mesh, &p.field, &p.grid)
                    .metrics
            };
            assert_eq!(run(pa), run(pb), "core counters drifted on {label}");
        }

        // Wire traffic: the payload bytes repeat exactly. The number of
        // header-only cumulative acknowledgements depends on when frames
        // arrive, so message and byte totals may differ by whole ack frames.
        let (la, lb) = (&a.cases[0].1, &b.cases[0].1);
        let opts = DistOptions::new(RANKS).h_factor(la.h_factor);
        let traffic = |p: &Problem, pull: bool| {
            let c = if pull {
                run_plan_dist(&p.mesh, &p.field, &p.grid, &opts)
                    .expect("pull run")
                    .total_comm()
            } else {
                run_dist(&p.mesh, &p.field, &p.grid, &opts)
                    .expect("push run")
                    .total_comm()
            };
            (c.bytes_sent, c.msgs_sent)
        };
        for pull in [false, true] {
            let runs: Vec<(u64, u64)> = (0..4)
                .map(|i| traffic(if i % 2 == 0 { la } else { lb }, pull))
                .collect();
            let payload: Vec<u64> = runs.iter().map(|&(b, m)| payload_bytes(b, m)).collect();
            assert!(
                payload.iter().all(|&p| p == payload[0]),
                "payload drifted (pull {pull}): {runs:?}"
            );
            assert!(payload[0] > 0);
        }

        let compile = |p: &Problem| {
            let opts = CompileOptions {
                h_factor: p.h_factor,
                ..CompileOptions::default()
            };
            let plan = EvalPlan::compile(&p.mesh, &p.grid, 1, &opts);
            (plan.rows(), plan.nnz(), plan.bytes())
        };
        assert_eq!(compile(la), compile(lb), "plan shape drifted");

        // A different seed is a different workload: the counts move.
        let c = setup(12, &tracer, 0);
        assert_ne!(compile(la), compile(&c.cases[0].1));
    }
}
