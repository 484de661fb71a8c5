//! The repository benchmark: the `direct`, `timeseries` and `serve` phases
//! measured end to end from a seed under a `timeseries` or `serve`
//! workload, with layer-attributed figures from a separate traced run. See
//! README.md beside this crate.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload timeseries --seed 1 --seconds 50 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; a human-readable table goes to
//! standard error. The exit code is 1 when any correctness check failed
//! and 2 on a usage error.

mod check;
mod direct;
mod host;
mod inputs;
mod report;
mod serve;
mod stats;
mod timeseries;
mod trace;

use check::Ledger;
use report::Metrics;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{SpanRecord, Tracer};

/// Times the whole input set-up runs: once before the rounds, whose
/// inputs the run uses, and once more at the start of every round (timed,
/// then dropped). `setup_s` is the median. The repetitions are spread over
/// the run like every other metric's samples: five back to back sampled one
/// second of the host's drifting background load, and their median spread
/// 30% from run to run.
const SETUP_REPS: usize = 1 + ROUNDS;

/// A workload: which phase gets the largest share of the run. Every run
/// executes all three phases (see [`Split`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Timeseries,
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "timeseries" => Some(Self::Timeseries),
            "serve" => Some(Self::Serve),
            _ => None,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Self::Timeseries => "timeseries",
            Self::Serve => "serve",
        }
    }

    /// How the workload splits `--seconds` over the phases.
    fn split(self) -> Split {
        match self {
            Self::Timeseries => Split {
                direct: 0.16,
                timeseries: 0.36,
                open: 0.36,
                closed: 0.12,
                compiles: 4,
            },
            Self::Serve => Split {
                direct: 0.16,
                timeseries: 0.26,
                open: 0.46,
                closed: 0.12,
                compiles: 3,
            },
        }
    }
}

/// Shares of `--seconds` each phase measures for (they sum to 1), and the
/// timed full compiles the timeseries share includes (2.5–3.5 s each). The
/// open loop gets the largest share after the focused phase: its p99 is
/// the tail of a few hundred misses, and of all the figures it spread the
/// most when it had the fewest samples.
#[derive(Debug, Clone, Copy)]
struct Split {
    direct: f64,
    timeseries: f64,
    open: f64,
    closed: f64,
    compiles: usize,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: ustencil-perfbench --workload timeseries|serve \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Interleaved rounds per run. Every round runs a slice of each phase, so
/// each metric's samples spread over the whole run instead of one window
/// of it: the host's background load drifts on a scale of seconds.
const ROUNDS: usize = 10;

/// What one run measures. Every workload runs all three phases, so every
/// metric is measured in every run; the workload decides each phase's share
/// of the `--seconds` measuring time, spread evenly over [`ROUNDS`].
#[derive(Debug, Clone, Copy)]
struct RunPlan {
    split: Split,
    /// Measuring time of the direct and timeseries phases.
    direct: Duration,
    timeseries: Duration,
    serve: serve::Budget,
}

impl RunPlan {
    fn new(args: &Args) -> Self {
        let split = args.workload.split();
        Self {
            split,
            direct: Duration::from_secs_f64(split.direct * args.seconds),
            timeseries: Duration::from_secs_f64(split.timeseries * args.seconds),
            serve: serve::Budget {
                open_requests: (split.open * args.seconds * serve::RATE_RPS).ceil() as usize,
                closed_secs: split.closed * args.seconds,
            },
        }
    }

    /// Whether round `k` starts its timeseries slice with a timed compile
    /// (the compiles are spread evenly over the rounds).
    fn compiles_in(&self, k: usize) -> bool {
        let c = self.split.compiles;
        (k + 1) * c / ROUNDS > k * c / ROUNDS
    }
}

/// Measuring time a phase has used, against its budget.
struct Phase {
    budget: Duration,
    used: Duration,
}

impl Phase {
    fn new(budget: Duration) -> Self {
        Self {
            budget,
            used: Duration::ZERO,
        }
    }

    /// Runs `op` once, and on until the phase has used `k + 1` rounds'
    /// worth of its budget: a slow op in one round leaves less to the next.
    fn round(&mut self, k: usize, mut op: impl FnMut()) {
        let target = self.budget.mul_f64((k + 1) as f64 / ROUNDS as f64);
        loop {
            let t = Instant::now();
            op();
            self.used += t.elapsed();
            if self.used >= target {
                break;
            }
        }
    }
}

struct Inputs {
    direct: direct::Inputs,
    timeseries: timeseries::Inputs,
    serve: serve::Inputs,
}

impl Inputs {
    /// Generates every input from the seed, appending the wall to `setup_s`.
    fn setup(args: &Args, plan: &RunPlan, tracer: &Tracer, setup_s: &mut Vec<f64>) -> Self {
        let t = Instant::now();
        let span = tracer.span("setup", "", 0);
        let inputs = Self {
            direct: direct::setup(args.seed, tracer, span.id()),
            timeseries: timeseries::setup(args.seed, tracer, span.id()),
            serve: serve::setup(args.seed, plan.serve, tracer, span.id()),
        };
        drop(span);
        setup_s.push(t.elapsed().as_secs_f64());
        inputs
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run_start = Instant::now();
    let tracer = Tracer::new(args.trace);
    let mut ledger = Ledger::default();
    let plan = RunPlan::new(&args);

    // Set-up: generate every input from the seed.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let inputs = Inputs::setup(&args, &plan, &tracer, &mut setup_s);

    let root = tracer.span("run", args.workload.label(), 0);
    let mut d = direct::Runner::new(&inputs.direct, args.seed, &tracer, root.id(), &mut ledger);
    let mut ts = timeseries::Runner::new(
        &inputs.timeseries,
        args.seed,
        &tracer,
        root.id(),
        &mut ledger,
    );
    let disk_dir = out_dir().join(format!("serve-disk-{}", std::process::id()));
    let mut sv = serve::Runner::start(
        &inputs.serve,
        args.seed,
        disk_dir,
        &tracer,
        root.id(),
        &mut ledger,
    );
    let (mut direct_phase, mut ts_phase) = (Phase::new(plan.direct), Phase::new(plan.timeseries));
    for k in 0..ROUNDS {
        drop(Inputs::setup(&args, &plan, &tracer, &mut setup_s));
        let round = tracer.span("round", "", root.id());
        direct_phase.round(k, || d.round(&tracer, round.id(), &mut ledger));
        if plan.compiles_in(k) {
            let t = Instant::now();
            ts.compile(true, &tracer, round.id(), &mut ledger);
            ts_phase.used += t.elapsed();
        }
        ts_phase.round(k, || ts.cycle(&tracer, round.id(), &mut ledger));
        let open =
            plan.serve.open_requests * (k + 1) / ROUNDS - plan.serve.open_requests * k / ROUNDS;
        sv.open_segment(open, &tracer, round.id(), &mut ledger);
        sv.closed_segment(
            plan.serve.closed_secs / ROUNDS as f64,
            &tracer,
            round.id(),
            &mut ledger,
        );
    }
    drop(root);
    let (d, ts, sv) = (d.out, ts.finish(), sv.finish(&mut ledger));
    let measured_s = run_start.elapsed().as_secs_f64();

    let e2e = end_to_end(&setup_s, &d, &ts, &sv);
    let metrics = if args.trace {
        let spans = tracer.records();
        let host = host::measure(rayon_threads());
        let mut m = per_layer(&spans, &d, &ts, &sv, &host);
        m.set("trace.spans", spans.len() as f64, "count");
        m.set(
            "trace.overhead_frac",
            tracer.cost_ns() as f64 / 1e9 / measured_s,
            "frac",
        );
        let path = out_dir().join(format!(
            "trace-{}-{}.json",
            args.workload.label(),
            args.seed
        ));
        let written = std::fs::create_dir_all(out_dir()).and_then(|_| {
            std::fs::write(
                &path,
                trace::to_json(&spans, args.workload.label(), args.seed),
            )
        });
        match written {
            Ok(()) => eprintln!("trace: {} spans written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
        }
        eprintln!("self time per layer call (ms):");
        for (k, v) in trace::self_times(&spans) {
            eprintln!("  {k:<44} {v:>14.3}");
        }
        eprintln!("end-to-end figures of this traced run (compare with untraced runs for the tracing overhead):");
        eprint!("{}", e2e.table());
        m
    } else {
        e2e
    };
    for name in metrics.non_finite() {
        ledger.fail(format!("metric {name} is not a finite number"));
    }
    eprintln!(
        "workload {} seed {} trace {} threads {}: {} metrics, {} attempted, {} failed, {:.1} s",
        args.workload.label(),
        args.seed,
        u8::from(args.trace),
        rayon_threads(),
        metrics.len(),
        ledger.attempted,
        ledger.failed,
        run_start.elapsed().as_secs_f64()
    );
    eprint!("{}", metrics.table());
    for f in &ledger.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{}", report::result_line(&ledger, &metrics));
    if ledger.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Threads the repository's parallel loops use (same rule as its rayon
/// stand-in).
fn rayon_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn median_of<T>(xs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    stats::median(&xs.iter().map(f).collect::<Vec<_>>())
}

fn end_to_end(setup_s: &[f64], d: &direct::Out, ts: &timeseries::Out, sv: &serve::Out) -> Metrics {
    let mut m = Metrics::default();
    m.set("setup_s", stats::median(setup_s), "s");
    for (label, walls) in &d.case_walls {
        m.set(format!("direct_{label}_s"), stats::median(walls), "s");
    }
    for (path, walls) in &d.path_walls {
        m.set(format!("sharded_{path}_s"), stats::median(walls), "s");
    }
    m.set("compile_s", stats::median(&ts.compile_s), "s");
    m.set("apply_ms", stats::median(&ts.apply_ms), "ms");
    m.set(
        "apply_batch_ms",
        stats::median(&ts.batch_ms_per_field),
        "ms",
    );
    let p50 = serve::open_quantile(sv, 0.5, |a| a.latency_ms);
    let latency_ms: Vec<f64> = sv.open.iter().map(|a| a.latency_ms).collect();
    let (p99, windows) = stats::windowed_quantile(&latency_ms, 0.99);
    eprintln!(
        "serve latency from due time: p50 {:.3} ms (n = {}), p99 {:.3} ms (median of {windows} \
         windows, n = {}, at least {} beyond p99 in each)",
        p50.value, p50.n, p99.value, p99.n, p99.beyond
    );
    m.set("serve_p50_ms", p50.value, "ms");
    m.set(
        "serve_p99_ms",
        if p99.trusted() { p99.value } else { f64::NAN },
        "ms",
    );
    m.set("serve_capacity_rps", stats::median(&sv.segment_rps), "1/s");
    m
}

/// Durations (ms) of spans named `name`/`tag` whose parent span is named
/// `parent` (warm-up calls hang under a different parent and drop out).
fn span_ms(spans: &[SpanRecord], name: &str, tag: &str, parent: &str) -> Vec<f64> {
    let names: HashMap<u64, &str> = spans.iter().map(|s| (s.id, s.name)).collect();
    spans
        .iter()
        .filter(|s| s.name == name && s.tag == tag)
        .filter(|s| names.get(&s.parent).copied().unwrap_or("") == parent)
        .map(SpanRecord::ms)
        .collect()
}

fn per_layer(
    spans: &[SpanRecord],
    d: &direct::Out,
    ts: &timeseries::Out,
    sv: &serve::Out,
    host: &host::HostRef,
) -> Metrics {
    let mut m = Metrics::default();

    // core, on direct.
    for (label, c) in &d.case_metrics {
        let run_ms = stats::median(&span_ms(spans, "core.run", label, "direct.round"));
        let p = direct::CASES
            .iter()
            .find(|c| c.label == *label)
            .map_or(1, |c| c.p);
        let elem_reads = c.intersection_tests * ustencil_core::Metrics::element_data_values(p);
        m.set(format!("core.run_ms.{label}"), run_ms, "ms");
        m.set(
            format!("core.intersection_tests.{label}"),
            c.intersection_tests as f64,
            "count",
        );
        m.set(
            format!("core.cell_clips.{label}"),
            c.cell_clips as f64,
            "count",
        );
        m.set(
            format!("core.subregions.{label}"),
            c.subregions as f64,
            "count",
        );
        m.set(
            format!("core.quad_evals.{label}"),
            c.quad_evals as f64,
            "count",
        );
        m.set(format!("core.flops.{label}"), c.flops as f64, "count");
        m.set(format!("core.true_hit_frac.{label}"), c.hit_rate(), "frac");
        m.set(
            format!("core.elem_cache_hit.{label}"),
            1.0 - c.elem_data_loads as f64 / elem_reads.max(1) as f64,
            "frac",
        );
        m.set(
            format!("core.gflops.{label}"),
            c.flops as f64 / (run_ms * 1e6),
            "GFLOP/s",
        );
    }

    // dist, on direct.
    for (path, runs) in &d.path_runs {
        let last = runs.last().copied();
        let count = |f: fn(&direct::DistSummary) -> u64| last.as_ref().map_or(0, f) as f64;
        m.set(
            format!("dist.wall_ms.{path}"),
            stats::median(&span_ms(spans, "dist.run", path, "direct.round")),
            "ms",
        );
        m.set(
            format!("dist.bytes_sent.{path}"),
            count(|s| s.comm.bytes_sent),
            "bytes",
        );
        m.set(
            format!("dist.msgs_sent.{path}"),
            count(|s| s.comm.msgs_sent),
            "count",
        );
        m.set(
            format!("dist.retransmits.{path}"),
            count(|s| s.comm.retransmits),
            "count",
        );
        m.set(
            format!("dist.payload_bytes.{path}"),
            count(|s| direct::payload_bytes(s.comm.bytes_sent, s.comm.msgs_sent)),
            "bytes",
        );
        m.set(
            format!("dist.exchange_ms.{path}"),
            median_of(runs, |s| s.exchange_ms),
            "ms",
        );
        m.set(
            format!("dist.eval_ms.{path}"),
            median_of(runs, |s| s.eval_ms),
            "ms",
        );
        m.set(
            format!("dist.imbalance.{path}"),
            median_of(runs, |s| s.imbalance),
            "ratio",
        );
        m.set(
            format!("dist.halo_frac.{path}"),
            median_of(runs, |s| s.halo_frac),
            "frac",
        );
        if *path == "pull" {
            m.set(
                "dist.compile_ms.pull",
                median_of(runs, |s| s.compile_ms),
                "ms",
            );
        }
    }

    // plan, on timeseries.
    let apply_ms = stats::median(&span_ms(spans, "plan.apply_with", "", "timeseries.cycle"));
    let many_ms = stats::median(&span_ms(spans, "plan.apply_many", "", "timeseries.cycle"));
    let apply_gbps = (ts.bytes + ts.vector_bytes) as f64 / (apply_ms * 1e6);
    let compile_ms = stats::median(&span_ms(spans, "plan.compile", "", "round"));
    m.set("plan.compile_ms", compile_ms, "ms");
    m.set("plan.rows", ts.rows as f64, "count");
    m.set("plan.nnz", ts.nnz as f64, "count");
    m.set("plan.bytes", ts.bytes as f64, "bytes");
    m.set("plan.apply_ms", apply_ms, "ms");
    m.set("plan.apply_gbps", apply_gbps, "GB/s");
    m.set("plan.apply_bw_frac", apply_gbps / host.stream_gbps, "frac");
    m.set(
        "plan.apply_many_ms_per_field",
        many_ms / timeseries::FRAMES as f64,
        "ms",
    );
    m.set(
        "plan.apply_many_bytes_per_field",
        ts.sweeps_per_field * ts.bytes as f64,
        "bytes",
    );

    // serve, on serve (open loop at the fixed rate).
    let q = |q: f64, f: fn(&serve::Answer) -> f64| serve::open_quantile(sv, q, f);
    m.set(
        "serve.queue_wait_ms.p50",
        q(0.5, |a| a.queue_ms).value,
        "ms",
    );
    m.set(
        "serve.queue_wait_ms.p99",
        q(0.99, |a| a.queue_ms).value,
        "ms",
    );
    m.set("serve.service_ms.p50", q(0.5, |a| a.service_ms).value, "ms");
    m.set(
        "serve.service_ms.p99",
        q(0.99, |a| a.service_ms).value,
        "ms",
    );
    for label in serve::OUTCOMES {
        let of: Vec<f64> = sv
            .open
            .iter()
            .filter(|a| serve::outcome_label(a.outcome) == label)
            .map(|a| a.service_ms)
            .collect();
        m.set(format!("serve.outcome.{label}"), of.len() as f64, "count");
        m.set(
            format!("serve.service_ms.{label}"),
            stats::median(&of),
            "ms",
        );
    }
    let hits = sv
        .open
        .iter()
        .filter(|a| serve::outcome_label(a.outcome) == "hit")
        .count();
    m.set(
        "serve.hit_frac",
        hits as f64 / sv.open.len().max(1) as f64,
        "frac",
    );
    m.set("serve.latency_samples", sv.open.len() as f64, "count");
    m.set(
        "serve.batch_mean",
        sv.requests as f64 / sv.batches.max(1) as f64,
        "count",
    );
    m.set("serve.submit_block_ms", sv.submit_ms, "ms");
    m.set(
        "serve.gen_late_ms.p99",
        stats::quantile(&sv.late_ms, 0.99).value,
        "ms",
    );
    m.set("serve.evictions", sv.evictions as f64, "count");
    m.set("serve.resident_bytes", sv.resident_bytes as f64, "bytes");

    // Set-up, per repetition.
    for (name, metric) in [
        ("mesh.generate", "mesh.generate_ms"),
        ("mesh.edit", "mesh.edit_ms"),
        ("dg.project", "dg.project_ms"),
    ] {
        let total: f64 = spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRecord::ms)
            .sum();
        m.set(metric, total / SETUP_REPS as f64, "ms");
    }

    // Host reference.
    m.set("host.stream_gbps", host.stream_gbps, "GB/s");
    m.set("host.stream_array_bytes", host.array_bytes as f64, "bytes");
    m.set("host.llc_bytes", host.llc_bytes as f64, "bytes");
    m
}
