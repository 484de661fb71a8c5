//! `serve`: many small problems through `PlanServer`.
//!
//! The traffic mixes three kinds of request over small p=1 meshes:
//! * reads of a zipf-popular hot set of [`HOT`] sibling meshes (each the
//!   same base mesh with a different pair of elements refined), which hit
//!   resident plans and are served by `apply_many` (requests for one plan
//!   that queue together share a batch);
//! * edited siblings of hot meshes (one more element refined with
//!   `mesh::refine_elements`), never seen before, which the cache answers
//!   by patching a resident sibling;
//! * a trickle of never-seen meshes, which compile.
//!
//! Every plan the cache produces evicts one resident plan to the disk
//! tier, and cold hot-set plans are reloaded from it. An open loop sends
//! this mix at one fixed rate below capacity and times each request from
//! when it was due. A closed loop of [`CLOSED_CLIENTS`] clients then
//! measures the capacity of the resident path: it reads the hot set only.
//! (With the open loop's misses in it, the closed loop spilled about
//! 80 MB/s of plans to the disk tier; the page-cache writeback and discards
//! slowed every phase of the run by 10–25%, and its capacity measured
//! mostly the compile.) Per-request overheads, queueing and cache outcomes
//! dominate here, not bandwidth, and the plan layer is both written
//! (compile, patch, reload) and read.

use crate::check::{self, Ledger, Reference};
use crate::inputs::{kernel_h_factor, mesh, project, sub_seed};
use crate::stats;
use crate::trace::Tracer;
use rand::distributions::Zipf;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use ustencil_core::ComputationGrid;
use ustencil_dg::DgField;
use ustencil_mesh::{elements_on_longest_edge, MeshClass, TriMesh};
use ustencil_plan::{ApplyOptions, CompileOptions};
use ustencil_serve::{
    CacheConfig, DiskTier, Outcome, PlanCache, PlanServer, Problem, Response, ServerConfig, Ticket,
};

/// Triangles of every serve mesh.
const N_TRI: usize = 100;
/// Hot sibling meshes read by zipf popularity.
pub const HOT: usize = 12;
/// Zipf exponent over the hot set.
const ZIPF_S: f64 = 1.1;
/// Requests per [`BLOCK`] for never-seen meshes (compiles) and for edited
/// siblings (patches). Every block of the stream holds exactly these counts,
/// evenly spaced, in seeded order, so a seed changes which requests miss,
/// never how many nor how close together. With disk reloads the misses are
/// kept well away from 1% and 50% of the traffic, so that neither p99 nor
/// p50 sits on the boundary between the hit regime and the miss regime.
/// (Misses at seeded positions were tried: two or three of them close
/// together occupy both workers, the hits behind them queue, and how a seed
/// clustered its misses moved p99 by up to 35%. A second read of each edit
/// right behind it was tried too: it waits on the patch in flight, so both
/// workers stall on every edit, and p99 spread 33% from run to run.)
const COMPILES_PER_BLOCK: usize = 2;
/// See [`COMPILES_PER_BLOCK`].
const PATCHES_PER_BLOCK: usize = 3;
/// Requests per stratified block.
const BLOCK: usize = 100;
/// Kernel scale of every serve plan in mean edge lengths of the base mesh
/// (a quarter of the typical longest edge): one `h_factor` for the whole
/// run, so siblings share a kernel and an edit can be patched, and an `h`
/// that does not swing with the base mesh's longest edge from seed to seed.
const H_RATIO: f64 = 0.5;
/// Cache shards. With more than one, how a seed's keys hash into shards
/// decides how many hot plans fit, and the reload count swings by seed.
const SHARDS: usize = 1;
/// Resident-plan byte budget: about twice the hot set's plans. Below the
/// hot set, disk reloads became 10–25% of all requests and p50 left the
/// hit regime; at this budget evictions come mostly from never-seen and
/// edited plans, and cold hot-set plans are still reloaded now and then.
const BYTE_BUDGET: u64 = 5 << 20;
/// Open-loop send rate, requests per second (below capacity).
pub const RATE_RPS: f64 = 400.0;
/// Closed-loop clients (the load generator never exceeds two threads).
pub const CLOSED_CLIENTS: usize = 2;
/// Closed-loop requests generated per client per second of closed-loop
/// time: an upper bound on what one client can complete.
const CLOSED_PER_CLIENT_RPS: f64 = 20_000.0;
/// Grid rows checked against the per-point reference per response.
const CHECK_ROWS: usize = 6;

/// Generated inputs.
#[derive(Debug)]
pub struct Inputs {
    /// Every problem; the first [`HOT`] are the hot set.
    pub problems: Vec<Arc<Problem>>,
    /// One field per problem.
    pub fields: Vec<DgField>,
    /// Problem id of each open-loop request, in send order.
    pub open: Vec<usize>,
    /// Problem ids each closed-loop client sends, in order: reads of the
    /// hot set only.
    pub closed: Vec<Vec<usize>>,
    /// Kernel width factor of every plan.
    pub h_factor: f64,
}

/// Open-loop requests and closed-loop seconds a run generates streams for.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Open-loop requests (sent at [`RATE_RPS`]).
    pub open_requests: usize,
    /// Closed-loop duration, seconds.
    pub closed_secs: f64,
}

fn field_shift(id: usize) -> f64 {
    (0.37 * id as f64).fract()
}

/// Elements that can be refined without changing the longest edge (and
/// with it the kernel scale).
fn refinable(m: &TriMesh) -> Vec<u32> {
    elements_on_longest_edge(m)
        .iter()
        .enumerate()
        .filter(|(_, &on)| !on)
        .map(|(e, _)| e as u32)
        .collect()
}

fn pick(rng: &mut StdRng, from: &[u32], n: usize) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::with_capacity(n);
    while out.len() < n {
        let e = from[(rng.random_range(0.0..1.0) * from.len() as f64) as usize];
        if !out.contains(&e) {
            out.push(e);
        }
    }
    out
}

/// Builds the catalog and both request streams for `budget`.
pub fn setup(seed: u64, budget: Budget, tracer: &Tracer, parent: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 400));
    let zipf = Zipf::new(HOT, ZIPF_S);
    let base = mesh(
        MeshClass::LowVariance,
        N_TRI,
        sub_seed(seed, 401),
        tracer,
        parent,
    );
    let base_free = refinable(&base);
    let hot_meshes: Vec<Arc<TriMesh>> = (0..HOT)
        .map(|_| {
            let elems = pick(&mut rng, &base_free, 2);
            Arc::new(crate::inputs::edit(&base, &elems, tracer, parent))
        })
        .collect();
    let hot_free: Vec<Vec<u32>> = hot_meshes.iter().map(|m| refinable(m)).collect();

    let mut meshes: Vec<Arc<TriMesh>> = hot_meshes.clone();
    let mut next_fresh = 0u64;
    let mut stream = |len: usize, rng: &mut StdRng, meshes: &mut Vec<Arc<TriMesh>>| -> Vec<usize> {
        // One block: reads, with its compiles and edits in seeded order at
        // evenly spaced positions.
        const MISSES: usize = COMPILES_PER_BLOCK + PATCHES_PER_BLOCK;
        let mut kinds: Vec<u8> = Vec::with_capacity(len + BLOCK);
        while kinds.len() < len {
            let mut misses = [2u8; MISSES];
            misses[..COMPILES_PER_BLOCK].fill(1);
            for i in (1..MISSES).rev() {
                let j = (rng.random_range(0.0..1.0) * (i + 1) as f64) as usize;
                misses.swap(i, j);
            }
            let mut block = [0u8; BLOCK];
            for (k, &kind) in misses.iter().enumerate() {
                block[k * BLOCK / MISSES + BLOCK / (2 * MISSES)] = kind;
            }
            kinds.extend(block);
        }
        kinds[..len]
            .iter()
            .map(|&kind| {
                if kind == 1 {
                    next_fresh += 1;
                    let s = sub_seed(seed, 10_000 + next_fresh);
                    meshes.push(Arc::new(mesh(
                        MeshClass::LowVariance,
                        N_TRI,
                        s,
                        tracer,
                        parent,
                    )));
                    meshes.len() - 1
                } else if kind == 2 {
                    let j = zipf.sample(rng);
                    let elems = pick(rng, &hot_free[j], 1);
                    meshes.push(Arc::new(crate::inputs::edit(
                        &hot_meshes[j],
                        &elems,
                        tracer,
                        parent,
                    )));
                    meshes.len() - 1
                } else {
                    zipf.sample(rng)
                }
            })
            .collect()
    };
    let open = stream(budget.open_requests, &mut rng, &mut meshes);
    let per_client = (CLOSED_PER_CLIENT_RPS * budget.closed_secs).ceil() as usize;
    let closed = (0..CLOSED_CLIENTS)
        .map(|_| (0..per_client).map(|_| zipf.sample(&mut rng)).collect())
        .collect();

    let fields = meshes
        .iter()
        .enumerate()
        .map(|(i, m)| project(m, 1, field_shift(i), tracer, parent))
        .collect();
    let problems = meshes
        .into_iter()
        .map(|m| {
            Arc::new(Problem {
                grid: Arc::new(ComputationGrid::quadrature_points(&m, 1)),
                mesh: m,
                degree: 1,
            })
        })
        .collect();
    Inputs {
        problems,
        fields,
        open,
        closed,
        h_factor: kernel_h_factor(&base, 1, H_RATIO),
    }
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Problem id.
    pub problem: usize,
    /// Response values at the problem's sampled check rows.
    pub sampled: Vec<f64>,
    /// Whether the response had one value per grid point.
    pub full_length: bool,
    /// Milliseconds from when the request was due to its answer (open
    /// loop; closed-loop requests are due when sent).
    pub latency_ms: f64,
    /// Queue wait reported by the server, ms.
    pub queue_ms: f64,
    /// Service time reported by the server, ms.
    pub service_ms: f64,
    /// Cache outcome.
    pub outcome: Outcome,
}

/// Everything `serve` measured.
#[derive(Debug, Default)]
pub struct Out {
    /// Open-loop answers.
    pub open: Vec<Answer>,
    /// How late the generator sent each open-loop request, ms.
    pub late_ms: Vec<f64>,
    /// Total time the generator spent inside `submit`, ms.
    pub submit_ms: f64,
    /// Closed-loop completions per second of each segment.
    pub segment_rps: Vec<f64>,
    /// Coalesced batches executed over the whole run.
    pub batches: u64,
    /// Requests served over the whole run.
    pub requests: u64,
    /// Plans evicted under the byte budget.
    pub evictions: u64,
    /// Resident plan bytes at the end.
    pub resident_bytes: u64,
}

/// Label of a cache outcome.
pub fn outcome_label(o: Outcome) -> &'static str {
    match o {
        Outcome::Hit => "hit",
        Outcome::Waited => "waited",
        Outcome::Compiled => "compiled",
        Outcome::Patched => "patched",
        Outcome::DiskLoad => "disk_load",
    }
}

/// Every outcome label, in report order.
pub const OUTCOMES: [&str; 5] = ["hit", "waited", "compiled", "patched", "disk_load"];

/// A running server plus everything measured against it so far. The open
/// and closed loops run in segments, so a run can spread them over its
/// whole length; each segment drains before it returns.
pub struct Runner<'a> {
    inputs: &'a Inputs,
    server: PlanServer,
    disk_dir: PathBuf,
    /// Check rows per problem.
    rows: Vec<Vec<usize>>,
    /// Next unsent position in the open stream and in each closed stream.
    next_open: usize,
    next_closed: Vec<usize>,
    /// Warm-up and closed-loop answers (checked, not part of the latency
    /// figures).
    other: Vec<Answer>,
    /// What was measured.
    pub out: Out,
}

impl<'a> Runner<'a> {
    /// Starts the server over a fresh disk tier in `disk_dir` and sends
    /// every hot problem once, so the loops start from a resident hot set.
    pub fn start(
        inputs: &'a Inputs,
        seed: u64,
        disk_dir: PathBuf,
        tracer: &Tracer,
        parent: u64,
        ledger: &mut Ledger,
    ) -> Self {
        // Two workers on two cores: each request runs on its worker's
        // thread, so a compile on one worker never takes the other's core.
        let compile = CompileOptions {
            h_factor: inputs.h_factor,
            parallel: false,
            ..CompileOptions::default()
        };
        let _ = std::fs::remove_dir_all(&disk_dir);
        let disk = match DiskTier::new(&disk_dir) {
            Ok(d) => Some(d),
            Err(e) => {
                ledger.fail(format!("serve: disk tier at {}: {e}", disk_dir.display()));
                None
            }
        };
        let server = {
            let _span = tracer.span("serve.start", "", parent);
            PlanServer::start(
                PlanCache::new(CacheConfig {
                    shards: SHARDS,
                    byte_budget: BYTE_BUDGET,
                    disk,
                }),
                ServerConfig {
                    workers: 2,
                    queue_capacity: 64,
                    max_batch: 32,
                    compile,
                    apply: ApplyOptions {
                        parallel: false,
                        ..ApplyOptions::default()
                    },
                },
                1 + CLOSED_CLIENTS,
            )
        };
        let rows = (0..inputs.problems.len())
            .map(|id| {
                let len = inputs.problems[id].grid.len();
                check::sample_rows(len, CHECK_ROWS, sub_seed(seed, 50_000 + id as u64))
            })
            .collect();
        let mut runner = Self {
            inputs,
            server,
            disk_dir,
            rows,
            next_open: 0,
            next_closed: vec![0; CLOSED_CLIENTS],
            other: Vec::new(),
            out: Out::default(),
        };
        let warm = tracer.span("serve.warmup", "", parent);
        let client = runner.server.client();
        for id in 0..HOT.min(inputs.problems.len()) {
            ledger.attempt(1);
            let _span = tracer.span("serve.request", "", warm.id());
            let response = client
                .submit(0, &inputs.problems[id], inputs.fields[id].clone())
                .wait();
            let answer = runner.answer(id, &response, 0.0);
            runner.other.push(answer);
        }
        runner
    }

    fn answer(&self, id: usize, response: &Response, latency_ms: f64) -> Answer {
        Answer {
            problem: id,
            sampled: self.rows[id]
                .iter()
                .map(|&r| response.values.get(r).copied().unwrap_or(f64::NAN))
                .collect(),
            full_length: response.values.len() == self.inputs.problems[id].grid.len(),
            latency_ms,
            queue_ms: response.queue_wait_us as f64 / 1e3,
            service_ms: response.service_us as f64 / 1e3,
            outcome: response.outcome,
        }
    }

    /// Sends the next `n` open-loop requests at [`RATE_RPS`] from one
    /// generator thread while a collector thread waits for the answers.
    pub fn open_segment(&mut self, n: usize, tracer: &Tracer, parent: u64, ledger: &mut Ledger) {
        let first = self.next_open;
        let last = (first + n).min(self.inputs.open.len());
        self.next_open = last;
        ledger.attempt((last - first) as u64);
        let phase = tracer.span("serve.open_loop", "", parent);
        let phase_id = phase.id();
        let this = &*self;
        let client = this.server.client();
        let (tx, rx) = mpsc::channel::<(usize, Duration, Ticket)>();
        let start = Instant::now() + Duration::from_millis(5);
        let (late_ms, submit_ms, answers) = std::thread::scope(|s| {
            let generator = s.spawn(move || {
                let mut late_ms = Vec::with_capacity(last - first);
                let mut submit = Duration::ZERO;
                for i in first..last {
                    let id = this.inputs.open[i];
                    let field = this.inputs.fields[id].clone();
                    let due = start + Duration::from_secs_f64((i - first) as f64 / RATE_RPS);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let call = Instant::now();
                    let late = call.saturating_duration_since(due);
                    let ticket = {
                        let mut span = tracer.span("serve.submit", "", phase_id);
                        span.request(i as u64 + 1);
                        client.submit(0, &this.inputs.problems[id], field)
                    };
                    // Latency is due -> admission, timed here (backpressure
                    // blocks inside `submit`), plus admission -> ready, the
                    // server's service time: the collector waits for tickets
                    // in send order, so its own clock would charge a request
                    // for the slower ones ahead of it.
                    let admitted = call.elapsed();
                    submit += admitted;
                    late_ms.push(late.as_secs_f64() * 1e3);
                    if tx.send((i, late + admitted, ticket)).is_err() {
                        break;
                    }
                }
                (late_ms, submit.as_secs_f64() * 1e3)
            });
            let collector = s.spawn(move || {
                rx.into_iter()
                    .map(|(i, to_admission, ticket)| {
                        let mut span = tracer.span("serve.wait", "", phase_id);
                        span.request(i as u64 + 1);
                        let response = ticket.wait();
                        span.attr("queue_ms", response.queue_wait_us as f64 / 1e3);
                        span.attr("service_ms", response.service_us as f64 / 1e3);
                        span.attr("batch", response.batch_size as f64);
                        let service_ms = response.service_us as f64 / 1e3;
                        this.answer(
                            this.inputs.open[i],
                            &response,
                            to_admission.as_secs_f64() * 1e3 + service_ms,
                        )
                    })
                    .collect::<Vec<_>>()
            });
            let (late_ms, submit_ms) = generator.join().expect("generator thread panicked");
            let answers = collector.join().expect("collector thread panicked");
            (late_ms, submit_ms, answers)
        });
        ledger.expect(answers.len() == last - first, || {
            format!(
                "serve: {} of {} open-loop requests answered",
                answers.len(),
                last - first
            )
        });
        self.out.late_ms.extend(late_ms);
        self.out.submit_ms += submit_ms;
        self.out.open.extend(answers);
    }

    /// Runs [`CLOSED_CLIENTS`] clients, each sending its next request as
    /// soon as the previous one is answered, for `secs` seconds.
    pub fn closed_segment(&mut self, secs: f64, tracer: &Tracer, parent: u64, ledger: &mut Ledger) {
        let phase = tracer.span("serve.closed_loop", "", parent);
        let phase_id = phase.id();
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        let started = Instant::now();
        let this = &*self;
        let per_client: Vec<Vec<Answer>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLOSED_CLIENTS)
                .map(|c| {
                    let client = this.server.client();
                    s.spawn(move || {
                        let mut got = Vec::new();
                        for &id in &this.inputs.closed[c][this.next_closed[c]..] {
                            if Instant::now() >= deadline {
                                break;
                            }
                            let field = this.inputs.fields[id].clone();
                            let sent = Instant::now();
                            let mut span = tracer.span("serve.request", "", phase_id);
                            span.request(
                                ((c as u64 + 1) << 32) | (this.next_closed[c] + got.len()) as u64,
                            );
                            let response = client
                                .submit(1 + c, &this.inputs.problems[id], field)
                                .wait();
                            drop(span);
                            got.push(this.answer(
                                id,
                                &response,
                                sent.elapsed().as_secs_f64() * 1e3,
                            ));
                        }
                        got
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("closed-loop client panicked"))
                .collect()
        });
        let elapsed = started.elapsed().as_secs_f64();
        let completed: usize = per_client.iter().map(Vec::len).sum();
        self.out
            .segment_rps
            .push(completed as f64 / elapsed.max(1e-9));
        for (c, got) in per_client.into_iter().enumerate() {
            self.next_closed[c] += got.len();
            ledger.attempt(got.len() as u64);
            self.other.extend(got);
        }
    }

    /// Shuts the server down, removes the disk tier, and checks every
    /// answer's sampled rows against the per-point reference of its
    /// problem (outside every timed interval).
    pub fn finish(self, ledger: &mut Ledger) -> Out {
        let Self {
            inputs,
            server,
            disk_dir,
            rows,
            other,
            mut out,
            ..
        } = self;
        let ledgers = server.shutdown();
        out.batches = ledgers.batches;
        out.requests = ledgers.tenants.iter().map(|t| t.requests).sum();
        out.evictions = ledgers.cache.evictions;
        out.resident_bytes = ledgers.cache.resident_bytes;
        let _ = std::fs::remove_dir_all(&disk_dir);

        let mut refs: HashMap<usize, Reference> = HashMap::new();
        for a in other.iter().chain(&out.open) {
            let reference = refs.entry(a.problem).or_insert_with(|| {
                let pb = &inputs.problems[a.problem];
                let field = &inputs.fields[a.problem];
                Reference::per_point(
                    &pb.mesh,
                    field,
                    &pb.grid,
                    inputs.h_factor,
                    rows[a.problem].clone(),
                )
            });
            let d = reference.max_diff_sampled(&a.sampled);
            ledger.expect(a.full_length && check::within_tol(d), || {
                format!(
                    "serve problem {}: response differs from per-point by {d:e} (full length: {})",
                    a.problem, a.full_length
                )
            });
        }
        out
    }
}

/// Exact percentile of open-loop answers' `field`.
pub fn open_quantile(out: &Out, q: f64, field: impl Fn(&Answer) -> f64) -> stats::Quantile {
    let v: Vec<f64> = out.open.iter().map(field).collect();
    stats::quantile(&v, q)
}
