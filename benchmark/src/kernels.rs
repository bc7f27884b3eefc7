//! Per-layer kernels: one small measurement per module of `crates/*`,
//! taken from outside by timing calls into public functions or reading
//! the cost records they already return (`JobReport`).
//!
//! Every traced run executes the whole stage inside a time budget, so each
//! kernel gets a slice proportional to its weight, collects as many
//! samples as fit (at least [`MIN_SAMPLES`]) and reports their median with
//! the sample count beside it.

use crate::spans::Spans;
use crate::workloads::{
    base_config, build_engine, hopdist_program, pagerank_program, run_query, seeded_roots, skew,
    TcpPair, DAMPING,
};
use pgxd::serve::Lane;
use pgxd::tasks::on_node;
use pgxd::{CancelToken, Dir, EdgeCtx, EdgeTask, Engine, EngineBuilder, JobSpec, ReduceOp};
use pgxd_algorithms as algos;
use pgxd_baselines::sa;
use pgxd_graph::{generate, Graph};
use pgxd_runtime::buffer::BufferPool;
use pgxd_runtime::message::{
    decode_frame_header, encode_frame_header, mut_entry, mut_entry_count, push_mut_entry,
    push_read_entry, read_entry, read_entry_count, Envelope, MsgKind,
};
use pgxd_runtime::phase::{drain_once, drain_until_complete, JobState, Phase, WorkerEnv};
use pgxd_runtime::props::{PropId, TypeTag};
use pgxd_runtime::worker::SideRec;
use pgxd_runtime::Cluster;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const MIN_SAMPLES: usize = 5;
const MAX_SAMPLES: usize = 200;
/// Sum of the weights handed to [`Stage::slice`] below.
const TOTAL_WEIGHT: u32 = 71;

/// Samples of one per-layer metric, in the metric's unit.
pub type Samples = (&'static str, Vec<f64>);

struct Stage<'a> {
    budget: Duration,
    spans: &'a mut Spans,
    out: Vec<Samples>,
    /// Called at each group with its name, so a hung group is named by
    /// the watchdog.
    on_group: &'a dyn Fn(&str),
}

impl Stage<'_> {
    fn slice(&self, weight: u32) -> Duration {
        self.budget * weight / TOTAL_WEIGHT
    }

    fn group(&mut self, name: &str, f: impl FnOnce(&mut Stage<'_>)) {
        (self.on_group)(name);
        self.spans.enter(&format!("kernel:{name}"));
        f(self);
        self.spans.exit();
    }

    /// One warm-up call, then samples until the slice is spent.
    fn sample(&mut self, name: &'static str, weight: u32, mut f: impl FnMut() -> f64) {
        let slice = self.slice(weight);
        f();
        let t0 = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < MAX_SAMPLES && (samples.len() < MIN_SAMPLES || t0.elapsed() < slice) {
            samples.push(f());
        }
        self.out.push((name, samples));
    }
}

fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Runs every kernel. `skew16` is the SKEW16 graph when the workload
/// already generated it for this seed.
pub fn run_all(
    budget: Duration,
    seed: u64,
    skew16: Option<Arc<Graph>>,
    spans: &mut Spans,
    on_group: &dyn Fn(&str),
) -> Vec<Samples> {
    let mut st = Stage {
        budget,
        spans,
        out: Vec::new(),
        on_group,
    };
    let g16 = skew16.unwrap_or_else(|| Arc::new(skew(16, seed)));

    st.group("graph", |st| csr_scan(st, &g16));
    st.group("engine", |st| noop_scan(st, &g16));
    st.group("props", |st| props(st, &g16));
    st.group("phase", phase_costs);
    st.group("message", message);
    st.group("buffer", buffer);
    st.group("worker", remote_entries);
    st.group("fabric", fabric);
    st.group("tcp", tcp);
    st.group("sched", sched);
    st.group("query", |st| query(st, seed));
    st.out
}

// ---------------------------------------------------------------------
// graph / engine: the ladder from raw CSR iteration to the task loop
// ---------------------------------------------------------------------

/// Raw CSR iteration on one thread: the ceiling for `local_pull`. Reads
/// 4 bytes of `col_idx` per edge plus 8 of `row_ptr` per node.
fn csr_scan(st: &mut Stage<'_>, g: &Graph) {
    let edges = g.num_edges() as f64;
    st.sample("graph.csr_scan_edges_per_s", 2, || {
        edges
            / secs(|| {
                black_box(sa::edge_iteration(g, 1));
            })
    });
}

/// Figure 5a's task: touches every edge, does no algorithmic work.
struct NoopScan;
impl EdgeTask for NoopScan {
    fn run(&self, ctx: &mut EdgeCtx<'_, '_>) {
        black_box(ctx.nbr());
    }
}

/// The engine's chunk/task loop with nothing in it, 1 machine x 1 worker.
fn noop_scan(st: &mut Stage<'_>, g: &Graph) {
    let mut engine = build_engine(g, 1, 1, false).expect("1x1 engine");
    let edges = g.num_edges() as f64;
    st.sample("engine.noop_scan_edges_per_s", 3, || {
        let report = engine
            .try_run_edge_job(Dir::Out, &JobSpec::new(), NoopScan)
            .expect("noop scan");
        edges / report.main.as_secs_f64()
    });
}

// ---------------------------------------------------------------------
// props: the driver-side tail of every iteration
// ---------------------------------------------------------------------

fn props(st: &mut Stage<'_>, g: &Graph) {
    let mut engine = build_engine(g, 2, 1, false).expect("2x1 engine");
    let nodes = g.num_nodes() as f64;
    let p = engine.add_prop("kernel", 0.0f64);
    st.sample("props.fill_ns_per_node", 1, || {
        secs(|| engine.fill(p, 1.0)) * 1e9 / nodes
    });
    st.sample("props.reduce_ns_per_node", 1, || {
        secs(|| {
            black_box(engine.reduce(p, ReduceOp::Sum));
        }) * 1e9
            / nodes
    });
    st.sample("props.gather_ns_per_node", 1, || {
        secs(|| drop(black_box(engine.gather(p)))) * 1e9 / nodes
    });
    engine.drop_prop(p);
}

// ---------------------------------------------------------------------
// engine / barrier / term: what one phase costs with no work in it
// ---------------------------------------------------------------------

fn tiny_engine(strict: bool) -> Engine {
    let config = base_config(2, 1, false)
        .strict_distributed(strict)
        .build()
        .expect("tiny config");
    EngineBuilder::from_config(config)
        .build(&generate::ring(64))
        .expect("tiny engine")
}

fn empty_job_us(engine: &mut Engine) -> f64 {
    let report = engine
        .try_run_node_job(&JobSpec::new(), on_node(|_| {}))
        .expect("empty job");
    report.total.as_secs_f64() * 1e6
}

fn phase_costs(st: &mut Stage<'_>) {
    let mut engine = tiny_engine(false);
    st.sample("engine.empty_job_us", 1, || empty_job_us(&mut engine));
    st.sample("barrier.shared_us", 1, || {
        engine.barrier_roundtrip().as_secs_f64() * 1e6
    });
    st.sample("barrier.dist_us", 1, || {
        engine.dist_barrier_roundtrip().as_secs_f64() * 1e6
    });
    drop(engine);
    let mut strict = tiny_engine(true);
    st.sample("term.strict_empty_job_us", 1, || empty_job_us(&mut strict));
}

// ---------------------------------------------------------------------
// message / buffer: entry marshalling over one 256 KB buffer
// ---------------------------------------------------------------------

const BUF: usize = 256 << 10;

fn message(st: &mut Stage<'_>) {
    let mut buf: Vec<u8> = Vec::with_capacity(BUF);
    let reads = BUF / pgxd_runtime::message::READ_ENTRY_BYTES;
    st.sample("message.read_encode_entries_per_s", 1, || {
        buf.clear();
        let s = secs(|| {
            for i in 0..reads as u32 {
                push_read_entry(&mut buf, (i & 7) as u16, i);
            }
        });
        black_box(buf.len());
        reads as f64 / s
    });
    st.sample("message.read_decode_entries_per_s", 1, || {
        let n = read_entry_count(&buf);
        let mut sum = 0u64;
        let s = secs(|| {
            for i in 0..n {
                let (prop, off) = read_entry(&buf, i);
                sum = sum.wrapping_add(prop as u64 + off as u64);
            }
        });
        black_box(sum);
        n as f64 / s
    });
    let muts = BUF / pgxd_runtime::message::MUT_ENTRY_BYTES;
    st.sample("message.mut_encode_entries_per_s", 1, || {
        buf.clear();
        let s = secs(|| {
            for i in 0..muts as u32 {
                push_mut_entry(&mut buf, (i & 7) as u16, ReduceOp::Sum, i, i as u64);
            }
        });
        black_box(buf.len());
        muts as f64 / s
    });
    st.sample("message.mut_decode_entries_per_s", 1, || {
        let n = mut_entry_count(&buf);
        let mut sum = 0u64;
        let s = secs(|| {
            for i in 0..n {
                let (prop, _, off, bits) = mut_entry(&buf, i);
                sum = sum.wrapping_add(prop as u64 + off as u64 + bits);
            }
        });
        black_box(sum);
        n as f64 / s
    });
    let env = Envelope {
        src: 0,
        dst: 1,
        kind: MsgKind::Write,
        worker: 0,
        side_id: 7,
        seq: 1,
        payload: Vec::new(),
    };
    const ROUNDS: usize = 10_000;
    st.sample("message.frame_header_ns", 1, || {
        let mut sum = 0u64;
        let s = secs(|| {
            for _ in 0..ROUNDS {
                let header = encode_frame_header(black_box(&env));
                let decoded = decode_frame_header(&header, BUF).expect("own header decodes");
                sum = sum.wrapping_add(decoded.payload_len as u64 + decoded.seq);
            }
        });
        black_box(sum);
        s * 1e9 / ROUNDS as f64
    });
}

fn buffer(st: &mut Stage<'_>) {
    let pool = BufferPool::with_shards(64, 64 << 10, 4);
    const ROUNDS: usize = 10_000;
    st.sample("buffer.acquire_release_ns", 1, || {
        let s = secs(|| {
            for _ in 0..ROUNDS {
                let b = pool.try_acquire_on(0).expect("within quota");
                pool.release_on(black_box(b), 0);
            }
        });
        s * 1e9 / ROUNDS as f64
    });
}

// ---------------------------------------------------------------------
// Custom phases, usable on an in-memory cluster and on one rank of a
// node-mode cluster alike
// ---------------------------------------------------------------------

/// Runs the phase `make` builds around a fresh completion tracker in which
/// every local worker retires one unit; returns the wall time.
fn run_phase(cluster: &mut Cluster, make: impl FnOnce(Arc<JobState>) -> Arc<dyn Phase>) -> f64 {
    let job = cluster.job_state(cluster.phase_units(), CancelToken::never());
    let phase = make(job);
    secs(|| cluster.try_run_phase(phase).expect("kernel phase"))
}

/// Figure 8a: machine 0's worker issues remote reads (or `Sum` writes) of
/// machine 1's column: `push_*` -> seal -> fabric -> copier (-> response
/// -> drain).
struct EntryPhase {
    prop: PropId,
    offsets: Arc<Vec<u32>>,
    write: bool,
    job: Arc<JobState>,
}

impl Phase for EntryPhase {
    fn execute(&self, env: &mut WorkerEnv<'_>) {
        if env.machine.id == 0 && env.worker_idx == 0 {
            if self.write {
                env.comm.set_mut_kind(MsgKind::Write);
            }
            for (i, &off) in self.offsets.iter().enumerate() {
                if self.write {
                    env.comm.push_mut(1, self.prop, ReduceOp::Sum, off, 1);
                } else {
                    let rec = SideRec {
                        node: 0,
                        aux: i as u64,
                    };
                    env.comm.push_read(1, self.prop, off, rec);
                }
            }
            env.comm.flush();
        }
        self.job.retire();
        drain_until_complete(env, &self.job, |_, _, bits| {
            black_box(bits);
        });
    }
}

/// Figure 8b: every worker floods every other machine with `count`
/// opaque payloads of `bytes`.
struct FloodPhase {
    bytes: usize,
    count: usize,
    job: Arc<JobState>,
}

impl Phase for FloodPhase {
    fn execute(&self, env: &mut WorkerEnv<'_>) {
        let m = env.machine;
        for _ in 0..self.count {
            for dst in (0..m.config.machines as u16).filter(|&d| d != m.id) {
                // Recycled (dirty) payloads: the bytes are opaque, so skip
                // the memset a fresh `vec![0; n]` would pay per message.
                let mut payload = m.send_pool.acquire_or_alloc_dirty();
                if payload.len() != self.bytes {
                    payload.resize(self.bytes, 0);
                }
                m.pending.fetch_add(1, Ordering::AcqRel);
                m.term.add_inc(1);
                let _ = m.outbox_tx.send(Envelope {
                    src: m.id,
                    dst,
                    kind: MsgKind::Ping,
                    worker: env.worker_idx as u16,
                    side_id: 0,
                    seq: 0,
                    payload,
                });
            }
        }
        self.job.retire();
        drain_until_complete(env, &self.job, |_, _, _| {});
    }
}

/// One-entry read, flush, wait for the value — `rounds` times in a row.
struct RttPhase {
    prop: PropId,
    rounds: usize,
    job: Arc<JobState>,
}

impl Phase for RttPhase {
    fn execute(&self, env: &mut WorkerEnv<'_>) {
        if env.machine.id == 0 && env.worker_idx == 0 {
            let mut got = 0usize;
            for i in 0..self.rounds {
                let rec = SideRec {
                    node: 0,
                    aux: i as u64,
                };
                env.comm.push_read(1, self.prop, (i % 16) as u32, rec);
                env.comm.flush();
                while got <= i {
                    if !drain_once(env, &mut |_: &mut WorkerEnv<'_>, _, _| got += 1) {
                        if env.machine.health.is_aborted() {
                            return;
                        }
                        std::thread::yield_now();
                    }
                }
            }
        }
        self.job.retire();
        drain_until_complete(env, &self.job, |_, _, _| {});
    }
}

fn flood_gbps(cluster: &mut Cluster, bytes: usize, count: usize) -> f64 {
    let s = run_phase(cluster, |job| Arc::new(FloodPhase { bytes, count, job }));
    // Two machines: one link each way.
    2.0 * (count * bytes) as f64 / s / 1e9
}

const RTT_ROUNDS: usize = 200;

fn rtt_us(cluster: &mut Cluster, prop: PropId) -> f64 {
    let s = run_phase(cluster, |job| {
        Arc::new(RttPhase {
            prop,
            rounds: RTT_ROUNDS,
            job,
        })
    });
    s * 1e6 / RTT_ROUNDS as f64
}

/// Pseudo-random offsets into a column of `len` values.
fn offsets(len: u32, count: usize) -> Arc<Vec<u32>> {
    let mut x = 0x9E37_79B9u64;
    Arc::new(
        (0..count)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % len as u64) as u32
            })
            .collect(),
    )
}

fn two_machine_cluster(g: &Graph, buffer_bytes: Option<usize>) -> Cluster {
    let mut b = base_config(2, 1, false);
    if let Some(bytes) = buffer_bytes {
        b = b.buffer_bytes(bytes);
    }
    Cluster::load(g, b.build().expect("kernel config")).expect("kernel cluster")
}

// ---------------------------------------------------------------------
// worker: the remote entry path end to end
// ---------------------------------------------------------------------

fn remote_entries(st: &mut Stage<'_>) {
    // The target column must not be cache-resident: 2^20 vertices are
    // 4 MB of property data per machine.
    let g = generate::ring(1 << 20);
    let mut cluster = two_machine_cluster(&g, None);
    let prop = cluster.add_prop_raw("kernel", TypeTag::U64, 0);
    const ENTRIES: usize = 200_000;
    let offs = offsets(cluster.partition().len(1) as u32, ENTRIES);
    for (name, write) in [
        ("worker.remote_read_entries_per_s", false),
        ("worker.remote_write_entries_per_s", true),
    ] {
        st.sample(name, 8, || {
            let s = run_phase(&mut cluster, |job| {
                Arc::new(EntryPhase {
                    prop,
                    offsets: offs.clone(),
                    write,
                    job,
                })
            });
            ENTRIES as f64 / s
        });
    }
}

// ---------------------------------------------------------------------
// fabric / tcp: bandwidth at two message sizes, and one round trip
// ---------------------------------------------------------------------

/// (in-memory metric, loopback metric, message bytes, messages per link
/// per sample)
const FLOODS: [(&str, &str, usize, usize); 2] = [
    (
        "fabric.flood_256k_gbps",
        "tcp.flood_256k_gbps",
        256 << 10,
        16,
    ),
    ("fabric.flood_4k_gbps", "tcp.flood_4k_gbps", 4 << 10, 256),
];
/// The round trip is measured on the small-buffer cluster of each pair.
const RTT_ON: usize = 4 << 10;

fn fabric(st: &mut Stage<'_>) {
    let g = generate::ring(1024);
    for (name, _, bytes, count) in FLOODS {
        // The pool vends buffers of the probe size so recycling round-trips.
        let mut cluster = two_machine_cluster(&g, Some(bytes));
        st.sample(name, 3, || flood_gbps(&mut cluster, bytes, count));
        if bytes == RTT_ON {
            let prop = cluster.add_prop_raw("kernel", TypeTag::U64, 0);
            st.sample("fabric.read_rtt_us", 3, || rtt_us(&mut cluster, prop));
        }
    }
}

fn tcp(st: &mut Stage<'_>) {
    let g = Arc::new(generate::ring(1024));
    let mut bootstrap_ms = Vec::new();
    for (_, name, bytes, count) in FLOODS {
        let mut pair = TcpPair::start(g.clone(), false, Some(bytes)).expect("loopback pair");
        bootstrap_ms.push(pair.bootstrap_s * 1e3);
        st.sample(name, 4, || {
            pair.both(move |e| flood_gbps(e.cluster_mut(), bytes, count))
                .0
        });
        if bytes == RTT_ON {
            // Property registration is a sequential-region step every
            // rank performs; ids agree because both do it in lockstep.
            let (prop, _) = pair.both(|e| e.cluster_mut().add_prop_raw("kernel", TypeTag::U64, 0));
            st.sample("tcp.read_rtt_us", 4, || {
                pair.both(move |e| rtt_us(e.cluster_mut(), prop)).0
            });
        }
        pair.stop();
    }
    st.out.push(("tcp.bootstrap_ms", bootstrap_ms));
}

// ---------------------------------------------------------------------
// sched / query
// ---------------------------------------------------------------------

/// Submit -> join of a closure that does nothing, one outstanding: the
/// floor under every served latency.
fn sched(st: &mut Stage<'_>) {
    let server = tiny_engine(false).into_server();
    let session = server.session("kernel");
    st.sample("sched.empty_job_us", 2, || {
        secs(|| {
            session
                .submit(Lane::Interactive, 0, |_: &mut Engine, _| Ok(()))
                .and_then(|h| h.join())
                .expect("empty served job")
        }) * 1e6
    });
    drop(session);
    drop(server.shutdown());
}

/// Query time over built-in time, same engine, same iterations.
fn query(st: &mut Stage<'_>, seed: u64) {
    const ITERS: usize = 10;
    let text = pagerank_program(ITERS);
    st.sample("query.compile_us", 1, || {
        secs(|| {
            drop(black_box(
                pgxd_query::compile(&text, 1 << 16).expect("compiles"),
            ))
        }) * 1e6
    });

    let g = skew(14, seed);
    let root = seeded_roots(&g, seed, 1)[0];
    let mut engine = build_engine(&g, 2, 1, false).expect("2x1 engine");
    st.sample("query.exec_ratio_pr", 10, || {
        let builtin = secs(|| {
            algos::try_pagerank_pull(&mut engine, DAMPING, ITERS, 0.0).expect("built-in");
        });
        let query = secs(|| {
            run_query(&mut engine, &text).expect("query");
        });
        query / builtin
    });
    let text = hopdist_program(root);
    st.sample("query.exec_ratio_bfs", 3, || {
        let builtin = secs(|| {
            algos::try_hopdist(&mut engine, root).expect("built-in");
        });
        let query = secs(|| {
            run_query(&mut engine, &text).expect("query");
        });
        query / builtin
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_add_up() {
        // graph 2, engine 3, props 3, phase 4, message 5, buffer 1,
        // worker 16, fabric 9, tcp 12, sched 2, query 14.
        assert_eq!(2 + 3 + 3 + 4 + 5 + 1 + 16 + 9 + 12 + 2 + 14, TOTAL_WEIGHT);
    }

    /// Every kernel metric the spec names is produced, with at least the
    /// minimum sample count, and is a positive finite number.
    #[test]
    fn every_kernel_reports() {
        let mut spans = Spans::new(true);
        let g = Arc::new(skew(10, 3));
        let out = run_all(Duration::from_millis(200), 3, Some(g), &mut spans, &|_| {});
        let kernel_names: Vec<&str> = crate::spec::PER_LAYER
            .iter()
            .map(|m| m.name)
            .skip_while(|n| *n != "graph.csr_scan_edges_per_s")
            .take_while(|n| *n != "wire.msgs")
            .collect();
        assert_eq!(kernel_names.len(), 28);
        for name in kernel_names {
            let (_, samples) = out
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("{name} missing"));
            let floor = if name == "tcp.bootstrap_ms" {
                2
            } else {
                MIN_SAMPLES
            };
            assert!(samples.len() >= floor, "{name}: {} samples", samples.len());
            assert!(
                samples.iter().all(|x| x.is_finite() && *x > 0.0),
                "{name}: {samples:?}"
            );
        }
        assert!(spans.self_times().iter().any(|(n, _, _)| n == "kernel:tcp"));
    }
}
