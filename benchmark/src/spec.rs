//! The benchmark's contract in one place: workload names and reasons,
//! every metric's unit, direction and regression bound. `BENCHMARK.json`
//! at the repository root is this table rendered (`pgxd-benchmark spec`);
//! a unit test keeps the two from drifting.

use pgxd_runtime::telemetry::export::json::Value;

/// Seed used when none is given (the workspace's long-standing bench seed).
pub const DEFAULT_SEED: u64 = 0xBE11_0001;
/// A seed never used while the benchmark was tuned; a claimed gain must
/// also hold on it.
pub const HOLDOUT_SEED: u64 = 0x5EED_0002;
/// Seconds of timed repetitions per run.
pub const RUN_SECONDS: u64 = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    PullSkew,
    PushUniform,
    LocalPull,
    BfsSmall,
    ServeMix,
    QueryPr,
    TcpPull,
}

impl Kind {
    pub const ALL: [Kind; 7] = [
        Kind::PullSkew,
        Kind::PushUniform,
        Kind::LocalPull,
        Kind::BfsSmall,
        Kind::ServeMix,
        Kind::QueryPr,
        Kind::TcpPull,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PullSkew => "pull_skew",
            Kind::PushUniform => "push_uniform",
            Kind::LocalPull => "local_pull",
            Kind::BfsSmall => "bfs_small",
            Kind::ServeMix => "serve_mix",
            Kind::QueryPr => "query_pr",
            Kind::TcpPull => "tcp_pull",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Why the workload exists — which layers it loads and which it
    /// bypasses (one line; BENCHMARK.json caps it at 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Kind::PullSkew => {
                "PageRank by data pulling on a skewed R-MAT graph, 2 machines: remote reads, \
                 read combining, copier service, response drain and ghosts do most of the work"
            }
            Kind::PushUniform => {
                "PageRank by data pushing on a uniform graph: one-way remote writes reduced by \
                 copiers, no responses, no combining, no ghosts; a read-path gain must not cost here"
            }
            Kind::LocalPull => {
                "the pull job on 1 machine x 1 worker: zero wire traffic, only CSR, chunk/task \
                 loop and property atomics; comm changes must not move it"
            }
            Kind::BfsSmall => {
                "hundreds of hop-distance calls on a 4k-node graph: per-phase fixed cost (job \
                 start, barrier, termination, ghost sync, read RTT) dominates, edge work is negligible"
            }
            Kind::ServeMix => {
                "job server, closed loop of 4 clients mixing interactive PageRank and batch BFS: \
                 one dispatcher serialises jobs, so queueing, lanes and admission show only here"
            }
            Kind::QueryPr => {
                "pull_skew's PageRank compiled from a query program, same cluster and iterations: \
                 the query layer over identical engine jobs; its rate over pull_skew's is the query/built-in ratio"
            }
            Kind::TcpPull => {
                "pull_skew's job on two node-mode ranks over loopback TCP (thread-hosted): frame \
                 headers, socket reads/writes, messaged termination and driver collectives"
            }
        }
    }

    /// Workloads on which one repetition's wire counters must repeat
    /// exactly from run to run (one worker per machine, no served mix).
    pub fn counts_are_exact(self) -> bool {
        matches!(self, Kind::PullSkew | Kind::PushUniform | Kind::LocalPull)
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    /// A program-side count that must compare equal, not "within bound".
    pub is_count: bool,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
        is_count: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
        is_count: false,
    }
}

const fn count(name: &'static str) -> Metric {
    Metric {
        name,
        unit: "count",
        higher_is_better: false,
        bound: None,
        is_count: true,
    }
}

/// What a user of the system sees. Every workload reports every one of
/// these (the run contract), so each is defined for every workload:
/// a *job* is one algorithm call, one served job or one query program.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("edges_per_s", "1/s", true, 0.25),
    e2e("jobs_per_s", "1/s", true, 0.25),
    e2e("latency_p50_ms", "ms", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.15),
];

/// One number per layer (layer = module of `crates/*`), from a traced run.
pub const PER_LAYER: [Metric; 58] = [
    // -- the host: core frequency over the reference (see `clock`); the
    // per-layer times below are wall-clock times taken at this speed ------
    layer("host.clock_speed", "ratio", true),
    // -- kernels: set-up cost ------------------------------------------
    layer("graph.generate_s", "s", false),
    layer("cluster.load_s", "s", false),
    // -- kernels: the ladder from raw CSR to the engine loop ------------
    layer("graph.csr_scan_edges_per_s", "1/s", true),
    layer("engine.noop_scan_edges_per_s", "1/s", true),
    // -- kernels: driver-side property operations -----------------------
    layer("props.fill_ns_per_node", "ns", false),
    layer("props.reduce_ns_per_node", "ns", false),
    layer("props.gather_ns_per_node", "ns", false),
    // -- kernels: per-phase fixed costs ---------------------------------
    layer("engine.empty_job_us", "us", false),
    layer("barrier.shared_us", "us", false),
    layer("barrier.dist_us", "us", false),
    layer("term.strict_empty_job_us", "us", false),
    // -- kernels: entry marshalling --------------------------------------
    layer("message.read_encode_entries_per_s", "1/s", true),
    layer("message.read_decode_entries_per_s", "1/s", true),
    layer("message.mut_encode_entries_per_s", "1/s", true),
    layer("message.mut_decode_entries_per_s", "1/s", true),
    layer("message.frame_header_ns", "ns", false),
    layer("buffer.acquire_release_ns", "ns", false),
    // -- kernels: worker -> fabric -> copier round trips -----------------
    layer("worker.remote_read_entries_per_s", "1/s", true),
    layer("worker.remote_write_entries_per_s", "1/s", true),
    layer("fabric.flood_256k_gbps", "GB/s", true),
    layer("fabric.flood_4k_gbps", "GB/s", true),
    layer("fabric.read_rtt_us", "us", false),
    layer("tcp.flood_256k_gbps", "GB/s", true),
    layer("tcp.flood_4k_gbps", "GB/s", true),
    layer("tcp.read_rtt_us", "us", false),
    layer("tcp.bootstrap_ms", "ms", false),
    // -- kernels: serving and query layers -------------------------------
    layer("sched.empty_job_us", "us", false),
    layer("query.compile_us", "us", false),
    layer("query.exec_ratio_pr", "ratio", false),
    layer("query.exec_ratio_bfs", "ratio", false),
    // -- counts over one repetition of the workload ----------------------
    count("wire.msgs"),
    count("wire.bytes"),
    count("wire.header_bytes"),
    count("wire.read_entries"),
    count("wire.write_entries"),
    count("wire.ghost_entries"),
    layer("wire.bytes_per_edge", "B", false),
    layer("wire.entries_per_msg", "count", true),
    count("worker.local_reads"),
    count("worker.local_writes"),
    count("worker.combined_read_hits"),
    layer("worker.combine_hit_ratio", "ratio", true),
    count("buffer.pool_exhausted"),
    count("reliable.retransmits"),
    count("tcp.reconnects"),
    // -- traced-run times of the workload --------------------------------
    layer("engine.compute_s", "s", false),
    layer("engine.comm_s", "s", false),
    layer("engine.drain_s", "s", false),
    layer("engine.engine_jobs", "count", false),
    layer("engine.barrier_residence_ms", "ms", false),
    layer("engine.unattributed_share", "ratio", false),
    layer("sched.queue_wait_p50_ms", "ms", false),
    layer("sched.run_p50_ms", "ms", false),
    layer("sched.queue_wait_share", "ratio", false),
    layer("job.latency_p90_ms", "ms", false),
    layer("telemetry.on_overhead_ratio", "ratio", false),
    layer("bench.rep_wall_s", "s", false),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

fn better(m: &Metric) -> &'static str {
    if m.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// `BENCHMARK.json`, exactly the keys the run contract names.
pub fn benchmark_json() -> Value {
    Value::obj(vec![
        (
            "command",
            Value::Arr(vec!["bash".into(), "benchmark/run.sh".into()]),
        ),
        ("paths", Value::Arr(vec!["benchmark".into()])),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Value::Arr(
                Kind::ALL
                    .iter()
                    .map(|k| Value::obj(vec![("name", k.name().into()), ("why", k.why().into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj(vec![
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", better(m).into()),
                            ("bound", m.bound.expect("end-to-end bound").into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj(vec![
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", better(m).into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for k in Kind::ALL {
            assert!(name_ok(k.name()), "{}", k.name());
            assert!(
                k.why().len() <= 200 && !k.why().contains('\n'),
                "{}",
                k.name()
            );
            assert!(seen.insert(k.name()));
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in &END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.higher_is_better), ("s", false));
        let widest = END_TO_END
            .iter()
            .map(|m| m.bound.unwrap())
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_table() {
        let on_disk = Value::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        assert_eq!(on_disk, benchmark_json(), "run `pgxd-benchmark spec`");
        assert!(include_str!("../../BENCHMARK.json").len() <= 64 * 1024);
    }
}
