//! One run of one workload: set-up, warm-up, timed repetitions, the
//! correctness gate, and the result line.
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics on an
//! engine built with telemetry off and records no spans. A traced run
//! (`--trace 1`) repeats the workload on a telemetry-on engine inside the
//! engine's job window, alternating with an untraced twin to price the
//! instruments, records benchmark-side spans, runs the kernel stage, and
//! reports the per-layer metrics.

use crate::affinity;
use crate::clock;
use crate::kernels;
use crate::spans::Spans;
use crate::spec::{self, Kind, Metric};
use crate::stats::{self, Summary};
use crate::workloads::{self, Rep, Sizes, Workload};
use pgxd::StatsSnapshot;
use pgxd_runtime::telemetry::export::json::Value;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub struct RunArgs {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// Where runs leave their detail files and traces (inside the checkout).
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

// ---------------------------------------------------------------------
// Hard timeouts
// ---------------------------------------------------------------------

/// Names the stage the run is in and when it must be over. A helper
/// thread ends the process, naming the stage, if a deadline passes — a
/// hung phase fails the run instead of wedging it.
pub struct Watchdog {
    state: Arc<Mutex<(String, Instant)>>,
    stop: Option<std::sync::mpsc::Sender<()>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    pub fn start() -> Watchdog {
        let state = Arc::new(Mutex::new((
            "start".to_string(),
            Instant::now() + Duration::from_secs(60),
        )));
        let (stop, stopped) = std::sync::mpsc::channel::<()>();
        let watched = state.clone();
        let thread = std::thread::Builder::new()
            .name("bench-watchdog".into())
            .spawn(move || loop {
                match stopped.recv_timeout(Duration::from_millis(200)) {
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
                    _ => return,
                }
                let (stage, deadline) = watched.lock().expect("watchdog state").clone();
                if Instant::now() > deadline {
                    eprintln!("benchmark: stage `{stage}` exceeded its hard timeout");
                    std::process::exit(124);
                }
            })
            .expect("spawn watchdog");
        Watchdog {
            state,
            stop: Some(stop),
            thread: Some(thread),
        }
    }

    pub fn stage(&self, name: &str, limit: Duration) {
        *self.state.lock().expect("watchdog state") = (name.to_string(), Instant::now() + limit);
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

// ---------------------------------------------------------------------
// Measured values
// ---------------------------------------------------------------------

/// One reported figure: the value that stands for its samples, and their
/// summary.
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Summary,
}

fn metric(name: &str) -> &'static Metric {
    spec::find(name).unwrap_or_else(|| panic!("metric {name} is not in the spec"))
}

/// A per-layer metric: the median of its samples.
fn reported(name: &str, samples: &[f64]) -> Reported {
    let m = metric(name);
    let summary = Summary::of(samples);
    Reported {
        name: m.name,
        unit: m.unit,
        value: summary.median,
        summary,
    }
}

/// An end-to-end metric: the *fast quartile* of its samples — the first
/// quartile of a time, the third of a rate. Everything that disturbs a
/// run on a shared host (a neighbour's burst on the same core slows a
/// repetition 1.5–1.8x for seconds at a time, interrupts, stolen time)
/// only ever adds time, so the median of a run's repetitions depends on
/// what share of them was hit, run to run; the level a quarter of them
/// reach does not, as long as a quarter ran undisturbed.
fn fast_quartile(name: &str, samples: &[f64]) -> Reported {
    let m = metric(name);
    let summary = Summary::of(samples);
    // Of two samples the quartiles lie outside both; report nothing
    // faster than the fastest sample.
    let value = if m.higher_is_better {
        summary
            .q3
            .min(samples.iter().copied().fold(f64::NEG_INFINITY, f64::max))
    } else {
        summary.q1.max(summary.min)
    };
    Reported {
        name: m.name,
        unit: m.unit,
        value,
        summary,
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-repetition samples of the end-to-end rates and latency, in
/// clock-corrected seconds (`speeds[i]` is the core's speed during
/// repetition `i`; see `clock`).
fn end_to_end_samples(
    reps: &[Rep],
    speeds: &[f64],
    edges_per_rep: f64,
) -> [(&'static str, Vec<f64>); 3] {
    // Corrected seconds one repetition took.
    let secs = |i: usize| reps[i].wall_s * speeds[i];
    let each = |value: &dyn Fn(usize) -> f64| -> Vec<f64> { (0..reps.len()).map(value).collect() };
    [
        ("edges_per_s", each(&|i| edges_per_rep / secs(i))),
        ("jobs_per_s", each(&|i| reps[i].jobs as f64 / secs(i))),
        (
            "latency_p50_ms",
            each(&|i| stats::median(&reps[i].latencies_ms) * speeds[i]),
        ),
    ]
}

struct Outcome {
    metrics: Vec<Reported>,
    /// Printed and kept in the detail file but not part of the result
    /// line: what the wall clock said before correction.
    asides: Vec<Reported>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

// ---------------------------------------------------------------------
// Untraced run: end-to-end metrics
// ---------------------------------------------------------------------

/// Set-up is cheap next to the timed part, so it is repeated, each
/// instance between two readings of the clock's speed; the last instance
/// is the one the run uses. The count
/// is fixed per workload (not time-based) so that every run of a workload
/// has done the same work when its memory high-water mark is read.
fn repeated_setup(
    args: &RunArgs,
    sizes: Sizes,
) -> Result<(Box<dyn Workload>, Vec<SetupSample>), String> {
    // A 65 k-node R-MAT set-up takes 0.4 s, the others under 0.1 s.
    let repeats = match args.kind {
        _ if args.quick => 2,
        Kind::PushUniform | Kind::BfsSmall | Kind::ServeMix => 12,
        _ => 4,
    };
    let mut samples = Vec::new();
    loop {
        let (built, speed) = clock::paced(|| {
            let t0 = Instant::now();
            let graph = Arc::new(workloads::graph_for(args.kind, args.seed));
            let built = workloads::build(args.kind, graph, args.seed, sizes, false);
            built.map(|(workload, _)| (workload, t0.elapsed().as_secs_f64()))
        });
        let (workload, wall_s) = built?;
        samples.push(SetupSample { wall_s, speed });
        if samples.len() == repeats {
            return Ok((workload, samples));
        }
        workload.finish();
    }
}

struct SetupSample {
    wall_s: f64,
    speed: f64,
}

fn run_untraced(args: &RunArgs, dog: &Watchdog) -> Result<Outcome, String> {
    let sizes = Sizes::new(args.quick);
    dog.stage("setup", Duration::from_secs(60));
    let (mut workload, setup_samples) = repeated_setup(args, sizes)?;
    // Memory of a loaded, idle engine. Later high-water marks depend on
    // timing (a worker that outruns the copiers allocates send buffers
    // past the pool quota) and on how many jobs have run, so they do not
    // repeat from run to run; this one does.
    let rss = peak_rss_mb();

    dog.stage("warmup", Duration::from_secs(60));
    let mut failed = 0;
    let mut attempted = 0;
    for _ in 0..workloads::warmup_reps(args.kind, args.quick) {
        let rep = workload.rep(false);
        attempted += rep.jobs;
        failed += rep.failed;
    }

    dog.stage("timed reps", Duration::from_secs_f64(args.seconds + 60.0));
    let mut reps = Vec::new();
    let mut speeds = Vec::new();
    let started = Instant::now();
    while reps.len() < 3 || started.elapsed().as_secs_f64() < args.seconds {
        let (rep, speed) = clock::paced(|| workload.rep(false));
        reps.push(rep);
        speeds.push(speed);
    }
    attempted += reps.iter().map(|r| r.jobs).sum::<u64>();
    failed += reps.iter().map(|r| r.failed).sum::<u64>();

    dog.stage("verify", Duration::from_secs(60));
    let edges_per_rep = workload.edges_per_rep();
    let verdict = workload.verify();
    workload.finish();

    let setup_each =
        |value: fn(&SetupSample) -> f64| -> Vec<f64> { setup_samples.iter().map(value).collect() };
    let mut metrics = vec![fast_quartile(
        "setup_s",
        &setup_each(|s| s.wall_s * s.speed),
    )];
    for (name, samples) in end_to_end_samples(&reps, &speeds, edges_per_rep) {
        metrics.push(fast_quartile(name, &samples));
    }
    metrics.push(fast_quartile("peak_rss_mb", &[rss]));
    let aside = |name, unit, samples: &[f64]| {
        let summary = Summary::of(samples);
        Reported {
            name,
            unit,
            value: summary.median,
            summary,
        }
    };
    let wall_rates: Vec<f64> = reps.iter().map(|r| edges_per_rep / r.wall_s).collect();
    let asides = vec![
        aside("clock.speed", "ratio", &speeds),
        aside("wall.setup_s", "s", &setup_each(|s| s.wall_s)),
        aside("wall.edges_per_s", "1/s", &wall_rates),
    ];
    Ok(Outcome {
        metrics,
        asides,
        attempted: attempted + verdict.attempted,
        failed: failed + verdict.failed,
        notes: verdict.notes,
    })
}

// ---------------------------------------------------------------------
// Traced run: per-layer metrics
// ---------------------------------------------------------------------

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer counts of one repetition, in spec order.
fn count_samples(
    t: &StatsSnapshot,
    edges_per_rep: f64,
    reconnects: u64,
) -> Vec<(&'static str, f64)> {
    let entries = t.read_entries + t.write_entries + t.ghost_entries + t.rmi_entries;
    vec![
        ("wire.msgs", t.msgs_sent as f64),
        ("wire.bytes", t.bytes_sent as f64),
        ("wire.header_bytes", t.header_bytes_sent as f64),
        ("wire.read_entries", t.read_entries as f64),
        ("wire.write_entries", t.write_entries as f64),
        ("wire.ghost_entries", t.ghost_entries as f64),
        (
            "wire.bytes_per_edge",
            ratio(t.bytes_sent as f64, edges_per_rep),
        ),
        (
            "wire.entries_per_msg",
            ratio(entries as f64, t.msgs_sent as f64),
        ),
        ("worker.local_reads", t.local_reads as f64),
        ("worker.local_writes", t.local_writes as f64),
        ("worker.combined_read_hits", t.combined_read_hits as f64),
        (
            "worker.combine_hit_ratio",
            ratio(
                t.combined_read_hits as f64,
                (t.combined_read_hits + t.read_entries) as f64,
            ),
        ),
        ("buffer.pool_exhausted", t.pool_exhausted as f64),
        ("reliable.retransmits", t.retransmits as f64),
        ("tcp.reconnects", reconnects as f64),
    ]
}

/// Per-layer values the workload's own repetitions give: the counts of
/// the last traced repetition and the engine-side times of all of them.
fn workload_layers(
    traced_reps: &[Rep],
    plain_reps: &[Rep],
    edges_per_rep: f64,
) -> Vec<(&'static str, Vec<f64>)> {
    let mut values: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let last = traced_reps.last().expect("at least three traced reps");
    let traffic = last.traffic.unwrap_or_default();
    for (name, v) in count_samples(&traffic, edges_per_rep, last.reconnects) {
        values.push((name, vec![v]));
    }

    let exec = |pick: fn(&workloads::ExecSummary) -> f64| -> Vec<f64> {
        traced_reps
            .iter()
            .filter_map(|r| r.exec.as_ref().map(pick))
            .collect()
    };
    let walls: Vec<f64> = traced_reps.iter().map(|r| r.wall_s).collect();
    values.push(("engine.compute_s", exec(|e| e.compute_s)));
    values.push(("engine.comm_s", exec(|e| e.comm_s)));
    values.push(("engine.drain_s", exec(|e| e.drain_s)));
    values.push(("engine.engine_jobs", exec(|e| e.engine_jobs)));
    values.push(("engine.barrier_residence_ms", exec(|e| e.barrier_ms)));
    // Share of the repetition's wall time the engine's own breakdown does
    // not cover: driver-side sequential regions, ghost phases, phase
    // start/stop, and (served) queueing between jobs.
    values.push((
        "engine.unattributed_share",
        traced_reps
            .iter()
            .filter_map(|r| {
                let e = r.exec.as_ref()?;
                Some(1.0 - (e.compute_s + e.comm_s + e.drain_s) / r.wall_s)
            })
            .collect(),
    ));
    // Scheduler figures exist only where a scheduler is on the path; a
    // workload without one spends zero time queued.
    let per_rep_median = |pick: fn(&workloads::ExecSummary) -> &Vec<f64>| -> Vec<f64> {
        traced_reps
            .iter()
            .filter_map(|r| r.exec.as_ref().map(pick))
            .map(|v| if v.is_empty() { 0.0 } else { stats::median(v) })
            .collect()
    };
    values.push((
        "sched.queue_wait_p50_ms",
        per_rep_median(|e| &e.queue_wait_ms),
    ));
    values.push(("sched.run_p50_ms", per_rep_median(|e| &e.run_ms)));
    values.push((
        "sched.queue_wait_share",
        traced_reps
            .iter()
            .filter_map(|r| r.exec.as_ref())
            .map(|e| {
                let wait: f64 = e.queue_wait_ms.iter().sum();
                ratio(wait, wait + e.run_ms.iter().sum::<f64>())
            })
            .collect(),
    ));
    // p90 only where a repetition leaves ten samples beyond it; zero says
    // "no such percentile on this workload".
    values.push((
        "job.latency_p90_ms",
        traced_reps
            .iter()
            .map(|r| stats::percentile(&r.latencies_ms, 0.90).unwrap_or(0.0))
            .collect(),
    ));
    let plain_walls: Vec<f64> = plain_reps.iter().map(|r| r.wall_s).collect();
    values.push((
        "telemetry.on_overhead_ratio",
        vec![stats::median(&walls) / stats::median(&plain_walls)],
    ));
    values.push(("bench.rep_wall_s", walls));

    values
}

fn run_traced(args: &RunArgs, dog: &Watchdog, spans: &mut Spans) -> Result<Outcome, String> {
    let sizes = Sizes::new(args.quick);
    let kind = args.kind;
    spans.enter("bench");
    spans.enter(&format!("workload:{}", kind.name()));

    // Set-up: one graph, two engines — the untraced twin prices the
    // instruments on identical inputs.
    dog.stage("setup", Duration::from_secs(60));
    spans.enter("setup");
    let t0 = Instant::now();
    let graph = spans.scope("graph.generate", |_| {
        Arc::new(workloads::graph_for(kind, args.seed))
    });
    let generate_s = t0.elapsed().as_secs_f64();
    let mut load_samples = Vec::new();
    let mut build = |telemetry: bool, spans: &mut Spans| -> Result<Box<dyn Workload>, String> {
        spans.enter("engine.build");
        let start = Instant::now();
        let built = workloads::build(kind, graph.clone(), args.seed, sizes, telemetry);
        if let Ok((_, times)) = &built {
            if times.bootstrap_s > 0.0 {
                let boot_end = start + Duration::from_secs_f64(times.bootstrap_s);
                spans.record("tcp.bootstrap", start, boot_end);
            }
            load_samples.push(times.build_s);
        }
        spans.exit();
        built.map(|(w, _)| w)
    };
    let mut plain = build(false, spans)?;
    let mut traced = build(true, spans)?;
    spans.exit();

    dog.stage("warmup", Duration::from_secs(60));
    let mut attempted = 0;
    let mut failed = 0;
    spans.scope("warmup", |_| {
        for w in [&mut plain, &mut traced] {
            let rep = w.rep(false);
            attempted += rep.jobs;
            failed += rep.failed;
        }
    });

    // Half the budget goes to the workload, half to the kernels.
    let budget = args.seconds / 2.0;
    dog.stage("traced reps", Duration::from_secs_f64(budget + 90.0));
    let mut plain_reps = Vec::new();
    let mut traced_reps = Vec::new();
    // Per-layer times are wall-clock times; the core's speed while they
    // were taken is reported beside them (see `clock`).
    let mut speeds = vec![clock::speed()];
    let started = Instant::now();
    while traced_reps.len() < 3 || started.elapsed().as_secs_f64() < budget {
        let i = traced_reps.len();
        spans.enter(&format!("rep:{i}"));
        // Alternate which twin goes first, so neither always runs on the
        // state the other left behind.
        if i % 2 == 0 {
            plain_reps.push(spans.scope("call:untraced", |_| plain.rep(false)));
        }
        traced_reps.push(spans.scope("call:traced", |_| traced.rep(true)));
        if i % 2 == 1 {
            plain_reps.push(spans.scope("call:untraced", |_| plain.rep(false)));
        }
        spans.exit();
        speeds.push(clock::speed());
    }
    for rep in plain_reps.iter().chain(&traced_reps) {
        attempted += rep.jobs;
        failed += rep.failed;
    }

    dog.stage("verify", Duration::from_secs(60));
    let edges_per_rep = traced.edges_per_rep();
    let verdict = spans.scope("verify", |_| traced.verify());
    plain.finish();
    traced.finish();
    spans.exit(); // workload:<name>

    let kernel_budget = Duration::from_secs_f64(args.seconds / 2.0);
    let skew16 = (graph.num_nodes() == 1 << 16 && kind != Kind::PushUniform).then_some(graph);
    let kernel_samples = spans.scope("kernels", |spans| {
        kernels::run_all(kernel_budget, args.seed, skew16, spans, &|group| {
            dog.stage(&format!("kernel:{group}"), Duration::from_secs(60));
        })
    });
    spans.exit(); // bench

    // -- assemble, in spec order ---------------------------------------
    let mut values: Vec<(&'static str, Vec<f64>)> = vec![
        ("host.clock_speed", speeds),
        ("graph.generate_s", vec![generate_s]),
        ("cluster.load_s", load_samples),
    ];
    values.extend(kernel_samples);

    values.extend(workload_layers(&traced_reps, &plain_reps, edges_per_rep));

    let metrics = spec::PER_LAYER
        .iter()
        .map(|m| {
            let samples = values
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|(_, s)| s.as_slice())
                .filter(|s| !s.is_empty())
                .ok_or_else(|| format!("per-layer metric {} was not measured", m.name))?;
            Ok(reported(m.name, samples))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Outcome {
        metrics,
        asides: Vec::new(),
        attempted: attempted + verdict.attempted,
        failed: failed + verdict.failed,
        notes: verdict.notes,
    })
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

fn print_table(args: &RunArgs, outcome: &Outcome) {
    eprintln!(
        "== {} · seed {} · {} s · {} ==",
        args.kind.name(),
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    eprintln!(
        "{:<36} {:>16} {:<6} {:>5} {:>7}  {:>14} {:>14} {:>14} {:>14}",
        "metric", "value", "unit", "n", "iqr %", "q1", "median", "q3", "min"
    );
    let asides = outcome.asides.iter().map(|a| (format!("({})", a.name), a));
    for (name, r) in outcome
        .metrics
        .iter()
        .map(|r| (r.name.to_string(), r))
        .chain(asides)
    {
        let s = &r.summary;
        eprintln!(
            "{:<36} {:>16.6} {:<6} {:>5} {:>7.2}  {:>14.6} {:>14.6} {:>14.6} {:>14.6}",
            name,
            r.value,
            r.unit,
            s.n,
            s.spread() * 100.0,
            s.q1,
            s.median,
            s.q3,
            s.min
        );
    }
    let share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    eprintln!(
        "{:<36} {:>16.6} {:<6} {:>5}",
        "fail_ratio", share, "ratio", outcome.attempted
    );
    for note in &outcome.notes {
        eprintln!("FAILED CHECK: {note}");
    }
}

fn detail_json(args: &RunArgs, outcome: &Outcome) -> Value {
    let (machines, workers, copiers) = workloads::engine_threads(args.kind);
    Value::obj(vec![
        ("workload", args.kind.name().into()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("traced", args.trace.into()),
        ("quick", args.quick.into()),
        (
            "topology",
            Value::obj(vec![
                ("machines", machines.into()),
                ("workers_per_machine", workers.into()),
                ("copiers_per_machine", copiers.into()),
                ("pollers_per_machine", 1u32.into()),
                ("cpus", "one".into()),
                (
                    "transport",
                    if args.kind == Kind::TcpPull {
                        "tcp loopback, both ranks thread-hosted in this process"
                    } else {
                        "in-memory"
                    }
                    .into(),
                ),
            ]),
        ),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        (
            "metrics",
            Value::Obj(
                outcome
                    .metrics
                    .iter()
                    .chain(&outcome.asides)
                    .map(|r| {
                        let s = &r.summary;
                        (
                            r.name.to_string(),
                            Value::obj(vec![
                                ("value", r.value.into()),
                                ("unit", r.unit.into()),
                                ("n", s.n.into()),
                                ("q1", s.q1.into()),
                                ("median", s.median.into()),
                                ("q3", s.q3.into()),
                                ("min", s.min.into()),
                                ("mad", s.mad.into()),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The line the run contract asks for: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
fn result_line(outcome: &Outcome) -> String {
    Value::obj(vec![
        ("correct", (outcome.failed == 0).into()),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        (
            "metrics",
            Value::Obj(
                outcome
                    .metrics
                    .iter()
                    .map(|r| {
                        (
                            r.name.to_string(),
                            Value::obj(vec![("value", r.value.into()), ("unit", r.unit.into())]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .to_compact()
}

pub fn detail_path(kind: Kind, trace: bool) -> PathBuf {
    out_dir().join(format!(
        "run-{}-{}.json",
        kind.name(),
        if trace { "traced" } else { "untraced" }
    ))
}

/// Runs one workload and prints its result line. `Ok(true)` means every
/// operation succeeded and every output was correct.
pub fn run(args: &RunArgs) -> Result<bool, String> {
    // Before any thread exists, so that every thread inherits it.
    match affinity::confine_to_one_cpu() {
        Some(cpu) => eprintln!("benchmark: confined to cpu {cpu}"),
        None => eprintln!("benchmark: could not confine to one cpu; timings will be noisier"),
    }
    let dog = Watchdog::start();
    let mut spans = Spans::new(args.trace);
    let outcome = if args.trace {
        run_traced(args, &dog, &mut spans)?
    } else {
        run_untraced(args, &dog)?
    };
    dog.stage("report", Duration::from_secs(30));

    std::fs::create_dir_all(out_dir()).map_err(|e| format!("create {:?}: {e}", out_dir()))?;
    let write = |path: PathBuf, text: String| {
        std::fs::write(&path, text).map_err(|e| format!("write {path:?}: {e}"))
    };
    write(
        detail_path(args.kind, args.trace),
        detail_json(args, &outcome).to_pretty(),
    )?;
    if spans.is_enabled() {
        // `trace.json` is the latest traced run; the named copy survives a
        // full set, where each workload's run overwrites it.
        let trace = spans.chrome_trace().to_pretty();
        write(
            out_dir().join(format!("trace-{}.json", args.kind.name())),
            trace.clone(),
        )?;
        write(out_dir().join("trace.json"), trace)?;
        eprintln!("{:<28} {:>12} {:>6}", "span (self time)", "ms", "count");
        for (name, us, count) in spans.self_times().iter().take(24) {
            eprintln!("{:<28} {:>12.3} {:>6}", name, us / 1e3, count);
        }
    }
    print_table(args, &outcome);
    println!("{}", result_line(&outcome));
    Ok(outcome.failed == 0)
}
