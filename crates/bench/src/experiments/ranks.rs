//! `pgxd-node` rank processes for the `wire` and `wire-recover` sweeps:
//! pick the graph, spawn one OS process per rank, wait for them, read
//! their `--out` files.
//!
//! The `pgxd-node` binary is located next to the running `repro` binary
//! (both are `pgxd-bench` bins) or via `$PGXD_NODE_BIN`.

use crate::datasets::Scale;
use pgxd_graph::generate;
use std::collections::HashMap;
use std::fmt::Debug;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::str::FromStr;
use std::time::{Duration, Instant};

pub struct GraphSpec {
    /// `--graph` argument understood by `pgxd-node`.
    pub spec: String,
    pub iters: usize,
}

impl GraphSpec {
    /// The sweep's graph; `quick_iters` is the PageRank iteration count at
    /// every scale but the full one.
    pub fn pick(scale: Scale, quick: bool, quick_iters: usize) -> GraphSpec {
        match (scale, quick) {
            (Scale::Full, false) => GraphSpec {
                spec: "rmat:9:8:3017".into(),
                iters: 8,
            },
            _ => GraphSpec {
                spec: "rmat:7:4:3017".into(),
                iters: quick_iters,
            },
        }
    }

    pub fn build(&self) -> pgxd_graph::Graph {
        let p: Vec<&str> = self.spec.split(':').collect();
        generate::rmat(
            p[1].parse().unwrap(),
            p[2].parse().unwrap(),
            generate::RmatParams::skewed(),
            p[3].parse().unwrap(),
        )
    }
}

fn node_bin() -> PathBuf {
    if let Some(p) = std::env::var_os("PGXD_NODE_BIN") {
        return PathBuf::from(p);
    }
    let me = std::env::current_exe().expect("current_exe");
    let sibling = me.with_file_name("pgxd-node");
    assert!(
        sibling.exists(),
        "pgxd-node not found at {} — build it first (`cargo build -p pgxd-bench --bins`) \
         or point $PGXD_NODE_BIN at it",
        sibling.display()
    );
    sibling
}

fn spawn_rank(
    bin: &Path,
    rank: usize,
    machines: usize,
    coord: &str,
    out: &Path,
    g: &GraphSpec,
    extra_args: &[String],
) -> Child {
    let mut cmd = Command::new(bin);
    cmd.arg("--rank")
        .arg(rank.to_string())
        .arg("--machines")
        .arg(machines.to_string())
        .arg("--coord")
        .arg(coord)
        .arg("--out")
        .arg(out)
        .arg("--graph")
        .arg(&g.spec)
        .arg("--iters")
        .arg(g.iters.to_string())
        .args(extra_args);
    // Rank 0's stdout carries the `coord=` announcement; the others only
    // print their final status line, which nobody needs to parse.
    cmd.stdout(if rank == 0 {
        Stdio::piped()
    } else {
        Stdio::null()
    });
    cmd.stderr(Stdio::inherit());
    cmd.spawn()
        .unwrap_or_else(|e| panic!("spawn pgxd-node rank {rank}: {e}"))
}

/// Spawns one rank per entry of `outs` (its `--out` file): rank 0 first,
/// on an ephemeral coordinator port it announces on stdout, then the rest
/// pointed at that address. Returns the children, rank-indexed, and rank
/// 0's stdout — keep it until rank 0 has exited, or its last print fails.
pub fn spawn_cluster(
    outs: &[PathBuf],
    g: &GraphSpec,
    extra_args: &[String],
) -> (Vec<Child>, BufReader<ChildStdout>) {
    let bin = node_bin();
    let machines = outs.len();
    let mut rank0 = spawn_rank(&bin, 0, machines, "127.0.0.1:0", &outs[0], g, extra_args);
    let mut reader = BufReader::new(rank0.stdout.take().expect("rank 0 stdout"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read coord line");
    let coord = line
        .trim()
        .strip_prefix("coord=")
        .unwrap_or_else(|| panic!("rank 0 announced '{}' instead of coord=ADDR", line.trim()));

    let mut children = vec![rank0];
    for (rank, out) in outs.iter().enumerate().skip(1) {
        children.push(spawn_rank(&bin, rank, machines, coord, out, g, extra_args));
    }
    (children, reader)
}

/// Kills every rank and panics with `why`: one failed or wedged rank must
/// not hang the gate.
pub fn kill_all(children: &mut [Child], why: String) -> ! {
    for c in children.iter_mut() {
        c.kill().ok();
    }
    panic!("{why}");
}

/// Waits for every child within `deadline`. Ranks listed in `expect_dead`
/// may exit abnormally (they were SIGKILLed); everyone else must succeed.
pub fn wait_all(mut children: Vec<Child>, expect_dead: &[usize], deadline: Duration) {
    let t0 = Instant::now();
    let mut done = vec![false; children.len()];
    while done.iter().any(|d| !d) {
        for rank in 0..children.len() {
            if done[rank] {
                continue;
            }
            match children[rank].try_wait().expect("try_wait") {
                Some(status) if status.success() || expect_dead.contains(&rank) => {
                    done[rank] = true
                }
                Some(status) => kill_all(
                    &mut children,
                    format!("pgxd-node rank {rank} failed: {status}"),
                ),
                None => {}
            }
        }
        if t0.elapsed() > deadline {
            kill_all(
                &mut children,
                format!("pgxd-node cluster did not finish within {deadline:?}"),
            );
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One rank's `--out` file: `key=value` lines.
pub struct RankOut {
    path: PathBuf,
    fields: HashMap<String, String>,
}

pub fn read_out(path: &Path) -> RankOut {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    RankOut {
        path: path.to_path_buf(),
        fields: text
            .lines()
            .filter_map(|l| l.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    }
}

impl RankOut {
    fn get(&self, key: &str) -> &str {
        self.fields
            .get(key)
            .unwrap_or_else(|| panic!("{} lacks '{key}='", self.path.display()))
    }

    pub fn num<T: FromStr<Err: Debug>>(&self, key: &str) -> T {
        self.get(key).parse().unwrap()
    }

    /// A comma-separated vector.
    pub fn list<T: FromStr<Err: Debug>>(&self, key: &str) -> Vec<T> {
        self.get(key)
            .split(',')
            .map(|s| s.parse().unwrap())
            .collect()
    }

    /// A comma-separated vector of f64 bit patterns in hex.
    pub fn f64s(&self, key: &str) -> Vec<f64> {
        self.get(key)
            .split(',')
            .map(|h| f64::from_bits(u64::from_str_radix(h, 16).unwrap()))
            .collect()
    }
}

pub fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}
