//! Figure 8: network bandwidth explorations (§5.3.4).
//!
//! * (a) remote random-read bandwidth between two machines while varying
//!   copier threads, against the local-DRAM random-read bandwidth and the
//!   raw fabric bandwidth ("Utilized" counts request + response bytes,
//!   "Effective" only data — exactly 2× apart for 8-byte reads).
//! * (b) attained bandwidth vs message buffer size for N:N floods on 2, 4,
//!   and 8 machines — why PGX.D uses large (256 KB) buffers.

use crate::report::Table;
use pgxd_graph::generate;
use pgxd_runtime::cancel::CancelToken;
use pgxd_runtime::message::{Envelope, MsgKind};
use pgxd_runtime::phase::{drain_until_complete, JobState, Phase, WorkerEnv};
use pgxd_runtime::props::{PropId, TypeTag};
use pgxd_runtime::{Cluster, Config};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Workers on machine 0 issue `reads_per_worker` random 8-byte remote
/// reads of machine 1's property column and drain the responses.
struct RandomReadPhase {
    prop: PropId,
    offsets: Arc<Vec<Vec<u32>>>,
    job: Arc<JobState>,
}

impl Phase for RandomReadPhase {
    fn execute(&self, env: &mut WorkerEnv<'_>) {
        if env.machine.id == 0 {
            let offsets = &self.offsets[env.worker_idx];
            for (i, &off) in offsets.iter().enumerate() {
                env.comm.push_read(
                    1,
                    self.prop,
                    off,
                    pgxd_runtime::worker::SideRec {
                        node: 0,
                        aux: i as u64,
                    },
                );
            }
            env.comm.flush();
        }
        self.job.retire();
        drain_until_complete(env, &self.job, |_, _, bits| {
            std::hint::black_box(bits);
        });
    }
}

/// One Figure 8a measurement.
#[derive(Clone, Debug)]
pub struct ReadBandwidth {
    pub copiers: usize,
    /// Data-only GB/s (the paper's "Effective").
    pub effective_gbps: f64,
    /// Request+response GB/s ("Utilized", exactly 2× effective).
    pub utilized_gbps: f64,
}

/// Measures remote random-read bandwidth between two machines.
pub fn remote_read_bandwidth(
    copiers: usize,
    reads_per_worker: usize,
    workers: usize,
) -> ReadBandwidth {
    // The target column must be DRAM-sized (not cache-resident), as in the
    // paper's microbenchmark of random reads over the remote machine's
    // memory: 2^22 vertices ≈ 32 MB of property data per machine.
    let n = 1usize << 22;
    let g = generate::ring(n);
    let mut config = Config::test(2);
    config.workers = workers;
    config.copiers = copiers;
    config.buffer_bytes = 64 << 10;
    let mut cluster = Cluster::load(&g, config).expect("cluster");
    let prop = cluster.add_prop_raw("bw", TypeTag::U64, 0);
    let remote_len = cluster.machine(1).num_local() as u32;

    // Deterministic pseudo-random offsets.
    let offsets: Vec<Vec<u32>> = (0..workers)
        .map(|w| {
            let mut x = 0x9E37_79B9u64.wrapping_add(w as u64);
            (0..reads_per_worker)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % remote_len as u64) as u32
                })
                .collect()
        })
        .collect();
    let offsets = Arc::new(offsets);

    // Warm-up + measured run.
    for measured in [false, true] {
        let job = cluster.job_state(cluster.phase_units(), CancelToken::never());
        let phase = Arc::new(RandomReadPhase {
            prop,
            offsets: offsets.clone(),
            job,
        });
        let t0 = Instant::now();
        cluster.try_run_phase(phase).expect("bench phase");
        if measured {
            let secs = t0.elapsed().as_secs_f64();
            let reads = (workers * reads_per_worker) as f64;
            let effective = reads * 8.0 / secs / 1e9;
            return ReadBandwidth {
                copiers,
                effective_gbps: effective,
                utilized_gbps: effective * 2.0,
            };
        }
    }
    unreachable!()
}

/// Local DRAM random-read bandwidth with `threads` threads (the "Local"
/// line of Figure 8a).
pub fn local_random_read_gbps(threads: usize) -> f64 {
    const ARRAY: usize = 1 << 23; // 64 MB of u64
    const READS_PER_THREAD: usize = 1 << 21;
    let data: Vec<u64> = (0..ARRAY as u64).collect();
    let t0 = Instant::now();
    let total: u64 = std::thread::scope(|s| {
        (0..threads)
            .map(|t| {
                let data = &data;
                s.spawn(move || {
                    let mut x = 0xDEAD_BEEFu64.wrapping_add(t as u64 * 0x9E37);
                    let mut sum = 0u64;
                    for _ in 0..READS_PER_THREAD {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        sum = sum.wrapping_add(data[(x % ARRAY as u64) as usize]);
                    }
                    sum
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum()
    });
    std::hint::black_box(total);
    (threads * READS_PER_THREAD) as f64 * 8.0 / t0.elapsed().as_secs_f64() / 1e9
}

/// Flood phase: every worker sends `count` Ping envelopes of `bytes`
/// payload to every other machine.
struct FloodPhase {
    bytes: usize,
    count: usize,
    job: Arc<JobState>,
}

impl Phase for FloodPhase {
    fn execute(&self, env: &mut WorkerEnv<'_>) {
        let m = env.machine;
        let machines = m.config.machines as u16;
        for _ in 0..self.count {
            for dst in 0..machines {
                if dst == m.id {
                    continue;
                }
                // Recycled (dirty) payload buffers: the bytes are opaque,
                // so skip the per-message memset a fresh `vec![0; n]` pays.
                let mut payload = m.send_pool.acquire_or_alloc_dirty();
                if payload.len() != self.bytes {
                    payload.resize(self.bytes, 0);
                }
                m.pending.fetch_add(1, Ordering::AcqRel);
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
        drain_until_complete(env, &self.job, |_, _, _| unreachable!());
    }
}

/// One Figure 8b measurement.
#[derive(Clone, Copy, Debug)]
pub struct FloodResult {
    /// Attained aggregate bandwidth.
    pub gbps: f64,
    /// Times a sender found the buffer pool empty during the measured run
    /// (back-pressure events; the cost small buffers pay).
    pub pool_stalls: u64,
}

/// Measures an N:N flood with the given buffer size: attained aggregate
/// bandwidth plus the number of buffer-pool back-pressure stalls.
pub fn flood_bandwidth(
    machines: usize,
    buffer_bytes: usize,
    total_bytes_per_link: usize,
) -> FloodResult {
    let g = generate::ring(1024);
    let mut config = Config::test(machines);
    config.workers = 1;
    config.copiers = 1;
    // Pool vends buffers of the probe size so recycling round-trips.
    config.buffer_bytes = buffer_bytes.max(64);
    config.send_buffers_per_machine = 64;
    let mut cluster = Cluster::load(&g, config).expect("cluster");
    let count = (total_bytes_per_link / buffer_bytes).max(1);
    for measured in [false, true] {
        let job = cluster.job_state(cluster.phase_units(), CancelToken::never());
        let phase = Arc::new(FloodPhase {
            bytes: buffer_bytes,
            count,
            job,
        });
        let before = cluster.total_stats();
        let t0 = Instant::now();
        cluster.try_run_phase(phase).expect("bench phase");
        if measured {
            let secs = t0.elapsed().as_secs_f64();
            let links = (machines * (machines - 1)) as f64;
            let bytes = links * (count * buffer_bytes) as f64;
            return FloodResult {
                gbps: bytes / secs / 1e9,
                pool_stalls: (cluster.total_stats() - before).pool_exhausted,
            };
        }
    }
    unreachable!()
}

/// Bandwidth-only wrapper of [`flood_bandwidth`].
pub fn flood_bandwidth_gbps(
    machines: usize,
    buffer_bytes: usize,
    total_bytes_per_link: usize,
) -> f64 {
    flood_bandwidth(machines, buffer_bytes, total_bytes_per_link).gbps
}

/// Figure 8a: bandwidth lines vs copier count.
pub fn run_fig8a() -> Table {
    let copier_counts = [1usize, 2, 4];
    let mut t = Table::new(
        "Figure 8a — remote random read bandwidth (2 machines)",
        copier_counts
            .iter()
            .map(|c| format!("{c} copiers"))
            .collect(),
        "GB/s; Utilized = 2 × Effective for 8-byte address/data",
    );
    let reads = 200_000usize;
    let points: Vec<ReadBandwidth> = copier_counts
        .iter()
        .map(|&c| remote_read_bandwidth(c, reads, 1))
        .collect();
    t.push_row(
        "Remote Random Read (Effective)",
        points.iter().map(|p| Some(p.effective_gbps)).collect(),
    );
    t.push_row(
        "Remote Random Read (Utilized)",
        points.iter().map(|p| Some(p.utilized_gbps)).collect(),
    );
    t.push_row(
        "Local DRAM random read",
        copier_counts
            .iter()
            .map(|&c| Some(local_random_read_gbps(c)))
            .collect(),
    );
    // Raw fabric bandwidth with large buffers (the "Network" line).
    let raw = flood_bandwidth_gbps(2, 256 << 10, 32 << 20);
    t.push_row(
        "Network (raw fabric, 256 KB)",
        copier_counts.iter().map(|_| Some(raw)).collect(),
    );
    t
}

/// Figure 8b: attained bandwidth vs buffer size for 2/4/8 machines.
pub fn run_fig8b() -> Table {
    let sizes = [4usize << 10, 16 << 10, 64 << 10, 256 << 10];
    let mut t = Table::new(
        "Figure 8b — attained bandwidth vs buffer size (N:N flood)",
        sizes.iter().map(|s| format!("{}KB", s >> 10)).collect(),
        "GB/s aggregate (stall rows: buffer-pool back-pressure event counts)",
    );
    for machines in [2usize, 4, 8] {
        let per_link = 8usize << 20;
        let points: Vec<FloodResult> = sizes
            .iter()
            .map(|&b| flood_bandwidth(machines, b, per_link))
            .collect();
        t.push_row(
            &format!("{machines} machines"),
            points.iter().map(|p| Some(p.gbps)).collect(),
        );
        t.push_row(
            &format!("{machines} machines pool stalls"),
            points.iter().map(|p| Some(p.pool_stalls as f64)).collect(),
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_read_bandwidth_positive() {
        let bw = remote_read_bandwidth(1, 20_000, 1);
        assert!(bw.effective_gbps > 0.0);
        assert!((bw.utilized_gbps - 2.0 * bw.effective_gbps).abs() < 1e-12);
    }

    #[test]
    fn flood_bandwidth_positive() {
        let gbps = flood_bandwidth_gbps(2, 16 << 10, 1 << 20);
        assert!(gbps > 0.0);
    }

    #[test]
    fn large_buffers_beat_tiny_ones() {
        // The Figure 8b shape at its extremes: 256 KB buffers must attain
        // more bandwidth than 1 KB buffers (per-message overhead).
        let small = flood_bandwidth_gbps(2, 1 << 10, 2 << 20);
        let large = flood_bandwidth_gbps(2, 256 << 10, 16 << 20);
        assert!(
            large > small,
            "large {large} GB/s should beat small {small} GB/s"
        );
    }
}
