//! The pluggable-transport contract, end to end.
//!
//! * Proptest: every `Envelope` survives the 32-byte versioned frame
//!   header round-trip bit-identically — the TCP backend's framing can
//!   never corrupt what PR 2's reliability machinery sequenced.
//! * Loopback e2e: two node-mode clusters (one rank each, real TCP
//!   sockets between them) run the SPMD driver program and must agree
//!   **bit-identically** with a single-process in-memory run — same
//!   graph, same partitions, same rank-ordered reduce fold, different
//!   wire.

use pgxd::{BuildEngine, Config, TelemetryConfig, TransportConfig};
use pgxd_algorithms as algos;
use pgxd_graph::generate;
use pgxd_runtime::config::ConfigBuilder;
use pgxd_runtime::message::{
    decode_frame_header, encode_frame_header, Envelope, MsgKind, FRAME_HEADER_BYTES,
};
use proptest::prelude::*;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Frame round-trip
// ---------------------------------------------------------------------------

fn arb_kind() -> impl Strategy<Value = MsgKind> {
    // Every wire value the codec knows: `from_u8` is the source of truth
    // for 0..=16 less the unassigned 5 and 6.
    (0u8..15).prop_map(|b| {
        let b = if b < 5 { b } else { b + 2 };
        MsgKind::from_u8(b).expect("assigned kind")
    })
}

proptest! {
    #[test]
    fn frame_header_roundtrips_bit_identically(
        src in any::<u16>(),
        dst in any::<u16>(),
        kind in arb_kind(),
        worker in any::<u16>(),
        side_id in any::<u32>(),
        seq in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let env = Envelope { src, dst, kind, worker, side_id, seq, payload };
        let header = encode_frame_header(&env);
        prop_assert_eq!(header.len(), FRAME_HEADER_BYTES);
        let decoded = decode_frame_header(&header, 1 << 20).expect("decode");
        prop_assert_eq!(decoded.payload_len as usize, env.payload.len());
        let back = decoded.into_envelope(env.payload.clone());
        prop_assert_eq!(back.src, env.src);
        prop_assert_eq!(back.dst, env.dst);
        prop_assert_eq!(back.kind, env.kind);
        prop_assert_eq!(back.worker, env.worker);
        prop_assert_eq!(back.side_id, env.side_id);
        prop_assert_eq!(back.seq, env.seq);
        prop_assert_eq!(back.payload, env.payload);
    }

    #[test]
    fn frame_decode_rejects_oversized_payloads(
        declared in 1025u32..u32::MAX,
    ) {
        let env = Envelope {
            src: 0, dst: 1, kind: MsgKind::Write, worker: 0, side_id: 0,
            seq: 1, payload: vec![],
        };
        let mut header = encode_frame_header(&env);
        header[20..24].copy_from_slice(&declared.to_le_bytes());
        prop_assert!(decode_frame_header(&header, 1024).is_err());
    }
}

proptest! {
    /// A mid-stream reconnect makes the sender replay its unacked tail —
    /// possibly overlapping frames the receiver already consumed, possibly
    /// more than once if the fresh socket dies too. The dedup window must
    /// accept every sequence number exactly once across all socket lives.
    #[test]
    fn dedup_is_exactly_once_across_reconnect_replays(
        total in 1u64..240,
        cut_pct in 0u64..101,
        overlap_pct in 0u64..101,
    ) {
        use pgxd_runtime::reliable::DedupWindow;

        // First socket life delivers 1..=cut; the reconnect replays from
        // somewhere at or before the cut (the sender cannot know which of
        // its unacked frames actually landed) through the end of stream.
        let cut = 1 + (total - 1) * cut_pct / 100;
        let replay_from = 1 + (cut - 1) * overlap_pct / 100;

        let mut window = DedupWindow::default();
        let mut accepted = vec![0u32; (total + 1) as usize];
        for seq in 1..=cut {
            if window.accept(seq) {
                accepted[seq as usize] += 1;
            }
        }
        for seq in replay_from..=total {
            if window.accept(seq) {
                accepted[seq as usize] += 1;
            }
        }
        // A second reconnect replaying the same tail delivers nothing new.
        for seq in replay_from..=total {
            prop_assert!(!window.accept(seq), "seq {seq} accepted twice");
        }
        for seq in 1..=total {
            prop_assert_eq!(
                accepted[seq as usize], 1,
                "seq {} delivered {} times", seq, accepted[seq as usize]
            );
        }
    }
}

/// The boundary case the random payloads above never hit: a payload of
/// exactly the configured frame bound must round-trip (the decoder
/// rejects only *strictly* larger declarations).
#[test]
fn frame_roundtrips_at_max_frame_size() {
    let max = pgxd_runtime::tcp::MAX_FRAME_BYTES;
    let env = Envelope {
        src: 7,
        dst: 3,
        kind: MsgKind::ReadResp,
        worker: 2,
        side_id: 0xDEAD_BEEF,
        seq: u64::MAX,
        payload: vec![0xA5; max],
    };
    let header = encode_frame_header(&env);
    let decoded = decode_frame_header(&header, max).expect("max-size frame must decode");
    assert_eq!(decoded.payload_len as usize, max);
    let back = decoded.into_envelope(env.payload.clone());
    assert_eq!(back.seq, env.seq);
    assert_eq!(back.payload, env.payload);
}

// ---------------------------------------------------------------------------
// Loopback TCP e2e
// ---------------------------------------------------------------------------

const ITERS: usize = 4;

fn test_graph() -> pgxd_graph::Graph {
    generate::rmat(7, 4, generate::RmatParams::skewed(), 3023)
}

/// Two machines, two workers each: the reference's config, and every
/// loopback rank's once its transport is filled in.
fn two_by_two() -> ConfigBuilder {
    Config::builder().machines(2).workers(2)
}

/// The SPMD driver program every rank (and the reference) runs.
fn driver(engine: &mut pgxd::Engine) -> (Vec<u64>, Vec<i64>, Vec<u32>) {
    let pr = algos::try_pagerank_pull(engine, 0.85, ITERS, 0.0).unwrap();
    let hops = algos::try_hopdist(engine, 0).unwrap();
    let wcc = algos::try_wcc(engine).unwrap();
    let bits = pr.scores.iter().map(|s| s.to_bits()).collect();
    (bits, hops.hops, wcc.component)
}

#[test]
fn loopback_tcp_cluster_matches_in_memory_bit_identically() {
    // Reference: the default in-memory backend, same machine count.
    let graph = test_graph();
    let mut reference = two_by_two().engine(&graph).unwrap();
    let expected = driver(&mut reference);
    drop(reference);

    // Two thread-hosted ranks — the handshake `pgxd-node` does across OS
    // processes, on threads for a hermetic test.
    let ranks = pgxd::loopback_ranks(2, |rank| {
        let mut engine = rank.engine(two_by_two(), &graph).unwrap();
        let out = driver(&mut engine);
        engine.cluster().node_barrier().unwrap();
        out
    });
    let [r0, r1] = <[_; 2]>::try_from(ranks).unwrap();

    // SPMD replication: both ranks gathered the same global vectors.
    assert_eq!(r0, r1, "ranks disagree on gathered results");
    // Backend transparency: real sockets change nothing, to the bit.
    assert_eq!(r0, expected, "TCP cluster diverges from in-memory run");
}

/// Termination on TCP is event-driven: an empty job — no chunks' worth of
/// work, no entries, just the job-start barrier and one termination wave
/// (report, probe, answer, release) — must cost loopback hops, not poller
/// ticks. With the wave driven by the default 5 ms tick alone no empty job
/// can finish in under 5 ms, so the 2 ms bound below fails by construction
/// unless reports, probes and releases are sent the moment they are due.
///
/// The bound is on the fastest quarter of each rank's jobs, not on the
/// mean of the batch: whatever else runs on a shared host (the other tests
/// of this binary, a neighbour's burst) only ever adds time, to some jobs
/// and not to others, so the mean of 300 jobs says how disturbed the host
/// was, and the level a quarter of them reach says what a job costs. With
/// a busy loop pinned to each of this host's two cores the mean spread
/// 1.6–2.7 ms and the median 1.2–2.1 ms, run to run; the first quartile
/// stayed at 1.1 ms (undisturbed: mean 0.4 ms).
#[test]
fn loopback_empty_jobs_do_not_wait_for_the_tick() {
    use pgxd::tasks::on_node;
    use pgxd::JobSpec;
    const JOBS: usize = 300;

    /// First quartile of the wall times of this rank's `JOBS` empty jobs.
    fn fast_quartile_empty_job(engine: &mut pgxd::Engine) -> Duration {
        let mut walls: Vec<Duration> = (0..JOBS)
            .map(|_| {
                let t0 = std::time::Instant::now();
                engine
                    .try_run_node_job(&JobSpec::new(), on_node(|_| {}))
                    .expect("empty job");
                t0.elapsed()
            })
            .collect();
        engine.cluster().node_barrier().unwrap();
        walls.sort();
        walls[JOBS / 4]
    }

    assert_eq!(
        two_by_two().build().unwrap().reliability.tick_ms,
        5,
        "the default tick"
    );
    let graph = test_graph();
    let q1 = pgxd::loopback_ranks(2, |rank| {
        fast_quartile_empty_job(&mut rank.engine(two_by_two(), &graph).unwrap())
    })
    .into_iter()
    .max()
    .unwrap();
    assert!(
        q1 < Duration::from_millis(2),
        "three quarters of {JOBS} empty jobs took {q1:?} or more: over 2 ms each"
    );
}

/// A TCP phase ends once: the termination wave already proves every entry
/// of the phase consumed on every rank, so no message-barrier round follows
/// it. With telemetry on, each rank's phase labels name only the job's own
/// phases, and the scores still match the in-memory run to the bit.
#[test]
fn loopback_phases_end_on_the_wave_alone() {
    let graph = test_graph();
    let traced = || two_by_two().telemetry(TelemetryConfig::on());
    let pagerank = |engine: &mut pgxd::Engine| -> Vec<u64> {
        let pr = algos::try_pagerank_pull(engine, 0.85, ITERS, 0.0).unwrap();
        pr.scores.iter().map(|s| s.to_bits()).collect()
    };
    let expected = pagerank(&mut traced().engine(&graph).unwrap());
    let ranks = pgxd::loopback_ranks(2, |rank| {
        let mut engine = rank.engine(traced(), &graph).unwrap();
        let bits = pagerank(&mut engine);
        engine.cluster().node_barrier().unwrap();
        (bits, engine.cluster().phase_labels().to_vec())
    });
    for (bits, labels) in ranks {
        assert!(labels.iter().any(|l| l == "main"), "{labels:?}");
        assert!(
            labels.iter().all(|l| l != "dist_barrier"),
            "a TCP phase crossed a message barrier: {labels:?}"
        );
        assert_eq!(bits, expected, "TCP scores diverge from in-memory run");
    }
}

// ---------------------------------------------------------------------------
// Loopback kill-and-recover e2e
// ---------------------------------------------------------------------------

/// Three thread-hosted ranks over real sockets; rank 2 abruptly severs its
/// transport (no goodbye — the in-process equivalent of a SIGKILL) right
/// after the iteration-2 collective checkpoint. The survivors must detect
/// the death, re-bootstrap as a 2-machine cluster at a pre-agreed address,
/// adopt the newest checkpoint, restore it degraded and converge to within
/// 1e-12 of the fault-free in-memory fixpoint.
#[test]
fn loopback_survivors_recover_from_abrupt_peer_death() {
    use pgxd::recover::Scripted;
    use pgxd::{JobError, RecoveryDriver, ReliabilityConfig, ResumableAlgorithm};

    const MACHINES: usize = 3;
    const R_ITERS: usize = 6;
    const CKPT_EVERY: u64 = 2;
    const VICTIM: u16 = 2;

    let pagerank = || algos::ResumablePageRank::pull(0.85, R_ITERS, 0.0);
    let machines = || Config::builder().machines(MACHINES).workers(2);

    // Reference fixpoint: same stepwise algorithm, in-memory backend.
    let graph = test_graph();
    let expected: Vec<f64> = {
        let mut e = machines().engine(&graph).unwrap();
        pagerank().run_to_completion(&mut e).unwrap().scores
    };

    // Recovery rendezvous: reserve a concrete port now, so every survivor
    // knows where to re-bootstrap without any out-of-band channel.
    let recover_coord = pgxd::transport::reserve_loopback_addr().unwrap();

    let ranks = pgxd::loopback_ranks(MACHINES, |rank| -> Option<Vec<f64>> {
        let config = machines()
            .transport(rank.transport().unwrap())
            .reliability(ReliabilityConfig {
                tick_ms: 1,
                rto_base_ms: 10,
                watchdog_ms: 400,
                ..ReliabilityConfig::on()
            })
            .checkpoint_every(CKPT_EVERY)
            .build()
            .unwrap();
        // The abrupt death: the victim's first attempt fails for good as
        // soon as the iteration-CKPT_EVERY checkpoint exists, and the
        // recovery loop takes a failed attempt's engine down with no
        // goodbye frames — peers see exactly what a SIGKILL would produce.
        let mut alg = Scripted::new(pagerank(), |_, iteration| {
            if rank.rank == VICTIM && iteration == CKPT_EVERY {
                return Err(JobError::Cancelled { job: 0 });
            }
            Ok(())
        });
        let run = RecoveryDriver::new(&graph, config).unwrap().run_rank(
            &recover_coord,
            |addr| rank.announce(addr),
            &mut alg,
        );
        match run {
            Ok(rec) => {
                assert_eq!((rec.recoveries, rec.machines), (1, MACHINES - 1));
                Some(rec.output.scores)
            }
            Err(JobError::Cancelled { .. }) if rank.rank == VICTIM => None,
            Err(e) => panic!("rank {} failed unrecoverably: {e}", rank.rank),
        }
    });
    let [r0, r1, r2] = <[_; MACHINES]>::try_from(ranks).unwrap();

    assert!(r2.is_none(), "the victim must not produce a result");
    let r0 = r0.expect("rank 0 result");
    let r1 = r1.expect("rank 1 result");

    let b0: Vec<u64> = r0.iter().map(|x| x.to_bits()).collect();
    let b1: Vec<u64> = r1.iter().map(|x| x.to_bits()).collect();
    assert_eq!(b0, b1, "survivors disagree on recovered PageRank");
    let max_delta = r0
        .iter()
        .zip(&expected)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        max_delta <= 1e-12,
        "recovered PageRank diverges from the fault-free fixpoint by {max_delta:e}"
    );
}

#[test]
fn tcp_backend_rejects_single_process_assembly() {
    let graph = generate::ring(16);
    let config = two_by_two().transport(TransportConfig::tcp("127.0.0.1:1", 0));
    let err = config.engine(&graph).unwrap_err();
    assert!(
        err.contains("load_node"),
        "in-process assembly of a TCP config must point at Cluster::load_node, got: {err}"
    );
}
