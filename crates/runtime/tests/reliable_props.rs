//! Property tests of the reliability layer's dedup and ack windows under
//! the worst schedule the fabric can produce: every sequence number
//! delivered multiple times (max-rate duplication) in an arbitrary order
//! (max-rate reordering), with acknowledgements replayed and reordered
//! just as badly.
//!
//! The fabric-level counterpart (a real cluster job under
//! `FaultPlan::lossy(seed, 0, 1000, 1000)`) lives in
//! `tests/tests/chaos_e2e.rs`; these tests pin the window/store invariants
//! the end-to-end bit-identical result rests on.

use pgxd_runtime::config::Config;
use pgxd_runtime::message::{Envelope, MsgKind};
use pgxd_runtime::reliable::{lane_of, DedupWindow, Reliability, REQUEST_LANE};
use pgxd_runtime::stats::MachineStats;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn reliability(machines: usize, workers: usize) -> Reliability {
    let config = Config {
        workers,
        strict_distributed: true,
        ..Config::test(machines)
    };
    Reliability::new(&config, Arc::new(MachineStats::default()))
}

fn request(dst: u16) -> Envelope {
    Envelope {
        src: 0,
        dst,
        kind: MsgKind::Write,
        worker: 0,
        side_id: 0,
        seq: 0,
        payload: Vec::new(),
    }
}

/// splitmix64 — drives the seeded schedule permutations.
fn mix(seed: u64, n: u64) -> u64 {
    let mut z = seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A delivery schedule where every sequence number `1..=n` appears 1–3
/// times (at max dup rate the fabric clones each envelope, and
/// retransmits add more), shuffled into a seed-determined arbitrary
/// arrival order (Fisher–Yates on splitmix64 draws).
fn schedule(n: usize, seed: u64) -> Vec<u64> {
    let mut deliveries = Vec::new();
    for s in 1..=n as u64 {
        let copies = 1 + mix(seed, s) % 3;
        for _ in 0..copies {
            deliveries.push(s);
        }
    }
    for i in (1..deliveries.len()).rev() {
        let j = (mix(seed ^ 0x00C0_FFEE, i as u64) % (i as u64 + 1)) as usize;
        deliveries.swap(i, j);
    }
    deliveries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The dedup window accepts every sequence number exactly once, no
    /// matter how duplicated and reordered the arrival schedule is, and
    /// its floor advances so replays stay rejected forever after.
    #[test]
    fn dedup_window_is_exactly_once_under_max_dup_reorder(
        n in 1usize..120,
        seed in any::<u64>(),
    ) {
        let deliveries = schedule(n, seed);
        let mut w = DedupWindow::default();
        let mut accepted = vec![0usize; n + 1];
        for &seq in &deliveries {
            if w.accept(seq) {
                accepted[seq as usize] += 1;
            }
        }
        for (seq, &count) in accepted.iter().enumerate().skip(1) {
            prop_assert_eq!(count, 1, "seq {} accepted {} times", seq, count);
        }
        // Everything was delivered, so the cumulative floor covers the
        // whole stream: replays of any old seq are rejected and the next
        // fresh seq is still accepted.
        for &seq in &deliveries {
            prop_assert!(!w.accept(seq), "replay of {} accepted late", seq);
        }
        prop_assert!(w.accept(n as u64 + 1));
    }

    /// Same property through the shared request-lane window, with a
    /// second source interleaved to prove windows never cross streams.
    #[test]
    fn request_lane_dedup_is_per_source(
        n in 1usize..80,
        seed in any::<u64>(),
    ) {
        let deliveries = schedule(n, seed);
        let r = reliability(3, 1);
        let mut accepted_1 = 0usize;
        let mut accepted_2 = 0usize;
        for &seq in &deliveries {
            if r.accept_request(1, seq) {
                accepted_1 += 1;
            }
            // Source 2 replays the same schedule: independent window.
            if r.accept_request(2, seq) {
                accepted_2 += 1;
            }
        }
        prop_assert_eq!(accepted_1, n);
        prop_assert_eq!(accepted_2, n);
    }

    /// The ack/retransmit store drains to empty when every ack arrives —
    /// duplicated, reordered acks included — and replayed acks for
    /// already-cleared envelopes are harmless no-ops.
    #[test]
    fn ack_store_drains_under_max_dup_reorder(
        n in 1usize..80,
        seed in any::<u64>(),
    ) {
        let acks = schedule(n, seed);
        let r = reliability(2, 1);
        let now = Instant::now();
        for _ in 0..n {
            let mut e = request(1);
            r.register(&mut e, now);
            prop_assert_eq!(lane_of(&e), REQUEST_LANE);
        }
        prop_assert_eq!(r.in_flight_count(), n);
        for &seq in &acks {
            r.on_ack(1, REQUEST_LANE, seq);
        }
        prop_assert_eq!(r.in_flight_count(), 0, "acked store must drain");
        // Nothing left to retransmit: a poller sweep far in the future
        // finds no due envelopes and condemns no machine.
        let later = now + std::time::Duration::from_secs(3600);
        let due = r.due_retransmits(later);
        prop_assert!(due.is_ok());
        prop_assert!(due.unwrap().is_empty());
    }

    /// Sequence numbers survive a retransmit round-trip: a retransmitted
    /// envelope carries the original seq, so the receiver's window maps
    /// the copy onto the first delivery instead of double-applying it.
    #[test]
    fn retransmits_replay_the_original_sequence(n in 1usize..40) {
        let r = reliability(2, 1);
        let t0 = Instant::now();
        let mut seqs = Vec::new();
        for _ in 0..n {
            let mut e = request(1);
            r.register(&mut e, t0);
            seqs.push(e.seq);
        }
        let t1 = t0 + std::time::Duration::from_millis(
            r.config().rto_base_ms + 1,
        );
        let due = r.due_retransmits(t1).unwrap();
        let mut due_seqs: Vec<u64> = due.iter().map(|e| e.seq).collect();
        due_seqs.sort_unstable();
        prop_assert_eq!(due_seqs, seqs.clone());
        // A window that already accepted the originals rejects every copy.
        let mut w = DedupWindow::default();
        for &s in &seqs {
            prop_assert!(w.accept(s));
        }
        for e in &due {
            prop_assert!(!w.accept(e.seq), "retransmit double-applied");
        }
    }
}
