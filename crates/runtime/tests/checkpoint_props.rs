//! Property tests of checkpoint/restore: for arbitrary property contents,
//! a same-shape snapshot/restore round-trip gives back every owned cell bit
//! for bit, a degraded restore re-scatters the exact owned bits under the
//! survivors' partitioning, and any bit of tampering is caught by the shard
//! checksums. Ghost slots are per-job scratch and are not checkpointed.

use pgxd_graph::generate;
use pgxd_runtime::checkpoint::MachineCheckpoint;
use pgxd_runtime::cluster::Cluster;
use pgxd_runtime::config::{Config, StorageFaultKind, StorageFaultPlan};
use pgxd_runtime::props::PropId;
use proptest::prelude::*;
use std::sync::Arc;

fn config(machines: usize) -> Config {
    Config::builder()
        .machines(machines)
        .workers(1)
        .copiers(1)
        .ghost_threshold(Some(2))
        .build()
        .expect("config")
}

/// Loads the shared test graph (high-degree rmat hubs → nonempty ghost
/// table at threshold 2) and registers two live properties.
fn cluster_with_props(machines: usize) -> (Cluster, PropId, PropId) {
    let g = generate::rmat(6, 8, generate::RmatParams::skewed(), 91);
    let mut c = Cluster::load(&g, config(machines)).expect("cluster");
    let a = c.add_prop("a", 0i64);
    let b = c.add_prop("b", 0.0f64);
    (c, a, b)
}

/// Writes `seed`-derived bits into every slot of both columns — owned and
/// ghost replicas alike — bypassing the engine.
fn scribble(c: &Cluster, props: &[PropId], seed: u64) {
    for m in c.machines() {
        for &p in props {
            let col = m.props.column(p);
            for i in 0..col.len_total() {
                let x = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((m.id as u64) << 32 | (p.0 as u64) << 16 | i as u64);
                col.store_bits(i, x ^ (x >> 29));
            }
        }
    }
}

/// The owned cells of `p`, per machine.
fn owned_bits(c: &Cluster, p: PropId) -> Vec<Vec<u64>> {
    c.machines()
        .iter()
        .map(|m| {
            let col = m.props.column(p);
            (0..col.len_local()).map(|i| col.load_bits(i)).collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same-shape restore is bit-exact for every owned cell.
    #[test]
    fn round_trip_is_bit_identical(seed in any::<u64>(), junk in any::<u64>()) {
        let (mut c, a, b) = cluster_with_props(3);
        scribble(&c, &[a, b], seed);
        let before_a = owned_bits(&c, a);
        let before_b = owned_bits(&c, b);

        let ckpt = c.take_checkpoint(7, vec![seed]).unwrap();
        prop_assert_eq!(ckpt.progress.iteration, 7);
        prop_assert_eq!(&ckpt.progress.scalars, &vec![seed]);

        scribble(&c, &[a, b], junk); // clobber everything
        c.restore_checkpoint(&ckpt).unwrap();

        prop_assert_eq!(owned_bits(&c, a), before_a);
        prop_assert_eq!(owned_bits(&c, b), before_b);
    }

    /// A checkpoint from P machines restores onto P−1 survivors: owned
    /// values land exactly where the new partitioning says.
    #[test]
    fn degraded_restore_preserves_global_columns(seed in any::<u64>()) {
        let (mut big, a, b) = cluster_with_props(3);
        scribble(&big, &[a, b], seed);
        let global_a = big.gather::<i64>(a);
        let ckpt = big.take_checkpoint(3, vec![]).unwrap();
        drop(big);

        let (mut small, a2, b2) = cluster_with_props(2);
        prop_assert_eq!(a2, a);
        prop_assert_eq!(b2, b);
        small.restore_checkpoint(&ckpt).unwrap();

        prop_assert_eq!(small.gather::<i64>(a2), global_a);
    }

    /// Any single-bit corruption of any shard word is rejected.
    #[test]
    fn tampered_shard_is_rejected(
        seed in any::<u64>(),
        machine in 0usize..3,
        bit in 0u32..64,
    ) {
        let (mut c, a, _b) = cluster_with_props(3);
        scribble(&c, &[a], seed);
        let ckpt = c.take_checkpoint(1, vec![]).unwrap();

        let mut forged = (*ckpt).clone();
        let mc = Arc::make_mut(&mut forged.machines[machine]);
        let shard = &mut mc.shards[0];
        let word = seed as usize % shard.owned.len();
        shard.owned[word] ^= 1u64 << bit;

        prop_assert!(forged.verify().is_err());
        prop_assert!(c.restore_checkpoint(&forged).is_err());
        // The pristine checkpoint still restores fine afterwards.
        c.restore_checkpoint(&ckpt).unwrap();
    }

    /// The storage-fault fallback contract, for arbitrary corruption
    /// schedules: a checkpoint whose shards were tampered by the seeded
    /// `StorageFaultPlan` is never restorable — `verify()` rejects it and
    /// `restore_checkpoint` leaves the cluster on an error — and the
    /// recovery driver's newest→oldest ring walk therefore lands on
    /// exactly the newest *clean* retained checkpoint, whose contents
    /// come back bit-identical.
    #[test]
    fn tampered_ring_entries_are_never_restored(
        seed in any::<u64>(),
        corrupt_pm in 100u16..900,
    ) {
        const TAKEN: u64 = 5;
        const RETAIN: usize = 3;
        let plan = StorageFaultPlan::faulty(seed, 0, corrupt_pm, 0);
        let g = generate::rmat(6, 8, generate::RmatParams::skewed(), 91);
        let cfg = Config::builder()
            .machines(3)
            .workers(1)
            .copiers(1)
            .ghost_threshold(Some(2))
            .storage_fault(plan)
            .checkpoint_retain(RETAIN)
            .build()
            .expect("config");
        let mut c = Cluster::load(&g, cfg).expect("cluster");
        let a = c.add_prop("a", 0i64);

        // Take TAKEN checkpoints with distinct contents, remembering each
        // sequence's owned global column. Every store shares the plan and
        // advances its counter once per save, so checkpoint seq `s` is
        // corrupt on every machine or none — decided by `draw(s - 1)`.
        let mut globals = vec![Vec::new()];
        for s in 1..=TAKEN {
            scribble(&c, &[a], seed ^ s);
            globals.push(c.gather::<i64>(a));
            c.take_checkpoint(s, vec![]).unwrap();
        }
        let ring = c.checkpoint_ring(); // newest → oldest
        prop_assert_eq!(ring.len(), RETAIN);

        scribble(&c, &[a], !seed); // clobber live state
        let mut restored_seq = None;
        for ckpt in &ring {
            let corrupt =
                plan.draw(ckpt.seq - 1) == StorageFaultKind::Corrupt;
            prop_assert_eq!(ckpt.verify().is_err(), corrupt);
            if corrupt {
                // Tampered: the driver must skip it, and even a direct
                // restore attempt fails instead of loading garbage.
                prop_assert!(c.restore_checkpoint(ckpt).is_err());
            } else if restored_seq.is_none() {
                c.restore_checkpoint(ckpt).unwrap();
                restored_seq = Some(ckpt.seq);
            }
        }
        if let Some(seq) = restored_seq {
            prop_assert_eq!(
                c.gather::<i64>(a),
                globals[seq as usize].clone(),
                "fallback landed on seq {} but contents differ", seq
            );
        } else {
            // Every retained entry tampered: the cold-restart path. The
            // cluster must still be usable for a fresh attempt.
            scribble(&c, &[a], seed ^ 1);
            prop_assert_eq!(c.gather::<i64>(a), globals[1].clone());
        }
        if (0..TAKEN).any(|n| plan.draw(n) == StorageFaultKind::Corrupt) {
            prop_assert!(c.total_stats().ckpt_shards_corrupted > 0);
        }
    }
}

/// Restoring onto a cluster whose property registry is missing a
/// checkpointed column must fail loudly, not write wild.
#[test]
fn missing_property_is_rejected() {
    let (mut c, a, b) = cluster_with_props(2);
    scribble(&c, &[a, b], 42);
    let ckpt = c.take_checkpoint(1, vec![]).unwrap();
    c.drop_prop(b);
    let err = c.restore_checkpoint(&ckpt).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("not registered"), "got: {msg}");
}

/// The per-machine stores hold exactly the latest shard, and counters ride
/// along.
#[test]
fn stores_track_latest_sequence() {
    let (mut c, a, _b) = cluster_with_props(2);
    scribble(&c, &[a], 1);
    c.take_checkpoint(1, vec![]).unwrap();
    scribble(&c, &[a], 2);
    c.take_checkpoint(2, vec![]).unwrap();
    for m in 0..2 {
        let store = c.checkpoint_store(m);
        let (seq, mc): (u64, Arc<MachineCheckpoint>) = store.latest().unwrap();
        assert_eq!(seq, 2);
        assert_eq!(mc.machine as usize, m);
        assert_eq!(store.saved(), 2);
        assert!(store.bytes_saved() > 0);
    }
    let stats = c.total_stats();
    assert_eq!(stats.checkpoints_taken, 4);
    assert!(stats.checkpoint_bytes > 0);
}
