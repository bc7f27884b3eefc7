//! Property test of the copier's run-wise application. A copier walks a
//! payload as runs — maximal stretches of entries with equal `(prop, op)`
//! headers — resolving the column and the reduction once per run. Whatever
//! the mix of column types, ops, run lengths and interleaved properties,
//! that must leave exactly the bits a sequential `reduce_bits` model leaves
//! applying the entries one at a time in payload order: for `Write`,
//! `GhostReduce` and `GhostSync`, and for the values a `ReadReq` answers.

use pgxd_graph::generate;
use pgxd_runtime::cluster::Cluster;
use pgxd_runtime::config::Config;
use pgxd_runtime::copier::{process_request, ColCache};
use pgxd_runtime::message::{push_mut_entry, push_read_entry, Envelope, MsgKind};
use pgxd_runtime::props::{reduce_bits, ReduceOp, TypeTag};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::atomic::Ordering;
use std::time::Duration;

const TYPES: [TypeTag; 4] = [TypeTag::F64, TypeTag::I64, TypeTag::U32, TypeTag::Bool];

const OPS: [ReduceOp; 6] = [
    ReduceOp::Sum,
    ReduceOp::Min,
    ReduceOp::Max,
    ReduceOp::Or,
    ReduceOp::And,
    ReduceOp::Assign,
];

/// A random value of `tag`'s type, as column bits.
fn value(tag: TypeTag, rng: &mut SmallRng) -> u64 {
    match tag {
        TypeTag::F64 => rng.random_range(-1e3..1e3f64).to_bits(),
        TypeTag::I64 | TypeTag::U64 => rng.next_u64(),
        TypeTag::U32 => rng.next_u32() as u64,
        TypeTag::Bool => rng.random_range(0..2u64),
    }
}

fn request(kind: MsgKind, payload: Vec<u8>) -> Envelope {
    Envelope {
        src: 1,
        dst: 0,
        kind,
        worker: 0,
        side_id: 7,
        seq: 0,
        payload,
    }
}

/// Runs as `(column, op index, length)`: single entries and long runs,
/// with consecutive runs free to name the same column under another op.
fn arb_runs() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    prop::collection::vec(
        (
            0..TYPES.len(),
            0..OPS.len(),
            prop_oneof![Just(1usize), 2usize..40],
        ),
        1..16,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn runs_apply_like_entries_in_order(runs in arb_runs(), seed in any::<u64>()) {
        // Every vertex of K12 is a hub at threshold 4, so machine 0 has
        // ghost slots for GhostSync to address.
        let g = generate::complete(12);
        let config = Config { ghost_threshold: Some(4), ..Config::test(2) };
        let mut cluster = Cluster::load(&g, config).unwrap();
        let props: Vec<_> = TYPES
            .iter()
            .map(|&tag| (cluster.add_prop_raw("p", tag, 0), tag))
            .collect();
        let m = cluster.machine(0).clone();
        let (owned, ghosts) = (m.props.len_local(), m.props.len_ghost());
        prop_assert!(owned > 0 && ghosts > 0);
        let mut rng = SmallRng::seed_from_u64(seed);

        // Random starting contents, mirrored by the model.
        let mut model: Vec<Vec<u64>> = props
            .iter()
            .map(|&(id, tag)| {
                let col = m.props.column(id);
                (0..owned + ghosts)
                    .map(|i| {
                        let bits = value(tag, &mut rng);
                        col.store_bits(i, bits);
                        bits
                    })
                    .collect()
            })
            .collect();

        let mut cache = ColCache::default();
        for kind in [MsgKind::Write, MsgKind::GhostReduce, MsgKind::GhostSync] {
            let mut payload = Vec::new();
            for &(p, o, len) in &runs {
                let (id, tag) = props[p];
                let op = if OPS[o].defined_on(tag) { OPS[o] } else { ReduceOp::Sum };
                for _ in 0..len {
                    let bits = value(tag, &mut rng);
                    let (index, cell) = if kind == MsgKind::GhostSync {
                        let ordinal = rng.random_range(0..ghosts);
                        (ordinal, owned + ordinal)
                    } else {
                        let offset = rng.random_range(0..owned);
                        (offset, offset)
                    };
                    push_mut_entry(&mut payload, id.0, op, index as u32, bits);
                    let cur = &mut model[p][cell];
                    *cur = match (kind, op) {
                        (MsgKind::GhostSync, _) | (_, ReduceOp::Assign) => bits,
                        _ => reduce_bits(tag, op, *cur, bits),
                    };
                }
            }
            m.pending.fetch_add((payload.len() / 16) as i64, Ordering::AcqRel);
            let applied = process_request(&m, &mut cache, request(kind, payload));
            prop_assert_eq!(applied, Ok(()));
            for (p, &(id, tag)) in props.iter().enumerate() {
                let col = m.props.column(id);
                let got: Vec<u64> = (0..owned + ghosts).map(|i| col.load_bits(i)).collect();
                prop_assert_eq!(&got, &model[p], "{:?} into a {:?} column", kind, tag);
            }
        }

        // The same runs read back: the answer is the model's bytes.
        let mut payload = Vec::new();
        let mut want = Vec::new();
        for &(p, _, len) in &runs {
            for _ in 0..len {
                let offset = rng.random_range(0..owned);
                push_read_entry(&mut payload, props[p].0 .0, offset as u32);
                want.extend_from_slice(&model[p][offset].to_le_bytes());
            }
        }
        let answered = process_request(&m, &mut cache, request(MsgKind::ReadReq, payload));
        prop_assert_eq!(answered, Ok(()));
        let resp = cluster.machine(1).worker_rx[0]
            .recv_timeout(Duration::from_secs(10))
            .expect("the copier answers a ReadReq");
        prop_assert_eq!(resp.kind, MsgKind::ReadResp);
        prop_assert_eq!(resp.side_id, 7);
        prop_assert_eq!(resp.payload, want);
    }
}
