//! Barrier-consistent checkpoint/restore of distributed job state.
//!
//! The RTC execution model keeps *all* mutable job state in vertex-property
//! columns that are synchronized at phase barriers (§3.1): between two
//! `try_run_*` calls the cluster is quiescent — the pending-entry counter
//! has drained to zero and no worker holds an in-flight read or write. A
//! snapshot taken at that point can therefore never observe a torn update;
//! this is the whole consistency argument, and it is why checkpointing
//! needs no stop-the-world machinery of its own.
//!
//! Layout mirrors what a real deployment would persist per node: each
//! machine owns a [`CheckpointStore`] holding a small *retention ring* of
//! recent [`MachineCheckpoint`]s — one [`PropShard`] (owned cells, FNV-1a
//! checksummed) per live property. Ghost slots are per-job scratch — the
//! next job that reads or reduces a property overwrites them before any
//! task looks — so they are not saved. The store is also where
//! storage faults live: a seeded [`StorageFaultPlan`] can lose, corrupt, or
//! delay individual shard writes, and the driver finds out the same way a
//! real deployment would — by reading back what the store durably holds and
//! verifying checksums at restore time. The driver additionally keeps the
//! assembled cluster-wide [`Checkpoint`], which bundles every machine's
//! shards with the [`JobProgress`] (iteration index + algorithm scalars)
//! needed to resume. Because partitions are contiguous vertex ranges, a
//! checkpoint taken on `P` machines restores onto any cluster of the same
//! graph — the degraded `P−1`-machine one too: [`Checkpoint::global_bits`]
//! reassembles the global column from the per-machine shards, and
//! [`Cluster::restore_checkpoint`](crate::cluster::Cluster::restore_checkpoint)
//! redistributes it under the restoring cluster's partitioning.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::config::{StorageFaultKind, StorageFaultPlan};
use crate::fault::mix;
use crate::health::JobError;
use crate::ids::MachineId;
use crate::props::{PropId, TypeTag};
use crate::transport::Contribution;
use pgxd_graph::NodeId;

/// FNV-1a over a word stream; cheap, dependency-free, and sensitive to
/// both value and position — exactly what shard integrity needs.
pub fn fnv1a_words<I: IntoIterator<Item = u64>>(words: I) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
            h ^= (w >> shift) & 0xff;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Identity of one property at snapshot time, used on restore to re-bind
/// shards to the (re-registered) columns of a fresh cluster and to reject
/// mismatched layouts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PropMeta {
    pub id: PropId,
    pub name: String,
    pub tag: TypeTag,
    pub default_bits: u64,
}

/// One property's owned (partition-local) cells on one machine,
/// checksummed.
#[derive(Clone, Debug)]
pub struct PropShard {
    pub id: PropId,
    /// Raw bits of the machine's owned cells, in partition order.
    pub owned: Vec<u64>,
    /// FNV-1a over `owned`.
    pub checksum: u64,
}

impl PropShard {
    pub fn new(id: PropId, owned: Vec<u64>) -> Self {
        let checksum = fnv1a_words(owned.iter().copied());
        PropShard {
            id,
            owned,
            checksum,
        }
    }

    /// Recomputes the checksum against the stored one.
    pub fn verify(&self) -> bool {
        fnv1a_words(self.owned.iter().copied()) == self.checksum
    }

    /// Payload size of this shard.
    pub fn bytes(&self) -> usize {
        self.owned.len() * 8
    }
}

/// Everything one machine contributes to a checkpoint.
#[derive(Clone, Debug)]
pub struct MachineCheckpoint {
    pub machine: MachineId,
    /// Global id of this machine's first owned vertex at snapshot time
    /// (partitions are contiguous ranges, so `start` + shard length fully
    /// describe the owned range).
    pub start: NodeId,
    pub shards: Vec<PropShard>,
}

impl MachineCheckpoint {
    /// Total payload bytes across shards.
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.bytes()).sum()
    }

    /// Owned-cell count (uniform across shards).
    pub fn owned_len(&self) -> usize {
        self.shards.first().map_or(0, |s| s.owned.len())
    }
}

/// Where the job was when the snapshot was taken.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobProgress {
    /// Completed algorithm iterations.
    pub iteration: u64,
    /// Cluster phase counter at snapshot time (diagnostics).
    pub phase_epoch: u64,
    /// Opaque algorithm scalars (RNG states, accumulated deltas, ...),
    /// round-tripped verbatim by the recovery driver.
    pub scalars: Vec<u64>,
}

/// A complete, driver-assembled cluster checkpoint.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Monotone sequence number within the cluster's lifetime.
    pub seq: u64,
    /// Global vertex count the shards tile.
    pub num_nodes: usize,
    pub progress: JobProgress,
    pub props: Vec<PropMeta>,
    pub machines: Vec<Arc<MachineCheckpoint>>,
}

impl Checkpoint {
    /// Total payload bytes.
    pub fn bytes(&self) -> usize {
        self.machines.iter().map(|m| m.bytes()).sum()
    }

    /// Verifies every shard checksum and that the owned regions exactly
    /// tile `[0, num_nodes)`.
    pub fn verify(&self) -> Result<(), JobError> {
        let mut covered = 0usize;
        for mc in &self.machines {
            if mc.start as usize != covered {
                return Err(JobError::CheckpointCorrupt(format!(
                    "machine {} shard starts at {} but {} nodes are covered",
                    mc.machine, mc.start, covered
                )));
            }
            if mc.shards.len() != self.props.len() {
                return Err(JobError::CheckpointCorrupt(format!(
                    "machine {} has {} shards for {} properties",
                    mc.machine,
                    mc.shards.len(),
                    self.props.len()
                )));
            }
            let owned_len = mc.owned_len();
            for (shard, meta) in mc.shards.iter().zip(&self.props) {
                if shard.id != meta.id {
                    return Err(JobError::CheckpointCorrupt(format!(
                        "machine {} shard id {:?} does not match meta {:?}",
                        mc.machine, shard.id, meta.id
                    )));
                }
                if shard.owned.len() != owned_len {
                    return Err(JobError::CheckpointCorrupt(format!(
                        "machine {} shard {:?} owned length mismatch",
                        mc.machine, shard.id
                    )));
                }
                if !shard.verify() {
                    return Err(JobError::CheckpointCorrupt(format!(
                        "machine {} shard {:?} failed its checksum",
                        mc.machine, shard.id
                    )));
                }
            }
            covered += owned_len;
        }
        if covered != self.num_nodes {
            return Err(JobError::CheckpointCorrupt(format!(
                "shards cover {} of {} nodes",
                covered, self.num_nodes
            )));
        }
        Ok(())
    }

    /// Reassembles one property's global column from the per-machine
    /// shards — what a restore re-scatters.
    pub fn global_bits(&self, id: PropId) -> Result<Vec<u64>, JobError> {
        let mut out = Vec::with_capacity(self.num_nodes);
        for mc in &self.machines {
            let shard = mc.shards.iter().find(|s| s.id == id).ok_or_else(|| {
                JobError::CheckpointCorrupt(format!(
                    "machine {} is missing a shard for {:?}",
                    mc.machine, id
                ))
            })?;
            out.extend_from_slice(&shard.owned);
        }
        if out.len() != self.num_nodes {
            return Err(JobError::CheckpointCorrupt(format!(
                "property {:?} shards cover {} of {} nodes",
                id,
                out.len(),
                self.num_nodes
            )));
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------
//
// Multi-process clusters exchange property bits and checkpoint shards over
// the bootstrap control plane (rank-ordered allgathers of byte blobs), so
// every `Contribution` to a driver collective needs a flat encoding. The
// format is little-endian and self-describing enough for the decoder to
// reject truncation; checksums travel *verbatim* — a shard corrupted in
// its store must still fail restore-time verification after a trip over
// the wire, so the codec never recomputes them.

/// Byte-cursor over a received blob; every read is bounds-checked.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let s = self.buf.get(self.at..end)?;
        self.at = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn words(&mut self, count: usize) -> Option<Vec<u64>> {
        let raw = self.take(count.checked_mul(8)?)?;
        Some(
            raw.chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect(),
        )
    }
}

fn put_words(buf: &mut Vec<u8>, words: &[u64]) {
    buf.reserve(words.len() * 8);
    for w in words {
        buf.extend_from_slice(&w.to_le_bytes());
    }
}

/// Raw property bits: owned cells in vertex order, or one cell.
impl Contribution for Vec<u64> {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_words(buf, self);
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut c = Cursor { buf: bytes, at: 0 };
        let words = c.words(bytes.len() / 8)?;
        (c.at == bytes.len()).then_some(words)
    }
}

/// The shards a process's stores durably hold for one sequence, in machine
/// order; a lost or delayed shard is simply absent (one hosted machine
/// whose shard is gone encodes as the empty blob).
impl Contribution for Vec<Arc<MachineCheckpoint>> {
    fn encode(&self, buf: &mut Vec<u8>) {
        for mc in self {
            encode_machine_checkpoint(buf, mc);
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut c = Cursor { buf: bytes, at: 0 };
        let mut out = Vec::new();
        while c.at < bytes.len() {
            out.push(Arc::new(decode_mc(&mut c)?));
        }
        Some(out)
    }
}

/// A process's candidate during checkpoint adoption; nothing to offer is
/// the empty blob.
impl Contribution for Option<Arc<Checkpoint>> {
    fn encode(&self, buf: &mut Vec<u8>) {
        if let Some(ckpt) = self {
            encode_checkpoint(buf, ckpt);
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.is_empty() {
            return Some(None);
        }
        decode_checkpoint(bytes).map(|ckpt| Some(Arc::new(ckpt)))
    }
}

/// Appends the flat encoding of one machine's checkpoint to `buf`.
pub fn encode_machine_checkpoint(buf: &mut Vec<u8>, mc: &MachineCheckpoint) {
    buf.extend_from_slice(&mc.machine.to_le_bytes());
    buf.extend_from_slice(&mc.start.to_le_bytes());
    buf.extend_from_slice(&(mc.shards.len() as u32).to_le_bytes());
    for s in &mc.shards {
        buf.extend_from_slice(&s.id.0.to_le_bytes());
        buf.extend_from_slice(&s.checksum.to_le_bytes());
        buf.extend_from_slice(&(s.owned.len() as u32).to_le_bytes());
        put_words(buf, &s.owned);
    }
}

fn decode_mc(c: &mut Cursor<'_>) -> Option<MachineCheckpoint> {
    let machine = c.u16()?;
    let start = c.u32()?;
    let nshards = c.u32()? as usize;
    let mut shards = Vec::with_capacity(nshards.min(1024));
    for _ in 0..nshards {
        let id = PropId(c.u16()?);
        let checksum = c.u64()?;
        let owned_len = c.u32()? as usize;
        let owned = c.words(owned_len)?;
        shards.push(PropShard {
            id,
            owned,
            checksum,
        });
    }
    Some(MachineCheckpoint {
        machine,
        start,
        shards,
    })
}

/// Parses [`encode_machine_checkpoint`]'s output. `None` on truncation or
/// trailing garbage; checksum mismatches pass through (the restore path's
/// verification is the corruption detector).
pub fn decode_machine_checkpoint(bytes: &[u8]) -> Option<MachineCheckpoint> {
    let mut c = Cursor { buf: bytes, at: 0 };
    let mc = decode_mc(&mut c)?;
    (c.at == bytes.len()).then_some(mc)
}

fn tag_to_u8(tag: TypeTag) -> u8 {
    tag as u8
}

fn tag_from_u8(v: u8) -> Option<TypeTag> {
    Some(match v {
        0 => TypeTag::F64,
        1 => TypeTag::I64,
        2 => TypeTag::U64,
        3 => TypeTag::U32,
        4 => TypeTag::Bool,
        _ => return None,
    })
}

/// Appends the flat encoding of a whole cluster checkpoint to `buf` —
/// what survivors exchange when adopting the best retained snapshot
/// during multi-process recovery.
pub fn encode_checkpoint(buf: &mut Vec<u8>, ckpt: &Checkpoint) {
    buf.extend_from_slice(&ckpt.seq.to_le_bytes());
    buf.extend_from_slice(&(ckpt.num_nodes as u64).to_le_bytes());
    buf.extend_from_slice(&ckpt.progress.iteration.to_le_bytes());
    buf.extend_from_slice(&ckpt.progress.phase_epoch.to_le_bytes());
    buf.extend_from_slice(&(ckpt.progress.scalars.len() as u32).to_le_bytes());
    put_words(buf, &ckpt.progress.scalars);
    buf.extend_from_slice(&(ckpt.props.len() as u32).to_le_bytes());
    for meta in &ckpt.props {
        buf.extend_from_slice(&meta.id.0.to_le_bytes());
        buf.push(tag_to_u8(meta.tag));
        buf.extend_from_slice(&meta.default_bits.to_le_bytes());
        buf.extend_from_slice(&(meta.name.len() as u32).to_le_bytes());
        buf.extend_from_slice(meta.name.as_bytes());
    }
    buf.extend_from_slice(&(ckpt.machines.len() as u32).to_le_bytes());
    for mc in &ckpt.machines {
        encode_machine_checkpoint(buf, mc);
    }
}

/// Parses [`encode_checkpoint`]'s output; `None` on any malformation.
pub fn decode_checkpoint(bytes: &[u8]) -> Option<Checkpoint> {
    let mut c = Cursor { buf: bytes, at: 0 };
    let seq = c.u64()?;
    let num_nodes = usize::try_from(c.u64()?).ok()?;
    let iteration = c.u64()?;
    let phase_epoch = c.u64()?;
    let nscalars = c.u32()? as usize;
    let scalars = c.words(nscalars)?;
    let nprops = c.u32()? as usize;
    let mut props = Vec::with_capacity(nprops.min(1024));
    for _ in 0..nprops {
        let id = PropId(c.u16()?);
        let tag = tag_from_u8(c.u8()?)?;
        let default_bits = c.u64()?;
        let name_len = c.u32()? as usize;
        let name = String::from_utf8(c.take(name_len)?.to_vec()).ok()?;
        props.push(PropMeta {
            id,
            name,
            tag,
            default_bits,
        });
    }
    let nmachines = c.u32()? as usize;
    let mut machines = Vec::with_capacity(nmachines.min(1024));
    for _ in 0..nmachines {
        machines.push(Arc::new(decode_mc(&mut c)?));
    }
    (c.at == bytes.len()).then_some(Checkpoint {
        seq,
        num_nodes,
        progress: JobProgress {
            iteration,
            phase_epoch,
            scalars,
        },
        props,
        machines,
    })
}

/// What happened to one [`CheckpointStore::save`] call once the storage
/// fault dice were rolled. The caller (the cluster's checkpoint path) turns
/// these into telemetry counters; the store itself stays a dumb device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SaveOutcome {
    /// Durably written into the retention ring.
    Stored,
    /// Silently dropped — the write never reached the ring.
    Lost,
    /// Written, but with one bit flipped and the *stale* checksum kept, so
    /// restore-time verification fails the shard.
    Corrupted,
    /// Parked in a one-deep write-behind slot; it commits to the ring when
    /// the *next* save arrives (or never, if none does).
    Delayed,
}

/// One machine's durable checkpoint device (the stand-in for a per-node
/// local store in a real deployment). Keeps a small retention ring of the
/// most recent snapshots — newest first, bounded by `retain` — so the
/// recovery driver can fall back to an older sequence when the newest one
/// turns out to be corrupt or incomplete.
///
/// A seeded [`StorageFaultPlan`] injects faults *inside* the store, at the
/// point a real disk or object store would fail: saves can be lost,
/// bit-flipped (keeping the stale checksum), or delayed into a write-behind
/// slot. Fault decisions are a pure function of `(plan.seed, save counter)`,
/// so a given configuration misbehaves identically on every run.
#[derive(Debug)]
pub struct CheckpointStore {
    retain: usize,
    plan: StorageFaultPlan,
    state: Mutex<StoreState>,
    saved: AtomicU64,
    bytes: AtomicU64,
}

#[derive(Debug, Default)]
struct StoreState {
    /// Retained snapshots, newest at the front.
    ring: VecDeque<(u64, Arc<MachineCheckpoint>)>,
    /// Write-behind slot for a delayed save; commits at the next save.
    pending: Option<(u64, Arc<MachineCheckpoint>)>,
    /// Monotone save counter indexing the fault dice.
    counter: u64,
}

impl Default for CheckpointStore {
    fn default() -> Self {
        CheckpointStore::new()
    }
}

impl CheckpointStore {
    /// A fault-free store retaining the two most recent snapshots.
    pub fn new() -> Self {
        CheckpointStore::with_plan(2, StorageFaultPlan::none())
    }

    /// A store retaining `retain` snapshots under the given fault plan.
    pub fn with_plan(retain: usize, plan: StorageFaultPlan) -> Self {
        CheckpointStore {
            retain: retain.max(1),
            plan,
            state: Mutex::new(StoreState::default()),
            saved: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Writes `mc` (sequence `seq`) through the fault plan and reports what
    /// the storage layer actually did with it. Any delayed predecessor
    /// commits to the ring first, so delayed data is stale-but-valid, never
    /// torn.
    pub fn save(&self, seq: u64, mc: Arc<MachineCheckpoint>) -> SaveOutcome {
        self.bytes.fetch_add(mc.bytes() as u64, Ordering::Relaxed);
        self.saved.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        // A delayed write-behind commits as soon as the next save arrives.
        if let Some((pseq, pmc)) = st.pending.take() {
            Self::commit(&mut st.ring, self.retain, pseq, pmc);
        }
        let n = st.counter;
        st.counter += 1;
        match self.plan.draw(n) {
            StorageFaultKind::Lose => SaveOutcome::Lost,
            StorageFaultKind::Corrupt => {
                let tampered = Self::tamper(&mc, mix(self.plan.seed, n));
                Self::commit(&mut st.ring, self.retain, seq, tampered);
                SaveOutcome::Corrupted
            }
            StorageFaultKind::Delay => {
                st.pending = Some((seq, mc));
                SaveOutcome::Delayed
            }
            StorageFaultKind::Store => {
                Self::commit(&mut st.ring, self.retain, seq, mc);
                SaveOutcome::Stored
            }
        }
    }

    fn commit(
        ring: &mut VecDeque<(u64, Arc<MachineCheckpoint>)>,
        retain: usize,
        seq: u64,
        mc: Arc<MachineCheckpoint>,
    ) {
        ring.push_front((seq, mc));
        ring.truncate(retain);
    }

    /// Flips one bit in the first non-empty owned region while keeping the
    /// now-stale checksum, so the damage is invisible until a restore-time
    /// [`PropShard::verify`].
    fn tamper(mc: &Arc<MachineCheckpoint>, h: u64) -> Arc<MachineCheckpoint> {
        let mut copy = (**mc).clone();
        if let Some(shard) = copy.shards.iter_mut().find(|s| !s.owned.is_empty()) {
            let word = ((h >> 30) as usize) % shard.owned.len();
            let bit = (h >> 40) % 64;
            shard.owned[word] ^= 1u64 << bit;
        }
        Arc::new(copy)
    }

    /// What the store durably holds for sequence `seq`. Lost and
    /// still-delayed saves return `None`; a corrupted save returns the
    /// tampered shards (detection is the reader's job, via checksums).
    pub fn get(&self, seq: u64) -> Option<Arc<MachineCheckpoint>> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .ring
            .iter()
            .find(|(s, _)| *s == seq)
            .map(|(_, mc)| mc.clone())
    }

    /// The newest retained snapshot, if any, with its sequence number.
    pub fn latest(&self) -> Option<(u64, Arc<MachineCheckpoint>)> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .ring
            .front()
            .cloned()
    }

    /// Snapshots currently held in the retention ring.
    pub fn retained(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .ring
            .len()
    }

    /// Save attempts over the store's lifetime (including lost/delayed).
    pub fn saved(&self) -> u64 {
        self.saved.load(Ordering::Relaxed)
    }

    /// Cumulative payload bytes offered to the store.
    pub fn bytes_saved(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    pub fn clear(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.ring.clear();
        st.pending = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(id: u16, owned: Vec<u64>) -> PropShard {
        PropShard::new(PropId(id), owned)
    }

    fn meta(id: u16) -> PropMeta {
        PropMeta {
            id: PropId(id),
            name: format!("p{id}"),
            tag: TypeTag::U64,
            default_bits: 0,
        }
    }

    fn two_machine_ckpt() -> Checkpoint {
        Checkpoint {
            seq: 1,
            num_nodes: 5,
            progress: JobProgress {
                iteration: 3,
                phase_epoch: 9,
                scalars: vec![7, 8],
            },
            props: vec![meta(0)],
            machines: vec![
                Arc::new(MachineCheckpoint {
                    machine: 0,
                    start: 0,
                    shards: vec![shard(0, vec![10, 11, 12])],
                }),
                Arc::new(MachineCheckpoint {
                    machine: 1,
                    start: 3,
                    shards: vec![shard(0, vec![13, 14])],
                }),
            ],
        }
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut s = shard(0, vec![1, 2, 3]);
        assert!(s.verify());
        s.owned[1] ^= 1;
        assert!(!s.verify());
        // Position sensitivity: swapping equal-sum words changes the hash.
        let a = shard(0, vec![1, 2]);
        let b = shard(0, vec![2, 1]);
        assert_ne!(a.checksum, b.checksum);
    }

    #[test]
    fn verify_accepts_well_formed() {
        let c = two_machine_ckpt();
        assert!(c.verify().is_ok());
        assert_eq!(c.bytes(), 5 * 8);
    }

    #[test]
    fn verify_rejects_tampered_shard() {
        let mut c = two_machine_ckpt();
        let mut mc = (*c.machines[0]).clone();
        mc.shards[0].owned[0] = 999;
        c.machines[0] = Arc::new(mc);
        let err = c.verify().unwrap_err();
        assert!(matches!(err, JobError::CheckpointCorrupt(_)), "{err}");
    }

    #[test]
    fn verify_rejects_gap_in_tiling() {
        let mut c = two_machine_ckpt();
        let mut mc = (*c.machines[1]).clone();
        mc.start = 4;
        c.machines[1] = Arc::new(mc);
        assert!(c.verify().is_err());
    }

    #[test]
    fn global_bits_reassembles_in_order() {
        let c = two_machine_ckpt();
        assert_eq!(c.global_bits(PropId(0)).unwrap(), vec![10, 11, 12, 13, 14]);
        assert!(c.global_bits(PropId(5)).is_err());
    }

    fn small_mc() -> Arc<MachineCheckpoint> {
        Arc::new(MachineCheckpoint {
            machine: 0,
            start: 0,
            shards: vec![shard(0, vec![1, 2])],
        })
    }

    #[test]
    fn store_keeps_latest_and_counts() {
        let store = CheckpointStore::new();
        assert!(store.latest().is_none());
        let mc = small_mc();
        assert_eq!(store.save(1, mc.clone()), SaveOutcome::Stored);
        assert_eq!(store.save(2, mc), SaveOutcome::Stored);
        let (seq, got) = store.latest().unwrap();
        assert_eq!(seq, 2);
        assert_eq!(got.machine, 0);
        assert_eq!(store.saved(), 2);
        assert_eq!(store.bytes_saved(), 2 * 16);
        store.clear();
        assert!(store.latest().is_none());
    }

    #[test]
    fn ring_retains_bounded_history() {
        let store = CheckpointStore::with_plan(2, StorageFaultPlan::none());
        let mc = small_mc();
        for seq in 1..=3 {
            store.save(seq, mc.clone());
        }
        assert_eq!(store.retained(), 2);
        assert_eq!(store.latest().unwrap().0, 3);
        assert!(store.get(3).is_some());
        assert!(store.get(2).is_some());
        assert!(store.get(1).is_none(), "evicted by the retention bound");
    }

    #[test]
    fn lost_save_never_lands() {
        // lose rate 1000‰ ⇒ every save is lost regardless of seed.
        let store = CheckpointStore::with_plan(2, StorageFaultPlan::faulty(7, 1000, 0, 0));
        assert_eq!(store.save(1, small_mc()), SaveOutcome::Lost);
        assert!(store.get(1).is_none());
        assert!(store.latest().is_none());
        assert_eq!(store.saved(), 1, "the attempt itself still counts");
    }

    #[test]
    fn corrupted_save_lands_but_fails_verify() {
        let store = CheckpointStore::with_plan(2, StorageFaultPlan::faulty(7, 0, 1000, 0));
        assert_eq!(store.save(1, small_mc()), SaveOutcome::Corrupted);
        let got = store.get(1).expect("corrupt data is still readable");
        assert!(
            !got.shards[0].verify(),
            "tampered shard must keep its stale checksum"
        );
    }

    #[test]
    fn delayed_save_commits_on_next_write() {
        let store = CheckpointStore::with_plan(3, StorageFaultPlan::faulty(7, 0, 0, 1000));
        assert_eq!(store.save(1, small_mc()), SaveOutcome::Delayed);
        assert!(store.get(1).is_none(), "still parked in the pending slot");
        assert_eq!(store.save(2, small_mc()), SaveOutcome::Delayed);
        let got = store.get(1).expect("committed by the following save");
        assert!(got.shards[0].verify());
        assert!(store.get(2).is_none());
    }

    #[test]
    fn codec_roundtrips_machine_checkpoint() {
        let mc = MachineCheckpoint {
            machine: 3,
            start: 17,
            shards: vec![shard(0, vec![10, 11]), shard(2, vec![])],
        };
        let mut buf = Vec::new();
        encode_machine_checkpoint(&mut buf, &mc);
        let back = decode_machine_checkpoint(&buf).unwrap();
        assert_eq!((back.machine, back.start), (3, 17));
        assert_eq!(back.shards.len(), 2);
        assert_eq!(back.shards[0].owned, vec![10, 11]);
        assert_eq!(back.shards[0].checksum, mc.shards[0].checksum);
        // Truncation and trailing garbage are both rejected.
        assert!(decode_machine_checkpoint(&buf[..buf.len() - 1]).is_none());
        let mut longer = buf.clone();
        longer.push(0);
        assert!(decode_machine_checkpoint(&longer).is_none());
    }

    #[test]
    fn codec_preserves_stale_checksums() {
        // A corrupted shard (stale checksum) must still fail verification
        // after a wire round trip — the codec may not "fix" it.
        let mut mc = MachineCheckpoint {
            machine: 0,
            start: 0,
            shards: vec![shard(0, vec![1, 2])],
        };
        mc.shards[0].owned[0] ^= 1; // tamper, keep the checksum
        assert!(!mc.shards[0].verify());
        let mut buf = Vec::new();
        encode_machine_checkpoint(&mut buf, &mc);
        let back = decode_machine_checkpoint(&buf).unwrap();
        assert!(!back.shards[0].verify());
    }

    #[test]
    fn codec_roundtrips_full_checkpoint() {
        let ckpt = two_machine_ckpt();
        let mut buf = Vec::new();
        encode_checkpoint(&mut buf, &ckpt);
        let back = decode_checkpoint(&buf).unwrap();
        assert_eq!(back.seq, ckpt.seq);
        assert_eq!(back.num_nodes, ckpt.num_nodes);
        assert_eq!(back.progress, ckpt.progress);
        assert_eq!(back.props, ckpt.props);
        assert_eq!(back.machines.len(), 2);
        assert!(back.verify().is_ok());
        assert_eq!(
            back.global_bits(PropId(0)).unwrap(),
            ckpt.global_bits(PropId(0)).unwrap()
        );
        assert!(decode_checkpoint(&buf[..buf.len() - 2]).is_none());
        assert!(decode_checkpoint(b"").is_none());
    }

    #[test]
    fn fault_dice_are_deterministic() {
        let roll = |seed| {
            let store =
                CheckpointStore::with_plan(4, StorageFaultPlan::faulty(seed, 200, 200, 200));
            (0..16)
                .map(|s| store.save(s, small_mc()))
                .collect::<Vec<_>>()
        };
        assert_eq!(roll(42), roll(42));
        assert_ne!(roll(42), roll(43), "different seeds, different weather");
        assert!(
            roll(42).iter().any(|o| *o != SaveOutcome::Stored),
            "200\u{2030} per fault should trip at least once in 16 rolls"
        );
    }
}
