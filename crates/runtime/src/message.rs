//! Wire format: envelopes and the flat little-endian entry encodings that
//! fill their payloads.
//!
//! Small per-edge operations are never sent individually: they are appended
//! to a per-(worker, destination) payload buffer and the whole buffer
//! travels as one [`Envelope`] once full or at flush time (§2, "the system
//! can buffer up many small messages and create a large network packet out
//! of them").

use crate::ids::MachineId;
use crate::props::ReduceOp;

/// Message kinds. The numeric values are stable and travel on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgKind {
    /// Batched remote read requests; answered with `ReadResp`.
    ReadReq = 0,
    /// Values answering a `ReadReq`, in request order.
    ReadResp = 1,
    /// Batched remote write (reduction) requests; fire-and-forget.
    Write = 2,
    /// Ghost pre-synchronization: an owner's property values for the
    /// receiver's mirror slots (offset field = the vertex's position among
    /// the sender's vertices the receiver mirrors).
    GhostSync = 3,
    /// Ghost post-reduction: partial values flowing back to the owner
    /// (offset field = owner-local node offset).
    GhostReduce = 4,
    // Codes 5 and 6 are unassigned: a frame carrying one is refused
    // (`FrameError::BadKind`).
    /// Distributed-barrier arrival notification (machine → coordinator).
    BarrierArrive = 7,
    /// Distributed-barrier release broadcast (coordinator → machines).
    BarrierRelease = 8,
    /// Orders a copier or poller thread to exit.
    Shutdown = 9,
    /// Dummy payload for bandwidth microbenchmarks (Figure 8): counted and
    /// discarded by the receiving copier.
    Ping = 10,
    /// Cumulative/selective acknowledgement of sequenced envelopes
    /// (reliability protocol): payload is a list of `(lane, seq)` entries.
    /// Unsequenced itself — a lost ack only costs a spurious retransmit.
    Ack = 11,
    /// Liveness beacon for the crash watchdog. Unsequenced; its only effect
    /// is refreshing the receiver's last-heard clock for the source.
    Heartbeat = 12,
    /// Distributed-termination report (machine → coordinator): the sender's
    /// monotonic entry counters for the four-counter termination wave.
    /// Payload is [`encode_term_stat`]. Sent when the state changes and
    /// forced by the poller tick; unsequenced, like heartbeats — a lost
    /// report is replaced by the next tick's.
    TermStat = 13,
    /// Distributed-termination release broadcast (coordinator → machines):
    /// the cluster was quiescent across two fresh waves for the carried
    /// phase token. Unsequenced; the coordinator re-releases whenever it
    /// sees a stale report, so a lost release self-heals.
    TermRelease = 14,
    /// Cluster-abort broadcast (TCP backend only): a rank's watchdog
    /// confirmed a peer dead; the 2-byte payload names the dead machine.
    /// Non-coordinators report to rank 0, which re-broadcasts so no rank
    /// hangs on a dead socket waiting for its own watchdog. Unsequenced:
    /// every rank's watchdog eventually fires on its own, so a lost abort
    /// only delays the verdict, never loses it.
    Abort = 15,
    /// Distributed-termination probe (coordinator → machines): a candidate
    /// was recorded for the carried phase token; answer with a fresh
    /// `TermStat` echoing the carried probe number. Payload is
    /// [`encode_term_probe`]. Unsequenced; the coordinator probes a machine
    /// again when its next report has not seen the number.
    TermProbe = 16,
}

impl MsgKind {
    /// Parses the wire value.
    pub fn from_u8(v: u8) -> Option<MsgKind> {
        Some(match v {
            0 => MsgKind::ReadReq,
            1 => MsgKind::ReadResp,
            2 => MsgKind::Write,
            3 => MsgKind::GhostSync,
            4 => MsgKind::GhostReduce,
            7 => MsgKind::BarrierArrive,
            8 => MsgKind::BarrierRelease,
            9 => MsgKind::Shutdown,
            10 => MsgKind::Ping,
            11 => MsgKind::Ack,
            12 => MsgKind::Heartbeat,
            13 => MsgKind::TermStat,
            14 => MsgKind::TermRelease,
            15 => MsgKind::Abort,
            16 => MsgKind::TermProbe,
            _ => return None,
        })
    }

    /// True for kinds processed by copier threads (request side).
    pub fn is_request(self) -> bool {
        matches!(
            self,
            MsgKind::ReadReq
                | MsgKind::Write
                | MsgKind::GhostSync
                | MsgKind::GhostReduce
                | MsgKind::BarrierArrive
                | MsgKind::BarrierRelease
                | MsgKind::Ping
                | MsgKind::TermStat
                | MsgKind::TermRelease
                | MsgKind::Abort
                | MsgKind::TermProbe
        )
    }

    /// True for kinds routed back to the originating worker thread.
    pub fn is_response(self) -> bool {
        matches!(self, MsgKind::ReadResp)
    }

    /// True for kinds covered by the reliability protocol (sequenced,
    /// acknowledged, retransmitted). Control traffic — `Shutdown`, `Ack`,
    /// `Heartbeat`, and the termination waves — rides outside it: acks
    /// acknowledge, they are not themselves acknowledged; heartbeats and
    /// termination reports are repeated by every poller tick, so a lost
    /// one is replaced by the next tick's rather than retransmitted.
    pub fn is_reliable(self) -> bool {
        !matches!(
            self,
            MsgKind::Shutdown
                | MsgKind::Ack
                | MsgKind::Heartbeat
                | MsgKind::TermStat
                | MsgKind::TermRelease
                | MsgKind::Abort
                | MsgKind::TermProbe
        )
    }

    /// True for kinds whose payload buffer the receiver releases into its
    /// buffer pool — the bulk entry carriers. A transport receives these
    /// into pool-sized buffers; every other kind (acks, heartbeats, wave
    /// and barrier frames) carries a few bytes that are dropped after
    /// decoding.
    pub fn recycles_payload(self) -> bool {
        matches!(
            self,
            MsgKind::ReadReq
                | MsgKind::ReadResp
                | MsgKind::Write
                | MsgKind::GhostSync
                | MsgKind::GhostReduce
                | MsgKind::Ping
        )
    }
}

/// Fixed-size envelope header accounted as wire overhead (the real system
/// pays a verb/packet header per message; we charge 16 bytes).
pub const HEADER_BYTES: u64 = 16;

/// A message in flight between two machines.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sending machine.
    pub src: MachineId,
    /// Destination machine.
    pub dst: MachineId,
    /// Payload interpretation.
    pub kind: MsgKind,
    /// Originating worker thread (for response routing) — for `ReadResp`
    /// this is the worker *on the destination machine*.
    pub worker: u16,
    /// Identifier of the side structure holding the continuation records
    /// for this message's requests (echoed verbatim into the response).
    pub side_id: u32,
    /// Per-(destination, lane) sequence number assigned by the sending
    /// machine's poller when the reliability protocol is on. `0` means
    /// unsequenced (protocol off, or control traffic); real numbering
    /// starts at 1.
    pub seq: u64,
    /// Entry bytes.
    pub payload: Vec<u8>,
}

impl Envelope {
    /// Total accounted wire bytes.
    pub fn wire_bytes(&self) -> u64 {
        HEADER_BYTES + self.payload.len() as u64
    }
}

// ---------------------------------------------------------------------------
// Entry encodings
// ---------------------------------------------------------------------------

/// Read-request entry: 8 bytes. The paper's §5.3.4 microbenchmark uses
/// "8 byte addresses to get 8 bytes worth of data", so utilized bandwidth
/// is exactly twice effective bandwidth — this layout preserves that.
pub const READ_ENTRY_BYTES: usize = 8;

/// Appends a read-request entry `{prop:u16, pad:u16, offset:u32}`.
#[inline]
pub fn push_read_entry(buf: &mut Vec<u8>, prop: u16, offset: u32) {
    buf.extend_from_slice(&prop.to_le_bytes());
    buf.extend_from_slice(&[0u8; 2]);
    buf.extend_from_slice(&offset.to_le_bytes());
}

/// Decodes the `i`-th read-request entry.
#[inline]
pub fn read_entry(payload: &[u8], i: usize) -> (u16, u32) {
    let o = i * READ_ENTRY_BYTES;
    let prop = u16::from_le_bytes([payload[o], payload[o + 1]]);
    let offset = u32::from_le_bytes([
        payload[o + 4],
        payload[o + 5],
        payload[o + 6],
        payload[o + 7],
    ]);
    (prop, offset)
}

/// Number of read entries in a payload.
#[inline]
pub fn read_entry_count(payload: &[u8]) -> usize {
    payload.len() / READ_ENTRY_BYTES
}

/// A maximal stretch of consecutive read entries naming one property.
#[derive(Clone, Copy, Debug)]
pub struct ReadRun<'a> {
    /// Property every entry of the run names.
    pub prop: u16,
    entries: &'a [[u8; READ_ENTRY_BYTES]],
}

impl<'a> ReadRun<'a> {
    /// The run's offsets, in payload order.
    #[inline]
    pub fn offsets(&self) -> impl Iterator<Item = u32> + 'a {
        self.entries
            .iter()
            .map(|e| u32::from_le_bytes(e[4..8].try_into().unwrap()))
    }
}

/// Splits a read-request payload into [`ReadRun`]s, in payload order.
pub fn read_runs(payload: &[u8]) -> impl Iterator<Item = ReadRun<'_>> {
    runs::<READ_ENTRY_BYTES, 2>(payload).map(|entries| ReadRun {
        prop: u16::from_le_bytes([entries[0][0], entries[0][1]]),
        entries,
    })
}

/// Mutation entry (Write / GhostSync / GhostReduce): 16 bytes.
pub const MUT_ENTRY_BYTES: usize = 16;

/// Appends a mutation entry `{prop:u16, op:u8, pad:u8, offset:u32, bits:u64}`.
#[inline]
pub fn push_mut_entry(buf: &mut Vec<u8>, prop: u16, op: ReduceOp, offset: u32, bits: u64) {
    let mut e = [0u8; MUT_ENTRY_BYTES];
    e[0..2].copy_from_slice(&prop.to_le_bytes());
    e[2] = op.to_u8();
    e[4..8].copy_from_slice(&offset.to_le_bytes());
    e[8..16].copy_from_slice(&bits.to_le_bytes());
    buf.extend_from_slice(&e);
}

/// A maximal stretch of consecutive mutation entries with the same
/// `(prop, op)` header bytes: a copier resolves the column and the
/// reduction once per run, not once per entry.
#[derive(Clone, Copy, Debug)]
pub struct MutRun<'a> {
    /// Property every entry of the run names.
    pub prop: u16,
    /// The run's op byte as it came off the wire; [`ReduceOp::from_u8`]
    /// validates it.
    pub op: u8,
    entries: &'a [[u8; MUT_ENTRY_BYTES]],
}

impl<'a> MutRun<'a> {
    /// The run's `(offset, bits)` pairs, in payload order.
    #[inline]
    pub fn entries(&self) -> impl Iterator<Item = (u32, u64)> + 'a {
        self.entries.iter().map(|e| {
            (
                u32::from_le_bytes(e[4..8].try_into().unwrap()),
                u64::from_le_bytes(e[8..16].try_into().unwrap()),
            )
        })
    }
}

/// Splits a mutation payload into [`MutRun`]s, in payload order.
pub fn mut_runs(payload: &[u8]) -> impl Iterator<Item = MutRun<'_>> {
    runs::<MUT_ENTRY_BYTES, 3>(payload).map(|entries| MutRun {
        prop: u16::from_le_bytes([entries[0][0], entries[0][1]]),
        op: entries[0][2],
        entries,
    })
}

/// Splits `payload`'s whole `N`-byte entries into maximal runs whose first
/// `KEY` bytes are equal. A trailing partial entry is ignored, as the
/// `*_entry_count` functions ignore it.
fn runs<const N: usize, const KEY: usize>(payload: &[u8]) -> impl Iterator<Item = &[[u8; N]]> {
    let mut rest = payload.as_chunks::<N>().0;
    std::iter::from_fn(move || {
        let head = &rest.first()?[..KEY];
        let len = 1 + rest[1..]
            .iter()
            .position(|e| e[..KEY] != *head)
            .unwrap_or(rest.len() - 1);
        let (run, tail) = rest.split_at(len);
        rest = tail;
        Some(run)
    })
}

/// Decodes the `i`-th mutation entry as `(prop, op, offset, bits)`.
///
/// Panics on an op byte [`ReduceOp::from_u8`] rejects; copiers decode
/// through [`mut_runs`] instead, which leaves the op byte to them.
#[inline]
pub fn mut_entry(payload: &[u8], i: usize) -> (u16, ReduceOp, u32, u64) {
    let o = i * MUT_ENTRY_BYTES;
    let prop = u16::from_le_bytes([payload[o], payload[o + 1]]);
    let op = ReduceOp::from_u8(payload[o + 2]).expect("invalid reduce op on wire");
    let offset = u32::from_le_bytes([
        payload[o + 4],
        payload[o + 5],
        payload[o + 6],
        payload[o + 7],
    ]);
    let bits = u64::from_le_bytes(payload[o + 8..o + 16].try_into().unwrap());
    (prop, op, offset, bits)
}

/// Number of mutation entries in a payload.
#[inline]
pub fn mut_entry_count(payload: &[u8]) -> usize {
    payload.len() / MUT_ENTRY_BYTES
}

/// Response value entry: 8 bytes of property bits.
pub const RESP_ENTRY_BYTES: usize = 8;

/// Appends a response value.
#[inline]
pub fn push_resp_entry(buf: &mut Vec<u8>, bits: u64) {
    buf.extend_from_slice(&bits.to_le_bytes());
}

/// Decodes the `i`-th response value.
#[inline]
pub fn resp_entry(payload: &[u8], i: usize) -> u64 {
    let o = i * RESP_ENTRY_BYTES;
    u64::from_le_bytes(payload[o..o + 8].try_into().unwrap())
}

/// Acknowledgement entry: 12 bytes `{lane:u32, seq:u64}`.
pub const ACK_ENTRY_BYTES: usize = 12;

/// Appends an ack entry.
#[inline]
pub fn push_ack_entry(buf: &mut Vec<u8>, lane: u32, seq: u64) {
    buf.extend_from_slice(&lane.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
}

/// Iterates ack entries as `(lane, seq)`.
pub fn ack_entries(payload: &[u8]) -> impl Iterator<Item = (u32, u64)> + '_ {
    payload.chunks_exact(ACK_ENTRY_BYTES).map(|c| {
        let lane = u32::from_le_bytes(c[0..4].try_into().unwrap());
        let seq = u64::from_le_bytes(c[4..12].try_into().unwrap());
        (lane, seq)
    })
}

// ---------------------------------------------------------------------------
// Distributed-termination payloads
// ---------------------------------------------------------------------------

/// One machine's termination report (the four-counter wave of §3.2's
/// completion rule, generalized to real multi-process clusters).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TermStat {
    /// Phase token (the cluster phase epoch) this report is about.
    pub token: u64,
    /// Highest coordinator probe number this machine had received when it
    /// read the counters below (0 before any): a report echoing a probe was
    /// sampled after that probe arrived.
    pub wave: u64,
    /// Monotonic count of payload entries this machine has produced.
    pub inc: u64,
    /// Monotonic count of payload entries this machine has consumed.
    pub dec: u64,
    /// True once this machine's local task list for `token` is empty.
    pub done: bool,
}

/// Byte length of an encoded [`TermStat`].
pub const TERM_STAT_BYTES: usize = 33;

/// Encodes a [`TermStat`] into `buf`.
pub fn encode_term_stat(buf: &mut Vec<u8>, stat: &TermStat) {
    buf.extend_from_slice(&stat.token.to_le_bytes());
    buf.extend_from_slice(&stat.wave.to_le_bytes());
    buf.extend_from_slice(&stat.inc.to_le_bytes());
    buf.extend_from_slice(&stat.dec.to_le_bytes());
    buf.push(u8::from(stat.done));
}

/// Decodes a [`TermStat`]; `None` when the payload is malformed.
pub fn decode_term_stat(payload: &[u8]) -> Option<TermStat> {
    if payload.len() != TERM_STAT_BYTES {
        return None;
    }
    Some(TermStat {
        token: u64::from_le_bytes(payload[0..8].try_into().unwrap()),
        wave: u64::from_le_bytes(payload[8..16].try_into().unwrap()),
        inc: u64::from_le_bytes(payload[16..24].try_into().unwrap()),
        dec: u64::from_le_bytes(payload[24..32].try_into().unwrap()),
        done: payload[32] != 0,
    })
}

/// Encodes a `TermRelease` payload (just the released token).
pub fn encode_term_release(buf: &mut Vec<u8>, token: u64) {
    buf.extend_from_slice(&token.to_le_bytes());
}

/// Decodes a `TermRelease` payload.
pub fn decode_term_release(payload: &[u8]) -> Option<u64> {
    if payload.len() != 8 {
        return None;
    }
    Some(u64::from_le_bytes(payload[0..8].try_into().unwrap()))
}

/// Encodes a `TermProbe` payload: the candidate's token and probe number.
pub fn encode_term_probe(buf: &mut Vec<u8>, token: u64, probe: u64) {
    buf.extend_from_slice(&token.to_le_bytes());
    buf.extend_from_slice(&probe.to_le_bytes());
}

/// Decodes a `TermProbe` payload as `(token, probe)`.
pub fn decode_term_probe(payload: &[u8]) -> Option<(u64, u64)> {
    if payload.len() != 16 {
        return None;
    }
    Some((
        u64::from_le_bytes(payload[0..8].try_into().unwrap()),
        u64::from_le_bytes(payload[8..16].try_into().unwrap()),
    ))
}

/// Encodes an `Abort` payload (the machine confirmed dead).
pub fn encode_abort(buf: &mut Vec<u8>, dead: u16) {
    buf.extend_from_slice(&dead.to_le_bytes());
}

/// Decodes an `Abort` payload.
pub fn decode_abort(payload: &[u8]) -> Option<u16> {
    if payload.len() != 2 {
        return None;
    }
    Some(u16::from_le_bytes([payload[0], payload[1]]))
}

// ---------------------------------------------------------------------------
// TCP frame format
// ---------------------------------------------------------------------------

/// Byte length of the versioned frame header every TCP-transported
/// envelope is prefixed with. Distinct from [`HEADER_BYTES`], which is the
/// *accounted* overhead charged per message on all backends.
pub const FRAME_HEADER_BYTES: usize = 32;

/// Magic constant opening every frame (`b"PGXD"` little-endian).
pub const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"PGXD");

/// Wire protocol version. Bumped whenever the frame layout or any entry
/// encoding changes incompatibly; both sides of a connection must match.
pub const WIRE_VERSION: u16 = 1;

/// A decoded frame header: everything an [`Envelope`] carries except the
/// payload bytes (whose length is `payload_len`).
///
/// Layout (little-endian, 32 bytes):
///
/// ```text
/// off  0  u32  magic       "PGXD"
/// off  4  u16  version     WIRE_VERSION
/// off  6  u8   kind        MsgKind wire value
/// off  7  u8   flags       reserved, 0
/// off  8  u16  src
/// off 10  u16  dst
/// off 12  u16  worker
/// off 14  u16  reserved    0
/// off 16  u32  side_id
/// off 20  u32  payload_len
/// off 24  u64  seq
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Payload interpretation.
    pub kind: MsgKind,
    /// Sending machine.
    pub src: MachineId,
    /// Destination machine.
    pub dst: MachineId,
    /// Originating worker thread (response routing).
    pub worker: u16,
    /// Side-structure identifier echoed between request and response.
    pub side_id: u32,
    /// Reliability sequence number (0 = unsequenced).
    pub seq: u64,
    /// Byte length of the payload following this header.
    pub payload_len: u32,
}

impl FrameHeader {
    /// Reassembles the envelope from a decoded header and its payload.
    pub fn into_envelope(self, payload: Vec<u8>) -> Envelope {
        debug_assert_eq!(payload.len(), self.payload_len as usize);
        Envelope {
            src: self.src,
            dst: self.dst,
            kind: self.kind,
            worker: self.worker,
            side_id: self.side_id,
            seq: self.seq,
            payload,
        }
    }
}

/// Why a frame header failed to decode. Carried into
/// `JobError::Transport { kind: FrameDecode, .. }` by the TCP backend.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The magic bytes did not open the frame — desynchronized stream or a
    /// foreign speaker.
    BadMagic(u32),
    /// The peer speaks a different wire version.
    BadVersion(u16),
    /// Unknown [`MsgKind`] wire value.
    BadKind(u8),
    /// Declared payload length exceeds the configured frame bound.
    Oversized(u32),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            FrameError::BadVersion(v) => {
                write!(f, "wire version {v} (expected {WIRE_VERSION})")
            }
            FrameError::BadKind(k) => write!(f, "unknown message kind {k}"),
            FrameError::Oversized(n) => write!(f, "payload length {n} exceeds frame bound"),
        }
    }
}

/// Encodes the frame header for `env`. The payload is *not* copied — the
/// TCP backend writes `[header, payload]` with one vectored write.
pub fn encode_frame_header(env: &Envelope) -> [u8; FRAME_HEADER_BYTES] {
    let mut h = [0u8; FRAME_HEADER_BYTES];
    h[0..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
    h[4..6].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    h[6] = env.kind as u8;
    // h[7] flags, h[14..16] reserved: zero.
    h[8..10].copy_from_slice(&env.src.to_le_bytes());
    h[10..12].copy_from_slice(&env.dst.to_le_bytes());
    h[12..14].copy_from_slice(&env.worker.to_le_bytes());
    h[16..20].copy_from_slice(&env.side_id.to_le_bytes());
    h[20..24].copy_from_slice(&(env.payload.len() as u32).to_le_bytes());
    h[24..32].copy_from_slice(&env.seq.to_le_bytes());
    h
}

/// Decodes and validates a frame header. `max_payload` bounds the declared
/// payload length (a desynchronized or hostile stream must not make the
/// reader allocate gigabytes).
pub fn decode_frame_header(
    buf: &[u8; FRAME_HEADER_BYTES],
    max_payload: usize,
) -> Result<FrameHeader, FrameError> {
    let magic = u32::from_le_bytes(buf[0..4].try_into().unwrap());
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(buf[4..6].try_into().unwrap());
    if version != WIRE_VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let kind = MsgKind::from_u8(buf[6]).ok_or(FrameError::BadKind(buf[6]))?;
    let payload_len = u32::from_le_bytes(buf[20..24].try_into().unwrap());
    if payload_len as usize > max_payload {
        return Err(FrameError::Oversized(payload_len));
    }
    Ok(FrameHeader {
        kind,
        src: u16::from_le_bytes(buf[8..10].try_into().unwrap()),
        dst: u16::from_le_bytes(buf[10..12].try_into().unwrap()),
        worker: u16::from_le_bytes(buf[12..14].try_into().unwrap()),
        side_id: u32::from_le_bytes(buf[16..20].try_into().unwrap()),
        seq: u64::from_le_bytes(buf[24..32].try_into().unwrap()),
        payload_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrip() {
        for v in (0..17u8).filter(|v| !matches!(v, 5 | 6)) {
            let k = MsgKind::from_u8(v).unwrap();
            assert_eq!(k as u8, v);
        }
        for v in [5, 6, 17, 99] {
            assert!(MsgKind::from_u8(v).is_none());
        }
    }

    #[test]
    fn request_response_classification() {
        assert!(MsgKind::ReadReq.is_request());
        assert!(MsgKind::Write.is_request());
        assert!(MsgKind::ReadResp.is_response());
        assert!(!MsgKind::ReadResp.is_request());
        assert!(!MsgKind::Shutdown.is_request());
        assert!(!MsgKind::Shutdown.is_response());
        // Reliability coverage: data kinds are sequenced, control is not.
        assert!(MsgKind::ReadReq.is_reliable());
        assert!(MsgKind::ReadResp.is_reliable());
        assert!(MsgKind::BarrierArrive.is_reliable());
        assert!(!MsgKind::Ack.is_reliable());
        assert!(!MsgKind::Heartbeat.is_reliable());
        assert!(!MsgKind::Shutdown.is_reliable());
        assert!(!MsgKind::Ack.is_response());
        assert!(!MsgKind::Heartbeat.is_response());
        // Termination waves are copier-handled control traffic outside the
        // reliability protocol, exactly like heartbeats.
        for wave in [MsgKind::TermStat, MsgKind::TermRelease, MsgKind::TermProbe] {
            assert!(wave.is_request());
            assert!(!wave.is_response());
            assert!(!wave.is_reliable());
            assert!(!wave.recycles_payload());
        }
        assert!(MsgKind::ReadResp.recycles_payload());
        assert!(!MsgKind::Ack.recycles_payload());
        assert!(!MsgKind::Heartbeat.recycles_payload());
        // Abort broadcasts are copier-handled control traffic too: every
        // watchdog eventually fires on its own, so a lost abort is only a
        // delay and must never occupy a retransmit slot on a dying wire.
        assert!(MsgKind::Abort.is_request());
        assert!(!MsgKind::Abort.is_response());
        assert!(!MsgKind::Abort.is_reliable());
    }

    #[test]
    fn abort_roundtrip() {
        let mut buf = Vec::new();
        encode_abort(&mut buf, 7);
        assert_eq!(decode_abort(&buf), Some(7));
        assert_eq!(decode_abort(&[1]), None);
        assert_eq!(decode_abort(&[1, 2, 3]), None);
    }

    #[test]
    fn term_stat_roundtrip() {
        let stat = TermStat {
            token: 7,
            wave: 99,
            inc: u64::MAX,
            dec: 12345,
            done: true,
        };
        let mut buf = Vec::new();
        encode_term_stat(&mut buf, &stat);
        assert_eq!(buf.len(), TERM_STAT_BYTES);
        assert_eq!(decode_term_stat(&buf), Some(stat));
        assert_eq!(decode_term_stat(&buf[..TERM_STAT_BYTES - 1]), None);
        let mut rel = Vec::new();
        encode_term_release(&mut rel, 42);
        assert_eq!(decode_term_release(&rel), Some(42));
        assert_eq!(decode_term_release(&[]), None);
        let mut probe = Vec::new();
        encode_term_probe(&mut probe, 42, 7);
        assert_eq!(decode_term_probe(&probe), Some((42, 7)));
        assert_eq!(decode_term_probe(&probe[..15]), None);
    }

    #[test]
    fn frame_header_roundtrip() {
        let e = Envelope {
            src: 3,
            dst: 1,
            kind: MsgKind::ReadResp,
            worker: 9,
            side_id: 0xDEAD_BEEF,
            seq: u64::MAX - 1,
            payload: vec![7u8; 129],
        };
        let h = encode_frame_header(&e);
        let d = decode_frame_header(&h, 1 << 20).unwrap();
        assert_eq!(d.kind, e.kind);
        assert_eq!(d.src, e.src);
        assert_eq!(d.dst, e.dst);
        assert_eq!(d.worker, e.worker);
        assert_eq!(d.side_id, e.side_id);
        assert_eq!(d.seq, e.seq);
        assert_eq!(d.payload_len as usize, e.payload.len());
        let back = d.into_envelope(e.payload.clone());
        assert_eq!(back.payload, e.payload);
    }

    #[test]
    fn frame_header_rejects_garbage() {
        let e = Envelope {
            src: 0,
            dst: 1,
            kind: MsgKind::Write,
            worker: 0,
            side_id: 0,
            seq: 0,
            payload: vec![0u8; 64],
        };
        let good = encode_frame_header(&e);

        let mut bad = good;
        bad[0] = b'X';
        assert!(matches!(
            decode_frame_header(&bad, 1 << 20),
            Err(FrameError::BadMagic(_))
        ));

        let mut bad = good;
        bad[4..6].copy_from_slice(&(WIRE_VERSION + 1).to_le_bytes());
        assert!(matches!(
            decode_frame_header(&bad, 1 << 20),
            Err(FrameError::BadVersion(_))
        ));

        let mut bad = good;
        bad[6] = 200;
        assert!(matches!(
            decode_frame_header(&bad, 1 << 20),
            Err(FrameError::BadKind(200))
        ));
        for retired in [5, 6] {
            let mut bad = good;
            bad[6] = retired;
            assert!(matches!(
                decode_frame_header(&bad, 1 << 20),
                Err(FrameError::BadKind(k)) if k == retired
            ));
        }

        assert!(matches!(
            decode_frame_header(&good, 16),
            Err(FrameError::Oversized(64))
        ));
    }

    #[test]
    fn ack_entry_roundtrip() {
        let mut buf = Vec::new();
        push_ack_entry(&mut buf, 0, 1);
        push_ack_entry(&mut buf, 3, u64::MAX);
        assert_eq!(buf.len(), 2 * ACK_ENTRY_BYTES);
        let got: Vec<(u32, u64)> = ack_entries(&buf).collect();
        assert_eq!(got, vec![(0, 1), (3, u64::MAX)]);
    }

    #[test]
    fn read_entry_roundtrip() {
        let mut buf = Vec::new();
        push_read_entry(&mut buf, 7, 123_456);
        push_read_entry(&mut buf, 9, 42);
        assert_eq!(buf.len(), 2 * READ_ENTRY_BYTES);
        assert_eq!(read_entry_count(&buf), 2);
        assert_eq!(read_entry(&buf, 0), (7, 123_456));
        assert_eq!(read_entry(&buf, 1), (9, 42));
    }

    #[test]
    fn mut_entry_roundtrip() {
        let mut buf = Vec::new();
        push_mut_entry(&mut buf, 3, ReduceOp::Sum, 55, f64::to_bits(1.5));
        push_mut_entry(&mut buf, 4, ReduceOp::Min, 66, 77);
        assert_eq!(mut_entry_count(&buf), 2);
        let (p, op, off, bits) = mut_entry(&buf, 0);
        assert_eq!((p, op, off), (3, ReduceOp::Sum, 55));
        assert_eq!(f64::from_bits(bits), 1.5);
        assert_eq!(mut_entry(&buf, 1), (4, ReduceOp::Min, 66, 77));
    }

    #[test]
    fn resp_entry_roundtrip() {
        let mut buf = Vec::new();
        push_resp_entry(&mut buf, u64::MAX);
        push_resp_entry(&mut buf, 0);
        assert_eq!(resp_entry(&buf, 0), u64::MAX);
        assert_eq!(resp_entry(&buf, 1), 0);
    }

    #[test]
    fn envelope_wire_bytes() {
        let e = Envelope {
            src: 0,
            dst: 1,
            kind: MsgKind::Write,
            worker: 0,
            side_id: 0,
            seq: 0,
            payload: vec![0u8; 32],
        };
        assert_eq!(e.wire_bytes(), 48);
    }
}
