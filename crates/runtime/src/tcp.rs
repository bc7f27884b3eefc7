//! Real-socket transport: bootstrap/membership, control-plane collectives,
//! and the [`TcpTransport`] backend.
//!
//! # Bootstrap protocol
//!
//! A cluster of `P` OS processes forms in four steps, all over plain TCP
//! on the loopback or a real network:
//!
//! 1. **Join.** Rank 0 (the coordinator) binds the coordinator address.
//!    Every other rank binds its own *data listener*, connects to the
//!    coordinator, and sends `JOIN {magic, version, rank, data_addr}`.
//! 2. **Welcome.** Once all `P−1` joins arrived, the coordinator sends
//!    each peer `WELCOME {magic, version, machines, rank, data_addr[P]}` —
//!    the full address book, its own data listener included.
//! 3. **Data mesh.** For every pair `i > j`, rank `i` opens one
//!    connection to rank `j`'s data listener and introduces it with a
//!    `HELLO {magic, version, rank}`. The connection is full-duplex and
//!    carries all of the pair's traffic, both directions, every kind: each
//!    rank's poller writes all of its frames in turn, so a second socket
//!    per pair could not let a response overtake a request burst.
//! 4. **Readiness barrier.** Each peer reports `READY` on its control
//!    connection; the coordinator answers `GO` once everyone did. The
//!    control connections then stay open as the [`NodeComm`] driver
//!    collective plane.
//!
//! # Driver collectives
//!
//! The engine's driver API (`gather`, `reduce`, `get`, checkpoints) reads
//! state that a multi-process cluster has scattered across processes.
//! Every process runs the same driver program in lockstep (SPMD), and each
//! such call crosses [`Transport::allgather`], which [`TcpTransport`]
//! answers with a [`NodeComm::allgather`] over the control plane: peers
//! send their contribution to rank 0, which broadcasts the assembled set,
//! so every rank computes the identical global answer in the identical
//! order.
//!
//! # Fault surface
//!
//! An unexpected EOF or socket error on an established data connection
//! marks the peer *suspected*: the reader thread exits quietly and the
//! next send to that peer redials its data listener (bounded backoff,
//! every attempt paying into the server-wide
//! [`RetryBudget`]), re-introduces itself
//! with the bootstrap `HELLO`, and resends the frame — socket streams
//! restart at frame boundaries, and the reliability layer's sequence
//! numbers and dedup windows make redelivery across the reconnect
//! exactly-once. A peer that stays silent past the watchdog deadline is
//! *confirmed* dead by the poller tick, which escalates to a
//! coordinator-broadcast [`MsgKind::Abort`] so every rank unwinds
//! instead of deadlocking in the exact-termination counters. Clean
//! teardown is distinguished from death by a goodbye frame
//! ([`MsgKind::Shutdown`]) written before the sockets close, which
//! exempts the departing rank from the survivors' watchdogs.
//!
//! A seeded [`WireFaultPlan`] injects what real wires do — connection
//! resets, mid-frame write stalls, refused accepts, pairwise partition
//! windows — from public dice (a pure function of seed and the
//! transport's send counter), so failure schedules replay identically.

use crate::config::{Config, WireFaultKind, WireFaultPlan};
use crate::fabric::MachineEndpoints;
use crate::health::{ClusterHealth, JobError, RetryBudget, TransportErrorKind};
use crate::ids::MachineId;
use crate::message::{
    decode_frame_header, encode_frame_header, Envelope, MsgKind, FRAME_HEADER_BYTES, WIRE_VERSION,
};
use crate::transport::{Transport, WireCountersSnapshot};
use parking_lot::Mutex;
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Magic opening every bootstrap message (`b"PGXB"` little-endian),
/// distinct from the data-frame magic so a mesh socket accidentally
/// pointed at the coordinator port fails loudly.
const BOOT_MAGIC: u32 = u32::from_le_bytes(*b"PGXB");

const READY_BYTE: u8 = 0xA5;
const GO_BYTE: u8 = 0x5A;

fn transport_err(kind: TransportErrorKind, detail: impl std::fmt::Display) -> JobError {
    JobError::Transport {
        kind,
        detail: detail.to_string(),
    }
}

fn io_err(context: &str, e: std::io::Error) -> JobError {
    let kind = match e.kind() {
        std::io::ErrorKind::ConnectionRefused => TransportErrorKind::Refused,
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
            TransportErrorKind::Connect
        }
        _ => TransportErrorKind::Reset,
    };
    transport_err(kind, format!("{context}: {e}"))
}

fn write_u16(s: &mut TcpStream, v: u16, ctx: &str) -> Result<(), JobError> {
    s.write_all(&v.to_le_bytes()).map_err(|e| io_err(ctx, e))
}

fn read_u16(s: &mut TcpStream, ctx: &str) -> Result<u16, JobError> {
    let mut b = [0u8; 2];
    s.read_exact(&mut b).map_err(|e| io_err(ctx, e))?;
    Ok(u16::from_le_bytes(b))
}

fn write_bytes(s: &mut TcpStream, bytes: &[u8], ctx: &str) -> Result<(), JobError> {
    assert!(bytes.len() <= u16::MAX as usize, "bootstrap blob too large");
    write_u16(s, bytes.len() as u16, ctx)?;
    s.write_all(bytes).map_err(|e| io_err(ctx, e))
}

fn read_bytes(s: &mut TcpStream, ctx: &str) -> Result<Vec<u8>, JobError> {
    let len = read_u16(s, ctx)? as usize;
    let mut b = vec![0u8; len];
    s.read_exact(&mut b).map_err(|e| io_err(ctx, e))?;
    Ok(b)
}

fn check_preamble(s: &mut TcpStream, ctx: &str) -> Result<(), JobError> {
    let mut b = [0u8; 6];
    s.read_exact(&mut b).map_err(|e| io_err(ctx, e))?;
    let magic = u32::from_le_bytes(b[0..4].try_into().unwrap());
    if magic != BOOT_MAGIC {
        return Err(transport_err(
            TransportErrorKind::FrameDecode,
            format!("{ctx}: bad bootstrap magic {magic:#010x}"),
        ));
    }
    let version = u16::from_le_bytes(b[4..6].try_into().unwrap());
    if version != WIRE_VERSION {
        return Err(transport_err(
            TransportErrorKind::FrameDecode,
            format!("{ctx}: wire version {version} (expected {WIRE_VERSION})"),
        ));
    }
    Ok(())
}

fn send_preamble(s: &mut TcpStream, ctx: &str) -> Result<(), JobError> {
    s.write_all(&BOOT_MAGIC.to_le_bytes())
        .and_then(|_| s.write_all(&WIRE_VERSION.to_le_bytes()))
        .map_err(|e| io_err(ctx, e))
}

/// Introduces a fresh data connection as `rank`'s: `HELLO {magic, version,
/// rank}`, at bootstrap and on every redial.
fn send_hello(s: &mut TcpStream, rank: u16, ctx: &str) -> Result<(), JobError> {
    send_preamble(s, ctx)?;
    write_u16(s, rank, ctx)
}

/// Reads a `HELLO` and returns the rank it names.
fn read_hello(s: &mut TcpStream, ctx: &str) -> Result<u16, JobError> {
    check_preamble(s, ctx)?;
    read_u16(s, ctx)
}

/// The pause between two bootstrap polls: 100 µs at first, doubling up to
/// 10 ms. A loopback peer is usually there within a millisecond, and one
/// that is not is polled no more often than every 10 ms.
struct Backoff(Duration);

impl Backoff {
    const CAP: Duration = Duration::from_millis(10);

    fn new() -> Self {
        Backoff(Duration::from_micros(100))
    }

    fn pause(&mut self) {
        std::thread::sleep(self.0);
        self.0 = (self.0 * 2).min(Self::CAP);
    }
}

/// Connects to `addr`, retrying refused connections until `deadline` —
/// during bootstrap the target listener may simply not be bound yet.
fn connect_retry(addr: &str, deadline: Instant) -> Result<TcpStream, JobError> {
    let mut backoff = Backoff::new();
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_nodelay(true).ok();
                return Ok(s);
            }
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(io_err(&format!("connect to {addr}"), e));
                }
                backoff.pause();
            }
        }
    }
}

/// Accepts one connection with a deadline: a never-starting peer yields a
/// structured `Transport(Connect)` error instead of hanging the cluster
/// in a blocking `accept` forever. The listener is restored to blocking
/// mode before returning (it may be retained past bootstrap).
fn accept_deadline(
    listener: &TcpListener,
    deadline: Instant,
    what: &str,
) -> Result<TcpStream, JobError> {
    listener.set_nonblocking(true).ok();
    let mut backoff = Backoff::new();
    let result = loop {
        match listener.accept() {
            Ok((s, _)) => break Ok(s),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    break Err(transport_err(
                        TransportErrorKind::Connect,
                        format!("{what}: timed out waiting for a peer to connect"),
                    ));
                }
                backoff.pause();
            }
            Err(e) => break Err(io_err(what, e)),
        }
    };
    listener.set_nonblocking(false).ok();
    result
}

// ---------------------------------------------------------------------------
// Control plane: NodeComm
// ---------------------------------------------------------------------------

/// The driver collective plane: the bootstrap control connections, kept
/// open so every rank's (lockstep) driver program can exchange state.
///
/// All operations are collectives — **every** rank must call them in the
/// same order, or the cluster deadlocks on the control sockets.
#[derive(Debug)]
pub struct NodeComm {
    rank: u16,
    machines: usize,
    /// Rank 0: `streams[r-1]` talks to rank `r`. Peers: `streams[0]`
    /// talks to rank 0.
    streams: Vec<TcpStream>,
    /// When attached, control-plane reads poll this instead of blocking
    /// forever: a collective parked on a dead peer's stream unwinds with
    /// the recorded cluster error as soon as the watchdog confirms the
    /// death.
    health: Option<Arc<ClusterHealth>>,
}

/// Reads exactly `buf.len()` bytes, polling `health` between short read
/// timeouts so a collective blocked on a dead peer returns the cluster's
/// recorded error instead of hanging on the socket forever.
fn read_exact_abortable(
    s: &mut TcpStream,
    buf: &mut [u8],
    health: Option<&ClusterHealth>,
    ctx: &str,
) -> Result<(), JobError> {
    let Some(health) = health else {
        return s.read_exact(buf).map_err(|e| io_err(ctx, e));
    };
    s.set_read_timeout(Some(Duration::from_millis(50))).ok();
    let mut off = 0usize;
    let result = loop {
        if off == buf.len() {
            break Ok(());
        }
        match s.read(&mut buf[off..]) {
            Ok(0) => {
                // EOF mid-collective is *suspicion*, not a verdict: dwell
                // until the watchdog (or the Abort broadcast) names the
                // dead machine, so the caller unwinds with `MachineDown`
                // instead of an anonymous reset. The dwell is bounded —
                // if no verdict lands, the raw error stands.
                let deadline = Instant::now() + Duration::from_secs(3);
                loop {
                    if health.is_aborted() {
                        break;
                    }
                    if Instant::now() >= deadline {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                break Err(health.error().unwrap_or_else(|| {
                    io_err(
                        ctx,
                        std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "control stream closed",
                        ),
                    )
                }));
            }
            Ok(n) => off += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if health.is_aborted() {
                    break Err(health
                        .error()
                        .unwrap_or_else(|| JobError::Protocol("cluster aborted".into())));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => break Err(io_err(ctx, e)),
        }
    };
    s.set_read_timeout(None).ok();
    result
}

impl NodeComm {
    fn write_blob(s: &mut TcpStream, blob: &[u8]) -> Result<(), JobError> {
        let ctx = "control write";
        s.write_all(&(blob.len() as u32).to_le_bytes())
            .and_then(|_| s.write_all(blob))
            .map_err(|e| io_err(ctx, e))
    }

    fn read_blob(s: &mut TcpStream, health: Option<&ClusterHealth>) -> Result<Vec<u8>, JobError> {
        let ctx = "control read";
        let mut len = [0u8; 4];
        read_exact_abortable(s, &mut len, health, ctx)?;
        let mut blob = vec![0u8; u32::from_le_bytes(len) as usize];
        read_exact_abortable(s, &mut blob, health, ctx)?;
        Ok(blob)
    }

    /// Collects every rank's `local` contribution and hands the full set,
    /// indexed by rank, to every rank.
    pub fn allgather(&mut self, local: &[u8]) -> Result<Vec<Vec<u8>>, JobError> {
        let health = self.health.as_deref();
        if self.rank == 0 {
            let mut parts = Vec::with_capacity(self.machines);
            parts.push(local.to_vec());
            for s in &mut self.streams {
                parts.push(Self::read_blob(s, health)?);
            }
            for s in &mut self.streams {
                for p in &parts {
                    Self::write_blob(s, p)?;
                }
            }
            Ok(parts)
        } else {
            let s = &mut self.streams[0];
            Self::write_blob(s, local)?;
            let mut parts = Vec::with_capacity(self.machines);
            for _ in 0..self.machines {
                parts.push(Self::read_blob(s, health)?);
            }
            Ok(parts)
        }
    }

    /// A cluster-wide rendezvous: returns once every rank has entered.
    pub fn barrier(&mut self) -> Result<(), JobError> {
        self.allgather(&[]).map(|_| ())
    }
}

// ---------------------------------------------------------------------------
// Membership / bootstrap
// ---------------------------------------------------------------------------

/// A fully-formed cluster membership: the outcome of bootstrap.
#[derive(Debug)]
pub struct Membership {
    /// This process's machine id.
    pub rank: u16,
    /// Cluster size.
    pub machines: usize,
    /// Driver collective plane (the retained control connections).
    pub comm: NodeComm,
    /// The data connection to each peer, indexed by machine id (`None` at
    /// `rank`): one full-duplex socket per pair.
    pub links: Vec<Option<TcpStream>>,
    /// Every rank's data-listener address, indexed by rank — kept past
    /// bootstrap so the transport can redial a reset connection.
    pub book: Vec<String>,
    /// This rank's data listener, kept open past bootstrap so peers can
    /// redial *us* after a reset.
    pub data_listener: TcpListener,
}

/// A bound coordinator listener whose concrete address can be announced
/// (e.g. printed for subprocess orchestration) before the cluster forms.
#[derive(Debug)]
pub struct CoordHandle {
    listener: TcpListener,
}

/// Binds the rank-0 coordinator listener. Returns the handle and the
/// concrete bound address (useful with a `:0` ephemeral port).
pub fn bind_coordinator(addr: &str) -> Result<(CoordHandle, SocketAddr), JobError> {
    let listener =
        TcpListener::bind(addr).map_err(|e| io_err(&format!("bind coordinator {addr}"), e))?;
    let local = listener
        .local_addr()
        .map_err(|e| io_err("coordinator local_addr", e))?;
    Ok((CoordHandle { listener }, local))
}

/// Reserves a concrete loopback address for a later [`bind_coordinator`] —
/// a recovery rendezvous every rank must know before any of them needs it —
/// by binding an ephemeral port and dropping the listener at once. The
/// address is only bound again after the cluster that was running is torn
/// down, so the tiny reuse window is harmless.
pub fn reserve_loopback_addr() -> Result<String, JobError> {
    let (_handle, addr) = bind_coordinator("127.0.0.1:0")?;
    Ok(addr.to_string())
}

/// Binds a data listener and returns it with its concrete address.
fn bind_data(addr: &str) -> Result<(TcpListener, SocketAddr), JobError> {
    let l = TcpListener::bind(addr).map_err(|e| io_err(&format!("bind data {addr}"), e))?;
    let a = l.local_addr().map_err(|e| io_err("data local_addr", e))?;
    Ok((l, a))
}

/// Builds the pairwise data mesh once every rank knows the address book:
/// connect to every lower rank, accept from every higher one.
fn build_mesh(
    rank: u16,
    machines: usize,
    addrs: &[String],
    data_listener: &TcpListener,
    deadline: Instant,
) -> Result<Vec<Option<TcpStream>>, JobError> {
    let mut links: Vec<Option<TcpStream>> = (0..machines).map(|_| None).collect();
    for peer in 0..rank {
        let mut s = connect_retry(&addrs[peer as usize], deadline)?;
        send_hello(&mut s, rank, "hello")?;
        links[peer as usize] = Some(s);
    }
    for _ in rank as usize + 1..machines {
        let mut s = accept_deadline(data_listener, deadline, "data accept")?;
        s.set_nodelay(true).ok();
        s.set_read_timeout(Some(Duration::from_secs(30))).ok();
        let peer = read_hello(&mut s, "hello")?;
        if peer as usize >= machines || peer <= rank {
            return Err(transport_err(
                TransportErrorKind::FrameDecode,
                format!("bad hello from peer {peer}"),
            ));
        }
        s.set_read_timeout(None).ok();
        if links[peer as usize].replace(s).is_some() {
            return Err(transport_err(
                TransportErrorKind::FrameDecode,
                format!("duplicate hello from peer {peer}"),
            ));
        }
    }
    Ok(links)
}

impl CoordHandle {
    /// Coordinator side of bootstrap: waits for `machines − 1` joins,
    /// broadcasts the address book, builds the data mesh, and runs the
    /// readiness barrier. `data_listen_addr` is this rank's own data
    /// listener bind address.
    pub fn wait_cluster(
        self,
        machines: usize,
        data_listen_addr: &str,
        timeout: Duration,
    ) -> Result<Membership, JobError> {
        let deadline = Instant::now() + timeout;
        let (data_listener, data_addr) = bind_data(data_listen_addr)?;
        let mut addrs: Vec<Option<String>> = (0..machines).map(|_| None).collect();
        addrs[0] = Some(data_addr.to_string());
        let mut controls: Vec<Option<TcpStream>> = (0..machines).map(|_| None).collect();

        for _ in 1..machines {
            let mut s = accept_deadline(&self.listener, deadline, "coordinator join accept")?;
            s.set_nodelay(true).ok();
            s.set_read_timeout(Some(timeout)).ok();
            check_preamble(&mut s, "join")?;
            let rank = read_u16(&mut s, "join rank")?;
            let addr = read_bytes(&mut s, "join addr")?;
            if rank == 0 || rank as usize >= machines {
                return Err(JobError::Protocol(format!(
                    "join with invalid rank {rank} for a {machines}-machine cluster"
                )));
            }
            if addrs[rank as usize]
                .replace(String::from_utf8_lossy(&addr).into_owned())
                .is_some()
            {
                return Err(JobError::Protocol(format!("rank {rank} joined twice")));
            }
            controls[rank as usize] = Some(s);
        }

        let book: Vec<String> = addrs.into_iter().map(|a| a.unwrap()).collect();
        let mut streams = Vec::with_capacity(machines - 1);
        for (rank, c) in controls.into_iter().enumerate().skip(1) {
            let mut s = c.unwrap();
            send_preamble(&mut s, "welcome")?;
            write_u16(&mut s, machines as u16, "welcome machines")?;
            write_u16(&mut s, rank as u16, "welcome rank")?;
            for a in &book {
                write_bytes(&mut s, a.as_bytes(), "welcome addr")?;
            }
            streams.push(s);
        }

        let links = build_mesh(0, machines, &book, &data_listener, deadline)?;

        // Readiness barrier: collect READY from everyone, broadcast GO.
        for s in &mut streams {
            let mut b = [0u8; 1];
            s.read_exact(&mut b).map_err(|e| io_err("ready", e))?;
            if b[0] != READY_BYTE {
                return Err(JobError::Protocol("bad readiness byte".into()));
            }
        }
        for s in &mut streams {
            s.write_all(&[GO_BYTE]).map_err(|e| io_err("go", e))?;
            s.set_read_timeout(None).ok();
        }

        Ok(Membership {
            rank: 0,
            machines,
            comm: NodeComm {
                rank: 0,
                machines,
                streams,
                health: None,
            },
            links,
            book,
            data_listener,
        })
    }
}

/// Peer side of bootstrap: joins the coordinator at `coord_addr` as
/// `rank`, then builds the mesh and passes the readiness barrier.
pub fn join(
    coord_addr: &str,
    rank: u16,
    machines: usize,
    data_listen_addr: &str,
    timeout: Duration,
) -> Result<Membership, JobError> {
    assert!(rank > 0, "rank 0 is the coordinator; use bind_coordinator");
    let deadline = Instant::now() + timeout;
    let (data_listener, data_addr) = bind_data(data_listen_addr)?;

    let mut ctl = connect_retry(coord_addr, deadline)?;
    ctl.set_read_timeout(Some(timeout)).ok();
    send_preamble(&mut ctl, "join")?;
    write_u16(&mut ctl, rank, "join rank")?;
    write_bytes(&mut ctl, data_addr.to_string().as_bytes(), "join addr")?;

    check_preamble(&mut ctl, "welcome")?;
    let m = read_u16(&mut ctl, "welcome machines")? as usize;
    let assigned = read_u16(&mut ctl, "welcome rank")?;
    if m != machines || assigned != rank {
        return Err(JobError::Protocol(format!(
            "welcome mismatch: coordinator says rank {assigned} of {m}, \
             we expected rank {rank} of {machines}"
        )));
    }
    let mut book = Vec::with_capacity(machines);
    for _ in 0..machines {
        let b = read_bytes(&mut ctl, "welcome addr")?;
        book.push(String::from_utf8_lossy(&b).into_owned());
    }

    let links = build_mesh(rank, machines, &book, &data_listener, deadline)?;

    ctl.write_all(&[READY_BYTE])
        .map_err(|e| io_err("ready", e))?;
    let mut b = [0u8; 1];
    ctl.read_exact(&mut b).map_err(|e| io_err("go", e))?;
    if b[0] != GO_BYTE {
        return Err(JobError::Protocol("bad go byte".into()));
    }
    ctl.set_read_timeout(None).ok();

    Ok(Membership {
        rank,
        machines,
        comm: NodeComm {
            rank,
            machines,
            streams: vec![ctl],
            health: None,
        },
        links,
        book,
        data_listener,
    })
}

/// One rank's whole bootstrap from a validated [`Config`], the same for an
/// OS process and for a thread-hosted loopback rank: rank 0 binds the
/// configured coordinator address (a `:0` port is fine), hands the concrete
/// address to `announce` so the other ranks can be told, and waits for the
/// cluster to form; every other rank joins at the configured address.
pub fn bootstrap(config: &Config, announce: impl FnOnce(&str)) -> Result<Membership, JobError> {
    let t = &config.transport;
    let rank = t
        .rank
        .ok_or_else(|| JobError::Protocol("TCP transport requires an explicit rank".into()))?;
    let coord = t
        .coord_addr
        .as_deref()
        .ok_or_else(|| JobError::Protocol("TCP transport requires a coordinator address".into()))?;
    if rank == 0 {
        let (h, addr) = bind_coordinator(coord)?;
        announce(&addr.to_string());
        h.wait_cluster(config.machines, &t.listen_addr, CONNECT_TIMEOUT)
    } else {
        join(
            coord,
            rank,
            config.machines,
            &t.listen_addr,
            CONNECT_TIMEOUT,
        )
    }
}

// ---------------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------------

/// Wire-repair telemetry, lock-free. See
/// [`WireCountersSnapshot`](crate::transport::WireCountersSnapshot) for
/// the field-by-field story.
#[derive(Default)]
struct WireCounters {
    reconnects_dialed: AtomicU64,
    reconnects_accepted: AtomicU64,
    resets_injected: AtomicU64,
    stalls_injected: AtomicU64,
    accepts_refused: AtomicU64,
    reader_eofs: AtomicU64,
}

impl WireCounters {
    fn snapshot(&self) -> WireCountersSnapshot {
        WireCountersSnapshot {
            reconnects_dialed: self.reconnects_dialed.load(Ordering::Relaxed),
            reconnects_accepted: self.reconnects_accepted.load(Ordering::Relaxed),
            resets_injected: self.resets_injected.load(Ordering::Relaxed),
            stalls_injected: self.stalls_injected.load(Ordering::Relaxed),
            accepts_refused: self.accepts_refused.load(Ordering::Relaxed),
            reader_eofs: self.reader_eofs.load(Ordering::Relaxed),
        }
    }
}

/// Upper bound on frame payloads, bytes: no send exceeds it
/// (`Config::validate` holds `buffer_bytes` under it) and the decoder
/// rejects a larger declared length — a sanity check against garbage or
/// hostile length fields.
pub const MAX_FRAME_BYTES: usize = 4 << 20;

/// How long bootstrap keeps retrying connects / waiting for peers.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a [`WireFaultKind::Stall`] holds a frame between header and
/// payload.
const STALL: Duration = Duration::from_millis(2);

/// Knobs for [`TcpTransport::new`] beyond the membership itself.
pub struct TcpOptions {
    /// Capacity hint for received entry payloads (kinds with
    /// [`MsgKind::recycles_payload`]): allocating at the machine's pool
    /// buffer size lets the copier recycle them into its pool, balancing
    /// the quota the send side spends.
    pub recv_capacity: usize,
    /// Seeded socket-fault schedule (inert by default).
    pub wire_fault: WireFaultPlan,
    /// Server-wide retry budget that every reconnect attempt must pay
    /// into; a dry bucket turns a reconnect storm into a structured
    /// [`JobError::RetryBudgetExhausted`].
    pub retry_budget: Arc<RetryBudget>,
}

impl TcpOptions {
    /// Plain options: no faults, unbudgeted retries.
    pub fn new(recv_capacity: usize) -> Self {
        TcpOptions {
            recv_capacity,
            wire_fault: WireFaultPlan::none(),
            retry_budget: Arc::new(RetryBudget::unlimited()),
        }
    }

    /// What a cluster built from `config` runs its sockets with.
    pub fn from_config(config: &Config) -> Self {
        TcpOptions {
            recv_capacity: config.buffer_bytes,
            wire_fault: config.wire_fault,
            retry_budget: Arc::new(RetryBudget::new(
                config.serve.retry_budget_tokens,
                config.serve.retry_budget_refill_ms,
            )),
        }
    }
}

/// State shared between the transport handle, its reader threads, and
/// the reconnect acceptor.
struct Shared {
    rank: u16,
    machines: usize,
    local: OnceLock<MachineEndpoints>,
    /// Each peer's write side. A reconnect replaces the stream *through*
    /// the held lock, so a writer never observes a half-installed socket.
    writers: Vec<Option<Mutex<TcpStream>>>,
    /// Every rank's data-listener address — the redial targets.
    book: Vec<String>,
    health: Arc<ClusterHealth>,
    closing: AtomicBool,
    recv_capacity: usize,
    wire_fault: WireFaultPlan,
    retry_budget: Arc<RetryBudget>,
    /// Monotonic remote-send counter: the wire-fault dice input.
    send_counter: AtomicU64,
    /// Accepts the plan still owes a refusal.
    refuse_remaining: AtomicU32,
    counters: WireCounters,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// One fd clone per spawned reader, current *and* stale. A reader on a
    /// connection that was replaced by a redial blocks in `recv` on its own
    /// duplicated fd — dropping the writer half doesn't wake it — so
    /// teardown must shut these down explicitly or the join hangs forever.
    reader_socks: Mutex<Vec<TcpStream>>,
}

/// The real-socket [`Transport`] backend for one process hosting one
/// machine (its `rank`).
///
/// Sends are length-prefixed frames — a 32-byte
/// [`encode_frame_header`] followed by the payload, written with one
/// vectored write so the payload is never copied. One reader thread per
/// peer plays the paper's poller-against-the-NIC role (§3.4): it decodes
/// frames and feeds the local machine's copier queue (requests/control) or
/// the originating worker's response queue.
///
/// A failed send marks the peer suspected and redials its data listener
/// in-line (bounded backoff under the peer's writer lock, each attempt
/// paying the [`RetryBudget`]); the peer's retained listener accepts the re-`HELLO`
/// and swaps the fresh socket into its own writer slot. Frames always
/// start at byte 0 of a connection, so a reconnect can never tear a
/// frame, and redelivered envelopes are deduplicated by sequence number
/// above the transport.
pub struct TcpTransport {
    shared: Arc<Shared>,
    /// Reader halves, parked until `register_endpoint` spawns the
    /// reader threads.
    pending_readers: Mutex<Vec<(MachineId, TcpStream)>>,
    /// This rank's data listener, parked until `register_endpoint`
    /// spawns the reconnect acceptor.
    data_listener: Mutex<Option<TcpListener>>,
    /// The retained bootstrap control streams: the process-group
    /// collective. Driver calls are sequential, so the mutex is
    /// contention-free.
    comm: Mutex<NodeComm>,
}

impl TcpTransport {
    /// Builds the transport from a bootstrap [`Membership`]: its data
    /// links, address book and data listener carry envelopes, its control
    /// streams stay open as the process-group collective.
    pub fn new(
        membership: Membership,
        health: Arc<ClusterHealth>,
        opts: TcpOptions,
    ) -> Result<Self, JobError> {
        let Membership {
            rank,
            machines,
            mut comm,
            links,
            book,
            data_listener,
        } = membership;
        // The control plane must notice aborts too: a collective waiting on
        // a dead peer's stream returns the cluster error instead of hanging.
        comm.health = Some(health.clone());
        assert_eq!(links.len(), machines);
        assert_eq!(book.len(), machines);
        let mut writers = Vec::with_capacity(machines);
        let mut pending = Vec::new();
        for (peer, link) in links.into_iter().enumerate() {
            let writer = match link {
                None => None,
                Some(s) => {
                    let r = s.try_clone().map_err(|e| io_err("clone socket", e))?;
                    pending.push((peer as MachineId, r));
                    Some(Mutex::new(s))
                }
            };
            writers.push(writer);
        }
        Ok(TcpTransport {
            shared: Arc::new(Shared {
                rank,
                machines,
                local: OnceLock::new(),
                writers,
                book,
                health,
                closing: AtomicBool::new(false),
                recv_capacity: opts.recv_capacity,
                wire_fault: opts.wire_fault,
                retry_budget: opts.retry_budget,
                send_counter: AtomicU64::new(0),
                refuse_remaining: AtomicU32::new(opts.wire_fault.refuse_accepts),
                counters: WireCounters::default(),
                threads: Mutex::new(Vec::new()),
                reader_socks: Mutex::new(Vec::new()),
            }),
            pending_readers: Mutex::new(pending),
            data_listener: Mutex::new(Some(data_listener)),
            comm: Mutex::new(comm),
        })
    }
}

impl Shared {
    /// Shuts every data socket down and joins the reader and acceptor
    /// threads. Readers on connections a redial replaced hold their own fd
    /// clones; those are shut down too or their joins never return.
    /// try_lock: a writer stuck in a redial gives up on `closing`, and its
    /// socket's reader clone is shut down anyway.
    fn close_all(&self) {
        self.closing.store(true, Ordering::Release);
        for w in self.writers.iter().flatten() {
            if let Some(s) = w.try_lock() {
                s.shutdown(Shutdown::Both).ok();
            }
        }
        for s in self.reader_socks.lock().drain(..) {
            s.shutdown(Shutdown::Both).ok();
        }
        for t in self.threads.lock().drain(..) {
            t.join().ok();
        }
    }

    /// Spawns a reader thread over `stream`. Requires the local endpoint
    /// to be registered (always true outside bootstrap races — sends
    /// only start once the cluster is assembled).
    fn spawn_reader(self: &Arc<Self>, peer: MachineId, stream: TcpStream) {
        let Some(ep) = self.local.get().cloned() else {
            return;
        };
        if let Ok(clone) = stream.try_clone() {
            self.reader_socks.lock().push(clone);
        }
        let shared = self.clone();
        let handle = std::thread::Builder::new()
            .name(format!("pgxd-net-rx-{}-{peer}", self.rank))
            .spawn(move || Shared::reader_loop(shared, stream, peer, ep))
            .expect("spawn reader thread");
        self.threads.lock().push(handle);
    }

    /// The reader loop: one per data socket, so one per peer but for a
    /// socket a redial replaced. Decodes frames and feeds the local queues
    /// until the socket closes.
    ///
    /// An EOF or reset here is *suspicion*, not a verdict: the thread
    /// exits quietly (counting a `reader_eofs`) and leaves the diagnosis
    /// to the layers that can actually tell the difference — a goodbye
    /// frame marks a clean departure, a successful redial makes it a
    /// blip, and only the watchdog's deadline turns silence into
    /// [`JobError::MachineDown`]. Frame-decode failures still abort
    /// immediately: the peers disagree about the protocol, and no
    /// reconnect fixes that.
    fn reader_loop(
        shared: Arc<Shared>,
        mut stream: TcpStream,
        peer: MachineId,
        ep: MachineEndpoints,
    ) {
        let mut header = [0u8; FRAME_HEADER_BYTES];
        loop {
            if stream.read_exact(&mut header).is_err() {
                if !shared.closing.load(Ordering::Acquire) {
                    shared.counters.reader_eofs.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
            let fh = match decode_frame_header(&header, MAX_FRAME_BYTES) {
                Ok(fh) => fh,
                Err(e) => {
                    shared.health.abort(transport_err(
                        TransportErrorKind::FrameDecode,
                        format!("from peer {peer}: {e}"),
                    ));
                    return;
                }
            };
            let len = fh.payload_len as usize;
            // Pool-sized capacity only where the receiver recycles the
            // buffer into its pool; control frames (heartbeats, acks, wave
            // and barrier frames) get exactly their few bytes.
            let capacity = if fh.kind.recycles_payload() {
                len.max(shared.recv_capacity)
            } else {
                len
            };
            let mut payload = Vec::with_capacity(capacity);
            payload.resize(len, 0);
            if stream.read_exact(&mut payload).is_err() {
                if !shared.closing.load(Ordering::Acquire) {
                    shared.counters.reader_eofs.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
            let env = fh.into_envelope(payload);
            if env.kind == MsgKind::Shutdown {
                // Goodbye frame: the peer is tearing down cleanly. Mark
                // it departed (exempt from the watchdog) and never
                // deliver — a Shutdown envelope would stop the copier.
                shared.health.mark_departed(peer);
                continue;
            }
            if ep.deliver(env).is_err() {
                // Local queues are gone: the machine is shutting down.
                return;
            }
        }
    }

    /// Redials `peer`'s data listener after a failed send and writes the
    /// frame (`header`, `payload`) on the fresh connection, paying the retry
    /// budget per attempt, with bounded backoff until the redial window
    /// closes. An attempt fails if the connect, the `HELLO` or the frame
    /// fails: a refused accept drops the connection after the `HELLO` went
    /// out, so the frame can meet the peer's reset. Returns the stream the
    /// frame went out on.
    fn redial(
        self: &Arc<Self>,
        peer: MachineId,
        header: &[u8],
        payload: &[u8],
    ) -> Result<TcpStream, JobError> {
        // `CONNECT_TIMEOUT` is sized for bootstrap (peers may not have
        // started yet); a redial talks to a peer that was already up, so a
        // much shorter window separates "transient blip" from "dead" — and
        // keeps the poller thread (which holds the writer lock through this
        // call) from starving the watchdog for tens of seconds.
        const REDIAL_WINDOW: Duration = Duration::from_millis(2_000);
        let deadline = Instant::now() + REDIAL_WINDOW;
        let mut backoff = Duration::from_millis(5);
        let addr = &self.book[peer as usize];
        loop {
            if self.closing.load(Ordering::Acquire) {
                return Err(transport_err(
                    TransportErrorKind::Reset,
                    format!("reconnect to machine {peer} abandoned: shutting down"),
                ));
            }
            // A peer the watchdog (or a goodbye frame) already declared dead
            // will never answer: bail immediately instead of burning the full
            // connect deadline — the caller's error surfaces as the cluster
            // abort, which already names the dead machine.
            if self.health.is_departed(peer)
                || matches!(self.health.error(), Some(JobError::MachineDown { machine }) if machine == peer)
            {
                return Err(transport_err(
                    TransportErrorKind::Reset,
                    format!("reconnect to machine {peer} abandoned: peer is down"),
                ));
            }
            if !self.retry_budget.try_acquire() {
                let err = JobError::RetryBudgetExhausted;
                self.health.abort(err.clone());
                return Err(err);
            }
            let attempt = (|| {
                let mut s =
                    TcpStream::connect(addr).map_err(|e| io_err(&format!("redial {addr}"), e))?;
                s.set_nodelay(true).ok();
                send_hello(&mut s, self.rank, "re-hello")?;
                Shared::write_frame(&mut s, header, payload, None)
                    .map_err(|e| io_err(&format!("send to machine {peer} after reconnect"), e))?;
                Ok(s)
            })();
            match attempt {
                Ok(s) => {
                    self.counters
                        .reconnects_dialed
                        .fetch_add(1, Ordering::Relaxed);
                    return Ok(s);
                }
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(80));
                }
            }
        }
    }

    /// Writes one framed envelope to `stream`, optionally stalling
    /// between header and payload (the injected partial write).
    fn write_frame(
        stream: &mut TcpStream,
        header: &[u8],
        payload: &[u8],
        stall: Option<Duration>,
    ) -> std::io::Result<()> {
        if let Some(pause) = stall {
            // Injected partial write: the header lands as its own
            // segment, then the payload hangs — the receiver sits on a
            // half-read frame exactly as under real backpressure.
            stream.write_all(header)?;
            std::thread::sleep(pause);
            return stream.write_all(payload);
        }
        // Vectored fast path: header + payload in one syscall, falling
        // back to write_all for any unwritten tail.
        let bufs = [IoSlice::new(header), IoSlice::new(payload)];
        let total = header.len() + payload.len();
        let mut written = stream.write_vectored(&bufs)?;
        while written < total {
            let n = if written < header.len() {
                stream.write(&header[written..])?
            } else {
                stream.write(&payload[written - header.len()..])?
            };
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "socket accepted no bytes",
                ));
            }
            written += n;
        }
        Ok(())
    }

    /// The reconnect acceptor: serves re-`HELLO`s on the retained data
    /// listener for the life of the transport, swapping fresh sockets
    /// into the writer slots and spawning readers over them. Refuses the
    /// first `refuse_accepts` connections when the fault plan says so.
    fn acceptor_loop(shared: Arc<Shared>, listener: TcpListener) {
        listener.set_nonblocking(true).ok();
        loop {
            if shared.closing.load(Ordering::Acquire) {
                return;
            }
            let mut s = match listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                }
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                }
            };
            if shared
                .refuse_remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| r.checked_sub(1))
                .is_ok()
            {
                // Injected accept refusal: drop the connection before the
                // handshake; the dialer backs off and retries.
                shared
                    .counters
                    .accepts_refused
                    .fetch_add(1, Ordering::Relaxed);
                drop(s);
                continue;
            }
            // Handshake under a short timeout so a wedged dialer cannot
            // freeze the acceptor; a bad hello drops the socket (the
            // dialer's redial loop will retry) instead of killing the
            // cluster.
            s.set_nonblocking(false).ok();
            s.set_nodelay(true).ok();
            s.set_read_timeout(Some(Duration::from_secs(5))).ok();
            let Ok(peer) = read_hello(&mut s, "re-hello") else {
                continue;
            };
            if peer as usize >= shared.machines || peer == shared.rank {
                continue;
            }
            let Some(writer) = shared.writers[peer as usize].as_ref() else {
                continue;
            };
            s.set_read_timeout(None).ok();
            let Ok(reader_half) = s.try_clone() else {
                continue;
            };
            *writer.lock() = s;
            shared.spawn_reader(peer, reader_half);
            shared
                .counters
                .reconnects_accepted
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Transport for TcpTransport {
    fn machines(&self) -> usize {
        self.shared.machines
    }

    fn register_endpoint(&self, machine: MachineId, ep: MachineEndpoints) -> Result<(), JobError> {
        let shared = &self.shared;
        if machine != shared.rank {
            return Err(JobError::Protocol(format!(
                "process hosting rank {} cannot register machine {machine}",
                shared.rank
            )));
        }
        shared
            .local
            .set(ep)
            .map_err(|_| JobError::Protocol(format!("machine {machine} registered twice")))?;
        for (peer, stream) in self.pending_readers.lock().drain(..) {
            shared.spawn_reader(peer, stream);
        }
        if let Some(listener) = self.data_listener.lock().take() {
            let shared = shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("pgxd-net-accept-{}", self.shared.rank))
                .spawn(move || Shared::acceptor_loop(shared, listener))
                .expect("spawn acceptor thread");
            self.shared.threads.lock().push(handle);
        }
        Ok(())
    }

    fn send(&self, env: Envelope) -> Result<(), JobError> {
        let shared = &self.shared;
        if env.dst == shared.rank {
            let Some(ep) = shared.local.get() else {
                return Err(JobError::MachineDown { machine: env.dst });
            };
            return ep.deliver(env);
        }
        let Some(writer) = shared
            .writers
            .get(env.dst as usize)
            .and_then(|w| w.as_ref())
        else {
            return Err(JobError::Protocol(format!(
                "no link to machine {}",
                env.dst
            )));
        };
        if env.payload.len() > MAX_FRAME_BYTES {
            return Err(transport_err(
                TransportErrorKind::FrameDecode,
                format!(
                    "payload of {} bytes exceeds the {MAX_FRAME_BYTES}-byte frame bound",
                    env.payload.len(),
                ),
            ));
        }

        // Wire-fault dice: one draw per remote send, public and seeded.
        let plan = &shared.wire_fault;
        let mut stall = None;
        if plan.is_active() {
            let counter = shared.send_counter.fetch_add(1, Ordering::Relaxed);
            match plan.draw(counter) {
                WireFaultKind::Deliver => {}
                WireFaultKind::Reset => {
                    // Actually kill the socket: the write below fails and
                    // takes the genuine redial path, so injected resets
                    // exercise exactly the code a real reset does.
                    shared
                        .counters
                        .resets_injected
                        .fetch_add(1, Ordering::Relaxed);
                    writer.lock().shutdown(Shutdown::Both).ok();
                }
                WireFaultKind::Stall => {
                    shared
                        .counters
                        .stalls_injected
                        .fetch_add(1, Ordering::Relaxed);
                    stall = Some(STALL);
                }
            }
        }

        let header = encode_frame_header(&env);
        let mut stream = writer.lock();
        match Shared::write_frame(&mut stream, &header, &env.payload, stall) {
            Ok(()) => Ok(()),
            // A send racing shutdown is not an error: the envelope's fate
            // no longer matters. Same for a peer that said goodbye — its
            // queues are gone on purpose.
            Err(_) if shared.closing.load(Ordering::Acquire) => Ok(()),
            Err(_) if shared.health.is_departed(env.dst) => Ok(()),
            // A failed heartbeat is not worth a blocking redial: the poller
            // ignores heartbeat errors, and parking the poller thread in a
            // redial would starve the very watchdog the heartbeats feed.
            // Data traffic repairs the link; silence convicts the peer.
            Err(e) if env.kind == MsgKind::Heartbeat => {
                Err(io_err(&format!("heartbeat to machine {}", env.dst), e))
            }
            Err(_) => {
                // Suspected peer: redial through the held writer lock (no
                // writer can race a half-installed socket) and resend the
                // whole frame — nothing of it reached the peer's decoder as
                // a completed frame, and redelivery of a completed-but-
                // unacked frame is deduplicated above us.
                let fresh = match shared.redial(env.dst, &header, &env.payload) {
                    Ok(s) => s,
                    Err(e @ JobError::RetryBudgetExhausted) => return Err(e),
                    Err(_) if shared.closing.load(Ordering::Acquire) => return Ok(()),
                    Err(_) => {
                        // Redial exhausted its deadline: the peer cannot be
                        // re-reached, which is the same verdict the watchdog
                        // delivers. Surface it in the shape the recovery
                        // layers key on — a named dead machine.
                        let err = JobError::MachineDown { machine: env.dst };
                        shared.health.abort(err.clone());
                        return Err(err);
                    }
                };
                let reader_half = fresh
                    .try_clone()
                    .map_err(|e| io_err("clone reconnected socket", e))?;
                *stream = fresh;
                shared.spawn_reader(env.dst, reader_half);
                Ok(())
            }
        }
    }

    fn hosted(&self) -> std::ops::Range<usize> {
        let rank = self.shared.rank as usize;
        rank..rank + 1
    }

    fn allgather(&self, local: &[u8]) -> Result<Vec<Vec<u8>>, JobError> {
        self.comm.lock().allgather(local)
    }

    fn barrier(&self) -> Result<(), JobError> {
        self.comm.lock().barrier()
    }

    fn name(&self) -> &'static str {
        "tcp"
    }

    fn shutdown(&self) {
        let shared = &self.shared;
        // Goodbye pass (best-effort): one Shutdown-kind frame per peer
        // tells it this is a clean departure, so its watchdog exempts us
        // and its reader treats the coming EOF as teardown. try_lock: a
        // link stuck in a redial loop just misses its goodbye — the peer's
        // EOF handling still copes.
        for (peer, w) in shared.writers.iter().enumerate() {
            let Some(w) = w else { continue };
            let goodbye = Envelope {
                src: shared.rank,
                dst: peer as u16,
                kind: MsgKind::Shutdown,
                worker: 0,
                side_id: 0,
                seq: 0,
                payload: Vec::new(),
            };
            if let Some(mut s) = w.try_lock() {
                s.set_write_timeout(Some(Duration::from_millis(200))).ok();
                s.write_all(&encode_frame_header(&goodbye)).ok();
            }
        }
        shared.close_all();
    }

    fn wire_counters(&self) -> Option<WireCountersSnapshot> {
        Some(self.shared.counters.snapshot())
    }

    fn sever(&self) {
        self.shared.close_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::make_endpoints;
    use crate::message::MsgKind;

    /// Bootstraps a 2-process-style cluster on two threads over loopback
    /// and pushes envelopes both ways through real sockets.
    #[test]
    fn two_rank_bootstrap_and_frames() {
        let (coord, addr) = bind_coordinator("127.0.0.1:0").unwrap();
        let timeout = Duration::from_secs(30);
        let peer = std::thread::spawn(move || {
            join(&addr.to_string(), 1, 2, "127.0.0.1:0", timeout).unwrap()
        });
        let m0 = coord.wait_cluster(2, "127.0.0.1:0", timeout).unwrap();
        let m1 = peer.join().unwrap();
        assert_eq!((m0.rank, m0.machines), (0, 2));
        assert_eq!((m1.rank, m1.machines), (1, 2));

        let mk = |m: Membership| {
            let health = Arc::new(ClusterHealth::new(2));
            let rank = m.rank;
            let t = TcpTransport::new(m, health.clone(), TcpOptions::new(1024)).unwrap();
            let (eps, mut rxs) = make_endpoints(1, 2);
            t.register_endpoint(rank, eps[0].clone()).unwrap();
            (Arc::new(t), rxs.remove(0), health)
        };
        let (t0, rx0, h0) = mk(m0);
        let (t1, rx1, h1) = mk(m1);
        assert_eq!((t0.hosted(), t1.hosted()), (0..1, 1..2));

        // Request 0 → 1 lands on rank 1's copier queue.
        t0.send(Envelope {
            src: 0,
            dst: 1,
            kind: MsgKind::Write,
            worker: 0,
            side_id: 7,
            seq: 3,
            payload: vec![0xAB; 48],
        })
        .unwrap();
        let got = rx1.copier_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(got.kind, MsgKind::Write);
        assert_eq!((got.src, got.dst, got.side_id, got.seq), (0, 1, 7, 3));
        assert_eq!(got.payload, vec![0xAB; 48]);

        // Response 1 → 0 lands on the originating worker's queue.
        t1.send(Envelope {
            src: 1,
            dst: 0,
            kind: MsgKind::ReadResp,
            worker: 1,
            side_id: 9,
            seq: 0,
            payload: vec![1, 2, 3],
        })
        .unwrap();
        let got = rx0.worker_rx[1]
            .recv_timeout(Duration::from_secs(10))
            .unwrap();
        assert_eq!(got.kind, MsgKind::ReadResp);
        assert_eq!(got.payload, vec![1, 2, 3]);

        // Self-send short-circuits through the local queues.
        t1.send(Envelope {
            src: 1,
            dst: 1,
            kind: MsgKind::Heartbeat,
            worker: 0,
            side_id: 0,
            seq: 0,
            payload: Vec::new(),
        })
        .unwrap();
        assert!(rx1.copier_rx.recv_timeout(Duration::from_secs(10)).is_ok());

        // Driver collectives see every rank's contribution in rank order.
        let c0 = t0.clone();
        let g0 = std::thread::spawn(move || c0.allgather(b"zero").unwrap());
        let g1 = t1.allgather(b"one").unwrap();
        let g0 = g0.join().unwrap();
        assert_eq!(g0, vec![b"zero".to_vec(), b"one".to_vec()]);
        assert_eq!(g1, g0);

        // Clean shutdown: goodbyes land, no Reset abort on either side.
        t0.shutdown();
        t1.shutdown();
        assert!(!h0.is_aborted(), "clean shutdown must not abort health");
        assert!(!h1.is_aborted(), "clean shutdown must not abort health");
    }
}
