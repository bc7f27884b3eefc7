//! The pluggable transport layer beneath [`Fabric`](crate::fabric::Fabric).
//!
//! [`Fabric`](crate::fabric::Fabric) owns everything backend-agnostic —
//! send-side statistics and [`FaultPlan`](crate::config::FaultPlan) chaos
//! injection — and delegates actual delivery to a [`Transport`]. Two
//! backends exist:
//!
//! * [`InMemoryTransport`] — the original single-process channel switch.
//!   Every machine's queues live in one address space and `send` is a
//!   direct channel push. Default, bit-compatible with all prior behavior.
//! * [`TcpTransport`](crate::tcp::TcpTransport) — real sockets between OS
//!   processes. Envelopes travel as length-prefixed frames
//!   ([`encode_frame_header`](crate::message::encode_frame_header)); a
//!   reader thread per connection plays the paper's poller role (§3.4),
//!   decoding frames and feeding the destination machine's copier/worker
//!   queues.
//!
//! The reliability protocol (sequencing, dedup, ack, retransmit) lives
//! *above* `send` in the poller loop and below it in the copier, so it
//! applies unchanged on both backends.
//!
//! A backend also says which machines this process [hosts](Transport::hosted)
//! and carries the *process-group collective* ([`Transport::allgather`],
//! [`Transport::barrier`]) the driver API is written against: the identity
//! on the in-memory switch, whose one process hosts every machine, and the
//! retained bootstrap control streams on TCP. That is the whole difference
//! between the two deployment shapes as far as
//! [`Cluster`](crate::cluster::Cluster) is concerned.

use crate::fabric::MachineEndpoints;
use crate::health::JobError;
use crate::ids::MachineId;
use crate::message::Envelope;
use std::ops::Range;
use std::sync::OnceLock;

/// A message-delivery backend: the minimal surface the engine needs from an
/// interconnect.
///
/// Implementations must be fully thread-safe: `send` is called concurrently
/// by every poller thread of every local machine, and `shutdown` may race
/// with in-flight sends.
pub trait Transport: Send + Sync {
    /// Total number of machines in the cluster (across all processes).
    fn machines(&self) -> usize;

    /// Registers the receiving queues of a machine hosted by *this*
    /// process. Must be called before any envelope addressed to `machine`
    /// can be delivered locally.
    fn register_endpoint(&self, machine: MachineId, ep: MachineEndpoints) -> Result<(), JobError>;

    /// Delivers one envelope toward `env.dst`.
    ///
    /// `Ok` is *not* an acknowledgement — delivery is only as reliable as
    /// the backend (and any fault plan above it) allows. `Err` surfaces
    /// hard failures: a torn-down local machine or a broken connection.
    fn send(&self, env: Envelope) -> Result<(), JobError>;

    /// The machines this process hosts (their queues are local): all of
    /// them on the in-memory switch, the one at this process's rank on TCP.
    fn hosted(&self) -> Range<usize>;

    /// Process-group allgather: every process contributes `local` and
    /// receives all contributions in process order (ascending hosted
    /// range). A collective — every process must call it in the same driver
    /// step. With one process in the group it is the identity.
    fn allgather(&self, local: &[u8]) -> Result<Vec<Vec<u8>>, JobError> {
        Ok(vec![local.to_vec()])
    }

    /// Process-group rendezvous: returns once every process has entered.
    fn barrier(&self) -> Result<(), JobError> {
        Ok(())
    }

    /// Backend name for diagnostics ("in-memory", "tcp").
    fn name(&self) -> &'static str;

    /// Releases backend resources (closes sockets, stops reader threads).
    /// Idempotent; called once the cluster's threads have exited.
    fn shutdown(&self);

    /// Tears the backend down *abruptly* — no goodbye handshakes, as if
    /// the hosting process were SIGKILLed. Chaos/test hook: peers should
    /// observe the same wire signature a real crash produces. Backends
    /// without a wire fall back to a plain [`Transport::shutdown`].
    fn sever(&self) {
        self.shutdown();
    }

    /// Wire-level repair telemetry, for backends that have a wire to
    /// repair. The in-memory switch has none, so the default is `None`.
    fn wire_counters(&self) -> Option<WireCountersSnapshot> {
        None
    }
}

/// A point-in-time copy of a real backend's wire-repair counters:
/// how often the transport had to fight the socket layer to keep the
/// envelope stream flowing. All zeros on a clean wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireCountersSnapshot {
    /// Outbound reconnections dialed after a send found its lane dead.
    pub reconnects_dialed: u64,
    /// Inbound reconnections accepted by the data listener after boot.
    pub reconnects_accepted: u64,
    /// Connection resets injected by the seeded [`WireFaultPlan`](crate::config::WireFaultPlan)
    /// (crate::config::WireFaultPlan).
    pub resets_injected: u64,
    /// Mid-frame write stalls injected by the plan.
    pub stalls_injected: u64,
    /// Inbound accepts refused by the plan.
    pub accepts_refused: u64,
    /// Reader threads that exited on an unexpected (non-teardown) EOF or
    /// reset — each is a suspected peer awaiting reconnect or watchdog.
    pub reader_eofs: u64,
}

impl std::ops::AddAssign for WireCountersSnapshot {
    fn add_assign(&mut self, w: Self) {
        self.reconnects_dialed += w.reconnects_dialed;
        self.reconnects_accepted += w.reconnects_accepted;
        self.resets_injected += w.resets_injected;
        self.stalls_injected += w.stalls_injected;
        self.accepts_refused += w.accepts_refused;
        self.reader_eofs += w.reader_eofs;
    }
}

/// What one process hands to a driver collective
/// ([`Cluster::exchange`](crate::cluster::Cluster::exchange)). Only a
/// multi-process backend ever encodes one; a process that hosts every
/// machine keeps the value as it is.
pub trait Contribution: Sized {
    /// Appends the flat little-endian encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Parses [`Contribution::encode`]'s output; `None` on any malformation.
    fn decode(bytes: &[u8]) -> Option<Self>;
}

/// The single-process channel switch: every machine's endpoints live in
/// this address space and `send` routes directly onto the destination's
/// crossbeam queues.
pub struct InMemoryTransport {
    endpoints: Vec<OnceLock<MachineEndpoints>>,
}

impl InMemoryTransport {
    /// An empty switch for `machines` endpoints, to be populated through
    /// [`Transport::register_endpoint`].
    pub fn new(machines: usize) -> Self {
        InMemoryTransport {
            endpoints: (0..machines).map(|_| OnceLock::new()).collect(),
        }
    }
}

impl Transport for InMemoryTransport {
    fn machines(&self) -> usize {
        self.endpoints.len()
    }

    fn register_endpoint(&self, machine: MachineId, ep: MachineEndpoints) -> Result<(), JobError> {
        self.endpoints[machine as usize]
            .set(ep)
            .map_err(|_| JobError::Protocol(format!("machine {machine} registered twice")))
    }

    fn send(&self, env: Envelope) -> Result<(), JobError> {
        let dst = env.dst as usize;
        debug_assert!(dst < self.endpoints.len(), "bad destination machine");
        match self.endpoints[dst].get() {
            Some(ep) => ep.deliver(env),
            None => Err(JobError::MachineDown { machine: env.dst }),
        }
    }

    fn hosted(&self) -> Range<usize> {
        0..self.endpoints.len()
    }

    fn name(&self) -> &'static str {
        "in-memory"
    }

    fn shutdown(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::make_endpoints;
    use crate::message::MsgKind;

    fn env(dst: u16, kind: MsgKind) -> Envelope {
        Envelope {
            src: 0,
            dst,
            kind,
            worker: 0,
            side_id: 0,
            seq: 0,
            payload: Vec::new(),
        }
    }

    #[test]
    fn unregistered_endpoint_is_machine_down() {
        let t = InMemoryTransport::new(2);
        let err = t.send(env(1, MsgKind::Write)).unwrap_err();
        assert_eq!(err, JobError::MachineDown { machine: 1 });
    }

    #[test]
    fn double_registration_rejected() {
        let (eps, _rxs) = make_endpoints(1, 1);
        let t = InMemoryTransport::new(1);
        t.register_endpoint(0, eps[0].clone()).unwrap();
        assert!(t.register_endpoint(0, eps[0].clone()).is_err());
    }

    #[test]
    fn registered_endpoint_receives() {
        let (eps, rxs) = make_endpoints(2, 1);
        let t = InMemoryTransport::new(2);
        for (m, ep) in eps.into_iter().enumerate() {
            t.register_endpoint(m as MachineId, ep).unwrap();
        }
        assert_eq!(t.machines(), 2);
        assert_eq!(t.hosted(), 0..2);
        // One process: the collective is the identity.
        assert_eq!(t.allgather(b"x").unwrap(), vec![b"x".to_vec()]);
        t.barrier().unwrap();
        assert_eq!(t.name(), "in-memory");
        t.send(env(1, MsgKind::Write)).unwrap();
        assert!(rxs[1].copier_rx.try_recv().is_ok());
        t.shutdown(); // no-op, must not panic
    }
}
