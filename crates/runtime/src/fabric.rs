//! The backend-agnostic interconnect shell.
//!
//! [`Fabric::send`] is the single point every envelope passes through. It
//! charges traffic statistics to the sending machine, runs the
//! [`FaultPlan`] chaos injector, and hands the envelope to the configured
//! [`Transport`] backend — the in-memory channel switch by default, or real
//! TCP sockets for multi-process clusters. The dispatch a backend performs (copier queue
//! for requests, originating worker's response queue for responses) is
//! what the paper's poller thread does against the real NIC driver (§3.4).
//!
//! Keeping the fault plan *above* the backend means a lossy plan exercises
//! the retransmit machinery identically on both backends, and accounting
//! stays bit-compatible regardless of transport.

use crate::config::FaultPlan;
use crate::fault::{FaultCounters, FaultInjector};
use crate::health::JobError;
use crate::ids::MachineId;
use crate::message::Envelope;
use crate::stats::MachineStats;
use crate::telemetry::Telemetry;
use crate::transport::Transport;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Receiving endpoints of one machine.
#[derive(Debug, Clone)]
pub struct MachineEndpoints {
    /// Request queue consumed by the machine's copier threads.
    pub copier_tx: Sender<Envelope>,
    /// Response queues, one per worker thread.
    pub worker_tx: Vec<Sender<Envelope>>,
}

impl MachineEndpoints {
    /// Routes an envelope that arrived for this machine: a response to the
    /// originating worker's queue, anything else to the copiers. A dropped
    /// queue means the machine's threads exited, which surfaces as
    /// [`JobError::MachineDown`] instead of silently losing traffic.
    pub fn deliver(&self, env: Envelope) -> Result<(), JobError> {
        let machine = env.dst;
        let sent = if env.kind.is_response() {
            let w = env.worker as usize;
            debug_assert!(w < self.worker_tx.len(), "bad worker index in response");
            self.worker_tx[w].send(env).is_ok()
        } else {
            self.copier_tx.send(env).is_ok()
        };
        if sent {
            Ok(())
        } else {
            Err(JobError::MachineDown { machine })
        }
    }
}

/// The cluster-wide message switch: backend-agnostic accounting and chaos
/// over a pluggable [`Transport`].
///
/// The send-side state (`stats`, `telemetry`) covers only the machines
/// hosted by *this* process: entry `i` belongs to
/// machine `first_machine + i`. A single-process cluster hosts all of
/// them (`first_machine == 0`); a `pgxd-node` process hosts exactly one.
pub struct Fabric {
    transport: Arc<dyn Transport>,
    /// Machine id of the first locally-hosted machine (index 0 below).
    first_machine: MachineId,
    stats: Vec<Arc<MachineStats>>,
    /// Per-source telemetry registries (per-destination traffic matrix).
    telemetry: Vec<Arc<Telemetry>>,
    /// Optional fault-injection schedule (chaos testing).
    chaos: Option<FaultInjector>,
}

impl Fabric {
    /// Builds a fabric over an arbitrary [`Transport`] backend.
    /// `telemetry[i]` receives the send-side accounting for the `i`-th
    /// machine [hosted](Transport::hosted) by this process.
    pub fn over(
        transport: Arc<dyn Transport>,
        telemetry: Vec<Arc<Telemetry>>,
        plan: FaultPlan,
    ) -> Self {
        let hosted = transport.hosted();
        assert_eq!(hosted.len(), telemetry.len());
        let first_machine = hosted.start as MachineId;
        let stats = telemetry.iter().map(|t| t.stats().clone()).collect();
        Fabric {
            transport,
            first_machine,
            stats,
            telemetry,
            chaos: plan.is_active().then(|| FaultInjector::new(plan)),
        }
    }

    /// Number of machines in the cluster (across all processes).
    pub fn machines(&self) -> usize {
        self.transport.machines()
    }

    /// The delivery backend.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// The machine the fault plan has crashed so far, if any.
    pub fn crashed_machine(&self) -> Option<MachineId> {
        self.chaos.as_ref().and_then(|c| c.crashed_machine())
    }

    /// Fault-injection totals, if a plan is active.
    pub fn fault_counters(&self) -> Option<FaultCounters> {
        self.chaos.as_ref().map(|c| c.counters())
    }

    /// Sends an envelope: account, inject faults, hand to the backend.
    ///
    /// `Err(JobError::MachineDown)` means the destination's queues are
    /// gone — its threads exited. Delivery of the envelope itself is still
    /// only as reliable as the fault plan (and the wire) allows; `Ok` is
    /// *not* an acknowledgement.
    pub fn send(&self, env: Envelope) -> Result<(), JobError> {
        let src = env.src as usize - self.first_machine as usize;
        let dst = env.dst as usize;
        debug_assert!(dst < self.machines(), "bad destination machine");

        let stats = &self.stats[src];
        stats.msgs_sent.fetch_add(1, Ordering::Relaxed);
        stats
            .bytes_sent
            .fetch_add(env.payload.len() as u64, Ordering::Relaxed);
        stats
            .header_bytes_sent
            .fetch_add(crate::message::HEADER_BYTES, Ordering::Relaxed);
        self.telemetry[src].record_dest_bytes(dst, env.wire_bytes());

        match &self.chaos {
            None => self.transport.send(env),
            Some(inj) => {
                let mut out = Vec::with_capacity(2);
                inj.process(env, &mut out);
                for e in out {
                    self.transport.send(e)?;
                }
                Ok(())
            }
        }
    }
}

/// Creates the per-machine queue set: returns the endpoints (senders, for
/// the fabric) and the matching receivers (for the machine's threads).
pub fn make_endpoints(
    machines: usize,
    workers: usize,
) -> (Vec<MachineEndpoints>, Vec<MachineReceivers>) {
    let mut eps = Vec::with_capacity(machines);
    let mut rxs = Vec::with_capacity(machines);
    for _ in 0..machines {
        let (ctx, crx) = unbounded();
        let mut wtx = Vec::with_capacity(workers);
        let mut wrx = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (t, r) = unbounded();
            wtx.push(t);
            wrx.push(r);
        }
        eps.push(MachineEndpoints {
            copier_tx: ctx,
            worker_tx: wtx,
        });
        rxs.push(MachineReceivers {
            copier_rx: crx,
            worker_rx: wrx,
        });
    }
    (eps, rxs)
}

/// Receiving ends corresponding to a [`MachineEndpoints`].
#[derive(Debug)]
pub struct MachineReceivers {
    /// Consumed by copier threads (shared work queue).
    pub copier_rx: Receiver<Envelope>,
    /// One response queue per worker.
    pub worker_rx: Vec<Receiver<Envelope>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MsgKind;
    use crate::transport::InMemoryTransport;

    fn test_telemetry(machines: usize) -> Vec<Arc<Telemetry>> {
        (0..machines)
            .map(|_| Telemetry::detached(machines, true))
            .collect()
    }

    /// An in-memory fabric over fresh endpoints, with `plan` injected.
    fn faulty_fabric(
        machines: usize,
        workers: usize,
        tele: Vec<Arc<Telemetry>>,
        plan: FaultPlan,
    ) -> (Fabric, Vec<MachineReceivers>) {
        let (eps, rxs) = make_endpoints(machines, workers);
        let transport = Arc::new(InMemoryTransport::new(machines));
        for (m, ep) in eps.into_iter().enumerate() {
            transport.register_endpoint(m as MachineId, ep).unwrap();
        }
        (Fabric::over(transport, tele, plan), rxs)
    }

    fn test_fabric(machines: usize, workers: usize) -> (Fabric, Vec<MachineReceivers>) {
        faulty_fabric(
            machines,
            workers,
            test_telemetry(machines),
            FaultPlan::none(),
        )
    }

    fn env(src: u16, dst: u16, kind: MsgKind, worker: u16, len: usize) -> Envelope {
        Envelope {
            src,
            dst,
            kind,
            worker,
            side_id: 0,
            seq: 0,
            payload: vec![0u8; len],
        }
    }

    #[test]
    fn routes_requests_to_copier() {
        let (f, rxs) = test_fabric(2, 2);
        f.send(env(0, 1, MsgKind::Write, 0, 16)).unwrap();
        let got = rxs[1].copier_rx.try_recv().unwrap();
        assert_eq!(got.kind, MsgKind::Write);
        assert!(rxs[1].worker_rx[0].try_recv().is_err());
    }

    #[test]
    fn routes_responses_to_worker() {
        let (f, rxs) = test_fabric(2, 2);
        f.send(env(1, 0, MsgKind::ReadResp, 1, 8)).unwrap();
        let got = rxs[0].worker_rx[1].try_recv().unwrap();
        assert_eq!(got.kind, MsgKind::ReadResp);
        assert!(rxs[0].copier_rx.try_recv().is_err());
    }

    #[test]
    fn self_send_allowed() {
        let (f, rxs) = test_fabric(1, 1);
        f.send(env(0, 0, MsgKind::BarrierArrive, 0, 0)).unwrap();
        assert!(rxs[0].copier_rx.try_recv().is_ok());
    }

    #[test]
    fn torn_down_machine_surfaces_as_machine_down() {
        let (f, mut rxs) = test_fabric(2, 1);
        // Simulate machine 1's threads exiting: its receivers are dropped.
        rxs.remove(1);
        let err = f.send(env(0, 1, MsgKind::Write, 0, 8)).unwrap_err();
        assert_eq!(err, JobError::MachineDown { machine: 1 });
    }

    #[test]
    fn fault_plan_drops_and_duplicates_deterministically() {
        let plan = FaultPlan::lossy(0xC0FFEE, 100, 100, 0);
        let run = || {
            let (f, rxs) = faulty_fabric(2, 1, test_telemetry(2), plan);
            for _ in 0..500 {
                f.send(env(0, 1, MsgKind::Write, 0, 8)).unwrap();
            }
            let delivered = rxs[1].copier_rx.len();
            (delivered, f.fault_counters().unwrap())
        };
        let (d1, c1) = run();
        let (d2, c2) = run();
        assert_eq!((d1, c1), (d2, c2), "schedule replays identically");
        assert!(c1.dropped > 0 && c1.duplicated > 0);
        assert_eq!(d1 as u64, 500 - c1.dropped + c1.duplicated);
    }

    #[test]
    fn crashed_machine_stops_receiving() {
        let plan = FaultPlan::crash(1, 10);
        let (f, rxs) = faulty_fabric(3, 1, test_telemetry(3), plan);
        for _ in 0..50 {
            f.send(env(0, 1, MsgKind::Write, 0, 8)).unwrap();
        }
        assert_eq!(f.crashed_machine(), Some(1));
        assert_eq!(rxs[1].copier_rx.len(), 10, "only pre-crash sends landed");
        // Uninvolved machines still reachable.
        f.send(env(0, 2, MsgKind::Write, 0, 8)).unwrap();
        assert_eq!(rxs[2].copier_rx.len(), 1);
    }

    #[test]
    fn accounting_charged_to_sender() {
        let tele = test_telemetry(2);
        let stats: Vec<Arc<MachineStats>> = tele.iter().map(|t| t.stats().clone()).collect();
        let (f, _rxs) = faulty_fabric(2, 1, tele.clone(), FaultPlan::none());
        f.send(env(0, 1, MsgKind::Write, 0, 100)).unwrap();
        f.send(env(0, 1, MsgKind::Write, 0, 50)).unwrap();
        let s0 = stats[0].snapshot();
        assert_eq!(s0.msgs_sent, 2);
        assert_eq!(s0.bytes_sent, 150);
        assert_eq!(s0.header_bytes_sent, 32);
        assert_eq!(stats[1].snapshot().msgs_sent, 0);
        // Per-destination traffic lands on the source's telemetry.
        assert_eq!(tele[0].dest_bytes_snapshot(), vec![0, 150 + 32]);
    }
}
