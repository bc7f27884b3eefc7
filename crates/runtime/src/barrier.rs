//! Barriers between parallel phases.
//!
//! Iterative graph algorithms execute one barrier per step, so barrier
//! latency directly bounds the per-iteration floor (§5.3.1, Figure 5b).
//! Two implementations are provided:
//!
//! * [`CentralBarrier`] — the shared-memory sense-reversing *process*
//!   barrier every phase ends with, in every mode: once a phase is
//!   complete (shared counter or termination wave, see `crate::phase`)
//!   the workers this process hosts cross it and the driver moves on. It
//!   synchronizes threads, not machines; cluster-wide, completion
//!   detection already did that.
//! * [`DistBarrier`] — a message-based coordinator barrier: the last
//!   worker of each machine sends a `BarrierArrive` to machine 0; machine
//!   0's copier broadcasts `BarrierRelease` once all machines arrived. No
//!   phase crosses it: it is the Figure 5b measurement of what such a
//!   barrier costs, run by `Cluster::run_dist_barrier` only.

use crate::health::ClusterHealth;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Shared-memory sense-reversing barrier for `n` participants.
#[derive(Debug)]
pub struct CentralBarrier {
    n: usize,
    state: Mutex<BarrierState>,
    cvar: Condvar,
}

#[derive(Debug)]
struct BarrierState {
    count: usize,
    generation: u64,
}

impl CentralBarrier {
    /// A barrier for `n` participants.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        CentralBarrier {
            n,
            state: Mutex::new(BarrierState {
                count: 0,
                generation: 0,
            }),
            cvar: Condvar::new(),
        }
    }

    /// Blocks until all `n` participants have arrived. Returns `true` for
    /// exactly one participant per generation (the "leader").
    pub fn wait(&self) -> bool {
        let mut s = self.state.lock();
        let gen = s.generation;
        s.count += 1;
        if s.count == self.n {
            s.count = 0;
            s.generation += 1;
            self.cvar.notify_all();
            true
        } else {
            while s.generation == gen {
                self.cvar.wait(&mut s);
            }
            false
        }
    }

    /// Number of participants.
    pub fn participants(&self) -> usize {
        self.n
    }
}

/// The per-machine shared state of the message-based barrier.
///
/// Workers interact through [`DistBarrier::arrive_local`]; the machine's
/// copier thread drives the protocol by calling [`DistBarrier::on_arrive`]
/// (coordinator only) and [`DistBarrier::on_release`] when the respective
/// control messages come in. The caller supplies the actual message
/// transmission, keeping this type transport-agnostic.
#[derive(Debug)]
pub struct DistBarrier {
    /// Workers on this machine.
    local_workers: usize,
    /// Machines in the cluster (coordinator state).
    machines: usize,
    /// Local arrivals in the current epoch.
    local_arrived: AtomicUsize,
    /// Machine arrivals at the coordinator in the current epoch.
    coord_arrived: AtomicUsize,
    /// Released epoch counter; workers wait for this to pass their epoch.
    released_epoch: AtomicU64,
    mutex: Mutex<()>,
    cvar: Condvar,
}

impl DistBarrier {
    /// State for one machine of a `machines`-wide cluster with
    /// `local_workers` workers on this machine.
    pub fn new(local_workers: usize, machines: usize) -> Self {
        DistBarrier {
            local_workers,
            machines,
            local_arrived: AtomicUsize::new(0),
            coord_arrived: AtomicUsize::new(0),
            released_epoch: AtomicU64::new(0),
            mutex: Mutex::new(()),
            cvar: Condvar::new(),
        }
    }

    /// Called by each worker when it reaches the barrier. Returns `true`
    /// for the last local worker, which must then send `BarrierArrive` to
    /// the coordinator.
    pub fn arrive_local(&self) -> bool {
        let prev = self.local_arrived.fetch_add(1, Ordering::AcqRel);
        if prev + 1 == self.local_workers {
            self.local_arrived.store(0, Ordering::Release);
            true
        } else {
            false
        }
    }

    /// Coordinator side: records one machine's arrival. Returns `true`
    /// when every machine has arrived — the caller must then broadcast
    /// `BarrierRelease` (including to itself).
    pub fn on_arrive(&self) -> bool {
        let prev = self.coord_arrived.fetch_add(1, Ordering::AcqRel);
        if prev + 1 == self.machines {
            self.coord_arrived.store(0, Ordering::Release);
            true
        } else {
            false
        }
    }

    /// Member side: a release broadcast arrived; wakes local waiters.
    pub fn on_release(&self) {
        let _g = self.mutex.lock();
        self.released_epoch.fetch_add(1, Ordering::AcqRel);
        self.cvar.notify_all();
    }

    /// Blocks the calling worker until epoch `epoch` has been released.
    /// Workers track their own epoch (starting at 0, incrementing per
    /// barrier crossing).
    pub fn wait_release(&self, epoch: u64) {
        let mut g = self.mutex.lock();
        while self.released_epoch.load(Ordering::Acquire) <= epoch {
            self.cvar.wait(&mut g);
        }
    }

    /// Like [`wait_release`](DistBarrier::wait_release), but gives up once
    /// the cluster aborts — a crashed machine's `BarrierArrive` will never
    /// come, so an unconditional wait would hang forever. Returns `true`
    /// if the epoch was actually released, `false` on abort.
    pub fn wait_release_or_abort(&self, epoch: u64, health: &ClusterHealth) -> bool {
        let mut g = self.mutex.lock();
        loop {
            if self.released_epoch.load(Ordering::Acquire) > epoch {
                return true;
            }
            if health.is_aborted() {
                return false;
            }
            self.cvar.wait_for(&mut g, Duration::from_millis(5));
        }
    }

    /// Current released epoch (for diagnostics/tests).
    pub fn released(&self) -> u64 {
        self.released_epoch.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn central_barrier_synchronizes() {
        let b = Arc::new(CentralBarrier::new(4));
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let b = b.clone();
                let c = counter.clone();
                std::thread::spawn(move || {
                    for round in 0..10 {
                        c.fetch_add(1, Ordering::SeqCst);
                        b.wait();
                        // After the barrier, all 4 increments of this round
                        // must be visible.
                        assert!(c.load(Ordering::SeqCst) >= (round + 1) * 4);
                        b.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 40);
    }

    #[test]
    fn central_barrier_single_leader() {
        let b = Arc::new(CentralBarrier::new(3));
        let leaders = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let b = b.clone();
                let l = leaders.clone();
                std::thread::spawn(move || {
                    if b.wait() {
                        l.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn central_barrier_one_participant() {
        let b = CentralBarrier::new(1);
        assert!(b.wait());
        assert!(b.wait());
    }

    #[test]
    fn dist_barrier_local_election() {
        let d = DistBarrier::new(3, 2);
        assert!(!d.arrive_local());
        assert!(!d.arrive_local());
        assert!(d.arrive_local());
        // Counter reset for the next epoch.
        assert!(!d.arrive_local());
    }

    #[test]
    fn dist_barrier_coordinator_counts() {
        let d = DistBarrier::new(1, 3);
        assert!(!d.on_arrive());
        assert!(!d.on_arrive());
        assert!(d.on_arrive());
        assert!(!d.on_arrive());
    }

    #[test]
    fn dist_barrier_release_wakes_waiter() {
        let d = Arc::new(DistBarrier::new(1, 1));
        let d2 = d.clone();
        let h = std::thread::spawn(move || {
            d2.wait_release(0);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        d.on_release();
        h.join().unwrap();
        assert_eq!(d.released(), 1);
    }

    #[test]
    fn dist_barrier_abort_unblocks_waiter() {
        use crate::health::{ClusterHealth, JobError};
        let d = Arc::new(DistBarrier::new(1, 2));
        let health = Arc::new(ClusterHealth::new(2));
        let d2 = d.clone();
        let h2 = health.clone();
        let t = std::thread::spawn(move || d2.wait_release_or_abort(0, &h2));
        std::thread::sleep(std::time::Duration::from_millis(20));
        health.abort(JobError::MachineDown { machine: 1 });
        assert!(!t.join().unwrap(), "abort path reports no release");
        // A normally-released wait still reports success.
        d.on_release();
        assert!(d.wait_release_or_abort(0, &health));
    }
}
