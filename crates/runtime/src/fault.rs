//! Deterministic fault injection for the simulated fabric.
//!
//! A [`FaultInjector`] sits inside `Fabric::send` and perturbs delivery
//! according to a [`FaultPlan`]: dropping, duplicating or reordering
//! envelopes, or crashing (permanently partitioning) a machine. Every
//! decision is a pure function of the plan's seed and a send index. The
//! fabric's global send counter is the injector's *virtual clock*: it times
//! the crash and the limbo releases, and indexes the dice of unreliable
//! kinds. Reliable kinds roll on their own index, so the `k`-th reliable
//! envelope meets the same fate on every run whatever number of acks,
//! heartbeats and wave frames the threads interleave with it.
//!
//! Reordered envelopes sit in a limbo buffer keyed by a release deadline
//! on the same counter; any later send (data, ack, or
//! heartbeat — the poller tick guarantees a steady trickle) flushes the
//! limbo entries that have come due, so nothing is held forever.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::config::FaultPlan;
use crate::ids::MachineId;
use crate::message::Envelope;

/// Injection totals, for experiments and assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Envelopes silently dropped by the dice.
    pub dropped: u64,
    /// Dropped envelopes of reliable kinds — the ones the protocol is
    /// obliged to repair (so `dropped_reliable > 0` implies retransmits).
    pub dropped_reliable: u64,
    /// Envelopes delivered twice.
    pub duplicated: u64,
    /// Duplicated envelopes of reliable kinds — the ones the dedup
    /// windows must filter (so `duplicated_reliable > 0` implies
    /// duplicate suppressions).
    pub duplicated_reliable: u64,
    /// Envelopes held in limbo (reordered).
    pub held: u64,
    /// Envelopes swallowed because an endpoint was crashed.
    pub crash_swallowed: u64,
}

/// Seed-driven fault schedule. See the module docs.
pub struct FaultInjector {
    plan: FaultPlan,
    /// Global send counter — the virtual clock.
    counter: AtomicU64,
    /// Sends of reliable kinds so far: their dice index.
    reliable_sends: AtomicU64,
    /// Envelopes held back, with the counter value that releases them.
    limbo: Mutex<Vec<(u64, Envelope)>>,
    crashed: AtomicBool,
    dropped: AtomicU64,
    dropped_reliable: AtomicU64,
    duplicated: AtomicU64,
    duplicated_reliable: AtomicU64,
    held: AtomicU64,
    crash_swallowed: AtomicU64,
}

/// Most later sends a reordered envelope is held for.
const REORDER_DEPTH: u64 = 4;

/// splitmix64: independent 64-bit hash per (seed, event) pair.
///
/// Shared with the storage fault injector in [`crate::checkpoint`] so both
/// layers draw from the same deterministic dice family.
#[inline]
pub(crate) fn mix(seed: u64, n: u64) -> u64 {
    let mut z = seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A per-mille probability (0‥=1000) — the one validated unit every fault
/// plan's dice share. `FaultPlan`, `StorageFaultPlan`, `WireFaultPlan`,
/// and the brownout thresholds all express rates as raw `u16` fields (so
/// plans stay plain-old-data that tests can poke); this type centralizes
/// the two things they previously each re-implemented:
///
/// * **validation** — [`PerMille::checked`] rejects rates above 1000 with
///   the uniform message `Config::validate` surfaces;
/// * **the dice** — [`PerMille::hit`] is the canonical
///   `dice % 1000 < rate` check (a zero rate never fires), applied to a
///   10-bit slice of a seeded hash by every injector.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PerMille(u16);

impl PerMille {
    /// Validates a raw rate: values above 1000 are rejected with the
    /// field's name, matching the `Config::validate` error contract.
    pub fn checked(name: &str, raw: u16) -> Result<PerMille, String> {
        if raw > 1000 {
            Err(format!("{name} is a per-mille rate and must be <= 1000"))
        } else {
            Ok(PerMille(raw))
        }
    }

    /// Wraps a rate already vetted by `Config::validate` (plans keep raw
    /// `u16` fields for struct-literal construction in tests).
    pub fn vetted(raw: u16) -> PerMille {
        PerMille(raw)
    }

    /// The raw rate.
    pub fn get(self) -> u16 {
        self.0
    }

    /// Whether `dice` (a slice of a seeded hash) falls under the rate:
    /// `dice % 1000 < rate`. A zero rate never hits.
    #[inline]
    pub fn hit(self, dice: u64) -> bool {
        self.0 > 0 && (dice % 1000) < u64::from(self.0)
    }
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            counter: AtomicU64::new(0),
            reliable_sends: AtomicU64::new(0),
            limbo: Mutex::new(Vec::new()),
            crashed: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
            dropped_reliable: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            duplicated_reliable: AtomicU64::new(0),
            held: AtomicU64::new(0),
            crash_swallowed: AtomicU64::new(0),
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The machine the plan has crashed so far, if any.
    pub fn crashed_machine(&self) -> Option<MachineId> {
        if self.crashed.load(Ordering::Acquire) {
            self.plan.crash.map(|c| c.machine)
        } else {
            None
        }
    }

    pub fn counters(&self) -> FaultCounters {
        FaultCounters {
            dropped: self.dropped.load(Ordering::Relaxed),
            dropped_reliable: self.dropped_reliable.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            duplicated_reliable: self.duplicated_reliable.load(Ordering::Relaxed),
            held: self.held.load(Ordering::Relaxed),
            crash_swallowed: self.crash_swallowed.load(Ordering::Relaxed),
        }
    }

    #[inline]
    fn is_dead(&self, m: MachineId) -> bool {
        self.crashed.load(Ordering::Acquire) && self.plan.crash.map(|c| c.machine) == Some(m)
    }

    /// Runs one envelope through the fault schedule. Deliverable envelopes
    /// (possibly none, possibly several: duplicates and released limbo
    /// traffic) are appended to `out`.
    pub fn process(&self, env: Envelope, out: &mut Vec<Envelope>) {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);

        if let Some(c) = self.plan.crash {
            if n >= c.after_sends {
                self.crashed.store(true, Ordering::Release);
            }
        }

        // Release limbo traffic that has come due on the virtual clock.
        {
            let mut limbo = self.limbo.lock().unwrap_or_else(|e| e.into_inner());
            let mut i = 0;
            while i < limbo.len() {
                if limbo[i].0 <= n {
                    let (_, e) = limbo.swap_remove(i);
                    self.deliver(e, out);
                } else {
                    i += 1;
                }
            }
        }

        // Each die reads its own slice of `h` (bits 0, 10, 20; the hold
        // length bit 40). The positions are what a seed means: moving one
        // changes the schedule of every seed the harnesses have searched.
        let reliable = env.kind.is_reliable();
        let die = if reliable {
            self.reliable_sends.fetch_add(1, Ordering::Relaxed)
        } else {
            n
        };
        let h = mix(self.plan.seed, die);
        if PerMille::vetted(self.plan.drop_per_mille).hit(h) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            if reliable {
                self.dropped_reliable.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        if PerMille::vetted(self.plan.dup_per_mille).hit(h >> 10) {
            self.duplicated.fetch_add(1, Ordering::Relaxed);
            if reliable {
                self.duplicated_reliable.fetch_add(1, Ordering::Relaxed);
            }
            self.deliver(env.clone(), out);
            self.deliver(env, out);
            return;
        }
        if PerMille::vetted(self.plan.reorder_per_mille).hit(h >> 20) {
            let hold = 1 + (h >> 40) % REORDER_DEPTH;
            self.held.fetch_add(1, Ordering::Relaxed);
            self.limbo
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((n + hold, env));
            return;
        }
        self.deliver(env, out);
    }

    /// Final delivery gate: a crashed machine neither sends nor receives.
    fn deliver(&self, env: Envelope, out: &mut Vec<Envelope>) {
        if self.is_dead(env.src) || self.is_dead(env.dst) {
            self.crash_swallowed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        out.push(env);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MsgKind;

    #[test]
    fn permille_checks_range_and_rolls_dice() {
        assert!(PerMille::checked("x.rate", 0).is_ok());
        assert!(PerMille::checked("x.rate", 1000).is_ok());
        let err = PerMille::checked("x.rate", 1001).unwrap_err();
        assert!(err.contains("x.rate") && err.contains("per-mille"), "{err}");

        // A zero rate never hits; a full rate always hits; the dice are
        // exactly `dice % 1000 < rate`.
        assert!(!PerMille::vetted(0).hit(0));
        assert!(PerMille::vetted(1000).hit(999_999));
        assert!(PerMille::vetted(500).hit(499));
        assert!(!PerMille::vetted(500).hit(500));
        assert!(PerMille::vetted(500).hit(1499)); // modulo wraps
    }

    fn env(src: MachineId, dst: MachineId) -> Envelope {
        env_of(MsgKind::Write, src, dst)
    }

    fn env_of(kind: MsgKind, src: MachineId, dst: MachineId) -> Envelope {
        Envelope {
            src,
            dst,
            kind,
            worker: 0,
            side_id: 0,
            seq: 0,
            payload: Vec::new(),
        }
    }

    fn run_plan(plan: FaultPlan, sends: u64) -> (Vec<usize>, FaultCounters) {
        let inj = FaultInjector::new(plan);
        let mut deliveries = Vec::new();
        let mut out = Vec::new();
        for _ in 0..sends {
            out.clear();
            inj.process(env(0, 1), &mut out);
            deliveries.push(out.len());
        }
        (deliveries, inj.counters())
    }

    #[test]
    fn inert_plan_delivers_everything_once() {
        let (d, c) = run_plan(FaultPlan::none(), 500);
        assert!(d.iter().all(|&n| n == 1));
        assert_eq!(c, FaultCounters::default());
    }

    #[test]
    fn schedule_is_deterministic() {
        let plan = FaultPlan::lossy(42, 50, 50, 50);
        let (a, ca) = run_plan(plan, 1000);
        let (b, cb) = run_plan(plan, 1000);
        assert_eq!(a, b);
        assert_eq!(ca, cb);
        assert!(ca.dropped > 0 && ca.duplicated > 0 && ca.held > 0);
    }

    /// The fate of the `k`-th reliable envelope depends on the seed alone:
    /// unreliable traffic interleaved with it (still faulted, on the global
    /// clock) moves none of it.
    #[test]
    fn reliable_dice_ignore_unreliable_traffic() {
        let fates = |interleave: u64| {
            let inj = FaultInjector::new(FaultPlan::lossy(0xDEAD_BEEF, 150, 100, 0));
            let mut out = Vec::new();
            let fates: Vec<usize> = (0..300u64)
                .map(|i| {
                    for _ in 0..(i * interleave) % 7 {
                        inj.process(env_of(MsgKind::Heartbeat, 0, 1), &mut out);
                    }
                    out.clear();
                    inj.process(env(0, 1), &mut out);
                    out.len()
                })
                .collect();
            (fates, inj.counters())
        };
        let (alone, c) = fates(0);
        for interleave in [1, 3, 5] {
            let (mixed, m) = fates(interleave);
            assert_eq!(mixed, alone, "interleave {interleave}");
            assert_eq!(
                (m.dropped_reliable, m.duplicated_reliable),
                (c.dropped_reliable, c.duplicated_reliable)
            );
            assert!(
                m.dropped > m.dropped_reliable,
                "unreliable kinds are faulted too"
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (a, _) = run_plan(FaultPlan::lossy(1, 100, 0, 0), 1000);
        let (b, _) = run_plan(FaultPlan::lossy(2, 100, 0, 0), 1000);
        assert_ne!(a, b);
    }

    #[test]
    fn reordered_traffic_is_released_not_lost() {
        let (d, c) = run_plan(FaultPlan::lossy(7, 0, 0, 200), 2000);
        let delivered: usize = d.iter().sum();
        assert!(c.held > 0);
        // Only envelopes held within the last `REORDER_DEPTH` sends can
        // still sit in limbo; everything else must have been released.
        assert!(delivered >= 2000 - REORDER_DEPTH as usize);
        assert_eq!(c.dropped, 0);
    }

    #[test]
    fn crash_partitions_both_directions() {
        let inj = FaultInjector::new(FaultPlan::crash(1, 3));
        let mut out = Vec::new();
        for i in 0..10u64 {
            out.clear();
            inj.process(env(0, 1), &mut out);
            if i < 3 {
                assert_eq!(out.len(), 1, "send {i} precedes the crash");
            } else {
                assert!(out.is_empty(), "send {i} follows the crash");
            }
        }
        // Traffic *from* the crashed machine is swallowed too.
        out.clear();
        inj.process(env(1, 0), &mut out);
        assert!(out.is_empty());
        // Unrelated pairs still communicate.
        out.clear();
        inj.process(env(0, 2), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(inj.crashed_machine(), Some(1));
        assert!(inj.counters().crash_swallowed >= 8);
    }
}
