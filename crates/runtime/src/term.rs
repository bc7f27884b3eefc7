//! Distributed termination detection: the completion protocol of
//! `strict_distributed` mode.
//!
//! By default the in-process cluster detects phase completion with one
//! shared atomic: every buffered entry is added to `pending` before its
//! buffer is sealed or its work unit retired (workers publish in batches,
//! see `WorkerComm::publish_pending`) and subtracted at consumption time,
//! and §3.2's rule — "a job completes when the task list is empty and
//! there are no unfinished remote requests" — reduces to
//! `outstanding == 0 && pending == 0`. Real processes cannot share that
//! counter, so under `strict_distributed` (which the TCP backend forces)
//! every machine runs a four-counter wave protocol instead (Mattern's
//! method), driven by events rather than by a timer. In-process machines
//! run it the same way, each with its own counters, over the in-memory
//! fabric. The release is the whole synchronization: it proves every
//! entry of the phase consumed everywhere, so no barrier round follows it.
//!
//! * every machine keeps **monotonic** counters `inc` (entries produced)
//!   and `dec` (entries consumed), mirroring exactly the sites that
//!   update `pending`, batches included;
//! * a machine **reports** `{token, wave, inc, dec, done}` to the
//!   coordinator (machine 0) the moment its local task list for phase
//!   `token` is empty, and again whenever `inc + dec` has moved since its
//!   last report — idle workers and copiers all call [`TermState::report`],
//!   and one `fetch_max` on a "last reported" cell picks the single sender
//!   per state, so W spinning workers cost one frame, not W;
//! * the coordinator records a *candidate* when every machine's newest
//!   report names the current token with `done` and `Σinc == Σdec`, and at
//!   once **probes** every machine with a fresh, never-reused probe number.
//!   A machine answers a probe with a new sample whose `wave` echoes the
//!   highest probe number it has received;
//! * the coordinator **releases** the token when every machine's newest
//!   report echoes the candidate's probe number and the sums still equal
//!   the candidate's. `wave` is read *before* the counters, so an echo
//!   proves the counters were sampled after the probe was received — hence
//!   after the candidate was recorded, hence after every sample of the
//!   first wave. Counters are monotonic, so equal sums mean every machine's
//!   counters were constant from its first-wave sample to its second: at
//!   the instant the candidate was recorded the whole cluster was balanced
//!   and idle. Reports still in flight from before the probe carry an older
//!   `wave` and cannot confirm anything;
//! * `TermRelease` broadcasts the verdict.
//!
//! All three frame kinds ride outside the reliability protocol. The
//! poller's housekeeping tick is the repair path: it forces a report of an
//! unreleased, locally finished phase every `reliability.tick_ms`, which
//! replaces a lost report, doubles as the answer to a probe whose answer
//! was lost, makes the coordinator re-probe a machine whose probe was lost
//! (its report still carries the old `wave`), and makes it re-release a
//! token whose release was lost (the report names a released token).
//!
//! Correctness leans on an ordering the in-process counter already
//! obeys: `dec` is bumped *after* the consumed entry's effects (atomic
//! property application, response continuations) are complete, so a
//! balanced sum can never hide work spawned by a half-consumed message.

use crate::message::TermStat;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// What the coordinator wants done after ingesting one report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TermAction {
    /// Nothing to send.
    None,
    /// A candidate was just recorded: send `TermProbe(token, probe)` to
    /// every machine (including the coordinator itself).
    Probe {
        /// The candidate's phase token.
        token: u64,
        /// The candidate's probe number.
        probe: u64,
    },
    /// The reporter has not answered the standing candidate's probe — the
    /// probe was lost, or this report was sampled before it arrived: send
    /// `TermProbe(token, probe)` to just that machine.
    Reprobe {
        /// The candidate's phase token.
        token: u64,
        /// The candidate's probe number.
        probe: u64,
    },
    /// Quiescence confirmed: broadcast `TermRelease(token)` to every
    /// machine (including the coordinator itself).
    Release(u64),
    /// The reporter is stuck on an already-released token (its release was
    /// lost): re-send `TermRelease(token)` to just that machine.
    ReRelease(u64),
}

/// A released-token candidate awaiting its confirming wave.
#[derive(Debug)]
struct Candidate {
    token: u64,
    sum_inc: u64,
    /// The probe number broadcast for this candidate; the confirming wave
    /// is every machine echoing at least this number.
    probe: u64,
}

/// Coordinator-side state (lives on machine 0; inert elsewhere).
#[derive(Debug, Default)]
struct TermCoord {
    latest: Vec<Option<TermStat>>,
    candidate: Option<Candidate>,
    last_released: u64,
    /// Highest probe number issued so far; never reused, never reset.
    probe_seq: u64,
}

/// Orders two reports of one machine by sampling time. Reports can
/// overtake each other between the sample and the outbox, and the fault
/// injector reorders frames; everything a report carries only ever grows,
/// so the older one is the smaller one. Activity ranks above `wave`: a
/// report that saw more entries move is newer even if it has not seen the
/// latest probe yet (the coordinator then probes that machine again).
fn age_key(s: &TermStat) -> (u64, bool, u64, u64) {
    (s.token, s.done, s.inc.wrapping_add(s.dec), s.wave)
}

/// Per-machine distributed-termination state. Created for every machine;
/// inert (`!enabled`) unless `strict_distributed`, since otherwise the
/// shared `pending` counter is the completion oracle.
#[derive(Debug)]
pub struct TermState {
    enabled: bool,
    machines: usize,
    /// Monotonic count of payload entries produced by this machine.
    inc: AtomicU64,
    /// Monotonic count of payload entries consumed by this machine.
    dec: AtomicU64,
    /// Phase token (cluster phase epoch) currently being executed.
    current_token: AtomicU64,
    /// Highest token whose local task list was observed empty.
    done_token: AtomicU64,
    /// Caller's clock reading at that first observation (for the
    /// `term_release_wait_ns` histogram).
    done_at_ns: AtomicU64,
    /// Highest token released by the coordinator.
    released_token: AtomicU64,
    /// Highest probe number received from the coordinator.
    probe_seen: AtomicU64,
    /// The "last reported" cell: `inc + dec + 1` of the newest report of
    /// the current phase, 0 before the first. Claimed with `fetch_max`.
    reported: AtomicU64,
    coord: Mutex<TermCoord>,
}

impl TermState {
    /// Creates termination state for a cluster of `machines`. When
    /// `enabled` is false every operation is a cheap no-op.
    pub fn new(machines: usize, enabled: bool) -> Self {
        TermState {
            enabled,
            machines,
            inc: AtomicU64::new(0),
            dec: AtomicU64::new(0),
            current_token: AtomicU64::new(0),
            done_token: AtomicU64::new(0),
            done_at_ns: AtomicU64::new(0),
            released_token: AtomicU64::new(0),
            probe_seen: AtomicU64::new(0),
            reported: AtomicU64::new(0),
            coord: Mutex::new(TermCoord {
                latest: vec![None; machines],
                ..TermCoord::default()
            }),
        }
    }

    /// Whether the wave protocol is active (`strict_distributed`).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records `n` produced entries (mirror of `pending.fetch_add`).
    #[inline]
    pub fn add_inc(&self, n: u64) {
        if self.enabled {
            self.inc.fetch_add(n, Ordering::SeqCst);
        }
    }

    /// Records `n` consumed entries (mirror of `pending.fetch_sub`). Must
    /// be called only after the entries' effects are fully applied.
    #[inline]
    pub fn add_dec(&self, n: u64) {
        if self.enabled {
            self.dec.fetch_add(n, Ordering::SeqCst);
        }
    }

    /// Enters phase `token` (tokens are the cluster phase epochs, strictly
    /// increasing). The previous phase is released by now, so nobody can
    /// still claim the "last reported" cell for it; clearing the cell
    /// before publishing the token keeps it that way.
    pub fn begin_phase(&self, token: u64) {
        self.reported.store(0, Ordering::SeqCst);
        self.current_token.store(token, Ordering::SeqCst);
    }

    /// The phase token currently executing.
    #[inline]
    pub fn current(&self) -> u64 {
        self.current_token.load(Ordering::SeqCst)
    }

    /// Marks the local task list for the current phase empty. Idempotent;
    /// called lazily from the completion check so machines with zero local
    /// work report `done` too. `now_ns` is read only by the first caller of
    /// a phase and handed back by [`TermState::release`].
    #[inline]
    pub fn mark_local_done(&self, now_ns: impl FnOnce() -> u64) {
        let token = self.current();
        if self.done_token.load(Ordering::SeqCst) < token {
            // Racing first callers store near-identical readings; whichever
            // lands, it lands before `done_token` says this phase has one.
            self.done_at_ns.store(now_ns(), Ordering::SeqCst);
            self.done_token.fetch_max(token, Ordering::SeqCst);
        }
    }

    /// Whether `token` has been released by the coordinator.
    #[inline]
    pub fn released(&self, token: u64) -> bool {
        self.released_token.load(Ordering::SeqCst) >= token
    }

    /// Applies a received `TermRelease`. The call that first releases a
    /// token this machine had finished returns the clock reading
    /// [`TermState::mark_local_done`] stored for it.
    pub fn release(&self, token: u64) -> Option<u64> {
        let prev = self.released_token.fetch_max(token, Ordering::SeqCst);
        (prev < token && self.done_token.load(Ordering::SeqCst) == token)
            .then(|| self.done_at_ns.load(Ordering::SeqCst))
    }

    /// Samples this machine's counters. Returns `None` when no phase is
    /// armed yet or the current phase is already released (nothing to
    /// report).
    pub fn sample(&self) -> Option<TermStat> {
        if !self.enabled {
            return None;
        }
        // `wave` before the counters: an echoed probe number must prove
        // the counters were read after that probe arrived.
        let wave = self.probe_seen.load(Ordering::SeqCst);
        let token = self.current();
        if token == 0 || self.released(token) {
            return None;
        }
        Some(TermStat {
            token,
            wave,
            inc: self.inc.load(Ordering::SeqCst),
            dec: self.dec.load(Ordering::SeqCst),
            done: self.done_token.load(Ordering::SeqCst) >= token,
        })
    }

    /// The one report path, shared by idle workers, copiers and the
    /// poller tick: the stat to send to the coordinator, if any. Nothing is
    /// reported before the local task list is empty. Unforced, a stat comes
    /// back only to the one caller that first sees `inc + dec` past the
    /// last reported value; `force` (the tick, a probe answer) reports the
    /// current state regardless.
    pub fn report(&self, force: bool) -> Option<TermStat> {
        let stat = self.sample().filter(|s| s.done)?;
        // +1: a report of untouched counters still differs from "nothing
        // reported in this phase yet".
        let key = stat.inc.wrapping_add(stat.dec).wrapping_add(1);
        // Spinning workers mostly find the state already reported: look
        // before claiming, so their polls share the cache line read-only.
        let claimed = self.reported.load(Ordering::SeqCst) < key
            && self.reported.fetch_max(key, Ordering::SeqCst) < key;
        (claimed || force).then_some(stat)
    }

    /// Applies a received `TermProbe` and returns the answer to send. A
    /// probe for another token is a stale duplicate and is ignored.
    pub fn on_probe(&self, token: u64, probe: u64) -> Option<TermStat> {
        if token != self.current() {
            return None;
        }
        self.probe_seen.fetch_max(probe, Ordering::SeqCst);
        self.report(true)
    }

    /// Coordinator ingestion of one machine's report (machine 0 only).
    pub fn coord_on_stat(&self, src: usize, stat: TermStat) -> TermAction {
        let mut c = self.coord.lock();
        if stat.token <= c.last_released {
            // The reporter missed a release broadcast; repeat the highest.
            return TermAction::ReRelease(c.last_released);
        }
        if c.latest[src].is_some_and(|old| age_key(&stat) < age_key(&old)) {
            return TermAction::None;
        }
        c.latest[src] = Some(stat);

        let t = stat.token;
        let all_ready = c
            .latest
            .iter()
            .all(|s| s.map(|s| s.token == t && s.done).unwrap_or(false));
        if !all_ready {
            return TermAction::None;
        }
        let sum_inc: u64 = c.latest.iter().map(|s| s.unwrap().inc).sum();
        let sum_dec: u64 = c.latest.iter().map(|s| s.unwrap().dec).sum();
        if sum_inc != sum_dec {
            return TermAction::None;
        }
        match &c.candidate {
            Some(cand) if cand.token == t && cand.sum_inc == sum_inc => {
                // Because `inc` is monotonic, an unchanged sum across two
                // waves proves zero production in between — but only if
                // every machine sampled again after the candidate was
                // recorded, which is what an echo of its probe number says.
                let probe = cand.probe;
                if c.latest.iter().all(|s| s.unwrap().wave >= probe) {
                    c.last_released = t;
                    c.candidate = None;
                    TermAction::Release(t)
                } else if stat.wave < probe {
                    TermAction::Reprobe { token: t, probe }
                } else {
                    TermAction::None
                }
            }
            _ => {
                // Above every number issued so far, so no machine can be
                // echoing it yet (and above any echo already on record).
                let seen = c.latest.iter().map(|s| s.unwrap().wave).max();
                let probe = c.probe_seq.max(seen.unwrap_or(0)) + 1;
                c.probe_seq = probe;
                c.candidate = Some(Candidate {
                    token: t,
                    sum_inc,
                    probe,
                });
                TermAction::Probe { token: t, probe }
            }
        }
    }

    /// Number of machines the coordinator expects reports from.
    pub fn machines(&self) -> usize {
        self.machines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Arc, Barrier};

    fn stat(token: u64, wave: u64, inc: u64, dec: u64, done: bool) -> TermStat {
        TermStat {
            token,
            wave,
            inc,
            dec,
            done,
        }
    }

    /// `n` machines in phase `token`, local task lists empty. Machine 0's
    /// state doubles as the coordinator; tests carry the frames by hand.
    fn idle_cluster(n: usize, token: u64) -> Vec<TermState> {
        let ms: Vec<TermState> = (0..n).map(|_| TermState::new(n, true)).collect();
        for m in &ms {
            m.begin_phase(token);
            m.mark_local_done(|| 0);
        }
        ms
    }

    /// Delivers every machine's event-driven report; returns the
    /// coordinator's reaction to the last one.
    fn first_wave(ms: &[TermState]) -> TermAction {
        let mut action = TermAction::None;
        for (i, m) in ms.iter().enumerate() {
            let s = m
                .report(false)
                .expect("an idle machine reports its new state");
            action = ms[0].coord_on_stat(i, s);
        }
        action
    }

    fn probe_of(action: TermAction) -> (u64, u64) {
        match action {
            TermAction::Probe { token, probe } | TermAction::Reprobe { token, probe } => {
                (token, probe)
            }
            other => panic!("expected a probe, got {other:?}"),
        }
    }

    #[test]
    fn release_needs_two_fresh_balanced_waves() {
        let t = TermState::new(2, true);
        // Wave 1: balanced and done on both machines → candidate only.
        assert_eq!(
            t.coord_on_stat(0, stat(1, 1, 10, 4, true)),
            TermAction::None
        );
        assert_eq!(
            t.coord_on_stat(1, stat(1, 1, 2, 8, true)),
            TermAction::Probe { token: 1, probe: 2 }
        );
        // A repeat from machine 0 alone is not a full fresh wave.
        assert_eq!(
            t.coord_on_stat(0, stat(1, 2, 10, 4, true)),
            TermAction::None
        );
        // Machine 1's fresh report completes the confirming wave.
        assert_eq!(
            t.coord_on_stat(1, stat(1, 2, 2, 8, true)),
            TermAction::Release(1)
        );
    }

    #[test]
    fn activity_between_waves_resets_candidate() {
        let t = TermState::new(2, true);
        t.coord_on_stat(0, stat(1, 1, 10, 10, true));
        t.coord_on_stat(1, stat(1, 1, 0, 0, true)); // candidate at Σinc=10
                                                    // Both machines report again, still balanced, but the sums moved:
                                                    // two messages were produced and consumed in between.
        t.coord_on_stat(0, stat(1, 2, 12, 10, true));
        assert_eq!(
            t.coord_on_stat(1, stat(1, 2, 0, 2, true)),
            TermAction::Probe { token: 1, probe: 3 },
            "changed sums must restart the candidate"
        );
        // The next fresh wave at the new sums confirms.
        t.coord_on_stat(0, stat(1, 3, 12, 10, true));
        assert_eq!(
            t.coord_on_stat(1, stat(1, 3, 0, 2, true)),
            TermAction::Release(1)
        );
    }

    #[test]
    fn unbalanced_or_not_done_never_releases() {
        let t = TermState::new(2, true);
        for seq in 1..10 {
            assert_eq!(
                t.coord_on_stat(0, stat(1, seq, 5, 5, true)),
                TermAction::None
            );
            assert_eq!(
                t.coord_on_stat(1, stat(1, seq, 5, 4, true)),
                TermAction::None,
                "Σinc != Σdec"
            );
        }
        let t = TermState::new(2, true);
        for seq in 1..10 {
            t.coord_on_stat(0, stat(1, seq, 5, 5, true));
            assert_eq!(
                t.coord_on_stat(1, stat(1, seq, 5, 5, false)),
                TermAction::None,
                "a machine with live tasks blocks release"
            );
        }
    }

    #[test]
    fn stale_token_gets_rerelease() {
        let t = TermState::new(1, true);
        assert_eq!(
            t.coord_on_stat(0, stat(1, 1, 0, 0, true)),
            TermAction::Probe { token: 1, probe: 2 }
        );
        assert_eq!(
            t.coord_on_stat(0, stat(1, 2, 0, 0, true)),
            TermAction::Release(1)
        );
        // The release to this machine was "lost": it reports token 1 again.
        assert_eq!(
            t.coord_on_stat(0, stat(1, 3, 0, 0, true)),
            TermAction::ReRelease(1)
        );
    }

    #[test]
    fn local_state_machine() {
        let t = TermState::new(2, true);
        assert!(t.sample().is_none(), "no phase armed");
        t.begin_phase(1);
        t.add_inc(3);
        t.add_dec(1);
        let s = t.sample().unwrap();
        assert_eq!((s.token, s.inc, s.dec, s.done), (1, 3, 1, false));
        assert!(t.report(true).is_none(), "nothing to report before done");
        t.mark_local_done(|| 77);
        t.mark_local_done(|| panic!("the clock is read once per phase"));
        assert!(t.sample().unwrap().done);
        assert!(!t.released(1));
        assert_eq!(
            t.release(1),
            Some(77),
            "first release hands the reading back"
        );
        assert_eq!(t.release(1), None);
        assert!(t.released(1));
        assert!(t.sample().is_none(), "released phase stops reporting");
        // Next phase: done/released flags do not leak forward.
        t.begin_phase(2);
        let s = t.sample().unwrap();
        assert!(!s.done);
        assert!(!t.released(2));
    }

    #[test]
    fn disabled_state_is_inert() {
        let t = TermState::new(2, false);
        t.begin_phase(1);
        t.add_inc(5);
        t.mark_local_done(|| 0);
        assert!(t.sample().is_none());
        assert!(t.report(true).is_none());
        assert!(t.on_probe(1, 1).is_none());
        assert!(!t.enabled());
        assert_eq!(t.machines(), 2);
    }

    #[test]
    fn probe_round_releases_without_a_tick() {
        let ms = idle_cluster(3, 1);
        ms[1].add_inc(4);
        ms[2].add_dec(4);
        let (token, probe) = probe_of(first_wave(&ms));
        for m in &ms {
            assert!(m.report(false).is_none(), "unchanged state reports once");
        }
        // The answers alone confirm: no forced (tick) report anywhere.
        let mut action = TermAction::None;
        for (i, m) in ms.iter().enumerate() {
            assert_eq!(action, TermAction::None, "released before every answer");
            let answer = m.on_probe(token, probe).expect("a probe is answered");
            assert_eq!(answer.wave, probe);
            action = ms[0].coord_on_stat(i, answer);
        }
        assert_eq!(action, TermAction::Release(1));
        for m in &ms {
            m.release(1);
            assert!(m.report(true).is_none(), "released phase stops reporting");
        }
    }

    #[test]
    fn activity_before_the_answers_restarts_the_candidate() {
        let ms = idle_cluster(2, 1);
        let (token, probe) = probe_of(first_wave(&ms));
        // An entry is produced and consumed after the candidate was
        // recorded but before the answers are sampled.
        ms[0].add_inc(1);
        ms[1].add_dec(1);
        ms[0].coord_on_stat(0, ms[0].on_probe(token, probe).unwrap());
        let restarted = ms[0].coord_on_stat(1, ms[1].on_probe(token, probe).unwrap());
        let (_, probe2) = probe_of(restarted);
        assert!(probe2 > probe, "probe numbers are never reused");
        // A late duplicate of the old probe changes nothing: the answer
        // echoes the newest number the machine has seen, and a number is
        // only echoed by samples taken after it arrived.
        ms[0].coord_on_stat(0, ms[0].on_probe(token, probe2).unwrap());
        assert_eq!(ms[0].on_probe(token, probe).unwrap().wave, probe2);
        assert_eq!(
            ms[0].coord_on_stat(1, ms[1].on_probe(token, probe2).unwrap()),
            TermAction::Release(1)
        );
    }

    #[test]
    fn in_flight_report_cannot_confirm_a_candidate() {
        let ms = idle_cluster(2, 1);
        // Machine 1 sampled a report that is still in flight when the
        // candidate forms from its previous one.
        let early = ms[1].report(false).unwrap();
        ms[0].coord_on_stat(0, ms[0].report(false).unwrap());
        let (token, probe) = probe_of(ms[0].coord_on_stat(1, early));
        let in_flight = ms[1].report(true).unwrap();
        ms[0].coord_on_stat(0, ms[0].on_probe(token, probe).unwrap());
        assert_eq!(
            ms[0].coord_on_stat(1, in_flight),
            TermAction::Reprobe { token, probe },
            "sampled before the probe arrived: not a second wave"
        );
        assert_eq!(
            ms[0].coord_on_stat(1, ms[1].on_probe(token, probe).unwrap()),
            TermAction::Release(1)
        );
    }

    #[test]
    fn overtaken_report_is_ignored() {
        let ms = idle_cluster(2, 1);
        let older = ms[1].report(false).unwrap();
        ms[1].add_dec(1);
        let newer = ms[1].report(false).unwrap();
        ms[0].add_inc(1);
        ms[0].coord_on_stat(0, ms[0].report(false).unwrap());
        let (token, probe) = probe_of(ms[0].coord_on_stat(1, newer));
        // The older report arrives last; it must not replace the newer one
        // (that would unbalance the sums and throw the candidate away).
        assert_eq!(ms[0].coord_on_stat(1, older), TermAction::None);
        ms[0].coord_on_stat(0, ms[0].on_probe(token, probe).unwrap());
        assert_eq!(
            ms[0].coord_on_stat(1, ms[1].on_probe(token, probe).unwrap()),
            TermAction::Release(1)
        );
    }

    #[test]
    fn lost_frames_heal_from_the_tick() {
        // Lost report: the cell says "reported", only a forced report
        // reaches the coordinator.
        let ms = idle_cluster(2, 1);
        ms[0].coord_on_stat(0, ms[0].report(false).unwrap());
        let _lost = ms[1].report(false).unwrap();
        assert!(ms[1].report(false).is_none());
        let (token, probe) = probe_of(ms[0].coord_on_stat(1, ms[1].report(true).unwrap()));

        // Lost probe: machine 1's tick report still carries the old wave,
        // so the coordinator probes it again.
        ms[0].coord_on_stat(0, ms[0].on_probe(token, probe).unwrap());
        assert_eq!(
            ms[0].coord_on_stat(1, ms[1].report(true).unwrap()),
            TermAction::Reprobe { token, probe }
        );

        // Lost answer: the next tick report echoes the probe by itself.
        let _lost = ms[1].on_probe(token, probe).unwrap();
        assert_eq!(
            ms[0].coord_on_stat(1, ms[1].report(true).unwrap()),
            TermAction::Release(1)
        );

        // Lost release: machine 1 keeps reporting the released token.
        ms[0].release(1);
        assert_eq!(
            ms[0].coord_on_stat(1, ms[1].report(true).unwrap()),
            TermAction::ReRelease(1)
        );
        ms[1].release(1);
        assert!(ms[1].report(true).is_none());
    }

    #[test]
    fn racing_workers_emit_one_report_per_state() {
        const WORKERS: usize = 4;
        const STATES: usize = 200;
        let t = Arc::new(TermState::new(2, true));
        t.begin_phase(1);
        t.mark_local_done(|| 0);
        let reports = Arc::new(AtomicUsize::new(0));
        // Two crossings per state: everyone starts polling the same state
        // together, and the next state is produced only once all polled.
        let gate = Arc::new(Barrier::new(WORKERS + 1));
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let (t, reports, gate) = (t.clone(), reports.clone(), gate.clone());
                std::thread::spawn(move || {
                    for _ in 0..STATES {
                        gate.wait();
                        if t.report(false).is_some() {
                            reports.fetch_add(1, Ordering::SeqCst);
                        }
                        gate.wait();
                    }
                })
            })
            .collect();
        for state in 1..=STATES {
            t.add_dec(1);
            gate.wait();
            gate.wait();
            assert_eq!(reports.load(Ordering::SeqCst), state);
        }
        for w in workers {
            w.join().unwrap();
        }
    }
}
