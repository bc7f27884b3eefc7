//! Seeded model test of the event-driven termination wave.
//!
//! N `TermState`s play N machines (machine 0 doubles as the coordinator)
//! inside a single-threaded model of everything around them: local task
//! lists that produce entries, entries in flight that are consumed in a
//! random order and may spawn further entries, and the three wave frame
//! kinds carried by a network that reorders, duplicates and loses them.
//! Entries themselves are never lost — the reliability protocol sits
//! under them in the real system.
//!
//! Two properties, over two consecutive phases:
//!
//! * **safety** — the coordinator never releases a phase while a task is
//!   unrun or an entry is in flight;
//! * **liveness** — once the cluster is quiescent and frames stop being
//!   lost, ticks alone bring every machine to the release.

use pgxd_runtime::message::TermStat;
use pgxd_runtime::term::{TermAction, TermState};
use proptest::prelude::*;

/// splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn per_mille(&mut self, p: u64) -> bool {
        self.next() % 1000 < p
    }
}

#[derive(Clone, Copy, Debug)]
enum Frame {
    Stat { src: usize, stat: TermStat },
    Probe { dst: usize, token: u64, probe: u64 },
    Release { dst: usize, token: u64 },
}

/// An entry in flight: consumed at `dst`, where (like a read response
/// whose continuation issues the next reads) it spawns one or two entries
/// with a `chain` one shorter, until the chain runs out. Forks and chain
/// ends are the events that move `Σinc − Σdec` while every task list is
/// empty, so they are what a stale report can hide from the coordinator.
#[derive(Clone, Copy, Debug)]
struct Entry {
    dst: usize,
    chain: u32,
}

struct Model {
    machines: Vec<TermState>,
    tasks_left: Vec<u32>,
    entries: Vec<Entry>,
    frames: Vec<Frame>,
    token: u64,
    rng: Rng,
    loss_per_mille: u64,
    dup_per_mille: u64,
    /// Out of 16 random steps, how many try to deliver a frame (the rest
    /// run tasks and consume entries): a slow network is what makes the
    /// coordinator combine reports sampled far apart.
    frame_share: usize,
}

impl Model {
    fn new(
        n: usize,
        seed: u64,
        loss_per_mille: u64,
        dup_per_mille: u64,
        frame_share: usize,
    ) -> Model {
        Model {
            machines: (0..n).map(|_| TermState::new(n, true)).collect(),
            tasks_left: vec![0; n],
            entries: Vec::new(),
            frames: Vec::new(),
            token: 0,
            rng: Rng(seed),
            loss_per_mille,
            dup_per_mille,
            frame_share,
        }
    }

    fn n(&self) -> usize {
        self.machines.len()
    }

    fn begin_phase(&mut self, max_tasks: u32) {
        self.token += 1;
        for m in 0..self.n() {
            self.machines[m].begin_phase(self.token);
            self.tasks_left[m] = self.rng.below(max_tasks as usize + 1) as u32;
        }
    }

    /// Puts a frame on the wire, subject to loss and duplication.
    fn send(&mut self, frame: Frame) {
        if self.rng.per_mille(self.loss_per_mille) {
            return;
        }
        self.frames.push(frame);
        if self.rng.per_mille(self.dup_per_mille) {
            self.frames.push(frame);
        }
    }

    fn send_stat(&mut self, src: usize, stat: Option<TermStat>) {
        if let Some(stat) = stat {
            self.send(Frame::Stat { src, stat });
        }
    }

    /// Produces `k` entries at machine `m`, published before anything that
    /// could let the producer look idle.
    fn produce(&mut self, m: usize, k: u32, chain: u32) {
        for _ in 0..k {
            let dst = self.rng.below(self.n());
            self.entries.push(Entry { dst, chain });
        }
        self.machines[m].add_inc(k as u64);
    }

    /// What an idle worker does on every spin: mark done, report changes.
    fn idle_poll(&mut self, m: usize) {
        if self.tasks_left[m] == 0 {
            self.machines[m].mark_local_done(|| 0);
            let stat = self.machines[m].report(false);
            self.send_stat(m, stat);
        }
    }

    fn run_task(&mut self, m: usize) {
        let k = self.rng.below(4) as u32;
        let chain = self.rng.below(6) as u32;
        self.produce(m, k, chain);
        self.tasks_left[m] -= 1;
    }

    /// Consumes one in-flight entry: effects (spawned entries) first, `dec`
    /// after, then the copier's report.
    fn consume(&mut self, i: usize) {
        let e = self.entries.swap_remove(i);
        if e.chain > 0 {
            let k = 1 + self.rng.below(2) as u32;
            self.produce(e.dst, k, e.chain - 1);
        }
        self.machines[e.dst].add_dec(1);
        let stat = self.machines[e.dst].report(false);
        self.send_stat(e.dst, stat);
    }

    fn quiescent(&self) -> bool {
        self.entries.is_empty() && self.tasks_left.iter().all(|&t| t == 0)
    }

    fn deliver(&mut self, i: usize) -> Result<(), String> {
        match self.frames.swap_remove(i) {
            Frame::Stat { src, stat } => {
                let everyone = 0..self.n();
                let (token, probe, targets) = match self.machines[0].coord_on_stat(src, stat) {
                    TermAction::None => return Ok(()),
                    TermAction::Probe { token, probe } => (token, Some(probe), everyone),
                    TermAction::Reprobe { token, probe } => (token, Some(probe), src..src + 1),
                    TermAction::Release(token) => {
                        if token != self.token {
                            return Err(format!("released {token} in phase {}", self.token));
                        }
                        if !self.quiescent() {
                            return Err(format!(
                                "released token {token} with {} entries in flight, tasks {:?}",
                                self.entries.len(),
                                self.tasks_left
                            ));
                        }
                        (token, None, everyone)
                    }
                    TermAction::ReRelease(token) => (token, None, src..src + 1),
                };
                for dst in targets {
                    self.send(match probe {
                        Some(probe) => Frame::Probe { dst, token, probe },
                        None => Frame::Release { dst, token },
                    });
                }
            }
            Frame::Probe { dst, token, probe } => {
                let answer = self.machines[dst].on_probe(token, probe);
                self.send_stat(dst, answer);
            }
            Frame::Release { dst, token } => {
                self.machines[dst].release(token);
            }
        }
        Ok(())
    }

    fn tick(&mut self) {
        for m in 0..self.n() {
            let stat = self.machines[m].report(true);
            self.send_stat(m, stat);
        }
    }

    /// One random step of the chaotic part of a phase.
    fn step(&mut self) -> Result<(), String> {
        let roll = self.rng.below(16);
        if roll < self.frame_share {
            if !self.frames.is_empty() {
                let i = self.rng.below(self.frames.len());
                self.deliver(i)?;
            }
        } else if roll == 15 && self.rng.per_mille(300) {
            self.tick();
        } else if self.rng.below(2) == 0 && !self.entries.is_empty() {
            let i = self.rng.below(self.entries.len());
            self.consume(i);
        } else {
            let m = self.rng.below(self.n());
            if self.tasks_left[m] > 0 {
                self.run_task(m);
            }
            self.idle_poll(m);
        }
        Ok(())
    }

    fn all_released(&self) -> bool {
        self.machines.iter().all(|m| m.released(self.token))
    }

    /// Runs the current phase to its release: a chaotic stretch, then the
    /// remaining work with a loss-free network and regular ticks.
    fn run_phase(&mut self, chaos_steps: usize) -> Result<(), String> {
        for _ in 0..chaos_steps {
            self.step()?;
        }
        self.loss_per_mille = 0;
        for round in 0.. {
            if self.all_released() {
                return Ok(());
            }
            if round > 64 {
                return Err(format!(
                    "phase {} not released {round} tick rounds after quiescence",
                    self.token
                ));
            }
            for m in 0..self.n() {
                while self.tasks_left[m] > 0 {
                    self.run_task(m);
                }
                self.idle_poll(m);
            }
            while !self.entries.is_empty() || !self.frames.is_empty() {
                if !self.entries.is_empty() {
                    let i = self.rng.below(self.entries.len());
                    self.consume(i);
                }
                if !self.frames.is_empty() {
                    let i = self.rng.below(self.frames.len());
                    self.deliver(i)?;
                }
            }
            self.tick();
        }
        unreachable!()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn never_released_early_always_released_eventually(
        n in 1usize..6,
        seed in any::<u64>(),
        loss in 0u64..700,
        dup in 0u64..200,
        frame_share in 1usize..12,
        chaos_steps in 0usize..2000,
        max_tasks in 0u32..4,
    ) {
        let mut model = Model::new(n, seed, loss, dup, frame_share);
        for _phase in 0..2 {
            model.loss_per_mille = loss;
            model.begin_phase(max_tasks);
            let outcome = model.run_phase(chaos_steps);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }
}
