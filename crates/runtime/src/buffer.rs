//! Message buffer pool (§3.4: "Fast, low-overhead implementations were
//! used for queues and buffer pools, while back-pressure mechanisms were
//! induced to avoid deadlocks").
//!
//! The pool hands out `Vec<u8>` payload buffers pre-sized to the configured
//! message size. When the quota is exhausted, `try_acquire` fails and the
//! caller is expected to drain its response queue before retrying — this is
//! the back-pressure path; `acquire_or_alloc` instead falls back to a fresh
//! allocation and bumps the `pool_exhausted` statistic, guaranteeing
//! deadlock freedom even for pathological request patterns.
//!
//! # Sharding
//!
//! The free list is split into power-of-two many lock-free bounded rings
//! (Vyukov MPMC queues) so that workers and copiers recycling buffers
//! concurrently never contend on one lock. Each caller passes a stable
//! *shard hint* (its worker/copier index); hint-less entry points derive
//! one from the current thread id. Acquisition tries the hinted shard
//! first and steals from the others only when it is empty, so in steady
//! state each thread recycles through its own ring.
//!
//! The quota is a single global *soft* budget enforced with one atomic
//! conditional increment (`fetch_update`: add one only while below the
//! quota). Reservation and accounting are one linearization point, and a
//! refused reserver never touches the counter, so `outstanding()` cannot
//! show a reservation that was not granted.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// One slot of a [`Ring`]. The `seq` tag encodes which "lap" of the ring
/// the slot belongs to, which is what makes the scheme ABA-safe without
/// tagged pointers.
struct Slot {
    seq: AtomicUsize,
    val: UnsafeCell<MaybeUninit<Vec<u8>>>,
}

/// A bounded lock-free MPMC ring (Vyukov's array queue). Capacity is a
/// power of two; `push` fails when full, `pop` when empty. Both are
/// wait-free in the absence of contention and lock-free under it.
struct Ring {
    mask: usize,
    slots: Box<[Slot]>,
    enqueue_pos: AtomicUsize,
    dequeue_pos: AtomicUsize,
}

// Slots are only accessed by the thread that won the corresponding
// position CAS, and `Vec<u8>` is Send.
unsafe impl Send for Ring {}
unsafe impl Sync for Ring {}

impl Ring {
    fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                val: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Ring {
            mask: cap - 1,
            slots,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
        }
    }

    fn push(&self, value: Vec<u8>) -> Result<(), Vec<u8>> {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // We own this slot until the seq store below.
                        unsafe { (*slot.val.get()).write(value) };
                        slot.seq.store(pos + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(p) => pos = p,
                }
            } else if diff < 0 {
                return Err(value); // full
            } else {
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    fn pop(&self) -> Option<Vec<u8>> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - (pos + 1) as isize;
            if diff == 0 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // We own this slot until the seq store below.
                        let value = unsafe { (*slot.val.get()).assume_init_read() };
                        slot.seq.store(pos + self.mask + 1, Ordering::Release);
                        return Some(value);
                    }
                    Err(p) => pos = p,
                }
            } else if diff < 0 {
                return None; // empty
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        // Buffers still parked in slots must be dropped, not leaked.
        while self.pop().is_some() {}
    }
}

/// A sharded pool of reusable payload buffers with one global soft quota.
pub struct BufferPool {
    shards: Vec<Ring>,
    shard_mask: usize,
    buffer_bytes: usize,
    /// Number of buffers the pool may hand out before reporting exhaustion.
    quota: usize,
    /// Exact net quota accounting: +1 on every acquisition (including
    /// over-quota fallback allocations), −1 on every release. Signed
    /// because simulated machines recycle each other's payloads (a
    /// response buffer acquired on the responder is released into the
    /// requester's pool), so one pool can be a net donor while a peer is
    /// a net creditor; summed over a quiescent cluster the counters
    /// cancel to exactly the number of in-flight payload buffers — zero.
    outstanding: AtomicI64,
    exhausted_events: AtomicU64,
}

impl BufferPool {
    /// Creates a pool of `quota` buffers of `buffer_bytes` capacity each
    /// with an automatically chosen shard count. Buffers are allocated
    /// lazily on first acquisition.
    pub fn new(quota: usize, buffer_bytes: usize) -> Self {
        Self::with_shards(quota, buffer_bytes, quota.clamp(1, 8))
    }

    /// Creates a pool with an explicit shard count (rounded up to a power
    /// of two). Each shard's ring can park the full quota, so no released
    /// buffer is dropped merely because hints were skewed.
    pub fn with_shards(quota: usize, buffer_bytes: usize, shards: usize) -> Self {
        let n = shards.next_power_of_two().max(1);
        BufferPool {
            shards: (0..n).map(|_| Ring::new(quota.max(1))).collect(),
            shard_mask: n - 1,
            buffer_bytes,
            quota,
            outstanding: AtomicI64::new(0),
            exhausted_events: AtomicU64::new(0),
        }
    }

    /// Capacity of the buffers this pool vends.
    pub fn buffer_bytes(&self) -> usize {
        self.buffer_bytes
    }

    /// A stable shard hint for the current thread, used by the hint-less
    /// entry points.
    fn thread_shard() -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        h.finish() as usize
    }

    /// Reserves one unit of quota: increments `outstanding` only while it
    /// is below the quota. The successful compare-exchange is the single
    /// linearization point, so concurrent reservers can never jointly
    /// observe room that isn't there, and a refused one leaves no trace —
    /// `outstanding` never exceeds `quota` from reservations, not even
    /// transiently.
    fn reserve(&self) -> bool {
        let quota = self.quota as i64;
        self.outstanding
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |held| {
                (held < quota).then_some(held + 1)
            })
            .is_ok()
    }

    /// Records an over-quota fallback allocation: the buffer is physically
    /// handed out, so the net accounting must see it even though no quota
    /// reservation succeeded. Keeping every handed-out buffer in
    /// `outstanding` is what makes the cluster-wide sum an exact leak
    /// detector (and it also makes back-pressure honest: `try_acquire`
    /// keeps failing until the overflow drains back below the quota).
    fn reserve_over_quota(&self) {
        self.outstanding.fetch_add(1, Ordering::AcqRel);
    }

    /// Releases one unit of quota. Deliberately allowed to go negative:
    /// a pool that receives more recycled peer buffers than it handed out
    /// is a net creditor, and clamping here would make the cluster-wide
    /// sum drift away from the true in-flight count.
    fn unreserve(&self) {
        self.outstanding.fetch_sub(1, Ordering::AcqRel);
    }

    /// Pops a recycled buffer, trying the hinted shard first and stealing
    /// from the others only when it is empty.
    fn pop_recycled(&self, hint: usize) -> Option<Vec<u8>> {
        let base = hint & self.shard_mask;
        for i in 0..self.shards.len() {
            let shard = &self.shards[(base + i) & self.shard_mask];
            if let Some(b) = shard.pop() {
                return Some(b);
            }
        }
        None
    }

    /// Tries to acquire a buffer within quota; `None` signals back-pressure.
    pub fn try_acquire(&self) -> Option<Vec<u8>> {
        self.try_acquire_on(Self::thread_shard())
    }

    /// [`Self::try_acquire`] with an explicit shard hint (worker/copier
    /// index); acquire/release with the same hint never touch other shards
    /// in steady state.
    pub fn try_acquire_on(&self, hint: usize) -> Option<Vec<u8>> {
        if !self.reserve() {
            return None;
        }
        match self.pop_recycled(hint) {
            Some(mut b) => {
                b.clear();
                Some(b)
            }
            None => Some(Vec::with_capacity(self.buffer_bytes)),
        }
    }

    /// Acquires a buffer, allocating past the quota if necessary (recording
    /// the back-pressure event). Never blocks, never fails.
    pub fn acquire_or_alloc(&self) -> Vec<u8> {
        self.acquire_or_alloc_on(Self::thread_shard())
    }

    /// [`Self::acquire_or_alloc`] with an explicit shard hint.
    pub fn acquire_or_alloc_on(&self, hint: usize) -> Vec<u8> {
        match self.try_acquire_on(hint) {
            Some(b) => b,
            None => {
                self.exhausted_events.fetch_add(1, Ordering::Relaxed);
                self.reserve_over_quota();
                Vec::with_capacity(self.buffer_bytes)
            }
        }
    }

    /// Like [`Self::acquire_or_alloc`] but *without* clearing the recycled
    /// buffer: the previous contents (and length) are kept. For payloads
    /// whose bytes are opaque (bandwidth probes), this avoids a
    /// memset-per-message that would otherwise dominate the measurement.
    pub fn acquire_or_alloc_dirty(&self) -> Vec<u8> {
        let hint = Self::thread_shard();
        if self.reserve() {
            if let Some(b) = self.pop_recycled(hint) {
                return b;
            }
        } else {
            self.exhausted_events.fetch_add(1, Ordering::Relaxed);
            self.reserve_over_quota();
        }
        Vec::with_capacity(self.buffer_bytes)
    }

    /// Returns a buffer to the pool.
    pub fn release(&self, buf: Vec<u8>) {
        self.release_on(buf, Self::thread_shard());
    }

    /// [`Self::release`] with an explicit shard hint.
    pub fn release_on(&self, buf: Vec<u8>, hint: usize) {
        self.unreserve();
        if buf.capacity() < self.buffer_bytes {
            return; // undersized buffers are simply dropped
        }
        let base = hint & self.shard_mask;
        let mut buf = buf;
        for i in 0..self.shards.len() {
            match self.shards[(base + i) & self.shard_mask].push(buf) {
                Ok(()) => return,
                Err(b) => buf = b,
            }
        }
        // Every ring full: surplus buffer, drop it.
    }

    /// Number of quota-exhaustion (back-pressure) events so far.
    pub fn exhausted_events(&self) -> u64 {
        self.exhausted_events.load(Ordering::Relaxed)
    }

    /// Net quota units held: buffers handed out by this pool minus
    /// buffers released into it. Transiently exceeds the quota while
    /// over-quota fallback allocations are live, and goes *negative* on
    /// pools that net-receive peer-recycled payloads; summed over all
    /// machines of a quiescent cluster it is exactly zero — the soak
    /// harness leans on that to prove full quota reclamation.
    pub fn outstanding(&self) -> i64 {
        self.outstanding.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("shards", &self.shards.len())
            .field("buffer_bytes", &self.buffer_bytes)
            .field("quota", &self.quota)
            .field("outstanding", &self.outstanding())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::{Arc, Mutex};

    #[test]
    fn acquire_release_cycle() {
        let pool = BufferPool::new(2, 128);
        let a = pool.try_acquire().unwrap();
        let b = pool.try_acquire().unwrap();
        assert!(pool.try_acquire().is_none(), "quota enforced");
        pool.release(a);
        let c = pool.try_acquire().unwrap();
        assert_eq!(c.capacity(), 128);
        pool.release(b);
        pool.release(c);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn reuse_keeps_capacity() {
        let pool = BufferPool::new(1, 64);
        let mut a = pool.try_acquire().unwrap();
        a.extend_from_slice(&[1, 2, 3]);
        let cap = a.capacity();
        pool.release(a);
        let b = pool.try_acquire().unwrap();
        assert!(b.is_empty(), "recycled buffer must be cleared");
        assert_eq!(b.capacity(), cap);
    }

    #[test]
    fn acquire_or_alloc_never_fails() {
        let pool = BufferPool::new(1, 64);
        let _a = pool.acquire_or_alloc();
        let _b = pool.acquire_or_alloc();
        assert_eq!(pool.exhausted_events(), 1);
    }

    #[test]
    fn release_drops_undersized() {
        let pool = BufferPool::new(4, 1024);
        pool.release(Vec::with_capacity(8));
        // The undersized buffer must not be vended later.
        let b = pool.try_acquire().unwrap();
        assert!(b.capacity() >= 1024);
    }

    #[test]
    fn shard_hints_recycle_locally() {
        let pool = BufferPool::with_shards(8, 64, 4);
        let mut a = pool.try_acquire_on(3).unwrap();
        a.extend_from_slice(&[9]);
        let cap = a.capacity();
        pool.release_on(a, 3);
        // Same hint gets the same buffer back; other hints steal it only
        // when their own shard is empty.
        let b = pool.try_acquire_on(3).unwrap();
        assert_eq!(b.capacity(), cap);
        assert!(b.is_empty());
        pool.release_on(b, 3);
        let c = pool.try_acquire_on(1).unwrap();
        assert_eq!(c.capacity(), cap, "cross-shard steal on empty shard");
    }

    #[test]
    fn ring_push_pop_fifo_per_lap() {
        let r = Ring::new(4);
        assert!(r.pop().is_none());
        for i in 0..4u8 {
            r.push(vec![i]).unwrap();
        }
        assert!(r.push(vec![9]).is_err(), "ring is bounded");
        for i in 0..4u8 {
            assert_eq!(r.pop().unwrap(), vec![i]);
        }
        assert!(r.pop().is_none());
        // A second lap exercises the sequence-tag wraparound.
        r.push(vec![7]).unwrap();
        assert_eq!(r.pop().unwrap(), vec![7]);
    }

    /// The ISSUE's loom-style hammer: N threads acquire/release through
    /// random shard hints while asserting (a) the quota reservation count
    /// never exceeds the quota and (b) no buffer is ever vended to two
    /// holders at once (tracked by pointer identity).
    #[test]
    fn concurrent_hammer_respects_quota_and_never_double_vends() {
        const THREADS: usize = 8;
        const ITERS: usize = 2_000;
        const QUOTA: usize = 6;
        let pool = Arc::new(BufferPool::with_shards(QUOTA, 64, 4));
        let held: Arc<Mutex<HashSet<usize>>> = Arc::new(Mutex::new(HashSet::new()));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let pool = pool.clone();
                let held = held.clone();
                std::thread::spawn(move || {
                    for i in 0..ITERS {
                        let hint = (t + i) % 5; // deliberately skewed hints
                        if let Some(buf) = pool.try_acquire_on(hint) {
                            assert!(buf.is_empty(), "vended buffer not cleared");
                            let ptr = buf.as_ptr() as usize;
                            // A fresh zero-capacity Vec has a dangling
                            // (shared) pointer; only track real buffers.
                            if buf.capacity() > 0 {
                                assert!(
                                    held.lock().unwrap().insert(ptr),
                                    "buffer vended to two holders at once"
                                );
                            }
                            let outstanding = pool.outstanding();
                            assert!(
                                outstanding <= QUOTA as i64,
                                "quota exceeded: {outstanding} > {QUOTA}"
                            );
                            if buf.capacity() > 0 {
                                held.lock().unwrap().remove(&ptr);
                            }
                            pool.release_on(buf, hint);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.outstanding(), 0, "all reservations returned");
        assert!(pool.try_acquire().is_some(), "pool still functional");
    }
}
