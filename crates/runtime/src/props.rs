//! Column-oriented property storage (§3.3, §4.2).
//!
//! "Node and edge properties are represented in column-oriented ways.
//! Consequently, each property can be referenced as a separate entity, and
//! it is trivial to create or delete temporary properties."
//!
//! Every value is stored as 64 raw bits inside an `AtomicU64` cell so that
//! *plain* accesses (the worker-thread fast path) are relaxed loads/stores
//! while copier threads can apply remote reductions "directly with atomic
//! instructions" — a CAS loop generic over the value type.

use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of a registered property on a machine/cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PropId(pub u16);

/// Value type of a property column, used by copiers to interpret raw bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum TypeTag {
    F64 = 0,
    I64 = 1,
    U64 = 2,
    U32 = 3,
    Bool = 4,
}

/// Reduction operators available for remote writes and ghost merging.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ReduceOp {
    /// Additive reduction (bottom = 0).
    Sum = 0,
    /// Minimum (bottom = type maximum).
    Min = 1,
    /// Maximum (bottom = type minimum).
    Max = 2,
    /// Logical/bitwise OR (bottom = false/0).
    Or = 3,
    /// Logical/bitwise AND (bottom = true/!0).
    And = 4,
    /// Plain overwrite, last writer wins (bottom = unchanged). Used for
    /// ghost pre-synchronization.
    Assign = 5,
}

impl ReduceOp {
    /// Wire encoding.
    pub fn to_u8(self) -> u8 {
        self as u8
    }

    /// Parses the wire encoding.
    pub fn from_u8(v: u8) -> Option<ReduceOp> {
        Some(match v {
            0 => ReduceOp::Sum,
            1 => ReduceOp::Min,
            2 => ReduceOp::Max,
            3 => ReduceOp::Or,
            4 => ReduceOp::And,
            5 => ReduceOp::Assign,
            _ => return None,
        })
    }

    /// True when `op` is defined on columns of type `tag`: every op is,
    /// except the logical ones on `f64`.
    pub fn defined_on(self, tag: TypeTag) -> bool {
        !(tag == TypeTag::F64 && matches!(self, ReduceOp::Or | ReduceOp::And))
    }
}

/// Applies `op` to raw bits according to the column type.
#[inline(always)]
pub fn reduce_bits(tag: TypeTag, op: ReduceOp, cur: u64, new: u64) -> u64 {
    match tag {
        TypeTag::F64 => {
            let (a, b) = (f64::from_bits(cur), f64::from_bits(new));
            let r = match op {
                ReduceOp::Sum => a + b,
                ReduceOp::Min => a.min(b),
                ReduceOp::Max => a.max(b),
                ReduceOp::Or | ReduceOp::And => {
                    panic!("logical reduction on f64 property")
                }
                ReduceOp::Assign => b,
            };
            r.to_bits()
        }
        TypeTag::I64 => {
            let (a, b) = (cur as i64, new as i64);
            (match op {
                ReduceOp::Sum => a.wrapping_add(b),
                ReduceOp::Min => a.min(b),
                ReduceOp::Max => a.max(b),
                ReduceOp::Or => a | b,
                ReduceOp::And => a & b,
                ReduceOp::Assign => b,
            }) as u64
        }
        TypeTag::U64 => match op {
            ReduceOp::Sum => cur.wrapping_add(new),
            ReduceOp::Min => cur.min(new),
            ReduceOp::Max => cur.max(new),
            ReduceOp::Or => cur | new,
            ReduceOp::And => cur & new,
            ReduceOp::Assign => new,
        },
        TypeTag::U32 => {
            let (a, b) = (cur as u32, new as u32);
            (match op {
                ReduceOp::Sum => a.wrapping_add(b),
                ReduceOp::Min => a.min(b),
                ReduceOp::Max => a.max(b),
                ReduceOp::Or => a | b,
                ReduceOp::And => a & b,
                ReduceOp::Assign => b,
            }) as u64
        }
        TypeTag::Bool => {
            let (a, b) = (cur != 0, new != 0);
            (match op {
                ReduceOp::Or | ReduceOp::Sum => a || b,
                ReduceOp::And => a && b,
                ReduceOp::Min => a && b,
                ReduceOp::Max => a || b,
                ReduceOp::Assign => b,
            }) as u64
        }
    }
}

/// The identity ("bottom") value of `op` for the column type — what ghost
/// copies are initialized to before a reducing parallel region ("the
/// *bottom* value is set to each ghost copy at the beginning — e.g. 0 for
/// additive reduction").
#[inline]
pub fn bottom_bits(tag: TypeTag, op: ReduceOp) -> u64 {
    match tag {
        TypeTag::F64 => match op {
            ReduceOp::Sum => 0f64.to_bits(),
            ReduceOp::Min => f64::INFINITY.to_bits(),
            ReduceOp::Max => f64::NEG_INFINITY.to_bits(),
            ReduceOp::Or | ReduceOp::And => panic!("logical reduction on f64"),
            ReduceOp::Assign => 0,
        },
        TypeTag::I64 => match op {
            ReduceOp::Sum => 0,
            ReduceOp::Min => i64::MAX as u64,
            ReduceOp::Max => i64::MIN as u64,
            ReduceOp::Or => 0,
            ReduceOp::And => u64::MAX,
            ReduceOp::Assign => 0,
        },
        TypeTag::U64 => match op {
            ReduceOp::Sum => 0,
            ReduceOp::Min => u64::MAX,
            ReduceOp::Max => 0,
            ReduceOp::Or => 0,
            ReduceOp::And => u64::MAX,
            ReduceOp::Assign => 0,
        },
        TypeTag::U32 => match op {
            ReduceOp::Sum => 0,
            ReduceOp::Min => u32::MAX as u64,
            ReduceOp::Max => 0,
            ReduceOp::Or => 0,
            ReduceOp::And => u32::MAX as u64,
            ReduceOp::Assign => 0,
        },
        TypeTag::Bool => match op {
            ReduceOp::Sum | ReduceOp::Or | ReduceOp::Max => 0,
            ReduceOp::And | ReduceOp::Min => 1,
            ReduceOp::Assign => 0,
        },
    }
}

/// Folds `new` into `cell` with `f` by a CAS loop; writes nothing when `f`
/// leaves the value unchanged (e.g. Min with a larger candidate).
#[inline(always)]
pub fn cas_reduce(cell: &AtomicU64, new: u64, f: impl Fn(u64, u64) -> u64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = f(cur, new);
        if next == cur {
            return;
        }
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// Types that can live in a property column (8-byte bit patterns).
pub trait PropValue: Copy + Send + Sync + 'static {
    /// The runtime tag matching this type.
    const TAG: TypeTag;
    /// Encodes to raw column bits.
    fn to_bits(self) -> u64;
    /// Decodes from raw column bits.
    fn from_bits(bits: u64) -> Self;
}

impl PropValue for f64 {
    const TAG: TypeTag = TypeTag::F64;
    fn to_bits(self) -> u64 {
        f64::to_bits(self)
    }
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

impl PropValue for i64 {
    const TAG: TypeTag = TypeTag::I64;
    fn to_bits(self) -> u64 {
        self as u64
    }
    fn from_bits(bits: u64) -> Self {
        bits as i64
    }
}

impl PropValue for u64 {
    const TAG: TypeTag = TypeTag::U64;
    fn to_bits(self) -> u64 {
        self
    }
    fn from_bits(bits: u64) -> Self {
        bits
    }
}

impl PropValue for u32 {
    const TAG: TypeTag = TypeTag::U32;
    fn to_bits(self) -> u64 {
        self as u64
    }
    fn from_bits(bits: u64) -> Self {
        bits as u32
    }
}

impl PropValue for bool {
    const TAG: TypeTag = TypeTag::Bool;
    fn to_bits(self) -> u64 {
        self as u64
    }
    fn from_bits(bits: u64) -> Self {
        bits != 0
    }
}

/// One property column on one machine: `len_local` owned cells followed by
/// `len_ghost` ghost cells.
#[derive(Debug)]
pub struct Column {
    tag: TypeTag,
    cells: Arc<[AtomicU64]>,
    len_local: usize,
}

impl Column {
    /// Allocates a column of `len_local + len_ghost` cells filled with
    /// `default_bits`.
    pub fn new(tag: TypeTag, len_local: usize, len_ghost: usize, default_bits: u64) -> Self {
        let cells = (0..len_local + len_ghost)
            .map(|_| AtomicU64::new(default_bits))
            .collect();
        Column {
            tag,
            cells,
            len_local,
        }
    }

    /// Value type of the column.
    #[inline]
    pub fn tag(&self) -> TypeTag {
        self.tag
    }

    /// Owned (non-ghost) length.
    #[inline]
    pub fn len_local(&self) -> usize {
        self.len_local
    }

    /// Total length including ghost cells.
    #[inline]
    pub fn len_total(&self) -> usize {
        self.cells.len()
    }

    /// Every cell, owned then ghost: for a loop that resolves its column
    /// once and then indexes it directly.
    #[inline]
    pub fn cells(&self) -> &[AtomicU64] {
        &self.cells
    }

    /// Every cell, as a handle of its own: for a view that holds the cells'
    /// pointer and length itself, where a loop over a borrow of the column
    /// re-reads them through it after every store.
    pub fn share_cells(&self) -> Arc<[AtomicU64]> {
        Arc::clone(&self.cells)
    }

    /// Plain (relaxed) load of raw bits.
    #[inline]
    pub fn load_bits(&self, i: usize) -> u64 {
        self.cells[i].load(Ordering::Relaxed)
    }

    /// Plain (relaxed) store of raw bits.
    #[inline]
    pub fn store_bits(&self, i: usize, bits: u64) {
        self.cells[i].store(bits, Ordering::Relaxed);
    }

    /// Typed load.
    #[inline]
    pub fn get<T: PropValue>(&self, i: usize) -> T {
        debug_assert_eq!(T::TAG, self.tag);
        T::from_bits(self.load_bits(i))
    }

    /// Typed store.
    #[inline]
    pub fn set<T: PropValue>(&self, i: usize, v: T) {
        debug_assert_eq!(T::TAG, self.tag);
        self.store_bits(i, v.to_bits());
    }

    /// Atomically reduces `bits` into cell `i` with `op` — the worker's
    /// local write path and the merge path for ghost privatization.
    #[inline]
    pub fn reduce_bits_atomic(&self, i: usize, op: ReduceOp, bits: u64) {
        if op == ReduceOp::Assign {
            self.cells[i].store(bits, Ordering::Relaxed);
            return;
        }
        cas_reduce(&self.cells[i], bits, |cur, new| {
            reduce_bits(self.tag, op, cur, new)
        });
    }

    /// Reduces a run of `(offset, bits)` entries into the owned cells, in
    /// order, each exactly as [`Column::reduce_bits_atomic`] would — the
    /// copier path for remote writes and ghost partials. The reduction is
    /// chosen once for the run, so an entry costs a bounds check and the
    /// CAS. Stops at the first offset outside the owned range and returns
    /// it; the entries before it stay applied.
    ///
    /// Panics if `op` is not [defined](ReduceOp::defined_on) on the
    /// column's type.
    pub fn reduce_run(
        &self,
        op: ReduceOp,
        entries: impl Iterator<Item = (u32, u64)>,
    ) -> Result<(), u32> {
        match self.tag {
            TypeTag::F64 => self.reduce_run_typed::<f64>(op, entries),
            TypeTag::I64 => self.reduce_run_typed::<i64>(op, entries),
            TypeTag::U64 => self.reduce_run_typed::<u64>(op, entries),
            TypeTag::U32 => self.reduce_run_typed::<u32>(op, entries),
            TypeTag::Bool => self.reduce_run_typed::<bool>(op, entries),
        }
    }

    /// [`Column::reduce_run`] with the type and then the op fixed, so each
    /// arm's loop inlines one constant-folded [`reduce_bits`].
    #[inline(always)]
    fn reduce_run_typed<T: PropValue>(
        &self,
        op: ReduceOp,
        entries: impl Iterator<Item = (u32, u64)>,
    ) -> Result<(), u32> {
        #[inline(always)]
        fn each(
            cells: &[AtomicU64],
            entries: impl Iterator<Item = (u32, u64)>,
            apply: impl Fn(&AtomicU64, u64),
        ) -> Result<(), u32> {
            for (offset, bits) in entries {
                apply(cells.get(offset as usize).ok_or(offset)?, bits);
            }
            Ok(())
        }
        macro_rules! fold_with {
            ($op:expr) => {
                each(&self.cells[..self.len_local], entries, |cell, bits| {
                    cas_reduce(cell, bits, |cur, new| reduce_bits(T::TAG, $op, cur, new))
                })
            };
        }
        match op {
            ReduceOp::Sum => fold_with!(ReduceOp::Sum),
            ReduceOp::Min => fold_with!(ReduceOp::Min),
            ReduceOp::Max => fold_with!(ReduceOp::Max),
            ReduceOp::Or => fold_with!(ReduceOp::Or),
            ReduceOp::And => fold_with!(ReduceOp::And),
            ReduceOp::Assign => each(&self.cells[..self.len_local], entries, |cell, bits| {
                cell.store(bits, Ordering::Relaxed)
            }),
        }
    }

    /// Stores a run of `(ordinal, bits)` entries into the ghost cells of
    /// `slots`, entry `(k, _)` into slot `slots[k]`, in order — the copier
    /// path for ghost pre-synchronization. Stops at the first ordinal past
    /// `slots` and returns it.
    pub fn store_ghost_run(
        &self,
        slots: &[u32],
        entries: impl Iterator<Item = (u32, u64)>,
    ) -> Result<(), u32> {
        let ghosts = &self.cells[self.len_local..];
        for (ordinal, bits) in entries {
            let slot = *slots.get(ordinal as usize).ok_or(ordinal)?;
            ghosts[slot as usize].store(bits, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Plain load of owned cell `offset`; `None` past the owned range.
    #[inline]
    pub fn load_owned(&self, offset: u32) -> Option<u64> {
        self.cells[..self.len_local]
            .get(offset as usize)
            .map(|c| c.load(Ordering::Relaxed))
    }

    /// Fills every cell (local + ghost) with `bits`.
    pub fn fill(&self, bits: u64) {
        for c in self.cells.iter() {
            c.store(bits, Ordering::Relaxed);
        }
    }

    /// Fills only the ghost region with `bits` (bottom-initialization).
    pub fn fill_ghosts(&self, bits: u64) {
        for c in self.cells[self.len_local..].iter() {
            c.store(bits, Ordering::Relaxed);
        }
    }
}

/// Metadata + column for one registered property.
#[derive(Debug)]
pub struct PropEntry {
    /// Human-readable name (diagnostics only).
    pub name: String,
    /// Default value bits used when (re)filling.
    pub default_bits: u64,
    /// The storage column.
    pub column: Arc<Column>,
}

/// All properties of one machine. Registration happens on the driver
/// thread between parallel regions; worker/copier threads only read the
/// registry (and cache `Arc<Column>` handles), so a `RwLock` suffices.
#[derive(Debug)]
pub struct PropertyStore {
    len_local: usize,
    len_ghost: usize,
    entries: RwLock<Vec<Option<Arc<PropEntry>>>>,
    /// Properties dropped so far. Anything that caches `Arc<Column>`
    /// handles across jobs (the copiers) compares it against the count it
    /// last saw and forgets its handles on a mismatch — otherwise a cached
    /// handle keeps a dropped column allocated and answering.
    drops: AtomicU64,
}

impl PropertyStore {
    /// Creates an empty store for a machine owning `len_local` nodes with
    /// `len_ghost` ghost slots.
    pub fn new(len_local: usize, len_ghost: usize) -> Self {
        PropertyStore {
            len_local,
            len_ghost,
            entries: RwLock::new(Vec::new()),
            drops: AtomicU64::new(0),
        }
    }

    /// Owned node count.
    pub fn len_local(&self) -> usize {
        self.len_local
    }

    /// Ghost slot count.
    pub fn len_ghost(&self) -> usize {
        self.len_ghost
    }

    /// Registers a property at an explicit id (the cluster driver assigns
    /// the same id on every machine). Panics if the id is already taken.
    pub fn register_at(&self, id: PropId, name: &str, tag: TypeTag, default_bits: u64) {
        let mut entries = self.entries.write();
        let idx = id.0 as usize;
        if entries.len() <= idx {
            entries.resize_with(idx + 1, || None);
        }
        assert!(entries[idx].is_none(), "property id {id:?} already in use");
        entries[idx] = Some(Arc::new(PropEntry {
            name: name.to_string(),
            default_bits,
            column: Arc::new(Column::new(
                tag,
                self.len_local,
                self.len_ghost,
                default_bits,
            )),
        }));
    }

    /// Drops a property ("it is trivial to create or delete temporary
    /// properties"). The id is never reused.
    pub fn drop_prop(&self, id: PropId) {
        let mut entries = self.entries.write();
        let idx = id.0 as usize;
        if idx < entries.len() {
            entries[idx] = None;
        }
        // Release pairs with the Acquire in `drops`: whoever sees the new
        // count also sees the entry gone.
        self.drops.fetch_add(1, Ordering::Release);
    }

    /// How many properties have been dropped so far; see the field.
    pub fn drops(&self) -> u64 {
        self.drops.load(Ordering::Acquire)
    }

    /// Looks up a property's column.
    pub fn column(&self, id: PropId) -> Arc<Column> {
        self.entry(id).column.clone()
    }

    /// Looks up a property's column, returning `None` when the id was
    /// never registered or the property has been dropped. Copiers use this
    /// so a stale or duplicated request surfaces as a structured error
    /// instead of a panic.
    pub fn try_column(&self, id: PropId) -> Option<Arc<Column>> {
        self.entries
            .read()
            .get(id.0 as usize)?
            .as_ref()
            .map(|e| e.column.clone())
    }

    /// Looks up a property's full entry.
    pub fn entry(&self, id: PropId) -> Arc<PropEntry> {
        self.entries.read()[id.0 as usize]
            .as_ref()
            .expect("property not registered")
            .clone()
    }

    /// Every live property with its id, in id order — the checkpoint
    /// module's enumeration of what must be snapshotted.
    pub fn live(&self) -> Vec<(PropId, Arc<PropEntry>)> {
        self.entries
            .read()
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (PropId(i as u16), e.clone())))
            .collect()
    }

    /// True if the id maps to a live property.
    pub fn exists(&self, id: PropId) -> bool {
        let entries = self.entries.read();
        (id.0 as usize) < entries.len() && entries[id.0 as usize].is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_op_wire_roundtrip() {
        for v in 0..6u8 {
            assert_eq!(ReduceOp::from_u8(v).unwrap().to_u8(), v);
        }
        assert!(ReduceOp::from_u8(42).is_none());
    }

    #[test]
    fn reduce_bits_f64() {
        let s = reduce_bits(
            TypeTag::F64,
            ReduceOp::Sum,
            1.5f64.to_bits(),
            2.25f64.to_bits(),
        );
        assert_eq!(f64::from_bits(s), 3.75);
        let m = reduce_bits(
            TypeTag::F64,
            ReduceOp::Min,
            5.0f64.to_bits(),
            3.0f64.to_bits(),
        );
        assert_eq!(f64::from_bits(m), 3.0);
    }

    #[test]
    fn reduce_bits_i64_negative() {
        let s = reduce_bits(TypeTag::I64, ReduceOp::Sum, (-5i64) as u64, 3u64);
        assert_eq!(s as i64, -2);
        let m = reduce_bits(TypeTag::I64, ReduceOp::Min, (-5i64) as u64, 3u64);
        assert_eq!(m as i64, -5);
        let x = reduce_bits(TypeTag::I64, ReduceOp::Max, (-5i64) as u64, 3u64);
        assert_eq!(x as i64, 3);
    }

    #[test]
    fn reduce_bits_bool() {
        assert_eq!(reduce_bits(TypeTag::Bool, ReduceOp::Or, 0, 1), 1);
        assert_eq!(reduce_bits(TypeTag::Bool, ReduceOp::And, 1, 0), 0);
        assert_eq!(reduce_bits(TypeTag::Bool, ReduceOp::Assign, 1, 0), 0);
    }

    #[test]
    fn bottom_values() {
        assert_eq!(
            f64::from_bits(bottom_bits(TypeTag::F64, ReduceOp::Sum)),
            0.0
        );
        assert_eq!(
            f64::from_bits(bottom_bits(TypeTag::F64, ReduceOp::Min)),
            f64::INFINITY
        );
        assert_eq!(bottom_bits(TypeTag::I64, ReduceOp::Min) as i64, i64::MAX);
        assert_eq!(bottom_bits(TypeTag::Bool, ReduceOp::And), 1);
        // bottom is the identity: reduce(bottom, x) == x
        for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
            let b = bottom_bits(TypeTag::F64, op);
            let x = 12.5f64.to_bits();
            assert_eq!(reduce_bits(TypeTag::F64, op, b, x), x, "{op:?}");
        }
    }

    #[test]
    fn prop_value_roundtrip() {
        assert_eq!(f64::from_bits(PropValue::to_bits(-1.25f64)), -1.25);
        assert_eq!(i64::from_bits((-7i64).to_bits()), -7);
        assert_eq!(u32::from_bits(9u32.to_bits()), 9);
        assert!(bool::from_bits(true.to_bits()));
        assert!(!bool::from_bits(false.to_bits()));
    }

    #[test]
    fn column_basic() {
        let c = Column::new(TypeTag::F64, 4, 2, 1.0f64.to_bits());
        assert_eq!(c.len_local(), 4);
        assert_eq!(c.len_total(), 6);
        assert_eq!(c.get::<f64>(0), 1.0);
        c.set(1, 2.5f64);
        assert_eq!(c.get::<f64>(1), 2.5);
    }

    #[test]
    fn column_atomic_reduce() {
        let c = Column::new(TypeTag::I64, 1, 0, 0);
        c.reduce_bits_atomic(0, ReduceOp::Sum, 5u64);
        c.reduce_bits_atomic(0, ReduceOp::Sum, 7u64);
        assert_eq!(c.get::<i64>(0), 12);
        c.reduce_bits_atomic(0, ReduceOp::Min, 3u64);
        assert_eq!(c.get::<i64>(0), 3);
        // No-op reduction (Min with larger value) leaves cell untouched.
        c.reduce_bits_atomic(0, ReduceOp::Min, 100u64);
        assert_eq!(c.get::<i64>(0), 3);
    }

    #[test]
    fn column_concurrent_sum() {
        let c = Arc::new(Column::new(TypeTag::I64, 1, 0, 0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.reduce_bits_atomic(0, ReduceOp::Sum, 1u64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get::<i64>(0), 4000);
    }

    #[test]
    fn fill_ghosts_only_touches_ghost_region() {
        let c = Column::new(TypeTag::U64, 2, 2, 7);
        c.fill_ghosts(0);
        assert_eq!(c.load_bits(0), 7);
        assert_eq!(c.load_bits(1), 7);
        assert_eq!(c.load_bits(2), 0);
        assert_eq!(c.load_bits(3), 0);
    }

    #[test]
    fn store_register_and_drop() {
        let s = PropertyStore::new(10, 3);
        s.register_at(PropId(0), "pr", TypeTag::F64, 0.5f64.to_bits());
        s.register_at(PropId(1), "dist", TypeTag::I64, 0);
        assert!(s.exists(PropId(0)));
        let c = s.column(PropId(0));
        assert_eq!(c.len_total(), 13);
        assert_eq!(c.get::<f64>(5), 0.5);
        s.drop_prop(PropId(0));
        assert!(!s.exists(PropId(0)));
        assert!(s.exists(PropId(1)));
    }

    #[test]
    #[should_panic(expected = "already in use")]
    fn double_register_panics() {
        let s = PropertyStore::new(1, 0);
        s.register_at(PropId(0), "a", TypeTag::U64, 0);
        s.register_at(PropId(0), "b", TypeTag::U64, 0);
    }
}
