//! Heap allocations of a query's node passes, counted by a global
//! allocator that counts every fresh allocation (`alloc`, not `realloc`)
//! of this test binary.
//!
//! A lowered expression keeps its lanes on the stack and reuses them block
//! after block, so a node pass allocates the same number of times whatever
//! the chunk size: the count of a whole execution is the same at
//! `chunk_edges(256)` (the machine's vertices in dozens of chunks) as at the
//! benchmark preset's default (a handful). The binary holds one test, so no
//! other test allocates while it counts.

use pgxd::query::{compile, execute};
use pgxd::{BuildEngine, CancelToken, Config, Engine};
use pgxd_graph::generate::{rmat, RmatParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Node passes only: a filter, a shared subexpression, degrees, a ternary.
const PASSES: &str = "\
prop x: f64 = 1.0;
prop y: f64 = 0.0;
iterate max 4 {
  foreach v where v.out_degree > 1 {
    v.y = v.out_degree > 2 ? v.x / v.out_degree : 0.0;
    v.x = abs(v.x * 0.5 + 1.0) + (v.x * 0.5 + 1.0) - v.y;
  }
}
return x;
";

/// Allocations of one execution, after one to warm the engine up.
fn allocations(engine: &mut Engine, text: &str) -> u64 {
    let program = compile(text, engine.num_nodes() as u64).unwrap();
    assert_eq!(program.report.cse, 1, "{}", program.render());
    let never = CancelToken::never();
    execute(engine, &program, &never).unwrap();
    let before = ALLOCS.load(Ordering::Relaxed);
    execute(engine, &program, &never).unwrap();
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn a_node_pass_allocates_the_same_at_any_chunk_size() {
    let g = rmat(12, 8, RmatParams::skewed(), 0xA110C);
    let shape = || Config::builder().machines(2).workers(1);
    let mut coarse = shape().engine(&g).unwrap();
    let mut fine = shape().chunk_edges(256).engine(&g).unwrap();
    let want = allocations(&mut coarse, PASSES);
    let got = allocations(&mut fine, PASSES);
    assert_eq!(got, want, "chunk_edges(256) against the default");
}
