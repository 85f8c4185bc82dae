//! Exact heap allocations of one verified query, pinned per stage.
//!
//! A counting global allocator (it only delegates to `System`) counts, on
//! the calling thread, every allocation `ShardedSaeEngine::scatter` and
//! `verify_slices` make for a fixed table of queries over one seeded
//! deployment. Allocation counts are exact and host-independent, unlike
//! timings, so the table is a gate: a change that adds a copy per record, or
//! removes one, moves a cell and fails here until the table is regenerated.
//!
//! A cell is `(allocations, bytes)`: every `alloc`, `alloc_zeroed` and
//! `realloc` call counts once, with the size it asked for (a `realloc`'s new
//! size). Frees are not counted. Each query runs once unmeasured first, so
//! nothing lazily initialised on first use lands in a cell.
//!
//! **Regenerating.** Run
//!
//! ```text
//! cargo test --release --test alloc_budget -- --nocapture
//! ```
//!
//! and replace `EXPECTED` below with the `const EXPECTED` it prints. The
//! numbers depend on `std`'s `Vec` growth policy, so a toolchain change may
//! regenerate the table too. Whoever regenerates it names every moved cell,
//! and why it moved, in CHANGES.md.

// The workspace denies `unsafe_code`; a `GlobalAlloc` impl is `unsafe` by
// definition. This test file is the only place it is allowed.
#![allow(unsafe_code)]

use sae::core::verify_slices;
use sae::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations made on the current thread while it is armed.
struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

impl Counting {
    fn count(size: usize) {
        // `try_with` and const-initialised `Cell`s allocate nothing and
        // register no destructor, so this never re-enters the allocator and
        // is harmless during thread teardown.
        if ARMED.try_with(Cell::get).unwrap_or(false) {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only other work is updating
// thread-local counters, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `(allocations, bytes)` made on this thread while `f` runs. What `f`
/// returns is dropped after the count is taken.
fn measure<R>(f: impl FnOnce() -> R) -> ((u64, u64), R) {
    ALLOCS.with(|c| c.set(0));
    BYTES.with(|c| c.set(0));
    ARMED.with(|c| c.set(true));
    let out = f();
    ARMED.with(|c| c.set(false));
    ((ALLOCS.with(Cell::get), BYTES.with(Cell::get)), out)
}

/// One pinned row: the query, its record count, and the exact
/// `(allocations, bytes)` of `scatter` and of `verify_slices`.
type Row = (&'static str, u32, u32, usize, (u64, u64), (u64, u64));

/// The pinned table (100 000 UNF records of 500 B, seed 11, 2 shards).
#[rustfmt::skip]
const EXPECTED: [Row; 5] = [
    ("point", 2015074, 2015074, 1, (15, 37228), (2, 116)),
    ("221 in shard 0", 3020891, 3043523, 221, (23, 165212), (2, 2384)),
    ("439 in shard 1", 7014943, 7056618, 439, (26, 293700), (2, 4688)),
    ("empty", 2681, 3355, 0, (12, 36656), (1, 64)),
    ("straddle", 4990000, 5010000, 221, (40, 194476), (3, 2400)),
];

fn render(rows: &[Row]) -> String {
    let mut out = format!("const EXPECTED: [Row; {}] = [\n", rows.len());
    for (label, lo, hi, n, scatter, verify) in rows {
        out += &format!("    ({label:?}, {lo}, {hi}, {n}, {scatter:?}, {verify:?}),\n");
    }
    out + "];"
}

#[test]
fn scatter_and_verify_allocate_exactly_the_pinned_budget() {
    let ds = DatasetSpec::paper(100_000, KeyDistribution::unf(), 11).generate();
    let engine = ShardedSaeEngine::build_in_memory(&ds, HashAlgorithm::Sha1, 2).unwrap();
    let mut actual = Vec::with_capacity(EXPECTED.len());
    for &(label, lo, hi, ..) in &EXPECTED {
        let q = RangeQuery::new(lo, hi);
        let warm = engine.scatter(&q).unwrap();
        engine.verify_scatter(&q, &warm).0.unwrap();
        drop(warm);

        let (scatter, slices) = measure(|| engine.scatter(&q).unwrap());
        let (verify, verdict) =
            measure(|| verify_slices(engine.layout(), engine.client(), &q, &slices));
        assert_eq!(verdict, Ok(()), "{label}");
        let records = slices.iter().map(|s| s.records.len()).sum();
        actual.push((label, lo, hi, records, scatter, verify));
    }

    println!("{}", render(&actual));
    if actual[..] != EXPECTED[..] {
        let mut diff = String::from("allocation table moved (- pinned, + actual):\n");
        for (want, got) in EXPECTED.iter().zip(&actual) {
            if want == got {
                diff += &format!("  {want:?}\n");
            } else {
                diff += &format!("- {want:?}\n+ {got:?}\n");
            }
        }
        panic!("{diff}regenerate with the command in this file's header");
    }
}
