//! Resolving an instrument that already exists allocates nothing, and
//! neither does opening a span at a resolved [`SpanSite`]: per-request
//! code can look instruments up by name without paying the allocator.
//!
//! A counting global allocator needs its own test binary; it counts per
//! thread, so the harness's other threads do not disturb the figure.

use gp_telemetry::{counter, gauge, histogram, SpanSite};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn lookups_of_existing_instruments_do_not_allocate() {
    static SITE: SpanSite = SpanSite::new("lookup_alloc.site");
    // The first resolution creates each instrument (and may allocate).
    counter("lookup_alloc.counter").incr();
    gauge("lookup_alloc.gauge").add(1);
    histogram("lookup_alloc.hist").record(1);
    drop(SITE.open());
    let n = allocations(|| {
        for _ in 0..1000 {
            counter("lookup_alloc.counter").incr();
            gauge("lookup_alloc.gauge").add(1);
            histogram("lookup_alloc.hist").record(1);
            drop(SITE.open());
        }
    });
    assert_eq!(n, 0, "hits allocated {n} times");
    assert_eq!(counter("lookup_alloc.counter").get(), 1001);
    // A miss still creates the instrument.
    assert!(allocations(|| counter("lookup_alloc.fresh").incr()) > 0);
}
