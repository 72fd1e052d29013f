//! The benchmark's own counting allocator: exact allocation counts for the
//! traced run, one relaxed load per allocation when off, so the untraced
//! run measures the program and not the meter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

/// Forwards to [`System`]; counts while switched on.
pub struct CountingAlloc;

fn on_alloc(size: usize) {
    if ON.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        LIVE.fetch_add(size as i64, Ordering::Relaxed);
    }
}

fn on_dealloc(size: usize) {
    if ON.load(Ordering::Relaxed) {
        LIVE.fetch_sub(size as i64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are statistics only and
// never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout contract is passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract is passed through.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Counter readings; subtract two to get a phase's numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AllocCounters {
    pub allocs: u64,
    pub bytes: u64,
    /// Bytes allocated minus bytes freed while counting was on.
    pub live: i64,
}

pub fn set_counting(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

pub fn counters() -> AllocCounters {
    AllocCounters {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        live: LIVE.load(Ordering::Relaxed),
    }
}
