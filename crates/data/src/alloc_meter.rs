//! Counting global allocator for memory experiments.
//!
//! The paper's Figure 8 reports cumulative memory while loading 250 models
//! under four configurations. The authors read process RSS; we instead wrap
//! the system allocator with [`CountingAlloc`] and report *live heap bytes*,
//! which is deterministic, immune to allocator slack, and captures exactly
//! the effect being measured (parameter dedup in the Object Store vs
//! per-container copies).
//!
//! Benchmark binaries install the allocator with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: pretzel_data::alloc_meter::CountingAlloc = CountingAlloc::new();
//! ```
//!
//! and then bracket phases with [`MemoryScope`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    // Set while the current thread runs inside `unmetered`. Const-initialized
    // and drop-free, so reading it from the allocator never allocates and
    // never fails during thread teardown.
    static UNMETERED: Cell<bool> = const { Cell::new(false) };
}

fn metered() -> bool {
    !UNMETERED.with(Cell::get)
}

/// Runs `f` with the current thread's allocations left out of every
/// counter. For debug-build self-checks (the parameter checksum memo's
/// cross-check) that would otherwise make allocation budgets differ
/// between debug and release builds. Everything `f` allocates must also be
/// freed inside `f`, or the live-byte count drifts.
pub fn unmetered<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            UNMETERED.with(|u| u.set(self.0));
        }
    }
    let _restore = Restore(UNMETERED.with(|u| u.replace(true)));
    f()
}

/// A [`GlobalAlloc`] that forwards to [`System`] while tracking live bytes.
///
/// Counter updates use relaxed atomics: the counters are monotonic telemetry,
/// not synchronization, and the memory experiments read them from quiescent
/// points (after joins).
pub struct CountingAlloc {
    _private: (),
}

impl CountingAlloc {
    /// Creates the allocator (const, so it can be a `static`).
    pub const fn new() -> Self {
        CountingAlloc { _private: () }
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED.fetch_add(size, Ordering::Relaxed);
    // Update the peak with a CAS loop; contention here is rare and bounded.
    let mut peak = PEAK.load(Ordering::Relaxed);
    while live > peak {
        match PEAK.compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(p) => peak = p,
        }
    }
}

fn on_dealloc(size: usize) {
    LIVE.fetch_sub(size, Ordering::Relaxed);
}

// SAFETY: all methods forward to `System`, which satisfies the `GlobalAlloc`
// contract; the bookkeeping adjusts atomics only and never touches the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; caller upholds the layout contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && metered() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if metered() {
            on_dealloc(layout.size());
        }
        // SAFETY: forwarded verbatim; `ptr` came from `System.alloc` with
        // the same layout, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim under the caller's contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && metered() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Live heap bytes currently tracked.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// High-water mark of live heap bytes since process start / last reset.
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Restarts the high-water mark at the current live bytes, so a later
/// [`peak_bytes`] bounds the phase that follows.
pub fn reset_peak() {
    PEAK.store(live_bytes(), Ordering::Relaxed);
}

/// Total number of allocation calls observed.
pub fn alloc_count() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

/// Total bytes requested by the allocation calls observed (freed or not):
/// the difference across a phase is what the phase allocated, including
/// what it freed again before it ended.
pub fn allocated_bytes() -> usize {
    ALLOCATED.load(Ordering::Relaxed)
}

/// Brackets a phase and reports the live-bytes delta across it.
///
/// Only meaningful in binaries that installed [`CountingAlloc`]; elsewhere
/// the deltas are zero.
#[derive(Debug)]
pub struct MemoryScope {
    start_live: usize,
    start_allocs: usize,
}

impl Default for MemoryScope {
    fn default() -> Self {
        Self::begin()
    }
}

impl MemoryScope {
    /// Starts measuring.
    pub fn begin() -> Self {
        MemoryScope {
            start_live: live_bytes(),
            start_allocs: alloc_count(),
        }
    }

    /// Live bytes gained (or freed, negative) since `begin`.
    pub fn delta_bytes(&self) -> isize {
        live_bytes() as isize - self.start_live as isize
    }

    /// Allocation calls performed since `begin`.
    pub fn delta_allocs(&self) -> usize {
        alloc_count() - self.start_allocs
    }
}

/// Formats a byte count with binary units, for harness output.
pub fn fmt_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.2} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by every test that asserts exact deltas of the process-wide
    /// counters: run side by side, one test's allocation lands inside
    /// another's measured window.
    static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn counters() -> std::sync::MutexGuard<'static, ()> {
        COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counters_track_manual_alloc() {
        let _counters = counters();
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(1024, 8).unwrap();
        let before = live_bytes();
        // SAFETY: valid non-zero layout; pointer is deallocated below with
        // the same layout.
        let p = unsafe { a.alloc(layout) };
        assert!(!p.is_null());
        assert_eq!(live_bytes() - before, 1024);
        assert!(peak_bytes() >= before + 1024);
        // SAFETY: `p` was allocated just above with `layout`.
        unsafe { a.dealloc(p, layout) };
        assert_eq!(live_bytes(), before);
    }

    #[test]
    fn realloc_adjusts_delta() {
        let _counters = counters();
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(256, 8).unwrap();
        let before = live_bytes();
        // SAFETY: valid layout; the resulting pointer is reallocated and
        // freed below with matching layouts.
        let p = unsafe { a.alloc(layout) };
        // SAFETY: `p` is live with `layout`; 512 is a valid non-zero size.
        let p2 = unsafe { a.realloc(p, layout, 512) };
        assert!(!p2.is_null());
        assert_eq!(live_bytes() - before, 512);
        let layout2 = Layout::from_size_align(512, 8).unwrap();
        // SAFETY: `p2` was returned by realloc with size 512 and alignment 8.
        unsafe { a.dealloc(p2, layout2) };
        assert_eq!(live_bytes(), before);
    }

    #[test]
    fn memory_scope_reports_deltas() {
        let _counters = counters();
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(2048, 8).unwrap();
        let scope = MemoryScope::begin();
        // SAFETY: valid layout, freed below.
        let p = unsafe { a.alloc(layout) };
        assert_eq!(scope.delta_bytes(), 2048);
        assert_eq!(scope.delta_allocs(), 1);
        // SAFETY: allocated above with the same layout.
        unsafe { a.dealloc(p, layout) };
        assert_eq!(scope.delta_bytes(), 0);
    }

    #[test]
    fn unmetered_scopes_nest_and_restore() {
        // Asserted on the thread-local flag, not the process-wide counters,
        // which this binary's other tests move concurrently.
        assert!(metered());
        unmetered(|| {
            assert!(!metered());
            unmetered(|| assert!(!metered()));
            assert!(!metered(), "an inner scope restores the outer one");
        });
        assert!(metered());
        let _ = std::panic::catch_unwind(|| unmetered(|| panic!("self-check failed")));
        assert!(metered(), "a panicking scope still restores metering");
    }

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KiB");
        assert_eq!(fmt_bytes(5 * 1024 * 1024), "5.00 MiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024 * 1024), "3.00 GiB");
    }
}
