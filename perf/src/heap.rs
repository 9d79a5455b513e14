//! Peak heap use, counted by the allocator.
//!
//! The resident-set high-water mark is not steady enough to gate on:
//! over the same canonical MXS pass it ends at 5.2 or at 8.9 MiB of
//! anonymous memory from one process to the next, as the C allocator
//! reuses freed memory one way or the other, while the bytes the
//! simulator holds allocated peak at 4.81 MiB every time.
//! The binary installs [`CountingAlloc`]; counting is switched on only
//! around the untimed warm-up pass, so timed passes pay one relaxed load
//! per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, counting live bytes while [`start`] is in
/// effect.
#[derive(Debug)]
pub struct CountingAlloc;

fn add(bytes: isize) {
    if ON.load(Relaxed) {
        let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only observe.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as isize);
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as isize);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as isize));
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as isize - layout.size() as isize);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Starts counting from zero live bytes.
pub fn start() {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
}

/// Stops counting; returns the peak of bytes allocated and not yet
/// freed since [`start`], in MiB. 0 when the binary does not install
/// [`CountingAlloc`].
pub fn stop() -> f64 {
    ON.store(false, Relaxed);
    PEAK.load(Relaxed).max(0) as f64 / (1024.0 * 1024.0)
}
