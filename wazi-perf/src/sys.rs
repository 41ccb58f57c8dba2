//! All of the benchmark's `unsafe`: the counting allocator behind
//! `proc.allocs_per_op` / `proc.alloc_bytes_per_op`, and the process CPU
//! clock behind `proc.cpu_us_per_op`.
//!
//! Disarmed, the allocator costs one relaxed load per allocation, so the
//! untraced run (which never arms it) measures the product as it ships.
//! Armed it adds two relaxed adds on shared counters; that cost is part of
//! the traced run's reported overhead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator, counting calls and bytes while armed.
pub struct Counting;

#[inline]
fn count(bytes: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from a matching `alloc` above,
        // which returned `System`'s block.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` and `layout` come from a matching `alloc` above,
        // which returned `System`'s block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Starts counting from zero.
pub fn arm() {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
}

/// Stops counting and returns `(allocations, bytes)` seen since [`arm`].
pub fn disarm() -> (u64, u64) {
    ARMED.store(false, Ordering::Relaxed);
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("wazi-perf reads /proc and calls clock_gettime with the 64-bit Linux ABI");

/// `struct timespec` of the 64-bit Linux ABIs.
#[repr(C)]
struct Timespec {
    seconds: i64,
    nanoseconds: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// User + system CPU seconds of this process: every thread, the ended ones
/// too, to the scheduler's nanosecond. (`/proc/self/stat` would need no
/// `unsafe`, but its times are sampled at 100 Hz, which is ±15 % on a
/// half-second trial of a mostly idle workload.)
pub fn cpu_seconds() -> f64 {
    let mut time = Timespec {
        seconds: 0,
        nanoseconds: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which points to a live, writable `Timespec` of the ABI's layout
    // (two 64-bit fields on every 64-bit Linux target, which the
    // `compile_error!` above restricts this to); the clock id is a constant
    // the kernel knows.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "the process CPU clock exists on Linux");
    time.seconds as f64 + time.nanoseconds as f64 / 1e9
}
