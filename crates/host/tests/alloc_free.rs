//! Proof that a steady-state host tick allocates nothing.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! that grows the thread's tick scratch to the largest server it serves,
//! each [`PhysicalServer::tick`] — luck, demand, disk, memory, CPU and
//! accounting over busy, idle, CPU-capped, blkio-throttled and paused VMs
//! — must perform zero heap allocations while no process finishes.

mod common;

use common::{mixed_server, DT};
use perfcloud_host::PhysicalServer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// Only count allocations made by the test's own thread while the measured
// window is open: the libtest harness's main thread lazily initializes its
// result-channel machinery at an arbitrary point and must not pollute the
// count. Const-initialized, so reading the flag never itself allocates.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counted(on: bool) {
    COUNTING.with(|c| c.set(on));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(|c| c.get()) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(|c| c.get()) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Ticks every server `ticks` times, interleaved, with counting on;
/// returns the allocation count and asserts no process finished.
fn measured_ticks(servers: &mut [PhysicalServer], ticks: usize) -> u64 {
    let mut finished = 0usize;
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    counted(true);
    for _ in 0..ticks {
        for s in servers.iter_mut() {
            finished += s.tick(DT).finished.len();
        }
    }
    counted(false);
    assert_eq!(finished, 0, "the measured window must not reap processes");
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

#[test]
fn steady_state_host_tick_is_allocation_free() {
    let mut server = [mixed_server(7, 4, 0)];
    // Warm-up: the scratch grows on the first tick; a few seconds more
    // ramp the luck amplitudes off the idle-device shortcut.
    for _ in 0..30 {
        server[0].tick(DT);
    }
    let before: Vec<_> = server[0].snapshots().collect();
    let total = measured_ticks(&mut server, 100);
    assert_eq!(total, 0, "{total} allocations across 100 steady-state ticks (expected 0)");

    // The measured ticks did real work on every running VM (and none on
    // the idle or paused ones), with both shared resources contended.
    let report = server[0].tick(DT);
    assert!(report.cpu_utilization > 0.99, "cpu {}", report.cpu_utilization);
    assert!(report.disk_utilization > 0.5, "disk {}", report.disk_utilization);
    assert!(report.memory_utilization > 0.5, "memory {}", report.memory_utilization);
    for ((vm, was), (_, now)) in before.iter().zip(server[0].snapshots()) {
        let idle = server[0].process_count(*vm) == 0 || server[0].is_paused(*vm);
        assert_eq!(
            now.counters.cpu_time > was.counters.cpu_time,
            !idle,
            "{vm}: cpu time moved iff the VM runs processes"
        );
    }
}

#[test]
fn shared_scratch_serves_servers_of_any_size_without_allocating() {
    // A large and a small server share the thread's scratch: once it has
    // grown to the larger one, the smaller one reuses it as is.
    let mut servers = [mixed_server(11, 9, 0), mixed_server(12, 1, 100)];
    for _ in 0..30 {
        for s in servers.iter_mut() {
            s.tick(DT);
        }
    }
    let total = measured_ticks(&mut servers, 100);
    assert_eq!(total, 0, "{total} allocations across 100 interleaved tick pairs (expected 0)");
}
