//! Pin the benchmark — and the server threads it starts, which inherit the
//! mask — to one CPU.
//!
//! On a small shared virtual machine a wake-up that crosses CPUs can stall
//! for tens to hundreds of microseconds, and whether the generator and the
//! server's loop thread land on one CPU or two changes from run to run.
//! That choice swamped the request path it was meant to measure. On one
//! CPU the generator yields to the server and every run sees the same
//! placement. The last CPU the process may use is taken: device interrupt
//! work (the WAL's fsync completions among it) tends to land on the first.

use std::mem::size_of;

/// `cpu_set_t`: 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Restrict the calling thread (and every thread it starts afterwards) to
/// the last CPU it may run on. Returns that CPU, or `None` when the mask
/// could not be read or set (the run then proceeds unpinned).
pub fn to_one_cpu() -> Option<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer and the size
    // passed is its exact size; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut mask) } != 0 {
        return None;
    }
    let cpu = (0..1024).rev().find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `one` is only read.
    (unsafe { sched_setaffinity(0, size_of::<CpuSet>(), &one) } == 0).then_some(cpu)
}
