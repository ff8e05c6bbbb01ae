//! Keeps the benchmark process on one CPU.
//!
//! On a shared VM the host deschedules an idle vCPU, and waking a thread
//! there (which every stage hand-off of the runtime does) waits until the
//! host runs that vCPU again. Unpinned, `gateway_mixed` spent a third to
//! a half of its wall time idle in such wake-ups, and how long they took
//! followed the host's load from run to run. With every thread on one CPU
//! a hand-off is a context switch on a CPU that is already running; the
//! stage hand-offs run one at a time, so nothing that could run in
//! parallel is held back.

/// Restricts the calling thread, and so every thread it spawns later, to
/// the highest-numbered CPU it may run on. Returns that CPU, or `None`
/// where the affinity calls are unavailable or fail; the run then goes on
/// unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    sys::pin()
}

#[cfg(target_os = "linux")]
mod sys {
    use std::mem::size_of;

    /// The C library's `cpu_set_t`: a mask of 1024 CPUs.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    pub fn pin() -> Option<usize> {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a live, writable mask of exactly the size
        // passed, and pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut allowed) } != 0 {
            return None;
        }
        let cpu = (0..allowed.len() * 64).rfind(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a live mask of exactly the size passed, and
        // pid 0 names the calling thread.
        if unsafe { sched_setaffinity(0, size_of::<CpuSet>(), &one) } != 0 {
            return None;
        }
        Some(cpu)
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn pin() -> Option<usize> {
        None
    }
}
