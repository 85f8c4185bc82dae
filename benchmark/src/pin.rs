//! Pins the benchmark process to one CPU.
//!
//! On the 2-vCPU sandbox a closed-loop loopback query hands off between four
//! threads. Left to the scheduler, a run lands in one of two modes for its
//! whole length — hand-offs on one CPU (≈ 45 µs per `net_point` query) or
//! across CPUs, where every wake-up is an inter-processor interrupt to a
//! halted vCPU that the hypervisor must schedule (≈ 150 µs) — and which mode
//! is decided by thread placement at start-up, not by the program. Pinning
//! makes every run the first mode, so the numbers are the program's CPU work
//! and context switches. The price, stated in the README: no two threads of
//! the program ever run at the same instant, so a change that adds or
//! removes parallelism shows only as CPU work saved or spent.

/// Restricts the calling thread — and every thread it spawns afterwards —
/// to the first CPU its affinity mask allows. Returns that CPU, or `None`
/// when the mask could not be read or set (the run then proceeds unpinned
/// and says so in its report).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    // glibc's cpu_set_t: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the
    // `cpusetsize` bytes passed; pid 0 names the calling thread; the kernel
    // writes at most `cpusetsize` bytes into it.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().find(|(_, bits)| **bits != 0)?;
    let bit = bits.trailing_zeros() as usize;
    let mut only = [0u64; WORDS];
    only[word] = 1 << bit;
    // SAFETY: `only` is a live buffer of exactly the `cpusetsize` bytes
    // passed, which the kernel only reads; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&only), only.as_ptr()) };
    (rc == 0).then_some(word * 64 + bit)
}

/// Other platforms have no affinity call here; the run proceeds unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
