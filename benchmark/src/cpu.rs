//! Pinning the benchmark to one CPU.
//!
//! A closed-loop connection keeps one thread busy at a time: its client
//! or its daemon worker. Left to the scheduler, a run settled for its
//! whole length with the two on one CPU or on two, and which one it got
//! varied from run to run. On two, every request paid two cross-CPU
//! wake-ups, which on a 2-CPU virtual machine nearly halved
//! small-instance throughput. One CPU for everything removes that mode.
//! Affinity is inherited, so pinning the benchmark before it starts any
//! thread or process pins the client and every daemon it launches too.

use std::io;
use std::mem::size_of_val;

/// Room for 1024 CPUs, the size of glibc's `cpu_set_t`.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The highest-numbered CPU set in `mask`.
fn last_cpu(mask: &CpuSet) -> Option<usize> {
    (0..mask.len() * 64)
        .rev()
        .find(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
}

/// Restricts the calling thread, and so everything it starts later, to
/// the highest-numbered CPU it may run on, and returns that CPU.
pub fn pin_to_one() -> io::Result<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = last_cpu(&allowed).ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed, which
    // the call only reads; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_cpu_is_the_highest_set_bit() {
        let mut mask: CpuSet = [0; 16];
        assert_eq!(last_cpu(&mask), None);
        mask[0] = 0b11;
        assert_eq!(last_cpu(&mask), Some(1));
        mask[2] = 1 << 5;
        assert_eq!(last_cpu(&mask), Some(133));
    }
}
