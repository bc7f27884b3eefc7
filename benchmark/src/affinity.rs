//! Confining the benchmark's process to one CPU.
//!
//! The cluster workloads run six or more communicating threads (workers,
//! copiers, pollers) on a two-core host. Left to the scheduler, their
//! placement flips between sticky arrangements whose throughput differs by
//! up to 2x for seconds at a time, so two runs of the same code disagree
//! by more than any bound a regression gate could use. On one CPU there
//! is no placement to flip: the run measures the CPU work per edge or per
//! job — which is what a later change to the code alters — and repeats
//! within a few percent. It does not measure parallel speed-up: on a
//! shared two-core host that cannot be measured steadily (`local_pull`
//! with two workers on two cores spread 19 % and 28 % over ten runs, a
//! job being as slow as the more disturbed of its two cores), so
//! `local_pull` runs one worker and is confined like the rest.
//!
//! The standard library has no affinity call and the build is offline, so
//! this is the one place the benchmark talks to the kernel directly.

/// Restricts the calling thread — and every thread it spawns afterwards —
/// to the lowest-numbered CPU it is currently allowed on. Returns the CPU,
/// or `None` where the call is unavailable or refused (the run then
/// proceeds unconfined, and says so).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn confine_to_one_cpu() -> Option<usize> {
    const SYS_SCHED_SETAFFINITY: isize = 203;
    const SYS_SCHED_GETAFFINITY: isize = 204;
    /// Bits in the mask: more CPUs than any host this runs on.
    const WORDS: usize = 16;

    /// `syscall(nr, 0, WORDS * 8, mask)`: pid 0 is the calling thread.
    fn affinity_call(nr: isize, mask: *mut u64) -> isize {
        let ret: isize;
        // SAFETY: both calls take (pid, byte length, pointer to a CPU mask
        // of that length). `mask` points to `WORDS` live, writable `u64`s
        // owned by the caller for the whole call; getaffinity writes at
        // most the given length, setaffinity only reads. The `syscall`
        // instruction clobbers rcx and r11, declared below; it touches no
        // stack memory and no other state of this program.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") nr => ret,
                in("rdi") 0usize,
                in("rsi") WORDS * 8,
                in("rdx") mask,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    let mut allowed = [0u64; WORDS];
    if affinity_call(SYS_SCHED_GETAFFINITY, allowed.as_mut_ptr()) <= 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().find(|(_, w)| **w != 0)?;
    let bit = bits.trailing_zeros() as usize;
    let mut one = [0u64; WORDS];
    one[word] = 1 << bit;
    (affinity_call(SYS_SCHED_SETAFFINITY, one.as_mut_ptr()) == 0).then_some(word * 64 + bit)
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn confine_to_one_cpu() -> Option<usize> {
    None
}

#[cfg(all(test, target_os = "linux", target_arch = "x86_64"))]
mod tests {
    use super::*;

    /// Runs on a thread of its own so the test harness's other threads
    /// keep their affinity.
    #[test]
    fn confinement_is_inherited_by_spawned_threads() {
        let cpus_allowed = || {
            let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
            status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_string())
                .unwrap()
        };
        std::thread::spawn(move || {
            let cpu = confine_to_one_cpu().expect("affinity calls work on linux/x86_64");
            assert_eq!(cpus_allowed(), cpu.to_string());
            let child = std::thread::spawn(cpus_allowed).join().unwrap();
            assert_eq!(child, cpu.to_string());
        })
        .join()
        .unwrap();
    }
}
