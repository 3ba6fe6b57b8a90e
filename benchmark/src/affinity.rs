//! Confines the process to the number of CPUs its workload pins.
//!
//! A workload names its CPU count like it names its client count, so that a
//! result does not depend on how many CPUs the host happens to have. The
//! 1-client workloads whose query is a chain of short hops (client → socket
//! → front → store and back, 5 to 119 times) run on one CPU: on two, every
//! hop wakes an idle CPU, and on a virtual machine that wake-up costs as
//! much as all the code on the path and drifts with the host from minute to
//! minute (`lm-rounds`: 16–22 ms on two CPUs, 8.4–9.0 ms on one, same
//! binary). The sweep workloads run on two, so that a sweep split across
//! threads can show, and `pi-scan` differs from `pi-scan-x2` in the client
//! count alone.
//!
//! The confinement is applied once, before any thread is spawned, and
//! covers the whole process: build, front, clients and oracle. A run that
//! cannot be confined fails; it does not fall back to the whole host.

/// A CPU mask as `sched_getaffinity` fills it: 1024 bits, glibc's `cpu_set_t`.
#[derive(Clone, PartialEq, Debug)]
pub struct CpuSet([u64; 16]);

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

impl CpuSet {
    /// The CPUs the calling thread may run on, or `None` where that cannot
    /// be asked.
    pub fn current() -> Option<CpuSet> {
        #[cfg(target_os = "linux")]
        {
            let mut set = CpuSet([0; 16]);
            // SAFETY: the pointer is to `size_of_val(&set.0)` writable bytes
            // owned by `set`, which is the size passed; pid 0 is this thread.
            let rc =
                unsafe { sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
            (rc == 0 && set.count() > 0).then_some(set)
        }
        #[cfg(not(target_os = "linux"))]
        None
    }

    /// Restricts the calling thread, and every thread it spawns from now
    /// on, to this set. `false` if the system refused.
    pub fn apply(&self) -> bool {
        #[cfg(target_os = "linux")]
        {
            // SAFETY: the pointer is to `size_of_val(&self.0)` readable bytes
            // of `self`, which is the size passed; pid 0 is this thread.
            unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) == 0 }
        }
        #[cfg(not(target_os = "linux"))]
        false
    }

    pub fn count(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The `n` lowest-numbered CPUs of this set (all of it if it has fewer).
    pub fn first(&self, n: usize) -> CpuSet {
        let mut out = CpuSet([0; 16]);
        let mut left = n;
        for (word, kept) in self.0.iter().zip(out.0.iter_mut()) {
            for bit in 0..64 {
                if left > 0 && word & (1 << bit) != 0 {
                    *kept |= 1 << bit;
                    left -= 1;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_takes_the_lowest_cpus_of_the_set() {
        let mut set = CpuSet([0; 16]);
        set.0[0] = 0b1011_0100;
        set.0[2] = 0b1;
        assert_eq!(set.count(), 5);
        assert_eq!(set.first(1).0[0], 0b100);
        assert_eq!(set.first(3).0[0], 0b11_0100);
        let all = set.first(9);
        assert_eq!(all, set);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn confining_and_releasing_this_thread_round_trips() {
        let Some(all) = CpuSet::current() else {
            return; // a sandbox that hides the mask: nothing to check
        };
        let one = all.first(1);
        assert_eq!(one.count(), 1);
        if one.apply() {
            assert_eq!(CpuSet::current(), Some(one));
            assert!(all.apply());
            assert_eq!(CpuSet::current(), Some(all));
        }
    }
}
