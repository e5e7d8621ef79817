//! Process and host counters read from outside the program under test:
//! `getrusage` for CPU time and context switches, `/proc/self` for the
//! resident-set high-water mark, and `/proc/stat` for the steal share.

use std::os::raw::{c_int, c_long};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    ru_ixrss: c_long,
    ru_idrss: c_long,
    ru_isrss: c_long,
    ru_minflt: c_long,
    ru_majflt: c_long,
    ru_nswap: c_long,
    ru_inblock: c_long,
    ru_oublock: c_long,
    ru_msgsnd: c_long,
    ru_msgrcv: c_long,
    ru_nsignals: c_long,
    ru_nvcsw: c_long,
    ru_nivcsw: c_long,
}

const RUSAGE_SELF: c_int = 0;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn malloc_trim(pad: usize) -> c_int;
}

/// CPU time and voluntary context switches of the whole process, exited
/// threads included, at microsecond resolution (never clock ticks).
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub cpu_s: f64,
    pub vol_ctx_switches: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut usage = Rusage::default();
        // SAFETY: `usage` is a live, writable `struct rusage` with the Linux
        // layout, and RUSAGE_SELF is a valid `who`; the call writes only it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid buffer");
        let seconds = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
        Usage {
            cpu_s: seconds(&usage.ru_utime) + seconds(&usage.ru_stime),
            vol_ctx_switches: usage.ru_nvcsw as u64,
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            cpu_s: self.cpu_s - earlier.cpu_s,
            vol_ctx_switches: self.vol_ctx_switches - earlier.vol_ctx_switches,
        }
    }
}

/// Resets the process's `VmHWM` to its current resident set, so the next
/// reading is the peak of what runs after this call. Freed heap pages are
/// returned to the kernel first, so that set is the live data only and
/// does not depend on how set-up happened to fragment the heap.
pub fn reset_peak_rss() -> std::io::Result<()> {
    // SAFETY: malloc_trim only releases free memory held by the allocator;
    // it touches no live allocation and takes no pointer.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
}

/// `VmHWM` in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    twoface_core::peak_rss_bytes().map(|bytes| bytes as f64 / (1u64 << 20) as f64)
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`:
/// `(steal, total)` where total sums user through steal.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    pub fn now() -> Option<CpuTimes> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        let steal = *fields.get(7)?;
        Some(CpuTimes { steal, total: fields.iter().sum() })
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_frac_since(self, earlier: CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}
