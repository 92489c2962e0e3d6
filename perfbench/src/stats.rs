//! Small measurement helpers: exact percentiles, medians, and the Linux
//! `/proc` readers for CPU time and peak memory.

/// The `q`-quantile (0..=1) of `v` by the nearest-rank method, sorting `v`
/// in place; 0 for an empty sample.
pub fn quantile(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of `v` (mean of the middle pair for an even count); 0 for
/// an empty sample.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// The smallest of `v`; 0 for an empty sample. Used for the time or CPU
/// a repetition took: interference from other work on a shared host only
/// ever adds to it, so the least-disturbed repetition is the steadiest
/// estimate of the program's own cost (Chen and Revels, "Robust
/// benchmarking in noisy environments", 2016), where a median still
/// follows how busy the host was for most of the run.
pub fn least(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// CPU time of the whole process (all threads, live and exited) in
/// nanoseconds, from `/proc/self/stat` (clock-tick resolution).
pub fn process_cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, 12 and 13 after the name.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    let ticks = f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0);
    // USER_HZ is 100 on every Linux architecture this runs on.
    ticks * 10_000_000
}

/// On-CPU nanoseconds of thread `tid` of this process, from its
/// `schedstat` (0 if unreadable).
pub fn thread_cpu_ns(tid: u64) -> u64 {
    read_schedstat(&format!("/proc/self/task/{tid}/schedstat"))
}

/// On-CPU nanoseconds of the calling thread, from
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`, which brings the count up to
/// date first; a thread's own `schedstat` lags by up to a scheduler tick,
/// too coarse for the millisecond slices the simulator workloads time.
pub fn this_thread_cpu_ns() -> u64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec`, the only memory
    // the call writes; the clock id is Linux's for the calling thread.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

fn read_schedstat(path: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Resets the process's peak resident set size to its current size, so
/// the next [`peak_rss_mb`] covers one repetition (a no-op where
/// `/proc/self/clear_refs` is not writable).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// Worker threads the machine offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(quantile(&mut v, 1.0), 100);
        assert_eq!(quantile(&mut [], 0.5), 0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(least(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(least(&[]), 0.0);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        // A thread's schedstat is brought up to date when it is switched
        // out; burn a little CPU and sleep once first.
        let spin: u64 = (0..1_000_000u64).map(std::hint::black_box).sum();
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(spin > 0);
        assert!(this_thread_cpu_ns() > 0);
        assert!(nproc() >= 1);
    }
}
