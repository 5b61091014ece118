//! Small helpers: seeded shuffles, percentiles, peak memory.

use vcfr_gadget::splitmix64;

/// A seed derived from the workload seed and a salt.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut s = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    splitmix64(&mut s)
}

/// Fisher–Yates shuffle driven by `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut s = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix64(&mut s) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Linear-interpolated percentile `p` (0..=100); 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Pins glibc's mmap threshold at its initial 128 KiB. Left dynamic, the
/// threshold rises once a large block is freed, and how much freed memory
/// then stays resident depends on thread timing: the peak resident set of
/// a `serve` run swung between 27 and 39 MiB from run to run.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn steady_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only changes allocator tuning and is safe to call
    // at any time; it runs once, before this program spawns a thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn steady_allocator() {}

/// Restarts the peak-resident-set count, so the peak covers the measured
/// pass and not the repeated set-ups before it. Best effort: a kernel
/// without the `clear_refs` reset keeps the whole-process peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 when the
/// platform does not report it.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
