//! Order statistics and the `/proc` readers the benchmark samples the
//! process and the host with.

use std::time::Duration;

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice, so a missing sample can never pass for a
/// measurement.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in `0.0..=1.0`) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(max − min) / median`: the run-to-run spread the report prints next
/// to every median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 || m.is_nan() {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m.abs()
}

/// Kernel clock ticks per second for `/proc/*/stat` times. Linux has
/// fixed `USER_HZ` at 100 on every architecture since 2.6.
const USER_HZ: f64 = 100.0;

/// User + system CPU time out of a `/proc/<pid>/stat` line. The command
/// name (field 2) may itself contain spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<Duration> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Duration::from_secs_f64((utime + stime) as f64 / USER_HZ))
}

/// A `kB` field of `/proc/<pid>/status` (`VmRSS:`, `VmHWM:`) in MiB.
pub fn parse_status_mb(status: &str, field: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(steal, total)` jiffies of the aggregate `cpu` line of `/proc/stat`.
pub fn parse_host_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_ascii_whitespace()
        .skip(1)
        .map_while(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// CPU time this process has consumed so far (all threads, user + system).
pub fn process_cpu() -> Duration {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu(&s))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

fn process_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_mb(&s, field))
        .expect("/proc/self/status carries VmRSS and VmHWM on Linux")
}

/// Resident set of this process right now, in MiB.
pub fn process_rss_mb() -> f64 {
    process_status_mb("VmRSS:")
}

/// Peak resident set of this process so far, in MiB.
pub fn process_peak_rss_mb() -> f64 {
    process_status_mb("VmHWM:")
}

/// Host steal counters now; pair two readings with [`steal_pct`].
pub fn host_steal() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_host_steal(&s))
        .unwrap_or((0, 0))
}

/// Share of host CPU time stolen by the hypervisor between two
/// [`host_steal`] readings, in percent.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 0.999), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[42.0], 0.99), 42.0);
        assert!(percentile_sorted(&[], 0.5).is_nan());
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[90.0, 100.0, 110.0]), 0.2);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        // comm = "a) b (c", utime = 250 ticks, stime = 50 ticks.
        let line = "4242 (a) b (c) S 1 4242 4242 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 9 0 1 2 3";
        assert_eq!(parse_stat_cpu(line), Some(Duration::from_secs(3)));
        assert_eq!(parse_stat_cpu("no parenthesis here"), None);
        assert_eq!(parse_stat_cpu("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_fields_are_reported_in_mib() {
        let status = "Name:\tbench\nVmPeak:\t  999999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_mb(status, "VmHWM:"), Some(200.0));
        assert_eq!(parse_status_mb(status, "VmRSS:"), Some(1.0));
        assert_eq!(parse_status_mb("Name:\tbench\n", "VmHWM:"), None);
    }

    #[test]
    fn host_steal_reads_the_aggregate_line_only() {
        let stat = "cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\nintr 1\n";
        assert_eq!(parse_host_steal(stat), Some((35, 1000)));
        assert_eq!(steal_pct((35, 1000), (85, 2000)), 5.0);
        assert_eq!(steal_pct((35, 1000), (35, 1000)), 0.0);
        assert_eq!(parse_host_steal("cpu0 1 2 3\n"), None);
    }

    #[test]
    fn live_proc_readers_return_plausible_values() {
        // Other tests allocate meanwhile: read the peak last.
        let now = process_rss_mb();
        assert!(now > 0.1 && process_peak_rss_mb() >= now);
        let before = process_cpu();
        let mut x = 0u64;
        while process_cpu() == before {
            for i in 0..1_000_000u64 {
                x = x.wrapping_mul(31).wrapping_add(i);
            }
            std::hint::black_box(x);
        }
    }
}
