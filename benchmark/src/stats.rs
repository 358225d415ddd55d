//! Exact-sample statistics and the process counters the harness reads from
//! `/proc` (CPU ticks, peak resident set).

/// Median with quartiles over the repetitions of one metric.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub n: usize,
}

/// Value at quantile `q` of an ascending slice (nearest rank).
pub fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn summarize(values: &[f64]) -> Summary {
    if values.is_empty() {
        return Summary::default();
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    let median = if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 };
    Summary { median, p25: quantile(&v, 0.25), p75: quantile(&v, 0.75), n: v.len() }
}

pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Microseconds per `/proc/self/stat` tick: Linux reports process CPU in
/// `USER_HZ` units, which is 100 on every supported architecture.
pub const TICK_US: f64 = 10_000.0;

/// Process CPU so far as `(user, system)` ticks, all threads.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields count from its ")".
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let mut fields = rest.split(' ').skip(11);
    let mut next = || fields.next().and_then(|f| f.parse().ok()).expect("stat cpu field");
    (next(), next())
}

/// A resident-set line of `/proc/self/status` in MB: `VmRSS` (now) or
/// `VmHWM` (the process's high-water mark).
pub fn rss_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| {
            l.strip_prefix(field)?.strip_prefix(':')?.split_whitespace().next()?.parse().ok()
        })
        .expect("resident set size in /proc/self/status");
    kb / 1024.0
}

/// Restarts the process's resident-set high-water mark (`VmHWM`) from its
/// current size, so what is read later covers only what ran in between.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}
