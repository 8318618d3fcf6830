//! Measurement and reporting utilities shared by all experiments.

use std::time::{Duration, Instant};

/// Global scale knob: 1.0 = laptop defaults, larger approaches paper scale
/// (20M-tuple Synthetic, 100-stock Stock, 4.2M-row Sensor).
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub f64);

impl Scale {
    /// Scale a base count, with a floor to keep experiments meaningful.
    pub fn tuples(&self, base: usize) -> usize {
        ((base as f64 * self.0) as usize).max(1_000)
    }

    /// Scale a small count (stocks, indexes) with a floor of 1.
    pub fn count(&self, base: usize) -> usize {
        ((base as f64 * self.0) as usize).max(1)
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale(1.0)
    }
}

/// Run `op(i)` repeatedly until `budget` elapses (at least `min_iters`,
/// at most `max_iters`), returning throughput in operations/second.
pub fn measure_ops_with(
    budget: Duration,
    min_iters: usize,
    max_iters: usize,
    mut op: impl FnMut(usize),
) -> f64 {
    let start = Instant::now();
    let mut iters = 0usize;
    while iters < max_iters && (iters < min_iters || start.elapsed() < budget) {
        op(iters);
        iters += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    if elapsed == 0.0 {
        return f64::INFINITY;
    }
    iters as f64 / elapsed
}

/// [`measure_ops_with`] with the default budget (300 ms, 20–10 000 iters).
pub fn measure_ops(op: impl FnMut(usize)) -> f64 {
    measure_ops_with(Duration::from_millis(300), 20, 10_000, op)
}

/// A `kB` field of `/proc/self/status` (`VmRSS:`, `VmHWM:`), in bytes;
/// `None` where the file or the field does not exist (off Linux).
pub fn proc_status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix(field))?;
    let kb: u64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

/// Reset the process's resident-set peak (`VmHWM`) to its resident set
/// (`VmRSS`), by writing `5` to `/proc/self/clear_refs`, so the next
/// reading of `VmHWM` is the peak since now. False where that is not
/// supported.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Print a section header the way the harness output is organized.
pub fn section(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

/// Print one row of `name = value` pairs, tab-separated.
pub fn row(cells: &[(&str, String)]) {
    let line: Vec<String> = cells.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("{}", line.join("\t"));
}

/// Format ops/sec as the paper does (K ops or M ops).
pub fn fmt_ops(ops: f64) -> String {
    if ops >= 1.0e6 {
        format!("{:.2} M ops", ops / 1.0e6)
    } else if ops >= 1.0e3 {
        format!("{:.2} K ops", ops / 1.0e3)
    } else {
        format!("{ops:.2} ops")
    }
}

/// Format bytes as MB with two decimals.
pub fn fmt_mb(bytes: usize) -> String {
    format!("{:.2} MB", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_floors() {
        assert_eq!(Scale(0.0001).tuples(100_000), 1_000);
        assert_eq!(Scale(2.0).tuples(100_000), 200_000);
        assert_eq!(Scale(0.01).count(10), 1);
    }

    #[test]
    fn measure_counts_iterations() {
        let mut n = 0;
        let ops = measure_ops_with(Duration::from_millis(10), 5, 100, |_| n += 1);
        assert!(n >= 5);
        assert!(ops > 0.0);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_ops(1_500.0), "1.50 K ops");
        assert_eq!(fmt_ops(2_000_000.0), "2.00 M ops");
        assert_eq!(fmt_ops(10.0), "10.00 ops");
        assert_eq!(fmt_mb(1024 * 1024), "1.00 MB");
    }
}
