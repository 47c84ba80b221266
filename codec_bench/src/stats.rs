//! The benchmark's own arithmetic and process probes: quantiles with
//! their sample counts, process CPU time and peak RSS, and a stable
//! digest for output checks.

use std::fs;

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted values;
/// NaN for an empty slice. Matches NumPy's default and R's type 7.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Arithmetic mean; NaN for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median of unsorted values; NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A timing as the report gives it: the median, the highest of
/// p90/p99/p99.9 that still has at least ten samples beyond it, and
/// the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Samples behind the figures.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// `(percentile, value)` of the deepest tail with ≥ 10 samples
    /// beyond it; `None` when fewer than 100 samples.
    pub tail: Option<(f64, f64)>,
}

impl Timing {
    /// Summarizes `values` (seconds or any unit).
    pub fn of(values: &[f64]) -> Timing {
        let n = values.len();
        let tail = [99.9, 99.0, 90.0]
            .into_iter()
            .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
            .map(|p| (p, quantile(values, p / 100.0)));
        Timing {
            n,
            p50: median(values),
            tail,
        }
    }

    /// One-line rendering for the human-readable report.
    pub fn render(&self) -> String {
        match self.tail {
            Some((p, v)) => format!("p50 {:.6} p{p} {:.6} (n = {})", self.p50, v, self.n),
            None => format!(
                "p50 {:.6} (n = {}; too few samples for a tail)",
                self.p50, self.n
            ),
        }
    }
}

/// User + system CPU seconds of this process so far (all threads),
/// from `/proc/self/stat` (clock ticks of 1/100 s).
pub fn process_cpu_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    parse_cpu_ticks(&stat).map(|ticks| ticks as f64 / 100.0)
}

/// utime + stime (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name may hold spaces and parentheses, so fields are counted
/// from the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field 14 is index 11.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size of this process (VmHWM) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status_kib(&status, "VmHWM:").map(|kib| kib as f64 / 1024.0)
}

/// The kB value of one `/proc/self/status` line.
fn status_kib(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// FNV-1a, 64-bit: a stable digest for recorded output checks.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Feeds 32-bit words (little-endian).
    pub fn words(&mut self, words: &[u32]) -> &mut Self {
        for w in words {
            self.bytes(&w.to_le_bytes());
        }
        self
    }

    /// Feeds the exact bit patterns of floats.
    pub fn floats(&mut self, values: &[f64]) -> &mut Self {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
        self
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Digest of one float image (code images of decoded frames).
pub fn image_digest(pixels: &[f64]) -> u64 {
    Digest::default().floats(pixels).value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_like_type_7() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn timing_reports_a_tail_only_with_ten_samples_beyond_it() {
        let few: Vec<f64> = (1..=99).map(f64::from).collect();
        let t = Timing::of(&few);
        assert_eq!(t.n, 99);
        assert_eq!(t.p50, 50.0);
        assert_eq!(t.tail, None);

        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = Timing::of(&hundred);
        assert_eq!(t.tail.map(|(p, _)| p), Some(90.0));
        assert!((t.tail.unwrap().1 - 90.1).abs() < 1e-9);

        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(Timing::of(&thousand).tail.map(|(p, _)| p), Some(99.0));
        let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(Timing::of(&many).tail.map(|(p, _)| p), Some(99.9));
    }

    #[test]
    fn cpu_ticks_parse_past_a_command_name_with_spaces() {
        let line = "42 (a b) c) S 1 1 1 0 -1 4194560 100 0 0 0 250 17 0 0 20 0 3 0";
        assert_eq!(parse_cpu_ticks(line), Some(267));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn status_lines_parse_in_kib() {
        let status = "Name:\tx\nVmHWM:\t  2048 kB\nVmRSS:\t1024 kB\n";
        assert_eq!(status_kib(status, "VmHWM:"), Some(2048));
        assert_eq!(status_kib(status, "VmSwap:"), None);
    }

    #[test]
    fn probes_read_this_process() {
        assert!(process_cpu_s().is_some_and(|s| s >= 0.0));
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(Digest::default().value(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Digest::default().bytes(b"a").value(), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(image_digest(&[0.0]), image_digest(&[-0.0]));
    }
}
