//! Order statistics, digests and metric-name rules shared by every workload.

/// Percentile rungs a tail may be reported at, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported percentile, so a tail is never
/// the single slowest sample.
pub const MIN_BEYOND: usize = 10;

/// The highest rung of [`TAIL_LADDER`] with at least [`MIN_BEYOND`] of `n`
/// samples beyond it, or `None` when even the median has fewer. Each
/// workload's fixed tail rung was chosen with it; reports give it beside the
/// fixed rung so an undersampled tail shows.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Samples of `n` that lie beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// 1-based nearest rank of percentile `p` among `n > 0` samples. The small
/// slack keeps `0.9 * 100` from rounding up to rank 91.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
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

/// A latency distribution summarized as its median and its tail at a
/// fixed percentile, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
}

impl Dist {
    pub fn at(values: &[f64], tail_pct: f64) -> Dist {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Dist {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0),
            tail: percentile(&sorted, tail_pct),
            tail_pct,
        }
    }

    /// Fewer than [`MIN_BEYOND`] samples lie beyond the tail.
    pub fn undersampled(&self) -> bool {
        beyond(self.n, self.tail_pct) < MIN_BEYOND
    }

    pub fn to_json(self) -> serde::Value {
        obj(vec![
            ("n", int(self.n as u64)),
            ("p50", num(self.p50)),
            ("tail", num(self.tail)),
            ("tail_percentile", num(self.tail_pct)),
            ("beyond_tail", int(beyond(self.n, self.tail_pct) as u64)),
            ("highest_supported_percentile", num(tail_percentile(self.n).unwrap_or(0.0))),
            ("undersampled", serde::Value::Bool(self.undersampled())),
        ])
    }
}

/// `part / whole`, or 0 when nothing was counted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Metric names are `[A-Za-z0-9_.-]`, at most 64 long, and start with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// 64-bit FNV-1a, folded incrementally so a digest can cover a stream.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Field separator, so ("ab", "c") and ("a", "bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// SplitMix64: the benchmark's own seeded stream, so its inputs depend only
/// on `--seed` and not on any RNG the program under test ships.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x5eed_1a7e_b00c_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

pub fn num(x: f64) -> serde::Value {
    serde::Value::Float(if x.is_finite() { x } else { 0.0 })
}

pub fn int(x: u64) -> serde::Value {
    serde::Value::Int(x as i64)
}

pub fn text(s: impl Into<String>) -> serde::Value {
    serde::Value::Str(s.into())
}

pub fn obj(fields: Vec<(&str, serde::Value)>) -> serde::Value {
    serde::Value::Map(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Share of CPU time the hypervisor withheld from this machine between two
/// `/proc/stat` readings, in percent; a slow-machine stretch shows here.
pub fn steal_pct(before: &[u64], after: &[u64]) -> f64 {
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a.saturating_sub(*b)).collect();
    let total: u64 = delta.iter().sum();
    100.0 * ratio(delta.get(7).copied().unwrap_or(0) as f64, total as f64)
}

/// The aggregate `cpu` line of `/proc/stat` (user, nice, system, idle,
/// iowait, irq, softirq, steal, ...), or empty where unavailable.
pub fn cpu_times() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines().next().map(|l| l.split_whitespace().skip(1).filter_map(|x| x.parse().ok()).collect())
        })
        .unwrap_or_default()
}

/// What [`machine_probe_ms`] reads on the reference machine (2 vCPUs of a
/// shared host) when its other tenants leave it fastest.
pub const PROBE_REF_MS: f64 = 20.0;

/// How many times slower than the reference the machine ran, by a probe
/// reading: a rate measured at that speed is multiplied by it to give the
/// rate at the reference speed, and a time is divided by it.
pub fn speed_factor(probe_ms: f64) -> f64 {
    probe_ms / PROBE_REF_MS
}

/// Median milliseconds of three fixed, seeded sorts of 2^20 integers: the
/// same work on every run, so a slower reading means a slower machine, not
/// a slower program.
pub fn machine_probe_ms() -> f64 {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let mut rng = SplitMix::new(0x9e37);
            let mut v: Vec<u64> = (0..1 << 20).map(|_| rng.next_u64()).collect();
            let t = std::time::Instant::now();
            v.sort_unstable();
            std::hint::black_box(&v);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_rung_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(1_000_000), Some(99.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let d = Dist::at(&v.iter().rev().copied().collect::<Vec<_>>(), 90.0);
        assert_eq!((d.n, d.p50, d.tail, d.tail_pct), (100, 50.0, 90.0, 90.0));
        assert!(!d.undersampled());
        // the rung stays fixed when the sample is too small for it, and says so
        let d = Dist::at(&v, 99.0);
        assert_eq!((d.tail, d.tail_pct), (99.0, 99.0));
        assert!(d.undersampled());
        assert_eq!((beyond(100, 99.0), beyond(100, 90.0), beyond(0, 50.0)), (1, 10, 0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn name_charset() {
        for ok in ["setup_s", "minidb.exec_s.interpreter", "http.overhead_us.p50", "a-b", "9x"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "µs", "x:y", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn fnv_separates_fields_and_is_stable() {
        let digest = |parts: &[&str]| {
            let mut f = Fnv::default();
            parts.iter().for_each(|p| f.add(p.as_bytes()));
            f.hex()
        };
        assert_ne!(digest(&["ab", "c"]), digest(&["a", "bc"]));
        assert_eq!(digest(&["x"]), digest(&["x"]));
    }

    #[test]
    fn splitmix_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(42);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = SplitMix::new(42);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        let mut r = SplitMix::new(43);
        assert_ne!(a[0], r.next_u64());
        let mut r = SplitMix::new(1);
        assert!((0..1000).all(|_| r.below(7) < 7));
    }
}
