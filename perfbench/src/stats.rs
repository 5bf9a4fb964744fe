//! Timing summaries, host metadata and the count determinism check.

use crate::Args;
use std::time::{Duration, Instant};

/// Sub-bucket bits of [`LatHist`]: buckets are 1/128 of their power
/// of two wide, so a percentile is within 0.8% before interpolation.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;

/// Samples kept exactly; past this many, quantiles come from the
/// histogram.
const RAW: usize = 1 << 13;

/// Latency samples: exact while few, then a log-linear histogram over
/// nanoseconds. Fixed size, so recording never allocates inside a
/// timed loop.
#[derive(Clone)]
pub struct LatHist {
    counts: Vec<u64>,
    raw: Vec<f64>,
    n: u64,
    sum_ns: f64,
}

impl LatHist {
    pub fn new() -> Self {
        LatHist { counts: vec![0; SUB * 48], raw: Vec::with_capacity(RAW), n: 0, sum_ns: 0.0 }
    }

    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let m = ((v >> (e - SUB_BITS)) as usize) & (SUB - 1);
        (((e - SUB_BITS + 1) as usize) * SUB + m).min(SUB * 48 - 1)
    }

    /// Lower bound and width of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        if i < SUB {
            return (i as f64, 1.0);
        }
        let k = i / SUB;
        let m = i % SUB;
        let shift = (k - 1) as i32;
        let lo = ((SUB + m) as f64) * 2f64.powi(shift);
        (lo, 2f64.powi(shift))
    }

    pub fn record(&mut self, d: Duration) {
        let ns = d.as_nanos() as u64;
        self.counts[Self::index(ns)] += 1;
        if self.raw.len() < RAW {
            self.raw.push(ns as f64);
        }
        self.n += 1;
        self.sum_ns += ns as f64;
    }

    pub fn merge(&mut self, other: &LatHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        let room = RAW - self.raw.len();
        self.raw.extend(other.raw.iter().take(room));
        self.n += other.n;
        self.sum_ns += other.sum_ns;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn sum_ns(&self) -> f64 {
        self.sum_ns
    }

    /// The `q` quantile in nanoseconds: exact over the samples while
    /// all are kept, else interpolated by rank inside its bucket.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.n as usize == self.raw.len() {
            return quantile(&self.raw, q);
        }
        let rank = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (before + c) as f64 > rank {
                let (lo, w) = Self::bounds(i);
                return lo + w * ((rank - before as f64 + 0.5) / c as f64).min(1.0);
            }
            before += c;
        }
        0.0
    }
}

/// Throughput as the median over chunks of `per_chunk` consecutive
/// operations of (operations / busy time): a transient stall moves
/// one chunk, not the figure.
pub struct ChunkRate {
    per_chunk: u64,
    ops: u64,
    busy: Duration,
    rates: Vec<f64>,
}

impl ChunkRate {
    pub fn new(per_chunk: u64) -> Self {
        ChunkRate { per_chunk, ops: 0, busy: Duration::ZERO, rates: Vec::with_capacity(4096) }
    }

    pub fn record(&mut self, ops: u64, busy: Duration) {
        self.ops += ops;
        self.busy += busy;
        if self.ops >= self.per_chunk {
            self.rates.push(self.ops as f64 / self.busy.as_secs_f64().max(1e-12));
            self.ops = 0;
            self.busy = Duration::ZERO;
        }
    }

    /// Median chunk rate in operations per second.
    pub fn median(&self) -> f64 {
        median(&self.rates)
    }

    pub fn chunks(&self) -> u64 {
        self.rates.len() as u64
    }
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of a small sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median wall time of `f` over `n` runs, keeping the last result.
pub fn median_setup<T>(n: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t0 = Instant::now();
        let v = f();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Load and CPU-time counters at one instant.
pub struct HostSample {
    loadavg: String,
    steal: u64,
    total: u64,
}

impl HostSample {
    pub fn now() -> Self {
        let loadavg = std::fs::read_to_string("/proc/loadavg")
            .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
            .unwrap_or_default();
        let (mut steal, mut total) = (0, 0);
        if let Ok(stat) = std::fs::read_to_string("/proc/stat") {
            if let Some(cpu) = stat.lines().find(|l| l.starts_with("cpu ")) {
                let v: Vec<u64> =
                    cpu.split_whitespace().skip(1).filter_map(|x| x.parse().ok()).collect();
                total = v.iter().sum();
                steal = v.get(7).copied().unwrap_or(0);
            }
        }
        HostSample { loadavg, steal, total }
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit under test: `git rev-parse HEAD` where the checkout is a
/// repository, else a digest of the benchmark binary.
fn commit() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    match git {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => format!("binary-{:016x}", exe_digest()),
    }
}

/// FNV-1a over the running executable, identifying the build.
fn exe_digest() -> u64 {
    let bytes = std::env::current_exe().and_then(std::fs::read).unwrap_or_default();
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

pub fn host_json(start: &HostSample, end: &HostSample) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dt = end.total.saturating_sub(start.total).max(1);
    let steal_frac = end.steal.saturating_sub(start.steal) as f64 / dt as f64;
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"commit\": {}, \
         \"loadavg_start\": {}, \"loadavg_end\": {}, \
         \"steal_ticks_start\": {}, \"steal_ticks_end\": {}, \"steal_frac\": {}}}",
        crate::json_str(&cpu_model()),
        crate::json_str(&commit()),
        crate::json_str(&start.loadavg),
        crate::json_str(&end.loadavg),
        start.steal,
        end.steal,
        crate::json_num(steal_frac),
    )
}

/// Compare this run's count metrics with the previous traced run of
/// the same workload, seed and binary, recorded under the build
/// directory. Returns how many counts moved; each is named on stderr.
pub fn check_counts(args: &Args, metrics: &[(&'static str, f64, &'static str)]) -> usize {
    let counts: String = metrics
        .iter()
        .filter(|m| m.2 == "count" && m.0 != "determinism.count_mismatches")
        .map(|(n, v, _)| format!("{n}={v}\n"))
        .collect();
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into()),
    )
    .join("perfbench-counts");
    let path = dir.join(format!("{}-{}-{:016x}.txt", args.workload, args.seed, exe_digest()));
    let mut moved = 0;
    match std::fs::read_to_string(&path) {
        Ok(prev) => {
            for (a, b) in prev.lines().zip(counts.lines()) {
                if a != b {
                    eprintln!("COUNT MOVED between runs with seed {}: {a} -> {b}", args.seed);
                    moved += 1;
                }
            }
        }
        Err(_) => {
            if std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, &counts)).is_err() {
                eprintln!("note: could not record counts at {}", path.display());
            }
        }
    }
    moved
}
