//! Small shared pieces: the seeded input generator, the output digest,
//! sample distributions with the tail-refusal rule, set-up timing and
//! peak memory.

use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's own seeded generator. Inputs are derived
/// from `--seed` through this, never through the program's RNG, so a
/// change to the program cannot change what it is fed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream for one input family.
    pub fn split(&self, salt: u64) -> Self {
        let mut r = Rng(self.0 ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

/// FNV-1a over 64-bit words: the digest of a run's sim-time results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }
}

/// Host-time samples of one kind of step, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Dist(Vec<f64>);

impl Dist {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> u64 {
        self.0.len() as u64
    }

    /// Nearest-rank quantile, or `None` when fewer than ten samples lie
    /// beyond it: a tail figure resting on a handful of samples is noise.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.0.len();
        if n == 0 || (q > 0.5 && (n as f64) * (1.0 - q) < 10.0) {
            return None;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(v[rank - 1])
    }

    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// Set-up timings repeated across a run, not only at its start, so their
/// median samples the machine's slow and fast phases alike.
#[derive(Debug)]
pub struct SetupClock {
    times: Dist,
    last: Instant,
}

impl SetupClock {
    /// Repeat the set-up about this often while the run measures.
    const EVERY: Duration = Duration::from_secs(1);

    pub fn new() -> Self {
        SetupClock {
            times: Dist::default(),
            last: Instant::now(),
        }
    }

    /// Runs and times one set-up.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let built = setup();
        self.times.push(t.elapsed().as_secs_f64());
        self.last = Instant::now();
        built
    }

    /// Runs, times and drops one more set-up if a repetition is due.
    pub fn maybe_repeat<T>(&mut self, setup: impl FnOnce() -> T) {
        if self.last.elapsed() >= Self::EVERY {
            drop(self.time(setup));
        }
    }

    /// The median set-up time in seconds, and how many it rests on.
    pub fn median(&self) -> (f64, u64) {
        (self.times.median().unwrap_or(f64::NAN), self.times.len())
    }
}

/// The process's peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
