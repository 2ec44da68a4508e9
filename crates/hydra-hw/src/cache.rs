//! Set-associative cache simulation.
//!
//! Figure 10 and the client-side L2 numbers in the paper come from OProfile
//! hardware miss counters on a 256 kB L2. Here the workload models emit
//! address-level traces into a real set-associative LRU [`Cache`]; the
//! miss-rate *ratios* between scenarios (idle vs. copying server vs.
//! zero-copy vs. offloaded) emerge from which buffers each scenario
//! actually touches on the host.

use std::fmt;
use std::ops::RangeInclusive;

/// Whether an access reads or writes the line (writes mark it dirty; a
/// dirty eviction is counted as a write-back).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store.
    Write,
}

/// Result of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled (possibly evicting another).
    Miss,
}

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// The paper's host L2: 256 kB, 8-way, 64-byte lines.
    pub fn paper_l2() -> Self {
        CacheConfig {
            size_bytes: 256 * 1024,
            line_bytes: 64,
            ways: 8,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.size_bytes / self.line_bytes / self.ways
    }

    /// Validates the geometry.
    ///
    /// Sets are indexed by address bits, as in hardware: the set index is
    /// the line number's low bits and the tag the bits above them. That
    /// needs a power-of-two line size *and* a power-of-two set count.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: sizes must be
    /// non-zero, the line size a power of two, the capacity an exact
    /// multiple of `line_bytes * ways`, and the resulting set count a power
    /// of two.
    pub fn validate(&self) -> Result<(), String> {
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err(format!(
                "line_bytes {} must be a non-zero power of two",
                self.line_bytes
            ));
        }
        if self.ways == 0 {
            return Err("ways must be non-zero".into());
        }
        if self.size_bytes == 0 || !self.size_bytes.is_multiple_of(self.line_bytes * self.ways) {
            return Err(format!(
                "size_bytes {} must be a positive multiple of line_bytes*ways = {}",
                self.size_bytes,
                self.line_bytes * self.ways
            ));
        }
        if !self.sets().is_power_of_two() {
            return Err(format!(
                "set count {} (size_bytes / (line_bytes*ways)) must be a power of two",
                self.sets()
            ));
        }
        Ok(())
    }
}

/// One occupied way: which line it holds, and whether it was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    dirty: bool,
}

const EMPTY_LINE: Line = Line {
    tag: 0,
    dirty: false,
};

/// Access counters of a [`Cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction or flush.
    pub write_backs: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss fraction in `[0, 1]`; zero when no accesses occurred.
    pub fn miss_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A set-associative LRU cache model.
///
/// The lines live in one flat `sets × ways` array, set-major, and an
/// address is split into line number, set index and tag with shifts and
/// a mask (hence [`CacheConfig::validate`]'s power-of-two rule).
///
/// Each set keeps its occupied ways in recency order, most recent first,
/// followed by its empty ways. A hit moves its line to the front; a miss
/// shifts the set down one way, evicting the last line only if every way
/// was occupied, and puts the new line at the front. The last occupied
/// way is therefore always the least recently used line, which is the
/// victim a per-line timestamp would pick: every access gets a distinct
/// time, so a set's lines are totally ordered by recency.
///
/// # Examples
///
/// ```
/// use hydra_hw::cache::{AccessKind, AccessOutcome, Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig { size_bytes: 1024, line_bytes: 64, ways: 2 });
/// assert_eq!(c.access(0x100, AccessKind::Read), AccessOutcome::Miss);
/// assert_eq!(c.access(0x100, AccessKind::Read), AccessOutcome::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `sets × ways` lines; set `s` occupies `[s * ways, (s + 1) * ways)`,
    /// most recently used first.
    lines: Vec<Line>,
    /// Occupied ways per set: the first `occupied[s]` ways of set `s`.
    occupied: Vec<usize>,
    /// log2 of the line size: byte address → line number.
    line_shift: u32,
    /// log2 of the set count: line number → tag.
    set_shift: u32,
    /// `sets - 1`: line number → set index.
    set_mask: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`CacheConfig::validate`]).
    pub fn new(config: CacheConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid cache config: {e}"));
        let sets = config.sets();
        Cache {
            config,
            lines: vec![EMPTY_LINE; sets * config.ways],
            occupied: vec![0; sets],
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            set_mask: sets as u64 - 1,
            stats: CacheStats::default(),
        }
    }

    /// The geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the counters (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The set that line number `line` maps to, and its tag.
    fn set_of(&self, line: u64) -> (usize, u64) {
        ((line & self.set_mask) as usize, line >> self.set_shift)
    }

    /// The occupied ways of set `set`, most recently used first.
    fn resident(&self, set: usize) -> &[Line] {
        let base = set * self.config.ways;
        &self.lines[base..base + self.occupied[set]]
    }

    /// The line numbers covering `[addr, addr + len)`, clamped at the top
    /// of the address space; `len` is non-zero.
    fn lines_of(&self, addr: u64, len: usize) -> RangeInclusive<u64> {
        let last = addr.saturating_add(len as u64 - 1);
        (addr >> self.line_shift)..=(last >> self.line_shift)
    }

    /// log2 of the line size: a byte address shifted right by this is
    /// its line number.
    pub(crate) fn line_shift(&self) -> u32 {
        self.line_shift
    }

    /// Performs one access at byte address `addr`.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessOutcome {
        self.access_line(addr >> self.line_shift, kind)
    }

    /// One access to line number `line`. A hit moves the line to the
    /// front of its set; a miss shifts the set down one way, evicting the
    /// last line if the set was full, and fills the front way.
    #[inline]
    fn access_line(&mut self, line: u64, kind: AccessKind) -> AccessOutcome {
        let ways = self.config.ways;
        let (set_idx, tag) = self.set_of(line);
        let occupied = self.occupied[set_idx];
        let set = &mut self.lines[set_idx * ways..(set_idx + 1) * ways];

        if let Some(i) = set[..occupied].iter().position(|l| l.tag == tag) {
            let mut hit = set[i];
            hit.dirty |= kind == AccessKind::Write;
            set.copy_within(..i, 1);
            set[0] = hit;
            self.stats.hits += 1;
            return AccessOutcome::Hit;
        }

        self.stats.misses += 1;
        let kept = if occupied == ways {
            self.stats.evictions += 1;
            if set[ways - 1].dirty {
                self.stats.write_backs += 1;
            }
            ways - 1
        } else {
            self.occupied[set_idx] += 1;
            occupied
        };
        set.copy_within(..kept, 1);
        set[0] = Line {
            tag,
            dirty: kind == AccessKind::Write,
        };
        AccessOutcome::Miss
    }

    /// Accesses every line covered by `[addr, addr + len)`, returning the
    /// number of misses. This is how workload models "touch" a buffer.
    /// A range that runs past `u64::MAX` is clamped there.
    pub fn touch_range(&mut self, addr: u64, len: usize, kind: AccessKind) -> u64 {
        if len == 0 {
            return 0;
        }
        let mut misses = 0;
        for line in self.lines_of(addr, len) {
            if self.access_line(line, kind) == AccessOutcome::Miss {
                misses += 1;
            }
        }
        misses
    }

    /// True if the line containing `addr` is present.
    pub fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.set_of(addr >> self.line_shift);
        self.resident(set_idx).iter().any(|l| l.tag == tag)
    }

    /// Invalidates every line whose address falls in `[addr, addr + len)`,
    /// counting write-backs of dirty lines. Returns the number of lines
    /// invalidated. This models coherent device DMA claiming host buffers.
    /// A range that runs past `u64::MAX` is clamped there.
    pub fn invalidate_range(&mut self, addr: u64, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let ways = self.config.ways;
        let mut invalidated = 0;
        for line in self.lines_of(addr, len) {
            let (set_idx, tag) = self.set_of(line);
            let Some(i) = self.resident(set_idx).iter().position(|l| l.tag == tag) else {
                continue;
            };
            let base = set_idx * ways;
            if self.lines[base + i].dirty {
                self.stats.write_backs += 1;
            }
            // Close the gap, keeping the recency order of the rest.
            let occupied = self.occupied[set_idx];
            self.lines
                .copy_within(base + i + 1..base + occupied, base + i);
            self.occupied[set_idx] = occupied - 1;
            invalidated += 1;
        }
        invalidated
    }

    /// Invalidates every line, counting write-backs of dirty lines.
    pub fn flush(&mut self) {
        for set_idx in 0..self.occupied.len() {
            let dirty = self.resident(set_idx).iter().filter(|l| l.dirty).count();
            self.stats.write_backs += dirty as u64;
            self.occupied[set_idx] = 0;
        }
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.occupied.iter().sum()
    }
}

impl fmt::Display for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}kB {}-way cache: {} accesses, miss rate {:.2}%",
            self.config.size_bytes / 1024,
            self.config.ways,
            self.stats.accesses(),
            self.stats.miss_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B = 512B
        Cache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
        })
    }

    #[test]
    fn second_access_hits() {
        let mut c = small();
        assert_eq!(c.access(0, AccessKind::Read), AccessOutcome::Miss);
        assert_eq!(c.access(63, AccessKind::Read), AccessOutcome::Hit);
        assert_eq!(c.access(64, AccessKind::Read), AccessOutcome::Miss);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set 0 holds lines with addresses ≡ 0 mod (4 sets * 64B line) = 256.
        c.access(0, AccessKind::Read); // A
        c.access(256, AccessKind::Read); // B — set 0 now full
        c.access(0, AccessKind::Read); // touch A, so B is LRU
        c.access(512, AccessKind::Read); // C evicts B
        assert!(c.contains(0));
        assert!(!c.contains(256));
        assert!(c.contains(512));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn dirty_eviction_counts_write_back() {
        let mut c = small();
        c.access(0, AccessKind::Write);
        c.access(256, AccessKind::Read);
        c.access(512, AccessKind::Read); // evicts dirty line A
        assert_eq!(c.stats().write_backs, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Write); // hit, marks dirty
        c.access(256, AccessKind::Read);
        c.access(512, AccessKind::Read); // evicts line 0
        assert_eq!(c.stats().write_backs, 1);
    }

    #[test]
    fn touch_range_counts_lines() {
        let mut c = small();
        // 130 bytes from address 10 spans lines 0,1,2.
        assert_eq!(c.touch_range(10, 130, AccessKind::Read), 3);
        assert_eq!(c.touch_range(10, 130, AccessKind::Read), 0);
        assert_eq!(c.touch_range(0, 0, AccessKind::Read), 0);
    }

    /// 4 sets × 2 ways of `1 << line_log`-byte lines.
    fn with_lines(line_log: u32) -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 8 << line_log,
            line_bytes: 1 << line_log,
            ways: 2,
        })
    }

    #[test]
    fn touch_range_reaches_and_clamps_at_the_top_of_the_address_space() {
        for line_log in [0, 6] {
            let line = 1u64 << line_log;
            let top = u64::MAX - (line - 1); // the last line's first byte
            let mut c = with_lines(line_log);
            // Exactly the last three lines, ending at `u64::MAX`.
            let start = u64::MAX - (3 * line - 1);
            assert_eq!(c.touch_range(start, 3 * line as usize, AccessKind::Read), 3);
            assert!(c.contains(u64::MAX), "line_log {line_log}");
            assert_eq!(c.stats().accesses(), 3);
            // Past the top: only the last line is accessed.
            assert_eq!(c.touch_range(top, 10 * line as usize, AccessKind::Write), 0);
            assert_eq!(c.touch_range(u64::MAX, usize::MAX, AccessKind::Read), 0);
            assert_eq!(c.stats().accesses(), 5, "line_log {line_log}");
            assert_eq!(c.touch_range(top - line, usize::MAX, AccessKind::Read), 0);
            assert_eq!(c.stats().accesses(), 7, "line_log {line_log}");
        }
    }

    #[test]
    fn invalidate_range_reaches_and_clamps_at_the_top_of_the_address_space() {
        for line_log in [0, 6] {
            let line = 1u64 << line_log;
            let top = u64::MAX - (line - 1);
            let mut c = with_lines(line_log);
            let start = u64::MAX - (3 * line - 1);
            c.touch_range(start, 3 * line as usize, AccessKind::Write);
            // Past the top: only the last line goes, written back.
            assert_eq!(c.invalidate_range(top, 10 * line as usize), 1);
            assert!(!c.contains(u64::MAX), "line_log {line_log}");
            assert_eq!(c.stats().write_backs, 1);
            assert_eq!(c.resident_lines(), 2);
            // Ending exactly at `u64::MAX`: the other two go.
            assert_eq!(c.invalidate_range(start, 3 * line as usize), 2);
            assert_eq!(c.invalidate_range(start, usize::MAX), 0);
            assert_eq!(c.resident_lines(), 0);
            assert_eq!(c.stats().write_backs, 3, "line_log {line_log}");
        }
    }

    #[test]
    fn flush_empties_and_counts_dirty() {
        let mut c = small();
        c.access(0, AccessKind::Write);
        c.access(64, AccessKind::Read);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.stats().write_backs, 1);
        assert_eq!(c.access(0, AccessKind::Read), AccessOutcome::Miss);
    }

    #[test]
    fn miss_rate_computation() {
        let mut c = small();
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Read);
        c.access(64, AccessKind::Read);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = small(); // 512 B
                             // Stream over 4 kB twice: second pass still misses everywhere.
        let before = c.stats().misses;
        for pass in 0..2 {
            for addr in (0..4096u64).step_by(64) {
                c.access(addr, AccessKind::Read);
            }
            if pass == 0 {
                assert_eq!(c.stats().misses - before, 64);
            }
        }
        assert_eq!(c.stats().misses - before, 128);
    }

    #[test]
    fn working_set_within_cache_stops_missing() {
        let mut c = small();
        for _ in 0..3 {
            for addr in (0..512u64).step_by(64) {
                c.access(addr, AccessKind::Read);
            }
        }
        assert_eq!(c.stats().misses, 8); // cold misses only
        assert_eq!(c.stats().hits, 16);
    }

    #[test]
    fn paper_l2_geometry() {
        let cfg = CacheConfig::paper_l2();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.sets(), 512);
    }

    #[test]
    #[should_panic(expected = "invalid cache config")]
    fn bad_geometry_panics() {
        Cache::new(CacheConfig {
            size_bytes: 100,
            line_bytes: 64,
            ways: 2,
        });
    }

    #[test]
    fn set_count_must_be_a_power_of_two() {
        // 384 B / (64 B * 2 ways) = 3 sets: every size rule but the
        // set-count one holds.
        let cfg = CacheConfig {
            size_bytes: 384,
            line_bytes: 64,
            ways: 2,
        };
        assert_eq!(cfg.sets(), 3);
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("set count 3"), "{err}");
        assert!(CacheConfig {
            size_bytes: 512,
            ..cfg
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn invalidate_range_removes_lines() {
        let mut c = small();
        c.access(0, AccessKind::Write);
        c.access(64, AccessKind::Read);
        c.access(128, AccessKind::Read);
        let n = c.invalidate_range(0, 128); // lines 0 and 1
        assert_eq!(n, 2);
        assert!(!c.contains(0));
        assert!(!c.contains(64));
        assert!(c.contains(128));
        assert_eq!(c.stats().write_backs, 1);
        assert_eq!(c.invalidate_range(0, 0), 0);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small();
        c.access(0, AccessKind::Read);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert_eq!(c.access(0, AccessKind::Read), AccessOutcome::Hit);
    }
}
