//! Differential oracle for the flat, recency-ordered [`Cache`].
//!
//! [`RefCache`] is the original nested-`Vec` LRU model, kept verbatim
//! (per-set `Vec`s, division-based indexing, a per-line `valid` flag and
//! timestamp, separate hit / invalid-way / LRU-way scans). Random
//! power-of-two geometries run random mixes of `access`, `touch_range`,
//! `invalidate_range`, `flush` and `reset_stats` through both; after every
//! operation each outcome, the counters, `contains` on the touched
//! addresses and `resident_lines` must agree. One run stays at the top of
//! the address space with 1- and 2-byte lines, where a tag uses every bit
//! of the address, so no bit of a tag is free to mark a line dirty or a
//! way empty.

use hydra_hw::cache::{AccessKind, AccessOutcome, Cache, CacheConfig, CacheStats};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

const EMPTY_LINE: Line = Line {
    tag: 0,
    valid: false,
    dirty: false,
    lru: 0,
};

/// The reference model: the cache as it was before the flat layout.
struct RefCache {
    config: CacheConfig,
    sets: Vec<Vec<Line>>,
    stamp: u64,
    stats: CacheStats,
}

impl RefCache {
    fn new(config: CacheConfig) -> Self {
        let sets = vec![vec![EMPTY_LINE; config.ways]; config.sets()];
        RefCache {
            config,
            sets,
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn index_of(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.config.line_bytes as u64;
        let set = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        (set, tag)
    }

    fn access(&mut self, addr: u64, kind: AccessKind) -> AccessOutcome {
        self.stamp += 1;
        let stamp = self.stamp;
        let (set_idx, tag) = self.index_of(addr);
        let set = &mut self.sets[set_idx];

        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = stamp;
            if kind == AccessKind::Write {
                line.dirty = true;
            }
            self.stats.hits += 1;
            return AccessOutcome::Hit;
        }

        self.stats.misses += 1;
        let victim = match set.iter().position(|l| !l.valid) {
            Some(i) => i,
            None => {
                let (i, _) = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.lru)
                    .expect("ways > 0 by construction");
                self.stats.evictions += 1;
                if set[i].dirty {
                    self.stats.write_backs += 1;
                }
                i
            }
        };
        set[victim] = Line {
            tag,
            valid: true,
            dirty: kind == AccessKind::Write,
            lru: stamp,
        };
        AccessOutcome::Miss
    }

    fn touch_range(&mut self, addr: u64, len: usize, kind: AccessKind) -> u64 {
        if len == 0 {
            return 0;
        }
        let line = self.config.line_bytes as u64;
        let first = addr / line;
        let last = addr.saturating_add(len as u64 - 1) / line;
        let mut misses = 0;
        for l in first..=last {
            if self.access(l * line, kind) == AccessOutcome::Miss {
                misses += 1;
            }
        }
        misses
    }

    fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.index_of(addr);
        self.sets[set_idx].iter().any(|l| l.valid && l.tag == tag)
    }

    fn invalidate_range(&mut self, addr: u64, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let line = self.config.line_bytes as u64;
        let first = addr / line;
        let last = addr.saturating_add(len as u64 - 1) / line;
        let mut invalidated = 0;
        for l in first..=last {
            let (set_idx, tag) = self.index_of(l * line);
            if let Some(entry) = self.sets[set_idx]
                .iter_mut()
                .find(|e| e.valid && e.tag == tag)
            {
                if entry.dirty {
                    self.stats.write_backs += 1;
                }
                *entry = EMPTY_LINE;
                invalidated += 1;
            }
        }
        invalidated
    }

    fn flush(&mut self) {
        for set in &mut self.sets {
            for line in set.iter_mut() {
                if line.valid && line.dirty {
                    self.stats.write_backs += 1;
                }
                *line = EMPTY_LINE;
            }
        }
    }

    fn resident_lines(&self) -> usize {
        self.sets
            .iter()
            .map(|s| s.iter().filter(|l| l.valid).count())
            .sum()
    }
}

/// Decodes one random word into an operation and runs it on both models,
/// returning the address it probed so `contains` can be compared there.
///
/// With `top` set, every address lies in the `span` bytes that end at
/// `u64::MAX` (bit 63 set) or in the `span` bytes that end at
/// `i64::MAX` (bit 63 clear), and a range may end at `u64::MAX` or run
/// past it, where both models clamp it.
fn step(word: u64, span: u64, top: bool, fast: &mut Cache, reference: &mut RefCache) -> u64 {
    // Mostly a window a few times the capacity, so sets fill, conflict
    // and evict; sometimes a far address, so tags use the high bits.
    let addr = if top {
        // Half the time with bit 63 cleared, so that two tags can differ
        // only in their top bit.
        (u64::MAX - (word >> 8) % span) ^ ((word & 1) << 63)
    } else if word.is_multiple_of(16) {
        (word >> 8) | (1 << 60)
    } else {
        (word >> 8) % span
    };
    let kind = if word & 0x10 == 0 {
        AccessKind::Read
    } else {
        AccessKind::Write
    };
    let len = ((word >> 32) % (span / 4 + 2)) as usize;
    match (word >> 5) % 16 {
        0..=7 => assert_eq!(
            fast.access(addr, kind),
            reference.access(addr, kind),
            "access({addr:#x}, {kind:?})"
        ),
        8..=11 => assert_eq!(
            fast.touch_range(addr, len, kind),
            reference.touch_range(addr, len, kind),
            "touch_range({addr:#x}, {len}, {kind:?})"
        ),
        12 | 13 => assert_eq!(
            fast.invalidate_range(addr, len),
            reference.invalidate_range(addr, len),
            "invalidate_range({addr:#x}, {len})"
        ),
        14 => {
            fast.flush();
            reference.flush();
        }
        _ => {
            fast.reset_stats();
            reference.reset_stats();
        }
    }
    addr
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_cache_matches_nested_reference(
        line_log in 0u32..8,
        set_log in 0u32..7,
        ways in 1usize..10,
        ops in proptest::collection::vec(any::<u64>(), 1..400),
    ) {
        let config = CacheConfig {
            size_bytes: (1usize << (line_log + set_log)) * ways,
            line_bytes: 1 << line_log,
            ways,
        };
        prop_assert!(config.validate().is_ok());
        let mut fast = Cache::new(config);
        let mut reference = RefCache::new(config);
        let span = config.size_bytes as u64 * 4;
        for (i, &word) in ops.iter().enumerate() {
            let addr = step(word, span, false, &mut fast, &mut reference);
            prop_assert_eq!(fast.stats(), reference.stats(), "stats after op {}", i);
            prop_assert_eq!(
                fast.contains(addr),
                reference.contains(addr),
                "contains({:#x}) after op {}", addr, i
            );
            prop_assert_eq!(
                fast.resident_lines(),
                reference.resident_lines(),
                "resident lines after op {}", i
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn top_of_address_space_matches_reference(
        line_log in 0u32..2,
        set_log in 0u32..7,
        ways in 1usize..10,
        ops in proptest::collection::vec(any::<u64>(), 1..400),
    ) {
        let config = CacheConfig {
            size_bytes: (1usize << (line_log + set_log)) * ways,
            line_bytes: 1 << line_log,
            ways,
        };
        let mut fast = Cache::new(config);
        let mut reference = RefCache::new(config);
        for addr in [u64::MAX, 1 << 63, u64::MAX >> 1, u64::MAX - 1, u64::MAX] {
            prop_assert_eq!(
                fast.access(addr, AccessKind::Write),
                reference.access(addr, AccessKind::Write),
                "access({:#x})", addr
            );
            prop_assert_eq!(fast.contains(addr), reference.contains(addr));
        }
        let span = config.size_bytes as u64 * 4;
        for (i, &word) in ops.iter().enumerate() {
            let addr = step(word, span, true, &mut fast, &mut reference);
            prop_assert_eq!(fast.stats(), reference.stats(), "stats after op {}", i);
            for probe in [addr, addr ^ (1 << 63), u64::MAX, u64::MAX >> 1, 1 << 63] {
                prop_assert_eq!(
                    fast.contains(probe),
                    reference.contains(probe),
                    "contains({:#x}) after op {}", probe, i
                );
            }
            prop_assert_eq!(
                fast.resident_lines(),
                reference.resident_lines(),
                "resident lines after op {}", i
            );
        }
    }
}

/// The paper's L2 under a long daemon-style walk: 64 KiB reads at
/// scattered page-aligned bases over 16 MiB, interleaved with small
/// dirty buffers and DMA invalidations, as the host model issues them.
/// Every third walk writes, so walk lines are evicted dirty too.
#[test]
fn paper_l2_walks_match_reference() {
    let config = CacheConfig::paper_l2();
    let mut fast = Cache::new(config);
    let mut reference = RefCache::new(config);
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for i in 0..400u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let walk = (0x4000_0000 + x % (1 << 24)) & !0x3F;
        let kind = if i % 3 == 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        assert_eq!(
            fast.touch_range(walk, 64 * 1024, kind),
            reference.touch_range(walk, 64 * 1024, kind)
        );
        let buf = 0x1000 + (i % 32) * 4096;
        assert_eq!(
            fast.touch_range(buf, 1500, AccessKind::Write),
            reference.touch_range(buf, 1500, AccessKind::Write)
        );
        assert_eq!(
            fast.invalidate_range(buf + 4096, 1500),
            reference.invalidate_range(buf + 4096, 1500)
        );
        assert_eq!(fast.stats(), reference.stats());
    }
    assert_eq!(fast.resident_lines(), reference.resident_lines());
    assert!(fast.stats().evictions > 0 && fast.stats().write_backs > 0);
}
