//! The dense structures the graph view indexes a deployment with:
//! per-node device sets as bitset rows, and sorted adjacency lists in
//! one flat array. Building either costs a fixed handful of allocations,
//! whatever the graph's size; reading them allocates nothing.

/// Per-node sets of non-host device indices: one dense bitset row per
/// node, as many 64-bit words wide as the device table needs. Index 0
/// (the host) is never a member: a set holds a node's *offload* options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceSets {
    nodes: usize,
    words: usize,
    bits: Vec<u64>,
}

impl DeviceSets {
    /// `nodes` empty sets over a table of `devices` entries.
    pub(crate) fn new(nodes: usize, devices: usize) -> Self {
        let words = devices.div_ceil(64);
        DeviceSets {
            nodes,
            words,
            bits: vec![0; nodes * words],
        }
    }

    /// One set per compatibility vector (`row[k]`: may the node run on
    /// device `k`?), without the host entry at index 0.
    pub(crate) fn from_rows<'a>(rows: impl Iterator<Item = &'a [bool]>) -> Self {
        let mut sets = DeviceSets::default();
        for row in rows {
            let words = row.len().div_ceil(64);
            if words > sets.words {
                sets.widen(words);
            }
            sets.nodes += 1;
            sets.bits.resize(sets.nodes * sets.words, 0);
            let n = sets.nodes - 1;
            for (k, _) in row.iter().enumerate().skip(1).filter(|(_, &ok)| ok) {
                sets.insert(n, k);
            }
        }
        sets
    }

    /// Re-lays the rows out `words` words wide.
    fn widen(&mut self, words: usize) {
        let mut bits = vec![0; self.nodes * words];
        for n in 0..self.nodes {
            bits[n * words..n * words + self.words].copy_from_slice(self.row(n));
        }
        self.words = words;
        self.bits = bits;
    }

    /// How many sets there are (one per node).
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    fn row(&self, n: usize) -> &[u64] {
        &self.bits[n * self.words..(n + 1) * self.words]
    }

    fn row_mut(&mut self, n: usize) -> &mut [u64] {
        &mut self.bits[n * self.words..(n + 1) * self.words]
    }

    /// Adds device `k` to node `n`'s set.
    pub(crate) fn insert(&mut self, n: usize, k: usize) {
        self.row_mut(n)[k / 64] |= 1 << (k % 64);
    }

    /// Whether device `k` is in node `n`'s set.
    pub fn contains(&self, n: usize, k: usize) -> bool {
        self.row(n)
            .get(k / 64)
            .is_some_and(|w| w & (1 << (k % 64)) != 0)
    }

    /// Whether node `n`'s set is empty.
    pub fn is_empty(&self, n: usize) -> bool {
        self.row(n).iter().all(|&w| w == 0)
    }

    /// Whether every set is empty (vacuously so with no nodes).
    pub(crate) fn all_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// The size of node `n`'s set.
    pub fn len(&self, n: usize) -> usize {
        self.row(n).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Node `n`'s devices, in ascending index order.
    pub fn iter(&self, n: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(n).iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    i * 64 + bit
                })
            })
        })
    }

    /// Whether node `a`'s set equals node `b`'s.
    pub(crate) fn same(&self, a: usize, b: usize) -> bool {
        self.row(a) == self.row(b)
    }

    /// Whether nodes `a` and `b` share a device.
    pub(crate) fn intersects(&self, a: usize, b: usize) -> bool {
        self.row(a).iter().zip(self.row(b)).any(|(x, y)| x & y != 0)
    }

    /// Narrows both `a` and `b` to their intersection; returns whether
    /// either set changed.
    pub(crate) fn intersect_both(&mut self, a: usize, b: usize) -> bool {
        let mut changed = false;
        for w in 0..self.words {
            let (x, y) = (self.bits[a * self.words + w], self.bits[b * self.words + w]);
            let both = x & y;
            changed |= x != both || y != both;
            self.bits[a * self.words + w] = both;
            self.bits[b * self.words + w] = both;
        }
        changed
    }

    /// Empties node `n`'s set.
    pub(crate) fn clear(&mut self, n: usize) {
        self.row_mut(n).fill(0);
    }
}

/// Per-node neighbour lists in one flat array, each list sorted
/// ascending.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Adjacency {
    /// `list[start[v]..start[v + 1]]` is node `v`'s list.
    start: Vec<usize>,
    list: Vec<usize>,
}

impl Adjacency {
    /// Lists over `nodes` nodes from `(node, neighbour)` pairs; `dedup`
    /// drops repeated neighbours, otherwise each pair keeps its entry.
    pub(crate) fn new(
        nodes: usize,
        pairs: impl Iterator<Item = (usize, usize)> + Clone,
        dedup: bool,
    ) -> Self {
        let mut start = vec![0; nodes + 1];
        for (v, _) in pairs.clone() {
            start[v + 1] += 1;
        }
        for v in 0..nodes {
            start[v + 1] += start[v];
        }
        // Fill with `start[v]` as node v's cursor, which leaves it at the
        // start of node v + 1's list; shifting right restores the starts.
        let mut list = vec![0; start[nodes]];
        for (v, w) in pairs {
            list[start[v]] = w;
            start[v] += 1;
        }
        start.copy_within(0..nodes, 1);
        start[0] = 0;
        let mut kept = 0;
        for v in 0..nodes {
            let (from, to) = (start[v], start[v + 1]);
            list[from..to].sort_unstable();
            start[v] = kept;
            for i in from..to {
                if !dedup || kept == start[v] || list[kept - 1] != list[i] {
                    list[kept] = list[i];
                    kept += 1;
                }
            }
        }
        start[nodes] = kept;
        list.truncate(kept);
        Adjacency { start, list }
    }

    /// Node `v`'s list.
    pub(crate) fn of(&self, v: usize) -> &[usize] {
        &self.list[self.start[v]..self.start[v + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_hold_offload_devices_past_one_word() {
        let mut row = vec![false; 130];
        row[0] = true;
        row[3] = true;
        row[64] = true;
        row[129] = true;
        let short = [true, false, true];
        let sets = DeviceSets::from_rows([short.as_slice(), row.as_slice()].into_iter());
        assert_eq!(sets.nodes(), 2);
        assert_eq!(sets.iter(0).collect::<Vec<_>>(), vec![2]);
        assert_eq!(sets.iter(1).collect::<Vec<_>>(), vec![3, 64, 129]);
        assert!(!sets.contains(1, 0), "the host is never a member");
        assert!(sets.contains(1, 129) && !sets.contains(1, 500));
        assert_eq!(sets.len(1), 3);
        assert!(!sets.intersects(0, 1));
    }

    #[test]
    fn intersect_both_reports_change() {
        let mut sets = DeviceSets::new(2, 70);
        sets.insert(0, 1);
        sets.insert(0, 69);
        sets.insert(1, 69);
        assert!(sets.intersect_both(0, 1));
        assert!(sets.same(0, 1));
        assert!(!sets.intersect_both(0, 1));
        sets.clear(1);
        assert!(sets.is_empty(1) && !sets.all_empty());
    }

    #[test]
    fn adjacency_sorts_and_optionally_dedups() {
        let pairs = [(0, 2), (0, 1), (2, 0), (0, 2), (2, 1)];
        let dedup = Adjacency::new(3, pairs.iter().copied(), true);
        assert_eq!(dedup.of(0), &[1, 2]);
        assert!(dedup.of(1).is_empty());
        assert_eq!(dedup.of(2), &[0, 1]);
        let all = Adjacency::new(3, pairs.iter().copied(), false);
        assert_eq!(all.of(0), &[1, 2, 2]);
        assert_eq!(all.of(2), &[0, 1]);
    }
}
