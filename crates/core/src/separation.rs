//! The partition-refinement engine.
//!
//! This module implements the machinery of the paper's Appendix B:
//!
//! * the **lookup table** `P ∈ N^{|R|×m}` — `P[k][j]` is the index of
//!   the partition class row `j` falls into when the rows are grouped by
//!   attribute `k` alone (built by sorting each column: `O(m·n log n)`);
//! * **Algorithm 3** — splitting a group of rows by one attribute in
//!   linear time using `P` and an occupied-list `L` (no per-call
//!   allocation proportional to the attribute's cardinality), either
//!   materialised or as an early-exit "does it split into singletons?"
//!   test that stops at the first collision;
//! * exact separation counting: the number of pairs an attribute set
//!   fails to separate, `Γ_A = Σ_i C(c_i, 2)` over the clique sizes
//!   `c_i` of the induced partition.

use std::ops::Range;

use qid_dataset::{AttrId, Dataset};

/// Appendix B's lookup table `P`: dense per-attribute partition ids.
///
/// `P[k][j] ∈ {0, …, d_k−1}` where `d_k` is the number of distinct
/// values attribute `k` takes. Ids are *dense* (0-based, contiguous), so
/// scratch arrays sized by `max_partitions` can be reused across calls.
#[derive(Clone, Debug)]
pub struct PartitionIndex {
    /// `table[k][j]` = partition id of row `j` under attribute `k`.
    table: Vec<Vec<u32>>,
    /// `n_parts[k]` = number of distinct partition ids of attribute `k`.
    n_parts: Vec<u32>,
    n_rows: usize,
}

impl PartitionIndex {
    /// Builds the table from a data set — `O(m · n log n)` (one sort per
    /// attribute, exactly as the paper accounts it).
    pub fn build(ds: &Dataset) -> Self {
        let n = ds.n_rows();
        let m = ds.n_attrs();
        let mut table = Vec::with_capacity(m);
        let mut n_parts = Vec::with_capacity(m);
        let mut order: Vec<u32> = (0..n as u32).collect();
        for a in 0..m {
            let col = ds.column(AttrId::new(a));
            let codes = col.codes();
            // Sort row ids by code; assign dense ranks along equal runs.
            order.sort_unstable_by_key(|&r| codes[r as usize]);
            let mut ids = vec![0u32; n];
            let mut next_id = 0u32;
            let mut prev_code: Option<u32> = None;
            for &r in &order {
                let c = codes[r as usize];
                match prev_code {
                    Some(p) if p == c => {}
                    Some(_) => next_id += 1,
                    None => {}
                }
                prev_code = Some(c);
                ids[r as usize] = next_id;
            }
            let parts = if n == 0 { 0 } else { next_id + 1 };
            table.push(ids);
            n_parts.push(parts);
        }
        PartitionIndex {
            table,
            n_parts,
            n_rows: n,
        }
    }

    /// Number of rows indexed.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of attributes indexed.
    pub fn n_attrs(&self) -> usize {
        self.table.len()
    }

    /// The dense partition id of `row` under single attribute `attr`.
    #[inline]
    pub fn partition_id(&self, attr: AttrId, row: usize) -> u32 {
        self.table[attr.index()][row]
    }

    /// Number of distinct partition ids of `attr` (its cardinality).
    pub fn n_partitions(&self, attr: AttrId) -> u32 {
        self.n_parts[attr.index()]
    }
}

/// A reusable scratch buffer for [`Refiner`] group splits, sized once to
/// the maximum partition count so refinement never allocates per call
/// (the occupied-list trick of the paper's Algorithm 3).
#[derive(Clone, Debug)]
pub struct Refiner {
    /// Per-partition counts (then write cursors) of the current split;
    /// every touched slot is reset through `occupied` before returning.
    counts: Vec<u32>,
    /// Partition ids touched by the current split (the list `L`).
    occupied: Vec<u32>,
    /// `stamps[p] == generation` iff partition `p` was already seen by
    /// the current [`separates_all`](Self::separates_all) call.
    stamps: Vec<u32>,
    /// Stamp of the current (or last) `separates_all` call.
    generation: u32,
}

impl Refiner {
    /// Creates a refiner able to split by any attribute of `idx`.
    pub fn new(idx: &PartitionIndex) -> Self {
        let max_parts = idx.n_parts.iter().copied().max().unwrap_or(0) as usize;
        Refiner {
            counts: vec![0; max_parts],
            occupied: Vec::with_capacity(64),
            stamps: vec![0; max_parts],
            generation: 0,
        }
    }

    /// True iff `attr` separates every pair of rows in `group`, i.e.
    /// `group` splits into singletons only.
    ///
    /// Marks partition ids with a per-call generation stamp and stops at
    /// the first id seen twice, so it costs `O(|group|)` at most and
    /// never clears scratch — except once every 2³² calls, when the
    /// stamp wraps and stale marks could otherwise alias the new one.
    pub fn separates_all(&mut self, idx: &PartitionIndex, attr: AttrId, group: &[u32]) -> bool {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamps.fill(0);
            self.generation = 1;
        }
        let generation = self.generation;
        let table = &idx.table[attr.index()];
        for &r in group {
            let stamp = &mut self.stamps[table[r as usize] as usize];
            if *stamp == generation {
                return false;
            }
            *stamp = generation;
        }
        true
    }

    /// Moves the [`separates_all`](Self::separates_all) stamp forward to
    /// `generation`, so tests can drive it across its wrap. Never moves
    /// it backwards: older marks would alias.
    #[doc(hidden)]
    pub fn fast_forward_generation(&mut self, generation: u32) {
        assert!(generation >= self.generation, "stamps only move forward");
        self.generation = generation;
    }

    /// The sizes of the sub-groups `group` splits into under `attr`
    /// (Algorithm 3, sizes only — what the greedy gain computation
    /// needs). Runs in `O(|group|)`.
    ///
    /// The returned slice aliases internal scratch; copy it out if it
    /// must outlive the next call.
    pub fn split_sizes(&mut self, idx: &PartitionIndex, attr: AttrId, group: &[u32]) -> &[u32] {
        self.occupied.clear();
        let table = &idx.table[attr.index()];
        for &r in group {
            let p = table[r as usize] as usize;
            if self.counts[p] == 0 {
                self.occupied.push(p as u32);
            }
            self.counts[p] += 1;
        }
        // Move counts into a dense prefix of `occupied` order, resetting
        // scratch as we go.
        // Reuse `occupied` as the output: replace each partition id with
        // its count.
        for slot in &mut self.occupied {
            let p = *slot as usize;
            *slot = self.counts[p];
            self.counts[p] = 0;
        }
        &self.occupied
    }

    /// Splits `group` into sub-groups by `attr` (Algorithm 3, full
    /// materialisation) and appends those of two or more rows to `out`.
    /// Singletons are dropped: they are fully separated and never
    /// participate in further refinement. Runs in `O(|group|)` and
    /// allocates only when `out` grows.
    pub fn split(
        &mut self,
        idx: &PartitionIndex,
        attr: AttrId,
        group: &[u32],
        out: &mut FlatGroups,
    ) {
        self.occupied.clear();
        let table = &idx.table[attr.index()];
        for &r in group {
            let p = table[r as usize] as usize;
            if self.counts[p] == 0 {
                self.occupied.push(p as u32);
            }
            self.counts[p] += 1;
        }
        // Turn each count of two or more into a write cursor into the
        // output (stored as offset + 1 so 0 means "singleton, skip").
        let base = out.rows.len();
        let mut kept = 0u32;
        for &p in &self.occupied {
            let count = self.counts[p as usize];
            if count > 1 {
                self.counts[p as usize] = kept + 1;
                kept += count;
                out.ends.push(base + kept as usize);
            } else {
                self.counts[p as usize] = 0;
            }
        }
        out.rows.resize(base + kept as usize, 0);
        for &r in group {
            let p = table[r as usize] as usize;
            let cursor = self.counts[p];
            if cursor != 0 {
                out.rows[base + cursor as usize - 1] = r;
                self.counts[p] = cursor + 1;
            }
        }
        for &p in &self.occupied {
            self.counts[p as usize] = 0;
        }
    }
}

/// Groups of row ids stored flat: the rows of every group back to back
/// plus each group's end offset, so a whole partition is two
/// allocations rather than one per group. [`Refiner::split`] appends to
/// it.
#[derive(Clone, Debug, Default)]
pub struct FlatGroups {
    rows: Vec<u32>,
    /// `ends[g]` = one past the last row of group `g` in `rows`.
    ends: Vec<usize>,
}

impl FlatGroups {
    /// One group holding every row `0..n`.
    pub fn whole(n: usize) -> Self {
        FlatGroups {
            rows: (0..n as u32).collect(),
            ends: vec![n],
        }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True iff there are no groups.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The groups with indices in `range`, in order, as row-id slices.
    pub fn groups(&self, range: Range<usize>) -> impl Iterator<Item = &[u32]> {
        let mut start = match range.start {
            0 => 0,
            g => self.ends[g - 1],
        };
        self.ends[range].iter().map(move |&end| {
            let group = &self.rows[start..end];
            start = end;
            group
        })
    }

    /// Every group, in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.groups(0..self.len())
    }
}

/// Partitions all rows of `ds` by the attribute set `attrs` and returns
/// the group sizes (clique sizes of the auxiliary graph `G_attrs`),
/// **including** singletons.
///
/// Sort-based: `O(|attrs| · n log n)` comparisons, no hashing — this is
/// the ground-truth routine the filters are tested against.
pub fn group_sizes(ds: &Dataset, attrs: &[AttrId]) -> Vec<usize> {
    let n = ds.n_rows();
    if n == 0 {
        return Vec::new();
    }
    if attrs.is_empty() {
        return vec![n];
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by(|&a, &b| ds.cmp_projected(a as usize, b as usize, attrs));
    let mut sizes = Vec::new();
    let mut run = 1usize;
    for w in order.windows(2) {
        if ds
            .cmp_projected(w[0] as usize, w[1] as usize, attrs)
            .is_eq()
        {
            run += 1;
        } else {
            sizes.push(run);
            run = 1;
        }
    }
    sizes.push(run);
    sizes
}

/// The number of pairs **not** separated by `attrs`:
/// `Γ_A = Σ_i C(c_i, 2)` over the group sizes.
pub fn unseparated_pairs(ds: &Dataset, attrs: &[AttrId]) -> u128 {
    group_sizes(ds, attrs)
        .into_iter()
        .map(|c| {
            let c = c as u128;
            c * (c - 1) / 2
        })
        .sum()
}

/// The number of pairs separated by `attrs`: `C(n,2) − Γ_A`.
pub fn separated_pairs(ds: &Dataset, attrs: &[AttrId]) -> u128 {
    ds.n_pairs() - unseparated_pairs(ds, attrs)
}

/// True iff `attrs` separates **all** pairs (is a key).
pub fn is_key(ds: &Dataset, attrs: &[AttrId]) -> bool {
    unseparated_pairs(ds, attrs) == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use qid_dataset::{DatasetBuilder, Value};

    /// 6 rows over 3 attributes; attribute "a" splits {0,1,2} / {3,4,5},
    /// "b" splits pairs, "c" is constant.
    fn fixture() -> Dataset {
        let mut b = DatasetBuilder::new(["a", "b", "c"]);
        let rows = [
            (0, 0, 7),
            (0, 0, 7),
            (0, 1, 7),
            (1, 1, 7),
            (1, 2, 7),
            (1, 2, 7),
        ];
        for (x, y, z) in rows {
            b.push_row([Value::Int(x), Value::Int(y), Value::Int(z)])
                .unwrap();
        }
        b.finish()
    }

    fn attrs(ids: &[usize]) -> Vec<AttrId> {
        ids.iter().map(|&i| AttrId::new(i)).collect()
    }

    #[test]
    fn partition_index_ids_are_dense_and_consistent() {
        let ds = fixture();
        let idx = PartitionIndex::build(&ds);
        assert_eq!(idx.n_rows(), 6);
        assert_eq!(idx.n_attrs(), 3);
        assert_eq!(idx.n_partitions(AttrId::new(0)), 2);
        assert_eq!(idx.n_partitions(AttrId::new(1)), 3);
        assert_eq!(idx.n_partitions(AttrId::new(2)), 1);
        // Rows with equal codes get equal ids; different codes different ids.
        for r1 in 0..6 {
            for r2 in 0..6 {
                for a in 0..3 {
                    let a = AttrId::new(a);
                    assert_eq!(
                        ds.code(r1, a) == ds.code(r2, a),
                        idx.partition_id(a, r1) == idx.partition_id(a, r2)
                    );
                }
            }
        }
        // Dense: ids < n_partitions.
        for a in 0..3 {
            let a = AttrId::new(a);
            for r in 0..6 {
                assert!(idx.partition_id(a, r) < idx.n_partitions(a));
            }
        }
    }

    #[test]
    fn split_sizes_counts_groups() {
        let ds = fixture();
        let idx = PartitionIndex::build(&ds);
        let mut refiner = Refiner::new(&idx);
        let all: Vec<u32> = (0..6).collect();
        let mut sizes = refiner.split_sizes(&idx, AttrId::new(0), &all).to_vec();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![3, 3]);
        let mut sizes = refiner.split_sizes(&idx, AttrId::new(1), &all).to_vec();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 2, 2]);
        let sizes = refiner.split_sizes(&idx, AttrId::new(2), &all).to_vec();
        assert_eq!(sizes, vec![6]);
    }

    fn sorted_groups(groups: &FlatGroups) -> Vec<Vec<u32>> {
        let mut out: Vec<Vec<u32>> = groups
            .iter()
            .map(|g| {
                let mut g = g.to_vec();
                g.sort_unstable();
                g
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn split_materialises_groups() {
        let ds = fixture();
        let idx = PartitionIndex::build(&ds);
        let mut refiner = Refiner::new(&idx);
        let mut groups = FlatGroups::default();
        refiner.split(
            &idx,
            AttrId::new(0),
            &(0..6).collect::<Vec<_>>(),
            &mut groups,
        );
        assert_eq!(sorted_groups(&groups), vec![vec![0, 1, 2], vec![3, 4, 5]]);
    }

    #[test]
    fn split_drops_singletons() {
        let ds = fixture();
        let idx = PartitionIndex::build(&ds);
        let mut refiner = Refiner::new(&idx);
        // Group {1,2,3}: attribute b has values [0,1,1] → groups {1},{2,3}.
        let mut groups = FlatGroups::default();
        refiner.split(&idx, AttrId::new(1), &[1, 2, 3], &mut groups);
        assert_eq!(sorted_groups(&groups), vec![vec![2, 3]]);
        // Constant attribute c splits nothing off.
        refiner.split(&idx, AttrId::new(2), &[4, 5], &mut groups);
        assert_eq!(sorted_groups(&groups), vec![vec![2, 3], vec![4, 5]]);
    }

    #[test]
    fn split_twice_reuses_scratch_cleanly() {
        let ds = fixture();
        let idx = PartitionIndex::build(&ds);
        let mut refiner = Refiner::new(&idx);
        let all: Vec<u32> = (0..6).collect();
        let first = refiner.split_sizes(&idx, AttrId::new(1), &all).to_vec();
        let second = refiner.split_sizes(&idx, AttrId::new(1), &all).to_vec();
        assert_eq!(first, second);
    }

    #[test]
    fn split_appends_after_existing_groups() {
        let ds = fixture();
        let idx = PartitionIndex::build(&ds);
        let mut refiner = Refiner::new(&idx);
        let mut groups = FlatGroups::whole(6);
        let all: Vec<u32> = groups.iter().next().unwrap().to_vec();
        refiner.split(&idx, AttrId::new(0), &all, &mut groups);
        refiner.split(&idx, AttrId::new(1), &all, &mut groups);
        assert_eq!(groups.len(), 6);
        let by_index: Vec<Vec<u32>> = groups.groups(1..3).map(<[u32]>::to_vec).collect();
        assert_eq!(by_index, vec![vec![0, 1, 2], vec![3, 4, 5]]);
        let by_index: Vec<Vec<u32>> = groups.groups(3..6).map(<[u32]>::to_vec).collect();
        assert_eq!(by_index, vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
        assert!(FlatGroups::default().is_empty());
    }

    #[test]
    fn separates_all_stops_at_collisions() {
        let ds = fixture();
        let idx = PartitionIndex::build(&ds);
        let mut refiner = Refiner::new(&idx);
        let b = AttrId::new(1);
        assert!(refiner.separates_all(&idx, b, &[0, 2, 4]));
        assert!(!refiner.separates_all(&idx, b, &[1, 2, 3]));
        assert!(refiner.separates_all(&idx, b, &[]));
        assert!(refiner.separates_all(&idx, b, &[0, 2, 4]));
    }

    #[test]
    fn separates_all_survives_the_stamp_wrap() {
        let ds = fixture();
        let idx = PartitionIndex::build(&ds);
        let mut refiner = Refiner::new(&idx);
        let b = AttrId::new(1);
        // Generation 1 marks b's partition 2 (row 4); generation
        // u32::MAX marks partition 0 (row 0); partition 1 stays unmarked.
        assert!(refiner.separates_all(&idx, b, &[4]));
        refiner.fast_forward_generation(u32::MAX - 1);
        assert!(refiner.separates_all(&idx, b, &[0]));
        // The next call wraps. Reusing stamp 1 without clearing would see
        // row 4's stale mark; stamp 0 would match the unmarked slot.
        assert!(refiner.separates_all(&idx, b, &[4, 2]));
        assert!(!refiner.separates_all(&idx, b, &[4, 5]));
    }

    #[test]
    fn group_sizes_matches_manual_count() {
        let ds = fixture();
        let mut s = group_sizes(&ds, &attrs(&[0]));
        s.sort_unstable();
        assert_eq!(s, vec![3, 3]);
        let mut s = group_sizes(&ds, &attrs(&[0, 1]));
        s.sort_unstable();
        assert_eq!(s, vec![1, 1, 2, 2]);
        let s = group_sizes(&ds, &attrs(&[]));
        assert_eq!(s, vec![6]);
        let s = group_sizes(&ds, &attrs(&[2]));
        assert_eq!(s, vec![6]);
    }

    #[test]
    fn unseparated_counts() {
        let ds = fixture();
        // attrs {0}: two cliques of 3 → 2·C(3,2) = 6 unseparated.
        assert_eq!(unseparated_pairs(&ds, &attrs(&[0])), 6);
        // attrs {0,1}: groups [2,1,2,1] → C(2,2)*2 = 2.
        assert_eq!(unseparated_pairs(&ds, &attrs(&[0, 1])), 2);
        // Constant attr: everything unseparated.
        assert_eq!(unseparated_pairs(&ds, &attrs(&[2])), 15);
        assert_eq!(separated_pairs(&ds, &attrs(&[0])), 9);
    }

    #[test]
    fn key_detection() {
        let mut b = DatasetBuilder::new(["id", "c"]);
        for i in 0..5 {
            b.push_row([Value::Int(i), Value::Int(0)]).unwrap();
        }
        let ds = b.finish();
        assert!(is_key(&ds, &attrs(&[0])));
        assert!(!is_key(&ds, &attrs(&[1])));
        assert!(is_key(&ds, &attrs(&[0, 1])));
    }

    #[test]
    fn empty_dataset_edge_cases() {
        let ds = DatasetBuilder::new(["a"]).finish();
        assert!(group_sizes(&ds, &attrs(&[0])).is_empty());
        assert_eq!(unseparated_pairs(&ds, &attrs(&[0])), 0);
        assert!(is_key(&ds, &attrs(&[0])));
        let idx = PartitionIndex::build(&ds);
        assert_eq!(idx.n_partitions(AttrId::new(0)), 0);
    }

    #[test]
    fn duplicate_rows_have_no_key() {
        let mut b = DatasetBuilder::new(["a", "b"]);
        b.push_row([Value::Int(1), Value::Int(2)]).unwrap();
        b.push_row([Value::Int(1), Value::Int(2)]).unwrap();
        let ds = b.finish();
        assert!(!is_key(&ds, &attrs(&[0, 1])));
        assert_eq!(unseparated_pairs(&ds, &attrs(&[0, 1])), 1);
    }
}
