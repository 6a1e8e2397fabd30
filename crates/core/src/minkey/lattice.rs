//! Minimal-key enumeration (unique column combination discovery).
//!
//! An extension beyond the paper: privacy auditing (the paper's §1
//! motivation) wants *all* minimal quasi-identifiers, not just one small
//! key. This module enumerates every inclusion-minimal key of a data
//! set level-wise (Apriori-style, as in UCC discovery systems like
//! Metanome's HyUCC/DUCC), with candidate pruning:
//!
//! * a candidate at level `ℓ` is generated only from two level-`ℓ−1`
//!   non-keys sharing a prefix, and kept only if **all** its
//!   `ℓ−1`-subsets are non-keys (guaranteeing minimality by
//!   construction);
//! * key checks are partition refinements on the (usually sampled)
//!   data set, TANE-style over **stripped partitions**: every non-key
//!   `X` keeps the classes of two or more rows it leaves unseparated,
//!   and the candidate `X ∪ {b}` refines just those by attribute `b`
//!   through the lookup table `P` (Appendix B, Algorithm 3). A check
//!   costs `O(|π(X)|)`, the rows `X` still leaves together, and
//!   separated rows are never looked at again;
//! * a candidate whose partition no later level can use (every
//!   candidate at the last level, and the last of each prefix group)
//!   is checked with an early exit at the first unseparated pair
//!   instead of being materialised;
//! * only the previous level's partitions are kept, flat
//!   ([`FlatGroups`]: row ids plus class end offsets), and each level is
//!   dropped once the next one is built.

use std::collections::HashSet;

use qid_dataset::{AttrId, Dataset};

use crate::separation::{FlatGroups, PartitionIndex, Refiner};

/// Limits for the lattice search.
#[derive(Clone, Copy, Debug)]
pub struct LatticeConfig {
    /// Do not explore attribute sets larger than this.
    pub max_size: usize,
    /// Abort (returning what was found) if a level would exceed this
    /// many candidates.
    pub max_candidates: usize,
}

impl Default for LatticeConfig {
    fn default() -> Self {
        LatticeConfig {
            max_size: 6,
            max_candidates: 200_000,
        }
    }
}

/// Enumerates all inclusion-minimal keys of `ds` with at most
/// `cfg.max_size` attributes, in ascending size then lexicographic
/// order — also when the search stops early at `cfg.max_candidates`.
///
/// Run this on a `Θ(m/√ε)` tuple sample to enumerate minimal
/// ε-separation keys of a large data set with the paper's for-all
/// guarantee.
pub fn enumerate_minimal_keys(ds: &Dataset, cfg: LatticeConfig) -> Vec<Vec<AttrId>> {
    if ds.n_rows() < 2 {
        // Every set (even the empty one) separates all zero pairs.
        return vec![Vec::new()];
    }
    let mut keys = Vec::new();
    search(ds, cfg, &mut keys);
    keys.sort_by(|a, b| (a.len(), a.as_slice()).cmp(&(b.len(), b.as_slice())));
    keys
}

/// One level's non-keys (attribute sets in lexicographic order) with
/// the stripped partitions of those a later level refines.
struct Level {
    sets: Vec<Vec<usize>>,
    partitions: FlatGroups,
    /// The classes of `sets[i]` are `partitions`' groups
    /// `firsts[i]..firsts[i + 1]` (none when its partition was not
    /// stored).
    firsts: Vec<usize>,
}

impl Level {
    fn new() -> Self {
        Level {
            sets: Vec::new(),
            partitions: FlatGroups::default(),
            firsts: vec![0],
        }
    }

    /// The empty set's partition: all rows in one class.
    fn root(n: usize) -> Self {
        Level {
            sets: vec![Vec::new()],
            partitions: FlatGroups::whole(n),
            firsts: vec![0, 1],
        }
    }

    /// The classes (row-id slices) of `sets[i]`'s stripped partition.
    fn classes(&self, i: usize) -> impl Iterator<Item = &[u32]> {
        self.partitions.groups(self.firsts[i]..self.firsts[i + 1])
    }

    /// Records `set` as a non-key whose classes, if stored, are the
    /// groups added since the previous non-key.
    fn push_non_key(&mut self, set: Vec<usize>) {
        self.sets.push(set);
        self.firsts.push(self.partitions.len());
    }
}

/// A level-`ℓ` candidate: its attributes and the index, in the previous
/// level, of the non-key it extends by its last attribute.
struct Candidate {
    attrs: Vec<usize>,
    parent: usize,
}

/// The level-wise search; pushes every minimal key it proves into
/// `keys` (unsorted) and returns early when a level exceeds
/// `cfg.max_candidates`.
fn search(ds: &Dataset, cfg: LatticeConfig, keys: &mut Vec<Vec<AttrId>>) {
    let idx = PartitionIndex::build(ds);
    let mut refiner = Refiner::new(&idx);
    let mut prev = Level::root(ds.n_rows());
    let mut candidates: Vec<Candidate> = (0..ds.n_attrs())
        .map(|a| Candidate {
            attrs: vec![a],
            parent: 0,
        })
        .collect();
    let mut level = 1usize;
    loop {
        let mut next = Level::new();
        for (k, cand) in candidates.iter().enumerate() {
            let attr = AttrId::new(cand.attrs[level - 1]);
            // The next level only refines a non-key joined with a later
            // one sharing its first ℓ−1 attributes; candidates come in
            // lexicographic order, so such a partner follows directly.
            let prefix = &cand.attrs[..level - 1];
            let needed = level < cfg.max_size
                && candidates
                    .get(k + 1)
                    .is_some_and(|c| &c.attrs[..level - 1] == prefix);
            let is_key = if needed {
                let stored = next.partitions.len();
                for class in prev.classes(cand.parent) {
                    refiner.split(&idx, attr, class, &mut next.partitions);
                }
                next.partitions.len() == stored
            } else {
                prev.classes(cand.parent)
                    .all(|class| refiner.separates_all(&idx, attr, class))
            };
            if is_key {
                keys.push(cand.attrs.iter().map(|&a| AttrId::new(a)).collect());
            } else {
                next.push_non_key(cand.attrs.clone());
            }
        }
        if level >= cfg.max_size || next.sets.is_empty() {
            return;
        }
        level += 1;
        candidates = match join(&next.sets, level, cfg.max_candidates) {
            Some(candidates) => candidates,
            // Too wide — what is proven so far stands.
            None => return,
        };
        prev = next;
    }
}

/// The Apriori join: level-`level` candidates from the sorted
/// level-`(level−1)` non-keys, combining two that share their first
/// `level−2` attributes and keeping the result only if **all** its
/// `(level−1)`-subsets are non-keys. `None` once there are more than
/// `max_candidates`.
fn join(non_keys: &[Vec<usize>], level: usize, max_candidates: usize) -> Option<Vec<Candidate>> {
    let prev_set: HashSet<&[usize]> = non_keys.iter().map(|v| v.as_slice()).collect();
    let mut candidates = Vec::new();
    for (i, a) in non_keys.iter().enumerate() {
        for b in &non_keys[i + 1..] {
            if a[..level - 2] != b[..level - 2] {
                // Sorted: the rest of the prefix group has gone by.
                break;
            }
            let mut cand = a.clone();
            cand.push(b[level - 2]);
            debug_assert!(cand.windows(2).all(|w| w[0] < w[1]));
            let all_subsets_non_key = (0..cand.len()).all(|drop| {
                let mut sub = cand.clone();
                sub.remove(drop);
                prev_set.contains(sub.as_slice())
            });
            if all_subsets_non_key {
                candidates.push(Candidate {
                    attrs: cand,
                    parent: i,
                });
            }
            if candidates.len() > max_candidates {
                return None;
            }
        }
    }
    Some(candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qid_dataset::{DatasetBuilder, Value};

    fn ids(keys: &[Vec<AttrId>]) -> Vec<Vec<usize>> {
        keys.iter()
            .map(|k| k.iter().map(|a| a.index()).collect())
            .collect()
    }

    #[test]
    fn single_minimal_key() {
        let mut b = DatasetBuilder::new(["c", "id"]);
        for i in 0..8i64 {
            b.push_row([Value::Int(0), Value::Int(i)]).unwrap();
        }
        let keys = enumerate_minimal_keys(&b.finish(), LatticeConfig::default());
        assert_eq!(ids(&keys), vec![vec![1]]);
    }

    #[test]
    fn composite_minimal_keys() {
        // a×b grid: neither a nor b alone is a key; {a,b} is; c is noise
        // that never helps minimally.
        let mut b = DatasetBuilder::new(["a", "b", "c"]);
        for i in 0..3i64 {
            for j in 0..3i64 {
                b.push_row([Value::Int(i), Value::Int(j), Value::Int(0)])
                    .unwrap();
            }
        }
        let keys = enumerate_minimal_keys(&b.finish(), LatticeConfig::default());
        assert_eq!(ids(&keys), vec![vec![0, 1]]);
    }

    #[test]
    fn multiple_minimal_keys_found() {
        // id1 and id2 are independent keys; {a} is not.
        let mut b = DatasetBuilder::new(["id1", "a", "id2"]);
        for i in 0..6i64 {
            b.push_row([Value::Int(i), Value::Int(i % 2), Value::Int(5 - i)])
                .unwrap();
        }
        let keys = enumerate_minimal_keys(&b.finish(), LatticeConfig::default());
        assert_eq!(ids(&keys), vec![vec![0], vec![2]]);
    }

    #[test]
    fn minimality_no_supersets_reported() {
        // {a,b} and {a,c} are minimal keys; {a,b,c} must not appear.
        let mut b = DatasetBuilder::new(["a", "b", "c"]);
        let rows = [(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)];
        for (x, y, z) in rows {
            b.push_row([Value::Int(x), Value::Int(y), Value::Int(z)])
                .unwrap();
        }
        let keys = enumerate_minimal_keys(&b.finish(), LatticeConfig::default());
        // b == c here, so minimal keys are {a,b} and {a,c}.
        assert_eq!(ids(&keys), vec![vec![0, 1], vec![0, 2]]);
        for k in &keys {
            assert!(k.len() < 3);
        }
    }

    #[test]
    fn no_key_at_all() {
        let mut b = DatasetBuilder::new(["a", "b"]);
        b.push_row([Value::Int(1), Value::Int(1)]).unwrap();
        b.push_row([Value::Int(1), Value::Int(1)]).unwrap();
        let keys = enumerate_minimal_keys(&b.finish(), LatticeConfig::default());
        assert!(keys.is_empty());
    }

    #[test]
    fn max_size_truncates_search() {
        // The only key is all three attributes; with max_size 2 nothing
        // is found.
        let mut b = DatasetBuilder::new(["a", "b", "c"]);
        for i in 0..2i64 {
            for j in 0..2i64 {
                for k in 0..2i64 {
                    b.push_row([Value::Int(i), Value::Int(j), Value::Int(k)])
                        .unwrap();
                }
            }
        }
        let ds = b.finish();
        let limited = enumerate_minimal_keys(
            &ds,
            LatticeConfig {
                max_size: 2,
                ..LatticeConfig::default()
            },
        );
        assert!(limited.is_empty());
        let full = enumerate_minimal_keys(&ds, LatticeConfig::default());
        assert_eq!(ids(&full), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn aborted_search_keeps_size_then_lexicographic_order() {
        // {a,b} is a 3×3 grid key, c–f are constant, g is a row id. Level
        // 2 has C(6,2) = 15 candidates; level 3 has the 16 triples of
        // a–f without both a and b, one more than the cap allows.
        let mut b = DatasetBuilder::new(["a", "b", "c", "d", "e", "f", "g"]);
        for i in 0..9i64 {
            let row = [i / 3, i % 3, 0, 0, 0, 0, i];
            b.push_row(row.map(Value::Int)).unwrap();
        }
        let ds = b.finish();
        let cfg = LatticeConfig {
            max_size: 6,
            max_candidates: 15,
        };
        // Plain lexicographic order would put [0, 1] before [6].
        assert_eq!(
            ids(&enumerate_minimal_keys(&ds, cfg)),
            vec![vec![6], vec![0, 1]]
        );
        // Without the cap the search runs on and finds nothing more.
        let full = enumerate_minimal_keys(&ds, LatticeConfig::default());
        assert_eq!(ids(&full), vec![vec![6], vec![0, 1]]);
    }

    #[test]
    fn degenerate_small_datasets() {
        let empty = DatasetBuilder::new(["a"]).finish();
        let keys = enumerate_minimal_keys(&empty, LatticeConfig::default());
        assert_eq!(keys, vec![Vec::<AttrId>::new()]);
    }
}
