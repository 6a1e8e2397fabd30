//! Property-based invariants across the whole stack (proptest).

use proptest::prelude::*;

use quasi_id::core::minkey::{enumerate_minimal_keys, GreedyRefineMinKey, LatticeConfig};
use quasi_id::core::separation::{group_sizes, unseparated_pairs, PartitionIndex, Refiner};
use quasi_id::prelude::*;
use quasi_id::sampling::{pair_count, rank_pair, unrank_pair};

/// Strategy: a small random data set as a code matrix (rows × attrs)
/// with bounded cardinality per attribute.
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (1usize..40, 1usize..5).prop_flat_map(|(rows, attrs)| {
        proptest::collection::vec(proptest::collection::vec(0i64..6, attrs), rows).prop_map(
            move |matrix| {
                let names: Vec<String> = (0..attrs).map(|a| format!("a{a}")).collect();
                let mut b = DatasetBuilder::new(names);
                for row in matrix {
                    b.push_row(row.into_iter().map(Value::Int)).unwrap();
                }
                b.finish()
            },
        )
    })
}

/// All subsets of the attribute set (data sets are ≤ 4 attrs wide).
fn all_subsets(m: usize) -> Vec<Vec<AttrId>> {
    (0u32..(1 << m))
        .map(|mask| {
            (0..m)
                .filter(|&i| mask & (1 << i) != 0)
                .map(AttrId::new)
                .collect()
        })
        .collect()
}

/// Strategy: a small data set shaped to stress key search — n from 0
/// up (so the degenerate 0-, 1- and 2-row cases come up), up to six
/// attributes of cardinality 1 (constant) to 5, and some rows repeated
/// verbatim so that no attribute set is a key.
fn lattice_dataset_strategy() -> impl Strategy<Value = Dataset> {
    (0usize..14, 1usize..7, 0usize..3).prop_flat_map(|(rows, attrs, dups)| {
        (
            proptest::collection::vec(1i64..6, attrs),
            proptest::collection::vec(proptest::collection::vec(0i64..1000, attrs), rows),
        )
            .prop_map(move |(cards, raw)| {
                let names: Vec<String> = (0..attrs).map(|a| format!("a{a}")).collect();
                let mut b = DatasetBuilder::new(names);
                for row in raw.iter().chain(raw.iter().take(dups)) {
                    b.push_row(row.iter().zip(&cards).map(|(v, c)| Value::Int(v % c)))
                        .unwrap();
                }
                b.finish()
            })
    })
}

/// Brute force: every attribute set of at most `max_size` attributes
/// (the empty set included) that separates all pairs and has no key as
/// a proper subset, in ascending size then lexicographic order.
fn minimal_keys_oracle(ds: &Dataset, max_size: usize) -> Vec<Vec<AttrId>> {
    let keys: Vec<Vec<AttrId>> = all_subsets(ds.n_attrs())
        .into_iter()
        .filter(|s| s.len() <= max_size && unseparated_pairs(ds, s) == 0)
        .collect();
    let mut minimal: Vec<Vec<AttrId>> = keys
        .iter()
        .filter(|k| {
            !keys
                .iter()
                .any(|sub| sub.len() < k.len() && sub.iter().all(|a| k.contains(a)))
        })
        .cloned()
        .collect();
    minimal.sort_by(|a, b| (a.len(), a.as_slice()).cmp(&(b.len(), b.as_slice())));
    minimal
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The stripped-partition lattice finds exactly the brute-force
    /// minimal keys, in the documented order.
    #[test]
    fn lattice_equals_brute_force_oracle(ds in lattice_dataset_strategy(), max_size in 1usize..5) {
        let cfg = LatticeConfig { max_size, ..LatticeConfig::default() };
        prop_assert_eq!(enumerate_minimal_keys(&ds, cfg), minimal_keys_oracle(&ds, max_size));
    }

    /// `Refiner::separates_all` agrees with the sort-based oracle on
    /// random groups of rows: over many calls on one refiner (its
    /// scratch is never reset between them), and on the call that wraps
    /// the stamp, right after a call that left generation-1 marks.
    #[test]
    fn separates_all_matches_group_sizes(
        ds in lattice_dataset_strategy(),
        masks in proptest::collection::vec(0u32..(1 << 16), 4),
    ) {
        let idx = PartitionIndex::build(&ds);
        let groups: Vec<Vec<u32>> = masks
            .iter()
            .map(|&mask| (0..ds.n_rows() as u32).filter(|&r| mask & (1 << r) != 0).collect())
            .collect();
        let expected = |group: &[u32], attr: AttrId| {
            let rows: Vec<usize> = group.iter().map(|&r| r as usize).collect();
            group_sizes(&ds.gather(&rows), &[attr]).iter().all(|&c| c == 1)
        };
        let mut refiner = Refiner::new(&idx);
        for a in 0..ds.n_attrs() {
            let attr = AttrId::new(a);
            for group in &groups {
                prop_assert_eq!(refiner.separates_all(&idx, attr, group), expected(group, attr));
            }
            for pair in groups.windows(2) {
                let mut wrapping = Refiner::new(&idx);
                prop_assert_eq!(wrapping.separates_all(&idx, attr, &pair[0]), expected(&pair[0], attr));
                wrapping.fast_forward_generation(u32::MAX);
                prop_assert_eq!(wrapping.separates_all(&idx, attr, &pair[1]), expected(&pair[1], attr));
            }
        }
    }

    /// Γ is monotone non-increasing under attribute-set inclusion.
    #[test]
    fn gamma_monotone_in_attrs(ds in dataset_strategy()) {
        let m = ds.n_attrs();
        for attrs in all_subsets(m) {
            let gamma = unseparated_pairs(&ds, &attrs);
            for extra in 0..m {
                let a = AttrId::new(extra);
                if attrs.contains(&a) { continue; }
                let mut bigger = attrs.clone();
                bigger.push(a);
                prop_assert!(
                    unseparated_pairs(&ds, &bigger) <= gamma,
                    "adding {a} increased Γ"
                );
            }
        }
    }

    /// Group sizes always partition the rows; Γ consistent with sizes.
    #[test]
    fn group_sizes_partition_rows(ds in dataset_strategy()) {
        for attrs in all_subsets(ds.n_attrs()) {
            let sizes = group_sizes(&ds, &attrs);
            let total: usize = sizes.iter().sum();
            prop_assert_eq!(total, ds.n_rows());
            let gamma: u128 = sizes.iter().map(|&c| (c as u128) * (c as u128 - 1) / 2).sum();
            prop_assert_eq!(gamma, unseparated_pairs(&ds, &attrs));
        }
    }

    /// The filters accept every key and reject every subset that fails
    /// on the sample — and both behaviours are sound w.r.t. the oracle.
    #[test]
    fn filter_decisions_sound(ds in dataset_strategy(), seed in 0u64..50) {
        prop_assume!(ds.n_rows() >= 2);
        let eps = 0.05;
        let params = FilterParams::new(eps);
        let oracle = ExactOracle::new(&ds);
        let tuple = TupleSampleFilter::build(&ds, params, seed);
        let pair = PairSampleFilter::build(&ds, params, seed);
        for attrs in all_subsets(ds.n_attrs()) {
            if attrs.is_empty() { continue; }
            if oracle.is_key(&attrs) {
                prop_assert_eq!(tuple.query(&attrs), FilterDecision::Accept);
                prop_assert_eq!(pair.query(&attrs), FilterDecision::Accept);
            }
            // A rejection always has a witness pair in the data.
            if tuple.query(&attrs) == FilterDecision::Reject {
                prop_assert!(oracle.unseparated(&attrs) > 0);
            }
            if pair.query(&attrs) == FilterDecision::Reject {
                prop_assert!(oracle.unseparated(&attrs) > 0);
            }
        }
    }

    /// Greedy-refine on the full (small) data set always returns a set
    /// separating everything separable, and never picks useless attrs.
    #[test]
    fn greedy_refine_complete_and_minimalish(ds in dataset_strategy()) {
        let r = GreedyRefineMinKey::run_on_sample(&ds);
        let full: Vec<AttrId> = ds.all_attrs();
        let best_possible = unseparated_pairs(&ds, &full);
        if r.complete {
            prop_assert_eq!(unseparated_pairs(&ds, &r.attrs), 0);
        } else {
            // Incomplete ⇒ even all attributes cannot separate.
            prop_assert!(best_possible > 0);
            prop_assert_eq!(unseparated_pairs(&ds, &r.attrs), best_possible);
        }
        // Every chosen attribute strictly reduced Γ (gain > 0): dropping
        // the last pick must increase Γ.
        if let Some((_last, rest)) = r.attrs.split_last() {
            prop_assert!(
                unseparated_pairs(&ds, rest) > unseparated_pairs(&ds, &r.attrs)
            );
        }
    }

    /// The partition index agrees with raw code comparisons, and the
    /// refiner's split sizes match group_sizes on single attributes.
    #[test]
    fn partition_index_consistent(ds in dataset_strategy()) {
        prop_assume!(ds.n_rows() >= 1);
        let idx = PartitionIndex::build(&ds);
        let mut refiner = Refiner::new(&idx);
        let all_rows: Vec<u32> = (0..ds.n_rows() as u32).collect();
        for a in 0..ds.n_attrs() {
            let attr = AttrId::new(a);
            let mut split: Vec<u32> = refiner.split_sizes(&idx, attr, &all_rows).to_vec();
            split.sort_unstable();
            let mut expected: Vec<u32> =
                group_sizes(&ds, &[attr]).into_iter().map(|s| s as u32).collect();
            expected.sort_unstable();
            prop_assert_eq!(split, expected);
        }
    }

    /// Pair (un)ranking is a bijection.
    #[test]
    fn pair_rank_bijection(n in 2usize..2000, salt in 0u128..1000) {
        let universe = pair_count(n);
        let rank = salt % universe;
        let (i, j) = unrank_pair(rank);
        prop_assert!(i < j && j < n || j >= n && rank >= pair_count(n));
        // j < n whenever rank < C(n,2):
        prop_assert!(j < n);
        prop_assert_eq!(rank_pair(i, j), rank);
    }

    /// Sketch estimates are exact when the sample covers the universe.
    #[test]
    fn sketch_exact_mode_is_exact(ds in dataset_strategy(), seed in 0u64..20) {
        prop_assume!(ds.n_rows() >= 2 && ds.n_rows() <= 30);
        let params = SketchParams::with_multiplier(0.5, 0.5, 2, 10_000.0);
        let sk = NonSeparationSketch::build(&ds, params, seed);
        let oracle = ExactOracle::new(&ds);
        for attrs in all_subsets(ds.n_attrs()) {
            if attrs.is_empty() || attrs.len() > 2 { continue; }
            let exact = oracle.unseparated(&attrs) as f64;
            match sk.query(&attrs) {
                SketchAnswer::Estimate(est) =>
                    prop_assert!((est - exact).abs() < 1e-6),
                SketchAnswer::Small =>
                    prop_assert!(exact < 0.5 * ds.n_pairs() as f64),
            }
        }
    }
}
