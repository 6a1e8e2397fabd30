//! Appendix B: greedy set cover by partition refinement — `O(m³/√ε)`.

use rand::rngs::StdRng;
use rand::SeedableRng;

use qid_dataset::{AttrId, Dataset};
use qid_sampling::swor::sample_indices;

use crate::filter::FilterParams;
use crate::separation::{FlatGroups, PartitionIndex, Refiner};

use super::MinKeyResult;

/// The paper's improved approximate-minimum-key algorithm.
///
/// Sample `R = Θ(m/√ε)` tuples; run greedy set cover where the ground
/// set is `C(R,2)` — *implicitly*: the state is the set of cliques of
/// the auxiliary graph `G_A` restricted to `R`, and an attribute's
/// marginal gain is the number of sampled pairs it newly separates,
///
/// ```text
/// g_k = ½ Σ_i ( |C_i|² − Σ_a |D_a^{(i)}|² )
/// ```
///
/// where attribute `k` splits clique `C_i` into the `D_a^{(i)}`. Splits
/// are computed in `O(|R|)` per attribute via the precomputed lookup
/// table `P` (Algorithm 3), so each greedy round costs `O(m·|R|)` and
/// the whole run `O(m²·|R|) = O(m³/√ε)` — the Proposition 1 bound.
#[derive(Clone, Copy, Debug)]
pub struct GreedyRefineMinKey {
    params: FilterParams,
}

impl GreedyRefineMinKey {
    /// Creates the solver with the given sampling parameters.
    pub fn new(params: FilterParams) -> Self {
        GreedyRefineMinKey { params }
    }

    /// Samples from `ds` and runs the greedy cover.
    pub fn run(&self, ds: &Dataset, seed: u64) -> MinKeyResult {
        let r = self.params.tuple_sample_size(ds.n_attrs()).min(ds.n_rows());
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = sample_indices(&mut rng, ds.n_rows(), r);
        let sample = ds.gather(&rows);
        Self::run_on_sample(&sample)
    }

    /// Runs the greedy cover directly on a sample (or any small data
    /// set) — the core of Proposition 1.
    pub fn run_on_sample(sample: &Dataset) -> MinKeyResult {
        Self::run_on_sample_with_slack(sample, 0.0)
    }

    /// Greedy cover that stops once at most a `slack` fraction of the
    /// sample's pairs remain unseparated (`slack = 0` demands a full
    /// key). Privacy tooling uses `slack = ε` to chase *quasi*-keys:
    /// an attribute set can re-identify almost everyone while still
    /// colliding somewhere in the sample.
    ///
    /// # Panics
    /// Panics if `slack` is negative or ≥ 1.
    pub fn run_on_sample_with_slack(sample: &Dataset, slack: f64) -> MinKeyResult {
        assert!((0.0..1.0).contains(&slack), "slack must be in [0, 1)");
        let n = sample.n_rows();
        let m = sample.n_attrs();
        let total_pairs = sample.n_pairs();
        let target: u128 = (slack * total_pairs as f64).floor() as u128;
        let idx = PartitionIndex::build(sample);
        let mut refiner = Refiner::new(&idx);

        // State: cliques of size ≥ 2 (singletons are fully separated).
        let mut groups = if n >= 2 {
            FlatGroups::whole(n)
        } else {
            FlatGroups::default()
        };
        let mut unseparated = total_pairs;
        let mut chosen: Vec<AttrId> = Vec::new();
        let mut in_chosen = vec![false; m];

        while unseparated > target && !groups.is_empty() && chosen.len() < m {
            // Pick the attribute separating the most currently
            // unseparated pairs.
            let mut best: Option<(u128, usize)> = None;
            #[allow(clippy::needless_range_loop)] // k is also the AttrId payload
            for k in 0..m {
                if in_chosen[k] {
                    continue;
                }
                let attr = AttrId::new(k);
                let mut gain: u128 = 0;
                for g in groups.iter() {
                    let c = g.len() as u128;
                    let mut sq_after: u128 = 0;
                    for &sz in refiner.split_sizes(&idx, attr, g) {
                        sq_after += (sz as u128) * (sz as u128);
                    }
                    gain += (c * c - sq_after) / 2;
                }
                match best {
                    Some((bg, _)) if bg >= gain => {}
                    _ => best = Some((gain, k)),
                }
            }
            let Some((gain, k)) = best else { break };
            if gain == 0 {
                // No attribute separates anything further: the sample
                // contains identical tuples.
                break;
            }
            in_chosen[k] = true;
            let attr = AttrId::new(k);
            chosen.push(attr);
            unseparated -= gain;
            let mut next = FlatGroups::default();
            for g in groups.iter() {
                refiner.split(&idx, attr, g, &mut next);
            }
            groups = next;
        }

        MinKeyResult {
            attrs: chosen,
            complete: unseparated <= target,
            sample_size: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qid_dataset::{DatasetBuilder, Value};

    use crate::separation::is_key;

    fn attr_ids(r: &MinKeyResult) -> Vec<usize> {
        r.attrs.iter().map(|a| a.index()).collect()
    }

    /// id column is a key by itself; others are weaker.
    fn fixture() -> Dataset {
        let mut b = DatasetBuilder::new(["half", "quarter", "id"]);
        for i in 0..16i64 {
            b.push_row([Value::Int(i % 2), Value::Int(i % 4), Value::Int(i)])
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn finds_single_attribute_key() {
        let ds = fixture();
        let r = GreedyRefineMinKey::run_on_sample(&ds);
        assert!(r.complete);
        assert_eq!(attr_ids(&r), vec![2], "greedy must take the id column");
        assert!(is_key(&ds, &r.attrs));
    }

    #[test]
    fn composite_key() {
        // No single attribute is a key; {a, b} is.
        let mut b = DatasetBuilder::new(["a", "b"]);
        for i in 0..4i64 {
            for j in 0..4i64 {
                b.push_row([Value::Int(i), Value::Int(j)]).unwrap();
            }
        }
        let ds = b.finish();
        let r = GreedyRefineMinKey::run_on_sample(&ds);
        assert!(r.complete);
        assert_eq!(r.key_size(), 2);
        assert!(is_key(&ds, &r.attrs));
    }

    #[test]
    fn duplicate_rows_yield_incomplete() {
        let mut b = DatasetBuilder::new(["a", "b"]);
        b.push_row([Value::Int(1), Value::Int(1)]).unwrap();
        b.push_row([Value::Int(1), Value::Int(1)]).unwrap();
        b.push_row([Value::Int(2), Value::Int(1)]).unwrap();
        let ds = b.finish();
        let r = GreedyRefineMinKey::run_on_sample(&ds);
        assert!(!r.complete);
        // It still separates what it can.
        assert_eq!(attr_ids(&r), vec![0]);
    }

    #[test]
    fn greedy_gain_priority() {
        // quarter separates more pairs than half; both needed with id
        // absent. Greedy must pick quarter first.
        let mut b = DatasetBuilder::new(["half", "quarter", "eighth"]);
        for i in 0..16i64 {
            b.push_row([Value::Int(i % 2), Value::Int(i % 4), Value::Int(i % 8)])
                .unwrap();
        }
        let ds = b.finish();
        let r = GreedyRefineMinKey::run_on_sample(&ds);
        // eighth has the largest gain, then the others refine further;
        // no key exists (rows 0 and 8 collide on all three? 0%2=0,0%4=0,
        // 0%8=0 vs 8%2=0, 8%4=0, 8%8=0 — identical). Not complete.
        assert!(!r.complete);
        assert_eq!(r.attrs[0], AttrId::new(2), "largest-gain attribute first");
    }

    #[test]
    fn sampling_run_respects_params() {
        let mut b = DatasetBuilder::new(["id", "c"]);
        for i in 0..1000i64 {
            b.push_row([Value::Int(i), Value::Int(0)]).unwrap();
        }
        let ds = b.finish();
        let solver = GreedyRefineMinKey::new(FilterParams::new(0.04));
        let r = solver.run(&ds, 7);
        // m=2, ε=0.04 → r = 2/0.2 = 10 samples.
        assert_eq!(r.sample_size, 10);
        assert!(r.complete);
        assert_eq!(attr_ids(&r), vec![0]);
    }

    #[test]
    fn slack_stops_early() {
        // 100 rows: "coarse" separates 99% of pairs; "fine" finishes
        // the job. With 5% slack the greedy should stop after coarse.
        let mut b = DatasetBuilder::new(["coarse", "fine"]);
        for i in 0..100i64 {
            b.push_row([Value::Int(i / 2), Value::Int(i % 2)]).unwrap();
        }
        let ds = b.finish();
        let strict = GreedyRefineMinKey::run_on_sample(&ds);
        assert!(strict.complete);
        assert_eq!(strict.key_size(), 2);

        let slack = GreedyRefineMinKey::run_on_sample_with_slack(&ds, 0.05);
        assert!(slack.complete);
        assert_eq!(slack.key_size(), 1, "5% slack should accept coarse alone");
        assert_eq!(slack.attrs, vec![AttrId::new(0)]);
    }

    #[test]
    fn slack_complete_even_with_duplicates() {
        // Two identical rows poison exact keys but not quasi-keys.
        let mut b = DatasetBuilder::new(["id"]);
        for i in 0..50i64 {
            b.push_row([Value::Int(i.min(48))]).unwrap(); // rows 48,49 equal
        }
        let ds = b.finish();
        let strict = GreedyRefineMinKey::run_on_sample(&ds);
        assert!(!strict.complete);
        let slack = GreedyRefineMinKey::run_on_sample_with_slack(&ds, 0.01);
        assert!(slack.complete, "1 bad pair of C(50,2) is within 1% slack");
    }

    #[test]
    #[should_panic(expected = "slack")]
    fn slack_out_of_range_rejected() {
        let ds = DatasetBuilder::new(["a"]).finish();
        let _ = GreedyRefineMinKey::run_on_sample_with_slack(&ds, 1.0);
    }

    #[test]
    fn empty_and_single_row() {
        let empty = DatasetBuilder::new(["a"]).finish();
        let r = GreedyRefineMinKey::run_on_sample(&empty);
        assert!(r.complete);
        assert!(r.attrs.is_empty());

        let mut b = DatasetBuilder::new(["a"]);
        b.push_row([Value::Int(1)]).unwrap();
        let one = b.finish();
        let r = GreedyRefineMinKey::run_on_sample(&one);
        assert!(r.complete);
        assert!(r.attrs.is_empty(), "single row needs no attributes");
    }
}
