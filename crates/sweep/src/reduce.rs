//! Deterministic, shard-decomposable floating-point reduction.
//!
//! f64 addition is not associative, so "sum these S values" has as many
//! answers as there are summation orders — poison for a codebase whose
//! contract is *bit-identical output for any thread count*. This module
//! fixes one canonical order: a **pairwise summation tree** over the
//! values, padded to a power of two with zeros. Two properties make it
//! the right canonical form:
//!
//! 1. **Every node is a pure function of the current leaf values** (each
//!    internal node is the rounded sum of its two children). An engine
//!    that updates one leaf and recomputes the O(log n) path to the root
//!    ([`SumTree::set`]) reads the *same* root as one that rebuilds the
//!    whole tree from scratch ([`SumTree::sum_of`]) — history cannot leak
//!    into the bits.
//! 2. **Subtrees are themselves canonical sums.** Splitting the leaves at
//!    power-of-two-aligned boundaries ([`ShardPlan`]) and combining the
//!    per-shard roots with a [`SumTree`] over the shards reproduces the
//!    whole-slice sum bit-for-bit, because the shard roots *are* interior
//!    nodes of the big tree. That is what lets a parallel fan-out reduce
//!    shard partials in order and still match the serial engine exactly.
//!
//! (Pairwise summation also has O(log n) rounding-error growth versus
//! O(n) for a left-to-right fold — the canonical order is the *more*
//! accurate one, not a compromise.)

use std::ops::Range;

/// A pairwise summation tree over `n` f64 leaves, padded with zeros to
/// the next power of two.
///
/// `set` is O(log n); `total` is O(1). The root equals
/// [`SumTree::sum_of`] over the current leaf values, bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct SumTree {
    /// Number of addressable leaves (callers' `n`).
    n: usize,
    /// Padded leaf count, a power of two.
    width: usize,
    /// 1-indexed heap layout: `nodes[1]` is the root, leaves occupy
    /// `width .. 2 * width`.
    nodes: Vec<f64>,
}

impl SumTree {
    /// A tree of `n` leaves, all zero.
    pub fn new(n: usize) -> Self {
        let width = n.max(1).next_power_of_two();
        SumTree {
            n,
            width,
            nodes: vec![0.0; 2 * width],
        }
    }

    /// Number of addressable leaves.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the tree has no addressable leaves.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Current value of leaf `i`.
    pub fn get(&self, i: usize) -> f64 {
        assert!(i < self.n, "leaf {i} out of range (n = {})", self.n);
        self.nodes[self.width + i]
    }

    /// Sets leaf `i` and recomputes the path to the root.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()` or `v` is not finite.
    pub fn set(&mut self, i: usize, v: f64) {
        assert!(i < self.n, "leaf {i} out of range (n = {})", self.n);
        debug_assert!(v.is_finite(), "leaf values must be finite");
        // Narrow the slice so the length is symbolically `2 * width`:
        // with `k < 2 * width` established once at the leaf, the
        // optimizer can prove every index below in range (`k / 2 <
        // width` implies `2 * (k / 2) + 1 < 2 * width`) and drop the
        // per-level bounds checks — this is the hottest loop of the
        // incremental aggregation path.
        //
        // The path sum rides in a register: each level adds the
        // sibling `nodes[k ^ 1]` to the value just stored at `k`
        // instead of reloading both children. IEEE addition is
        // commutative (−0.0 and +0.0 included), so `acc + sibling` has
        // the bits of `nodes[2k] + nodes[2k + 1]` whichever child `k`
        // is, and every node keeps the value a from-scratch build gives
        // it.
        let width = self.width;
        let nodes = &mut self.nodes[..2 * width];
        let mut k = width + i;
        let mut acc = v;
        nodes[k] = acc;
        while k > 1 {
            acc += nodes[k ^ 1];
            k /= 2;
            nodes[k] = acc;
        }
    }

    /// The canonical pairwise sum of all leaves.
    pub fn total(&self) -> f64 {
        self.nodes[1]
    }

    /// The canonical pairwise sum of a slice: build-and-read. Defined so
    /// that incrementally maintained trees ([`SumTree::set`]) and
    /// from-scratch evaluation agree bit-for-bit.
    pub fn sum_of(values: &[f64]) -> f64 {
        Self::from_leaves(values).total()
    }

    /// A tree built bottom-up from `values`, every node the sum of its
    /// two children.
    fn from_leaves(values: &[f64]) -> Self {
        let mut tree = SumTree::new(values.len());
        tree.nodes[tree.width..tree.width + values.len()].copy_from_slice(values);
        for k in (1..tree.width).rev() {
            tree.nodes[k] = tree.nodes[2 * k] + tree.nodes[2 * k + 1];
        }
        tree
    }
}

/// A power-of-two-aligned partition of `0..n` into shards whose
/// boundaries coincide with [`SumTree`] subtrees.
///
/// `width` and `count` are powers of two with
/// `width * count == n.next_power_of_two()`, so shard `s` covers exactly
/// the leaves of one depth-`log2(count)` subtree of the `n`-leaf tree.
/// Consequently: per-shard sums computed with a `width`-leaf [`SumTree`]
/// (missing leaves left at zero), combined in shard order by a
/// `count`-leaf [`SumTree`], equal `SumTree::sum_of` over the whole
/// slice bit-for-bit — the invariant the
/// `sharded_reduce_matches_whole_slice_sum` proptest pins.
///
/// The plan depends only on `n` and `max_shards`, never on a thread
/// count: parallel schedules change which worker computes a shard, not
/// what any shard contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Items being partitioned.
    pub n: usize,
    /// Leaves per shard (power of two).
    pub width: usize,
    /// Number of shards (power of two); trailing shards may be empty.
    pub count: usize,
}

impl ShardPlan {
    /// Plans at most `max_shards` aligned shards over `n` items.
    pub fn new(n: usize, max_shards: usize) -> Self {
        let padded = n.max(1).next_power_of_two();
        // Floor `max_shards` to a power of two, then clamp to the padded
        // width (a shard must hold at least one leaf).
        let mut count = max_shards.max(1).next_power_of_two();
        if count > max_shards {
            count /= 2;
        }
        let count = count.min(padded);
        ShardPlan {
            n,
            width: padded / count,
            count,
        }
    }

    /// The item range of shard `s` (clipped to `n`; may be empty).
    pub fn range(&self, s: usize) -> Range<usize> {
        assert!(s < self.count, "shard {s} out of range");
        let start = (s * self.width).min(self.n);
        let end = ((s + 1) * self.width).min(self.n);
        start..end
    }

    /// All shard ranges, in order.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.count).map(|s| self.range(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tree_sums_exactly_for_exact_inputs() {
        let mut tree = SumTree::new(5);
        for (i, v) in [1.0, 2.0, 3.0, 4.0, 5.0].iter().enumerate() {
            tree.set(i, *v);
        }
        assert_eq!(tree.total(), 15.0);
        assert_eq!(tree.get(2), 3.0);
        tree.set(2, 10.0);
        assert_eq!(tree.total(), 22.0);
        assert_eq!(SumTree::sum_of(&[1.0, 2.0, 10.0, 4.0, 5.0]), 22.0);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(SumTree::sum_of(&[]), 0.0);
        assert_eq!(SumTree::new(0).total(), 0.0);
        assert!(SumTree::new(0).is_empty());
        assert_eq!(SumTree::sum_of(&[7.5]), 7.5);
        let mut one = SumTree::new(1);
        one.set(0, -3.25);
        assert_eq!(one.total(), -3.25);
        assert_eq!(one.len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_rejects_out_of_range() {
        SumTree::new(3).set(3, 1.0);
    }

    #[test]
    fn shard_plan_shapes() {
        let p = ShardPlan::new(10, 4);
        assert_eq!((p.width, p.count), (4, 4));
        let ranges: Vec<_> = p.ranges().collect();
        assert_eq!(ranges, vec![0..4, 4..8, 8..10, 10..10]);

        // max_shards floors to a power of two.
        let p = ShardPlan::new(100, 6);
        assert_eq!(p.count, 4);
        assert_eq!(p.width * p.count, 128);

        // Tiny n: never more shards than padded leaves.
        let p = ShardPlan::new(1, 64);
        assert_eq!((p.width, p.count), (1, 1));
        let p = ShardPlan::new(0, 8);
        assert_eq!(p.range(0), 0..0);
    }

    fn reduce_via_shards(values: &[f64], max_shards: usize) -> f64 {
        let plan = ShardPlan::new(values.len(), max_shards);
        let mut top = SumTree::new(plan.count);
        for (s, range) in plan.ranges().enumerate() {
            // A full-width shard tree with missing leaves left at zero —
            // exactly the corresponding subtree of the big tree.
            let mut shard = SumTree::new(plan.width);
            for (j, &v) in values[range].iter().enumerate() {
                shard.set(j, v);
            }
            top.set(s, shard.total());
        }
        top.total()
    }

    /// Leaf values for the history test: ordinary magnitudes, signed
    /// zeros (whose sum's sign depends on both operands), and ±1e15
    /// beside ±1, where a sum cancels to a value that rounding history
    /// could otherwise show through.
    fn leaf() -> impl Strategy<Value = f64> {
        prop_oneof![
            -1.0e6..1.0e6f64,
            Just(0.0),
            Just(-0.0),
            Just(1.0e15),
            Just(-1.0e15),
            Just(1.0),
            Just(-1.0),
            (-3i32..=3).prop_map(|m| f64::from(m) * 0.5 + 1.0e15),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn incremental_tree_matches_from_scratch(
            values in proptest::collection::vec(-1.0e9..1.0e9f64, 0..70),
        ) {
            let mut tree = SumTree::new(values.len());
            for (i, &v) in values.iter().enumerate() {
                tree.set(i, v);
            }
            prop_assert_eq!(
                tree.total().to_bits(),
                SumTree::sum_of(&values).to_bits()
            );
        }

        #[test]
        fn sharded_reduce_matches_whole_slice_sum(
            values in proptest::collection::vec(-1.0e9..1.0e9f64, 0..70),
            max_shards in 1usize..20,
        ) {
            prop_assert_eq!(
                reduce_via_shards(&values, max_shards).to_bits(),
                SumTree::sum_of(&values).to_bits()
            );
        }

        #[test]
        fn updates_cannot_leak_history_into_bits(
            values in proptest::collection::vec(leaf(), 1..40),
            overwrites in proptest::collection::vec((0usize..40, leaf()), 0..40),
        ) {
            // Apply a churn of overwrites, then restore the original
            // values: the root — and every interior node on the way —
            // must be exactly the from-scratch tree.
            let mut tree = SumTree::new(values.len());
            for (i, &v) in values.iter().enumerate() {
                tree.set(i, v);
            }
            for &(i, v) in &overwrites {
                tree.set(i % values.len(), v);
            }
            for (i, &v) in values.iter().enumerate() {
                tree.set(i, v);
            }
            prop_assert_eq!(
                tree.total().to_bits(),
                SumTree::sum_of(&values).to_bits()
            );
            let bits = |t: &SumTree| t.nodes.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&tree), bits(&SumTree::from_leaves(&values)));
        }
    }
}
