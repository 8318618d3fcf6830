//! TRS-Tree construction — Algorithm 1 of the paper.
//!
//! Construction is top-down over a FIFO queue of `(node, temporary table)`
//! pairs. For each node we fit an OLS model over the node's `(m, n)` pairs,
//! derive ε from `error_bound` (§4.5), and validate: pairs outside the
//! ε-band are outliers, and when they exceed `outlier_ratio` of the node's
//! tuples the node is split into `node_fanout` equal-width children (until
//! `max_height`). Two optimizations from Appendix D.2 are included:
//!
//! * **Sampling-based outlier estimation** — fit on a random 5% sample
//!   first and split immediately if the sample already fails validation.
//! * **Multi-threaded construction** — the top-down scheme has no cross-node
//!   dependencies, so sub-problems fan out to worker threads; see
//!   [`build_parallel`].
//!
//! Construction is linear per tree level — the paper's "fast curve
//! fitting". No step sorts a node's pairs: the trimmed refit and both
//! residual quantiles (a leaf's ε widening, the split lookahead's median)
//! *select* their order statistic, and the trimmed refit keeps exactly
//! the pairs a stable sort by residual would have put first, ties at the
//! cut taken in pair order (`compute_and_validate`). Each node is fitted
//! once: the split decision hands its fit to the leaf it builds, and a
//! split hands every child the bucket and fit its lookahead already made.

use crate::node::{LeafData, Node, NodeId, NodeKind, OutlierBuffer, TrsTree, ValueRange};
use crate::params::TrsParams;
use hermit_stats::sampling;
use hermit_stats::LinearModel;
use hermit_storage::{F64Key, Tid};
use rand::Rng;
use std::cmp::Ordering;
use std::collections::VecDeque;

/// One `(target, host, tid)` tuple, the unit of TRS-Tree construction.
type Pair = (f64, f64, Tid);

/// Smallest ε a leaf may carry. A strictly positive floor keeps exact
/// functional dependencies (ε would be 0) from classifying every point that
/// suffers floating-point rounding as an outlier.
const MIN_EPS: f64 = 1e-9;

/// Derive the confidence interval ε from `error_bound` for a node covering
/// `n` tuples over target range `r` with fitted slope β (§4.5):
///
/// `error_bound ≈ 2ε / (β (ub − lb)) · n  ⇒  ε ≈ β (ub − lb) error_bound / 2n`
///
/// Degenerate cases (flat slope, zero-width range, empty node) fall back to
/// the ε floor — the model predicts a constant, so any real spread will
/// surface as outliers and trigger a split instead.
pub fn derive_eps(params: &TrsParams, beta: f64, range: &ValueRange, n: usize) -> f64 {
    if n == 0 {
        return MIN_EPS;
    }
    let eps = beta.abs() * range.width() * params.error_bound / (2.0 * n as f64);
    eps.max(MIN_EPS)
}

/// A node's validated fit: its model, ε, and how many of its pairs fall
/// outside the ε-band.
#[derive(Debug, Clone, Copy)]
struct Fit {
    model: LinearModel,
    eps: f64,
    outliers: usize,
}

impl Fit {
    /// More outliers than a leaf over `n` pairs may buffer.
    fn overflows(&self, params: &TrsParams, n: usize) -> bool {
        self.outliers as f64 > params.outlier_ratio * n as f64
    }
}

/// Fit a node's model and count the pairs outside its ε-band.
///
/// Plain OLS is fragile against extreme outliers: a single wild host value
/// drags the fit (or, on tiny leaves, explodes β and therefore ε until the
/// outlier itself is "covered"). We therefore run one *trimmed refit*
/// round: fit on everything, rank residuals, refit on the best
/// `1 − outlier_ratio` fraction, and keep whichever model classifies fewer
/// pairs as outliers. Perfectly-correlated data is untouched (zero
/// outliers short-circuits).
///
/// The ranking is a selection, not a sort ([`best_by_residual`]): the
/// refit sees exactly the pairs a stable sort by residual would have put
/// first — ties at the cut broken by pair order — and sums them in pair
/// order, so the round costs O(n).
fn compute_and_validate(params: &TrsParams, range: &ValueRange, pairs: &[Pair]) -> Fit {
    let model = LinearModel::fit_iter(pairs.iter().map(|(m, n, _)| (*m, *n)));
    let eps = derive_eps(params, model.beta, range, pairs.len());
    let outliers = pairs.iter().filter(|(m, n, _)| model.residual(*m, *n) > eps).count();
    let first = Fit { model, eps, outliers };
    if outliers == 0 || pairs.len() < 4 {
        return first;
    }

    let keep =
        ((pairs.len() as f64 * (1.0 - params.outlier_ratio)).ceil() as usize).clamp(2, pairs.len());
    let inliers = best_by_residual(pairs, |p| model.residual(p.0, p.1), keep);
    let refit = LinearModel::fit_iter(inliers.map(|p| (p.0, p.1)));
    let refit_eps = derive_eps(params, refit.beta, range, pairs.len());
    let refit_outliers =
        pairs.iter().filter(|(m, n, _)| refit.residual(*m, *n) > refit_eps).count();

    if refit_outliers < outliers {
        Fit { model: refit, eps: refit_eps, outliers: refit_outliers }
    } else {
        first
    }
}

/// The `keep` items (`1 ≤ keep ≤ items.len()`) a stable sort by `residual`
/// would put first, in item order, found in O(n): select the `keep`-th
/// smallest residual (the cut), then take every item below the cut and, in
/// item order, as many items *at* the cut as the count still needs.
/// Residuals compare by [`f64::total_cmp`], as the sort did.
fn best_by_residual<'a, T>(
    items: &'a [T],
    residual: impl Fn(&T) -> f64 + 'a,
    keep: usize,
) -> impl Iterator<Item = &'a T> + 'a {
    let mut residuals: Vec<f64> = items.iter().map(&residual).collect();
    let (below_cut, &mut cut, _) = residuals.select_nth_unstable_by(keep - 1, f64::total_cmp);
    // Everything after the cut's slot is ≥ the cut, so only the slots before
    // it can hold residuals strictly below.
    let below = below_cut.iter().filter(|r| r.total_cmp(&cut).is_lt()).count();
    let mut ties = keep - below;
    items.iter().filter(move |item| match residual(item).total_cmp(&cut) {
        Ordering::Less => true,
        Ordering::Equal if ties > 0 => {
            ties -= 1;
            true
        }
        _ => false,
    })
}

/// The `k`-th smallest (0-based) residual of `pairs` under `model` — the
/// value a sort would put at index `k`, by selection.
fn residual_rank(model: &LinearModel, pairs: &[Pair], k: usize) -> f64 {
    let mut residuals: Vec<f64> = pairs.iter().map(|(m, n, _)| model.residual(*m, *n)).collect();
    *residuals.select_nth_unstable_by(k, f64::total_cmp).1
}

/// Appendix D.2 pre-check: fit on a sample; `true` means "already failing —
/// split without the full regression".
fn sample_says_split(
    params: &TrsParams,
    rng: &mut impl Rng,
    range: &ValueRange,
    pairs: &[Pair],
    fraction: f64,
) -> bool {
    // Tiny nodes are cheaper to fit exactly than to sample.
    if pairs.len() < 200 {
        return false;
    }
    let sample = sampling::sample_fraction(rng, pairs, fraction, 100);
    let model = LinearModel::fit_iter(sample.iter().map(|p| (p.0, p.1)));
    let eps = derive_eps(params, model.beta, range, sample.len());
    let outliers = sample.iter().filter(|(m, n, _)| model.residual(*m, *n) > eps).count();
    outliers as f64 > params.outlier_ratio * sample.len() as f64
}

/// Build a leaf: fit, validate, stash outliers in the buffer.
///
/// A leaf only exists here because either validation passed or the node
/// can split no further (depth cap / too few tuples). In the latter case a
/// tight ε would classify nearly every tuple as an outlier — e.g. sensor
/// data whose measurement noise no amount of range splitting removes —
/// and the "succinct" index would degenerate into a hash copy of the
/// column. We preserve the paper's invariant that a leaf buffers at most
/// `outlier_ratio` of its tuples by widening ε to the
/// `(1 − outlier_ratio)` residual quantile when the derived ε would
/// overflow the buffer; correctness is unaffected (wider bands mean more
/// false positives, which base-table validation removes).
///
/// `fit` is the node's [`compute_and_validate`] result when the split
/// decision already computed it.
fn make_leaf(params: &TrsParams, range: ValueRange, pairs: &[Pair], fit: Option<Fit>) -> Node {
    let fit = fit.unwrap_or_else(|| compute_and_validate(params, &range, pairs));
    let (model, mut eps) = (fit.model, fit.eps);
    if fit.overflows(params, pairs.len()) {
        let keep = (((1.0 - params.outlier_ratio) * pairs.len() as f64).ceil() as usize)
            .clamp(1, pairs.len());
        // 1.5× slack over the bulk spread covers the tail of well-behaved
        // measurement noise (≈98.6% of a Gaussian) while points beyond it —
        // genuine outliers — still land in the buffer.
        eps = eps.max(residual_rank(&model, pairs, keep - 1) * 1.5);
    }
    let mut leaf = LeafData::new(model, eps, pairs.len());
    // The pairs come in heap order: collect the outliers, then sort once.
    let mut outliers = Vec::new();
    for (m, n, tid) in pairs {
        if !leaf.covers(*m, *n) {
            outliers.push((F64Key(*m), *tid));
        }
    }
    leaf.outliers = OutlierBuffer::from_entries(outliers);
    Node { range, kind: NodeKind::Leaf(leaf) }
}

/// What a node slot holds until construction finalizes it: an empty leaf.
fn placeholder(range: ValueRange) -> Node {
    Node { range, kind: NodeKind::Leaf(LeafData::new(LinearModel::constant(0.0), MIN_EPS, 0)) }
}

/// A split must shrink the (weighted) median absolute residual of the
/// children below this fraction of the parent's to proceed. Pure
/// measurement noise is range-invariant — children fit no better than the
/// parent — so without this lookahead the tree would split all the way to
/// `max_height` chasing noise it can never model (and the "succinct" index
/// would balloon into thousands of useless leaves). Genuine non-linearity
/// improves quadratically with range width (curvature ∝ w²) and sails past
/// this bar.
const SPLIT_IMPROVEMENT_FACTOR: f64 = 0.75;

/// Median absolute residual of `pairs` under `model` (0.0 for empty input).
/// The median is robust to the extreme outliers that motivate Hermit in
/// the first place.
fn median_abs_residual(model: &LinearModel, pairs: &[Pair]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    residual_rank(model, pairs, pairs.len() / 2)
}

/// What construction does with one node.
enum Decision {
    /// Keep it whole, as a leaf — with its fit when deciding already paid
    /// for one.
    Leaf(Option<Fit>),
    /// Split it: one `(bucket, fit)` per equal-width child, exactly as the
    /// lookahead partitioned and fitted them (no fit for an empty bucket).
    Split(Vec<(Vec<Pair>, Option<Fit>)>),
}

/// Decide whether a node over `range` with `pairs` splits. `known` is the
/// node's fit when its parent's lookahead already computed it.
fn decide(
    params: &TrsParams,
    rng: &mut impl Rng,
    depth: usize,
    range: &ValueRange,
    pairs: &[Pair],
    known: Option<Fit>,
) -> Decision {
    if depth >= params.max_height || range.width() <= 0.0 {
        return Decision::Leaf(known);
    }
    // A node with fewer pairs than fanout cannot meaningfully split.
    if pairs.len() <= params.node_fanout {
        return Decision::Leaf(known);
    }
    if let Some(fraction) = params.sampling_fraction {
        // Appendix D.2 fast path: if even the sample validates, skip the
        // full fit and keep the node whole.
        if !sample_says_split(params, rng, range, pairs, fraction) && pairs.len() >= 200 {
            return Decision::Leaf(known);
        }
    }
    let fit = known.unwrap_or_else(|| compute_and_validate(params, range, pairs));
    if !fit.overflows(params, pairs.len()) {
        return Decision::Leaf(Some(fit));
    }
    // One-level lookahead: fit the would-be children and require a real
    // residual improvement before paying for the split (see
    // SPLIT_IMPROVEMENT_FACTOR).
    let parent_cost = median_abs_residual(&fit.model, pairs);
    if parent_cost <= 0.0 {
        return Decision::Leaf(Some(fit));
    }
    let subs = range.split(params.node_fanout);
    let mut weighted_child_cost = 0.0;
    let children: Vec<(Vec<Pair>, Option<Fit>)> = split_table(&subs, range, pairs.to_vec())
        .into_iter()
        .zip(&subs)
        .map(|(bucket, sub)| {
            if bucket.is_empty() {
                return (bucket, None);
            }
            // Children must be fitted with the same trimmed-robust procedure
            // as real nodes: with raw OLS, a couple of wild outliers in a
            // small bucket drag the child fit so badly that the lookahead
            // wrongly concludes splitting cannot help.
            let child = compute_and_validate(params, sub, &bucket);
            weighted_child_cost += median_abs_residual(&child.model, &bucket) * bucket.len() as f64;
            (bucket, Some(child))
        })
        .collect();
    if weighted_child_cost / (pairs.len() as f64) < parent_cost * SPLIT_IMPROVEMENT_FACTOR {
        Decision::Split(children)
    } else {
        Decision::Leaf(Some(fit))
    }
}

/// Partition `pairs` into per-child buckets for `subs` (equal-width ranges).
fn split_table(subs: &[ValueRange], parent: &ValueRange, pairs: Vec<Pair>) -> Vec<Vec<Pair>> {
    let k = subs.len();
    let w = parent.width();
    let mut buckets: Vec<Vec<Pair>> = (0..k).map(|_| Vec::new()).collect();
    for p in pairs {
        let idx = (((p.0 - parent.lb) / w * k as f64) as isize).clamp(0, k as isize - 1) as usize;
        buckets[idx].push(p);
    }
    buckets
}

impl TrsTree {
    /// Build a TRS-Tree over `(target, host, tid)` pairs covering `range`
    /// (Algorithm 1). `range` normally comes from optimizer statistics
    /// ([`hermit_storage::ColumnStats::range`]).
    pub fn build(params: TrsParams, range: (f64, f64), pairs: Vec<Pair>) -> Self {
        params.validate().expect("invalid TrsParams");
        let root_range = ValueRange::new(range.0, range.1);
        let mut tree = TrsTree { arena: Vec::new(), root: 0, params, reorg_queue: VecDeque::new() };
        let mut rng = sampling::seeded_rng(params.seed);

        // FIFO work list of (node slot, depth, pairs, the node's fit if its
        // parent's lookahead made one). Node slots are pre-allocated so
        // parents can reference children by id before the children are
        // finalized.
        tree.arena.push(placeholder(root_range));
        let mut queue: VecDeque<(NodeId, usize, Vec<Pair>, Option<Fit>)> = VecDeque::new();
        queue.push_back((0, 1, pairs, None));

        while let Some((slot, depth, node_pairs, known)) = queue.pop_front() {
            let range = tree.arena[slot as usize].range;
            match decide(&tree.params, &mut rng, depth, &range, &node_pairs, known) {
                Decision::Split(buckets) => {
                    let subs = range.split(tree.params.node_fanout);
                    let mut children = Vec::with_capacity(subs.len());
                    for (sub, (bucket, fit)) in subs.into_iter().zip(buckets) {
                        let child = tree.alloc(placeholder(sub));
                        queue.push_back((child, depth + 1, bucket, fit));
                        children.push(child);
                    }
                    tree.arena[slot as usize].kind = NodeKind::Internal { children };
                }
                Decision::Leaf(fit) => {
                    tree.arena[slot as usize] = make_leaf(&tree.params, range, &node_pairs, fit);
                }
            }
        }
        // A built tree keeps no growth slack: `memory_bytes` counts slots.
        tree.arena.shrink_to_fit();
        tree
    }
}

/// Multi-threaded construction (Appendix D.2).
///
/// The root split is computed on the calling thread; each first-level
/// subtree then builds independently on a worker (no synchronization points,
/// as the appendix observes), and the results are stitched into one arena.
/// With `threads == 1` this is exactly [`TrsTree::build`].
pub fn build_parallel(
    params: TrsParams,
    range: (f64, f64),
    pairs: Vec<Pair>,
    threads: usize,
) -> TrsTree {
    params.validate().expect("invalid TrsParams");
    if threads <= 1 {
        return TrsTree::build(params, range, pairs);
    }
    let root_range = ValueRange::new(range.0, range.1);
    let mut rng = sampling::seeded_rng(params.seed);

    // The root split decision is the only serial fit in the parallel path;
    // running it over all N pairs would dominate wall-clock (Amdahl) for
    // exactly the large inputs threading targets. Decide on a 2% sample —
    // the workers re-fit their subtrees exactly anyway.
    let root_wants_split = {
        let sample: Vec<Pair> =
            sampling::sample_fraction(&mut rng, &pairs, 0.02, 2_000).into_iter().copied().collect();
        matches!(decide(&params, &mut rng, 1, &root_range, &sample, None), Decision::Split(_))
    };
    // If the root doesn't split, there is nothing to parallelize.
    if !root_wants_split {
        return TrsTree::build(params, range, pairs);
    }

    let subs = root_range.split(params.node_fanout);
    let buckets = split_table(&subs, &root_range, pairs);

    // Build each first-level subtree as its own TrsTree (depth budget is one
    // shallower), in parallel batches of `threads`.
    let mut sub_params = params;
    sub_params.max_height = params.max_height.saturating_sub(1).max(1);

    let mut jobs: Vec<Option<(ValueRange, Vec<Pair>)>> =
        subs.into_iter().zip(buckets).map(Some).collect();
    let mut subtrees: Vec<Option<TrsTree>> = (0..jobs.len()).map(|_| None).collect();

    crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut pending: Vec<usize> = (0..jobs.len()).collect();
        while !pending.is_empty() {
            let batch: Vec<usize> = pending.drain(..pending.len().min(threads)).collect();
            for idx in batch {
                let (sub, bucket) = jobs[idx].take().expect("job taken once");
                handles.push((
                    idx,
                    scope.spawn(move |_| TrsTree::build(sub_params, (sub.lb, sub.ub), bucket)),
                ));
            }
            for (idx, h) in handles.drain(..) {
                subtrees[idx] = Some(h.join().expect("subtree build panicked"));
            }
        }
    })
    .expect("thread scope");

    // Stitch: the root router in slot 0, then every subtree appended.
    let root = Node { range: root_range, kind: NodeKind::Internal { children: Vec::new() } };
    let mut tree = TrsTree { arena: vec![root], root: 0, params, reorg_queue: VecDeque::new() };
    let children = subtrees.into_iter().map(|s| tree.append_subtree(s.expect("built"))).collect();
    tree.arena[0].kind = NodeKind::Internal { children };
    tree.arena.shrink_to_fit();
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrsTreeStats;
    use proptest::prelude::*;

    fn linear_pairs(n: usize) -> Vec<Pair> {
        (0..n)
            .map(|i| {
                let m = i as f64;
                (m, 3.0 * m + 5.0, Tid(i as u64))
            })
            .collect()
    }

    fn sigmoid_pairs(n: usize) -> Vec<Pair> {
        (0..n)
            .map(|i| {
                let m = i as f64 / n as f64 * 20.0 - 10.0;
                (m, 1000.0 / (1.0 + (-m).exp()), Tid(i as u64))
            })
            .collect()
    }

    #[test]
    fn perfect_linear_correlation_yields_single_leaf() {
        let pairs = linear_pairs(10_000);
        let tree = TrsTree::build(TrsParams::default(), (0.0, 9_999.0), pairs);
        let stats = tree.stats();
        // §7.3: "TRS-Tree only needs to use a single leaf node to model the
        // [linear] correlation function".
        assert_eq!(stats.leaves, 1);
        assert_eq!(stats.internals, 0);
        assert_eq!(stats.outliers, 0);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn sigmoid_splits_into_multiple_leaves() {
        let pairs = sigmoid_pairs(50_000);
        let tree = TrsTree::build(TrsParams::default(), (-10.0, 10.0), pairs);
        let stats = tree.stats();
        assert!(stats.leaves > 1, "sigmoid needs tiered fitting, got {stats:?}");
        assert!(stats.height > 1);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn max_height_one_never_splits() {
        let pairs = sigmoid_pairs(20_000);
        let params = TrsParams { max_height: 1, ..Default::default() };
        let tree = TrsTree::build(params, (-10.0, 10.0), pairs);
        let stats = tree.stats();
        assert_eq!(stats.leaves, 1, "§6: max_height=1 is a single-node structure");
        assert_eq!(stats.height, 1);
    }

    #[test]
    fn noisy_data_lands_in_outlier_buffers() {
        let mut pairs = linear_pairs(10_000);
        // 2% of tuples get wildly wrong host values.
        for i in (0..pairs.len()).step_by(50) {
            pairs[i].1 += 1.0e6;
        }
        let tree = TrsTree::build(TrsParams::default(), (0.0, 9_999.0), pairs);
        let stats = tree.stats();
        assert!(
            stats.outliers >= 150,
            "noise should be buffered as outliers, got {}",
            stats.outliers
        );
        tree.check_invariants().unwrap();
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let tree = TrsTree::build(TrsParams::default(), (0.0, 100.0), vec![]);
        assert_eq!(tree.stats().leaves, 1);
        let tree = TrsTree::build(
            TrsParams::default(),
            (0.0, 100.0),
            vec![(1.0, 2.0, Tid(0)), (2.0, 4.0, Tid(1))],
        );
        assert_eq!(tree.stats().leaves, 1);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn degenerate_single_value_range() {
        let pairs: Vec<_> = (0..100).map(|i| (5.0, 10.0, Tid(i))).collect();
        let tree = TrsTree::build(TrsParams::default(), (5.0, 5.0), pairs);
        assert_eq!(tree.stats().leaves, 1);
        // The constant model should cover everything: no outliers.
        assert_eq!(tree.stats().outliers, 0);
    }

    #[test]
    fn eps_formula_matches_section_4_5() {
        let params = TrsParams::with_error_bound(2.0);
        let range = ValueRange::new(0.0, 100.0);
        // β = 2, n = 1000: ε = 2·100·2 / (2·1000) = 0.2
        let eps = derive_eps(&params, 2.0, &range, 1000);
        assert!((eps - 0.2).abs() < 1e-12, "eps = {eps}");
        // error_bound = 0 collapses to the floor.
        let p0 = TrsParams::with_error_bound(0.0);
        assert_eq!(derive_eps(&p0, 2.0, &range, 1000), MIN_EPS);
    }

    #[test]
    fn larger_error_bound_means_fewer_nodes() {
        let small =
            TrsTree::build(TrsParams::with_error_bound(1.0), (-10.0, 10.0), sigmoid_pairs(30_000));
        let large = TrsTree::build(
            TrsParams::with_error_bound(1000.0),
            (-10.0, 10.0),
            sigmoid_pairs(30_000),
        );
        assert!(
            large.stats().leaves <= small.stats().leaves,
            "Fig 18: larger error_bound covers more data with fewer nodes ({} vs {})",
            large.stats().leaves,
            small.stats().leaves
        );
    }

    #[test]
    fn sampling_precheck_produces_equivalent_quality() {
        let pairs = sigmoid_pairs(40_000);
        let plain = TrsTree::build(TrsParams::default(), (-10.0, 10.0), pairs.clone());
        let sampled = TrsTree::build(TrsParams::default().with_sampling(), (-10.0, 10.0), pairs);
        // Both must model the curve; sampling may split slightly more
        // eagerly but the structures should be the same order of size.
        let (a, b) = (plain.stats(), sampled.stats());
        assert!(
            b.leaves >= a.leaves / 4 && b.leaves <= a.leaves * 4,
            "sampled build diverged: {a:?} vs {b:?}"
        );
        sampled.check_invariants().unwrap();
    }

    #[test]
    fn parallel_build_equivalent_to_serial() {
        let pairs = sigmoid_pairs(30_000);
        let serial = TrsTree::build(TrsParams::default(), (-10.0, 10.0), pairs.clone());
        assert_eq!(serial.arena.capacity(), serial.arena.len(), "a built arena keeps no slack");
        for threads in [2, 4, 8] {
            let par = build_parallel(TrsParams::default(), (-10.0, 10.0), pairs.clone(), threads);
            par.check_invariants().unwrap();
            assert_eq!(par.arena.capacity(), par.arena.len(), "{threads} threads");
            // Same lookup behavior on a probe grid.
            for i in 0..40 {
                let m = -10.0 + i as f64 * 0.5;
                let s = serial.lookup_point(m);
                let p = par.lookup_point(m);
                assert_eq!(s.ranges.len(), p.ranges.len(), "probe {m} with {threads} threads");
                for (rs, rp) in s.ranges.iter().zip(&p.ranges) {
                    assert!((rs.0 - rp.0).abs() < 1e-6 && (rs.1 - rp.1).abs() < 1e-6);
                }
            }
        }
    }

    /// Outliers reach a leaf in heap order: collecting them and sorting
    /// once must give the buffer that `add`ing them one by one gave, equal
    /// keys in arrival order.
    #[test]
    fn a_leaf_buffers_its_outliers_as_adding_them_one_by_one_did() {
        let mut pairs = linear_pairs(4_000);
        // Every 25th pair is far off the model, on one of 16 keys.
        for (i, p) in pairs.iter_mut().enumerate().step_by(25) {
            p.0 = (i % 16) as f64;
            p.1 = 1.0e6 + i as f64;
        }
        // A fixed shuffle, as a heap hands rows to the build.
        pairs.sort_by_key(|p| p.2 .0 * 2_647 % 4_001);
        let node = make_leaf(&TrsParams::default(), ValueRange::new(0.0, 3_999.0), &pairs, None);
        let NodeKind::Leaf(leaf) = node.kind else { panic!("make_leaf built a router") };
        let mut one_by_one = LeafData::new(leaf.model, leaf.eps, pairs.len());
        for &(m, n, tid) in &pairs {
            if !one_by_one.covers(m, n) {
                one_by_one.outliers.add(m, tid);
            }
        }
        assert_eq!(leaf.outliers.len(), 160);
        let got: Vec<(f64, Tid)> = leaf.outliers.entries().collect();
        assert_eq!(got, one_by_one.outliers.entries().collect::<Vec<_>>());
    }

    /// Every leaf buffer of a built tree — serial or parallel — is exactly
    /// as large as its outliers: `memory_bytes` counts no growth slack.
    #[test]
    fn a_built_leaf_buffer_keeps_no_slack() {
        let mut wild = sigmoid_pairs(50_000);
        for i in (0..wild.len()).step_by(37) {
            wild[i].1 = (i % 1000) as f64 * 7.0;
        }
        let entry = std::mem::size_of::<(F64Key, Tid)>();
        let serial = TrsTree::build(TrsParams::default(), (-10.0, 10.0), wild.clone());
        let parallel = build_parallel(TrsParams::default(), (-10.0, 10.0), wild, 4);
        for tree in [serial, parallel] {
            let leaves: Vec<&LeafData> = tree
                .arena
                .iter()
                .filter_map(|node| match &node.kind {
                    NodeKind::Leaf(leaf) => Some(leaf),
                    NodeKind::Internal { .. } => None,
                })
                .collect();
            assert!(leaves.iter().any(|leaf| leaf.outliers.len() > 2), "the tree buffers outliers");
            for leaf in leaves {
                assert_eq!(leaf.outliers.memory_bytes(), leaf.outliers.len() * entry);
            }
        }
    }

    #[test]
    fn parallel_build_single_leaf_case() {
        // Root that never splits: parallel must fall back gracefully.
        let pairs = linear_pairs(5_000);
        let par = build_parallel(TrsParams::default(), (0.0, 4_999.0), pairs, 4);
        assert_eq!(par.stats().leaves, 1);
    }

    /// Trees the sort-based construction built (every refit sorted its
    /// node's residuals, every leaf was fitted twice), pinned: selecting
    /// instead of sorting and fitting each node once must build them
    /// unchanged — splits, trimmed refits in many nodes, sampling included.
    /// `memory_bytes` counts no unused arena slots since a build shrinks
    /// its arena (80 bytes a slot left each figure then, nothing else), and
    /// no unused outlier-buffer entries since a leaf's buffer is built
    /// exactly sized (16 bytes an entry left cases 1–3).
    #[test]
    fn built_trees_match_the_sort_based_construction() {
        let stats = |leaves, internals, height, outliers, covered, memory_bytes| TrsTreeStats {
            leaves,
            internals,
            height,
            outliers,
            covered,
            memory_bytes,
        };
        let mut noisy = linear_pairs(10_000);
        for i in (0..noisy.len()).step_by(50) {
            noisy[i].1 += 1.0e6;
        }
        let mut wild = sigmoid_pairs(50_000);
        for i in (0..wild.len()).step_by(37) {
            wild[i].1 = (i % 1000) as f64 * 7.0;
        }
        let sampled = TrsParams::default().with_sampling();
        let cases = [
            (
                TrsTree::build(TrsParams::default(), (-10.0, 10.0), sigmoid_pairs(50_000)),
                stats(512, 73, 4, 0, 50_000, 49_136),
            ),
            (
                TrsTree::build(sampled, (-10.0, 10.0), sigmoid_pairs(40_000)),
                stats(456, 65, 4, 70, 40_000, 44_880),
            ),
            (
                TrsTree::build(TrsParams::default(), (0.0, 9_999.0), noisy),
                stats(1, 0, 1, 200, 10_000, 3_280),
            ),
            (
                TrsTree::build(TrsParams::default(), (-10.0, 10.0), wild),
                stats(204, 29, 5, 1_696, 50_000, 46_704),
            ),
        ];
        for (i, (tree, want)) in cases.iter().enumerate() {
            assert_eq!(tree.stats(), *want, "case {i}");
            tree.check_invariants().unwrap();
        }
    }

    /// A stable sort of `residuals`; its first `keep` indices, back in
    /// index order — what the sort-based trimmed refit summed.
    fn stable_prefix(residuals: &[f64], keep: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..residuals.len()).collect();
        order.sort_by(|&a, &b| residuals[a].total_cmp(&residuals[b]));
        let mut kept = order[..keep].to_vec();
        kept.sort_unstable();
        kept
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Residuals from five levels, so ties at the cut are the rule; the
        /// smallest (`keep` = 1, 2), largest (`keep` = n) and a random cut.
        #[test]
        fn selection_keeps_the_stable_sort_prefix(
            levels in proptest::collection::vec(0u8..5, 1..80usize),
            pick in 0usize..1_000,
        ) {
            let residuals: Vec<f64> = levels.iter().map(|&l| f64::from(l) * 0.25).collect();
            let n = residuals.len();
            let items: Vec<usize> = (0..n).collect();
            for keep in [1, 2.min(n), n, 1 + pick % n] {
                let got: Vec<usize> =
                    best_by_residual(&items, |&i| residuals[i], keep).copied().collect();
                prop_assert_eq!(got, stable_prefix(&residuals, keep), "keep {} of {:?}", keep, levels);
            }
        }

        /// Pairs on a 6 × 6 grid — duplicate pairs, and equal residuals
        /// from different pairs — ranked under their own OLS fit, as
        /// `compute_and_validate` ranks them.
        #[test]
        fn trimmed_refit_takes_the_pairs_the_sort_took(
            cells in proptest::collection::vec((0u8..6, 0u8..6), 4..120usize),
        ) {
            let pairs: Vec<Pair> = cells
                .iter()
                .enumerate()
                .map(|(i, &(m, n))| (f64::from(m), f64::from(n), Tid(i as u64)))
                .collect();
            let model = LinearModel::fit_iter(pairs.iter().map(|p| (p.0, p.1)));
            let residuals: Vec<f64> = pairs.iter().map(|p| model.residual(p.0, p.1)).collect();
            let keep = ((pairs.len() as f64 * 0.9).ceil() as usize).clamp(2, pairs.len());
            let got: Vec<usize> = best_by_residual(&pairs, |p| model.residual(p.0, p.1), keep)
                .map(|p| p.2 .0 as usize)
                .collect();
            prop_assert_eq!(got, stable_prefix(&residuals, keep));
        }
    }

    #[test]
    fn all_equal_residuals_keep_the_first_items_in_order() {
        let items: Vec<u32> = (0..10).collect();
        for keep in [1, 2, 7, 10] {
            let got: Vec<u32> = best_by_residual(&items, |_| 3.5, keep).copied().collect();
            assert_eq!(got, (0..keep as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn residual_rank_is_the_sorted_order_statistic() {
        let pairs = sigmoid_pairs(1_001);
        let model = LinearModel::fit_iter(pairs.iter().map(|p| (p.0, p.1)));
        let mut sorted: Vec<f64> = pairs.iter().map(|p| model.residual(p.0, p.1)).collect();
        sorted.sort_by(f64::total_cmp);
        for k in [0, 1, 500, 900, 1_000] {
            assert_eq!(residual_rank(&model, &pairs, k).to_bits(), sorted[k].to_bits(), "k = {k}");
        }
    }

    #[test]
    fn traverse_reaches_covering_leaf() {
        let tree = TrsTree::build(TrsParams::default(), (-10.0, 10.0), sigmoid_pairs(30_000));
        for i in 0..100 {
            let m = -10.0 + i as f64 * 0.2;
            let leaf = tree.node(tree.traverse(m));
            assert!(leaf.is_leaf());
            assert!(
                leaf.range.contains(m) || (m == leaf.range.ub) || (m == leaf.range.lb),
                "leaf range {:?} does not contain {m}",
                leaf.range
            );
        }
        // Out-of-range values clamp to edge leaves.
        assert!(tree.node(tree.traverse(-999.0)).is_leaf());
        assert!(tree.node(tree.traverse(999.0)).is_leaf());
    }
}
