//! Property-based tests on the core data structures' invariants.
//!
//! * **TRS-Tree no-false-negative**: for arbitrary data and predicates,
//!   every matching tuple is reachable through the returned host ranges or
//!   the outlier tids.
//! * **B+-tree multimap model**: arbitrary insert/remove/range/point
//!   sequences on a bulk-loaded tree behave like a reference
//!   `BTreeMap<K, Vec<V>>`, duplicates in the same order.
//! * **Outlier-buffer model**: the sorted buffer answers adds, removes
//!   and range collection like a plain `Vec<(f64, Tid)>` scanned linearly.
//! * **Range-union correctness**: `union_ranges` preserves coverage and
//!   produces disjoint output.

use hermit::btree::BPlusTree;
use hermit::storage::{F64Key, Tid};
use hermit::trs::lookup::union_ranges;
use hermit::trs::node::OutlierBuffer;
use hermit::trs::{TrsParams, TrsTree};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Data generators: (m, n) pairs from a few correlation families with
/// injected outliers.
fn pair_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    let family = prop_oneof![
        // Linear with noise flag.
        Just(0u8),
        // Quadratic.
        Just(1u8),
        // Step function (piecewise constant).
        Just(2u8),
    ];
    (family, proptest::collection::vec((0.0f64..1000.0, 0.0f64..1.0), 50..400)).prop_map(
        |(fam, raw)| {
            raw.into_iter()
                .map(|(m, noise)| {
                    let base = match fam {
                        0 => 2.0 * m + 10.0,
                        1 => m * m / 100.0,
                        _ => (m / 100.0).floor() * 500.0,
                    };
                    // ~5% of tuples become wild outliers.
                    let n = if noise < 0.05 { base + 1.0e6 * (noise + 0.1) } else { base };
                    (m, n)
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trs_tree_never_loses_a_tuple(
        pairs in pair_strategy(),
        q in (0.0f64..1000.0, 0.0f64..300.0),
    ) {
        let data: Vec<(f64, f64, Tid)> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(m, n))| (m, n, Tid(i as u64)))
            .collect();
        let (lo, hi) = data.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |acc, p| {
            (acc.0.min(p.0), acc.1.max(p.0))
        });
        let tree = TrsTree::build(TrsParams::default(), (lo, hi), data.clone());
        tree.check_invariants().unwrap();

        let (qlb, width) = q;
        let qub = qlb + width;
        let result = tree.lookup(qlb, qub);
        for (m, n, tid) in &data {
            if *m >= qlb && *m <= qub {
                let in_band = result.ranges.iter().any(|(a, b)| n >= a && n <= b);
                let in_outliers = result.tids.contains(tid);
                prop_assert!(
                    in_band || in_outliers,
                    "tuple (m={m}, n={n}) lost for predicate [{qlb}, {qub}]"
                );
            }
        }
    }

    #[test]
    fn trs_tree_maintenance_never_loses_inserts(
        pairs in pair_strategy(),
        inserts in proptest::collection::vec((0.0f64..1000.0, -5.0e5f64..5.0e5), 1..50),
    ) {
        let data: Vec<(f64, f64, Tid)> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(m, n))| (m, n, Tid(i as u64)))
            .collect();
        let mut tree = TrsTree::build(TrsParams::default(), (0.0, 1000.0), data);
        for (i, &(m, n)) in inserts.iter().enumerate() {
            tree.insert(m, n, Tid(1_000_000 + i as u64));
        }
        for (i, &(m, n)) in inserts.iter().enumerate() {
            let r = tree.lookup_point(m);
            let tid = Tid(1_000_000 + i as u64);
            let ok = r.tids.contains(&tid)
                || r.ranges.iter().any(|(a, b)| n >= *a && n <= *b);
            prop_assert!(ok, "inserted tuple (m={m}, n={n}) unreachable");
        }
    }

    #[test]
    fn btree_behaves_like_reference_multimap(
        // A bulk-loaded start of 64 000-66 000 entries: 251-259 full leaves
        // under one internal node that is full or nearly so, keys 0..200 in
        // duplicate runs of ≈ 325, longer than a leaf. The ops then split
        // leaves, the internal node, and walk runs across leaves.
        n in 64_000u64..66_000,
        ops in proptest::collection::vec(
            prop_oneof![
                (0u64..200, 0u64..1000).prop_map(|(k, v)| (0u8, k, v)), // insert
                (0u64..200, 0u64..1000).prop_map(|(k, v)| (1u8, k, v)), // remove
                (0u64..200, 0u64..4).prop_map(|(a, w)| (2u8, a, a + w)), // range check
                (0u64..200).prop_map(|k| (3u8, k, 0)),                  // point check
            ],
            1..500,
        ),
    ) {
        let entries: Vec<(u64, u64)> = (0..n).map(|i| (i * 200 / n, i % 1000)).collect();
        let mut model: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for &(k, v) in &entries {
            model.entry(k).or_default().push(v);
        }
        let mut tree: BPlusTree<u64, u64> = BPlusTree::bulk_load(entries);
        for (op, a, b) in ops {
            match op {
                0 => {
                    tree.insert(a, b);
                    model.entry(a).or_default().push(b);
                }
                1 => {
                    let in_model = model.get_mut(&a).and_then(|v| {
                        v.iter().position(|x| *x == b).map(|i| v.remove(i))
                    });
                    let removed = tree.remove(&a, &b);
                    prop_assert_eq!(removed, in_model.is_some());
                    if model.get(&a).is_some_and(|v| v.is_empty()) {
                        model.remove(&a);
                    }
                }
                2 => {
                    let mut got: Vec<(u64, u64)> = Vec::new();
                    tree.for_each_in_range(&a, &b, |k, v| got.push((*k, *v)));
                    let want: Vec<(u64, u64)> = model
                        .range(a..=b)
                        .flat_map(|(k, vs)| vs.iter().map(move |v| (*k, *v)))
                        .collect();
                    prop_assert_eq!(got, want);
                }
                _ => {
                    let mut got: Vec<u64> = Vec::new();
                    tree.for_each_eq(&a, |v| got.push(*v));
                    prop_assert_eq!(got, model.get(&a).cloned().unwrap_or_default());
                }
            }
        }
        // The whole tree in one scan: every entry, duplicates in the order
        // they were loaded or inserted.
        let mut got: Vec<(u64, u64)> = Vec::new();
        tree.for_each_in_range(&0, &u64::MAX, |k, v| got.push((*k, *v)));
        let want: Vec<(u64, u64)> =
            model.iter().flat_map(|(k, vs)| vs.iter().map(move |v| (*k, *v))).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(tree.len(), want.len());
        tree.check_invariants().unwrap();
    }

    #[test]
    fn outlier_buffer_layouts_agree(
        entries in proptest::collection::vec((0.0f64..100.0, 0u64..50), 0..100),
        removes in proptest::collection::vec((0.0f64..100.0, 0u64..50), 0..30),
        query in (0.0f64..100.0, 0.0f64..50.0),
    ) {
        // Keys from a coarse grid as well, so duplicate keys are common.
        let grid = |m: f64| if m < 50.0 { (m / 10.0).floor() } else { m };
        let mut model: Vec<(f64, Tid)> = Vec::new();
        let mut buffer = OutlierBuffer::new();
        for &(m, t) in &entries {
            model.push((grid(m), Tid(t)));
            buffer.add(grid(m), Tid(t));
        }
        for &(m, t) in &removes {
            let pos = model.iter().position(|&e| e == (grid(m), Tid(t)));
            let want = pos.map(|i| model.remove(i)).is_some();
            prop_assert_eq!(buffer.remove(grid(m), Tid(t)), want, "remove({}, {}) diverged", m, t);
        }
        prop_assert_eq!(buffer.len(), model.len());
        let (lb, w) = query;
        let ub = lb + w;
        let mut got = Vec::new();
        buffer.collect_range(lb, ub, &mut got);
        let mut want: Vec<Tid> =
            model.iter().filter(|(m, _)| *m >= lb && *m <= ub).map(|(_, t)| *t).collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn union_ranges_preserves_coverage_and_disjointness(
        ranges in proptest::collection::vec((0.0f64..1000.0, 0.0f64..100.0), 0..50),
        probes in proptest::collection::vec(0.0f64..1100.0, 20),
    ) {
        let input: Vec<(f64, f64)> = ranges.iter().map(|&(lo, w)| (lo, lo + w)).collect();
        let merged = union_ranges(input.clone());
        // Disjoint and sorted.
        for w in merged.windows(2) {
            prop_assert!(w[0].1 < w[1].0, "output overlaps: {:?}", merged);
        }
        // Coverage-equivalent.
        for &p in &probes {
            let in_input = input.iter().any(|&(lo, hi)| p >= lo && p <= hi);
            let in_merged = merged.iter().any(|&(lo, hi)| p >= lo && p <= hi);
            prop_assert_eq!(in_input, in_merged, "coverage diverged at {}", p);
        }
    }

    #[test]
    fn f64key_ordering_matches_f64(
        mut values in proptest::collection::vec(-1.0e9f64..1.0e9, 2..50),
    ) {
        let mut keys: Vec<F64Key> = values.iter().map(|&v| F64Key(v)).collect();
        keys.sort();
        values.sort_by(f64::total_cmp);
        let unwrapped: Vec<f64> = keys.iter().map(|k| k.0).collect();
        prop_assert_eq!(unwrapped, values);
    }
}
