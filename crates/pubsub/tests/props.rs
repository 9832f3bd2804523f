//! Property-based tests of the content-based language: covering and
//! overlap soundness against sampled publications, matcher agreement,
//! and parser round-trips.

use greenps_pubsub::filter::Filter;
use greenps_pubsub::ids::{AdvId, MsgId, SubId};
use greenps_pubsub::matching::{BucketMatcher, Matcher, NaiveMatcher};
use greenps_pubsub::message::Publication;
use greenps_pubsub::parser::parse_filter;
use greenps_pubsub::predicate::{Op, Predicate};
use greenps_pubsub::value::Value;
use proptest::prelude::*;

const ATTRS: [&str; 4] = ["w", "x", "y", "z"];
const SYMBOLS: [&str; 3] = ["AAA", "BBB", "CCC"];

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-20i64..20).prop_map(Value::Int),
        (-20.0f64..20.0).prop_map(|f| Value::Float((f * 4.0).round() / 4.0)),
        proptest::sample::select(SYMBOLS.to_vec()).prop_map(Value::str),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    (
        proptest::sample::select(ATTRS.to_vec()),
        proptest::sample::select(vec![
            Op::Eq,
            Op::Neq,
            Op::Lt,
            Op::Le,
            Op::Gt,
            Op::Ge,
            Op::Present,
        ]),
        arb_value(),
    )
        .prop_map(|(attr, op, value)| Predicate {
            attr: attr.to_string(),
            op,
            value,
        })
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    proptest::collection::vec(arb_predicate(), 0..4).prop_map(Filter::from_predicates)
}

fn arb_publication() -> impl Strategy<Value = Publication> {
    proptest::collection::vec(
        (proptest::sample::select(ATTRS.to_vec()), arb_value()),
        0..5,
    )
    .prop_map(|attrs| {
        let mut b = Publication::builder(AdvId::new(1), MsgId::new(0));
        for (a, v) in attrs {
            b = b.attr(a, v);
        }
        b.build()
    })
}

proptest! {
    /// Covering soundness: if `a.covers(b)`, every publication matching
    /// `b` matches `a`.
    #[test]
    fn covers_is_sound(
        a in arb_filter(),
        b in arb_filter(),
        pubs in proptest::collection::vec(arb_publication(), 0..40),
    ) {
        if a.covers(&b) {
            for p in &pubs {
                if b.matches(p) {
                    prop_assert!(a.matches(p), "{a} claims to cover {b} but missed {p}");
                }
            }
        }
    }

    /// Overlap soundness: a publication matching both filters implies
    /// `overlaps` returned true (never a false "disjoint").
    #[test]
    fn overlaps_is_sound(
        a in arb_filter(),
        b in arb_filter(),
        pubs in proptest::collection::vec(arb_publication(), 0..40),
    ) {
        if !a.overlaps(&b) {
            for p in &pubs {
                prop_assert!(
                    !(a.matches(p) && b.matches(p)),
                    "{a} and {b} claimed disjoint but {p} matches both"
                );
            }
        }
    }

    /// Predicate-level covering soundness over raw values.
    #[test]
    fn predicate_covers_is_sound(
        a in arb_predicate(),
        b in arb_predicate(),
        values in proptest::collection::vec(arb_value(), 0..40),
    ) {
        if a.covers(&b) {
            for v in &values {
                if b.eval(v) {
                    prop_assert!(a.eval(v), "{a} covers {b} but missed value {v}");
                }
            }
        }
    }

    /// The serving (bucket) matcher agrees with the naive matcher on
    /// arbitrary workloads, including after removals.
    #[test]
    fn matchers_agree(
        filters in proptest::collection::vec(arb_filter(), 0..25),
        removals in proptest::collection::vec(0usize..25, 0..10),
        pubs in proptest::collection::vec(arb_publication(), 0..25),
    ) {
        let mut naive = NaiveMatcher::new();
        let mut bucket = BucketMatcher::new();
        for (i, f) in filters.iter().enumerate() {
            naive.insert(SubId::new(i as u64), f.clone());
            bucket.insert(SubId::new(i as u64), f.clone());
        }
        for r in removals {
            naive.remove(SubId::new(r as u64));
            bucket.remove(SubId::new(r as u64));
        }
        prop_assert_eq!(naive.len(), bucket.len());
        for p in &pubs {
            prop_assert_eq!(naive.matches(p), bucket.matches_mut(p), "on {}", p);
        }
    }

    /// Any filter survives a display → parse round trip.
    #[test]
    fn parser_round_trips(filter in arb_filter()) {
        if filter.is_empty() {
            return Ok(()); // empty filters have no textual form
        }
        let text = filter.to_string();
        let parsed = parse_filter(&text).unwrap();
        prop_assert_eq!(&parsed, &filter, "text: {}", text);
    }

    /// Canonical keys are equal exactly for permutation-equal filters.
    #[test]
    fn canonical_key_is_permutation_invariant(
        preds in proptest::collection::vec(arb_predicate(), 1..4),
        seed in 0usize..24,
    ) {
        let f1 = Filter::from_predicates(preds.clone());
        let mut rotated = preds.clone();
        rotated.rotate_left(seed % preds.len());
        let f2 = Filter::from_predicates(rotated);
        prop_assert_eq!(f1.canonical_key(), f2.canonical_key());
    }
}
