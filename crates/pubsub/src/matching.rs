//! Matching engine: given a publication, find the matching subscriptions.
//!
//! Two implementations share the [`Matcher`] behaviour:
//!
//! * [`NaiveMatcher`] scans every filter — the reference oracle used in
//!   tests;
//! * [`BucketMatcher`] indexes each filter under its rarest equality
//!   predicate, so a publication only evaluates the filters its
//!   `(attribute, value)` pairs select — the engine brokers use.

use crate::filter::Filter;
use crate::ids::SubId;
use crate::message::Publication;
use std::collections::BTreeMap;

/// Common behaviour of matching engines.
pub trait Matcher {
    /// Registers a filter under a subscription id.
    ///
    /// Re-inserting an id replaces the previous filter.
    fn insert(&mut self, id: SubId, filter: Filter);

    /// Removes a subscription; returns `true` if it was present.
    fn remove(&mut self, id: SubId) -> bool;

    /// Returns the ids of all subscriptions matching the publication.
    fn matches(&self, publication: &Publication) -> Vec<SubId>;

    /// Number of registered subscriptions.
    fn len(&self) -> usize;

    /// True when no subscriptions are registered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Reference matcher that scans all filters linearly.
#[derive(Debug, Clone, Default)]
pub struct NaiveMatcher {
    filters: BTreeMap<SubId, Filter>,
}

impl NaiveMatcher {
    /// Creates an empty matcher.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Matcher for NaiveMatcher {
    fn insert(&mut self, id: SubId, filter: Filter) {
        self.filters.insert(id, filter);
    }

    fn remove(&mut self, id: SubId) -> bool {
        self.filters.remove(&id).is_some()
    }

    fn matches(&self, publication: &Publication) -> Vec<SubId> {
        let mut out: Vec<SubId> = self
            .filters
            .iter()
            .filter(|(_, f)| f.matches(publication))
            .map(|(id, _)| *id)
            .collect();
        out.sort_unstable();
        out
    }

    fn len(&self) -> usize {
        self.filters.len()
    }
}

/// Bucket-indexed matcher: each filter is indexed under its *least
/// common* equality predicate, so a publication only evaluates the
/// filters whose discriminating `(attribute, value)` pair it actually
/// carries. On the paper's stock workload this reduces per-publication
/// work from "every subscription sharing `[class,=,'STOCK']`" to "the
/// subscriptions of one symbol" — the difference between simulating 80
/// brokers in minutes and in seconds.
///
/// Filters with no equality predicate fall back to a scan list. The
/// index is rebuilt lazily after inserts/removals.
#[derive(Debug, Clone, Default)]
pub struct BucketMatcher {
    filters: BTreeMap<SubId, Filter>,
    dirty: bool,
    /// attribute → value → subscriptions bucketed under that equality
    /// pair. Nested (rather than keyed by tuple) so the match path can
    /// look buckets up by `&str` without allocating key strings.
    buckets: BTreeMap<String, BTreeMap<String, Vec<SubId>>>,
    scan: Vec<SubId>,
}

impl BucketMatcher {
    /// Creates an empty matcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Canonical bucket key of a value: strings unquoted (so the match
    /// path can look them up by `&str`), everything else via `Display`.
    /// A numeric key colliding with an equal-looking string key only
    /// costs a wasted filter evaluation — candidates are verified with
    /// the full filter before they match.
    fn bucket_key(v: &crate::value::Value) -> String {
        match v.as_str() {
            Some(s) => s.to_string(),
            None => v.to_string(),
        }
    }

    fn rebuild(&mut self) {
        self.buckets.clear();
        self.scan.clear();
        // Frequency of each equality (attr, value) pair.
        let mut freq: BTreeMap<(String, String), usize> = BTreeMap::new();
        for f in self.filters.values() {
            for p in f.predicates() {
                if p.op == crate::predicate::Op::Eq {
                    *freq
                        .entry((p.attr.clone(), Self::bucket_key(&p.value)))
                        .or_insert(0) += 1;
                }
            }
        }
        for (&id, f) in &self.filters {
            // Index under the rarest equality predicate.
            let key = f
                .predicates()
                .iter()
                .filter(|p| p.op == crate::predicate::Op::Eq)
                .map(|p| (p.attr.clone(), Self::bucket_key(&p.value)))
                .min_by_key(|k| freq.get(k).copied().unwrap_or(0));
            match key {
                Some((attr, value)) => self
                    .buckets
                    .entry(attr)
                    .or_default()
                    .entry(value)
                    .or_default()
                    .push(id),
                None => self.scan.push(id),
            }
        }
        for by_value in self.buckets.values_mut() {
            for b in by_value.values_mut() {
                b.sort_unstable();
            }
        }
        self.scan.sort_unstable();
        self.dirty = false;
    }

    /// Number of index buckets (diagnostic; rebuilds if stale).
    pub fn bucket_count(&mut self) -> usize {
        if self.dirty {
            self.rebuild();
        }
        self.buckets.values().map(|m| m.len()).sum()
    }
}

impl Matcher for BucketMatcher {
    fn insert(&mut self, id: SubId, filter: Filter) {
        self.filters.insert(id, filter);
        self.dirty = true;
    }

    fn remove(&mut self, id: SubId) -> bool {
        let hit = self.filters.remove(&id).is_some();
        if hit {
            self.dirty = true;
        }
        hit
    }

    fn matches(&self, publication: &Publication) -> Vec<SubId> {
        // Interior mutability would complicate the trait; rebuild into a
        // fresh index when stale instead (inserts come in bursts, and
        // brokers match far more often than they subscribe).
        if self.dirty {
            let mut fresh = self.clone();
            fresh.rebuild();
            return fresh.matches(publication);
        }
        // An owned-result convenience over `matches_into`; hot callers
        // reuse a buffer through that entry point instead.
        let mut out: Vec<SubId> = Vec::new();
        self.matches_into(publication, &mut out);
        out
    }

    fn len(&self) -> usize {
        self.filters.len()
    }
}

/// Mutable-access variant used by hot paths: rebuilds in place when
/// stale, then matches without cloning.
impl BucketMatcher {
    /// Like [`Matcher::matches`] but rebuilds the index in place first.
    pub fn matches_mut(&mut self, publication: &Publication) -> Vec<SubId> {
        if self.dirty {
            self.rebuild();
        }
        self.matches(publication)
    }

    /// Appends the matching subscription ids to `out` (cleared first),
    /// sorted and deduplicated. The allocation-free match path: bucket
    /// lookups borrow the publication's attribute and value strings,
    /// and callers reuse `out` across publications.
    ///
    /// The index must be fresh (see [`BucketMatcher::ensure_built`]);
    /// a stale index matches against the last built state.
    pub fn matches_into(&self, publication: &Publication, out: &mut Vec<SubId>) {
        out.clear();
        for (attr, value) in publication.iter() {
            let Some(by_value) = self.buckets.get(attr) else {
                continue;
            };
            let bucket = match value.as_str() {
                Some(s) => by_value.get(s),
                // Numeric/bool equality buckets are rare (the stock
                // workload buckets on strings); rendering the value is
                // the one allocation left on the match path.
                None => by_value.get(value.to_string().as_str()),
            };
            for &id in bucket.into_iter().flatten() {
                if self
                    .filters
                    .get(&id)
                    .is_some_and(|f| f.matches(publication))
                {
                    out.push(id);
                }
            }
        }
        for &id in &self.scan {
            if self
                .filters
                .get(&id)
                .is_some_and(|f| f.matches(publication))
            {
                out.push(id);
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Rebuilds the index now if stale (call after a subscribe burst so
    /// later `&self` matches never hit the clone-on-stale path).
    pub fn ensure_built(&mut self) {
        if self.dirty {
            self.rebuild();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::stock_template;
    use crate::ids::{AdvId, MsgId};
    use crate::predicate::{Op, Predicate};

    fn quote(symbol: &str, low: f64, volume: i64) -> Publication {
        Publication::builder(AdvId::new(1), MsgId::new(1))
            .attr("class", "STOCK")
            .attr("symbol", symbol)
            .attr("low", low)
            .attr("volume", volume)
            .build()
    }

    fn engines() -> (NaiveMatcher, BucketMatcher) {
        (NaiveMatcher::new(), BucketMatcher::new())
    }

    fn both_match(naive: &NaiveMatcher, bucket: &BucketMatcher, p: &Publication) -> Vec<SubId> {
        let a = naive.matches(p);
        let b = bucket.matches(p);
        assert_eq!(a, b, "engines disagree on {p}");
        a
    }

    #[test]
    fn exact_and_range_matching() {
        let (mut n, mut c) = engines();
        for (m, engine) in [(&mut n as &mut dyn Matcher, "n"), (&mut c, "c")] {
            let _ = engine;
            m.insert(SubId::new(1), stock_template("YHOO"));
            m.insert(
                SubId::new(2),
                stock_template("YHOO").and(Predicate::new("low", Op::Lt, 18.0)),
            );
            m.insert(SubId::new(3), stock_template("GOOG"));
        }
        let hits = both_match(&n, &c, &quote("YHOO", 17.5, 100));
        assert_eq!(hits, vec![SubId::new(1), SubId::new(2)]);
        let hits = both_match(&n, &c, &quote("YHOO", 19.0, 100));
        assert_eq!(hits, vec![SubId::new(1)]);
        let hits = both_match(&n, &c, &quote("GOOG", 1.0, 100));
        assert_eq!(hits, vec![SubId::new(3)]);
    }

    #[test]
    fn empty_filter_matches_everything() {
        let (mut n, mut c) = engines();
        n.insert(SubId::new(9), Filter::new());
        c.insert(SubId::new(9), Filter::new());
        let hits = both_match(&n, &c, &quote("YHOO", 1.0, 1));
        assert_eq!(hits, vec![SubId::new(9)]);
    }

    #[test]
    fn remove_unregisters() {
        let (mut n, mut c) = engines();
        n.insert(SubId::new(1), stock_template("YHOO"));
        c.insert(SubId::new(1), stock_template("YHOO"));
        assert!(n.remove(SubId::new(1)));
        assert!(c.remove(SubId::new(1)));
        assert!(!c.remove(SubId::new(1)));
        assert!(both_match(&n, &c, &quote("YHOO", 1.0, 1)).is_empty());
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn reinsert_replaces_filter() {
        let (mut n, mut c) = engines();
        for m in [&mut n as &mut dyn Matcher, &mut c] {
            m.insert(SubId::new(1), stock_template("YHOO"));
            m.insert(SubId::new(1), stock_template("GOOG"));
        }
        assert!(both_match(&n, &c, &quote("YHOO", 1.0, 1)).is_empty());
        assert_eq!(
            both_match(&n, &c, &quote("GOOG", 1.0, 1)),
            vec![SubId::new(1)]
        );
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn volume_inequality_subscriptions() {
        let (mut n, mut c) = engines();
        for m in [&mut n as &mut dyn Matcher, &mut c] {
            m.insert(
                SubId::new(1),
                stock_template("YHOO").and(Predicate::new("volume", Op::Gt, 1000i64)),
            );
        }
        assert_eq!(
            both_match(&n, &c, &quote("YHOO", 5.0, 6200)),
            vec![SubId::new(1)]
        );
        assert!(both_match(&n, &c, &quote("YHOO", 5.0, 500)).is_empty());
    }

    #[test]
    fn bucket_matcher_agrees_with_naive() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let symbols = ["YHOO", "GOOG", "IBM"];
        let mut naive = NaiveMatcher::new();
        let mut bucket = BucketMatcher::new();
        for i in 0..150 {
            let sym = symbols[rng.gen_range(0..symbols.len())];
            let mut f = stock_template(sym);
            if rng.gen_bool(0.5) {
                f = f.and(Predicate::new("low", Op::Lt, rng.gen_range(0.0..100.0)));
            }
            naive.insert(SubId::new(i), f.clone());
            bucket.insert(SubId::new(i), f);
        }
        // One matcher with an empty filter (scan list).
        naive.insert(SubId::new(900), Filter::new());
        bucket.insert(SubId::new(900), Filter::new());
        for k in 0..100 {
            let sym = symbols[k % symbols.len()];
            let p = quote(sym, (k as f64) % 100.0, 10);
            assert_eq!(naive.matches(&p), bucket.matches_mut(&p), "pub {k}");
            // Immutable (clone-on-stale) path agrees too.
            assert_eq!(naive.matches(&p), bucket.matches(&p));
        }
        assert!(bucket.bucket_count() >= symbols.len());
        assert!(bucket.remove(SubId::new(900)));
        assert!(!bucket.remove(SubId::new(900)));
        assert_eq!(bucket.len(), 150);
    }

    #[test]
    fn bucket_matcher_indexes_under_rarest_predicate() {
        // 99 subs share class=STOCK; each has a unique symbol. The
        // symbol predicate must be chosen, keeping buckets tiny.
        let mut bucket = BucketMatcher::new();
        for i in 0..99u64 {
            bucket.insert(SubId::new(i), stock_template(&format!("S{i}")));
        }
        assert_eq!(bucket.bucket_count(), 99);
        let p = Publication::builder(AdvId::new(1), MsgId::new(1))
            .attr("class", "STOCK")
            .attr("symbol", "S42")
            .build();
        assert_eq!(bucket.matches_mut(&p), vec![SubId::new(42)]);
    }

    #[test]
    fn engines_agree_on_random_workload() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let symbols = ["YHOO", "GOOG", "IBM", "MSFT"];
        let (mut n, mut c) = engines();
        for i in 0..200 {
            let sym = symbols[rng.gen_range(0..symbols.len())];
            let mut f = stock_template(sym);
            if rng.gen_bool(0.6) {
                let attr = ["low", "high", "volume"][rng.gen_range(0..3)];
                let op = [Op::Lt, Op::Gt, Op::Le, Op::Ge][rng.gen_range(0..4)];
                f = f.and(Predicate::new(attr, op, rng.gen_range(0.0..100.0)));
            }
            n.insert(SubId::new(i), f.clone());
            c.insert(SubId::new(i), f);
        }
        for _ in 0..200 {
            let sym = symbols[rng.gen_range(0..symbols.len())];
            let p = Publication::builder(AdvId::new(1), MsgId::new(1))
                .attr("class", "STOCK")
                .attr("symbol", sym)
                .attr("low", rng.gen_range(0.0..100.0))
                .attr("high", rng.gen_range(0.0..100.0))
                .attr("volume", rng.gen_range(0.0..100.0))
                .build();
            both_match(&n, &c, &p);
        }
    }
}
