//! The arena closeness kernel: the batch popcount path CRAM's
//! production engine evaluates every GIF pair through.
//!
//! [`ArenaKernel`] answers one question — "what are the pair
//! cardinalities of the profiles stored under these two keys?" — from
//! per-publisher bit windows packed into one contiguous
//! [`BitsetArena`], so a pair evaluation is a streaming popcount over
//! adjacent rows with zero allocation. It runs the same word-level
//! routine as [`SubscriptionProfile::pair_cardinalities`], so its
//! cardinalities — and therefore every metric value derived via
//! [`crate::ClosenessMetric::from_cardinalities`] — are bit-identical
//! to the per-profile walk.

use crate::arena::{BitsetArena, RowId};
use crate::bitvec::{pair_cardinalities_windows, PairCardinalities, ShiftingBitVector};
use crate::profile::SubscriptionProfile;
use greenps_pubsub::ids::AdvId;
use std::collections::BTreeMap;

/// Where one per-publisher bit window of a keyed profile lives.
#[derive(Debug, Clone, Copy)]
enum Leg {
    /// A fixed-stride arena row.
    Row(RowId),
    /// A slot in the oversize side store.
    Overflow(usize),
}

#[derive(Debug, Clone, Copy)]
struct LegRef {
    adv: AdvId,
    leg: Leg,
    ones: usize,
}

/// The cache-friendly layout: per-publisher windows packed into one
/// contiguous [`BitsetArena`]; windows wider than the stride fall back
/// to an oversize side store. A pair evaluation is a merge-join over
/// two `AdvId`-sorted leg lists — shared publishers stream both rows
/// through the word kernel, single-sided publishers use their cached
/// popcount — and performs **zero** allocations.
///
/// Keys are engine-chosen opaque `u64`s (CRAM uses its GIF keys). A
/// lookup of an unknown key behaves as an empty profile.
#[derive(Debug)]
pub struct ArenaKernel {
    arena: BitsetArena,
    overflow: Vec<Option<ShiftingBitVector>>,
    overflow_free: Vec<usize>,
    entries: BTreeMap<u64, Vec<LegRef>>,
}

impl ArenaKernel {
    /// Creates an empty kernel with the given arena row stride in bits.
    pub fn new(stride_bits: usize) -> Self {
        Self {
            arena: BitsetArena::new(stride_bits),
            overflow: Vec::new(),
            overflow_free: Vec::new(),
            entries: BTreeMap::new(),
        }
    }

    fn free_legs(&mut self, legs: &[LegRef]) {
        for l in legs {
            match l.leg {
                Leg::Row(id) => self.arena.remove(id),
                Leg::Overflow(i) => {
                    if let Some(slot) = self.overflow.get_mut(i) {
                        if slot.take().is_some() {
                            self.overflow_free.push(i);
                        }
                    }
                }
            }
        }
    }

    /// Resolves a leg to its raw `(words, first_id, window_end)` view.
    fn view(&self, leg: Leg) -> Option<(&[u64], u64, u64)> {
        match leg {
            Leg::Row(id) => self.arena.row(id),
            Leg::Overflow(i) => {
                let v = self.overflow.get(i)?.as_ref()?;
                Some((v.words(), v.first_id(), v.window_end()))
            }
        }
    }

    fn leg_pair(&self, a: LegRef, b: LegRef) -> PairCardinalities {
        match (self.view(a.leg), self.view(b.leg)) {
            (Some(ra), Some(rb)) => pair_cardinalities_windows(ra, rb),
            (Some(_), None) => PairCardinalities::left_only(a.ones),
            (None, Some(_)) => PairCardinalities::right_only(b.ones),
            (None, None) => PairCardinalities::default(),
        }
    }

    /// Stores (or replaces) the profile under `key`.
    pub fn insert(&mut self, key: u64, profile: &SubscriptionProfile) {
        if let Some(old) = self.entries.remove(&key) {
            self.free_legs(&old);
        }
        let mut legs = Vec::with_capacity(profile.publisher_count());
        // `SubscriptionProfile::iter` walks a BTreeMap, so legs come out
        // sorted by AdvId — the order the merge-join relies on.
        for (adv, v) in profile.iter() {
            let ones = v.count_ones();
            let leg = match self.arena.try_insert(v) {
                Some(id) => Leg::Row(id),
                None => {
                    let i = match self.overflow_free.pop() {
                        Some(i) => i,
                        None => {
                            self.overflow.push(None);
                            self.overflow.len() - 1
                        }
                    };
                    if let Some(slot) = self.overflow.get_mut(i) {
                        *slot = Some(v.clone());
                    }
                    Leg::Overflow(i)
                }
            };
            legs.push(LegRef { adv, leg, ones });
        }
        self.entries.insert(key, legs);
    }

    /// Drops the profile stored under `key` (no-op when absent).
    pub fn remove(&mut self, key: u64) {
        if let Some(legs) = self.entries.remove(&key) {
            self.free_legs(&legs);
        }
    }

    /// Pair cardinalities of the profiles under `a` and `b`, summed
    /// across publishers — the single pass all four closeness metrics
    /// are derived from.
    pub fn pair_cardinalities(&self, a: u64, b: u64) -> PairCardinalities {
        let empty: &[LegRef] = &[];
        let la = self.entries.get(&a).map_or(empty, Vec::as_slice);
        let lb = self.entries.get(&b).map_or(empty, Vec::as_slice);
        let mut total = PairCardinalities::default();
        let (mut i, mut j) = (0, 0);
        // Merge-join over the AdvId-sorted leg lists, mirroring
        // `SubscriptionProfile::pair_cardinalities`' two-map walk.
        while let (Some(x), Some(y)) = (la.get(i), lb.get(j)) {
            total = total.plus(match x.adv.cmp(&y.adv) {
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                    self.leg_pair(*x, *y)
                }
                std::cmp::Ordering::Less => {
                    i += 1;
                    PairCardinalities::left_only(x.ones)
                }
                std::cmp::Ordering::Greater => {
                    j += 1;
                    PairCardinalities::right_only(y.ones)
                }
            });
        }
        while let Some(x) = la.get(i) {
            total = total.plus(PairCardinalities::left_only(x.ones));
            i += 1;
        }
        while let Some(y) = lb.get(j) {
            total = total.plus(PairCardinalities::right_only(y.ones));
            j += 1;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenps_pubsub::ids::MsgId;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_profile(rng: &mut StdRng, cap: usize) -> SubscriptionProfile {
        let mut p = SubscriptionProfile::with_capacity(cap);
        for adv in 0..rng.gen_range(0..4u64) {
            for _ in 0..rng.gen_range(0..30) {
                p.record(AdvId::new(adv), MsgId::new(rng.gen_range(0..cap as u64)));
            }
        }
        p
    }

    #[test]
    fn arena_agrees_with_profile_walk() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..40 {
            let cap = rng.gen_range(1..200usize);
            let a = random_profile(&mut rng, cap);
            let b = random_profile(&mut rng, cap);
            let expected = a.pair_cardinalities(&b);

            // Stride smaller than some capacities exercises overflow.
            let mut arena = ArenaKernel::new(64);
            arena.insert(1, &a);
            arena.insert(2, &b);
            assert_eq!(arena.pair_cardinalities(1, 2), expected);
        }
    }

    #[test]
    fn unknown_keys_read_as_empty_profiles() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_profile(&mut rng, 64);
        let mut k = ArenaKernel::new(128);
        k.insert(7, &a);
        let c = k.pair_cardinalities(7, 99);
        assert_eq!(c.and, 0);
        assert_eq!(c.left, a.count_ones());
        assert_eq!(c.right, 0);
        assert_eq!(k.pair_cardinalities(99, 98), PairCardinalities::default());
    }

    #[test]
    fn remove_and_reinsert_reuses_arena_rows() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = random_profile(&mut rng, 64);
        let b = random_profile(&mut rng, 64);
        let mut k = ArenaKernel::new(64);
        k.insert(1, &a);
        k.insert(2, &b);
        k.remove(1);
        assert_eq!(k.pair_cardinalities(1, 2).left, 0);
        k.insert(3, &a);
        assert_eq!(k.pair_cardinalities(3, 2), a.pair_cardinalities(&b));
        // Replacing a key frees its old legs.
        k.insert(2, &a);
        assert_eq!(k.pair_cardinalities(3, 2), a.pair_cardinalities(&a));
    }
}
