//! Capacity bookkeeping and the allocation feasibility test (paper
//! §IV-A).
//!
//! A broker "is deemed to have enough capacity to handle a subscription
//! only if by accepting this subscription, its remaining available
//! output bandwidth is greater than 0 and its incoming publication rate
//! is less than or equal to its maximum matching rate", where the
//! maximum matching rate is the inverse of the linear matching-delay
//! function.
//!
//! [`Packer`] holds the running state of one allocation attempt: brokers
//! sorted by resourcefulness (descending total output bandwidth), each
//! with its accumulated union profile, used output bandwidth and stored
//! subscription count. FBF, BIN PACKING and CRAM's allocation test all
//! place units through it.

use crate::model::{AllocError, Allocation, BrokerLoad, BrokerSpec, Unit};
use crate::pipeline::CancelToken;
use greenps_profile::{PublisherTable, ShiftingBitVector, SubscriptionProfile};
use greenps_pubsub::ids::{AdvId, BrokerId};
use std::sync::Arc;

/// Running placement state of one broker during packing.
#[derive(Debug, Clone)]
struct BrokerState {
    spec: BrokerSpec,
    union: SubscriptionProfile,
    out_used: f64,
    subs: usize,
    units: Vec<Unit>,
}

impl BrokerState {
    fn new(spec: BrokerSpec) -> Self {
        Self {
            spec,
            union: SubscriptionProfile::new(),
            out_used: 0.0,
            subs: 0,
            units: Vec::new(),
        }
    }

    /// The feasibility test from the paper.
    fn can_accept(&self, unit: &Unit, publishers: &PublisherTable) -> bool {
        // Remaining output bandwidth must stay positive.
        if self.out_used + unit.out_bandwidth >= self.spec.out_bandwidth {
            return false;
        }
        // Incoming publication rate must not exceed the maximum
        // matching rate at the new subscription count.
        let in_rate = self
            .union
            .estimate_union_load(&unit.profile, publishers)
            .rate;
        let max_rate = self
            .spec
            .matching_delay
            .max_rate(self.subs + unit.sub_count());
        in_rate <= max_rate
    }

    fn accept(&mut self, unit: Unit) {
        self.union.or_assign(&unit.profile);
        self.out_used += unit.out_bandwidth;
        self.subs += unit.sub_count();
        self.units.push(unit);
    }
}

/// One allocation attempt over a broker pool.
#[derive(Debug, Clone)]
pub struct Packer<'p> {
    states: Vec<BrokerState>,
    publishers: &'p PublisherTable,
}

impl<'p> Packer<'p> {
    /// Creates a packer over the broker pool, sorted in descending order
    /// of total available output bandwidth (ties broken by id for
    /// determinism).
    pub fn new(brokers: &[BrokerSpec], publishers: &'p PublisherTable) -> Self {
        let mut specs: Vec<BrokerSpec> = brokers.to_vec();
        specs.sort_by(|a, b| {
            b.out_bandwidth
                .partial_cmp(&a.out_bandwidth)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        Self {
            states: specs.into_iter().map(BrokerState::new).collect(),
            publishers,
        }
    }

    /// Number of brokers in the pool.
    pub fn broker_count(&self) -> usize {
        self.states.len()
    }

    /// Places a unit on the most resourceful broker that can accept it.
    ///
    /// # Errors
    /// Returns [`AllocError::NoBrokers`] on an empty pool and
    /// [`AllocError::Infeasible`] when no broker passes the test.
    pub fn place(&mut self, unit: Unit) -> Result<BrokerId, AllocError> {
        if self.states.is_empty() {
            return Err(AllocError::NoBrokers);
        }
        for state in &mut self.states {
            if state.can_accept(&unit, self.publishers) {
                let id = state.spec.id;
                state.accept(unit);
                return Ok(id);
            }
        }
        Err(AllocError::Infeasible { subs: unit.subs })
    }

    /// True when at least one broker could accept the unit, without
    /// placing it.
    pub fn fits(&self, unit: &Unit) -> bool {
        self.states
            .iter()
            .any(|s| s.can_accept(unit, self.publishers))
    }

    /// Finalizes into an [`Allocation`] containing only brokers that
    /// received units.
    pub fn into_allocation(self) -> Allocation {
        let publishers = self.publishers;
        let loads = self
            .states
            .into_iter()
            .filter(|s| !s.units.is_empty())
            .map(|s| {
                let input = s.union.estimate_load(publishers);
                BrokerLoad {
                    broker: s.spec.id,
                    units: s.units,
                    union_profile: s.union,
                    out_bw_used: s.out_used,
                    in_rate: input.rate,
                    in_bandwidth: input.bandwidth,
                }
            })
            .collect();
        Allocation { loads }
    }
}

/// A feasibility-only packing pass over borrowed units: returns the
/// bandwidth-descending packing outcome without cloning any unit, or
/// the index of the first unplaceable unit. The CRAM allocation test
/// runs thousands of these per invocation; avoiding the per-test unit
/// clones is what keeps 8,000-subscription runs tractable.
#[derive(Debug)]
pub struct RefPacker<'u> {
    states: Vec<RefBrokerState<'u>>,
}

#[derive(Debug)]
struct RefBrokerState<'u> {
    spec: BrokerSpec,
    union: SubscriptionProfile,
    /// Running estimate of the union profile's input rate.
    in_rate: f64,
    out_used: f64,
    subs: usize,
    units: Vec<&'u Unit>,
}

impl<'u> RefPacker<'u> {
    /// Creates a reference packer over a broker pool (same ordering as
    /// [`Packer`]).
    pub fn new(brokers: &[BrokerSpec]) -> Self {
        let mut specs: Vec<BrokerSpec> = brokers.to_vec();
        specs.sort_by(|a, b| {
            b.out_bandwidth
                .partial_cmp(&a.out_bandwidth)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        Self {
            states: specs
                .into_iter()
                .map(|spec| RefBrokerState {
                    spec,
                    union: SubscriptionProfile::new(),
                    in_rate: 0.0,
                    out_used: 0.0,
                    subs: 0,
                    units: Vec::new(),
                })
                .collect(),
        }
    }

    /// Packs borrowed units in descending bandwidth order.
    ///
    /// # Errors
    /// Fails with the subscriptions of the first unplaceable unit.
    pub fn pack_sorted(
        &mut self,
        publishers: &PublisherTable,
        mut units: Vec<&'u Unit>,
    ) -> Result<(), AllocError> {
        if self.states.is_empty() {
            return if units.is_empty() {
                Ok(())
            } else {
                Err(AllocError::NoBrokers)
            };
        }
        units.sort_by(|a, b| {
            b.out_bandwidth
                .total_cmp(&a.out_bandwidth)
                .then_with(|| a.subs.cmp(&b.subs))
        });
        'units: for unit in units {
            for state in &mut self.states {
                // Cheap bandwidth check first — the dominant rejection.
                if state.out_used + unit.out_bandwidth >= state.spec.out_bandwidth {
                    continue;
                }
                // Incremental rate check: only the unit's publishers
                // can change the union rate.
                let delta = state.union.estimate_rate_delta(&unit.profile, publishers);
                let in_rate = state.in_rate + delta;
                let max_rate = state
                    .spec
                    .matching_delay
                    .max_rate(state.subs + unit.sub_count());
                if in_rate > max_rate {
                    continue;
                }
                state.union.or_assign(&unit.profile);
                state.in_rate = in_rate;
                state.out_used += unit.out_bandwidth;
                state.subs += unit.sub_count();
                state.units.push(unit);
                continue 'units;
            }
            return Err(AllocError::Infeasible {
                subs: unit.subs.clone(),
            });
        }
        Ok(())
    }

    /// Number of brokers that received at least one unit.
    pub fn used_brokers(&self) -> usize {
        self.states.iter().filter(|s| !s.units.is_empty()).count()
    }

    /// Materializes a full [`Allocation`] (clones the packed units).
    pub fn into_allocation(self, publishers: &PublisherTable) -> Allocation {
        let loads = self
            .states
            .into_iter()
            .filter(|s| !s.units.is_empty())
            .map(|s| {
                let input = s.union.estimate_load(publishers);
                BrokerLoad {
                    broker: s.spec.id,
                    units: s.units.into_iter().cloned().collect(),
                    union_profile: s.union,
                    out_bw_used: s.out_used,
                    in_rate: input.rate,
                    in_bandwidth: input.bandwidth,
                }
            })
            .collect();
        Allocation { loads }
    }
}

/// One per-publisher union window of one broker, reused across packs.
///
/// A slot is live for the current pack iff its `epoch` matches the
/// packer's; stale slots are logically empty, so resetting all broker
/// unions between packs is a single counter bump instead of a walk.
#[derive(Debug)]
struct FastSlot {
    epoch: u64,
    vec: ShiftingBitVector,
    /// Cached popcount of `vec` — the `old` side of the rate-delta
    /// fraction, saving one full word pass per placement probe.
    ones: usize,
}

/// Per-broker running state of the current [`FastPacker`] pack.
#[derive(Debug)]
struct FastBroker {
    spec: BrokerSpec,
    out_used: f64,
    /// The exact input rate of the placed units — or, while `lazy`, an
    /// upper bound on it.
    in_rate: f64,
    /// True while the broker accepts on the rate bound alone and its
    /// union slots are left stale (see [`FastPacker`]).
    lazy: bool,
    subs: usize,
    /// Units placed on this broker, in placement order — the recipe a
    /// best-so-far allocation is later materialized from, and the
    /// sequence a lazy broker replays when it turns exact.
    picks: Vec<Arc<Unit>>,
}

impl FastBroker {
    fn place(&mut self, unit: &Arc<Unit>) {
        self.out_used += unit.out_bandwidth;
        self.subs += unit.sub_count();
        self.picks.push(Arc::clone(unit));
    }
}

/// The persistent allocation-test packer behind CRAM's arena engine.
///
/// [`RefPacker`] rebuilds its broker states — and re-walks every union
/// profile with two popcount passes per probe — on each of the
/// thousands of feasibility tests a CRAM run performs. `FastPacker` is
/// constructed **once** per run and reset per pack by bumping an epoch
/// counter; per-(broker, publisher) union windows live in reusable
/// [`FastSlot`]s with cached popcounts, so a placement probe costs one
/// streaming [`ShiftingBitVector::pair_cardinalities`] pass instead of
/// a `count_ones` walk plus a separate union-count walk.
///
/// Most packs never come near a broker's matching rate, so each broker
/// starts a pack *lazy*: it keeps an upper bound on its input rate and
/// no union slots. A unit's [`FastPacker::rate_bound`] sums the rates
/// of the publisher legs the exact delta visits, and each of the
/// delta's rounded terms is at most that leg's rate (every fraction
/// lies in `[0, 1]`). Rounded addition is monotone, so the exact rate
/// never exceeds the bound, and a lazy broker accepts a unit whenever
/// `bound + rate_bound` fits the matching rate — an accept the exact
/// check would make too. The first time the bound does not fit, the
/// broker replays its picks through the exact probe and fold, which
/// rebuilds its slots and its exact rate, and runs exact for the rest
/// of the pack. The bound needs finite, non-negative publisher rates;
/// otherwise every broker runs exact from the start.
///
/// The acceptance decisions are bit-identical to
/// [`RefPacker::pack_sorted`] over the same unit order: the broker
/// order replicates `RefPacker::new`'s sort, and the rate check
/// reproduces `SubscriptionProfile::estimate_rate_delta`'s exact f64
/// operation sequence (same fraction arguments, same accumulation
/// order). Publishers absent from the table are skipped entirely — the
/// reference delta never reads them, so they cannot influence any
/// accept/reject decision.
#[derive(Debug)]
pub(crate) struct FastPacker {
    brokers: Vec<FastBroker>,
    unions: FastUnions,
    /// Whether the lazy rate bound is sound: every publisher rate is
    /// finite and non-negative.
    bounded: bool,
    /// Lazy brokers switched to exact mode, over all packs.
    exact_fallbacks: u64,
}

/// The exact per-(broker, publisher) union state of a [`FastPacker`].
#[derive(Debug)]
struct FastUnions {
    /// Publisher advertisement ids, ascending (the slot column index).
    advs: Vec<AdvId>,
    /// Publication rate per publisher, parallel to `advs`.
    rates: Vec<f64>,
    /// Raw `last_msg_id` per publisher, parallel to `advs`.
    last_msgs: Vec<u64>,
    /// Dense broker-major `(broker, publisher)` union slots.
    slots: Vec<FastSlot>,
    epoch: u64,
    /// Scratch: `(slot index, |union|)` for the most recent probe's
    /// shared-publisher legs, so acceptance reuses the probe's popcount.
    or_scratch: Vec<(usize, usize)>,
}

/// The unit order [`RefPacker::pack_sorted`] packs in: output bandwidth
/// descending, subscription list ascending as the tiebreak. Over any
/// live CRAM pool plus one trial merged unit the subscription lists are
/// pairwise disjoint and non-empty, so this is a strict total order —
/// which is what lets the engine maintain one sorted unit list
/// incrementally instead of re-sorting per test.
pub(crate) fn pack_order(a: &Unit, b: &Unit) -> std::cmp::Ordering {
    b.out_bandwidth
        .total_cmp(&a.out_bandwidth)
        .then_with(|| a.subs.cmp(&b.subs))
}

impl FastUnions {
    /// The rate delta of adding `unit` to broker `b`'s union,
    /// replicating the reference `estimate_rate_delta` f64 sequence with
    /// the union's cached popcount standing in for its `count_ones`
    /// walk. Records the shared legs' union popcounts for
    /// [`FastUnions::fold`].
    fn probe(&mut self, b: usize, unit: &Unit) -> f64 {
        let n_advs = self.advs.len();
        self.or_scratch.clear();
        // At most one entry per advertisement slot hit below.
        self.or_scratch.reserve(n_advs);
        let mut delta = 0.0;
        for (adv, o) in unit.profile.iter() {
            let Ok(ai) = self.advs.binary_search(&adv) else {
                continue;
            };
            let (rate, last) = match (self.rates.get(ai), self.last_msgs.get(ai)) {
                (Some(r), Some(l)) => (*r, *l),
                _ => continue,
            };
            let ones_new = o.count_ones();
            if ones_new == 0 {
                continue;
            }
            let fraction = |ones: usize, first: u64, cap: usize| -> f64 {
                if ones == 0 {
                    return 0.0;
                }
                let observed = last
                    .saturating_sub(first)
                    .saturating_add(1)
                    .min(cap as u64)
                    .max(ones as u64);
                ones as f64 / observed as f64
            };
            let si = b * n_advs + ai;
            match self.slots.get(si).filter(|s| s.epoch == self.epoch) {
                Some(s) => {
                    let old = fraction(s.ones, s.vec.first_id(), s.vec.capacity());
                    let c = s.vec.pair_cardinalities(o);
                    let new = fraction(
                        c.or,
                        s.vec.first_id().min(o.first_id()),
                        s.vec.capacity().max(o.capacity()),
                    );
                    self.or_scratch.push((si, c.or));
                    delta += (new - old) * rate;
                }
                None => {
                    delta += fraction(ones_new, o.first_id(), o.capacity()) * rate;
                }
            }
        }
        delta
    }

    /// Folds every publisher-backed window of `unit` into broker `b`'s
    /// slots (including empty windows — their placement can widen a
    /// union window, which the reference path's `or_assign` also does).
    /// Must follow [`FastUnions::probe`] of the same unit.
    fn fold(&mut self, b: usize, unit: &Unit) {
        let n_advs = self.advs.len();
        for (adv, o) in unit.profile.iter() {
            let Ok(ai) = self.advs.binary_search(&adv) else {
                continue;
            };
            let si = b * n_advs + ai;
            let Some(s) = self.slots.get_mut(si) else {
                continue;
            };
            if s.epoch == self.epoch {
                let lo = s.vec.first_id().min(o.first_id());
                let hi_end = s.vec.window_end().max(o.window_end());
                let truncated = hi_end - lo > s.vec.capacity() as u64;
                s.vec.or_assign(o);
                let cached = self
                    .or_scratch
                    .iter()
                    .find(|(i, _)| *i == si)
                    .map(|(_, or)| *or);
                s.ones = match (truncated, cached) {
                    (false, Some(or)) => or,
                    _ => s.vec.count_ones(),
                };
            } else {
                s.vec.copy_from(o);
                s.ones = s.vec.count_ones();
                s.epoch = self.epoch;
            }
        }
    }

    /// Turns lazy broker `b` exact: replays its picks, in placement
    /// order, through the exact probe and fold. Its slots are all stale
    /// while it is lazy, so this runs the same f64 sequence as a broker
    /// that was exact from the start of the pack.
    fn make_exact(&mut self, b: usize, st: &mut FastBroker) {
        let mut in_rate = 0.0;
        for unit in &st.picks {
            in_rate += self.probe(b, unit);
            self.fold(b, unit);
        }
        st.in_rate = in_rate;
        st.lazy = false;
    }
}

impl FastPacker {
    /// Builds the persistent packer: brokers sorted exactly as
    /// [`RefPacker::new`] sorts them, one slot per (broker, publisher).
    pub(crate) fn new(brokers: &[BrokerSpec], publishers: &PublisherTable) -> Self {
        let mut specs: Vec<BrokerSpec> = brokers.to_vec();
        specs.sort_by(|a, b| {
            b.out_bandwidth
                .partial_cmp(&a.out_bandwidth)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        let advs: Vec<AdvId> = publishers.iter().map(|p| p.adv_id).collect();
        let rates: Vec<f64> = publishers.iter().map(|p| p.rate).collect();
        let last_msgs: Vec<u64> = publishers.iter().map(|p| p.last_msg_id.raw()).collect();
        let slots = (0..specs.len() * advs.len())
            .map(|_| FastSlot {
                epoch: 0,
                vec: ShiftingBitVector::new(1),
                ones: 0,
            })
            .collect();
        Self {
            brokers: specs
                .into_iter()
                .map(|spec| FastBroker {
                    spec,
                    out_used: 0.0,
                    in_rate: 0.0,
                    lazy: false,
                    subs: 0,
                    picks: Vec::new(),
                })
                .collect(),
            bounded: rates.iter().all(|r| r.is_finite() && *r >= 0.0),
            unions: FastUnions {
                advs,
                rates,
                last_msgs,
                slots,
                epoch: 0,
                or_scratch: Vec::new(),
            },
            exact_fallbacks: 0,
        }
    }

    /// The unit's rate bound: the sum of the publisher rates over the
    /// legs the exact rate delta visits (publisher in the table, window
    /// not empty), added in the same leg order. No placement of the
    /// unit raises a broker's exact input rate by more.
    pub(crate) fn rate_bound(&self, unit: &Unit) -> f64 {
        let u = &self.unions;
        let mut bound = 0.0;
        for (adv, o) in unit.profile.iter() {
            let Ok(ai) = u.advs.binary_search(&adv) else {
                continue;
            };
            let Some(rate) = u.rates.get(ai) else {
                continue;
            };
            if o.count_ones() == 0 {
                continue;
            }
            bound += rate;
        }
        bound
    }

    /// Lazy brokers switched to exact mode since construction.
    pub(crate) fn exact_fallbacks(&self) -> u64 {
        self.exact_fallbacks
    }

    /// Packs units (already in [`pack_order`], each with its
    /// [`FastPacker::rate_bound`]) onto the brokers, resetting all
    /// per-pack state via the epoch bump. Decision-identical to
    /// [`RefPacker::pack_sorted`] over the same order.
    ///
    /// # Errors
    /// Fails with the subscriptions of the first unplaceable unit, or
    /// [`AllocError::NoBrokers`] when units exist but the pool is empty.
    pub(crate) fn pack<'x>(
        &mut self,
        units: impl Iterator<Item = (&'x Arc<Unit>, f64)>,
    ) -> Result<(), AllocError> {
        self.unions.epoch += 1;
        for st in &mut self.brokers {
            st.out_used = 0.0;
            st.in_rate = 0.0;
            st.lazy = self.bounded;
            st.subs = 0;
            st.picks.clear();
        }
        let mut units = units;
        if self.brokers.is_empty() {
            return match units.next() {
                None => Ok(()),
                Some(_) => Err(AllocError::NoBrokers),
            };
        }
        'units: for (unit, rate_bound) in units {
            for (b, st) in self.brokers.iter_mut().enumerate() {
                // Cheap bandwidth check first — the dominant rejection.
                if st.out_used + unit.out_bandwidth >= st.spec.out_bandwidth {
                    continue;
                }
                let max_rate = st.spec.matching_delay.max_rate(st.subs + unit.sub_count());
                if st.lazy {
                    let bound = st.in_rate + rate_bound;
                    if bound <= max_rate {
                        st.in_rate = bound;
                        st.place(unit);
                        continue 'units;
                    }
                    self.exact_fallbacks += 1;
                    self.unions.make_exact(b, st);
                }
                let in_rate = st.in_rate + self.unions.probe(b, unit);
                if in_rate > max_rate {
                    continue;
                }
                self.unions.fold(b, unit);
                st.in_rate = in_rate;
                st.place(unit);
                continue 'units;
            }
            return Err(AllocError::Infeasible {
                subs: unit.subs.clone(),
            });
        }
        Ok(())
    }

    /// Number of brokers that received at least one unit in the most
    /// recent pack.
    pub(crate) fn used_brokers(&self) -> usize {
        self.brokers.iter().filter(|s| !s.picks.is_empty()).count()
    }

    /// Moves the most recent pack's per-broker placements (placement
    /// order preserved) into `out`, reusing its spine. Materializing an
    /// [`Allocation`] from this recipe — replaying the profile unions
    /// and bandwidth sums per broker — reproduces
    /// [`RefPacker::into_allocation`] bit-for-bit.
    pub(crate) fn drain_picks_into(&mut self, out: &mut Vec<(BrokerId, Vec<Arc<Unit>>)>) {
        out.clear();
        for st in &mut self.brokers {
            if !st.picks.is_empty() {
                out.push((st.spec.id, std::mem::take(&mut st.picks)));
            }
        }
    }
}

/// Runs a complete packing pass: places every unit in the given order,
/// polling `cancel` between units.
///
/// # Errors
/// Fails fast with the unit that could not be placed, mirroring the
/// paper's "the algorithm ends … if at least one subscription cannot be
/// allocated to any broker", or with [`AllocError::Cancelled`] when the
/// token trips mid-pass.
pub fn pack_all(
    brokers: &[BrokerSpec],
    publishers: &PublisherTable,
    units: impl IntoIterator<Item = Unit>,
    cancel: &CancelToken,
) -> Result<Allocation, AllocError> {
    let mut packer = Packer::new(brokers, publishers);
    for unit in units {
        if cancel.is_cancelled_hot() {
            return Err(AllocError::Cancelled);
        }
        packer.place(unit)?;
    }
    Ok(packer.into_allocation())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LinearFn;
    use greenps_profile::{PublisherProfile, ShiftingBitVector};
    use greenps_pubsub::ids::{AdvId, MsgId, SubId};

    fn publishers() -> PublisherTable {
        [PublisherProfile::new(
            AdvId::new(1),
            100.0,
            100_000.0,
            MsgId::new(99),
        )]
        .into_iter()
        .collect()
    }

    fn unit(sub: u64, ids: &[u64], publishers: &PublisherTable) -> Unit {
        let mut v = ShiftingBitVector::starting_at(100, 0);
        for &id in ids {
            v.record(id);
        }
        let mut p = SubscriptionProfile::with_capacity(100);
        p.insert_vector(AdvId::new(1), v);
        let load = p.estimate_load(publishers);
        Unit {
            subs: vec![SubId::new(sub)],
            profile: p,
            out_bandwidth: load.bandwidth,
        }
    }

    fn broker(id: u64, bw: f64) -> BrokerSpec {
        BrokerSpec::new(
            BrokerId::new(id),
            format!("b{id}"),
            LinearFn::new(0.0001, 0.0),
            bw,
        )
    }

    #[test]
    fn places_on_most_resourceful_first() {
        let pubs = publishers();
        let brokers = vec![broker(1, 10_000.0), broker(2, 50_000.0)];
        let mut packer = Packer::new(&brokers, &pubs);
        assert_eq!(packer.broker_count(), 2);
        let placed = packer.place(unit(1, &[0], &pubs)).unwrap();
        assert_eq!(placed, BrokerId::new(2), "most resourceful wins");
    }

    #[test]
    fn bandwidth_must_stay_strictly_positive() {
        let pubs = publishers();
        // unit uses 5% of 100kB/s = 5000 B/s; broker has exactly 5000.
        let brokers = vec![broker(1, 5_000.0)];
        let u = unit(1, &[0, 1, 2, 3, 4], &pubs);
        assert!((u.out_bandwidth - 5_000.0).abs() < 1e-9);
        let mut packer = Packer::new(&brokers, &pubs);
        assert!(!packer.fits(&u));
        assert!(matches!(
            packer.place(u),
            Err(AllocError::Infeasible { .. })
        ));
    }

    #[test]
    fn overflows_to_next_broker() {
        let pubs = publishers();
        let brokers = vec![broker(1, 12_000.0), broker(2, 12_000.0)];
        let mut packer = Packer::new(&brokers, &pubs);
        // each unit needs 10kB/s; first goes to b1, second to b2.
        let a = packer
            .place(unit(1, &(0..10).collect::<Vec<_>>(), &pubs))
            .unwrap();
        let b = packer
            .place(unit(2, &(10..20).collect::<Vec<_>>(), &pubs))
            .unwrap();
        assert_ne!(a, b);
        let alloc = packer.into_allocation();
        assert_eq!(alloc.broker_count(), 2);
    }

    #[test]
    fn matching_rate_constraint_limits_subscriptions() {
        let pubs = publishers();
        // 25 ms per message with one sub: max rate = 40 msg/s; a unit
        // inducing 50 msg/s (50 of 100 slots) cannot be hosted.
        let slow = BrokerSpec::new(BrokerId::new(1), "b1", LinearFn::new(0.025, 0.0), 1e9);
        let u = unit(1, &(0..50).collect::<Vec<_>>(), &pubs);
        let mut packer = Packer::new(&[slow], &pubs);
        assert!(packer.place(u).is_err());
        // 10 msg/s unit is fine.
        let mut packer = Packer::new(
            &[BrokerSpec::new(
                BrokerId::new(1),
                "b1",
                LinearFn::new(0.025, 0.0),
                1e9,
            )],
            &pubs,
        );
        assert!(packer
            .place(unit(2, &(0..10).collect::<Vec<_>>(), &pubs))
            .is_ok());
    }

    #[test]
    fn per_sub_delay_term_tightens_with_count() {
        let pubs = publishers();
        // base 10ms + 10ms/sub; two 1-sub units each inducing 30 msg/s
        // of *distinct* traffic: first fits (rate 30 <= 1/(0.02)=50),
        // second would make union rate 60 > 1/(0.03)=33 → second bounces.
        let b = BrokerSpec::new(BrokerId::new(1), "b1", LinearFn::new(0.01, 0.01), 1e9);
        let mut packer = Packer::new(&[b], &pubs);
        assert!(packer
            .place(unit(1, &(0..30).collect::<Vec<_>>(), &pubs))
            .is_ok());
        assert!(packer
            .place(unit(2, &(30..60).collect::<Vec<_>>(), &pubs))
            .is_err());
    }

    #[test]
    fn shared_traffic_does_not_double_count_input() {
        let pubs = publishers();
        // Two units with identical 40-slot profiles: union input stays
        // 40 msg/s, so both fit on a broker whose cap is 50 msg/s.
        let b = BrokerSpec::new(BrokerId::new(1), "b1", LinearFn::new(0.02, 0.0), 1e9);
        let mut packer = Packer::new(&[b], &pubs);
        let ids: Vec<u64> = (0..40).collect();
        assert!(packer.place(unit(1, &ids, &pubs)).is_ok());
        assert!(packer.place(unit(2, &ids, &pubs)).is_ok());
        let alloc = packer.into_allocation();
        assert_eq!(alloc.broker_count(), 1);
        let load = &alloc.loads[0];
        assert_eq!(load.sub_count(), 2);
        assert!((load.in_rate - 40.0).abs() < 1e-9);
        // output is per-copy: 2 × 40 kB/s
        assert!((load.out_bw_used - 80_000.0).abs() < 1e-6);
    }

    #[test]
    fn empty_pool_errors() {
        let pubs = publishers();
        let mut packer = Packer::new(&[], &pubs);
        assert_eq!(
            packer.place(unit(1, &[0], &pubs)),
            Err(AllocError::NoBrokers)
        );
    }

    /// Builds a unit with explicit per-publisher windows:
    /// `(adv, first_id, ids)` legs.
    fn multi_unit(sub: u64, legs: &[(u64, u64, Vec<u64>)], pubs: &PublisherTable) -> Unit {
        let mut p = SubscriptionProfile::with_capacity(100);
        for (adv, first, ids) in legs {
            let mut v = ShiftingBitVector::starting_at(100, *first);
            for &id in ids {
                v.record(id);
            }
            p.insert_vector(AdvId::new(*adv), v);
        }
        let load = p.estimate_load(pubs);
        Unit {
            subs: vec![SubId::new(sub)],
            profile: p,
            out_bandwidth: load.bandwidth.max(1_000.0) + sub as f64,
        }
    }

    fn two_publishers() -> PublisherTable {
        [
            PublisherProfile::new(AdvId::new(1), 100.0, 100_000.0, MsgId::new(99)),
            PublisherProfile::new(AdvId::new(2), 40.0, 20_000.0, MsgId::new(999)),
        ]
        .into_iter()
        .collect()
    }

    /// Units covering every delta-path branch: shared windows, shifted
    /// windows (forcing `or_assign` truncation), empty vectors, a
    /// publisher-less advertisement, and multi-publisher profiles.
    fn tricky_units(pubs: &PublisherTable) -> Vec<Arc<Unit>> {
        let mut units = vec![
            multi_unit(0, &[(1, 0, (0..30).collect())], pubs),
            multi_unit(
                1,
                &[(1, 0, (20..50).collect()), (2, 0, (0..80).collect())],
                pubs,
            ),
            multi_unit(2, &[(2, 900, (900..960).collect())], pubs),
            multi_unit(3, &[(1, 0, (0..10).collect()), (2, 0, vec![])], pubs),
            multi_unit(
                4,
                &[(2, 940, (950..999).collect()), (7, 0, (0..5).collect())],
                pubs,
            ),
            multi_unit(5, &[(1, 50, (50..90).collect())], pubs),
            multi_unit(6, &[(2, 0, (0..40).step_by(2).collect())], pubs),
        ];
        units.sort_by(pack_order);
        units.into_iter().map(Arc::new).collect()
    }

    impl FastPacker {
        /// Broker `b`'s exact input rate: a lazy broker holds only a
        /// bound, so it replays its picks first.
        fn exact_in_rate(&mut self, b: usize) -> f64 {
            let st = &mut self.brokers[b];
            if st.lazy {
                self.unions.make_exact(b, st);
            }
            st.in_rate
        }
    }

    /// Packs with each unit's rate bound, as the CRAM engine does.
    fn pack_bounded(fast: &mut FastPacker, units: &[&Arc<Unit>]) -> Result<(), AllocError> {
        let bounds: Vec<f64> = units.iter().map(|u| fast.rate_bound(u)).collect();
        fast.pack(units.iter().copied().zip(bounds))
    }

    /// Packs `units` with both packers and asserts they agree on the
    /// outcome and on every broker: exact input rate bits, used
    /// bandwidth bits, subscription count and picks.
    fn assert_packs_agree(
        brokers: &[BrokerSpec],
        pubs: &PublisherTable,
        fast: &mut FastPacker,
        units: &[&Arc<Unit>],
        ctx: &str,
    ) {
        let mut reference = RefPacker::new(brokers);
        let ref_result = reference.pack_sorted(pubs, units.iter().map(|u| &***u).collect());
        let fast_result = pack_bounded(fast, units);
        assert_eq!(ref_result, fast_result, "{ctx}");
        assert_eq!(reference.used_brokers(), fast.used_brokers(), "{ctx}");
        assert_eq!(reference.states.len(), fast.brokers.len());
        for (b, rs) in reference.states.iter().enumerate() {
            let exact = fast.exact_in_rate(b);
            let fs = &fast.brokers[b];
            assert_eq!(rs.spec.id, fs.spec.id);
            assert_eq!(
                rs.in_rate.to_bits(),
                exact.to_bits(),
                "{ctx} broker {:?}",
                rs.spec.id
            );
            assert_eq!(rs.out_used.to_bits(), fs.out_used.to_bits(), "{ctx}");
            assert_eq!(rs.subs, fs.subs, "{ctx}");
            let ref_subs: Vec<_> = rs.units.iter().map(|u| u.subs.clone()).collect();
            let fast_subs: Vec<_> = fs.picks.iter().map(|u| u.subs.clone()).collect();
            assert_eq!(ref_subs, fast_subs, "{ctx}");
        }
    }

    /// Every subset of `units` that drops one unit, then the full set:
    /// slot state from one pack must never leak into the next.
    fn rounds(units: &[Arc<Unit>]) -> impl Iterator<Item = Vec<&Arc<Unit>>> {
        (0..=units.len()).map(move |round| {
            units
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != round)
                .map(|(_, u)| u)
                .collect()
        })
    }

    /// FastPacker must reproduce RefPacker's decisions bit-for-bit —
    /// same placements, same exact running rates — across repeated
    /// packs of changing unit subsets on one persistent packer (the
    /// CRAM usage).
    #[test]
    fn fast_packer_matches_ref_packer_bit_for_bit() {
        let pubs = two_publishers();
        let units = tricky_units(&pubs);
        let brokers = vec![
            broker(1, 120_000.0),
            broker(2, 80_000.0),
            broker(3, 80_000.0),
        ];
        let mut fast = FastPacker::new(&brokers, &pubs);
        for (round, subset) in rounds(&units).enumerate() {
            assert_packs_agree(
                &brokers,
                &pubs,
                &mut fast,
                &subset,
                &format!("round {round}"),
            );
        }
    }

    /// Where a broker's lazy rate bound first fails to fit.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum BoundFails {
        /// The bound always fits: no broker turns exact.
        Never,
        /// Every unit's own bound fits, their sum does not.
        Partway,
        /// No unit's own bound fits: a broker turns exact on its first
        /// rate check.
        FirstUnit,
        /// A negative publisher rate voids the bound: exact throughout.
        Unbounded,
    }

    /// The lazy-to-exact switch at matching delays where the bound
    /// never fails, fails partway through a pack, and fails at the
    /// first unit (some units then bounce on the exact rate), plus a
    /// publisher table the bound does not cover. Repeated packs on one
    /// packer per row check that lazy flags and epochs reset.
    #[test]
    fn lazy_rate_bound_switches_to_exact_identically() {
        let negative: PublisherTable = [
            PublisherProfile::new(AdvId::new(1), 100.0, 100_000.0, MsgId::new(99)),
            PublisherProfile::new(AdvId::new(2), -40.0, 20_000.0, MsgId::new(999)),
        ]
        .into_iter()
        .collect();
        let table = [
            (two_publishers(), 1.0 / 1_000.0, BoundFails::Never),
            (two_publishers(), 1.0 / 150.0, BoundFails::Partway),
            (two_publishers(), 1.0 / 35.0, BoundFails::FirstUnit),
            (negative, 1.0 / 35.0, BoundFails::Unbounded),
        ];
        for (pubs, delay, fails) in table {
            let units = tricky_units(&pubs);
            let brokers: Vec<BrokerSpec> = [(1, 120_000.0), (2, 80_000.0), (3, 80_000.0)]
                .into_iter()
                .map(|(id, bw)| {
                    BrokerSpec::new(
                        BrokerId::new(id),
                        format!("b{id}"),
                        LinearFn::new(delay, 0.0),
                        bw,
                    )
                })
                .collect();
            let max_rate = 1.0 / delay;
            let mut fast = FastPacker::new(&brokers, &pubs);
            let bounds: Vec<f64> = units.iter().map(|u| fast.rate_bound(u)).collect();
            let total: f64 = bounds.iter().sum();
            match fails {
                BoundFails::Never => assert!(total <= max_rate),
                BoundFails::Partway => {
                    assert!(bounds.iter().all(|&b| b <= max_rate) && total > max_rate)
                }
                BoundFails::FirstUnit => assert!(bounds.iter().all(|&b| b > max_rate)),
                BoundFails::Unbounded => assert!(!fast.bounded),
            }
            for (round, subset) in rounds(&units).enumerate() {
                let ctx = format!("{fails:?} round {round}");
                assert_packs_agree(&brokers, &pubs, &mut fast, &subset, &ctx);
            }
            let switched = fast.exact_fallbacks();
            match fails {
                BoundFails::Never | BoundFails::Unbounded => assert_eq!(switched, 0, "{fails:?}"),
                BoundFails::Partway | BoundFails::FirstUnit => assert!(switched > 0, "{fails:?}"),
            }
        }
    }

    /// Replaying a drained recipe (per-broker placement order) must
    /// reproduce `RefPacker::into_allocation` exactly.
    #[test]
    fn fast_packer_recipe_materializes_ref_allocation() {
        let pubs = two_publishers();
        let units = tricky_units(&pubs);
        let brokers = vec![
            broker(1, 120_000.0),
            broker(2, 80_000.0),
            broker(3, 80_000.0),
        ];
        let mut reference = RefPacker::new(&brokers);
        reference
            .pack_sorted(&pubs, units.iter().map(|u| &**u).collect())
            .unwrap();
        let expected = reference.into_allocation(&pubs);

        let mut fast = FastPacker::new(&brokers, &pubs);
        pack_bounded(&mut fast, &units.iter().collect::<Vec<_>>()).unwrap();
        let mut picks = Vec::new();
        fast.drain_picks_into(&mut picks);
        let loads: Vec<BrokerLoad> = picks
            .into_iter()
            .map(|(id, picked)| {
                let mut union = SubscriptionProfile::new();
                let mut out = 0.0;
                for u in &picked {
                    union.or_assign(&u.profile);
                    out += u.out_bandwidth;
                }
                let input = union.estimate_load(&pubs);
                BrokerLoad {
                    broker: id,
                    units: picked.iter().map(|u| (**u).clone()).collect(),
                    union_profile: union,
                    out_bw_used: out,
                    in_rate: input.rate,
                    in_bandwidth: input.bandwidth,
                }
            })
            .collect();
        assert_eq!(loads, expected.loads);
    }

    /// Both packers reject the same first unit with the same error.
    #[test]
    fn fast_packer_reports_identical_infeasibility() {
        let pubs = publishers();
        let brokers = vec![broker(1, 12_000.0)];
        let units: Vec<Arc<Unit>> = {
            let mut us = vec![
                unit(1, &(0..10).collect::<Vec<_>>(), &pubs),
                unit(2, &(10..20).collect::<Vec<_>>(), &pubs),
            ];
            us.sort_by(pack_order);
            us.into_iter().map(Arc::new).collect()
        };
        let units: Vec<&Arc<Unit>> = units.iter().collect();
        let mut reference = RefPacker::new(&brokers);
        let ref_err = reference
            .pack_sorted(&pubs, units.iter().map(|u| &***u).collect())
            .unwrap_err();
        let mut fast = FastPacker::new(&brokers, &pubs);
        let fast_err = pack_bounded(&mut fast, &units).unwrap_err();
        assert_eq!(ref_err, fast_err);
        // Empty pool: Ok for no units, NoBrokers otherwise.
        let mut empty = FastPacker::new(&[], &pubs);
        assert!(pack_bounded(&mut empty, &[]).is_ok());
        assert_eq!(pack_bounded(&mut empty, &units), Err(AllocError::NoBrokers));
    }
    #[test]
    fn pack_all_round_trip() {
        let pubs = publishers();
        let brokers = vec![broker(1, 1e6), broker(2, 1e6)];
        let units: Vec<Unit> = (0..5)
            .map(|i| unit(i, &[i * 2, i * 2 + 1], &pubs))
            .collect();
        let alloc = pack_all(&brokers, &pubs, units, &CancelToken::never()).unwrap();
        assert_eq!(alloc.sub_count(), 5);
        assert_eq!(
            alloc.broker_count(),
            1,
            "everything fits on the first broker"
        );
    }
}
