//! CRAM — Clustering with Resource Awareness and Minimization
//! (paper §IV-C).
//!
//! CRAM repeatedly clusters the pair of subscriptions with the highest
//! non-zero closeness, re-running the BIN PACKING allocation test after
//! every clustering step; failed clusterings are undone and
//! blacklisted, and the best successful allocation (fewest brokers,
//! most-clustered on ties) is returned when no positive-closeness pair
//! remains.
//!
//! All three of the paper's optimizations are implemented and can be
//! toggled for the ablation experiments:
//!
//! 1. **GIF grouping** — subscriptions with equal bit vectors share a
//!    Group of Identical Filters; clustering operates on GIF pairs.
//! 2. **Search pruning** — each GIF tracks only its closest partner,
//!    found by a breadth-first poset walk that prunes empty-relationship
//!    subtrees and stops descending once closeness starts to decrease
//!    (not applicable to the XOR metric, which cannot distinguish empty
//!    relationships — the reason it is ≥75% slower).
//! 3. **One-to-many clustering** — before pairwise-merging two
//!    intersecting GIFs, try clustering each GIF with a greedy
//!    set-cover selection of its covered GIFs (the CGS).
//!
//! The closest-pair search — CRAM's hot loop — runs on the parallel
//! closeness engine ([`crate::engine`]): stale GIFs are sharded across
//! a scoped worker pool ([`CramBuilder::threads`]) that scans a frozen
//! snapshot of the pool and pair-closeness cache, so the allocation
//! (and every stat) is bit-identical to the sequential run for any
//! thread count. Pair closenesses are memoized in a
//! [`crate::engine::PairCache`] keyed by GIF-key pairs; entries are
//! invalidated only for pairs touching a merged-away GIF — blacklisted
//! pairs keep their entries because the underlying profiles never
//! changed.
//!
//! There is one production engine and one oracle. Production stores
//! every per-publisher bit window in one contiguous
//! [`greenps_profile::BitsetArena`] ([`ArenaKernel`]), rejects whole
//! tiles of [`DEFAULT_TILE`] GIF keys with one summary intersect, and
//! runs the allocation tests on a persistent incremental packer.
//! [`CramBuilder::run_reference`] is the paper-literal oracle the
//! production path is proven against: sequential, per-profile pair
//! walks, no tiles, and a re-sorting [`RefPacker`] per allocation
//! test. Both give the same allocation and [`CramStats`], except that
//! tiling (by design) lowers `closeness_computations`.
//!
//! Entry point: [`CramBuilder`].

use crate::capacity::{pack_order, FastPacker, RefPacker};
use crate::engine::{shard_map_scratch, PairCache};
use crate::model::{AllocError, Allocation, AllocationInput, BrokerLoad, Unit};
use crate::pipeline::CancelToken;
use crate::sorting::{bin_packing_units, units_from_input};
use greenps_profile::{
    ArenaKernel, Closeness, ClosenessMetric, PairCardinalities, Poset, PublisherTable, Relation,
    ShiftingBitVector, SubscriptionProfile, DEFAULT_CAPACITY,
};
use greenps_pubsub::ids::{AdvId, BrokerId};
use greenps_telemetry::{EventSink, Histogram, Registry, Span};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Key of a GIF inside the CRAM pool.
pub(crate) type GifKey = u64;
/// Key of a unit inside the CRAM pool.
type UnitKey = u64;

/// Default tile width (GIF keys per tile) for whole-tile pruning.
pub const DEFAULT_TILE: usize = 64;

/// Which of CRAM's two computations a run takes.
#[derive(Debug, Clone, Copy)]
enum EnginePath {
    /// Arena kernel, tiles of `tile` GIF keys (`0` disables), and the
    /// persistent fast packer. Every public run but
    /// [`CramBuilder::run_reference`] uses [`DEFAULT_TILE`]; in-crate
    /// tests vary the width.
    Production { tile: usize },
    /// The oracle: per-profile pair walks over the GIF profiles, no
    /// tiles, one thread, and a re-sorting [`RefPacker`] per test.
    Reference,
}

/// CRAM configuration.
#[derive(Debug, Clone, Copy)]
pub struct CramConfig {
    /// Closeness metric (paper evaluates all four).
    pub metric: ClosenessMetric,
    /// Optimization 3: one-to-many CGS clustering.
    pub one_to_many: bool,
    /// Optimization 2: poset search pruning (when the metric allows).
    pub poset_pruning: bool,
    /// Worker threads for the closest-pair search (1 = sequential).
    /// Results are bit-identical for every value.
    pub threads: usize,
}

impl CramConfig {
    /// The paper's default configuration for a metric: all optimizations
    /// on, sequential search.
    pub fn with_metric(metric: ClosenessMetric) -> Self {
        Self {
            metric,
            one_to_many: true,
            poset_pruning: true,
            threads: 1,
        }
    }
}

impl Default for CramConfig {
    fn default() -> Self {
        Self::with_metric(ClosenessMetric::Ios)
    }
}

/// Counters reported alongside a CRAM allocation (experiment E7/E8).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CramStats {
    /// Total subscriptions in the pool.
    pub subscriptions: usize,
    /// GIFs after grouping equal profiles (optimization 1; the paper
    /// reports up to 61% reduction at 8,000 subscriptions).
    pub initial_gifs: usize,
    /// Main-loop iterations executed.
    pub iterations: usize,
    /// Successful clustering merges.
    pub merges: usize,
    /// Merges undone after a failed allocation test.
    pub failed_merges: usize,
    /// One-to-many (CGS) merges among the successful ones.
    pub one_to_many_merges: usize,
    /// Closeness computations performed (the paper's ~5,000,000 →
    /// ~280,000 pruning headline).
    pub closeness_computations: u64,
    /// Profile-relationship computations performed by the poset.
    pub poset_relation_ops: u64,
    /// Units (clusters) remaining when the algorithm terminated — the
    /// cluster count PAIRWISE-K borrows.
    pub final_units: usize,
}

#[derive(Debug, Clone)]
struct Gif {
    profile: SubscriptionProfile,
    /// Unit keys, kept sorted by (out_bandwidth, first sub id) ascending
    /// — "lightest" first.
    units: Vec<UnitKey>,
}

/// Lazily-maintained index of GIF-key tiles for whole-tile rejection.
///
/// GIF keys are grouped into fixed-width tiles (`key / tile`); each
/// tile keeps the OR-union of its members' profiles as an aggregate
/// summary. During a poset scan, a tile whose summary is disjoint from
/// the scanning GIF's profile can be rejected with one intersect pass:
/// the summary covers every member, so each member's closeness is
/// provably zero under the empty-pruning metrics — exactly the subtree
/// prune the per-candidate `c == 0` branch would take, minus the
/// per-candidate evaluations.
///
/// Membership changes only mark a bucket dirty; summaries are rebuilt
/// lazily before each scan round. When rebuilding, every per-publisher
/// window is widened to the members' combined extent so the union can
/// never truncate — truncation would break the `summary ⊇ member`
/// invariant the rejection's soundness rests on.
struct TileIndex {
    /// Tile width in GIF keys; `0` disables the index entirely.
    tile: usize,
    buckets: BTreeMap<u64, TileBucket>,
    /// Buckets whose summary is stale (membership changed).
    dirty: BTreeSet<u64>,
}

#[derive(Default)]
struct TileBucket {
    members: BTreeSet<GifKey>,
    summary: SubscriptionProfile,
}

impl TileIndex {
    fn new(tile: usize) -> Self {
        Self {
            tile,
            buckets: BTreeMap::new(),
            dirty: BTreeSet::new(),
        }
    }

    fn enabled(&self) -> bool {
        self.tile > 0
    }

    fn bucket_of(&self, g: GifKey) -> u64 {
        g / self.tile.max(1) as u64
    }

    fn on_insert(&mut self, g: GifKey) {
        if !self.enabled() {
            return;
        }
        let b = self.bucket_of(g);
        self.buckets.entry(b).or_default().members.insert(g);
        self.dirty.insert(b);
    }

    fn on_remove(&mut self, g: GifKey) {
        if !self.enabled() {
            return;
        }
        let b = self.bucket_of(g);
        if let Some(bucket) = self.buckets.get_mut(&b) {
            bucket.members.remove(&g);
            if bucket.members.is_empty() {
                self.buckets.remove(&b);
                self.dirty.remove(&b);
            } else {
                self.dirty.insert(b);
            }
        }
    }

    /// The bucket's aggregate summary, valid only after [`Self::rebuild`].
    fn summary(&self, b: u64) -> Option<&SubscriptionProfile> {
        self.buckets.get(&b).map(|bucket| &bucket.summary)
    }

    /// Recomputes the summaries of all dirty buckets.
    fn rebuild(&mut self, gifs: &BTreeMap<GifKey, Gif>) {
        while let Some(b) = self.dirty.pop_first() {
            if let Some(bucket) = self.buckets.get_mut(&b) {
                bucket.summary = summarize(&bucket.members, gifs);
            }
        }
    }
}

/// OR-union of the members' profiles, with each per-publisher window
/// widened to the members' combined extent so no member bit is ever
/// truncated away (the `summary ⊇ member` invariant).
fn summarize(members: &BTreeSet<GifKey>, gifs: &BTreeMap<GifKey, Gif>) -> SubscriptionProfile {
    let mut extents: BTreeMap<AdvId, (u64, u64)> = BTreeMap::new();
    for g in members {
        let Some(gif) = gifs.get(g) else { continue };
        for (adv, v) in gif.profile.iter() {
            let e = extents.entry(adv).or_insert((v.first_id(), v.window_end()));
            e.0 = e.0.min(v.first_id());
            e.1 = e.1.max(v.window_end());
        }
    }
    let mut wide: BTreeMap<AdvId, ShiftingBitVector> = extents
        .into_iter()
        .map(|(adv, (lo, hi))| {
            let bits = usize::try_from(hi.saturating_sub(lo)).unwrap_or(usize::MAX);
            (adv, ShiftingBitVector::starting_at(bits.max(1), lo))
        })
        .collect();
    for g in members {
        let Some(gif) = gifs.get(g) else { continue };
        for (adv, v) in gif.profile.iter() {
            if let Some(w) = wide.get_mut(&adv) {
                w.or_assign(v);
            }
        }
    }
    let mut summary = SubscriptionProfile::new();
    for (adv, v) in wide {
        summary.insert_vector(adv, v);
    }
    summary
}

struct Pool {
    units: BTreeMap<UnitKey, Arc<Unit>>,
    gifs: BTreeMap<GifKey, Gif>,
    /// Profile → GIF lookup. A `BTreeMap` (not `HashMap`) so that no
    /// iteration over this table — present or future — can depend on
    /// hash order; CRAM's determinism contract forbids hash-ordered
    /// decisions anywhere in the merge loop.
    by_profile: BTreeMap<SubscriptionProfile, GifKey>,
    poset: Poset<GifKey>,
    /// Arena copy of the live GIF profiles that production pair
    /// evaluations stream through; `None` on the reference path, which
    /// walks `gifs` directly.
    kernel: Option<ArenaKernel>,
    /// Tile summaries for whole-tile rejection (inert when `tile` is 0).
    tiles: TileIndex,
    next_unit: UnitKey,
    next_gif: GifKey,
}

impl Pool {
    fn build(units: Vec<Unit>, path: EnginePath, cancel: &CancelToken) -> Result<Self, AllocError> {
        let (kernel, tile) = match path {
            EnginePath::Production { tile } => {
                // The widest window in the input sizes the row stride,
                // so the arena's oversize side store stays empty.
                let stride = units
                    .iter()
                    .flat_map(|u| u.profile.iter())
                    .map(|(_, v)| v.capacity())
                    .max()
                    .unwrap_or(DEFAULT_CAPACITY);
                (Some(ArenaKernel::new(stride)), tile)
            }
            EnginePath::Reference => (None, 0),
        };
        let mut pool = Pool {
            units: BTreeMap::new(),
            gifs: BTreeMap::new(),
            by_profile: BTreeMap::new(),
            poset: Poset::new(),
            kernel,
            tiles: TileIndex::new(tile),
            next_unit: 0,
            next_gif: 0,
        };
        for u in units {
            if cancel.is_cancelled_hot() {
                return Err(AllocError::Cancelled);
            }
            pool.add_unit(u);
        }
        Ok(pool)
    }

    fn add_unit(&mut self, unit: Unit) -> (UnitKey, GifKey) {
        let uk = self.next_unit;
        self.next_unit += 1;
        let gk = match self.by_profile.get(&unit.profile) {
            Some(&gk) => gk,
            None => {
                let gk = self.next_gif;
                self.next_gif += 1;
                self.by_profile.insert(unit.profile.clone(), gk);
                self.gifs.insert(
                    gk,
                    Gif {
                        profile: unit.profile.clone(),
                        units: Vec::new(),
                    },
                );
                self.poset.insert(gk, unit.profile.clone());
                if let Some(kernel) = &mut self.kernel {
                    kernel.insert(gk, &unit.profile);
                }
                self.tiles.on_insert(gk);
                gk
            }
        };
        let gif = self
            .gifs
            .get_mut(&gk)
            .expect("gif inserted above or found via by_profile");
        let pos = gif
            .units
            .binary_search_by(|k| {
                let u = &self.units[k];
                u.out_bandwidth
                    .total_cmp(&unit.out_bandwidth)
                    .then(u.subs.first().cmp(&unit.subs.first()))
            })
            .unwrap_or_else(|e| e);
        gif.units.insert(pos, uk);
        self.units.insert(uk, Arc::new(unit));
        (uk, gk)
    }

    /// Removes a unit; deletes its GIF (and poset node, kernel entry,
    /// tile membership) when emptied. Returns the unit and whether the
    /// GIF was deleted.
    fn remove_unit(&mut self, gk: GifKey, uk: UnitKey) -> (Arc<Unit>, bool) {
        let unit = self.units.remove(&uk).expect("unknown unit");
        let gif = self.gifs.get_mut(&gk).expect("unknown gif");
        gif.units.retain(|&k| k != uk);
        if gif.units.is_empty() {
            let gif = self.gifs.remove(&gk).expect("gif fetched above");
            self.by_profile.remove(&gif.profile);
            self.poset.remove(gk);
            if let Some(kernel) = &mut self.kernel {
                kernel.remove(gk);
            }
            self.tiles.on_remove(gk);
            (unit, true)
        } else {
            (unit, false)
        }
    }

    /// The lightest (smallest output bandwidth) unit of a GIF.
    fn lightest(&self, gk: GifKey) -> UnitKey {
        self.gifs[&gk].units[0]
    }

    /// Pair cardinalities of two live GIFs: one arena pass in
    /// production, the per-profile walk on the reference path. Both run
    /// the same word-level routine, so the results are equal.
    fn pair_cardinalities(&self, a: GifKey, b: GifKey) -> PairCardinalities {
        match &self.kernel {
            Some(kernel) => kernel.pair_cardinalities(a, b),
            None => self.gifs[&a]
                .profile
                .pair_cardinalities(&self.gifs[&b].profile),
        }
    }
}

/// The closeness measure a [`CramBuilder`] clusters with: one of the
/// paper's metrics, or a borrowed user-supplied measure.
///
/// Built-in metrics evaluate through [`Pool::pair_cardinalities`]
/// (one batch popcount pass + scalar arithmetic); custom measures see
/// whole profiles, as their trait contract promises.
#[derive(Clone, Copy)]
enum MeasureRef<'a> {
    Metric(ClosenessMetric),
    Custom(&'a dyn Closeness),
}

/// Builder-style entry point for CRAM — the one way to run it.
///
/// Covers everything the former `cram` / `cram_units` /
/// `cram_units_custom` trio did: a paper metric ([`CramBuilder::new`])
/// or a custom [`Closeness`] measure ([`CramBuilder::custom`]), the
/// O2/O3 optimization toggles, and the parallel closest-pair search
/// ([`CramBuilder::threads`]). [`CramBuilder::run_reference`] runs the
/// same configuration through the test oracle.
///
/// ```
/// use greenps_core::cram::CramBuilder;
/// use greenps_core::model::AllocationInput;
/// use greenps_profile::ClosenessMetric;
///
/// let input = AllocationInput::new();
/// let (alloc, stats) = CramBuilder::new(ClosenessMetric::Ios)
///     .threads(4)
///     .run(&input)?;
/// assert_eq!(alloc.broker_count(), 0);
/// assert_eq!(stats.initial_gifs, 0);
/// # Ok::<(), greenps_core::model::AllocError>(())
/// ```
pub struct CramBuilder<'a> {
    measure: MeasureRef<'a>,
    one_to_many: bool,
    poset_pruning: bool,
    threads: usize,
    telemetry: Registry,
    cancel: CancelToken,
}

impl<'a> CramBuilder<'a> {
    /// CRAM with a paper metric, all optimizations on, sequential
    /// search.
    pub fn new(metric: ClosenessMetric) -> Self {
        CramBuilder {
            measure: MeasureRef::Metric(metric),
            one_to_many: true,
            poset_pruning: true,
            threads: 1,
            telemetry: Registry::disabled(),
            cancel: CancelToken::never(),
        }
    }

    /// CRAM with a user-supplied [`Closeness`] measure — the plug-in
    /// point for custom clustering heuristics.
    pub fn custom(measure: &'a dyn Closeness) -> Self {
        CramBuilder {
            measure: MeasureRef::Custom(measure),
            one_to_many: true,
            poset_pruning: true,
            threads: 1,
            telemetry: Registry::disabled(),
            cancel: CancelToken::never(),
        }
    }

    /// Builder from a [`CramConfig`] (the form the ablation experiments
    /// and [`crate::overlay::AllocatorKind::Cram`] carry around).
    pub fn from_config(config: CramConfig) -> Self {
        CramBuilder {
            measure: MeasureRef::Metric(config.metric),
            one_to_many: config.one_to_many,
            poset_pruning: config.poset_pruning,
            threads: config.threads,
            telemetry: Registry::disabled(),
            cancel: CancelToken::never(),
        }
    }

    /// Threads a cancellation token into the run: the merge loop, the
    /// baseline packing, and the pool build all poll it and stop with
    /// [`AllocError::Cancelled`]. The default is a never-cancelled
    /// token, so untoken'd runs behave exactly as before.
    #[must_use]
    pub fn cancel_token(mut self, cancel: &CancelToken) -> Self {
        self.cancel = cancel.clone();
        self
    }

    /// Reports into `registry`: the `cram.run` span, per-scan timings,
    /// GIF-merge/blacklist trace events, and — after the run — the
    /// closeness-computation and pair-cache counters. Observation only:
    /// the allocation and [`CramStats`] are bit-identical with any
    /// registry, including [`Registry::disabled`] (the default).
    #[must_use]
    pub fn telemetry(mut self, registry: &Registry) -> Self {
        self.telemetry = registry.clone();
        self
    }

    /// Toggles optimization 3 (one-to-many CGS clustering).
    #[must_use]
    pub fn one_to_many(mut self, on: bool) -> Self {
        self.one_to_many = on;
        self
    }

    /// Toggles optimization 2 (poset search pruning; only effective
    /// when the measure supports empty-relationship pruning).
    #[must_use]
    pub fn poset_pruning(mut self, on: bool) -> Self {
        self.poset_pruning = on;
        self
    }

    /// Worker threads for the closest-pair search. The allocation and
    /// stats are bit-identical for every value; `1` (the default) runs
    /// fully sequentially.
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Runs CRAM over an allocation input.
    ///
    /// # Errors
    /// Fails when even the unclustered BIN PACKING allocation is
    /// infeasible, mirroring the paper's initialization step.
    pub fn run(&self, input: &AllocationInput) -> Result<(Allocation, CramStats), AllocError> {
        self.run_units(input, units_from_input(input))
    }

    /// Runs CRAM over prebuilt units (used recursively by Phase 3).
    ///
    /// # Errors
    /// Fails when the initial unclustered allocation is infeasible.
    pub fn run_units(
        &self,
        input: &AllocationInput,
        units: Vec<Unit>,
    ) -> Result<(Allocation, CramStats), AllocError> {
        let path = EnginePath::Production { tile: DEFAULT_TILE };
        self.execute(input, units, path)
    }

    /// Runs CRAM through the oracle: the paper-literal computation the
    /// production engine is proven against. It runs sequentially
    /// whatever [`CramBuilder::threads`] says, evaluates every pair by
    /// walking the two GIF profiles, never tiles, and re-sorts and
    /// re-packs from scratch per allocation test. The allocation and
    /// every [`CramStats`] field match [`CramBuilder::run`], except
    /// `closeness_computations`, which tiling lowers in production.
    ///
    /// # Errors
    /// Fails when even the unclustered BIN PACKING allocation is
    /// infeasible.
    pub fn run_reference(
        &self,
        input: &AllocationInput,
    ) -> Result<(Allocation, CramStats), AllocError> {
        self.execute(input, units_from_input(input), EnginePath::Reference)
    }

    fn execute(
        &self,
        input: &AllocationInput,
        units: Vec<Unit>,
        path: EnginePath,
    ) -> Result<(Allocation, CramStats), AllocError> {
        let span = Span::enter(&self.telemetry, "cram.run");
        let mut stats = CramStats {
            subscriptions: units.iter().map(Unit::sub_count).sum(),
            ..CramStats::default()
        };

        // Initialization: allocate without clustering; abort on failure.
        let baseline = bin_packing_units(
            &input.brokers,
            &input.publishers,
            units.clone(),
            &self.cancel,
        )?;

        let pool = Pool::build(units, path, &self.cancel)?;
        stats.initial_gifs = pool.gifs.len();
        // Production carries a persistent packer over an
        // incrementally-maintained pack-order unit list; the oracle
        // re-packs from scratch per test.
        let (pack, threads) = match path {
            EnginePath::Reference => (PackPath::Reference, 1),
            EnginePath::Production { .. } => {
                let packer = FastPacker::new(&input.brokers, &input.publishers);
                let mut order = Vec::with_capacity(pool.units.len());
                for (&key, u) in &pool.units {
                    if self.cancel.is_cancelled_hot() {
                        return Err(AllocError::Cancelled);
                    }
                    order.push(PackEntry {
                        key,
                        unit: Arc::clone(u),
                        rate_bound: packer.rate_bound(u),
                    });
                }
                order.sort_by(|a, b| pack_order(&a.unit, &b.unit));
                (PackPath::Fast { packer, order }, self.threads)
            }
        };
        // The fast path keeps only the packing *recipe* of the best
        // allocation and materializes once after the run; seeding it
        // from the baseline keeps the fallback guarantee intact.
        let best = match &pack {
            PackPath::Reference => BestAlloc::Full(baseline),
            PackPath::Fast { .. } => BestAlloc::Recipe {
                brokers: baseline.broker_count(),
                picks: baseline
                    .loads
                    .into_iter()
                    .map(|l| (l.broker, l.units.into_iter().map(Arc::new).collect()))
                    .collect(),
            },
        };
        let mut engine = Engine {
            pool,
            measure: self.measure,
            one_to_many: self.one_to_many,
            poset_pruning: self.poset_pruning,
            threads,
            publishers: &input.publishers,
            brokers: &input.brokers,
            partners: BTreeMap::new(),
            stale: BTreeSet::new(),
            blacklist: BTreeSet::new(),
            cache: PairCache::default(),
            stats,
            best,
            pack,
            tile_checks: 0,
            tile_pruned: 0,
            scan_timer: self.telemetry.histogram("cram.scan_us"),
            pack_timer: self.telemetry.histogram("cram.pack_us"),
            scan_scratch: ScanScratch::default(),
            removed_buf: Vec::new(),
            cgs_scratch: CgsScratch::default(),
            events: self.telemetry.ring("cram"),
            cancel: self.cancel.clone(),
        };
        engine.stale.extend(engine.pool.gifs.keys().copied());
        if !engine.run() {
            // Cancelled mid-merge: no partial allocation escapes.
            span.finish();
            return Err(AllocError::Cancelled);
        }
        engine.stats.poset_relation_ops = engine.pool.poset.relation_ops();
        engine.stats.final_units = engine.pool.units.len();
        self.report(&engine);
        span.finish();
        let stats = engine.stats;
        let best = match engine.best {
            BestAlloc::Full(a) => a,
            BestAlloc::Recipe { picks, .. } => materialize_recipe(picks, &input.publishers),
        };
        Ok((best, stats))
    }

    /// Publishes the run's counters and gauges. Pure observation of
    /// already-final values, after the allocation is decided.
    fn report(&self, engine: &Engine<'_>) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let t = &self.telemetry;
        let stats = &engine.stats;
        t.counter("cram.closeness_computations")
            .add(stats.closeness_computations);
        t.counter("cram.iterations").add(stats.iterations as u64);
        t.counter("cram.merges").add(stats.merges as u64);
        t.counter("cram.failed_merges")
            .add(stats.failed_merges as u64);
        t.counter("cram.one_to_many_merges")
            .add(stats.one_to_many_merges as u64);
        t.gauge("cram.initial_gifs").set(stats.initial_gifs as u64);
        t.gauge("cram.final_units").set(stats.final_units as u64);
        t.counter("cram.tile.checks").add(engine.tile_checks);
        t.counter("cram.tile.pruned").add(engine.tile_pruned);
        let fallbacks = match &engine.pack {
            PackPath::Reference => 0,
            PackPath::Fast { packer, .. } => packer.exact_fallbacks(),
        };
        t.counter("cram.pack.exact_fallbacks").add(fallbacks);
        // Pruning effectiveness: share of candidate evaluations the
        // tile summaries eliminated.
        let tile_denom = engine.tile_pruned + stats.closeness_computations;
        let tile_pct = if tile_denom == 0 {
            0.0
        } else {
            engine.tile_pruned as f64 / tile_denom as f64 * 100.0
        };
        t.gauge("cram.tile.pruned_pct").set_f64(tile_pct);
        let cache = engine.cache.stats();
        t.counter("core.pair_cache.hits").add(cache.hits);
        t.counter("core.pair_cache.misses").add(cache.misses);
        t.gauge("core.pair_cache.hit_rate_pct")
            .set_f64(cache.hit_rate() * 100.0);
    }
}

struct Engine<'a> {
    pool: Pool,
    measure: MeasureRef<'a>,
    one_to_many: bool,
    poset_pruning: bool,
    /// Worker threads for the sharded partner refresh.
    threads: usize,
    publishers: &'a PublisherTable,
    brokers: &'a [crate::model::BrokerSpec],
    /// Cached closest partner per GIF.
    partners: BTreeMap<GifKey, Option<(GifKey, f64)>>,
    /// GIFs whose cached partner must be recomputed.
    stale: BTreeSet<GifKey>,
    blacklist: BTreeSet<(GifKey, GifKey)>,
    /// Memoized pair closenesses; invalidated only for merged-away
    /// GIFs (blacklisting leaves profiles — and hence entries — valid).
    cache: PairCache<GifKey>,
    stats: CramStats,
    best: BestAlloc,
    /// How the allocation tests pack.
    pack: PackPath,
    /// Whole-tile summary checks performed (telemetry only).
    tile_checks: u64,
    /// Frontier candidates rejected tile-at-a-time (telemetry only).
    tile_pruned: u64,
    /// Telemetry: per-scan wall times (µs). Atomic and lock-free, so
    /// shard workers record into it concurrently without affecting the
    /// scan results.
    scan_timer: Histogram,
    /// Telemetry: per-allocation-test wall times (µs).
    pack_timer: Histogram,
    /// Telemetry: merge/blacklist trace events.
    events: EventSink,
    /// Reusable scan buffers for [`Engine::refresh_one`].
    scan_scratch: ScanScratch,
    /// Reusable sorted removed-unit buffer for the feasibility tests.
    removed_buf: Vec<UnitKey>,
    /// Reusable descent/cover/removal buffers for [`Engine::attempt_cgs`].
    cgs_scratch: CgsScratch,
    /// Polled once per merge iteration; a tripped token stops the run.
    cancel: CancelToken,
}

fn pair_key(a: GifKey, b: GifKey) -> (GifKey, GifKey) {
    (a.min(b), a.max(b))
}

/// One entry of the fast path's persistently-sorted unit list.
struct PackEntry {
    key: UnitKey,
    unit: Arc<Unit>,
    /// The unit's [`FastPacker::rate_bound`], computed once.
    rate_bound: f64,
}

/// How [`Engine::test_and_record`] runs the allocation test.
enum PackPath {
    /// Collect, re-sort, and re-pack from scratch on every test — the
    /// oracle's packing ([`CramBuilder::run_reference`]).
    Reference,
    /// A persistent [`FastPacker`] (epoch-reset broker/union state)
    /// fed from an incrementally-maintained [`pack_order`]-sorted unit
    /// list, so a test performs no sorting and no per-test allocations
    /// (production).
    Fast {
        packer: FastPacker,
        /// Live pool units sorted by [`pack_order`], maintained by
        /// [`Engine::commit`].
        order: Vec<PackEntry>,
    },
}

/// The best allocation seen so far. The reference path stores it fully
/// materialized after every improvement (the oracle's behaviour); the
/// fast path stores only the packing *recipe* — which broker got which
/// units, in placement order — and materializes once when the run
/// ends. Replaying the recipe performs the same profile unions,
/// bandwidth sums, and load estimates in the same order as
/// [`RefPacker::into_allocation`], so the result is bit-identical.
enum BestAlloc {
    Full(Allocation),
    Recipe {
        brokers: usize,
        picks: Vec<(BrokerId, Vec<Arc<Unit>>)>,
    },
}

impl BestAlloc {
    fn broker_count(&self) -> usize {
        match self {
            BestAlloc::Full(a) => a.broker_count(),
            BestAlloc::Recipe { brokers, .. } => *brokers,
        }
    }
}

/// Materializes a fast-path packing recipe into a full [`Allocation`]:
/// per broker, replay `or_assign` over the picked units in placement
/// order, sum their bandwidths, and estimate the union load — the
/// exact fold [`RefPacker::into_allocation`] (and the baseline packer)
/// performs, so the `f64` results match bit-for-bit.
fn materialize_recipe(
    picks: Vec<(BrokerId, Vec<Arc<Unit>>)>,
    publishers: &PublisherTable,
) -> Allocation {
    let loads = picks
        .into_iter()
        .map(|(broker, picked)| {
            let mut union = SubscriptionProfile::new();
            let mut out_bw_used = 0.0;
            for u in &picked {
                union.or_assign(&u.profile);
                out_bw_used += u.out_bandwidth;
            }
            let input = union.estimate_load(publishers);
            BrokerLoad {
                broker,
                units: picked.iter().map(|u| (**u).clone()).collect(),
                union_profile: union,
                out_bw_used,
                in_rate: input.rate,
                in_bandwidth: input.bandwidth,
            }
        })
        .collect();
    Allocation { loads }
}

/// Streams the fast path's sorted unit list with `removed` keys
/// filtered out and one trial merged unit spliced in at its
/// [`pack_order`] position. Ties go to the survivors, matching the
/// reference path's stable sort over survivors chained with the merged
/// unit last (the order is strict across a live pool anyway — unit
/// subscription lists are disjoint and non-empty).
struct MergedOrder<'u, I: Iterator<Item = (&'u Arc<Unit>, f64)>> {
    inner: std::iter::Peekable<I>,
    merged: Option<(&'u Arc<Unit>, f64)>,
}

impl<'u, I: Iterator<Item = (&'u Arc<Unit>, f64)>> Iterator for MergedOrder<'u, I> {
    type Item = (&'u Arc<Unit>, f64);

    fn next(&mut self) -> Option<Self::Item> {
        match self.merged {
            Some((m, _)) => match self.inner.peek() {
                Some((u, _)) if pack_order(u, m) != std::cmp::Ordering::Greater => {
                    self.inner.next()
                }
                _ => self.merged.take(),
            },
            None => self.inner.next(),
        }
    }
}

/// Reusable working memory for [`scan_partner`]: the poset BFS frontier
/// and visited set plus the pair closenesses computed so far (cache
/// misses, merged into the shared cache after the shard joins). One
/// scratch lives per shard worker, so consecutive scans reuse the same
/// heap buffers instead of allocating per scan — the pair-evaluation
/// path stays allocation-free in steady state.
#[derive(Debug, Default)]
struct ScanScratch {
    frontier: Vec<(GifKey, f64)>,
    visited: BTreeSet<GifKey>,
    /// `(g, candidate, closeness)` triples computed by this shard's
    /// scans, in scan order.
    computed: Vec<(GifKey, GifKey, f64)>,
    /// Measure evaluations performed by this shard's scans.
    computations: u64,
    /// Per-scan memo of tile-summary disjointness, keyed by bucket —
    /// one summary intersect per touched tile per scan.
    tile_state: BTreeMap<u64, bool>,
    /// Whole-tile summary checks performed by this shard's scans.
    tile_checks: u64,
    /// Frontier candidates rejected tile-at-a-time.
    tile_pruned: u64,
}

/// Reusable working memory for [`Engine::attempt_cgs`]: the poset
/// descent (frontier + visited set), the descendant worklist, the
/// greedy cover selection, and the removal list handed to
/// [`Engine::commit`]. CGS attempts run once per intersecting pair, so
/// reusing these buffers keeps the pair-evaluation path free of
/// per-attempt allocations.
#[derive(Debug, Default)]
struct CgsScratch {
    /// Descendants of the parent GIF, consumed by the greedy cover.
    remaining: Vec<GifKey>,
    frontier: Vec<GifKey>,
    seen: BTreeSet<GifKey>,
    /// The selected cover, in selection order.
    cgs: Vec<GifKey>,
    /// `(gif, unit)` pairs removed by the committed merge.
    removals: Vec<(GifKey, UnitKey)>,
}

/// Finds the closest non-blacklisted partner of `g` against a frozen
/// snapshot of the pool and pair cache (optimization 2 when the
/// measure allows). A free function over shared references so
/// [`shard_map_scratch`] workers can run it concurrently; because every
/// worker sees the same snapshot — never another worker's fresh results
/// — the outcome is independent of sharding, which is what makes
/// parallel CRAM bit-identical to sequential.
///
/// Ties break to the lowest candidate key, matching the sequential
/// scan order over the `BTreeMap` pool. Computed closenesses and the
/// evaluation tally accumulate in `scratch` for the caller to merge.
#[allow(clippy::too_many_arguments)]
fn scan_partner(
    pool: &Pool,
    measure: MeasureRef<'_>,
    poset_pruning: bool,
    use_tiles: bool,
    blacklist: &BTreeSet<(GifKey, GifKey)>,
    cache: &PairCache<GifKey>,
    timer: &Histogram,
    scratch: &mut ScanScratch,
    g: GifKey,
) -> Option<(GifKey, f64)> {
    // The timer guard reads the clock only when telemetry is on, and it
    // cannot influence the outcome.
    let timer = timer.start_timer();
    let g_profile = &pool.gifs[&g].profile;
    let ScanScratch {
        frontier,
        visited,
        computed,
        computations,
        tile_state,
        tile_checks,
        tile_pruned,
    } = scratch;
    let mut eval = |cand: GifKey, profile: &SubscriptionProfile| -> f64 {
        if let Some(c) = cache.get(g, cand) {
            return c;
        }
        *computations += 1;
        // Built-in metrics: one batch popcount pass, then scalar
        // arithmetic.
        let c = match measure {
            MeasureRef::Metric(m) => m.from_cardinalities(pool.pair_cardinalities(g, cand)),
            MeasureRef::Custom(m) => m.closeness(g_profile, profile),
        };
        computed.push((g, cand, c));
        c
    };
    let mut best: Option<(GifKey, f64)> = None;
    let mut consider = |cand: GifKey, c: f64| {
        if c <= 0.0 || blacklist.contains(&pair_key(g, cand)) {
            return;
        }
        if cand == g && pool.gifs[&g].units.len() < 2 {
            return;
        }
        match best {
            Some((bk, bc)) if bc > c || (bc == c && bk <= cand) => {}
            _ => best = Some((cand, c)),
        }
    };

    let prune = poset_pruning
        && match measure {
            MeasureRef::Metric(m) => m.supports_empty_pruning(),
            MeasureRef::Custom(m) => m.supports_empty_pruning(),
        };
    if prune {
        // BFS from the roots; prune empty subtrees and stop
        // descending once closeness decreases.
        frontier.clear();
        frontier.extend(pool.poset.roots().map(|r| (r, 0.0)));
        visited.clear();
        tile_state.clear();
        let mut i = 0;
        while i < frontier.len() {
            let (n, parent_c) = frontier[i];
            i += 1;
            if !visited.insert(n) {
                continue;
            }
            if use_tiles {
                let b = pool.tiles.bucket_of(n);
                let disjoint = match tile_state.get(&b) {
                    Some(&d) => d,
                    None => {
                        *tile_checks += 1;
                        let d = pool
                            .tiles
                            .summary(b)
                            .is_some_and(|s| g_profile.intersect_count(s) == 0);
                        tile_state.insert(b, d);
                        d
                    }
                };
                if disjoint {
                    // Whole-tile rejection: the summary covers every
                    // member of the tile, so a disjoint summary proves
                    // closeness 0 for this candidate — exactly the
                    // `c == 0.0` subtree prune below, minus the eval.
                    *tile_pruned += 1;
                    continue;
                }
            }
            let n_profile = pool.poset.profile(n).expect("poset node");
            let c = eval(n, n_profile);
            if c == 0.0 {
                continue; // empty relationship: prune subtree
            }
            consider(n, c);
            if c >= parent_c {
                frontier.extend(pool.poset.children(n).map(|ch| (ch, c)));
            }
        }
    } else {
        for (&cand, gif) in &pool.gifs {
            let c = eval(cand, &gif.profile);
            consider(cand, c);
        }
    }
    timer.stop();
    best
}

impl Engine<'_> {
    /// Runs the merge iteration to fixpoint. Returns `false` when the
    /// cancellation token tripped before convergence (one poll per
    /// merge iteration bounds the stop latency to a single
    /// refresh/attempt round).
    fn run(&mut self) -> bool {
        loop {
            if self.cancel.is_cancelled_hot() {
                return false;
            }
            self.refresh_partners();
            let Some((g, h, _closeness)) = self.global_best() else {
                return true;
            };
            self.stats.iterations += 1;
            let committed = self.attempt(g, h);
            if committed {
                self.events.emit_with("gif.merge", || format!("g{g}+g{h}"));
            } else {
                self.events
                    .emit_with("pair.blacklist", || format!("g{g}+g{h}"));
                self.blacklist.insert(pair_key(g, h));
                self.stats.failed_merges += 1;
                self.stale.insert(g);
                if g != h {
                    self.stale.insert(h);
                }
            }
        }
    }

    /// Recomputes the cached partner of every stale GIF, sharding the
    /// scans across the worker pool. All scans read the same frozen
    /// snapshot of pool, blacklist, and cache (snapshot semantics);
    /// results and cache updates are merged afterwards in stale-key
    /// order, so the outcome is identical for any thread count —
    /// including 1, which takes the same path sequentially.
    fn refresh_partners(&mut self) {
        let marked = std::mem::take(&mut self.stale);
        let mut stale: Vec<GifKey> = Vec::with_capacity(marked.len());
        for g in marked {
            if self.pool.gifs.contains_key(&g) {
                stale.push(g);
            } else {
                self.partners.remove(&g);
            }
        }
        if stale.is_empty() {
            return;
        }
        // Bring the tile summaries up to date before freezing the pool
        // for the shard workers (rebuild needs `&mut`).
        self.pool.tiles.rebuild(&self.pool.gifs);
        let use_tiles = self.use_tiles();
        let pool = &self.pool;
        let measure = self.measure;
        let pruning = self.poset_pruning;
        let blacklist = &self.blacklist;
        let cache = &self.cache;
        // Tiny refresh batches (every post-merge revalidation) go
        // sequential; only the large scans fan out. Same results either
        // way per the shard_map determinism contract.
        let threads = if stale.len() < crate::engine::MIN_PARALLEL_BATCH {
            1
        } else {
            self.threads
        };
        let timer = &self.scan_timer;
        let (partners, scratches) =
            shard_map_scratch(&stale, threads, ScanScratch::default, |scratch, &g| {
                scan_partner(
                    pool, measure, pruning, use_tiles, blacklist, cache, timer, scratch, g,
                )
            });
        for (&g, partner) in stale.iter().zip(partners) {
            self.partners.insert(g, partner);
        }
        // Merge computed closenesses in shard order. Shards are
        // contiguous chunks of `stale`, so this observes exactly the
        // stale-key order for any thread count — identical to the
        // sequential path, including the cache's budget cutoff.
        for scratch in scratches {
            for (g, cand, c) in scratch.computed {
                self.cache.insert(g, cand, c);
            }
            self.stats.closeness_computations += scratch.computations;
            self.tile_checks += scratch.tile_checks;
            self.tile_pruned += scratch.tile_pruned;
        }
    }

    /// Whole-tile rejection applies only on the poset-pruned search
    /// with a built-in metric: a disjoint summary proves member
    /// closeness is zero because the metrics derive from pair
    /// cardinalities — a guarantee a custom [`Closeness`] measure's
    /// `supports_empty_pruning` flag does not extend to profiles it
    /// never saw.
    fn use_tiles(&self) -> bool {
        self.poset_pruning
            && self.pool.tiles.enabled()
            && matches!(self.measure, MeasureRef::Metric(m) if m.supports_empty_pruning())
    }

    /// Sequential single-GIF variant of [`Engine::refresh_partners`],
    /// used by [`Engine::global_best`] to revalidate one stale entry.
    /// Reuses the engine-owned scan scratch, so revalidation allocates
    /// nothing in steady state.
    fn refresh_one(&mut self, g: GifKey) -> Option<(GifKey, f64)> {
        self.pool.tiles.rebuild(&self.pool.gifs);
        let use_tiles = self.use_tiles();
        let mut scratch = std::mem::take(&mut self.scan_scratch);
        let partner = scan_partner(
            &self.pool,
            self.measure,
            self.poset_pruning,
            use_tiles,
            &self.blacklist,
            &self.cache,
            &self.scan_timer,
            &mut scratch,
            g,
        );
        for (g, cand, c) in scratch.computed.drain(..) {
            self.cache.insert(g, cand, c);
        }
        self.stats.closeness_computations += scratch.computations;
        scratch.computations = 0;
        self.tile_checks += scratch.tile_checks;
        scratch.tile_checks = 0;
        self.tile_pruned += scratch.tile_pruned;
        scratch.tile_pruned = 0;
        self.scan_scratch = scratch;
        partner
    }

    fn global_best(&mut self) -> Option<(GifKey, GifKey, f64)> {
        loop {
            let best = self
                .partners
                .iter()
                .filter_map(|(&g, p)| p.map(|(h, c)| (g, h, c)))
                .max_by(|a, b| a.2.total_cmp(&b.2).then(b.0.cmp(&a.0)))?;
            let (g, h, _) = best;
            // Validate staleness: partner may have been merged away or
            // blacklisted since it was cached.
            let valid = self.pool.gifs.contains_key(&h)
                && !self.blacklist.contains(&pair_key(g, h))
                && (g != h || self.pool.gifs[&g].units.len() >= 2);
            if valid {
                return Some(best);
            }
            let p = self.refresh_one(g);
            self.partners.insert(g, p);
            if self.partners[&g].is_none() {
                self.partners.remove(&g);
                if self.partners.is_empty() {
                    return None;
                }
            }
        }
    }

    /// Closeness of two ad-hoc profiles (CGS unions and the like) —
    /// these never live in the arena, so built-in metrics take the
    /// per-profile pass here (same `f64` by construction).
    fn closeness(&mut self, a: &SubscriptionProfile, b: &SubscriptionProfile) -> f64 {
        self.stats.closeness_computations += 1;
        match self.measure {
            MeasureRef::Metric(m) => m.closeness(a, b),
            MeasureRef::Custom(m) => m.closeness(a, b),
        }
    }

    /// Cache-aware closeness between two live GIFs' profiles.
    fn pair_closeness(&mut self, g: GifKey, h: GifKey) -> f64 {
        if let Some(c) = self.cache.get(g, h) {
            return c;
        }
        self.stats.closeness_computations += 1;
        let c = match self.measure {
            MeasureRef::Metric(m) => m.from_cardinalities(self.pool.pair_cardinalities(g, h)),
            MeasureRef::Custom(m) => {
                m.closeness(&self.pool.gifs[&g].profile, &self.pool.gifs[&h].profile)
            }
        };
        self.cache.insert(g, h, c);
        c
    }

    /// Tests whether the pool with `removed` units replaced by `merged`
    /// still allocates; on success records the allocation when it is at
    /// least as good (broker count) as the best seen — later ties win
    /// because more clustering means less duplicated traffic. Keeping
    /// the best rather than merely the last successful scheme preserves
    /// the paper's fallback guarantee while making CRAM never allocate
    /// more brokers than plain BIN PACKING.
    ///
    /// `removed` must be sorted ascending (the callers reuse
    /// [`Engine::removed_buf`] for it).
    fn test_and_record(&mut self, removed: &[UnitKey], merged: &Unit) -> bool {
        // The timer reads the clock only when telemetry is on.
        let timer = self.pack_timer.start_timer();
        let ok = self.pack_and_record(removed, merged);
        timer.stop();
        ok
    }

    /// The body of [`Engine::test_and_record`].
    fn pack_and_record(&mut self, removed: &[UnitKey], merged: &Unit) -> bool {
        match &mut self.pack {
            PackPath::Reference => {
                let units: Vec<&Unit> = self
                    .pool
                    .units
                    .iter()
                    .filter(|(k, _)| removed.binary_search(k).is_err())
                    .map(|(_, u)| &**u)
                    .chain(std::iter::once(merged))
                    .collect();
                let mut packer = RefPacker::new(self.brokers);
                if packer.pack_sorted(self.publishers, units).is_err() {
                    return false;
                }
                if packer.used_brokers() <= self.best.broker_count() {
                    self.best = BestAlloc::Full(packer.into_allocation(self.publishers));
                }
            }
            PackPath::Fast { packer, order } => {
                let merged_arc = Arc::new(merged.clone());
                let merged_bound = packer.rate_bound(merged);
                let live = order
                    .iter()
                    .filter(|e| removed.binary_search(&e.key).is_err())
                    .map(|e| (&e.unit, e.rate_bound));
                let stream = MergedOrder {
                    inner: live.peekable(),
                    merged: Some((&merged_arc, merged_bound)),
                };
                if packer.pack(stream).is_err() {
                    return false;
                }
                let used = packer.used_brokers();
                if used <= self.best.broker_count() {
                    if let BestAlloc::Recipe { brokers, picks } = &mut self.best {
                        *brokers = used;
                        packer.drain_picks_into(picks);
                    }
                }
            }
        }
        true
    }

    /// Commits a merge: removes `removals` (gif, unit) pairs, inserts
    /// the merged unit, and invalidates affected partner and
    /// pair-closeness caches. Only GIFs merged away (deleted) lose
    /// their cache entries — a surviving GIF's profile is unchanged by
    /// losing a unit, so its cached closenesses remain exact.
    fn commit(&mut self, removals: impl IntoIterator<Item = (GifKey, UnitKey)>, merged: Unit) {
        let mut touched: BTreeSet<GifKey> = BTreeSet::new();
        for (gk, uk) in removals {
            let (unit, gif_deleted) = self.pool.remove_unit(gk, uk);
            if let PackPath::Fast { order, .. } = &mut self.pack {
                match order.binary_search_by(|e| pack_order(&e.unit, &unit)) {
                    Ok(pos) => {
                        order.remove(pos);
                    }
                    // Unreachable under the strict pack order; fall
                    // back to dropping by key to stay safe.
                    Err(_) => order.retain(|e| e.key != uk),
                }
            }
            if gif_deleted {
                self.partners.remove(&gk);
                self.cache.invalidate(gk);
                // Any GIF whose cached partner was gk must recompute.
                // `partners` and `stale` are disjoint fields, so this
                // marks them directly without collecting.
                for (&k, p) in &self.partners {
                    if matches!(p, Some((h, _)) if *h == gk) {
                        self.stale.insert(k);
                    }
                }
            } else {
                touched.insert(gk);
            }
        }
        let (new_uk, new_gif) = self.pool.add_unit(merged);
        if let PackPath::Fast { packer, order } = &mut self.pack {
            if let Some(u) = self.pool.units.get(&new_uk) {
                let pos = order
                    .binary_search_by(|e| pack_order(&e.unit, u))
                    .unwrap_or_else(|p| p);
                order.insert(
                    pos,
                    PackEntry {
                        key: new_uk,
                        unit: Arc::clone(u),
                        rate_bound: packer.rate_bound(u),
                    },
                );
            }
        }
        touched.insert(new_gif);
        self.stale.extend(touched);
        self.stats.merges += 1;
    }

    /// One clustering attempt on the pair `(g, h)`; returns `true` when
    /// a merge was committed.
    fn attempt(&mut self, g: GifKey, h: GifKey) -> bool {
        if g == h {
            return self.attempt_equal(g);
        }
        // One cardinality pass classifies the pair — the same decision
        // procedure as `SubscriptionProfile::relationship`.
        let rel = Relation::from_cardinalities(self.pool.pair_cardinalities(g, h));
        match rel {
            Relation::Equal => self.attempt_equal(g),
            Relation::Superset => self.attempt_covering(g, h),
            Relation::Subset => self.attempt_covering(h, g),
            Relation::Intersect => {
                if self.one_to_many && (self.attempt_cgs(g, h) || self.attempt_cgs(h, g)) {
                    self.stats.one_to_many_merges += 1;
                    return true;
                }
                self.attempt_pairwise(g, h)
            }
            Relation::Empty => false,
        }
    }

    /// Equal relationship: binary-search the largest allocatable cluster
    /// of the GIF's own units (lightest first).
    fn attempt_equal(&mut self, g: GifKey) -> bool {
        let units = self.pool.gifs[&g].units.clone();
        if units.len() < 2 {
            return false;
        }
        let merged_of = |pool: &Pool, k: usize| -> Unit {
            let mut it = units[..k].iter();
            let first =
                (*pool.units[it.next().expect("attempt_equal requires >= 2 units")]).clone();
            it.fold(first, |acc, uk| acc.merge(&pool.units[uk]))
        };
        let feasible = |engine: &mut Self, k: usize| -> bool {
            let mut removed = std::mem::take(&mut engine.removed_buf);
            removed.clear();
            removed.extend(units[..k].iter().copied());
            removed.sort_unstable();
            let m = merged_of(&engine.pool, k);
            let ok = engine.test_and_record(&removed, &m);
            engine.removed_buf = removed;
            ok
        };
        if !feasible(self, 2) {
            return false;
        }
        let (mut lo, mut hi) = (2usize, units.len());
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if feasible(self, mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        let k = lo;
        if matches!(self.pack, PackPath::Reference) {
            // Re-run the winning size so `best` reflects the committed
            // pool (the oracle's behaviour, byte-for-byte). The fast path
            // skips this: the last successful probe was exactly size
            // `k` — probes only raise `lo` on success and the pool is
            // frozen during the search — so its recipe is already
            // recorded and the re-pack would be a no-op.
            assert!(feasible(self, k));
        }
        let merged = merged_of(&self.pool, k);
        self.commit(units[..k].iter().map(|&uk| (g, uk)), merged);
        true
    }

    /// Superset/subset relationship: cluster the lightest unit of the
    /// covering GIF with a binary-searched prefix of the covered GIF's
    /// units (sorted ascending by bandwidth).
    fn attempt_covering(&mut self, cover: GifKey, covered: GifKey) -> bool {
        let cover_unit = self.pool.lightest(cover);
        let covered_units = self.pool.gifs[&covered].units.clone();
        let merged_of = |pool: &Pool, m: usize| -> Unit {
            covered_units[..m]
                .iter()
                .fold((*pool.units[&cover_unit]).clone(), |acc, uk| {
                    acc.merge(&pool.units[uk])
                })
        };
        let feasible = |engine: &mut Self, m: usize| -> bool {
            let mut removed = std::mem::take(&mut engine.removed_buf);
            removed.clear();
            removed.extend(covered_units[..m].iter().copied());
            removed.push(cover_unit);
            removed.sort_unstable();
            let u = merged_of(&engine.pool, m);
            let ok = engine.test_and_record(&removed, &u);
            engine.removed_buf = removed;
            ok
        };
        if !feasible(self, 1) {
            return false;
        }
        let (mut lo, mut hi) = (1usize, covered_units.len());
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if feasible(self, mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        let m = lo;
        if matches!(self.pack, PackPath::Reference) {
            // The oracle re-packs the winning size; the fast path's last
            // successful probe was exactly size `m`, so its recipe is
            // already recorded (see attempt_equal).
            assert!(feasible(self, m));
        }
        let merged = merged_of(&self.pool, m);
        self.commit(
            covered_units[..m]
                .iter()
                .map(|&uk| (covered, uk))
                .chain(std::iter::once((cover, cover_unit))),
            merged,
        );
        true
    }

    /// Pairwise intersect merge: lightest unit from each GIF.
    fn attempt_pairwise(&mut self, g: GifKey, h: GifKey) -> bool {
        let ug = self.pool.lightest(g);
        let uh = self.pool.lightest(h);
        let merged = self.pool.units[&ug].merge(&self.pool.units[&uh]);
        let mut removed = std::mem::take(&mut self.removed_buf);
        removed.clear();
        removed.extend([ug, uh]);
        removed.sort_unstable();
        let ok = self.test_and_record(&removed, &merged);
        self.removed_buf = removed;
        if !ok {
            return false;
        }
        self.commit([(g, ug), (h, uh)], merged);
        true
    }

    /// Optimization 3: try clustering `g` with a greedy set-cover
    /// selection of its covered GIFs (the CGS), bounded by the load of
    /// the original candidate pair `(g, h)`. A thin wrapper that swaps
    /// the reusable CGS buffers in and out around the real work, so the
    /// descent/cover/removal vectors are not reallocated per attempt.
    fn attempt_cgs(&mut self, g: GifKey, h: GifKey) -> bool {
        let mut scratch = std::mem::take(&mut self.cgs_scratch);
        let ok = self.attempt_cgs_with(g, h, &mut scratch);
        self.cgs_scratch = scratch;
        ok
    }

    fn attempt_cgs_with(&mut self, g: GifKey, h: GifKey, scratch: &mut CgsScratch) -> bool {
        // Covered GIFs = poset descendants of g. `remaining` doubles as
        // the descendant accumulator and the set-cover worklist.
        let CgsScratch {
            remaining,
            frontier,
            seen,
            cgs,
            removals,
        } = scratch;
        remaining.clear();
        frontier.clear();
        seen.clear();
        cgs.clear();
        removals.clear();
        frontier.extend(self.pool.poset.children(g));
        while let Some(n) = frontier.pop() {
            if seen.insert(n) {
                remaining.push(n);
                frontier.extend(self.pool.poset.children(n));
            }
        }
        if remaining.is_empty() {
            return false;
        }
        // A CGS takes at most every descendant, and removals one more
        // entry for the parent itself.
        cgs.reserve(remaining.len());
        removals.reserve(remaining.len() + 1);

        let g_unit = self.pool.lightest(g);
        let budget = self.pool.units[&g_unit].out_bandwidth
            + self.pool.units[&self.pool.lightest(h)].out_bandwidth;

        // Greedy set cover over the descendants' profiles: repeatedly
        // take the GIF contributing the most bits not already in the
        // CGS, until the next addition would exceed the pair's load.
        // (`SubscriptionProfile::new` is an empty map + capacity — it
        // does not allocate until bits are recorded into it.)
        let mut cgs_union = SubscriptionProfile::new();
        let mut total_bw = self.pool.units[&g_unit].out_bandwidth;
        loop {
            let mut best: Option<(usize, usize)> = None; // (new_bits, idx)
            for (i, &d) in remaining.iter().enumerate() {
                let p = &self.pool.gifs[&d].profile;
                let new_bits = cgs_union.union_count(p) - cgs_union.count_ones();
                if new_bits > 0 {
                    match best {
                        Some((nb, _)) if nb >= new_bits => {}
                        _ => best = Some((new_bits, i)),
                    }
                }
            }
            let Some((_, i)) = best else { break };
            let d = remaining.swap_remove(i);
            let d_unit = self.pool.lightest(d);
            let bw = self.pool.units[&d_unit].out_bandwidth;
            if total_bw + bw > budget {
                break; // terminating condition: fair load comparison
            }
            total_bw += bw;
            cgs_union.or_assign(&self.pool.gifs[&d].profile);
            cgs.push(d);
        }
        if cgs.is_empty() {
            return false;
        }

        // The CGS is valid only when its closeness with the parent GIF
        // beats the original pair's closeness. The (g, h) value is a
        // GIF pair, so it is served from (and fills) the pair cache;
        // the CGS union is an ad-hoc profile and is measured directly.
        let g_profile = self.pool.gifs[&g].profile.clone();
        let pair_c = self.pair_closeness(g, h);
        let cgs_c = self.closeness(&g_profile, &cgs_union);
        if cgs_c <= pair_c {
            return false;
        }

        // Merge the parent's lightest unit with each CGS GIF's lightest.
        removals.push((g, g_unit));
        let mut merged = (*self.pool.units[&g_unit]).clone();
        for &d in cgs.iter() {
            let uk = self.pool.lightest(d);
            merged = merged.merge(&self.pool.units[&uk]);
            removals.push((d, uk));
        }
        let mut removed = std::mem::take(&mut self.removed_buf);
        removed.clear();
        removed.extend(removals.iter().map(|(_, uk)| *uk));
        removed.sort_unstable();
        let ok = self.test_and_record(&removed, &merged);
        self.removed_buf = removed;
        if !ok {
            return false;
        }
        self.commit(removals.drain(..), merged);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BrokerSpec, LinearFn, SubscriptionEntry};
    use greenps_profile::{PublisherProfile, ShiftingBitVector};
    use greenps_pubsub::ids::{AdvId, BrokerId, MsgId, SubId};
    use greenps_pubsub::Filter;

    fn never() -> CancelToken {
        CancelToken::never()
    }

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

    fn entry(id: u64, ids: &[u64]) -> SubscriptionEntry {
        let mut v = ShiftingBitVector::starting_at(100, 0);
        for &x in ids {
            v.record(x);
        }
        let mut p = SubscriptionProfile::with_capacity(100);
        p.insert_vector(AdvId::new(1), v);
        SubscriptionEntry::new(SubId::new(id), Filter::new(), p)
    }

    fn brokers(n: u64, bw: f64) -> Vec<BrokerSpec> {
        (0..n)
            .map(|i| {
                BrokerSpec::new(
                    BrokerId::new(i),
                    format!("b{i}"),
                    LinearFn::new(0.0001, 0.0),
                    bw,
                )
            })
            .collect()
    }

    fn run(input: &AllocationInput, metric: ClosenessMetric) -> (Allocation, CramStats) {
        CramBuilder::new(metric).run(input).unwrap()
    }

    /// 12 identical subscriptions cluster down to a handful of brokers.
    #[test]
    fn equal_subscriptions_collapse() {
        let subs: Vec<SubscriptionEntry> = (0..12)
            .map(|i| entry(i, &(0..20).collect::<Vec<_>>()))
            .collect();
        // Each sub needs 20 kB/s; brokers hold 100 kB/s → ≥3 brokers
        // minimum (12×20/100 = 2.4 → but strict inequality → 3).
        let input = AllocationInput {
            brokers: brokers(12, 100_000.0),
            subscriptions: subs,
            publishers: publishers(),
        };
        let baseline = crate::sorting::bin_packing(&input).unwrap().broker_count();
        for metric in ClosenessMetric::ALL {
            let (alloc, stats) = run(&input, metric);
            assert_eq!(alloc.sub_count(), 12, "{metric}");
            assert!(
                alloc.broker_count() <= baseline,
                "{metric}: {} vs baseline {}",
                alloc.broker_count(),
                baseline
            );
            assert_eq!(stats.initial_gifs, 1, "{metric}: all profiles equal");
            assert!(stats.merges > 0, "{metric}");
        }
    }

    /// Two disjoint interest groups: clustering stays within groups.
    #[test]
    fn disjoint_groups_cluster_independently() {
        let mut subs = Vec::new();
        for i in 0..6 {
            subs.push(entry(i, &(0..10).collect::<Vec<_>>()));
        }
        for i in 6..12 {
            subs.push(entry(i, &(50..60).collect::<Vec<_>>()));
        }
        let input = AllocationInput {
            brokers: brokers(12, 80_000.0),
            subscriptions: subs,
            publishers: publishers(),
        };
        let (alloc, _) = run(&input, ClosenessMetric::Ios);
        assert_eq!(alloc.sub_count(), 12);
        // Each group needs 60 kB/s total → one broker per group.
        assert_eq!(alloc.broker_count(), 2);
        // No broker mixes the two interest groups (input rate 10 msg/s
        // each — mixing would read 20).
        for load in &alloc.loads {
            assert!(load.in_rate < 10.5, "groups were mixed: {}", load.in_rate);
        }
    }

    /// CRAM with overlapping subscriptions beats BIN PACKING on message
    /// rate (input union) even when broker counts tie.
    #[test]
    fn clustering_reduces_total_input_rate() {
        let mut subs = Vec::new();
        // 4 interest groups of 5 subs each, pairwise disjoint.
        for group in 0..4u64 {
            for i in 0..5u64 {
                let base = group * 25;
                let ids: Vec<u64> = (base..base + 20).collect();
                subs.push(entry(group * 5 + i, &ids));
            }
        }
        let input = AllocationInput {
            brokers: brokers(10, 220_000.0),
            subscriptions: subs,
            publishers: publishers(),
        };
        let bp = crate::sorting::bin_packing(&input).unwrap();
        let (cr, _) = run(&input, ClosenessMetric::Iou);
        let total_in = |a: &Allocation| a.loads.iter().map(|l| l.in_rate).sum::<f64>();
        assert!(
            total_in(&cr) <= total_in(&bp) + 1e-9,
            "cram {} vs bp {}",
            total_in(&cr),
            total_in(&bp)
        );
        assert!(cr.broker_count() <= bp.broker_count());
    }

    #[test]
    fn infeasible_baseline_errors() {
        let input = AllocationInput {
            brokers: brokers(1, 1_000.0),
            subscriptions: vec![entry(0, &(0..50).collect::<Vec<_>>())],
            publishers: publishers(),
        };
        assert!(CramBuilder::from_config(CramConfig::default())
            .run(&input)
            .is_err());
    }

    #[test]
    fn empty_subscription_pool_is_fine() {
        let input = AllocationInput {
            brokers: brokers(3, 1e6),
            subscriptions: vec![],
            publishers: publishers(),
        };
        let (alloc, stats) = CramBuilder::new(ClosenessMetric::Ios).run(&input).unwrap();
        assert_eq!(alloc.broker_count(), 0);
        assert_eq!(stats.initial_gifs, 0);
    }

    #[test]
    fn gif_grouping_reduces_pool() {
        // 30 subscriptions, only 3 distinct profiles.
        let subs: Vec<SubscriptionEntry> = (0..30)
            .map(|i| {
                let group = i % 3;
                let ids: Vec<u64> = (group * 30..group * 30 + 10).collect();
                entry(i, &ids)
            })
            .collect();
        let input = AllocationInput {
            brokers: brokers(30, 60_000.0),
            subscriptions: subs,
            publishers: publishers(),
        };
        let (_, stats) = run(&input, ClosenessMetric::Intersect);
        assert_eq!(stats.initial_gifs, 3);
        assert_eq!(stats.subscriptions, 30);
    }

    #[test]
    fn pruning_reduces_closeness_computations() {
        // Many small disjoint groups: pruned search skips empty
        // subtrees, the unpruned one computes closeness with everyone.
        let subs: Vec<SubscriptionEntry> = (0..40)
            .map(|i| {
                let group = i % 8;
                let ids: Vec<u64> = (group * 12..group * 12 + 6 + (i % 3)).collect();
                entry(i, &ids)
            })
            .collect();
        let input = AllocationInput {
            brokers: brokers(40, 400_000.0),
            subscriptions: subs,
            publishers: publishers(),
        };
        let (_, pruned) = CramBuilder::new(ClosenessMetric::Ios).run(&input).unwrap();
        let (_, full) = CramBuilder::new(ClosenessMetric::Ios)
            .poset_pruning(false)
            .run(&input)
            .unwrap();
        assert!(
            pruned.closeness_computations < full.closeness_computations,
            "pruned {} vs full {}",
            pruned.closeness_computations,
            full.closeness_computations
        );
    }

    #[test]
    fn allocations_always_satisfy_capacity() {
        let subs: Vec<SubscriptionEntry> = (0..25)
            .map(|i| {
                let ids: Vec<u64> = (i..i + 15).map(|x| (x * 3) % 100).collect();
                entry(i, &ids)
            })
            .collect();
        let input = AllocationInput {
            brokers: brokers(8, 150_000.0),
            subscriptions: subs,
            publishers: publishers(),
        };
        for metric in ClosenessMetric::ALL {
            let (alloc, _) = run(&input, metric);
            assert_eq!(alloc.sub_count(), 25, "{metric}");
            for load in &alloc.loads {
                let spec = input.brokers.iter().find(|b| b.id == load.broker).unwrap();
                assert!(load.out_bw_used < spec.out_bandwidth, "{metric}");
                assert!(
                    load.in_rate <= spec.matching_delay.max_rate(load.sub_count()) + 1e-9,
                    "{metric}"
                );
            }
        }
    }

    #[test]
    fn custom_closeness_measure_plugs_in() {
        // A measure that only values exact-equality clustering: CRAM
        // still terminates and produces a feasible allocation.
        struct EqualOnly;
        impl greenps_profile::Closeness for EqualOnly {
            fn closeness(&self, a: &SubscriptionProfile, b: &SubscriptionProfile) -> f64 {
                if a == b {
                    1.0
                } else {
                    0.0
                }
            }
            fn supports_empty_pruning(&self) -> bool {
                true
            }
        }
        let subs: Vec<SubscriptionEntry> = (0..10)
            .map(|i| entry(i, &((i % 2) * 30..(i % 2) * 30 + 10).collect::<Vec<_>>()))
            .collect();
        let input = AllocationInput {
            brokers: brokers(10, 100_000.0),
            subscriptions: subs,
            publishers: publishers(),
        };
        let units = crate::sorting::units_from_input(&input);
        let (alloc, stats) = CramBuilder::custom(&EqualOnly)
            .run_units(&input, units)
            .unwrap();
        assert_eq!(alloc.sub_count(), 10);
        assert!(stats.merges > 0, "equal groups merged");
        // Only equal-profile merges happened: every unit's members share
        // one profile → per-broker input rate stays at one group's rate.
        for load in &alloc.loads {
            assert!(load.in_rate <= 20.0 + 1e-9);
        }
    }

    #[test]
    fn blacklisted_pairs_are_not_retried() {
        // Two heavy intersecting groups whose merge cannot fit any
        // broker: CRAM must terminate (blacklist) rather than loop.
        let mut subs = Vec::new();
        for i in 0..4 {
            subs.push(entry(i, &(0..60).collect::<Vec<_>>()));
        }
        for i in 4..8 {
            subs.push(entry(i, &(40..100).collect::<Vec<_>>()));
        }
        // Each sub needs 60 kB/s; brokers hold 130 kB/s → max two subs
        // per broker; a 3-sub cluster (180) can never fit.
        let input = AllocationInput {
            brokers: brokers(8, 130_000.0),
            subscriptions: subs,
            publishers: publishers(),
        };
        let (alloc, stats) = CramBuilder::new(ClosenessMetric::Intersect)
            .run(&input)
            .unwrap();
        assert_eq!(alloc.sub_count(), 8);
        assert!(stats.failed_merges > 0, "some merges must fail: {stats:?}");
        assert!(stats.iterations < 1000, "terminates promptly");
    }

    #[test]
    fn one_to_many_prefers_covered_sets() {
        // A broad GIF covering several narrow ones plus an intersecting
        // sibling — the Figure 3 scenario. With one-to-many enabled, at
        // least one CGS merge should fire.
        let mut subs = Vec::new();
        subs.push(entry(0, &(0..36).collect::<Vec<_>>())); // S1 broad
        subs.push(entry(1, &(28..52).collect::<Vec<_>>())); // S2 intersecting
                                                            // covered 4-bit blocks of S1
        for (i, base) in [0u64, 8, 16].iter().enumerate() {
            subs.push(entry(2 + i as u64, &(*base..base + 4).collect::<Vec<_>>()));
        }
        // covered 1-bit subs of S2
        for i in 0..4u64 {
            subs.push(entry(5 + i, &[40 + i]));
        }
        let input = AllocationInput {
            brokers: brokers(9, 150_000.0),
            subscriptions: subs,
            publishers: publishers(),
        };
        let (_, with) = CramBuilder::new(ClosenessMetric::Ios).run(&input).unwrap();
        assert!(with.one_to_many_merges > 0, "stats: {with:?}");
    }

    /// Builds a ready-to-run [`Engine`] the way `run_units` does, for
    /// tests that need to poke at engine internals.
    fn engine_for<'a>(
        input: &'a AllocationInput,
        metric: &'a dyn greenps_profile::Closeness,
    ) -> Engine<'a> {
        let units = crate::sorting::units_from_input(input);
        let baseline =
            bin_packing_units(&input.brokers, &input.publishers, units.clone(), &never()).unwrap();
        let pool = Pool::build(units, EnginePath::Reference, &never()).unwrap();
        let mut engine = Engine {
            pool,
            cancel: never(),
            measure: MeasureRef::Custom(metric),
            one_to_many: true,
            poset_pruning: true,
            threads: 1,
            publishers: &input.publishers,
            brokers: &input.brokers,
            partners: BTreeMap::new(),
            stale: BTreeSet::new(),
            blacklist: BTreeSet::new(),
            cache: PairCache::default(),
            stats: CramStats::default(),
            best: BestAlloc::Full(baseline),
            pack: PackPath::Reference,
            tile_checks: 0,
            tile_pruned: 0,
            scan_timer: Histogram::noop(),
            pack_timer: Histogram::noop(),
            events: EventSink::noop(),
            scan_scratch: ScanScratch::default(),
            removed_buf: Vec::new(),
            cgs_scratch: CgsScratch::default(),
        };
        engine.stale.extend(engine.pool.gifs.keys().copied());
        engine
    }

    /// A token tripped before the run aborts in the baseline packing,
    /// before any engine work starts.
    #[test]
    fn pre_cancelled_token_aborts_the_run() {
        let input = AllocationInput {
            brokers: brokers(4, 100_000.0),
            subscriptions: (0..8).map(|i| entry(i, &[i, i + 1])).collect(),
            publishers: publishers(),
        };
        let token = CancelToken::new();
        token.cancel();
        let err = CramBuilder::new(ClosenessMetric::Ios)
            .cancel_token(&token)
            .run(&input)
            .unwrap_err();
        assert_eq!(err.to_string(), AllocError::Cancelled.to_string());
    }

    /// The merge loop itself polls the token: a cancellation tripped
    /// after engine construction stops the iteration at the next
    /// loop-top poll instead of running to convergence.
    #[test]
    fn merge_loop_polls_the_cancel_token() {
        let input = AllocationInput {
            brokers: brokers(4, 100_000.0),
            subscriptions: vec![
                entry(0, &(0..10).collect::<Vec<_>>()),
                entry(1, &(5..15).collect::<Vec<_>>()),
            ],
            publishers: publishers(),
        };
        let metric = ClosenessMetric::Ios;
        let mut engine = engine_for(&input, &metric);
        engine.cancel.cancel();
        assert!(!engine.run(), "tripped token stops the merge loop");
        assert_eq!(engine.stats.merges, 0, "no merge ran after the trip");
    }

    /// Merging a GIF away must drop every cached closeness touching it
    /// — a stale entry served later would reflect the pre-merge
    /// profile.
    #[test]
    fn cache_invalidated_for_merged_gifs() {
        // Two intersecting singleton GIFs; merging them deletes both.
        let input = AllocationInput {
            brokers: brokers(4, 100_000.0),
            subscriptions: vec![
                entry(0, &(0..10).collect::<Vec<_>>()),
                entry(1, &(5..15).collect::<Vec<_>>()),
            ],
            publishers: publishers(),
        };
        let metric = ClosenessMetric::Ios;
        let mut engine = engine_for(&input, &metric);
        engine.refresh_partners();
        let (g, h, _) = engine.global_best().unwrap();
        assert!(g != h);
        assert!(
            engine.cache.get(g, h).is_some(),
            "refresh populated the pair cache"
        );
        assert!(engine.attempt(g, h), "merge must succeed");
        // The attempt consulted the pair cache populated by the refresh:
        // a non-zero hit rate is what makes the memo table worth having.
        let cache_stats = engine.cache.stats();
        assert!(cache_stats.hits > 0, "stats: {cache_stats:?}");
        assert!(cache_stats.hit_rate() > 0.0);
        // Both source GIFs were merged away: nothing cached may touch
        // them any more, in either key order.
        assert!(!engine.cache.touches(g));
        assert!(!engine.cache.touches(h));
        assert_eq!(engine.cache.get(g, h), None);
        assert_eq!(engine.cache.get(h, g), None);
    }

    /// A GIF that survives a merge (loses a unit but keeps its profile)
    /// must keep its cache entries — only merged-away GIFs invalidate.
    #[test]
    fn cache_kept_for_surviving_gifs() {
        // GIF A holds two equal units; GIF B intersects A. Pairwise-
        // merging A and B consumes one of A's units, so A survives.
        let wide: Vec<u64> = (0..10).collect();
        let input = AllocationInput {
            brokers: brokers(5, 100_000.0),
            subscriptions: vec![
                entry(0, &wide),
                entry(1, &wide),
                entry(2, &(5..15).collect::<Vec<_>>()),
            ],
            publishers: publishers(),
        };
        let metric = ClosenessMetric::Ios;
        let mut engine = engine_for(&input, &metric);
        engine.refresh_partners();
        let a = engine
            .pool
            .by_profile
            .values()
            .copied()
            .find(|gk| engine.pool.gifs[gk].units.len() == 2)
            .unwrap();
        let b = engine.pool.gifs.keys().copied().find(|&k| k != a).unwrap();
        assert!(engine.cache.get(a, b).is_some());
        assert!(engine.attempt_pairwise(a, b), "pairwise merge succeeds");
        assert!(
            engine.pool.gifs.contains_key(&a),
            "A keeps its second unit and survives"
        );
        // B was merged away; A survived with an unchanged profile.
        assert!(!engine.cache.touches(b));
        assert!(
            engine.cache.touches(a),
            "surviving GIF keeps cached closenesses to live partners"
        );
        assert_eq!(engine.cache.get(a, b), None);
        assert!(
            engine.cache.stats().hits > 0,
            "the merge path re-read cached closenesses"
        );
    }

    /// The parallel search must return exactly the sequential result —
    /// allocation and stats — for every thread count.
    #[test]
    fn parallel_threads_match_sequential() {
        let subs: Vec<SubscriptionEntry> = (0..30)
            .map(|i| {
                let ids: Vec<u64> = (i..i + 12).map(|x| (x * 7) % 90).collect();
                entry(i, &ids)
            })
            .collect();
        let input = AllocationInput {
            brokers: brokers(10, 200_000.0),
            subscriptions: subs,
            publishers: publishers(),
        };
        for metric in ClosenessMetric::ALL {
            let (seq_alloc, seq_stats) = CramBuilder::new(metric).run(&input).unwrap();
            for threads in [2usize, 4, 8] {
                let (par_alloc, par_stats) = CramBuilder::new(metric)
                    .threads(threads)
                    .run(&input)
                    .unwrap();
                assert_eq!(par_alloc.loads, seq_alloc.loads, "{metric} t={threads}");
                assert_eq!(par_stats, seq_stats, "{metric} t={threads}");
            }
        }
    }

    /// Production CRAM with tiles of `tile` GIF keys (`0` disables
    /// tiling) — the width the public entry points fix at
    /// [`DEFAULT_TILE`].
    fn run_tiled(
        input: &AllocationInput,
        metric: ClosenessMetric,
        tile: usize,
    ) -> (Allocation, CramStats) {
        let units = crate::sorting::units_from_input(input);
        CramBuilder::new(metric)
            .execute(input, units, EnginePath::Production { tile })
            .unwrap()
    }

    /// At every tile width, production reproduces the oracle's
    /// allocation bit for bit, and every stat except
    /// `closeness_computations` (which tiling may lower, never raise);
    /// untiled, the stats match outright.
    #[test]
    fn production_matches_the_reference_at_every_tile_width() {
        let subs: Vec<SubscriptionEntry> = (0..30)
            .map(|i| {
                let group = i % 6;
                let ids: Vec<u64> = (group * 15..group * 15 + 8 + (i % 4)).collect();
                entry(i, &ids)
            })
            .collect();
        let input = AllocationInput {
            brokers: brokers(30, 300_000.0),
            subscriptions: subs,
            publishers: publishers(),
        };
        for metric in ClosenessMetric::ALL {
            let (ref_alloc, ref_stats) = CramBuilder::new(metric).run_reference(&input).unwrap();
            for tile in [0usize, 2, 3, DEFAULT_TILE] {
                let (alloc, stats) = run_tiled(&input, metric, tile);
                assert_eq!(alloc.loads, ref_alloc.loads, "{metric} tile={tile}");
                assert!(
                    stats.closeness_computations <= ref_stats.closeness_computations,
                    "{metric} tile={tile}: {} > {}",
                    stats.closeness_computations,
                    ref_stats.closeness_computations
                );
                let mut normalized = stats;
                if tile > 0 {
                    normalized.closeness_computations = ref_stats.closeness_computations;
                }
                assert_eq!(normalized, ref_stats, "{metric} tile={tile}");
            }
        }
    }

    /// Every tile summary must be a superset of each member profile —
    /// the invariant that makes whole-tile rejection sound — even when
    /// member windows start at different ids (the widening case).
    #[test]
    fn tile_summaries_cover_members() {
        let subs: Vec<SubscriptionEntry> = (0..24)
            .map(|i| {
                let group = i % 8;
                // Shifted, partially-overlapping windows per group.
                let ids: Vec<u64> = (group * 11..group * 11 + 6 + (i % 3)).collect();
                entry(i, &ids)
            })
            .collect();
        let input = AllocationInput {
            brokers: brokers(24, 300_000.0),
            subscriptions: subs,
            publishers: publishers(),
        };
        let units = crate::sorting::units_from_input(&input);
        let mut pool = Pool::build(units, EnginePath::Production { tile: 3 }, &never()).unwrap();
        pool.tiles.rebuild(&pool.gifs);
        assert!(pool.gifs.len() > 3, "need several buckets");
        for (gk, gif) in &pool.gifs {
            let b = pool.tiles.bucket_of(*gk);
            let summary = pool.tiles.summary(b).expect("bucket exists for member");
            assert_eq!(
                gif.profile.intersect_count(summary),
                gif.profile.count_ones(),
                "summary must cover every bit of member {gk:?}"
            );
        }
    }

    /// With many mutually disjoint groups, whole-tile rejection skips
    /// member evaluations the untiled engine pays for — fewer
    /// closeness computations, identical allocation.
    #[test]
    fn tile_pruning_reduces_closeness_computations() {
        let subs: Vec<SubscriptionEntry> = (0..48)
            .map(|i| {
                let group = i % 12;
                let ids: Vec<u64> = (group * 8..group * 8 + 5 + (i % 3)).collect();
                entry(i, &ids)
            })
            .collect();
        let input = AllocationInput {
            brokers: brokers(48, 60_000.0),
            subscriptions: subs,
            publishers: publishers(),
        };
        let (tiled_alloc, tiled) = run_tiled(&input, ClosenessMetric::Ios, 2);
        let (flat_alloc, flat) = run_tiled(&input, ClosenessMetric::Ios, 0);
        assert_eq!(tiled_alloc.loads, flat_alloc.loads);
        assert!(
            tiled.closeness_computations < flat.closeness_computations,
            "tiled {} vs flat {}",
            tiled.closeness_computations,
            flat.closeness_computations
        );
    }
}
