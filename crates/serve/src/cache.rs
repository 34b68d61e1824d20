//! Bounded seed-level logit cache with in-flight coalescing.
//!
//! Zipf-skewed serving traffic concentrates on a small hot seed set, yet
//! without a cache every repeat of a hot seed pays a full or partial
//! forward. [`LogitCache`] stores finished logit **rows** keyed by
//! [`CacheKey`] — `(SnapshotGeneration, GraphVersion, seed)` — so a row
//! is only ever reused for the exact weight set and graph operand that
//! computed it; hot-swapping a snapshot or rebuilding the context mints
//! new identities and the stale rows age out via eviction instead of
//! being served.
//!
//! # Eviction
//!
//! The store is bounded to `capacity` rows and evicts with the **CLOCK**
//! algorithm (second-chance): every probe or fill sets the row's
//! reference bit; the clock hand sweeps the slots, clearing bits until it
//! finds an unreferenced victim. CLOCK approximates LRU with O(1)
//! amortized bookkeeping per access and no per-access list splicing —
//! every batch probes many seeds under one lock, so the cheap touch
//! matters more than exact recency.
//!
//! # In-flight coalescing
//!
//! Concurrent batches frequently want the same hot seed that nobody has
//! finished computing yet. [`LogitCache::claim`] arbitrates: the first
//! claimant of a missing seed becomes its **leader** (the seed joins the
//! leader's [`LeadClaim`] and its forward union); later claimants become
//! **followers**, parked on a [`FollowHandle`] that resolves when the
//! leader fills — they never re-enter the planner for that seed. A
//! leader that dies before filling (worker panic) aborts its slots on
//! drop, so followers wake with `None` and recompute instead of hanging.
//!
//! # Counter discipline
//!
//! The snapshot counters are an exact account, not a heuristic:
//! per *seed instance* that gets answered, exactly one of
//! `hits`/`misses`/`coalesced` is incremented — `hits` at probe time or
//! when [`LogitCache::claim`] finds the row resident, `misses` once per
//! leader-computed seed, `coalesced` for every instance that shared a
//! leader's computation (including the leader's own duplicate
//! instances). The serving stack asserts
//! `hits + misses + coalesced == answered seed instances` in its books.

use maxk_nn::{GraphVersion, SnapshotGeneration};
use maxk_tensor::Matrix;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Identity of one cached logit row: which weights, which graph operand,
/// which seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The weight set that computed the row.
    pub generation: SnapshotGeneration,
    /// The normalized graph operand the row was computed over.
    pub graph_version: GraphVersion,
    /// The seed (global node id) the row belongs to.
    pub seed: u32,
}

/// Configuration of a [`LogitCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum resident logit rows (CLOCK evicts beyond this). Must be
    /// nonzero.
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { capacity: 4096 }
    }
}

/// Point-in-time counters of a [`LogitCache`].
///
/// `hits + misses + coalesced` equals the number of answered seed
/// instances that consulted the cache (see the
/// [module docs](self#counter-discipline)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheSnapshot {
    /// Seed instances answered from a resident row.
    pub hits: u64,
    /// Seeds computed by a leader (one per unique missing seed).
    pub misses: u64,
    /// Seed instances that shared a leader's in-flight computation.
    pub coalesced: u64,
    /// Rows evicted by the CLOCK hand.
    pub evictions: u64,
    /// Rows removed by targeted invalidation
    /// ([`LogitCache::invalidate_seeds`]) — the dirty-cone path of
    /// streaming graph mutations.
    pub invalidated: u64,
    /// Rows currently resident.
    pub resident_rows: u64,
    /// Payload bytes of the resident rows (`f32` data only, excluding
    /// map/slot overhead).
    pub resident_bytes: u64,
    /// Configured row capacity.
    pub capacity: u64,
}

impl CacheSnapshot {
    /// Fraction of cache-consulting seed instances answered without
    /// waiting: `hits / (hits + misses + coalesced)` (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.coalesced;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// State of one in-flight seed computation.
#[derive(Debug)]
enum InflightState {
    /// The leader is still computing.
    Pending,
    /// The leader filled the row.
    Done(Arc<[f32]>),
    /// The leader dropped without filling; followers must recompute.
    Aborted,
}

/// One in-flight seed: followers block on `cv` until the leader resolves
/// `state`.
#[derive(Debug)]
struct Inflight {
    state: Mutex<InflightState>,
    cv: Condvar,
    /// Poisoned by [`LogitCache::invalidate_seeds`]: the leader computed
    /// (or is computing) against a graph state that has since mutated, so
    /// its fill must not become resident. Followers still receive the row
    /// — their answers carry the epoch the row was computed against.
    invalidated: AtomicBool,
}

impl Inflight {
    fn new() -> Arc<Self> {
        Arc::new(Inflight {
            state: Mutex::new(InflightState::Pending),
            cv: Condvar::new(),
            invalidated: AtomicBool::new(false),
        })
    }

    fn resolve(&self, state: InflightState) {
        *self.state.lock().expect("inflight lock poisoned") = state;
        self.cv.notify_all();
    }
}

/// One resident row.
#[derive(Debug)]
struct Slot {
    key: CacheKey,
    row: Arc<[f32]>,
    /// CLOCK reference bit; set on probe and fill, cleared by the hand.
    referenced: bool,
}

/// The locked interior: resident store, CLOCK state, in-flight table and
/// counters. Lock order is store-then-inflight; [`FollowHandle::wait`]
/// only ever takes the inflight lock, so no cycle exists.
#[derive(Debug)]
struct Store {
    map: HashMap<CacheKey, usize>,
    slots: Vec<Slot>,
    hand: usize,
    inflight: HashMap<CacheKey, Arc<Inflight>>,
    hits: u64,
    misses: u64,
    coalesced: u64,
    evictions: u64,
    invalidated: u64,
    resident_bytes: u64,
}

impl Store {
    /// Removes one resident row, keeping the slot vector dense: the last
    /// slot backfills the vacated index (with its map entry re-pointed)
    /// and the CLOCK hand is clamped back into range. With fewer slots
    /// than capacity, subsequent inserts take the append path, so the
    /// sweep invariants hold unchanged.
    fn remove_key(&mut self, key: &CacheKey) -> bool {
        let Some(i) = self.map.remove(key) else {
            return false;
        };
        self.resident_bytes -= (self.slots[i].row.len() * std::mem::size_of::<f32>()) as u64;
        self.slots.swap_remove(i);
        if let Some(moved) = self.slots.get(i) {
            self.map.insert(moved.key, i);
        }
        if self.hand >= self.slots.len() {
            self.hand = 0;
        }
        true
    }

    /// Inserts (or refreshes) a resident row, evicting via CLOCK at
    /// capacity.
    fn insert(&mut self, capacity: usize, key: CacheKey, row: Arc<[f32]>) {
        let bytes = (row.len() * std::mem::size_of::<f32>()) as u64;
        if let Some(&i) = self.map.get(&key) {
            let slot = &mut self.slots[i];
            self.resident_bytes -= (slot.row.len() * std::mem::size_of::<f32>()) as u64;
            self.resident_bytes += bytes;
            slot.row = row;
            slot.referenced = true;
            return;
        }
        if self.slots.len() < capacity {
            self.map.insert(key, self.slots.len());
            // New rows start unreferenced: only a subsequent probe (or
            // refresh) earns the second chance, so one-shot rows are the
            // first to go while repeatedly-probed rows survive sweeps.
            self.slots.push(Slot {
                key,
                row,
                referenced: false,
            });
            self.resident_bytes += bytes;
            return;
        }
        // CLOCK sweep: clear reference bits until an unreferenced victim
        // turns up. Terminates within two revolutions because cleared
        // bits stay cleared under this lock.
        loop {
            let slot = &mut self.slots[self.hand];
            if slot.referenced {
                slot.referenced = false;
                self.hand = (self.hand + 1) % capacity;
            } else {
                break;
            }
        }
        let victim = &mut self.slots[self.hand];
        self.map.remove(&victim.key);
        self.resident_bytes -= (victim.row.len() * std::mem::size_of::<f32>()) as u64;
        self.evictions += 1;
        self.map.insert(key, self.hand);
        *victim = Slot {
            key,
            row,
            referenced: false,
        };
        self.resident_bytes += bytes;
        self.hand = (self.hand + 1) % capacity;
    }
}

/// A bounded, thread-safe seed-level logit cache with CLOCK eviction and
/// in-flight coalescing. See the [module docs](self) for the protocol.
#[derive(Debug)]
pub struct LogitCache {
    cfg: CacheConfig,
    store: Mutex<Store>,
}

impl LogitCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.capacity` is zero — a zero-row cache cannot hold
    /// a leader's fill, which would silently disable coalescing; disable
    /// caching by not attaching one instead.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.capacity > 0, "cache capacity must be nonzero");
        LogitCache {
            cfg,
            store: Mutex::new(Store {
                map: HashMap::new(),
                slots: Vec::new(),
                hand: 0,
                inflight: HashMap::new(),
                hits: 0,
                misses: 0,
                coalesced: 0,
                evictions: 0,
                invalidated: 0,
                resident_bytes: 0,
            }),
        }
    }

    /// The configured capacity.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Non-blocking lookup of one seed's row; counts a hit when resident.
    ///
    /// Only call for seed instances that will definitely be answered —
    /// every probe hit is a counted, answered instance. In-flight seeds
    /// miss here (the instance coalesces at [`LogitCache::claim`]
    /// instead).
    pub fn probe(
        &self,
        generation: SnapshotGeneration,
        graph_version: GraphVersion,
        seed: u32,
    ) -> Option<Arc<[f32]>> {
        let key = CacheKey {
            generation,
            graph_version,
            seed,
        };
        let mut store = self.lock();
        if let Some(&i) = store.map.get(&key) {
            store.hits += 1;
            let slot = &mut store.slots[i];
            slot.referenced = true;
            return Some(Arc::clone(&slot.row));
        }
        None
    }

    /// Arbitrates a batch's missing seeds into hits, a leader set and
    /// follower handles.
    ///
    /// `missing` lists `(seed, occurrences)` pairs — each unique seed the
    /// caller's probe missed, with how many answered instances in the
    /// batch want it. Per seed, exactly one of three things happens:
    ///
    /// * **resident** (filled since the probe): all instances are late
    ///   hits — the row is returned in [`Claim::hits`];
    /// * **in-flight**: all instances coalesce onto the existing leader —
    ///   a [`FollowHandle`] is returned in [`Claim::follows`];
    /// * **absent**: the caller becomes the leader — the seed joins
    ///   [`Claim::lead`], whose union the caller must compute and
    ///   [`LeadClaim::fill`].
    ///
    /// Counters move accordingly (`occ` hits, `occ` coalesced, or 1 miss
    /// + `occ − 1` coalesced), keeping the per-instance account exact.
    pub fn claim(
        self: &Arc<Self>,
        generation: SnapshotGeneration,
        graph_version: GraphVersion,
        missing: &[(u32, u32)],
    ) -> Claim {
        let mut hits = Vec::new();
        let mut lead_entries = Vec::new();
        let mut follows = Vec::new();
        let mut store = self.lock();
        for &(seed, occ) in missing {
            debug_assert!(occ > 0, "claimed seed with zero instances");
            let key = CacheKey {
                generation,
                graph_version,
                seed,
            };
            if let Some(&i) = store.map.get(&key) {
                store.hits += u64::from(occ);
                let slot = &mut store.slots[i];
                slot.referenced = true;
                hits.push((seed, Arc::clone(&slot.row)));
            } else if let Some(inflight) = store.inflight.get(&key).map(Arc::clone) {
                store.coalesced += u64::from(occ);
                follows.push((seed, FollowHandle { inflight }));
            } else {
                store.misses += 1;
                store.coalesced += u64::from(occ) - 1;
                let inflight = Inflight::new();
                store.inflight.insert(key, Arc::clone(&inflight));
                lead_entries.push((seed, inflight));
            }
        }
        drop(store);
        Claim {
            hits,
            lead: LeadClaim {
                cache: Arc::clone(self),
                generation,
                graph_version,
                entries: lead_entries,
            },
            follows,
        }
    }

    /// Inserts finished rows without touching counters or the in-flight
    /// table — a **warm-up hook only**. `rows.row(i)` is stored for
    /// `seeds[i]`.
    ///
    /// Because nothing is registered in flight, a mutation's
    /// [`LogitCache::invalidate_seeds`] racing the caller's computation
    /// has nothing to poison, and the stale rows would land after it.
    /// Serving paths that compute rows outside [`LogitCache::claim`]
    /// (the server's aborted-leader fallback) must register with
    /// [`LogitCache::lead_uncounted`] *before* computing and publish via
    /// [`LeadClaim::fill_from`] instead. Live seeds under another
    /// in-flight leader are skipped rather than clobbered.
    ///
    /// # Panics
    ///
    /// Panics when `rows` has fewer rows than `seeds`.
    pub fn fill_rows(
        &self,
        generation: SnapshotGeneration,
        graph_version: GraphVersion,
        seeds: &[u32],
        rows: &Matrix,
    ) {
        assert!(rows.rows() >= seeds.len(), "fewer rows than seeds");
        let mut store = self.lock();
        for (i, &seed) in seeds.iter().enumerate() {
            let key = CacheKey {
                generation,
                graph_version,
                seed,
            };
            if store.inflight.contains_key(&key) {
                // An in-flight leader owns this seed; warm-up must not
                // race its (possibly already-poisoned) fill.
                continue;
            }
            store.insert(self.cfg.capacity, key, Arc::from(rows.row(i)));
        }
    }

    /// Registers **uncounted** leadership over `seeds` for callers that
    /// compute rows through their own forward path but still need the
    /// dynamic invalidation protocol to see the computation in flight.
    /// No hit/miss/coalesced counters move — the caller already
    /// accounted its instances (as coalesced followers of the leader
    /// that aborted).
    ///
    /// Call **before** starting the computation, then publish through
    /// [`LeadClaim::fill_from`]: a mutation's
    /// [`LogitCache::invalidate_seeds`] poisons the registered slots
    /// mid-computation, and the fill then skips the stale rows instead
    /// of landing pre-mutation bits — the race the raw
    /// [`LogitCache::fill_rows`] hook cannot close.
    ///
    /// Seeds already resident are re-led (under one `(generation,
    /// graph_version)` identity a recomputation is bitwise-identical,
    /// so the refresh is harmless); seeds already led by another
    /// in-flight claim are skipped (that leader owns the slot) and do
    /// not appear in [`LeadClaim::seeds`] — which is why the caller's
    /// computed rows can outnumber the led ones.
    pub fn lead_uncounted(
        self: &Arc<Self>,
        generation: SnapshotGeneration,
        graph_version: GraphVersion,
        seeds: &[u32],
    ) -> LeadClaim {
        let mut entries = Vec::with_capacity(seeds.len());
        let mut store = self.lock();
        for &seed in seeds {
            let key = CacheKey {
                generation,
                graph_version,
                seed,
            };
            if store.inflight.contains_key(&key) {
                continue;
            }
            let inflight = Inflight::new();
            store.inflight.insert(key, Arc::clone(&inflight));
            entries.push((seed, inflight));
        }
        drop(store);
        LeadClaim {
            cache: Arc::clone(self),
            generation,
            graph_version,
            entries,
        }
    }

    /// Drops the resident rows of `seeds` under `(generation,
    /// graph_version)` and poisons any matching in-flight computations,
    /// returning how many resident rows were removed. This is the
    /// **dirty-cone** invalidation path of streaming mutations: rows
    /// whose reverse L-hop cone a mutation touched stop being served,
    /// while every other resident row keeps hitting.
    ///
    /// A poisoned in-flight entry is also unlinked from the table, so the
    /// next claimant of that seed leads a fresh computation instead of
    /// coalescing onto the stale one; when the stale leader eventually
    /// fills, its row wakes its already-parked followers but is not
    /// inserted into the resident store.
    pub fn invalidate_seeds(
        &self,
        generation: SnapshotGeneration,
        graph_version: GraphVersion,
        seeds: &[u32],
    ) -> u64 {
        let mut removed = 0u64;
        let mut store = self.lock();
        for &seed in seeds {
            let key = CacheKey {
                generation,
                graph_version,
                seed,
            };
            if store.remove_key(&key) {
                removed += 1;
            }
            if let Some(inflight) = store.inflight.remove(&key) {
                inflight.invalidated.store(true, Ordering::Release);
            }
        }
        store.invalidated += removed;
        removed
    }

    /// Point-in-time counters.
    pub fn snapshot(&self) -> CacheSnapshot {
        let store = self.lock();
        CacheSnapshot {
            hits: store.hits,
            misses: store.misses,
            coalesced: store.coalesced,
            evictions: store.evictions,
            invalidated: store.invalidated,
            resident_rows: store.slots.len() as u64,
            resident_bytes: store.resident_bytes,
            capacity: self.cfg.capacity as u64,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Store> {
        self.store.lock().expect("cache lock poisoned")
    }
}

/// Result of [`LogitCache::claim`]: late hits, the caller's leader set
/// and the handles to park on.
#[derive(Debug)]
pub struct Claim {
    /// Seeds that became resident between probe and claim, with their
    /// rows (already counted as hits).
    pub hits: Vec<(u32, Arc<[f32]>)>,
    /// The seeds this caller leads; compute their union and
    /// [`LeadClaim::fill`].
    pub lead: LeadClaim,
    /// Seeds led by another in-flight batch; [`FollowHandle::wait`]
    /// blocks until that leader resolves.
    pub follows: Vec<(u32, FollowHandle)>,
}

/// The set of seeds one claimant leads. Obtained via
/// [`LogitCache::claim`]; the owner must compute the seeds' logit rows
/// and [`LeadClaim::fill`]. Dropping without filling **aborts** the
/// slots: parked followers wake with `None` and recompute — they never
/// hang on a dead leader.
#[derive(Debug)]
pub struct LeadClaim {
    cache: Arc<LogitCache>,
    generation: SnapshotGeneration,
    graph_version: GraphVersion,
    entries: Vec<(u32, Arc<Inflight>)>,
}

impl LeadClaim {
    /// The led seeds, in claim order (the order [`LeadClaim::fill`]
    /// expects rows in).
    pub fn seeds(&self) -> Vec<u32> {
        self.entries.iter().map(|(s, _)| *s).collect()
    }

    /// True when this claim leads no seeds (everything was resident or
    /// already in flight).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Publishes the computed rows: inserts each into the resident store,
    /// wakes the followers with the row, and retires the in-flight slots.
    /// `rows.row(i)` belongs to `self.seeds()[i]`. Returns the
    /// `(seed, row)` pairs for the leader's own answer assembly.
    ///
    /// # Panics
    ///
    /// Panics when `rows` has fewer rows than led seeds.
    pub fn fill(self, rows: &Matrix) -> Vec<(u32, Arc<[f32]>)> {
        assert!(
            rows.rows() >= self.entries.len(),
            "fewer rows than led seeds"
        );
        self.publish(|i, _| rows.row(i))
    }

    /// [`LeadClaim::fill`] from a computation that covers **more** than
    /// this claim leads: `rows.row(i)` belongs to `computed[i]`
    /// (ascending), and only the still-led seeds' rows are published.
    /// The rest — seeds [`LogitCache::lead_uncounted`] skipped because
    /// another in-flight claim owns them — stay with their own leader.
    ///
    /// # Panics
    ///
    /// Panics when a led seed is not in `computed`.
    pub fn fill_from(self, computed: &[u32], rows: &Matrix) -> Vec<(u32, Arc<[f32]>)> {
        self.publish(|_, seed| {
            rows.row(
                computed
                    .binary_search(&seed)
                    .expect("led seed was computed"),
            )
        })
    }

    /// Publishes `row_of(position, seed)` for every led seed.
    fn publish<'r>(mut self, row_of: impl Fn(usize, u32) -> &'r [f32]) -> Vec<(u32, Arc<[f32]>)> {
        let entries = std::mem::take(&mut self.entries);
        let mut out = Vec::with_capacity(entries.len());
        let mut store = self.cache.lock();
        for (i, (seed, inflight)) in entries.into_iter().enumerate() {
            let key = CacheKey {
                generation: self.generation,
                graph_version: self.graph_version,
                seed,
            };
            let row: Arc<[f32]> = Arc::from(row_of(i, seed));
            // A poisoned slot was invalidated mid-computation: the row is
            // stale for the resident store, but followers (and the leader
            // itself) still answer with it under the epoch it was
            // computed against.
            if !inflight.invalidated.load(Ordering::Acquire) {
                store.insert(self.cache.cfg.capacity, key, Arc::clone(&row));
            }
            // Only unlink our own slot: invalidation may have already
            // replaced the table entry with a successor leader's.
            if store
                .inflight
                .get(&key)
                .is_some_and(|cur| Arc::ptr_eq(cur, &inflight))
            {
                store.inflight.remove(&key);
            }
            inflight.resolve(InflightState::Done(Arc::clone(&row)));
            out.push((seed, row));
        }
        out
    }
}

impl Drop for LeadClaim {
    fn drop(&mut self) {
        if self.entries.is_empty() {
            return;
        }
        // Unfilled leadership (fill panicked upstream, or the worker bailed):
        // abort the slots so followers recompute instead of hanging.
        let entries = std::mem::take(&mut self.entries);
        let mut store = self.cache.lock();
        for (seed, inflight) in entries {
            let key = CacheKey {
                generation: self.generation,
                graph_version: self.graph_version,
                seed,
            };
            if store
                .inflight
                .get(&key)
                .is_some_and(|cur| Arc::ptr_eq(cur, &inflight))
            {
                store.inflight.remove(&key);
            }
            inflight.resolve(InflightState::Aborted);
        }
    }
}

/// A parked follower of one in-flight seed computation.
#[derive(Debug)]
pub struct FollowHandle {
    inflight: Arc<Inflight>,
}

impl FollowHandle {
    /// Blocks until the leader resolves: `Some(row)` when it filled,
    /// `None` when it aborted (the follower must compute the seed
    /// itself).
    pub fn wait(self) -> Option<Arc<[f32]>> {
        let mut state = self.inflight.state.lock().expect("inflight lock poisoned");
        loop {
            match &*state {
                InflightState::Pending => {
                    state = self
                        .inflight
                        .cv
                        .wait(state)
                        .expect("inflight lock poisoned");
                }
                InflightState::Done(row) => return Some(Arc::clone(row)),
                InflightState::Aborted => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids() -> (SnapshotGeneration, GraphVersion) {
        (SnapshotGeneration::mint(), GraphVersion::mint())
    }

    fn row_matrix(rows: &[&[f32]]) -> Matrix {
        let cols = rows[0].len();
        let mut m = Matrix::zeros(rows.len(), cols);
        for (i, r) in rows.iter().enumerate() {
            m.row_mut(i).copy_from_slice(r);
        }
        m
    }

    #[test]
    fn probe_miss_then_fill_then_hit() {
        let (g, v) = ids();
        let cache = LogitCache::new(CacheConfig { capacity: 4 });
        assert!(cache.probe(g, v, 3).is_none());
        cache.fill_rows(g, v, &[3], &row_matrix(&[&[1.0, 2.0]]));
        let row = cache.probe(g, v, 3).expect("filled row resident");
        assert_eq!(&row[..], &[1.0, 2.0]);
        let snap = cache.snapshot();
        assert_eq!(snap.hits, 1);
        assert_eq!(snap.resident_rows, 1);
        assert_eq!(snap.resident_bytes, 8);
    }

    #[test]
    fn versions_partition_the_keyspace() {
        let (g1, v1) = ids();
        let (g2, v2) = ids();
        let cache = LogitCache::new(CacheConfig { capacity: 8 });
        cache.fill_rows(g1, v1, &[5], &row_matrix(&[&[1.0]]));
        assert!(cache.probe(g2, v1, 5).is_none(), "other generation");
        assert!(cache.probe(g1, v2, 5).is_none(), "other graph version");
        assert!(cache.probe(g1, v1, 5).is_some());
    }

    #[test]
    fn clock_eviction_bounds_residency_and_counts() {
        let (g, v) = ids();
        let cache = LogitCache::new(CacheConfig { capacity: 3 });
        for s in 0..10u32 {
            cache.fill_rows(g, v, &[s], &row_matrix(&[&[s as f32]]));
        }
        let snap = cache.snapshot();
        assert_eq!(snap.resident_rows, 3);
        assert_eq!(snap.evictions, 7);
        assert_eq!(snap.resident_bytes, 12);
        // Exactly 3 of the 10 rows remain resident.
        let resident = (0..10u32)
            .filter(|&s| cache.probe(g, v, s).is_some())
            .count();
        assert_eq!(resident, 3);
    }

    #[test]
    fn clock_second_chance_keeps_touched_rows() {
        let (g, v) = ids();
        let cache = LogitCache::new(CacheConfig { capacity: 2 });
        cache.fill_rows(g, v, &[0], &row_matrix(&[&[0.0]]));
        cache.fill_rows(g, v, &[1], &row_matrix(&[&[1.0]]));
        // Touch 0 so its reference bit survives the first sweep; the
        // insert of 2 must then prefer evicting 1.
        assert!(cache.probe(g, v, 0).is_some());
        cache.fill_rows(g, v, &[2], &row_matrix(&[&[2.0]]));
        assert!(cache.probe(g, v, 0).is_some(), "recently-touched survives");
        assert!(cache.probe(g, v, 2).is_some(), "new row resident");
    }

    #[test]
    fn refreshing_a_resident_row_does_not_evict() {
        let (g, v) = ids();
        let cache = LogitCache::new(CacheConfig { capacity: 2 });
        cache.fill_rows(g, v, &[0, 1], &row_matrix(&[&[0.0], &[1.0]]));
        cache.fill_rows(g, v, &[0], &row_matrix(&[&[9.0]]));
        let snap = cache.snapshot();
        assert_eq!(snap.evictions, 0);
        assert_eq!(snap.resident_rows, 2);
        assert_eq!(&cache.probe(g, v, 0).unwrap()[..], &[9.0]);
    }

    #[test]
    fn claim_counts_exactly_per_instance() {
        let (g, v) = ids();
        let cache = Arc::new(LogitCache::new(CacheConfig { capacity: 8 }));
        cache.fill_rows(g, v, &[7], &row_matrix(&[&[7.0]]));
        // Seed 7 resident (2 instances), seed 3 absent (3 instances).
        let claim = cache.claim(g, v, &[(7, 2), (3, 3)]);
        assert_eq!(claim.hits.len(), 1);
        assert_eq!(claim.lead.seeds(), vec![3]);
        assert!(claim.follows.is_empty());
        let snap = cache.snapshot();
        assert_eq!(snap.hits, 2);
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.coalesced, 2);
        // A second claimant of seed 3 while in flight: all coalesced.
        let second = cache.claim(g, v, &[(3, 2)]);
        assert!(second.lead.is_empty());
        assert_eq!(second.follows.len(), 1);
        assert_eq!(cache.snapshot().coalesced, 4);
        // Leader fills; follower resolves with the same bits.
        let filled = claim.lead.fill(&row_matrix(&[&[3.5]]));
        assert_eq!(filled.len(), 1);
        let (seed, handle) = second.follows.into_iter().next().unwrap();
        assert_eq!(seed, 3);
        assert_eq!(&handle.wait().expect("leader filled")[..], &[3.5]);
        // Identity: hits + misses + coalesced == answered instances (2+3+2).
        let snap = cache.snapshot();
        assert_eq!(snap.hits + snap.misses + snap.coalesced, 7);
    }

    #[test]
    fn claim_after_fill_is_a_late_hit() {
        let (g, v) = ids();
        let cache = Arc::new(LogitCache::new(CacheConfig { capacity: 8 }));
        let lead = cache.claim(g, v, &[(1, 1)]).lead;
        lead.fill(&row_matrix(&[&[1.0]]));
        let claim = cache.claim(g, v, &[(1, 4)]);
        assert_eq!(claim.hits.len(), 1);
        assert!(claim.lead.is_empty());
        assert!(claim.follows.is_empty());
        assert_eq!(cache.snapshot().hits, 4);
    }

    #[test]
    fn dropped_leader_aborts_followers() {
        let (g, v) = ids();
        let cache = Arc::new(LogitCache::new(CacheConfig { capacity: 8 }));
        let leader = cache.claim(g, v, &[(9, 1)]);
        let follower = cache.claim(g, v, &[(9, 1)]);
        drop(leader);
        let (_, handle) = follower.follows.into_iter().next().unwrap();
        assert!(handle.wait().is_none(), "aborted leader yields None");
        // The slot is gone: the next claimant becomes a fresh leader.
        let retry = cache.claim(g, v, &[(9, 1)]);
        assert_eq!(retry.lead.seeds(), vec![9]);
    }

    #[test]
    fn followers_parked_across_threads_wake_on_fill() {
        let (g, v) = ids();
        let cache = Arc::new(LogitCache::new(CacheConfig { capacity: 8 }));
        let leader = cache.claim(g, v, &[(4, 1)]);
        let joined: Vec<Arc<[f32]>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    s.spawn(move || {
                        let c = cache.claim(g, v, &[(4, 1)]);
                        let (_, h) = c.follows.into_iter().next().expect("in flight");
                        h.wait().expect("leader fills")
                    })
                })
                .collect();
            // Give followers a moment to park, then fill.
            std::thread::sleep(std::time::Duration::from_millis(10));
            leader.lead.fill(&row_matrix(&[&[4.25, -1.0]]));
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for row in joined {
            assert_eq!(&row[..], &[4.25, -1.0]);
        }
        let snap = cache.snapshot();
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.coalesced, 4);
    }

    #[test]
    fn invalidate_removes_exactly_the_named_seeds() {
        let (g, v) = ids();
        let cache = LogitCache::new(CacheConfig { capacity: 8 });
        for s in 0..5u32 {
            cache.fill_rows(g, v, &[s], &row_matrix(&[&[s as f32]]));
        }
        let removed = cache.invalidate_seeds(g, v, &[1, 3, 9]);
        assert_eq!(removed, 2, "seed 9 was never resident");
        assert!(cache.probe(g, v, 1).is_none());
        assert!(cache.probe(g, v, 3).is_none());
        for s in [0u32, 2, 4] {
            assert!(cache.probe(g, v, s).is_some(), "seed {s} untouched");
        }
        let snap = cache.snapshot();
        assert_eq!(snap.invalidated, 2);
        assert_eq!(snap.resident_rows, 3);
        assert_eq!(snap.resident_bytes, 12);
        assert_eq!(snap.evictions, 0, "invalidation is not eviction");
    }

    #[test]
    fn invalidate_then_refill_reuses_capacity() {
        let (g, v) = ids();
        let cache = LogitCache::new(CacheConfig { capacity: 3 });
        for s in 0..3u32 {
            cache.fill_rows(g, v, &[s], &row_matrix(&[&[s as f32]]));
        }
        assert_eq!(cache.invalidate_seeds(g, v, &[0, 1, 2]), 3);
        assert_eq!(cache.snapshot().resident_rows, 0);
        // The freed slots refill without eviction churn.
        for s in 10..13u32 {
            cache.fill_rows(g, v, &[s], &row_matrix(&[&[s as f32]]));
        }
        let snap = cache.snapshot();
        assert_eq!(snap.resident_rows, 3);
        assert_eq!(snap.evictions, 0);
        for s in 10..13u32 {
            assert!(cache.probe(g, v, s).is_some());
        }
    }

    #[test]
    fn invalidated_leader_fill_stays_nonresident() {
        let (g, v) = ids();
        let cache = Arc::new(LogitCache::new(CacheConfig { capacity: 8 }));
        let claim = cache.claim(g, v, &[(6, 1)]);
        let follower = cache.claim(g, v, &[(6, 1)]);
        // A mutation lands while the leader computes.
        cache.invalidate_seeds(g, v, &[6]);
        // Parked followers still get the (stale-epoch) row...
        let filled = claim.lead.fill(&row_matrix(&[&[6.5]]));
        assert_eq!(filled.len(), 1);
        let (_, handle) = follower.follows.into_iter().next().unwrap();
        assert_eq!(&handle.wait().expect("leader resolved")[..], &[6.5]);
        // ...but the row never became resident.
        assert!(cache.probe(g, v, 6).is_none(), "stale fill not resident");
        // And the next claimant leads fresh instead of coalescing.
        let retry = cache.claim(g, v, &[(6, 1)]);
        assert_eq!(retry.lead.seeds(), vec![6]);
    }

    #[test]
    fn stale_leader_does_not_clobber_successor() {
        let (g, v) = ids();
        let cache = Arc::new(LogitCache::new(CacheConfig { capacity: 8 }));
        let stale = cache.claim(g, v, &[(2, 1)]);
        cache.invalidate_seeds(g, v, &[2]);
        // A successor leads the seed post-invalidation.
        let fresh = cache.claim(g, v, &[(2, 1)]);
        assert_eq!(fresh.lead.seeds(), vec![2]);
        // The stale leader fills (or aborts): the successor's in-flight
        // slot must survive both.
        stale.lead.fill(&row_matrix(&[&[0.0]]));
        let parked = cache.claim(g, v, &[(2, 1)]);
        assert!(parked.lead.is_empty(), "successor slot still in flight");
        assert_eq!(parked.follows.len(), 1);
        let rows = fresh.lead.fill(&row_matrix(&[&[2.25]]));
        assert_eq!(&rows[0].1[..], &[2.25]);
        let (_, handle) = parked.follows.into_iter().next().unwrap();
        assert_eq!(&handle.wait().expect("fresh leader filled")[..], &[2.25]);
        assert_eq!(&cache.probe(g, v, 2).unwrap()[..], &[2.25]);
    }

    #[test]
    fn aborted_leader_recovery_never_lands_premutation_bits() {
        // The satellite-1 race: a leader aborts, the server's fallback
        // path recomputes the seed through its own forward, and a
        // mutation invalidates the seed while that recompute runs. The
        // recovery must register in flight *before* computing so the
        // invalidation poisons it; the stale row must never land.
        let (g, v) = ids();
        let cache = Arc::new(LogitCache::new(CacheConfig { capacity: 8 }));
        let leader = cache.claim(g, v, &[(6, 1)]);
        let follower = cache.claim(g, v, &[(6, 1)]);
        drop(leader); // leader aborts mid-flight
        let (_, handle) = follower.follows.into_iter().next().unwrap();
        assert!(handle.wait().is_none(), "abort reaches the follower");
        // Fallback recovery: register uncounted leadership, then compute.
        let recovery = cache.lead_uncounted(g, v, &[6]);
        assert_eq!(recovery.seeds(), vec![6]);
        // The racing mutation lands while the recompute is in flight.
        cache.invalidate_seeds(g, v, &[6]);
        recovery.fill(&row_matrix(&[&[-99.0]]));
        assert!(
            cache.probe(g, v, 6).is_none(),
            "pre-mutation bits must not land after invalidation"
        );
        // The next claimant leads fresh rather than seeing stale state.
        let retry = cache.claim(g, v, &[(6, 1)]);
        assert_eq!(retry.lead.seeds(), vec![6]);
    }

    #[test]
    fn lead_uncounted_fill_lands_and_wakes_followers() {
        let (g, v) = ids();
        let cache = Arc::new(LogitCache::new(CacheConfig { capacity: 8 }));
        let lead = cache.lead_uncounted(g, v, &[3]);
        assert_eq!(lead.seeds(), vec![3]);
        // No counters moved: leadership here is bookkeeping-free.
        let snap = cache.snapshot();
        assert_eq!((snap.hits, snap.misses, snap.coalesced), (0, 0, 0));
        // A claimant arriving mid-flight coalesces onto the slot.
        let claim = cache.claim(g, v, &[(3, 1)]);
        assert!(claim.lead.is_empty());
        assert_eq!(claim.follows.len(), 1);
        lead.fill(&row_matrix(&[&[3.75, 1.0]]));
        let (_, handle) = claim.follows.into_iter().next().unwrap();
        assert_eq!(&handle.wait().expect("filled")[..], &[3.75, 1.0]);
        assert_eq!(&cache.probe(g, v, 3).unwrap()[..], &[3.75, 1.0]);
    }

    #[test]
    fn lead_uncounted_skips_live_leader() {
        let (g, v) = ids();
        let cache = Arc::new(LogitCache::new(CacheConfig { capacity: 8 }));
        let owner = cache.claim(g, v, &[(5, 1)]);
        let lead = cache.lead_uncounted(g, v, &[5, 6]);
        assert_eq!(lead.seeds(), vec![6], "seed 5 already owned in flight");
        owner.lead.fill(&row_matrix(&[&[5.0]]));
        lead.fill(&row_matrix(&[&[6.0]]));
        assert_eq!(&cache.probe(g, v, 5).unwrap()[..], &[5.0]);
        assert_eq!(&cache.probe(g, v, 6).unwrap()[..], &[6.0]);
    }

    #[test]
    fn fill_from_publishes_only_the_still_led_rows() {
        let (g, v) = ids();
        let cache = Arc::new(LogitCache::new(CacheConfig { capacity: 8 }));
        // A live leader owns seed 6, with a follower parked on it.
        let owner = cache.claim(g, v, &[(6, 1)]);
        let parked = cache.claim(g, v, &[(6, 1)]);
        let books = cache.snapshot();
        let lead = cache.lead_uncounted(g, v, &[5, 6, 7]);
        assert_eq!(lead.seeds(), vec![5, 7], "seed 6 stays with its leader");
        // The recompute covered all three seeds; only 5 and 7 land.
        let filled = lead.fill_from(&[5, 6, 7], &row_matrix(&[&[5.5], &[-6.0], &[7.5]]));
        assert_eq!(filled.len(), 2);
        assert_eq!(cache.snapshot().resident_rows, 2);
        // Seed 6's follower is still parked on its own leader and gets
        // that leader's bits, not the recompute's.
        owner.lead.fill(&row_matrix(&[&[6.25]]));
        let (_, handle) = parked.follows.into_iter().next().unwrap();
        assert_eq!(&handle.wait().expect("owner filled")[..], &[6.25]);
        // No hit/miss/coalesced books moved along the way.
        let after = cache.snapshot();
        assert_eq!(
            (after.hits, after.misses, after.coalesced),
            (books.hits, books.misses, books.coalesced)
        );
        assert_eq!(&cache.probe(g, v, 5).unwrap()[..], &[5.5]);
        assert_eq!(&cache.probe(g, v, 6).unwrap()[..], &[6.25]);
        assert_eq!(&cache.probe(g, v, 7).unwrap()[..], &[7.5]);
    }

    #[test]
    fn fill_rows_warmup_does_not_race_inflight_leader() {
        let (g, v) = ids();
        let cache = Arc::new(LogitCache::new(CacheConfig { capacity: 8 }));
        let owner = cache.claim(g, v, &[(1, 1)]);
        cache.fill_rows(g, v, &[1], &row_matrix(&[&[-1.0]]));
        assert!(
            cache.probe(g, v, 1).is_none(),
            "warm-up must not preempt a live in-flight leader"
        );
        // The real leader's fill wins, and its bits are what land.
        owner.lead.fill(&row_matrix(&[&[1.5]]));
        assert_eq!(&cache.probe(g, v, 1).unwrap()[..], &[1.5]);
    }

    #[test]
    fn remove_key_backfill_keeps_map_consistent() {
        let (g, v) = ids();
        let cache = LogitCache::new(CacheConfig { capacity: 8 });
        for s in 0..4u32 {
            cache.fill_rows(g, v, &[s], &row_matrix(&[&[s as f32]]));
        }
        // Removing slot 0 swaps slot 3 into its place; every surviving
        // row must still be reachable with its own bits.
        cache.invalidate_seeds(g, v, &[0]);
        for s in 1..4u32 {
            assert_eq!(&cache.probe(g, v, s).unwrap()[..], &[s as f32]);
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_rejected() {
        let _ = LogitCache::new(CacheConfig { capacity: 0 });
    }

    #[test]
    fn hit_rate_reads_zero_when_idle() {
        let snap = CacheSnapshot::default();
        assert_eq!(snap.hit_rate(), 0.0);
    }
}
