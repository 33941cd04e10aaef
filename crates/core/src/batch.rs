//! The serving vocabulary shared by every cache layer: interned query
//! keys, instance fingerprints, the bounded answer cache behind
//! [`CacheHandle`], and the [`CacheStats`]/[`BatchStats`] counters.
//!
//! The serving path itself lives in [`crate::engine`]: a long-lived
//! [`Engine`](crate::Engine) owns the instance-side state, a handle to
//! a bounded answer cache, and a sharded submit loop. This module keeps
//! [`QueryKey`] (structural query identity), [`instance_fingerprint`]
//! (content identity of a probabilistic instance) and the cache itself.
//!
//! ## The answer cache
//!
//! The cache maps (instance fingerprint, solver-options fingerprint,
//! request kind, interned query key) to the completed typed answer, a
//! `Result<`[`Response`]`, SolveError>`, for every
//! request kind under the same flat LRU order.
//! Mutating the instance (structure *or* probabilities) changes its
//! fingerprint and naturally invalidates every cached answer. Since one
//! cache can serve many instances (engines built with
//! [`EngineBuilder::shared_cache`](crate::EngineBuilder::shared_cache)
//! share one [`CacheHandle`] across every graph version they serve),
//! the cache is **bounded**: construct with
//! [`CacheHandle::with_capacity`] and the least-recently-used entry is
//! evicted on overflow, counted in [`CacheStats::evictions`].
//! [`CacheHandle::unbounded`] keeps no bound.

use crate::engine::Response;
use crate::solver::{SolveError, SolverOptions};
use phom_graph::{Graph, ProbGraph};
use phom_lineage::fxhash::{FxHashMap, FxHasher};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// An interned query key: structural identity of a query graph (vertex
/// count + exact edge list), pre-hashed so batch dedup and cache lookups
/// cost one u64 hash. Isomorphic-but-renumbered queries get distinct keys
/// — interning is exact, not up to isomorphism.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryKey {
    hash: u64,
    n_vertices: u32,
    edges: Box<[(u32, u32, u32)]>,
}

impl QueryKey {
    /// The key of `query`.
    pub fn new(query: &Graph) -> Self {
        let edges: Box<[(u32, u32, u32)]> = query
            .edges()
            .iter()
            .map(|e| (e.src as u32, e.dst as u32, e.label.0))
            .collect();
        let mut h = FxHasher::default();
        h.write_u32(query.n_vertices() as u32);
        for &(s, d, l) in &*edges {
            h.write_u32(s);
            h.write_u32(d);
            h.write_u32(l);
        }
        QueryKey {
            hash: h.finish(),
            n_vertices: query.n_vertices() as u32,
            edges,
        }
    }

    /// The key of an ordered *sequence* of graphs (a UCQ's disjuncts):
    /// exact structural identity over the whole sequence. Each graph is
    /// preceded by a `(u32::MAX, u32::MAX, n_vertices)` separator —
    /// vertex ids never reach `u32::MAX`, so distinct sequences can
    /// never serialize to the same edge list.
    pub fn of_many(graphs: &[Graph]) -> Self {
        let mut edges: Vec<(u32, u32, u32)> = Vec::new();
        for g in graphs {
            edges.push((u32::MAX, u32::MAX, g.n_vertices() as u32));
            edges.extend(
                g.edges()
                    .iter()
                    .map(|e| (e.src as u32, e.dst as u32, e.label.0)),
            );
        }
        let mut h = FxHasher::default();
        h.write_u32(graphs.len() as u32);
        for &(s, d, l) in &edges {
            h.write_u32(s);
            h.write_u32(d);
            h.write_u32(l);
        }
        QueryKey {
            hash: h.finish(),
            n_vertices: graphs.len() as u32,
            edges: edges.into_boxed_slice(),
        }
    }
}

impl Hash for QueryKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// A content fingerprint of a probabilistic instance: graph structure
/// (vertices, edges, labels) and every edge probability. Two instances
/// with equal fingerprints serve interchangeable cached answers; any
/// mutation — adding an edge, nudging a probability — moves the
/// fingerprint and invalidates the cache for free. The same fingerprint
/// keys versions inside a `phom_serve::Runtime`.
pub fn instance_fingerprint(instance: &ProbGraph) -> u64 {
    let mut h = FxHasher::default();
    h.write_u32(instance.graph().n_vertices() as u32);
    for e in instance.graph().edges() {
        h.write_u32(e.src as u32);
        h.write_u32(e.dst as u32);
        h.write_u32(e.label.0);
    }
    for p in instance.probs() {
        p.hash(&mut h);
    }
    h.finish()
}

/// Folds the option fields that change answers (or attached artifacts)
/// into the cache key, so e.g. a `want_provenance` answer is never served
/// to a caller that set a brute-force fallback.
pub(crate) fn opts_fingerprint(opts: &SolverOptions) -> u64 {
    use crate::solver::Fallback;
    let mut h = FxHasher::default();
    match opts.fallback {
        Fallback::None => h.write_u8(0),
        Fallback::BruteForce { max_uncertain } => {
            h.write_u8(1);
            h.write_usize(max_uncertain);
        }
        Fallback::MonteCarlo { samples, seed } => {
            h.write_u8(2);
            h.write_u64(samples);
            h.write_u64(seed);
        }
    }
    h.write_u8(opts.want_provenance as u8);
    // Precision isolates cache entries across evaluation tiers: a float
    // answer is never served to an exact request (or vice versa), and
    // float callers with different tolerances never share answers.
    match opts.precision {
        crate::solver::Precision::Exact => h.write_u8(0),
        crate::solver::Precision::Float { max_rel_err } => {
            h.write_u8(1);
            h.write_u64(max_rel_err.to_bits());
        }
        crate::solver::Precision::Auto { max_rel_err } => {
            h.write_u8(2);
            h.write_u64(max_rel_err.to_bits());
        }
    }
    // Budgets change what is computed (truncated estimates, tripped
    // caps), so budgeted callers never share cached answers with
    // unbudgeted ones. Deadlines are deliberately *not* hashed: they
    // are relative to arrival time and don't alter a completed answer.
    for cap in [
        opts.budget.samples,
        opts.budget.gates,
        opts.budget.time.map(|t| t.as_nanos() as u64),
    ] {
        match cap {
            None => h.write_u8(0),
            Some(v) => {
                h.write_u8(1);
                h.write_u64(v);
            }
        }
    }
    match opts.on_hard {
        crate::solver::OnHard::Error => h.write_u8(0),
        crate::solver::OnHard::Estimate => h.write_u8(1),
    }
    h.finish()
}

/// What kind of answer a cache entry holds. Folded into [`CacheKey`] so
/// one flat cache serves every request kind without collisions: a
/// counting answer for query `G` never shadows the probability answer
/// for the same `G`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum CacheKind {
    Probability,
    Counting,
    Sensitivity,
    Ucq,
}

/// The full cache key: (instance fingerprint, options fingerprint,
/// request kind, interned query). Flat — one map, one LRU order — so a
/// bounded cache shares its capacity across every instance, option set,
/// and workload kind it serves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct CacheKey {
    pub(crate) instance: u64,
    pub(crate) opts: u64,
    pub(crate) kind: CacheKind,
    pub(crate) query: QueryKey,
}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(
            self.instance
                ^ self.opts.rotate_left(32)
                ^ self.query.hash
                ^ (self.kind as u64).rotate_left(17),
        );
    }
}

/// Counters and size of an answer cache ([`CacheHandle::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache (no planning, no compilation).
    pub hits: u64,
    /// Queries that had to be solved and were then inserted.
    pub misses: u64,
    /// Entries dropped by the LRU bound (0 on unbounded caches).
    pub evictions: u64,
    /// Entries currently stored.
    pub entries: usize,
}

/// A cross-batch answer cache for serving workloads; see the module docs
/// for the key structure and invalidation story.
///
/// Reached only through a [`CacheHandle`], so one cache can serve many
/// batches, many engines and many instances. On overflow the
/// least-recently-*used* entry (reads refresh recency) is evicted.
/// Eviction is an `O(entries)` scan — caches are sized in the thousands,
/// and the scan only runs on inserts past capacity, never on hits.
pub(crate) struct EvalCache {
    map: FxHashMap<CacheKey, CacheEntry>,
    /// `usize::MAX` = unbounded (the historical behavior).
    capacity: usize,
    /// Monotonic use counter backing the LRU order.
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

struct CacheEntry {
    last_used: u64,
    answer: Result<Response, SolveError>,
}

impl EvalCache {
    /// An empty cache holding at most `capacity` answers; the
    /// least-recently-used entry is evicted on overflow. `capacity == 0`
    /// disables retention entirely (every insert is evicted immediately;
    /// miss/eviction counters still advance).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        EvalCache {
            map: FxHashMap::default(),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Hit/miss/eviction counters and current size.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
        }
    }

    /// Drops every entry, keeping the lifetime counters (see
    /// [`CacheHandle::clear`]).
    pub(crate) fn clear(&mut self) {
        self.map.clear();
    }

    /// Looks up a completed answer, refreshing its recency and counting a
    /// hit when present.
    pub(crate) fn get(&mut self, key: &CacheKey) -> Option<&Result<Response, SolveError>> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits += 1;
                Some(&entry.answer)
            }
            None => None,
        }
    }

    /// Whether an answer is stored under `key`. Unlike
    /// [`get`](Self::get) it neither counts a hit nor refreshes recency.
    pub(crate) fn contains(&self, key: &CacheKey) -> bool {
        self.map.contains_key(key)
    }

    /// Records a freshly solved answer (counted as a miss), evicting the
    /// least-recently-used entries if the bound is exceeded.
    pub(crate) fn insert(&mut self, key: CacheKey, answer: Result<Response, SolveError>) {
        if self.map.contains_key(&key) {
            return; // identical answer already present; keep its recency
        }
        self.misses += 1;
        self.tick += 1;
        self.map.insert(
            key,
            CacheEntry {
                last_used: self.tick,
                answer,
            },
        );
        while self.map.len() > self.capacity {
            let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.map.remove(&oldest);
            self.evictions += 1;
        }
    }
}

/// A cloneable, thread-safe handle to an answer cache — the only public
/// cache type, and the unit of cache *sharing* across serving surfaces.
/// Engines built on one handle
/// ([`EngineBuilder::shared_cache`](crate::EngineBuilder::shared_cache))
/// and an external runtime (`phom_serve::Runtime`) compete for one
/// bounded LRU capacity across every instance version they serve.
#[derive(Clone)]
pub struct CacheHandle {
    cache: Arc<Mutex<EvalCache>>,
}

impl CacheHandle {
    /// A handle to a fresh **unbounded** cache.
    pub fn unbounded() -> Self {
        CacheHandle::with_capacity(usize::MAX)
    }

    /// A handle to a fresh cache bounded to `capacity` answers (LRU).
    pub fn with_capacity(capacity: usize) -> Self {
        CacheHandle {
            cache: Arc::new(Mutex::new(EvalCache::with_capacity(capacity))),
        }
    }

    /// Counters and size of the shared cache.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats()
    }

    /// Drops every cached answer. The cumulative hit/miss/eviction
    /// counters are **kept**: they describe the cache's lifetime, not its
    /// contents (clearing is not an eviction, so `evictions` does not
    /// advance either). [`CacheStats::entries`] drops to 0.
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// The cache lock, recovering from poisoning: the cache's own
    /// operations never unwind mid-mutation, so a panic elsewhere while
    /// the lock was held cannot leave it inconsistent — a long-lived
    /// serving process must not die because one query panicked.
    pub(crate) fn lock(&self) -> std::sync::MutexGuard<'_, EvalCache> {
        self.cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// What one batched solve did, for observability and the perf harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Queries in the batch.
    pub queries: usize,
    /// Structurally distinct (query, options) pairs after interning.
    pub unique_queries: usize,
    /// Unique queries answered from the answer cache.
    pub cache_hits: usize,
    /// Unique queries answered through a shard's single engine pass over
    /// its compiled lineage arena.
    pub circuit_batched: usize,
    /// Unique queries answered on the general per-query path (trivial
    /// routes, non-circuit algorithms, disconnected instances,
    /// fallbacks).
    pub general_solved: usize,
    /// Gates across all shard arenas (0 when nothing batched).
    pub shared_gates: usize,
    /// Worker shards the batch ran on (1 = the sequential path).
    pub shards: usize,
    /// Whether the batch compiled its circuit plans into **one**
    /// cross-shard shared arena (the large-tick path — see
    /// [`TickConfig::share_arena_at`](crate::TickConfig::share_arena_at))
    /// instead of one arena per shard.
    pub shared_arena: bool,
    /// Unique circuit and DP (Prop 3.6 / 5.4) queries answered by the
    /// float tier: every [`Precision::Float`](crate::Precision::Float)
    /// answer, and [`Auto`](crate::Precision::Auto) answers whose
    /// certified bound met the tolerance.
    pub float_evaluated: usize,
    /// `Auto` circuit and DP queries whose float bound exceeded the
    /// tolerance and were re-evaluated exactly.
    pub escalations: usize,
    /// Requests answered with a Monte-Carlo
    /// [`Response::Estimate`] (the
    /// `OnHard::Estimate` degradation).
    pub estimates: usize,
    /// Requests that failed with `SolveError::DeadlineExceeded` inside
    /// this batch (expired before or during evaluation; queue sheds are
    /// counted by the serving runtime, not here).
    pub deadline_exceeded: usize,
    /// Requests that failed with `SolveError::BudgetExceeded` inside
    /// this batch.
    pub budget_exceeded: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Request};
    use crate::solver::{solve_with_impl, Hardness, Solution};
    use phom_graph::generate::{self, ProbProfile};
    use phom_graph::{Graph, Label};
    use phom_num::Rational;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn twp_instance(seed: u64) -> ProbGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        generate::with_probabilities(
            generate::two_way_path(8, 2, &mut rng),
            ProbProfile::default(),
            &mut rng,
        )
    }

    /// An engine serving `h` off the shared `cache`.
    fn engine_on(h: &ProbGraph, cache: &CacheHandle) -> Engine {
        Engine::builder()
            .shared_cache(cache.clone())
            .build(h.clone())
    }

    /// Submits `queries` as exact probability requests and unwraps each
    /// answer to its `Solution`.
    fn submit(
        engine: &Engine,
        queries: &[Graph],
    ) -> (Vec<Result<Solution, SolveError>>, BatchStats) {
        let requests: Vec<Request> = queries
            .iter()
            .map(|q| Request::probability(q.clone()))
            .collect();
        let (answers, stats) = engine.submit_stats(&requests);
        let answers = answers
            .into_iter()
            .map(|a| {
                a.map(|r| match r {
                    Response::Probability(sol) => sol,
                    other => panic!("exact request answered as {other:?}"),
                })
            })
            .collect();
        (answers, stats)
    }

    fn probability(answer: &Result<Solution, SolveError>) -> &Rational {
        &answer.as_ref().expect("tractable query").probability
    }

    #[test]
    fn batch_matches_per_query_solve() {
        let mut rng = SmallRng::seed_from_u64(0xBA7C);
        let h = twp_instance(0xBA7C);
        let queries: Vec<Graph> = (0..12)
            .map(|i| {
                if i % 3 == 0 {
                    Graph::directed_path(i % 4)
                } else {
                    generate::connected(2 + i % 3, 1, 2, &mut rng)
                }
            })
            .collect();
        let opts = SolverOptions::default();
        let (batch, stats) = submit(&Engine::new(h.clone()), &queries);
        assert_eq!(batch.len(), queries.len());
        assert!(stats.unique_queries <= stats.queries);
        assert_eq!(stats.shards, 1, "one shard by default");
        for (i, q) in queries.iter().enumerate() {
            match (&batch[i], solve_with_impl(q, &h, opts)) {
                (Ok(b), Ok(s)) => {
                    assert_eq!(b.probability, s.probability, "query {i}");
                    assert_eq!(b.route, s.route, "query {i}");
                }
                (Err(SolveError::Hard(b)), Err(s)) => assert_eq!(b, &s, "query {i}"),
                (b, s) => panic!("query {i}: batch {b:?} vs solo {s:?}"),
            }
        }
    }

    #[test]
    fn interning_dedupes_identical_queries() {
        let h = twp_instance(7);
        let q = Graph::one_way_path(&[Label(0), Label(1)]);
        let queries = vec![q.clone(); 10];
        let (results, stats) = submit(&Engine::new(h.clone()), &queries);
        assert_eq!(stats.queries, 10);
        assert_eq!(stats.unique_queries, 1);
        let expect = solve_with_impl(&q, &h, SolverOptions::default()).unwrap();
        for r in &results {
            assert_eq!(probability(r), &expect.probability);
        }
    }

    #[test]
    fn cache_hits_skip_compilation_and_mutation_invalidates() {
        let h = twp_instance(21);
        let mut rng = SmallRng::seed_from_u64(21);
        let queries: Vec<Graph> = (0..4)
            .map(|_| generate::connected(3, 1, 2, &mut rng))
            .collect();
        let cache = CacheHandle::unbounded();
        let engine = engine_on(&h, &cache);
        let (first, s1) = submit(&engine, &queries);
        assert_eq!(s1.cache_hits, 0);
        let misses_after_first = cache.stats().misses;
        assert_eq!(misses_after_first as usize, s1.unique_queries);
        // Second batch: everything comes from the cache.
        let (second, s2) = submit(&engine, &queries);
        assert_eq!(s2.cache_hits, s2.unique_queries);
        assert_eq!(s2.circuit_batched + s2.general_solved, 0);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(probability(a), probability(b));
        }
        // Mutate one probability: the fingerprint moves, the cache misses,
        // and answers are re-derived (and still correct).
        let mut probs = h.probs().to_vec();
        probs[0] = Rational::from_ratio(1, 7);
        let h2 = ProbGraph::new(h.graph().clone(), probs);
        assert_ne!(instance_fingerprint(&h), instance_fingerprint(&h2));
        let (third, s3) = submit(&engine_on(&h2, &cache), &queries);
        assert_eq!(s3.cache_hits, 0);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(
                probability(&third[i]),
                &solve_with_impl(q, &h2, SolverOptions::default())
                    .unwrap()
                    .probability
            );
        }
    }

    #[test]
    fn lru_bound_evicts_coldest_and_counts() {
        let h = twp_instance(33);
        let mut rng = SmallRng::seed_from_u64(33);
        let queries: Vec<Graph> = (0..5)
            .map(|_| generate::connected(3, 1, 2, &mut rng))
            .collect();
        let cache = CacheHandle::with_capacity(2);
        let engine = engine_on(&h, &cache);
        let (_, s1) = submit(&engine, &queries);
        let stats = cache.stats();
        assert!(stats.entries <= 2, "{stats:?}");
        assert_eq!(
            stats.evictions,
            stats.misses - stats.entries as u64,
            "every overflow insert evicts exactly one entry: {stats:?}"
        );
        assert!(stats.evictions >= (s1.unique_queries as u64).saturating_sub(2));
        // The two most recent unique queries are hot; re-asking only them
        // stays within capacity and hits.
        let tail: Vec<Graph> = queries[queries.len() - 2..].to_vec();
        let before = cache.stats();
        let (answers, s2) = submit(&engine, &tail);
        // Correctness is unaffected by eviction either way.
        assert_eq!(s2.cache_hits + s2.circuit_batched + s2.general_solved, {
            s2.unique_queries
        });
        assert!(cache.stats().hits >= before.hits);
        for (q, a) in tail.iter().zip(&answers) {
            assert_eq!(
                probability(a),
                &solve_with_impl(q, &h, SolverOptions::default())
                    .unwrap()
                    .probability
            );
        }
    }

    #[test]
    fn lru_reads_refresh_recency() {
        let key = |tag: u64| CacheKey {
            instance: tag,
            opts: 0,
            kind: CacheKind::Probability,
            query: QueryKey::new(&Graph::directed_path(1)),
        };
        let answer = || {
            Err(SolveError::Hard(Hardness {
                prop: "test",
                cell: String::new(),
            }))
        };
        let mut cache = EvalCache::with_capacity(2);
        cache.insert(key(1), answer());
        cache.insert(key(2), answer());
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), answer());
        assert!(cache.get(&key(1)).is_some(), "recently read survives");
        assert!(cache.get(&key(2)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let h = twp_instance(5);
        let q = Graph::one_way_path(&[Label(0)]);
        let cache = CacheHandle::unbounded();
        let engine = engine_on(&h, &cache);
        let _ = submit(&engine, std::slice::from_ref(&q));
        let _ = submit(&engine, std::slice::from_ref(&q));
        let before = cache.stats();
        assert!(before.hits > 0 && before.misses > 0 && before.entries > 0);
        cache.clear();
        let after = cache.stats();
        assert_eq!(after.entries, 0, "entries cleared");
        assert_eq!(after.hits, before.hits, "lifetime counters kept");
        assert_eq!(after.misses, before.misses);
        assert_eq!(after.evictions, before.evictions);
        // The next batch re-solves and re-fills.
        let (_, s) = submit(&engine, &[q]);
        assert_eq!(s.cache_hits, 0);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn zero_capacity_retains_nothing() {
        let h = twp_instance(9);
        let q = Graph::one_way_path(&[Label(0)]);
        let engine = Engine::builder().cache_capacity(0).build(h);
        let _ = submit(&engine, std::slice::from_ref(&q));
        let _ = submit(&engine, &[q]);
        let s = engine.cache_stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, s.evictions);
    }

    #[test]
    fn fingerprint_tracks_structure_and_probabilities() {
        let h = twp_instance(3);
        assert_eq!(instance_fingerprint(&h), instance_fingerprint(&h.clone()));
        let mut rng = SmallRng::seed_from_u64(99);
        let other = generate::with_probabilities(
            generate::two_way_path(8, 2, &mut rng),
            ProbProfile::default(),
            &mut rng,
        );
        assert_ne!(instance_fingerprint(&h), instance_fingerprint(&other));
    }

    #[test]
    fn query_keys_are_structural() {
        let a = Graph::one_way_path(&[Label(0), Label(1)]);
        let b = Graph::one_way_path(&[Label(0), Label(1)]);
        let c = Graph::one_way_path(&[Label(1), Label(0)]);
        assert_eq!(QueryKey::new(&a), QueryKey::new(&b));
        assert_ne!(QueryKey::new(&a), QueryKey::new(&c));
    }

    #[test]
    fn deferred_circuits_share_one_arena() {
        let h = twp_instance(5);
        let mut rng = SmallRng::seed_from_u64(5);
        let queries: Vec<Graph> = (0..6)
            .map(|_| generate::connected(rng.gen_range(2..4), 1, 2, &mut rng))
            .collect();
        let (_, stats) = submit(&Engine::new(h), &queries);
        // On a connected 2WP instance every connected query batches.
        assert!(stats.circuit_batched > 0, "{stats:?}");
        assert!(stats.shared_gates > 2, "{stats:?}");
    }
}
