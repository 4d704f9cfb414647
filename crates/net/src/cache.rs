//! A sharded cache of compiled analyses, keyed two ways: by program
//! source text (so a repeat [`crate::WireMsg::AnalyzeProgram`] skips the
//! whole pipeline) and by analysis fingerprint (so
//! [`crate::WireMsg::DispatchBatch`] frames resolve their plan without
//! retransmitting the program).
//!
//! Sharding keeps the dispatch hot path contention-free under the
//! multi-threaded server: a lookup locks one shard for a [`HashMap`] probe
//! and clones an [`Arc`]. On the *analyze* path each source has a
//! compute-once cell, and its shard's lock is held only to find or insert
//! that cell. The first miss runs [`Analysis::from_source`] while holding
//! the cell, so concurrent requests for the same new program collapse
//! into one analysis (the others find the result when the cell frees)
//! instead of a thundering herd, while a miss on another source in the
//! same shard runs at once.
//!
//! A panic while a lock is held (inside the analysis, say) poisons that
//! mutex. The maps only ever change by whole `insert`s and `remove`s, and
//! a cell is filled only after a successful analysis, so a poisoned lock
//! still guards consistent state, and every lock recovers its guard
//! instead of panicking too. A cell whose analysis panicked stays empty,
//! so the next request for that source analyzes it again.

use crate::protocol::fingerprint;
use offload_core::{Analysis, AnalysisOptions, AnalyzeError};
use offload_obs::{Counter, Gauge};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Counters describing how the cache has been used since creation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// `AnalyzeProgram` requests answered from the cache.
    pub analyze_hits: u64,
    /// `AnalyzeProgram` requests that ran the full analysis pipeline.
    pub analyze_misses: u64,
    /// `DispatchBatch` fingerprint lookups that found their plan.
    pub dispatch_hits: u64,
    /// `DispatchBatch` fingerprint lookups that found nothing.
    pub dispatch_misses: u64,
    /// Distinct analyses currently resident.
    pub entries: u64,
}

/// Lock shards per index of the [`PlanCache`].
const SHARDS: usize = 8;

/// One source's compute-once cell: empty until an analysis of that
/// source succeeds. The miss that analyzes holds it throughout.
type SourceCell = Arc<Mutex<Option<Arc<Analysis>>>>;

/// The sharded plan cache. Cheap to share: clone the [`Arc`] it is
/// handed out in.
pub struct PlanCache {
    /// Keyed by the source text itself (sharded by its FNV-1a hash);
    /// guards the analyze path.
    by_source: Vec<Mutex<HashMap<String, SourceCell>>>,
    /// Keyed by analysis fingerprint; guards the dispatch path.
    by_fp: Vec<Mutex<HashMap<u64, Arc<Analysis>>>>,
    analyze_hits: AtomicU64,
    analyze_misses: AtomicU64,
    dispatch_hits: AtomicU64,
    dispatch_misses: AtomicU64,
    entries: AtomicU64,
    // Registry handles cached at construction: the dispatch lookup is on
    // the server hot path and must not take the registry mutex per call.
    m_analyze_hits: Arc<Counter>,
    m_analyze_misses: Arc<Counter>,
    m_dispatch_hits: Arc<Counter>,
    m_dispatch_misses: Arc<Counter>,
    m_entries: Arc<Gauge>,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("stats", &self.stats())
            .finish()
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn shards<K, V>() -> Vec<Mutex<HashMap<K, V>>> {
    (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect()
}

/// Locks a shard or a cell, recovering it if a panic poisoned it (see
/// module docs).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Default for PlanCache {
    /// An empty cache.
    fn default() -> Self {
        PlanCache {
            by_source: shards(),
            by_fp: shards(),
            analyze_hits: AtomicU64::new(0),
            analyze_misses: AtomicU64::new(0),
            dispatch_hits: AtomicU64::new(0),
            dispatch_misses: AtomicU64::new(0),
            entries: AtomicU64::new(0),
            m_analyze_hits: offload_obs::counter("net.plan_cache.hits"),
            m_analyze_misses: offload_obs::counter("net.plan_cache.misses"),
            m_dispatch_hits: offload_obs::counter("net.plan_cache.dispatch_hits"),
            m_dispatch_misses: offload_obs::counter("net.plan_cache.dispatch_misses"),
            m_entries: offload_obs::gauge("net.plan_cache.entries"),
        }
    }
}

impl PlanCache {
    fn source_shard(&self, source: &str) -> &Mutex<HashMap<String, SourceCell>> {
        &self.by_source[(fnv1a(source.as_bytes()) % SHARDS as u64) as usize]
    }

    /// The cell of `source`, inserted empty if the source is new. The
    /// shard is locked only for this lookup.
    fn source_cell(&self, source: &str) -> SourceCell {
        let mut shard = lock(self.source_shard(source));
        if let Some(cell) = shard.get(source) {
            return Arc::clone(cell);
        }
        let cell = SourceCell::default();
        shard.insert(source.to_string(), Arc::clone(&cell));
        cell
    }

    fn fp_shard(&self, key: u64) -> &Mutex<HashMap<u64, Arc<Analysis>>> {
        &self.by_fp[(key % SHARDS as u64) as usize]
    }

    /// Registers an already-compiled analysis (the server's primary
    /// program) under its fingerprint, returning that fingerprint.
    pub fn register(&self, analysis: Arc<Analysis>) -> u64 {
        let fp = fingerprint(&analysis);
        let mut shard = lock(self.fp_shard(fp));
        if shard.insert(fp, analysis).is_none() {
            self.entries.fetch_add(1, Ordering::Relaxed);
            self.m_entries.add(1);
        }
        fp
    }

    /// Returns the cached analysis for `source`, running the pipeline on
    /// a miss. The boolean is true on a cache hit.
    ///
    /// # Errors
    ///
    /// [`AnalyzeError`] if the program fails to parse, solve or compile;
    /// failures are not cached.
    pub fn analyze(
        &self,
        source: &str,
        options: AnalysisOptions,
    ) -> Result<(Arc<Analysis>, u64, bool), AnalyzeError> {
        let cell = self.source_cell(source);
        // Cell held across `from_source` on purpose: see module docs.
        let mut slot = lock(&cell);
        if let Some(found) = slot.as_ref() {
            self.analyze_hits.fetch_add(1, Ordering::Relaxed);
            self.m_analyze_hits.inc();
            let fp = fingerprint(found);
            return Ok((Arc::clone(found), fp, true));
        }
        self.analyze_misses.fetch_add(1, Ordering::Relaxed);
        self.m_analyze_misses.inc();
        let analysis = match Analysis::from_source(source, options) {
            Ok(analysis) => Arc::new(analysis),
            Err(e) => {
                // Not cached. Drop the empty cell unless another request
                // holds it too (that one analyzes next); clones are only
                // made under the shard lock, so the count cannot grow.
                let mut shard = lock(self.source_shard(source));
                if Arc::strong_count(&cell) == 2 {
                    shard.remove(source);
                }
                return Err(e);
            }
        };
        // Registered before the cell frees, so whoever finds the
        // analysis here can dispatch on its fingerprint at once. Cells
        // and fingerprint shards are always taken in this order.
        let fp = self.register(Arc::clone(&analysis));
        *slot = Some(Arc::clone(&analysis));
        Ok((analysis, fp, false))
    }

    /// Resolves a dispatch fingerprint to its resident analysis.
    pub fn lookup(&self, fp: u64) -> Option<Arc<Analysis>> {
        let shard = lock(self.fp_shard(fp));
        match shard.get(&fp) {
            Some(found) => {
                self.dispatch_hits.fetch_add(1, Ordering::Relaxed);
                self.m_dispatch_hits.inc();
                Some(Arc::clone(found))
            }
            None => {
                self.dispatch_misses.fetch_add(1, Ordering::Relaxed);
                self.m_dispatch_misses.inc();
                None
            }
        }
    }

    /// A snapshot of the usage counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            analyze_hits: self.analyze_hits.load(Ordering::Relaxed),
            analyze_misses: self.analyze_misses.load(Ordering::Relaxed),
            dispatch_hits: self.dispatch_hits.load(Ordering::Relaxed),
            dispatch_misses: self.dispatch_misses.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    const SRC: &str = "int f(int k) { return k * k; }
        void main(int n) { output(f(n)); }";

    #[test]
    fn analyze_caches_by_source_and_fingerprint() {
        let cache = PlanCache::default();
        let (a1, fp1, hit1) = cache.analyze(SRC, AnalysisOptions::default()).unwrap();
        assert!(!hit1);
        let (a2, fp2, hit2) = cache.analyze(SRC, AnalysisOptions::default()).unwrap();
        assert!(hit2);
        assert_eq!(fp1, fp2);
        assert!(Arc::ptr_eq(&a1, &a2));
        assert!(cache.lookup(fp1).is_some());
        assert!(cache.lookup(fp1.wrapping_add(1)).is_none());
        let s = cache.stats();
        assert_eq!((s.analyze_hits, s.analyze_misses), (1, 1));
        assert_eq!((s.dispatch_hits, s.dispatch_misses), (1, 1));
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn register_is_idempotent() {
        let cache = PlanCache::default();
        let analysis = Arc::new(Analysis::from_source(SRC, AnalysisOptions::default()).unwrap());
        let fp = cache.register(Arc::clone(&analysis));
        assert_eq!(cache.register(analysis), fp);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn sources_sharing_a_hash_get_their_own_analyses() {
        // Two programs whose source texts have the same 64-bit FNV-1a
        // hash: the second must be analyzed, not served the first's plans.
        const A: &str = "void main(int n) {\n    output(n);\n}\n// 78740bf640271c58";
        const B: &str = "void main(int n) {\n    output(n + 1);\n}\n// 2f0293eb0a1611d7";
        assert_eq!(fnv1a(A.as_bytes()), fnv1a(B.as_bytes()));
        let cache = PlanCache::default();
        let (_, fp_a, _) = cache.analyze(A, AnalysisOptions::default()).unwrap();
        let (_, fp_b, hit) = cache.analyze(B, AnalysisOptions::default()).unwrap();
        let own = fingerprint(&Analysis::from_source(B, AnalysisOptions::default()).unwrap());
        assert!(!hit, "another program's entry is not a hit");
        assert_eq!(fp_b, own);
        assert_ne!(fp_a, fp_b);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn a_miss_does_not_wait_for_another_sources_analysis_in_its_shard() {
        let slow = offload_benchmarks::rawcaudio().source;
        let shard = |s: &str| fnv1a(s.as_bytes()) % SHARDS as u64;
        // A small program, padded with a comment until it lands in the
        // slow source's shard.
        let fast = (0..)
            .map(|pad| format!("{SRC}\n// {pad}"))
            .find(|s| shard(s) == shard(&slow))
            .expect("some padding lands in every shard");
        let cache = Arc::new(PlanCache::default());
        let done = Arc::new(AtomicBool::new(false));
        let slow_thread = {
            let (cache, done) = (Arc::clone(&cache), Arc::clone(&done));
            std::thread::spawn(move || {
                let hit = cache
                    .analyze(&slow, AnalysisOptions::default())
                    .map(|r| r.2);
                done.store(true, Ordering::SeqCst);
                hit
            })
        };
        while cache.stats().analyze_misses == 0 {
            std::thread::yield_now();
        }
        let (_, _, hit) = cache.analyze(&fast, AnalysisOptions::default()).unwrap();
        assert!(!hit);
        // Only the fast program is registered: a miss that had waited
        // for the slow source's analysis would find it registered too,
        // even if its thread has not set `done` yet.
        let waited = done.load(Ordering::SeqCst) || cache.stats().entries != 1;
        assert!(
            !waited,
            "the miss waited for the other source's analysis to finish"
        );
        assert!(!slow_thread.join().expect("no panic").unwrap());
        assert_eq!(cache.stats().analyze_misses, 2);
    }

    #[test]
    fn concurrent_misses_on_one_source_run_one_analysis() {
        let source = offload_benchmarks::rawcaudio().source;
        let cache = Arc::new(PlanCache::default());
        let start = Arc::new(std::sync::Barrier::new(4));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let (cache, start, source) =
                    (Arc::clone(&cache), Arc::clone(&start), source.clone());
                std::thread::spawn(move || {
                    start.wait();
                    cache.analyze(&source, AnalysisOptions::default()).unwrap()
                })
            })
            .collect();
        let results: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        let s = cache.stats();
        assert_eq!((s.analyze_misses, s.analyze_hits, s.entries), (1, 3, 1));
        let (first, fp, _) = &results[0];
        for (analysis, other_fp, _) in &results {
            assert!(Arc::ptr_eq(analysis, first));
            assert_eq!(other_fp, fp);
        }
        assert_eq!(results.iter().filter(|r| !r.2).count(), 1);
    }

    #[test]
    fn failures_are_not_cached() {
        const BAD: &str = "void main(int n) { output(m); }";
        let cache = PlanCache::default();
        assert!(cache.analyze(BAD, AnalysisOptions::default()).is_err());
        assert!(cache.analyze(BAD, AnalysisOptions::default()).is_err());
        assert_eq!(cache.stats().analyze_misses, 2);
        assert!(!lock(cache.source_shard(BAD)).contains_key(BAD));
    }

    #[test]
    fn a_panic_inside_an_analysis_leaves_the_source_retryable() {
        let cache = PlanCache::default();
        // A thread that panics while it holds SRC's cell, as an analysis
        // that panics inside the pipeline would.
        let cell = cache.source_cell(SRC);
        let poisoner = std::thread::spawn(move || {
            let _slot = cell.lock();
            panic!("panic inside an analysis");
        });
        assert!(poisoner.join().is_err());
        let (_, _, hit) = cache.analyze(SRC, AnalysisOptions::default()).unwrap();
        assert!(!hit);
        let (_, _, hit) = cache.analyze(SRC, AnalysisOptions::default()).unwrap();
        assert!(hit);
    }

    #[test]
    fn a_panic_holding_a_shard_does_not_poison_later_analyses() {
        let cache = Arc::new(PlanCache::default());
        // A thread that panics while it holds SRC's source shard, as an
        // analysis that panics inside the pipeline would.
        let poisoner = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let _shard = cache.source_shard(SRC).lock();
                panic!("panic while holding a source shard");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(cache.source_shard(SRC).is_poisoned());
        let (analysis, fp, hit) = cache.analyze(SRC, AnalysisOptions::default()).unwrap();
        assert!(!hit);
        assert_eq!(fp, fingerprint(&analysis));
        let (_, again, hit) = cache.analyze(SRC, AnalysisOptions::default()).unwrap();
        assert!(hit);
        assert_eq!(again, fp);
        assert!(cache.lookup(fp).is_some());
    }
}
