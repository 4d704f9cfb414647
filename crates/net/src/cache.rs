//! A sharded cache of compiled analyses, keyed two ways: by program
//! source text (so a repeat [`crate::WireMsg::AnalyzeProgram`] skips the
//! whole pipeline) and by analysis fingerprint (so
//! [`crate::WireMsg::DispatchBatch`] frames resolve their plan without
//! retransmitting the program).
//!
//! Sharding keeps the dispatch hot path contention-free under the
//! multi-threaded server: a lookup locks one shard for a [`HashMap`] probe
//! and clones an [`Arc`]. The *analyze* path intentionally holds its
//! source shard's lock across [`Analysis::from_source`] — concurrent
//! requests for the same new program then collapse into one analysis
//! (the losers find the entry on wake) instead of a thundering herd.
//!
//! A panic while a shard is held (inside the analysis, say) poisons that
//! shard's mutex. The maps only ever change by whole `insert`s after a
//! successful analysis, so a poisoned shard still holds consistent
//! entries, and every lock recovers its guard instead of panicking too.

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

/// The sharded plan cache. Cheap to share: clone the [`Arc`] it is
/// handed out in.
pub struct PlanCache {
    /// Keyed by the source text itself (sharded by its FNV-1a hash);
    /// guards the analyze path.
    by_source: Vec<Mutex<HashMap<String, Arc<Analysis>>>>,
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

fn shards<K>() -> Vec<Mutex<HashMap<K, Arc<Analysis>>>> {
    (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect()
}

/// Locks a shard, recovering it if a panic poisoned it (see module docs).
fn lock<K>(shard: &Mutex<HashMap<K, Arc<Analysis>>>) -> MutexGuard<'_, HashMap<K, Arc<Analysis>>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
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
    fn source_shard(&self, source: &str) -> &Mutex<HashMap<String, Arc<Analysis>>> {
        &self.by_source[(fnv1a(source.as_bytes()) % SHARDS as u64) as usize]
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
        // Lock held across `from_source` on purpose: see module docs.
        let mut shard = lock(self.source_shard(source));
        if let Some(found) = shard.get(source) {
            self.analyze_hits.fetch_add(1, Ordering::Relaxed);
            self.m_analyze_hits.inc();
            let fp = fingerprint(found);
            return Ok((Arc::clone(found), fp, true));
        }
        self.analyze_misses.fetch_add(1, Ordering::Relaxed);
        self.m_analyze_misses.inc();
        let analysis = Arc::new(Analysis::from_source(source, options)?);
        shard.insert(source.to_string(), Arc::clone(&analysis));
        // Source shards and fingerprint shards are separate lock pools
        // and always taken in this order, so no cycle is possible.
        let fp = self.register(Arc::clone(&analysis));
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
