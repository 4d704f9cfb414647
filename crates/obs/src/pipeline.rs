//! The per-solve work record.
//!
//! [`PipelineStats`] is the one record a parametric solve counts into:
//! Dinic effort in `offload-flow`, LP / projection effort in
//! `offload-poly`, and engine-level counters (rounds, cache behaviour,
//! timings) in `offload-core`. `offload-core` re-exports it unchanged.
//!
//! Each counter is declared once, in the `counters!` list below, with
//! its kind: a deterministic work counter, a scheduling-dependent count,
//! the configured thread count, or a wall-clock timing. The struct, the
//! [`PipelineStats::COUNTERS`] table, name/value access and field-wise
//! addition are generated from that list; [`PipelineStats::work_counters`],
//! [`PipelineStats::publish_metrics`], the net protocol's codec and the
//! bench JSON iterate the table. A new counter therefore touches this
//! file only.
//!
//! Counting is per thread, with no shared state: a layer adds into the
//! calling thread's record with [`tally`], a solve measures its own
//! work with [`tallied`], and a scoped fan-out hands each worker's record
//! ([`take_tally`]) back to the joining thread. Two solves running at
//! once in one process therefore never see each other's counts.

use std::cell::RefCell;
use std::fmt;
use std::ops::AddAssign;

/// What a [`PipelineStats`] counter measures, which decides whether it
/// belongs to [`PipelineStats::work_counters`] and how
/// [`PipelineStats::publish_metrics`] exports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// A pure work counter: identical for every thread count (the
    /// engine's determinism contract). Published as a counter.
    Work,
    /// A count that legitimately varies with thread scheduling, such as
    /// hits in a per-thread cache. Published as a counter.
    Scheduling,
    /// The configured worker count. Published as a gauge.
    Config,
    /// Wall-clock microseconds. Published as a histogram.
    Micros,
}

impl CounterKind {
    /// `true` for counters the determinism contract covers.
    pub fn deterministic(self) -> bool {
        self == CounterKind::Work
    }
}

/// One declared counter of [`PipelineStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSpec {
    /// The field name, also the counter's wire and JSON key.
    pub name: &'static str,
    /// The metric it publishes into (`pipeline.<name>`).
    pub metric: &'static str,
    /// What it measures.
    pub kind: CounterKind,
}

macro_rules! counters {
    ($($(#[doc = $doc:literal])* $field:ident: $ty:ty = $kind:ident,)*) => {
        /// Work counters across every layer of one parametric solve.
        ///
        /// Every field is a plain integer. Counter values may
        /// legitimately differ between runs with different thread counts
        /// or cache settings (see [`CounterKind`]); the partitioning
        /// output never does.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct PipelineStats {
            $($(#[doc = $doc])* pub $field: $ty,)*
        }

        /// Number of declared counters.
        const COUNT: usize = [$(stringify!($field)),*].len();

        impl PipelineStats {
            /// Every counter, in declaration order (which is also the
            /// order of [`Self::entries`], the wire and the bench JSON).
            pub const COUNTERS: &'static [CounterSpec] = &[$(CounterSpec {
                name: stringify!($field),
                metric: concat!("pipeline.", stringify!($field)),
                kind: CounterKind::$kind,
            },)*];

            const ZERO: PipelineStats = PipelineStats { $($field: 0,)* };

            /// Every counter's value, parallel to [`Self::COUNTERS`].
            fn values(&self) -> [u64; COUNT] {
                [$(u64::from(self.$field)),*]
            }

            /// Sets the counter called `name`, saturating a value its
            /// field cannot hold. Returns `false` (and changes nothing)
            /// for a name that is not declared.
            pub fn set(&mut self, name: &str, value: u64) -> bool {
                match name {
                    $(stringify!($field) => {
                        self.$field = <$ty>::try_from(value).unwrap_or(<$ty>::MAX)
                    })*
                    _ => return false,
                }
                true
            }
        }

        impl AddAssign for PipelineStats {
            fn add_assign(&mut self, other: PipelineStats) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

counters! {
    /// Max-flow solves performed (concrete min-cuts at sample points).
    flow_solves: u64 = Work,
    /// Dinic BFS level phases.
    flow_phases: u64 = Work,
    /// Dinic augmenting paths pushed.
    flow_augmenting_paths: u64 = Work,
    /// Simplex LP solves (`lp_maximize` entries, including the internal
    /// ones behind emptiness tests and redundancy reduction).
    lp_solves: u64 = Work,
    /// Simplex pivots. A cached LP solve adds its stored pivot count, so
    /// this stays scheduling-independent.
    lp_pivots: u64 = Work,
    /// Variables eliminated by polyhedral projection (equality
    /// substitution or Fourier–Motzkin).
    fm_vars_eliminated: u64 = Work,
    /// Constraints generated by Fourier–Motzkin combination (before
    /// pruning).
    fm_constraints: u64 = Work,
    /// LP solves answered from the poly layer's thread-local result cache
    /// without re-running the simplex.
    lp_cache_hits: u64 = Scheduling,
    /// `BigInt` results that outgrew the inline `i64` representation and
    /// allocated heap limbs (cached LP solves skip the arithmetic).
    small_int_promotions: u64 = Scheduling,
    /// Cuts accepted by the region-exploration engine.
    regions_explored: u64 = Work,
    /// Worklist rounds of the parallel engine.
    rounds: u64 = Work,
    /// Cut-signature cache hits.
    cache_hits: u64 = Work,
    /// Cut-signature cache misses (projections actually performed).
    cache_misses: u64 = Work,
    /// Worker threads the engine was configured with.
    threads_used: u32 = Config,
    /// Exact syntactic duplicates dropped by the canonical-form dedup
    /// pre-filter.
    prefilter_dedup: u64 = Work,
    /// Parallel half-spaces dropped by the syntactic dominance sweep
    /// (same canonical direction, provably weaker bound).
    prefilter_dominance: u64 = Work,
    /// Implication checks discharged by interval/bound propagation
    /// without touching the LP.
    prefilter_interval: u64 = Work,
    /// Implication checks answered "not implied" by a cached vertex of
    /// the kept set, without an LP.
    prefilter_witness: u64 = Work,
    /// Implication checks answered by the warm-started incremental LP
    /// (primal phase-2 from the previous feasible basis).
    lp_warm_starts: u64 = Work,
    /// Dual-simplex pivots spent restoring feasibility after pushing a
    /// kept constraint into the incremental LP.
    dual_pivots: u64 = Work,
    /// Wall-clock microseconds inside redundancy elimination (pre-filters
    /// + warm-started implication checks), summed across worker threads.
    prune_micros: u64 = Micros,
    /// Wall-clock microseconds inside polyhedron emptiness LPs (the
    /// region-subtraction hot path), summed across worker threads.
    region_lp_micros: u64 = Micros,
    /// Entering-column (or optimality) proposals made by the f64 shadow
    /// simplex. A cached LP solve replays its stored shadow counts.
    shadow_proposals: u64 = Work,
    /// Shadow proposals the exact engine certified.
    shadow_certified: u64 = Work,
    /// Shadow proposals that failed exact certification, forcing an
    /// exact-rule fallback and a shadow resync.
    /// `shadow_proposals = shadow_certified + shadow_fallbacks`.
    shadow_fallbacks: u64 = Work,
    /// Wall-clock microseconds of the §5.4 simplification.
    simplify_micros: u64 = Micros,
    /// Wall-clock microseconds of the region exploration (everything
    /// after simplification).
    solve_micros: u64 = Micros,
}

impl PipelineStats {
    /// `(name, value)` for every counter, in declaration order: what the
    /// wire codec and the bench JSON write.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, u64)> {
        Self::COUNTERS.iter().map(|c| c.name).zip(self.values())
    }

    /// Implication checks the pre-filter ladder discharged without an LP
    /// solve (dedup + dominance + interval + witness points).
    pub fn prefilter_hits(&self) -> u64 {
        self.prefilter_dedup
            + self.prefilter_dominance
            + self.prefilter_interval
            + self.prefilter_witness
    }

    /// Cache hit rate in `[0, 1]` (zero when the cache was never
    /// consulted).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// This record with every counter that is not
    /// [`CounterKind::Work`] zeroed. What remains are pure work
    /// counters, which the engine's determinism contract requires to be
    /// identical for every thread count.
    pub fn work_counters(&self) -> PipelineStats {
        let mut out = *self;
        for c in Self::COUNTERS.iter().filter(|c| !c.kind.deterministic()) {
            out.set(c.name, 0);
        }
        out
    }

    /// Publishes every counter into the process-wide metrics registry
    /// as `pipeline.<name>`, so metric consumers see the same numbers as
    /// [`PipelineStats`] readers.
    pub fn publish_metrics(&self) {
        for (c, value) in Self::COUNTERS.iter().zip(self.values()) {
            match c.kind {
                CounterKind::Work | CounterKind::Scheduling => crate::counter(c.metric).add(value),
                CounterKind::Config => crate::gauge(c.metric).set(value as i64),
                CounterKind::Micros => crate::histogram(c.metric).record(value),
            }
        }
    }
}

thread_local! {
    static CURRENT: RefCell<PipelineStats> = const { RefCell::new(PipelineStats::ZERO) };
}

/// Adds work into the calling thread's record.
pub fn tally(f: impl FnOnce(&mut PipelineStats)) {
    CURRENT.with(|r| f(&mut r.borrow_mut()));
}

/// Runs `f` and returns its output with everything counted on this
/// thread while it ran, including what scoped workers handed back. The
/// counts are also added to the enclosing record, so measurements nest.
pub fn tallied<R>(f: impl FnOnce() -> R) -> (R, PipelineStats) {
    let outer = take_tally();
    let out = f();
    let inner = CURRENT.with(|r| r.replace(outer));
    tally(|t| *t += inner);
    (out, inner)
}

/// Takes the calling thread's record, leaving it zeroed. A scoped
/// worker returns this to the thread that joins it.
pub fn take_tally() -> PipelineStats {
    CURRENT.with(RefCell::take)
}

impl fmt::Display for PipelineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "flow: {} solves, {} phases, {} augmenting paths",
            self.flow_solves, self.flow_phases, self.flow_augmenting_paths
        )?;
        writeln!(
            f,
            "poly: {} LP solves ({} cached), {} pivots, {} vars eliminated, {} FM constraints, {} bigint promotions",
            self.lp_solves,
            self.lp_cache_hits,
            self.lp_pivots,
            self.fm_vars_eliminated,
            self.fm_constraints,
            self.small_int_promotions
        )?;
        writeln!(
            f,
            "prune: {} prefilter hits, {} warm starts, {} dual pivots",
            self.prefilter_hits(),
            self.lp_warm_starts,
            self.dual_pivots
        )?;
        writeln!(
            f,
            "shadow: {} proposals ({} certified, {} fallbacks)",
            self.shadow_proposals, self.shadow_certified, self.shadow_fallbacks
        )?;
        writeln!(
            f,
            "core: {} regions in {} rounds on {} thread(s), cache {}/{} ({:.0}% hit)",
            self.regions_explored,
            self.rounds,
            self.threads_used,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            self.cache_hit_rate() * 100.0
        )?;
        write!(
            f,
            "time: simplify {} us, solve {} us (prune {} us, region LPs {} us)",
            self.simplify_micros, self.solve_micros, self.prune_micros, self.region_lp_micros
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_unknown_names_are_rejected() {
        let mut s = PipelineStats::default();
        for (i, c) in PipelineStats::COUNTERS.iter().enumerate() {
            assert!(s.set(c.name, i as u64 + 1));
        }
        let again: Vec<u64> = s.entries().map(|(_, v)| v).collect();
        assert_eq!(again, (1..=COUNT as u64).collect::<Vec<_>>());
        assert!(!s.set("no_such_counter", 5));
        s.set("threads_used", u64::MAX);
        assert_eq!(s.threads_used, u32::MAX, "out-of-range values saturate");
    }

    #[test]
    fn work_counters_keep_exactly_the_work_kind() {
        let mut s = PipelineStats::default();
        for c in PipelineStats::COUNTERS {
            s.set(c.name, 7);
        }
        let w = s.work_counters();
        for (c, v) in PipelineStats::COUNTERS.iter().zip(w.values()) {
            assert_eq!(v, if c.kind.deterministic() { 7 } else { 0 }, "{}", c.name);
        }
    }

    #[test]
    fn tallied_isolates_threads_and_nests() {
        let (_, outer) = tallied(|| {
            tally(|t| t.lp_solves += 1);
            let (_, inner) = tallied(|| tally(|t| t.lp_pivots += 3));
            assert_eq!(inner.lp_pivots, 3);
            assert_eq!(inner.lp_solves, 0);
            let handed = std::thread::scope(|s| {
                s.spawn(|| {
                    tally(|t| t.lp_solves += 10);
                    take_tally()
                })
                .join()
                .unwrap()
            });
            tally(|t| *t += handed);
        });
        assert_eq!((outer.lp_solves, outer.lp_pivots), (11, 3));
    }
}
