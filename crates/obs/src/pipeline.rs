//! The per-solve work record.
//!
//! [`PipelineStats`] is the one record a parametric solve counts into:
//! Dinic effort in `offload-flow`, LP / projection effort in
//! `offload-poly`, and engine-level counters (regions, rounds, timings)
//! in `offload-core`. `offload-core` re-exports it unchanged.
//!
//! Each counter is declared once, in the `counters!` list below, with
//! its kind: a deterministic work counter or a wall-clock timing. The struct, the [`PipelineStats::COUNTERS`] table,
//! name/value access and field-wise addition are generated from that
//! list; [`PipelineStats::work_counters`],
//! [`PipelineStats::publish_metrics`] and the `solve_counters`
//! experiment of `offload-bench` iterate the table. A new counter
//! therefore touches this file only.
//!
//! Counting is per thread, with no shared state: a layer adds into the
//! calling thread's record with [`tally`], and a solve, which runs on
//! one thread, measures its own work with [`tallied`]. Two solves running
//! at once in one process therefore never see each other's counts.

use std::cell::RefCell;
use std::fmt;
use std::ops::AddAssign;

/// What a [`PipelineStats`] counter measures, which decides whether it
/// belongs to [`PipelineStats::work_counters`] and how
/// [`PipelineStats::publish_metrics`] exports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// A pure work counter: identical on every run of the same input
    /// (the engine's determinism contract). Published as a counter.
    Work,
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
    /// The field name, also the counter's row label in
    /// `results/solve_counters.txt`.
    pub name: &'static str,
    /// The metric it publishes into (`pipeline.<name>`).
    pub metric: &'static str,
    /// What it measures.
    pub kind: CounterKind,
}

macro_rules! counters {
    ($($(#[doc = $doc:literal])* $field:ident = $kind:ident,)*) => {
        /// Work counters across every layer of one parametric solve.
        ///
        /// Every field is a `u64`.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct PipelineStats {
            $($(#[doc = $doc])* pub $field: u64,)*
        }

        /// Number of declared counters.
        const COUNT: usize = [$(stringify!($field)),*].len();

        impl PipelineStats {
            /// Every counter, in declaration order (which is also the
            /// order of [`Self::entries`]).
            pub const COUNTERS: &'static [CounterSpec] = &[$(CounterSpec {
                name: stringify!($field),
                metric: concat!("pipeline.", stringify!($field)),
                kind: CounterKind::$kind,
            },)*];

            const ZERO: PipelineStats = PipelineStats { $($field: 0,)* };

            /// Every counter's value, parallel to [`Self::COUNTERS`].
            fn values(&self) -> [u64; COUNT] {
                [$(self.$field),*]
            }

            /// Sets the counter called `name`. Returns `false` (and
            /// changes nothing) for a name that is not declared.
            pub fn set(&mut self, name: &str, value: u64) -> bool {
                match name {
                    $(stringify!($field) => self.$field = value,)*
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
    flow_solves = Work,
    /// Dinic BFS level phases.
    flow_phases = Work,
    /// Dinic augmenting paths pushed.
    flow_augmenting_paths = Work,
    /// Simplex LP solves (`lp_maximize` entries, including the internal
    /// ones behind emptiness tests and redundancy reduction).
    lp_solves = Work,
    /// Simplex pivots.
    lp_pivots = Work,
    /// Variables eliminated by polyhedral projection (equality
    /// substitution or Fourier–Motzkin).
    fm_vars_eliminated = Work,
    /// Constraints generated by Fourier–Motzkin combination (before
    /// pruning).
    fm_constraints = Work,
    /// Always 0: the poly layer has no LP result cache. Kept while
    /// perfbench still reads it (ROADMAP item 3).
    lp_cache_hits = Work,
    /// `BigInt` results that outgrew the inline `i64` representation and
    /// allocated heap limbs.
    small_int_promotions = Work,
    /// Cuts accepted by the region-exploration engine.
    regions_explored = Work,
    /// Worklist rounds of the exact engine.
    rounds = Work,
    /// Exact syntactic duplicates dropped by the canonical-form dedup
    /// pre-filter.
    prefilter_dedup = Work,
    /// Parallel half-spaces dropped by the syntactic dominance sweep
    /// (same canonical direction, provably weaker bound).
    prefilter_dominance = Work,
    /// Implication checks discharged by interval/bound propagation
    /// without touching the LP.
    prefilter_interval = Work,
    /// Implication checks answered "not implied" by a cached vertex of
    /// the kept set, without an LP.
    prefilter_witness = Work,
    /// Implication checks answered by the warm-started incremental LP
    /// (primal phase-2 from the previous feasible basis).
    lp_warm_starts = Work,
    /// Dual-simplex pivots spent restoring feasibility after pushing a
    /// kept constraint into the incremental LP.
    dual_pivots = Work,
    /// Wall-clock microseconds inside redundancy elimination (pre-filters
    /// + warm-started implication checks).
    prune_micros = Micros,
    /// Wall-clock microseconds inside polyhedron emptiness LPs (the
    /// region-subtraction hot path).
    region_lp_micros = Micros,
    /// Always 0: the simplex kernel has no float shadow to fall back
    /// from. Kept while perfbench still reads it (ROADMAP item 3).
    shadow_fallbacks = Work,
    /// Wall-clock microseconds of the §5.4 simplification.
    simplify_micros = Micros,
    /// Wall-clock microseconds of the region exploration (everything
    /// after simplification).
    solve_micros = Micros,
}

impl PipelineStats {
    /// `(name, value)` for every counter, in declaration order.
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

    /// This record with every counter that is not
    /// [`CounterKind::Work`] zeroed. What remains are pure work
    /// counters, which the engine's determinism contract requires to be
    /// identical on every run of the same input.
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
                CounterKind::Work => crate::counter(c.metric).add(value),
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
/// thread while it ran. The counts are also added to the enclosing
/// record, so measurements nest.
pub fn tallied<R>(f: impl FnOnce() -> R) -> (R, PipelineStats) {
    let outer = take_tally();
    let out = f();
    let inner = CURRENT.with(|r| r.replace(outer));
    tally(|t| *t += inner);
    (out, inner)
}

/// Runs `f` and drops whatever it counts on this thread. For checks
/// that only some builds run (debug assertions), so that no work counter
/// depends on the build profile.
pub fn untallied<R>(f: impl FnOnce() -> R) -> R {
    let outer = take_tally();
    let out = f();
    CURRENT.with(|r| r.replace(outer));
    out
}

/// Takes the calling thread's record, leaving it zeroed.
fn take_tally() -> PipelineStats {
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
            "poly: {} LP solves, {} pivots, {} vars eliminated, {} FM constraints, {} bigint promotions",
            self.lp_solves,
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
            "core: {} regions in {} rounds",
            self.regions_explored, self.rounds
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

    #[test]
    fn untallied_work_is_dropped() {
        let (_, counted) = tallied(|| {
            tally(|t| t.lp_solves += 1);
            untallied(|| tally(|t| t.lp_solves += 5));
            tally(|t| t.lp_solves += 1);
        });
        assert_eq!(counted.lp_solves, 2);
    }
}
