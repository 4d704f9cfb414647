//! Float-shadowed pivot search for the exact simplex engines.
//!
//! The exact solvers in `lp.rs` and `reduce.rs` pay rational arithmetic
//! for every pivot *and* for choosing it. Choosing well matters: Bland's
//! rule (the historical default in `lp.rs`) is anti-cycling but visits
//! many more bases than Dantzig's rule, and Dantzig's rule on exact
//! rationals costs a full row of big-number comparisons per pivot.
//!
//! The shadow splits the difference, the standard trick from production
//! LP codes: an `f64` image of the reduced-cost row runs the pivot
//! *search* (Dantzig: most-positive entry) at float cost and proposes an
//! entering column; the exact engine then **certifies** the proposal —
//! the exact reduced cost must be strictly positive, and a proposed
//! optimality claim must be confirmed by an exact scan — before
//! replaying the pivot in exact rationals. When certification fails
//! (round-off near a tie, a drifted shadow, or degenerate stalling) the
//! engine re-derives the pivot with Bland's rule from the exact row and
//! resynchronizes the shadow. Every applied pivot is therefore justified
//! by exact arithmetic alone: the float row only ever influences *which*
//! provably-improving pivot is taken, never whether one is taken, so
//! optima, feasibility verdicts, and termination are exactly those of
//! the pure-exact solver.
//!
//! Determinism: IEEE-754 `f64` arithmetic is a pure function of its
//! inputs, so the proposal sequence — and with it the certified pivot
//! sequence and every shadow counter — depends only on the LP system
//! being solved, never on thread scheduling. Results and work counters
//! stay bit-identical at any thread count, which is the repo-wide
//! contract (`DESIGN.md` §15).

use crate::rational::Rational;
use std::sync::atomic::{AtomicBool, Ordering};

/// Proposal threshold: float reduced costs at or below this magnitude are
/// treated as "not positive" by the shadow. Keeps round-off noise around
/// exact zeros (basic columns) from generating doomed proposals; a real
/// positive entry the shadow misses is caught by the exact optimality
/// scan, so the threshold affects speed only, never answers.
const TOL: f64 = 1e-9;

/// Consecutive degenerate (zero-progress) pivots tolerated under shadow
/// guidance before the engine switches to Bland's rule on the exact row,
/// whose anti-cycling guarantee restores the termination proof. Matches
/// the warm-started ladder's stall limit in `reduce.rs`.
pub(crate) const STALL_LIMIT: usize = 24;

static SHADOW_ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables the float shadow process-wide (default: enabled).
///
/// With the shadow off every solver falls back to its historical exact
/// pivot rule. Optima and feasibility verdicts are identical either way
/// (`tests/shadow_prop.rs` checks this differentially); only the pivot
/// path, pivot counts, and the shadow counters change. Intended for
/// tests and A/B measurements, not for production toggling mid-solve.
pub fn set_enabled(on: bool) {
    SHADOW_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the float shadow is currently enabled.
pub fn enabled() -> bool {
    SHADOW_ENABLED.load(Ordering::Relaxed)
}

/// Per-solve tally of shadow activity, flushed to the calling thread's
/// counter record (and, in `lp.rs`, into the result cache so a cache hit
/// replays the original solve's shadow work and the counters stay
/// scheduling-independent).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShadowCounts {
    /// Entering-column (or optimality) proposals the shadow made.
    pub proposals: u64,
    /// Proposals the exact engine certified and replayed verbatim.
    pub certified: u64,
    /// Proposals rejected by exact certification (pivot re-derived with
    /// Bland's rule, shadow resynchronized). `proposals = certified +
    /// fallbacks` always.
    pub fallbacks: u64,
}

impl ShadowCounts {
    /// Adds the tally to the calling thread's counter record.
    pub fn flush(&self) {
        if self.proposals == 0 {
            return;
        }
        offload_obs::tally(|t| {
            t.shadow_proposals += self.proposals;
            t.shadow_certified += self.certified;
            t.shadow_fallbacks += self.fallbacks;
        });
    }
}

/// The `f64` image of a maintained exact reduced-cost row.
///
/// Kept in lockstep with the exact row by [`ShadowRed::pivot_update`]
/// (same rank-1 update, float arithmetic) and resynchronized from the
/// exact row whenever a certification fails, so drift is self-limiting.
#[derive(Default, Clone)]
pub(crate) struct ShadowRed {
    red: Vec<f64>,
}

impl ShadowRed {
    /// Rebuilds the float row from the exact one.
    pub fn sync(&mut self, red: &[Rational]) {
        self.red.clear();
        self.red.extend(red.iter().map(Rational::to_f64));
    }

    /// Dantzig proposal: the column in `0..width` with the largest float
    /// reduced cost above [`TOL`] (smallest index wins ties), or `None`
    /// to claim optimality. Pure function of the row — deterministic.
    pub fn propose(&self, width: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        let mut best_v = TOL;
        for (j, &v) in self.red.iter().enumerate().take(width) {
            if v > best_v {
                best = Some(j);
                best_v = v;
            }
        }
        best
    }

    /// Mirrors the exact engine's reduced-cost update after a certified
    /// pivot on entering column `j`: `red -= rj · prow` over the pivot
    /// row's nonzero columns, with the entering column pinned to the
    /// exact zero the rational update produces.
    pub fn pivot_update(&mut self, rj: f64, nz: &[usize], prow: &[Rational], j: usize) {
        for (&k, v) in nz.iter().zip(prow) {
            if k < self.red.len() {
                self.red[k] -= rj * v.to_f64();
            }
        }
        if j < self.red.len() {
            self.red[j] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rat(n: i64, d: i64) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn propose_picks_largest_positive_smallest_index_on_ties() {
        let mut s = ShadowRed::default();
        s.sync(&[rat(1, 2), rat(3, 1), rat(3, 1), rat(-5, 1)]);
        assert_eq!(s.propose(4), Some(1));
        assert_eq!(s.propose(1), Some(0));
        s.sync(&[rat(0, 1), rat(-1, 1)]);
        assert_eq!(s.propose(2), None);
    }

    #[test]
    fn tol_suppresses_round_off_noise() {
        let mut s = ShadowRed::default();
        s.sync(&[Rational::zero()]);
        s.red[0] = 1e-12; // simulated drift around an exact zero
        assert_eq!(s.propose(1), None);
    }

    #[test]
    fn pivot_update_tracks_exact_row() {
        let mut s = ShadowRed::default();
        s.sync(&[rat(3, 1), rat(2, 1), rat(1, 1)]);
        // Pivot with rj = 2 on column 1, pivot row (1/2, 1, 0).
        s.pivot_update(2.0, &[0, 1], &[rat(1, 2), rat(1, 1)], 1);
        assert_eq!(s.red, vec![2.0, 0.0, 1.0]);
    }

    #[test]
    fn counts_invariant() {
        let c = ShadowCounts {
            proposals: 7,
            certified: 5,
            fallbacks: 2,
        };
        assert_eq!(c.proposals, c.certified + c.fallbacks);
        c.flush();
    }
}
