//! Float-shadowed pivot search for the exact simplex kernel
//! (`simplex.rs`).
//!
//! The exact kernel pays exact arithmetic for every pivot *and* for
//! choosing it. Choosing well matters: Bland's rule is anti-cycling but
//! visits many more bases than Dantzig's rule, and Dantzig's rule on the
//! exact row costs a full row of big-number comparisons per pivot.
//!
//! The shadow splits the difference, the standard trick from production
//! LP codes: an `f64` image of the reduced-cost row runs the pivot
//! *search* (Dantzig: most-positive entry) at float cost and proposes an
//! entering column; the kernel then **certifies** the proposal — the
//! exact reduced cost must be strictly positive, and a proposed
//! optimality claim must be confirmed by an exact scan — before
//! replaying the pivot in exact arithmetic. When certification fails
//! (round-off near a tie or a drifted shadow) the caller's exact rule
//! picks the pivot from the exact row and the shadow is resynchronized.
//! Every applied pivot is therefore justified by exact arithmetic alone:
//! the float row only ever influences *which* provably-improving pivot is
//! taken, never whether one is taken, so optima, feasibility verdicts,
//! and termination are exactly those of the pure-exact solver.
//!
//! Determinism: IEEE-754 `f64` arithmetic is a pure function of its
//! inputs, so the proposal sequence — and with it the certified pivot
//! sequence and every shadow counter — depends only on the LP system
//! being solved. Results and work counters repeat exactly on every run,
//! which is the repo-wide contract (`DESIGN.md` §15).
//!
//! The kernel keeps its rows as integers over positive scales, so every
//! value the shadow reads is a quotient `n / d` of two integers that are
//! not in lowest terms. [`ratio_f64`] turns it into the same `f64` that
//! [`Rational::to_f64`] gives for the reduced fraction: when both sides
//! fit 53 bits they convert exactly and IEEE division rounds the true
//! quotient correctly, as it does for the reduced pair; past 2^53 it
//! reduces first and converts exactly as `Rational::to_f64` does. So the
//! float row, and with it the pivot path, does not depend on the rows'
//! scales.

use crate::bigint::BigInt;
use crate::rational::Rational;

/// Proposal threshold: float reduced costs at or below this magnitude are
/// treated as "not positive" by the shadow. Keeps round-off noise around
/// exact zeros (basic columns) from generating doomed proposals; a real
/// positive entry the shadow misses is caught by the exact optimality
/// scan, so the threshold affects speed only, never answers.
const TOL: f64 = 1e-9;

/// Tally of shadow activity, flushed to the calling thread's counter
/// record when its solve ends.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShadowCounts {
    /// Entering-column (or optimality) proposals the shadow made.
    pub proposals: u64,
    /// Proposals the exact engine certified and replayed verbatim.
    pub certified: u64,
    /// Proposals rejected by exact certification (pivot re-derived by the
    /// exact rule, shadow resynchronized). `proposals = certified +
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
#[derive(Default)]
pub(crate) struct ShadowRed {
    red: Vec<f64>,
    /// Proposals made since the owner last took the tally.
    pub counts: ShadowCounts,
}

/// The `f64` of `n / d` (`d > 0`), bit for bit what
/// [`Rational::to_f64`] gives for the fraction in lowest terms.
pub(crate) fn ratio_f64(n: &BigInt, d: &BigInt) -> f64 {
    const EXACT: u64 = 1 << 53;
    if let (Some(a), Some(b)) = (n.as_small(), d.as_small()) {
        if a.unsigned_abs() <= EXACT && b.unsigned_abs() <= EXACT {
            return a as f64 / b as f64;
        }
    }
    Rational::from_bigints(n.clone(), d.clone()).to_f64()
}

impl ShadowRed {
    /// Rebuilds the float row from the exact one, numerators `red` over
    /// the denominator `den`.
    pub fn sync(&mut self, red: &[BigInt], den: &BigInt) {
        self.red.clear();
        self.red.extend(red.iter().map(|r| ratio_f64(r, den)));
    }

    /// Dantzig proposal: the column with the largest float reduced cost
    /// above [`TOL`] (smallest index wins ties), or `None` to claim
    /// optimality. Pure function of the row — deterministic.
    fn propose(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        let mut best_v = TOL;
        for (j, &v) in self.red.iter().enumerate() {
            if v > best_v {
                best = Some(j);
                best_v = v;
            }
        }
        best
    }

    /// The entering column for the exact row `red / den`: the shadow's
    /// proposal if its exact reduced cost is positive, or `None` if the
    /// shadow claims optimality and `exact` confirms it. Any other
    /// outcome is a failed certification: `exact` picks the column and
    /// the shadow is resynchronized.
    pub fn certify(
        &mut self,
        red: &[BigInt],
        den: &BigInt,
        exact: impl FnOnce() -> Option<usize>,
    ) -> Option<usize> {
        self.counts.proposals += 1;
        let prop = self.propose();
        if let Some(p) = prop.filter(|&p| red[p].is_positive()) {
            self.counts.certified += 1;
            return Some(p);
        }
        let col = exact();
        if prop.is_none() && col.is_none() {
            self.counts.certified += 1; // optimality claim confirmed
        } else {
            self.counts.fallbacks += 1;
            self.sync(red, den);
        }
        col
    }

    /// Mirrors the exact kernel's reduced-cost update after a pivot on
    /// entering column `j`: `red -= rj · prow / aij` over the pivot row's
    /// nonzero columns `nz` (values `prow`, pivot entry `aij > 0`), with
    /// the entering column pinned to the exact zero the exact update
    /// produces.
    pub fn pivot_update(&mut self, rj: f64, nz: &[usize], prow: &[BigInt], aij: &BigInt, j: usize) {
        for (&k, v) in nz.iter().zip(prow) {
            self.red[k] -= rj * ratio_f64(v, aij);
        }
        self.red[j] = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(v: &[i64]) -> Vec<BigInt> {
        v.iter().map(|&x| BigInt::from(x)).collect()
    }

    #[test]
    fn propose_picks_largest_positive_smallest_index_on_ties() {
        let mut s = ShadowRed::default();
        // 1/2, 3, 3, -5 over the denominator 2.
        s.sync(&ints(&[1, 6, 6, -10]), &BigInt::from(2));
        assert_eq!(s.propose(), Some(1));
        s.sync(&ints(&[1]), &BigInt::from(2));
        assert_eq!(s.propose(), Some(0));
        s.sync(&ints(&[0, -1]), &BigInt::one());
        assert_eq!(s.propose(), None);
    }

    #[test]
    fn tol_suppresses_round_off_noise() {
        let mut s = ShadowRed::default();
        s.sync(&ints(&[0]), &BigInt::one());
        s.red[0] = 1e-12; // simulated drift around an exact zero
        assert_eq!(s.propose(), None);
    }

    #[test]
    fn pivot_update_tracks_exact_row() {
        let mut s = ShadowRed::default();
        s.sync(&ints(&[3, 2, 1]), &BigInt::one());
        // Pivot with rj = 2 on column 1, pivot row (1, 2, 0) with
        // pivot entry 2: the normalized row is (1/2, 1, 0).
        s.pivot_update(2.0, &[0, 1], &ints(&[1, 2]), &BigInt::from(2), 1);
        assert_eq!(s.red, vec![2.0, 0.0, 1.0]);
    }

    #[test]
    fn ratio_f64_matches_the_reduced_fraction() {
        let big = |s: &str| s.parse::<BigInt>().unwrap();
        let cases = [
            (BigInt::from(1), BigInt::from(3)),
            (BigInt::from(-6), BigInt::from(9)),
            (BigInt::from(0), BigInt::from(7)),
            (BigInt::from(1i64 << 53), BigInt::from(3)),
            // Past 2^53 the unreduced pair rounds on conversion, and
            // its quotient is not the reduced fraction's: 1/3, -4/9, 2/7.
            (
                BigInt::from(9007199254740993i64),
                BigInt::from(27021597764222979i64),
            ),
            (
                BigInt::from(-36028797018963972i64),
                BigInt::from(81064793292668937i64),
            ),
            (
                BigInt::from(18014398509481990i64),
                BigInt::from(63050394783186965i64),
            ),
            (
                BigInt::from(-(1i64 << 60) - 3),
                BigInt::from((1i64 << 54) + 7),
            ),
            (big("36893488147419103233"), big("18446744073709551617")),
            (
                big("-170141183460469231731687303715884105727"),
                BigInt::from(5),
            ),
        ];
        for (n, d) in cases {
            let want = Rational::from_bigints(n.clone(), d.clone()).to_f64();
            assert_eq!(ratio_f64(&n, &d).to_bits(), want.to_bits(), "{n}/{d}");
        }
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
