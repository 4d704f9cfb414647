//! Convex polyhedra as systems of linear constraints, with exact
//! Fourier–Motzkin elimination.
//!
//! This module is the substitute for the PolyLib library used by the paper:
//! the parametric partitioning algorithm needs intersection, existential
//! projection (to eliminate flow variables in Lemma 1), emptiness testing,
//! and interior-point sampling — all of which Fourier–Motzkin provides
//! soundly over exact rationals, including strict inequalities.
//!
//! # Projection
//!
//! [`Polyhedron::try_eliminate_vars`] drops the all-zero columns, prunes,
//! substitutes equalities away (phase 1, which never grows the system),
//! and runs Fourier–Motzkin on what is left (phase 2). Phase 2 works on a
//! private integer row (`Row`): `BigInt` variable coefficients with gcd
//! one and the constant as a reduced fraction, which is the canonical form
//! pruning produces and the key it deduplicates on, plus a bitset over the
//! phase-2 input rows that the row combines. Imbert's rule is a popcount
//! of two histories' union, taken before a row is built, and Chernikov's
//! rule is a word-wise subset test. A derived row costs one gcd pass, and
//! a surviving row is never normalized again. Rows become [`Constraint`]s
//! only for the LP redundancy filter and on output, in exactly the form
//! pruning gives them.
//!
//! Maps keyed by exact values hash with the crate's one deterministic
//! multiplicative hasher (`hash.rs`). Full-key equality decides every
//! match, and no output depends on iteration order.

use crate::bigint::BigInt;
use crate::hash::{ExactMap, WordHasher};
use crate::linear::{Cmp, Constraint, LinExpr};
use crate::rational::{cmp_fractions, Rational};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// System size past which Fourier–Motzkin rounds run the warm-started
/// LP redundancy filter ([`lp_reduce_with_history`]). Tuned on the
/// audio/fft benchmarks: each implication check on the incremental
/// solver is cheap enough that reducing early — before the quadratic
/// combination step can square a bloated system — wins decisively over
/// letting the cheap syntactic filters run alone.
const LP_REDUCE_THRESHOLD: usize = 150;

/// Returned by the `try_` projection entry points when a Fourier–Motzkin
/// elimination is (or is predicted to be) too expensive for the caller's
/// row budget.
///
/// Two triggers, both pure functions of the input system and the budget,
/// so callers can treat this as a deterministic, typed "projection is
/// intractable" verdict:
///
/// * **admission**: before any combination work, the worst-case row
///   estimate `vars × ⌈rows/2⌉²` of the post-substitution system already
///   exceeds the budget. This rejects in microseconds the systems whose
///   cost is per-round redundancy elimination rather than row growth
///   (hundreds of surviving flow variables each needing an LP sweep per
///   round — hours of work while generating almost no rows);
/// * **generation**: the rows actually derived during elimination exceed
///   the budget mid-round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProjectionBudgetExceeded {
    /// The row count that exceeded the budget: the up-front worst-case
    /// estimate (admission) or the rows generated before giving up
    /// (generation; one more than the budget).
    pub generated: u64,
}

impl fmt::Display for ProjectionBudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Fourier–Motzkin elimination exceeded its row budget ({} rows estimated or generated)",
            self.generated
        )
    }
}

impl std::error::Error for ProjectionBudgetExceeded {}

/// A (possibly unbounded, possibly empty) convex polyhedron
/// `{ x | A x (>=|>) b }` in `nvars` dimensions.
///
/// # Examples
///
/// ```
/// use offload_poly::{Polyhedron, LinExpr, Constraint, Rational};
///
/// // { (x, y) | x >= 1, y >= 2, x + y <= 4 }
/// let mut p = Polyhedron::universe(2);
/// p.add(Constraint::ge0(LinExpr::var(2, 0).plus_constant(Rational::from(-1))));
/// p.add(Constraint::ge0(LinExpr::var(2, 1).plus_constant(Rational::from(-2))));
/// p.add(Constraint::ge0(
///     LinExpr::constant(2, Rational::from(4))
///         .plus_term(0, Rational::from(-1))
///         .plus_term(1, Rational::from(-1)),
/// ));
/// assert!(!p.is_empty());
/// let point = p.sample().expect("non-empty");
/// assert!(p.contains(&point));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Polyhedron {
    nvars: usize,
    constraints: Vec<Constraint>,
}

impl Polyhedron {
    /// The full space in `nvars` dimensions.
    pub fn universe(nvars: usize) -> Self {
        Polyhedron {
            nvars,
            constraints: Vec::new(),
        }
    }

    /// An empty polyhedron in `nvars` dimensions.
    pub fn empty(nvars: usize) -> Self {
        let mut p = Polyhedron::universe(nvars);
        // 0 > 0 is unsatisfiable.
        p.add(Constraint::gt0(LinExpr::zero(nvars)));
        p
    }

    /// Builds a polyhedron from constraints.
    ///
    /// # Panics
    ///
    /// Panics if any constraint has a different variable count.
    pub fn from_constraints(nvars: usize, constraints: Vec<Constraint>) -> Self {
        let mut p = Polyhedron::universe(nvars);
        for c in constraints {
            p.add(c);
        }
        p
    }

    /// Number of dimensions.
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// The constraint system (not necessarily minimal).
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Adds one constraint.
    ///
    /// # Panics
    ///
    /// Panics if the constraint's variable count differs.
    pub fn add(&mut self, c: Constraint) {
        assert_eq!(c.expr.nvars(), self.nvars, "constraint dimension mismatch");
        self.constraints.push(c);
    }

    /// Intersection of two polyhedra in the same space.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn intersect(&self, other: &Polyhedron) -> Polyhedron {
        assert_eq!(self.nvars, other.nvars, "polyhedron dimension mismatch");
        let mut out = self.clone();
        for c in &other.constraints {
            out.add(c.clone());
        }
        out
    }

    /// Returns `true` if the point satisfies every constraint.
    pub fn contains(&self, point: &[Rational]) -> bool {
        self.constraints.iter().all(|c| c.holds_at(point))
    }

    /// Removes duplicate and dominated constraints; returns `None` if a
    /// trivially false constraint is found (the polyhedron is empty).
    fn pruned(&self) -> Option<Polyhedron> {
        self.pruned_inner(false)
    }

    /// [`Self::pruned`] with the drops attributed to the pre-filter
    /// counters — used by the redundancy-elimination pipeline, where
    /// "how many LP checks did the syntactic ladder discharge" is the
    /// quantity of interest. Generic callers use the uncounted wrapper so
    /// incidental pruning (display, sampling) does not pollute the stats.
    fn pruned_counted(&self) -> Option<Polyhedron> {
        self.pruned_inner(true)
    }

    fn pruned_inner(&self, count: bool) -> Option<Polyhedron> {
        // Key: canonical integer variable-coefficient vector (gcd 1).
        // Constraints sharing a key differ only in constant / strictness;
        // only the tightest survives. `order` pins the output to
        // first-encounter order — constraint order steers downstream
        // Fourier–Motzkin combination and region subtraction, so it must
        // not depend on hash iteration.
        let mut best: ExactMap<Vec<Rational>, (Rational, Cmp)> = ExactMap::default();
        let mut order: Vec<Vec<Rational>> = Vec::new();
        for c in &self.constraints {
            let n = c.normalize();
            match n.trivial_truth() {
                Some(true) => continue,
                Some(false) => return None,
                None => {}
            }
            // Re-canonicalize over variable coefficients only so that the
            // constant term is comparable across constraints.
            let varscale = var_coeff_canonical(&n);
            let (key, constant, cmp) = varscale;
            match best.get_mut(&key) {
                None => {
                    order.push(key.clone());
                    best.insert(key, (constant, cmp));
                }
                Some((c0, m0)) => {
                    if count {
                        if constant == *c0 && cmp == *m0 {
                            // Syntactically identical rows collapse to one.
                            offload_obs::tally(|t| t.prefilter_dedup += 1);
                        } else {
                            // Parallel half-spaces: one bound dominates.
                            offload_obs::tally(|t| t.prefilter_dominance += 1);
                        }
                    }
                    // expr >= -constant: larger -constant (smaller constant) is tighter.
                    if constant < *c0 || (constant == *c0 && cmp == Cmp::Gt) {
                        *c0 = constant;
                        *m0 = cmp;
                    }
                }
            }
        }
        let mut out = Polyhedron::universe(self.nvars);
        for key in order {
            let Some((constant, cmp)) = best.remove(&key) else {
                continue;
            };
            let mut e = LinExpr::zero(self.nvars);
            for (i, c) in key.into_iter().enumerate() {
                e.set_coeff(i, c);
            }
            e.set_constant(constant);
            out.constraints.push(Constraint { expr: e, cmp });
        }
        Some(out)
    }

    /// Fourier–Motzkin elimination of one variable.
    ///
    /// The result is the exact projection of the polyhedron onto the
    /// remaining variables (the eliminated coordinate keeps its index with
    /// an always-zero coefficient, so dimensions stay aligned).
    pub fn eliminate_var(&self, var: usize) -> Polyhedron {
        assert!(var < self.nvars, "variable index out of range");
        let pruned = match self.pruned() {
            Some(p) => p,
            None => return Polyhedron::empty(self.nvars),
        };
        let mut lowers: Vec<&Constraint> = Vec::new(); // coeff(var) > 0
        let mut uppers: Vec<&Constraint> = Vec::new(); // coeff(var) < 0
        let mut keep: Vec<Constraint> = Vec::new();
        for c in &pruned.constraints {
            let a = c.expr.coeff(var);
            if a.is_positive() {
                lowers.push(c);
            } else if a.is_negative() {
                uppers.push(c);
            } else {
                keep.push(c.clone());
            }
        }
        for lo in &lowers {
            let a = lo.expr.coeff(var).clone(); // > 0
            for up in &uppers {
                let b = up.expr.coeff(var).abs(); // > 0
                                                  // a*x + e1 >= 0  and  -b*x + e2 >= 0
                                                  // => b*e1 + a*e2 >= 0 (strict if either side strict)
                let combined = lo.expr.scale(&b).add(&up.expr.scale(&a));
                debug_assert!(combined.coeff(var).is_zero());
                let cmp = if lo.cmp == Cmp::Gt || up.cmp == Cmp::Gt {
                    Cmp::Gt
                } else {
                    Cmp::Ge
                };
                keep.push(Constraint {
                    expr: combined,
                    cmp,
                });
            }
        }
        let result = Polyhedron {
            nvars: self.nvars,
            constraints: keep,
        };
        match result.pruned() {
            Some(p) => p,
            None => Polyhedron::empty(self.nvars),
        }
    }

    /// Eliminates a set of variables: equality substitution first, then
    /// Fourier–Motzkin, choosing at each step the variable whose
    /// elimination produces the fewest new constraints (the classic
    /// `min(|lowers| * |uppers|)` heuristic).
    pub fn eliminate_vars(&self, vars: &[usize]) -> Polyhedron {
        let mut unlimited = u64::MAX;
        self.try_eliminate_vars(vars, &mut unlimited)
            .expect("an unlimited row budget cannot be exceeded")
    }

    /// [`Self::eliminate_vars`] under a Fourier–Motzkin row budget.
    /// `budget` is the number of derived rows this call may still
    /// generate; on success the rows actually generated are deducted (so
    /// one budget can be threaded through a sequence of projections), and
    /// the elimination aborts with [`ProjectionBudgetExceeded`] either up
    /// front — when the worst-case row estimate `vars × ⌈rows/2⌉²` of the
    /// post-substitution system already exceeds the budget — or mid-round,
    /// when the cumulative row count crosses it. Both triggers are pure
    /// functions of the input system.
    ///
    /// The `poly/fm_eliminate` span records the admission estimate, the
    /// rounds run and the rows used.
    ///
    /// # Errors
    ///
    /// Returns [`ProjectionBudgetExceeded`] when the elimination is
    /// predicted (admission estimate) or observed (rows generated) to
    /// exceed `budget`.
    pub fn try_eliminate_vars(
        &self,
        vars: &[usize],
        budget: &mut u64,
    ) -> Result<Polyhedron, ProjectionBudgetExceeded> {
        let mut span = offload_obs::span!(
            "poly",
            "fm_eliminate",
            vars = vars.len(),
            constraints_in = self.constraints.len(),
        );
        let out = self.eliminate_vars_inner(vars, budget, &mut span)?;
        span.record("constraints_out", out.constraints.len());
        Ok(out)
    }

    fn eliminate_vars_inner(
        &self,
        vars: &[usize],
        budget: &mut u64,
        span: &mut offload_obs::SpanGuard,
    ) -> Result<Polyhedron, ProjectionBudgetExceeded> {
        // Compact the variable space before any per-row work.
        // `LinExpr` coefficient vectors are dense over the *full* space,
        // but most variables never appear in this system — their columns
        // are identically zero. Every prune, substitution, combination and
        // LP check below pays O(columns), so remap the live variables
        // (plus any still to eliminate) onto a dense prefix, eliminate
        // there, and embed the result back at the end. Compaction only
        // drops all-zero columns, so the rows — and therefore the output
        // and every counter — are unchanged.
        let (cur, mut remaining, to_old) = compact_space(self, vars);
        let Some(mut cur) = cur.pruned() else {
            return Ok(Polyhedron::empty(self.nvars));
        };

        // Phase 1: exact equality substitutions (never grow the system).
        if substitute_equalities(&mut cur, &mut remaining).is_err() {
            return Ok(Polyhedron::empty(self.nvars));
        }
        let Some(cur) = cur.pruned() else {
            return Ok(Polyhedron::empty(self.nvars));
        };
        if remaining.is_empty() {
            return Ok(embed_space(self.nvars, &to_old, cur.constraints));
        }

        // Re-compact: the substituted variables' columns are gone now.
        let (cur, remaining, to_first) = compact_space(&cur, &remaining);
        let to_old: Vec<usize> = to_first.iter().map(|&j| to_old[j]).collect();

        // Phase 2: Fourier–Motzkin on integer rows.
        let rows = fourier_motzkin(&cur.constraints, remaining, budget, span)?;
        Ok(match rows {
            Some(rows) => embed_space(self.nvars, &to_old, rows),
            None => Polyhedron::empty(self.nvars),
        })
    }

    /// Projects onto the first `k` variables: eliminates variables
    /// `k..nvars` and truncates the space to `k` dimensions.
    pub fn project_to_first(&self, k: usize) -> Polyhedron {
        let mut unlimited = u64::MAX;
        self.try_project_to_first(k, &mut unlimited)
            .expect("an unlimited row budget cannot be exceeded")
    }

    /// [`Self::project_to_first`] under a Fourier–Motzkin row budget (see
    /// [`Self::try_eliminate_vars`]).
    ///
    /// # Errors
    ///
    /// Returns [`ProjectionBudgetExceeded`] when the elimination would
    /// generate more rows than `budget` allows.
    pub fn try_project_to_first(
        &self,
        k: usize,
        budget: &mut u64,
    ) -> Result<Polyhedron, ProjectionBudgetExceeded> {
        assert!(k <= self.nvars);
        let elim: Vec<usize> = (k..self.nvars).collect();
        let reduced = self.try_eliminate_vars(&elim, budget)?;
        let constraints = reduced
            .constraints
            .iter()
            .map(|c| {
                let mut e = LinExpr::zero(k);
                for i in 0..k {
                    e.set_coeff(i, c.expr.coeff(i).clone());
                }
                e.set_constant(c.expr.constant_term().clone());
                Constraint {
                    expr: e,
                    cmp: c.cmp,
                }
            })
            .collect();
        Ok(Polyhedron {
            nvars: k,
            constraints,
        })
    }

    /// Embeds into a larger space (new trailing coordinates unconstrained).
    pub fn extend_vars(&self, new_nvars: usize) -> Polyhedron {
        assert!(new_nvars >= self.nvars);
        Polyhedron {
            nvars: new_nvars,
            constraints: self
                .constraints
                .iter()
                .map(|c| Constraint {
                    expr: c.expr.extend_vars(new_nvars),
                    cmp: c.cmp,
                })
                .collect(),
        }
    }

    /// Exact emptiness test.
    ///
    /// Strict inequalities are handled with the ε-method: maximize a slack
    /// ε with every strict constraint relaxed to `expr ≥ ε`; the system is
    /// satisfiable iff the supremum is positive (or unbounded).
    pub fn is_empty(&self) -> bool {
        let t0 = std::time::Instant::now();
        let out = self.is_empty_inner();
        offload_obs::tally(|t| t.region_lp_micros += t0.elapsed().as_micros() as u64);
        out
    }

    fn is_empty_inner(&self) -> bool {
        let eps = self.nvars;
        let nv = self.nvars + 1;
        let mut cs: Vec<Constraint> = Vec::with_capacity(self.constraints.len() + 1);
        let mut any_strict = false;
        for c in &self.constraints {
            match c.trivial_truth() {
                Some(true) => continue,
                Some(false) => return true,
                None => {}
            }
            let mut e = c.expr.extend_vars(nv);
            if c.cmp == Cmp::Gt {
                any_strict = true;
                e = e.plus_term(eps, Rational::from(-1));
            }
            cs.push(Constraint::ge0(e));
        }
        if !any_strict {
            return !crate::lp::closure_feasible(&cs);
        }
        // Bound ε so the LP stays bounded: 0 <= eps <= 1.
        cs.push(Constraint::ge0(LinExpr::var(nv, eps)));
        cs.push(Constraint::ge0(
            LinExpr::constant(nv, Rational::one()).plus_term(eps, Rational::from(-1)),
        ));
        match crate::lp::maximize(&LinExpr::var(nv, eps), &cs) {
            crate::lp::LpResult::Infeasible => true,
            crate::lp::LpResult::Unbounded => false,
            crate::lp::LpResult::Optimal(v) => !v.is_positive(),
        }
    }

    /// Removes constraints implied by the rest of the system (sound
    /// LP-based redundancy elimination). The result describes the same
    /// set with a near-minimal constraint system — essential after
    /// projections, whose raw Fourier–Motzkin output is highly redundant.
    ///
    /// Two passes: an incremental filter that only keeps constraints not
    /// already implied by the kept set (syntactic pre-filters, then a
    /// warm-started incremental LP — see `reduce.rs`), then a reverse
    /// sweep removing survivors made redundant by later additions.
    pub fn reduce_redundancy(&self) -> Polyhedron {
        let cur = match self.pruned_counted() {
            Some(p) => p,
            None => return Polyhedron::empty(self.nvars),
        };
        // Prefer constraints with fewer variables first (cheaper and
        // likelier to be facets of simple regions).
        let mut ordered = cur.constraints;
        ordered.sort_by_key(|c| c.expr.support().count());
        let keep = crate::reduce::filter_implied(&ordered);
        let mut kept: Vec<Constraint> = Vec::with_capacity(keep.len());
        let mut want = keep.into_iter().peekable();
        for (i, c) in ordered.into_iter().enumerate() {
            if want.peek() == Some(&i) {
                want.next();
                kept.push(c);
            }
        }
        // Reverse sweep.
        let mut i = 0;
        while i < kept.len() {
            let candidate = kept[i].clone();
            let rest: Vec<Constraint> = kept
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, c)| c.clone())
                .collect();
            if !rest.is_empty() && crate::lp::implied_by(&rest, &candidate) {
                kept.remove(i);
            } else {
                i += 1;
            }
        }
        let out = Polyhedron {
            nvars: self.nvars,
            constraints: kept,
        };
        if out.is_empty() {
            return Polyhedron::empty(self.nvars);
        }
        out
    }

    /// Finds a point inside the polyhedron (an interior point with respect
    /// to strict constraints whenever bounds leave room), or `None` if the
    /// polyhedron is empty.
    pub fn sample(&self) -> Option<Vec<Rational>> {
        // systems[k] has variables 0..(nvars - k) live.
        let mut systems: Vec<Polyhedron> = Vec::with_capacity(self.nvars + 1);
        systems.push(self.pruned()?);
        for v in (0..self.nvars).rev() {
            let next = systems.last()?.eliminate_var(v);
            // `eliminate_var` returns the canonical empty polyhedron when
            // it detects infeasibility.
            if next
                .constraints
                .iter()
                .any(|c| c.trivial_truth() == Some(false))
            {
                return None;
            }
            systems.push(next);
        }
        // Back-substitute: assign var j using the system in which vars 0..=j
        // are live (systems[nvars - 1 - j]).
        let mut point = vec![Rational::zero(); self.nvars];
        for j in 0..self.nvars {
            let system = &systems[self.nvars - 1 - j];
            let value = pick_value(system, j, &point)?;
            point[j] = value;
        }
        // Uncounted: release builds skip the check, and the work counters
        // must not depend on the build.
        debug_assert!(
            offload_obs::untallied(|| self.contains(&point)),
            "sampled point must satisfy all constraints"
        );
        Some(point)
    }

    /// Returns `true` if `other` contains every point of `self`
    /// (i.e. `self ⊆ other`), computed exactly via emptiness of
    /// `self ∩ ¬c` for each constraint `c` of `other`.
    pub fn subset_of(&self, other: &Polyhedron) -> bool {
        assert_eq!(self.nvars, other.nvars);
        other.constraints.iter().all(|c| {
            let mut escaped = self.clone();
            escaped.add(c.negated());
            escaped.is_empty()
        })
    }

    /// Formats with variable names supplied by `names`.
    pub fn display_with(&self, names: &dyn Fn(usize) -> String) -> String {
        let parts: Vec<String> = match self.pruned() {
            None => return "false".to_string(),
            Some(p) if p.constraints.is_empty() => return "true".to_string(),
            Some(p) => p
                .constraints
                .iter()
                .map(|c| c.display_with(names))
                .collect(),
        };
        let mut sorted = parts;
        sorted.sort();
        sorted.join(" && ")
    }
}

impl fmt::Display for Polyhedron {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = |i: usize| format!("x{i}");
        write!(f, "{}", self.display_with(&names))
    }
}

/// Sign-canonical view of one normalized `e >= 0` row: `e` negated when
/// its leading nonzero coefficient (falling back to the constant) is
/// negative, plus the sign that was stripped. The two halves of an
/// equality — `e >= 0` and `-e >= 0` — canonicalize to the same
/// expression with opposite `positive` flags, so equality detection
/// becomes a cached-hash bucket probe instead of negating and re-hashing
/// every row on every round.
struct SignCanon {
    expr: LinExpr,
    positive: bool,
    hash: u64,
}

fn sign_canon(c: &Constraint) -> Option<SignCanon> {
    if c.cmp != Cmp::Ge {
        return None;
    }
    let lead = c
        .expr
        .terms()
        .map(|(_, a)| a)
        .next()
        .or_else(|| (!c.expr.constant_term().is_zero()).then(|| c.expr.constant_term()));
    let positive = !lead.is_some_and(|a| a.is_negative());
    let expr = if positive {
        c.expr.clone()
    } else {
        c.expr.scale(&Rational::from(-1))
    };
    let mut h = WordHasher::default();
    expr.hash(&mut h);
    Some(SignCanon {
        expr,
        positive,
        hash: h.finish(),
    })
}

/// Phase-1 elimination driver: repeatedly finds a variable from
/// `remaining` pinned by an equality (a pair of opposite non-strict
/// rows, found through the cached [`SignCanon`] index) and substitutes
/// it away everywhere, until no equality pins any remaining variable.
///
/// Equality substitution is exact and — unlike Fourier–Motzkin — never
/// grows the constraint system, so [`Polyhedron::eliminate_vars`]
/// prefers it. The minimum-cut optimality systems of Lemma 1 are
/// dominated by equalities (saturated arcs, zero arcs, conservation),
/// making this the difference between milliseconds and blow-up. The
/// batch driver normalizes and canonicalizes each row once and refreshes
/// only the rows a substitution actually touches, so a run of `k`
/// substitutions over `n` rows costs `O(n + k·touched)` row
/// canonicalizations, not `O(k·n)`.
///
/// Returns the number of variables substituted away (removing them from
/// `remaining`), or `Err(())` when a substitution exposes a trivially
/// false row (the polyhedron is empty).
fn substitute_equalities(cur: &mut Polyhedron, remaining: &mut Vec<usize>) -> Result<usize, ()> {
    let mut count = 0usize;
    let mut normalized: Vec<Constraint> = cur.constraints.iter().map(|c| c.normalize()).collect();
    let mut cache: Vec<Option<SignCanon>> = normalized.iter().map(sign_canon).collect();
    // Hash buckets over the canonical expressions; collisions are
    // resolved by comparing the cached expressions themselves.
    let mut buckets: ExactMap<u64, Vec<usize>> = ExactMap::default();
    for (i, c) in cache.iter().enumerate() {
        if let Some(c) = c {
            buckets.entry(c.hash).or_default().push(i);
        }
    }
    while !remaining.is_empty() {
        let mut found: Option<(usize, usize)> = None;
        for ci in 0..normalized.len() {
            let Some(c) = &cache[ci] else { continue };
            let has_partner = buckets.get(&c.hash).is_some_and(|bucket| {
                bucket.iter().any(|&rj| {
                    rj != ci
                        && cache[rj]
                            .as_ref()
                            .is_some_and(|r| r.positive != c.positive && r.expr == c.expr)
                })
            });
            if !has_partner {
                continue;
            }
            // `normalized[ci].expr == 0` holds. Pick the first variable
            // from `remaining` with a non-zero coefficient (if any).
            let eq = &normalized[ci].expr;
            if let Some(pos) = remaining.iter().position(|&v| !eq.coeff(v).is_zero()) {
                found = Some((ci, pos));
                break;
            }
        }
        let Some((ci, pos)) = found else {
            break;
        };
        // Substitute `v = -(rest)/a` everywhere, refreshing the
        // normalized form and canonical index of only the rows that
        // actually mention `v`.
        let v = remaining[pos];
        let eq = &normalized[ci].expr;
        let a = eq.coeff(v);
        let mut rest = eq.clone();
        rest.set_coeff(v, Rational::zero());
        let scale = -(&a.recip());
        let replacement = rest.scale(&scale);
        for (r, (cons, norm)) in cur
            .constraints
            .iter_mut()
            .zip(normalized.iter_mut())
            .enumerate()
        {
            let coeff = cons.expr.coeff(v).clone();
            if coeff.is_zero() {
                continue;
            }
            cons.expr.set_coeff(v, Rational::zero());
            cons.expr = cons.expr.add(&replacement.scale(&coeff));
            *norm = cons.normalize();
            if let Some(false) = norm.trivial_truth() {
                return Err(());
            }
            if let Some(old) = cache[r].take() {
                if let Some(b) = buckets.get_mut(&old.hash) {
                    b.retain(|&x| x != r);
                    if b.is_empty() {
                        buckets.remove(&old.hash);
                    }
                }
            }
            cache[r] = sign_canon(norm);
            if let Some(c) = &cache[r] {
                buckets.entry(c.hash).or_default().push(r);
            }
        }
        remaining.remove(pos);
        count += 1;
        offload_obs::tally(|t| t.fm_vars_eliminated += 1);
    }
    Ok(count)
}

/// Remaps the live variables of `cur` (the union of all constraint
/// supports plus the still-to-eliminate set) onto a dense prefix
/// `0..m`. Returns the compacted polyhedron, the remapped elimination
/// list, and the new→old index table for [`embed_space`]. A pure index
/// permutation: the arithmetic — and therefore the output and every
/// counter — is unchanged.
fn compact_space(cur: &Polyhedron, remaining: &[usize]) -> (Polyhedron, Vec<usize>, Vec<usize>) {
    let n = cur.nvars;
    let mut live = vec![false; n];
    for c in &cur.constraints {
        for v in c.expr.support() {
            live[v] = true;
        }
    }
    for &v in remaining {
        live[v] = true;
    }
    let to_old: Vec<usize> = (0..n).filter(|&v| live[v]).collect();
    let mut to_new = vec![usize::MAX; n];
    for (new, &old) in to_old.iter().enumerate() {
        to_new[old] = new;
    }
    let m = to_old.len();
    let constraints = cur
        .constraints
        .iter()
        .map(|c| {
            let mut e = LinExpr::zero(m);
            for (old, a) in c.expr.terms() {
                e.set_coeff(to_new[old], a.clone());
            }
            e.set_constant(c.expr.constant_term().clone());
            Constraint {
                expr: e,
                cmp: c.cmp,
            }
        })
        .collect();
    let remaining = remaining.iter().map(|&v| to_new[v]).collect();
    (
        Polyhedron {
            nvars: m,
            constraints,
        },
        remaining,
        to_old,
    )
}

/// Inverse of [`compact_space`]: embeds compact-space constraints back
/// into the `nvars`-dimensional original space via the new→old table.
fn embed_space(nvars: usize, to_old: &[usize], constraints: Vec<Constraint>) -> Polyhedron {
    Polyhedron {
        nvars,
        constraints: constraints
            .into_iter()
            .map(|c| {
                let mut e = LinExpr::zero(nvars);
                for (new, a) in c.expr.terms() {
                    e.set_coeff(to_old[new], a.clone());
                }
                e.set_constant(c.expr.constant_term().clone());
                Constraint {
                    expr: e,
                    cmp: c.cmp,
                }
            })
            .collect(),
    }
}

/// Phase 2 of [`Polyhedron::try_eliminate_vars`]: Fourier–Motzkin
/// elimination of `remaining` from the pruned compact-space system
/// `rows`, with Imbert's acceleration. Every derived row carries the set
/// of phase-2 input rows it combines; after eliminating k variables, a
/// row whose history exceeds k+1 inputs is provably redundant and is
/// never built. Returns `None` when a combination proves the system
/// empty.
///
/// The `estimate`, `rounds` and `rows_used` span fields and the budget
/// are documented on [`Polyhedron::try_eliminate_vars`].
fn fourier_motzkin(
    rows: &[Constraint],
    mut remaining: Vec<usize>,
    budget: &mut u64,
    span: &mut offload_obs::SpanGuard,
) -> Result<Option<Vec<Constraint>>, ProjectionBudgetExceeded> {
    let words = rows.len().div_ceil(64);
    let mut sys: Vec<Row> = rows
        .iter()
        .enumerate()
        .map(|(i, c)| Row::input(c, i, words))
        .collect();
    let mut eliminated = 0usize;

    // Admission check: a worst-case row estimate for the whole
    // elimination — each of the `remaining` rounds can pair at most
    // ⌈rows/2⌉ lower bounds with ⌈rows/2⌉ upper bounds. Systems that
    // blow past the budget on this estimate are rejected before any
    // combination work. This is the guard that actually catches the
    // pathological fuzzer-found shapes: a system keeping hundreds of
    // flow variables after equality substitution spends ~15 s per
    // round in LP redundancy elimination while generating only a
    // handful of rows, so the mid-flight row check below would let it
    // grind for hours.
    let estimate = {
        let half = (rows.len() as u64).div_ceil(2);
        (remaining.len() as u64).saturating_mul(half.saturating_mul(half))
    };
    span.record("estimate", estimate);
    if estimate > *budget {
        return Err(ProjectionBudgetExceeded {
            generated: estimate,
        });
    }
    // Rows generated so far across every round of this call; checked
    // against the caller's budget inside the product loop so a
    // quadratic blowup aborts mid-round instead of after materializing
    // it.
    let mut used = 0u64;
    while !remaining.is_empty() {
        let Some((idx, &v)) = remaining.iter().enumerate().min_by_key(|(_, &v)| {
            let (mut lo, mut up) = (0usize, 0usize);
            for r in &sys {
                match r.coeffs[v].signum() {
                    1 => lo += 1,
                    -1 => up += 1,
                    _ => {}
                }
            }
            lo * up
        }) else {
            break; // unreachable: loop guard keeps `remaining` non-empty
        };
        remaining.swap_remove(idx);
        eliminated += 1;
        offload_obs::tally(|t| t.fm_vars_eliminated += 1);

        let (mut lowers, mut uppers) = (Vec::new(), Vec::new());
        // Prune as rows arrive: rows without `v` first, then the
        // combinations in lower × upper order, keeping the tightest row
        // per direction (see `RoundRows`).
        let mut next = RoundRows::default();
        for r in sys {
            match r.coeffs[v].signum() {
                1 => lowers.push(r),
                -1 => uppers.push(r),
                _ => next.push(r),
            }
        }
        let mut generated = 0u64;
        let mut infeasible = false;
        for lo in &lowers {
            for up in &uppers {
                if union_exceeds(&lo.hist, &up.hist, eliminated + 1) {
                    continue; // Imbert: redundant combination
                }
                used += 1;
                if used > *budget {
                    offload_obs::tally(|t| t.fm_constraints += generated);
                    span.record("rounds", eliminated);
                    span.record("rows_used", used);
                    return Err(ProjectionBudgetExceeded { generated: used });
                }
                generated += 1;
                match Row::combine(lo, up, v) {
                    Combined::Row(r) => next.push(r),
                    Combined::Trivial(holds) => infeasible |= !holds,
                }
            }
        }
        offload_obs::tally(|t| t.fm_constraints += generated);
        if infeasible {
            *budget -= used.min(*budget);
            span.record("rounds", eliminated);
            span.record("rows_used", used);
            return Ok(None);
        }
        sys = next.rows;

        // Chernikov's superset rule: a derived row whose history
        // strictly contains another's is redundant.
        if sys.len() > 64 {
            drop_history_supersets(&mut sys);
        }

        // LP-based redundancy reduction when Fourier–Motzkin growth
        // outpaces the cheap filters (sound: only provably implied
        // constraints are dropped). The trigger is deliberately low:
        // with the warm-started incremental solver each implication
        // check is cheap, and reducing *early* keeps the quadratic
        // combination step small on every later round — on the audio
        // benchmarks a threshold of 150 more than halves end-to-end
        // projection time versus 300+.
        if sys.len() > LP_REDUCE_THRESHOLD {
            sys = lp_reduce_with_history(sys);
        }
    }
    span.record("rounds", eliminated);
    span.record("rows_used", used);
    *budget -= used.min(*budget);
    Ok(Some(sys.iter().map(Row::to_constraint).collect()))
}

/// One Fourier–Motzkin row in the compact space:
/// `coeffs · x + num/den >= 0` (or `> 0`).
///
/// Rows stay in the form [`Polyhedron::pruned`] gives them, which is
/// also the dedup key: integer variable coefficients whose gcd is one
/// (the row's *direction*), and the constant as a reduced fraction with
/// `den > 0`. Rows with one direction differ only in their constants.
/// Everything is a [`BigInt`], whose inline `i64` arm carries nearly
/// every value and promotes exactly when a product outgrows it. A
/// derived row costs one gcd pass over its coefficients; a row that
/// survives a round is never normalized again.
struct Row {
    coeffs: Vec<BigInt>,
    num: BigInt,
    den: BigInt,
    cmp: Cmp,
    /// The phase-2 input rows this row combines, one bit per input row.
    hist: Vec<u64>,
    /// [`WordHasher`] hash of `coeffs`.
    hash: u64,
}

/// What combining a lower and an upper bound gives.
enum Combined {
    Row(Row),
    /// No variable is left: the row is a constant, true or false.
    Trivial(bool),
}

impl Row {
    /// Input row `i`, with a history of `words` words, from a pruned
    /// compact-space constraint (already in canonical form).
    fn input(c: &Constraint, i: usize, words: usize) -> Row {
        let coeffs: Vec<BigInt> = (0..c.expr.nvars())
            .map(|v| {
                let a = c.expr.coeff(v);
                debug_assert!(a.is_integer(), "pruned rows have integer coefficients");
                a.numer().clone()
            })
            .collect();
        let mut hist = vec![0u64; words];
        hist[i / 64] |= 1 << (i % 64);
        let k = c.expr.constant_term();
        Row {
            hash: direction_hash(&coeffs),
            coeffs,
            num: k.numer().clone(),
            den: k.denom().clone(),
            cmp: c.cmp,
            hist,
        }
    }

    /// `b·lo + a·up` with `a = lo[v] > 0` and `b = −up[v] > 0`, which
    /// has no `v`; strict if either side is, and its history is the
    /// union of theirs. `a` and `b` are divided by their gcd first: that
    /// scales the sum by a positive factor, so its canonical form is the
    /// same.
    fn combine(lo: &Row, up: &Row, v: usize) -> Combined {
        let (a, b) = (&lo.coeffs[v], -&up.coeffs[v]);
        let g = a.gcd(&b);
        let (a, b) = (a / &g, &b / &g);
        // `gcd` is the gcd of the variable coefficients so far; once it
        // reaches one it stays there.
        let mut gcd = BigInt::zero();
        let coeffs: Vec<BigInt> = lo
            .coeffs
            .iter()
            .zip(&up.coeffs)
            .map(|(x, y)| {
                let w = match (x.is_zero(), y.is_zero()) {
                    (true, true) => return BigInt::zero(),
                    (false, true) => &b * x,
                    (true, false) => &a * y,
                    (false, false) => &(&b * x) + &(&a * y),
                };
                if !gcd.is_one() {
                    gcd = gcd.gcd(&w);
                }
                w
            })
            .collect();
        // The constant, b·n₁/d₁ + a·n₂/d₂.
        let (num, den) = if lo.den.is_one() && up.den.is_one() {
            (&(&b * &lo.num) + &(&a * &up.num), BigInt::one())
        } else {
            (
                &(&(&b * &lo.num) * &up.den) + &(&(&a * &up.num) * &lo.den),
                &lo.den * &up.den,
            )
        };
        let cmp = if lo.cmp == Cmp::Gt || up.cmp == Cmp::Gt {
            Cmp::Gt
        } else {
            Cmp::Ge
        };
        if gcd.is_zero() {
            return Combined::Trivial(match cmp {
                Cmp::Ge => !num.is_negative(),
                Cmp::Gt => num.is_positive(),
            });
        }
        let hist = lo.hist.iter().zip(&up.hist).map(|(x, y)| x | y).collect();
        Combined::Row(Row::canonical(coeffs, gcd, num, den, cmp, hist))
    }

    /// The canonical form of `coeffs · x + num/den`, given the gcd of
    /// `coeffs` (non-zero): the coefficients divided by it, and the
    /// constant `num / (den·gcd)` reduced.
    fn canonical(
        mut coeffs: Vec<BigInt>,
        gcd: BigInt,
        num: BigInt,
        den: BigInt,
        cmp: Cmp,
        hist: Vec<u64>,
    ) -> Row {
        let den = if gcd.is_one() {
            den
        } else {
            for a in coeffs.iter_mut().filter(|a| !a.is_zero()) {
                *a = &*a / &gcd;
            }
            &den * &gcd
        };
        // gcd(0, den) = den, so a zero constant becomes 0/1.
        let r = num.gcd(&den);
        let (num, den) = if r.is_one() {
            (num, den)
        } else {
            (&num / &r, &den / &r)
        };
        Row {
            hash: direction_hash(&coeffs),
            coeffs,
            num,
            den,
            cmp,
            hist,
        }
    }

    /// The row as a constraint, in exactly the form `pruned` gives it.
    fn to_constraint(&self) -> Constraint {
        let mut e = LinExpr::zero(self.coeffs.len());
        for (v, a) in self.coeffs.iter().enumerate() {
            if !a.is_zero() {
                e.set_coeff(v, Rational::from(a.clone()));
            }
        }
        e.set_constant(Rational::from_bigints(self.num.clone(), self.den.clone()));
        Constraint {
            expr: e,
            cmp: self.cmp,
        }
    }
}

fn direction_hash(coeffs: &[BigInt]) -> u64 {
    let mut h = WordHasher::default();
    coeffs.hash(&mut h);
    h.finish()
}

/// One round's rows, one per direction, in first-encounter order. A row
/// whose direction is already present replaces that row's constant,
/// strictness and history only when it is tighter. The order steers
/// the next round's combinations and the output's row order, so it
/// never depends on hash iteration.
#[derive(Default)]
struct RoundRows {
    rows: Vec<Row>,
    /// Direction hash → index of the newest row with that hash;
    /// `chain[i]` is the next older row with the same hash, or
    /// `usize::MAX`.
    heads: ExactMap<u64, usize>,
    chain: Vec<usize>,
}

impl RoundRows {
    fn push(&mut self, r: Row) {
        let mut at = self.heads.get(&r.hash).copied().unwrap_or(usize::MAX);
        while at != usize::MAX {
            let old = &mut self.rows[at];
            if old.coeffs == r.coeffs {
                // `coeffs·x >= −constant`: the smaller constant is
                // tighter; on equal constants the strict row wins.
                let order = cmp_fractions(&r.num, &r.den, &old.num, &old.den);
                if order == Ordering::Less || (order == Ordering::Equal && r.cmp == Cmp::Gt) {
                    old.num = r.num;
                    old.den = r.den;
                    old.cmp = r.cmp;
                    old.hist = r.hist;
                }
                return;
            }
            at = self.chain[at];
        }
        let older = self.heads.insert(r.hash, self.rows.len());
        self.chain.push(older.unwrap_or(usize::MAX));
        self.rows.push(r);
    }
}

/// Imbert's test: whether the union of two histories has more than
/// `limit` rows, counted without building it.
fn union_exceeds(a: &[u64], b: &[u64], limit: usize) -> bool {
    let mut n = 0usize;
    for (x, y) in a.iter().zip(b) {
        n += (x | y).count_ones() as usize;
        if n > limit {
            return true;
        }
    }
    false
}

/// Chernikov's rule: drops, in order, each row whose history strictly
/// contains the history of a row not yet dropped.
fn drop_history_supersets(sys: &mut Vec<Row>) {
    let sizes: Vec<u32> = sys
        .iter()
        .map(|r| r.hist.iter().map(|w| w.count_ones()).sum())
        .collect();
    let mut keep = vec![true; sys.len()];
    for i in 0..sys.len() {
        keep[i] = !(0..sys.len()).any(|j| {
            j != i
                && keep[j]
                && sizes[j] < sizes[i]
                && sys[j]
                    .hist
                    .iter()
                    .zip(&sys[i].hist)
                    .all(|(b, a)| b & !a == 0)
        });
    }
    let mut it = keep.iter();
    sys.retain(|_| *it.next().expect("aligned"));
}

/// Incremental LP-based redundancy filter preserving derivation
/// histories: sorts the rows by support size (stably) and keeps a row
/// only when the already-kept rows do not imply it. The checks run on
/// the warm-started incremental solver, over the rows as constraints.
fn lp_reduce_with_history(mut sys: Vec<Row>) -> Vec<Row> {
    sys.sort_by_key(|r| r.coeffs.iter().filter(|a| !a.is_zero()).count());
    let cs: Vec<Constraint> = sys.iter().map(Row::to_constraint).collect();
    let mut keep = crate::reduce::filter_implied(&cs).into_iter().peekable();
    let mut i = 0;
    sys.retain(|_| {
        let kept = keep.peek() == Some(&i);
        if kept {
            keep.next();
        }
        i += 1;
        kept
    });
    sys
}

/// Canonical (gcd-1 integer) variable-coefficient vector, plus the
/// correspondingly scaled constant and the comparison kind.
fn var_coeff_canonical(c: &Constraint) -> (Vec<Rational>, Rational, Cmp) {
    let n = c.expr.nvars();
    // Constraints come in normalized (integer, overall gcd 1); rescale by
    // the gcd of the *variable* coefficients so constants are comparable.
    let mut gcd = BigInt::zero();
    for i in 0..n {
        gcd = gcd.gcd(c.expr.coeff(i).numer());
    }
    if gcd.is_zero() {
        // Constant constraint: callers filter these out beforehand.
        return (
            vec![Rational::zero(); n],
            c.expr.constant_term().clone(),
            c.cmp,
        );
    }
    let scale = Rational::from_bigints(BigInt::one(), gcd);
    let key: Vec<Rational> = (0..n).map(|i| c.expr.coeff(i) * &scale).collect();
    (key, c.expr.constant_term() * &scale, c.cmp)
}

/// Chooses a value for variable `var` in `system`, where all variables with
/// smaller indices already have values in `point` and all variables with
/// larger indices have been eliminated from `system`.
fn pick_value(system: &Polyhedron, var: usize, point: &[Rational]) -> Option<Rational> {
    let mut lower: Option<(Rational, bool)> = None; // (bound, strict)
    let mut upper: Option<(Rational, bool)> = None;
    for c in system.constraints() {
        let a = c.expr.coeff(var).clone();
        if a.is_zero() {
            continue; // holds by construction of the elimination cascade
        }
        // Substitute already-fixed variables (unassigned slots of `point`
        // hold zero and have zero coefficients in this cascade stage).
        let mut rest = c.expr.clone();
        rest.set_coeff(var, Rational::zero());
        let val = rest.eval(point);
        let bound = &(-&val) / &a;
        let strict = c.cmp == Cmp::Gt;
        if a.is_positive() {
            // x >= bound
            match &lower {
                Some((b, s)) if bound < *b || (bound == *b && (*s || !strict)) => {}
                _ => lower = Some((bound, strict)),
            }
        } else {
            // x <= bound
            match &upper {
                Some((b, s)) if bound > *b || (bound == *b && (*s || !strict)) => {}
                _ => upper = Some((bound, strict)),
            }
        }
    }
    match (lower, upper) {
        (None, None) => Some(Rational::zero()),
        (Some((lo, strict)), None) => Some(if strict { &lo + &Rational::one() } else { lo }),
        (None, Some((hi, strict))) => Some(if strict { &hi - &Rational::one() } else { hi }),
        (Some((lo, ls)), Some((hi, us))) => {
            if lo < hi {
                Some(Rational::midpoint(&lo, &hi))
            } else if lo == hi && !ls && !us {
                Some(lo)
            } else {
                // Infeasible interval: only reachable if the elimination
                // cascade failed, which would be a bug.
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64) -> Rational {
        Rational::from(n)
    }

    /// `lhs . x + c >= 0` helper.
    fn ge(nvars: usize, coeffs: &[(usize, i64)], c: i64) -> Constraint {
        let mut e = LinExpr::constant(nvars, r(c));
        for &(v, k) in coeffs {
            e = e.plus_term(v, r(k));
        }
        Constraint::ge0(e)
    }

    fn gt(nvars: usize, coeffs: &[(usize, i64)], c: i64) -> Constraint {
        let mut e = LinExpr::constant(nvars, r(c));
        for &(v, k) in coeffs {
            e = e.plus_term(v, r(k));
        }
        Constraint::gt0(e)
    }

    #[test]
    fn universe_and_empty() {
        assert!(!Polyhedron::universe(3).is_empty());
        assert!(Polyhedron::empty(3).is_empty());
    }

    #[test]
    fn box_sampling() {
        // 1 <= x <= 3, 2 <= y <= 2
        let p = Polyhedron::from_constraints(
            2,
            vec![
                ge(2, &[(0, 1)], -1),
                ge(2, &[(0, -1)], 3),
                ge(2, &[(1, 1)], -2),
                ge(2, &[(1, -1)], 2),
            ],
        );
        let pt = p.sample().unwrap();
        assert!(p.contains(&pt));
        assert_eq!(pt[1], r(2));
    }

    #[test]
    fn infeasible_box() {
        // x >= 3 && x <= 1
        let p = Polyhedron::from_constraints(1, vec![ge(1, &[(0, 1)], -3), ge(1, &[(0, -1)], 1)]);
        assert!(p.is_empty());
    }

    #[test]
    fn strict_boundary_excluded() {
        // x > 1 && x <= 1 is empty; x >= 1 && x <= 1 is the point {1}.
        let strict =
            Polyhedron::from_constraints(1, vec![gt(1, &[(0, 1)], -1), ge(1, &[(0, -1)], 1)]);
        assert!(strict.is_empty());
        let closed =
            Polyhedron::from_constraints(1, vec![ge(1, &[(0, 1)], -1), ge(1, &[(0, -1)], 1)]);
        assert_eq!(closed.sample().unwrap(), vec![r(1)]);
    }

    #[test]
    fn elimination_projects_shadow() {
        // Triangle x >= 0, y >= 0, x + y <= 4. Projecting out y gives 0 <= x <= 4.
        let p = Polyhedron::from_constraints(
            2,
            vec![
                ge(2, &[(0, 1)], 0),
                ge(2, &[(1, 1)], 0),
                ge(2, &[(0, -1), (1, -1)], 4),
            ],
        );
        let q = p.eliminate_var(1);
        assert!(q.contains(&[r(0), r(999)]));
        assert!(q.contains(&[r(4), r(-5)]));
        assert!(!q.contains(&[r(5), r(0)]));
        assert!(!q.contains(&[r(-1), r(0)]));
    }

    #[test]
    fn project_to_first_truncates() {
        let p = Polyhedron::from_constraints(
            3,
            vec![
                ge(3, &[(0, 1), (2, 1)], 0),
                ge(3, &[(2, 1)], -1),
                ge(3, &[(2, -1)], 2),
            ],
        );
        // x0 + x2 >= 0 with 1 <= x2 <= 2  =>  x0 >= -2
        let q = p.project_to_first(1);
        assert_eq!(q.nvars(), 1);
        assert!(q.contains(&[r(-2)]));
        assert!(!q.contains(&[r(-3)]));
    }

    #[test]
    fn subset_relation() {
        let big = Polyhedron::from_constraints(1, vec![ge(1, &[(0, 1)], 0)]); // x >= 0
        let small = Polyhedron::from_constraints(1, vec![ge(1, &[(0, 1)], -5)]); // x >= 5
        assert!(small.subset_of(&big));
        assert!(!big.subset_of(&small));
    }

    #[test]
    fn unbounded_sampling() {
        // x >= 10 (unbounded above)
        let p = Polyhedron::from_constraints(1, vec![ge(1, &[(0, 1)], -10)]);
        let pt = p.sample().unwrap();
        assert!(pt[0] >= r(10));
        // x > 10 strict
        let p = Polyhedron::from_constraints(1, vec![gt(1, &[(0, 1)], -10)]);
        let pt = p.sample().unwrap();
        assert!(pt[0] > r(10));
    }

    #[test]
    fn redundant_constraints_pruned() {
        let p = Polyhedron::from_constraints(
            1,
            vec![
                ge(1, &[(0, 1)], 0),
                ge(1, &[(0, 2)], 0),
                ge(1, &[(0, 1)], -3),
            ],
        );
        let pruned = p.pruned().unwrap();
        // x >= 0, x >= 0 (scaled) and x >= 3 collapse to just x >= 3.
        assert_eq!(pruned.constraints().len(), 1);
    }

    #[test]
    fn display_readable() {
        let p = Polyhedron::from_constraints(2, vec![ge(2, &[(0, 1), (1, -1)], 0)]);
        assert_eq!(p.to_string(), "x0 - x1 >= 0");
        assert_eq!(Polyhedron::universe(1).to_string(), "true");
        assert_eq!(Polyhedron::empty(1).to_string(), "false");
    }
}

#[cfg(test)]
mod reduction_tests {
    use super::*;

    fn r(n: i64) -> Rational {
        Rational::from(n)
    }

    fn ge(nvars: usize, coeffs: &[(usize, i64)], c: i64) -> Constraint {
        let mut e = LinExpr::constant(nvars, r(c));
        for &(v, k) in coeffs {
            e = e.plus_term(v, r(k));
        }
        Constraint::ge0(e)
    }

    #[test]
    fn redundant_halfspaces_dropped() {
        // x >= 0, x >= -5 (redundant), x + 1 >= 0 (redundant).
        let p = Polyhedron::from_constraints(
            1,
            vec![
                ge(1, &[(0, 1)], 0),
                ge(1, &[(0, 1)], 5),
                ge(1, &[(0, 1)], 1),
            ],
        );
        let q = p.reduce_redundancy();
        assert_eq!(q.constraints().len(), 1);
        assert!(q.contains(&[r(0)]));
        assert!(!q.contains(&[r(-1)]));
    }

    #[test]
    fn reduction_preserves_set() {
        // A 2D wedge with a stack of redundant supports.
        let mut cs = vec![
            ge(2, &[(0, 1)], 0),
            ge(2, &[(1, 1)], 0),
            ge(2, &[(0, -1), (1, -1)], 10),
        ];
        for k in 1..8 {
            cs.push(ge(2, &[(0, -1), (1, -1)], 10 + k)); // weaker copies
            cs.push(ge(2, &[(0, 1), (1, 1)], k)); // implied by x,y >= 0
        }
        let p = Polyhedron::from_constraints(2, cs);
        let q = p.reduce_redundancy();
        assert!(q.constraints().len() <= 3);
        for x in -2i64..=12 {
            for y in -2i64..=12 {
                let pt = [r(x), r(y)];
                assert_eq!(p.contains(&pt), q.contains(&pt), "({x},{y})");
            }
        }
    }

    #[test]
    fn equality_substitution_projects_exactly() {
        // x = 2y (equality pair), x + y <= 9, both nonneg.
        let eq = LinExpr::var(2, 0).plus_term(1, r(-2));
        let p = Polyhedron::from_constraints(
            2,
            vec![
                Constraint::ge0(eq.clone()),
                Constraint::ge0(eq.scale(&r(-1))),
                ge(2, &[(0, -1), (1, -1)], 9),
                ge(2, &[(0, 1)], 0),
                ge(2, &[(1, 1)], 0),
            ],
        );
        // Eliminate x: the shadow on y is 0 <= y <= 3.
        let q = p.eliminate_var(0);
        assert!(q.contains(&[r(99), r(3)]));
        assert!(!q.contains(&[r(0), r(4)]));
        // eliminate_vars (with the equality fast path) agrees.
        let q2 = p.eliminate_vars(&[0]);
        for y in 0..6i64 {
            assert_eq!(
                q.contains(&[r(0), r(y)]),
                q2.contains(&[r(0), r(y)]),
                "y={y}"
            );
        }
    }

    #[test]
    fn empty_reduction_is_empty() {
        let p = Polyhedron::from_constraints(1, vec![ge(1, &[(0, 1)], -5), ge(1, &[(0, -1)], 2)]);
        let q = p.reduce_redundancy();
        assert!(q.is_empty());
    }
}
