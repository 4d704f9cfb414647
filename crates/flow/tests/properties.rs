//! Property tests: max-flow/min-cut duality on random graphs, soundness
//! of the Lemma-1 optimality regions against brute-force minimum cuts,
//! the §5.4 simplification against its dense reference, and the reusable
//! parametric solver against one-shot networks.
//!
//! Randomized with a local xorshift generator instead of `proptest` (the
//! offline build environment cannot fetch crates), so every run draws the
//! same deterministic case set.

use offload_flow::{Capacity, FlowNetwork, ParamCap, ParamNetwork};
use offload_poly::{BigInt, Constraint, LinExpr, Polyhedron, Rational};
use std::collections::{HashMap, HashSet, VecDeque};

/// Deterministic xorshift64* generator for the property loops.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

fn r(n: i64) -> Rational {
    Rational::from(n)
}

/// Random small graph: 4-7 nodes, 1-16 arcs with capacities 0..20, no
/// self-arcs.
fn random_graph(rng: &mut Rng) -> (usize, Vec<(usize, usize, i64)>) {
    let n = rng.usize_in(4, 7);
    let mut arcs = Vec::new();
    let count = rng.usize_in(1, 16);
    while arcs.len() < count {
        let f = rng.usize_in(0, n - 1);
        let t = rng.usize_in(0, n - 1);
        if f == t {
            continue;
        }
        arcs.push((f, t, rng.i64_in(0, 20)));
    }
    (n, arcs)
}

/// Brute-force minimum cut by enumerating all side assignments.
fn brute_min_cut(n: usize, arcs: &[(usize, usize, i64)], s: usize, t: usize) -> Rational {
    let mut best: Option<i64> = None;
    for mask in 0u32..(1 << n) {
        if mask & (1 << s) == 0 || mask & (1 << t) != 0 {
            continue;
        }
        let val: i64 = arcs
            .iter()
            .filter(|(f, to, _)| mask & (1 << f) != 0 && mask & (1 << to) == 0)
            .map(|(_, _, c)| *c)
            .sum();
        best = Some(best.map_or(val, |b: i64| b.min(val)));
    }
    r(best.expect("at least the trivial cut"))
}

const CASES: usize = 48;

#[test]
fn maxflow_equals_brute_force_mincut() {
    let mut rng = Rng::new(0xF101);
    for _ in 0..CASES {
        let (n, arcs) = random_graph(&mut rng);
        let (s, t) = (0, n - 1);
        let mut net = FlowNetwork::new(n, s, t);
        for &(f, to, c) in &arcs {
            net.add_arc(f, to, Capacity::Finite(r(c)));
        }
        let mf = net.max_flow().unwrap();
        assert_eq!(mf.value, brute_min_cut(n, &arcs, s, t));
    }
}

#[test]
fn reported_cut_achieves_flow_value() {
    let mut rng = Rng::new(0xF102);
    for _ in 0..CASES {
        let (n, arcs) = random_graph(&mut rng);
        let (s, t) = (0, n - 1);
        let mut net = FlowNetwork::new(n, s, t);
        for &(f, to, c) in &arcs {
            net.add_arc(f, to, Capacity::Finite(r(c)));
        }
        let mf = net.max_flow().unwrap();
        assert!(mf.source_side[s]);
        assert!(!mf.source_side[t]);
        let cut: Rational = net
            .arcs()
            .iter()
            .filter(|(f, to, _)| mf.source_side[*f] && !mf.source_side[*to])
            .map(|(_, _, c)| c.as_finite().unwrap().clone())
            .fold(Rational::zero(), |a, b| &a + &b);
        assert_eq!(mf.value, cut);
    }
}

/// Parametric regions: at every integer point of a small range, a cut
/// whose region contains the point must achieve the true minimum there.
#[test]
fn optimality_regions_sound() {
    let mut rng = Rng::new(0xF103);
    for _ in 0..CASES {
        let (n, arcs) = random_graph(&mut rng);
        let (s, t) = (0, n - 1);
        let mut net = ParamNetwork::new(1, n, s, t);
        for &(f, to, c) in &arcs {
            let slope = rng.i64_in(0, 3);
            net.add_arc(
                f,
                to,
                ParamCap::Affine(LinExpr::constant(1, r(c)).plus_term(0, r(slope))),
            );
        }
        let space = Polyhedron::from_constraints(
            1,
            vec![
                Constraint::ge0(LinExpr::var(1, 0)),
                Constraint::ge0(LinExpr::constant(1, r(8)).plus_term(0, r(-1))),
            ],
        );
        // Solve at x = 2, get a cut, compute its region.
        let probe = [r(2)];
        let mf = net.solve_at(&probe).unwrap();
        let region = net.optimality_region(&mf.source_side, &space);
        assert!(
            region.contains(&probe),
            "cut must be optimal where it was found"
        );
        for x in 0..=8i64 {
            let p = [r(x)];
            if region.contains(&p) {
                let best = net.solve_at(&p).unwrap().value;
                let this = match net.cut_value_at(&mf.source_side, &p) {
                    Capacity::Finite(v) => v,
                    Capacity::Infinite => panic!("finite cut expected"),
                };
                assert_eq!(this, best, "region over-claims at x={x}");
            }
        }
    }
}

/// Simplification never changes the min-cut value.
#[test]
fn simplification_value_preserving() {
    let mut rng = Rng::new(0xF104);
    for _ in 0..CASES {
        let (n, arcs) = random_graph(&mut rng);
        let inf_mask = rng.next() as u16;
        let (s, t) = (0, n - 1);
        let mut net = ParamNetwork::new(1, n, s, t);
        for (i, &(f, to, c)) in arcs.iter().enumerate() {
            let cap = if inf_mask & (1 << (i % 16)) != 0 {
                ParamCap::Infinite
            } else {
                ParamCap::constant(1, r(c))
            };
            net.add_arc(f, to, cap);
        }
        let space = Polyhedron::from_constraints(1, vec![Constraint::ge0(LinExpr::var(1, 0))]);
        let (simplified, _) = net.simplify(&space);
        for x in [0i64, 3, 9] {
            let v1 = net.solve_at(&[r(x)]);
            let v2 = simplified.solve_at(&[r(x)]);
            match (v1, v2) {
                (Ok(a), Ok(b)) => assert_eq!(a.value, b.value),
                (Err(_), Err(_)) => {}
                (a, b) => panic!(
                    "bounded/unbounded mismatch: {:?} vs {:?}",
                    a.map(|m| m.value),
                    b.map(|m| m.value)
                ),
            }
        }
    }
}

/// A network over `k` parameters (2–4) with 4–9 nodes: about a quarter
/// of the arcs infinite, the rest affine with small constants and
/// coefficients of either sign, most of them zero.
fn random_param_network(rng: &mut Rng) -> ParamNetwork {
    let k = rng.usize_in(2, 4);
    let n = rng.usize_in(4, 9);
    let mut net = ParamNetwork::new(k, n, 0, n - 1);
    let count = rng.usize_in(4, 22);
    for _ in 0..count {
        let (f, t) = (rng.usize_in(0, n - 1), rng.usize_in(0, n - 1));
        let cap = if rng.usize_in(0, 3) == 0 {
            ParamCap::Infinite
        } else {
            let mut e = LinExpr::constant(k, r(rng.i64_in(0, 20)));
            for v in 0..k {
                if rng.usize_in(0, 2) == 0 {
                    e = e.plus_term(v, r(rng.i64_in(-3, 3)));
                }
            }
            ParamCap::Affine(e)
        };
        net.add_arc(f, t, cap);
    }
    net
}

/// The box `0 ≤ x_v ≤ U_v` with each `U_v` in 1..=10.
fn random_box(rng: &mut Rng, k: usize) -> Polyhedron {
    let mut cs = Vec::new();
    for v in 0..k {
        cs.push(Constraint::ge0(LinExpr::var(k, v)));
        cs.push(Constraint::ge0(
            LinExpr::constant(k, r(rng.i64_in(1, 10))).plus_term(v, r(-1)),
        ));
    }
    Polyhedron::from_constraints(k, cs)
}

/// The §5.4 simplification as it was written on dense capacities, which
/// asks the LP every time a check needs it: the reference the sparse
/// implementation must reproduce merge for merge and arc for arc. Also
/// returns the distinct capacity differences it sent to the LP.
fn reference_simplify(
    net: &ParamNetwork,
    space: &Polyhedron,
) -> (ParamNetwork, Vec<usize>, HashSet<LinExpr>) {
    fn merge_cap(m: &mut HashMap<usize, ParamCap>, key: usize, cap: &ParamCap) {
        match m.get_mut(&key) {
            Some(existing) => *existing = existing.add(cap),
            None => {
                m.insert(key, cap.clone());
            }
        }
    }
    fn sum_excluding(m: &HashMap<usize, ParamCap>, exclude: usize) -> Option<ParamCap> {
        let mut acc: Option<ParamCap> = None;
        for (&k, c) in m {
            if k != exclude {
                acc = Some(match acc {
                    None => c.clone(),
                    Some(a) => a.add(c),
                });
            }
        }
        acc
    }
    fn nonneg_on(e: &LinExpr, space: &Polyhedron, asked: &mut HashSet<LinExpr>) -> bool {
        if !e.constant_term().is_negative() && e.support().all(|v| !e.coeff(v).is_negative()) {
            return true;
        }
        asked.insert(e.clone());
        match offload_poly::lp_minimize(e, space.constraints()) {
            offload_poly::LpResult::Optimal(v) => !v.is_negative(),
            offload_poly::LpResult::Infeasible => true,
            offload_poly::LpResult::Unbounded => false,
        }
    }
    fn cap_ge(
        a: &Option<ParamCap>,
        b: &Option<ParamCap>,
        space: &Polyhedron,
        asked: &mut HashSet<LinExpr>,
    ) -> bool {
        match (a, b) {
            (_, None) | (Some(ParamCap::Infinite), _) => true,
            (None, Some(ParamCap::Affine(e))) => nonneg_on(&e.scale(&r(-1)), space, asked),
            (_, Some(ParamCap::Infinite)) => false,
            (Some(ParamCap::Affine(ea)), Some(ParamCap::Affine(eb))) => {
                nonneg_on(&ea.sub(eb), space, asked)
            }
        }
    }

    let mut asked = HashSet::new();

    let n = net.node_count();
    let mut out: Vec<HashMap<usize, ParamCap>> = vec![HashMap::new(); n];
    let mut inc: Vec<HashMap<usize, ParamCap>> = vec![HashMap::new(); n];
    for a in net.arcs() {
        merge_cap(&mut out[a.from], a.to, &a.cap);
        merge_cap(&mut inc[a.to], a.from, &a.cap);
    }
    let mut rep: Vec<usize> = (0..n).collect();
    let mut alive = vec![true; n];
    let mut queue: VecDeque<usize> = (0..n).collect();
    let mut queued = vec![true; n];
    while let Some(nj) = queue.pop_front() {
        queued[nj] = false;
        if !alive[nj] || nj == net.source() || nj == net.sink() {
            continue;
        }
        let mut in_neighbors: Vec<usize> = inc[nj].keys().copied().collect();
        in_neighbors.sort_unstable();
        let mut merged_into = None;
        for ni in in_neighbors {
            if ni == nj || !alive[ni] {
                continue;
            }
            let cap_ij = inc[nj].get(&ni).cloned();
            let cap_ji = out[nj].get(&ni).cloned();
            let out_sum = sum_excluding(&out[nj], ni);
            let in_sum = sum_excluding(&inc[nj], ni);
            if cap_ge(&cap_ij, &out_sum, space, &mut asked)
                && cap_ge(&cap_ji, &in_sum, space, &mut asked)
            {
                merged_into = Some(ni);
                break;
            }
        }
        let Some(ni) = merged_into else { continue };
        alive[nj] = false;
        rep[nj] = ni;
        let out_nj: Vec<(usize, ParamCap)> = out[nj].drain().collect();
        let inc_nj: Vec<(usize, ParamCap)> = inc[nj].drain().collect();
        for (k, c) in out_nj {
            inc[k].remove(&nj);
            if k != ni {
                merge_cap(&mut out[ni], k, &c);
                merge_cap(&mut inc[k], ni, &c);
            }
        }
        for (k, c) in inc_nj {
            out[k].remove(&nj);
            if k != ni {
                merge_cap(&mut out[k], ni, &c);
                merge_cap(&mut inc[ni], k, &c);
            }
        }
        let mut requeue: Vec<usize> = vec![ni];
        requeue.extend(out[ni].keys().copied());
        requeue.extend(inc[ni].keys().copied());
        requeue.sort_unstable();
        for x in requeue {
            if alive[x] && !queued[x] {
                queued[x] = true;
                queue.push_back(x);
            }
        }
    }
    let find = |mut x: usize| {
        while rep[x] != x {
            x = rep[x];
        }
        x
    };
    let mut new_id = vec![usize::MAX; n];
    let mut count = 0;
    for node in 0..n {
        let root = find(node);
        if new_id[root] == usize::MAX {
            new_id[root] = count;
            count += 1;
        }
    }
    let (src, snk) = (new_id[find(net.source())], new_id[find(net.sink())]);
    let mut result = ParamNetwork::new(net.params, count, src, snk);
    for (f, m) in out.iter().enumerate() {
        if !alive[f] {
            continue;
        }
        let mut targets: Vec<usize> = m.keys().copied().collect();
        targets.sort_unstable();
        for t in targets {
            let (nf, nt) = (new_id[find(f)], new_id[find(t)]);
            if nf != nt {
                result.add_arc(nf, nt, m[&t].clone());
            }
        }
    }
    let mapping = (0..n).map(|node| new_id[find(node)]).collect();
    (result, mapping, asked)
}

fn arc_list(net: &ParamNetwork) -> Vec<(usize, usize, ParamCap)> {
    net.arcs()
        .iter()
        .map(|a| (a.from, a.to, a.cap.clone()))
        .collect()
}

/// The sparse simplification merges the same nodes and emits the same
/// arcs, in the same order and with equal capacities, as the dense
/// reference, and it asks the LP each distinct question once: one solve
/// per distinct difference the reference sent to the LP.
#[test]
fn simplification_matches_the_dense_reference() {
    let mut rng = Rng::new(0xF105);
    let (mut merges, mut lp_cases) = (0, 0);
    for case in 0..96 {
        let net = random_param_network(&mut rng);
        let space = random_box(&mut rng, net.params);

        let (want, want_map, asked) = reference_simplify(&net, &space);
        let ((got, got_map), counted) = offload_obs::tallied(|| net.simplify(&space));

        assert_eq!(got_map, want_map, "case {case}: mapping");
        assert_eq!(got.node_count(), want.node_count(), "case {case}");
        assert_eq!((got.source(), got.sink()), (want.source(), want.sink()));
        assert_eq!(arc_list(&got), arc_list(&want), "case {case}: arcs");
        assert_eq!(
            counted.lp_solves,
            asked.len() as u64,
            "case {case}: distinct LP questions"
        );
        merges += usize::from(got.node_count() < net.node_count());
        lp_cases += usize::from(!asked.is_empty());
    }
    assert!(
        merges > 24 && lp_cases > 24,
        "{merges} merge, {lp_cases} reach the LP"
    );
}

/// A coordinate near `whole` whose denominator exceeds 2^53, so no `f64`
/// holds it exactly.
fn awkward(rng: &mut Rng, whole: i64) -> Rational {
    let den = (1i64 << 53) + 2 * rng.i64_in(0, 1 << 40) + 1;
    let num = whole * den + rng.i64_in(1, den - 1);
    Rational::from_bigints(BigInt::from(num), BigInt::from(den))
}

/// The reusable solver, driven at points with denominators past 2^53 and
/// where some affine capacities are negative (and clamp to zero), finds
/// the same flow value and cut, in the same phases and augmenting paths,
/// as a one-shot network instantiated through `ParamCap::eval`.
#[test]
fn param_solver_matches_one_shot_networks_at_awkward_points() {
    let mut rng = Rng::new(0xF106);
    let mut clamped = 0;
    for case in 0..CASES {
        let net = random_param_network(&mut rng);
        let mut solver = net.solver();
        for _ in 0..4 {
            let point: Vec<Rational> = (0..net.params)
                .map(|_| {
                    let whole = rng.i64_in(-4, 12);
                    awkward(&mut rng, whole)
                })
                .collect();
            let mut fresh = FlowNetwork::new(net.node_count(), net.source(), net.sink());
            for a in net.arcs() {
                fresh.add_arc(a.from, a.to, a.cap.eval(&point));
                if let ParamCap::Affine(e) = &a.cap {
                    clamped += usize::from(e.eval(&point).is_negative());
                }
            }
            let (got, counted) = offload_obs::tallied(|| solver.solve_at(&point));
            let (want, reference) = offload_obs::tallied(|| fresh.max_flow());
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(got.value, want.value, "case {case}");
                    assert_eq!(got.source_side, want.source_side, "case {case}");
                }
                (Err(_), Err(_)) => {}
                (got, want) => panic!(
                    "case {case}: {:?} vs {:?}",
                    got.map(|m| m.value),
                    want.map(|m| m.value)
                ),
            }
            assert_eq!(counted.flow_solves, reference.flow_solves, "case {case}");
            assert_eq!(counted.flow_phases, reference.flow_phases, "case {case}");
            assert_eq!(
                counted.flow_augmenting_paths, reference.flow_augmenting_paths,
                "case {case}"
            );
        }
    }
    assert!(clamped > 0, "no capacity was negative at any point");
}
