//! # offload-benchmarks
//!
//! The six evaluation programs of the paper (Table 3), re-implemented in
//! the mini-C language so the whole pipeline — analysis, partitioning and
//! distributed execution — can run on them:
//!
//! | name        | origin                      | parameters |
//! |-------------|-----------------------------|------------|
//! | `rawcaudio` | Mediabench ADPCM compress   | 1          |
//! | `rawdaudio` | Mediabench ADPCM decompress | 1          |
//! | `encode`    | Mediabench G.721 compress   | 4          |
//! | `decode`    | Mediabench G.721 decompress | 4          |
//! | `fft`       | MiBench FFT                 | 3          |
//! | `susan`     | MiBench susan               | 12         |
//!
//! Each [`Benchmark`] carries its source, parameter metadata, an input
//! generator, and an annotation rule that resolves the dummy parameters
//! its analysis produces (§3.4 of the paper).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod adpcm;
mod fftprog;
mod g721;
mod susanprog;

use offload_core::{
    Analysis, AnalysisOptions, AnalyzeError, Annotations, ParamBounds, SolveOptions,
};
use offload_poly::Rational;
use offload_symbolic::{DummyOrigin, SymExpr, Symbolic};

/// A benchmark program with everything needed to analyze and run it.
pub struct Benchmark {
    /// Program name (matches the paper's Table 3).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Mini-C source text.
    pub source: String,
    /// Parameter names, in `main` order.
    pub param_names: Vec<&'static str>,
    /// Inclusive parameter bounds for the parametric analysis.
    pub bounds: ParamBounds,
    /// A representative parameter assignment.
    pub default_params: Vec<i64>,
    /// Builds the input stream for a parameter assignment.
    pub make_input: fn(&[i64]) -> Vec<i64>,
    /// Resolves this benchmark's non-auto dummies (user annotations).
    pub annotate: fn(&Symbolic) -> Annotations,
}

impl Benchmark {
    /// Lines of source (Table 3's "No. of Source Lines").
    pub fn source_lines(&self) -> usize {
        self.source.lines().filter(|l| !l.trim().is_empty()).count()
    }

    /// Runs the full parametric analysis with this benchmark's bounds and
    /// annotations (polynomial annotations are substituted before
    /// partitioning, per §3.4).
    ///
    /// # Errors
    ///
    /// Propagates analysis failures.
    pub fn analyze(&self) -> Result<Analysis, AnalyzeError> {
        self.analyze_with(SolveOptions::default())
    }

    /// The region strategy this benchmark is analyzed with. The G.721
    /// codecs, fft and susan produce networks of the size for which the
    /// paper's exact region computation took thousands of seconds; they
    /// use the dominance-probing strategy (see
    /// [`offload_core::RegionStrategy::Dominance`]). The ADPCM programs
    /// stay on the exact Lemma 1 path.
    pub fn region_strategy(&self) -> offload_core::RegionStrategy {
        if matches!(self.name, "encode" | "decode" | "susan" | "fft") {
            offload_core::RegionStrategy::Dominance
        } else {
            offload_core::RegionStrategy::Exact
        }
    }

    /// Like [`Benchmark::analyze`], but with caller-supplied solver
    /// options (simplification, cut cache). The benchmark's
    /// preferred region strategy still takes precedence.
    ///
    /// # Errors
    ///
    /// Propagates analysis failures.
    pub fn analyze_with(&self, mut solve: SolveOptions) -> Result<Analysis, AnalyzeError> {
        solve.region_strategy = self.region_strategy();
        let builder = AnalysisOptions::builder()
            .bounds(self.bounds.clone())
            .annotate_with(self.annotate)
            .solve(solve);
        Analysis::from_source(&self.source, builder.build())
    }
}

/// The standard annotation policy for the audio/image benchmarks:
/// data-dependent branch frequencies default to ½, data-dependent trip
/// counts to a small constant (the codec segment loops run 0–7 times),
/// dynamic sizes to a page. These mirror the kind of per-program
/// annotations the paper's Table 4 counts.
pub fn default_annotations(sym: &Symbolic) -> Annotations {
    use offload_core::AnnotationRule;
    annotate_by_origin(sym, |_, origin| {
        Some(AnnotationRule::Expr(match origin {
            DummyOrigin::BranchFreq { .. } => SymExpr::constant(offload_poly::Rational::new(1, 2)),
            DummyOrigin::TripCount { .. } => SymExpr::int(4),
            DummyOrigin::AllocSize { .. } => SymExpr::int(64),
            DummyOrigin::Recursion { .. } => SymExpr::int(16),
            DummyOrigin::AutoCond { .. } => return None,
        }))
    })
}

/// Deterministic pseudo-random stream (xorshift, pure integers) used by
/// the input generators.
pub fn prng_stream(seed: u64, len: usize, modulus: i64) -> Vec<i64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        out.push((state % modulus as u64) as i64 - modulus / 2);
    }
    out
}

/// Annotation helper: resolve every remaining (non-auto) dummy with a
/// rule chosen by its origin.
pub fn annotate_by_origin(
    symbolic: &Symbolic,
    mut rule: impl FnMut(u32, &DummyOrigin) -> Option<offload_core::AnnotationRule>,
) -> Annotations {
    let mut out = Annotations::default();
    for (i, origin) in symbolic.dict.dummies().iter().enumerate() {
        if origin.is_auto() {
            continue;
        }
        if let Some(r) = rule(i as u32, origin) {
            out.exprs.insert(i as u32, r);
        }
    }
    out
}

/// `ceil(log2(max(params[1], 1)))` — the annotation for doubling loops
/// over the second parameter, in integer arithmetic.
pub fn log2_of_param1(params: &[Rational]) -> Rational {
    // ceil(log2(v)) = ceil(log2(ceil(v))) for v >= 1: the bit length of
    // ceil(v) - 1. Values past i128 saturate (parameters are i64).
    let v = match params.get(1) {
        Some(r) if r.is_positive() => r.ceil().to_i128().unwrap_or(i128::MAX),
        _ => 1,
    };
    Rational::from(i64::from((v - 1).checked_ilog2().map_or(0, |b| b + 1)))
}

pub use adpcm::{rawcaudio, rawdaudio};
pub use fftprog::fft;
pub use g721::{decode, encode};
pub use susanprog::susan;

/// All six benchmarks, in Table 3 order.
pub fn all() -> Vec<Benchmark> {
    vec![rawcaudio(), rawdaudio(), encode(), decode(), fft(), susan()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_of_param1_is_exact_around_every_power_of_two() {
        let log2 = |n: i64| log2_of_param1(&[Rational::zero(), Rational::from(n)]);
        for (n, want) in [(i64::MIN, 0), (-5, 0), (0, 0), (1, 0), (2, 1), (3, 2)] {
            assert_eq!(log2(n), Rational::from(want), "n = {n}");
        }
        for k in 2..63 {
            let p = 1i64 << k;
            assert_eq!(log2(p - 1), Rational::from(k), "n = 2^{k} - 1");
            assert_eq!(log2(p), Rational::from(k), "n = 2^{k}");
            assert_eq!(log2(p + 1), Rational::from(k + 1), "n = 2^{k} + 1");
        }
        assert_eq!(log2(i64::MAX), Rational::from(63));
    }

    #[test]
    fn all_sources_compile() {
        for b in all() {
            offload_lang::frontend(&b.source).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        }
    }

    #[test]
    fn param_counts_match_table3() {
        let expect = [
            ("rawcaudio", 1),
            ("rawdaudio", 1),
            ("encode", 4),
            ("decode", 4),
            ("fft", 3),
            ("susan", 12),
        ];
        for (b, (name, params)) in all().iter().zip(expect) {
            assert_eq!(b.name, name);
            assert_eq!(b.param_names.len(), params, "{name}");
            let checked = offload_lang::frontend(&b.source).unwrap();
            assert_eq!(
                checked.program.main().unwrap().params.len(),
                params,
                "{name}: main arity"
            );
        }
    }

    #[test]
    fn prng_is_deterministic() {
        assert_eq!(prng_stream(42, 8, 1000), prng_stream(42, 8, 1000));
        assert_ne!(prng_stream(42, 8, 1000), prng_stream(43, 8, 1000));
    }
}
