//! Each dominance choice's region is one polyhedron: its cut's dominance
//! region with every earlier cut strictly dearer, the points where its
//! cut is the first cheapest. The construction it replaced, the dominance
//! region minus every earlier choice's piece by piece, is kept here as
//! the reference, and the two must be the same set.

use offload_bench::diff::{program_seed, DEFAULT_SEED};
use offload_bench::gen::{generate, GenConfig};
use offload_core::{Analysis, AnalysisOptions, RegionStrategy, SolveOptions};
use offload_poly::Region;

/// Corpus programs checked: the first of the CI fuzz corpus
/// (`fuzzgen --seed 0x0FF10AD5`).
const CORPUS: usize = 50;

/// Asserts that every choice's region is one piece and the same set as
/// its full region minus every earlier choice's full region.
fn assert_first_cheapest(name: &str, analysis: &Analysis) {
    let choices = &analysis.partition.choices;
    for (i, choice) in choices.iter().enumerate() {
        let [piece] = choice.region.pieces() else {
            panic!(
                "{name}: choice {i} has {} pieces",
                choice.region.pieces().len()
            );
        };
        let mut reference = Region::from(choice.full_region.clone());
        for earlier in &choices[..i] {
            reference = reference.subtract(&earlier.full_region);
        }
        assert!(
            reference.subtract(piece).is_empty(),
            "{name}: choice {i} misses points of the reference"
        );
        let extra = reference
            .pieces()
            .iter()
            .fold(choice.region.clone(), |r, p| r.subtract(p));
        assert!(
            extra.is_empty(),
            "{name}: choice {i} holds points outside the reference"
        );
    }
}

#[test]
fn table3_dominance_regions_are_one_piece_each() {
    let mut checked = Vec::new();
    for bench in offload_benchmarks::all() {
        if bench.region_strategy() != RegionStrategy::Dominance {
            continue;
        }
        let analysis = bench.analyze().expect("analysis succeeds");
        assert_first_cheapest(bench.name, &analysis);
        checked.push(bench.name);
    }
    assert_eq!(checked, ["encode", "decode", "fft", "susan"]);
}

#[test]
fn corpus_dominance_regions_are_one_piece_each() {
    let cfg = GenConfig::default();
    let mut analyzed = 0;
    let mut later_choices = 0;
    for index in 0..CORPUS {
        let source = generate(program_seed(DEFAULT_SEED, index), &cfg);
        let opts = AnalysisOptions::builder()
            .annotate_with(offload_benchmarks::default_annotations)
            .solve(SolveOptions {
                region_strategy: RegionStrategy::Dominance,
                ..SolveOptions::default()
            })
            .build();
        // Typed failures are the differential harness's to judge.
        let Ok(analysis) = Analysis::from_source(&source, opts) else {
            continue;
        };
        assert_first_cheapest(&format!("corpus program {index}"), &analysis);
        analyzed += 1;
        later_choices += analysis.partition.choices.len().saturating_sub(1);
    }
    assert!(analyzed * 2 >= CORPUS, "only {analyzed} programs analyzed");
    assert!(later_choices > 0, "no program has a second choice");
}
