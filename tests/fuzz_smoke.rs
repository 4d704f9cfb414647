//! Seeded differential fuzz smoke: a small fixed-seed slice of the run
//! CI performs with `fuzzgen`. Keeps the generator and harness honest in
//! every `cargo test` without release-build run times.

use offload_bench::diff::{run_differential, DiffConfig, DEFAULT_SEED};
use offload_bench::gen::{generate, GenConfig};

#[test]
fn differential_harness_passes_on_fixed_seed_slice() {
    let cfg = DiffConfig {
        seed: DEFAULT_SEED,
        count: 12,
        points: 2,
        ..DiffConfig::default()
    };
    let summary = run_differential(&cfg).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(summary.programs, 12);
    // The generator promises mostly-analyzable programs: typed solver
    // failures are tolerated, but the pipeline must succeed on most.
    assert!(
        summary.analyzed * 2 >= summary.programs,
        "too many typed failures: {:?}",
        summary.typed_failures
    );
    assert!(summary.points_checked > 0);
    assert!(
        summary.mincut_checked > 0,
        "no point fell in a declared space"
    );
    assert!(summary.plans_executed > 0);
}

#[test]
fn generator_is_stable_across_runs() {
    let cfg = GenConfig::default();
    for seed in [DEFAULT_SEED, 1, 0xDEAD_BEEF] {
        assert_eq!(generate(seed, &cfg), generate(seed, &cfg));
    }
}
