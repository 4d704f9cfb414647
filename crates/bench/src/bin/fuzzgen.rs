//! `fuzzgen` — seeded program generation + differential testing CLI.
//!
//! ```text
//! fuzzgen [--seed N] [--count N] [--points N] [--emit] [--json]
//! ```
//!
//! Generates `--count` deterministic mini-C programs from the root
//! `--seed` (default `0x0FF10AD5`, the documented CI seed) and runs the
//! differential harness over them: typed pipeline completion,
//! repeat determinism of the partition, compiled dispatch equal to the
//! linear-scan reference and optimal against exhaustive plan
//! enumeration and the concrete min-cut (under both region strategies),
//! and behaviour preservation (with ledgers that add up)
//! under every plan at `--points` sampled parameter settings per program.
//! Each sampled setting also brings four wide, dispatch-only settings
//! (large magnitudes, `i64` extremes, ± powers of two).
//!
//! `--emit` prints each generated program instead of checking it (use
//! with `--count 1 --seed <failing-seed>` to reproduce a report).
//! Exits non-zero on any differential failure.

use offload_bench::diff::{program_seed, run_differential, DiffConfig};
use offload_bench::gen::generate;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: fuzzgen [--seed N] [--count N] [--points N] [--emit] [--json]\n\
         \n\
         --seed N    root seed (decimal or 0x hex; default 0x0FF10AD5)\n\
         --count N   programs to generate/check (default 50)\n\
         --points N  parameter points simulated per program (default 3),\n\
         \x20           each with four wide dispatch-only points\n\
         --emit      print the generated programs, don't check them\n\
         --json      print the summary as JSON"
    );
    std::process::exit(2)
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn main() -> ExitCode {
    let mut cfg = DiffConfig::default();
    let mut emit = false;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => match args.next().as_deref().and_then(parse_u64) {
                Some(v) => cfg.seed = v,
                None => usage(),
            },
            "--count" => match args.next().as_deref().and_then(parse_u64) {
                Some(v) => cfg.count = v as usize,
                None => usage(),
            },
            "--points" => match args.next().as_deref().and_then(parse_u64) {
                Some(v) => cfg.points = v as usize,
                None => usage(),
            },
            "--emit" => emit = true,
            "--json" => json = true,
            _ => usage(),
        }
    }

    if emit {
        for index in 0..cfg.count {
            // With an explicit --count 1, --seed is the *program* seed so a
            // reported failure reproduces directly; otherwise derive.
            let seed = if cfg.count == 1 {
                cfg.seed
            } else {
                program_seed(cfg.seed, index)
            };
            println!("{}", generate(seed, &cfg.gen));
        }
        return ExitCode::SUCCESS;
    }

    match run_differential(&cfg) {
        Ok(summary) => {
            if json {
                let typed: Vec<String> = summary
                    .typed_failures
                    .iter()
                    .map(|(seed, e)| format!("{{\"seed\":\"{seed:#x}\",\"error\":{:?}}}", e))
                    .collect();
                println!(
                    "{{\"seed\":\"{:#x}\",\"programs\":{},\"analyzed\":{},\
                     \"dominance_checked\":{},\"points_checked\":{},\
                     \"mincut_checked\":{},\"plans_executed\":{},\"typed_failures\":[{}]}}",
                    cfg.seed,
                    summary.programs,
                    summary.analyzed,
                    summary.dominance_checked,
                    summary.points_checked,
                    summary.mincut_checked,
                    summary.plans_executed,
                    typed.join(",")
                );
            } else {
                println!(
                    "fuzzgen: seed {:#x}: {} programs, {} analyzed ({} dominance-checked), \
                     {} typed failures, {} points checked ({} against the concrete min-cut), \
                     {} plans executed — all differential checks passed",
                    cfg.seed,
                    summary.programs,
                    summary.analyzed,
                    summary.dominance_checked,
                    summary.typed_failures.len(),
                    summary.points_checked,
                    summary.mincut_checked,
                    summary.plans_executed,
                );
                for (seed, err) in &summary.typed_failures {
                    println!("  typed failure: seed {seed:#x}: {err}");
                }
            }
            ExitCode::SUCCESS
        }
        Err(failure) => {
            eprintln!("fuzzgen: DIFFERENTIAL FAILURE\n{failure}");
            ExitCode::FAILURE
        }
    }
}
