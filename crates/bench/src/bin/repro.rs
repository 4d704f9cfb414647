//! `repro` — prints any table or figure of the paper's evaluation, or the
//! solver's work counters.
//!
//! ```text
//! repro <experiment>
//! repro offloadc FILE [--params v1,v2,...] [--input a,b,c] [--run]
//! repro --write
//! ```
//!
//! The experiments are `table1`, `table3`, `table4`, `solve_counters`,
//! `figure2`, `figure6_7`, `figure9` … `figure13`, `summary`,
//! `ablation_duchain` and `offloadc`, which without a FILE prints its demo
//! run. `--write` rewrites every `results/<experiment>.txt`. Progress goes
//! to stderr.

use offload_bench::{offloadc, render, results_path, Error, EXPERIMENTS};
use std::process::ExitCode;

/// `offloadc FILE [--params ..] [--input ..] [--run]`, or `None` for a
/// malformed command line.
fn offloadc_cli(args: &[String]) -> Option<Result<String, Error>> {
    let (path, mut rest) = (args.first()?, args[1..].iter());
    let (mut params, mut input, mut run) = (Vec::new(), Vec::new(), false);
    while let Some(flag) = rest.next() {
        let list = match flag.as_str() {
            "--params" => &mut params,
            "--input" => &mut input,
            "--run" => {
                run = true;
                continue;
            }
            _ => return None,
        };
        for v in rest.next()?.split(',').filter(|v| !v.is_empty()) {
            list.push(v.trim().parse().ok()?);
        }
    }
    let src = std::fs::read_to_string(path);
    Some(
        src.map_err(Error::from)
            .and_then(|src| offloadc(path, &src, &params, &input, run)),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names = EXPERIMENTS.map(|(name, _)| name);
    let printed = |text: String| print!("{text}");
    let result = match args.first().map(String::as_str) {
        Some("--write") if args.len() == 1 => names.iter().try_for_each(|name| {
            let path = results_path(name);
            std::fs::write(&path, render(name)?)?;
            eprintln!("wrote {}", path.display());
            Ok(())
        }),
        Some("offloadc") if args.len() > 1 => offloadc_cli(&args[1..])
            .unwrap_or_else(|| Err("malformed offloadc arguments".into()))
            .map(printed),
        Some(name) if args.len() == 1 && names.contains(&name) => render(name).map(printed),
        _ => Err(format!(
            "usage: repro <experiment> | repro --write\n\
             \x20      repro offloadc FILE [--params v1,v2,...] [--input a,b,c] [--run]\n\
             experiments: {}",
            names.join(", ")
        )
        .into()),
    };
    if let Err(e) = result {
        eprintln!("repro: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
