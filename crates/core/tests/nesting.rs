//! The parser's nesting cap keeps the whole pipeline inside a default
//! thread stack: every nesting construct, operator chains included,
//! analyzes at the cap, and one level past it is a parse error rather
//! than a stack overflow.

use offload_core::{Analysis, AnalysisOptions, AnalyzeError};
use offload_lang::{Phase, MAX_NESTING};

/// A program nesting one construct `depth` levels deep.
type Shape = fn(usize) -> String;

fn parens(depth: usize) -> String {
    format!(
        "int f(int n) {{ return {}n{}; }} void main(int n) {{ output(f(n)); }}",
        "(".repeat(depth),
        ")".repeat(depth)
    )
}

fn unary_minus(depth: usize) -> String {
    format!(
        "int f(int n) {{ return {}n; }} void main(int n) {{ output(f(n)); }}",
        "- ".repeat(depth)
    )
}

fn blocks(depth: usize) -> String {
    format!(
        "void main(int n) {{ {}{} output(n); }}",
        "{".repeat(depth),
        "}".repeat(depth)
    )
}

fn ifs(depth: usize) -> String {
    format!(
        "void main(int n) {{ {}{{}} output(n); }}",
        "if (n > 0) ".repeat(depth)
    )
}

fn call_args(depth: usize) -> String {
    format!(
        "int g(int v) {{ return v; }} int f(int n) {{ return {}n{}; }} \
         void main(int n) {{ output(f(n)); }}",
        "g(".repeat(depth),
        ")".repeat(depth)
    )
}

/// A flat chain `n + n + … + n` of `depth` links, which parses to a
/// left-deep tree `depth` levels deep.
fn operator_chain(depth: usize) -> String {
    format!(
        "int f(int n) {{ return n{}; }} void main(int n) {{ output(f(n)); }}",
        " + n".repeat(depth)
    )
}

const SHAPES: [(&str, Shape); 6] = [
    ("parentheses", parens),
    ("unary minus", unary_minus),
    ("blocks", blocks),
    ("if", ifs),
    ("call arguments", call_args),
    ("operator chain", operator_chain),
];

/// Runs the full pipeline on a freshly spawned thread, which gets the
/// default stack size like the server's workers.
fn analyze_on_default_stack(src: String) -> Result<(), AnalyzeError> {
    std::thread::spawn(move || Analysis::from_source(&src, AnalysisOptions::default()).map(drop))
        .join()
        .expect("analysis thread")
}

#[test]
fn every_construct_analyzes_at_the_nesting_cap() {
    for (name, shape) in SHAPES {
        if let Err(e) = analyze_on_default_stack(shape(MAX_NESTING)) {
            panic!("{name} at depth {MAX_NESTING}: {e}");
        }
    }
}

#[test]
fn one_level_past_the_cap_is_a_parse_error() {
    for (name, shape) in SHAPES {
        match analyze_on_default_stack(shape(MAX_NESTING + 1)) {
            Err(AnalyzeError::Lang(e)) => assert_eq!(e.phase(), Phase::Parse, "{name}: {e}"),
            Err(e) => panic!("{name}: expected a parse error, got {e}"),
            Ok(()) => panic!("{name}: depth {} was accepted", MAX_NESTING + 1),
        }
    }
}
