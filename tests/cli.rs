//! End-to-end tests for the `fj` command-line driver, run against the
//! sample programs in `programs/`.

use std::process::Command;

fn fj(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_fj"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn fj");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn run_sum_program() {
    let (stdout, _, ok) = fj(&["run", "programs/sum.fj"]);
    assert!(ok);
    assert_eq!(stdout.trim(), "500500");
}

#[test]
fn metrics_show_zero_allocations_for_sum() {
    let (stdout, stderr, ok) = fj(&["run", "--metrics", "programs/sum.fj"]);
    assert!(ok);
    assert_eq!(stdout.trim(), "500500");
    assert!(stderr.contains("allocs=0"), "stderr: {stderr}");
}

#[test]
fn baseline_flag_changes_pipeline() {
    let (_, stderr, ok) = fj(&["run", "--metrics", "--baseline", "programs/sum.fj"]);
    assert!(ok);
    assert!(stderr.contains("[baseline"), "stderr: {stderr}");
}

#[test]
fn modes_agree() {
    for mode in ["name", "need", "value"] {
        let (stdout, _, ok) = fj(&["run", "--mode", mode, "programs/any.fj"]);
        assert!(ok, "mode {mode}");
        assert_eq!(stdout.trim(), "4", "mode {mode}");
    }
}

#[test]
fn dump_shows_join_points() {
    let (stdout, _, ok) = fj(&["dump", "programs/sum.fj"]);
    assert!(ok);
    assert!(stdout.contains("join rec"), "{stdout}");
    assert!(stdout.contains("jump"), "{stdout}");
}

#[test]
fn dump_before_shows_letrec() {
    let (stdout, _, ok) = fj(&["dump", "--before", "programs/sum.fj"]);
    assert!(ok);
    assert!(stdout.contains("let rec"), "{stdout}");
    assert!(!stdout.contains("jump"), "{stdout}");
}

#[test]
fn erase_output_is_join_free() {
    let (stdout, _, ok) = fj(&["erase", "programs/sum.fj"]);
    assert!(ok);
    assert!(!stdout.contains("jump"), "{stdout}");
    assert!(!stdout.contains("join"), "{stdout}");
}

#[test]
fn check_reports_ok() {
    let (stdout, _, ok) = fj(&["check", "programs/shapes.fj"]);
    assert!(ok);
    assert!(stdout.contains("OK"));
}

#[test]
fn shapes_program_runs() {
    let (stdout, _, ok) = fj(&["run", "programs/shapes.fj"]);
    assert!(ok);
    assert_eq!(stdout.trim(), "117");
}

#[test]
fn missing_file_fails_cleanly() {
    let (_, stderr, ok) = fj(&["run", "programs/nope.fj"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn bad_usage_fails_cleanly() {
    let (_, stderr, ok) = fj(&["frobnicate", "programs/sum.fj"]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn fuel_limit_is_respected() {
    let (_, stderr, ok) = fj(&["run", "--fuel", "10", "programs/sum.fj"]);
    assert!(!ok);
    assert!(stderr.contains("step budget"), "{stderr}");
}

#[test]
fn report_renders_markdown_comparison() {
    let (stdout, stderr, ok) = fj(&["report"]);
    assert!(ok, "fj report failed: {stderr}");
    assert!(stdout.contains("## Machine metrics"), "{stdout}");
    assert!(stdout.contains("## Optimizer activity"), "{stdout}");
    assert!(stdout.contains("| n-body |"), "{stdout}");
    // The headline shootout row: join points erase all allocations.
    assert!(stdout.contains("-100.0%"), "{stdout}");
}

/// As [`fj`], but returning the raw exit code (the CLI's documented
/// contract: 2 usage/parse, 3 type/lint, 4 optimizer, 5 budget).
fn fj_code(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_fj"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn fj");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn parse_error_exits_2_with_diagnostic() {
    let (_, stderr, code) = fj_code(&["run", "programs/errors/syntax_error.fj"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("parse error at"), "{stderr}");
}

#[test]
fn type_error_exits_3_with_diagnostic() {
    let (_, stderr, code) = fj_code(&["run", "programs/errors/type_error.fj"]);
    assert_eq!(code, Some(3), "stderr: {stderr}");
    assert!(stderr.contains("not in scope"), "{stderr}");
}

/// Regression: freeing a 100,000-cell list recursed once per cell and
/// overflowed the VM's stack, while the machine printed the answer.
#[test]
fn vm_frees_deep_data_without_overflow() {
    for mode in ["value", "need"] {
        let (stdout, stderr, ok) = fj(&[
            "run",
            "--backend",
            "vm",
            "--mode",
            mode,
            "programs/deep_list.fj",
        ]);
        assert!(ok, "mode {mode}: {stderr}");
        assert_eq!(stdout.trim(), "200000", "mode {mode}");
    }
}

#[test]
fn usage_error_exits_2() {
    let (_, stderr, code) = fj_code(&["frobnicate"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn fuel_exhaustion_exits_5_on_both_backends() {
    for backend in ["machine", "vm"] {
        let (_, stderr, code) = fj_code(&[
            "run",
            "--backend",
            backend,
            "--fuel",
            "1000",
            "programs/diverge.fj",
        ]);
        assert_eq!(code, Some(5), "backend {backend}: stderr: {stderr}");
        assert!(stderr.contains("budget exhausted"), "{backend}: {stderr}");
    }
}

#[test]
fn wall_clock_timeout_exits_5_on_both_backends() {
    for backend in ["machine", "vm"] {
        let (_, stderr, code) = fj_code(&[
            "run",
            "--backend",
            backend,
            "--timeout-ms",
            "50",
            "programs/diverge.fj",
        ]);
        assert_eq!(code, Some(5), "backend {backend}: stderr: {stderr}");
        assert!(
            stderr.contains("wall-clock deadline exhausted"),
            "{backend}: {stderr}"
        );
    }
}

// ---- adversarial bands: parser depth and the growth budget --------------
//
// The fuzz farm's adversarial bands push generated programs up against
// these limits; the tests below pin the *boundary* behavior for curated
// inputs: one step inside each limit compiles, one step outside fails
// with the documented exit code and a one-line diagnostic — never a
// panic or a stack overflow (either would surface as a signal death,
// i.e. `code == None`, or a "panicked" line on stderr).

/// `k` pairs of parentheses around a literal. Each pair descends two
/// grammar levels (expression, then atom), so the parser's depth limit
/// of `MAX_NESTING_DEPTH` is reached at `MAX_NESTING_DEPTH / 2` pairs.
fn nested_parens_program(k: usize) -> String {
    format!("def main : Int = {}1{};\n", "(".repeat(k), ")".repeat(k))
}

/// A large (> `GROWTH_FLOOR` nodes) loop whose body cannot be constant
/// folded: the contification pass rewrites it while keeping its size, so
/// any growth factor below 1 trips the budget and a generous one passes.
fn growth_heavy_program() -> String {
    let terms: Vec<String> = (1..120).map(|i| format!("n * {i}")).collect();
    format!(
        "def main : Int =\n  letrec loop : Int -> Int -> Int =\n    \
         \\(n : Int) (acc : Int) ->\n      \
         if n <= 0 then acc else loop (n - 1) (acc + {})\n  in loop 10 0;\n",
        terms.join(" + ")
    )
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("fj_cli_{}_{name}.fj", std::process::id()));
    std::fs::write(&path, contents).expect("write temp program");
    path
}

#[test]
fn nesting_depth_band_is_a_clean_parse_error() {
    let limit_pairs = system_fj::surface::MAX_NESTING_DEPTH / 2;

    let inside = write_temp("depth_inside", &nested_parens_program(limit_pairs - 1));
    let (stdout, stderr, code) = fj_code(&["check", inside.to_str().unwrap()]);
    assert_eq!(code, Some(0), "one inside the limit: {stderr}");
    assert!(stdout.contains("OK"), "{stdout}");

    let outside = write_temp("depth_outside", &nested_parens_program(limit_pairs));
    for command in ["check", "run"] {
        let (_, stderr, code) = fj_code(&[command, outside.to_str().unwrap()]);
        assert_eq!(code, Some(2), "{command}: {stderr}");
        assert!(
            stderr.contains("nesting exceeds depth limit"),
            "{command}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{command}: {stderr}");
    }
    let _ = std::fs::remove_file(inside);
    let _ = std::fs::remove_file(outside);
}

#[test]
fn growth_budget_band_exits_4_cleanly() {
    let program = write_temp("growth", &growth_heavy_program());
    let path = program.to_str().unwrap();

    // Generous budget: the same program sails through.
    let (_, stderr, code) = fj_code(&["dump", "--max-growth", "100.0", path]);
    assert_eq!(code, Some(0), "generous budget: {stderr}");

    // A factor below 1 demands shrinkage the passes can't deliver.
    for command in ["dump", "run"] {
        let (_, stderr, code) = fj_code(&[command, "--max-growth", "0.5", path]);
        assert_eq!(code, Some(4), "{command}: {stderr}");
        assert!(stderr.contains("growth budget"), "{command}: {stderr}");
        assert!(!stderr.contains("panicked"), "{command}: {stderr}");
    }
    let _ = std::fs::remove_file(program);
}

#[test]
fn resilient_run_matches_strict_run() {
    let (strict, _, ok) = fj(&["run", "programs/sum.fj"]);
    assert!(ok);
    let (resilient, stderr, ok) = fj(&["run", "--resilient", "programs/sum.fj"]);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(strict.trim(), resilient.trim());
    // Nothing failed, so nothing was rolled back.
    assert!(!stderr.contains("rolled back"), "{stderr}");
}

#[test]
fn resilient_budget_flags_are_accepted() {
    let (stdout, stderr, ok) = fj(&[
        "run",
        "--resilient",
        "--pass-deadline-ms",
        "10000",
        "--max-growth",
        "100.0",
        "--max-passes",
        "64",
        "programs/sum.fj",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout.trim(), "500500");
}
