//! # fj-nofib — the NoFib-analogue benchmark suite and Table-1 harness
//!
//! Reproduces the evaluation of "Compiling without continuations"
//! (Table 1, plus the Sec. 5 fusion study and a pass ablation). Each
//! benchmark is a surface-language program named after its Table-1 row;
//! the harness compiles it twice —
//!
//! * **baseline**: GHC-before-the-paper ([`OptConfig::baseline`]): the
//!   optimizer neither creates nor exploits join points, and join points
//!   are recognized only at "code generation" (one trailing contify);
//! * **join points**: the paper's compiler ([`OptConfig::join_points`]).
//!
//! — then runs both on the abstract machine (call-by-value, as the paper
//! notes everything applies to a strict language too) and compares heap
//! allocations, the paper's own metric.
//!
//! ## Example
//!
//! ```no_run
//! let rows = fj_nofib::run_report();
//! let fusion = fj_nofib::fusion_exp::run_fusion_experiment(&[100, 1_000, 10_000]);
//! let ablation = fj_nofib::run_ablation();
//! println!("{}", fj_nofib::format_report(&rows, &fusion, &ablation));
//! ```

#![warn(missing_docs)]

mod more_real;
mod more_shootout;
mod more_spectral;
mod real;
mod shootout;
mod spectral;

pub mod candles;
pub mod fusion_exp;
pub mod vm_ops;

use fj_core::{optimize_with_report, OptConfig, PipelineReport};
use fj_eval::{run, EvalMode, Metrics, Value};
use fj_surface::compile;

/// Which NoFib suite a program belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Suite {
    /// The `spectral` suite (algorithmic kernels).
    Spectral,
    /// The `real` suite (application-shaped programs).
    Real,
    /// The `shootout` suite (hand-tuned inner loops).
    Shootout,
}

impl Suite {
    /// Display name, as in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Spectral => "spectral",
            Suite::Real => "real",
            Suite::Shootout => "shootout",
        }
    }
}

/// One benchmark program.
#[derive(Clone, Copy, Debug)]
pub struct Program {
    /// Row name (matches Table 1).
    pub name: &'static str,
    /// Its suite.
    pub suite: Suite,
    /// Surface-language source.
    pub source: &'static str,
    /// Expected `main` value, when it is meaningful to pin (sanity).
    pub expected: Option<i64>,
}

/// All benchmark programs, spectral then real then shootout.
pub fn programs() -> Vec<Program> {
    let mut v = spectral::programs();
    v.extend(more_spectral::programs());
    v.extend(real::programs());
    v.extend(more_real::programs());
    v.extend(shootout::programs());
    v.extend(more_shootout::programs());
    v
}

/// Step budget for benchmark runs.
pub const FUEL: u64 = 50_000_000;

/// Instruction budget for VM-backend runs (instructions are a finer
/// unit than machine transitions, so the budget is larger).
pub const VM_FUEL: u64 = 500_000_000;

/// Which execution backend runs a compiled benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The Fig. 3 substitution machine in `fj-eval` (the reference).
    Machine,
    /// The flat jump-threaded bytecode VM in `fj-vm`.
    Vm,
}

impl Backend {
    /// Display name (matches the CLI's `--backend` values).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Machine => "machine",
            Backend::Vm => "vm",
        }
    }

    /// Parse a `--backend` value.
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "machine" => Some(Backend::Machine),
            "vm" => Some(Backend::Vm),
            _ => None,
        }
    }

    /// Run a lowered term by value with the backend's default budget.
    ///
    /// # Errors
    ///
    /// The backend's own error, stringified (the two backends have
    /// distinct error types; callers only report them).
    pub fn run(self, e: &fj_ast::Expr) -> Result<fj_eval::Outcome, String> {
        match self {
            Backend::Machine => run(e, EvalMode::CallByValue, FUEL).map_err(|e| e.to_string()),
            Backend::Vm => fj_vm::run(e, EvalMode::CallByValue, VM_FUEL).map_err(|e| e.to_string()),
        }
    }
}

/// Compile, lint, and optimize a benchmark source under a pipeline,
/// returning the lowered term ready for either backend.
///
/// # Panics
///
/// As [`measure`] — benchmarks are expected to be well-formed.
pub fn lower(source: &str, cfg: &OptConfig) -> fj_ast::Expr {
    lower_with_report(source, cfg).0
}

/// As [`lower`], also returning the optimizer's [`PipelineReport`].
fn lower_with_report(source: &str, cfg: &OptConfig) -> (fj_ast::Expr, PipelineReport) {
    let mut lowered = compile(source).unwrap_or_else(|e| panic!("compile: {e}"));
    fj_check::lint(&lowered.expr, &lowered.data_env)
        .unwrap_or_else(|e| panic!("lint: {e}\n{}", lowered.expr));
    optimize_with_report(&lowered.expr, &lowered.data_env, &mut lowered.supply, cfg)
        .unwrap_or_else(|e| panic!("optimize: {e}"))
}

/// As [`measure`], on a chosen backend, also timing the run itself
/// (compilation and optimization excluded).
///
/// # Panics
///
/// As [`measure`].
pub fn measure_backend(
    source: &str,
    cfg: &OptConfig,
    backend: Backend,
) -> (i64, Metrics, std::time::Duration) {
    let out = lower(source, cfg);
    let start = std::time::Instant::now();
    let o = backend
        .run(&out)
        .unwrap_or_else(|e| panic!("{} eval: {e}\n{out}", backend.name()));
    let wall = start.elapsed();
    match o.value {
        Value::Int(n) => (n, o.metrics, wall),
        other => panic!("benchmark main must return Int, got {other}"),
    }
}

/// Per-program measurement: allocations under both compilers.
#[derive(Clone, Debug)]
pub struct Row {
    /// Row name.
    pub name: &'static str,
    /// Suite.
    pub suite: Suite,
    /// The program's result (both configurations agree; checked).
    pub value: i64,
    /// Machine metrics under the baseline pipeline.
    pub baseline: Metrics,
    /// Machine metrics under the join-points pipeline.
    pub joined: Metrics,
}

impl Row {
    /// Allocation delta in percent, negative = join points improved.
    pub fn delta_pct(&self) -> f64 {
        self.joined.alloc_delta_pct(&self.baseline)
    }
}

/// Compile a program under a pipeline, run it by value, and return the
/// integer result with metrics.
///
/// # Panics
///
/// Panics on compile, lint, optimize, or machine errors — benchmarks are
/// expected to be well-formed; a failure is a harness bug worth a loud
/// stop.
pub fn measure(source: &str, cfg: &OptConfig) -> (i64, Metrics) {
    let (n, metrics, _) = measure_with_report(source, cfg);
    (n, metrics)
}

/// As [`measure`], also returning the optimizer's per-pass
/// [`PipelineReport`] (rewrite counters, censuses, wall times).
///
/// # Panics
///
/// As [`measure`].
pub fn measure_with_report(source: &str, cfg: &OptConfig) -> (i64, Metrics, PipelineReport) {
    let (out, report) = lower_with_report(source, cfg);
    let o = run(&out, EvalMode::CallByValue, FUEL).unwrap_or_else(|e| panic!("eval: {e}\n{out}"));
    match o.value {
        Value::Int(n) => (n, o.metrics, report),
        other => panic!("benchmark main must return Int, got {other}"),
    }
}

/// Run one benchmark under both pipelines.
///
/// # Panics
///
/// As [`measure`]; also panics if the two configurations disagree on the
/// program's value, or if `expected` is pinned and missed.
pub fn run_program(p: &Program) -> Row {
    let (v_base, m_base) = measure(p.source, &OptConfig::baseline());
    let (v_join, m_join) = measure(p.source, &OptConfig::join_points());
    assert_eq!(
        v_base, v_join,
        "{}: baseline and join-points disagree ({v_base} vs {v_join})",
        p.name
    );
    if let Some(exp) = p.expected {
        assert_eq!(v_join, exp, "{}: expected {exp}, got {v_join}", p.name);
    }
    Row {
        name: p.name,
        suite: p.suite,
        value: v_join,
        baseline: m_base,
        joined: m_join,
    }
}

/// A [`Row`] plus the optimizer activity behind it, for `fj report`.
#[derive(Clone, Debug)]
pub struct ReportRow {
    /// The allocation comparison.
    pub row: Row,
    /// What the baseline pipeline did.
    pub baseline_report: PipelineReport,
    /// What the join-points pipeline did.
    pub joined_report: PipelineReport,
    /// Wall time of the Fig. 3 machine on the join-points output.
    pub machine_wall: std::time::Duration,
    /// Wall time of the bytecode VM on the same term.
    pub vm_wall: std::time::Duration,
}

impl ReportRow {
    /// Machine-over-VM wall-time ratio (how many times faster the
    /// bytecode backend ran this program).
    pub fn speedup(&self) -> f64 {
        let vm = self.vm_wall.as_secs_f64();
        if vm == 0.0 {
            f64::INFINITY
        } else {
            self.machine_wall.as_secs_f64() / vm
        }
    }
}

/// Run one benchmark under both pipelines, keeping the pipeline reports.
///
/// # Panics
///
/// As [`run_program`].
pub fn run_program_with_reports(p: &Program) -> ReportRow {
    let (v_base, m_base, base_rep) = measure_with_report(p.source, &OptConfig::baseline());
    let (v_join, m_join, join_rep) = measure_with_report(p.source, &OptConfig::join_points());
    assert_eq!(
        v_base, v_join,
        "{}: baseline and join-points disagree ({v_base} vs {v_join})",
        p.name
    );
    if let Some(exp) = p.expected {
        assert_eq!(v_join, exp, "{}: expected {exp}, got {v_join}", p.name);
    }
    let (_, _, machine_wall) =
        measure_backend(p.source, &OptConfig::join_points(), Backend::Machine);
    let (v_vm, m_vm, vm_wall) = measure_backend(p.source, &OptConfig::join_points(), Backend::Vm);
    assert_eq!(
        v_vm, v_join,
        "{}: vm backend disagrees on the value",
        p.name
    );
    assert_eq!(
        (
            m_vm.let_allocs,
            m_vm.arg_allocs,
            m_vm.con_allocs,
            m_vm.jumps
        ),
        (
            m_join.let_allocs,
            m_join.arg_allocs,
            m_join.con_allocs,
            m_join.jumps
        ),
        "{}: vm backend disagrees on allocation metrics",
        p.name
    );
    ReportRow {
        row: Row {
            name: p.name,
            suite: p.suite,
            value: v_join,
            baseline: m_base,
            joined: m_join,
        },
        baseline_report: base_rep,
        joined_report: join_rep,
        machine_wall,
        vm_wall,
    }
}

/// Run the whole suite with pipeline reports (the `fj report` payload).
pub fn run_report() -> Vec<ReportRow> {
    programs().iter().map(run_program_with_reports).collect()
}

/// Render the `fj report` markdown: machine metrics under both
/// pipelines; the paper's evaluation (Table 1 from the same rows, the
/// Sec. 5 fusion series, the pass ablation) as aligned text; backend
/// wall times; then the optimizer activity (rewrite counters) that
/// explains the deltas.
pub fn format_report(
    rows: &[ReportRow],
    fusion: &[fusion_exp::FusionPoint],
    ablation: &[AblationRow],
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "# fj report — baseline vs join points\n").unwrap();
    writeln!(
        out,
        "Allocation counts from the abstract machine (call-by-value, the \
         paper's Table-1 metric); `Δ allocs` negative means the join-points \
         pipeline allocates less.\n"
    )
    .unwrap();
    writeln!(out, "## Machine metrics\n").unwrap();
    writeln!(
        out,
        "| program | suite | steps b/j | let b/j | arg b/j | con b/j | jumps b/j | stack b/j | Δ allocs |"
    )
    .unwrap();
    writeln!(out, "|---|---|---|---|---|---|---|---|---|").unwrap();
    for r in rows {
        let (b, j) = (&r.row.baseline, &r.row.joined);
        writeln!(
            out,
            "| {} | {} | {}/{} | {}/{} | {}/{} | {}/{} | {}/{} | {}/{} | {:+.1}% |",
            r.row.name,
            r.row.suite.name(),
            b.steps,
            j.steps,
            b.let_allocs,
            j.let_allocs,
            b.arg_allocs,
            j.arg_allocs,
            b.con_allocs,
            j.con_allocs,
            b.jumps,
            j.jumps,
            b.max_stack,
            j.max_stack,
            r.row.delta_pct()
        )
        .unwrap();
    }
    let table1: Vec<Row> = rows.iter().map(|r| r.row.clone()).collect();
    for (title, body) in [
        (
            "Table 1: allocations, baseline vs join points",
            format_table1(&table1),
        ),
        (
            "Sec. 5: stream-fusion series",
            fusion_exp::format_fusion(fusion),
        ),
        (
            "Ablation: join-points pipeline minus one pass",
            format_ablation(ablation),
        ),
    ] {
        writeln!(out, "\n## {title}\n\n```text\n{body}```").unwrap();
    }
    writeln!(out, "\n## Backend wall time (join-points pipeline)\n").unwrap();
    writeln!(
        out,
        "Same term, same counters — only the execution strategy differs: \
         the Fig. 3 substitution machine vs the flat jump-threaded \
         bytecode VM (`--backend vm`).\n"
    )
    .unwrap();
    writeln!(out, "| program | machine | vm | speedup |").unwrap();
    writeln!(out, "|---|---|---|---|").unwrap();
    for r in rows {
        writeln!(
            out,
            "| {} | {:.2?} | {:.2?} | {:.1}× |",
            r.row.name,
            r.machine_wall,
            r.vm_wall,
            r.speedup()
        )
        .unwrap();
    }
    writeln!(out, "\n## Optimizer activity (join-points pipeline)\n").unwrap();
    writeln!(
        out,
        "| program | contified | simplify rewrites | float-in | float-out | shared ctx | total | wall |"
    )
    .unwrap();
    writeln!(out, "|---|---|---|---|---|---|---|---|").unwrap();
    for r in rows {
        let t = r.joined_report.totals();
        writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {:.1?} |",
            r.row.name,
            t.contified,
            r.joined_report.rewrites_for("simplify"),
            t.floated_in,
            t.floated_out,
            t.shared_contexts,
            t.total(),
            r.joined_report.wall
        )
        .unwrap();
    }
    writeln!(out, "\n## Per-pass detail\n").unwrap();
    for r in rows {
        writeln!(out, "### {}\n", r.row.name).unwrap();
        writeln!(
            out,
            "| pass | outcome | rewrites | size | lets | joins | jumps |"
        )
        .unwrap();
        writeln!(out, "|---|---|---|---|---|---|---|").unwrap();
        for p in &r.joined_report.passes {
            writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} |",
                p.pass,
                p.outcome,
                p.rewrites,
                p.census_after.size,
                p.census_after.lets,
                p.census_after.joins,
                p.census_after.jumps
            )
            .unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

/// Minimum, maximum, and geometric mean of the deltas in a suite — the
/// paper's summary lines.
#[derive(Clone, Copy, Debug)]
pub struct SuiteSummary {
    /// Best (most negative) delta.
    pub min: f64,
    /// Worst delta.
    pub max: f64,
    /// Geometric mean of (1 + delta) − 1, in percent; `None` when any
    /// program hit −100% (the paper prints "n/a" for shootout for this
    /// reason).
    pub geo_mean: Option<f64>,
}

/// Summarize one suite's rows.
pub fn summarize(rows: &[Row], suite: Suite) -> SuiteSummary {
    let deltas: Vec<f64> = rows
        .iter()
        .filter(|r| r.suite == suite)
        .map(Row::delta_pct)
        .collect();
    let min = deltas.iter().copied().fold(f64::INFINITY, f64::min);
    let max = deltas.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let geo_mean = if deltas.iter().any(|d| *d <= -100.0) {
        None
    } else {
        let log_sum: f64 = deltas.iter().map(|d| (1.0 + d / 100.0).ln()).sum();
        Some(((log_sum / deltas.len() as f64).exp() - 1.0) * 100.0)
    };
    SuiteSummary { min, max, geo_mean }
}

/// Render the rows in the paper's Table-1 layout.
pub fn format_table1(rows: &[Row]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for suite in [Suite::Spectral, Suite::Real, Suite::Shootout] {
        writeln!(out, "{}", suite.name()).unwrap();
        writeln!(
            out,
            "{:<16} {:>10} {:>10} {:>8}",
            "Program", "base", "joins", "Allocs"
        )
        .unwrap();
        for r in rows.iter().filter(|r| r.suite == suite) {
            writeln!(
                out,
                "{:<16} {:>10} {:>10} {:>+7.1}%",
                r.name,
                r.baseline.total_allocs(),
                r.joined.total_allocs(),
                r.delta_pct()
            )
            .unwrap();
        }
        let s = summarize(rows, suite);
        writeln!(out, "{:<16} {:>21} {:>+7.1}%", "Min", "", s.min).unwrap();
        writeln!(out, "{:<16} {:>21} {:>+7.1}%", "Max", "", s.max).unwrap();
        match s.geo_mean {
            Some(g) => writeln!(out, "{:<16} {:>21} {:>+7.1}%", "Geo. Mean", "", g).unwrap(),
            None => writeln!(out, "{:<16} {:>21} {:>8}", "Geo. Mean", "", "n/a").unwrap(),
        }
        writeln!(out).unwrap();
    }
    out
}

/// One row of the ablation study (experiment A-ablate): the join-points
/// pipeline with one ingredient removed, over the whole suite.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Which configuration.
    pub label: &'static str,
    /// Total allocations across all benchmarks.
    pub total_allocs: u64,
    /// Total machine steps across all benchmarks.
    pub total_steps: u64,
}

/// Run the ablation: full pipeline vs pipeline-minus-one-pass vs baseline.
pub fn run_ablation() -> Vec<AblationRow> {
    let configs: Vec<(&'static str, OptConfig)> = vec![
        ("join-points (full)", OptConfig::join_points()),
        (
            "without contify",
            OptConfig::join_points_without(fj_core::Pass::Contify),
        ),
        (
            "without float-in",
            OptConfig::join_points_without(fj_core::Pass::FloatIn),
        ),
        (
            "without simplify",
            OptConfig::join_points_without(fj_core::Pass::Simplify),
        ),
        ("baseline", OptConfig::baseline()),
        ("no optimization", OptConfig::none()),
    ];
    configs
        .into_iter()
        .map(|(label, cfg)| {
            let mut total_allocs = 0u64;
            let mut total_steps = 0u64;
            for p in programs() {
                let (_, m) = measure(p.source, &cfg);
                total_allocs += m.total_allocs();
                total_steps += m.steps;
            }
            AblationRow {
                label,
                total_allocs,
                total_steps,
            }
        })
        .collect()
}

/// Render the ablation rows.
pub fn format_ablation(rows: &[AblationRow]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "{:<22} {:>12} {:>12}",
        "Configuration", "allocs", "steps"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:<22} {:>12} {:>12}",
            r.label, r.total_allocs, r.total_steps
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests;
