//! # mtb-bench — the benchmark harness
//!
//! One driver binary, `mtb`, regenerates every table and figure of the
//! paper (`mtb tables <1-6|all> [--gantt]`, from [`tables`]), runs the
//! report, ablation and extension experiments (`mtb exp <NAME>`, from
//! [`exp`]) and times the fast paths against their references
//! (`mtb bench`, from [`perf`]).
//! The commands print the same rows the paper reports; `EXPERIMENTS.md`
//! records the comparison and `tests/golden/` pins every command's stdout.

#![forbid(unsafe_code)]

pub mod bisect;
pub mod cli;
pub mod exp;
pub mod harness;
pub mod lint;
pub mod perf;
pub mod suggest;
pub mod table_dynamic;
pub mod tables;

// The lossless JSON codec moved to the checkpoint crate (`mtb-snap`);
// the harness's run cache keeps using it from there.
pub use mtb_snap::json;

use harness::SweepRunner;
use mtb_core::analysis::{improvements_over, render_case_table};
use mtb_core::paper_cases::Case;
use mtb_mpisim::engine::RunResult;
use mtb_mpisim::program::Program;
use mtb_trace::{cycles_to_seconds, render_gantt, GanttConfig};

/// Execute `case` over `programs`, through the global run-record cache
/// (`--no-cache` to force a fresh simulation).
///
/// # Panics
/// Panics when the priority configuration is invalid for the kernel — the
/// paper-case configurations are always valid on the patched kernel.
pub fn run_case(programs: &[Program], case: &Case) -> RunResult {
    SweepRunner::global().run_case(programs, case)
}

/// Run every case with programs built per rank count (ST rows use 2-rank
/// programs), fanned over the harness worker pool (`--jobs N`), and print
/// the harness summary line to stderr.
pub fn run_cases(
    cases: Vec<Case>,
    programs_for: impl Fn(&Case) -> Vec<Program> + Sync,
) -> Vec<(Case, RunResult)> {
    let runner = SweepRunner::global();
    let before = runner.stats();
    let t0 = std::time::Instant::now();
    let runs = runner.run_sweep(cases, programs_for);
    let after = runner.stats();
    let sweep = harness::SweepStats {
        cases_run: after.cases_run - before.cases_run,
        cache_hits: after.cache_hits - before.cache_hits,
        // Elapsed sweep time, not summed per-case time — with several
        // jobs the latter exceeds the wall clock.
        wall_secs: t0.elapsed().as_secs_f64(),
    };
    eprintln!("{}", sweep.line());
    runs
}

/// Render the paper-style table plus the improvement summary.
pub fn report(title: &str, reference: &str, runs: &[(Case, RunResult)]) -> String {
    let mut out = render_case_table(title, runs);
    out.push('\n');
    for (name, imp) in improvements_over(reference, runs) {
        out.push_str(&format!(
            "case {name}: exec {:.2}s, improvement over {reference}: {imp:+.2}%\n",
            cycles_to_seconds(
                runs.iter()
                    .find(|(c, _)| c.name == name)
                    .unwrap()
                    .1
                    .total_cycles
            )
        ));
    }
    out
}

/// Render the per-case Gantt charts (the paper's Figures 2-4).
pub fn gantts(figure: &str, runs: &[(Case, RunResult)], width: usize) -> String {
    let mut out = String::new();
    for (case, result) in runs {
        let cfg = GanttConfig {
            width,
            legend: false,
            title: Some(format!("{figure} — Case {}", case.name)),
            window: None,
        };
        out.push_str(&render_gantt(&result.timelines, &cfg));
        out.push('\n');
    }
    out.push_str("legend: i=init #=compute .=sync %=comm !=interrupt f=final\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtb_core::paper_cases::metbench_cases;
    use mtb_workloads::metbench::MetBenchConfig;

    #[test]
    fn harness_runs_a_tiny_table() {
        let cfg = MetBenchConfig::tiny();
        let runs = run_cases(metbench_cases(), |_| cfg.programs());
        assert_eq!(runs.len(), 4);
        let rep = report("TABLE IV (tiny)", "A", &runs);
        assert!(rep.contains("case A"));
        assert!(rep.contains("case D"));
        let g = gantts("Figure 2 (tiny)", &runs, 40);
        assert!(g.contains("Case A"));
    }
}
