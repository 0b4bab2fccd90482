//! One-command reproduction report: reruns Tables IV-VI and prints the
//! paper-vs-measured comparison as markdown (the numbers behind
//! EXPERIMENTS.md).
//!
//! ```sh
//! cargo run -p mtb-bench --release --bin mtb -- exp report > report.md
//! ```

use crate::{run_case, run_cases};
use mtb_core::paper_cases::{
    btmz_cases, btmz_st_case, metbench_cases, siesta_cases, siesta_st_case, Case,
};
use mtb_mpisim::engine::RunResult;
use mtb_trace::cycles_to_seconds;
use mtb_workloads::{BtMzConfig, MetBenchConfig, SiestaConfig};

/// One row of a markdown comparison table.
fn md_rows(
    paper: &[(&str, f64, f64)], // (case, paper exec s, paper improvement %)
    runs: &[(Case, RunResult)],
) -> String {
    let reference = runs
        .iter()
        .find(|(c, _)| c.name == "A")
        .map(|(_, r)| r.total_cycles as f64)
        .unwrap_or(1.0);
    let mut out = String::from(
        "| case | paper exec | ours exec | paper Δ vs A | ours Δ vs A |\n|---|---|---|---|---|\n",
    );
    for (name, paper_exec, paper_imp) in paper {
        let Some((_, run)) = runs.iter().find(|(c, _)| &c.name == name) else {
            continue;
        };
        let ours = cycles_to_seconds(run.total_cycles);
        let imp = 100.0 * (reference - run.total_cycles as f64) / reference;
        out.push_str(&format!(
            "| {name} | {paper_exec:.2}s | {ours:.2}s | {paper_imp:+.2}% | {imp:+.2}% |\n"
        ));
    }
    out
}

pub fn run() {
    println!("# mtbalance reproduction report\n");
    println!(
        "Deterministic regeneration of the paper's evaluation tables \
         (Boneti et al., IPDPS 2008). Seconds are simulated cycles at a \
         nominal 1.5 GHz.\n"
    );

    // Table IV.
    let met = MetBenchConfig::default();
    let met_runs = run_cases(metbench_cases(), |_| met.programs());
    println!("## Table IV — MetBench\n");
    println!(
        "{}",
        md_rows(
            &[
                ("A", 81.64, 0.0),
                ("B", 76.98, 5.71),
                ("C", 74.90, 8.26),
                ("D", 95.71, -17.23),
            ],
            &met_runs,
        )
    );

    // Table V.
    let bt_st = run_case(&BtMzConfig::st_mode().programs(), &btmz_st_case());
    let bt = BtMzConfig::default();
    let mut bt_runs = vec![(btmz_st_case(), bt_st)];
    bt_runs.extend(run_cases(btmz_cases(), |_| bt.programs()));
    println!("## Table V — BT-MZ\n");
    println!(
        "{}",
        md_rows(
            &[
                ("ST", 108.32, -32.68),
                ("A", 81.64, 0.0),
                ("B", 127.91, -56.68),
                ("C", 75.62, 7.37),
                ("D", 66.88, 18.08),
            ],
            &bt_runs,
        )
    );

    // Table VI.
    let si_st = run_case(&SiestaConfig::st_mode().programs(), &siesta_st_case());
    let si = SiestaConfig::default();
    let mut si_runs = vec![(siesta_st_case(), si_st)];
    si_runs.extend(run_cases(siesta_cases(), |_| si.programs()));
    println!("## Table VI — SIESTA\n");
    println!(
        "{}",
        md_rows(
            &[
                ("ST", 1236.05, -43.97),
                ("A", 858.57, 0.0),
                ("B", 847.91, 1.24),
                ("C", 789.20, 8.08),
                ("D", 976.35, -13.72),
            ],
            &si_runs,
        )
    );

    // Headline verification.
    println!("## Headline checks\n");
    let imp = |runs: &[(Case, RunResult)], name: &str| {
        let a = runs
            .iter()
            .find(|(c, _)| c.name == "A")
            .unwrap()
            .1
            .total_cycles as f64;
        let x = runs
            .iter()
            .find(|(c, _)| c.name == name)
            .unwrap()
            .1
            .total_cycles as f64;
        100.0 * (a - x) / a
    };
    let bt_d = imp(&bt_runs, "D");
    let si_c = imp(&si_runs, "C");
    println!(
        "- BT-MZ best case: **{bt_d:+.1}%** (paper: +18.08%) — {}",
        if (14.0..25.0).contains(&bt_d) {
            "REPRODUCED"
        } else {
            "DEVIATES"
        }
    );
    println!(
        "- SIESTA best case: **{si_c:+.1}%** (paper: +8.1%) — {}",
        if (4.0..12.0).contains(&si_c) {
            "REPRODUCED"
        } else {
            "DEVIATES"
        }
    );
    let met_d = imp(&met_runs, "D");
    println!(
        "- MetBench case-D inversion: **{met_d:+.1}%** (paper: −17.2%) — {}",
        if met_d < -10.0 {
            "REPRODUCED"
        } else {
            "DEVIATES"
        }
    );
}
