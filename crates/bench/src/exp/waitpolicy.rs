//! EXT-11: how ranks wait matters as much as how they are prioritized.
//!
//! Section VI: "it is recommended that the user reduces the thread
//! priority whenever the processor is executing a low-priority operation
//! (such as spinning for a lock, polling, etc.)". Stock MPICH busy-waits
//! at the process priority, strangling the still-computing sibling; this
//! experiment compares, on MetBench and BT-MZ:
//!
//! 1. `SpinOwn` — stock behaviour (what the paper's experiments assume);
//! 2. `SpinAt(2)` — the cooperative library the paper recommends
//!    (user-space or-nop to LOW before polling);
//! 3. `Block` — a kernel-assisted wait: the context idles at VERY LOW and
//!    donates everything (leftover mode).
//!
//! Each policy runs with reference priorities and with the paper's best
//! case — showing how much of the static-priority win a smarter wait
//! already captures.

use crate::harness::run_static;
use crate::run_case;
use mtb_core::balance::StaticRun;
use mtb_core::paper_cases::{btmz_cases, metbench_cases, Case};
use mtb_oskernel::WaitPolicy;
use mtb_trace::{cycles_to_seconds, Table};
use mtb_workloads::{BtMzConfig, MetBenchConfig};

pub fn run() {
    println!("EXT-11 — MPI wait policy (Section VI's recommendation, quantified)\n");

    let apps: Vec<(&str, Vec<mtb_mpisim::program::Program>, Vec<Case>)> = vec![
        (
            "MetBench",
            MetBenchConfig::default().programs(),
            metbench_cases(),
        ),
        ("BT-MZ", BtMzConfig::default().programs(), btmz_cases()),
    ];

    for (name, progs, cases) in &apps {
        let reference = run_case(progs, &cases[0]).total_cycles as f64;
        let best_case = if *name == "MetBench" {
            &cases[2]
        } else {
            &cases[3]
        };

        let mut t = Table::new(&[
            "wait policy",
            "reference prios (s)",
            "vs stock",
            "best-case prios (s)",
            "vs stock",
        ]);
        for (label, policy) in [
            ("SpinOwn (stock MPICH)", WaitPolicy::SpinOwn),
            ("SpinAt(2) (cooperative)", WaitPolicy::SpinAt(2)),
            ("Block (kernel-assisted)", WaitPolicy::Block),
        ] {
            let plain = run_static(
                StaticRun::new(progs, cases[0].placement.clone())
                    .with_priorities(cases[0].priorities.clone())
                    .with_wait_policy(policy),
            )
            .unwrap();
            let tuned = run_static(
                StaticRun::new(progs, best_case.placement.clone())
                    .with_priorities(best_case.priorities.clone())
                    .with_wait_policy(policy),
            )
            .unwrap();
            t.row_owned(vec![
                label.to_string(),
                format!("{:.2}", cycles_to_seconds(plain.total_cycles)),
                format!(
                    "{:+.1}%",
                    100.0 * (reference - plain.total_cycles as f64) / reference
                ),
                format!("{:.2}", cycles_to_seconds(tuned.total_cycles)),
                format!(
                    "{:+.1}%",
                    100.0 * (reference - tuned.total_cycles as f64) / reference
                ),
            ]);
        }
        println!("{name} (reference = SpinOwn, case A priorities):");
        println!("{}", t.render());
    }

    println!(
        "A cooperative wait policy captures much of the balancing win with\n\
         NO priority tuning at all — and composes with the paper's static\n\
         priorities for the rest. This is exactly why MPI libraries grew\n\
         yield/backoff waits in the years after the paper."
    );
}
