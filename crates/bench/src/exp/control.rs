//! EXT-8: the control experiment — balanced workloads.
//!
//! SP-MZ and LU-MZ partition their meshes into equal zones, so there is
//! no imbalance to fix. Applying the paper's best BT-MZ treatment (paired
//! mapping + 4,4,5,6 priorities) to them should gain nothing — and the
//! misapplied priorities should actively hurt, since the "boosted" ranks
//! were not bottlenecks. The audited dynamic policy, by contrast, detects
//! the balance and stays idle.

use crate::harness::run_static;
use mtb_core::balance::{execute_with, StaticRun};
use mtb_core::paper_cases::{btmz_cases, btmz_paired_placement};
use mtb_trace::cycles_to_seconds;
use mtb_workloads::spmz::SpMzConfig;

pub fn run() {
    println!("EXT-8 — balanced control workloads (SP-MZ, LU-MZ)\n");
    for (name, cfg) in [("SP-MZ", SpMzConfig::sp()), ("LU-MZ", SpMzConfig::lu())] {
        let progs = cfg.programs();

        let reference = run_static(StaticRun::new(&progs, cfg.placement())).unwrap();
        // Misapply BT-MZ's winning treatment.
        let case_d = &btmz_cases()[3];
        let misapplied = run_static(
            StaticRun::new(&progs, btmz_paired_placement())
                .with_priorities(case_d.priorities.clone()),
        )
        .unwrap();
        let mut balancer = super::reactive(&cfg.placement());
        let dynamic = execute_with(StaticRun::new(&progs, cfg.placement()), &mut balancer).unwrap();

        let pct = |r: &mtb_mpisim::engine::RunResult| {
            100.0 * (reference.total_cycles as f64 - r.total_cycles as f64)
                / reference.total_cycles as f64
        };
        println!("{name}:");
        println!(
            "  reference:                {:7.2}s (imbalance {:.2}%)",
            cycles_to_seconds(reference.total_cycles),
            reference.metrics.imbalance_pct
        );
        println!(
            "  BT-MZ case-D treatment:   {:7.2}s ({:+.1}%) — misapplied priorities hurt",
            cycles_to_seconds(misapplied.total_cycles),
            pct(&misapplied)
        );
        println!(
            "  dynamic policy:           {:7.2}s ({:+.1}%), {} adjustments, {} reverts\n",
            cycles_to_seconds(dynamic.total_cycles),
            pct(&dynamic),
            balancer.adjustments(),
            balancer.reverts()
        );
    }
    println!(
        "Nothing to rebalance: static boosts only penalize non-bottlenecks,\n\
         while the audited dynamic policy recognizes the balance and stays\n\
         (nearly) idle — the safety property the paper's conclusion asks for."
    );
}
