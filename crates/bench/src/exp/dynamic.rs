//! EXT-1: the paper's future work — dynamic (automatic) priority
//! balancing vs the best static configuration, on the workload where the
//! paper argues it should matter most: SIESTA, whose bottleneck moves
//! between iterations. Shows both modes of the two-level controller: v1,
//! purely reactive (level 1 disabled, no plan), and v2, the full
//! controller (plan-primed feedforward + saturation-triggered remap) that
//! `mtb table-dynamic` gates in CI.

use crate::run_case;
use mtb_core::balance::{execute_with, StaticRun};
use mtb_core::paper_cases::{siesta_cases, Case};
use mtb_core::policy::PrioritySetting;
use mtb_core::{ControllerConfig, TwoLevelController};
use mtb_trace::cycles_to_seconds;
use mtb_workloads::metbench::MetBenchConfig;
use mtb_workloads::siesta::SiestaConfig;

pub fn run() {
    println!("EXT-1 — dynamic priority balancing vs static configurations\n");

    // SIESTA: reference, best static (case C), v1 reactive, v2 two-level.
    let scfg = SiestaConfig::default();
    let sprogs = scfg.programs();
    let cases = siesta_cases();
    let reference = run_case(&sprogs, &cases[0]);
    let best_static = run_case(&sprogs, &cases[2]); // case C

    let mut reactive = super::reactive(&cases[0].placement);
    let dyn_v1 = execute_with(
        StaticRun::new(&sprogs, cases[0].placement.clone()),
        &mut reactive,
    )
    .unwrap();

    let mut ctl =
        TwoLevelController::for_programs(&sprogs, &cases[0].placement, ControllerConfig::default());
    let dyn_v2 = execute_with(
        StaticRun::new(&sprogs, cases[0].placement.clone()),
        &mut ctl,
    )
    .unwrap();

    let report = |label: &str, r: &mtb_mpisim::engine::RunResult| {
        println!(
            "{label:<46} exec {:8.2}s  imbalance {:5.2}%  vs reference {:+.2}%",
            cycles_to_seconds(r.total_cycles),
            r.metrics.imbalance_pct,
            100.0 * (reference.total_cycles as f64 - r.total_cycles as f64)
                / reference.total_cycles as f64,
        );
    };
    println!("SIESTA-like (40 iterations, moving bottleneck):");
    report("  A    reference (identity, all MEDIUM)", &reference);
    report("  C    best static (paper's hand tuning)", &best_static);
    report("  v1   reactive balancer, identity mapping", &dyn_v1);
    println!("         ({} priority adjustments)", reactive.adjustments());
    report("  v2   two-level controller (plan-primed)", &dyn_v2);
    println!(
        "         ({} adjustments, {} reverts, {} remaps)",
        ctl.adjustments(),
        ctl.reverts(),
        ctl.remaps()
    );

    // MetBench: static imbalance — the controller should find
    // case-C-like gains from the plan alone.
    println!("\nMetBench (static 4x imbalance):");
    let mcfg = MetBenchConfig::default();
    let mprogs = mcfg.programs();
    let mcase = Case {
        name: "A",
        placement: mcfg.placement(),
        priorities: vec![PrioritySetting::Default; 4],
    };
    let mref = run_case(&mprogs, &mcase);
    let mut mctl =
        TwoLevelController::for_programs(&mprogs, &mcfg.placement(), ControllerConfig::default());
    let mdyn = execute_with(StaticRun::new(&mprogs, mcfg.placement()), &mut mctl).unwrap();
    println!(
        "  reference: {:.2}s | two-level: {:.2}s ({:+.2}%, {} adjustments, {} remaps)",
        cycles_to_seconds(mref.total_cycles),
        cycles_to_seconds(mdyn.total_cycles),
        100.0 * (mref.total_cycles as f64 - mdyn.total_cycles as f64) / mref.total_cycles as f64,
        mctl.adjustments(),
        mctl.remaps(),
    );
}
