//! Integration tests for the EXT-8 control experiment: balanced workloads
//! gain nothing from priorities, misapplied priorities hurt, and the
//! audited dynamic policy stays idle.

use mtbalance::balance::paper_cases::{btmz_cases, btmz_paired_placement};
use mtbalance::workloads::spmz::{MzKind, SpMzConfig};
use mtbalance::{execute, execute_with, ControllerConfig, StaticRun, TwoLevelController};

fn cfg(kind: MzKind) -> SpMzConfig {
    let mut c = SpMzConfig::tiny(kind);
    c.iterations = 12;
    c.scale = 1e-2;
    c
}

#[test]
fn balanced_workloads_have_no_imbalance() {
    for kind in [MzKind::SpMz, MzKind::LuMz] {
        let c = cfg(kind);
        let r = execute(StaticRun::new(&c.programs(), c.placement())).unwrap();
        assert!(
            r.metrics.imbalance_pct < 1.0,
            "{kind:?} is balanced by construction: {}",
            r.metrics.imbalance_pct
        );
    }
}

#[test]
fn misapplied_priorities_hurt_balanced_workloads() {
    let c = cfg(MzKind::SpMz);
    let progs = c.programs();
    let reference = execute(StaticRun::new(&progs, c.placement())).unwrap();
    let case_d = &btmz_cases()[3];
    let misapplied = execute(
        StaticRun::new(&progs, btmz_paired_placement()).with_priorities(case_d.priorities.clone()),
    )
    .unwrap();
    assert!(
        misapplied.total_cycles as f64 > reference.total_cycles as f64 * 1.5,
        "boosting non-bottlenecks must backfire: {} vs {}",
        misapplied.total_cycles,
        reference.total_cycles
    );
}

#[test]
fn dynamic_policy_stays_idle_on_balanced_workloads() {
    for kind in [MzKind::SpMz, MzKind::LuMz] {
        let c = cfg(kind);
        let progs = c.programs();
        let reference = execute(StaticRun::new(&progs, c.placement())).unwrap();
        let reactive = ControllerConfig {
            max_remaps: 0,
            ..Default::default()
        };
        let mut balancer = TwoLevelController::new(&c.placement(), reactive);
        let dynamic = execute_with(StaticRun::new(&progs, c.placement()), &mut balancer).unwrap();
        assert_eq!(
            balancer.adjustments(),
            0,
            "{kind:?}: nothing to adjust on a balanced run"
        );
        assert_eq!(dynamic.total_cycles, reference.total_cycles);
    }
}
