//! The dynamic controller's determinism contract, property-tested: the
//! two-level controller's decisions are a pure function of the epoch
//! windows and the static plan, so for any workload, stepping mode,
//! fidelity, and thread count, a controller-steered run produces
//! bit-identical record hashes *and* identical decision counters. The
//! suite also pins checkpoint-resume mid-window (the engine dies between
//! two epoch boundaries and is rebuilt around the surviving controller)
//! and the hysteresis property (no two opposing priority adjustments
//! within one cool-off window unless an audit reverted).

use mtb_bench::lint::record_hash;
use mtb_core::balance::{execute_with, prepare, StaticRun};
use mtb_core::paper_cases::Case;
use mtb_core::{ControllerConfig, DynamicConfig, TwoLevelController};
use mtb_mpisim::engine::{Observer, RankWindow, Stepping};
use mtb_oskernel::CtxAddr;
use mtb_workloads::MetBenchConfig;

use proptest::prelude::*;

/// Thread counts every configuration is replayed at (the CI gate checks
/// `MTB_JOBS` 1 vs 4; 2 catches odd sharding in between).
const JOBS: [usize; 3] = [1, 2, 4];

/// See `parallel_identity.rs`: make sure the permit budget can actually
/// grant workers so the threaded path is exercised.
fn ensure_workers() {
    let budget = mtb_pool::global_budget();
    budget.set_total(budget.total().max(8));
}

/// Everything a controller decided over a run, for exact comparison.
#[derive(Debug, PartialEq, Eq)]
struct Decisions {
    record_hash: u64,
    adjustments: usize,
    reverts: usize,
    remaps: usize,
    final_priorities: Vec<u8>,
}

/// Run one configuration under a fresh [`TwoLevelController`] and return
/// the record hash plus the controller's complete decision record.
fn steer(
    cfg: &MetBenchConfig,
    placement: &[CtxAddr],
    stepping: Stepping,
    cycle: bool,
    jobs: usize,
) -> Decisions {
    ensure_workers();
    let programs = cfg.programs();
    let case = Case {
        name: "dynamic-identity",
        placement: placement.to_vec(),
        priorities: Vec::new(),
    };
    let mut run = StaticRun::new(&programs, placement.to_vec())
        .on_cluster(2, 2)
        .with_stepping(stepping)
        .with_threads(jobs);
    if cycle {
        run = run.cycle_accurate();
    }
    let mut ctl =
        TwoLevelController::for_programs(&programs, placement, ControllerConfig::default());
    let result = execute_with(run, &mut ctl).expect("run failed");
    Decisions {
        record_hash: record_hash(&case, &result),
        adjustments: ctl.adjustments(),
        reverts: ctl.reverts(),
        remaps: ctl.remaps(),
        final_priorities: ctl.current_priorities().to_vec(),
    }
}

proptest! {
    // Each configuration replays at three thread counts and two stepping
    // modes; keep the case count small (the randomized seed, heavy rank,
    // and fidelity still vary across runs of the suite).
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Controller decisions and record hashes are identical across
    /// thread counts, for both stepping modes at the sampled fidelity.
    #[test]
    fn controller_identical_across_jobs_and_stepping(
        seed in 0u64..u64::MAX,
        heavy in 0usize..4,
        flip in 0u8..2,
    ) {
        let cycle = flip == 0;
        let cfg = MetBenchConfig {
            iterations: 4,
            scale: if cycle { 2e-7 } else { 1e-4 },
            heavy_ranks: vec![heavy],
            seed,
            ..MetBenchConfig::default()
        };
        // SMT-paired placement so the balancer has live pairs to tune.
        let placement: Vec<CtxAddr> = (0..4).map(CtxAddr::from_cpu).collect();
        for stepping in [Stepping::EventHorizon, Stepping::Quantum] {
            let runs: Vec<Decisions> = JOBS
                .iter()
                .map(|&jobs| steer(&cfg, &placement, stepping, cycle, jobs))
                .collect();
            prop_assert!(
                runs.iter().all(|d| *d == runs[0]),
                "controller decisions drifted across jobs {JOBS:?} ({stepping:?}): {runs:#?}"
            );
        }
    }
}

/// Checkpoint-resume mid-window: step a handful of engine events (landing
/// *between* two epoch boundaries), snapshot, kill the engine, rebuild it
/// around the same controller, and finish. Decisions fire only at epoch
/// boundaries, so the mid-window kill must change nothing relative to the
/// straight run — at every thread count.
#[test]
fn checkpoint_resume_mid_window_identical() {
    ensure_workers();
    let cfg = MetBenchConfig {
        iterations: 3,
        scale: 2e-7,
        heavy_ranks: vec![1],
        seed: 0xD1CE,
        ..MetBenchConfig::default()
    };
    let programs = cfg.programs();
    let placement: Vec<CtxAddr> = (0..4).map(CtxAddr::from_cpu).collect();
    let case = Case {
        name: "dynamic-identity-resume",
        placement: placement.clone(),
        priorities: Vec::new(),
    };
    let mk = |jobs: usize| {
        StaticRun::new(&programs, placement.clone())
            .on_cluster(2, 2)
            .with_stepping(Stepping::EventHorizon)
            .cycle_accurate()
            .with_threads(jobs)
    };
    let straight = {
        let mut ctl =
            TwoLevelController::for_programs(&programs, &placement, ControllerConfig::default());
        record_hash(&case, &execute_with(mk(1), &mut ctl).expect("straight run"))
    };
    for jobs in JOBS {
        // The controller survives the kill: it lives outside the engine,
        // like the harness's controller does across run_dynamic chunks.
        let mut ctl =
            TwoLevelController::for_programs(&programs, &placement, ControllerConfig::default());
        let mut first = prepare(&mk(jobs)).expect("prepare failed");
        let done = first.step_events(&mut ctl, 7).expect("step failed");
        let result = if done {
            first.into_result()
        } else {
            let state = first.save_state();
            drop(first); // the "kill": engine and workers die mid-window
            let mut second = prepare(&mk(jobs)).expect("re-prepare failed");
            second.restore_state(&state).expect("restore failed");
            assert!(second
                .step_events(&mut ctl, u64::MAX)
                .expect("finish failed"));
            second.into_result()
        };
        assert_eq!(
            record_hash(&case, &result),
            straight,
            "mid-window resume drifted at {jobs} jobs"
        );
    }
}

/// Feed a reactive [`TwoLevelController`] (level 1 disabled, no progress
/// model, so every window goes straight to level 2) an adversarial window
/// sequence and check the hysteresis property: for any pair, two priority
/// changes in opposing directions never land within one cool-off window
/// of each other — unless the second was an audit revert, which is
/// exactly the mechanism allowed to move against the trend.
fn assert_hysteresis(comps: &[(u64, u64)], cfg: DynamicConfig) {
    let placement: Vec<CtxAddr> = (0..2).map(CtxAddr::from_cpu).collect();
    let mut b = TwoLevelController::new(
        &placement,
        ControllerConfig {
            balance: cfg,
            max_remaps: 0,
            ..Default::default()
        },
    );
    let mut machine = mtb_oskernel::Machine::new(
        mtb_smtsim::chip::build_cores(1, false),
        mtb_oskernel::KernelConfig::patched(),
    );
    machine.spawn(0, "P1", placement[0]).unwrap();
    machine.spawn(1, "P2", placement[1]).unwrap();

    let mut last_diff: i16 = 0;
    let mut last_change: Option<(usize, i16)> = None; // (epoch, direction)
    let mut reverts_seen = 0;
    for (epoch, &(c0, c1)) in comps.iter().enumerate() {
        let windows = vec![
            RankWindow {
                rank: 0,
                compute: c0,
                sync: 0,
            },
            RankWindow {
                rank: 1,
                compute: c1,
                sync: 0,
            },
        ];
        b.on_epoch(epoch, &windows, &mut machine);
        let p = b.current_priorities();
        let diff = i16::from(p[0]) - i16::from(p[1]);
        let reverted = b.reverts() > reverts_seen;
        reverts_seen = b.reverts();
        if diff != last_diff {
            let dir = (diff - last_diff).signum();
            if !reverted {
                if let Some((at, prev_dir)) = last_change {
                    assert!(
                        prev_dir == dir || epoch >= at + cfg.cooloff,
                        "opposing adjustments within one cool-off window: \
                         {prev_dir:+} at epoch {at}, {dir:+} at epoch {epoch} \
                         (cooloff {})",
                        cfg.cooloff
                    );
                }
                last_change = Some((epoch, dir));
            }
            last_diff = diff;
        }
        assert!(
            p[0].abs_diff(p[1]) <= cfg.max_diff,
            "difference cap violated at epoch {epoch}: {p:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The hysteresis property over random window sequences, including
    /// ratio flapping right at the imbalance threshold.
    #[test]
    fn no_opposing_adjustments_within_cooloff(
        comps in proptest::collection::vec((1u64..1_000, 1u64..1_000), 4..40),
    ) {
        assert_hysteresis(&comps, DynamicConfig::default());
    }

    /// Same property at an aggressive tuning (short cool-off, tight
    /// thresholds) — the guard must hold structurally, not because the
    /// defaults are forgiving.
    #[test]
    fn no_opposing_adjustments_within_cooloff_tight(
        comps in proptest::collection::vec((1u64..1_000, 1u64..1_000), 4..40),
    ) {
        let cfg = DynamicConfig {
            threshold: 1.05,
            relax_threshold: 1.02,
            cooloff: 3,
            ..DynamicConfig::default()
        };
        assert_hysteresis(&comps, cfg);
    }
}
