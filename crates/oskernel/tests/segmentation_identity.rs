//! Differential proptest: [`Segmentation::Calendar`] must reproduce the
//! reference per-segment walk bit for bit — full [`MachineState`]
//! equality, not just retired counts — across random noise mixes
//! (periodic and one-shot, overlapping, boundary-coincident), random
//! epoch splits (including splits landing exactly on noise boundaries,
//! the checkpoint-coincident case), both core fidelities, and both the
//! sequential and the 4-worker sharded stepping paths. The scripted
//! suites also cover the calendar state that persists across epochs:
//! `next_boundary`-driven epochs, restores into a fresh machine, late
//! noise sources and segmentation switches.

use std::sync::Arc;

use mtb_oskernel::{CtxAddr, KernelConfig, Machine, NoiseSource, Segmentation};
use mtb_pool::{Budget, ShardedRunner};
use mtb_smtsim::chip::{build_cores_grouped, Fidelity};
use mtb_smtsim::inst::StreamSpec;
use mtb_smtsim::model::Workload;
use mtb_smtsim::CoreConfig;
use proptest::prelude::*;

const CORES: usize = 4;

/// One randomly drawn noise source; `kind` 3 is a one-shot window.
#[derive(Debug, Clone)]
struct NoiseSpec {
    kind: u8,
    cpu: usize,
    period: u64,
    cost_frac: u64,
    phase: u64,
}

fn noise_spec() -> impl Strategy<Value = NoiseSpec> {
    (0u8..4, 0usize..CORES * 2, 40u64..4000, 1u64..99, 0u64..6000).prop_map(
        |(kind, cpu, period, cost_frac, phase)| NoiseSpec {
            kind,
            cpu,
            period,
            cost_frac,
            phase,
        },
    )
}

fn build(spec: &NoiseSpec) -> NoiseSource {
    let cost = (spec.period * spec.cost_frac / 100).clamp(1, spec.period - 1);
    let target = CtxAddr::from_cpu(spec.cpu);
    if spec.kind == 3 {
        NoiseSource::once("once", target, spec.phase, cost)
    } else {
        NoiseSource {
            name: format!("n{}", spec.kind),
            target,
            period: spec.period,
            cost,
            phase: spec.phase,
            one_shot: false,
        }
    }
}

/// A machine with one running, prioritized process per context and no
/// noise yet, under the given segmentation and thread count.
fn machine(fidelity: &Fidelity, cores_per_l2: usize, seg: Segmentation, threads: usize) -> Machine {
    let mut m = Machine::new(
        build_cores_grouped(CORES, fidelity, cores_per_l2),
        KernelConfig::patched(),
    );
    m.set_segmentation(seg);
    if threads > 1 {
        // A private roomy budget so workers exist even on a loaded host.
        m.set_runner(Some(ShardedRunner::with_budget(
            threads,
            Arc::new(Budget::new(16)),
        )));
    }
    for cpu in 0..CORES * 2 {
        m.spawn(cpu, format!("P{cpu}"), CtxAddr::from_cpu(cpu))
            .unwrap();
        m.run_workload(
            cpu,
            Workload::from_spec("w", StreamSpec::balanced(cpu as u64 + 1)),
        )
        .unwrap();
        m.set_priority_procfs(cpu, 2 + (cpu % 5) as u8).unwrap();
    }
    m
}

/// Run one machine to completion under the given segmentation and
/// thread count, returning the final full state.
fn run(
    fidelity: &Fidelity,
    cores_per_l2: usize,
    noise: &[NoiseSpec],
    epochs: &[u64],
    seg: Segmentation,
    threads: usize,
) -> mtb_oskernel::MachineState {
    let mut m = machine(fidelity, cores_per_l2, seg, threads);
    for s in noise {
        m.add_noise(build(s));
    }
    for &dt in epochs {
        m.advance(dt);
    }
    m.save_state()
}

/// One step of a scripted run. Boundary-driven steps size their epoch
/// from `next_boundary(now)`, as the engine does.
#[derive(Debug, Clone)]
enum Step {
    /// Advance a fixed number of cycles.
    Advance(u64),
    /// Advance exactly to the next noise boundary.
    ToBoundary,
    /// Stop `n` cycles short of the next boundary (at least 1 cycle).
    BeforeBoundary(u64),
    /// Run `n` cycles past the next boundary.
    PastBoundary(u64),
    /// Save the state and continue in a fresh machine of the same
    /// configuration, first advanced elsewhere so its calendars are stale.
    Restore,
    /// Register another noise source mid-run.
    AddNoise(NoiseSpec),
    /// Toggle the candidate between the calendar and the reference path.
    Switch,
}

fn step() -> impl Strategy<Value = Step> {
    (0u8..10, 0u64..3000, noise_spec()).prop_map(|(k, r, n)| match k {
        0 => Step::Advance(1 + r % 7),
        1 => Step::Advance(1 + r),
        2 | 3 => Step::ToBoundary,
        4 => Step::BeforeBoundary(r % 5),
        5 => Step::PastBoundary(r % 3),
        6 => Step::Restore,
        7 => Step::AddNoise(n),
        8 => Step::Switch,
        _ => Step::Advance(1),
    })
}

/// The epoch length a step asks for at `now`, or `None` for non-epoch
/// steps. Without noise, boundary-driven steps fall back to one cycle.
fn epoch(step: &Step, m: &Machine) -> Option<u64> {
    let now = m.now();
    let to_nb = m.next_boundary(now).map_or(1, |nb| nb - now);
    match *step {
        Step::Advance(dt) => Some(dt),
        Step::ToBoundary => Some(to_nb),
        Step::BeforeBoundary(n) => Some(to_nb.saturating_sub(n).max(1)),
        Step::PastBoundary(n) => Some(to_nb + n),
        _ => None,
    }
}

/// Drive a `Reference` machine and a candidate (calendar path, `threads`
/// workers) through the same script, asserting after every step that
/// both agree on the full state and on `next_boundary(now)` — the
/// candidate's answer comes from its persistent calendars.
fn scripted(
    fidelity: &Fidelity,
    cores_per_l2: usize,
    noise: &[NoiseSpec],
    script: &[Step],
    threads: usize,
) -> Result<(), TestCaseError> {
    let mut noise = noise.to_vec();
    let fresh = |noise: &[NoiseSpec], seg, threads| {
        let mut m = machine(fidelity, cores_per_l2, seg, threads);
        for s in noise {
            m.add_noise(build(s));
        }
        m
    };
    let mut reference = fresh(&noise, Segmentation::Reference, 1);
    let mut cand = fresh(&noise, Segmentation::Calendar, threads);
    for (i, st) in script.iter().enumerate() {
        if let Some(dt) = epoch(st, &reference) {
            prop_assert_eq!(epoch(st, &cand), Some(dt), "step {} epoch size", i);
            reference.advance(dt);
            cand.advance(dt);
        } else {
            match st {
                Step::Restore => {
                    let snap = cand.save_state();
                    let mut next = fresh(&noise, cand.segmentation(), threads);
                    next.advance(977);
                    next.restore_state(&snap).unwrap();
                    cand = next;
                }
                Step::AddNoise(spec) => {
                    reference.add_noise(build(spec));
                    cand.add_noise(build(spec));
                    noise.push(spec.clone());
                }
                Step::Switch => cand.set_segmentation(match cand.segmentation() {
                    Segmentation::Calendar => Segmentation::Reference,
                    Segmentation::Reference => Segmentation::Calendar,
                }),
                _ => unreachable!("epoch steps handled above"),
            }
        }
        let now = reference.now();
        prop_assert_eq!(
            cand.next_boundary(now),
            reference.next_boundary(now),
            "step {} ({:?}): next boundary",
            i,
            st
        );
        prop_assert_eq!(
            &cand.save_state(),
            &reference.save_state(),
            "step {} ({:?}): state drifted at {} threads",
            i,
            st,
            threads
        );
    }
    Ok(())
}

/// Every script step kind, for every fidelity, domain shape and path.
#[test]
fn scripted_cross_epoch_steps_match_reference() {
    let noise = [
        NoiseSpec {
            kind: 0,
            cpu: 0,
            period: 400,
            cost_frac: 10,
            phase: 0,
        },
        NoiseSpec {
            kind: 1,
            cpu: 3,
            period: 250,
            cost_frac: 30,
            phase: 40,
        },
        NoiseSpec {
            kind: 3,
            cpu: 5,
            period: 100,
            cost_frac: 50,
            phase: 900,
        },
    ];
    let late = NoiseSpec {
        kind: 2,
        cpu: 6,
        period: 300,
        cost_frac: 20,
        phase: 10,
    };
    let script = [
        Step::ToBoundary,
        Step::Advance(1),
        Step::ToBoundary,
        Step::BeforeBoundary(1),
        Step::Advance(1),
        Step::PastBoundary(2),
        Step::Restore,
        Step::ToBoundary,
        Step::ToBoundary,
        Step::AddNoise(late),
        Step::ToBoundary,
        Step::Advance(1_234),
        Step::Switch,
        Step::ToBoundary,
        Step::Advance(333),
        Step::Switch,
        Step::ToBoundary,
        Step::Restore,
        Step::PastBoundary(0),
        Step::Advance(5_000),
    ];
    for fidelity in [
        Fidelity::Meso(Default::default()),
        Fidelity::Cycle(CoreConfig::default()),
    ] {
        for cores_per_l2 in [1, 2] {
            for threads in [1, 4] {
                scripted(&fidelity, cores_per_l2, &noise, &script, threads).unwrap();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Calendar ≡ Reference on the full machine state, at 1 and 4
    /// workers, for random noise mixes and epoch splits. Epochs are
    /// drawn small enough that boundaries regularly coincide with epoch
    /// bounds (the checkpoint-coincident case) and large enough to span
    /// many boundaries.
    #[test]
    fn calendar_matches_reference_bit_for_bit(
        noise in proptest::collection::vec(noise_spec(), 0..6),
        epochs in proptest::collection::vec(
            // Mixed scales: tiny epochs (bounds land on boundaries),
            // medium, and multi-boundary spans.
            (0u8..3, 0u64..20_000).prop_map(|(k, r)| match k {
                0 => 1 + r % 49,
                1 => 50 + r % 450,
                _ => 500 + r,
            }),
            1..6),
        cores_per_l2 in 1usize..=2,
        cycle in 0u8..2,
    ) {
        let fidelity = if cycle == 1 {
            Fidelity::Cycle(CoreConfig::default())
        } else {
            Fidelity::Meso(Default::default())
        };
        let reference = run(&fidelity, cores_per_l2, &noise, &epochs,
                            Segmentation::Reference, 1);
        for threads in [1, 4] {
            let fast = run(&fidelity, cores_per_l2, &noise, &epochs,
                           Segmentation::Calendar, threads);
            prop_assert_eq!(
                &fast, &reference,
                "calendar drifted from reference at {} threads", threads
            );
        }
    }

    /// Epoch splits are invisible under the calendar path: advancing in
    /// any partition of the same total must land in the same state as
    /// one big epoch (the property fused segments lean on).
    #[test]
    fn calendar_epochs_compose(
        noise in proptest::collection::vec(noise_spec(), 0..5),
        splits in proptest::collection::vec(1u64..8_000, 1..5),
    ) {
        let fidelity = Fidelity::Meso(Default::default());
        let total: u64 = splits.iter().sum();
        let whole = run(&fidelity, 1, &noise, &[total], Segmentation::Calendar, 1);
        let pieces = run(&fidelity, 1, &noise, &splits, Segmentation::Calendar, 1);
        prop_assert_eq!(&pieces, &whole, "epoch split changed the outcome");
    }

    /// Boundaries landing exactly on an epoch bound (the checkpoint-
    /// coincident case): force sources whose period divides the epoch so
    /// entry and exit flips hit the bound, and compare both paths.
    #[test]
    fn boundary_coincident_epoch_bounds_match(
        pidx in 0usize..3,
        cost in 1u64..99,
        reps in 1usize..6,
        cycle in 0u8..2,
    ) {
        let period = [100u64, 250, 500][pidx];
        let fidelity = if cycle == 1 {
            Fidelity::Cycle(CoreConfig::default())
        } else {
            Fidelity::Meso(Default::default())
        };
        // Epoch = 4 periods: flips at 0, cost, period, period+cost, ...
        // land on segment cuts and on the epoch bound itself.
        let noise: Vec<NoiseSpec> = (0..2)
            .map(|i| NoiseSpec {
                kind: 0,
                cpu: i,
                period,
                cost_frac: cost,
                phase: 0,
            })
            .collect();
        let epochs = vec![period * 4; reps];
        let reference = run(&fidelity, 2, &noise, &epochs, Segmentation::Reference, 1);
        let fast = run(&fidelity, 2, &noise, &epochs, Segmentation::Calendar, 1);
        prop_assert_eq!(&fast, &reference);
    }

    /// The calendars persist across epochs: random scripts of
    /// `next_boundary`-driven epochs (1-cycle, boundary-exact, just short
    /// of and just past a boundary), mid-run restores into a fresh
    /// machine, late `add_noise` and segmentation switches must keep the
    /// calendar path on the reference's full state after every step.
    #[test]
    fn calendar_state_persists_exactly_across_epochs(
        noise in proptest::collection::vec(noise_spec(), 0..5),
        script in proptest::collection::vec(step(), 1..24),
        cores_per_l2 in 1usize..=2,
        cycle in 0u8..2,
        threads in 0u8..2,
    ) {
        let fidelity = if cycle == 1 {
            Fidelity::Cycle(CoreConfig::default())
        } else {
            Fidelity::Meso(Default::default())
        };
        let threads = if threads == 1 { 4 } else { 1 };
        scripted(&fidelity, cores_per_l2, &noise, &script, threads)?;
    }
}
