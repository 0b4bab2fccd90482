//! The paper's figure, the reproduction report, the model-fidelity and
//! cycle-core ablations and the extension experiments, as run by
//! `mtb exp <NAME>`.
//! Each module's `run` prints its experiment to stdout; `EXPERIMENTS.md`
//! records the results.

mod ablation;
mod cluster;
mod control;
mod dynamic;
mod energy;
mod fidelity;
mod fig1;
mod kernel;
mod noise;
mod redistribution;
mod report;
mod scaling;
mod seeds;
mod sharelaw;
mod waitpolicy;

use mtb_core::{ControllerConfig, TwoLevelController};
use mtb_oskernel::CtxAddr;

/// Every experiment, by the name `mtb exp` takes, with its entry point.
pub const EXPERIMENTS: [(&str, fn()); 15] = [
    ("fig1", fig1::run),
    ("report", report::run),
    ("fidelity", fidelity::run),
    ("ablation", ablation::run),
    ("dynamic", dynamic::run),
    ("kernel", kernel::run),
    ("noise", noise::run),
    ("redistribution", redistribution::run),
    ("sharelaw", sharelaw::run),
    ("cluster", cluster::run),
    ("energy", energy::run),
    ("control", control::run),
    ("seeds", seeds::run),
    ("scaling", scaling::run),
    ("waitpolicy", waitpolicy::run),
];

/// Run the experiment called `name`; `false` when there is none.
pub fn run(name: &str) -> bool {
    match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
        Some((_, run)) => {
            run();
            true
        }
        None => false,
    }
}

/// The two-level controller in its purely reactive mode: level 1
/// (cross-core remap) disabled and no progress model, so only the
/// level-2 priority feedback acts.
fn reactive(placement: &[CtxAddr]) -> TwoLevelController {
    let cfg = ControllerConfig {
        max_remaps: 0,
        ..Default::default()
    };
    TwoLevelController::new(placement, cfg)
}
