//! Online rank remapping.
//!
//! Section VII-B's mapping argument (pair the heaviest rank with the
//! lightest), applied *at run time*: [`realize_placement`] migrates ranks
//! between SMT contexts until a desired pairing holds. The two-level
//! controller's level 1 ([`crate::dynamic::TwoLevelController`]) decides
//! *which* ranks share a core and calls it; level 2's priorities decide
//! *how much* of the core each one gets. [`Composite`] layers further
//! observers (recorders, probes) after the controller.

use mtb_mpisim::engine::{Observer, RankWindow};
use mtb_oskernel::{CtxAddr, Machine};

/// Realize a desired placement with swaps/migrations. Iterates: find a
/// rank sitting on the wrong context and swap it with the rank (if any)
/// occupying its desired seat, or migrate if the seat is free. Returns
/// the number of migrations/swaps performed. Used by the two-level
/// controller's level-1 remap.
pub fn realize_placement(machine: &mut Machine, desired: &[CtxAddr]) -> usize {
    let n = desired.len();
    let mut moves = 0;
    for _ in 0..2 * n {
        let Some(rank) = (0..n).find(|&r| machine.pcb(r).map(|p| p.affinity) != Some(desired[r]))
        else {
            break;
        };
        let target = desired[rank];
        let occupant =
            (0..n).find(|&o| o != rank && machine.pcb(o).map(|p| p.affinity) == Some(target));
        let ok = match occupant {
            Some(o) => machine.swap(rank, o).is_ok(),
            None => machine.migrate(rank, target).is_ok(),
        };
        if !ok {
            break;
        }
        moves += 1;
    }
    moves
}

/// Run several observers in sequence on every epoch (e.g. the controller
/// first, then a [`crate::observe::WindowRecorder`]).
pub struct Composite<'a> {
    observers: Vec<&'a mut dyn Observer>,
}

impl<'a> Composite<'a> {
    /// Compose observers; they fire in the given order.
    pub fn new(observers: Vec<&'a mut dyn Observer>) -> Composite<'a> {
        Composite { observers }
    }
}

impl Observer for Composite<'_> {
    fn on_epoch(&mut self, epoch: usize, windows: &[RankWindow], machine: &mut Machine) {
        for o in &mut self.observers {
            o.on_epoch(epoch, windows, machine);
        }
    }
}
