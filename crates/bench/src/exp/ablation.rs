//! ABL-2 and ABL-3: ablations of the cycle core's decode-slot split
//! (Tables II/III).
//!
//! - ABL-2: POWER5's Table II slices are hard allocations; the cycle
//!   core can optionally let the sibling *steal* slots the owner cannot
//!   use. Prints the retired instructions of both threads under strict
//!   slices and with stealing.
//! - ABL-3: `CoreConfig::lookahead` = 1 gives strict in-order issue; the
//!   default scans a 16-entry window like a real out-of-order machine.
//!   Prints the single-thread IPC gap, which justifies the default.

use mtb_smtsim::inst::StreamSpec;
use mtb_smtsim::model::{CoreModel, ThreadId, Workload};
use mtb_smtsim::{CoreConfig, HwPriority, SmtCore};

pub fn run() {
    slot_stealing();
    issue_window();
}

fn run_stealing(stealing: bool, cycles: u64) -> [u64; 2] {
    let cfg = CoreConfig {
        slot_stealing: stealing,
        ..CoreConfig::default()
    };
    let mut core = SmtCore::new(cfg);
    // FPU-bound owner leaves slots unused; frontend-bound sibling at low
    // priority would love to take them.
    core.assign(
        ThreadId::A,
        Workload::from_spec("fpu", StreamSpec::fpu_bound(1)),
    );
    core.assign(
        ThreadId::B,
        Workload::from_spec("fe", StreamSpec::frontend_bound(2)),
    );
    core.set_priority(ThreadId::A, HwPriority::HIGH);
    core.set_priority(ThreadId::B, HwPriority::LOW);
    core.advance(cycles)
}

fn slot_stealing() {
    let strict = run_stealing(false, 100_000);
    let steal = run_stealing(true, 100_000);
    println!(
        "ABL-2 slot stealing (FPU-bound prio-6 owner vs frontend-bound prio-2 sibling, 100k cycles):\n\
         strict slices: A={} B={}\n\
         with stealing: A={} B={} (sibling gains {:.1}x)",
        strict[0], strict[1], steal[0], steal[1],
        steal[1] as f64 / strict[1].max(1) as f64
    );
}

fn run_window(lookahead: usize, cycles: u64) -> u64 {
    let cfg = CoreConfig {
        lookahead,
        ..CoreConfig::default()
    };
    let mut core = SmtCore::new(cfg);
    core.assign(
        ThreadId::A,
        Workload::from_spec("w", StreamSpec::balanced(1)),
    );
    core.set_priority(ThreadId::A, HwPriority::VERY_HIGH);
    core.set_priority(ThreadId::B, HwPriority::OFF);
    core.advance(cycles)[0]
}

fn issue_window() {
    let n = 100_000;
    let inorder = run_window(1, n);
    let windowed = run_window(16, n);
    println!(
        "ABL-3 issue window (balanced stream, {n} ST cycles):\n\
         in-order (lookahead 1): {inorder} retired ({:.2} IPC)\n\
         windowed (lookahead 16): {windowed} retired ({:.2} IPC, {:.2}x)",
        inorder as f64 / n as f64,
        windowed as f64 / n as f64,
        windowed as f64 / inorder as f64
    );
}
