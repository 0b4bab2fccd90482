//! Zero-allocation guard for the noise path: once warmed up,
//! `Machine::advance` on the sequential path must not touch the heap, even
//! when an epoch enters or leaves an interrupt handler, and neither must
//! the per-rank queries the engine makes between epochs. The engine steps
//! a noisy run one noise boundary at a time, so any per-epoch allocation
//! is paid millions of times per run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use mtb_oskernel::noise::interrupt_annoyance;
use mtb_oskernel::{CtxAddr, KernelConfig, Machine};
use mtb_smtsim::chip::build_cores;
use mtb_smtsim::inst::StreamSpec;
use mtb_smtsim::model::{Workload, WorkloadProfile};

/// Counts allocations made by threads that armed it; everything else is
/// passed straight to the system allocator.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn note_alloc() {
    if ARMED.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the `GlobalAlloc` contract holds exactly as it does for `System`. The
// bookkeeping in `note_alloc` touches only an atomic and a const-initialized
// thread-local `Cell`, neither of which allocates or reenters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by this thread while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Advance to the next noise boundary, as the engine does when no rank
/// event comes sooner.
fn step_to_boundary(m: &mut Machine) {
    let now = m.now();
    let nb = m.next_boundary(now).expect("periodic noise never runs dry");
    m.advance(nb - now);
}

/// Ask what the engine asks of every rank after each event: its retired
/// count (`resolve_completions`) and the cycles until it reaches its
/// compute target (`Engine::next_event`).
fn query_ranks(m: &Machine, target: u64) {
    for pid in 0..4 {
        let remaining = target.saturating_sub(black_box(m.retired(pid)));
        black_box(m.cycles_to_retire(pid, remaining.max(1)));
    }
}

#[test]
fn steady_state_noise_epochs_do_not_allocate() {
    // Two mesoscale cores, four ranks, under the `mtb run --noise 5`
    // interrupt mix: a timer tick on every context plus device
    // interrupts on CPU0.
    let mut m = Machine::new(build_cores(2, false), KernelConfig::vanilla());
    for cpu in 0..4 {
        m.spawn(cpu, format!("P{cpu}"), CtxAddr::from_cpu(cpu))
            .unwrap();
        m.run_workload(
            cpu,
            Workload::with_profile(
                "rank",
                StreamSpec::balanced(cpu as u64 + 1),
                WorkloadProfile::new(1.0 + 0.4 * cpu as f64, 0.3, 0.1),
            ),
        )
        .unwrap();
    }
    // One rank busy-waits, so both accounting buckets are exercised.
    m.spin(3).unwrap();
    for src in interrupt_annoyance(2, 1_500_000, 7_500, 500_000, 25_000) {
        m.add_noise(src);
    }

    // Warm-up epoch: seeds the calendars and sizes the scratch.
    step_to_boundary(&mut m);
    let before: Vec<_> = (0..4).map(|pid| m.pcb(pid).unwrap().clone()).collect();
    // A compute target far beyond the run, so every query has an answer.
    let target = 1 << 40;

    const EPOCHS: usize = 10_000;
    let allocs = allocations_in(|| {
        for _ in 0..EPOCHS {
            query_ranks(&m, target);
            step_to_boundary(&mut m);
        }
    });
    assert_eq!(
        allocs, 0,
        "{allocs} allocations over {EPOCHS} steady-state noise epochs"
    );

    // The run crossed handler windows on both cores: every context lost
    // cycles to interrupts and ran its own work in between.
    for (pid, old) in before.iter().enumerate() {
        let new = m.pcb(pid).unwrap();
        assert!(
            new.interrupt_cycles > old.interrupt_cycles,
            "pid {pid} never entered a handler"
        );
        assert!(
            new.busy_cycles + new.spin_cycles > old.busy_cycles + old.spin_cycles,
            "pid {pid} never left a handler"
        );
    }
}
