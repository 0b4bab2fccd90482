//! The mesoscale core model.
//!
//! Cycle-level simulation of a whole MPI application (hundreds of simulated
//! seconds, billions of cycles) is infeasible, so the system-level engine
//! uses this closed-form throughput model instead. It is built on the same
//! decode-share mathematics as the cycle model ([`crate::decode`]) and is
//! calibrated against it (see the `model_fidelity` bench and the
//! integration tests).
//!
//! ## The throughput equations
//!
//! For contexts `i, j` with priorities `p_i, p_j`, decode width `W` and
//! decode shares `s_i, s_j` from [`crate::decode::decode_share`]:
//!
//! * Each context has a **capacity**: the IPC it could sustain with
//!   unlimited decode bandwidth. Running alone it is the workload's ST IPC;
//!   with a live co-runner it shrinks by the co-runner's execution-unit and
//!   cache pressure:
//!   `cap_i = ipc_i * (1 - alpha * u_j - beta * m_j)`.
//! * The **front-end supply** of a context is its share of decode slots
//!   plus whatever it can pick up from slots the other context owns but
//!   cannot use: `supply_i = W*s_i + kappa_i * max(0, W*s_j - base_j)`
//!   where `base_j = min(cap_j, W*s_j)` is the co-runner's own consumption.
//! * Throughput is `min(cap_i, supply_i)`.
//!
//! `kappa` is 1 in leftover mode (Table III: a priority-1 thread "takes
//! what is left over") and a small configured constant (default 0.1) in
//! normal mode — hard Table-II slices with a slight second-order uplift,
//! which is what the paper's measured MetBench Case C/D exec times imply
//! (see DESIGN.md §5).
//!
//! ## Pair predictions
//!
//! The same equations answer what-if questions about bare profiles:
//! [`pair_rates`] and [`solo_rate`] give steady-state throughputs, and
//! [`pair_makespan`] the two-phase makespan of a core whose early finisher
//! keeps its decode share while it spins in MPI ([`spin_profile`]). The
//! balancer's priority search, the static linter and the plan model all
//! predict through these functions.

use crate::decode::{decode_share, decode_share_linear};
use crate::model::{CoreModel, ThreadId, Workload, WorkloadProfile};
use crate::priority::HwPriority;
use crate::state::{CoreState, MesoCoreState, MesoCtxState};
use crate::Cycles;
use std::cell::{Cell, RefCell};

/// Which priority-to-decode-share law the model applies (EXT-5 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShareLaw {
    /// The POWER5's exponential Table-II slices (`R = 2^(|X-Y|+1)`).
    #[default]
    Power5,
    /// A hypothetical linear law (`0.5 + diff/10`, capped at 0.9):
    /// gentler control, no case-D cliff, but far less reach.
    Linear,
}

impl ShareLaw {
    /// The (share_a, share_b) split under this law.
    pub fn shares(self, a: HwPriority, b: HwPriority) -> (f64, f64) {
        match self {
            ShareLaw::Power5 => decode_share(a, b),
            ShareLaw::Linear => decode_share_linear(a, b),
        }
    }
}

/// Tunable constants of the mesoscale model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MesoConfig {
    /// Instructions decodable per owned cycle (matches the cycle core).
    pub decode_width: f64,
    /// Fraction of the co-runner's unused decode share usable in normal
    /// mode (0 = hard slices; 1 = perfect stealing).
    pub steal_efficiency: f64,
    /// Capacity loss per unit of co-runner execution-unit pressure.
    pub unit_contention: f64,
    /// Capacity loss per unit of co-runner memory intensity.
    pub mem_contention: f64,
    /// The priority-to-share law (EXT-5 ablation; POWER5 by default).
    pub share_law: ShareLaw,
}

impl Default for MesoConfig {
    fn default() -> Self {
        MesoConfig {
            decode_width: 5.0,
            steal_efficiency: 0.1,
            unit_contention: 0.35,
            mem_contention: 0.30,
            share_law: ShareLaw::Power5,
        }
    }
}

impl MesoConfig {
    /// Steady-state throughputs (instructions/cycle) of two contexts
    /// holding `profiles` (`None` = no workload) at `prio`. A context is
    /// live when it has a workload and is not switched off.
    fn rates(&self, profiles: [Option<&WorkloadProfile>; 2], prio: [HwPriority; 2]) -> [f64; 2] {
        let w = self.decode_width;
        let (sa, sb) = self.share_law.shares(prio[0], prio[1]);
        let shares = [sa, sb];

        let live = [0, 1].map(|i| profiles[i].is_some() && !prio[i].is_off());
        let mut caps = [0.0f64; 2];
        for i in 0..2 {
            if !live[i] {
                continue;
            }
            let prof = profiles[i].expect("live");
            let j = 1 - i;
            caps[i] = if live[j] {
                let other = profiles[j].expect("live");
                // The POWER5 priority mechanism gates *resources*, not just
                // decode: a context holding a small decode share occupies
                // proportionally fewer issue-queue entries and cache MSHRs,
                // so the pressure it exerts on its sibling scales with its
                // share (1.0 at the equal-priority 50/50 split).
                let pollution = (2.0 * shares[j]).min(1.0);
                prof.ipc_st
                    * (1.0
                        - pollution
                            * (self.unit_contention * other.unit_pressure
                                + self.mem_contention * other.mem_intensity))
                        .max(0.05)
            } else {
                prof.ipc_st
            };
        }

        // Base consumption under hard shares.
        let base = [caps[0].min(w * shares[0]), caps[1].min(w * shares[1])];

        let mut rates = [0.0f64; 2];
        for i in 0..2 {
            if !live[i] {
                continue;
            }
            let j = 1 - i;
            // Slots the co-runner owns but does not consume.
            let unused_j = if live[j] {
                (w * shares[j] - base[j]).max(0.0)
            } else {
                // A workless context consumes nothing; its whole share is
                // up for grabs (it still *owns* the slots unless its
                // priority is 0, in which case decode_share gave it 0).
                w * shares[j]
            };
            let kappa = self.kappa(prio[i].value(), prio[j].value());
            rates[i] = caps[i].min(w * shares[i] + kappa * unused_j);
        }
        rates
    }

    /// Steal coefficient for a context at priority `pi` picking up the
    /// unused slots of its co-runner at priority `pj`.
    fn kappa(&self, pi: u8, pj: u8) -> f64 {
        if pi == 1 && pj > 1 {
            // Table III: "takes what is left over" — full leftover use.
            1.0
        } else if pi >= 1 && pj == 0 {
            // ST mode: decode_share already grants everything; no stealing
            // needed (and nothing to steal).
            0.0
        } else if pi <= 1 || pj <= 1 {
            // Power-save and other degenerate modes: strict.
            0.0
        } else {
            self.steal_efficiency
        }
    }
}

/// The profile of the MPI busy-wait loop a rank spins in once its compute
/// is done. The early finisher does *not* free the core: it keeps its
/// decode share at its priority, which is why Section VI recommends
/// lowering the priority of polling threads.
pub fn spin_profile() -> WorkloadProfile {
    WorkloadProfile::new(2.0, 0.1, 0.0)
}

/// Throughput of a workload running alone on a core at MEDIUM priority.
/// The workless sibling, also at MEDIUM, still owns its decode share;
/// only the steal fraction of it is usable.
pub fn solo_rate(profile: &WorkloadProfile) -> f64 {
    MesoConfig::default().rates([Some(profile), None], [HwPriority::MEDIUM; 2])[0]
}

/// Steady-state throughputs (instructions/cycle) of two co-running
/// workloads at priorities `pa`, `pb` — the default-config [`MesoCore`]
/// rates, without building one.
pub fn pair_rates(
    a: &WorkloadProfile,
    b: &WorkloadProfile,
    pa: HwPriority,
    pb: HwPriority,
) -> (f64, f64) {
    let [ra, rb] = MesoConfig::default().rates([Some(a), Some(b)], [pa, pb]);
    (ra, rb)
}

/// Two-phase makespan (cycles) of a core running `a` for `work_a`
/// instructions and `b` for `work_b`: both compute at the paired rates
/// until the faster finishes, then the survivor runs against the
/// finisher's [`spin_profile`], still under the same priority pair (an
/// MPI blocking call busy-waits; it does not idle the context).
///
/// Returns `(makespan, last)` where `last` is 0 when `a` finishes last
/// and 1 when `b` does; an exact tie counts as `b`. `None` when a rate is
/// zero (a starved pair never finishes).
pub fn pair_makespan(
    a: &WorkloadProfile,
    work_a: u64,
    b: &WorkloadProfile,
    work_b: u64,
    pa: HwPriority,
    pb: HwPriority,
) -> Option<(f64, usize)> {
    let (ra, rb) = pair_rates(a, b, pa, pb);
    if ra <= 0.0 || rb <= 0.0 {
        return None;
    }
    let ta = work_a as f64 / ra;
    let tb = work_b as f64 / rb;
    if (ta - tb).abs() < f64::EPSILON {
        return Some((ta, 1));
    }
    // (first finish, survivor's work left, its rate against the spin, survivor)
    let (first, left, r_surv, last) = if ta < tb {
        let (_, r) = pair_rates(&spin_profile(), b, pa, pb);
        (ta, work_b as f64 - ta * rb, r, 1)
    } else {
        let (r, _) = pair_rates(a, &spin_profile(), pa, pb);
        (tb, work_a as f64 - tb * ra, r, 0)
    };
    if r_surv <= 0.0 {
        return None;
    }
    Some((first + left.max(0.0) / r_surv, last))
}

/// Slack added before truncation when converting fractional progress to
/// whole instructions, so products like `0.3 * 700.0` that land an ulp
/// below an integer still count it. Small enough to never span a real
/// instruction.
const FLOOR_EPS: f64 = 1e-9;

/// Bitwise equality of two memo keys, folded without branches or a
/// `memcmp` call: a memo lookup sits on every engine event.
fn same_key<const N: usize>(a: &[u64; N], b: &[u64; N]) -> bool {
    a.iter().zip(b).fold(0, |d, (x, y)| d | (x ^ y)) == 0
}

/// The inputs [`MesoConfig::rates`] reads, as bits: each context's
/// `ipc_st`, `unit_pressure` and `mem_intensity` (zero when workless),
/// then one word holding per context its priority plus 8 when a workload
/// is installed, context B shifted up a byte.
type RateKey = [u64; 7];

/// Number of rate pairs a core remembers. A handler window on either
/// context moves a core among at most four configurations (each context
/// with or without its workload), so a steady noise pattern always hits.
const RATE_MEMO: usize = 4;

/// Rate pairs of recent configurations, replaced round-robin. Rates are
/// a pure function of the key, so a hit is exact.
#[derive(Debug, Clone)]
struct RateMemo {
    keys: [RateKey; RATE_MEMO],
    rates: [[f64; 2]; RATE_MEMO],
    next: usize,
}

impl RateMemo {
    fn new() -> RateMemo {
        RateMemo {
            // No configuration has a tag word of all ones.
            keys: [[0, 0, 0, 0, 0, 0, u64::MAX]; RATE_MEMO],
            rates: [[0.0; 2]; RATE_MEMO],
            next: 0,
        }
    }
}

/// Where a context's progress first reaches a retirement target: the
/// least absolute cycle `at` with `progress_at(rate, at) >= target`,
/// valid while the anchor, carry and rate in `key` hold.
#[derive(Debug, Clone, Copy)]
struct Crossing {
    /// `(anchor_cycle, anchor_retired, carry bits, rate bits, target)`,
    /// with the target in whole instructions past the anchor.
    key: [u64; 5],
    at: Cycles,
}

#[derive(Debug, Clone)]
struct MesoCtx {
    priority: HwPriority,
    workload: Option<Workload>,
    /// Fractional instructions at the last re-anchor, in `[0, 1)`.
    carry: f64,
    /// Cycle of the last re-anchor (any configuration change).
    anchor_cycle: Cycles,
    /// Retired count at the last re-anchor.
    anchor_retired: u64,
    retired: u64,
    /// The last exact answer of `cycles_to_retire`; a memo only.
    crossing: Cell<Option<Crossing>>,
}

impl MesoCtx {
    fn new() -> MesoCtx {
        MesoCtx {
            priority: HwPriority::MEDIUM,
            workload: None,
            carry: 0.0,
            anchor_cycle: 0,
            anchor_retired: 0,
            retired: 0,
            crossing: Cell::new(None),
        }
    }

    fn live(&self) -> bool {
        self.workload.is_some() && !self.priority.is_off()
    }

    /// Fractional progress since the anchor at absolute cycle `cycle`,
    /// including the rounding slack. Evaluated as one expression of the
    /// absolute elapsed time so that advancing in any segmentation — one
    /// big event-horizon jump or many quantum steps — lands on the same
    /// value at every intermediate cycle. Non-decreasing in `cycle` for
    /// `rate >= 0`: every step (`u64 -> f64`, the product, the sums)
    /// rounds monotonically.
    fn progress_at(&self, rate: f64, cycle: Cycles) -> f64 {
        self.carry + rate * (cycle - self.anchor_cycle) as f64 + FLOOR_EPS
    }
}

/// The fast analytic 2-way SMT core.
///
/// ```
/// use mtb_smtsim::model::{CoreModel, ThreadId, Workload, WorkloadProfile};
/// use mtb_smtsim::{HwPriority, MesoCore, StreamSpec};
///
/// let mut core = MesoCore::default();
/// let w = Workload::with_profile("w", StreamSpec::balanced(0),
///                                WorkloadProfile::new(3.0, 0.1, 0.0));
/// core.assign(ThreadId::A, w.clone());
/// core.assign(ThreadId::B, w);
/// // Boost A: its throughput rises, B's falls.
/// core.set_priority(ThreadId::A, HwPriority::HIGH);
/// core.set_priority(ThreadId::B, HwPriority::MEDIUM);
/// let [ra, rb] = core.throughputs();
/// assert!(ra > rb);
/// ```
#[derive(Debug, Clone)]
pub struct MesoCore {
    cfg: MesoConfig,
    ctx: [MesoCtx; 2],
    cycle: Cycles,
    /// Per-context rates of the current configuration; `None` after a
    /// configuration change until something asks for them.
    rates: Cell<Option<[f64; 2]>>,
    rate_memo: RefCell<RateMemo>,
}

impl MesoCore {
    /// Create a core with the given constants.
    pub fn new(cfg: MesoConfig) -> MesoCore {
        MesoCore {
            cfg,
            ctx: [MesoCtx::new(), MesoCtx::new()],
            cycle: 0,
            rates: Cell::new(None),
            rate_memo: RefCell::new(RateMemo::new()),
        }
    }

    /// Current simulated cycle.
    pub fn now(&self) -> Cycles {
        self.cycle
    }

    /// Total instructions retired by a context since construction.
    pub fn retired(&self, t: ThreadId) -> u64 {
        self.ctx[t.index()].retired
    }

    /// The model constants in use.
    pub fn config(&self) -> &MesoConfig {
        &self.cfg
    }

    /// Steady-state throughputs (instructions/cycle) of both contexts under
    /// the current priorities and workloads. Pure function of the current
    /// configuration; the free functions below ask the same question of
    /// bare profiles.
    pub fn throughputs(&self) -> [f64; 2] {
        let profile = |i: usize| self.ctx[i].workload.as_ref().map(|w| &w.profile);
        self.cfg.rates(
            [profile(0), profile(1)],
            [self.ctx[0].priority, self.ctx[1].priority],
        )
    }

    /// The current configuration's rates: cached until the next
    /// configuration change, then looked up in the memo, and computed only
    /// on a memo miss.
    fn current_rates(&self) -> [f64; 2] {
        if let Some(r) = self.rates.get() {
            return r;
        }
        let mut key: RateKey = [0; 7];
        for (i, c) in self.ctx.iter().enumerate() {
            let mut tag = u64::from(c.priority.value());
            if let Some(w) = &c.workload {
                let p = &w.profile;
                key[3 * i] = p.ipc_st.to_bits();
                key[3 * i + 1] = p.unit_pressure.to_bits();
                key[3 * i + 2] = p.mem_intensity.to_bits();
                tag |= 8;
            }
            key[6] |= tag << (8 * i);
        }
        let mut memo = self.rate_memo.borrow_mut();
        let r = match memo.keys.iter().position(|k| same_key(k, &key)) {
            Some(e) => memo.rates[e],
            None => {
                let r = self.throughputs();
                let e = memo.next;
                memo.keys[e] = key;
                memo.rates[e] = r;
                memo.next = (e + 1) % RATE_MEMO;
                r
            }
        };
        self.rates.set(Some(r));
        r
    }

    /// Mark the configuration changed.
    fn reconfigured(&mut self) {
        self.rates.set(None);
    }

    /// Materialize both contexts' progress under the rates in force since
    /// the last anchor, then re-anchor at the current cycle. Must run
    /// *before* any configuration change; between changes the anchored
    /// expression is a pure function of absolute time, which is what makes
    /// `advance` segmentation-invariant.
    fn reanchor(&mut self) {
        // With no cycle elapsed since the anchor, the rate term is
        // `rate * 0.0 == 0.0` whatever the (finite) rate, so a pending
        // configuration's rates need not be resolved.
        let rates = if self.ctx.iter().all(|c| c.anchor_cycle == self.cycle) {
            [0.0; 2]
        } else {
            self.current_rates()
        };
        for (i, c) in self.ctx.iter_mut().enumerate() {
            let rate = if c.live() { rates[i] } else { 0.0 };
            let prog = c.progress_at(rate, self.cycle);
            // `prog` is positive and finite, so truncation is `floor`.
            let whole = prog as u64;
            c.anchor_retired += whole;
            c.carry = (prog - whole as f64 - FLOOR_EPS).clamp(0.0, 1.0);
            c.anchor_cycle = self.cycle;
            c.retired = c.anchor_retired;
        }
    }
}

impl Default for MesoCore {
    fn default() -> Self {
        MesoCore::new(MesoConfig::default())
    }
}

impl CoreModel for MesoCore {
    fn set_priority(&mut self, t: ThreadId, p: HwPriority) {
        self.reanchor();
        self.ctx[t.index()].priority = p;
        self.reconfigured();
    }

    fn priority(&self, t: ThreadId) -> HwPriority {
        self.ctx[t.index()].priority
    }

    fn assign(&mut self, t: ThreadId, w: Workload) {
        self.reanchor();
        let c = &mut self.ctx[t.index()];
        c.workload = Some(w);
        c.carry = 0.0;
        self.reconfigured();
    }

    fn clear(&mut self, t: ThreadId) {
        self.take(t);
    }

    fn take(&mut self, t: ThreadId) -> Option<Workload> {
        self.reanchor();
        self.reconfigured();
        let c = &mut self.ctx[t.index()];
        c.carry = 0.0;
        c.workload.take()
    }

    fn has_work(&self, t: ThreadId) -> bool {
        self.ctx[t.index()].workload.is_some()
    }

    fn advance(&mut self, cycles: Cycles) -> [u64; 2] {
        let rates = self.current_rates();
        self.cycle += cycles;
        let mut out = [0u64; 2];
        for (i, c) in self.ctx.iter_mut().enumerate() {
            if !c.live() {
                continue;
            }
            // `x as u64` is `x.floor() as u64` for every f64.
            let total = c.anchor_retired + c.progress_at(rates[i], self.cycle) as u64;
            out[i] = total - c.retired;
            c.retired = total;
        }
        out
    }

    fn retire_rate(&self, t: ThreadId) -> f64 {
        self.current_rates()[t.index()]
    }

    fn save_state(&self) -> CoreState {
        CoreState::Meso(Box::new(MesoCoreState {
            cycle: self.cycle,
            ctx: [0, 1].map(|i| {
                let c = &self.ctx[i];
                MesoCtxState {
                    priority: c.priority.value(),
                    workload: c.workload.clone(),
                    carry: c.carry,
                    anchor_cycle: c.anchor_cycle,
                    anchor_retired: c.anchor_retired,
                    retired: c.retired,
                }
            }),
        }))
    }

    fn restore_state(&mut self, s: &CoreState) -> Result<(), String> {
        let CoreState::Meso(s) = s else {
            return Err(format!(
                "mesoscale core cannot restore a {} snapshot",
                s.kind()
            ));
        };
        self.cycle = s.cycle;
        for (c, cs) in self.ctx.iter_mut().zip(&s.ctx) {
            c.priority = HwPriority::new(cs.priority)
                .ok_or_else(|| format!("invalid hardware priority {}", cs.priority))?;
            c.workload = cs.workload.clone();
            c.carry = cs.carry;
            c.anchor_cycle = cs.anchor_cycle;
            c.anchor_retired = cs.anchor_retired;
            c.retired = cs.retired;
            c.crossing.set(None);
        }
        // Rates are a pure function of the restored contexts; recompute
        // lazily exactly as after any configuration change.
        self.reconfigured();
        Ok(())
    }

    fn cycles_to_retire(&self, t: ThreadId, n: u64) -> Option<Cycles> {
        let i = t.index();
        if !self.ctx[i].live() {
            return None;
        }
        let rate = self.retire_rate(t);
        if rate <= 0.0 {
            return None;
        }
        let c = &self.ctx[i];
        // Whole instructions past the anchor at which `n` more than the
        // current count have retired.
        let since_anchor = c.retired - c.anchor_retired + n;
        // The crossing cycle depends only on the anchor, the rate and the
        // target, not on `now`: progress is non-decreasing in the cycle,
        // so the search below returns the least `dt >= 1` whose progress
        // reaches the target, which is `max(1, at - now)`.
        let key = [
            c.anchor_cycle,
            c.anchor_retired,
            c.carry.to_bits(),
            rate.to_bits(),
            since_anchor,
        ];
        if let Some(x) = c.crossing.get().filter(|x| same_key(&x.key, &key)) {
            return Some(x.at.saturating_sub(self.cycle).max(1));
        }
        let target = since_anchor as f64;
        let elapsed = self.cycle - c.anchor_cycle;
        // Cycles from now to the crossing, unrounded. The guard reads the
        // same as on `ceil` of the quotient: at 2^52 and above every f64
        // is whole, and anything smaller is far below 9e18.
        let est = (target - c.carry) / rate - elapsed as f64;
        if !est.is_finite() || est >= 9e18 {
            return Some(9_000_000_000_000_000_000);
        }
        // Pin the estimate to the exact threshold of the expression
        // `advance` evaluates, so the promised event time is identical no
        // matter how the preceding cycles were segmented. The search
        // finds the same least `dt` from any start; this one is usually
        // already the answer.
        let mut dt = est as Cycles + 1;
        while c.progress_at(rate, self.cycle + dt) < target {
            dt += 1;
        }
        while dt > 1 && c.progress_at(rate, self.cycle + dt - 1) >= target {
            dt -= 1;
        }
        // At `dt == 1` the crossing may lie at or before `now`; only a
        // longer answer pins it exactly.
        if dt > 1 {
            c.crossing.set(Some(Crossing {
                key,
                at: self.cycle + dt,
            }));
        }
        Some(dt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::StreamSpec;
    use crate::model::WorkloadProfile;
    use proptest::prelude::*;

    fn p(v: u8) -> HwPriority {
        HwPriority::new(v).unwrap()
    }

    /// A MetBench-like high-ILP compute workload (see DESIGN.md §5):
    /// natural ST IPC ≈ 2.5, modest unit pressure, cache resident.
    fn metload(ipc: f64) -> Workload {
        Workload::with_profile(
            "metload",
            StreamSpec::balanced(1),
            WorkloadProfile::new(ipc, 0.2, 0.02),
        )
    }

    fn pair(ipc_a: f64, ipc_b: f64, pa: u8, pb: u8) -> MesoCore {
        let mut core = MesoCore::default();
        core.assign(ThreadId::A, metload(ipc_a));
        core.assign(ThreadId::B, metload(ipc_b));
        core.set_priority(ThreadId::A, p(pa));
        core.set_priority(ThreadId::B, p(pb));
        core
    }

    #[test]
    fn st_mode_runs_at_full_ipc() {
        let mut core = MesoCore::default();
        core.assign(ThreadId::A, metload(2.5));
        core.set_priority(ThreadId::A, p(7));
        core.set_priority(ThreadId::B, p(0));
        let [a, b] = core.advance(10_000);
        assert_eq!(b, 0);
        assert!((a as f64 - 25_000.0).abs() < 10.0, "ST IPC 2.5: got {a}");
    }

    #[test]
    fn equal_priority_supply_limits_high_ilp_threads() {
        // Two IPC-2.5 threads at 4/4: each limited by W*0.5 = 2.5 supply
        // (minus a sliver of contention) — the SMT-mode slowdown the
        // paper's ST rows quantify.
        let core = pair(3.5, 3.5, 4, 4);
        let [ra, rb] = core.throughputs();
        assert!((ra - rb).abs() < 1e-9, "symmetric pair");
        assert!(ra <= 2.5 + 1e-9, "supply-limited: {ra}");
        assert!(ra > 2.0, "but near the supply bound: {ra}");
    }

    /// The Table IV reproduction targets from DESIGN.md §5: priorities
    /// (4,4) -> light 2.5; (5,6) -> light ~1.36; (4,6) -> light ~0.80;
    /// (3,6) -> light ~0.52 for a light thread of IPC 2.5 paired with a
    /// heavy thread of IPC 2.65.
    #[test]
    fn metbench_case_rates_match_calibration() {
        let at = |pl: u8, ph: u8| -> (f64, f64) {
            let core = pair(2.5, 2.65, pl, ph);
            let r = core.throughputs();
            (r[0], r[1])
        };
        let (l_a, h_a) = at(4, 4);
        assert!(l_a > 2.2 && l_a <= 2.5, "case A light {l_a}");
        assert!(h_a > 2.2 && h_a <= 2.5, "case A heavy {h_a}");

        let (l_b, h_b) = at(5, 6);
        assert!((1.1..1.7).contains(&l_b), "case B light {l_b}");
        assert!(h_b > 2.4, "case B heavy {h_b}");

        let (l_c, h_c) = at(4, 6);
        assert!((0.6..1.0).contains(&l_c), "case C light {l_c}");
        assert!(h_c > 2.4, "case C heavy {h_c}");

        let (l_d, h_d) = at(3, 6);
        assert!((0.4..0.65).contains(&l_d), "case D light {l_d}");
        assert!(h_d > 2.4, "case D heavy {h_d}");

        // Monotone collapse of the light thread.
        assert!(l_a > l_b && l_b > l_c && l_c > l_d);
    }

    #[test]
    fn leftover_mode_gives_loser_the_slack() {
        // Heavy thread is dependency-bound (IPC 0.5): it leaves most of the
        // decode bandwidth unused. A priority-1 partner takes the leftovers
        // (Table III), so it runs much faster than its nominal zero share.
        let mut core = MesoCore::default();
        core.assign(ThreadId::A, metload(2.5));
        core.assign(
            ThreadId::B,
            Workload::with_profile(
                "slowpoke",
                StreamSpec::fpu_bound(1),
                WorkloadProfile::new(0.5, 0.1, 0.0),
            ),
        );
        core.set_priority(ThreadId::A, p(1));
        core.set_priority(ThreadId::B, p(4));
        let [ra, rb] = core.throughputs();
        assert!((rb - 0.5).abs() < 0.1, "owner at natural rate: {rb}");
        assert!(ra > 2.0, "priority-1 thread lives on leftovers: {ra}");
    }

    #[test]
    fn power_save_mode_is_strict() {
        let core = pair(3.0, 3.0, 1, 1);
        let [ra, rb] = core.throughputs();
        // 1/64 of 5-wide decode each.
        assert!((ra - 5.0 / 64.0).abs() < 1e-9, "{ra}");
        assert_eq!(ra, rb);
    }

    #[test]
    fn workless_partner_share_is_partially_stolen() {
        let mut core = MesoCore::default();
        core.assign(ThreadId::A, metload(4.0));
        // B has no workload but sits at MEDIUM: its slots are mostly
        // wasted (kappa = 0.1).
        let [ra, _] = core.throughputs();
        assert!(ra < 3.0, "hard slices waste the idle share: {ra}");
        // Dropping B to VERY LOW donates everything.
        core.set_priority(ThreadId::B, p(1));
        let ra2 = core.throughputs()[0];
        assert!(ra2 > 3.9, "leftover mode recovers the bandwidth: {ra2}");
    }

    #[test]
    fn advance_accumulates_fractional_progress() {
        let mut core = MesoCore::default();
        core.assign(ThreadId::A, metload(0.3));
        core.set_priority(ThreadId::B, p(0));
        core.set_priority(ThreadId::A, p(7));
        let mut total = 0;
        for _ in 0..100 {
            total += core.advance(7)[0];
        }
        // 700 cycles * 0.3 IPC = 210 instructions exactly (no drift).
        assert_eq!(total, 210);
        assert_eq!(core.retired(ThreadId::A), 210);
    }

    #[test]
    fn cycles_to_retire_is_exact() {
        let mut core = MesoCore::default();
        core.assign(ThreadId::A, metload(2.5));
        core.set_priority(ThreadId::A, p(7));
        core.set_priority(ThreadId::B, p(0));
        let n = 1000;
        let dt = core.cycles_to_retire(ThreadId::A, n).unwrap();
        let [got, _] = core.advance(dt);
        assert!(got >= n, "promised {n} within {dt} cycles, got {got}");
        // And one cycle earlier would not have been enough.
        let mut core2 = MesoCore::default();
        core2.assign(ThreadId::A, metload(2.5));
        core2.set_priority(ThreadId::A, p(7));
        core2.set_priority(ThreadId::B, p(0));
        let [almost, _] = core2.advance(dt - 1);
        assert!(almost < n);
    }

    #[test]
    fn cycles_to_retire_none_when_stuck() {
        let mut core = MesoCore::default();
        assert_eq!(core.cycles_to_retire(ThreadId::A, 10), None);
        core.assign(ThreadId::A, metload(2.5));
        core.set_priority(ThreadId::A, p(0));
        assert_eq!(core.cycles_to_retire(ThreadId::A, 10), None);
    }

    #[test]
    fn save_restore_resumes_bit_identically() {
        let mut whole = pair(2.5, 2.65, 4, 6);
        whole.advance(17_003);
        whole.set_priority(ThreadId::A, p(6));
        whole.advance(12_997);

        let mut donor = pair(2.5, 2.65, 4, 6);
        donor.advance(9_001);
        let snap = donor.save_state();

        let mut resumed = pair(2.5, 2.65, 4, 6);
        resumed.advance(123);
        resumed.restore_state(&snap).unwrap();
        resumed.advance(17_003 - 9_001);
        resumed.set_priority(ThreadId::A, p(6));
        resumed.advance(12_997);

        assert_eq!(whole.save_state(), resumed.save_state());
        assert_eq!(whole.retired(ThreadId::A), resumed.retired(ThreadId::A));
        assert_eq!(whole.retired(ThreadId::B), resumed.retired(ThreadId::B));
    }

    #[test]
    fn restore_rejects_wrong_fidelity() {
        let mut core = MesoCore::default();
        let cycle = crate::core::SmtCore::new(crate::core::CoreConfig::default());
        assert!(core.restore_state(&cycle.save_state()).is_err());
    }

    #[test]
    fn contention_reduces_capacity() {
        // A memory-hog co-runner reduces the partner's capacity.
        let mut quiet = MesoCore::default();
        quiet.assign(
            ThreadId::A,
            Workload::with_profile(
                "a",
                StreamSpec::balanced(1),
                WorkloadProfile::new(1.5, 0.1, 0.0),
            ),
        );
        quiet.assign(
            ThreadId::B,
            Workload::with_profile(
                "b",
                StreamSpec::balanced(2),
                WorkloadProfile::new(1.5, 0.1, 0.0),
            ),
        );
        let ra_quiet = quiet.throughputs()[0];

        let mut noisy = MesoCore::default();
        noisy.assign(
            ThreadId::A,
            Workload::with_profile(
                "a",
                StreamSpec::balanced(1),
                WorkloadProfile::new(1.5, 0.1, 0.0),
            ),
        );
        noisy.assign(
            ThreadId::B,
            Workload::with_profile(
                "hog",
                StreamSpec::mem_bound(2),
                WorkloadProfile::new(1.5, 0.9, 0.9),
            ),
        );
        let ra_noisy = noisy.throughputs()[0];
        assert!(
            ra_noisy < ra_quiet * 0.8,
            "contention must bite: {ra_noisy} vs {ra_quiet}"
        );
    }

    fn dense(ipc: f64) -> WorkloadProfile {
        WorkloadProfile::new(ipc, 0.05, 0.02)
    }

    /// Dense, memory-bound and spin profiles: the set the pair-model edge
    /// tests sweep.
    fn edge_profiles() -> [WorkloadProfile; 3] {
        [
            dense(2.6),
            WorkloadProfile::new(1.6, 0.2, 0.5),
            spin_profile(),
        ]
    }

    #[test]
    fn pair_rates_match_the_meso_core() {
        for a in edge_profiles() {
            for b in edge_profiles() {
                for pa in HwPriority::ALL {
                    for pb in HwPriority::ALL {
                        let mut core = MesoCore::default();
                        core.assign(
                            ThreadId::A,
                            Workload::with_profile("a", StreamSpec::balanced(0), a),
                        );
                        core.assign(
                            ThreadId::B,
                            Workload::with_profile("b", StreamSpec::balanced(1), b),
                        );
                        core.set_priority(ThreadId::A, pa);
                        core.set_priority(ThreadId::B, pb);
                        let [ra, rb] = core.throughputs();
                        assert_eq!(pair_rates(&a, &b, pa, pb), (ra, rb));
                    }
                }
            }
        }
    }

    #[test]
    fn solo_rate_matches_a_core_with_a_workless_sibling() {
        for prof in edge_profiles() {
            let mut core = MesoCore::default();
            core.assign(
                ThreadId::A,
                Workload::with_profile("solo", StreamSpec::balanced(0), prof),
            );
            assert_eq!(solo_rate(&prof), core.throughputs()[0]);
        }
    }

    /// The edge semantics every caller of the pair model relies on, over
    /// all 64 hardware priority pairs.
    #[test]
    fn pair_model_edge_semantics() {
        const WORK: u64 = 1_000_000;
        for a in edge_profiles() {
            for b in edge_profiles() {
                for pa in HwPriority::ALL {
                    for pb in HwPriority::ALL {
                        let (ra, rb) = pair_rates(&a, &b, pa, pb);
                        let (sb, sa) = pair_rates(&b, &a, pb, pa);
                        assert_eq!(
                            (ra.to_bits(), rb.to_bits()),
                            (sa.to_bits(), sb.to_bits()),
                            "swap symmetry at {pa:?}/{pb:?}"
                        );
                        assert!(ra.is_finite() && ra >= 0.0, "{ra}");
                        assert!(rb.is_finite() && rb >= 0.0, "{rb}");

                        let ms = pair_makespan(&a, WORK, &b, WORK, pa, pb);
                        if pa.is_off() || pb.is_off() {
                            if pa.is_off() {
                                assert_eq!(ra, 0.0);
                            }
                            if pb.is_off() {
                                assert_eq!(rb, 0.0);
                            }
                            assert_eq!(ms, None, "a side at priority 0 never finishes");
                            continue;
                        }
                        assert_eq!(
                            pair_makespan(&a, 0, &b, 0, pa, pb),
                            Some((0.0, 1)),
                            "zero work at {pa:?}/{pb:?}"
                        );
                        if a == b && pa == pb {
                            assert_eq!(ms, Some((WORK as f64 / ra, 1)), "exact tie");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn boosting_helps_the_boosted_thread() {
        let (r_hi, r_lo) = pair_rates(&dense(2.6), &dense(2.6), p(6), p(4));
        let (r_eq, r_eq_b) = pair_rates(&dense(2.6), &dense(2.6), p(4), p(4));
        assert_eq!(r_eq, r_eq_b);
        assert!(r_eq <= 2.5 + 1e-9, "equal share supply bound");
        assert!(r_hi > r_eq);
        assert!(r_lo < r_eq);
    }

    #[test]
    fn makespan_accounts_for_the_solo_tail() {
        let t = |work_a: u64| {
            pair_makespan(&dense(2.6), work_a, &dense(2.6), 1_000_000, p(4), p(4))
                .expect("both sides decode")
        };
        // Balanced work at equal priorities: ends together, no tail.
        let (t_eq, _) = t(1_000_000);
        // Heavily skewed work: the light thread finishes early and the
        // heavy one continues against its spin loop.
        let (t_skew, last) = t(4_000_000);
        assert_eq!(last, 0, "the heavy side finishes last");
        assert!(t_skew > t_eq);
        assert!(
            t_skew < 4.0 * t_eq,
            "the tail against a spin loop still beats 4 sequential phases"
        );
    }

    #[test]
    fn memory_bound_pairs_gain_little_from_priorities() {
        // The SIESTA story: a 1.6-IPC thread is not decode-limited at
        // share 1/2, so boosting the partner barely hurts it.
        let mem = WorkloadProfile::new(1.6, 0.2, 0.5);
        let (_, r_lo_eq) = pair_rates(&mem, &mem, p(4), p(4));
        let (_, r_lo_boosted) = pair_rates(&mem, &mem, p(5), p(4));
        let hit = 1.0 - r_lo_boosted / r_lo_eq;
        assert!(
            hit < 0.05,
            "diff-1 penalty should be tiny for memory-bound code: {hit}"
        );
    }

    proptest! {
        /// Rates are finite, non-negative and never exceed the workload's
        /// ST IPC or the decode width.
        #[test]
        fn prop_rates_bounded(
            pa in 0u8..=7, pb in 0u8..=7,
            ipc_a in 0.1f64..5.0, ipc_b in 0.1f64..5.0,
            u in 0.0f64..1.0, m in 0.0f64..1.0,
        ) {
            let mut core = MesoCore::default();
            core.assign(ThreadId::A, Workload::with_profile("a", StreamSpec::balanced(1), WorkloadProfile::new(ipc_a, u, m)));
            core.assign(ThreadId::B, Workload::with_profile("b", StreamSpec::balanced(2), WorkloadProfile::new(ipc_b, u, m)));
            core.set_priority(ThreadId::A, p(pa));
            core.set_priority(ThreadId::B, p(pb));
            let [ra, rb] = core.throughputs();
            prop_assert!(ra.is_finite() && ra >= 0.0);
            prop_assert!(rb.is_finite() && rb >= 0.0);
            prop_assert!(ra <= ipc_a + 1e-9);
            prop_assert!(rb <= ipc_b + 1e-9);
            prop_assert!(ra + rb <= 5.0 * (1.0 + 0.1) + 1e-9, "cannot exceed decode width by more than steal slack");
        }

        /// Raising my own priority (with the partner fixed) never lowers my
        /// throughput — the monotonicity the balancer relies on.
        #[test]
        fn prop_priority_monotone(ipc_a in 0.5f64..4.0, ipc_b in 0.5f64..4.0, pb in 2u8..=6) {
            let mut prev = -1.0;
            for pa in 2u8..=6 {
                let mut core = MesoCore::default();
                core.assign(ThreadId::A, Workload::with_profile("a", StreamSpec::balanced(1), WorkloadProfile::new(ipc_a, 0.2, 0.1)));
                core.assign(ThreadId::B, Workload::with_profile("b", StreamSpec::balanced(2), WorkloadProfile::new(ipc_b, 0.2, 0.1)));
                core.set_priority(ThreadId::A, p(pa));
                core.set_priority(ThreadId::B, p(pb));
                let ra = core.throughputs()[0];
                prop_assert!(ra >= prev - 1e-9, "rate dropped when raising own priority: {prev} -> {ra} at pa={pa}, pb={pb}");
                prev = ra;
            }
        }

        /// Retired counts conserve: advance(a) + advance(b) over the same
        /// core equals advance(a+b) of a fresh identical core.
        #[test]
        fn prop_advance_additive(steps in proptest::collection::vec(1u64..10_000, 1..20)) {
            let mk = || {
                let mut c = MesoCore::default();
                c.assign(ThreadId::A, Workload::with_profile("a", StreamSpec::balanced(1), WorkloadProfile::new(1.7, 0.2, 0.1)));
                c.set_priority(ThreadId::B, p(1));
                c
            };
            let mut split = mk();
            let mut total_split = 0;
            let mut total_cycles = 0;
            for &s in &steps {
                total_split += split.advance(s)[0];
                total_cycles += s;
            }
            let mut whole = mk();
            let total_whole = whole.advance(total_cycles)[0];
            // Anchored accounting: segmentation never changes the count.
            prop_assert_eq!(total_split, total_whole);
        }

        /// Segmentation invariance holds across mid-run reconfigurations
        /// too: quantum-stepping to an event and jumping straight to it
        /// retire the same totals (the event-horizon engine's contract).
        #[test]
        fn prop_segmented_advance_matches_jump_across_reconfig(
            pa in 2u8..=6, pb in 2u8..=6,
            first in 1u64..50_000, second in 1u64..50_000,
            chunk in 1u64..997,
        ) {
            let run = |chunked: bool| {
                let mut c = pair(2.5, 2.65, pa, pb);
                let adv = |c: &mut MesoCore, mut n: u64| {
                    let mut got = [0u64; 2];
                    if chunked {
                        while n > 0 {
                            let step = n.min(chunk);
                            let [a, b] = c.advance(step);
                            got[0] += a;
                            got[1] += b;
                            n -= step;
                        }
                    } else {
                        got = c.advance(n);
                    }
                    got
                };
                let g1 = adv(&mut c, first);
                c.set_priority(ThreadId::A, p(pb));
                c.set_priority(ThreadId::B, p(pa));
                let g2 = adv(&mut c, second);
                (g1, g2, c.retired(ThreadId::A), c.retired(ThreadId::B))
            };
            prop_assert_eq!(run(false), run(true));
        }

        /// The rate and crossing memos never change an answer. After every
        /// step of a random reconfiguration sequence, the warm core agrees
        /// bitwise with a cold core restored from its snapshot (empty
        /// memos) on both rates, on crossing times for relative targets and
        /// for a fixed absolute one (which hits the crossing memo as the
        /// core advances), and on the next advance. A zero-length handler
        /// window (take, then re-assign at the same cycle) keeps every
        /// crossing-memo input but the carry.
        #[test]
        fn memoized_answers_match_a_cold_core(
            steps in proptest::collection::vec((0u8..7, 0usize..2, 0u64..4_000), 1..40),
            target in 1_000u64..30_000,
        ) {
            let profiles = [
                WorkloadProfile::new(2.5, 0.2, 0.02),
                WorkloadProfile::new(0.3, 0.1, 0.0),
            ];
            let mut core = MesoCore::default();
            let mut saved = core.save_state();
            for (op, ti, arg) in steps {
                let t = ThreadId::from_index(ti);
                let w = Workload::with_profile("w", StreamSpec::balanced(1), profiles[arg as usize % 2]);
                match op {
                    0 => core.assign(t, w),
                    1 => drop(core.take(t)),
                    2 => core.set_priority(t, p([1, 2, 4, 6][arg as usize % 4])),
                    3 => drop(core.advance(arg)),
                    4 => {
                        if let Some(w) = core.take(t) {
                            core.assign(t, w);
                        }
                    }
                    5 => saved = core.save_state(),
                    _ => core.restore_state(&saved).unwrap(),
                }
                let mut cold = MesoCore::default();
                cold.restore_state(&core.save_state()).unwrap();
                for th in ThreadId::BOTH {
                    prop_assert_eq!(core.retire_rate(th).to_bits(), cold.retire_rate(th).to_bits());
                    // Each context memoizes one answer, so the fixed target
                    // is asked first (a hit when nothing moved it since the
                    // last step) and last (stored for the next step).
                    let to_target = target.saturating_sub(core.retired(th)).max(1);
                    for n in [to_target, 1, 2, 37, 1_000, to_target] {
                        prop_assert_eq!(core.cycles_to_retire(th, n), cold.cycles_to_retire(th, n), "{:?} n={}", th, n);
                    }
                }
                let mut warm = core.clone();
                prop_assert_eq!(warm.advance(arg), cold.advance(arg));
                prop_assert_eq!(warm.save_state(), cold.save_state());
            }
        }
    }
}
