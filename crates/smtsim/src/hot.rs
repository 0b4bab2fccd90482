//! Busy-window hot engine for the cycle core's fast-forward path.
//!
//! The quiet-cycle skip in [`crate::core::SmtCore::advance`] only pays
//! when a context is *stalled*; decode-bound windows step every cycle
//! and used to run at the reference path's speed (the table3-frontend
//! sweep measured ~1.0×). This module is a specialized transcription of
//! `SmtCore::step` for exactly those busy stretches: the same logical
//! operations in the same order — so results are bit-identical, enforced
//! by the differential suites — but on flat, precomputed state:
//!
//! * **Grant period hoisting**: the two priority indices of the
//!   [`crate::decode::GrantLut`] are resolved once per `advance` window
//!   ([`crate::decode::GrantLut::period`]); the per-cycle lookup is a
//!   single `cycle & 63` load. Slot-ownership stats are accumulated in
//!   registers and flushed per window, and skipped stretches are credited
//!   by ranged census exactly like the generic path.
//! * **Division-free scoreboard**: dispatch entries carry their
//!   scoreboard slot and their dependency's slot, computed once at
//!   decode; the issue loop does no `% window` arithmetic.
//! * **Completion-count ring** replaces the retire [`BinaryHeap`]: all
//!   in-flight completion times lie within `max_lat` cycles of `now`, so
//!   a power-of-two ring of counters gives O(1) insert and O(1) retire.
//! * **Power-of-two cache indexing**: L1 set/tag come from shifts
//!   ([`crate::cache::Cache::pow2_index`]) instead of runtime divisions.
//! * **Arena-style scratch**: the dispatch mirrors and rings live in
//!   [`HotState`] and are reused across `advance` calls — the hot loop
//!   itself performs zero heap allocation.
//!
//! Configurations outside the envelope ([`HotState::for_config`]) — or
//! checkpoint states whose pending times fall outside the ring span —
//! decline the hot path and fall back to the generic probe-and-step
//! loop, which remains behaviorally identical.
//!
//! Checkpoint boundaries are forced exit points: the engine converts its
//! flat state back into the canonical [`crate::core::Ctx`] structures at
//! the end of every `advance` window, so `save_state` and
//! `execute_chunked` observe exactly the states the reference path
//! produces.

use std::cmp::Reverse;

use crate::cache::{Cache, Pow2Index};
use crate::core::{CoreConfig, Ctx, SmtCore};
use crate::decode::{grant_census_range, GRANT_PERIOD};
use crate::inst::{Inst, InstClass};
use crate::Cycles;

/// A dispatch-buffer entry with its scoreboard geometry precomputed.
/// Entries live in a per-context slab indexed by scoreboard slot (unique
/// while in flight — the GCT constraint keeps the decode head within one
/// window of the oldest entry); the program-order queue holds only the
/// `u32` slot indices, so mid-queue removal moves a few bytes instead of
/// whole entries.
#[derive(Debug, Clone, Copy)]
struct HotEntry {
    seq: u64,
    pc: u64,
    /// Raw data address; `u64::MAX` = none (generator addresses are
    /// bounded by the working-set size, so the sentinel is unambiguous).
    addr: u64,
    dep: u32,
    /// Scoreboard slot of the dependency (`(seq - dep) % window`), valid
    /// when `dep_live`.
    dep_slot: u32,
    class: InstClass,
    taken: bool,
    /// Whether the dependency check applies (`0 < dep <= seq` and
    /// `dep <= window`), a pure function of the instruction and its
    /// sequence number.
    dep_live: bool,
}

impl HotEntry {
    fn new(inst: Inst, seq: u64, window: u64) -> HotEntry {
        let slot = (seq % window) as u32;
        let dep = inst.dep;
        let dep_live = dep > 0 && u64::from(dep) <= seq && u64::from(dep) <= window;
        let dep_slot = if dep_live {
            let mut d = slot + window as u32 - dep;
            if d >= window as u32 {
                d -= window as u32;
            }
            d
        } else {
            0
        };
        HotEntry {
            seq,
            pc: inst.pc,
            addr: inst.addr.unwrap_or(u64::MAX),
            dep,
            dep_slot,
            class: inst.class,
            taken: inst.taken,
            dep_live,
        }
    }

    fn to_inst(self) -> Inst {
        Inst {
            class: self.class,
            addr: (self.addr != u64::MAX).then_some(self.addr),
            dep: self.dep,
            taken: self.taken,
            pc: self.pc,
        }
    }

    /// Filler for unoccupied slab slots; never read.
    fn vacant() -> HotEntry {
        HotEntry {
            seq: 0,
            pc: 0,
            addr: u64::MAX,
            dep: 0,
            dep_slot: 0,
            class: InstClass::Fx,
            taken: false,
            dep_live: false,
        }
    }
}

/// Precomputed constants and reusable scratch for the hot engine.
#[derive(Debug)]
pub(crate) struct HotState {
    /// Largest possible result latency under this configuration; bounds
    /// how far ahead of `now` a pending completion can lie.
    max_lat: Cycles,
    /// Power-of-two completion-ring index mask (`ring length - 1`).
    ring_mask: u64,
    l1d_idx: Pow2Index,
    l1i_idx: Pow2Index,
    /// Per-context entry slabs indexed by scoreboard slot.
    slab: [Vec<HotEntry>; 2],
    /// Per-context packed scan keys indexed by scoreboard slot:
    /// `ready_time << 8 | class_index`. `ready_time` is 0 when the entry
    /// has no live dependency, the dependency's completion cycle once
    /// known, or [`SENT_READY`] while the dependency is unissued (then
    /// the completion time is *pushed* into the key by the dependency's
    /// own issue via the [`Self::dep_head`] list — exact, because a
    /// resolved completion time can never change while a dependent is in
    /// flight: the GCT constraint in `can_decode` keeps decode from
    /// reusing a scoreboard slot any in-flight instruction may still
    /// reference). The issue scan therefore touches only the queue and
    /// this array — no slab or scoreboard loads on the hot path.
    keys: [Vec<u64>; 2],
    /// Per-context flat copy of each entry's `dep_slot`, used to
    /// validate dependent links against slot reuse.
    deps: [Vec<u32>; 2],
    /// Head of the singly-linked list of *unissued* dependents per
    /// scoreboard slot ([`NO_DEP`] = empty). When the instruction in a
    /// slot issues, it walks this list and writes its completion time
    /// into every live dependent's key. A link can go stale when a
    /// mispredict flush discards the dependent and decode reuses its
    /// slot; the walk re-validates each node (`key` still [`SENT_READY`]
    /// and `deps` still pointing here) and a write to a vacated slot is
    /// dead anyway — decode rewrites the slot's key before requeueing it.
    dep_head: [Vec<u32>; 2],
    /// Next pointers for the [`Self::dep_head`] lists, indexed by the
    /// dependent's scoreboard slot.
    dep_next: [Vec<u32>; 2],
    /// Per-context program-order queues of slab indices.
    q: [Vec<u32>; 2],
    /// Per-context completion-count rings, indexed by `time & ring_mask`.
    ring: [Vec<u32>; 2],
}

/// `ready_time` marker for "dependency not yet issued" (all ones in the
/// 56-bit ready field; real cycle counts stay far below it).
const SENT_READY: u64 = u64::MAX >> 8;

/// Empty link in the dependent lists.
const NO_DEP: u32 = u32::MAX;

impl HotState {
    /// Build the hot-engine state when the configuration fits its
    /// envelope: at least one decode slot per owned cycle (the activity
    /// probe equates "decode granted" with "instructions decoded"),
    /// power-of-two L1 set counts, a bounded completion-latency span,
    /// and a scoreboard window that fits 32-bit slot arithmetic.
    pub(crate) fn for_config(cfg: &CoreConfig, l1d: &Cache, l1i: &Cache) -> Option<Box<HotState>> {
        if cfg.decode_width == 0 || cfg.window > 1 << 24 {
            return None;
        }
        let l1d_idx = l1d.pow2_index()?;
        let l1i_idx = l1i.pow2_index()?;
        let max_lat = cfg
            .fx_lat
            .max(cfg.fp_lat)
            .max(cfg.br_lat)
            .max(cfg.l1d.hit_latency + cfg.l2.hit_latency + cfg.mem_lat);
        let ring_len = (max_lat + 2).next_power_of_two();
        if ring_len > 8192 {
            return None;
        }
        let cap = cfg.dispatch_buf + cfg.decode_width as usize;
        Some(Box::new(HotState {
            max_lat,
            ring_mask: ring_len - 1,
            l1d_idx,
            l1i_idx,
            slab: [
                vec![HotEntry::vacant(); cfg.window],
                vec![HotEntry::vacant(); cfg.window],
            ],
            keys: [vec![0; cfg.window], vec![0; cfg.window]],
            deps: [vec![0; cfg.window], vec![0; cfg.window]],
            dep_head: [vec![NO_DEP; cfg.window], vec![NO_DEP; cfg.window]],
            dep_next: [vec![NO_DEP; cfg.window], vec![NO_DEP; cfg.window]],
            q: [Vec::with_capacity(cap), Vec::with_capacity(cap)],
            ring: [vec![0; ring_len as usize], vec![0; ring_len as usize]],
        }))
    }
}

/// Packed scan key for a dispatch entry: `ready_time << 8 | class_index`,
/// with `ready_time` resolved against the context's completion scoreboard
/// (see [`HotState::keys`]).
#[inline]
fn scan_key(e: &HotEntry, completion: &[Cycles]) -> u64 {
    let ready = if e.dep_live {
        let t = completion[e.dep_slot as usize];
        if t == Cycles::MAX {
            SENT_READY
        } else {
            t
        }
    } else {
        0
    };
    (ready << 8) | e.class.index() as u64
}

/// Bitmask of unit classes whose per-cycle issue bandwidth is exhausted.
#[inline]
fn sat_mask(issued_now: &[u8; 4], counts: &[u8; 4]) -> u8 {
    u8::from(issued_now[0] >= counts[0])
        | (u8::from(issued_now[1] >= counts[1]) << 1)
        | (u8::from(issued_now[2] >= counts[2]) << 2)
        | (u8::from(issued_now[3] >= counts[3]) << 3)
}

/// Stall-accounting deltas accumulated by [`scan_stalls`].
#[derive(Default)]
struct ScanDeltas {
    dep: u64,
    unit: u64,
    confl: [u64; 4],
}

/// Walk the issue window from `slot` to `end`, recording dependency and
/// unit stalls, until an entry that can issue this cycle is found (its
/// position is returned) or the window is exhausted (`end` is returned).
///
/// This is the hottest loop in the simulator — steady decode-bound
/// windows walk nearly the whole lookahead for both contexts every
/// cycle, almost always producing only stall counts. It lives in its
/// own non-inlined function so the handful of values it touches stay in
/// registers instead of sharing `advance_hot`'s giant frame; the caller
/// performs the actual issue side effects and re-enters.
#[inline(never)]
fn scan_stalls(
    q: &[u32],
    keys: &[u64],
    now: Cycles,
    satm: u8,
    mut slot: usize,
    end: usize,
    d: &mut ScanDeltas,
) -> usize {
    let mut dep = 0u64;
    let mut unit = 0u64;
    let mut confl = [0u64; 4];
    // Branchless body: stall classification is data-random in steady
    // windows and mispredicts about once per scan when branched on, so
    // the counters are updated arithmetically. Keys are push-updated at
    // issue time (see `HotState::dep_head`), so the loop is two loads
    // and no stores; the only branch is the rarely-taken issue break.
    while slot < end {
        let es = q[slot] as usize;
        let key = keys[es];
        let ci = (key & 3) as usize;
        let sd = u64::from(key >> 8 > now);
        // The break predicate is materialized as one integer so the
        // whole classification compiles to a single rarely-taken
        // branch; letting the compiler split it leaves a jump on the
        // data-random stall bit, which mispredicts about once per scan
        // and triples the loop cost.
        let go = std::hint::black_box(sd | u64::from((satm >> ci) & 1));
        if go == 0 {
            break;
        }
        dep += sd;
        unit += 1 - sd;
        confl[ci] += 1 - sd;
        slot += 1;
    }
    d.dep += dep;
    d.unit += unit;
    for (acc, c) in d.confl.iter_mut().zip(confl) {
        *acc += c;
    }
    slot
}

/// Decode eligibility, identical to `SmtCore::can_decode` expressed over
/// the hot mirrors.
#[inline]
#[allow(clippy::too_many_arguments)]
fn can_dec(
    c: &Ctx,
    q: &[u32],
    slab: &[HotEntry],
    seq: u64,
    now: Cycles,
    base: bool,
    buf: usize,
    gct_slack: u64,
    window: u64,
) -> bool {
    base && q.len() < buf
        && c.fetch_stall_until <= now
        && q.first()
            .map_or(true, |&s| seq - slab[s as usize].seq + gct_slack <= window)
}

/// Advance `core` to `end` on the hot engine. Returns `false` — with the
/// core untouched — when the engine does not apply (no [`HotState`] for
/// this configuration, or restored pending times outside the ring span);
/// the caller then runs the generic fast-forward loop.
pub(crate) fn advance_hot(core: &mut SmtCore, end: Cycles) -> bool {
    let SmtCore {
        cfg,
        core_id,
        cycle,
        ctx,
        units,
        l1d,
        l1i,
        l2,
        lut,
        hot,
    } = core;
    let Some(hot) = hot else {
        return false;
    };
    let HotState {
        max_lat,
        ring_mask,
        l1d_idx,
        l1i_idx,
        slab,
        keys,
        deps,
        dep_head,
        dep_next,
        q,
        ring,
    } = &mut **hot;
    let (max_lat, ring_mask, l1d_idx, l1i_idx) = (*max_lat, *ring_mask, *l1d_idx, *l1i_idx);

    let now0 = *cycle;
    if end <= now0 {
        return true;
    }
    // Validate before mutating anything: every pending completion must
    // lie within the ring span (guaranteed for states this simulator
    // produced; a foreign checkpoint could violate it).
    for c in ctx.iter() {
        for &Reverse(t) in c.pending.iter() {
            if t < now0 || t - now0 > max_lat {
                return false;
            }
        }
    }

    // --- Hoisted per-window constants ---------------------------------
    let window = cfg.window as u64;
    let window32 = cfg.window as u32;
    let pa = ctx[0].tsr.read();
    let pb = ctx[1].tsr.read();
    let sched = lut.period(pa, pb);
    let steal_cfg = cfg.slot_stealing;
    let can_base = [0, 1].map(|i| ctx[i].workload.is_some() && !ctx[i].tsr.read().is_off());
    let owner8 = [*core_id * 2, *core_id * 2 + 1];
    let owner_tag = owner8.map(|o| u64::from(o) << 56);
    let dispatch_buf = cfg.dispatch_buf;
    let decode_width = cfg.decode_width as usize;
    let issue_width = cfg.issue_width;
    let lookahead = cfg.lookahead;
    let counts = cfg.units.counts;
    let gct_slack = u64::from(cfg.decode_width) + u64::from(crate::inst::MAX_DEP);
    let l2_hit = cfg.l2.hit_latency;
    let (fx, fp, brl) = (cfg.fx_lat, cfg.fp_lat, cfg.br_lat);
    let l1d_hit = cfg.l1d.hit_latency;
    let l2d = l1d_hit + cfg.l2.hit_latency;
    let memlat = l2d + cfg.mem_lat;
    let penalty = cfg.mispredict_penalty;

    // --- Enter: mirror the canonical state into the flat scratch ------
    let mut seqv = [ctx[0].seq, ctx[1].seq];
    let mut head = [0u32; 2];
    let mut pend = [0u32; 2];
    for i in 0..2 {
        head[i] = (seqv[i] % window) as u32;
        q[i].clear();
        for h in dep_head[i].iter_mut() {
            *h = NO_DEP;
        }
        for &(inst, seq) in &ctx[i].dispatch {
            let slot = (seq % window) as u32;
            let e = HotEntry::new(inst, seq, window);
            let key = scan_key(&e, &ctx[i].completion);
            keys[i][slot as usize] = key;
            deps[i][slot as usize] = e.dep_slot;
            if key >> 8 == SENT_READY {
                let ds = e.dep_slot as usize;
                dep_next[i][slot as usize] = dep_head[i][ds];
                dep_head[i][ds] = slot;
            }
            slab[i][slot as usize] = e;
            q[i].push(slot);
        }
        for slot in ring[i].iter_mut() {
            *slot = 0;
        }
        for &Reverse(t) in ctx[i].pending.iter() {
            ring[i][(t & ring_mask) as usize] += 1;
        }
        pend[i] = ctx[i].pending.len() as u32;
    }
    let (_, _, mut tot, mut confl) = units.save_state();
    let mut issued_now = [0u8; 4];
    let mut last_stepped: Option<Cycles> = None;
    let mut owned_acc = [0u64; 2];

    // --- The hot loop: `step` transcribed over the flat state ---------
    let mut now = now0;
    while now < end {
        issued_now = [0; 4];
        let mut active = false;
        let mut ddep = [0u64; 2];
        let mut dunit = [0u64; 2];

        // Decode.
        let g = sched[(now % GRANT_PERIOD) as usize];
        if let Some(owner) = g.owner {
            owned_acc[owner.index()] += 1;
        }
        let decoder: Option<(usize, bool)> = match g.owner {
            Some(owner) => {
                let oi = owner.index();
                if can_dec(
                    &ctx[oi],
                    &q[oi],
                    &slab[oi],
                    seqv[oi],
                    now,
                    can_base[oi],
                    dispatch_buf,
                    gct_slack,
                    window,
                ) {
                    Some((oi, false))
                } else {
                    let ti = 1 - oi;
                    let may = g.leftover_allowed || steal_cfg;
                    (may && can_dec(
                        &ctx[ti],
                        &q[ti],
                        &slab[ti],
                        seqv[ti],
                        now,
                        can_base[ti],
                        dispatch_buf,
                        gct_slack,
                        window,
                    ))
                    .then_some((ti, true))
                }
            }
            None => None,
        };
        if let Some((i, stolen)) = decoder {
            let c = &mut ctx[i];
            let qi = &mut q[i];
            let room = dispatch_buf - qi.len();
            let n = room.min(decode_width);
            let (_, gen) = c.workload.as_mut().expect("can_dec checked");
            let mut icache_miss = false;
            for _ in 0..n {
                let inst = gen.next_inst();
                let tagged_pc = inst.pc | owner_tag[i] | (1 << 55);
                if !l1i.access_pow2(tagged_pc, owner8[i], l1i_idx) {
                    c.stats.l1i_misses += 1;
                    icache_miss = true;
                }
                let seq = seqv[i];
                seqv[i] += 1;
                let slot = head[i];
                head[i] += 1;
                if head[i] == window32 {
                    head[i] = 0;
                }
                c.completion[slot as usize] = Cycles::MAX;
                let dep = inst.dep;
                let dep_live = dep > 0 && u64::from(dep) <= seq && u64::from(dep) <= window;
                let dep_slot = if dep_live {
                    let mut d = slot + window32 - dep;
                    if d >= window32 {
                        d -= window32;
                    }
                    d
                } else {
                    0
                };
                let e = HotEntry {
                    seq,
                    pc: inst.pc,
                    addr: inst.addr.unwrap_or(u64::MAX),
                    dep,
                    dep_slot,
                    class: inst.class,
                    taken: inst.taken,
                    dep_live,
                };
                let key = scan_key(&e, &c.completion);
                dep_head[i][slot as usize] = NO_DEP;
                keys[i][slot as usize] = key;
                deps[i][slot as usize] = dep_slot;
                if key >> 8 == SENT_READY {
                    let ds = dep_slot as usize;
                    dep_next[i][slot as usize] = dep_head[i][ds];
                    dep_head[i][ds] = slot;
                }
                slab[i][slot as usize] = e;
                qi.push(slot);
                c.stats.decoded += 1;
            }
            c.stats.slots_used += 1;
            if stolen {
                c.stats.slots_stolen += 1;
            }
            if icache_miss {
                c.fetch_stall_until = now + l2_hit;
            }
            active = true;
        }

        // Issue.
        let first = (now % 2) as usize;
        for i in [first, 1 - first] {
            let c = &mut ctx[i];
            let qi = &mut q[i];
            let si = &slab[i];
            let ki = &mut keys[i];
            let ri = &mut ring[i];
            let mut issued = 0u8;
            let mut slot = 0usize;
            let mut d = ScanDeltas::default();
            let mut satm = sat_mask(&issued_now, &counts);
            while issued < issue_width {
                let scan_end = qi.len().min(lookahead);
                slot = scan_stalls(qi, ki, now, satm, slot, scan_end, &mut d);
                if slot >= scan_end {
                    break;
                }
                // `qi[slot]` is ready and its unit class has bandwidth:
                // perform the issue, then resume the scan at the same
                // position (the removal shifts the next entry into it).
                let es = qi[slot] as usize;
                let ci = (ki[es] & 3) as usize;
                issued_now[ci] += 1;
                if issued_now[ci] >= counts[ci] {
                    satm |= 1 << ci;
                }
                tot[ci] += 1;
                let e = &si[es];
                let lat = match e.class {
                    InstClass::Fx => fx,
                    InstClass::Fp => fp,
                    InstClass::Br => brl,
                    InstClass::Ls => {
                        if e.addr == u64::MAX {
                            fx
                        } else {
                            let tagged = e.addr | owner_tag[i];
                            if l1d.access_pow2(tagged, owner8[i], l1d_idx) {
                                c.stats.l1_hits += 1;
                                l1d_hit
                            } else if l2.lock().unwrap().access(tagged, owner8[i]) {
                                c.stats.l2_hits += 1;
                                l2d
                            } else {
                                c.stats.mem_accesses += 1;
                                memlat
                            }
                        }
                    }
                };
                let is_br = e.class == InstClass::Br;
                let taken = e.taken;
                let done = now + lat;
                qi.remove(slot);
                c.completion[es] = done;
                // Push the now-final completion time into every live
                // dependent's key; each node is re-validated against
                // slot reuse (see `HotState::dep_head`).
                let mut link = dep_head[i][es];
                dep_head[i][es] = NO_DEP;
                while link != NO_DEP {
                    let dslot = link as usize;
                    link = dep_next[i][dslot];
                    if ki[dslot] >> 8 == SENT_READY && deps[i][dslot] == es as u32 {
                        ki[dslot] = (done << 8) | (ki[dslot] & 0xff);
                    }
                }
                ri[(done & ring_mask) as usize] += 1;
                pend[i] += 1;
                issued += 1;
                active = true;
                if is_br && !c.predictor.predict_and_update(taken) {
                    c.stats.br_mispredicts += 1;
                    while qi.len() > slot {
                        let f = qi.pop().expect("len > slot");
                        c.completion[f as usize] = done;
                    }
                    c.fetch_stall_until = done + penalty;
                    break;
                }
            }
            ddep[i] = d.dep;
            dunit[i] = d.unit;
            c.stats.stall_dep += d.dep;
            c.stats.stall_unit += d.unit;
            for (acc, delta) in confl.iter_mut().zip(d.confl) {
                *acc += delta;
            }
        }

        // Retire.
        let slot_r = (now & ring_mask) as usize;
        for i in 0..2 {
            let n = ring[i][slot_r];
            if n > 0 {
                ring[i][slot_r] = 0;
                pend[i] -= n;
                ctx[i].stats.retired += u64::from(n);
                active = true;
            }
        }
        last_stepped = Some(now);
        now += 1;

        if active {
            continue;
        }
        // Quiet probe: identical to the generic path's `quiet_horizon`
        // plus census/stall crediting, expressed over the flat state.
        let mut h = end;
        for i in 0..2 {
            if pend[i] > 0 {
                let base = now - 1;
                for off in 1..=max_lat {
                    let t = base + off;
                    if t >= h {
                        break;
                    }
                    if ring[i][(t & ring_mask) as usize] > 0 {
                        h = t;
                        break;
                    }
                }
            }
            if ctx[i].fetch_stall_until > now {
                h = h.min(ctx[i].fetch_stall_until);
            }
        }
        if h <= now {
            continue;
        }
        let elig = [0, 1].map(|i| {
            can_dec(
                &ctx[i],
                &q[i],
                &slab[i],
                seqv[i],
                now,
                can_base[i],
                dispatch_buf,
                gct_slack,
                window,
            )
        });
        let mut target = h;
        if elig[0] || elig[1] {
            for off in 0..GRANT_PERIOD.min(h - now) {
                let t = now + off;
                let g = sched[(t % GRANT_PERIOD) as usize];
                if let Some(o) = g.owner {
                    let may = g.leftover_allowed || steal_cfg;
                    if elig[o.index()] || (may && elig[1 - o.index()]) {
                        target = t;
                        break;
                    }
                }
            }
        }
        if target <= now {
            continue;
        }
        let k = target - now;
        let (ca, cb) = grant_census_range(pa, pb, now, target);
        owned_acc[0] += ca;
        owned_acc[1] += cb;
        for i in 0..2 {
            ctx[i].stats.stall_dep += k * ddep[i];
            ctx[i].stats.stall_unit += k * dunit[i];
        }
        now = target;
    }

    // --- Exit: write the flat state back into the canonical forms -----
    *cycle = now;
    for i in 0..2 {
        let c = &mut ctx[i];
        c.seq = seqv[i];
        c.stats.slots_owned += owned_acc[i];
        c.dispatch.clear();
        for &s in &q[i] {
            let e = slab[i][s as usize];
            c.dispatch.push_back((e.to_inst(), e.seq));
        }
        c.pending.clear();
        if pend[i] > 0 {
            let mut remaining = pend[i];
            for off in 0..=max_lat {
                let t = now + off;
                let cnt = ring[i][(t & ring_mask) as usize];
                for _ in 0..cnt {
                    c.pending.push(Reverse(t));
                }
                remaining -= cnt;
                if remaining == 0 {
                    break;
                }
            }
            debug_assert_eq!(remaining, 0, "pending times escaped the ring span");
        }
    }
    if let Some(t) = last_stepped {
        units.restore_state(issued_now, t, tot, confl);
    }
    true
}
