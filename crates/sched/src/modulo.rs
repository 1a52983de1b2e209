//! Iterative modulo scheduling (software pipelining), after Rau (MICRO-27,
//! 1994) — the algorithm family behind the Imagine kernel scheduler.

use crate::{Ddg, MiiBounds};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use stream_machine::{FuKind, Machine};
use stream_verify::DepKind;

/// A legal modulo schedule: every node has an absolute start time; the loop
/// kernel repeats every [`ModuloSchedule::ii`] cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuloSchedule {
    /// The initiation interval.
    pub ii: u32,
    /// Start time per DDG node.
    pub times: Vec<u32>,
}

impl ModuloSchedule {
    /// Number of pipeline stages: the span of the schedule in IIs.
    pub fn stages(&self) -> u32 {
        match self.times.iter().max() {
            Some(&t) => t / self.ii + 1,
            None => 1,
        }
    }

    /// Flat schedule length in cycles (prologue + one kernel iteration),
    /// saturating at `u32::MAX`.
    pub fn length(&self, ddg: &Ddg) -> u32 {
        ddg.nodes()
            .iter()
            .zip(&self.times)
            .map(|(n, &t)| t.saturating_add(n.latency))
            .max()
            .unwrap_or(0)
    }

    /// Verifies dependence and resource legality against `ddg`/`machine`:
    /// the end-of-attempt self-check that decides whether the II search
    /// moves on. Compiled and rehydrated schedules are proved by the
    /// independent verifier instead ([`crate::check_schedule`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub(crate) fn verify(&self, ddg: &Ddg, machine: &Machine) -> Result<(), String> {
        for e in ddg.edges() {
            let lhs = i64::from(self.times[e.from]) + i64::from(e.latency);
            let rhs = i64::from(self.times[e.to]) + i64::from(self.ii) * i64::from(e.distance);
            if lhs > rhs {
                return Err(format!(
                    "dependence violated: node {} @{} + {} > node {} @{} + {}*{}",
                    e.from,
                    self.times[e.from],
                    e.latency,
                    e.to,
                    self.times[e.to],
                    self.ii,
                    e.distance
                ));
            }
        }
        let mut usage = vec![[0u32; 4]; self.ii as usize];
        for (n, &t) in ddg.nodes().iter().zip(&self.times) {
            let slot = (t % self.ii) as usize;
            let k = fu_index(n.class.fu_kind());
            usage[slot][k] += 1;
            if usage[slot][k] > machine.fu_count(n.class.fu_kind()) {
                return Err(format!(
                    "resource overflow: {} units of {} in modulo slot {}",
                    usage[slot][k],
                    n.class.fu_kind(),
                    slot
                ));
            }
        }
        Ok(())
    }

    /// Steady-state MaxLive: the most values simultaneously live in any
    /// cycle of the repeating kernel, counting the rotating copies that
    /// lifetimes spanning multiple IIs require.
    ///
    /// Each value is live over `[def, last]` in the flat schedule (`last` is
    /// its latest data consumer, `t(to) + ii * distance`); in steady state
    /// the copy from iteration `k` is shifted by `k * ii`, so a lifetime of
    /// `span` cycles holds `span / ii` registers in every phase plus one
    /// more in the `span % ii` consecutive phases from `def % ii`, wrapping
    /// past phase `ii - 1`. Those bands go into a wrapped difference array,
    /// so the whole estimate is O(nodes + edges + ii).
    pub fn register_estimate(&self, ddg: &Ddg) -> u32 {
        if self.times.is_empty() {
            return 0;
        }
        let ii = i64::from(self.ii);
        let phases = self.ii as usize;
        let mut base = 0i64;
        let mut diff = vec![0i64; phases + 1];
        for (i, &t) in self.times.iter().enumerate() {
            let def = i64::from(t);
            let mut last = def + 1;
            for e in ddg.succ_edges(i) {
                if e.kind == DepKind::Data {
                    last = last.max(i64::from(self.times[e.to]) + ii * i64::from(e.distance));
                }
            }
            let span = last - def + 1;
            base += span / ii;
            let rem = (span % ii) as usize;
            if rem > 0 {
                let start = (def % ii) as usize;
                let end = start + rem;
                diff[start] += 1;
                if end <= phases {
                    diff[end] -= 1;
                } else {
                    diff[phases] -= 1;
                    diff[0] += 1;
                    diff[end - phases] -= 1;
                }
            }
        }
        let (mut live, mut max_live) = (base, 0);
        for &d in &diff[..phases] {
            live += d;
            max_live = max_live.max(live);
        }
        max_live as u32
    }
}

fn fu_index(kind: FuKind) -> usize {
    match kind {
        FuKind::Alu => 0,
        FuKind::Scratchpad => 1,
        FuKind::Comm => 2,
        FuKind::SbPort => 3,
    }
}

/// Attempts a modulo schedule at exactly `ii`, with an operation budget
/// proportional to the graph size and priority heights memoized across
/// successive II attempts (see [`HeightsMemo`]). Returns `None` if the
/// budget is exhausted before a legal schedule is found.
pub(crate) fn schedule_at_ii_memo(
    ddg: &Ddg,
    machine: &Machine,
    ii: u32,
    memo: &mut HeightsMemo,
) -> Option<ModuloSchedule> {
    assert!(ii >= 1);
    let n = ddg.nodes().len();
    if n == 0 {
        return Some(ModuloSchedule {
            ii,
            times: Vec::new(),
        });
    }

    // One span + one flag read per II attempt; the placement loop below
    // stays atomic-free (backtracks accumulate in a plain local).
    let mut attempt_span = stream_trace::span("sched", "attempt");
    attempt_span.arg("ii", ii);
    attempt_span.arg("ops", n);
    stream_trace::count("sched.attempts", 1);
    let mut backtracks: u64 = 0;

    let heights = memo.get(ddg, ii);
    let kinds: Vec<usize> = ddg
        .nodes()
        .iter()
        .map(|node| fu_index(node.class.fu_kind()))
        .collect();
    let avail: [u32; 4] = [
        machine.fu_count(FuKind::Alu),
        machine.fu_count(FuKind::Scratchpad),
        machine.fu_count(FuKind::Comm),
        machine.fu_count(FuKind::SbPort),
    ];

    let mut time: Vec<Option<u32>> = vec![None; n];
    let mut prev_time: Vec<i64> = vec![-1; n];
    // The MRT keeps per-slot occupant lists (for victim identity, in
    // placement order) alongside plain counters; the hot free-slot probe
    // reads only the counters.
    let mut mrt: Vec<[Vec<usize>; 4]> = (0..ii as usize)
        .map(|_| [Vec::new(), Vec::new(), Vec::new(), Vec::new()])
        .collect();
    let mut occ: Vec<[u32; 4]> = vec![[0; 4]; ii as usize];
    let mut budget = (n * 24).max(256);
    // The ready list holds exactly the unscheduled ops, highest priority on
    // top: greater height first, then program order.
    let mut ready: BinaryHeap<(i64, Reverse<usize>)> =
        (0..n).map(|i| (heights[i], Reverse(i))).collect();

    while let Some((_, Reverse(u))) = ready.pop() {
        if budget == 0 {
            stream_trace::count("sched.backtracks", backtracks);
            stream_trace::count("sched.budget_exhausted", 1);
            attempt_span.arg("outcome", "budget_exhausted");
            return None;
        }
        budget -= 1;

        // Earliest start from scheduled predecessors.
        let mut estart: i64 = 0;
        for e in ddg.pred_edges(u) {
            if let Some(tp) = time[e.from] {
                let cand =
                    i64::from(tp) + i64::from(e.latency) - i64::from(ii) * i64::from(e.distance);
                estart = estart.max(cand);
            }
        }
        estart = estart.max(prev_time[u] + 1);
        let estart = estart.max(0) as u32;

        // Find a resource-free slot in [estart, estart + ii).
        let kind = kinds[u];
        let cap = avail[kind].max(1);
        let mut placed_at = None;
        for t in estart..estart + ii {
            if occ[(t % ii) as usize][kind] < cap {
                placed_at = Some(t);
                break;
            }
        }
        let t = placed_at.unwrap_or(estart);

        // Place u, evicting a resource conflict if the row is full.
        let slot = (t % ii) as usize;
        if occ[slot][kind] >= cap {
            // Evict the occupant scheduled longest ago (it will find a new
            // home); ties broken arbitrarily by position.
            let victim = mrt[slot][kind][0];
            if unschedule(victim, &mut time, &mut mrt, &mut occ, &kinds, ii) {
                ready.push((heights[victim], Reverse(victim)));
            }
            backtracks += 1;
        }
        time[u] = Some(t);
        prev_time[u] = i64::from(t);
        mrt[slot][kind].push(u);
        occ[slot][kind] += 1;

        // Evict scheduled successors whose dependence is now violated.
        let succ_violations: Vec<usize> = ddg
            .succ_edges(u)
            .filter_map(|e| {
                time[e.to].and_then(|ts| {
                    let lhs = i64::from(t) + i64::from(e.latency);
                    let rhs = i64::from(ts) + i64::from(ii) * i64::from(e.distance);
                    (lhs > rhs && e.to != u).then_some(e.to)
                })
            })
            .collect();
        for v in succ_violations {
            if unschedule(v, &mut time, &mut mrt, &mut occ, &kinds, ii) {
                ready.push((heights[v], Reverse(v)));
            }
            backtracks += 1;
        }
    }

    stream_trace::count("sched.backtracks", backtracks);

    let times: Vec<u32> = time
        .into_iter()
        .map(|t| t.expect("all scheduled"))
        .collect();
    let sched = ModuloSchedule { ii, times };
    let verdict = sched.verify(ddg, machine);
    debug_assert_eq!(verdict, Ok(()));
    attempt_span.arg("outcome", if verdict.is_ok() { "ok" } else { "invalid" });
    match verdict {
        Ok(()) => Some(sched),
        Err(_) => None,
    }
}

/// Removes `v` from the schedule: only its own FU kind's occupant row is
/// touched (order-preserving, so victim selection is unchanged), and the
/// occupancy counter is decremented. Returns whether `v` was scheduled, so
/// the caller can put it back on the ready list.
fn unschedule(
    v: usize,
    time: &mut [Option<u32>],
    mrt: &mut [[Vec<usize>; 4]],
    occ: &mut [[u32; 4]],
    kinds: &[usize],
    ii: u32,
) -> bool {
    let Some(t) = time[v].take() else {
        return false;
    };
    let slot = (t % ii) as usize;
    let kind = kinds[v];
    let row = &mut mrt[slot][kind];
    if let Some(pos) = row.iter().position(|&x| x == v) {
        row.remove(pos);
        occ[slot][kind] -= 1;
    }
    true
}

/// Schedules `ddg`: the scheduler's one II search, upward from the MII to
/// `2·MII + 32`, sharing priority heights across attempts. Returns the
/// first attempt's schedule that passes its self-check, and the bounds the
/// search started from.
pub fn modulo_schedule(ddg: &Ddg, machine: &Machine) -> Option<(ModuloSchedule, MiiBounds)> {
    let bounds = MiiBounds::compute(ddg, machine);
    let mii = bounds.mii();
    stream_trace::record("sched.res_mii", u64::from(bounds.res_mii));
    stream_trace::record("sched.rec_mii", u64::from(bounds.rec_mii));
    let mut memo = HeightsMemo::new(ddg);
    // A generous slack: IMS almost always succeeds within a few IIs of MII.
    for ii in mii..=mii.saturating_mul(2) + 32 {
        if let Some(s) = schedule_at_ii_memo(ddg, machine, ii, &mut memo) {
            return Some((s, bounds));
        }
    }
    None
}

/// Memoizes [`heights`] across successive II attempts.
///
/// Edge weights are `latency - ii * distance`, so when the DDG has no
/// loop-carried edge (`distance > 0`) the heights are II-independent and a
/// single computation serves the whole II search; otherwise the cache still
/// absorbs repeated attempts at the same II.
pub(crate) struct HeightsMemo {
    ii_invariant: bool,
    cached: Option<(u32, Vec<i64>)>,
}

impl HeightsMemo {
    pub(crate) fn new(ddg: &Ddg) -> Self {
        Self {
            ii_invariant: ddg.edges().iter().all(|e| e.distance == 0),
            cached: None,
        }
    }

    fn get(&mut self, ddg: &Ddg, ii: u32) -> &[i64] {
        let hit = match &self.cached {
            Some((cached_ii, _)) => self.ii_invariant || *cached_ii == ii,
            None => false,
        };
        if !hit {
            self.cached = Some((ii, heights(ddg, ii)));
        }
        &self.cached.as_ref().expect("just filled").1
    }
}

/// Priority heights: longest path to any sink under `ii`-adjusted weights.
fn heights(ddg: &Ddg, ii: u32) -> Vec<i64> {
    let n = ddg.nodes().len();
    let mut h = vec![0i64; n];
    // Iterate to fixpoint; bounded because a feasible ii admits no positive
    // cycle (and we cap rounds regardless).
    for _ in 0..n {
        let mut changed = false;
        for e in ddg.edges() {
            let w = i64::from(e.latency) - i64::from(ii) * i64::from(e.distance);
            let cand = h[e.to] + w;
            if cand > h[e.from] {
                h[e.from] = cand;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use stream_ir::{Kernel, KernelBuilder, Scalar, Ty};
    use stream_vlsi::Shape;

    fn schedule(k: &Kernel, m: &Machine) -> (ModuloSchedule, MiiBounds, Ddg) {
        let ddg = Ddg::build(k, m);
        let (s, b) = modulo_schedule(&ddg, m).expect("schedulable");
        (s, b, ddg)
    }

    fn alu_chain(n_ops: usize, independent: bool) -> Kernel {
        let mut b = KernelBuilder::new("alu");
        let s = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::F32);
        let x = b.read(s);
        let mut acc = x;
        for _ in 0..n_ops {
            acc = if independent {
                b.add(x, x)
            } else {
                b.add(acc, acc)
            };
        }
        b.write(out, acc);
        b.finish().unwrap()
    }

    #[test]
    fn independent_ops_reach_res_mii() {
        let k = alu_chain(20, true);
        let m = Machine::baseline();
        let (s, b, ddg) = schedule(&k, &m);
        assert_eq!(b.res_mii, 4); // 20 adds over 5 ALUs
        assert_eq!(s.ii, 4);
        assert_eq!(s.verify(&ddg, &m), Ok(()));
    }

    #[test]
    fn dependent_chain_still_pipelines_to_mii() {
        // A serial chain within the iteration has no loop-carried cycle, so
        // modulo scheduling overlaps iterations and reaches ResMII.
        let k = alu_chain(10, false);
        let m = Machine::baseline();
        let (s, b, ddg) = schedule(&k, &m);
        assert_eq!(b.res_mii, 2);
        assert_eq!(s.ii, 2);
        // But the schedule is deep: ~10 chained 4-cycle adds.
        assert!(s.length(&ddg) >= 40);
        assert!(s.stages() > 5);
    }

    #[test]
    fn accumulator_forces_rec_mii() {
        let mut b = KernelBuilder::new("acc");
        let s = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::F32);
        let acc = b.recurrence(Scalar::F32(0.0));
        let x = b.read(s);
        let sum = b.add(acc, x);
        b.bind_next(acc, sum);
        b.write(out, sum);
        let k = b.finish().unwrap();
        let m = Machine::baseline();
        let (s, bounds, ddg) = schedule(&k, &m);
        assert_eq!(bounds.rec_mii, 4);
        assert_eq!(s.ii, 4);
        assert_eq!(s.verify(&ddg, &m), Ok(()));
    }

    #[test]
    fn sb_port_pressure_binds_wide_records() {
        // 16 reads of one stream: the single SB port serializes them.
        let mut b = KernelBuilder::new("wide");
        let s = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::F32);
        let mut acc = b.read(s);
        for _ in 0..15 {
            let x = b.read(s);
            acc = b.add(acc, x);
        }
        b.write(out, acc);
        let k = b.finish().unwrap();
        let m = Machine::baseline();
        let (s, bounds, _) = schedule(&k, &m);
        // 16 pops in order with a distance-1 wrap edge -> RecMII >= 16.
        assert!(bounds.rec_mii >= 16);
        assert!(s.ii >= 16);
    }

    #[test]
    fn more_alus_reduce_ii() {
        let k = alu_chain(40, true);
        let m5 = Machine::paper(Shape::new(8, 5));
        let m10 = Machine::paper(Shape::new(8, 10));
        let ii5 = schedule(&k, &m5).0.ii;
        let ii10 = schedule(&k, &m10).0.ii;
        assert_eq!(ii5, 8);
        assert_eq!(ii10, 4);
    }

    #[test]
    fn register_estimate_grows_with_overlap() {
        let k = alu_chain(10, false);
        let m = Machine::baseline();
        let (s, _, ddg) = schedule(&k, &m);
        let regs = s.register_estimate(&ddg);
        // Deep pipeline, II 2 -> many live copies.
        assert!(regs > 10, "regs = {regs}");
    }

    /// Node 0 defines a value that node 1 consumes `distance` iterations
    /// later; both are 1-cycle ops.
    fn def_use(distance: u32) -> Ddg {
        let node = stream_verify::SchedNode {
            class: stream_machine::OpClass::FloatAdd,
            latency: 1,
        };
        let edge = stream_verify::DepEdge {
            from: 0,
            to: 1,
            latency: 1,
            distance,
            kind: DepKind::Data,
        };
        let graph = stream_verify::DepGraph {
            nodes: vec![node; 2],
            edges: vec![edge],
        };
        Ddg::from_parts(vec![stream_ir::ValueId(0), stream_ir::ValueId(1)], graph)
    }

    /// MaxLive by enumeration: every cycle of every lifetime, folded onto
    /// its phase.
    fn brute_max_live(ddg: &Ddg, s: &ModuloSchedule) -> u32 {
        let ii = u64::from(s.ii);
        let mut live = vec![0u32; s.ii as usize];
        for (i, &t) in s.times.iter().enumerate() {
            let def = u64::from(t);
            let last = ddg
                .succ_edges(i)
                .filter(|e| e.kind == DepKind::Data)
                .map(|e| u64::from(s.times[e.to]) + ii * u64::from(e.distance))
                .fold(def + 1, u64::max);
            for cycle in def..=last {
                live[(cycle % ii) as usize] += 1;
            }
        }
        live.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn register_estimate_wraps_past_the_last_phase() {
        // Node 0 lives over cycles 2..=8 (its consumer runs at 4 one
        // iteration later): 7 cycles at II 4 is one copy in every phase
        // plus a band over phases 2, 3, 0. Node 1 lives over 4..=5.
        let ddg = def_use(1);
        let s = ModuloSchedule {
            ii: 4,
            times: vec![2, 4],
        };
        assert_eq!(s.register_estimate(&ddg), 3);
        assert_eq!(s.register_estimate(&ddg), brute_max_live(&ddg, &s));
    }

    #[test]
    fn register_estimate_counts_whole_ii_spans_in_every_phase() {
        // Node 0 lives over 0..=5, exactly two IIs of 3: two copies in
        // every phase; node 1 (5..=6) adds one in phases 2 and 0.
        let ddg = def_use(0);
        let s = ModuloSchedule {
            ii: 3,
            times: vec![0, 5],
        };
        assert_eq!(s.register_estimate(&ddg), 3);
        assert_eq!(s.register_estimate(&ddg), brute_max_live(&ddg, &s));
    }

    #[test]
    fn register_estimate_at_ii_one_sums_lifetimes() {
        // With one phase every live cycle is a register: 4 + 2.
        let ddg = def_use(0);
        let s = ModuloSchedule {
            ii: 1,
            times: vec![0, 3],
        };
        assert_eq!(s.register_estimate(&ddg), 6);
        assert_eq!(s.register_estimate(&ddg), brute_max_live(&ddg, &s));
    }

    #[test]
    fn empty_kernel_schedules_trivially() {
        let mut b = KernelBuilder::new("nop");
        let _s = b.in_stream(Ty::I32);
        let k = b.finish().unwrap();
        let m = Machine::baseline();
        let ddg = Ddg::build(&k, &m);
        let (s, _) = modulo_schedule(&ddg, &m).unwrap();
        assert_eq!(s.times.len(), 0);
        assert_eq!(s.stages(), 1);
    }

    #[test]
    fn verify_rejects_bogus_schedule() {
        let k = alu_chain(4, false);
        let m = Machine::baseline();
        let ddg = Ddg::build(&k, &m);
        let bogus = ModuloSchedule {
            ii: 1,
            times: vec![0; ddg.nodes().len()],
        };
        assert!(bogus.verify(&ddg, &m).is_err());
    }
}
