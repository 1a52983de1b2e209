//! Independent verification of modulo schedules.
//!
//! Given a dependence graph, an initiation interval, per-node start times,
//! and the machine, [`verify_schedule`] re-derives — with its own code
//! paths, not the scheduler's — per-modulo-slot resource usage, dependence
//! slack, the ResMII/RecMII lower bounds, and steady-state register
//! pressure, and reports every violation with a stable code.

use crate::{Code, LatencyTable, Report};
use stream_machine::{FuKind, Machine, OpClass};

/// Whether an edge carries a value or only orders two operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// True data dependence; the value occupies a register until its last
    /// consumer reads it.
    Data,
    /// Ordering constraint only (stream pop order, scratchpad order).
    Order,
}

/// One scheduled operation, as the verifier sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedNode {
    /// The operation's scheduling class.
    pub class: OpClass,
    /// The latency the scheduler believed this operation has.
    pub latency: u32,
}

/// One dependence: `to` may start no earlier than
/// `t(from) + latency - II * distance`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Source node index.
    pub from: usize,
    /// Destination node index.
    pub to: usize,
    /// Minimum separation in cycles.
    pub latency: u32,
    /// Iteration distance (0 = same iteration).
    pub distance: u32,
    /// Data or ordering edge.
    pub kind: DepKind,
}

/// The dependence graph a schedule is checked against. This crate owns the
/// vocabulary: the scheduler builds its graph in these types and lends it
/// to the verifier, which still depends on nothing in the scheduler.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepGraph {
    /// Schedulable operations.
    pub nodes: Vec<SchedNode>,
    /// Dependences between them.
    pub edges: Vec<DepEdge>,
}

/// The verifier's own class-to-functional-unit mapping, mirroring the
/// cluster organization of Figure 3 rather than calling
/// [`OpClass::fu_kind`].
fn required_unit(class: OpClass) -> FuKind {
    match class {
        OpClass::IntAlu
        | OpClass::Logic
        | OpClass::IntMul
        | OpClass::FloatAdd
        | OpClass::FloatMul
        | OpClass::FloatDiv
        | OpClass::Select => FuKind::Alu,
        OpClass::SpRead | OpClass::SpWrite => FuKind::Scratchpad,
        OpClass::Comm | OpClass::CondStream => FuKind::Comm,
        OpClass::SbRead | OpClass::SbWrite => FuKind::SbPort,
    }
}

fn unit_index(kind: FuKind) -> usize {
    match kind {
        FuKind::Alu => 0,
        FuKind::Scratchpad => 1,
        FuKind::Comm => 2,
        FuKind::SbPort => 3,
    }
}

/// Resource-constrained MII, recomputed from scratch: for each
/// functional-unit kind, `ceil(demand / available)`.
pub fn res_mii(graph: &DepGraph, machine: &Machine) -> u32 {
    let mut demand = [0u32; 4];
    for n in &graph.nodes {
        demand[unit_index(required_unit(n.class))] += 1;
    }
    FuKind::ALL
        .iter()
        .map(|&k| demand[unit_index(k)].div_ceil(machine.fu_count(k).max(1)))
        .max()
        .unwrap_or(1)
        .max(1)
}

/// Recurrence-constrained MII, recomputed from scratch: the smallest `ii`
/// such that every dependence cycle satisfies
/// `sum(latency) <= ii * sum(distance)` (binary search over a
/// positive-cycle feasibility check).
///
/// The search runs over `[1, max(Σlatency, 1)]`, where `Σlatency` sums
/// every edge's latency. When no `ii` in that range is feasible — a
/// positive cycle of zero total distance — the result is the cap
/// `max(Σlatency, 1)` itself.
pub fn rec_mii(graph: &DepGraph) -> u32 {
    let (mut lo, mut hi) = (1u64, rec_mii_cap(graph));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if ii_feasible(graph, mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo as u32
}

/// The upper end of [`rec_mii`]'s search, `max(Σlatency, 1)`.
fn rec_mii_cap(graph: &DepGraph) -> u64 {
    graph
        .edges
        .iter()
        .map(|e| u64::from(e.latency))
        .sum::<u64>()
        .max(1)
}

/// True when no dependence cycle has positive weight under
/// `latency - ii * distance` edge weights (longest-path relaxation; a
/// positive cycle keeps relaxing past `n` rounds).
fn ii_feasible(graph: &DepGraph, ii: u64) -> bool {
    let n = graph.nodes.len();
    let mut dist = vec![0i64; n];
    for _ in 0..n {
        let mut changed = false;
        for e in &graph.edges {
            let w = i64::from(e.latency) - (ii as i64) * i64::from(e.distance);
            if dist[e.from] + w > dist[e.to] {
                dist[e.to] = dist[e.from] + w;
                changed = true;
            }
        }
        if !changed {
            return true;
        }
    }
    false
}

/// Steady-state MaxLive, recomputed from scratch: each value is live from
/// its definition to its last data consumer (`t(to) + ii * distance`); in
/// steady state the copy from iteration `k` is shifted by `k * ii`, so a
/// lifetime of `s` cycles contributes `floor(s/ii)` registers to every
/// phase plus one more to `s mod ii` consecutive phases.
pub fn max_live(graph: &DepGraph, ii: u32, times: &[u32]) -> u32 {
    if ii == 0 || times.len() != graph.nodes.len() || times.is_empty() {
        return 0;
    }
    let ii_ = i64::from(ii);
    // Each value's last data use, found in one pass over the edges.
    let mut last: Vec<i64> = times.iter().map(|&t| i64::from(t) + 1).collect();
    for e in &graph.edges {
        if let (DepKind::Data, Some(end)) = (e.kind, last.get_mut(e.from)) {
            *end = (*end).max(i64::from(times[e.to]) + ii_ * i64::from(e.distance));
        }
    }
    // live[p] accumulated via a wrapped difference array for the +1 bands.
    let mut base = 0i64;
    let mut diff = vec![0i64; ii as usize + 1];
    for (&t, &last) in times.iter().zip(&last) {
        let def = i64::from(t);
        let span = last - def + 1; // live cycles, inclusive of def and last
        base += span / ii_;
        let rem = (span % ii_) as usize;
        if rem > 0 {
            let start = (def % ii_) as usize;
            let end = start + rem;
            if end <= ii as usize {
                diff[start] += 1;
                diff[end] -= 1;
            } else {
                diff[start] += 1;
                diff[ii as usize] -= 1;
                diff[0] += 1;
                diff[end - ii as usize] -= 1;
            }
        }
    }
    let mut best = 0i64;
    let mut running = 0i64;
    for &d in diff.iter().take(ii as usize) {
        running += d;
        best = best.max(base + running);
    }
    best as u32
}

/// Verifies `times`/`ii` against `graph` on `machine` with the default
/// latency table. See [`verify_schedule_with_table`].
pub fn verify_schedule(graph: &DepGraph, ii: u32, times: &[u32], machine: &Machine) -> Report {
    verify_schedule_with_table(graph, ii, times, machine, &LatencyTable::default())
}

/// Verifies a modulo schedule, reporting every violation:
///
/// * **E105** — zero initiation interval,
/// * **E104** — shape mismatches (times length, edge endpoints),
/// * **E008 / E106** — classes missing from `table`, or node/data-edge
///   latencies disagreeing with the independently derived machine latency,
/// * **E101** — modulo-slot functional-unit oversubscription,
/// * **E102** — violated dependence edges,
/// * **E103** — `ii` below the recomputed `max(ResMII, RecMII)`,
/// * **W101** — steady-state MaxLive above the LRF register capacity.
pub fn verify_schedule_with_table(
    graph: &DepGraph,
    ii: u32,
    times: &[u32],
    machine: &Machine,
    table: &LatencyTable,
) -> Report {
    let mut report = Report::new();
    if ii == 0 {
        report.push(Code::ZeroIi, "initiation interval is zero");
        return report;
    }
    if times.len() != graph.nodes.len() {
        report.push(
            Code::ShapeMismatch,
            format!(
                "schedule has {} start times for {} nodes",
                times.len(),
                graph.nodes.len()
            ),
        );
        return report;
    }
    for (i, e) in graph.edges.iter().enumerate() {
        if e.from >= graph.nodes.len() || e.to >= graph.nodes.len() {
            report.push(
                Code::ShapeMismatch,
                format!("edge {i} ({} -> {}) leaves the node range", e.from, e.to),
            );
            return report;
        }
    }

    // Latency cross-check against the verifier's own table.
    for (i, n) in graph.nodes.iter().enumerate() {
        match table.expected(n.class, machine) {
            None => report.push(
                Code::MissingLatency,
                format!("node {i}: class {} has no latency-table entry", n.class),
            ),
            Some(expected) if expected != n.latency => report.push(
                Code::LatencyDrift,
                format!(
                    "node {i}: class {} scheduled with latency {}, table derives {}",
                    n.class, n.latency, expected
                ),
            ),
            Some(_) => {}
        }
    }
    for (i, e) in graph.edges.iter().enumerate() {
        if e.kind == DepKind::Data && e.latency != graph.nodes[e.from].latency {
            report.push(
                Code::LatencyDrift,
                format!(
                    "data edge {i} ({} -> {}) carries latency {}, its producer has {}",
                    e.from, e.to, e.latency, graph.nodes[e.from].latency
                ),
            );
        }
    }

    // Per-modulo-slot resource usage, re-derived from scratch.
    let mut usage = vec![[0u32; 4]; ii as usize];
    for (i, n) in graph.nodes.iter().enumerate() {
        let slot = (times[i] % ii) as usize;
        usage[slot][unit_index(required_unit(n.class))] += 1;
    }
    for (slot, row) in usage.iter().enumerate() {
        for &kind in &FuKind::ALL {
            let used = row[unit_index(kind)];
            let cap = machine.fu_count(kind);
            if used > cap {
                report.push(
                    Code::SlotOversubscribed,
                    format!("modulo slot {slot} issues {used} {kind} ops, machine has {cap}"),
                );
            }
        }
    }

    // Every dependence edge: t(to) + ii*distance >= t(from) + latency.
    for (i, e) in graph.edges.iter().enumerate() {
        let produced = i64::from(times[e.from]) + i64::from(e.latency);
        let needed = i64::from(times[e.to]) + i64::from(ii) * i64::from(e.distance);
        if produced > needed {
            report.push(
                Code::DependenceViolated,
                format!(
                    "edge {i}: t({}) + {} = {} > t({}) + {}*{} = {}",
                    e.from, e.latency, produced, e.to, ii, e.distance, needed
                ),
            );
        }
    }

    // The II must respect both independently recomputed lower bounds.
    // `ii < rec_mii` is decided by one feasibility probe at `ii` itself.
    // `rec_mii` never exceeds its cap, so at or above the cap the answer is
    // no; below it, feasibility is monotone in `ii`, so `ii` is below
    // RecMII exactly when it is infeasible. The search runs only to word a
    // diagnostic that fires.
    let res = res_mii(graph, machine);
    let below_rec = u64::from(ii) < rec_mii_cap(graph) && !ii_feasible(graph, u64::from(ii));
    if ii < res || below_rec {
        let rec = rec_mii(graph);
        let mii = res.max(rec).max(1);
        report.push(
            Code::IiBelowMii,
            format!("II {ii} below max(ResMII {res}, RecMII {rec}) = {mii}"),
        );
    }

    // LRF pressure: legal but worth flagging.
    let live = max_live(graph, ii, times);
    let cap = machine.register_capacity();
    if live > cap {
        report.push(
            Code::RegisterPressure,
            format!("steady-state MaxLive {live} exceeds LRF capacity {cap}"),
        );
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn machine() -> Machine {
        Machine::baseline()
    }

    fn alu_node(m: &Machine) -> SchedNode {
        SchedNode {
            class: OpClass::IntAlu,
            latency: m.latency(OpClass::IntAlu),
        }
    }

    #[test]
    fn empty_graph_is_clean() {
        let g = DepGraph::default();
        let r = verify_schedule(&g, 1, &[], &machine());
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn legal_chain_is_clean() {
        let m = machine();
        let n = alu_node(&m);
        let g = DepGraph {
            nodes: vec![n, n],
            edges: vec![DepEdge {
                from: 0,
                to: 1,
                latency: n.latency,
                distance: 0,
                kind: DepKind::Data,
            }],
        };
        let r = verify_schedule(&g, 1, &[0, 2], &m);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn res_mii_counts_per_kind() {
        let m = machine();
        let g = DepGraph {
            nodes: vec![alu_node(&m); 11],
            edges: vec![],
        };
        assert_eq!(res_mii(&g, &m), 3); // ceil(11 / 5 ALUs)
    }

    #[test]
    fn rec_mii_finds_cycle_bound() {
        let m = machine();
        let n = alu_node(&m);
        let g = DepGraph {
            nodes: vec![n, n],
            edges: vec![
                DepEdge {
                    from: 0,
                    to: 1,
                    latency: 2,
                    distance: 0,
                    kind: DepKind::Data,
                },
                DepEdge {
                    from: 1,
                    to: 0,
                    latency: 2,
                    distance: 1,
                    kind: DepKind::Data,
                },
            ],
        };
        // 4 cycles of latency per 1 iteration of distance.
        assert_eq!(rec_mii(&g), 4);
    }

    #[test]
    fn max_live_counts_rotating_copies() {
        let m = machine();
        let n = alu_node(&m);
        // One value consumed 7 cycles after definition at II 2: lifetime 8
        // cycles inclusive -> 4 copies live in every phase.
        let g = DepGraph {
            nodes: vec![n, n],
            edges: vec![DepEdge {
                from: 0,
                to: 1,
                latency: 2,
                distance: 0,
                kind: DepKind::Data,
            }],
        };
        let live = max_live(&g, 2, &[0, 7]);
        // v0 spans [0,7] (4 copies per phase), v1 spans [7,8] (1 copy).
        assert_eq!(live, 5);
    }

    #[test]
    fn order_edges_do_not_hold_registers() {
        let m = machine();
        let n = alu_node(&m);
        let g = DepGraph {
            nodes: vec![n, n],
            edges: vec![DepEdge {
                from: 0,
                to: 1,
                latency: 1,
                distance: 0,
                kind: DepKind::Order,
            }],
        };
        // Both values live only their minimal 2 cycles.
        assert_eq!(max_live(&g, 4, &[0, 1]), 2);
    }

    #[test]
    fn zero_distance_positive_cycle_at_the_cap_is_e102_not_e103() {
        let m = machine();
        let n = alu_node(&m);
        let lat = n.latency;
        // 0 -> 1 -> 0 within one iteration: no II satisfies it, so RecMII
        // is the search cap, the sum of the edge latencies.
        let edge = |from, to| DepEdge {
            from,
            to,
            latency: lat,
            distance: 0,
            kind: DepKind::Data,
        };
        let g = DepGraph {
            nodes: vec![n, n],
            edges: vec![edge(0, 1), edge(1, 0)],
        };
        let cap = 2 * lat;
        assert_eq!(rec_mii(&g), cap);
        for ii in [cap, cap + 1] {
            let r = verify_schedule(&g, ii, &[0, lat], &m);
            assert!(r.has(Code::DependenceViolated), "{r}");
            assert!(!r.has(Code::IiBelowMii), "{r}");
        }
        let r = verify_schedule(&g, cap - 1, &[0, lat], &m);
        assert!(r.has(Code::IiBelowMii), "{r}");
    }

    /// A dependence graph decoded from a byte script: the first byte picks
    /// 1–12 nodes, one byte per node its class, then every four bytes one
    /// edge — endpoints, latency 0–6, distance 0–3 (zero-distance cycles
    /// included) and, from the top bit, Data or Order.
    fn graph_from_script(script: &[u8]) -> DepGraph {
        const CLASSES: [OpClass; 4] = [
            OpClass::IntAlu,
            OpClass::SpRead,
            OpClass::Comm,
            OpClass::SbRead,
        ];
        let n = usize::from(script[0] % 12) + 1;
        let rest = &script[1..];
        let (classes, edges) = rest.split_at(n.min(rest.len()));
        let nodes = (0..n)
            .map(|i| SchedNode {
                class: CLASSES[usize::from(classes.get(i).copied().unwrap_or(0)) % 4],
                latency: 1,
            })
            .collect();
        let edges = edges
            .chunks_exact(4)
            .map(|c| DepEdge {
                from: usize::from(c[0]) % n,
                to: usize::from(c[1]) % n,
                latency: u32::from(c[2] % 7),
                distance: u32::from(c[3] % 4),
                kind: if c[3] & 0x80 == 0 {
                    DepKind::Data
                } else {
                    DepKind::Order
                },
            })
            .collect();
        DepGraph { nodes, edges }
    }

    /// MaxLive by its definition: value `i` is live on cycles
    /// `[t_i, last_i]` of every iteration, `last_i` being its last data use
    /// (at least `t_i + 1`); iteration `k` shifts that band by `k * ii`, so
    /// phase `p` holds one copy per band cycle congruent to `p` mod `ii`.
    fn max_live_by_definition(graph: &DepGraph, ii: u32, times: &[u32]) -> u32 {
        let mut live = vec![0u32; ii as usize];
        for (i, &t) in times.iter().enumerate() {
            let last = graph
                .edges
                .iter()
                .filter(|e| e.from == i && e.kind == DepKind::Data)
                .map(|e| times[e.to] + ii * e.distance)
                .fold(t + 1, u32::max);
            for cycle in t..=last {
                live[(cycle % ii) as usize] += 1;
            }
        }
        live.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn max_live_matches_its_definition_on_the_corners() {
        let m = machine();
        let n = alu_node(&m);
        let edge = |to, distance, kind| DepEdge {
            from: 0,
            to,
            latency: n.latency,
            distance,
            kind,
        };
        let g = DepGraph {
            nodes: vec![n; 3],
            edges: vec![
                edge(1, 0, DepKind::Data),
                edge(2, 1, DepKind::Data),
                edge(2, 3, DepKind::Order),
            ],
        };
        let times = [3, 5, 6];
        // II 1 sums the lifetimes: v0 spans [3, 6 + 1] (5 cycles), v1 and
        // v2 two cycles each; the Order edge's distance 3 holds nothing.
        assert_eq!(max_live(&g, 1, &times), 9);
        // II 3: v0 spans [3, 9], seven cycles, longer than the II; v1's
        // band [5, 6] wraps from phase 2 to phase 0, where v0 and v2 meet.
        assert_eq!(max_live(&g, 3, &times), 5);
        for ii in 1..=8 {
            assert_eq!(
                max_live(&g, ii, &times),
                max_live_by_definition(&g, ii, &times),
                "ii {ii}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn e103_fires_exactly_below_the_recomputed_mii(
            script in vec(any::<u8>(), 1..80),
            times in vec(0u32..64, 12..13),
        ) {
            let m = machine();
            let g = graph_from_script(&script);
            let times = &times[..g.nodes.len()];
            let mii = res_mii(&g, &m).max(rec_mii(&g)).max(1);
            let sum: u32 = g.edges.iter().map(|e| e.latency).sum();
            for ii in 1..=sum + 2 {
                let report = verify_schedule(&g, ii, times, &m);
                prop_assert_eq!(
                    report.has(Code::IiBelowMii),
                    ii < mii,
                    "ii {} mii {} in {:?}",
                    ii,
                    mii,
                    g
                );
            }
        }

        #[test]
        fn max_live_matches_its_definition(
            script in vec(any::<u8>(), 1..80),
            times in vec(0u32..48, 12..13),
        ) {
            let g = graph_from_script(&script);
            let times = &times[..g.nodes.len()];
            for ii in 1..=16 {
                prop_assert_eq!(
                    max_live(&g, ii, times),
                    max_live_by_definition(&g, ii, times),
                    "ii {} times {:?} in {:?}",
                    ii,
                    times,
                    g
                );
            }
        }
    }
}
