//! Minimum initiation interval bounds: resource-constrained (ResMII) and
//! recurrence-constrained (RecMII).

use crate::Ddg;
use stream_machine::{FuKind, Machine};

/// The two lower bounds on a modulo schedule's initiation interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiiBounds {
    /// Resource bound: the most oversubscribed functional-unit kind.
    pub res_mii: u32,
    /// Recurrence bound: the tightest latency/distance cycle.
    pub rec_mii: u32,
}

impl MiiBounds {
    /// Computes both bounds for `ddg` on `machine`.
    pub fn compute(ddg: &Ddg, machine: &Machine) -> Self {
        let _span = stream_trace::span("sched", "mii");
        Self {
            res_mii: res_mii(ddg, machine),
            rec_mii: rec_mii(ddg),
        }
    }

    /// The minimum initiation interval, `max(ResMII, RecMII)`, at least 1.
    pub fn mii(&self) -> u32 {
        self.res_mii.max(self.rec_mii).max(1)
    }
}

/// Resource-constrained MII: for each functional-unit kind,
/// `ceil(demand / available)`.
pub fn res_mii(ddg: &Ddg, machine: &Machine) -> u32 {
    ddg.fu_demand()
        .into_iter()
        .map(|(kind, demand)| {
            let avail = machine.fu_count(kind).max(1);
            demand.div_ceil(avail)
        })
        .max()
        .unwrap_or(1)
        .max(1)
}

/// Resource-constrained MII restricted to one functional-unit kind (useful
/// for reporting which resource binds).
pub fn res_mii_for(ddg: &Ddg, machine: &Machine, kind: FuKind) -> u32 {
    let demand = ddg.fu_demand().get(&kind).copied().unwrap_or(0);
    demand.div_ceil(machine.fu_count(kind).max(1))
}

/// Recurrence-constrained MII: the smallest `ii` such that no dependence
/// cycle has positive slack deficit, i.e. for every cycle,
/// `sum(latency) <= ii * sum(distance)`.
///
/// Every cycle lies inside one strongly connected component, so the graph
/// is split into SCCs (iterative Tarjan) and only components with an
/// internal edge are checked: a longest-path feasibility test (Bellman-Ford
/// over edge weights `latency - ii * distance`; a positive cycle means `ii`
/// is infeasible) binary-searches each component's smallest feasible `ii`
/// above the running maximum. The search range is capped at the sum of all
/// latencies, which is what a component with a positive zero-distance
/// cycle (infeasible at every `ii`) reports — the same value as a
/// whole-graph search, which `stream-verify` keeps as the oracle.
pub fn rec_mii(ddg: &Ddg) -> u32 {
    let total: u64 = ddg.edges().iter().map(|e| u64::from(e.latency)).sum();
    if total == 0 {
        return 1;
    }
    let mut best = 1u64;
    for comp in cyclic_components(ddg) {
        if comp.feasible(best) {
            continue;
        }
        // Any cycle with distance >= 1 is feasible at its own latency sum.
        let hi = comp.latency_sum();
        if !comp.feasible(hi) {
            return total as u32;
        }
        let (mut lo, mut hi) = (best + 1, hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if comp.feasible(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        best = lo;
    }
    best as u32
}

/// One strongly connected component that contains a cycle, as its internal
/// edges over component-local node numbers.
struct Component {
    nodes: usize,
    /// `(from, to, latency, distance)`.
    edges: Vec<(usize, usize, i64, i64)>,
}

impl Component {
    fn latency_sum(&self) -> u64 {
        self.edges.iter().map(|e| e.2 as u64).sum()
    }

    /// True if no cycle exceeds `ii`-paced slack: longest-path Bellman-Ford
    /// from a virtual source at distance 0 to every node; still relaxing
    /// after `nodes` rounds means a positive cycle.
    fn feasible(&self, ii: u64) -> bool {
        let ii = ii as i64;
        let mut dist = vec![0i64; self.nodes];
        for _round in 0..self.nodes {
            let mut changed = false;
            for &(from, to, latency, distance) in &self.edges {
                let cand = dist[from] + latency - ii * distance;
                if cand > dist[to] {
                    dist[to] = cand;
                    changed = true;
                }
            }
            if !changed {
                return true;
            }
        }
        false
    }
}

/// The SCCs of `ddg` that have at least one internal edge (a self-loop or a
/// cycle), found with an iterative Tarjan pass.
fn cyclic_components(ddg: &Ddg) -> Vec<Component> {
    const UNSEEN: usize = usize::MAX;
    let n = ddg.nodes().len();
    let succs: Vec<Vec<usize>> = (0..n)
        .map(|v| ddg.succ_edges(v).map(|e| e.to).collect())
        .collect();
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    // Component id and component-local number of each node.
    let mut comp = vec![0usize; n];
    let mut local = vec![0usize; n];
    let mut sizes: Vec<usize> = Vec::new();
    let mut next = 0usize;
    // Explicit DFS stack of (node, next successor position).
    let mut call: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        index[root] = next;
        low[root] = next;
        next += 1;
        stack.push(root);
        on_stack[root] = true;
        call.push((root, 0));
        while let Some((v, pos)) = call.last_mut() {
            let v = *v;
            if let Some(&w) = succs[v].get(*pos) {
                *pos += 1;
                if index[w] == UNSEEN {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            call.pop();
            if let Some(&(parent, _)) = call.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let id = sizes.len();
                let mut size = 0;
                loop {
                    let w = stack.pop().expect("v is on the stack");
                    on_stack[w] = false;
                    comp[w] = id;
                    local[w] = size;
                    size += 1;
                    if w == v {
                        break;
                    }
                }
                sizes.push(size);
            }
        }
    }
    let mut comps: Vec<Component> = sizes
        .into_iter()
        .map(|nodes| Component {
            nodes,
            edges: Vec::new(),
        })
        .collect();
    for e in ddg.edges() {
        if comp[e.from] == comp[e.to] {
            comps[comp[e.from]].edges.push((
                local[e.from],
                local[e.to],
                i64::from(e.latency),
                i64::from(e.distance),
            ));
        }
    }
    comps.retain(|c| !c.edges.is_empty());
    comps
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use stream_ir::{KernelBuilder, Scalar, Ty};
    use stream_machine::Machine;
    use stream_vlsi::Shape;

    fn ddg_for(k: &stream_ir::Kernel, m: &Machine) -> Ddg {
        Ddg::build(k, m)
    }

    fn alu_heavy(n_ops: usize) -> stream_ir::Kernel {
        // n_ops independent float adds per element.
        let mut b = KernelBuilder::new("alu");
        let s = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::F32);
        let x = b.read(s);
        let mut acc = x;
        for _ in 0..n_ops {
            acc = b.add(acc, x);
        }
        b.write(out, acc);
        b.finish().unwrap()
    }

    #[test]
    fn res_mii_scales_inversely_with_alus() {
        let k = alu_heavy(20);
        let m5 = Machine::paper(Shape::new(8, 5));
        let m10 = Machine::paper(Shape::new(8, 10));
        let r5 = res_mii(&ddg_for(&k, &m5), &m5);
        let r10 = res_mii(&ddg_for(&k, &m10), &m10);
        assert_eq!(r5, 4); // ceil(20/5)
        assert_eq!(r10, 2); // ceil(20/10)
    }

    #[test]
    fn rec_mii_of_dag_is_one() {
        // alu_heavy is a chain within one iteration but carries nothing
        // across iterations except the stream-order self-chains (1 access
        // per stream -> self edge latency 1 distance 1 -> RecMII 1).
        let k = alu_heavy(4);
        let m = Machine::baseline();
        assert_eq!(rec_mii(&ddg_for(&k, &m)), 1);
    }

    #[test]
    fn accumulator_sets_rec_mii_to_its_latency() {
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
        // fadd latency 4 at distance 1.
        assert_eq!(rec_mii(&ddg_for(&k, &m)), 4);
    }

    #[test]
    fn two_iteration_distance_halves_rec_mii() {
        // Two interleaved accumulators via distance-2 recurrence: a
        // recurrence chained through another recurrence.
        let mut b = KernelBuilder::new("acc2");
        let s = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::F32);
        let r1 = b.recurrence(Scalar::F32(0.0));
        let r2 = b.recurrence(Scalar::F32(0.0));
        let x = b.read(s);
        let sum = b.add(r2, x); // uses the value from two iterations ago
        b.bind_next(r1, sum);
        b.bind_next(r2, r1);
        b.write(out, sum);
        let k = b.finish().unwrap();
        let m = Machine::baseline();
        // latency 4 over distance 2 -> RecMII = 2.
        assert_eq!(rec_mii(&ddg_for(&k, &m)), 2);
    }

    /// The verifier's whole-graph search, the oracle for [`rec_mii`].
    fn oracle(ddg: &Ddg) -> u32 {
        stream_verify::rec_mii(ddg.graph())
    }

    /// A random graph from a byte script: forward distance-0 edges (the
    /// acyclic part), loop-carried back edges that close rings into SCCs,
    /// self-loops, and now and then a distance-0 back edge, which can make
    /// a cycle no `ii` satisfies. Nodes take every operation class in
    /// turn; an edge's latency byte's top bit makes it an Order edge
    /// instead of a Data edge.
    pub(crate) fn random_ddg(script: &[u8]) -> Ddg {
        use stream_machine::OpClass;
        let n = 1 + usize::from(script[0] % 24);
        let nodes = (0..n)
            .map(|i| stream_verify::SchedNode {
                class: OpClass::ALL[i % OpClass::ALL.len()],
                latency: 1,
            })
            .collect();
        let edges = script[1..]
            .chunks_exact(4)
            .map(|c| {
                let (a, b) = (usize::from(c[0]) % n, usize::from(c[1]) % n);
                let latency = u32::from(c[2] % 9);
                let far = 1 + u32::from(c[3] / 16 % 3);
                let (from, to, distance) = match c[3] % 16 {
                    0..=6 if a == b => (a, b, far),
                    0..=6 => (a.min(b), a.max(b), 0),
                    7..=11 => (a, b, far),
                    12..=14 => (a, a, far),
                    _ => (a, b, 0),
                };
                stream_verify::DepEdge {
                    from,
                    to,
                    latency,
                    distance,
                    kind: if c[2] & 0x80 == 0 {
                        stream_verify::DepKind::Data
                    } else {
                        stream_verify::DepKind::Order
                    },
                }
            })
            .collect();
        let values = (0..n as u32).map(stream_ir::ValueId).collect();
        Ddg::from_parts(values, stream_verify::DepGraph { nodes, edges })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn per_scc_rec_mii_matches_the_whole_graph_oracle(
            script in proptest::collection::vec(any::<u8>(), 1..160),
        ) {
            let ddg = random_ddg(&script);
            prop_assert_eq!(rec_mii(&ddg), oracle(&ddg));
        }
    }

    #[test]
    fn zero_distance_cycle_reports_the_latency_sum() {
        // a -> b -> a in one iteration can never be scheduled; both
        // searches give up at the sum of all latencies (here 3 + 4 + 2).
        let ddg = random_ddg(&[2, 0, 1, 3, 0, 1, 0, 4, 15, 0, 0, 2, 12]);
        assert_eq!(ddg.edges().len(), 3);
        assert_eq!(rec_mii(&ddg), 9);
        assert_eq!(oracle(&ddg), 9);
    }

    #[test]
    fn mii_is_max_of_bounds() {
        let k = alu_heavy(20);
        let m = Machine::baseline();
        let bounds = MiiBounds::compute(&ddg_for(&k, &m), &m);
        assert_eq!(bounds.mii(), bounds.res_mii.max(bounds.rec_mii));
        assert!(bounds.mii() >= 1);
    }

    #[test]
    fn res_mii_for_reports_per_kind() {
        let k = alu_heavy(20);
        let m = Machine::baseline();
        let ddg = ddg_for(&k, &m);
        assert_eq!(res_mii_for(&ddg, &m, stream_machine::FuKind::Alu), 4);
        // 2 stream accesses over 7 SB ports.
        assert_eq!(res_mii_for(&ddg, &m, stream_machine::FuKind::SbPort), 1);
        assert_eq!(res_mii_for(&ddg, &m, stream_machine::FuKind::Comm), 0);
    }
}
