//! Data-dependence graphs for kernel loop bodies.
//!
//! A [`Ddg`] contains one node per *scheduled* operation (ops that occupy a
//! functional unit; constants, parameters, and indices are free) and edges
//! carrying `(latency, iteration-distance)`:
//!
//! * true data dependences (distance 0, producer latency),
//! * loop-carried dependences through recurrences (distance >= 1),
//! * same-stream access ordering (streambuffer pops must stay in program
//!   order, within and across iterations),
//! * scratchpad memory ordering (writes serialize against other accesses).

use std::collections::HashMap;
use stream_ir::{Kernel, Opcode, ValueId};
use stream_machine::{FuKind, Machine};
use stream_verify::{DepEdge, DepGraph, DepKind, SchedNode};

/// The dependence graph of one kernel on one machine: the independent
/// verifier's [`DepGraph`], the kernel value each node schedules, and the
/// edges indexed by endpoint.
#[derive(Debug, Clone)]
pub struct Ddg {
    graph: DepGraph,
    /// The kernel value node `i` schedules.
    values: Vec<ValueId>,
    /// Outgoing edge indices per node.
    succs: Adjacency,
    /// Incoming edge indices per node.
    preds: Adjacency,
}

/// Edge indices grouped by one endpoint, each group in edge order, stored
/// as compressed rows: two allocations per graph instead of one per node.
#[derive(Debug, Clone)]
struct Adjacency {
    /// Row `v` is `edges[start[v]..start[v + 1]]`.
    start: Vec<u32>,
    edges: Vec<u32>,
}

impl Adjacency {
    fn new(nodes: usize, endpoints: impl Iterator<Item = usize> + Clone) -> Self {
        let mut start = vec![0u32; nodes + 1];
        for v in endpoints.clone() {
            start[v + 1] += 1;
        }
        for v in 0..nodes {
            start[v + 1] += start[v];
        }
        let mut next = start.clone();
        let mut edges = vec![0u32; start[nodes] as usize];
        for (i, v) in endpoints.enumerate() {
            edges[next[v] as usize] = i as u32;
            next[v] += 1;
        }
        Self { start, edges }
    }

    fn row(&self, v: usize) -> &[u32] {
        &self.edges[self.start[v] as usize..self.start[v + 1] as usize]
    }
}

impl Ddg {
    /// Builds the dependence graph of `kernel` for `machine`.
    pub fn build(kernel: &Kernel, machine: &Machine) -> Self {
        let _span = stream_trace::span("sched", "ddg");
        let mut nodes = Vec::new();
        let mut values = Vec::new();
        let mut node_of: HashMap<ValueId, usize> = HashMap::new();
        for (i, _op) in kernel.ops().iter().enumerate() {
            let v = ValueId(i as u32);
            if let Some(class) = kernel.class_of(v) {
                node_of.insert(v, nodes.len());
                values.push(v);
                nodes.push(SchedNode {
                    class,
                    latency: machine.latency(class),
                });
            }
        }

        let mut edges: Vec<DepEdge> = Vec::new();
        let mut push_edge = |from: usize, to: usize, latency: u32, distance: u32, kind: DepKind| {
            edges.push(DepEdge {
                from,
                to,
                latency,
                distance,
                kind,
            });
        };

        // True data dependences, resolving through free ops (recurrences add
        // iteration distance).
        for (i, op) in kernel.ops().iter().enumerate() {
            let v = ValueId(i as u32);
            let Some(&to) = node_of.get(&v) else { continue };
            for &arg in &op.args {
                if let Some((producer, distance)) = resolve_producer(kernel, arg) {
                    if let Some(&from) = node_of.get(&producer) {
                        push_edge(from, to, nodes[from].latency, distance, DepKind::Data);
                    }
                }
            }
        }

        // Same-stream ordering: pops stay in program order within an
        // iteration and wrap to the next iteration.
        let (ins, outs) = kernel.stream_access_order();
        for chain in ins.iter().chain(outs.iter()) {
            let chain_nodes: Vec<usize> = chain.iter().map(|v| node_of[v]).collect();
            for w in chain_nodes.windows(2) {
                push_edge(w[0], w[1], 1, 0, DepKind::Order);
            }
            if let (Some(&first), Some(&last)) = (chain_nodes.first(), chain_nodes.last()) {
                push_edge(last, first, 1, 1, DepKind::Order);
            }
        }

        // Scratchpad ordering: conservative serialization around writes.
        let sp_ops: Vec<(usize, bool)> = kernel
            .ops()
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match op.opcode {
                Opcode::SpRead(_) => Some((node_of[&ValueId(i as u32)], false)),
                Opcode::SpWrite => Some((node_of[&ValueId(i as u32)], true)),
                _ => None,
            })
            .collect();
        for (i, &(a, a_write)) in sp_ops.iter().enumerate() {
            for &(b, b_write) in &sp_ops[i + 1..] {
                if a_write || b_write {
                    push_edge(a, b, 1, 0, DepKind::Order);
                }
            }
        }
        // Loop-carried scratchpad ordering: a write in one iteration orders
        // against accesses in the next.
        if let Some(&(last_write, _)) = sp_ops.iter().rev().find(|&&(_, w)| w) {
            if let Some(&(first, _)) = sp_ops.first() {
                push_edge(last_write, first, 1, 1, DepKind::Order);
            }
        }

        Self::from_parts(values, DepGraph { nodes, edges })
    }

    /// Assembles a graph whose node `i` schedules `values[i]`, indexing its
    /// edges by endpoint.
    pub(crate) fn from_parts(values: Vec<ValueId>, graph: DepGraph) -> Self {
        debug_assert_eq!(values.len(), graph.nodes.len());
        let n = graph.nodes.len();
        let succs = Adjacency::new(n, graph.edges.iter().map(|e| e.from));
        let preds = Adjacency::new(n, graph.edges.iter().map(|e| e.to));
        Self {
            graph,
            values,
            succs,
            preds,
        }
    }

    /// The graph in the independent verifier's vocabulary, as
    /// [`crate::check_schedule`] hands it to `stream-verify`.
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// The schedulable nodes.
    pub fn nodes(&self) -> &[SchedNode] {
        &self.graph.nodes
    }

    /// All dependence edges.
    pub fn edges(&self) -> &[DepEdge] {
        &self.graph.edges
    }

    /// The kernel value each node schedules, in node order.
    pub fn values(&self) -> &[ValueId] {
        &self.values
    }

    /// Indices of edges leaving `node`.
    pub fn succ_edges(&self, node: usize) -> impl Iterator<Item = &DepEdge> + '_ {
        self.succs
            .row(node)
            .iter()
            .map(|&i| &self.graph.edges[i as usize])
    }

    /// Indices of edges entering `node`.
    pub fn pred_edges(&self, node: usize) -> impl Iterator<Item = &DepEdge> + '_ {
        self.preds
            .row(node)
            .iter()
            .map(|&i| &self.graph.edges[i as usize])
    }

    /// Number of nodes using each functional-unit kind.
    pub fn fu_demand(&self) -> HashMap<FuKind, u32> {
        let mut demand = HashMap::new();
        for n in &self.graph.nodes {
            *demand.entry(n.class.fu_kind()).or_insert(0) += 1;
        }
        demand
    }
}

/// Follows free ops (recurrences accumulate iteration distance) to the
/// scheduled producer of `v`, if any.
fn resolve_producer(kernel: &Kernel, mut v: ValueId) -> Option<(ValueId, u32)> {
    let mut distance = 0u32;
    let mut hops = 0usize;
    loop {
        // A pathological recurrence cycle (r1 -> r2 -> r1) carries no
        // schedulable dependence.
        if hops > kernel.ops().len() {
            return None;
        }
        hops += 1;
        match &kernel.ops()[v.index()].opcode {
            Opcode::Recur(_) => {
                distance += 1;
                v = kernel.recur_next(v)?;
            }
            Opcode::Const(_)
            | Opcode::Param(..)
            | Opcode::IterIndex
            | Opcode::ClusterId
            | Opcode::ClusterCount => return None,
            _ => return Some((v, distance)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stream_ir::{KernelBuilder, Scalar, Ty};
    use stream_machine::OpClass;
    use stream_vlsi::Shape;

    fn machine() -> Machine {
        Machine::baseline()
    }

    fn simple_kernel() -> Kernel {
        let mut b = KernelBuilder::new("k");
        let s = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::F32);
        let x = b.read(s);
        let y = b.mul(x, x);
        b.write(out, y);
        b.finish().unwrap()
    }

    #[test]
    fn free_ops_are_not_nodes() {
        let mut b = KernelBuilder::new("k");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let x = b.read(s);
        let c = b.const_i(3);
        let y = b.add(x, c);
        b.write(out, y);
        let k = b.finish().unwrap();
        let ddg = Ddg::build(&k, &machine());
        // read, add, write — the constant is free.
        assert_eq!(ddg.nodes().len(), 3);
    }

    #[test]
    fn data_edges_carry_producer_latency() {
        let k = simple_kernel();
        let ddg = Ddg::build(&k, &machine());
        // read(3) -> mul, mul(4) -> write.
        let read_to_mul = ddg
            .edges()
            .iter()
            .find(|e| ddg.nodes()[e.from].class == OpClass::SbRead && e.distance == 0)
            .unwrap();
        assert_eq!(read_to_mul.latency, 3);
        let mul_to_write = ddg
            .edges()
            .iter()
            .find(|e| ddg.nodes()[e.from].class == OpClass::FloatMul)
            .unwrap();
        assert_eq!(mul_to_write.latency, 4);
    }

    #[test]
    fn recurrence_creates_loop_carried_edge() {
        let mut b = KernelBuilder::new("acc");
        let s = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::F32);
        let acc = b.recurrence(Scalar::F32(0.0));
        let x = b.read(s);
        let sum = b.add(acc, x);
        b.bind_next(acc, sum);
        b.write(out, sum);
        let k = b.finish().unwrap();
        let ddg = Ddg::build(&k, &machine());
        // The add depends on itself at distance 1.
        let self_edge = ddg
            .edges()
            .iter()
            .find(|e| e.from == e.to && e.distance == 1)
            .expect("accumulator self-edge");
        assert_eq!(ddg.nodes()[self_edge.from].class, OpClass::FloatAdd);
        assert_eq!(self_edge.latency, 4);
    }

    #[test]
    fn same_stream_accesses_are_chained() {
        let mut b = KernelBuilder::new("wide");
        let s = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::F32);
        let a = b.read(s);
        let c = b.read(s);
        let r = b.add(a, c);
        b.write(out, r);
        let k = b.finish().unwrap();
        let ddg = Ddg::build(&k, &machine());
        // read0 -> read1 (dist 0) and read1 -> read0 (dist 1).
        assert!(ddg.edges().iter().any(|e| e.latency == 1
            && e.distance == 0
            && ddg.nodes()[e.from].class == OpClass::SbRead
            && ddg.nodes()[e.to].class == OpClass::SbRead));
        assert!(ddg.edges().iter().any(|e| e.latency == 1
            && e.distance == 1
            && ddg.nodes()[e.from].class == OpClass::SbRead
            && ddg.nodes()[e.to].class == OpClass::SbRead));
    }

    #[test]
    fn scratchpad_writes_serialize() {
        let mut b = KernelBuilder::new("sp");
        let s = b.in_stream(Ty::I32);
        let out = b.out_stream(Ty::I32);
        let x = b.read(s);
        let a0 = b.const_i(0);
        b.sp_write(a0, x);
        let y = b.sp_read(a0, Ty::I32);
        b.write(out, y);
        let k = b.finish().unwrap();
        let ddg = Ddg::build(&k, &machine());
        // write -> read ordering edge exists (besides any data edges).
        assert!(ddg.edges().iter().any(|e| {
            ddg.nodes()[e.from].class == OpClass::SpWrite
                && ddg.nodes()[e.to].class == OpClass::SpRead
                && e.distance == 0
        }));
        // and a loop-carried write -> access edge.
        assert!(ddg
            .edges()
            .iter()
            .any(|e| ddg.nodes()[e.from].class == OpClass::SpWrite && e.distance == 1));
    }

    #[test]
    fn fu_demand_counts_classes() {
        let k = simple_kernel();
        let ddg = Ddg::build(&k, &machine());
        let d = ddg.fu_demand();
        assert_eq!(d.get(&FuKind::Alu), Some(&1));
        assert_eq!(d.get(&FuKind::SbPort), Some(&2));
    }

    #[test]
    fn latencies_follow_machine() {
        let k = simple_kernel();
        let big = Machine::paper(Shape::new(8, 14));
        let ddg = Ddg::build(&k, &big);
        let mul = ddg
            .nodes()
            .iter()
            .find(|n| n.class == OpClass::FloatMul)
            .unwrap();
        assert_eq!(mul.latency, 5); // 4 + 1 extra intracluster stage
    }
}
