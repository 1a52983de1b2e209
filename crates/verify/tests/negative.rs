//! Negative fixtures: every diagnostic code that a schedule or a built
//! kernel can trigger must demonstrably fire, with the exact code asserted
//! — a verifier that cannot reject anything verifies nothing. E001, E002,
//! E005, E006 and E009 re-check rules `KernelBuilder` already enforces, so
//! no built kernel fires them.

use stream_ir::{KernelBuilder, Scalar, Ty};
use stream_machine::{Machine, OpClass};
use stream_verify::{
    lint_kernel, lint_kernel_with_table, verify_schedule, Code, DepEdge, DepGraph, DepKind,
    LatencyTable, SchedNode,
};

fn alu_node() -> SchedNode {
    SchedNode {
        class: OpClass::IntAlu,
        latency: 2,
    }
}

fn data_edge(from: usize, to: usize, latency: u32, distance: u32) -> DepEdge {
    DepEdge {
        from,
        to,
        latency,
        distance,
        kind: DepKind::Data,
    }
}

// ---------------------------------------------------------------- schedule

#[test]
fn e101_oversubscribed_slot() {
    // Six independent ALU ops all at t=0 on a 5-ALU cluster.
    let graph = DepGraph {
        nodes: (0..6).map(|_| alu_node()).collect(),
        edges: vec![],
    };
    let r = verify_schedule(&graph, 1, &[0; 6], &Machine::baseline());
    assert!(r.has(Code::SlotOversubscribed), "{r}");
}

#[test]
fn e102_violated_dependence() {
    // v0 (latency 2) feeds v1, but v1 issues one cycle later.
    let graph = DepGraph {
        nodes: vec![alu_node(), alu_node()],
        edges: vec![data_edge(0, 1, 2, 0)],
    };
    let r = verify_schedule(&graph, 4, &[0, 1], &Machine::baseline());
    assert!(r.has(Code::DependenceViolated), "{r}");
    assert!(!r.has(Code::SlotOversubscribed), "{r}");
}

#[test]
fn e102_violated_loop_carried_dependence() {
    // A distance-1 recurrence: t(to) + II*1 must still cover the latency.
    // t(1)=0, t(0)=3, latency 2, II=1: 0 + 1 < 3 + 2.
    let graph = DepGraph {
        nodes: vec![alu_node(), alu_node()],
        edges: vec![data_edge(0, 1, 2, 1)],
    };
    let r = verify_schedule(&graph, 1, &[3, 0], &Machine::baseline());
    assert!(r.has(Code::DependenceViolated), "{r}");
}

#[test]
fn e103_ii_below_recurrence_bound() {
    // A self-cycle of two latency-2 ops with total distance 1 forces
    // RecMII = 4; II = 2 must be flagged (the violated edges co-fire).
    let graph = DepGraph {
        nodes: vec![alu_node(), alu_node()],
        edges: vec![data_edge(0, 1, 2, 0), data_edge(1, 0, 2, 1)],
    };
    let r = verify_schedule(&graph, 2, &[0, 2], &Machine::baseline());
    assert!(r.has(Code::IiBelowMii), "{r}");
}

#[test]
fn e103_ii_below_resource_bound() {
    // Eleven ALU ops on 5 ALUs force ResMII = 3; a legal-looking spread at
    // II = 2 still underruns the resource bound.
    let nodes: Vec<SchedNode> = (0..11).map(|_| alu_node()).collect();
    let times: Vec<u32> = (0..11).collect();
    let graph = DepGraph {
        nodes,
        edges: vec![],
    };
    let r = verify_schedule(&graph, 2, &times, &Machine::baseline());
    assert!(r.has(Code::IiBelowMii), "{r}");
}

#[test]
fn e104_shape_mismatch() {
    let graph = DepGraph {
        nodes: vec![alu_node()],
        edges: vec![],
    };
    let r = verify_schedule(&graph, 1, &[0, 0], &Machine::baseline());
    assert!(r.has(Code::ShapeMismatch), "{r}");

    let graph = DepGraph {
        nodes: vec![alu_node()],
        edges: vec![data_edge(0, 7, 2, 0)],
    };
    let r = verify_schedule(&graph, 1, &[0], &Machine::baseline());
    assert!(r.has(Code::ShapeMismatch), "{r}");
}

#[test]
fn e105_zero_ii() {
    let graph = DepGraph {
        nodes: vec![alu_node()],
        edges: vec![],
    };
    let r = verify_schedule(&graph, 0, &[0], &Machine::baseline());
    assert!(r.has(Code::ZeroIi), "{r}");
}

#[test]
fn e106_latency_drift() {
    // A node claiming latency 99 for IntAlu disagrees with the verifier's
    // own table (2 on the baseline).
    let graph = DepGraph {
        nodes: vec![SchedNode {
            class: OpClass::IntAlu,
            latency: 99,
        }],
        edges: vec![],
    };
    let r = verify_schedule(&graph, 1, &[0], &Machine::baseline());
    assert!(r.has(Code::LatencyDrift), "{r}");
}

#[test]
fn w101_register_pressure() {
    // One value held live across 300 iterations at II=1 needs ~300
    // rotating copies — far over the 224-register baseline LRF.
    let graph = DepGraph {
        nodes: vec![alu_node(), alu_node()],
        edges: vec![data_edge(0, 1, 2, 300)],
    };
    let r = verify_schedule(&graph, 1, &[0, 2], &Machine::baseline());
    assert!(r.has(Code::RegisterPressure), "{r}");
    assert!(!r.has_errors(), "{r}");
}

// ---------------------------------------------------------------- ir lint

#[test]
fn e007_degenerate_recurrence_cycle() {
    let mut b = KernelBuilder::new("spin");
    let s = b.in_stream(Ty::I32);
    let out = b.out_stream(Ty::I32);
    let r1 = b.recurrence(Scalar::I32(0));
    let r2 = b.recurrence(Scalar::I32(0));
    b.bind_next(r1, r2);
    b.bind_next(r2, r1);
    let x = b.read(s);
    let y = b.add(x, r1);
    b.write(out, y);
    let k = b.finish().unwrap();
    let r = lint_kernel(&k);
    assert!(r.has(Code::DegenerateRecurrence), "{r}");
}

#[test]
fn e008_missing_latency_entry() {
    let mut b = KernelBuilder::new("div");
    let s = b.in_stream(Ty::F32);
    let out = b.out_stream(Ty::F32);
    let x = b.read(s);
    let y = b.div(x, x);
    b.write(out, y);
    let k = b.finish().unwrap();
    let table = LatencyTable::default().without(OpClass::FloatDiv);
    let r = lint_kernel_with_table(&k, &table);
    assert_eq!(r.count(Code::MissingLatency), 1, "{r}");
}

#[test]
fn w001_w002_w003_dead_code_warnings() {
    let mut b = KernelBuilder::new("lazy");
    let s = b.in_stream(Ty::I32);
    let _ghost_in = b.in_stream(Ty::F32);
    let out = b.out_stream(Ty::I32);
    let _ghost_out = b.out_stream(Ty::F32);
    let x = b.read(s);
    let _dead = b.add(x, x);
    b.write(out, x);
    let k = b.finish().unwrap();
    let r = lint_kernel(&k);
    assert!(!r.has_errors(), "{r}");
    assert!(r.has(Code::DeadValue), "{r}");
    assert!(r.has(Code::UnusedInput), "{r}");
    assert!(r.has(Code::UnusedOutput), "{r}");
}

#[test]
fn every_code_is_catalogued() {
    // Keep `Code::ALL`, `as_str`, and the docs catalog in sync: every live
    // code has a heading in docs/lint_codes.md that is not marked retired,
    // and no retired heading names a live code.
    assert_eq!(Code::ALL.len(), 17);
    let catalog = include_str!("../../../docs/lint_codes.md");
    let headings: Vec<(&str, &str)> = catalog
        .lines()
        .filter_map(|l| l.strip_prefix("### ")?.split_once(" — "))
        .collect();
    for c in Code::ALL {
        assert!(!c.description().is_empty());
        let title = headings
            .iter()
            .find(|(code, _)| *code == c.as_str())
            .map(|&(_, title)| title);
        assert!(
            title.is_some_and(|t| t != "retired"),
            "{c} needs a live `### {c} — …` heading in docs/lint_codes.md, found {title:?}"
        );
    }
    let retired: Vec<&str> = headings
        .iter()
        .filter(|(_, title)| *title == "retired")
        .map(|&(code, _)| code)
        .collect();
    assert_eq!(
        retired,
        [
            "E003", "E004", "E010", "E201", "E202", "E203", "E204", "E205", "E206", "E207", "E208",
            "E209", "E210", "E211", "W201", "W202", "W203",
        ]
    );
    for code in retired {
        assert!(
            Code::ALL.iter().all(|c| c.as_str() != code),
            "{code} is retired but still has a live Code"
        );
    }
}
