//! Every application simulation, pinned: each app × fig14 cluster count ×
//! fig13 ALU count × strip scale ∈ {1, 2, 4}, built with default compile
//! options and simulated under the paper's system, folds into one FNV-1a
//! digest. A changed cycle count, busy time, SRF peak, ALU total or
//! overflow verdict anywhere in the 360 programs moves the digest.
//!
//! To re-pin after a deliberate model change, print `digest` and say in
//! CHANGES.md which numbers moved and why.
//!
//! The experiments that simulate applications share one memo of cells per
//! run; a second test checks that the shared cells render the pinned
//! reports and that each experiment simulates only the cells no earlier
//! experiment of the run did.

use stream_scaling::apps::AppId;
use stream_scaling::grid::Engine;
use stream_scaling::machine::{Machine, SystemParams};
use stream_scaling::repro::{run_many, run_with, ExperimentId, FIG13_NS, FIG14_CS};
use stream_scaling::sched::CompileOptions;
use stream_scaling::sim::simulate;
use stream_scaling::vlsi::Shape;

const REPRO_OUTPUT: &str = include_str!("../docs/repro_output.txt");

const PINNED_DIGEST: u64 = 0x02d1_73f8_7f37_c156;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[test]
fn app_simulations_match_the_pinned_digest() {
    let sys = SystemParams::paper_2007();
    let opts = CompileOptions::default();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let (mut programs, mut overflows) = (0, 0);
    for id in AppId::ALL {
        for c in FIG14_CS {
            for n in FIG13_NS {
                let machine = Machine::paper(Shape::new(c, n));
                for strip in [1, 2, 4] {
                    let app = id.program_with(&machine, &opts, strip);
                    programs += 1;
                    digest = match simulate(&app.program, &machine, &sys) {
                        Ok(r) => [
                            r.cycles,
                            r.kernel_busy,
                            r.memory_busy,
                            r.host_busy,
                            r.peak_srf_words,
                            r.alu_ops,
                        ]
                        .iter()
                        .fold(digest, |h, v| fnv1a(h, &v.to_le_bytes())),
                        Err(e) => {
                            overflows += 1;
                            fnv1a(digest, e.to_string().as_bytes())
                        }
                    };
                }
            }
        }
    }
    assert_eq!(programs, 360);
    assert_eq!(overflows, 10, "SRF-overflow verdicts");
    assert_eq!(digest, PINNED_DIGEST, "digest {digest:#018x}");
}

/// The `== <id> — ` section of `docs/repro_output.txt`, as the report
/// renders it (the blank line after it is `println!`'s).
fn pinned_section(id: ExperimentId) -> &'static str {
    let head = format!("== {id} — ");
    let start = REPRO_OUTPUT
        .match_indices(&head)
        .map(|(at, _)| at)
        .find(|&at| at == 0 || REPRO_OUTPUT.as_bytes()[at - 1] == b'\n')
        .unwrap_or_else(|| panic!("no {id} section"));
    let len = REPRO_OUTPUT[start..]
        .find("\n\n")
        .expect("sections end in a blank line");
    &REPRO_OUTPUT[start..=start + len]
}

/// `(lookups, simulated)` from a report's `application cells:` perf line.
fn cell_counts(report: &stream_scaling::repro::Report) -> (u64, u64) {
    let line = report
        .perf_lines()
        .iter()
        .find_map(|l| l.strip_prefix("application cells: "))
        .unwrap_or_else(|| panic!("{}: no application cells line", report.id()));
    let (lookups, simulated) = line
        .strip_suffix(" simulated")
        .and_then(|l| l.split_once(" lookups, "))
        .unwrap_or_else(|| panic!("{}: malformed `{line}`", report.id()));
    (lookups.parse().unwrap(), simulated.parse().unwrap())
}

#[test]
fn one_run_shares_its_application_cells() {
    use ExperimentId::{Fig15, Headline, Multiproc, ScaledDatasets};
    let ids = [Fig15, Headline, ScaledDatasets, Multiproc];
    // (lookups, simulated in the shared run, simulated alone)
    let want = [(48, 48, 48), (18, 0, 18), (20, 8, 18), (12, 4, 11)];
    let shared = run_many(&ids, &Engine::new(2));
    assert_eq!(shared.len(), ids.len());
    for ((id, report), (lookups, simulated, simulated_alone)) in ids.iter().zip(&shared).zip(want) {
        let alone = run_with(*id, &Engine::new(1));
        let text = report.to_string();
        assert_eq!(
            text,
            pinned_section(*id),
            "{id} differs from its pinned section"
        );
        assert_eq!(text, alone.to_string(), "{id} differs from its run alone");
        assert_eq!(
            cell_counts(report),
            (lookups, simulated),
            "{id} in the shared run"
        );
        assert_eq!(
            cell_counts(&alone),
            (lookups, simulated_alone),
            "{id} alone"
        );
    }
}
