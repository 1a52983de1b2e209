//! Every application simulation, pinned: each app × fig14 cluster count ×
//! fig13 ALU count × strip scale ∈ {1, 2, 4}, built with default compile
//! options and simulated under the paper's system, folds into one FNV-1a
//! digest. A changed cycle count, busy time, SRF peak, ALU total or
//! overflow verdict anywhere in the 360 programs moves the digest.
//!
//! To re-pin after a deliberate model change, print `digest` and say in
//! CHANGES.md which numbers moved and why.

use stream_scaling::apps::AppId;
use stream_scaling::machine::{Machine, SystemParams};
use stream_scaling::repro::{FIG13_NS, FIG14_CS};
use stream_scaling::sched::CompileOptions;
use stream_scaling::sim::simulate;
use stream_scaling::vlsi::Shape;

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
