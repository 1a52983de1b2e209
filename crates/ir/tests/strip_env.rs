//! Own-process checks of `STREAM_TAPE_STRIPS` handling. The override is
//! read once per process through a `OnceLock`, so each case re-executes
//! this test binary with a different value and asserts on the child's
//! planner behavior and (in debug builds) its stderr diagnostics —
//! out-of-range or unrecognized values must be *reported and ignored*,
//! never silently clamped.

use std::process::Command;
use stream_ir::{probe_planned_strips, KernelBuilder, Tape, Ty};

fn eligible_tape() -> Tape {
    let mut b = KernelBuilder::new("copy");
    let s = b.in_stream(Ty::I32);
    let out = b.out_stream(Ty::I32);
    let x = b.read(s);
    b.write(out, x);
    Tape::compile(&b.finish().unwrap())
}

/// Printed by a `count` child whose host cannot run 3 strips, so the
/// parent knows to expect the out-of-range diagnostic.
const REJECTED_MARKER: &str = "strip-env: override rejected";

fn rerun_self(strips_value: &str, expect: &str) -> std::process::Output {
    let exe = std::env::current_exe().expect("test binary path");
    Command::new(exe)
        .args(["strip_override_env_handling", "--exact", "--nocapture"])
        .env("STREAM_TAPE_STRIPS", strips_value)
        .env("STRIP_ENV_EXPECT", expect)
        .output()
        .expect("re-running the test binary")
}

#[test]
fn strip_override_env_handling() {
    // Child mode: STREAM_TAPE_STRIPS is already set; probe the planner.
    if let Ok(expect) = std::env::var("STRIP_ENV_EXPECT") {
        let tape = eligible_tape();
        let strips = probe_planned_strips(&tape, 1 << 20, 4);
        match expect.as_str() {
            "count" => {
                // The parent asked for 3 strips; honored whenever this
                // host's permit pool can cover 2 extra workers. Otherwise
                // the count is out of range: it is ignored (never clamped)
                // and Auto planning resumes within what the pool grants.
                let max = stream_pool::global().available() + 1;
                if max >= 3 {
                    assert_eq!(strips, 3, "exact numeric override must be honored");
                } else {
                    assert_ne!(strips, 3, "underprovisioned host must reject, not honor");
                    assert!(strips <= max, "Auto planning exceeded the pool: {strips}");
                    println!("{REJECTED_MARKER}");
                }
            }
            "ignored" => {
                // The override was invalid: Auto planning resumed, which
                // on this workload always strips if any permit is free.
                assert!(strips >= 1);
                assert_ne!(strips, 99999, "out-of-range count must not be used");
            }
            other => panic!("unknown expectation {other:?}"),
        }
        return;
    }

    // Parent mode: drive one child process per env value.
    let ok = rerun_self("3", "count");
    let stderr = String::from_utf8_lossy(&ok.stderr);
    assert!(
        ok.status.success(),
        "numeric override child failed:\n{stderr}"
    );
    if cfg!(debug_assertions) && String::from_utf8_lossy(&ok.stdout).contains(REJECTED_MARKER) {
        assert!(
            stderr.contains("out of range"),
            "a rejected STREAM_TAPE_STRIPS=3 must be diagnosed, got:\n{stderr}"
        );
    }

    for (value, needle) in [
        ("0", "out of range"),
        ("99999", "out of range"),
        ("sideways", "unrecognized"),
    ] {
        let out = rerun_self(value, "ignored");
        assert!(
            out.status.success(),
            "child with STREAM_TAPE_STRIPS={value} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        if cfg!(debug_assertions) {
            assert!(
                stderr.contains(needle),
                "STREAM_TAPE_STRIPS={value} must be diagnosed with {needle:?}, got:\n{stderr}"
            );
        }
    }
}
