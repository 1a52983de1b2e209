//! The six-application suite of Table 4/Figure 15 behind one enumeration.

use crate::{conv, depth, fft_app, qrd, render, AppProgram};
use std::fmt;
use stream_machine::Machine;

/// The paper's application suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppId {
    /// Polygon rendering of a bowling pin with a marble shader.
    Render,
    /// Stereo depth extraction on a 512x384 image.
    Depth,
    /// Convolution filter on a 512x384 image.
    Conv,
    /// 256x256 matrix QR decomposition.
    Qrd,
    /// 1024-point complex FFT.
    Fft1k,
    /// 4096-point complex FFT.
    Fft4k,
}

impl AppId {
    /// All six applications, in Figure 15 order.
    pub const ALL: [AppId; 6] = [
        AppId::Render,
        AppId::Depth,
        AppId::Conv,
        AppId::Qrd,
        AppId::Fft1k,
        AppId::Fft4k,
    ];

    /// Display name, as in Figure 15.
    pub fn name(&self) -> &'static str {
        match self {
            AppId::Render => "RENDER",
            AppId::Depth => "DEPTH",
            AppId::Conv => "CONV",
            AppId::Qrd => "QRD",
            AppId::Fft1k => "FFT1K",
            AppId::Fft4k => "FFT4K",
        }
    }

    /// Builds this application's paper-scale stream program for `machine`.
    pub fn program(&self, machine: &Machine) -> AppProgram {
        self.program_with(machine, &stream_sched::CompileOptions::default(), 1)
    }

    /// [`Self::program`] with explicit scheduler options and a
    /// strip-batching factor — the auto-tuner's entry point. With default
    /// options and `strip_scale = 1` the built program is identical to
    /// [`Self::program`] (the tuner's baseline candidate relies on this).
    pub fn program_with(
        &self,
        machine: &Machine,
        opts: &stream_sched::CompileOptions,
        strip_scale: u32,
    ) -> AppProgram {
        match self {
            AppId::Render => {
                render::program_with(&render::Config::paper(), machine, opts, strip_scale)
            }
            AppId::Depth => {
                depth::program_with(&depth::Config::paper(), machine, opts, strip_scale)
            }
            AppId::Conv => conv::program_with(&conv::Config::paper(), machine, opts, strip_scale),
            AppId::Qrd => qrd::program_with(&qrd::Config::paper(), machine, opts, strip_scale),
            AppId::Fft1k => {
                fft_app::program_with(&fft_app::Config::fft1k(), machine, opts, strip_scale)
            }
            AppId::Fft4k => {
                fft_app::program_with(&fft_app::Config::fft4k(), machine, opts, strip_scale)
            }
        }
    }

    /// The IR kernels this application's program calls, built for
    /// `machine`, keyed by their kernel names (the same names the compiled
    /// program's kernel instructions report), without building the program.
    pub fn kernels(&self, machine: &Machine) -> Vec<stream_ir::Kernel> {
        use crate::kernels as ak;
        use stream_kernels::{blocksad, convolve, fft, irast, noise};
        match self {
            AppId::Render => vec![
                ak::transform(machine),
                irast::kernel(machine),
                ak::decode_frag(machine),
                noise::kernel(machine),
                ak::blend(machine),
            ],
            AppId::Depth => vec![
                blocksad::kernel(machine),
                ak::sad_init(machine),
                ak::sad_min(machine),
            ],
            AppId::Conv => vec![convolve::kernel(machine)],
            AppId::Qrd => vec![
                ak::colnorm(machine),
                ak::vscale(machine),
                ak::coldot(machine),
                ak::colaxpy(machine),
            ],
            AppId::Fft1k | AppId::Fft4k => vec![fft::kernel(machine)],
        }
    }

    /// Paper Figure 15 anchors: `(baseline GOPS at C=8 N=5, GOPS at C=128
    /// N=10, speedup at C=128 N=10)`.
    pub fn paper_fig15(&self) -> (f64, f64, f64) {
        match self {
            AppId::Render => (15.4, 311.0, 20.5),
            AppId::Depth => (28.0, 328.0, 11.6),
            AppId::Conv => (41.2, 469.0, 11.4),
            AppId::Qrd => (25.6, 138.0, 5.4),
            AppId::Fft1k => (14.6, 103.0, 7.1),
            AppId::Fft4k => (18.3, 211.0, 11.5),
        }
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stream_machine::SystemParams;
    use stream_sim::simulate;

    #[test]
    fn all_apps_build_and_simulate_on_baseline() {
        let m = Machine::baseline();
        let sys = SystemParams::paper_2007();
        for id in AppId::ALL {
            let app = id.program(&m);
            let r = simulate(&app.program, &m, &sys).unwrap_or_else(|e| panic!("{id} failed: {e}"));
            assert!(r.cycles > 0, "{id}");
        }
    }

    #[test]
    fn program_with_defaults_is_program() {
        let m = Machine::baseline();
        let opts = stream_sched::CompileOptions::default();
        for id in AppId::ALL {
            let a = format!("{:?}", id.program(&m).program);
            let b = format!("{:?}", id.program_with(&m, &opts, 1).program);
            assert_eq!(a, b, "{id}: strip_scale=1 must rebuild the default");
        }
    }

    #[test]
    fn programs_share_the_cached_kernels() {
        use std::sync::Arc;
        use stream_sim::StreamInstr;
        let m = Machine::baseline();
        let opts = stream_sched::CompileOptions::default();
        let cached: Vec<_> = AppId::Depth
            .kernels(&m)
            .iter()
            .map(|k| {
                stream_grid::global_cache()
                    .get_or_compile(k, &m, &opts)
                    .unwrap()
            })
            .collect();
        let program = AppId::Depth.program(&m).program;
        let mut calls = 0;
        for instr in program.instrs() {
            if let StreamInstr::Kernel { kernel, .. } = instr {
                calls += 1;
                let entry = cached
                    .iter()
                    .find(|c| c.name() == kernel.name())
                    .expect("every call is to one of DEPTH's kernels");
                assert!(Arc::ptr_eq(kernel, entry), "{} is a copy", kernel.name());
                // Sharing is invisible to the `{:?}` rendering the tuner's
                // identity pruning compares: `Arc` prints its contents.
                assert_eq!(format!("{kernel:?}"), format!("{:?}", **entry));
            }
        }
        assert!(calls > cached.len(), "DEPTH calls its kernels repeatedly");
    }

    #[test]
    fn strip_batched_programs_simulate() {
        let m = Machine::baseline();
        let sys = SystemParams::paper_2007();
        let opts = stream_sched::CompileOptions::default();
        for id in AppId::ALL {
            let app = id.program_with(&m, &opts, 2);
            let r = simulate(&app.program, &m, &sys).unwrap_or_else(|e| panic!("{id}: {e}"));
            assert!(r.cycles > 0, "{id}");
        }
    }

    #[test]
    fn names_match_figure_15() {
        let names: Vec<_> = AppId::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec!["RENDER", "DEPTH", "CONV", "QRD", "FFT1K", "FFT4K"]
        );
    }
}
