//! FFT1K / FFT4K: 1024- and 4096-point complex FFTs (Table 4).
//!
//! As in the paper, input data starts in the SRF and bit-(digit-)reversed
//! stores are not simulated. Each radix-4 stage is one kernel call over
//! `n/4` butterfly records with a streamed twiddle stream. When the SRF can
//! hold all stages' twiddles alongside the double-buffered data they are
//! preloaded; otherwise each stage's twiddles stream from memory — the
//! spill that makes FFT4K slower than FFT1K on the baseline machine
//! (Section 5.3).

use crate::AppProgram;
use stream_ir::execute;
use stream_kernels::fft::{
    self, digit_reverse4, fft_reference, scatter_stage_outputs, stage_streams, C32,
};
use stream_kernels::util::XorShift32;
use stream_machine::Machine;
use stream_sim::{fits_in_srf, ProgramBuilder};

/// FFT configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Transform size (a power of four).
    pub points: usize,
}

impl Config {
    /// The paper's 1024-point FFT.
    pub fn fft1k() -> Self {
        Self { points: 1024 }
    }

    /// The paper's 4096-point FFT.
    pub fn fft4k() -> Self {
        Self { points: 4096 }
    }

    /// Number of radix-4 stages.
    pub fn stages(&self) -> usize {
        (self.points.trailing_zeros() / 2) as usize
    }
}

/// Builds the FFT stream program for `machine`.
pub fn program(cfg: &Config, machine: &Machine) -> AppProgram {
    program_with(cfg, machine, &stream_sched::CompileOptions::default(), 1)
}

/// [`program`] with explicit scheduler options. Each radix-4 stage is
/// already a single whole-array kernel call, so there is nothing for strip
/// batching to merge: `strip_scale` is accepted for interface uniformity and
/// clamped to 1.
pub fn program_with(
    cfg: &Config,
    machine: &Machine,
    opts: &stream_sched::CompileOptions,
    _strip_scale: u32,
) -> AppProgram {
    let _span = stream_trace::span("apps", "program");
    let kernel = crate::compile_cached_opts(&fft::kernel(machine), machine, opts, "fft");
    let n = cfg.points as u64;
    let stages = cfg.stages();
    let data_words = 2 * n;
    let twiddle_words_per_stage = 6 * (n / 4);
    let records = n / 4;

    // Twiddles resident only if they fit next to double-buffered data.
    let all_twiddles = twiddle_words_per_stage * stages as u64;
    let twiddles_resident = fits_in_srf(machine, 2 * data_words + all_twiddles, 0.1);

    let mut p = ProgramBuilder::new();
    let mut data = p.resident(data_words);
    let resident_twiddles: Vec<_> = if twiddles_resident {
        (0..stages)
            .map(|_| p.resident(twiddle_words_per_stage))
            .collect()
    } else {
        Vec::new()
    };
    for s in 0..stages {
        let tw = if twiddles_resident {
            resident_twiddles[s]
        } else {
            p.load(twiddle_words_per_stage)
        };
        let outs = p.kernel(&kernel, &[data, tw], &[data_words], records);
        data = outs[0];
    }

    AppProgram {
        name: if cfg.points >= 4096 { "FFT4K" } else { "FFT1K" },
        program: p.finish(),
    }
}

/// True if this machine keeps all twiddles SRF-resident for `cfg` — exposed
/// so experiments can report the spill boundary.
pub fn twiddles_resident(cfg: &Config, machine: &Machine) -> bool {
    let n = cfg.points as u64;
    let all = 6 * (n / 4) * cfg.stages() as u64;
    fits_in_srf(machine, 4 * n + all, 0.1)
}

/// Functional full FFT through the stage kernel; returns the spectrum.
pub fn run_functional(cfg: &Config, clusters: usize) -> Vec<C32> {
    let machine = Machine::paper(stream_vlsi::Shape::new(clusters as u32, 5));
    let kernel = fft::kernel(&machine);
    let input = sample_signal(cfg.points, 5);
    let n = cfg.points;
    let mut pts: Vec<C32> = (0..n).map(|i| input[digit_reverse4(i, n)]).collect();
    let mut span = 1usize;
    while span < n {
        let (streams, layout) = stage_streams(&pts, span, &machine);
        let outs = execute(
            &kernel,
            &[],
            &streams,
            &stream_ir::ExecConfig::with_clusters(clusters),
        )
        .expect("fft stage executes");
        let mut next = pts.clone();
        scatter_stage_outputs(&outs, &layout, &mut next, &machine);
        pts = next;
        span *= 4;
    }
    pts
}

/// Reference spectrum of the same deterministic signal.
pub fn reference(cfg: &Config) -> Vec<C32> {
    fft_reference(&sample_signal(cfg.points, 5))
}

fn sample_signal(n: usize, seed: u32) -> Vec<C32> {
    let mut rng = XorShift32(seed);
    (0..n)
        .map(|_| (rng.next_f32() * 2.0 - 1.0, rng.next_f32() * 2.0 - 1.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stream_machine::SystemParams;
    use stream_sim::simulate;
    use stream_vlsi::Shape;

    #[test]
    fn functional_small_fft_matches_reference() {
        let cfg = Config { points: 256 };
        let got = run_functional(&cfg, 8);
        let want = reference(&cfg);
        for i in 0..cfg.points {
            assert!(
                (got[i].0 - want[i].0).abs() < 1e-2 && (got[i].1 - want[i].1).abs() < 1e-2,
                "bin {i}: {:?} vs {:?}",
                got[i],
                want[i]
            );
        }
    }

    #[test]
    fn fft4k_spills_twiddles_at_baseline_but_not_at_scale() {
        // The Section 5.3 effect: FFT4K's working set exceeds the baseline
        // SRF, so twiddles stream from memory; the big machine holds them.
        let small = Machine::baseline();
        let big = Machine::paper(Shape::new(128, 10));
        assert!(!twiddles_resident(&Config::fft4k(), &small));
        assert!(twiddles_resident(&Config::fft4k(), &big));
        // FFT1K fits even on the baseline.
        assert!(twiddles_resident(&Config::fft1k(), &small));
    }

    #[test]
    fn programs_simulate() {
        let sys = SystemParams::paper_2007();
        for cfg in [Config::fft1k(), Config::fft4k()] {
            for &(c, n) in &[(8u32, 5u32), (128, 10)] {
                let m = Machine::paper(Shape::new(c, n));
                let app = program(&cfg, &m);
                let r = simulate(&app.program, &m, &sys).unwrap();
                assert!(r.cycles > 0);
            }
        }
    }

    #[test]
    fn fft4k_sustains_more_than_fft1k_on_the_big_machine() {
        // Pure stream-length effect (Section 5.3): same kernel, longer
        // streams amortize per-call overheads.
        let big = Machine::paper(Shape::new(128, 10));
        let sys = SystemParams::paper_2007();
        let r1 = simulate(&program(&Config::fft1k(), &big).program, &big, &sys).unwrap();
        let r4 = simulate(&program(&Config::fft4k(), &big).program, &big, &sys).unwrap();
        assert!(r4.gops(1.0) > r1.gops(1.0));
    }
}
