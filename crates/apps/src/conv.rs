//! CONV: convolution filter on a 512x384 image (Table 4).
//!
//! The image streams through in row bands sized to the SRF; each output row
//! is one `convolve` kernel call over seven resident row streams (rows are
//! loaded once per band and reused by up to seven output rows — the
//! producer-consumer locality the SRF exists for).

use crate::AppProgram;
use stream_ir::{execute, ExecConfig};
use stream_kernels::convolve::{self, Taps};
use stream_kernels::util::{to_f32, XorShift32};
use stream_machine::Machine;
use stream_sim::{fits_in_srf, ProgramBuilder};

/// 16-bit pixels pack two to a 32-bit word in memory and the SRF; the
/// interpreter operates on widened words, but transfer sizes use the packed
/// layout (see DESIGN.md substitutions).
const PACK: u64 = 2;

/// CONV configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Config {
    /// Image width in pixels (one word per pixel).
    pub width: usize,
    /// Image height in rows.
    pub height: usize,
}

impl Config {
    /// The paper's dataset: a 512x384 image.
    pub fn paper() -> Self {
        Self {
            width: 512,
            height: 384,
        }
    }

    /// A reduced size for functional tests.
    pub fn small() -> Self {
        Self {
            width: 64,
            height: 24,
        }
    }
}

/// Rows of filter support on each side.
const HALO: usize = 3;

/// Picks the largest row band whose resident set fits the SRF comfortably.
fn band_rows(cfg: &Config, machine: &Machine) -> usize {
    let mut band = cfg.height - 2 * HALO;
    while band > 1 {
        // Input rows + two output rows in flight (double buffering slack).
        let words = ((band + 2 * HALO) + 4) as u64 * cfg.width as u64;
        if fits_in_srf(machine, words, 0.25) {
            return band;
        }
        band /= 2;
    }
    1
}

/// Builds the CONV stream program for `machine`.
pub fn program(cfg: &Config, machine: &Machine) -> AppProgram {
    program_with(cfg, machine, &stream_sched::CompileOptions::default(), 1)
}

/// [`program`] with explicit scheduler options and a strip-batching factor:
/// `strip_scale` output rows share one kernel call (fewer pipeline fills and
/// host issues per band). `strip_scale = 1` with default options is exactly
/// [`program`].
pub fn program_with(
    cfg: &Config,
    machine: &Machine,
    opts: &stream_sched::CompileOptions,
    strip_scale: u32,
) -> AppProgram {
    let _span = stream_trace::span("apps", "program");
    let kernel = crate::compile_cached_opts(&convolve::kernel(machine), machine, opts, "convolve");
    let mut p = ProgramBuilder::new();
    let band = band_rows(cfg, machine);
    let width = cfg.width as u64;
    let scale = (strip_scale.max(1) as usize).min(band);

    let mut y = HALO;
    while y < cfg.height - HALO {
        let rows_out = band.min(cfg.height - HALO - y);
        // Load the band's input rows (y - HALO .. y + rows_out + HALO).
        let rows_in = rows_out + 2 * HALO;
        let row_streams: Vec<_> = (0..rows_in).map(|_| p.load(width / PACK)).collect();
        let mut r = 0usize;
        while r < rows_out {
            let rows = scale.min(rows_out - r);
            // The kernel takes four streams (center + three row pairs);
            // for timing, dependencies resolve through the band's loaded
            // rows — include the latest-loaded of the batch's whole window
            // (r + rows + 5) so the call starts only once it is resident.
            let inputs = [
                row_streams[r + 3],
                row_streams[r + rows + 5],
                row_streams[r + rows + 4],
                row_streams[r + rows + 3],
            ];
            let out_words = rows as u64 * width / PACK;
            let outs = p.kernel(
                &kernel,
                &inputs,
                &[out_words, out_words],
                rows as u64 * width,
            );
            p.store(outs[0]);
            p.store(outs[1]);
            r += rows;
        }
        y += rows_out;
    }

    AppProgram {
        name: "CONV",
        program: p.finish(),
    }
}

/// Functional end-to-end run: filters a deterministic image and returns the
/// `(smoothed, laplacian)` planes for the interior rows.
pub fn run_functional(cfg: &Config, clusters: usize) -> (Vec<f32>, Vec<f32>) {
    let machine = Machine::paper(stream_vlsi::Shape::new(clusters as u32, 5));
    let kernel = convolve::kernel(&machine);
    let taps = Taps::gaussian();
    let image = sample_image(cfg, 42);
    let mut smooth = Vec::new();
    let mut lap = Vec::new();
    for y in HALO..cfg.height - HALO {
        let rows: [Vec<f32>; 7] = std::array::from_fn(|k| image[y - HALO + k].clone());
        let outs = execute(
            &kernel,
            &convolve::params(&taps),
            &convolve::input_streams(&rows),
            &ExecConfig::with_clusters(clusters),
        )
        .expect("convolve executes");
        smooth.extend(to_f32(&outs[0]));
        lap.extend(to_f32(&outs[1]));
    }
    (smooth, lap)
}

/// Scalar reference matching [`run_functional`].
pub fn reference(cfg: &Config, clusters: usize) -> (Vec<f32>, Vec<f32>) {
    let taps = Taps::gaussian();
    let image = sample_image(cfg, 42);
    let mut smooth = Vec::new();
    let mut lap = Vec::new();
    for y in HALO..cfg.height - HALO {
        let rows: [Vec<f32>; 7] = std::array::from_fn(|k| image[y - HALO + k].clone());
        let (s, l) = convolve::reference(&rows, &taps, clusters);
        smooth.extend(s);
        lap.extend(l);
    }
    (smooth, lap)
}

fn sample_image(cfg: &Config, seed: u32) -> Vec<Vec<f32>> {
    let mut rng = XorShift32(seed);
    (0..cfg.height)
        .map(|_| (0..cfg.width).map(|_| rng.next_f32() * 255.0).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stream_machine::SystemParams;
    use stream_sim::simulate;
    use stream_vlsi::Shape;

    #[test]
    fn functional_matches_reference() {
        let cfg = Config::small();
        let (s, l) = run_functional(&cfg, 8);
        let (rs, rl) = reference(&cfg, 8);
        assert_eq!(s.len(), rs.len());
        for i in 0..s.len() {
            assert!((s[i] - rs[i]).abs() < 1e-3 * (1.0 + rs[i].abs()), "i={i}");
            assert!((l[i] - rl[i]).abs() < 1e-3 * (1.0 + rl[i].abs()), "i={i}");
        }
    }

    #[test]
    fn paper_scale_program_simulates_on_all_machines() {
        let cfg = Config::paper();
        for &(c, n) in &[(8u32, 5u32), (32, 5), (128, 10)] {
            let m = Machine::paper(Shape::new(c, n));
            let app = program(&cfg, &m);
            let r = simulate(&app.program, &m, &SystemParams::paper_2007()).unwrap();
            assert!(r.cycles > 0, "C={c} N={n}");
            assert!(r.gops(1.0) > 1.0, "C={c} N={n}: {}", r.gops(1.0));
        }
    }

    #[test]
    fn bigger_machines_are_faster() {
        let cfg = Config::paper();
        let small = Machine::baseline();
        let big = Machine::paper(Shape::new(128, 10));
        let sys = SystemParams::paper_2007();
        let rs = simulate(&program(&cfg, &small).program, &small, &sys).unwrap();
        let rb = simulate(&program(&cfg, &big).program, &big, &sys).unwrap();
        let speedup = rs.cycles as f64 / rb.cycles as f64;
        assert!(speedup > 3.0, "speedup {speedup}");
    }

    #[test]
    fn band_respects_srf() {
        let cfg = Config::paper();
        let m = Machine::baseline();
        let b = band_rows(&cfg, &m);
        assert!(b >= 1);
        assert!(((b + 2 * HALO + 4) * cfg.width) as u64 <= m.srf_total_words());
    }
}
