//! DEPTH: stereo depth extraction on a 512x384 pixel pair (Table 4,
//! Kanade-style video-rate stereo).
//!
//! For each scanline and candidate disparity the `blocksad` kernel produces
//! a windowed SAD map (right rows are disparity-shifted views of the same
//! SRF-resident row — no reload); `sad_init`/`sad_min` kernels reduce across
//! disparities to the best disparity per pixel. Row bands are sized to the
//! SRF, and rows are reused across the whole disparity sweep — the heavy
//! producer-consumer locality that makes DEPTH scale in the paper.

use crate::kernels::{sad_init, sad_min};
use crate::AppProgram;
use stream_ir::{execute, ExecConfig, Scalar};
use stream_kernels::blocksad;
use stream_kernels::util::{to_i32, words_i32, XorShift32};
use stream_machine::Machine;
use stream_sim::{fits_in_srf, ProgramBuilder};

/// 16-bit pixels pack two to a word in memory (see DESIGN.md).
const PACK: u64 = 2;

/// DEPTH configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Config {
    /// Image width (output SAD window width).
    pub width: usize,
    /// Image height in rows.
    pub height: usize,
    /// Candidate disparities searched.
    pub disparities: usize,
}

impl Config {
    /// The paper's dataset: 512x384 with a 16-disparity search.
    pub fn paper() -> Self {
        Self {
            width: 512,
            height: 384,
            disparities: 16,
        }
    }

    /// Reduced size for functional tests.
    pub fn small() -> Self {
        Self {
            width: 32,
            height: 8,
            disparities: 4,
        }
    }
}

/// Picks a row band that keeps both images' rows resident.
fn band_rows(cfg: &Config, machine: &Machine) -> usize {
    let mut band = cfg.height - 2;
    let right_width = (cfg.width + cfg.disparities) as u64;
    while band > 1 {
        let words = (band as u64 + 2) * (cfg.width as u64 + right_width) + 8 * cfg.width as u64;
        if fits_in_srf(machine, words, 0.25) {
            return band;
        }
        band /= 2;
    }
    1
}

/// Builds the DEPTH stream program for `machine`.
pub fn program(cfg: &Config, machine: &Machine) -> AppProgram {
    program_with(cfg, machine, &stream_sched::CompileOptions::default(), 1)
}

/// [`program`] with explicit scheduler options and a strip-batching factor:
/// `strip_scale` output rows share each SAD/arg-min call, so one disparity
/// chain covers the whole batch. `strip_scale = 1` with default options is
/// exactly [`program`].
pub fn program_with(
    cfg: &Config,
    machine: &Machine,
    opts: &stream_sched::CompileOptions,
    strip_scale: u32,
) -> AppProgram {
    let _span = stream_trace::span("apps", "program");
    let sad = crate::compile_cached_opts(&blocksad::kernel(machine), machine, opts, "blocksad");
    let init = crate::compile_cached_opts(&sad_init(machine), machine, opts, "sad_init");
    let kmin = crate::compile_cached_opts(&sad_min(machine), machine, opts, "sad_min");

    let mut p = ProgramBuilder::new();
    let band = band_rows(cfg, machine);
    let width = cfg.width as u64;
    let right_width = (cfg.width + cfg.disparities) as u64;
    let scale = (strip_scale.max(1) as usize).min(band);

    let mut y = 1usize;
    while y < cfg.height - 1 {
        let rows_out = band.min(cfg.height - 1 - y);
        let rows_in = rows_out + 2;
        let left: Vec<_> = (0..rows_in).map(|_| p.load(width / PACK)).collect();
        let right: Vec<_> = (0..rows_in).map(|_| p.load(right_width / PACK)).collect();
        let mut r = 0usize;
        while r < rows_out {
            let batch = scale.min(rows_out - r);
            let recs = batch as u64 * width;
            // d = 0 seeds the arg-min chain; the input set spans the
            // batch's whole row window so the call waits for all of it.
            let rows = [
                left[r],
                left[r + batch],
                left[r + batch + 1],
                right[r],
                right[r + batch],
                right[r + batch + 1],
            ];
            let sad0 = p.kernel(&sad, &rows, &[recs], recs);
            let mut best = p.kernel(&init, &[sad0[0]], &[recs, recs], recs);
            for _d in 1..cfg.disparities {
                // The shifted right-row views are the same SRF streams.
                let sd = p.kernel(&sad, &rows, &[recs], recs);
                best = p.kernel(&kmin, &[best[0], best[1], sd[0]], &[recs, recs], recs);
            }
            p.store(best[1]); // disparity map rows
            r += batch;
        }
        y += rows_out;
    }

    AppProgram {
        name: "DEPTH",
        program: p.finish(),
    }
}

/// Deterministic stereo pair: left rows of `width + disparities` pixels
/// (so shifted views exist) — right image is the left shifted with noise.
fn sample_pair(cfg: &Config, seed: u32) -> (Vec<Vec<i32>>, Vec<Vec<i32>>) {
    let mut rng = XorShift32(seed);
    let w = cfg.width + cfg.disparities;
    let true_shift = 2usize.min(cfg.disparities - 1);
    let left: Vec<Vec<i32>> = (0..cfg.height)
        .map(|_| (0..w).map(|_| rng.next_below(256) as i32).collect())
        .collect();
    // A pixel at left column x reappears in the right image at x + shift,
    // so right[x + d] matches left[x] when d equals the true shift.
    let right: Vec<Vec<i32>> = left
        .iter()
        .map(|row| (0..w).map(|x| row[x.saturating_sub(true_shift)]).collect())
        .collect();
    (left, right)
}

/// Functional end-to-end DEPTH over the kernels: returns the disparity map
/// (rows 1..height-1).
pub fn run_functional(cfg: &Config, clusters: usize) -> Vec<Vec<i32>> {
    let machine = Machine::paper(stream_vlsi::Shape::new(clusters as u32, 5));
    let sadk = blocksad::kernel(&machine);
    let initk = sad_init(&machine);
    let mink = sad_min(&machine);
    let (left, right) = sample_pair(cfg, 77);
    let exec = ExecConfig::with_clusters(clusters);

    let mut map = Vec::new();
    for y in 1..cfg.height - 1 {
        let lrows: [Vec<i32>; 3] = std::array::from_fn(|k| left[y - 1 + k][..cfg.width].to_vec());
        let sad_for = |d: usize| -> Vec<i32> {
            let rrows: [Vec<i32>; 3] =
                std::array::from_fn(|k| right[y - 1 + k][d..d + cfg.width].to_vec());
            let outs = execute(&sadk, &[], &blocksad::input_streams(&lrows, &rrows), &exec)
                .expect("blocksad executes");
            to_i32(&outs[0])
        };
        let s0 = sad_for(0);
        let outs =
            execute(&initk, &[Scalar::I32(0)], &[words_i32(s0)], &exec).expect("sad_init executes");
        let mut best_sad = to_i32(&outs[0]);
        let mut best_d = to_i32(&outs[1]);
        for d in 1..cfg.disparities {
            let sd = sad_for(d);
            let outs = execute(
                &mink,
                &[Scalar::I32(d as i32)],
                &[
                    words_i32(best_sad.clone()),
                    words_i32(best_d.clone()),
                    words_i32(sd),
                ],
                &exec,
            )
            .expect("sad_min executes");
            best_sad = to_i32(&outs[0]);
            best_d = to_i32(&outs[1]);
        }
        map.push(best_d);
    }
    map
}

/// Scalar reference for [`run_functional`].
pub fn reference(cfg: &Config, clusters: usize) -> Vec<Vec<i32>> {
    let (left, right) = sample_pair(cfg, 77);
    let mut map = Vec::new();
    for y in 1..cfg.height - 1 {
        let lrows: [Vec<i32>; 3] = std::array::from_fn(|k| left[y - 1 + k][..cfg.width].to_vec());
        let mut best_sad = vec![i32::MAX; cfg.width];
        let mut best_d = vec![0i32; cfg.width];
        for d in 0..cfg.disparities {
            let rrows: [Vec<i32>; 3] =
                std::array::from_fn(|k| right[y - 1 + k][d..d + cfg.width].to_vec());
            let sad = blocksad::reference(&lrows, &rrows, clusters);
            for x in 0..cfg.width {
                if sad[x] < best_sad[x] {
                    best_sad[x] = sad[x];
                    best_d[x] = d as i32;
                }
            }
        }
        map.push(best_d);
    }
    map
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
        assert_eq!(run_functional(&cfg, 8), reference(&cfg, 8));
    }

    #[test]
    fn recovers_the_true_shift_mostly() {
        // The right image is the left shifted by 2: most pixels should pick
        // disparity 2.
        let cfg = Config {
            width: 64,
            height: 8,
            disparities: 4,
        };
        let map = run_functional(&cfg, 8);
        let total: usize = map.iter().map(Vec::len).sum();
        let hits: usize = map
            .iter()
            .flat_map(|r| r.iter())
            .filter(|&&d| d == 2)
            .count();
        assert!(hits * 10 > total * 6, "{hits}/{total} at true disparity");
    }

    #[test]
    fn paper_scale_program_is_kernel_bound_at_baseline() {
        let cfg = Config::paper();
        let m = Machine::baseline();
        let app = program(&cfg, &m);
        let r = simulate(&app.program, &m, &SystemParams::paper_2007()).unwrap();
        assert!(r.cluster_utilization() > 0.7, "{}", r.cluster_utilization());
    }

    #[test]
    fn scales_well_to_many_clusters() {
        let cfg = Config::paper();
        let small = Machine::baseline();
        let big = Machine::paper(Shape::new(128, 10));
        let sys = SystemParams::paper_2007();
        let rs = simulate(&program(&cfg, &small).program, &small, &sys).unwrap();
        let rb = simulate(&program(&cfg, &big).program, &big, &sys).unwrap();
        let speedup = rs.cycles as f64 / rb.cycles as f64;
        assert!(speedup > 5.0, "speedup {speedup}");
    }
}
