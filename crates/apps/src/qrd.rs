//! QRD: Householder QR decomposition of a 256x256 matrix (Table 4).
//!
//! Each reflector is computed by the panel kernels (`colnorm`, `vscale`) —
//! a step over one short column that parallelizes poorly — and applied to
//! the trailing matrix by the two-pass `coldot`/`colaxpy` kernels in
//! column-per-cluster layout. The timing program is panel-blocked (eight
//! reflectors share one strip-mined sweep over the trailing matrix, the
//! standard blocking that keeps QR from being pure memory traffic); the
//! functional path runs the mathematically identical unblocked sequence at
//! test sizes. Exactly as in the paper, the panel step's fraction of
//! runtime grows with `C`, capping QRD's speedup (Section 5.3).

use crate::kernels::{colaxpy, coldot, colnorm, vscale};
use crate::AppProgram;
use stream_ir::{execute_with, ExecConfig, ExecOptions, Scalar};
use stream_kernels::util::{to_f32, words_f32, XorShift32};
use stream_machine::Machine;
use stream_sim::{AccessPattern, ProgramBuilder};

/// QRD configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
}

impl Config {
    /// The paper's 256x256 decomposition.
    pub fn paper() -> Self {
        Self {
            rows: 256,
            cols: 256,
        }
    }

    /// Reduced size for functional tests.
    pub fn small() -> Self {
        Self { rows: 32, cols: 24 }
    }
}

/// Panel width of the blocked timing program.
const PANEL: usize = 8;

fn round_up(x: usize, to: usize) -> usize {
    x.div_ceil(to) * to
}

/// Builds the (panel-blocked) QRD stream program for `machine`.
pub fn program(cfg: &Config, machine: &Machine) -> AppProgram {
    program_with(cfg, machine, &stream_sched::CompileOptions::default(), 1)
}

/// [`program`] with explicit scheduler options and a strip-batching factor:
/// the trailing-matrix sweep uses column strips of `strip_scale * C` columns
/// (fewer, longer kernel calls per reflector). `strip_scale = 1` with
/// default options is exactly [`program`].
pub fn program_with(
    cfg: &Config,
    machine: &Machine,
    opts: &stream_sched::CompileOptions,
    strip_scale: u32,
) -> AppProgram {
    let _span = stream_trace::span("apps", "program");
    let c = machine.clusters() as usize;
    let sc = c * strip_scale.max(1) as usize;
    let knorm = crate::compile_cached_opts(&colnorm(machine), machine, opts, "colnorm");
    let kscale = crate::compile_cached_opts(&vscale(machine), machine, opts, "vscale");
    let kdot = crate::compile_cached_opts(&coldot(machine), machine, opts, "coldot");
    let kaxpy = crate::compile_cached_opts(&colaxpy(machine), machine, opts, "colaxpy");

    let mut p = ProgramBuilder::new();
    let reflectors = cfg.cols.min(cfg.rows - 1);

    let mut j0 = 0usize;
    while j0 < reflectors {
        let panel_cols = PANEL.min(reflectors - j0);
        let sub_rows = cfg.rows - j0;
        let padded_norm = round_up(sub_rows, 8 * c);
        let row_iters = round_up(sub_rows, 8) / 8;

        // Panel factorization: load the panel once, then per column compute
        // the reflector and update the rest of the panel.
        let panel_words = (panel_cols * round_up(sub_rows, 8) * 8 / 8) as u64;
        let panel = p.load(panel_words);
        let mut vs = Vec::new();
        for jj in 0..panel_cols {
            let col_records = (padded_norm / 8) as u64;
            let nrm = p.kernel(&knorm, &[panel], &[1, 1], col_records * 8 / 8);
            let v = p.kernel(&kscale, &[panel], &[padded_norm as u64], col_records);
            // Update remaining panel columns with this reflector.
            let remaining = (panel_cols - jj - 1).max(1) as u64;
            let recs = remaining * row_iters as u64;
            let dots = p.kernel(&kdot, &[panel, v[0]], &[remaining], recs);
            let _upd = p.kernel(&kaxpy, &[panel, v[0], dots[0]], &[recs * 8], recs);
            let _ = nrm;
            vs.push(v[0]);
        }

        // Trailing sweep: strips of `strip_scale * C` columns, all panel
        // reflectors applied while the strip is resident.
        let trailing = cfg.cols.saturating_sub(j0 + panel_cols);
        let strips = round_up(trailing, sc) / sc;
        for _ in 0..strips {
            let strip_words = (sc * row_iters * 8) as u64;
            // Column strips gather with the panel stride through the
            // row-major matrix (memory-access-scheduling territory).
            let mut strip = p.load_patterned(strip_words, AccessPattern::Strided);
            for &v in &vs {
                let recs = (sc * row_iters) as u64;
                let dots = p.kernel(&kdot, &[strip, v], &[sc as u64], recs);
                let upd = p.kernel(&kaxpy, &[strip, v, dots[0]], &[strip_words], recs);
                strip = upd[0];
            }
            p.store_patterned(strip, AccessPattern::Strided);
        }
        j0 += panel_cols;
    }

    AppProgram {
        name: "QRD",
        program: p.finish(),
    }
}

/// Functional unblocked Householder QR through the kernels; returns the
/// final matrix (column-major), whose upper triangle is `R`.
pub fn run_functional(cfg: &Config, clusters: usize) -> Vec<Vec<f32>> {
    let machine = Machine::paper(stream_vlsi::Shape::new(clusters as u32, 5));
    let knorm = colnorm(&machine);
    let kscale = vscale(&machine);
    let kdot = coldot(&machine);
    let kaxpy = colaxpy(&machine);
    let exec = ExecConfig::with_clusters(clusters);
    let (m, n) = (cfg.rows, cfg.cols);
    let mut a = sample_matrix(cfg, 99);

    for j in 0..n.min(m - 1) {
        let sub_rows = m - j;
        // --- colnorm over the padded column ---
        let padded = round_up(sub_rows, 8 * clusters);
        let mut col = vec![0f32; padded];
        col[..sub_rows].copy_from_slice(&a[j][j..]);
        let iters = (padded / (8 * clusters)) as i32;
        let outs = execute_with(
            &knorm,
            &ExecOptions {
                params: &[Scalar::I32(iters)],
                ..Default::default()
            },
            &[words_f32(col.clone())],
            &exec,
        )
        .expect("colnorm executes");
        let ssq = to_f32(&outs[0])[0];
        let x0 = to_f32(&outs[1])[0];
        let norm = ssq.sqrt();
        if norm < 1e-12 {
            continue;
        }
        let alpha = if x0 >= 0.0 { -norm } else { norm };
        let vnorm2 = ssq - 2.0 * alpha * x0 + alpha * alpha;
        if vnorm2 < 1e-20 {
            continue;
        }
        let inv = 1.0 / vnorm2.sqrt();

        // --- vscale ---
        let outs = execute_with(
            &kscale,
            &ExecOptions {
                params: &[Scalar::F32(alpha), Scalar::F32(inv)],
                ..Default::default()
            },
            &[words_f32(col)],
            &exec,
        )
        .expect("vscale executes");
        let v_full = to_f32(&outs[0]);
        let row8 = round_up(sub_rows, 8);
        let v: Vec<f32> = v_full[..row8.min(v_full.len())]
            .iter()
            .copied()
            .chain(std::iter::repeat(0.0))
            .take(row8)
            .collect();
        let row_iters = row8 / 8;

        // --- two-pass trailing update (columns j..n), strip-mined by C ---
        let trailing: Vec<usize> = (j..n).collect();
        for strip in trailing.chunks(clusters) {
            let mut a_stream = Vec::with_capacity(clusters * row8);
            let mut v_stream = Vec::with_capacity(clusters * row8);
            for b in 0..row_iters {
                for cc in 0..clusters {
                    for r in 0..8 {
                        let row = 8 * b + r;
                        let val = strip
                            .get(cc)
                            .and_then(|&k| a[k].get(j + row).copied())
                            .unwrap_or(0.0);
                        a_stream.push(val);
                        v_stream.push(v[row]);
                    }
                }
            }
            let douts = execute_with(
                &kdot,
                &ExecOptions {
                    params: &[Scalar::I32(row_iters as i32)],
                    ..Default::default()
                },
                &[words_f32(a_stream.clone()), words_f32(v_stream.clone())],
                &exec,
            )
            .expect("coldot executes");
            let dots = to_f32(&douts[0]);
            let uouts = execute_with(
                &kaxpy,
                &ExecOptions {
                    params: &[Scalar::I32(row_iters as i32), Scalar::F32(2.0)],
                    ..Default::default()
                },
                &[words_f32(a_stream), words_f32(v_stream), words_f32(dots)],
                &exec,
            )
            .expect("colaxpy executes");
            let updated = to_f32(&uouts[0]);
            for b in 0..row_iters {
                for (cc, &k) in strip.iter().enumerate() {
                    for r in 0..8 {
                        let row = 8 * b + r;
                        if j + row < m {
                            let idx = (b * clusters + cc) * 8 + r;
                            a[k][j + row] = updated[idx];
                        }
                    }
                }
            }
        }
    }
    a
}

/// `f64` scalar Householder QR of the same matrix; returns `R` entries
/// (column-major, full matrix with near-zero subdiagonal).
pub fn reference(cfg: &Config) -> Vec<Vec<f64>> {
    let (m, n) = (cfg.rows, cfg.cols);
    let mut a: Vec<Vec<f64>> = sample_matrix(cfg, 99)
        .into_iter()
        .map(|col| col.into_iter().map(f64::from).collect())
        .collect();
    for j in 0..n.min(m - 1) {
        let ssq: f64 = a[j][j..].iter().map(|x| x * x).sum();
        let norm = ssq.sqrt();
        if norm < 1e-300 {
            continue;
        }
        let x0 = a[j][j];
        let alpha = if x0 >= 0.0 { -norm } else { norm };
        let vnorm2 = ssq - 2.0 * alpha * x0 + alpha * alpha;
        if vnorm2 < 1e-300 {
            continue;
        }
        let inv = 1.0 / vnorm2.sqrt();
        let v: Vec<f64> = a[j][j..]
            .iter()
            .enumerate()
            .map(|(r, &x)| (if r == 0 { x - alpha } else { x }) * inv)
            .collect();
        for k in j..n {
            let dot: f64 = v.iter().zip(&a[k][j..]).map(|(vv, aa)| vv * aa).sum();
            for (r, vv) in v.iter().enumerate() {
                a[k][j + r] -= 2.0 * dot * vv;
            }
        }
    }
    a
}

/// Deterministic sample matrix, column-major.
pub fn sample_matrix(cfg: &Config, seed: u32) -> Vec<Vec<f32>> {
    let mut rng = XorShift32(seed);
    (0..cfg.cols)
        .map(|_| (0..cfg.rows).map(|_| rng.next_f32() * 2.0 - 1.0).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stream_machine::SystemParams;
    use stream_sim::simulate;
    use stream_vlsi::Shape;

    #[test]
    fn functional_r_matches_f64_reference() {
        let cfg = Config::small();
        let got = run_functional(&cfg, 8);
        let want = reference(&cfg);
        // Compare the upper triangle; signs follow the same convention, so
        // entries compare directly.
        for k in 0..cfg.cols {
            for r in 0..=k.min(cfg.rows - 1) {
                let g = f64::from(got[k][r]);
                let w = want[k][r];
                assert!(
                    (g - w).abs() < 2e-2 * (1.0 + w.abs()),
                    "R[{r},{k}]: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn functional_subdiagonal_is_annihilated() {
        let cfg = Config::small();
        let got = run_functional(&cfg, 8);
        for k in 0..cfg.cols {
            for r in (k + 1)..cfg.rows {
                assert!(
                    got[k][r].abs() < 1e-2,
                    "A[{r},{k}] = {} not annihilated",
                    got[k][r]
                );
            }
        }
    }

    #[test]
    fn frobenius_norm_is_preserved() {
        // Householder transforms are orthogonal: column norms of R match A.
        let cfg = Config::small();
        let a = sample_matrix(&cfg, 99);
        let r = run_functional(&cfg, 8);
        let na: f32 = a.iter().flatten().map(|x| x * x).sum();
        let nr: f32 = r.iter().flatten().map(|x| x * x).sum();
        assert!((na - nr).abs() < 1e-2 * na, "{na} vs {nr}");
    }

    #[test]
    fn paper_scale_program_simulates() {
        let cfg = Config::paper();
        let sys = SystemParams::paper_2007();
        for &(c, n) in &[(8u32, 5u32), (128, 10)] {
            let m = Machine::paper(Shape::new(c, n));
            let app = program(&cfg, &m);
            let r = simulate(&app.program, &m, &sys).unwrap();
            assert!(r.cycles > 0);
        }
    }

    #[test]
    fn qrd_scales_poorly() {
        // The paper's observation: QRD speedup saturates well below linear.
        let cfg = Config::paper();
        let sys = SystemParams::paper_2007();
        let small = Machine::baseline();
        let big = Machine::paper(Shape::new(128, 10));
        let rs = simulate(&program(&cfg, &small).program, &small, &sys).unwrap();
        let rb = simulate(&program(&cfg, &big).program, &big, &sys).unwrap();
        let speedup = rs.cycles as f64 / rb.cycles as f64;
        assert!(speedup > 1.2 && speedup < 10.0, "speedup {speedup}");
    }
}
