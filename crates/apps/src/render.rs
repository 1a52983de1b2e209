//! RENDER: polygon rendering of a bowling pin with a procedural marble
//! shader (Table 4).
//!
//! The pipeline chains five kernels: `transform` (vertex geometry), `irast`
//! (span expansion through conditional streams), `decode_frag`,
//! `noise` (the Perlin marble shader), and `blend` (depth attenuation).
//! The scene is a procedurally generated bowling-pin silhouette — span
//! setup between transform and rasterization runs on the host, a documented
//! substitution (see DESIGN.md). Stream lengths are set by the scene's
//! triangle/fragment counts, which dwarf `C` — why RENDER scales so well in
//! the paper's Figure 15.

use crate::kernels::{blend, blend_reference, decode_frag, decode_frag_reference, transform};
use crate::AppProgram;
use stream_ir::{execute, execute_with, ExecConfig, ExecOptions, Scalar};
use stream_kernels::irast::{self, Span};
use stream_kernels::noise;
use stream_kernels::util::{to_f32, to_i32, words_f32, words_i32};
use stream_machine::Machine;
use stream_sim::ProgramBuilder;

/// RENDER configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Scanlines of the pin silhouette.
    pub scanlines: usize,
    /// Triangles in the model (vertex-stream length is three per triangle).
    pub triangles: usize,
}

impl Config {
    /// The paper-scale scene: a pin of 512 scanlines, ~2k triangles.
    pub fn paper() -> Self {
        Self {
            scanlines: 512,
            triangles: 2048,
        }
    }

    /// Reduced size for functional tests.
    pub fn small() -> Self {
        Self {
            scanlines: 24,
            triangles: 64,
        }
    }
}

/// Depth-attenuation coefficient of the blend kernel.
pub const BLEND_K: f32 = 0.02;

/// The procedural bowling-pin spans: for each scanline, spans of at most
/// [`irast::STEPS`] pixels covering the pin's silhouette at that height.
pub fn pin_spans(cfg: &Config) -> Vec<Span> {
    let mut spans = Vec::new();
    let h = cfg.scanlines as f32;
    for y in 0..cfg.scanlines {
        let t = y as f32 / h;
        // A pin-ish profile: wide body, narrow neck, bulbous head.
        let profile =
            0.18 + 0.65 * (1.0 - t) * t * 2.0 + 0.35 * (-((t - 0.82) * 6.0).powi(2)).exp();
        let half = (profile * 120.0).max(1.0) as i32;
        let cx = 512i32;
        let mut x = cx - half;
        while x < cx + half {
            let width = (cx + half - x).min(irast::STEPS as i32);
            spans.push(Span {
                x0: x,
                width,
                y: y as i32,
                color: (y % 7) as i32,
                z0: 10.0 + 20.0 * t + 0.01 * (x - cx) as f32,
                dzdx: 0.01,
            });
            x += width;
        }
    }
    spans
}

/// Procedural vertex soup for the transform stage (three vertices per
/// triangle).
pub fn pin_vertices(cfg: &Config) -> Vec<(f32, f32, f32)> {
    (0..3 * cfg.triangles)
        .map(|i| {
            let t = i as f32 / (3 * cfg.triangles) as f32;
            (
                (t * 37.0).sin() * 30.0,
                t * 200.0,
                40.0 + (t * 17.0).cos() * 10.0,
            )
        })
        .collect()
}

/// The viewing transform used by the program and references.
pub fn view_matrix() -> ([f32; 12], f32) {
    (
        [
            1.0, 0.0, 0.1, 0.0, //
            0.0, 1.0, 0.0, -100.0, //
            0.0, 0.05, 1.0, 5.0,
        ],
        64.0,
    )
}

fn pad_to_multiple(mut v: Vec<Scalar>, m: usize, fill: Scalar) -> Vec<Scalar> {
    while !v.len().is_multiple_of(m) {
        v.push(fill);
    }
    v
}

/// Builds the RENDER stream program for `machine`.
pub fn program(cfg: &Config, machine: &Machine) -> AppProgram {
    program_with(cfg, machine, &stream_sched::CompileOptions::default(), 1)
}

/// [`program`] with explicit scheduler options and a strip-batching factor:
/// `strip_scale` multiplies the SRF-fitted span batch (larger batches trade
/// SRF slack for fewer pipeline fills; infeasible sizes are rejected by the
/// simulator's residency check). `strip_scale = 1` with default options is
/// exactly [`program`].
pub fn program_with(
    cfg: &Config,
    machine: &Machine,
    opts: &stream_sched::CompileOptions,
    strip_scale: u32,
) -> AppProgram {
    let _span = stream_trace::span("apps", "program");
    let ktrans = crate::compile_cached_opts(&transform(machine), machine, opts, "transform");
    let kirast = crate::compile_cached_opts(&irast::kernel(machine), machine, opts, "irast");
    let kdecode = crate::compile_cached_opts(&decode_frag(machine), machine, opts, "decode");
    let knoise = crate::compile_cached_opts(&noise::kernel(machine), machine, opts, "noise");
    let kblend = crate::compile_cached_opts(&blend(machine), machine, opts, "blend");

    let spans = pin_spans(cfg);
    let n_verts = (3 * cfg.triangles) as u64;

    let mut p = ProgramBuilder::new();
    // Geometry.
    let vx = p.load(n_verts);
    let vy = p.load(n_verts);
    let vz = p.load(n_verts);
    // The transformed vertices feed host-side span setup (a documented
    // substitution); they are consumed from the SRF, not stored.
    let _screen = p.kernel(
        &ktrans,
        &[vx, vy, vz],
        &[n_verts, n_verts, n_verts],
        n_verts,
    );

    // Rasterize/shade/blend in span batches sized to the SRF: a batch of S
    // spans holds ~6S span words plus ~7 fragment-sized streams in flight.
    let mut batch = 4096usize;
    while batch > 64
        && !stream_sim::fits_in_srf(machine, (6 + 7 * irast::STEPS) as u64 * batch as u64, 0.4)
    {
        batch /= 2;
    }
    // The tuner can trade the remaining SRF slack for fewer, larger batches;
    // sizes that no longer fit fail the simulator's residency check and the
    // candidate is discarded there.
    batch = batch.saturating_mul(strip_scale.max(1) as usize);
    for chunk in spans.chunks(batch) {
        let n_spans = chunk.len() as u64;
        let n_frags: u64 = chunk.iter().map(|s| s.width as u64).sum();
        // 16-bit span fields pack two to a word in memory; fragment colors
        // store packed as well (see DESIGN.md substitutions).
        let ints = p.load(4 * n_spans / 2);
        let floats = p.load(2 * n_spans);
        let rast = p.kernel(&kirast, &[ints, floats], &[n_frags, n_frags], n_spans);
        let coords = p.kernel(&kdecode, &[rast[0]], &[n_frags, n_frags], n_frags);
        let shade = p.kernel(&knoise, &[coords[0], coords[1]], &[n_frags], n_frags);
        let color = p.kernel(
            &kblend,
            &[shade[0], rast[1]],
            &[n_frags.div_ceil(2)],
            n_frags,
        );
        p.store(color[0]);
    }

    AppProgram {
        name: "RENDER",
        program: p.finish(),
    }
}

/// Functional end-to-end RENDER; returns the blended fragment colors.
pub fn run_functional(cfg: &Config, clusters: usize) -> Vec<f32> {
    let machine = Machine::paper(stream_vlsi::Shape::new(clusters as u32, 5));
    let exec = ExecConfig::with_clusters(clusters);
    let spans = pin_spans(cfg);

    // Transform (result feeds host-side span setup; computed for fidelity).
    let verts = pin_vertices(cfg);
    let (mat, focal) = view_matrix();
    let mut tparams: Vec<Scalar> = mat.iter().map(|&v| Scalar::F32(v)).collect();
    tparams.push(Scalar::F32(focal));
    let vx = pad_to_multiple(
        words_f32(verts.iter().map(|v| v.0)),
        clusters,
        Scalar::F32(0.0),
    );
    let vy = pad_to_multiple(
        words_f32(verts.iter().map(|v| v.1)),
        clusters,
        Scalar::F32(0.0),
    );
    let vz = pad_to_multiple(
        words_f32(verts.iter().map(|v| v.2)),
        clusters,
        Scalar::F32(1.0),
    );
    let _screen =
        execute(&transform(&machine), &tparams, &[vx, vy, vz], &exec).expect("transform executes");

    // Rasterize (pad span records to a SIMD strip).
    let mut padded = spans.clone();
    while !padded.len().is_multiple_of(clusters) {
        padded.push(Span {
            x0: 0,
            width: 0,
            y: 0,
            color: 0,
            z0: 0.0,
            dzdx: 0.0,
        });
    }
    let rast = execute(
        &irast::kernel(&machine),
        &[],
        &irast::input_streams(&padded),
        &exec,
    )
    .expect("irast executes");
    let frags = to_i32(&rast[0]);
    let depth = to_f32(&rast[1]);

    // Decode / shade / blend (pad fragment streams to a strip).
    let packed = pad_to_multiple(words_i32(frags.clone()), clusters, Scalar::I32(0));
    let coords = execute(&decode_frag(&machine), &[], &[packed], &exec).expect("decode executes");
    let sp = noise::sp_init();
    let shade = execute_with(
        &noise::kernel(&machine),
        &ExecOptions {
            params: &[],
            sp_init: Some(&sp),
            iterations: None,
        },
        &[coords[0].clone(), coords[1].clone()],
        &exec,
    )
    .expect("noise executes");
    let zpad = pad_to_multiple(words_f32(depth.clone()), clusters, Scalar::F32(0.0));
    let blended = execute(
        &blend(&machine),
        &[Scalar::F32(BLEND_K)],
        &[shade[0].clone(), zpad],
        &exec,
    )
    .expect("blend executes");
    to_f32(&blended[0])[..frags.len()].to_vec()
}

/// Scalar reference for [`run_functional`].
pub fn reference(cfg: &Config, clusters: usize) -> Vec<f32> {
    let spans = pin_spans(cfg);
    let mut padded = spans;
    while !padded.len().is_multiple_of(clusters) {
        padded.push(Span {
            x0: 0,
            width: 0,
            y: 0,
            color: 0,
            z0: 0.0,
            dzdx: 0.0,
        });
    }
    let frags = irast::reference(&padded, clusters);
    let packed: Vec<i32> = frags.iter().map(|f| f.packed).collect();
    let depth: Vec<f32> = frags.iter().map(|f| f.z).collect();
    let coords = decode_frag_reference(&packed);
    let xs: Vec<f32> = coords.iter().map(|c| c.0).collect();
    let ys: Vec<f32> = coords.iter().map(|c| c.1).collect();
    let shade = noise::reference(&xs, &ys);
    blend_reference(&shade, &depth, BLEND_K)
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
        let got = run_functional(&cfg, 8);
        let want = reference(&cfg, 8);
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                (g - w).abs() < 1e-3 * (1.0 + w.abs()),
                "frag {i}: {g} vs {w}"
            );
        }
    }

    #[test]
    fn pin_has_plausible_fragment_counts() {
        let cfg = Config::paper();
        let spans = pin_spans(&cfg);
        let frags: i64 = spans.iter().map(|s| i64::from(s.width)).sum();
        assert!(spans.len() > 3_000, "spans {}", spans.len());
        assert!(frags > 10_000, "frags {frags}");
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
    fn render_scales_very_well() {
        // Paper: 20.5x at C=128 N=10. Long fragment streams, all kernels.
        let cfg = Config::paper();
        let sys = SystemParams::paper_2007();
        let small = Machine::baseline();
        let big = Machine::paper(Shape::new(128, 10));
        let rs = simulate(&program(&cfg, &small).program, &small, &sys).unwrap();
        let rb = simulate(&program(&cfg, &big).program, &big, &sys).unwrap();
        let speedup = rs.cycles as f64 / rb.cycles as f64;
        assert!(speedup > 6.0, "speedup {speedup}");
    }
}
