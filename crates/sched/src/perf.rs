//! Kernel compilation and static inner-loop performance analysis
//! (paper Section 5.1: kernels are recompiled per machine; inner-loop
//! performance is measured by static analysis of the compiled schedule).

use crate::modulo::{schedule_at_ii_memo, HeightsMemo};
use crate::{modulo_schedule, Ddg, MiiBounds, ModuloSchedule};
use std::borrow::Borrow;
use std::error::Error;
use std::fmt;
use stream_ir::{unroll, Kernel};
use stream_machine::Machine;
use stream_verify::Report;

/// `kernel` unrolled by `u`, or `None` if it cannot be unrolled that far.
pub(crate) fn unrolled(kernel: &Kernel, u: u32) -> Option<Kernel> {
    let _span = stream_trace::span("sched", "unroll");
    unroll(kernel, u).ok()
}

/// Compilation error: no legal schedule was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleError {
    /// Kernel name.
    pub kernel: String,
    /// Machine the kernel was compiled for.
    pub machine: String,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no legal modulo schedule for kernel {} on {}",
            self.kernel, self.machine
        )
    }
}

impl Error for ScheduleError {}

/// Longest schedule the microcode store holds, in VLIW instructions
/// (`r_uc = 2048`). Compiles and rehydrations reject anything longer.
const MAX_SCHEDULE_LENGTH: u32 = 2048;

/// Compilation options.
///
/// Construct with [`CompileOptions::new`] (or `Default`) and refine with the
/// chainable builder methods; the struct is `#[non_exhaustive]` so new knobs
/// can be added without breaking callers:
///
/// ```
/// use stream_sched::CompileOptions;
///
/// let opts = CompileOptions::new().without_software_pipelining();
/// assert!(!opts.software_pipelining);
/// ```
///
/// Options are cheap to hash and compare (`Hash`/`Eq`), so they can key
/// compiled-kernel caches alongside the kernel and machine identity.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CompileOptions {
    /// Unroll factors to try; the best elements/cycle wins.
    pub unroll_factors: Vec<u32>,
    /// Software pipelining (modulo scheduling). Disabling it runs each loop
    /// iteration to completion before starting the next — the ablation
    /// quantifying how much the stream methodology depends on SWP.
    pub software_pipelining: bool,
}

impl CompileOptions {
    /// Default options (same as `Default`): unroll search over 1/2/4/8,
    /// software pipelining on.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the set of unroll factors the search tries.
    #[must_use]
    pub fn unroll_factors(mut self, factors: impl Into<Vec<u32>>) -> Self {
        self.unroll_factors = factors.into();
        self
    }

    /// Sets whether software pipelining (modulo scheduling) is used.
    #[must_use]
    pub fn software_pipelining(mut self, on: bool) -> Self {
        self.software_pipelining = on;
        self
    }

    /// Disables software pipelining (the Section 5.1 ablation); equivalent
    /// to `.software_pipelining(false)`.
    #[must_use]
    pub fn without_software_pipelining(self) -> Self {
        self.software_pipelining(false)
    }
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self {
            unroll_factors: vec![1, 2, 4, 8],
            software_pipelining: true,
        }
    }
}

/// A kernel compiled for one machine: the chosen unroll factor, its modulo
/// schedule, and the static performance numbers derived from them. It
/// holds no dependence graph; [`CompiledKernel::listing`] rebuilds one.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    name: String,
    unroll: u32,
    schedule: ModuloSchedule,
    verification: Report,
    schedule_length: u32,
    registers: u32,
    base_alu_ops: u32,
    clusters: u32,
    pipeline_fill: u32,
}

impl CompiledKernel {
    /// Compiles `kernel` for `machine`: compiles each candidate unroll
    /// factor ([`CompiledKernel::compile_factor`]) and keeps the fastest
    /// legal result ([`CompiledKernel::pick`]).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if no candidate produces a legal schedule
    /// (which indicates a kernel/machine mismatch such as zero functional
    /// units — not expected for valid machines).
    pub fn compile(
        kernel: &Kernel,
        machine: &Machine,
        opts: &CompileOptions,
    ) -> Result<Self, ScheduleError> {
        let mut compile_span = stream_trace::span("sched", "compile");
        compile_span.arg("kernel", kernel.name());
        let factors = opts
            .unroll_factors
            .iter()
            .filter_map(|&u| Self::compile_factor(kernel, machine, u, opts.software_pipelining));
        let best = Self::pick(kernel, machine, factors);
        if let Ok(b) = &best {
            compile_span.arg("ii", b.schedule.ii);
            compile_span.arg("unroll", b.unroll);
        }
        best
    }

    /// Compiles `kernel` for `machine` at the single unroll factor `u`:
    /// unrolls it, builds its dependence graph, runs [`modulo_schedule`]'s
    /// II search, stretches the II to the flat schedule length when
    /// `software_pipelining` is off, deepens the II until the registers
    /// fit, and checks the result against the microcode store and the
    /// independent verifier.
    ///
    /// Returns `None` if the kernel cannot be unrolled by `u` or no legal
    /// schedule fits the machine. The result does not depend on any other
    /// factor, so callers may memoize it per factor.
    pub fn compile_factor(
        kernel: &Kernel,
        machine: &Machine,
        u: u32,
        software_pipelining: bool,
    ) -> Option<Self> {
        let mut span = stream_trace::span("sched", "factor");
        span.arg("kernel", kernel.name());
        span.arg("unroll", u);
        let ddg = Ddg::build(&unrolled(kernel, u)?, machine);
        let (mut sched, _) = modulo_schedule(&ddg, machine)?;

        // No-SWP ablation: stretch the initiation interval to the flat
        // schedule length so iterations never overlap. (Dependence and
        // resource legality are preserved: every op finishes within one
        // interval and distinct cycles stay distinct modulo the longer
        // II; the verifier below proves it.)
        if !software_pipelining {
            let flat = sched.length(&ddg).max(1);
            sched = crate::ModuloSchedule {
                ii: flat,
                times: sched.times,
            };
        }

        // Register pressure: deepen the II (less iteration overlap, so
        // fewer rotating copies) until the estimate fits the LRF
        // capacity. A flat schedule is reached at II = schedule length;
        // past that nothing improves.
        let cap = machine.register_capacity();
        let mut registers = sched.register_estimate(&ddg);
        if registers > cap {
            let _deepen = stream_trace::span("sched", "deepen");
            let mut heights = HeightsMemo::new(&ddg);
            while registers > cap {
                let next_ii = (sched.ii + sched.ii.div_ceil(4))
                    .min(sched.length(&ddg))
                    .min(MAX_SCHEDULE_LENGTH);
                if next_ii <= sched.ii {
                    break;
                }
                let Some(s) = schedule_at_ii_memo(&ddg, machine, next_ii, &mut heights) else {
                    break;
                };
                sched = s;
                registers = sched.register_estimate(&ddg);
            }
            if registers > cap {
                return None;
            }
        }

        let length = sched.length(&ddg);
        if length > MAX_SCHEDULE_LENGTH {
            return None;
        }

        // Every candidate passes the independent verifier, in every
        // build profile; a rejection is a scheduler bug.
        let verification = crate::check_schedule(&ddg, &sched, machine);
        debug_assert!(
            !verification.has_errors(),
            "scheduler produced an illegal schedule for {}:\n{verification}",
            kernel.name()
        );
        if verification.has_errors() {
            return None;
        }
        Some(CompiledKernel {
            name: kernel.name().to_string(),
            unroll: u,
            registers,
            schedule_length: length,
            schedule: sched,
            verification,
            base_alu_ops: kernel.stats().alu_ops,
            clusters: machine.clusters(),
            pipeline_fill: machine.pipeline_fill_cycles(),
        })
    }

    /// Picks the fastest of `kernel`'s compiled unroll factors on
    /// `machine`, offered in search order: a factor replaces the incumbent
    /// if it retires more than 0.01% more elements per cycle, or comes
    /// within 0.01% of it with a smaller unroll factor. Works over owned
    /// kernels and shared (`Arc`) ones alike, so a cache can pick among
    /// memoized factors without copying them.
    ///
    /// # Errors
    ///
    /// [`ScheduleError`] if `factors` is empty.
    pub fn pick<K: Borrow<Self>>(
        kernel: &Kernel,
        machine: &Machine,
        factors: impl IntoIterator<Item = K>,
    ) -> Result<K, ScheduleError> {
        let best = factors
            .into_iter()
            .fold(None, |best: Option<K>, cand| match best {
                Some(b) if !cand.borrow().beats(b.borrow()) => Some(b),
                _ => Some(cand),
            });
        let best = best.ok_or_else(|| ScheduleError {
            kernel: kernel.name().to_string(),
            machine: machine.to_string(),
        })?;
        stream_trace::record("sched.ii", u64::from(best.borrow().schedule.ii));
        Ok(best)
    }

    /// Whether this factor's compile replaces `incumbent` in
    /// [`CompiledKernel::pick`].
    fn beats(&self, incumbent: &Self) -> bool {
        let a = self.elements_per_cycle_per_cluster();
        let b = incumbent.elements_per_cycle_per_cluster();
        a > b * 1.0001 || (a > b * 0.9999 && self.unroll < incumbent.unroll)
    }

    /// Compiles with default options.
    ///
    /// # Errors
    ///
    /// As [`CompiledKernel::compile`].
    pub fn compile_default(kernel: &Kernel, machine: &Machine) -> Result<Self, ScheduleError> {
        Self::compile(kernel, machine, &CompileOptions::default())
    }

    /// The persistable essence of this compilation: unroll factor, II, and
    /// node start times (see [`crate::ScheduleRecipe`]). Everything else is
    /// re-derived deterministically at [`CompiledKernel::rehydrate`] time.
    pub fn recipe(&self) -> crate::ScheduleRecipe {
        crate::ScheduleRecipe {
            unroll: self.unroll,
            ii: self.schedule.ii,
            times: self.schedule.times.clone(),
        }
    }

    /// Reconstructs a compiled kernel from a previously persisted recipe
    /// **without running the scheduler**: it rebuilds the unrolled
    /// dependence graph and proves the recipe with one run of the
    /// independent verifier.
    ///
    /// Returns `None` — "recompile, please" — if the recipe does not fit
    /// this `(kernel, machine, opts)` triple: an unoffered unroll factor,
    /// a zero II, a wrong node count, a schedule longer than the
    /// 2048-instruction microcode store, overlapped iterations while
    /// software pipelining is disabled, a register estimate over capacity,
    /// or any error from the independent verifier (an oversubscribed slot
    /// or a violated dependence among them). A recipe accepted here yields
    /// a `CompiledKernel` indistinguishable from the one `compile` would
    /// have produced for the same inputs, because every derived field is a
    /// deterministic function of the validated parts.
    pub fn rehydrate(
        kernel: &Kernel,
        machine: &Machine,
        opts: &CompileOptions,
        recipe: &crate::ScheduleRecipe,
    ) -> Option<Self> {
        let mut span = stream_trace::span("sched", "rehydrate");
        span.arg("kernel", kernel.name());
        if recipe.ii == 0 || !opts.unroll_factors.contains(&recipe.unroll) {
            return None;
        }
        let ddg = Ddg::build(&unrolled(kernel, recipe.unroll)?, machine);
        if recipe.times.len() != ddg.nodes().len() {
            return None;
        }
        let sched = ModuloSchedule {
            ii: recipe.ii,
            times: recipe.times.clone(),
        };
        let length = sched.length(&ddg);
        if length > MAX_SCHEDULE_LENGTH {
            return None;
        }
        if !opts.software_pipelining && sched.stages() != 1 {
            return None;
        }
        let registers = sched.register_estimate(&ddg);
        if registers > machine.register_capacity() {
            return None;
        }
        let verification = crate::check_schedule(&ddg, &sched, machine);
        if verification.has_errors() {
            return None;
        }
        span.arg("ii", sched.ii);
        Some(Self {
            name: kernel.name().to_string(),
            unroll: recipe.unroll,
            registers,
            schedule_length: length,
            schedule: sched,
            verification,
            base_alu_ops: kernel.stats().alu_ops,
            clusters: machine.clusters(),
            pipeline_fill: machine.pipeline_fill_cycles(),
        })
    }

    /// Kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The unroll factor the compiler chose.
    pub fn unroll_factor(&self) -> u32 {
        self.unroll
    }

    /// The initiation interval of the software-pipelined inner loop.
    pub fn ii(&self) -> u32 {
        self.schedule.ii
    }

    /// Software-pipeline stage count.
    pub fn stages(&self) -> u32 {
        self.schedule.stages()
    }

    /// Flat schedule length (VLIW instructions for one unrolled iteration).
    pub fn schedule_length(&self) -> u32 {
        self.schedule_length
    }

    /// Estimated registers live per cluster.
    pub fn registers(&self) -> u32 {
        self.registers
    }

    /// Stream records processed per cycle per cluster in steady state —
    /// the paper's kernel inner-loop performance metric.
    pub fn elements_per_cycle_per_cluster(&self) -> f64 {
        f64::from(self.unroll) / f64::from(self.schedule.ii)
    }

    /// ALU operations per cycle per cluster in steady state.
    pub fn alu_ops_per_cycle_per_cluster(&self) -> f64 {
        f64::from(self.base_alu_ops) * self.elements_per_cycle_per_cluster()
    }

    /// Machine-wide ALU operations per cycle in steady state (GOPS at
    /// 1 GHz).
    pub fn alu_ops_per_cycle(&self) -> f64 {
        f64::from(self.clusters) * self.alu_ops_per_cycle_per_cluster()
    }

    /// Machine-wide records per cycle in steady state.
    pub fn elements_per_cycle(&self) -> f64 {
        f64::from(self.clusters) * self.elements_per_cycle_per_cluster()
    }

    /// Cycles for one kernel invocation over `records` stream records —
    /// including the per-call overheads that produce the paper's short-
    /// stream effects (Section 5.3): microcontroller/cluster pipeline fill
    /// and software-pipeline priming, plus the drain of the last iteration.
    pub fn call_cycles(&self, records: u64) -> u64 {
        let per_call = u64::from(self.unroll) * u64::from(self.clusters);
        let iterations = records.div_ceil(per_call).max(1);
        u64::from(self.pipeline_fill)
            + (iterations - 1) * u64::from(self.schedule.ii)
            + u64::from(self.schedule_length)
    }

    /// Steady-state-only cycles for `records` (no per-call overhead); the
    /// denominator of kernel inner-loop speedup comparisons.
    pub fn inner_loop_cycles(&self, records: u64) -> u64 {
        let per_call = u64::from(self.unroll) * u64::from(self.clusters);
        records.div_ceil(per_call).max(1) * u64::from(self.schedule.ii)
    }

    /// The modulo schedule itself.
    pub fn schedule(&self) -> &ModuloSchedule {
        &self.schedule
    }

    /// The independent verifier's report on this schedule: the one it
    /// passed at compile or rehydration time. It holds no errors (a
    /// schedule with errors is never built) but may hold warnings.
    pub fn verification(&self) -> &Report {
        &self.verification
    }

    /// Human-readable VLIW listing of the steady-state kernel: a header
    /// with the II bounds, then one line per modulo slot showing the
    /// operations issued there, each tagged with its value id and
    /// software-pipeline stage. `kernel` and `machine` are the ones this
    /// kernel was compiled from; the listing rebuilds their dependence
    /// graph and derives the bounds from it.
    ///
    /// # Panics
    ///
    /// If `kernel` cannot be unrolled by this kernel's unroll factor or its
    /// unrolled graph has a different node count than the schedule — that
    /// is, if it is not the kernel this schedule was compiled from.
    ///
    /// # Examples
    ///
    /// Printing a compiled kernel's listing shows how the scheduler packed
    /// the functional units:
    ///
    /// ```
    /// use stream_ir::{KernelBuilder, Ty};
    /// use stream_machine::Machine;
    /// use stream_sched::CompiledKernel;
    ///
    /// let mut b = KernelBuilder::new("double");
    /// let s = b.in_stream(Ty::I32);
    /// let o = b.out_stream(Ty::I32);
    /// let x = b.read(s);
    /// let y = b.add(x, x);
    /// b.write(o, y);
    /// let kernel = b.finish()?;
    /// let machine = Machine::baseline();
    /// let c = CompiledKernel::compile_default(&kernel, &machine)?;
    /// let listing = c.listing(&kernel, &machine);
    /// assert!(listing.contains("slot"));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn listing(&self, kernel: &Kernel, machine: &Machine) -> String {
        use std::fmt::Write as _;
        let unrolled = unrolled(kernel, self.unroll).expect("listing: kernel does not unroll");
        let ddg = Ddg::build(&unrolled, machine);
        assert_eq!(
            ddg.nodes().len(),
            self.schedule.times.len(),
            "listing: {} is not the kernel this schedule was compiled from",
            kernel.name()
        );
        let bounds = MiiBounds::compute(&ddg, machine);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} II={} unroll=x{} stages={} (ResMII={}, RecMII={})",
            self.name,
            self.schedule.ii,
            self.unroll,
            self.stages(),
            bounds.res_mii,
            bounds.rec_mii
        );
        for slot in 0..self.schedule.ii {
            let mut ops: Vec<String> = Vec::new();
            let nodes = ddg.nodes().iter().zip(ddg.values());
            for ((node, value), &t) in nodes.zip(&self.schedule.times) {
                if t % self.schedule.ii == slot {
                    ops.push(format!(
                        "{}[{}]@s{}",
                        node.class,
                        value,
                        t / self.schedule.ii
                    ));
                }
            }
            let _ = writeln!(out, "  slot {slot:>3}: {}", ops.join("  "));
        }
        out
    }
}

impl fmt::Display for CompiledKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: II={} x{} ({} stages, {} regs, {:.3} elem/cycle/cluster)",
            self.name,
            self.schedule.ii,
            self.unroll,
            self.stages(),
            self.registers,
            self.elements_per_cycle_per_cluster()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScheduleRecipe;
    use stream_ir::{KernelBuilder, Scalar, Ty};
    use stream_verify::Code;
    use stream_vlsi::Shape;

    fn mul_add_kernel(n_pairs: usize) -> Kernel {
        // Independent multiply-adds: pure DLP, unrolls cleanly.
        let mut b = KernelBuilder::new("fma_chain");
        let s = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::F32);
        let x = b.read(s);
        let mut acc = b.mul(x, x);
        for _ in 0..n_pairs {
            let m = b.mul(x, x);
            acc = b.add(acc, m);
        }
        b.write(out, acc);
        b.finish().unwrap()
    }

    #[test]
    fn compile_reaches_resource_bound() {
        let k = mul_add_kernel(7); // 15 ALU ops
        let m = Machine::baseline();
        let c = CompiledKernel::compile_default(&k, &m).unwrap();
        // 15 ALU ops over 5 ALUs: 3 cycles per element, give or take
        // rounding from the chosen unroll.
        let e = c.elements_per_cycle_per_cluster();
        assert!(e > 0.3 && e <= 0.34, "elements/cycle = {e}");
    }

    #[test]
    fn unrolling_smooths_ceiling_effects() {
        // 6 ALU ops over 5 ALUs: unrolled x4 -> 24 ops over 5 ALUs ~ II 5,
        // 0.8 elem/cycle vs 0.5 without unrolling.
        let mut b = KernelBuilder::new("six");
        let s = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::F32);
        let x = b.read(s);
        let a = b.add(x, x);
        let b2 = b.add(x, x);
        let c2 = b.add(x, x);
        let d = b.mul(a, b2);
        let e = b.mul(c2, x);
        let f = b.add(d, e);
        b.write(out, f);
        let k = b.finish().unwrap();
        let m = Machine::baseline();
        let c = CompiledKernel::compile_default(&k, &m).unwrap();
        assert!(c.unroll_factor() > 1);
        assert!(c.elements_per_cycle_per_cluster() > 0.5);
    }

    #[test]
    fn speedup_with_more_alus_is_near_linear() {
        let k = mul_add_kernel(29); // 59 ALU ops, convolve-ish
        let m2 = Machine::paper(Shape::new(8, 2));
        let m5 = Machine::paper(Shape::new(8, 5));
        let m10 = Machine::paper(Shape::new(8, 10));
        let p = |m: &Machine| {
            CompiledKernel::compile_default(&k, m)
                .unwrap()
                .elements_per_cycle_per_cluster()
        };
        let (p2, p5, p10) = (p(&m2), p(&m5), p(&m10));
        assert!(p5 / p2 > 2.0 && p5 / p2 < 3.0, "5v2 {}", p5 / p2);
        assert!(p10 / p5 > 1.6 && p10 / p5 <= 2.05, "10v5 {}", p10 / p5);
    }

    #[test]
    fn accumulator_limits_unrolling_gains() {
        // True loop-carried sum: unrolled copies chain, RecMII grows with U,
        // so elements/cycle saturates at 1/latency regardless of N.
        let mut b = KernelBuilder::new("reduce");
        let s = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::F32);
        let acc = b.recurrence(Scalar::F32(0.0));
        let x = b.read(s);
        let sum = b.add(acc, x);
        b.bind_next(acc, sum);
        b.write(out, sum);
        let k = b.finish().unwrap();
        let m = Machine::paper(Shape::new(8, 10));
        let c = CompiledKernel::compile_default(&k, &m).unwrap();
        // fadd latency 4: at best 1 element per 4 cycles regardless of U.
        assert!(c.elements_per_cycle_per_cluster() <= 0.26);
    }

    #[test]
    fn call_cycles_include_overheads() {
        let k = mul_add_kernel(7);
        let m = Machine::baseline();
        let c = CompiledKernel::compile_default(&k, &m).unwrap();
        let short = c.call_cycles(8);
        let long = c.call_cycles(8000);
        // Long calls amortize: per-record cost much lower.
        let short_per = short as f64 / 8.0;
        let long_per = long as f64 / 8000.0;
        assert!(short_per > 5.0 * long_per);
        // Inner-loop cycles exclude the fixed overheads.
        assert!(c.inner_loop_cycles(8000) < c.call_cycles(8000));
    }

    #[test]
    fn gops_scale_with_clusters() {
        let k = mul_add_kernel(7);
        let c8 = CompiledKernel::compile_default(&k, &Machine::paper(Shape::new(8, 5))).unwrap();
        let c64 = CompiledKernel::compile_default(&k, &Machine::paper(Shape::new(64, 5))).unwrap();
        let ratio = c64.alu_ops_per_cycle() / c8.alu_ops_per_cycle();
        assert!((ratio - 8.0).abs() < 0.75, "ratio {ratio}");
    }

    #[test]
    fn disabling_software_pipelining_costs_throughput() {
        // A latency-dominated chain: SWP hides the latency by overlapping
        // iterations; without it, throughput collapses to 1/makespan.
        let k = mul_add_kernel(7);
        let m = Machine::baseline();
        let swp = CompiledKernel::compile_default(&k, &m).unwrap();
        let flat =
            CompiledKernel::compile(&k, &m, &CompileOptions::new().without_software_pipelining())
                .unwrap();
        assert!(flat.ii() >= flat.stages() * swp.ii());
        assert!(
            swp.elements_per_cycle_per_cluster() > 2.0 * flat.elements_per_cycle_per_cluster(),
            "SWP {} vs flat {}",
            swp.elements_per_cycle_per_cluster(),
            flat.elements_per_cycle_per_cluster()
        );
        // The flat schedule is still legal: one stage, nothing overlaps.
        assert_eq!(flat.stages(), 1);
    }

    #[test]
    fn compile_options_builder_chains_and_hashes() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let opts = CompileOptions::new()
            .unroll_factors([1, 2])
            .without_software_pipelining();
        assert_eq!(opts.unroll_factors, vec![1, 2]);
        assert!(!opts.software_pipelining);
        let hash = |o: &CompileOptions| {
            let mut h = DefaultHasher::new();
            o.hash(&mut h);
            h.finish()
        };
        assert_eq!(
            hash(&CompileOptions::new()),
            hash(&CompileOptions::default())
        );
        assert_ne!(hash(&opts), hash(&CompileOptions::new()));
    }

    #[test]
    fn single_factor_compile_matches_the_search_pick() {
        // Offering only the factor the full search picked reproduces the
        // search's result bit for bit: a factor's compile never depends on
        // the other factors offered.
        let k = mul_add_kernel(7);
        for m in [Machine::baseline(), Machine::paper(Shape::new(8, 5))] {
            let full = CompiledKernel::compile_default(&k, &m).unwrap();
            let opts = CompileOptions::new().unroll_factors([full.unroll_factor()]);
            let alone = CompiledKernel::compile(&k, &m, &opts).unwrap();
            assert_eq!(alone.listing(&k, &m), full.listing(&k, &m));
            assert_eq!(alone.recipe(), full.recipe());
            assert_eq!(alone.registers(), full.registers());
            assert_eq!(alone.schedule_length(), full.schedule_length());
        }
    }

    #[test]
    fn factor_compiles_meet_their_mii_and_feed_the_pick() {
        let k = mul_add_kernel(7);
        let m = Machine::baseline();
        let factors: Vec<CompiledKernel> = [1, 2, 4, 8]
            .iter()
            .map(|&u| CompiledKernel::compile_factor(&k, &m, u, true).unwrap())
            .collect();
        let bounds: Vec<MiiBounds> = factors
            .iter()
            .zip([1, 2, 4, 8])
            .map(|(c, u)| {
                let unrolled = unroll(&k, u).unwrap();
                let bounds = MiiBounds::compute(&Ddg::build(&unrolled, &m), &m);
                assert!(c.ii() >= bounds.mii());
                assert!(!c.verification().has_errors());
                bounds
            })
            .collect();
        assert!(bounds[2].mii() >= bounds[0].mii());
        // Picking among the factor compiles is the full search.
        let picked = CompiledKernel::pick(&k, &m, &factors).unwrap();
        let full = CompiledKernel::compile_default(&k, &m).unwrap();
        assert_eq!(picked.recipe(), full.recipe());
        let none: [CompiledKernel; 0] = [];
        assert!(CompiledKernel::pick(&k, &m, none).is_err());
    }

    #[test]
    fn pick_prefers_the_smaller_factor_inside_the_tie_band() {
        // Factor 4's compile and a copy relabelled as factor 8 at twice
        // the II retire exactly the same elements per cycle; the smaller
        // factor wins whichever is offered first.
        let mut b = KernelBuilder::new("six");
        let s = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::F32);
        let x = b.read(s);
        let a = b.add(x, x);
        let b2 = b.add(x, x);
        let c2 = b.add(x, x);
        let d = b.mul(a, b2);
        let e = b.mul(c2, x);
        let f = b.add(d, e);
        b.write(out, f);
        let k = b.finish().unwrap();
        let m = Machine::baseline();
        let x4 = CompiledKernel::compile_factor(&k, &m, 4, true).unwrap();
        let mut x8 = x4.clone();
        x8.unroll *= 2;
        x8.schedule.ii *= 2;
        assert_eq!(
            x8.elements_per_cycle_per_cluster(),
            x4.elements_per_cycle_per_cluster()
        );
        for order in [[&x4, &x8], [&x8, &x4]] {
            let picked = CompiledKernel::pick(&k, &m, order).unwrap();
            assert_eq!(picked.unroll_factor(), 4);
        }
    }

    #[test]
    fn display_mentions_ii() {
        let k = mul_add_kernel(3);
        let m = Machine::baseline();
        let c = CompiledKernel::compile_default(&k, &m).unwrap();
        assert!(c.to_string().contains("II="));
    }

    #[test]
    fn rehydrate_reproduces_the_fresh_compile() {
        let k = mul_add_kernel(7);
        let m = Machine::paper(Shape::new(8, 5));
        let opts = CompileOptions::new();
        let fresh = CompiledKernel::compile(&k, &m, &opts).unwrap();
        let recipe = fresh.recipe();
        let warm = CompiledKernel::rehydrate(&k, &m, &opts, &recipe)
            .expect("recipe from a fresh compile must rehydrate");
        assert_eq!(warm.ii(), fresh.ii());
        assert_eq!(warm.unroll_factor(), fresh.unroll_factor());
        assert_eq!(warm.registers(), fresh.registers());
        assert_eq!(warm.schedule_length(), fresh.schedule_length());
        assert_eq!(warm.listing(&k, &m), fresh.listing(&k, &m));
        assert_eq!(warm.verification(), fresh.verification());
        // And the codec roundtrip survives the disk-byte boundary.
        let decoded = crate::ScheduleRecipe::decode(&recipe.encode()).unwrap();
        assert!(CompiledKernel::rehydrate(&k, &m, &opts, &decoded).is_some());
    }

    #[test]
    fn rehydrate_rejects_bogus_recipes() {
        let k = mul_add_kernel(7);
        let m = Machine::baseline();
        let opts = CompileOptions::new();
        let good = CompiledKernel::compile(&k, &m, &opts).unwrap().recipe();

        // Wrong node count (recipe for a different unroll of the kernel).
        let mut short = good.clone();
        short.times.pop();
        assert!(CompiledKernel::rehydrate(&k, &m, &opts, &short).is_none());

        // Dependence-violating times: every op at cycle 0 cannot be legal
        // for a kernel with multiply feeding add.
        let flat = ScheduleRecipe {
            unroll: good.unroll,
            ii: good.ii,
            times: vec![0; good.times.len()],
        };
        assert!(CompiledKernel::rehydrate(&k, &m, &opts, &flat).is_none());

        // An oversubscribed slot and no other fault: one op moved into a
        // modulo slot where its unit kind is already full, every dependence
        // still met. Only the independent verifier rejects this one.
        let ddg = Ddg::build(&unroll(&k, good.unroll).unwrap(), &m);
        let crowded = (0..good.times.len())
            .flat_map(|v| (1..good.ii).map(move |d| (v, d)))
            .map(|(v, d)| {
                let mut times = good.times.clone();
                times[v] += d;
                ScheduleRecipe {
                    times,
                    ..good.clone()
                }
            })
            .find(|r| {
                let report = stream_verify::verify_schedule(ddg.graph(), r.ii, &r.times, &m);
                report.has(Code::SlotOversubscribed)
                    && report.count(Code::SlotOversubscribed) == report.diagnostics().len()
            })
            .expect("the scheduler packs some slot full");
        assert!(CompiledKernel::rehydrate(&k, &m, &opts, &crowded).is_none());

        // Zero II and unlisted unroll factors are structurally invalid.
        let zero = ScheduleRecipe {
            ii: 0,
            ..good.clone()
        };
        assert!(CompiledKernel::rehydrate(&k, &m, &opts, &zero).is_none());
        let alien = ScheduleRecipe {
            unroll: 1000,
            ..good.clone()
        };
        assert!(CompiledKernel::rehydrate(&k, &m, &opts, &alien).is_none());

        // The microcode store bounds the schedule length. Delaying every
        // node by whole IIs keeps the schedule legal (same dependences, same
        // modulo slots); one II of delay still rehydrates, a delay past
        // `MAX_SCHEDULE_LENGTH` does not.
        let delayed = |iis: u32| ScheduleRecipe {
            times: good.times.iter().map(|t| t + iis * good.ii).collect(),
            ..good.clone()
        };
        assert!(CompiledKernel::rehydrate(&k, &m, &opts, &delayed(1)).is_some());
        let past_store = MAX_SCHEDULE_LENGTH.div_ceil(good.ii);
        assert!(CompiledKernel::rehydrate(&k, &m, &opts, &delayed(past_store)).is_none());
        // A delay that carries the schedule's end past `u32::MAX` is past
        // the store too, not a short schedule that wrapped around.
        let last = good.times.iter().copied().max().unwrap();
        let top = (u32::MAX - last) / good.ii;
        assert!(CompiledKernel::rehydrate(&k, &m, &opts, &delayed(top)).is_none());
    }
}
