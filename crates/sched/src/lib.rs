#![warn(missing_docs)]
//! VLIW kernel scheduler for stream processors.
//!
//! Reimplements the compilation step of the paper's Section 5 methodology:
//! kernels (from `stream-ir`) are compiled for each machine configuration
//! with **iterative modulo scheduling** (software pipelining) plus a **loop
//! unrolling** search, and kernel inner-loop performance is read off the
//! resulting schedule statically — elements per cycle is
//! `unroll / initiation-interval`.
//!
//! The pipeline is:
//!
//! 1. [`Ddg::build`] — dependence graph with latencies from the machine's
//!    delay model (including the extra pipeline stages large intracluster
//!    switches impose, and the pipelined intercluster COMM latency), held
//!    in the independent verifier's graph types (`stream_verify::DepGraph`),
//! 2. [`MiiBounds::compute`] — ResMII / RecMII lower bounds,
//! 3. [`modulo_schedule`] — Rau-style iterative modulo scheduling, the one
//!    II search (upward from MII),
//! 4. [`CompiledKernel::compile_factor`] — one unroll factor's schedule
//!    under LRF register capacity and microcode-size constraints, proved by
//!    the independent verifier ([`check_schedule`]),
//! 5. [`CompiledKernel::pick`] — the fastest of the offered factors;
//!    [`CompiledKernel::compile`] runs steps 4 and 5 over a factor list.
//!
//! [`CompiledKernel::rehydrate`] skips steps 2–5 for a persisted
//! [`ScheduleRecipe`]: it rebuilds the graph and re-runs the verifier.
//!
//! # Examples
//!
//! ```
//! use stream_ir::{KernelBuilder, Ty};
//! use stream_machine::Machine;
//! use stream_sched::CompiledKernel;
//!
//! let mut b = KernelBuilder::new("axpy");
//! let xs = b.in_stream(Ty::F32);
//! let out = b.out_stream(Ty::F32);
//! let a = b.const_f(3.0);
//! let x = b.read(xs);
//! let y = b.mul(a, x);
//! b.write(out, y);
//! let kernel = b.finish()?;
//!
//! let compiled = CompiledKernel::compile_default(&kernel, &Machine::baseline())?;
//! assert!(compiled.elements_per_cycle_per_cluster() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod check;
mod ddg;
mod mii;
mod modulo;
mod perf;
mod persist;

pub use check::check_schedule;
pub use ddg::Ddg;
pub use mii::{rec_mii, res_mii, res_mii_for, MiiBounds};
pub use modulo::{modulo_schedule, ModuloSchedule};
pub use perf::{CompileOptions, CompiledKernel, ScheduleError};
pub use persist::ScheduleRecipe;
