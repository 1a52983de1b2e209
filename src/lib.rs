#![warn(missing_docs)]
//! # stream-scaling
//!
//! A full reproduction of *Exploring the VLSI Scalability of Stream
//! Processors* (Khailany, Dally, Rixner, Kapasi, Owens, Towles —
//! HPCA 2003): analytical VLSI cost models, a KernelC-equivalent kernel IR
//! with a software-pipelining VLIW compiler, the paper's kernel and
//! application suites, and a stream-level cycle simulator — everything
//! needed to regenerate the paper's tables and figures.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`vlsi`] — Section 3 cost models (area/delay/energy vs `C`, `N`),
//! * [`machine`] — elaborated machine configurations and latencies,
//! * [`ir`] — the kernel dataflow IR, builder, and SIMD interpreter,
//! * [`sched`] — dependence graphs and iterative modulo scheduling,
//! * [`grid`] — the parallel sweep engine and shared compiled-kernel cache,
//! * [`kernels`] — Blocksad, Convolve, Update, FFT, Noise, Irast,
//! * [`sim`] — the stream-program timing simulator,
//! * [`apps`] — RENDER, DEPTH, CONV, QRD, FFT1K, FFT4K,
//! * [`verify`] — independent schedule verification and IR lints,
//! * [`repro`] — per-table/figure reproduction reports,
//! * [`store`] — the corruption-tolerant on-disk key/value store,
//! * [`serve`] — the `stream-serve` query daemon and its planner,
//! * [`tune`] — cost-guided per-application auto-tuning.
//!
//! Experiments run through [`repro::run_many`] (the `repro` CLI's path)
//! or [`repro::run_with`] (the `stream-serve` planner's, one experiment per
//! call); [`SpaceQuery`] and [`Metric`] ask constrained design-space
//! questions over the paper's `(C, N)` grid.
//!
//! # Examples
//!
//! ```
//! use stream_scaling::vlsi::{CostModel, Shape};
//!
//! // The paper's headline: scaling 40 -> 640 ALUs costs only a few
//! // percent in per-ALU area and energy.
//! let model = CostModel::paper();
//! let base = model.evaluate(Shape::BASELINE);
//! let big = model.evaluate(Shape::HEADLINE_640);
//! assert!(big.area.per_alu() / base.area.per_alu() < 1.08);
//! ```

pub use stream_apps as apps;
pub use stream_grid as grid;
pub use stream_ir as ir;
pub use stream_kernels as kernels;
pub use stream_machine as machine;
pub use stream_repro as repro;
pub use stream_sched as sched;
pub use stream_serve as serve;
pub use stream_sim as sim;
pub use stream_store as store;
pub use stream_tune as tune;
pub use stream_verify as verify;
pub use stream_vlsi as vlsi;

pub use stream_repro::{Constraint, Metric, SpaceAnswer, SpaceQuery};
