#![warn(missing_docs)]
//! Kernel dataflow IR for stream processors — the KernelC equivalent.
//!
//! A [`Kernel`] is the body of one stream-program kernel's inner loop: a
//! straight-line SSA dataflow graph executed SIMD across all `C` arithmetic
//! clusters, reading input streams, writing output streams, and using
//! per-cluster scratchpads, intercluster COMM operations, conditional
//! streams, and loop-carried recurrences.
//!
//! Three things can be done with a kernel:
//!
//! * **build** it with the type-checked [`KernelBuilder`],
//! * **run** it functionally with [`execute`] (this crate's SIMD
//!   interpreter),
//! * **schedule** it for a machine with the `stream-sched` crate, which
//!   consumes the op list, [`Kernel::stream_access_order`], and
//!   [`Kernel::recurrences`].
//!
//! Per-iteration operation statistics ([`Kernel::stats`]) reproduce the
//! paper's Table 2 measurements.
//!
//! # Examples
//!
//! ```
//! use stream_ir::{execute, ExecConfig, KernelBuilder, Scalar, Ty};
//!
//! // A kernel computing out[i] = max(a[i], b[i]).
//! let mut b = KernelBuilder::new("max");
//! let xs = b.in_stream(Ty::I32);
//! let ys = b.in_stream(Ty::I32);
//! let out = b.out_stream(Ty::I32);
//! let x = b.read(xs);
//! let y = b.read(ys);
//! let m = b.max(x, y);
//! b.write(out, m);
//! let kernel = b.finish()?;
//!
//! let xs: Vec<Scalar> = vec![Scalar::I32(1), Scalar::I32(9)];
//! let ys: Vec<Scalar> = vec![Scalar::I32(5), Scalar::I32(3)];
//! let outs = execute(&kernel, &[], &[xs, ys], &ExecConfig::with_clusters(2))?;
//! assert_eq!(outs[0], vec![Scalar::I32(5), Scalar::I32(9)]);
//! # Ok::<(), stream_ir::IrError>(())
//! ```

// Per-cluster SIMD evaluation indexes several parallel arrays by the
// cluster id; iterator rewrites would obscure that.
#![allow(clippy::needless_range_loop)]

mod error;
mod interp;
mod kernel;
mod op;
mod scalar;
mod transform;

pub use error::IrError;
pub use interp::{execute, execute_iters, execute_with, infer_iterations, ExecConfig, ExecOptions};
pub use kernel::{Kernel, KernelBuilder, KernelStats, StreamDecl};
pub use op::{Op, Opcode, StreamDir, StreamId, ValueId};
pub use scalar::{Scalar, Ty};
pub use transform::unroll;
