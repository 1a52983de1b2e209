#![warn(missing_docs)]
//! Stream-level cycle simulator for stream processors.
//!
//! Reproduces the timing methodology of the paper's Section 5 application
//! evaluation: applications are [`StreamProgram`]s — host-issued sequences
//! of memory loads/stores and kernel invocations over SRF-resident streams —
//! timed by [`simulate`] against:
//!
//! * a **streaming memory system** (16 GB/s bandwidth server with 55-cycle
//!   latency),
//! * a **host channel** (2 GB/s stream-instruction issue),
//! * the **cluster array** (kernels serialize on the microcontroller; each
//!   call is costed from its compiled modulo schedule, including pipeline
//!   fill, software-pipeline priming and drain — the short-stream effects
//!   of Section 5.3),
//! * the **SRF capacity** (programs whose working set exceeds it must
//!   strip-mine; the simulator reports the overflow).
//!
//! Functional results come from executing the same kernels in the
//! `stream-ir` interpreter; this crate is deliberately timing-only, so
//! applications pair a functional pass with a timing pass over identical
//! stream structures.

mod engine;
mod program;

pub use engine::{fits_in_srf, simulate, InstrTiming, SimError, SimReport};
pub use program::{
    AccessPattern, KernelCall, ProgramBuilder, StreamInstr, StreamProgram, StreamVar,
};
