//! The systolic RLE image-difference engine — the primary contribution of
//! *"A Systolic Algorithm to Process Compressed Binary Images"* (Ercal,
//! Allen & Feng, IPPS 1999), reproduced as a cycle-accurate simulator.
//!
//! # The machine
//!
//! A linear array of cells, each holding two run registers (`RegSmall`,
//! `RegBig`). The first image's runs are loaded into the `RegSmall` chain,
//! the second image's runs into the `RegBig` chain. Every synchronous
//! iteration each cell executes three steps:
//!
//! 1. **order** — put the smaller run (by start, then end) into `RegSmall`;
//!    a lone `RegBig` run moves into `RegSmall`;
//! 2. **xor** — combine the cell's two runs with the paper's
//!    register-transfer formulas (overlap annihilates, the symmetric
//!    difference's prefix stays in `RegSmall`, its suffix in `RegBig`);
//! 3. **shift** — every `RegBig` moves one cell to the right.
//!
//! Cells with an empty `RegBig` raise a *complete* signal; when all cells
//! raise it the controller broadcasts *finish* and the `RegSmall` chain
//! holds the XOR of the two inputs — ordered and non-overlapping (Theorem
//! 2), after at most `k1 + k2` iterations (Theorem 1), equal to the true
//! bitwise difference (Theorem 3).
//!
//! # Entry points
//!
//! * [`SystolicArray`] — load, step, inspect and extract; the simulator keeps
//!   per-iteration statistics and can record a Figure-3-style [`trace`].
//! * [`systolic_xor`] — one-call convenience for a row pair.
//! * [`engine::parallel`] — a barrier-synchronised multi-threaded engine
//!   that executes the very same machine (bit-identical results, asserted in
//!   tests) for large arrays.
//! * [`engine::pipeline`] — a persistent worker pool diffing whole images
//!   row by row (the service-shaped front-end).
//! * [`image`] — whole-image differencing, optionally parallel across rows.
//! * [`bus`] — the broadcast-bus extension the paper sketches as future
//!   work, quantifying how many shift iterations a bus would save.
//! * [`coalesce`] — the §6 run-coalescing pass (pure systolic vs.
//!   bus-assisted), the paper's second future-work item.
//! * [`stripes`] — exact stripe decomposition, fitting unbounded row widths
//!   onto fixed-size arrays.
//! * [`datapath`] — a transparent per-cell hardware cost model.
//!
//! ```
//! use rle::RleRow;
//!
//! let a = RleRow::from_pairs(32, &[(10, 3), (16, 2), (23, 2), (27, 3)]).unwrap();
//! let b = RleRow::from_pairs(32, &[(3, 4), (8, 5), (15, 5), (23, 2), (27, 4)]).unwrap();
//! let (diff, stats) = systolic_core::systolic_xor(&a, &b).unwrap();
//! assert_eq!(diff, rle::ops::xor(&a, &b));
//! assert_eq!(stats.iterations, 3); // the paper's Figure 3 run
//! ```

#![warn(missing_docs)]
// `deny` rather than `forbid`: the one sanctioned exception is
// `engine::simd`, whose `core::arch` intrinsics require `unsafe` and which
// carries its own allow plus per-function safety contracts. Everything
// else in the crate remains unsafe-free.
#![deny(unsafe_code)]

pub mod array;
pub mod bus;
pub mod cell;
pub mod coalesce;
pub mod datapath;
pub mod engine;
pub mod error;
pub mod image;
pub mod invariants;
pub mod obs;
pub mod states;
pub mod stats;
pub mod stripes;
pub mod trace;

pub use array::{systolic_xor, SystolicArray};
pub use engine::executor::{ChunkOutcome, DiffExecutor, DiffExecutorConfig, JobHandle, JobOutcome};
#[cfg(feature = "fault-injection")]
pub use engine::fault::{Fault, FaultPlan};
pub use engine::kernel::{Kernel, KernelChoice};
pub use engine::pipeline::{DiffPipeline, DiffPipelineConfig, PipelineLoad, SupervisionCounters};
pub use engine::simd::SimdLevel;
pub use error::SystolicError;
pub use obs::{MetricsSnapshot, ObsConfig, Observer, TraceEvent, TraceKind};
pub use stats::{ArrayStats, PipelineStats, SigPrefilterMode};
