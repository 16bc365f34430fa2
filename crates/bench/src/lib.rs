//! # migratory-bench — workloads and reporting for the experiment suite
//!
//! The paper is a theory paper: its "evaluation" is a set of theorems,
//! worked examples and figures. Every one of them maps to an experiment
//! here (see EXPERIMENTS.md); the `experiments` binary regenerates the
//! rows — plain timing loops for the algorithms' scaling *shape*, and
//! the qualitative comparisons (who wins, where the crossovers sit).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod tcpdrive;
pub mod workload;

pub use tcpdrive::*;
pub use workload::*;
