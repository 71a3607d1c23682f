//! The benchmark every performance or simplicity claim in this repository
//! is graded against: four closed-loop HTTPS workloads against the
//! in-process event-loop server, end-to-end metrics per workload, and
//! per-layer metrics taken only from outside the program — kernel probes,
//! an in-memory traced transaction, and traced socket runs. See
//! `README.md` beside this crate.

#![deny(unsafe_code)]

pub mod alloc;
pub mod client;
pub mod kernels;
pub mod metrics;
pub mod procfs;
pub mod replay;
pub mod report;
pub mod run;
pub mod socket_run;
pub mod span;
pub mod stats;
pub mod workload;
