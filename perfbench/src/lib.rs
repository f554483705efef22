//! The Marion benchmark: three seeded workloads that each load a
//! different layer of the pipeline, end-to-end metrics from untraced
//! runs, and per-layer metrics from a traced replay that times the
//! calls into each layer's public functions from outside the program.
//!
//! See `README.md` beside this crate for what each workload and
//! metric means and which end-to-end metric each layer should move.

pub mod calib;
pub mod inputs;
pub mod report;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod untraced;

pub use report::{Host, Metric, Report};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Compile two multi-function modules on every machine and
    /// strategy, cache off: the back end does all the work.
    Modules,
    /// Compile straight-line single-block functions on a ladder of
    /// sizes: the pressure-aware scheduler and the allocator dominate
    /// and scale super-linearly.
    BigBlocks,
    /// A closed loop of clients calling the compile service, mostly
    /// on repeated keys the cache serves warm.
    Serve,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Modules, Workload::BigBlocks, Workload::Serve];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Modules => "modules",
            Workload::BigBlocks => "big_blocks",
            Workload::Serve => "serve",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measured run length. Runs whole passes over the workload's
    /// operations until this much time has gone; `0.0` runs exactly
    /// one pass (the determinism test uses that).
    pub seconds: f64,
    /// Worker (or client) threads.
    pub threads: usize,
}

/// Runs one untraced or traced benchmark run.
pub fn run(config: &RunConfig, trace: bool) -> Report {
    if trace {
        traced::run(config)
    } else {
        untraced::run(config)
    }
}
