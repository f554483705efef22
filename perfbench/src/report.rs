//! The run's result: host record, metrics and the output format.

use crate::Workload;
use std::fmt::Write as _;

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// How many samples the value summarises.
    pub samples: usize,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }
}

/// Where and how a run was made.
#[derive(Debug, Clone)]
pub struct Host {
    /// Processors the process may run on (`nproc`).
    pub nproc: usize,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// `CompileOptions::jobs` of every compiler and service.
    pub jobs: usize,
    /// The git commit of the benchmarked tree, or `unknown`.
    pub commit: String,
}

impl Host {
    /// Probes the host.
    pub fn probe() -> Host {
        let available_parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let nproc = command_output("nproc", &[])
            .and_then(|s| s.parse().ok())
            .unwrap_or(available_parallelism);
        let commit = command_output("git", &["rev-parse", "--short=12", "HEAD"])
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc,
            available_parallelism,
            jobs: 1,
            commit,
        }
    }

    /// Threads a run may use: never more than either processor count.
    pub fn threads(&self) -> usize {
        self.nproc.min(self.available_parallelism).max(1)
    }
}

/// Runs a command to completion and returns its trimmed standard
/// output, or `None` when it cannot run or fails.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!s.is_empty()).then_some(s)
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload run.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Client or worker threads used.
    pub threads: usize,
    /// Operations attempted: compiles, simulated runs, requests.
    pub attempted: u64,
    /// Operations that errored or failed a check.
    pub failed: u64,
    /// The figures `BENCHMARK.json` names for this kind of run.
    pub metrics: Vec<Metric>,
    /// Further figures printed for the reader but not part of the
    /// result object.
    pub extra: Vec<Metric>,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Report {
    /// An empty report for a run.
    pub fn new(workload: Workload, seed: u64, traced: bool, threads: usize) -> Report {
        Report {
            workload,
            seed,
            traced,
            threads,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            extra: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Counts one attempted operation, and its failure if `err` holds one.
    pub fn attempt(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.fail(e);
        }
    }

    /// Counts a failed check against an operation already attempted.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }

    /// A metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.extra)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Human-readable lines: host record, every metric with unit and
    /// sample count, and the failures.
    pub fn render_text(&self, host: &Host) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "# workload={} seed={} trace={} nproc={} available_parallelism={} jobs={} threads={} commit={}",
            self.workload.name(),
            self.seed,
            self.traced as u8,
            host.nproc,
            host.available_parallelism,
            host.jobs,
            self.threads,
            host.commit,
        );
        for m in self.metrics.iter().chain(&self.extra) {
            let _ = writeln!(
                s,
                "{:<28} {:>16.6} {:<8} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let pct = 100.0 * self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            s,
            "{:<28} {:>16.6} {:<8} n={}",
            "failed_pct", pct, "%", self.attempted
        );
        for f in &self.failures {
            let _ = writeln!(s, "FAILED: {f}");
        }
        s
    }

    /// The result object: `correct`, `attempted`, `failed` and the
    /// metrics, on one line.
    pub fn render_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Peak resident memory of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}
