//! `marion-bench` — the codegen-quality matrix and its regression
//! gate.
//!
//! Subcommands:
//!
//! * `quality [--smoke] [--out PATH]` — the codegen-quality matrix:
//!   every bundled machine × strategy × workload compiled once,
//!   simulated, and condensed into one `ProgramQuality` row each
//!   (sim vs estimated cycles, critical-path lower bound, stall
//!   breakdown, issue-slot utilization, spill/nop/delay-slot counts)
//!   in `BENCH_quality.json`.
//! * `diff OLD.json NEW.json` — the cycle-regression gate: compares
//!   two quality matrices run by run, prints every `*_cycles` delta,
//!   and exits 1 when any cycle count grew, 2 on unreadable input.
//!   Cycle counts are deterministic, so CI diffs a fresh sweep against
//!   the committed matrix: any regression in codegen quality fails the
//!   build.
//!
//! Compile-time and serve performance are measured by the separate
//! `perfbench` benchmark (see `BENCHMARK.json`).

use marion_core::StrategyKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("");
    match cmd {
        "diff" => {
            let [old_path, new_path] = &args[1..] else {
                eprintln!("usage: marion-bench diff OLD.json NEW.json");
                std::process::exit(2);
            };
            let read = |path: &str| {
                std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("marion-bench diff: cannot read {path}: {e}");
                    std::process::exit(2);
                })
            };
            let (old_text, new_text) = (read(old_path), read(new_path));
            match marion_bench::diff::run_diff(&old_text, &new_text) {
                Ok((report, code)) => {
                    print!("{report}");
                    std::process::exit(code);
                }
                Err(e) => {
                    eprintln!("marion-bench diff: {e}");
                    std::process::exit(2);
                }
            }
        }
        "quality" => {
            let mut smoke = false;
            let mut out: Option<String> = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--smoke" => smoke = true,
                    "--out" => {
                        i += 1;
                        out = Some(args[i].clone());
                    }
                    other => {
                        eprintln!("unknown flag `{other}`");
                        std::process::exit(2);
                    }
                }
                i += 1;
            }
            let out = out.unwrap_or_else(|| {
                if smoke {
                    "BENCH_quality_smoke.json".to_string()
                } else {
                    "BENCH_quality.json".to_string()
                }
            });
            bench_quality(smoke, &out);
        }
        _ => {
            eprintln!(
                "usage: marion-bench <quality [--smoke] [--out PATH] | diff OLD.json NEW.json>"
            );
            std::process::exit(2);
        }
    }
}

/// The codegen-quality matrix: machines × strategies × workloads,
/// each cell one deterministic compile-and-simulate condensed into a
/// `ProgramQuality` row.
fn bench_quality(smoke: bool, out: &str) {
    let machines: Vec<&str> = if smoke {
        vec!["toyp", "r2000"]
    } else {
        marion_machines::EXTENDED.to_vec()
    };
    let workloads = if smoke {
        marion_bench::quality::smoke_workloads()
    } else {
        marion_bench::quality::full_workloads()
    };
    let runs = marion_bench::quality::sweep(&machines, &workloads);

    println!(
        "quality bench  ({} machines x {} strategies x {} workloads, deterministic cycles)",
        machines.len(),
        StrategyKind::ALL.len(),
        workloads.len()
    );
    println!(
        "{:<8} {:<9} {:<9} {:>10} {:>10} {:>9} {:>7} {:>7} {:>7}",
        "machine",
        "strategy",
        "workload",
        "sim cyc",
        "est cyc",
        "crit path",
        "drift%",
        "util",
        "stalls"
    );
    for run in &runs {
        let q = &run.quality;
        let t = q.total();
        println!(
            "{:<8} {:<9} {:<9} {:>10} {:>10} {:>9} {:>7.2} {:>7.3} {:>7}",
            q.machine,
            q.strategy,
            q.workload,
            q.sim_cycles,
            t.est_cycles,
            t.critical_path_cycles,
            q.drift_pct(),
            t.issue_utilization(),
            t.stalls.total()
        );
    }

    let json = marion_bench::quality::render_json(smoke, machines.len(), workloads.len(), &runs);
    std::fs::write(out, json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("wrote {out}");
}
