//! `marion-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints every metric with its unit and sample
//! count, and ends with one JSON line: `correct`, `attempted`,
//! `failed` and the metrics (`--trace 0`: the end-to-end metrics;
//! `--trace 1`: the per-layer metrics of the traced replay).

use marion_perfbench::{Host, RunConfig, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: marion-perfbench --workload <modules|big_blocks|serve> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<(Workload, u64, f64, bool), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must be within 0..=3600".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.unwrap_or(false),
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, trace) = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("marion-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    let config = RunConfig {
        workload,
        seed,
        seconds,
        threads: host.threads(),
    };
    let report = marion_perfbench::run(&config, trace);
    print!("{}", report.render_text(&host));
    println!("{}", report.render_json());
    ExitCode::SUCCESS
}
