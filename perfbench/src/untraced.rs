//! Untraced runs: the end-to-end metrics.

use crate::calib::HostSpeed;
use crate::inputs::{self, Op, Ready, Unit, STRATEGIES};
use crate::report::{peak_rss_mb, Metric, Report};
use crate::stats::{beyond, grouped_slope, median, percentile, trimmed_mean};
use crate::{RunConfig, Workload};
use marion_core::{CompiledProgram, Compiler};
use marion_sim::{run_program, SimConfig, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Timings of one operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// Seconds from the start of the run to the first compile.
    pub at_s: f64,
    /// Seconds of the first compile of the operation in its pass.
    pub cold_s: f64,
    /// Seconds of the same compile repeated right after.
    pub warm_s: f64,
    /// Functions in the compiled module.
    pub funcs: usize,
}

/// One completed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index of the operation in its pass.
    pub op: usize,
    /// Pass number.
    pub pass: usize,
    /// What it measured.
    pub timing: Timing,
}

/// What [`run_passes`] measured.
pub struct Passes {
    /// Every completed operation.
    pub samples: Vec<Sample>,
    /// `(op, pass, message)` of each failed operation.
    pub errors: Vec<(usize, usize, String)>,
    /// Wall-clock seconds from the first operation to the last.
    pub wall_s: f64,
    /// Whole passes run.
    pub passes: usize,
}

/// Runs whole passes over `n` operations on `threads` workers until
/// `seconds` have gone (exactly one pass when `seconds <= 0`). Only
/// whole passes run, so every run measures the same mix. With a
/// `speed`, every worker runs calibration slices between operations.
/// An error or panic of `op(i, pass)` counts as a failure.
pub fn run_passes<F>(
    n: usize,
    threads: usize,
    seconds: f64,
    speed: Option<&HostSpeed>,
    op: F,
) -> Passes
where
    F: Fn(usize, usize) -> Result<Timing, String> + Sync,
{
    let start = Instant::now();
    let mut out = Passes {
        samples: Vec::new(),
        errors: Vec::new(),
        wall_s: 0.0,
        passes: 0,
    };
    while n > 0 && (out.passes == 0 || (seconds > 0.0 && start.elapsed().as_secs_f64() < seconds)) {
        let pass = out.passes;
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads.max(1))
                .map(|_| {
                    s.spawn(|| {
                        let (mut samples, mut errors) = (Vec::new(), Vec::new());
                        let mut pacer = speed.map(HostSpeed::pacer);
                        loop {
                            if let Some(p) = pacer.as_mut() {
                                p.tick();
                            }
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            if k >= n {
                                break;
                            }
                            match catch_unwind(AssertUnwindSafe(|| op(k, pass))) {
                                Ok(Ok(timing)) => samples.push(Sample {
                                    op: k,
                                    pass,
                                    timing,
                                }),
                                Ok(Err(e)) => errors.push((k, pass, e)),
                                Err(_) => errors.push((k, pass, "panicked".to_string())),
                            }
                        }
                        (samples, errors)
                    })
                })
                .collect();
            for h in handles {
                let (samples, errors) = h.join().expect("worker panics are caught per operation");
                out.samples.extend(samples);
                out.errors.extend(errors);
            }
        });
        out.passes += 1;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Deterministic work counts of one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Simulated cycles (0 until simulated).
    pub sim_cycles: u64,
    /// Scheduler-estimated cycles.
    pub est_cycles: u64,
    /// Instructions generated.
    pub code_insts: u64,
    /// Digest of the rendered assembly.
    pub digest: u64,
}

impl Counts {
    fn of(program: &CompiledProgram, machine: &marion_maril::Machine) -> Counts {
        let mut h = DefaultHasher::new();
        program.render(machine).hash(&mut h);
        Counts {
            sim_cycles: 0,
            est_cycles: program.stats.estimated_cycles,
            code_insts: program.stats.insts_generated as u64,
            digest: h.finish(),
        }
    }
}

/// Checks a simulated checksum against the interpreter's.
pub fn check_result(got: Option<Value>, expected: i64, what: &str) -> Result<(), String> {
    match got {
        Some(Value::I(v)) if v == expected => Ok(()),
        other => Err(format!(
            "{what}: simulated {other:?}, interpreter {expected}"
        )),
    }
}

/// Simulates a compiled program's `main`.
fn simulate(
    compiler: &Compiler,
    program: &CompiledProgram,
    what: &str,
) -> Result<marion_sim::RunResult, String> {
    run_program(
        compiler.machine(),
        program,
        "main",
        &[],
        Some(marion_maril::Ty::Int),
        &SimConfig::default(),
    )
    .map_err(|e| format!("{what}: simulator: {e}"))
}

/// Records an operation's first counts, or checks a later compile
/// against them.
fn record(slot: &Mutex<Option<Counts>>, counts: Counts, what: &str) -> Result<(), String> {
    let mut slot = slot.lock().expect("counts lock poisoned");
    match *slot {
        None => {
            *slot = Some(counts);
            Ok(())
        }
        Some(first) if first == counts => Ok(()),
        Some(first) => Err(format!(
            "{what}: output changed between compiles ({first:?} then {counts:?})"
        )),
    }
}

fn op_name(ready: &Ready, op: &Op) -> String {
    format!(
        "{}/{}/{}",
        ready.specs[op.machine].machine.name(),
        op.strategy.name(),
        ready.units[op.unit].name
    )
}

/// Calibration slices after each set-up.
const SETUP_SLICES: usize = 8;

/// Times the set-up [`inputs::SETUP_REPS`] times (`serve`:
/// [`inputs::SERVE_SETUP_REPS`]), with calibration slices after each;
/// returns the last result, every time at the reference speed, and
/// the host's slowdown over the set-ups.
pub fn timed_setup(config: &RunConfig) -> Result<(Ready, Vec<f64>, f64), String> {
    let reps = if config.workload == Workload::Serve {
        inputs::SERVE_SETUP_REPS
    } else {
        inputs::SETUP_REPS
    };
    let (mut raw, speed) = (Vec::new(), HostSpeed::new());
    let mut ready = None;
    for _ in 0..reps {
        drop(ready.take());
        let at = speed.now();
        let t = Instant::now();
        let r = inputs::setup(config.workload, config.seed, config.threads)?;
        raw.push((at, t.elapsed().as_secs_f64()));
        ready = Some(r);
        speed.measure(SETUP_SLICES);
    }
    let speeds = speed.speeds();
    let times = raw.iter().map(|&(at, s)| s / speeds.at(at)).collect();
    Ok((
        ready.expect("at least one set-up"),
        times,
        speeds.slowdown(),
    ))
}

/// Interpreter references for every unit, with the seconds they took.
pub fn references(units: &[Unit], report: &mut Report) -> (Vec<i64>, f64) {
    let t = Instant::now();
    let refs = units
        .iter()
        .map(|u| {
            let r = inputs::reference(u);
            report.attempt(r.as_ref().err().cloned());
            r.unwrap_or(i64::MIN)
        })
        .collect();
    (refs, t.elapsed().as_secs_f64())
}

/// Runs one untraced run.
pub fn run(config: &RunConfig) -> Report {
    let mut report = Report::new(config.workload, config.seed, false, config.threads);
    let (ready, setup_times, setup_slowdown) = match timed_setup(config) {
        Ok(r) => r,
        Err(e) => {
            report.attempt(Some(e));
            return report;
        }
    };
    report.metrics.push(Metric::new(
        "setup_s",
        median(&setup_times),
        "s",
        setup_times.len(),
    ));
    report.extra.push(Metric::new(
        "setup_slowdown",
        setup_slowdown,
        "ratio",
        setup_times.len(),
    ));
    let speed = HostSpeed::new();
    if config.workload == Workload::Serve {
        serve(config, &ready, &speed, &mut report);
    } else {
        compile_workload(config, &ready, &speed, &mut report);
    }
    let speeds = speed.speeds();
    report.extra.push(Metric::new(
        "host_slowdown",
        speeds.slowdown(),
        "ratio",
        speeds.len(),
    ));
    report
        .metrics
        .insert(1, Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1));
    report
}

/// `modules` and `big_blocks`: timed passes of compiles, then the
/// oracle.
fn compile_workload(config: &RunConfig, ready: &Ready, speed: &HostSpeed, report: &mut Report) {
    let (refs, oracle_s) = references(&ready.units, report);
    report
        .extra
        .push(Metric::new("oracle_s", oracle_s, "s", ready.units.len()));
    let ops = inputs::ops(config.workload, config.seed, &ready.units);
    let counts: Vec<Mutex<Option<Counts>>> = ops.iter().map(|_| Mutex::new(None)).collect();
    let programs: Vec<Mutex<Option<CompiledProgram>>> =
        ops.iter().map(|_| Mutex::new(None)).collect();
    // `big_blocks` compiles one function at a time, so its peak memory
    // is that of its largest compile, not of whichever two overlap.
    report.threads = if config.workload == Workload::BigBlocks {
        1
    } else {
        config.threads
    };

    // Each operation compiles its unit twice back to back: the first
    // compile follows other work (cold), the second repeats it (warm).
    // Every compile must emit the same code as every other.
    let mut passes = run_passes(
        ops.len(),
        report.threads,
        config.seconds,
        Some(speed),
        |i, _pass| {
            let op = &ops[i];
            let compiler = ready.compiler(op);
            let module = &ready.units[op.unit].module;
            let name = op_name(ready, op);
            let at_s = speed.now();
            let t = Instant::now();
            let program = compiler
                .compile_module(module)
                .map_err(|e| format!("{name}: {e}"))?;
            let cold_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let again = compiler
                .compile_module(module)
                .map_err(|e| format!("{name}: {e}"))?;
            let warm_s = t.elapsed().as_secs_f64();
            record(&counts[i], Counts::of(&program, compiler.machine()), &name)?;
            record(&counts[i], Counts::of(&again, compiler.machine()), &name)?;
            let funcs = program.stats.per_func.len();
            let mut slot = programs[i].lock().expect("program lock poisoned");
            if slot.is_none() {
                *slot = Some(program);
            }
            Ok(Timing {
                at_s,
                cold_s,
                warm_s,
                funcs,
            })
        },
    );
    for (i, pass, e) in &passes.errors {
        report.attempt(Some(format!("op {i} pass {pass}: {e}")));
    }
    report.attempted += passes.samples.len() as u64;

    // The oracle: every operation's program simulated once and checked
    // against the interpreter.
    let t = Instant::now();
    let sims = run_passes(ops.len(), config.threads, 0.0, None, |i, _| {
        let op = &ops[i];
        let name = op_name(ready, op);
        let program = programs[i]
            .lock()
            .expect("program lock poisoned")
            .take()
            .ok_or_else(|| format!("{name}: never compiled"))?;
        let run = simulate(ready.compiler(op), &program, &name)?;
        check_result(run.result, refs[op.unit], &name)?;
        if let Some(c) = counts[i].lock().expect("counts lock poisoned").as_mut() {
            c.sim_cycles = run.cycles;
        }
        Ok(Timing::default())
    });
    for (i, _, e) in &sims.errors {
        report.attempt(Some(format!("op {i} oracle: {e}")));
    }
    report.attempted += sims.samples.len() as u64;
    report.extra.push(Metric::new(
        "check_s",
        t.elapsed().as_secs_f64(),
        "s",
        ops.len(),
    ));

    let counts: Vec<Counts> = counts
        .into_iter()
        .map(|c| {
            c.into_inner()
                .expect("counts lock poisoned")
                .unwrap_or_default()
        })
        .collect();
    // Every compile at the reference speed, from the host's speed
    // around it.
    let speeds = speed.speeds();
    for s in &mut passes.samples {
        let t = &mut s.timing;
        let warm_at = t.at_s + t.cold_s;
        t.cold_s /= speeds.at(t.at_s);
        t.warm_s /= speeds.at(warm_at);
    }
    compile_metrics(report, ready, &ops, &passes, &counts);
}

/// Share of an operation's compile times dropped at each end before
/// they are averaged.
const TRIM: f64 = 0.1;

/// The metrics of the compile workloads. Each operation is first
/// summarised by the trimmed mean of its compile times over passes (at
/// the reference speed): one compile's time
/// varies by about +-25 % around it, in streaks of a few compiles,
/// with the state of the process's heap. Throughput, the scaling fit
/// and the latency percentiles are then taken over operations.
fn compile_metrics(
    report: &mut Report,
    ready: &Ready,
    ops: &[Op],
    passes: &Passes,
    counts: &[Counts],
) {
    let samples = &passes.samples;
    let mut points: Vec<Vec<(usize, f64, f64)>> = vec![Vec::new(); STRATEGIES.len()];
    let (mut funcs, mut compile_s) = (0usize, 0.0);
    let (mut compiles, mut cold, mut warm) = (Vec::new(), Vec::new(), Vec::new());
    for (i, op) in ops.iter().enumerate() {
        let mine: Vec<&Timing> = samples
            .iter()
            .filter(|s| s.op == i)
            .map(|s| &s.timing)
            .collect();
        if mine.is_empty() {
            continue;
        }
        let typical = |f: fn(&Timing) -> f64| {
            trimmed_mean(&mine.iter().map(|t| f(t)).collect::<Vec<_>>(), TRIM)
        };
        let both: Vec<f64> = mine.iter().flat_map(|t| [t.cold_s, t.warm_s]).collect();
        let compile = trimmed_mean(&both, TRIM);
        compiles.push(compile * 1e3);
        cold.push(typical(|t| t.cold_s) * 1e3);
        warm.push(typical(|t| t.warm_s) * 1e3);
        funcs += mine[0].funcs;
        compile_s += compile;
        // Scaling: per strategy, log compile time against log unit
        // size, one intercept per machine.
        points[inputs::strategy_index(op.strategy)].push((
            op.machine,
            (ready.units[op.unit].nodes as f64).ln(),
            (compile * 1e3).ln(),
        ));
    }
    let exponent = points
        .iter()
        .filter_map(|p| grouped_slope(p))
        .fold(f64::NAN, f64::max);

    let n = samples.len();
    let measured = compiles.len();
    let sum = |f: fn(&Counts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    report.metrics.extend([
        Metric::new("funcs_per_s", funcs as f64 / compile_s, "1/s", n),
        Metric::new(
            "programs_per_s",
            measured as f64 / (cold.iter().sum::<f64>() / 1e3),
            "1/s",
            n,
        ),
        Metric::new("compile_p50_ms", median(&compiles), "ms", measured),
        Metric::new("compile_p90_ms", percentile(&compiles, 0.9), "ms", measured),
        Metric::new("compile_exponent", exponent, "ratio", measured),
        Metric::new("sim_cycles", sum(|c| c.sim_cycles), "cycles", counts.len()),
        Metric::new("est_cycles", sum(|c| c.est_cycles), "cycles", counts.len()),
        Metric::new("code_insts", sum(|c| c.code_insts), "count", counts.len()),
        Metric::new("warm_p50_ms", median(&warm), "ms", measured),
        Metric::new("warm_p99_ms", percentile(&warm, 0.99), "ms", measured),
        Metric::new("cold_p50_ms", median(&cold), "ms", measured),
        Metric::new("cold_p90_ms", percentile(&cold, 0.9), "ms", measured),
    ]);
    report.extra.extend([
        Metric::new("passes", passes.passes as f64, "count", 1),
        Metric::new("wall_s", passes.wall_s, "s", 1),
    ]);
}

/// One answered `serve` request.
#[derive(Debug, Clone)]
struct Answer {
    /// Seconds from the start of the run to the request.
    at_s: f64,
    latency_ms: f64,
    wall_ms: f64,
    warm: bool,
    funcs: usize,
    fresh_count: Option<u64>,
    machine: usize,
    strategy: usize,
}

/// The deterministic fields a warm answer must repeat.
type Fingerprint = (i64, i64, i64);

/// Sends one request line and checks the answer's consistency with
/// earlier answers to the same key.
fn ask(
    service: &marion_bench::serve::Service,
    req: &inputs::Request,
    seen: &Mutex<HashMap<String, Fingerprint>>,
    speed: &HostSpeed,
) -> Result<Answer, String> {
    let at_s = speed.now();
    let t = Instant::now();
    let (line, _outcome) = service.handle_line(&req.line);
    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut a = answer(req, &line, latency_ms, seen)?;
    a.at_s = at_s;
    Ok(a)
}

/// Reads the service's answer to `req` and checks it against earlier
/// answers to the same key (the first one is recorded).
fn answer(
    req: &inputs::Request,
    line: &str,
    latency_ms: f64,
    seen: &Mutex<HashMap<String, Fingerprint>>,
) -> Result<Answer, String> {
    let fields = marion_trace::json::parse_flat(line)
        .map_err(|e| format!("{}: bad response: {e}", req.key))?;
    let int = |k: &str| {
        fields
            .iter()
            .find(|(n, _)| n == k)
            .and_then(|(_, v)| v.as_int())
    };
    if int("ok") != Some(1) {
        return Err(format!("{}: {line}", req.key));
    }
    let field = |k: &str| int(k).ok_or_else(|| format!("{}: response lacks {k}", req.key));
    let fp = (
        field("insts")?,
        field("spills")?,
        field("estimated_cycles")?,
    );
    let (hits, misses) = (field("cache_hits")?, field("cache_misses")?);
    let warm = misses == 0 && hits > 0;
    {
        let mut seen = seen.lock().expect("answers lock poisoned");
        match seen.get(&req.key) {
            Some(first) if *first != fp => {
                return Err(format!(
                    "{}: answer {fp:?} differs from first {first:?} (warm={warm})",
                    req.key
                ))
            }
            Some(_) => {}
            None => {
                seen.insert(req.key.clone(), fp);
            }
        }
    }
    Ok(Answer {
        at_s: 0.0,
        latency_ms,
        wall_ms: field("wall_us")? as f64 / 1e3,
        warm,
        funcs: field("funcs")? as usize,
        fresh_count: req.fresh_count,
        machine: req.machine,
        strategy: inputs::strategy_index(req.strategy),
    })
}

/// Requests per client when a run is a single pass (`seconds <= 0`).
const SINGLE_PASS_REQUESTS: u64 = 40;

/// `serve`: a closed loop of clients on the service, then the oracle.
/// Each client sends a fixed number of requests, so every run does the
/// same work and fills the service's memory the same way. The set-up
/// has answered every repeated key once, so a request is cold exactly
/// when it names a fresh module.
fn serve(config: &RunConfig, ready: &Ready, speed: &HostSpeed, report: &mut Report) {
    let service = ready
        .service
        .as_ref()
        .expect("serve set-up builds a service");
    let seen: Mutex<HashMap<String, Fingerprint>> = Mutex::new(HashMap::new());
    for (req, line) in &ready.pool_answers {
        report.attempt(answer(req, line, 0.0, &seen).err());
    }
    let pool = inputs::serve_pool();
    let per_client = if config.seconds <= 0.0 {
        SINGLE_PASS_REQUESTS
    } else {
        (config.seconds * inputs::SERVE_RATE).ceil() as u64
    };
    let start = Instant::now();
    let per_client: Vec<(Vec<Answer>, Vec<String>, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..config.threads)
            .map(|client| {
                let (pool, seen) = (&pool, &seen);
                s.spawn(move || {
                    let mut stream = inputs::Stream::new(config.seed, client);
                    let (mut answers, mut errors, mut fresh) = (Vec::new(), Vec::new(), Vec::new());
                    let mut pacer = speed.pacer();
                    for _ in 0..per_client {
                        pacer.tick();
                        let req = stream.next(pool);
                        if req.fresh_count.is_some() {
                            fresh.push(req.workload.clone());
                        }
                        match catch_unwind(AssertUnwindSafe(|| ask(service, &req, seen, speed))) {
                            Ok(Ok(a)) => answers.push(a),
                            Ok(Err(e)) => errors.push(e),
                            Err(_) => errors.push(format!("{}: panicked", req.key)),
                        }
                    }
                    (answers, errors, fresh)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panics are caught per request"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    // Every latency at the reference speed, from the host's speed
    // around it.
    let speeds = speed.speeds();
    let mut answers = Vec::new();
    let mut fresh_names = std::collections::HashSet::new();
    for (mut a, e, fresh) in per_client {
        for answer in &mut a {
            let slowdown = speeds.at(answer.at_s);
            answer.latency_ms /= slowdown;
            answer.wall_ms /= slowdown;
        }
        answers.extend(a);
        for e in e {
            report.attempt(Some(e));
        }
        // A fresh module must be new to the service, or it would not miss.
        for name in fresh {
            if !fresh_names.insert(name.clone()) {
                report.attempt(Some(format!("{name}: fresh module named twice")));
            }
        }
    }
    report.attempted += answers.len() as u64;

    let t = Instant::now();
    let counts = serve_oracle(
        config,
        &seen.into_inner().expect("answers lock poisoned"),
        report,
    );
    report.extra.push(Metric::new(
        "check_s",
        t.elapsed().as_secs_f64(),
        "s",
        counts.len(),
    ));

    let n = answers.len();
    let pick = |warm: bool| -> Vec<f64> {
        answers
            .iter()
            .filter(|a| a.warm == warm)
            .map(|a| a.latency_ms)
            .collect()
    };
    let (warm, cold) = (pick(true), pick(false));
    // Compile throughput: functions (modules) answered per second of
    // cold-request time per client. Every seed sends the same fresh
    // work, so the share of cold requests does not move it.
    let cold_s = cold.iter().sum::<f64>() / 1e3;
    let cold_funcs: usize = answers.iter().filter(|a| !a.warm).map(|a| a.funcs).sum();
    let service_ms: Vec<f64> = answers
        .iter()
        .filter(|a| !a.warm)
        .map(|a| a.wall_ms)
        .collect();
    // Scaling: fresh-request latency against the programs it names.
    let mut points: Vec<Vec<(usize, f64, f64)>> = vec![Vec::new(); STRATEGIES.len()];
    for a in &answers {
        if let Some(count) = a.fresh_count {
            points[a.strategy].push((a.machine, (count as f64).ln(), a.latency_ms.ln()));
        }
    }
    let fresh: usize = points.iter().map(Vec::len).sum();
    let exponent = points
        .iter()
        .filter_map(|p| grouped_slope(p))
        .fold(f64::NAN, f64::max);
    let sum = |f: fn(&Counts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    report.metrics.extend([
        Metric::new("funcs_per_s", cold_funcs as f64 / cold_s, "1/s", cold.len()),
        Metric::new(
            "programs_per_s",
            cold.len() as f64 / cold_s,
            "1/s",
            cold.len(),
        ),
        Metric::new(
            "compile_p50_ms",
            percentile(&service_ms, 0.5),
            "ms",
            cold.len(),
        ),
        Metric::new(
            "compile_p90_ms",
            percentile(&service_ms, 0.9),
            "ms",
            cold.len(),
        ),
        Metric::new("compile_exponent", exponent, "ratio", fresh),
        Metric::new("sim_cycles", sum(|c| c.sim_cycles), "cycles", counts.len()),
        Metric::new("est_cycles", sum(|c| c.est_cycles), "cycles", counts.len()),
        Metric::new("code_insts", sum(|c| c.code_insts), "count", counts.len()),
        Metric::new("warm_p50_ms", percentile(&warm, 0.5), "ms", warm.len()),
        Metric::new("warm_p99_ms", percentile(&warm, 0.99), "ms", warm.len()),
        Metric::new("cold_p50_ms", percentile(&cold, 0.5), "ms", cold.len()),
        Metric::new("cold_p90_ms", percentile(&cold, 0.9), "ms", cold.len()),
    ]);
    let hit_rate = service
        .cache()
        .map(|c| c.stats().hit_rate())
        .unwrap_or(f64::NAN);
    report.extra.extend([
        Metric::new("wall_s", wall, "s", 1),
        Metric::new("cache_hit_rate", hit_rate, "ratio", n),
        Metric::new(
            "warm_p99_tail",
            beyond(warm.len(), 0.99) as f64,
            "count",
            warm.len(),
        ),
        Metric::new(
            "cold_p90_tail",
            beyond(cold.len(), 0.9) as f64,
            "count",
            cold.len(),
        ),
    ]);
}

/// The `serve` oracle: every repeated key compiled directly (cache
/// off) must match the service's answer, and the generated modules are
/// simulated and checked against the interpreter. (The combined
/// Livermore module takes about a second to simulate; `modules`
/// checks it.) Returns the keys' deterministic counts.
fn serve_oracle(
    config: &RunConfig,
    seen: &HashMap<String, Fingerprint>,
    report: &mut Report,
) -> Vec<Counts> {
    let units = match inputs::units(Workload::Serve, config.seed) {
        Ok(u) => u,
        Err(e) => {
            report.attempt(Some(e));
            return Vec::new();
        }
    };
    let (refs, _) = references(&units, report);
    let ops = inputs::ops(Workload::Serve, config.seed, &units);
    let specs: Vec<marion_machines::MachineSpec> = inputs::machines(Workload::Serve)
        .iter()
        .map(|m| marion_machines::load(m))
        .collect();
    let compilers = inputs::compilers(&specs, &inputs::compile_options());
    let counts: Vec<Mutex<Counts>> = ops.iter().map(|_| Mutex::new(Counts::default())).collect();
    let checks = run_passes(ops.len(), config.threads, 0.0, None, |i, _| {
        let op = &ops[i];
        let compiler =
            &compilers[op.machine * STRATEGIES.len() + inputs::strategy_index(op.strategy)];
        let unit = &units[op.unit];
        let key = format!(
            "{}/{}/{}",
            compiler.machine().name(),
            op.strategy.name(),
            unit.name
        );
        let program = compiler
            .compile_module(&unit.module)
            .map_err(|e| format!("{key}: {e}"))?;
        let s = &program.stats;
        let fp = (
            s.insts_generated as i64,
            s.spills as i64,
            s.estimated_cycles as i64,
        );
        if let Some(answered) = seen.get(&key) {
            if *answered != fp {
                return Err(format!(
                    "{key}: service answered {answered:?}, direct compile {fp:?}"
                ));
            }
        }
        let mut c = Counts::of(&program, compiler.machine());
        if inputs::parse_gen(&unit.name).is_some() {
            let run = simulate(compiler, &program, &key)?;
            check_result(run.result, refs[op.unit], &key)?;
            c.sim_cycles = run.cycles;
        }
        *counts[i].lock().expect("counts lock poisoned") = c;
        Ok(Timing::default())
    });
    for (i, _, e) in &checks.errors {
        report.attempt(Some(format!("oracle op {i}: {e}")));
    }
    report.attempted += checks.samples.len() as u64;
    counts
        .into_iter()
        .map(|c| c.into_inner().expect("counts lock poisoned"))
        .collect()
}
