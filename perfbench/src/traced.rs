//! The traced run: replays the driver's per-function pipeline from
//! outside the program with a span around each layer call, probes the
//! layers the pipeline hides (code DAG, list scheduler, allocator,
//! cache codec, simulator, service), and reports per-layer metrics.

use crate::inputs::{self, Op, Unit, STRATEGIES};
use crate::report::{Metric, Report};
use crate::spans::{LayerTimes, Recorder};
use crate::stats::median;
use crate::untraced::check_result;
use crate::{RunConfig, Workload};
use marion_bench::serve::{ServeConfig, Service};
use marion_core::emit::{emit_func, fill_delay_slots, render_program, AsmProgram};
use marion_core::fcache::{
    base_fingerprint, decode_entry, encode_entry, func_key, CachedFunc, FuncCache,
};
use marion_core::quality::BlockQuality;
use marion_core::sched::{schedule_block, schedule_block_robust, SchedOptions};
use marion_core::strategy::strategy_for;
use marion_core::{CodeFunc, CompileOptions, CompiledProgram, FuncStats};
use marion_machines::MachineSpec;
use marion_sim::{run_program, SimConfig};
use marion_trace::{TraceConfig, Tracer};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// The Maril source of a bundled machine.
fn machine_text(name: &str) -> &'static str {
    match name {
        "toyp" => marion_machines::toyp::text(),
        "r2000" => marion_machines::r2000::text(),
        "m88k" => marion_machines::m88k::text(),
        "i860" => marion_machines::i860::text(),
        _ => marion_machines::rs6000::text(),
    }
}

/// The layers whose self times make up a compile.
const COMPILE_LAYERS: [&str; 5] = ["driver", "glue", "select", "strategy", "emit"];

/// Requests the traced `serve` run sends through the service.
const SERVE_REQUESTS: u64 = 400;

/// Counts one pass of the replay gathers (the pass-0 values are the
/// deterministic ones reported).
#[derive(Debug, Clone, Default)]
struct PassCounts {
    /// Untraced `compile_module` seconds over the pass.
    e2e_s: f64,
    /// `compile_module` seconds with the program's own tracer on.
    traced_s: f64,
    selected_insts: u64,
    dag_edges: u64,
    ready_high_water: u64,
    sched_stalls: u64,
    spills: u64,
    graph_edges: u64,
    rounds: u64,
    fills: u64,
    nops: u64,
    sim_words: u64,
    sim_stalls: u64,
    sim_misses: u64,
    funcs: u64,
}

/// What the replay of one unit produced.
struct Replayed {
    text: String,
    stats: Vec<FuncStats>,
    /// Per function: the selected code before the strategy ran, and
    /// the cache entry the driver would store.
    funcs: Vec<(CodeFunc, CachedFunc, marion_ir::Function)>,
    module: marion_ir::Module,
}

/// Replays `Compiler::compile_module` one layer call at a time:
/// `materialize_float_constants`, then per function clone,
/// `apply_glue`, `select_func`, `Strategy::run`, `emit_func`,
/// `fill_delay_slots`. `machine` is the compiler's own copy, so the
/// replay reads the same memory as the compile it is compared with.
fn replay(
    rec: &mut Recorder,
    machine: &marion_maril::Machine,
    escapes: &marion_core::EscapeRegistry,
    op: &Op,
    unit: &Unit,
) -> Result<Replayed, String> {
    let root = rec.begin("compile_module");
    let out = (|| {
        let module = rec.time("driver", || {
            let mut m = unit.module.clone();
            marion_core::driver::materialize_float_constants(&mut m);
            m
        });
        let strategy = strategy_for(op.strategy);
        let ctx = format!("{}/{}", machine.name(), unit.name);
        let mut asm = AsmProgram::default();
        let mut stats = Vec::new();
        let mut funcs = Vec::new();
        for func in &module.funcs {
            let mut f = rec.time("driver", || func.clone());
            rec.time("glue", || marion_core::glue::apply_glue(machine, &mut f))
                .map_err(|e| format!("glue: {e}"))?;
            let mut code = rec
                .time("select", || {
                    marion_core::select_func(machine, escapes, &module, &f)
                })
                .map_err(|e| format!("select: {e}"))?;
            let selected = rec.time("copy", || code.clone());
            let (schedules, s) = rec
                .time("strategy", || {
                    strategy.run(machine, &mut code, &Tracer::off(), &ctx)
                })
                .map_err(|e| format!("strategy: {e}"))?;
            let (emitted, fills) = rec
                .time("emit", || {
                    let mut e = emit_func(machine, &code, &schedules)?;
                    let fills = fill_delay_slots(machine, &mut e);
                    Ok::<_, marion_core::CodegenError>((e, fills))
                })
                .map_err(|e| format!("emit: {e}"))?;
            let fs = FuncStats {
                name: f.name.clone(),
                insts_generated: emitted.inst_count(),
                spills: s.spills,
                schedule_passes: s.schedule_passes,
                estimated_cycles: s.estimated_cycles,
                delay_slots_filled: fills.len(),
                nops_emitted: emitted.nop_count(machine),
                blocks: schedules.iter().map(BlockQuality::from_schedule).collect(),
            };
            let entry = CachedFunc {
                asm: emitted.clone(),
                stats: fs.clone(),
                trace: None,
            };
            asm.funcs.push(emitted);
            stats.push(fs);
            funcs.push((selected, entry, func.clone()));
        }
        Ok::<_, String>((module, asm, stats, funcs))
    })();
    rec.end(root);
    let (module, asm, stats, funcs) = out?;
    let symbols: Vec<String> = (0..module.symbol_count())
        .map(|i| module.symbol_name(marion_ir::SymbolId(i as u32)).to_owned())
        .collect();
    Ok(Replayed {
        text: render_program(machine, &asm, &symbols),
        stats,
        funcs,
        module,
    })
}

/// Probes the layers inside `Strategy::run` on a copy of the selected
/// code: code DAG and list scheduler per block, then the allocator.
fn probe_strategy_layers(
    rec: &mut Recorder,
    machine: &marion_maril::Machine,
    selected: &CodeFunc,
    pc: &mut PassCounts,
) -> Result<(), String> {
    let opts = SchedOptions::default();
    for block in &selected.blocks {
        pc.selected_insts += block.insts.len() as u64;
        let dag = rec.time("dag", || marion_core::dag::build_dag(machine, block, true));
        pc.dag_edges += dag.edges.len() as u64;
        let schedule = rec.time("sched", || {
            schedule_block(machine, selected, block, &dag, &opts)
                .unwrap_or_else(|_| schedule_block_robust(machine, selected, block, &opts).0)
        });
        pc.ready_high_water = pc
            .ready_high_water
            .max(schedule.metrics.ready_high_water as u64);
        pc.sched_stalls += schedule.metrics.stall_cycles as u64;
    }
    let mut copy = selected.clone();
    let alloc = rec
        .time("regalloc", || {
            marion_core::regalloc::allocate(machine, &mut copy, &HashMap::new())
        })
        .map_err(|e| format!("regalloc probe: {e}"))?;
    pc.spills += alloc.spills as u64;
    pc.graph_edges += alloc.graph_edges as u64;
    pc.rounds += alloc.rounds as u64;
    Ok(())
}

/// Probes the cache codec on one function: key, encode, decode (which
/// must give the entry back), and a lookup in `cache`.
fn probe_cache(
    rec: &mut Recorder,
    base: &marion_cache::StableHasher,
    module: &marion_ir::Module,
    func: &marion_ir::Function,
    entry: &CachedFunc,
    cache: &FuncCache,
) -> Result<(), String> {
    let key = rec.time("fcache.key", || func_key(base, module, func));
    let payload = rec.time("fcache.encode", || encode_entry(entry));
    let decoded = rec.time("fcache.decode", || decode_entry(&payload));
    if decoded.as_ref() != Some(entry) {
        return Err(format!(
            "cache entry of {} does not survive encode/decode",
            func.name
        ));
    }
    if cache.get(key).is_none() {
        cache.insert(key, entry.clone());
    }
    Ok(())
}

/// Simulates a program inside a span and checks its checksum.
fn probe_sim(
    rec: &mut Recorder,
    machine: &marion_maril::Machine,
    program: &CompiledProgram,
    expected: i64,
    what: &str,
    pc: &mut PassCounts,
) -> Result<(), String> {
    let run = rec
        .time("sim", || {
            run_program(
                machine,
                program,
                "main",
                &[],
                Some(marion_maril::Ty::Int),
                &SimConfig::default(),
            )
        })
        .map_err(|e| format!("{what}: simulator: {e}"))?;
    check_result(run.result, expected, what)?;
    pc.sim_words += run.words_executed;
    pc.sim_stalls += run.stall_cycles;
    pc.sim_misses += run.miss_cycles;
    Ok(())
}

/// Sends one request through the service inside a span; returns
/// `(handle_line ms, the response's wall_us in ms)`.
fn probe_serve(rec: &mut Recorder, service: &Service, line: &str) -> Result<(f64, f64), String> {
    let t = Instant::now();
    let (resp, _) = rec.time("serve", || service.handle_line(line));
    let total_ms = t.elapsed().as_secs_f64() * 1e3;
    let fields = marion_trace::json::parse_flat(&resp).map_err(|e| format!("bad response: {e}"))?;
    let int = |k: &str| {
        fields
            .iter()
            .find(|(n, _)| n == k)
            .and_then(|(_, v)| v.as_int())
    };
    match (int("ok"), int("wall_us")) {
        (Some(1), Some(us)) => Ok((total_ms, us as f64 / 1e3)),
        _ => Err(format!("request failed: {resp}")),
    }
}

/// Runs one traced run.
pub fn run(config: &RunConfig) -> Report {
    let mut report = Report::new(config.workload, config.seed, true, 1);
    let mut rec = Recorder::new();

    // Set-up layers: Maril parse and analysis of every machine, and
    // the front end over every workload source.
    let machines = inputs::machines(config.workload);
    let sources = inputs::sources(config.workload, config.seed);
    let source_bytes: usize = sources.iter().map(|s| s.text.len()).sum();
    for rep in 0..inputs::SETUP_REPS {
        rec.set_pass(rep as u32);
        for name in &machines {
            let text = machine_text(name);
            let desc = rec.time("maril.parse", || {
                marion_maril::lexer::lex(text)
                    .and_then(|tokens| marion_maril::parser::parse(&tokens))
            });
            let sema = desc.and_then(|d| {
                rec.time("maril.sema", || {
                    marion_maril::sema::analyze_with_source(name, text, &d)
                })
            });
            report.attempt(sema.err().map(|e| format!("{name}: {e:?}")));
        }
        for s in &sources {
            let m = rec.time("frontend", || marion_frontend::compile(&s.text));
            report.attempt(m.err().map(|e| format!("{}: {e}", s.name)));
        }
    }
    let setup_times = rec.layer_times();

    let units = match inputs::units(config.workload, config.seed) {
        Ok(u) => u,
        Err(e) => {
            report.attempt(Some(e));
            return report;
        }
    };
    let (refs, _) = crate::untraced::references(&units, &mut report);
    let specs: Vec<MachineSpec> = machines.iter().map(|m| marion_machines::load(m)).collect();
    let compilers = inputs::compilers(&specs, &inputs::compile_options());
    let tracing = inputs::compilers(
        &specs,
        &CompileOptions {
            trace: Some(TraceConfig::default()),
            ..inputs::compile_options()
        },
    );
    let ops = inputs::ops(config.workload, config.seed, &units);
    let service = Service::new(&ServeConfig::default());
    report.attempt(service.as_ref().err().map(|e| format!("service: {e}")));
    let service = service.ok();
    let probe_cache_store = FuncCache::in_memory(1 << 20);
    // Simulating the combined Livermore module takes about a second;
    // `serve` checks it through `modules` and simulates only its
    // generated modules.
    let simulate_unit =
        |u: &Unit| config.workload != Workload::Serve || inputs::parse_gen(&u.name).is_some();

    let mut serve_probe: Vec<(f64, f64)> = Vec::new();
    let mut passes: Vec<PassCounts> = Vec::new();
    let replay_pass_base = inputs::SETUP_REPS as u32;
    let mut layer_passes: Vec<u32> = Vec::new();
    // The probe cache's hit ratio after the first pass: every function
    // is new to it then, as it is to a compile with the cache off. Later
    // passes only hit what the probe itself stored.
    let mut hit_ratio = f64::NAN;
    // The first pass also runs the once-per-run checks and probes; the
    // measured time starts after it.
    let mut start = Instant::now();
    for pass in 0.. {
        if pass == 1 {
            start = Instant::now();
        }
        if pass > 1 && start.elapsed().as_secs_f64() >= config.seconds {
            break;
        }
        let tag = replay_pass_base + pass as u32;
        rec.set_pass(tag);
        layer_passes.push(tag);
        let mut pc = PassCounts::default();
        for op in &ops {
            let unit = &units[op.unit];
            let spec = &specs[op.machine];
            let idx = op.machine * STRATEGIES.len() + inputs::strategy_index(op.strategy);
            let what = format!(
                "{}/{}/{}",
                machines[op.machine],
                op.strategy.name(),
                unit.name
            );
            rec.set_func(what.clone());

            // A first, unmeasured compile lets the allocator reach its
            // steady state, so the three timed compiles below compare
            // like with like.
            let _ = compilers[idx].compile_module(&unit.module);
            let t = Instant::now();
            let program = compilers[idx].compile_module(&unit.module);
            pc.e2e_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let traced = tracing[idx].compile_module(&unit.module);
            pc.traced_s += t.elapsed().as_secs_f64();
            let (program, traced) = match (program, traced) {
                (Ok(p), Ok(t)) => (p, t),
                (Err(e), _) | (_, Err(e)) => {
                    report.attempt(Some(format!("{what}: {e}")));
                    continue;
                }
            };
            report.attempt(None);
            if pass == 0 && traced.render(&spec.machine) != program.render(&spec.machine) {
                report.fail(format!("{what}: traced compile differs from untraced"));
            }

            let replayed = replay(&mut rec, compilers[idx].machine(), &spec.escapes, op, unit);
            report.attempt(
                replayed
                    .as_ref()
                    .err()
                    .map(|e| format!("{what}: replay: {e}")),
            );
            let Ok(replayed) = replayed else { continue };
            if pass == 0 {
                if replayed.text != program.render(&spec.machine) {
                    report.fail(format!(
                        "{what}: replayed assembly differs from compile_module's"
                    ));
                }
                if replayed.stats != program.stats.per_func {
                    report.fail(format!(
                        "{what}: replayed statistics differ from compile_module's"
                    ));
                }
            }
            pc.funcs += replayed.funcs.len() as u64;
            pc.fills += replayed
                .stats
                .iter()
                .map(|s| s.delay_slots_filled as u64)
                .sum::<u64>();
            pc.nops += replayed
                .stats
                .iter()
                .map(|s| s.nops_emitted as u64)
                .sum::<u64>();

            let base = rec.time("fcache.key", || {
                base_fingerprint(&spec.machine, op.strategy, &inputs::compile_options())
            });
            for (selected, entry, func) in &replayed.funcs {
                let r = probe_strategy_layers(&mut rec, &spec.machine, selected, &mut pc).and_then(
                    |()| {
                        probe_cache(
                            &mut rec,
                            &base,
                            &replayed.module,
                            func,
                            entry,
                            &probe_cache_store,
                        )
                    },
                );
                report.attempt(r.err().map(|e| format!("{what}: {e}")));
            }
            if pass == 0 && simulate_unit(unit) {
                let r = probe_sim(
                    &mut rec,
                    &spec.machine,
                    &program,
                    refs[op.unit],
                    &what,
                    &mut pc,
                );
                report.attempt(r.err());
            }
            if pass == 0 && config.workload != Workload::Serve {
                if let Some(service) = &service {
                    for (field, value) in &unit.requests {
                        let line = inputs::compile_line(
                            0,
                            machines[op.machine],
                            op.strategy,
                            (field, value),
                        );
                        let r = probe_serve(&mut rec, service, &line);
                        report.attempt(r.as_ref().err().map(|e| format!("{what}: {e}")));
                        serve_probe.extend(r.ok());
                    }
                }
            }
        }
        passes.push(pc);
        if pass == 0 {
            hit_ratio = probe_cache_store.stats().hit_rate();
        }
        if config.seconds <= 0.0 {
            break;
        }
    }

    // `serve`: the workload's own request stream, one client, after the
    // repeated keys have been answered once as in the untraced set-up.
    if config.workload == Workload::Serve {
        if let Some(service) = &service {
            let warmed = inputs::warm_pool(service, 1);
            report.attempt(warmed.err());
            let pool = inputs::serve_pool();
            let mut stream = inputs::Stream::new(config.seed, 0);
            rec.set_func("serve".to_string());
            for _ in 0..SERVE_REQUESTS {
                let req = stream.next(&pool);
                let r = probe_serve(&mut rec, service, &req.line);
                report.attempt(r.as_ref().err().map(|e| format!("{}: {e}", req.key)));
                serve_probe.extend(r.ok());
            }
            hit_ratio = service
                .cache()
                .map(|c| c.stats().hit_rate())
                .unwrap_or(f64::NAN);
        }
    }

    // Beside this package, wherever the run starts from.
    let path = std::path::PathBuf::from(format!(
        "{}/out/spans-{}-{}.jsonl",
        env!("CARGO_MANIFEST_DIR"),
        config.workload.name(),
        config.seed
    ));
    if let Err(e) = rec.write_jsonl(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }

    let times = rec.layer_times();
    layer_metrics(
        &mut report,
        &setup_times,
        &times,
        &layer_passes,
        &passes,
        source_bytes,
        &serve_probe,
        hit_ratio,
    );
    report
        .extra
        .push(Metric::new("spans", rec.len() as f64, "count", 1));
    report
}

/// Median over `passes` of a layer's summed self time, in ms.
fn self_ms(times: &BTreeMap<u32, LayerTimes>, passes: &[u32], name: &str) -> (f64, usize) {
    let per: Vec<f64> = passes
        .iter()
        .filter_map(|p| times.get(p).and_then(|t| t.get(name)))
        .map(|&(s, _, _)| s as f64 / 1e6)
        .collect();
    (median(&per), per.len())
}

/// Median over `passes` of a layer's mean self time per call, in µs.
fn per_call_us(times: &BTreeMap<u32, LayerTimes>, passes: &[u32], name: &str) -> (f64, usize) {
    let per: Vec<f64> = passes
        .iter()
        .filter_map(|p| times.get(p).and_then(|t| t.get(name)))
        .map(|&(s, _, n)| s as f64 / 1e3 / n.max(1) as f64)
        .collect();
    (median(&per), per.len())
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    report: &mut Report,
    setup: &BTreeMap<u32, LayerTimes>,
    times: &BTreeMap<u32, LayerTimes>,
    passes: &[u32],
    counts: &[PassCounts],
    source_bytes: usize,
    serve_probe: &[(f64, f64)],
    hit_ratio: f64,
) {
    let reps: Vec<u32> = setup.keys().copied().collect();
    let first = counts.first().cloned().unwrap_or_default();
    let np = passes.len();
    let ms = |name: &str| self_ms(times, passes, name);
    let us = |name: &str| per_call_us(times, passes, name);
    let (fe_ms, fe_n) = self_ms(setup, &reps, "frontend");
    let (parse_ms, parse_n) = self_ms(setup, &reps, "maril.parse");
    let (sema_ms, sema_n) = self_ms(setup, &reps, "maril.sema");
    let (sim_ms, sim_n) = ms("sim");
    let service: Vec<f64> = serve_probe.iter().map(|p| p.1).collect();
    let overhead: Vec<f64> = serve_probe.iter().map(|p| p.0 - p.1).collect();

    // Accounting: the compile layers' self times against the untraced
    // end-to-end compile time of the same units, pass by pass.
    let e2e: Vec<f64> = counts.iter().map(|c| c.e2e_s * 1e3).collect();
    let layers: Vec<f64> = passes
        .iter()
        .map(|p| {
            COMPILE_LAYERS
                .iter()
                .filter_map(|l| times.get(p).and_then(|t| t.get(l)))
                .map(|&(s, _, _)| s as f64 / 1e6)
                .sum()
        })
        .collect();
    let replayed: Vec<f64> = passes
        .iter()
        .map(|p| {
            let t = times.get(p);
            let total = |l: &str| {
                t.and_then(|t| t.get(l))
                    .map_or(0.0, |&(_, tot, _)| tot as f64 / 1e6)
            };
            total("compile_module") - total("copy")
        })
        .collect();
    let ratio =
        |a: &[f64], b: &[f64]| median(&a.iter().zip(b).map(|(x, y)| x / y).collect::<Vec<_>>());
    let unaccounted: Vec<f64> = e2e
        .iter()
        .zip(&layers)
        .map(|(e, l)| 100.0 * (e - l) / e)
        .collect();
    let traced: Vec<f64> = counts.iter().map(|c| c.traced_s * 1e3).collect();

    let mut put = |name: &str, value: f64, unit: &'static str, n: usize| {
        report.metrics.push(Metric::new(name, value, unit, n));
    };
    put("frontend.ms", fe_ms, "ms", fe_n);
    put(
        "frontend.bytes_per_s",
        source_bytes as f64 / (fe_ms / 1e3),
        "B/s",
        fe_n,
    );
    put("maril.parse_ms", parse_ms, "ms", parse_n);
    put("maril.sema_ms", sema_ms, "ms", sema_n);
    let (v, n) = ms("driver");
    put("driver.ms", v, "ms", n);
    let (v, n) = ms("glue");
    put("glue.ms", v, "ms", n);
    let (v, n) = ms("select");
    put("select.ms", v, "ms", n);
    put("select.insts", first.selected_insts as f64, "count", 1);
    let (v, n) = ms("dag");
    put("dag.ms", v, "ms", n);
    put("dag.edges", first.dag_edges as f64, "count", 1);
    let (v, n) = ms("sched");
    put("sched.ms", v, "ms", n);
    put(
        "sched.ready_high_water",
        first.ready_high_water as f64,
        "count",
        1,
    );
    put("sched.stall_cycles", first.sched_stalls as f64, "cycles", 1);
    let (v, n) = ms("regalloc");
    put("regalloc.ms", v, "ms", n);
    put("regalloc.spills", first.spills as f64, "count", 1);
    put("regalloc.graph_edges", first.graph_edges as f64, "count", 1);
    put("regalloc.rounds", first.rounds as f64, "count", 1);
    let (v, n) = ms("strategy");
    put("strategy.ms", v, "ms", n);
    let (v, n) = ms("emit");
    put("emit.ms", v, "ms", n);
    put("emit.delay_slots_filled", first.fills as f64, "count", 1);
    put("emit.nops", first.nops as f64, "count", 1);
    let (v, n) = us("fcache.key");
    put("fcache.key_us", v, "us", n);
    let (v, n) = us("fcache.encode");
    put("fcache.encode_us", v, "us", n);
    let (v, n) = us("fcache.decode");
    put("fcache.decode_us", v, "us", n);
    put("fcache.hit_ratio", hit_ratio, "ratio", 1);
    put("sim.ms", sim_ms, "ms", sim_n);
    put(
        "sim.words_per_s",
        first.sim_words as f64 / (sim_ms / 1e3),
        "1/s",
        sim_n,
    );
    put("sim.words", first.sim_words as f64, "count", 1);
    put("sim.stall_cycles", first.sim_stalls as f64, "cycles", 1);
    put("sim.miss_cycles", first.sim_misses as f64, "cycles", 1);
    put("serve.service_ms", median(&service), "ms", service.len());
    put("serve.overhead_ms", median(&overhead), "ms", overhead.len());
    put("trace.overhead_ratio", ratio(&traced, &e2e), "ratio", np);
    put("trace.replay_ratio", ratio(&replayed, &e2e), "ratio", np);
    put("trace.unaccounted_pct", median(&unaccounted), "%", np);
    report.extra.extend([
        Metric::new("compile.e2e_ms", median(&e2e), "ms", np),
        Metric::new("compile.layers_ms", median(&layers), "ms", np),
        Metric::new("compile.replay_ms", median(&replayed), "ms", np),
        Metric::new("compile.traced_ms", median(&traced), "ms", np),
        Metric::new("passes", np as f64, "count", 1),
        Metric::new("funcs_per_pass", first.funcs as f64, "count", 1),
    ]);
}
