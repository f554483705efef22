//! marion-report — aggregates JSONL pipeline traces (see
//! `marion_trace`) into the paper-style summary tables:
//!
//! * a per-phase wall-clock table (where compile time goes, Table 3's
//!   "Marion compilers are not fast" breakdown);
//! * a per-function summary of the static counters (instructions
//!   generated, spills, estimated cycles, delay slots, stalls — the
//!   Table 1 / Table 2 shape);
//! * every per-block reservation table (cycles × resource vector)
//!   recorded in the trace, with the scheduler's cycle-by-cycle
//!   stall narrative (`sched_explain`, when `TraceConfig::explanations`
//!   was on) rendered next to its table;
//! * compile-cache effectiveness (hits, misses, evictions) when the
//!   trace came from a cached compile.
//!
//! Usage:
//!
//! ```text
//! marion-report TRACE.jsonl [MORE.jsonl ...]
//! marion-report --demo [--jsonl OUT.jsonl]
//! marion-report --html [--out REPORT.html] [--serve METRICS.json] TRACE.jsonl ...
//! ```
//!
//! `--demo` compiles a Livermore kernel for the R2000 (IPS) and the
//! dual-issue i860 (Postpass) with tracing and reservation tables
//! enabled, then reports on the result; `--jsonl` additionally writes
//! the merged trace for re-aggregation. `--html` renders the same
//! aggregation as one self-contained HTML page (inline CSS, no
//! external assets — it opens offline from a `file:` URL) to stdout or
//! to `--out`; `--serve` folds one `metrics` response line from
//! `marion-serve` into the page as a request-latency section;
//! `--quality` folds a `BENCH_quality.json` matrix in as the
//! quality-observatory section (cycle heatmap, stall composition,
//! estimate drift, Livermore speedups).
//!
//! Two service-side modes operate on `marion-serve` responses instead
//! of traces:
//!
//! ```text
//! marion-report --check-slo METRICS.jsonl
//! marion-report --dashboard RESPONSES.jsonl [--out DASH.html]
//! ```
//!
//! `--check-slo` scans the file for the first `metrics` response line
//! carrying SLO fields and exits 0 when every objective holds, 1 when
//! any is violated (for CI gates), 2 when the file is unreadable or
//! carries no SLO fields. `--dashboard` extracts the self-contained
//! HTML payload from a `dashboard` response line and writes it out.
//!
//! Exit codes everywhere: 0 success, 1 a report/check failed (SLO
//! violated, output unwritable), 2 the input was unusable (unreadable
//! or truncated trace file, bad flags, missing fields).

use marion_bench::serve::check_slo_fields;
use marion_bench::{html::render_html_with, row};
use marion_core::{CompileOptions, Compiler, StrategyKind};
use marion_trace::json::parse_flat;
use marion_trace::{Record, TraceConfig, TraceData, Value};
use std::collections::{BTreeMap, BTreeSet};

fn usage() -> ! {
    eprintln!("usage: marion-report TRACE.jsonl [MORE.jsonl ...]");
    eprintln!("       marion-report --demo [--jsonl OUT.jsonl]");
    eprintln!("       marion-report --html [--out REPORT.html] [--serve METRICS.json] [--retarget RETARGET.json] [--quality QUALITY.json] [--demo | TRACE.jsonl ...]");
    eprintln!("       marion-report --check-slo METRICS.jsonl       exit 1 if any SLO is violated");
    eprintln!("       marion-report --dashboard RESP.jsonl [--out DASH.html]");
    std::process::exit(2);
}

/// Reads a file or exits 2 — unreadable input is an environment
/// problem, distinct from a failed report (exit 1).
fn read_or_die(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("marion-report: cannot read {path}: {e}");
        std::process::exit(2);
    })
}

/// `--check-slo`: find the first `metrics` line with SLO fields and
/// report each objective's verdict. Exit 0 all met, 1 any violated,
/// 2 no usable metrics line.
fn check_slo(path: &str) -> ! {
    let text = read_or_die(path);
    let fields = text
        .lines()
        .filter_map(|line| parse_flat(line).ok())
        .find(|fields| fields.iter().any(|(k, _)| k == "slo_count"))
        .unwrap_or_else(|| {
            eprintln!("marion-report: {path}: no metrics line with SLO fields found");
            std::process::exit(2);
        });
    let violated = check_slo_fields(&fields).unwrap_or_else(|e| {
        eprintln!("marion-report: {path}: {e}");
        std::process::exit(2);
    });
    // Per-objective summary: every `slo_<name>_violated` key, with its
    // sibling budget/burn fields when present.
    let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    for (key, _) in &fields {
        let Some(name) = key
            .strip_prefix("slo_")
            .and_then(|rest| rest.strip_suffix("_violated"))
        else {
            continue;
        };
        let verdict = if violated.iter().any(|v| v == name) {
            "VIOLATED"
        } else {
            "ok"
        };
        let detail = |suffix: &str| {
            get(&format!("slo_{name}_{suffix}"))
                .map(|v| match v {
                    Value::Int(i) => format!(" {suffix}={i}"),
                    Value::Float(f) => format!(" {suffix}={f:.4}"),
                    Value::Str(s) => format!(" {suffix}={s}"),
                })
                .unwrap_or_default()
        };
        println!(
            "slo {name}: {verdict}{}{}",
            detail("budget_used"),
            detail("burn_rate")
        );
    }
    if violated.is_empty() {
        println!("all SLOs met");
        std::process::exit(0);
    }
    eprintln!("marion-report: {} SLO(s) violated", violated.len());
    std::process::exit(1);
}

/// `--dashboard`: extract the self-contained HTML payload from the
/// first `dashboard` response line in the file.
fn extract_dashboard(path: &str, out: Option<&str>) -> ! {
    let text = read_or_die(path);
    let html = text
        .lines()
        .filter_map(|line| parse_flat(line).ok())
        .find_map(|fields| {
            fields.into_iter().find_map(|(k, v)| {
                (k == "html")
                    .then(|| v.as_str().map(str::to_string))
                    .flatten()
            })
        })
        .unwrap_or_else(|| {
            eprintln!("marion-report: {path}: no `dashboard` response line with an html field");
            std::process::exit(2);
        });
    match out {
        Some(out_path) => {
            std::fs::write(out_path, &html).unwrap_or_else(|e| {
                eprintln!("marion-report: cannot write {out_path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {out_path}");
        }
        None => print!("{html}"),
    }
    std::process::exit(0);
}

fn main() {
    let mut html = false;
    let mut demo_mode = false;
    let mut jsonl_out: Option<String> = None;
    let mut html_out: Option<String> = None;
    let mut serve_path: Option<String> = None;
    let mut check_slo_path: Option<String> = None;
    let mut dashboard_path: Option<String> = None;
    let mut retarget_path: Option<String> = None;
    let mut quality_path: Option<String> = None;
    let mut traces: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("marion-report: {name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--html" => html = true,
            "--demo" => demo_mode = true,
            "--jsonl" => jsonl_out = Some(value("--jsonl")),
            "--out" => html_out = Some(value("--out")),
            "--serve" => serve_path = Some(value("--serve")),
            "--check-slo" => check_slo_path = Some(value("--check-slo")),
            "--dashboard" => dashboard_path = Some(value("--dashboard")),
            "--retarget" => retarget_path = Some(value("--retarget")),
            "--quality" => quality_path = Some(value("--quality")),
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("marion-report: unknown flag `{other}`");
                usage()
            }
            path => traces.push(path.to_string()),
        }
    }
    if let Some(path) = check_slo_path {
        check_slo(&path);
    }
    if let Some(path) = dashboard_path {
        extract_dashboard(&path, html_out.as_deref());
    }
    if !demo_mode && traces.is_empty() && retarget_path.is_none() && quality_path.is_none() {
        usage();
    }
    let data = if !demo_mode && traces.is_empty() {
        // `--retarget`/`--quality` alone: a page holding just those
        // sections, no trace-derived ones.
        TraceData::default()
    } else if demo_mode {
        let data = demo();
        if let Some(path) = &jsonl_out {
            std::fs::write(path, data.to_jsonl()).unwrap_or_else(|e| {
                eprintln!("marion-report: cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path}");
        }
        data
    } else {
        let parts: Vec<(String, TraceData)> = traces
            .iter()
            .map(|path| {
                let text = read_or_die(path);
                // A truncated or corrupt trace is an unusable input
                // (exit 2), not a failed report.
                let data = TraceData::parse_jsonl(&text).unwrap_or_else(|e| {
                    eprintln!(
                        "marion-report: {path}: unreadable trace (truncated or not \
                         marion_trace JSONL): {e}"
                    );
                    std::process::exit(2);
                });
                (path.clone(), data)
            })
            .collect();
        for warning in mismatch_warnings(&parts) {
            eprintln!("marion-report: warning: {warning}");
        }
        merge_traces(parts.into_iter().map(|(_, d)| d).collect())
    };
    if !html {
        print!("{}", report(&data));
        return;
    }
    // `--serve` points at a file holding one `metrics` response line
    // (extra lines — e.g. a whole response stream — are scanned for
    // the first line carrying `service_buckets`).
    let serve_fields: Option<Vec<(String, Value)>> = serve_path.map(|path| {
        let text = read_or_die(&path);
        text.lines()
            .filter_map(|line| parse_flat(line).ok())
            .find(|fields| fields.iter().any(|(k, _)| k == "service_buckets"))
            .unwrap_or_else(|| {
                eprintln!("marion-report: {path}: no `metrics` response line found");
                std::process::exit(2);
            })
    });
    // In demo mode the source is on hand, so the page also embeds
    // per-function dependence-DAG renderings (native SVG, no
    // graphviz) next to the trace-derived sections.
    let mut extra_svg = if demo_mode {
        demo_dag_svgs()
    } else {
        Vec::new()
    };
    // `--retarget BENCH_retarget.json`: the marion-fuzz audit-coverage
    // summary (generated machines, differential-audit verdicts).
    if let Some(path) = &retarget_path {
        let section =
            marion_bench::html::retarget_section(&read_or_die(path)).unwrap_or_else(|e| {
                eprintln!("marion-report: --retarget: {e}");
                std::process::exit(2);
            });
        extra_svg.push(("Retargeting fuzz audit".to_string(), section));
    }
    // `--quality BENCH_quality.json`: the codegen-quality observatory
    // (cycle heatmap, stall composition, drift, Livermore speedups).
    if let Some(path) = &quality_path {
        let section = marion_bench::html::quality_section(&read_or_die(path)).unwrap_or_else(|e| {
            eprintln!("marion-report: --quality: {e}");
            std::process::exit(2);
        });
        extra_svg.push(("Quality observatory".to_string(), section));
    }
    let page = render_html_with(&data, serve_fields.as_deref(), &extra_svg);
    match html_out {
        Some(path) => {
            std::fs::write(&path, &page).unwrap_or_else(|e| {
                eprintln!("marion-report: cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path}");
        }
        None => print!("{page}"),
    }
}

/// Merges any number of parsed trace files into one [`TraceData`].
/// Counters with the same `(ctx, name)` sum across files (per-file
/// runs over the same function accumulate, rather than the first
/// file's value shadowing the rest).
fn merge_traces(parts: Vec<TraceData>) -> TraceData {
    let mut data = TraceData::default();
    for part in parts {
        data.merge(part);
    }
    data
}

/// `(machines, scheduling passes)` seen in one trace file: machine
/// names are the first `/`-segment of record contexts; passes come
/// from `sched_block` event labels plus `sched:*` span names. This is
/// the identity a merge must agree on — summing counters from a
/// `r2000` trace into an `i860` one, or IPS passes into Postpass
/// ones, produces a nonsense flame tree.
fn trace_signature(data: &TraceData) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut machines = BTreeSet::new();
    let mut passes = BTreeSet::new();
    let mut ctx_machine = |ctx: &str| {
        let first = ctx.split('/').next().unwrap_or(ctx);
        if !first.is_empty() {
            machines.insert(first.to_string());
        }
    };
    for r in &data.records {
        match r {
            Record::Counter { ctx, .. }
            | Record::Gauge { ctx, .. }
            | Record::Hist { ctx, .. }
            | Record::Event { ctx, .. } => ctx_machine(ctx),
            Record::Span { name, ctx, .. } => {
                ctx_machine(ctx);
                if name.starts_with("sched:") {
                    passes.insert(name.clone());
                }
            }
            Record::Prof { .. } => {}
        }
    }
    for (_, fields) in data.events_named("sched_block") {
        if let Some(pass) = fields
            .iter()
            .find(|(k, _)| k == "pass")
            .and_then(|(_, v)| v.as_str())
        {
            passes.insert(pass.to_string());
        }
    }
    (machines, passes)
}

/// Mismatched machine or strategy sets between trace files about to
/// be merged. The merge still happens — summing is sometimes wanted —
/// but silently producing a blended flame tree is not.
fn mismatch_warnings(parts: &[(String, TraceData)]) -> Vec<String> {
    let mut warnings = Vec::new();
    let Some(((first_path, first_data), rest)) = parts.split_first() else {
        return warnings;
    };
    let (machines0, passes0) = trace_signature(first_data);
    for (path, data) in rest {
        let (machines, passes) = trace_signature(data);
        if machines != machines0 && !machines.is_empty() && !machines0.is_empty() {
            warnings.push(format!(
                "{path} traces machines {machines:?} but {first_path} traces {machines0:?}; \
                 merged totals mix different targets"
            ));
        }
        if passes != passes0 && !passes.is_empty() && !passes0.is_empty() {
            warnings.push(format!(
                "{path} carries strategy passes {passes:?} but {first_path} carries \
                 {passes0:?}; merged totals mix different strategies"
            ));
        }
    }
    warnings
}

/// Native-SVG dependence DAGs for the demo workload: the largest
/// block of each LL7 function on the R2000, scheduled with the same
/// robust ladder the strategies use.
fn demo_dag_svgs() -> Vec<(String, String)> {
    let kernels = marion_workloads::livermore::kernels();
    let ll7 = kernels.iter().find(|k| k.name == "LL7").expect("LL7");
    let mut module = ll7.module();
    marion_core::driver::materialize_float_constants(&mut module);
    let spec = marion_machines::load("r2000");
    let machine = &spec.machine;
    let mut out = Vec::new();
    for f in &module.funcs {
        let mut f = f.clone();
        if marion_core::glue::apply_glue(machine, &mut f).is_err() {
            continue;
        }
        let Ok(mut code) = marion_core::select_func(machine, &spec.escapes, &module, &f) else {
            continue;
        };
        if marion_core::regalloc::allocate(machine, &mut code, &std::collections::HashMap::new())
            .is_err()
        {
            continue;
        }
        let Some((bi, block)) = code
            .blocks
            .iter()
            .enumerate()
            .max_by_key(|(_, b)| b.insts.len())
        else {
            continue;
        };
        if block.insts.is_empty() {
            continue;
        }
        let (schedule, discipline) = marion_core::sched::schedule_block_robust(
            machine,
            &code,
            block,
            &marion_core::sched::SchedOptions::default(),
        );
        let (dag, _) = marion_core::explain::dag_for_discipline(machine, block, discipline);
        let svg = marion_bench::dagviz::dag_to_svg(
            machine,
            block,
            &dag,
            &schedule,
            &format!("r2000/{} block {bi} ({discipline})", f.name),
        );
        out.push((format!("Dependence DAG \u{2014} r2000/{}", f.name), svg));
    }
    out
}

/// Compiles a kernel on a scalar and a dual-issue machine with full
/// tracing and returns the merged trace.
fn demo() -> TraceData {
    let kernels = marion_workloads::livermore::kernels();
    let ll7 = kernels
        .iter()
        .find(|k| k.name == "LL7")
        .expect("LL7 kernel");
    let module = ll7.module();
    let options = CompileOptions {
        trace: Some(TraceConfig {
            reservation_tables: true,
            explanations: true,
        }),
        ..CompileOptions::default()
    };
    let mut data = TraceData::default();
    for (machine, strategy) in [
        ("r2000", StrategyKind::Ips),
        ("i860", StrategyKind::Postpass),
    ] {
        let spec = marion_machines::load(machine);
        let compiler = Compiler::with_options(
            spec.machine.clone(),
            spec.escapes.clone(),
            strategy,
            options.clone(),
        );
        let program = compiler
            .compile_module(&module)
            .unwrap_or_else(|e| panic!("LL7 on {machine}: {e}"));
        data.merge(program.trace.expect("tracing was enabled"));
    }
    data
}

/// Renders the three summary tables from an aggregated trace.
fn report(data: &TraceData) -> String {
    let mut out = String::new();

    // ---- per-phase wall-clock ----
    let mut phases: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for r in &data.records {
        if let Record::Span { name, dur_us, .. } = r {
            let slot = phases.entry(name).or_insert((0, 0));
            slot.0 += dur_us;
            slot.1 += 1;
        }
    }
    if !phases.is_empty() {
        let widths = [24, 12, 8, 10];
        out.push_str("phase timing (wall clock)\n");
        out.push_str(&row(
            &[
                "phase".into(),
                "total us".into(),
                "spans".into(),
                "mean us".into(),
            ],
            &widths,
        ));
        out.push('\n');
        let mut rows: Vec<(&str, u64, u64)> =
            phases.into_iter().map(|(n, (t, c))| (n, t, c)).collect();
        rows.sort_by_key(|(_, t, _)| std::cmp::Reverse(*t));
        for (name, total, count) in rows {
            out.push_str(&row(
                &[
                    name.into(),
                    total.to_string(),
                    count.to_string(),
                    format!("{:.1}", total as f64 / count.max(1) as f64),
                ],
                &widths,
            ));
            out.push('\n');
        }
        out.push('\n');
    }

    // ---- per-function static counters ----
    let mut funcs: BTreeMap<&str, BTreeMap<&str, i64>> = BTreeMap::new();
    for r in &data.records {
        if let Record::Counter { name, ctx, value } = r {
            *funcs.entry(ctx).or_default().entry(name).or_insert(0) += value;
        }
    }
    if !funcs.is_empty() {
        let cols = [
            ("insts_generated", "insts"),
            ("spills", "spills"),
            ("estimated_cycles", "est cyc"),
            ("delay_slots_filled", "filled"),
            ("nops_emitted", "nops"),
            ("sched_stall_cycles", "stalls"),
            ("packed_words", "packed"),
            ("ra_rounds", "ra rnd"),
        ];
        let mut widths = vec![28usize];
        widths.extend(cols.iter().map(|(_, h)| h.len().max(7)));
        out.push_str("per-function summary\n");
        let mut header: Vec<String> = vec!["machine/function".into()];
        header.extend(cols.iter().map(|(_, h)| h.to_string()));
        out.push_str(&row(&header, &widths));
        out.push('\n');
        for (ctx, counters) in &funcs {
            let mut cells: Vec<String> = vec![(*ctx).into()];
            cells.extend(
                cols.iter()
                    .map(|(key, _)| counters.get(key).copied().unwrap_or(0).to_string()),
            );
            out.push_str(&row(&cells, &widths));
            out.push('\n');
        }
        out.push('\n');
    }

    // ---- issue-slot utilization (multi-issue machines) ----
    let mut any_util = false;
    for (ctx, counters) in &funcs {
        let slots = counters.get("issue_slots_used").copied().unwrap_or(0);
        let cycles = counters.get("issue_cycles").copied().unwrap_or(0);
        if cycles > 0 && slots > cycles {
            if !any_util {
                out.push_str("issue-slot utilization\n");
                any_util = true;
            }
            out.push_str(&format!(
                "  {ctx:<28} {:.2} sub-ops/word ({slots} ops in {cycles} words)\n",
                slots as f64 / cycles as f64
            ));
        }
    }
    if any_util {
        out.push('\n');
    }

    // ---- stall attribution (scheduler provenance histograms) ----
    let stall_cols = [
        ("stall_dependence", "depend"),
        ("stall_resource", "resrc"),
        ("stall_class", "class"),
        ("stall_temporal", "tempo"),
        ("stall_pressure", "press"),
        ("stall_order", "order"),
    ];
    let any_stalls = funcs.iter().any(|(_, counters)| {
        stall_cols
            .iter()
            .any(|(key, _)| counters.get(key).copied().unwrap_or(0) > 0)
    });
    if any_stalls {
        let mut widths = vec![28usize];
        widths.extend(stall_cols.iter().map(|(_, h)| h.len().max(7)));
        out.push_str("stall attribution (cycles waited, by reason)\n");
        let mut header: Vec<String> = vec!["machine/function".into()];
        header.extend(stall_cols.iter().map(|(_, h)| h.to_string()));
        out.push_str(&row(&header, &widths));
        out.push('\n');
        for (ctx, counters) in &funcs {
            if !stall_cols
                .iter()
                .any(|(key, _)| counters.get(key).copied().unwrap_or(0) > 0)
            {
                continue;
            }
            let mut cells: Vec<String> = vec![(*ctx).into()];
            cells.extend(
                stall_cols
                    .iter()
                    .map(|(key, _)| counters.get(key).copied().unwrap_or(0).to_string()),
            );
            out.push_str(&row(&cells, &widths));
            out.push('\n');
        }
        out.push('\n');
    }

    // ---- sample distributions + gauges ----
    let mut any_hist = false;
    for r in &data.records {
        if let Record::Hist { name, ctx, hist } = r {
            if !any_hist {
                out.push_str("sample distributions (log2 buckets)\n");
                any_hist = true;
            }
            out.push_str(&format!("  {ctx} \u{2014} {name}: {}\n", hist.summarize()));
        }
    }
    if any_hist {
        out.push('\n');
    }
    let mut any_gauge = false;
    for r in &data.records {
        if let Record::Gauge { name, ctx, value } = r {
            if !any_gauge {
                out.push_str("gauges (high-water)\n");
                any_gauge = true;
            }
            out.push_str(&format!("  {ctx} \u{2014} {name}: {value}\n"));
        }
    }
    if any_gauge {
        out.push('\n');
    }

    // ---- compile-cache effectiveness ----
    let cache_cols = [
        ("cache_hit", "hits"),
        ("cache_miss", "misses"),
        ("cache_evict", "evicted"),
    ];
    let mut cache_totals = [0i64; 3];
    for counters in funcs.values() {
        for (i, (key, _)) in cache_cols.iter().enumerate() {
            cache_totals[i] += counters.get(key).copied().unwrap_or(0);
        }
    }
    if cache_totals.iter().any(|&t| t > 0) {
        let mut widths = vec![28usize];
        widths.extend(cache_cols.iter().map(|(_, h)| h.len().max(7)));
        out.push_str("compile-cache effectiveness\n");
        let mut header: Vec<String> = vec!["machine/function".into()];
        header.extend(cache_cols.iter().map(|(_, h)| h.to_string()));
        out.push_str(&row(&header, &widths));
        out.push('\n');
        for (ctx, counters) in &funcs {
            if !cache_cols
                .iter()
                .any(|(key, _)| counters.get(key).copied().unwrap_or(0) > 0)
            {
                continue;
            }
            let mut cells: Vec<String> = vec![(*ctx).into()];
            cells.extend(
                cache_cols
                    .iter()
                    .map(|(key, _)| counters.get(key).copied().unwrap_or(0).to_string()),
            );
            out.push_str(&row(&cells, &widths));
            out.push('\n');
        }
        let lookups = cache_totals[0] + cache_totals[1];
        out.push_str(&format!(
            "  total: {} hit(s), {} miss(es), {} eviction(s) — {:.0}% hit rate\n\n",
            cache_totals[0],
            cache_totals[1],
            cache_totals[2],
            if lookups > 0 {
                cache_totals[0] as f64 * 100.0 / lookups as f64
            } else {
                0.0
            }
        ));
    }

    // ---- reservation tables, with scheduler narratives alongside ----
    let event_field = |fields: &[(String, marion_trace::Value)], name: &str| -> Option<String> {
        fields
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_str())
            .map(str::to_string)
    };
    // `(ctx, pass) -> narratives`, drained as tables consume them so
    // leftovers (explanations on, tables off) still render below.
    let mut narratives: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();
    for (ctx, fields) in data.events_named("sched_explain") {
        let pass = event_field(fields, "pass").unwrap_or_else(|| "?".to_string());
        if let Some(text) = event_field(fields, "narrative") {
            narratives
                .entry((ctx.to_string(), pass))
                .or_default()
                .push(text);
        }
    }
    let indent = |out: &mut String, text: &str| {
        for line in text.lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
    };
    let tables = data.events_named("reservation_table");
    if !tables.is_empty() {
        out.push_str("reservation tables (cycle x resource)\n");
        for (ctx, fields) in tables {
            let pass = event_field(fields, "pass").unwrap_or_else(|| "?".to_string());
            out.push_str(&format!("\n{ctx} [{pass}]\n"));
            if let Some(table) = event_field(fields, "table") {
                indent(&mut out, &table);
            }
            if let Some(texts) = narratives.remove(&(ctx.to_string(), pass)) {
                for text in texts {
                    out.push_str("  narrative:\n");
                    indent(&mut out, &text);
                }
            }
        }
        out.push('\n');
    }
    if !narratives.is_empty() {
        out.push_str("scheduler narratives\n");
        for ((ctx, pass), texts) in narratives {
            out.push_str(&format!("\n{ctx} [{pass}]\n"));
            for text in texts {
                indent(&mut out, &text);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use marion_trace::Tracer;

    fn trace_with(ctx: &str, insts: i64, stalls: i64) -> TraceData {
        let t = Tracer::new(TraceConfig::default());
        t.add(ctx, "insts_generated", insts);
        t.add(ctx, "stall_resource", stalls);
        t.finish().unwrap()
    }

    #[test]
    fn multiple_jsonl_files_merge_counters() {
        // Two trace files for the same machine/function, round-tripped
        // through JSONL exactly as main() does.
        let a = TraceData::parse_jsonl(&trace_with("m/f", 10, 2).to_jsonl()).unwrap();
        let b = TraceData::parse_jsonl(&trace_with("m/f", 5, 3).to_jsonl()).unwrap();
        let merged = merge_traces(vec![a, b]);
        // Before the merge fix, the first file's counter shadowed the
        // second (counter() returns the first match).
        assert_eq!(merged.counter("m/f", "insts_generated"), Some(15));
        assert_eq!(merged.counter("m/f", "stall_resource"), Some(5));
        let rendered = report(&merged);
        assert!(
            rendered.contains("15"),
            "summed count rendered:\n{rendered}"
        );
        assert!(
            rendered.contains("stall attribution"),
            "stall section rendered:\n{rendered}"
        );
    }

    #[test]
    fn narratives_render_next_to_their_reservation_tables() {
        use marion_trace::Value;
        let t = Tracer::new(TraceConfig {
            reservation_tables: true,
            explanations: true,
        });
        t.event(
            "m/f/b0",
            "reservation_table",
            &[
                ("pass", Value::from("final")),
                ("table", Value::from("cyc0 ALU\ncyc1 MEM")),
            ],
        );
        t.event(
            "m/f/b0",
            "sched_explain",
            &[
                ("pass", Value::from("final")),
                ("narrative", Value::from("cycle 1: stalled on load latency")),
            ],
        );
        // A narrative with no matching table lands in its own section.
        t.event(
            "m/f/b1",
            "sched_explain",
            &[
                ("pass", Value::from("final")),
                ("narrative", Value::from("no stalls")),
            ],
        );
        let rendered = report(&t.finish().unwrap());
        let table_at = rendered.find("cyc0 ALU").expect("table rendered");
        let narrative_at = rendered
            .find("stalled on load latency")
            .expect("narrative rendered");
        assert!(
            narrative_at > table_at,
            "narrative follows its table:\n{rendered}"
        );
        assert!(
            rendered.contains("scheduler narratives"),
            "unpaired narrative gets its own section:\n{rendered}"
        );
        assert!(rendered.contains("no stalls"));
    }

    #[test]
    fn cache_counters_render_an_effectiveness_section() {
        let t = Tracer::new(TraceConfig::default());
        t.add("m/f1", "cache_hit", 1);
        t.add("m/f2", "cache_miss", 1);
        t.add("m/f2", "insts_generated", 12);
        let rendered = report(&t.finish().unwrap());
        assert!(
            rendered.contains("compile-cache effectiveness"),
            "{rendered}"
        );
        assert!(
            rendered.contains("total: 1 hit(s), 1 miss(es), 0 eviction(s) — 50% hit rate"),
            "{rendered}"
        );
    }

    #[test]
    fn traces_without_cache_counters_skip_the_cache_section() {
        let rendered = report(&trace_with("m/f", 3, 0));
        assert!(!rendered.contains("compile-cache"), "{rendered}");
    }

    #[test]
    fn mismatched_machines_and_strategies_warn_on_merge() {
        let t = Tracer::new(TraceConfig::default());
        t.add("r2000/f", "insts_generated", 3);
        {
            let _s = t.span("r2000/f", "sched:ips-final");
        }
        let a = t.finish().unwrap();
        let t = Tracer::new(TraceConfig::default());
        t.add("i860/f", "insts_generated", 4);
        {
            let _s = t.span("i860/f", "sched:postpass");
        }
        let b = t.finish().unwrap();
        let warnings = mismatch_warnings(&[("a.jsonl".into(), a), ("b.jsonl".into(), b)]);
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert!(warnings[0].contains("different targets"));
        assert!(warnings[1].contains("different strategies"));
    }

    #[test]
    fn matching_trace_files_merge_without_warnings() {
        let mk = || {
            let t = Tracer::new(TraceConfig::default());
            t.add("r2000/f", "insts_generated", 3);
            {
                let _s = t.span("r2000/f", "sched:postpass");
            }
            t.finish().unwrap()
        };
        let warnings = mismatch_warnings(&[("a.jsonl".into(), mk()), ("b.jsonl".into(), mk())]);
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn distinct_functions_stay_separate_rows() {
        let a = trace_with("m/f1", 7, 0);
        let b = trace_with("m/f2", 9, 0);
        let merged = merge_traces(vec![a, b]);
        assert_eq!(merged.counter("m/f1", "insts_generated"), Some(7));
        assert_eq!(merged.counter("m/f2", "insts_generated"), Some(9));
        let rendered = report(&merged);
        assert!(rendered.contains("m/f1"));
        assert!(rendered.contains("m/f2"));
    }
}
