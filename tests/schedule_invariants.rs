//! Property: every schedule the compiler produces satisfies the
//! paper's constraints — dependences, structural hazards, packing
//! classes and Rule 1 — as checked by
//! [`marion::backend::sched::verify_schedule`]. Random programs on
//! every machine, plus the Livermore kernels on the EAP machine.
//!
//! Random programs come from deterministic in-repo seeds
//! ([`marion_rng::SplitMix64`]); a failure names its seed
//! and reproduces exactly.

use marion::backend::{audit_schedule, sched::Schedule};
use marion::backend::{dag::build_dag, regalloc::allocate, sched, select::select_func};
use marion::backend::{CompileOptions, Compiler, StrategyKind};
use marion::trace::TraceConfig;
use marion::workloads::gen::{random_program, GenConfig};
use marion_rng::SplitMix64;

/// Every placed instruction's stall tiles must exactly account for
/// the gap between its ready and issue cycles (the provenance
/// acceptance identity).
fn assert_stalls_account(machine_name: &str, schedule: &Schedule) {
    for r in &schedule.explanation.records {
        assert_eq!(
            r.stall_cycles(),
            r.issue_cycle - r.ready_cycle,
            "{machine_name}: [{}] stall tiles don't cover ready {} .. issue {}: {:?}",
            r.inst,
            r.ready_cycle,
            r.issue_cycle,
            r.stalls
        );
    }
}

/// Select, allocate (Postpass-style) and schedule every block,
/// verifying each schedule.
fn check_all_schedules(machine_name: &str, src: &str) {
    let spec = marion::machines::load(machine_name);
    let mut module = marion::frontend::compile(src).unwrap();
    marion::backend::driver::materialize_float_constants(&mut module);
    for f in &module.funcs {
        let mut f = f.clone();
        marion::backend::glue::apply_glue(&spec.machine, &mut f).unwrap();
        let code_res = select_func(&spec.machine, &spec.escapes, &module, &f);
        let mut code = code_res.unwrap_or_else(|e| panic!("{machine_name}: select: {e}"));
        if allocate(&spec.machine, &mut code, &Default::default()).is_err() {
            // Structural overcommit on tiny machines is handled by the
            // strategies' fallbacks; scheduling invariants are then
            // checked through the driver path instead.
            continue;
        }
        for block in &code.blocks {
            if block.insts.is_empty() {
                continue;
            }
            let dag = build_dag(&spec.machine, block, true);
            match sched::schedule_block(&spec.machine, &code, block, &dag, &Default::default()) {
                Ok(schedule) => {
                    sched::verify_schedule(&spec.machine, block, &dag, &schedule)
                        .unwrap_or_else(|e| panic!("{machine_name}: invalid schedule: {e}"));
                    // The independent auditor must agree, including
                    // with every recorded stall reason.
                    audit_schedule(&spec.machine, block, &dag, &schedule, true)
                        .unwrap_or_else(|e| panic!("{machine_name}: audit disagrees: {e}"));
                    assert_stalls_account(machine_name, &schedule);
                }
                Err(_) => {
                    // The strategies' fallback discipline: latch
                    // name-dependences instead of Rule 1. Verified
                    // against its own DAG, minus the Rule 1 check.
                    let dag2 =
                        marion::backend::dag::build_dag_with(&spec.machine, block, true, true);
                    let opts = sched::SchedOptions {
                        ignore_rule1: true,
                        ..Default::default()
                    };
                    let schedule =
                        match sched::schedule_block(&spec.machine, &code, block, &dag2, &opts) {
                            Ok(s) => s,
                            Err(_) => sched::serial_schedule(&spec.machine, block, &dag2),
                        };
                    sched::verify_schedule_with(&spec.machine, block, &dag2, &schedule, false)
                        .unwrap_or_else(|e| panic!("{machine_name}: invalid fallback: {e}"));
                    audit_schedule(&spec.machine, block, &dag2, &schedule, false).unwrap_or_else(
                        |e| panic!("{machine_name}: fallback audit disagrees: {e}"),
                    );
                    assert_stalls_account(machine_name, &schedule);
                }
            }
        }
    }
}

#[test]
fn schedules_valid_on_all_machines() {
    // 16 deterministic random programs (the proptest suite ran 16
    // cases), each checked on every bundled machine.
    let mut rng = SplitMix64::new(0x5EED);
    for _ in 0..16 {
        let seed = rng.below(100_000);
        let src = random_program(seed, &GenConfig::default());
        for machine in marion::machines::EXTENDED {
            check_all_schedules(machine, &src);
        }
    }
}

#[test]
fn livermore_schedules_valid_on_i860() {
    // The EAP machine is where Rule 1 and packing classes bite.
    for kernel in marion::workloads::livermore::kernels() {
        check_all_schedules("i860", &kernel.source);
    }
}

#[test]
fn serial_fallback_schedules_are_valid_too() {
    let spec = marion::machines::load("i860");
    let kernels = marion::workloads::livermore::kernels();
    let ll7 = kernels.iter().find(|k| k.name == "LL7").unwrap();
    let mut module = ll7.module();
    marion::backend::driver::materialize_float_constants(&mut module);
    for f in &module.funcs {
        let mut f = f.clone();
        marion::backend::glue::apply_glue(&spec.machine, &mut f).unwrap();
        let code = select_func(&spec.machine, &spec.escapes, &module, &f).unwrap();
        for block in &code.blocks {
            if block.insts.is_empty() {
                continue;
            }
            let dag = build_dag(&spec.machine, block, true);
            let schedule = sched::serial_schedule(&spec.machine, block, &dag);
            // The serial fallback must satisfy dependences and
            // resources; Rule 1 is intentionally waived for it (the
            // simulator's per-word semantics make thread order safe),
            // so check the first two constraint families only via a
            // full verify on blocks without temporal edges.
            let has_temporal = dag
                .edges
                .iter()
                .any(|e| matches!(e.kind, marion::backend::dag::EdgeKind::TrueTemporal(_)));
            if !has_temporal {
                sched::verify_schedule(&spec.machine, block, &dag, &schedule)
                    .unwrap_or_else(|e| panic!("serial schedule invalid: {e}"));
                audit_schedule(&spec.machine, block, &dag, &schedule, true)
                    .unwrap_or_else(|e| panic!("serial audit disagrees: {e}"));
            }
            assert_stalls_account("i860", &schedule);
        }
    }
}

/// A straight-line `main` of `stmts` assignments over 16 `int`
/// variables, all folded into the result so every one stays live to
/// the end: one block whose register pressure the IPS limit binds.
fn straight_line(stmts: u32) -> String {
    let mut rng = SplitMix64::new(u64::from(stmts));
    let mut src = String::from("int main() {\n");
    for v in 0..16 {
        src.push_str(&format!("    int v{v} = {};\n", rng.below(100)));
    }
    let ops = ["+", "-", "*", "&", "^", "|"];
    for _ in 0..stmts {
        let (d, a, b) = (rng.below(16), rng.below(16), rng.below(16));
        let (o1, o2) = (ops[rng.index(ops.len())], ops[rng.index(ops.len())]);
        let c = rng.below(90) + 1;
        src.push_str(&format!("    v{d} = (v{a} {o1} v{b}) {o2} {c};\n"));
    }
    let all: Vec<String> = (0..16).map(|v| format!("v{v}")).collect();
    src.push_str(&format!("    return {};\n}}\n", all.join(" ^ ")));
    src
}

/// The list scheduler's debug-build oracles: every pick from the
/// bucketed ready set must equal the linear-scan maximum over the
/// ready instructions, and every stall a bucket attributes must equal
/// each member's own `stall_reason_at`, its whole stall log included.
/// Compiling with all three strategies schedules without a limit
/// (Postpass, every final pass), under the IPS limit (the IPS
/// prepass) and under RASE's tight limit (its estimate pass). The
/// checks are `debug_assert`s, so a release-mode run only compiles.
#[test]
fn bucketed_ready_set_matches_its_linear_oracle() {
    let mut modules: Vec<(String, marion::ir::Module)> = marion::workloads::livermore::kernels()
        .iter()
        .map(|k| (k.name.clone(), k.module()))
        .collect();
    let block = marion::frontend::compile(&straight_line(300)).unwrap();
    modules.push(("straight_line(300)".to_string(), block));
    for machine in marion::machines::EXTENDED {
        let spec = marion::machines::load(machine);
        for strategy in [
            StrategyKind::Postpass,
            StrategyKind::Ips,
            StrategyKind::Rase,
        ] {
            let compiler = Compiler::new(spec.machine.clone(), spec.escapes.clone(), strategy);
            for (name, module) in &modules {
                compiler
                    .compile_module(module)
                    .unwrap_or_else(|e| panic!("{machine}/{strategy:?}/{name}: {e}"));
            }
        }
    }
}

/// Ready-set work per pick (`pick_probes` over instructions issued in
/// the IPS prepass) stays flat from 250 to 1000 statements, where the
/// ready list itself grows about 3.5x: a scheduler that walks the
/// whole ready list per pick fails this on any host.
#[test]
fn pick_probes_per_pick_stay_flat_as_blocks_grow() {
    for machine in ["r2000", "i860"] {
        let spec = marion::machines::load(machine);
        let compiler = Compiler::with_options(
            spec.machine.clone(),
            spec.escapes.clone(),
            StrategyKind::Ips,
            CompileOptions {
                trace: Some(TraceConfig::default()),
                ..CompileOptions::default()
            },
        );
        let probes_per_pick = |stmts: u32| {
            let module = marion::frontend::compile(&straight_line(stmts)).unwrap();
            let program = compiler.compile_module(&module).unwrap();
            let trace = program.trace.expect("tracing was on");
            let (mut probes, mut picks, mut ready) = (0, 0, 0);
            for (_, fields) in trace.events_named("sched_block") {
                let get = |key: &str| {
                    fields
                        .iter()
                        .find(|(k, _)| k == key)
                        .map(|(_, v)| v)
                        .unwrap_or_else(|| panic!("sched_block without {key}"))
                };
                if get("pass").as_str() != Some("sched:ips-prepass") {
                    continue;
                }
                let int = |key: &str| get(key).as_int().expect("integer field");
                probes += int("pick_probes");
                picks += int("insts");
                ready = ready.max(int("ready_high_water"));
            }
            assert!(picks > 0, "{machine}: no IPS prepass blocks");
            (probes as f64 / picks as f64, ready)
        };
        let ((small, small_ready), (large, large_ready)) =
            (probes_per_pick(250), probes_per_pick(1000));
        assert!(
            large <= 1.5 * small,
            "{machine}: {small:.1} probes per pick at 250 statements (ready list up to \
             {small_ready}), {large:.1} at 1000 (up to {large_ready})"
        );
    }
}
