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

/// Spill-rewrite work per spilled vreg (`ra_spill_visits` over
/// `spills`) stays flat from 250 to 1000 statements under IPS and
/// RASE on r2000, while the block grows 4x: a rewrite that rescans
/// the block for each spilled vreg fails this on any host.
#[test]
fn spill_visits_per_spill_stay_flat_as_blocks_grow() {
    let spec = marion::machines::load("r2000");
    for strategy in [StrategyKind::Ips, StrategyKind::Rase] {
        let compiler = Compiler::with_options(
            spec.machine.clone(),
            spec.escapes.clone(),
            strategy,
            CompileOptions {
                trace: Some(TraceConfig::default()),
                ..CompileOptions::default()
            },
        );
        let visits_per_spill = |stmts: u32| {
            let module = marion::frontend::compile(&straight_line(stmts)).unwrap();
            let program = compiler.compile_module(&module).unwrap();
            let trace = program.trace.expect("tracing was on");
            let spills = trace.counter_total("spills");
            assert!(
                spills > 0,
                "{strategy:?}: nothing spilled at {stmts} statements"
            );
            (
                trace.counter_total("ra_spill_visits") as f64 / spills as f64,
                spills,
            )
        };
        let ((small, small_spills), (large, large_spills)) =
            (visits_per_spill(250), visits_per_spill(1000));
        assert!(
            large <= 1.5 * small,
            "{strategy:?}: {small:.1} spill visits per spill at 250 statements ({small_spills} \
             spills), {large:.1} at 1000 ({large_spills} spills)"
        );
    }
}

/// Stable digests of the rendered assembly for every bundled machine
/// and strategy over four modules: combined Livermore 1–14,
/// `combined_generated(12, 42)` and the straight-line `main`s of 250
/// and 1000 statements. Cycle counts survive a register renaming or a
/// reordered spill; these digests do not. Regenerate the table only
/// for a change meant to alter the emitted code: the failure message
/// prints every current row.
const ASM_DIGESTS: &str = "\
toyp Postpass livermore e4dcaf271ee2187f0f969e95daa5cb84
toyp Postpass generated_12_42 c20db3fcec0000c0986bef475624db66
toyp Postpass straight_250 586516f41ea20ffac6b50d2bbdf5b6e0
toyp Postpass straight_1000 afdfe8942faf5ca8dc0037ef8e958a37
toyp Ips livermore 8c8347c01b88e2bd155f3e4006deb43b
toyp Ips generated_12_42 241f22b47934d539c289090f904a0a63
toyp Ips straight_250 f428c1f8db8814902603af87b94eb0b8
toyp Ips straight_1000 89be5efef6a21f1e28ddd7d26e9044bc
toyp Rase livermore 95e539981fbf2142cd2ba46c385b5e6f
toyp Rase generated_12_42 e4af9f1fb4227a6d909793bdc7bff719
toyp Rase straight_250 6a4b677d8095716db3b072542113e453
toyp Rase straight_1000 f4ded3be45fd7c7ccf691269114583e5
r2000 Postpass livermore 8822d84d5c146b4c32cdd20ae00dc379
r2000 Postpass generated_12_42 92e85e38f46de939b6d6c7bac4301a76
r2000 Postpass straight_250 cace2a3c498a4bfa0a6467da6d43f417
r2000 Postpass straight_1000 dce47cd3b7f83da7c3778350ff134382
r2000 Ips livermore 6370a057e8058a8bd72b793deb664c51
r2000 Ips generated_12_42 5c497ba192b66a050ca46868a7580c11
r2000 Ips straight_250 8f84000f69853c2ede73022d5e64dd0a
r2000 Ips straight_1000 37e897d50648a9fb33fc18e0d4a8b912
r2000 Rase livermore d4eea3c72bf3991e601005fa766c12ca
r2000 Rase generated_12_42 d2952a75f583a936e184ca2241f35bad
r2000 Rase straight_250 27a9ba1c370aa1f01c1e10d426884024
r2000 Rase straight_1000 efba63d741c93c00e85176c842ed5d43
m88k Postpass livermore 467f352f125790c5bf4dcd965f11d291
m88k Postpass generated_12_42 044f16854f99ac2bfb97410b0ee9c541
m88k Postpass straight_250 620023d56d22f93c8b1193e8bb61fef7
m88k Postpass straight_1000 c98e4095f2943590e549c1208cab184c
m88k Ips livermore f279ea463ef7de6aa1bc5b77b65c59e7
m88k Ips generated_12_42 3c514ad930b7f7f232748058237bb8d1
m88k Ips straight_250 4ae9b6a71441d0fc2ce20f605f9e7459
m88k Ips straight_1000 daecb54bfa7f1e916693a696714608dd
m88k Rase livermore faf96222a292828b0369a0abe084ed95
m88k Rase generated_12_42 47062899d45f5efa7e3cd22826dc4c38
m88k Rase straight_250 4a013b31dd4394a53d00f2e7316114fc
m88k Rase straight_1000 0c3a259477f0a2869b6a21c5d1b1dc26
i860 Postpass livermore 87dd0c4a411cdf0fda0f2b86ac131ee0
i860 Postpass generated_12_42 275eaf57528a013e1da819e8ddc3f280
i860 Postpass straight_250 18e1c965c7b598c3d911745cce945e8d
i860 Postpass straight_1000 05d32b173dd53b6a587348f29e39b225
i860 Ips livermore 3ae0a05daaeedb2a5279fb3474567a15
i860 Ips generated_12_42 756a0950c403fd274980b6077ffc55b0
i860 Ips straight_250 b6d8500f5459e9e83530ec493bb2b9cd
i860 Ips straight_1000 a5b070d3c6c44b18f4bc04d43aa38636
i860 Rase livermore 826dc7d7caaa8b5a3e6fdc38e419778f
i860 Rase generated_12_42 86049255cd8342fa8b11ae570b274f8a
i860 Rase straight_250 b6d8500f5459e9e83530ec493bb2b9cd
i860 Rase straight_1000 43dadb7614c18ef451f64f0bb9efc705
rs6000 Postpass livermore cafbb2b2027744701a8942ebc14e188b
rs6000 Postpass generated_12_42 0c791a4e0bd5e66a7bbed3f3517b06c0
rs6000 Postpass straight_250 5c498d1e6afbdbba78f4c5fc27e4ebca
rs6000 Postpass straight_1000 01ab20be5a6c4387cde18c05b37da4cb
rs6000 Ips livermore bba00168129228fc767ecc0e32ef6e98
rs6000 Ips generated_12_42 209ad06e05f8dc48aaf1d973b7702e12
rs6000 Ips straight_250 b058327571a39942f7026f26d61d7050
rs6000 Ips straight_1000 17e330136b71bd84b75bfe5aa3eaf978
rs6000 Rase livermore e129c98a93660398427764cbc5447c13
rs6000 Rase generated_12_42 d572501bce1d0c9bde343913feabdec3
rs6000 Rase straight_250 8f92dc3bf81502cbba2b667bb7d7739b
rs6000 Rase straight_1000 e75ac55167991e324fb0254648bedcdb
";

#[test]
fn assembly_digests_match_the_pinned_table() {
    use marion::backend::stablehash::StableHash;
    let modules = [
        ("livermore", marion::workloads::multi::combined_livermore()),
        (
            "generated_12_42",
            marion::workloads::multi::combined_generated(12, 42),
        ),
        (
            "straight_250",
            marion::frontend::compile(&straight_line(250)).unwrap(),
        ),
        (
            "straight_1000",
            marion::frontend::compile(&straight_line(1000)).unwrap(),
        ),
    ];
    let mut table = String::new();
    for machine in marion::machines::EXTENDED {
        let spec = marion::machines::load(machine);
        for strategy in [
            StrategyKind::Postpass,
            StrategyKind::Ips,
            StrategyKind::Rase,
        ] {
            let compiler = Compiler::new(spec.machine.clone(), spec.escapes.clone(), strategy);
            for (name, module) in &modules {
                let text = compiler
                    .compile_module(module)
                    .unwrap_or_else(|e| panic!("{machine}/{strategy:?}/{name}: {e}"))
                    .render(&spec.machine);
                let mut h = marion::cache::StableHasher::new();
                text.stable_hash(&mut h);
                table.push_str(&format!("{machine} {strategy:?} {name} {}\n", h.finish()));
            }
        }
    }
    let changed: Vec<&str> = table
        .lines()
        .filter(|row| !ASM_DIGESTS.lines().any(|pinned| pinned == *row))
        .collect();
    assert!(
        table == ASM_DIGESTS,
        "assembly digests differ from the pinned table in {changed:?}; current table:\n{table}"
    );
}
