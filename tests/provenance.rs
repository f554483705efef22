//! Schedule provenance properties:
//!
//! * `audit_schedule` is a real, independent checker — mutate a valid
//!   schedule (swap two cycles, issue under a latency) and it must
//!   pinpoint the offending instruction and constraint family;
//! * corrupted stall records are caught by the provenance audit;
//! * the acceptance identity `issue − ready == Σ stall cycles` holds
//!   for every instruction of every block over SplitMix64-generated
//!   TOYP programs, with the auditor agreeing throughout;
//! * the annotated DOT export is structurally well-formed and
//!   `check_dot` rejects tampering.

use marion::backend::dag::{build_dag, CodeDag};
use marion::backend::explain::{self, StallReason};
use marion::backend::regalloc::allocate;
use marion::backend::sched::{self, Schedule};
use marion::backend::select::select_func;
use marion::backend::{audit_schedule, code::CodeBlock};
use marion::machines::MachineSpec;
use marion::maril::Machine;
use marion::workloads::gen::{random_program, GenConfig};
use marion_rng::SplitMix64;

const DOT_PRODUCT: &str = "int a[64]; int b[64];
int main() {
    int i; int s = 0;
    for (i = 0; i < 64; i++) s = s + a[i] * b[i];
    return s;
}";

/// Compiles `src` on `machine_name` Postpass-style and returns every
/// nonempty block with a Rule-1 schedule (blocks that needed a
/// fallback discipline are skipped — the mutation tests want the
/// primary path).
fn scheduled_blocks(spec: &MachineSpec, src: &str) -> Vec<(CodeBlock, CodeDag, Schedule)> {
    let mut module = marion::frontend::compile(src).unwrap();
    marion::backend::driver::materialize_float_constants(&mut module);
    let mut out = Vec::new();
    for f in &module.funcs {
        let mut f = f.clone();
        marion::backend::glue::apply_glue(&spec.machine, &mut f).unwrap();
        let mut code = select_func(&spec.machine, &spec.escapes, &module, &f).unwrap();
        if allocate(&spec.machine, &mut code, &Default::default()).is_err() {
            continue;
        }
        for block in &code.blocks {
            if block.insts.is_empty() {
                continue;
            }
            let dag = build_dag(&spec.machine, block, true);
            if let Ok(s) =
                sched::schedule_block(&spec.machine, &code, block, &dag, &Default::default())
            {
                out.push((block.clone(), dag, s));
            }
        }
    }
    out
}

/// Moves instruction `i` from its scheduled cycle to `to`, keeping
/// `cycles` and `inst_cycle` mutually consistent (so the coverage
/// audit passes and the interesting family reports instead).
fn move_inst(schedule: &mut Schedule, i: usize, to: u32) {
    let from = schedule.inst_cycle[i] as usize;
    schedule.cycles[from].retain(|&x| x != i);
    if schedule.cycles.len() <= to as usize {
        schedule.cycles.resize(to as usize + 1, Vec::new());
    }
    schedule.cycles[to as usize].push(i);
    schedule.inst_cycle[i] = to;
}

#[test]
fn audit_pinpoints_latency_violation() {
    let spec = marion::machines::load("toyp");
    let blocks = scheduled_blocks(&spec, DOT_PRODUCT);
    // Find a binding edge with real latency and issue its sink one
    // cycle too early.
    let mut tested = 0;
    for (block, dag, schedule) in &blocks {
        let Some(e) = dag.edges.iter().find(|e| {
            e.latency >= 2 && schedule.inst_cycle[e.to] == schedule.inst_cycle[e.from] + e.latency
        }) else {
            continue;
        };
        let mut bad = schedule.clone();
        move_inst(&mut bad, e.to, schedule.inst_cycle[e.to] - 1);
        let err = audit_schedule(&spec.machine, block, dag, &bad, true)
            .expect_err("latency violation must be caught");
        assert_eq!(err.kind, "dependence", "wrong family: {err}");
        assert_eq!(err.inst, Some(e.to), "wrong instruction: {err}");
        tested += 1;
    }
    assert!(tested > 0, "no block with a latency-binding edge found");
}

#[test]
fn audit_pinpoints_swapped_cycles() {
    let spec = marion::machines::load("toyp");
    let blocks = scheduled_blocks(&spec, DOT_PRODUCT);
    let mut tested = 0;
    for (block, dag, schedule) in &blocks {
        // Swap the cycles of two dependent instructions.
        let Some(e) = dag
            .edges
            .iter()
            .find(|e| e.latency >= 1 && schedule.inst_cycle[e.from] < schedule.inst_cycle[e.to])
        else {
            continue;
        };
        let (cf, ct) = (schedule.inst_cycle[e.from], schedule.inst_cycle[e.to]);
        let mut bad = schedule.clone();
        move_inst(&mut bad, e.from, ct);
        move_inst(&mut bad, e.to, cf);
        let err = audit_schedule(&spec.machine, block, dag, &bad, true)
            .expect_err("swapped dependent instructions must be caught");
        assert_eq!(err.kind, "dependence", "wrong family: {err}");
        assert_eq!(err.inst, Some(e.to), "wrong instruction: {err}");
        tested += 1;
    }
    assert!(tested > 0, "no block with a dependence edge found");
}

#[test]
fn audit_rejects_corrupted_stall_records() {
    let spec = marion::machines::load("toyp");
    let blocks = scheduled_blocks(&spec, DOT_PRODUCT);
    let mut tested = 0;
    for (block, dag, schedule) in &blocks {
        let Some(victim) = schedule
            .explanation
            .records
            .iter()
            .position(|r| !r.stalls.is_empty())
        else {
            continue;
        };
        // Claim the stall was a conflict on a resource the
        // instruction never uses and nobody holds.
        let mut bad = schedule.clone();
        bad.explanation.records[victim].stalls[0].reason = StallReason::Resource { resource: 200 };
        let err = audit_schedule(&spec.machine, block, dag, &bad, true)
            .expect_err("fabricated stall reason must be caught");
        assert_eq!(err.kind, "provenance", "wrong family: {err}");
        assert_eq!(err.inst, Some(victim), "wrong instruction: {err}");
        tested += 1;
    }
    assert!(tested > 0, "no stalled instruction found to corrupt");
}

/// Schedules one random TOYP program's blocks and asserts the
/// acceptance identity plus auditor agreement on each.
fn check_toyp_program(spec: &MachineSpec, seed: u64) {
    let src = random_program(seed, &GenConfig::default());
    for (block, dag, schedule) in &scheduled_blocks(spec, &src) {
        let ex = &schedule.explanation;
        assert_eq!(ex.records.len(), block.insts.len(), "seed {seed}");
        for r in &ex.records {
            assert_eq!(
                r.stall_cycles(),
                r.issue_cycle - r.ready_cycle,
                "seed {seed}: [{}] ready {} issue {} stalls {:?}",
                r.inst,
                r.ready_cycle,
                r.issue_cycle,
                r.stalls
            );
            assert!(r.earliest_cycle >= r.ready_cycle, "seed {seed}");
            assert!(r.issue_cycle >= r.earliest_cycle, "seed {seed}");
        }
        audit_schedule(&spec.machine, block, dag, schedule, true)
            .unwrap_or_else(|e| panic!("seed {seed}: audit: {e}"));
    }
}

#[test]
fn stalls_account_for_every_wait_cycle_on_toyp() {
    let spec = marion::machines::load("toyp");
    let mut rng = SplitMix64::new(0xA11D17);
    for _ in 0..12 {
        check_toyp_program(&spec, rng.below(100_000));
    }
}

fn dot_for(machine: &Machine, block: &CodeBlock, dag: &CodeDag, schedule: &Schedule) -> String {
    explain::dag_to_dot(machine, block, dag, schedule, "test/b0")
}

#[test]
fn dot_export_is_well_formed_and_tamper_evident() {
    let spec = marion::machines::load("toyp");
    let blocks = scheduled_blocks(&spec, DOT_PRODUCT);
    assert!(!blocks.is_empty());
    let mut checked = 0;
    for (block, dag, schedule) in &blocks {
        let dot = dot_for(&spec.machine, block, dag, schedule);
        explain::check_dot(&dot, dag).unwrap_or_else(|e| panic!("malformed DOT: {e}\n{dot}"));
        checked += 1;
        if dag.n >= 2 && !dag.edges.is_empty() {
            // Drop one node statement: count mismatch.
            let cut: Vec<&str> = dot
                .lines()
                .filter(|l| !l.trim_start().starts_with("n0 ["))
                .collect();
            assert!(explain::check_dot(&cut.join("\n"), dag).is_err());
            // Unbalance the braces.
            assert!(explain::check_dot(dot.trim_end().trim_end_matches('}'), dag).is_err());
        }
    }
    assert!(checked > 0);
}
