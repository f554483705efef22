//! Randomised differential testing: random generated programs must
//! produce identical results in the IR reference interpreter and when
//! compiled by Marion and executed on the pipeline simulator.
//!
//! This is the strongest whole-system invariant the repository has:
//! it exercises the front end, glue, selection (including escapes and
//! immediate materialisation), scheduling (including EAP temporal
//! scheduling on the i860), register allocation (including spills and
//! register pairs) and the simulator in one property.
//!
//! Seeds are drawn deterministically from the in-repo
//! [`marion_rng::SplitMix64`] generator (no external
//! fuzzing dependency), so failures reproduce exactly: re-run with the
//! printed seed via `check_seed`.

use marion::backend::{Compiler, StrategyKind};
use marion::ir::interp::{Interp, Value};
use marion::sim::{run_program, SimConfig};
use marion::workloads::gen::{random_program, GenConfig};
use marion_rng::SplitMix64;

/// Cases per machine/strategy pair (the proptest suite ran 24).
const CASES: u64 = 24;

fn check_seed(seed: u64, machine_name: &str, strategy: StrategyKind) {
    let config = GenConfig::default();
    let src = random_program(seed, &config);
    let module = marion::frontend::compile(&src)
        .unwrap_or_else(|e| panic!("seed {seed}: front end: {e}\n{src}"));
    let mut interp = Interp::new(&module, 1 << 20).with_budget(50_000_000);
    let expected = interp
        .call_by_name("main", &[])
        .unwrap_or_else(|e| panic!("seed {seed}: interp: {e}\n{src}"))
        .unwrap();
    let spec = marion::machines::load(machine_name);
    let compiler = Compiler::new(spec.machine.clone(), spec.escapes.clone(), strategy);
    let program = compiler
        .compile_module(&module)
        .unwrap_or_else(|e| panic!("seed {seed} on {machine_name}/{strategy}: {e}\n{src}"));
    let run = run_program(
        &spec.machine,
        &program,
        "main",
        &[],
        Some(marion::maril::Ty::Int),
        &SimConfig::default(),
    )
    .unwrap_or_else(|e| panic!("seed {seed} on {machine_name}/{strategy}: sim: {e}\n{src}"));
    let got = run.result.unwrap();
    let matches = matches!((expected, got), (Value::I(a), Value::I(b)) if a == b);
    assert!(
        matches,
        "seed {seed} on {machine_name}/{strategy}: interp {expected:?} != sim {got:?}\n{src}\n{}",
        program.render(&spec.machine)
    );
}

/// Draws `CASES` program seeds from a per-configuration stream and
/// checks each one.
fn check_many(stream_seed: u64, machine_name: &str, strategy: StrategyKind) {
    let mut rng = SplitMix64::new(stream_seed);
    for _ in 0..CASES {
        check_seed(rng.below(100_000), machine_name, strategy);
    }
}

#[test]
fn random_programs_agree_on_r2000() {
    check_many(0xA11CE, "r2000", StrategyKind::Ips);
}

#[test]
fn random_programs_agree_on_i860() {
    check_many(0xB0B, "i860", StrategyKind::Postpass);
}

#[test]
fn random_programs_agree_on_toyp() {
    check_many(0xCAFE, "toyp", StrategyKind::Rase);
}

#[test]
fn random_programs_agree_on_m88k() {
    check_many(0xD00D, "m88k", StrategyKind::Ips);
}

#[test]
fn random_programs_agree_on_rs6000() {
    check_many(0xE66, "rs6000", StrategyKind::Rase);
}
