//! The benchmark's own checks: its work counts repeat exactly for a
//! seed, and the seed drives the generated inputs.

use marion_perfbench::inputs;
use marion_perfbench::{run, RunConfig, Workload};

/// The deterministic counts of a single-pass run.
fn counts(workload: Workload, seed: u64, trace: bool) -> Vec<(&'static str, f64)> {
    let config = RunConfig {
        workload,
        seed,
        seconds: 0.0,
        threads: 2,
    };
    let report = run(&config, trace);
    assert!(report.attempted > 0);
    assert_eq!(
        report.failed,
        0,
        "{}: {:?}",
        workload.name(),
        report.failures
    );
    let names: &[&'static str] = if trace {
        &[
            "select.insts",
            "dag.edges",
            "regalloc.spills",
            "emit.nops",
            "sim.words",
        ]
    } else {
        &["sim_cycles", "est_cycles", "code_insts"]
    };
    names
        .iter()
        .map(|&n| {
            let v = report
                .metric(n)
                .unwrap_or_else(|| panic!("{} lacks {n}", workload.name()));
            // Straight-line blocks may allocate without spilling.
            assert!(
                v > 0.0 || n == "regalloc.spills",
                "{}: {n} is {v}",
                workload.name()
            );
            (n, v)
        })
        .collect()
}

#[test]
fn end_to_end_counts_repeat_for_a_seed() {
    for w in Workload::ALL {
        assert_eq!(counts(w, 7, false), counts(w, 7, false), "{}", w.name());
    }
}

#[test]
fn layer_counts_repeat_for_a_seed() {
    // `modules` is left out only for time: its traced run simulates
    // the combined Livermore module fifteen times.
    for w in [Workload::BigBlocks, Workload::Serve] {
        assert_eq!(counts(w, 7, true), counts(w, 7, true), "{}", w.name());
    }
}

#[test]
fn the_seed_changes_the_generated_inputs() {
    let text = |w: Workload, seed: u64| -> Vec<String> {
        inputs::sources(w, seed)
            .into_iter()
            .map(|s| s.text)
            .collect()
    };
    for w in [Workload::Modules, Workload::BigBlocks] {
        assert_eq!(text(w, 3), text(w, 3), "{}", w.name());
        assert_ne!(text(w, 3), text(w, 4), "{}", w.name());
    }
    // `serve` has a fixed pool: the seed draws the request stream.
    let stream = |seed: u64| -> Vec<String> {
        let pool = inputs::serve_pool();
        let mut stream = inputs::Stream::new(seed, 0);
        (0..50).map(|_| stream.next(&pool).line).collect()
    };
    assert_eq!(stream(3), stream(3));
    assert_ne!(stream(3), stream(4));
}

#[test]
fn big_blocks_are_single_blocks_with_every_variable_live() {
    let src = inputs::straight_line(64, 1);
    let module = marion_frontend::compile(&src).expect("generated C compiles");
    assert_eq!(module.funcs.len(), 1);
    assert_eq!(module.funcs[0].blocks.len(), 1);
    for v in 0..inputs::LIVE_VARS {
        assert!(src.contains(&format!("v{v} = ")), "v{v} is assigned");
    }
}

#[test]
fn fresh_serve_modules_never_share_a_program() {
    // Clients a multiple of 16 apart included.
    let mut programs = std::collections::HashSet::new();
    for client in [0usize, 1, 15, 16, 17, 255, 256] {
        for k in 0..600u64 {
            let name = inputs::fresh_module(client, k, 4);
            let (count, first) = inputs::parse_gen(&name).expect("gen:<count>:<seed>");
            for program in first..first + count {
                assert!(programs.insert(program), "{name} repeats program {program}");
            }
        }
    }
    // Far from the pool's programs.
    assert!(programs.iter().all(|&p| p > 1 << 40));
}

#[test]
fn every_seed_sends_the_same_fresh_work() {
    // Over whole cycles of fresh kinds, two seeds name the same fresh
    // modules with the same machines and strategies, in other orders
    // and at other places of the stream.
    let fresh = |seed: u64| -> (Vec<String>, Vec<u64>) {
        let pool = inputs::serve_pool();
        let mut stream = inputs::Stream::new(seed, 1);
        let mut keys = Vec::new();
        let mut at = Vec::new();
        // 45 kinds, 3 fresh requests per block of 20: 300 requests.
        for n in 0..300u64 {
            let req = stream.next(&pool);
            if req.fresh_count.is_some() {
                keys.push(req.key);
                at.push(n);
            }
        }
        keys.sort();
        (keys, at)
    };
    let (keys3, at3) = fresh(3);
    let (keys4, at4) = fresh(4);
    assert_eq!(keys3.len(), 45);
    assert_eq!(keys3, keys4);
    assert_ne!(at3, at4);
}
