//! The workloads' inputs, all derived from the run's seed, and the
//! timed set-up that makes the system ready to run them.

use crate::Workload;
use marion_bench::serve::{ServeConfig, Service};
use marion_core::{CompileOptions, Compiler, StrategyKind};
use marion_machines::MachineSpec;
use marion_rng::SplitMix64;
use marion_trace::json::ObjWriter;
use marion_workloads::gen::{random_program, GenConfig};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The strategies every workload compiles with.
pub const STRATEGIES: [StrategyKind; 3] = [
    StrategyKind::Postpass,
    StrategyKind::Ips,
    StrategyKind::Rase,
];

/// The machines `big_blocks` compiles for: the single-issue machine
/// with delayed loads and the dual-issue one with explicitly advanced
/// pipelines, whose schedulers scale worst.
pub const BIG_BLOCK_MACHINES: [&str; 2] = ["r2000", "i860"];

/// Statement counts of the `big_blocks` ladder, in steps of about
/// sqrt(2), so operation times spread evenly and no latency percentile
/// falls in a gap between rungs. The top rung is set by run length:
/// IPS and RASE cost grows about 4x per doubling, and one compile's
/// time varies by about +-25 % with the process's heap state, so each
/// operation needs some thirty compiles in a run for its mean to
/// settle. With a 1414-statement rung (RASE about 0.5 s a compile) a
/// 30-second run makes about seven passes and its figures spread by
/// 15-30 % between runs; 1000 is the largest rung that leaves about
/// fifteen passes.
pub const LADDER: [u32; 5] = [250, 354, 500, 707, 1000];

/// Simultaneously live `int` variables in a `big_blocks` function.
pub const LIVE_VARS: u32 = 16;

/// Generated programs linked into the `modules` workload's second module.
pub const GEN_PROGRAMS: u64 = 13;

/// Generator seed of the first of them. The programs are fixed; the
/// run's seed permutes their order in the module.
const MODULES_GEN_FIRST: u64 = 1991;

/// Requests each `serve` client sends per second of `--seconds`: about
/// the rate a client reaches on the two-core reference host, so a run
/// takes about `--seconds` there while every run does the same work.
pub const SERVE_RATE: f64 = 180.0;

/// Requests in one block of a `serve` client's stream.
pub const BLOCK: u64 = 20;

/// Requests in each block that name a fresh generated module and so
/// always miss the cache: 15 %, at seeded places in the block.
pub const COLD_PER_BLOCK: u64 = 3;

/// Program counts of the fresh `gen:<count>:<seed>` serve requests:
/// a 4x size range, so the cold-request scaling fit has a spread.
pub const COLD_COUNTS: [u64; 3] = [1, 2, 4];

/// Times the set-up is repeated in one run; `setup_s` is the median.
pub const SETUP_REPS: usize = 15;

/// Times the `serve` set-up is repeated: each compiles every repeated
/// key once, about half a second on the two-core reference host.
pub const SERVE_SETUP_REPS: usize = 7;

/// A C translation unit that goes through the front end.
#[derive(Debug, Clone)]
pub struct Source {
    /// Short name.
    pub name: String,
    /// The C text.
    pub text: String,
}

/// One compile unit: an IR module and how the service names it.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Short name.
    pub name: String,
    /// The module.
    pub module: marion_ir::Module,
    /// IR nodes over every function: the size the scaling fit uses.
    pub nodes: usize,
    /// The compile requests that name this unit's code: `workload`
    /// with a service workload name, or `source` with C text.
    pub requests: Vec<(&'static str, String)>,
}

impl Unit {
    fn new(name: String, module: marion_ir::Module, requests: Vec<(&'static str, String)>) -> Unit {
        let nodes = module.funcs.iter().map(|f| f.nodes.len()).sum();
        Unit {
            name,
            module,
            nodes,
            requests,
        }
    }
}

/// One operation of a pass: compile a unit for a machine with a strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Index into the units.
    pub unit: usize,
    /// Index into [`machines`].
    pub machine: usize,
    /// Strategy.
    pub strategy: StrategyKind,
}

/// Index of a strategy in [`STRATEGIES`].
pub fn strategy_index(kind: StrategyKind) -> usize {
    STRATEGIES
        .iter()
        .position(|&s| s == kind)
        .expect("benchmark strategies are the three of STRATEGIES")
}

/// The machines a workload compiles for.
pub fn machines(workload: Workload) -> Vec<&'static str> {
    match workload {
        Workload::BigBlocks => BIG_BLOCK_MACHINES.to_vec(),
        _ => marion_machines::EXTENDED.to_vec(),
    }
}

/// A seeded permutation of `0..n`.
fn permutation(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.index(i + 1));
    }
    p
}

/// The order of the `modules` workload's generated programs: a seeded
/// permutation of their indices.
fn gen_order(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ 0x6e6);
    permutation(GEN_PROGRAMS as usize, &mut rng)
        .into_iter()
        .map(|i| i as u64)
        .collect()
}

/// The `serve` workload's repeated module names: the combined
/// Livermore suite and two generated modules. They are fixed, so every
/// seed's pool poses the same work; the seed drives the request stream
/// and its fresh modules.
pub fn serve_pool() -> Vec<String> {
    vec![
        "livermore".to_string(),
        "gen:2:1000".to_string(),
        "gen:3:2000".to_string(),
    ]
}

/// Every C source the workload's inputs are built from, for the
/// front-end layer figures.
pub fn sources(workload: Workload, seed: u64) -> Vec<Source> {
    let livermore = || {
        marion_workloads::livermore::kernels()
            .into_iter()
            .map(|w| Source {
                name: w.name,
                text: w.source,
            })
            .collect::<Vec<_>>()
    };
    let generated = |seeds: Vec<u64>| {
        seeds.into_iter().map(|s| Source {
            name: format!("gen{s}"),
            text: random_program(s, &GenConfig::default()),
        })
    };
    match workload {
        Workload::Modules => {
            let mut all = livermore();
            all.extend(generated(
                gen_order(seed)
                    .into_iter()
                    .map(|k| MODULES_GEN_FIRST + k)
                    .collect(),
            ));
            all
        }
        Workload::BigBlocks => LADDER
            .iter()
            .map(|&n| Source {
                name: format!("bb{n}"),
                text: straight_line(n, seed),
            })
            .collect(),
        Workload::Serve => {
            let mut all = livermore();
            for w in serve_pool() {
                if let Some((count, first)) = parse_gen(&w) {
                    all.extend(generated((first..first + count).collect()));
                }
            }
            all
        }
    }
}

/// Parses `gen:<count>:<seed>`.
pub fn parse_gen(name: &str) -> Option<(u64, u64)> {
    let (count, seed) = name.strip_prefix("gen:")?.split_once(':')?;
    Some((count.parse().ok()?, seed.parse().ok()?))
}

/// Builds a service-named module the way the service does.
fn named_module(name: &str) -> marion_ir::Module {
    match parse_gen(name) {
        Some((count, seed)) => marion_workloads::multi::combined_generated(count, seed),
        None => marion_workloads::multi::combined_livermore(),
    }
}

/// Links single-`main` programs into one module, each under the
/// prefix `<name>_`, with a driver `main` that calls every program in
/// order and returns the sum of their checksums — the shape of
/// `marion_workloads::multi::combined_generated`, in a chosen order.
fn link(programs: &[(String, marion_ir::Module)]) -> marion_ir::Module {
    use marion_ir::{BinOp, FuncBuilder};
    let mut module = marion_ir::Module::new();
    let mut entries = Vec::new();
    for (name, unit) in programs {
        module.absorb(unit, &format!("{name}_"));
        entries.push(format!("{name}_main"));
    }
    let mut b = FuncBuilder::new("main", Some(marion_maril::Ty::Int));
    let acc = b.new_vreg(marion_maril::Ty::Int);
    let zero = b.const_i(0, marion_maril::Ty::Int);
    b.set_vreg(acc, zero);
    for entry in &entries {
        let sym = module.symbol_id(entry).expect("absorbed entry");
        let r = b.call(sym, Vec::new(), marion_maril::Ty::Int);
        let cur = b.read_vreg(acc);
        let sum = b.bin(BinOp::Add, cur, r, marion_maril::Ty::Int);
        b.set_vreg(acc, sum);
    }
    let result = b.read_vreg(acc);
    b.ret(Some(result));
    module.add_func(b.finish());
    module
}

/// The workload's compile units, through the front end.
///
/// # Errors
///
/// A source the front end rejects.
pub fn units(workload: Workload, seed: u64) -> Result<Vec<Unit>, String> {
    match workload {
        Workload::BigBlocks => sources(workload, seed)
            .into_iter()
            .map(|s| {
                let module = marion_frontend::compile(&s.text)
                    .map_err(|e| format!("front end rejects {}: {e}", s.name))?;
                Ok(Unit::new(s.name, module, vec![("source", s.text)]))
            })
            .collect(),
        Workload::Modules => {
            let livermore = Unit::new(
                "livermore".to_string(),
                named_module("livermore"),
                vec![("workload", "livermore".to_string())],
            );
            let mut programs = Vec::new();
            let mut requests = Vec::new();
            for k in gen_order(seed) {
                let text = random_program(MODULES_GEN_FIRST + k, &GenConfig::default());
                let m = marion_frontend::compile(&text)
                    .map_err(|e| format!("front end rejects gen{k}: {e}"))?;
                programs.push((format!("g{k}"), m));
                requests.push(("source", text));
            }
            let gen = Unit::new(format!("gen{GEN_PROGRAMS}"), link(&programs), requests);
            Ok(vec![livermore, gen])
        }
        Workload::Serve => Ok(serve_pool()
            .into_iter()
            .map(|name| Unit::new(name.clone(), named_module(&name), vec![("workload", name)]))
            .collect()),
    }
}

/// One pass over the workload: every unit on every machine with every
/// strategy (`serve` passes over its repeated keys, for the traced
/// replay and the oracle). The order is seeded, largest units first,
/// so the workers' last operations in a pass are short ones.
pub fn ops(workload: Workload, seed: u64, units: &[Unit]) -> Vec<Op> {
    let nm = machines(workload).len();
    let mut ops = Vec::new();
    for unit in 0..units.len() {
        for machine in 0..nm {
            for strategy in STRATEGIES {
                ops.push(Op {
                    unit,
                    machine,
                    strategy,
                });
            }
        }
    }
    let mut rng = SplitMix64::new(seed ^ 0x0b5);
    let mut ops: Vec<Op> = permutation(ops.len(), &mut rng)
        .into_iter()
        .map(|i| ops[i])
        .collect();
    ops.sort_by_key(|op| std::cmp::Reverse(units[op.unit].nodes));
    ops
}

/// A straight-line `main` of `stmts` assignments over [`LIVE_VARS`]
/// `int` variables, all folded into the returned checksum so every
/// variable stays live to the end: one basic block whose register
/// pressure the scheduler and allocator must manage.
///
/// The shape (which slot each statement reads and writes, and its
/// operators) is fixed per size; the seed permutes the variables and
/// picks the constants, so every seed poses the same scheduling
/// problem on different code.
pub fn straight_line(stmts: u32, seed: u64) -> String {
    let mut shape = SplitMix64::new(u64::from(stmts));
    let mut vary = SplitMix64::new(seed ^ (u64::from(stmts) << 32));
    let var = permutation(LIVE_VARS as usize, &mut vary);
    let mut src = String::from("int main() {\n");
    for v in 0..LIVE_VARS {
        src.push_str(&format!("    int v{v} = {};\n", vary.range(-50, 50)));
    }
    let mut term = |shape: &mut SplitMix64| {
        if shape.chance(0.75) {
            format!("v{}", var[shape.index(LIVE_VARS as usize)])
        } else {
            format!("{}", vary.range(1, 100))
        }
    };
    let ops = ["+", "-", "*", "&", "^", "|", "+", "-"];
    for _ in 0..stmts {
        let d = var[shape.index(LIVE_VARS as usize)];
        let (a, b, c) = (term(&mut shape), term(&mut shape), term(&mut shape));
        let (o1, o2) = (shape.pick(&ops), shape.pick(&ops));
        src.push_str(&format!("    v{d} = ({a} {o1} {b}) {o2} {c};\n"));
    }
    let all: Vec<String> = (0..LIVE_VARS).map(|v| format!("v{v}")).collect();
    src.push_str(&format!("    return {};\n}}\n", all.join(" ^ ")));
    src
}

/// One compile request of the `serve` workload.
#[derive(Debug, Clone)]
pub struct Request {
    /// The request line.
    pub line: String,
    /// `machine/strategy/workload`: equal keys must get equal answers.
    pub key: String,
    /// The module the request names.
    pub workload: String,
    /// Index into [`machines`].
    pub machine: usize,
    /// Strategy.
    pub strategy: StrategyKind,
    /// Generated programs in a fresh (always-missing) request; `None`
    /// for a repeated key.
    pub fresh_count: Option<u64>,
}

/// Every (machine, strategy, program count) a fresh request can have.
fn cold_kinds() -> Vec<(usize, StrategyKind, u64)> {
    let mut kinds = Vec::new();
    for machine in 0..marion_machines::EXTENDED.len() {
        for strategy in STRATEGIES {
            for count in COLD_COUNTS {
                kinds.push((machine, strategy, count));
            }
        }
    }
    kinds
}

/// The request stream of one `serve` client.
///
/// Repeated keys are drawn from the pool at random. The fresh requests
/// take every kind of [`cold_kinds`] once per cycle, in a seeded order,
/// and the `j`th kind of the `c`th cycle always names the same
/// programs. So every seed sends the same fresh work, only in another
/// order and among other repeated keys, and runs with different seeds
/// can be compared.
pub struct Stream {
    rng: SplitMix64,
    client: usize,
    /// Requests sent.
    n: u64,
    /// Fresh requests sent.
    cold: u64,
    /// Which places of the current block are fresh.
    block: Vec<bool>,
    /// The current cycle of fresh kinds, as indices into `kinds`.
    cycle: Vec<usize>,
    kinds: Vec<(usize, StrategyKind, u64)>,
}

impl Stream {
    /// Client `client`'s stream for the run's seed.
    pub fn new(seed: u64, client: usize) -> Stream {
        Stream {
            rng: SplitMix64::new(seed ^ ((client as u64 + 1) << 48)),
            client,
            n: 0,
            cold: 0,
            block: Vec::new(),
            cycle: Vec::new(),
            kinds: cold_kinds(),
        }
    }

    /// The next request: a repeated key from `pool`, or a module no
    /// request of the run has named.
    pub fn next(&mut self, pool: &[String]) -> Request {
        let n = self.n;
        self.n += 1;
        if n.is_multiple_of(BLOCK) {
            let places = permutation(BLOCK as usize, &mut self.rng);
            self.block = places
                .iter()
                .map(|&p| (p as u64) < COLD_PER_BLOCK)
                .collect();
        }
        if !self.block[(n % BLOCK) as usize] {
            let machine = self.rng.index(marion_machines::EXTENDED.len());
            let strategy = STRATEGIES[self.rng.index(STRATEGIES.len())];
            let workload = &pool[self.rng.index(pool.len())];
            return Request::new(n, machine, strategy, workload, None);
        }
        let per_cycle = self.kinds.len() as u64;
        let (cycle, place) = (self.cold / per_cycle, (self.cold % per_cycle) as usize);
        self.cold += 1;
        if place == 0 {
            self.cycle = permutation(self.kinds.len(), &mut self.rng);
        }
        let kind = self.cycle[place];
        let (machine, strategy, count) = self.kinds[kind];
        let module = fresh_module(self.client, cycle * per_cycle + kind as u64, count);
        Request::new(n, machine, strategy, &module, Some(count))
    }
}

/// Client `client`'s `k`th fresh module. Its programs are spaced 8
/// seeds apart, so no two fresh modules share a function body, in
/// fields that cannot overlap: a marker bit far above the pool's seeds,
/// 16 bits of the client and 29 of `k`.
pub fn fresh_module(client: usize, k: u64, count: u64) -> String {
    assert!(
        client < 1 << 16 && k < 1 << 29 && count <= 8,
        "serve client {client} fresh module {k} out of range"
    );
    let first = (1u64 << 62) | ((client as u64) << 32) | (k * 8);
    format!("gen:{count}:{first}")
}

impl Request {
    fn new(
        id: u64,
        machine: usize,
        strategy: StrategyKind,
        workload: &str,
        fresh_count: Option<u64>,
    ) -> Request {
        let machine_name = marion_machines::EXTENDED[machine];
        Request {
            line: compile_line(id as i64, machine_name, strategy, ("workload", workload)),
            key: format!("{machine_name}/{}/{workload}", strategy.name()),
            workload: workload.to_string(),
            machine,
            strategy,
            fresh_count,
        }
    }
}

/// One request per repeated `serve` key: every pool module on every
/// machine with every strategy.
pub fn pool_requests() -> Vec<Request> {
    let mut out = Vec::new();
    for machine in 0..marion_machines::EXTENDED.len() {
        for strategy in STRATEGIES {
            for workload in serve_pool() {
                out.push(Request::new(
                    out.len() as u64,
                    machine,
                    strategy,
                    &workload,
                    None,
                ));
            }
        }
    }
    out
}

/// Sends every pool request through the service on `threads` threads,
/// so the service has built its compilers and modules and its cache
/// holds every repeated key. Returns each request with its response.
///
/// # Errors
///
/// A request the service does not answer with `"ok":1`.
pub fn warm_pool(service: &Service, threads: usize) -> Result<Vec<(Request, String)>, String> {
    let requests = pool_requests();
    let next = AtomicUsize::new(0);
    let answers: Vec<Mutex<Option<String>>> = requests.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(req) = requests.get(k) else { break };
                let (line, _) = service.handle_line(&req.line);
                *answers[k].lock().expect("answer lock poisoned") = Some(line);
            });
        }
    });
    requests
        .into_iter()
        .zip(answers)
        .map(|(req, answer)| {
            let line = answer
                .into_inner()
                .expect("answer lock poisoned")
                .unwrap_or_default();
            let ok = marion_trace::json::parse_flat(&line)
                .ok()
                .and_then(|f| f.into_iter().find(|(k, _)| k == "ok"))
                .and_then(|(_, v)| v.as_int());
            if ok == Some(1) {
                Ok((req, line))
            } else {
                Err(format!("{}: {line}", req.key))
            }
        })
        .collect()
}

/// A compile request line.
pub fn compile_line(id: i64, machine: &str, strategy: StrategyKind, unit: (&str, &str)) -> String {
    let mut obj = ObjWriter::new();
    obj.int("id", id);
    obj.str("cmd", "compile");
    obj.str("machine", machine);
    obj.str("strategy", strategy.name());
    obj.str(unit.0, unit.1);
    obj.finish()
}

/// The system, ready to run a workload.
pub struct Ready {
    /// Loaded machine descriptions, indexed like [`machines`] (empty
    /// for `serve`, whose service loads its own).
    pub specs: Vec<MachineSpec>,
    /// Compile units (empty for `serve`, whose service builds its own).
    pub units: Vec<Unit>,
    /// One compiler per machine x strategy, at `machine * 3 + strategy`
    /// (empty for `serve`).
    pub compilers: Vec<Compiler>,
    /// The compile service, for `serve`.
    pub service: Option<Service>,
    /// `serve`: the pool requests the set-up sent, with their answers.
    pub pool_answers: Vec<(Request, String)>,
}

impl Ready {
    /// The compiler for an operation.
    pub fn compiler(&self, op: &Op) -> &Compiler {
        &self.compilers[op.machine * STRATEGIES.len() + strategy_index(op.strategy)]
    }
}

/// Compile options of every benchmark compiler: serial per-function
/// compilation (parallelism comes from the worker threads), no cache.
pub fn compile_options() -> CompileOptions {
    CompileOptions {
        jobs: NonZeroUsize::new(1),
        ..CompileOptions::default()
    }
}

/// One compiler per machine x strategy, at `machine * 3 + strategy`.
pub fn compilers(specs: &[MachineSpec], options: &CompileOptions) -> Vec<Compiler> {
    let mut out = Vec::new();
    for spec in specs {
        for kind in STRATEGIES {
            out.push(Compiler::with_options(
                spec.machine.clone(),
                spec.escapes.clone(),
                kind,
                options.clone(),
            ));
        }
    }
    out
}

/// Makes the system ready: machine descriptions parsed, workload
/// sources through the front end, compilers constructed. For `serve`:
/// the service constructed and one request per repeated key answered
/// on `threads` threads, which builds the service's compilers and
/// modules.
///
/// # Errors
///
/// A source the front end rejects, or a service that cannot start or
/// answer.
pub fn setup(workload: Workload, seed: u64, threads: usize) -> Result<Ready, String> {
    if workload == Workload::Serve {
        let service = Service::new(&ServeConfig::default()).map_err(|e| format!("service: {e}"))?;
        let pool_answers = warm_pool(&service, threads)?;
        return Ok(Ready {
            specs: Vec::new(),
            units: Vec::new(),
            compilers: Vec::new(),
            service: Some(service),
            pool_answers,
        });
    }
    let specs: Vec<MachineSpec> = machines(workload)
        .iter()
        .map(|m| marion_machines::load(m))
        .collect();
    let units = units(workload, seed)?;
    let compilers = compilers(&specs, &compile_options());
    Ok(Ready {
        specs,
        units,
        compilers,
        service: None,
        pool_answers: Vec::new(),
    })
}

/// The interpreter's checksum of a unit's `main`: the benchmark's
/// oracle, computed outside every timed region.
///
/// # Errors
///
/// An interpreter fault or a non-integer result.
pub fn reference(unit: &Unit) -> Result<i64, String> {
    let mut interp = marion_ir::interp::Interp::new(&unit.module, 1 << 22).with_budget(400_000_000);
    match interp.call_by_name("main", &[]) {
        Ok(Some(marion_ir::interp::Value::I(v))) => Ok(v),
        Ok(other) => Err(format!("{}: interpreter returned {other:?}", unit.name)),
        Err(e) => Err(format!("{}: interpreter: {e}", unit.name)),
    }
}
