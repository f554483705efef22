//! Program loading and the in-order timing loop.

use crate::exec::{write_mem, Control, Effects, ExecCtx};
use crate::regs::RegFile;
use crate::{fault, SimError, Value};
use marion_core::{AsmInst, CompiledProgram};
use marion_maril::{Machine, ResSet, Ty};
use std::collections::HashMap;

/// A direct-mapped cache model: hit or miss per access, fixed miss
/// penalty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of lines.
    pub lines: u32,
    /// Line size in bytes (or words, for the instruction cache).
    pub line_bytes: u32,
    /// Cycles added on a miss.
    pub miss_penalty: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            lines: 256,
            line_bytes: 16,
            miss_penalty: 6,
        }
    }
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Bytes of simulated memory.
    pub mem_size: u32,
    /// Optional instruction cache (indexed by word address).
    pub icache: Option<CacheConfig>,
    /// Optional data cache.
    pub dcache: Option<CacheConfig>,
    /// Cycle budget.
    pub max_cycles: u64,
    /// Return the final memory image in [`RunResult::memory`]
    /// (differential tests compare it against the reference
    /// interpreter's).
    pub keep_memory: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            mem_size: 1 << 21,
            icache: Some(CacheConfig::default()),
            dcache: Some(CacheConfig::default()),
            max_cycles: 2_000_000_000,
            keep_memory: false,
        }
    }
}

impl SimConfig {
    /// A configuration with no caches: actual cycles then reflect only
    /// interlock stalls (useful for testing the scheduler's estimate).
    pub fn no_caches() -> SimConfig {
        SimConfig {
            icache: None,
            dcache: None,
            ..SimConfig::default()
        }
    }
}

/// The outcome of one simulated run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Total cycles elapsed.
    pub cycles: u64,
    /// Instruction words issued.
    pub words_executed: u64,
    /// Machine instructions (sub-operations) executed — the dilation
    /// numerator.
    pub insts_executed: u64,
    /// Cycles lost to interlock and resource stalls.
    pub stall_cycles: u64,
    /// Cycles lost to cache misses.
    pub miss_cycles: u64,
    /// `nop` sub-operations retired (unfilled delay slots executed).
    pub nops_retired: u64,
    /// The entry function's return value, read from the integer
    /// result register (see also [`RunResult::fp_result`]).
    pub result: Option<Value>,
    /// The value of the floating result register at exit.
    pub fp_result: Option<Value>,
    /// Execution count per (function index, block index).
    pub block_counts: HashMap<(usize, usize), u64>,
    /// The final memory image, when [`SimConfig::keep_memory`] is set.
    pub memory: Option<Vec<u8>>,
}

impl RunResult {
    /// The paper's *dilation*: instructions executed / instructions
    /// generated.
    pub fn dilation(&self, program: &CompiledProgram) -> f64 {
        self.insts_executed as f64 / program.asm.inst_count().max(1) as f64
    }
}

/// The scheduler's whole-run cycle estimate: Σ over blocks of
/// (per-execution estimate × execution count). This is exactly how the
/// paper derives estimated times (block costs × profiled frequencies,
/// no cache effects).
pub fn estimated_cycles(program: &CompiledProgram, counts: &HashMap<(usize, usize), u64>) -> u64 {
    let mut total = 0u64;
    for ((f, b), n) in counts {
        if let Some(block) = program
            .asm
            .funcs
            .get(*f)
            .and_then(|func| func.blocks.get(*b))
        {
            total += block.est_cycles as u64 * n;
        }
    }
    total
}

/// A loaded program ready to run.
pub struct Simulator<'a> {
    machine: &'a Machine,
    program: &'a CompiledProgram,
    /// Flat code: (func index, block index, word index).
    flat: Vec<(usize, usize, usize)>,
    /// Flat index of each (func, block) start.
    block_start: Vec<Vec<usize>>,
    /// Flat entry index per function index.
    func_entry: Vec<usize>,
    /// Function index by symbol id (functions only).
    func_of_symbol: HashMap<u32, usize>,
    /// Data address by symbol index.
    sym_addrs: Vec<Option<u32>>,
    /// First address past the globals.
    data_end: u32,
}

impl<'a> Simulator<'a> {
    /// Loads a compiled program: flattens code and lays out globals.
    pub fn new(machine: &'a Machine, program: &'a CompiledProgram) -> Simulator<'a> {
        let mut flat = Vec::new();
        let mut block_start = Vec::new();
        let mut func_entry = Vec::new();
        for (fi, func) in program.asm.funcs.iter().enumerate() {
            func_entry.push(flat.len());
            let mut starts = Vec::new();
            for (bi, block) in func.blocks.iter().enumerate() {
                starts.push(flat.len());
                for wi in 0..block.words.len() {
                    flat.push((fi, bi, wi));
                }
                // An empty block still needs a landing point; point it
                // at the next word.
            }
            block_start.push(starts);
        }
        // Globals.
        let mut sym_addrs = vec![None; program.symbols.len()];
        let mut next = 64u32;
        let mut by_name: HashMap<&str, u32> = HashMap::new();
        for (name, init) in &program.globals {
            next = (next + 7) & !7;
            by_name.insert(name.as_str(), next);
            next += init.size().max(1);
        }
        let mut func_of_symbol = HashMap::new();
        for (si, name) in program.symbols.iter().enumerate() {
            if let Some(addr) = by_name.get(name.as_str()) {
                sym_addrs[si] = Some(*addr);
            }
            if let Some(fi) = program.asm.funcs.iter().position(|f| f.name == *name) {
                func_of_symbol.insert(si as u32, fi);
            }
        }
        Simulator {
            machine,
            program,
            flat,
            block_start,
            func_entry,
            func_of_symbol,
            sym_addrs,
            data_end: next,
        }
    }

    fn word(&self, idx: usize) -> &'a [AsmInst] {
        let (f, b, w) = self.flat[idx];
        &self.program.asm.funcs[f].blocks[b].words[w].insts
    }

    /// Runs `entry(args)` to completion.
    ///
    /// # Errors
    ///
    /// Faults on unknown entry, runtime errors (bad addresses,
    /// division by zero) or cycle-budget exhaustion.
    pub fn run(
        &self,
        entry: &str,
        args: &[Value],
        config: &SimConfig,
    ) -> Result<RunResult, SimError> {
        let Some(entry_fi) = self.program.asm.funcs.iter().position(|f| f.name == entry) else {
            return fault(format!("no function `{entry}`"));
        };
        let halt = self.flat.len();
        let cwvm = self.machine.cwvm();
        let mut regs = RegFile::new(self.machine);
        let mut mem = vec![0u8; config.mem_size as usize];
        if (self.data_end as usize) >= mem.len() {
            return fault("memory too small for globals");
        }
        // Globals image.
        {
            let mut next = 64u32;
            for (_, init) in &self.program.globals {
                next = (next + 7) & !7;
                let bytes = init.bytes();
                mem[next as usize..next as usize + bytes.len()].copy_from_slice(&bytes);
                next += init.size().max(1);
            }
        }
        // ABI setup.
        let sp = cwvm.sp.ok_or_else(|| SimError("no stack pointer".into()))?;
        regs.write(
            self.machine,
            sp,
            Value::I((config.mem_size as i64 - 64) & !15),
        );
        if let Some(fp) = cwvm.fp {
            regs.write(
                self.machine,
                fp,
                Value::I((config.mem_size as i64 - 64) & !15),
            );
        }
        let ra = cwvm
            .retaddr
            .ok_or_else(|| SimError("no return-address register".into()))?;
        regs.write(self.machine, ra, Value::I(halt as i64));
        let mut int_used = 0usize;
        let mut fp_used = 0usize;
        for arg in args {
            let (ty, used) = match arg {
                Value::I(_) => (Ty::Int, &mut int_used),
                Value::F(_) => (Ty::Double, &mut fp_used),
            };
            let arg_regs = cwvm.arg_regs(ty);
            let Some(reg) = arg_regs.get(*used).copied() else {
                return fault("too many simulated arguments");
            };
            *used += 1;
            regs.write(self.machine, reg, *arg);
        }

        // Timing state.
        let mut unit_ready: HashMap<u32, (u64, usize, usize)> = HashMap::new();
        let mut resource_window: Vec<(u64, ResSet)> = vec![(u64::MAX, ResSet::EMPTY); 64];
        let mut icache_tags: Vec<u64> = config
            .icache
            .map(|c| vec![u64::MAX; c.lines as usize])
            .unwrap_or_default();
        let mut dcache_tags: Vec<u64> = config
            .dcache
            .map(|c| vec![u64::MAX; c.lines as usize])
            .unwrap_or_default();

        let mut result = RunResult {
            cycles: 0,
            words_executed: 0,
            insts_executed: 0,
            stall_cycles: 0,
            miss_cycles: 0,
            nops_retired: 0,
            result: None,
            fp_result: None,
            block_counts: HashMap::new(),
            memory: None,
        };
        // Flat index -> block head marker for counting.
        let mut head_of: HashMap<usize, (usize, usize)> = HashMap::new();
        for (fi, starts) in self.block_start.iter().enumerate() {
            for (bi, s) in starts.iter().enumerate() {
                // Skip empty blocks (their start equals the next
                // block's start; counting the later block is enough).
                let nonempty = !self.program.asm.funcs[fi].blocks[bi].words.is_empty();
                if nonempty {
                    head_of.entry(*s).or_insert((fi, bi));
                }
            }
        }

        let nop_template = self.machine.nop_template();
        let mut pc = self.func_entry[entry_fi];
        let mut cycle: u64 = 0;
        // Pending redirect: take effect after `countdown` more words.
        let mut redirect: Option<(u32, usize)> = None;

        while pc != halt {
            if pc > self.flat.len() {
                return fault(format!("pc {pc} out of range"));
            }
            if cycle > config.max_cycles {
                return fault(format!("cycle budget exhausted at {cycle}"));
            }
            if let Some(&(fi, bi)) = head_of.get(&pc) {
                *result.block_counts.entry((fi, bi)).or_insert(0) += 1;
            }
            let insts = self.word(pc);

            // ---- timing: operand interlocks ----
            let mut issue = cycle;
            for inst in insts {
                let t = self.machine.template(inst.template);
                for k in &t.effects.uses {
                    if let Some(marion_core::Operand::Phys(p)) = inst.ops.get((*k - 1) as usize) {
                        for u in self.machine.units_of(*p) {
                            if let Some(&(pissue, pflat, pinst)) = unit_ready.get(&u) {
                                let producer = &self.word(pflat)[pinst];
                                let lat = self.machine.edge_latency(
                                    producer.template,
                                    inst.template,
                                    &|a, b| {
                                        producer.ops.get((a - 1) as usize)
                                            == inst.ops.get((b - 1) as usize)
                                    },
                                );
                                issue = issue.max(pissue + lat as u64);
                            }
                        }
                    }
                }
            }
            // ---- timing: structural hazards ----
            'outer: loop {
                for inst in insts {
                    let t = self.machine.template(inst.template);
                    for (c, need) in t.rsrc.iter().enumerate() {
                        let at = issue + c as u64;
                        let slot = &resource_window[(at % 64) as usize];
                        if slot.0 == at && slot.1.intersects(need) {
                            issue += 1;
                            continue 'outer;
                        }
                    }
                }
                break;
            }
            // ---- timing: instruction cache ----
            if let Some(ic) = config.icache {
                let line = pc as u64 / (ic.line_bytes as u64).max(1);
                let idx = (line % ic.lines as u64) as usize;
                if icache_tags[idx] != line {
                    icache_tags[idx] = line;
                    issue += ic.miss_penalty as u64;
                    result.miss_cycles += ic.miss_penalty as u64;
                }
            }
            result.stall_cycles += issue - cycle;

            // Commit resources.
            for inst in insts {
                let t = self.machine.template(inst.template);
                for (c, need) in t.rsrc.iter().enumerate() {
                    let at = issue + c as u64;
                    let slot = &mut resource_window[(at % 64) as usize];
                    if slot.0 != at {
                        *slot = (at, *need);
                    } else {
                        slot.1.union_with(need);
                    }
                }
            }

            // ---- functional execution (pre-word state) ----
            let mut fx = Effects::default();
            {
                let ctx = ExecCtx {
                    machine: self.machine,
                    regs: &regs,
                    mem: &mem,
                    sym_addrs: &self.sym_addrs,
                };
                for inst in insts {
                    ctx.exec_inst(inst, &mut fx)
                        .map_err(|e| SimError(format!("at {}+{pc}: {e}", entry)))?;
                }
            }
            // ---- data cache ----
            let mut load_extra = 0u64;
            if let Some(dc) = config.dcache {
                for addr in &fx.mem_reads {
                    let line = *addr as u64 / dc.line_bytes as u64;
                    let idx = (line % dc.lines as u64) as usize;
                    if dcache_tags[idx] != line {
                        dcache_tags[idx] = line;
                        load_extra += dc.miss_penalty as u64;
                        result.miss_cycles += dc.miss_penalty as u64;
                    }
                }
                for (addr, _, _) in &fx.mem_writes {
                    let line = *addr as u64 / dc.line_bytes as u64;
                    let idx = (line % dc.lines as u64) as usize;
                    if dcache_tags[idx] != line {
                        dcache_tags[idx] = line;
                        // Write-allocate, but stores don't stall the
                        // pipe (write buffer).
                    }
                }
            }

            // ---- commit ----
            for (reg, units) in &fx.raw_writes {
                regs.write_units(self.machine, *reg, units);
                for u in self.machine.units_of(*reg) {
                    unit_ready.insert(u, (issue, pc, 0));
                }
            }
            for (i, inst) in insts.iter().enumerate() {
                let t = self.machine.template(inst.template);
                let extra = if t.effects.reads_mem { load_extra } else { 0 };
                for k in &t.effects.defs {
                    if let Some(marion_core::Operand::Phys(p)) = inst.ops.get((*k - 1) as usize) {
                        for u in self.machine.units_of(*p) {
                            unit_ready.insert(u, (issue + extra, pc, i));
                        }
                    }
                }
            }
            for (reg, value) in &fx.reg_writes {
                regs.write(self.machine, *reg, *value);
            }
            for (latch, value) in &fx.latch_writes {
                regs.write_latch(*latch, *value);
            }
            for (addr, value, ty) in &fx.mem_writes {
                write_mem(&mut mem, *addr, *value, *ty).map_err(SimError)?;
            }
            result.words_executed += 1;
            result.insts_executed += insts.len() as u64;
            if let Some(nop) = nop_template {
                result.nops_retired += insts.iter().filter(|i| i.template == nop).count() as u64;
            }

            // ---- control ----
            let slots_here: u32 = insts
                .iter()
                .map(|i| self.machine.template(i.template).slots.unsigned_abs())
                .max()
                .unwrap_or(0);
            let (fi, _, _) = self.flat[pc];
            let new_target = match fx.control {
                None => None,
                Some(Control::Branch(b)) => Some(self.block_target(fi, b.0 as usize)?),
                Some(Control::Call(sym)) => {
                    let callee = self.func_of_symbol.get(&sym.0).copied().ok_or_else(|| {
                        SimError(format!(
                            "call to undefined function `{}`",
                            self.program.symbols[sym.0 as usize]
                        ))
                    })?;
                    // The return address points past the delay slots.
                    let ret_to = pc + 1 + slots_here as usize;
                    regs.write(self.machine, ra, Value::I(ret_to as i64));
                    Some(self.func_entry[callee])
                }
                Some(Control::Return) => {
                    let target = regs.read(self.machine, ra).as_i();
                    if target as usize > halt || target < 0 {
                        return fault(format!("return to invalid address {target}"));
                    }
                    Some(target as usize)
                }
            };
            if let Some(target) = new_target {
                redirect = Some((slots_here, target));
            }

            // Advance.
            cycle = issue + 1;
            match &mut redirect {
                Some((0, target)) => {
                    pc = *target;
                    redirect = None;
                }
                Some((countdown, _)) => {
                    *countdown -= 1;
                    pc += 1;
                }
                None => pc += 1,
            }
        }
        result.cycles = cycle;
        // Entry return value: capture both result registers.
        result.result = self
            .machine
            .cwvm()
            .result_reg(Ty::Int)
            .map(|r| regs.read(self.machine, r));
        result.fp_result = self
            .machine
            .cwvm()
            .result_reg(Ty::Double)
            .map(|r| regs.read(self.machine, r));
        if config.keep_memory {
            result.memory = Some(mem);
        }
        Ok(result)
    }

    fn block_target(&self, func: usize, block: usize) -> Result<usize, SimError> {
        // An empty block's start equals the next block's start, which
        // is where execution should land anyway.
        self.block_start
            .get(func)
            .and_then(|s| s.get(block))
            .copied()
            .ok_or_else(|| SimError(format!("branch to unknown block b{block}")))
    }
}

/// Convenience wrapper: load, run, and type the result by the entry
/// point's return type.
///
/// # Errors
///
/// See [`Simulator::run`].
pub fn run_program(
    machine: &Machine,
    program: &CompiledProgram,
    entry: &str,
    args: &[Value],
    ret_ty: Option<Ty>,
    config: &SimConfig,
) -> Result<RunResult, SimError> {
    let sim = Simulator::new(machine, program);
    let mut result = sim.run(entry, args, config)?;
    result.result = match ret_ty {
        None => None,
        Some(ty) if ty.is_float() => result.fp_result,
        Some(_) => result.result,
    };
    Ok(result)
}
