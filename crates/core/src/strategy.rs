//! Code generation strategies (paper §2): the strategy directs the
//! invocation of, and level of communication between, instruction
//! scheduling and global register allocation.
//!
//! * [`StrategyKind::Postpass`] — global register allocation followed
//!   by instruction scheduling (Gibbons & Muchnick);
//! * [`StrategyKind::Ips`] — Integrated Prepass Scheduling (Goodman &
//!   Hsu): schedule with a limit on local register use, allocate,
//!   then schedule again;
//! * [`StrategyKind::Rase`] — Register Allocation with Schedule
//!   Estimates (Bradlee, Eggers & Henry): invoke the scheduler to
//!   gather schedule cost estimates, allocate with those estimates
//!   biasing spill choices, then do final scheduling.

use crate::code::{CodeFunc, Operand, VregKind};
use crate::dag::build_dag;
use crate::error::CodegenError;
use crate::regalloc::{allocate_traced, AllocResult};
use crate::sched::{SchedOptions, Schedule};
use marion_maril::Machine;
use marion_trace::{Tracer, Value};
use std::collections::HashMap;

/// Which strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Allocate, then schedule.
    Postpass,
    /// Schedule (register-limited), allocate, schedule again.
    Ips,
    /// Estimate schedules, allocate with estimates, schedule.
    Rase,
    /// Ablation baseline: allocate, then keep code-thread order (no
    /// list scheduling at all — only latency/resource legality). Not
    /// part of [`StrategyKind::ALL`]; the paper's comparison point for
    /// "what does scheduling buy".
    NoSchedule,
}

impl StrategyKind {
    /// All strategies, for sweeps.
    pub const ALL: [StrategyKind; 3] = [
        StrategyKind::Postpass,
        StrategyKind::Ips,
        StrategyKind::Rase,
    ];

    /// Display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Postpass => "Postpass",
            StrategyKind::Ips => "IPS",
            StrategyKind::Rase => "RASE",
            StrategyKind::NoSchedule => "NoSched",
        }
    }

    /// Parses a [`StrategyKind::name`] (case-insensitive), as accepted
    /// by the `marion-serve` request protocol and CLI flags.
    pub fn parse(name: &str) -> Option<StrategyKind> {
        match name.to_ascii_lowercase().as_str() {
            "postpass" => Some(StrategyKind::Postpass),
            "ips" => Some(StrategyKind::Ips),
            "rase" => Some(StrategyKind::Rase),
            "nosched" | "noschedule" => Some(StrategyKind::NoSchedule),
            _ => None,
        }
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Statistics from one strategy run over a function.
#[derive(Debug, Clone, Default)]
pub struct StrategyStats {
    /// Virtual registers spilled.
    pub spills: usize,
    /// Number of per-block scheduling passes performed.
    pub schedule_passes: usize,
    /// Sum of final block cycle estimates.
    pub estimated_cycles: u64,
}

/// A code generation strategy: consumes selected code, returns the
/// final per-block schedules (over the possibly spill-expanded
/// function).
pub trait Strategy {
    /// The strategy's display name.
    fn name(&self) -> &'static str;

    /// Runs allocation and scheduling over `func`. `tracer` collects
    /// spans and per-block scheduler metrics (pass a
    /// [`Tracer::off`] to collect nothing); `ctx` scopes the trace
    /// records, conventionally `machine/function`.
    ///
    /// # Errors
    ///
    /// Propagates scheduling and allocation failures.
    fn run(
        &self,
        machine: &Machine,
        func: &mut CodeFunc,
        tracer: &Tracer,
        ctx: &str,
    ) -> Result<(Vec<Schedule>, StrategyStats), CodegenError>;
}

/// Builds the strategy object for a kind.
pub fn strategy_for(kind: StrategyKind) -> Box<dyn Strategy + Send + Sync> {
    match kind {
        StrategyKind::Postpass => Box::new(Postpass),
        StrategyKind::Ips => Box::new(Ips),
        StrategyKind::Rase => Box::new(Rase),
        StrategyKind::NoSchedule => Box::new(NoSchedule),
    }
}

/// The ablation baseline: global register allocation followed by a
/// serial thread-order "schedule" (dependence- and resource-legal but
/// with no reordering). Comparing against [`Postpass`] isolates what
/// list scheduling itself buys.
pub struct NoSchedule;

impl Strategy for NoSchedule {
    fn name(&self) -> &'static str {
        "NoSched"
    }

    fn run(
        &self,
        machine: &Machine,
        func: &mut CodeFunc,
        tracer: &Tracer,
        ctx: &str,
    ) -> Result<(Vec<Schedule>, StrategyStats), CodegenError> {
        let alloc = run_allocate(machine, func, &HashMap::new(), tracer, ctx)?;
        let mut schedules = Vec::with_capacity(func.blocks.len());
        {
            let _span = tracer.span(ctx, "sched:serial");
            for block in &func.blocks {
                let dag = {
                    let _m = tracer.mspan("dag_build");
                    build_dag(machine, block, true)
                };
                schedules.push(crate::sched::serial_schedule(machine, block, &dag));
            }
        }
        {
            let _m = tracer.mspan("sched_metrics");
            record_sched_pass(machine, func, &schedules, tracer, ctx, "serial", true);
        }
        let stats = StrategyStats {
            spills: alloc.spills,
            schedule_passes: 0,
            estimated_cycles: sum_len(&schedules),
        };
        Ok((schedules, stats))
    }
}

/// Wraps [`allocate`] in a trace span and records its metrics:
/// interference-graph size, simplify/spill rounds, spill count and
/// the loop-weighted cost of what was spilled.
fn run_allocate(
    machine: &Machine,
    func: &mut CodeFunc,
    extra_cost: &HashMap<crate::code::Vreg, f64>,
    tracer: &Tracer,
    ctx: &str,
) -> Result<AllocResult, CodegenError> {
    let alloc = {
        let _span = tracer.span(ctx, "regalloc");
        allocate_traced(machine, func, extra_cost, tracer)?
    };
    tracer.add(ctx, "ra_graph_nodes", alloc.graph_nodes as i64);
    tracer.add(ctx, "ra_graph_edges", alloc.graph_edges as i64);
    tracer.add(ctx, "ra_rounds", alloc.rounds as i64);
    tracer.add(ctx, "spills", alloc.spills as i64);
    if alloc.spills > 0 {
        tracer.event(
            ctx,
            "regalloc_spills",
            &[
                ("spills", Value::from(alloc.spills)),
                ("spill_cost", Value::Float(alloc.spill_cost)),
                ("rounds", Value::from(alloc.rounds)),
            ],
        );
    }
    Ok(alloc)
}

/// Emits per-block scheduler metrics for a completed pass. Aggregate
/// counters (stalls, slot usage, temporal groups) are only added on
/// the `final_pass` so estimate passes do not double-count; the
/// per-block `sched_block` events carry the pass label either way.
fn record_sched_pass(
    machine: &Machine,
    func: &CodeFunc,
    schedules: &[Schedule],
    tracer: &Tracer,
    ctx: &str,
    pass: &'static str,
    final_pass: bool,
) {
    if !tracer.is_on() {
        return;
    }
    for (bi, (block, schedule)) in func.blocks.iter().zip(schedules).enumerate() {
        if block.insts.is_empty() {
            continue;
        }
        let m = &schedule.metrics;
        let ex = &schedule.explanation;
        let hist = ex.stall_histogram();
        let stall_of = |key: &str| hist.get(key).copied().unwrap_or(0) as i64;
        let critical_path_len = ex
            .critical_path
            .last()
            .and_then(|&i| schedule.inst_cycle.get(i))
            .map(|c| c + 1)
            .unwrap_or(0) as i64;
        let bctx = format!("{ctx}/b{bi}");
        tracer.event(
            &bctx,
            "sched_block",
            &[
                ("pass", Value::from(pass)),
                ("final", Value::Int(final_pass as i64)),
                ("insts", Value::from(block.insts.len())),
                ("length", Value::from(schedule.length as i64)),
                ("dag_nodes", Value::from(m.dag_nodes)),
                ("dag_edges", Value::from(m.dag_edges())),
                ("edges_true", Value::from(m.edges_true)),
                ("edges_temporal", Value::from(m.edges_temporal)),
                ("edges_anti", Value::from(m.edges_anti)),
                ("edges_output", Value::from(m.edges_output)),
                ("edges_mem", Value::from(m.edges_mem)),
                ("edges_order", Value::from(m.edges_order)),
                ("ready_high_water", Value::from(m.ready_high_water)),
                ("stall_cycles", Value::from(m.stall_cycles)),
                ("temporal_groups", Value::from(m.temporal_groups)),
                ("issue_slots_used", Value::from(m.issue_slots_used)),
                ("issue_cycles", Value::from(m.issue_cycles)),
                ("packed_words", Value::from(m.packed_words)),
                ("issue_utilization", Value::Float(m.issue_utilization())),
                (
                    "peak_local_pressure",
                    Value::from(schedule.peak_local_pressure),
                ),
                ("discipline", Value::from(ex.discipline)),
                ("critical_path_len", Value::Int(critical_path_len)),
                ("stall_total", Value::Int(ex.total_stall_cycles() as i64)),
                ("stall_dependence", Value::Int(stall_of("dependence"))),
                ("stall_resource", Value::Int(stall_of("resource"))),
                ("stall_class", Value::Int(stall_of("class"))),
                ("stall_temporal", Value::Int(stall_of("temporal"))),
                ("stall_pressure", Value::Int(stall_of("pressure"))),
                ("stall_order", Value::Int(stall_of("order"))),
            ],
        );
        if final_pass {
            // Per-block distributions at function scope: block stall
            // cycles and final schedule length as log2 histograms, so
            // reports can show the shape, not just the totals.
            tracer.observe(ctx, "block_stall_cycles", m.stall_cycles as u64);
            tracer.observe(ctx, "block_len_cycles", schedule.length as u64);
            tracer.add(ctx, "sched_stall_cycles", m.stall_cycles as i64);
            tracer.add(ctx, "sched_temporal_groups", m.temporal_groups as i64);
            tracer.add(ctx, "issue_slots_used", m.issue_slots_used as i64);
            tracer.add(ctx, "issue_cycles", m.issue_cycles as i64);
            tracer.add(ctx, "packed_words", m.packed_words as i64);
            for (key, cycles) in &hist {
                tracer.add(ctx, &format!("stall_{key}"), *cycles as i64);
            }
            if tracer.wants_explanations() {
                tracer.event(
                    &bctx,
                    "sched_explain",
                    &[
                        ("pass", Value::from(pass)),
                        (
                            "narrative",
                            Value::Str(crate::explain::explain_block_text(
                                machine, block, schedule,
                            )),
                        ),
                    ],
                );
            }
            if tracer.wants_reservation_tables() {
                let rows = crate::sched::reservation_rows(machine, block, schedule);
                tracer.event(
                    &bctx,
                    "reservation_table",
                    &[
                        ("pass", Value::from(pass)),
                        ("table", Value::Str(rows.join("\n"))),
                    ],
                );
            }
        }
    }
}

fn schedule_all(
    machine: &Machine,
    func: &CodeFunc,
    opts: &SchedOptions,
    tracer: &Tracer,
    ctx: &str,
    pass: &'static str,
    final_pass: bool,
) -> Result<Vec<Schedule>, CodegenError> {
    let mut out = Vec::with_capacity(func.blocks.len());
    {
        let _span = tracer.span(ctx, pass);
        // One scratch arena reused by every block this pass schedules.
        let mut scratch = crate::sched::Scratch::new();
        for (bi, block) in func.blocks.iter().enumerate() {
            let (schedule, discipline) = crate::sched::schedule_block_robust_scratch(
                machine,
                func,
                block,
                opts,
                tracer,
                &mut scratch,
            );
            if discipline != "rule1" {
                // Temporal sequence protection failed to keep plain
                // Rule 1 scheduling live; record which fallback
                // discipline rescued the block.
                tracer.event(
                    &format!("{ctx}/b{bi}"),
                    "sched_fallback",
                    &[
                        ("pass", Value::from(pass)),
                        ("discipline", Value::from(discipline)),
                        ("insts", Value::from(block.insts.len())),
                    ],
                );
                tracer.add(ctx, "sched_fallbacks", 1);
            }
            out.push(schedule);
        }
    }
    {
        let _m = tracer.mspan("sched_metrics");
        record_sched_pass(machine, func, &out, tracer, ctx, pass, final_pass);
    }
    Ok(out)
}

/// Reorders each block's instructions into schedule order, so that the
/// register allocator sees the scheduled instruction order (the paper:
/// "the register allocator determines interference using the
/// instruction order presented to it").
///
/// Sub-operations packed into one cycle execute with read-old /
/// write-new latch semantics; when the cycle is flattened into a
/// sequence, an instruction *reading* a temporal latch must precede
/// the instruction *writing* it, or the rebuilt code DAG would pair
/// stages with the wrong pipeline occupancy.
fn reorder(machine: &Machine, func: &mut CodeFunc, schedules: &[Schedule], tracer: &Tracer) {
    let _m = tracer.mspan("reorder");
    for (block, schedule) in func.blocks.iter_mut().zip(schedules) {
        let mut order: Vec<usize> = Vec::with_capacity(block.insts.len());
        for cycle in &schedule.cycles {
            let mut members = cycle.clone();
            // Topological micro-order: readers of a latch before its
            // writer. Cycles are tiny; simple repeated selection.
            let mut placed: Vec<usize> = Vec::with_capacity(members.len());
            while !members.is_empty() {
                let pick = members
                    .iter()
                    .position(|&m| {
                        // m may go next if no other member READS a
                        // latch that m WRITES.
                        let m_t = machine.template(block.insts[m].template);
                        members.iter().all(|&o| {
                            if o == m {
                                return true;
                            }
                            let o_t = machine.template(block.insts[o].template);
                            !o_t.effects
                                .temporal_uses
                                .iter()
                                .any(|u| m_t.effects.temporal_defs.contains(u))
                        })
                    })
                    .unwrap_or(0);
                placed.push(members.remove(pick));
            }
            order.extend(placed);
        }
        debug_assert_eq!(order.len(), block.insts.len());
        let old = std::mem::take(&mut block.insts);
        let mut new_insts = Vec::with_capacity(old.len());
        let mut taken: Vec<Option<crate::code::Inst>> = old.into_iter().map(Some).collect();
        for i in order {
            new_insts.push(taken[i].take().expect("schedule permutes instructions"));
        }
        block.insts = new_insts;
    }
}

fn sum_len(schedules: &[Schedule]) -> u64 {
    schedules.iter().map(|s| s.length as u64).sum()
}

/// The IPS local-register limit: the smallest general-purpose
/// allocable class, minus headroom for globals.
fn ips_limit(machine: &Machine) -> usize {
    let mut k = usize::MAX;
    for (_, class) in &machine.cwvm().general {
        let n = machine.allocable_of_class(*class).len();
        if n > 0 {
            k = k.min(n);
        }
    }
    if k == usize::MAX {
        8
    } else {
        (k.saturating_sub(2)).max(2)
    }
}

/// Postpass: allocation first, scheduling after (on physical
/// registers, with full anti-dependences).
pub struct Postpass;

impl Strategy for Postpass {
    fn name(&self) -> &'static str {
        "Postpass"
    }

    fn run(
        &self,
        machine: &Machine,
        func: &mut CodeFunc,
        tracer: &Tracer,
        ctx: &str,
    ) -> Result<(Vec<Schedule>, StrategyStats), CodegenError> {
        let alloc = run_allocate(machine, func, &HashMap::new(), tracer, ctx)?;
        let schedules = schedule_all(
            machine,
            func,
            &SchedOptions::default(),
            tracer,
            ctx,
            "sched:postpass",
            true,
        )?;
        let stats = StrategyStats {
            spills: alloc.spills,
            schedule_passes: 1,
            estimated_cycles: sum_len(&schedules),
        };
        Ok((schedules, stats))
    }
}

/// Integrated Prepass Scheduling: schedule each block with a limit on
/// local register use, allocate, then schedule again.
pub struct Ips;

impl Strategy for Ips {
    fn name(&self) -> &'static str {
        "IPS"
    }

    fn run(
        &self,
        machine: &Machine,
        func: &mut CodeFunc,
        tracer: &Tracer,
        ctx: &str,
    ) -> Result<(Vec<Schedule>, StrategyStats), CodegenError> {
        let prepass = schedule_all(
            machine,
            func,
            &SchedOptions {
                local_reg_limit: Some(ips_limit(machine)),
                ..SchedOptions::default()
            },
            tracer,
            ctx,
            "sched:ips-prepass",
            false,
        )?;
        let before = func.clone();
        reorder(machine, func, &prepass, tracer);
        let alloc = match run_allocate(machine, func, &HashMap::new(), tracer, ctx) {
            Ok(a) => a,
            Err(_) => {
                // On register-starved machines the reordered code can
                // be structurally uncolorable; fall back to the code
                // thread order (degrading IPS towards Postpass for
                // this function rather than failing).
                *func = before;
                tracer.event(ctx, "ips_reorder_abandoned", &[]);
                run_allocate(machine, func, &HashMap::new(), tracer, ctx)?
            }
        };
        let schedules = schedule_all(
            machine,
            func,
            &SchedOptions::default(),
            tracer,
            ctx,
            "sched:ips-final",
            true,
        )?;
        let stats = StrategyStats {
            spills: alloc.spills,
            schedule_passes: 2,
            estimated_cycles: sum_len(&schedules),
        };
        Ok((schedules, stats))
    }
}

/// Register Allocation with Schedule Estimates: prepass schedules with
/// and without a register limit give per-block sensitivity; globals
/// crossing schedule-sensitive blocks have their spill costs reduced
/// by the estimated schedule benefit of freeing a register there, the
/// allocator runs with those biases, and a final pass schedules the
/// allocated code.
pub struct Rase;

impl Strategy for Rase {
    fn name(&self) -> &'static str {
        "RASE"
    }

    fn run(
        &self,
        machine: &Machine,
        func: &mut CodeFunc,
        tracer: &Tracer,
        ctx: &str,
    ) -> Result<(Vec<Schedule>, StrategyStats), CodegenError> {
        // Two estimate passes per block: unconstrained and tight.
        let unlimited = schedule_all(
            machine,
            func,
            &SchedOptions::default(),
            tracer,
            ctx,
            "sched:rase-estimate",
            false,
        )?;
        let tight_limit = (ips_limit(machine) / 2).max(2);
        let tight = schedule_all(
            machine,
            func,
            &SchedOptions {
                local_reg_limit: Some(tight_limit),
                ..SchedOptions::default()
            },
            tracer,
            ctx,
            "sched:rase-tight",
            false,
        )?;
        // Sensitivity of each block's schedule to register pressure.
        let mut extra_cost: HashMap<crate::code::Vreg, f64> = HashMap::new();
        for (bi, block) in func.blocks.iter().enumerate() {
            let sensitivity = tight[bi].length.saturating_sub(unlimited[bi].length) as f64;
            if sensitivity == 0.0 {
                continue;
            }
            // Global vregs occurring in a pressure-sensitive block are
            // cheaper to spill: evicting them frees registers exactly
            // where the schedule needs them.
            for inst in &block.insts {
                for op in &inst.ops {
                    if let Operand::Vreg(v) | Operand::VregHalf(v, _) = op {
                        if func.vreg(*v).kind == VregKind::Global {
                            *extra_cost.entry(*v).or_insert(0.0) -= sensitivity;
                        }
                    }
                }
            }
        }
        let before = func.clone();
        reorder(machine, func, &unlimited, tracer);
        let alloc = match run_allocate(machine, func, &extra_cost, tracer, ctx) {
            Ok(a) => a,
            Err(_) => {
                *func = before;
                tracer.event(ctx, "rase_reorder_abandoned", &[]);
                run_allocate(machine, func, &extra_cost, tracer, ctx)?
            }
        };
        let schedules = schedule_all(
            machine,
            func,
            &SchedOptions::default(),
            tracer,
            ctx,
            "sched:rase-final",
            true,
        )?;
        let stats = StrategyStats {
            spills: alloc.spills,
            schedule_passes: 3,
            estimated_cycles: sum_len(&schedules),
        };
        Ok((schedules, stats))
    }
}
