//! List scheduling (paper §4.2–§4.6).
//!
//! The scheduler keeps a list of instructions that are ready to be
//! scheduled without causing a delay and, each iteration, picks the
//! ready instruction with the greatest maximum distance to a leaf of
//! the code DAG. Structural hazards are avoided by intersecting each
//! candidate's *resource vector* with the composite of the resources
//! in use (§4.3); multiple instruction issue falls out of disjoint
//! resource sets. Irregular instruction-word packing is checked with
//! *classes* — two sub-operations pack only if their class
//! intersection is non-empty (§4.5). Explicitly advanced pipelines
//! are handled with *temporal scheduling*: Rule 1 (an instruction that
//! affects clock `k` may not be scheduled before the open destination
//! of a temporal edge on `k`, though it may be packed with it) plus
//! temporal groups, which schedule all open destinations of a clock as
//! one unit (§4.6).

use crate::code::{CodeBlock, CodeFunc, Operand, VregKind};
use crate::dag::{CodeDag, EdgeKind};
use crate::error::{CodegenError, Phase};
use crate::explain::{log_stall, ScheduleExplanation, Stall, StallReason};
use marion_maril::machine::{ClockId, TemplateId};
use marion_maril::{Machine, ResSet};
use marion_trace::Tracer;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reusable per-block scratch buffers — a small bump arena for the
/// scheduler's hot state. One `Scratch` serves any number of
/// consecutive [`schedule_block_scratch`] calls (each call resets the
/// lengths it needs but keeps the capacity), so a caller walking a
/// whole function allocates the scheduler's working set once instead
/// of once per block. All state is dense: vreg-, cycle-, clock-,
/// template- or bucket-indexed arrays — no hashing on the scheduling
/// path.
#[derive(Default)]
pub struct Scratch {
    /// Remaining uses per local vreg (vreg-indexed; 0 = untracked).
    uses_left: Vec<u32>,
    /// Liveness flag per tracked local vreg (vreg-indexed).
    live_local: Vec<bool>,
    /// Open temporal edges per clock id, in edge order.
    open_edges: Vec<Vec<usize>>,
    /// Rule-1 summary per clock id.
    gates: Vec<Gate>,
    /// Open temporal-group destination list.
    dests: Vec<usize>,
    /// Combined group resource vector, cycle-offset-indexed.
    extra: Vec<ResSet>,
    scheduled: Vec<bool>,
    pred_left: Vec<usize>,
    earliest: Vec<u32>,
    timeline: Vec<ResSet>,
    /// The ready set: instructions with all predecessors issued and
    /// operands arrived, bucketed by template and pressure effect.
    ready: ReadySet,
    /// Min-heap of (arrival cycle, instruction) for instructions whose
    /// predecessors all issued but whose operands are still in flight.
    pending: BinaryHeap<Reverse<(u32, usize)>>,
}

impl Scratch {
    pub fn new() -> Scratch {
        Scratch::default()
    }
}

/// Scheduling options.
#[derive(Debug, Clone, Default)]
pub struct SchedOptions {
    /// IPS-style limit on simultaneously live *local* virtual
    /// registers per register class (paper §2: "schedules with a limit
    /// on local register use"). `None` = unlimited.
    pub local_reg_limit: Option<usize>,
    /// Skip Rule 1 and temporal grouping; only meaningful with a DAG
    /// built by [`crate::dag::build_dag_with`] with latch
    /// name-dependences, which then provide latch ordering.
    pub ignore_rule1: bool,
}

/// A completed block schedule.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// Instructions issued per cycle, in issue order.
    pub cycles: Vec<Vec<usize>>,
    /// Issue cycle of each instruction.
    pub inst_cycle: Vec<u32>,
    /// Schedule length in issue cycles, including the trailing delay
    /// slots of a final branch — the scheduler's *estimate* of the
    /// block's execution cost (used by RASE and by Table 4).
    pub length: u32,
    /// Peak number of simultaneously live local virtual registers
    /// observed while scheduling.
    pub peak_local_pressure: usize,
    /// What the scheduler saw and did (cheap to collect; consumers
    /// decide whether to keep it).
    pub metrics: SchedMetrics,
    /// Per-instruction placement provenance: why each instruction
    /// issued when it did (see [`crate::explain`]). Empty on
    /// hand-built schedules.
    pub explanation: ScheduleExplanation,
}

/// Per-block scheduler observations: the code DAG's shape, how
/// contended the ready list got, and where cycles went.
#[derive(Debug, Clone, Default)]
pub struct SchedMetrics {
    /// Code DAG nodes (= block instructions).
    pub dag_nodes: usize,
    /// DAG edges by kind (paper edge types 1/2/3 plus ordering).
    pub edges_true: usize,
    pub edges_temporal: usize,
    pub edges_anti: usize,
    pub edges_output: usize,
    pub edges_mem: usize,
    pub edges_order: usize,
    /// Most instructions simultaneously ready (dependences satisfied,
    /// earliest cycle reached) at any scheduling step.
    pub ready_high_water: usize,
    /// Issue cycles in which nothing could be placed — latency or
    /// structural-hazard stalls the schedule could not fill.
    pub stall_cycles: usize,
    /// Temporal groups placed as a unit (§4.6 sequence scheduling).
    pub temporal_groups: usize,
    /// Sub-operations issued (multi-issue slot usage numerator).
    pub issue_slots_used: usize,
    /// Cycles that issued at least one sub-operation (instruction
    /// words emitted).
    pub issue_cycles: usize,
    /// Cycles that issued at least two sub-operations (packed words).
    pub packed_words: usize,
    /// Scheduler work, independent of the host: ready-set bucket heads
    /// examined by picks and by per-cycle stall attribution, plus the
    /// instructions examined on their own (an open temporal
    /// destination). Grows with buckets per decision, not with the
    /// ready list's length.
    pub pick_probes: usize,
}

impl SchedMetrics {
    fn from_dag(dag: &CodeDag) -> SchedMetrics {
        let mut m = SchedMetrics {
            dag_nodes: dag.n,
            ..SchedMetrics::default()
        };
        for e in &dag.edges {
            match e.kind {
                EdgeKind::True => m.edges_true += 1,
                EdgeKind::TrueTemporal(_) => m.edges_temporal += 1,
                EdgeKind::Anti => m.edges_anti += 1,
                EdgeKind::Output => m.edges_output += 1,
                EdgeKind::Mem => m.edges_mem += 1,
                EdgeKind::Order => m.edges_order += 1,
            }
        }
        m
    }

    /// Total DAG edges of every kind.
    pub fn dag_edges(&self) -> usize {
        self.edges_true
            + self.edges_temporal
            + self.edges_anti
            + self.edges_output
            + self.edges_mem
            + self.edges_order
    }

    /// Sub-operations per issuing cycle (1.0 on a single-issue
    /// machine; above it when words pack).
    pub fn issue_utilization(&self) -> f64 {
        self.issue_slots_used as f64 / self.issue_cycles.max(1) as f64
    }
}

/// Schedules one block against its code DAG.
///
/// # Errors
///
/// Fails only on internal deadlock (which temporal-sequence
/// protection is designed to prevent); the error message names the
/// stuck instructions.
pub fn schedule_block(
    machine: &Machine,
    func: &CodeFunc,
    block: &CodeBlock,
    dag: &CodeDag,
    opts: &SchedOptions,
) -> Result<Schedule, CodegenError> {
    schedule_block_scratch(
        machine,
        func,
        block,
        dag,
        opts,
        &Tracer::off(),
        &mut Scratch::new(),
    )
}

/// [`schedule_block`] with a tracer and caller-provided [`Scratch`].
/// The tracer attributes the scheduler's interior to micro-spans:
/// temporal-group probes, candidate pick-and-place, and clock advances
/// (with their stall attribution) each fold into its self-profile. The
/// hot loops (`group_scan`, `pick_place`, `advance`) allocate nothing
/// once the scratch buffers have grown, and a caller scheduling many
/// blocks (see [`crate::strategy`]) amortises the scheduler's working
/// set across all of them.
pub fn schedule_block_scratch(
    machine: &Machine,
    func: &CodeFunc,
    block: &CodeBlock,
    dag: &CodeDag,
    opts: &SchedOptions,
    tracer: &Tracer,
    scratch: &mut Scratch,
) -> Result<Schedule, CodegenError> {
    let n = block.insts.len();
    if n == 0 {
        return Ok(Schedule::default());
    }
    let prep = tracer.mspan("prep");
    let priority = dag.critical_path();

    // Local-vreg pressure bookkeeping (for the IPS limit), dense over
    // vreg ids. A vreg the block never uses keeps a zero count, which
    // the dense reads treat exactly like the old missing map entry.
    let nv = func.vregs.len();
    scratch.uses_left.clear();
    scratch.uses_left.resize(nv, 0);
    scratch.live_local.clear();
    scratch.live_local.resize(nv, false);
    for inst in &block.insts {
        for op in inst.use_operands(machine) {
            if let Operand::Vreg(v) | Operand::VregHalf(v, _) = op {
                if func.vreg(*v).kind == VregKind::Local {
                    scratch.uses_left[v.0 as usize] += 1;
                }
            }
        }
    }

    let nclocks = machine.clocks().len();
    for list in scratch.open_edges.iter_mut() {
        list.clear();
    }
    if scratch.open_edges.len() < nclocks {
        scratch.open_edges.resize_with(nclocks, Vec::new);
    }
    scratch.gates.clear();
    scratch.gates.resize(nclocks, Gate::default());
    scratch.scheduled.clear();
    scratch.scheduled.resize(n, false);
    scratch.pred_left.clear();
    scratch.pred_left.extend(dag.preds.iter().map(|p| p.len()));
    scratch.earliest.clear();
    scratch.earliest.resize(n, 0);
    scratch.timeline.clear();
    scratch.pending.clear();
    scratch
        .ready
        .reset(machine, block, nv, opts.local_reg_limit.is_some());

    let mut state = SchedState {
        machine,
        block,
        dag,
        priority,
        scheduled: std::mem::take(&mut scratch.scheduled),
        inst_cycle: vec![0u32; n],
        pred_left: std::mem::take(&mut scratch.pred_left),
        earliest: std::mem::take(&mut scratch.earliest),
        timeline: std::mem::take(&mut scratch.timeline),
        cycles: Vec::new(),
        t: 0,
        word_elems: None,
        live_local: std::mem::take(&mut scratch.live_local),
        live_count: 0,
        uses_left: std::mem::take(&mut scratch.uses_left),
        open_edges: std::mem::take(&mut scratch.open_edges),
        gates: std::mem::take(&mut scratch.gates),
        extra: std::mem::take(&mut scratch.extra),
        ready: std::mem::take(&mut scratch.ready),
        pending: std::mem::take(&mut scratch.pending),
        hazard: vec![Vec::new(); n],
        #[cfg(debug_assertions)]
        shadow: vec![Vec::new(); n],
        probes: 0,
        local_limit: opts.local_reg_limit,
        ignore_rule1: opts.ignore_rule1,
        peak_pressure: 0,
        func,
    };
    // Seed the ready set with the DAG roots. An instruction's
    // `earliest` is final once its last predecessor issues (nothing
    // updates it afterwards), so readiness is event-driven: the last
    // releasing `place` either enqueues the successor or parks it in
    // the pending heap until its operands arrive.
    for i in 0..n {
        if state.pred_left[i] == 0 {
            state.push_ready(i);
        }
    }

    let mut metrics = SchedMetrics::from_dag(dag);
    drop(prep);
    let mut remaining = n;
    let max_cycles = (n as u32 + 8) * 64 + 1024;
    // Rule-1 destination list, reused across cycles.
    let mut dests = std::mem::take(&mut scratch.dests);
    while remaining > 0 {
        metrics.ready_high_water = metrics.ready_high_water.max(state.ready.len);
        let mut progress = true;
        while progress {
            progress = false;
            // 1. Temporal groups: all open destinations of a clock go
            //    together.
            if !opts.ignore_rule1 {
                let _m = tracer.mspan("group_scan");
                for k in 0..nclocks {
                    if state.open_edges[k].is_empty() {
                        continue;
                    }
                    state.open_dests_into(ClockId(k as u32), &mut dests);
                    if state.try_place_group(&dests) {
                        remaining -= dests.len();
                        metrics.temporal_groups += 1;
                        progress = true;
                    }
                }
            }
            // 2. Best regular candidate.
            let _m = tracer.mspan("pick_place");
            if let Some(i) = state.pick_candidate(remaining) {
                state.place(i);
                remaining -= 1;
                progress = true;
            }
        }
        if remaining > 0 {
            let _m = tracer.mspan("advance");
            state.attribute_stalls();
            state.advance_cycle();
            if state.t > max_cycles {
                let stuck: Vec<usize> = (0..n).filter(|i| !state.scheduled[*i]).collect();
                state.reclaim(scratch, dests);
                return Err(CodegenError::new(
                    Phase::Schedule,
                    format!("scheduling deadlock; unscheduled instructions {stuck:?}"),
                ));
            }
        }
    }

    let _m = tracer.mspan("finalize");
    #[cfg(debug_assertions)]
    debug_assert_eq!(state.hazard, state.shadow, "bucketed stall logs diverged");
    metrics.pick_probes = state.probes;
    let hazard = std::mem::take(&mut state.hazard);
    let (cycles, inst_cycle, peak_pressure) = state.reclaim(scratch, dests);
    // Schedule length: last issue cycle + 1, plus the delay slots of
    // the block's final control transfer.
    let mut length = cycles.len() as u32;
    if let Some(last) = block
        .insts
        .iter()
        .enumerate()
        .filter(|(_, inst)| inst.is_control(machine))
        .map(|(i, _)| i)
        .max()
    {
        let slots = machine.template(block.insts[last].template).slots;
        length = length.max(inst_cycle[last] + 1 + slots.unsigned_abs());
    }
    metrics.issue_slots_used = n;
    metrics.issue_cycles = cycles.iter().filter(|c| !c.is_empty()).count();
    metrics.packed_words = cycles.iter().filter(|c| c.len() >= 2).count();
    metrics.stall_cycles = cycles.iter().filter(|c| c.is_empty()).count();
    let (slack, critical_path) = crate::explain::critical_path_slack(dag);
    let explanation = ScheduleExplanation {
        records: crate::explain::build_records(dag, &inst_cycle, hazard),
        slack,
        critical_path,
        critical_path_cycles: crate::explain::critical_path_cycles(dag),
        discipline: if opts.ignore_rule1 {
            "name-deps"
        } else {
            "rule1"
        },
    };
    Ok(Schedule {
        cycles,
        inst_cycle,
        length,
        peak_local_pressure: peak_pressure,
        metrics,
        explanation,
    })
}

/// Verifies that a schedule satisfies every constraint the paper
/// imposes (used by tests and property checks):
///
/// 1. **dependence** — for every DAG edge `(x, y, l)`,
///    `cycle(y) ≥ cycle(x) + l`;
/// 2. **structural** — no resource is claimed twice in any cycle
///    (§4.3);
/// 3. **packing** — the classes of all classed sub-operations issued
///    in one cycle have a non-empty intersection (§4.5);
/// 4. **Rule 1** — no instruction affecting clock `k` issues strictly
///    between the source and destination cycles of a temporal edge on
///    `k` (§4.6).
///
/// Returns a description of the first violation.
pub fn verify_schedule(
    machine: &Machine,
    block: &CodeBlock,
    dag: &CodeDag,
    schedule: &Schedule,
) -> Result<(), String> {
    verify_schedule_with(machine, block, dag, schedule, true)
}

/// [`verify_schedule`] with Rule 1 optional: schedules produced under
/// the latch name-dependence fallback discipline get their latch
/// safety from DAG edges instead, so constraint 4 does not apply.
pub fn verify_schedule_with(
    machine: &Machine,
    block: &CodeBlock,
    dag: &CodeDag,
    schedule: &Schedule,
    check_rule1: bool,
) -> Result<(), String> {
    let n = block.insts.len();
    if schedule.inst_cycle.len() != n {
        return Err(format!(
            "schedule covers {} of {} instructions",
            schedule.inst_cycle.len(),
            n
        ));
    }
    // 1. Dependences.
    for e in &dag.edges {
        let (cf, ct) = (schedule.inst_cycle[e.from], schedule.inst_cycle[e.to]);
        if ct < cf + e.latency {
            return Err(format!(
                "edge {} -> {} (lat {}) violated: cycles {cf} -> {ct} ({:?})",
                e.from, e.to, e.latency, e.kind
            ));
        }
    }
    // 2. Structural hazards (cycle-indexed reservation timeline).
    let mut usage: Vec<ResSet> = Vec::new();
    for (i, inst) in block.insts.iter().enumerate() {
        let t = machine.template(inst.template);
        for (c, need) in t.rsrc.iter().enumerate() {
            let at = (schedule.inst_cycle[i] + c as u32) as usize;
            if usage.len() <= at {
                usage.resize(at + 1, ResSet::EMPTY);
            }
            if usage[at].intersects(need) {
                return Err(format!(
                    "resource conflict at cycle {at} caused by instruction {i}"
                ));
            }
            usage[at].union_with(need);
        }
    }
    // 3. Class packing (cycle-indexed membership lists).
    let max_cycle = schedule.inst_cycle.iter().copied().max().unwrap_or(0) as usize;
    let mut per_cycle: Vec<Vec<usize>> = vec![Vec::new(); max_cycle + 1];
    for (i, c) in schedule.inst_cycle.iter().enumerate() {
        per_cycle[*c as usize].push(i);
    }
    for (cycle, members) in per_cycle.iter().enumerate() {
        let mut word: Option<ResSet> = None;
        for &i in members {
            if let Some(cid) = machine.template(block.insts[i].template).class {
                let elems = machine.class(cid).elements;
                word = Some(match word {
                    None => elems,
                    Some(w) => {
                        let inter = w.intersection(&elems);
                        if inter.is_empty() {
                            return Err(format!(
                                "illegal packing at cycle {cycle}: classes do not intersect"
                            ));
                        }
                        inter
                    }
                });
            }
        }
    }
    // 4. Rule 1.
    if !check_rule1 {
        return Ok(());
    }
    for e in &dag.edges {
        let EdgeKind::TrueTemporal(k) = e.kind else {
            continue;
        };
        let (cf, ct) = (schedule.inst_cycle[e.from], schedule.inst_cycle[e.to]);
        for (z, inst) in block.insts.iter().enumerate() {
            if z == e.to || z == e.from {
                continue;
            }
            if machine.template(inst.template).affects_clock == Some(k) {
                let cz = schedule.inst_cycle[z];
                if cz > cf && cz < ct {
                    return Err(format!(
                        "Rule 1 violated: instruction {z} (affects clock {k}) at cycle                          {cz} sits inside temporal edge {} -> {} (cycles {cf} -> {ct})",
                        e.from, e.to
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Schedules a block with the full fallback ladder the strategies
/// use: Rule 1 list scheduling, then same-clock sequence
/// serialisation, then the latch name-dependence discipline, then a
/// serial thread-order schedule. Never fails; the returned flag names
/// the discipline that succeeded.
pub fn schedule_block_robust(
    machine: &Machine,
    func: &CodeFunc,
    block: &CodeBlock,
    opts: &SchedOptions,
) -> (Schedule, &'static str) {
    schedule_block_robust_scratch(
        machine,
        func,
        block,
        opts,
        &Tracer::off(),
        &mut Scratch::new(),
    )
}

/// [`schedule_block_robust`] with a tracer and caller-provided
/// [`Scratch`], reused by every rung of the fallback ladder. DAG
/// construction for each rung folds into the `dag_build` micro-span,
/// and the list scheduler's interior is traced as in
/// [`schedule_block_scratch`].
pub fn schedule_block_robust_scratch(
    machine: &Machine,
    func: &CodeFunc,
    block: &CodeBlock,
    opts: &SchedOptions,
    tracer: &Tracer,
    scratch: &mut Scratch,
) -> (Schedule, &'static str) {
    let m = tracer.mspan("dag_build");
    let dag = crate::dag::build_dag(machine, block, true);
    drop(m);
    if let Ok(s) = schedule_block_scratch(machine, func, block, &dag, opts, tracer, scratch) {
        return (s, "rule1");
    }
    let m = tracer.mspan("dag_build");
    let mut dag2 = crate::dag::build_dag(machine, block, true);
    crate::dag::serialize_same_clock_sequences(&mut dag2);
    drop(m);
    if let Ok(mut s) = schedule_block_scratch(machine, func, block, &dag2, opts, tracer, scratch) {
        s.explanation.discipline = "serialized";
        return (s, "serialized");
    }
    let m = tracer.mspan("dag_build");
    let dag3 = crate::dag::build_dag_with(machine, block, true, true);
    drop(m);
    let relaxed = SchedOptions {
        ignore_rule1: true,
        ..opts.clone()
    };
    if let Ok(s) = schedule_block_scratch(machine, func, block, &dag3, &relaxed, tracer, scratch) {
        return (s, "name-deps");
    }
    (serial_schedule(machine, block, &dag3), "serial")
}

/// A degenerate but always-valid schedule: instructions in code-thread
/// order, one per cycle, delayed only by DAG latencies and structural
/// hazards. Used as the last-resort fallback when list scheduling with
/// Rule 1 deadlocks on a pathological explicitly-advanced-pipeline
/// interleaving: under the simulator's read-old/write-new word
/// semantics, thread order preserves the latch dataflow the code DAG
/// records.
pub fn serial_schedule(machine: &Machine, block: &CodeBlock, dag: &CodeDag) -> Schedule {
    let n = block.insts.len();
    let mut inst_cycle = vec![0u32; n];
    let mut timeline: Vec<ResSet> = Vec::new();
    let mut t = 0u32;
    let mut cycles: Vec<Vec<usize>> = Vec::new();
    let mut hazard: Vec<Vec<Stall>> = vec![Vec::new(); n];
    for i in 0..n {
        let mut dep_at = 0u32;
        for &ei in &dag.preds[i] {
            let e = dag.edges[ei];
            dep_at = dep_at.max(inst_cycle[e.from] + e.latency);
        }
        let mut at = dep_at.max(t);
        if at > dep_at {
            // Waiting for the serial cursor, not for a dependence.
            hazard[i].push(Stall {
                at: dep_at,
                cycles: at - dep_at,
                reason: StallReason::ThreadOrder,
            });
        }
        let tmpl = machine.template(block.insts[i].template);
        'search: loop {
            for (c, need) in tmpl.rsrc.iter().enumerate() {
                let idx = at as usize + c;
                if timeline.len() > idx && timeline[idx].intersects(need) {
                    if let Some(r) = timeline[idx].intersection(need).iter().next() {
                        log_stall(&mut hazard[i], at, 1, StallReason::Resource { resource: r });
                    }
                    at += 1;
                    continue 'search;
                }
            }
            break;
        }
        for (c, need) in tmpl.rsrc.iter().enumerate() {
            let idx = at as usize + c;
            if timeline.len() <= idx {
                timeline.resize(idx + 1, ResSet::EMPTY);
            }
            timeline[idx].union_with(need);
        }
        inst_cycle[i] = at;
        while cycles.len() <= at as usize {
            cycles.push(Vec::new());
        }
        cycles[at as usize].push(i);
        // Strictly serial: the next instruction issues later.
        t = at + 1;
    }
    let mut length = cycles.len() as u32;
    if let Some(last) = block
        .insts
        .iter()
        .enumerate()
        .filter(|(_, inst)| inst.is_control(machine))
        .map(|(i, _)| i)
        .max()
    {
        let slots = machine.template(block.insts[last].template).slots;
        length = length.max(inst_cycle[last] + 1 + slots.unsigned_abs());
    }
    let mut metrics = SchedMetrics::from_dag(dag);
    metrics.issue_slots_used = n;
    metrics.issue_cycles = cycles.iter().filter(|c| !c.is_empty()).count();
    metrics.packed_words = cycles.iter().filter(|c| c.len() >= 2).count();
    metrics.stall_cycles = cycles.iter().filter(|c| c.is_empty()).count();
    let (slack, critical_path) = crate::explain::critical_path_slack(dag);
    let explanation = ScheduleExplanation {
        records: crate::explain::build_records(dag, &inst_cycle, hazard),
        slack,
        critical_path,
        critical_path_cycles: crate::explain::critical_path_cycles(dag),
        discipline: "serial",
    };
    Schedule {
        cycles,
        inst_cycle,
        length,
        peak_local_pressure: 0,
        metrics,
        explanation,
    }
}

/// Renders a block schedule as a reservation table: one row per
/// cycle, one column per declared resource, `X` where the cycle
/// claims the resource (§4.3's composite resource vector, unrolled
/// over time). A trailing column lists the sub-operations issued that
/// cycle, so packed words on a multi-issue machine read directly off
/// the table. Empty for an empty block.
pub fn reservation_rows(machine: &Machine, block: &CodeBlock, schedule: &Schedule) -> Vec<String> {
    if block.insts.is_empty() {
        return Vec::new();
    }
    let names = machine.resources();
    let mut timeline: Vec<ResSet> = Vec::new();
    for (i, inst) in block.insts.iter().enumerate() {
        let t = machine.template(inst.template);
        for (c, need) in t.rsrc.iter().enumerate() {
            let at = schedule.inst_cycle[i] as usize + c;
            if timeline.len() <= at {
                timeline.resize(at + 1, ResSet::EMPTY);
            }
            timeline[at].union_with(need);
        }
    }
    let width = names.iter().map(|n| n.len()).max().unwrap_or(1).max(2);
    let mut rows = Vec::with_capacity(timeline.len() + 1);
    let header: Vec<String> = names.iter().map(|n| format!("{n:>width$}")).collect();
    rows.push(format!("cycle | {} | issued", header.join(" ")));
    for (c, used) in timeline.iter().enumerate() {
        let cells: Vec<String> = (0..names.len())
            .map(|r| {
                let mark = if used.contains(r as u32) { "X" } else { "." };
                format!("{mark:>width$}")
            })
            .collect();
        let issued = schedule
            .cycles
            .get(c)
            .map(|members| {
                members
                    .iter()
                    .map(|&i| machine.template(block.insts[i].template).mnemonic.as_str())
                    .collect::<Vec<_>>()
                    .join(" + ")
            })
            .unwrap_or_default();
        rows.push(format!("{c:>5} | {} | {issued}", cells.join(" ")));
    }
    rows
}

/// "No bucket" / "no block-local template".
const NONE: u32 = u32::MAX;

/// The first failing template-level check of a ready instruction —
/// resources, then packing class — in the order
/// [`SchedState::stall_reason_at`] reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Fits,
    Resource(u32),
    Class,
}

impl Verdict {
    /// The stall reason of an instruction with this verdict whose
    /// Rule-1 check passed.
    fn reason(self, pressure_fits: bool) -> StallReason {
        match self {
            Verdict::Resource(resource) => StallReason::Resource { resource },
            Verdict::Class => StallReason::ClassPacking,
            Verdict::Fits if !pressure_fits => StallReason::RegPressure,
            Verdict::Fits => StallReason::Other,
        }
    }
}

/// A template the block uses, with its verdict memoised for one
/// decision (valid while `stamp` equals the ready set's).
#[derive(Clone, Copy)]
struct LocalTemplate {
    id: TemplateId,
    clock: Option<ClockId>,
    stamp: u32,
    verdict: Verdict,
}

/// Rule 1 on one clock, summarised over its *qualifying* edges: open
/// temporal edges whose source issued before the current cycle.
/// `first` is the first of them in edge order; `many` says their
/// destinations differ. With none, every instruction affecting the
/// clock passes; with one destination, only that destination does;
/// with several, none does.
#[derive(Debug, Clone, Copy, Default)]
struct Gate {
    first: Option<usize>,
    many: bool,
}

/// Ready instructions that share a template and a pressure delta: they
/// pass or fail every pick-time check together (Rule 1 aside for one
/// open destination per clock), so the head speaks for all of them.
#[derive(Default)]
struct Bucket {
    tmpl: u32,
    delta: i32,
    /// Members as max-heap entries `(priority, Reverse(index),
    /// version)`, so the head is the bucket's maximum under the
    /// scheduler's total order. Leaving is lazy: an entry is live only
    /// while its version is the instruction's current one.
    heap: BinaryHeap<(u32, Reverse<u32>, u32)>,
    len: u32,
    /// The stall reason the members shared in each cycle the bucket was
    /// non-empty, run-length encoded.
    log: Vec<Stall>,
}

/// The ready set, bucketed by (template, pressure delta). A pick
/// checks resources and class once per template and pressure once per
/// bucket, then compares bucket heads; a cycle's stall attribution
/// logs one reason per bucket, and a member copies the runs it sat
/// through when it leaves. Both cost O(buckets + log n) rather than
/// O(ready instructions).
#[derive(Default)]
struct ReadySet {
    /// Block-local template id per machine template (`NONE` if the
    /// block does not use it), and the block's templates.
    local_of: Vec<u32>,
    templates: Vec<LocalTemplate>,
    /// Bucket id per (local template, delta - `dmin`), `width` deltas
    /// per template; `NONE` until first used.
    slots: Vec<u32>,
    dmin: i32,
    width: usize,
    buckets: Vec<Bucket>,
    nbuckets: usize,
    /// Instructions in the set.
    len: usize,
    /// Verdict memo generation, bumped before each decision.
    stamp: u32,
    /// Per instruction: local template, pressure delta, bucket (`NONE`
    /// unless ready), first cycle of its bucket's log not yet copied
    /// into its stall log, and membership version.
    tmpl: Vec<u32>,
    delta: Vec<i32>,
    bucket: Vec<u32>,
    since: Vec<u32>,
    version: Vec<u32>,
    /// The instructions referencing each vreg (compressed sparse rows
    /// over vreg ids): a placement re-derives the delta only of ready
    /// instructions that read or write a vreg whose `uses_left == 1`,
    /// `uses_left > 0` or liveness it flipped. Built only under a
    /// register limit.
    ref_start: Vec<u32>,
    refs: Vec<u32>,
    flipped: Vec<u32>,
}

fn vreg_of(op: &Operand) -> Option<usize> {
    match op {
        Operand::Vreg(v) | Operand::VregHalf(v, _) => Some(v.0 as usize),
        _ => None,
    }
}

impl ReadySet {
    fn reset(&mut self, machine: &Machine, block: &CodeBlock, nv: usize, limited: bool) {
        for lt in &self.templates {
            if let Some(slot) = self.local_of.get_mut(lt.id.0 as usize) {
                *slot = NONE;
            }
        }
        self.templates.clear();
        self.local_of.resize(machine.templates().len(), NONE);
        self.tmpl.clear();
        // A delta counts -1 per use and +1 per def operand at most.
        let (mut max_uses, mut max_defs) = (0, 0);
        for inst in &block.insts {
            let g = inst.template.0 as usize;
            if self.local_of[g] == NONE {
                self.local_of[g] = self.templates.len() as u32;
                self.templates.push(LocalTemplate {
                    id: inst.template,
                    clock: machine.template(inst.template).affects_clock,
                    stamp: 0,
                    verdict: Verdict::Fits,
                });
            }
            self.tmpl.push(self.local_of[g]);
            if limited {
                max_uses = max_uses.max(inst.use_operands(machine).filter_map(vreg_of).count());
                max_defs = max_defs.max(inst.def_operands(machine).filter_map(vreg_of).count());
            }
        }
        self.dmin = -(max_uses as i32);
        self.width = max_uses + max_defs + 1;
        self.slots.clear();
        self.slots.resize(self.templates.len() * self.width, NONE);
        self.nbuckets = 0;
        self.len = 0;
        self.stamp = 0;
        let n = block.insts.len();
        self.delta.clear();
        self.delta.resize(n, 0);
        self.bucket.clear();
        self.bucket.resize(n, NONE);
        self.since.clear();
        self.since.resize(n, 0);
        self.version.clear();
        self.version.resize(n, 0);
        if !limited {
            return;
        }
        // Count into `ref_start[v + 1]`, prefix-sum to row starts, fill
        // by bumping each row's start to its end, then shift back.
        self.ref_start.clear();
        self.ref_start.resize(nv + 1, 0);
        for inst in &block.insts {
            for v in inst
                .use_operands(machine)
                .chain(inst.def_operands(machine))
                .filter_map(vreg_of)
            {
                self.ref_start[v + 1] += 1;
            }
        }
        for v in 0..nv {
            self.ref_start[v + 1] += self.ref_start[v];
        }
        self.refs.clear();
        self.refs.resize(self.ref_start[nv] as usize, 0);
        for (i, inst) in block.insts.iter().enumerate() {
            for v in inst
                .use_operands(machine)
                .chain(inst.def_operands(machine))
                .filter_map(vreg_of)
            {
                self.refs[self.ref_start[v] as usize] = i as u32;
                self.ref_start[v] += 1;
            }
        }
        for v in (1..=nv).rev() {
            self.ref_start[v] = self.ref_start[v - 1];
        }
        self.ref_start[0] = 0;
    }

    /// The bucket of (local template, delta), created on first use.
    fn bucket_of(&mut self, tmpl: u32, delta: i32) -> usize {
        let slot = tmpl as usize * self.width + (delta - self.dmin) as usize;
        if self.slots[slot] == NONE {
            if self.buckets.len() == self.nbuckets {
                self.buckets.push(Bucket::default());
            }
            let b = &mut self.buckets[self.nbuckets];
            b.tmpl = tmpl;
            b.delta = delta;
            b.heap.clear();
            b.len = 0;
            b.log.clear();
            self.slots[slot] = self.nbuckets as u32;
            self.nbuckets += 1;
        }
        self.slots[slot] as usize
    }

    /// Adds ready instruction `i` at cycle `t`.
    fn insert(&mut self, i: usize, delta: i32, priority: u32, t: u32) {
        let b = self.bucket_of(self.tmpl[i], delta);
        self.version[i] += 1;
        self.delta[i] = delta;
        self.bucket[i] = b as u32;
        self.since[i] = t;
        let bucket = &mut self.buckets[b];
        bucket
            .heap
            .push((priority, Reverse(i as u32), self.version[i]));
        bucket.len += 1;
        self.len += 1;
    }

    /// Takes `i` out of the set at cycle `t`, first copying into `log`
    /// the stall runs its bucket logged since `i` joined.
    fn remove(&mut self, i: usize, t: u32, log: &mut Vec<Stall>) {
        self.flush(i, t, log);
        let bucket = &mut self.buckets[self.bucket[i] as usize];
        bucket.len -= 1;
        if bucket.len == 0 {
            bucket.heap.clear();
        }
        self.version[i] += 1;
        self.bucket[i] = NONE;
        self.len -= 1;
    }

    /// Copies `i`'s bucket's stall runs clipped to `[since, t)` into
    /// `log` and moves `since` to `t`.
    fn flush(&mut self, i: usize, t: u32, log: &mut Vec<Stall>) {
        let from = self.since[i];
        let runs = &self.buckets[self.bucket[i] as usize].log;
        let start = runs.partition_point(|s| s.at + s.cycles <= from);
        for s in runs[start..].iter().take_while(|s| s.at < t) {
            let (at, end) = (s.at.max(from), (s.at + s.cycles).min(t));
            if at < end {
                log_stall(log, at, end - at, s.reason);
            }
        }
        self.since[i] = t;
    }

    /// The maximum member of non-empty bucket `b`.
    fn head(&mut self, b: usize) -> usize {
        let heap = &mut self.buckets[b].heap;
        loop {
            let &(_, Reverse(i), version) =
                heap.peek().expect("a non-empty bucket has a live entry");
            if self.version[i as usize] == version {
                return i as usize;
            }
            heap.pop();
        }
    }

    /// The live members of bucket `b`, in no particular order.
    #[cfg(debug_assertions)]
    fn members(&self, b: usize) -> impl Iterator<Item = usize> + '_ {
        self.buckets[b]
            .heap
            .iter()
            .filter(|&&(_, Reverse(i), version)| self.version[i as usize] == version)
            .map(|&(_, Reverse(i), _)| i as usize)
    }
}

struct SchedState<'a> {
    machine: &'a Machine,
    block: &'a CodeBlock,
    dag: &'a CodeDag,
    priority: Vec<u32>,
    scheduled: Vec<bool>,
    inst_cycle: Vec<u32>,
    pred_left: Vec<usize>,
    earliest: Vec<u32>,
    timeline: Vec<ResSet>,
    cycles: Vec<Vec<usize>>,
    t: u32,
    /// Intersection of the packing classes issued this cycle.
    word_elems: Option<ResSet>,
    /// Vreg-indexed liveness of tracked locals plus an incrementally
    /// maintained count of `true` entries (the IPS pressure figure).
    live_local: Vec<bool>,
    live_count: usize,
    /// Vreg-indexed remaining-use counts; 0 means untracked.
    uses_left: Vec<u32>,
    /// Open temporal edges per clock (source issued, destination not),
    /// in edge order: the group scan, Rule 1 and stall attribution
    /// walk only these, never the clock's whole edge list.
    open_edges: Vec<Vec<usize>>,
    /// Rule-1 summary per clock, refreshed before each decision.
    gates: Vec<Gate>,
    /// Reusable group resource-probe buffer.
    extra: Vec<ResSet>,
    /// Exactly the instructions for which [`SchedState::is_ready`]
    /// holds, maintained incrementally. Membership can only end by
    /// issuing: `earliest` never moves once `pred_left` hits zero and
    /// `t` never decreases.
    ready: ReadySet,
    /// Instructions whose predecessors all issued but whose operands
    /// land at a future cycle, keyed by that cycle.
    pending: BinaryHeap<Reverse<(u32, usize)>>,
    /// Per-instruction hazard log: the cycles an instruction was ready
    /// but could not issue, with the reason. Together with the
    /// dependence wait derived afterwards this tiles
    /// `[ready_cycle, issue_cycle)` exactly.
    hazard: Vec<Vec<Stall>>,
    /// The debug-build oracle for `hazard`: every ready instruction's
    /// [`SchedState::stall_reason_at`] logged cycle by cycle.
    #[cfg(debug_assertions)]
    shadow: Vec<Vec<Stall>>,
    /// Bucket heads and individually attributed instructions examined
    /// ([`SchedMetrics::pick_probes`]).
    probes: usize,
    local_limit: Option<usize>,
    ignore_rule1: bool,
    peak_pressure: usize,
    func: &'a CodeFunc,
}

impl<'a> SchedState<'a> {
    /// Returns the reusable buffers to `scratch` and hands back the
    /// pieces the caller still needs.
    fn reclaim(
        self,
        scratch: &mut Scratch,
        dests: Vec<usize>,
    ) -> (Vec<Vec<usize>>, Vec<u32>, usize) {
        scratch.scheduled = self.scheduled;
        scratch.pred_left = self.pred_left;
        scratch.earliest = self.earliest;
        scratch.timeline = self.timeline;
        scratch.live_local = self.live_local;
        scratch.uses_left = self.uses_left;
        scratch.open_edges = self.open_edges;
        scratch.gates = self.gates;
        scratch.extra = self.extra;
        scratch.ready = self.ready;
        scratch.pending = self.pending;
        scratch.dests = dests;
        (self.cycles, self.inst_cycle, self.peak_pressure)
    }

    /// Destinations of currently open temporal edges on `clock`:
    /// source scheduled, destination not.
    fn open_dests_into(&self, clock: ClockId, out: &mut Vec<usize>) {
        out.clear();
        for &ei in &self.open_edges[clock.0 as usize] {
            let to = self.dag.edges[ei].to;
            if !out.contains(&to) {
                out.push(to);
            }
        }
    }

    fn is_ready(&self, i: usize) -> bool {
        !self.scheduled[i] && self.pred_left[i] == 0 && self.earliest[i] <= self.t
    }

    fn push_ready(&mut self, i: usize) {
        let delta = if self.local_limit.is_some() {
            self.pressure_delta(i) as i32
        } else {
            0
        };
        self.ready.insert(i, delta, self.priority[i], self.t);
    }

    /// All of `j`'s predecessors have issued: make it ready now or
    /// park it until its operands arrive.
    fn release(&mut self, j: usize) {
        if self.earliest[j] <= self.t {
            self.push_ready(j);
        } else {
            self.pending.push(Reverse((self.earliest[j], j)));
        }
    }

    fn drain_pending(&mut self) {
        while let Some(&Reverse((at, j))) = self.pending.peek() {
            if at > self.t {
                break;
            }
            self.pending.pop();
            self.push_ready(j);
        }
    }

    fn class_fits(&self, tmpl: TemplateId, word: Option<ResSet>) -> (bool, Option<ResSet>) {
        match self.machine.template(tmpl).class {
            None => (true, word),
            Some(cid) => {
                let elems = self.machine.class(cid).elements;
                match word {
                    None => (true, Some(elems)),
                    Some(w) => {
                        let inter = w.intersection(&elems);
                        (!inter.is_empty(), Some(inter))
                    }
                }
            }
        }
    }

    /// Whether `tmpl` fits this cycle's resources and word class.
    fn verdict(&self, tmpl: TemplateId) -> Verdict {
        let t = self.machine.template(tmpl);
        for (c, need) in t.rsrc.iter().enumerate() {
            let at = self.t as usize + c;
            let in_use = self.timeline.get(at).copied().unwrap_or(ResSet::EMPTY);
            let clash = in_use.intersection(need);
            if !clash.is_empty() {
                let resource = clash.iter().next().expect("a non-empty clash");
                return Verdict::Resource(resource);
            }
        }
        if !self.class_fits(tmpl, self.word_elems).0 {
            return Verdict::Class;
        }
        Verdict::Fits
    }

    /// [`SchedState::verdict`] of local template `lt`, computed once
    /// per decision.
    fn memo_verdict(&mut self, lt: u32) -> Verdict {
        let local = self.ready.templates[lt as usize];
        if local.stamp == self.ready.stamp {
            return local.verdict;
        }
        let verdict = self.verdict(local.id);
        let local = &mut self.ready.templates[lt as usize];
        local.stamp = self.ready.stamp;
        local.verdict = verdict;
        verdict
    }

    /// Rule 1 (paper §4.6): if there is a temporal edge `(x, y)` based
    /// on clock `k` and `x` has been scheduled, an instruction `z ≠ y`
    /// that affects `k` may not be scheduled before `y` — but may be
    /// *packed* with it. In cycle terms: `z` may issue at cycle `t`
    /// only if every open temporal edge on `k` (other than one ending
    /// at `z` itself) has its source issued in this same cycle, so the
    /// pending latch value is consumed by the same clock tick `z`
    /// rides on. The picks apply it per clock through [`Gate`]; this
    /// per-instruction form is their debug-build oracle.
    #[cfg(debug_assertions)]
    fn rule1_allows(&self, i: usize) -> bool {
        if self.ignore_rule1 {
            return true;
        }
        let Some(k) = self
            .machine
            .template(self.block.insts[i].template)
            .affects_clock
        else {
            return true;
        };
        self.open_edges[k.0 as usize].iter().all(|&ei| {
            let e = &self.dag.edges[ei];
            e.to == i || self.inst_cycle[e.from] == self.t
        })
    }

    /// Summarises Rule 1 per clock for the coming decision.
    fn refresh_gates(&mut self) {
        if self.ignore_rule1 {
            return;
        }
        for k in 0..self.gates.len() {
            let mut gate = Gate::default();
            for &ei in &self.open_edges[k] {
                let e = &self.dag.edges[ei];
                if self.inst_cycle[e.from] == self.t {
                    continue;
                }
                match gate.first {
                    None => gate.first = Some(ei),
                    Some(f) if self.dag.edges[f].to != e.to => {
                        gate.many = true;
                        break;
                    }
                    Some(_) => {}
                }
            }
            self.gates[k] = gate;
        }
    }

    /// The open temporal edge that holds back instructions affecting
    /// `clock` this cycle, if any.
    fn gate_edge(&self, clock: Option<ClockId>) -> Option<usize> {
        if self.ignore_rule1 {
            return None;
        }
        self.gates[clock?.0 as usize].first
    }

    /// The ready destination of clock `k`'s first qualifying edge when
    /// its template affects `k`: the one instruction its gated bucket
    /// cannot speak for.
    fn exempt(&self, k: usize) -> Option<usize> {
        let d = self.dag.edges[self.gates[k].first?].to;
        let local = self.ready.templates[self.ready.tmpl[d] as usize];
        (self.ready.bucket[d] != NONE && local.clock == Some(ClockId(k as u32))).then_some(d)
    }

    /// IPS pressure check: would an instruction with this delta push
    /// live local vregs past the limit?
    fn pressure_fits(&self, delta: i64) -> bool {
        self.local_limit
            .is_none_or(|limit| self.live_count as i64 + delta <= limit as i64)
    }

    fn pressure_delta(&self, i: usize) -> i64 {
        let inst = &self.block.insts[i];
        let mut delta = 0i64;
        for op in inst.use_operands(self.machine) {
            if let Operand::Vreg(v) | Operand::VregHalf(v, _) = op {
                let vi = v.0 as usize;
                if self.uses_left[vi] == 1 && self.live_local[vi] {
                    delta -= 1;
                }
            }
        }
        for op in inst.def_operands(self.machine) {
            if let Operand::Vreg(v) | Operand::VregHalf(v, _) = op {
                let vi = v.0 as usize;
                if self.func.vreg(*v).kind == VregKind::Local
                    && self.uses_left[vi] > 0
                    && !self.live_local[vi]
                {
                    delta += 1;
                }
            }
        }
        delta
    }

    /// Keeps `i` as the best (pressure allows it) or the best relaxed
    /// candidate when it beats the current one under the total order
    /// (priority, then lowest index).
    fn offer(&self, i: usize, delta: i64, best: &mut Option<usize>, relax: &mut Option<usize>) {
        let slot = if self.pressure_fits(delta) {
            best
        } else {
            relax
        };
        if slot.is_none_or(|b| (self.priority[i], Reverse(i)) > (self.priority[b], Reverse(b))) {
            *slot = Some(i);
        }
    }

    /// When the register limit blocks everything *and* advancing time
    /// cannot make anything new ready (every unscheduled instruction
    /// either is already ready-but-blocked or waits on a blocked
    /// producer), exceed the limit rather than deadlock (Goodman–Hsu
    /// switch from CSP to CSR). The pending heap holds exactly the
    /// released-but-not-arrived instructions.
    fn choose(&self, best: Option<usize>, relax: Option<usize>, remaining: usize) -> Option<usize> {
        if best.is_none() && remaining > 0 && self.pending.is_empty() {
            return relax;
        }
        best
    }

    /// The ready instruction to issue next: the maximum of the total
    /// order among those that pass Rule 1, resources, class and
    /// pressure, found from bucket heads.
    fn pick_candidate(&mut self, remaining: usize) -> Option<usize> {
        self.ready.stamp += 1;
        self.refresh_gates();
        let (mut best, mut relax) = (None, None);
        for b in 0..self.ready.nbuckets {
            let bucket = &self.ready.buckets[b];
            let (lt, delta) = (bucket.tmpl, bucket.delta);
            if bucket.len == 0
                || self
                    .gate_edge(self.ready.templates[lt as usize].clock)
                    .is_some()
                || self.memo_verdict(lt) != Verdict::Fits
            {
                continue;
            }
            let i = self.ready.head(b);
            self.probes += 1;
            self.offer(i, delta.into(), &mut best, &mut relax);
        }
        // A gate with a single destination lets that one instruction
        // through.
        if !self.ignore_rule1 {
            for k in 0..self.gates.len() {
                if self.gates[k].many {
                    continue;
                }
                let Some(d) = self.exempt(k) else {
                    continue;
                };
                self.probes += 1;
                if self.memo_verdict(self.ready.tmpl[d]) == Verdict::Fits {
                    self.offer(d, self.ready.delta[d].into(), &mut best, &mut relax);
                }
            }
        }
        let pick = self.choose(best, relax, remaining);
        // A `None` pick ends the cycle; `attribute_stalls` then checks
        // that every ready instruction really is blocked.
        #[cfg(debug_assertions)]
        if let Some(p) = pick {
            debug_assert_eq!(
                pick,
                self.pick_linear(p, remaining),
                "bucketed pick diverged from the linear scan at cycle {}",
                self.t
            );
        }
        pick
    }

    /// The debug-build oracle for a [`SchedState::pick_candidate`]
    /// that found `pick`: the linear-scan decision over the ready
    /// instructions, each checked on its own with its pressure delta
    /// derived afresh. Instructions ranked below a `pick` that the
    /// pressure limit allows cannot change the decision, so they are
    /// skipped.
    #[cfg(debug_assertions)]
    fn pick_linear(&self, pick: usize, remaining: usize) -> Option<usize> {
        let rank = |j: usize| (self.priority[j], Reverse(j));
        let floor = Some(pick).filter(|&p| self.pressure_fits(self.pressure_delta(p)));
        let (mut best, mut relax) = (None, None);
        let mut members = 0;
        for b in 0..self.ready.nbuckets {
            for i in self.ready.members(b) {
                members += 1;
                debug_assert!(self.is_ready(i), "{i} is in the ready set but not ready");
                if floor.is_some_and(|p| rank(i) < rank(p)) {
                    continue;
                }
                if self.rule1_allows(i)
                    && self.verdict(self.block.insts[i].template) == Verdict::Fits
                {
                    self.offer(i, self.pressure_delta(i), &mut best, &mut relax);
                }
            }
        }
        debug_assert_eq!(members, self.ready.len);
        self.choose(best, relax, remaining)
    }

    /// Attempts to place an entire temporal group this cycle.
    fn try_place_group(&mut self, dests: &[usize]) -> bool {
        // Every member must be ready.
        if !dests.iter().all(|&d| self.is_ready(d)) {
            return false;
        }
        // Chained members can affect a *different* clock than the
        // group's (the i860's M1a is a clk_a-edge destination but
        // ticks clk_m): Rule 1 must hold for those clocks too, with
        // edges whose destinations are inside this group counting as
        // satisfied (they issue this very cycle).
        for &d in dests {
            let Some(k) = self
                .machine
                .template(self.block.insts[d].template)
                .affects_clock
            else {
                continue;
            };
            for &ei in &self.open_edges[k.0 as usize] {
                let e = &self.dag.edges[ei];
                if e.to != d && !dests.contains(&e.to) && self.inst_cycle[e.from] != self.t {
                    return false;
                }
            }
        }
        // Combined resources must fit and classes must intersect.
        let mut extra = std::mem::take(&mut self.extra);
        extra.clear();
        let ok = self.group_resources_fit(dests, &mut extra);
        self.extra = extra;
        if !ok {
            return false;
        }
        for &d in dests {
            self.place(d);
        }
        true
    }

    /// Combined resource + class probe for a temporal group, writing
    /// the group's composite resource vector into `extra`.
    fn group_resources_fit(&self, dests: &[usize], extra: &mut Vec<ResSet>) -> bool {
        let mut word = self.word_elems;
        for &d in dests {
            let tmpl = self.block.insts[d].template;
            let (ok, new_word) = self.class_fits(tmpl, word);
            if !ok {
                return false;
            }
            word = new_word;
            for (c, need) in self.machine.template(tmpl).rsrc.iter().enumerate() {
                if extra.len() <= c {
                    extra.resize(c + 1, ResSet::EMPTY);
                }
                if extra[c].intersects(need) {
                    return false;
                }
                extra[c].union_with(need);
            }
        }
        for (c, e) in extra.iter().enumerate() {
            let at = self.t as usize + c;
            let in_use = self.timeline.get(at).copied().unwrap_or(ResSet::EMPTY);
            if in_use.intersects(e) {
                return false;
            }
        }
        true
    }

    fn place(&mut self, i: usize) {
        debug_assert!(!self.scheduled[i]);
        self.ready.remove(i, self.t, &mut self.hazard[i]);
        // Reborrow through the 'a references so the operand iterators
        // below don't hold `&self` across the map mutations.
        let block = self.block;
        let machine = self.machine;
        let inst = &block.insts[i];
        let t = machine.template(inst.template);
        // Commit resources.
        for (c, need) in t.rsrc.iter().enumerate() {
            let at = self.t as usize + c;
            if self.timeline.len() <= at {
                self.timeline.resize(at + 1, ResSet::EMPTY);
            }
            self.timeline[at].union_with(need);
        }
        // Commit the word class.
        let (_, word) = self.class_fits(inst.template, self.word_elems);
        self.word_elems = word;
        // Record.
        self.scheduled[i] = true;
        self.inst_cycle[i] = self.t;
        while self.cycles.len() <= self.t as usize {
            self.cycles.push(Vec::new());
        }
        self.cycles[self.t as usize].push(i);
        // Pressure bookkeeping, before any successor is released so its
        // delta sees this placement. `live_count` tracks the number of
        // `true` liveness flags incrementally: uses first (a final use
        // kills its vreg), then defs (a def of a still-used local makes
        // it live). A use leaving `uses_left` at 1 or 0, and any
        // liveness change, flips a predicate `pressure_delta` reads.
        self.ready.flipped.clear();
        for op in inst.use_operands(machine) {
            if let Operand::Vreg(v) | Operand::VregHalf(v, _) = *op {
                let vi = v.0 as usize;
                if self.uses_left[vi] > 0 {
                    self.uses_left[vi] -= 1;
                    if self.uses_left[vi] == 0 && self.live_local[vi] {
                        self.live_local[vi] = false;
                        self.live_count -= 1;
                    }
                    if self.uses_left[vi] <= 1 {
                        self.ready.flipped.push(v.0);
                    }
                }
            }
        }
        for op in inst.def_operands(machine) {
            if let Operand::Vreg(v) | Operand::VregHalf(v, _) = *op {
                let vi = v.0 as usize;
                if self.func.vreg(v).kind == VregKind::Local
                    && self.uses_left[vi] > 0
                    && !self.live_local[vi]
                {
                    self.live_local[vi] = true;
                    self.live_count += 1;
                    self.ready.flipped.push(v.0);
                }
            }
        }
        self.peak_pressure = self.peak_pressure.max(self.live_count);
        if self.local_limit.is_some() {
            self.update_deltas();
        }
        // Release successors. The last releasing edge fixes the
        // successor's `earliest` for good, so it can be enqueued at
        // exactly that arrival cycle. Issuing a temporal source opens
        // its edge (the destination cannot have issued first — it
        // depends on the source); issuing a destination closes every
        // temporal edge into it.
        for &ei in &self.dag.succs[i] {
            let e = self.dag.edges[ei];
            if let EdgeKind::TrueTemporal(k) = e.kind {
                let open = &mut self.open_edges[k.0 as usize];
                let at = open.partition_point(|&x| x < ei);
                open.insert(at, ei);
            }
            self.pred_left[e.to] -= 1;
            self.earliest[e.to] = self.earliest[e.to].max(self.t + e.latency);
            if self.pred_left[e.to] == 0 {
                self.release(e.to);
            }
        }
        for &ei in &self.dag.preds[i] {
            if let EdgeKind::TrueTemporal(k) = self.dag.edges[ei].kind {
                let open = &mut self.open_edges[k.0 as usize];
                let at = open
                    .iter()
                    .position(|&x| x == ei)
                    .expect("a temporal edge into an issuing instruction is open");
                open.remove(at);
            }
        }
    }

    /// Moves each ready instruction that references a flipped vreg to
    /// the bucket of its new pressure delta.
    fn update_deltas(&mut self) {
        let flipped = std::mem::take(&mut self.ready.flipped);
        for &v in &flipped {
            let v = v as usize;
            let rows = self.ready.ref_start[v] as usize..self.ready.ref_start[v + 1] as usize;
            for r in rows {
                let j = self.ready.refs[r] as usize;
                if self.ready.bucket[j] == NONE {
                    continue;
                }
                let delta = self.pressure_delta(j) as i32;
                if delta != self.ready.delta[j] {
                    self.ready.remove(j, self.t, &mut self.hazard[j]);
                    self.ready.insert(j, delta, self.priority[j], self.t);
                }
            }
        }
        self.ready.flipped = flipped;
    }

    fn advance_cycle(&mut self) {
        if self.ready.len == 0 {
            // Nothing can issue until an in-flight result lands: jump
            // straight to the next arrival. The skipped cycles are
            // provably empty, so the schedule is identical — only the
            // walk is shorter. With nothing pending either this is a
            // deadlock; stepping once lets the caller's cycle cap
            // fire with its usual diagnostic.
            self.t = match self.pending.peek() {
                Some(&Reverse((at, _))) => at,
                None => self.t + 1,
            };
        } else {
            self.t += 1;
        }
        self.drain_pending();
        self.word_elems = None;
        while self.cycles.len() < self.t as usize {
            self.cycles.push(Vec::new());
        }
    }

    /// Logs why each ready instruction could not issue in the cycle
    /// that is ending. Called once the placement loop has reached a
    /// fixpoint. Each bucket logs the reason its members share; the
    /// destination of a clock's first qualifying temporal edge, the
    /// only member a bucket's Rule-1 reason can misdescribe, is
    /// attributed on its own.
    fn attribute_stalls(&mut self) {
        self.ready.stamp += 1;
        self.refresh_gates();
        for b in 0..self.ready.nbuckets {
            if self.ready.buckets[b].len == 0 {
                continue;
            }
            self.probes += 1;
            let reason = self.bucket_reason(b);
            #[cfg(debug_assertions)]
            {
                let mut shadow = std::mem::take(&mut self.shadow);
                for i in self.ready.members(b) {
                    let own = self.stall_reason_at(i);
                    let clock = self.ready.templates[self.ready.tmpl[i] as usize].clock;
                    let exempt = !self.ignore_rule1
                        && clock.is_some_and(|k| self.exempt(k.0 as usize) == Some(i));
                    debug_assert!(
                        exempt || own == reason,
                        "bucket stall reason {reason:?} wrong for {i} ({own:?}) at cycle {}",
                        self.t
                    );
                    // The cycle's last pick found nothing: the linear
                    // scan must agree that nothing could issue.
                    debug_assert!(
                        own != StallReason::Other
                            && (own != StallReason::RegPressure || !self.pending.is_empty()),
                        "{i} could have issued at cycle {} ({own:?})",
                        self.t
                    );
                    log_stall(&mut shadow[i], self.t, 1, own);
                }
                self.shadow = shadow;
            }
            log_stall(&mut self.ready.buckets[b].log, self.t, 1, reason);
        }
        if self.ignore_rule1 {
            return;
        }
        for k in 0..self.gates.len() {
            let Some(d) = self.exempt(k) else {
                continue;
            };
            self.probes += 1;
            let reason = self.stall_reason_at(d);
            self.ready.flush(d, self.t, &mut self.hazard[d]);
            log_stall(&mut self.hazard[d], self.t, 1, reason);
            self.ready.since[d] = self.t + 1;
        }
    }

    /// The stall reason of bucket `b`'s members this cycle (all but an
    /// exempt destination, see [`SchedState::attribute_stalls`]).
    fn bucket_reason(&mut self, b: usize) -> StallReason {
        let (lt, delta) = (self.ready.buckets[b].tmpl, self.ready.buckets[b].delta);
        if let Some(k) = self.ready.templates[lt as usize].clock {
            if let Some(ei) = self.gate_edge(Some(k)) {
                let e = &self.dag.edges[ei];
                return StallReason::Temporal {
                    clock: k,
                    pending_src: e.from,
                    pending_dst: e.to,
                };
            }
        }
        let fits = self.pressure_fits(delta.into());
        self.memo_verdict(lt).reason(fits)
    }

    /// Why ready instruction `i` cannot issue in the current cycle,
    /// mirroring the pick's check order (Rule 1, resources, packing,
    /// pressure); the first failing check is the recorded reason.
    /// Called only at cycle-advance time, when the inner placement
    /// loop has reached a fixpoint, so at least one check fails for
    /// every ready instruction; `Other` is a defensive fallback.
    fn stall_reason_at(&self, i: usize) -> StallReason {
        let tmpl = self.block.insts[i].template;
        if !self.ignore_rule1 {
            if let Some(k) = self.machine.template(tmpl).affects_clock {
                for &ei in &self.open_edges[k.0 as usize] {
                    let e = &self.dag.edges[ei];
                    if e.to != i && self.inst_cycle[e.from] != self.t {
                        return StallReason::Temporal {
                            clock: k,
                            pending_src: e.from,
                            pending_dst: e.to,
                        };
                    }
                }
            }
        }
        self.verdict(tmpl)
            .reason(self.pressure_fits(self.pressure_delta(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::{CodeFunc, ImmVal, Inst, Vreg};
    use crate::dag::build_dag;
    use marion_maril::RegClassId;

    const TOY: &str = r#"
        declare {
            %reg r[0:7] (int);
            %resource IF; ID; IE; IA; IW; MUL;
            %def const16 [-32768:32767];
            %label rlab [-32768:32767] +relative;
            %memory m[0:2147483647];
        }
        cwvm { %general (int) r; %allocable r[1:5]; %sp r[7] +down; %fp r[6] +down; %retaddr r[1]; }
        instr {
            %instr add r, r, r (int) {$1 = $2 + $3;} [IE;] (1,1,0)
            %instr mul r, r, r (int) {$1 = $2 * $3;} [IE; MUL; MUL; MUL;] (1,4,0)
            %instr ld r, r, #const16 (int) {$1 = m[$2+$3];} [IE; IA;] (1,3,0)
            %instr st r, r, #const16 (int) {m[$2+$3] = $1;} [IE; IA;] (1,1,0)
            %instr beq0 r, #rlab {if ($1 == 0) goto $2;} [IE;] (1,2,1)
            %instr nop {} [IE;] (1,1,0)
        }
    "#;

    fn toy() -> Machine {
        Machine::parse("toy", TOY).unwrap()
    }

    fn v(n: u32) -> Operand {
        Operand::Vreg(Vreg(n))
    }

    fn imm(c: i64) -> Operand {
        Operand::Imm(ImmVal::Const(c))
    }

    fn setup(_m: &Machine, insts: Vec<Inst>) -> (CodeFunc, CodeBlock) {
        let mut f = CodeFunc::new("t");
        for _ in 0..20 {
            f.new_vreg(RegClassId(0), VregKind::Local);
        }
        (
            f,
            CodeBlock {
                insts,
                succs: vec![],
            },
        )
    }

    fn inst(m: &Machine, mnem: &str, ops: Vec<Operand>) -> Inst {
        Inst::new(m.template_by_mnemonic(mnem).unwrap(), ops)
    }

    #[test]
    fn fills_load_latency_with_independent_work() {
        let m = toy();
        // ld t1 <- [t0]; add t2 = t1+t1 (dependent, 3 cycles later);
        // add t3 = t4+t5 and add t6 = t7+t8 are independent fillers.
        let insts = vec![
            inst(&m, "ld", vec![v(1), v(0), imm(0)]),
            inst(&m, "add", vec![v(2), v(1), v(1)]),
            inst(&m, "add", vec![v(3), v(4), v(5)]),
            inst(&m, "add", vec![v(6), v(7), v(8)]),
        ];
        let (f, block) = setup(&m, insts);
        let dag = build_dag(&m, &block, true);
        let s = schedule_block(&m, &f, &block, &dag, &SchedOptions::default()).unwrap();
        assert_eq!(s.inst_cycle[0], 0);
        assert_eq!(s.inst_cycle[1], 3, "dependent add waits for the load");
        assert!(
            s.inst_cycle[2] < 3 && s.inst_cycle[3] < 3,
            "fillers moved up: {s:?}"
        );
        assert_eq!(s.length, 4);
    }

    #[test]
    fn structural_hazard_on_multiplier_serialises() {
        let m = toy();
        // Two independent multiplies fight over the MUL resource
        // (cycles 1-3 of each): second can start only when the
        // pipeline stage frees.
        let insts = vec![
            inst(&m, "mul", vec![v(1), v(0), v(0)]),
            inst(&m, "mul", vec![v(2), v(3), v(3)]),
        ];
        let (f, block) = setup(&m, insts);
        let dag = build_dag(&m, &block, true);
        let s = schedule_block(&m, &f, &block, &dag, &SchedOptions::default()).unwrap();
        assert_eq!(s.inst_cycle[0], 0);
        assert_eq!(s.inst_cycle[1], 3, "MUL stays busy cycles 1..=3: {s:?}");
    }

    #[test]
    fn critical_path_priority_orders_long_chain_first() {
        let m = toy();
        // A 3-mul chain and one trivial add. The chain instructions
        // should issue as early as their dependences allow.
        let insts = vec![
            inst(&m, "add", vec![v(9), v(8), v(8)]),
            inst(&m, "mul", vec![v(1), v(0), v(0)]),
            inst(&m, "mul", vec![v(2), v(1), v(1)]),
            inst(&m, "mul", vec![v(3), v(2), v(2)]),
        ];
        let (f, block) = setup(&m, insts);
        let dag = build_dag(&m, &block, true);
        let s = schedule_block(&m, &f, &block, &dag, &SchedOptions::default()).unwrap();
        assert_eq!(s.inst_cycle[1], 0, "chain head first despite thread order");
        assert_eq!(s.inst_cycle[2], 4);
        assert_eq!(s.inst_cycle[3], 8);
    }

    #[test]
    fn branch_scheduled_last_and_slots_counted() {
        let m = toy();
        let insts = vec![
            inst(&m, "add", vec![v(1), v(0), v(0)]),
            inst(
                &m,
                "beq0",
                vec![v(1), Operand::Block(marion_ir::BlockId(0))],
            ),
        ];
        let (f, block) = setup(&m, insts);
        let dag = build_dag(&m, &block, true);
        let s = schedule_block(&m, &f, &block, &dag, &SchedOptions::default()).unwrap();
        assert!(s.inst_cycle[1] >= s.inst_cycle[0]);
        // length includes the branch delay slot.
        assert_eq!(s.length, s.inst_cycle[1] + 2);
    }

    #[test]
    fn register_limit_caps_pressure() {
        let m = toy();
        // Four independent loads, each value consumed later: with a
        // limit of 2 locals the scheduler must interleave def/use.
        let insts = vec![
            inst(&m, "ld", vec![v(1), v(0), imm(0)]),
            inst(&m, "ld", vec![v(2), v(0), imm(4)]),
            inst(&m, "ld", vec![v(3), v(0), imm(8)]),
            inst(&m, "ld", vec![v(4), v(0), imm(12)]),
            inst(&m, "add", vec![v(5), v(1), v(2)]),
            inst(&m, "add", vec![v(6), v(3), v(4)]),
            inst(&m, "add", vec![v(7), v(5), v(6)]),
        ];
        let (f, block) = setup(&m, insts);
        let dag = build_dag(&m, &block, true);
        let unlimited = schedule_block(&m, &f, &block, &dag, &SchedOptions::default()).unwrap();
        let limited = schedule_block(
            &m,
            &f,
            &block,
            &dag,
            &SchedOptions {
                local_reg_limit: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(unlimited.peak_local_pressure > 2);
        assert!(
            limited.peak_local_pressure <= 3,
            "limit roughly respected: {limited:?}"
        );
        assert!(limited.length >= unlimited.length);
    }

    const EAP: &str = r#"
        declare {
            %reg d[0:7] (double);
            %resource RM1; RM2; RFWB; RALU;
            %clock clk_m;
            %reg m1 (double; clk_m) +temporal;
            %reg m2 (double; clk_m) +temporal;
            %element pfmul;
            %element pfall;
            %class mul_ops { pfmul, pfall };
            %class all_ops { pfall };
        }
        cwvm { %general (double) d; }
        instr {
            %instr M1 d, d (double; clk_m) <mul_ops> {m1 = $1 * $2;} [RM1;] (1,1,0)
            %instr M2 (double; clk_m) <mul_ops> {m2 = m1;} [RM2;] (1,1,0)
            %instr FWB d (double; clk_m) <mul_ops> {$1 = m2;} [RFWB;] (1,1,0)
            %instr dadd d, d, d (double) <all_ops> {$1 = $2 + $3;} [RALU;] (1,1,0)
        }
    "#;

    fn eap() -> Machine {
        Machine::parse("eap", EAP).unwrap()
    }

    fn dsetup(m: &Machine, insts: Vec<Inst>) -> (CodeFunc, CodeBlock) {
        let mut f = CodeFunc::new("t");
        for _ in 0..20 {
            f.new_vreg(m.reg_class_by_name("d").unwrap(), VregKind::Local);
        }
        (
            f,
            CodeBlock {
                insts,
                succs: vec![],
            },
        )
    }

    #[test]
    fn temporal_sequence_schedules_in_order() {
        let m = eap();
        let insts = vec![
            inst(&m, "M1", vec![v(0), v(1)]),
            inst(&m, "M2", vec![]),
            inst(&m, "FWB", vec![v(2)]),
        ];
        let (f, block) = dsetup(&m, insts);
        let dag = build_dag(&m, &block, true);
        let s = schedule_block(&m, &f, &block, &dag, &SchedOptions::default()).unwrap();
        assert!(s.inst_cycle[0] < s.inst_cycle[1]);
        assert!(s.inst_cycle[1] < s.inst_cycle[2]);
    }

    #[test]
    fn rule1_packs_second_launch_with_advance() {
        let m = eap();
        // Two independent multiplies: M1a; M2a; FWBa; M1b; M2b; FWBb.
        // Rule 1 forbids M1b before M2a but allows packing with it —
        // their resources (RM1 vs RM2) and classes (mul/mul) permit it.
        let insts = vec![
            inst(&m, "M1", vec![v(0), v(1)]),
            inst(&m, "M2", vec![]),
            inst(&m, "FWB", vec![v(2)]),
            inst(&m, "M1", vec![v(3), v(4)]),
            inst(&m, "M2", vec![]),
            inst(&m, "FWB", vec![v(5)]),
        ];
        let (f, block) = dsetup(&m, insts);
        let dag = build_dag(&m, &block, true);
        let s = schedule_block(&m, &f, &block, &dag, &SchedOptions::default()).unwrap();
        // Second launch must not precede the first advance...
        assert!(
            s.inst_cycle[3] >= s.inst_cycle[1],
            "Rule 1 violated: M1b at {} before M2a at {}",
            s.inst_cycle[3],
            s.inst_cycle[1]
        );
        // ...and overlap should beat full serialisation (≤ 5 cycles
        // for 6 sub-operations rather than 6).
        assert!(
            s.length <= 5,
            "pipelines should overlap, got length {} ({:?})",
            s.length,
            s.cycles
        );
        // All temporal-register hazards respected: every M1->M2 pair
        // advances in order.
        assert!(s.inst_cycle[4] > s.inst_cycle[3]);
        assert!(s.inst_cycle[5] > s.inst_cycle[4]);
    }

    #[test]
    fn class_packing_restriction_enforced() {
        let m = eap();
        // dadd is in class all_ops = {pfall}; M1 is in {pfmul, pfall}.
        // They may pack (intersection {pfall}). Two dadds cannot pack
        // with an M2 issued the same cycle if resources clash — here
        // resources differ, so the class rule is what matters: a word
        // already holding M1+M2 (intersection {pfmul, pfall}) still
        // accepts dadd (∩ = {pfall}).
        let insts = vec![
            inst(&m, "M1", vec![v(0), v(1)]),
            inst(&m, "dadd", vec![v(2), v(3), v(4)]),
        ];
        let (f, block) = dsetup(&m, insts);
        let dag = build_dag(&m, &block, true);
        let s = schedule_block(&m, &f, &block, &dag, &SchedOptions::default()).unwrap();
        assert_eq!(
            s.inst_cycle[0], s.inst_cycle[1],
            "compatible classes pack into one word: {s:?}"
        );
    }

    #[test]
    fn empty_block_schedules_empty() {
        let m = toy();
        let (f, block) = setup(&m, vec![]);
        let dag = build_dag(&m, &block, true);
        let s = schedule_block(&m, &f, &block, &dag, &SchedOptions::default()).unwrap();
        assert_eq!(s.length, 0);
        assert!(s.cycles.is_empty());
    }
}
