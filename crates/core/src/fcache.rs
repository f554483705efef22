//! The function-level compile cache: key derivation and entry codec
//! over `marion-cache`'s storage layer.
//!
//! ## What the key covers
//!
//! A [`CacheKey`] is a stable 128-bit structural hash over everything
//! that can change a function's compiled output:
//!
//! * the complete compiled [`Machine`] description (every template,
//!   resource vector, latency, glue rule and CWVM entry — hashed
//!   directly via [`crate::stablehash::StableHash`], a length-prefixed
//!   field-order-stable structural encoding that is a pure function of
//!   the parsed description and allocates nothing on the probe path);
//! * the [`StrategyKind`];
//! * the cache-relevant [`CompileOptions`] fields:
//!   `fill_delay_slots` and the trace configuration (a traced compile
//!   stores its replayable trace in the entry, so entries recorded
//!   without tracing must never serve a traced compile);
//! * the IR function body *after*
//!   [`crate::driver::materialize_float_constants`], plus the module's
//!   symbol table (cached assembly embeds `SymbolId`s, which are only
//!   meaningful against the same table).
//!
//! Deliberately **excluded**: `jobs` (module-order collection makes
//! output identical at any worker count) and the cache handle itself.
//! Invalidation is therefore automatic: change the machine
//! description, strategy, relevant options or the function body and
//! the key changes; stale entries age out of the LRU.
//!
//! ## What an entry holds
//!
//! The emitted [`AsmFunc`], its [`FuncStats`], and (when compiled
//! under tracing) the function's counters and events — spans are
//! stripped, their timings belong to the run that recorded them. On a
//! hit the driver replays the trace via `Tracer::import`, so warm
//! trace counters equal cold ones.

use crate::driver::{CompileOptions, FuncStats};
use crate::emit::{AsmBlock, AsmFunc, AsmInst, Word};
use crate::stablehash::StableHash;
use crate::strategy::StrategyKind;
use marion_cache::{CacheKey, DiskStore, ShardedCache, StableHasher};
use marion_ir as ir;
use marion_maril::Machine;
use marion_trace::{Record, TraceData};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Entry format version, bumped whenever the payload codec changes so
/// stale disk stores read as corrupt instead of mis-decoding. Public
/// so the serve protocol's `machines` introspection can report it.
pub const FORMAT_VERSION: i64 = 2;

/// One cached compiled function.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedFunc {
    /// The emitted assembly.
    pub asm: AsmFunc,
    /// Its per-function statistics.
    pub stats: FuncStats,
    /// Counters and events recorded while compiling it (no spans);
    /// `None` when the cold compile ran untraced.
    pub trace: Option<TraceData>,
}

/// Per-`compile_module` cache accounting, surfaced as
/// [`crate::CompiledProgram::cache`]. Kept out of `CompileStats` so
/// warm and cold statistics stay byte-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSummary {
    /// Functions served from the cache.
    pub hits: u64,
    /// Functions compiled cold (and inserted).
    pub misses: u64,
    /// Entries evicted to make room during this compile.
    pub evictions: u64,
}

/// Shared tally the driver threads update while compiling one module.
#[derive(Default)]
pub(crate) struct CacheTally {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CacheTally {
    pub(crate) fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn evict(&self, n: u64) {
        self.evictions.fetch_add(n, Ordering::Relaxed);
    }
    pub(crate) fn summary(&self) -> CacheSummary {
        CacheSummary {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// What loading a disk store found.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheLoad {
    /// Entries restored into the in-memory cache.
    pub loaded: usize,
    /// Lines rejected (bad JSON, bad checksum, or undecodable
    /// payload) — these will be recompiled, never served.
    pub corrupt: usize,
}

/// The content-addressed compile cache shared by one or more
/// [`crate::Compiler`]s (the key embeds machine and strategy, so a
/// single cache safely serves many compilers). In-memory sharded LRU,
/// optionally written through to an append-only checksummed JSONL
/// store.
pub struct FuncCache {
    mem: ShardedCache<CachedFunc>,
    disk: Option<DiskStore>,
    /// What opening the disk store found; `None` for in-memory caches.
    disk_load: Option<CacheLoad>,
}

impl std::fmt::Debug for FuncCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FuncCache")
            .field("entries", &self.mem.len())
            .field("stats", &self.mem.stats())
            .field("disk", &self.disk.as_ref().map(|d| d.path().to_path_buf()))
            .finish()
    }
}

impl FuncCache {
    /// An in-memory cache holding at most `capacity` functions.
    pub fn in_memory(capacity: usize) -> FuncCache {
        FuncCache {
            mem: ShardedCache::new(capacity),
            disk: None,
            disk_load: None,
        }
    }

    /// A write-through cache backed by the JSONL store at `path`;
    /// existing verified entries are loaded into memory (later
    /// duplicates win), corrupt ones counted and skipped.
    ///
    /// # Errors
    ///
    /// I/O failures opening or reading the store file.
    pub fn with_disk(
        capacity: usize,
        path: impl AsRef<Path>,
    ) -> io::Result<(FuncCache, CacheLoad)> {
        let (disk, found) = DiskStore::open(path)?;
        let mem = ShardedCache::new(capacity);
        let mut load = CacheLoad {
            loaded: 0,
            corrupt: found.corrupt,
        };
        for (key, payload) in &found.entries {
            match decode_entry(payload) {
                Some(entry) => {
                    mem.insert(*key, entry);
                    load.loaded += 1;
                }
                None => load.corrupt += 1,
            }
        }
        Ok((
            FuncCache {
                mem,
                disk: Some(disk),
                disk_load: Some(load),
            },
            load,
        ))
    }

    /// What opening the disk store found (loaded and corrupt line
    /// counts); `None` when the cache is purely in-memory. Operators
    /// watch the corrupt count to spot store rot without a restart.
    pub fn disk_load(&self) -> Option<CacheLoad> {
        self.disk_load
    }

    /// Looks up a compiled function.
    pub fn get(&self, key: CacheKey) -> Option<CachedFunc> {
        self.mem.get(key)
    }

    /// Stores a compiled function (write-through when disk-backed);
    /// returns how many entries were evicted.
    pub fn insert(&self, key: CacheKey, entry: CachedFunc) -> usize {
        if let Some(disk) = &self.disk {
            // A failed append degrades to in-memory caching; the disk
            // store is an optimisation, not a correctness dependency.
            let _ = disk.append(key, &encode_entry(&entry));
        }
        self.mem.insert(key, entry)
    }

    /// Lifetime hit/miss/eviction counters.
    pub fn stats(&self) -> marion_cache::CacheStats {
        self.mem.stats()
    }

    /// Functions currently resident in memory.
    pub fn len(&self) -> usize {
        self.mem.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.mem.is_empty()
    }
}

/// Hashes everything request-invariant: the machine description, the
/// strategy, and the cache-relevant options. Computed once per
/// `compile_module`; per-function keys clone and extend it.
pub fn base_fingerprint(
    machine: &Machine,
    strategy: StrategyKind,
    options: &CompileOptions,
) -> StableHasher {
    let mut h = StableHasher::new();
    h.write_i64(FORMAT_VERSION);
    // `Machine` is a pure value compiled from the description source;
    // its `StableHash` impl feeds every codegen-relevant table
    // (templates, semantics, resources, latencies, glue, CWVM)
    // straight into the hasher — no string render, no allocation.
    machine.stable_hash(&mut h);
    h.write_str(strategy.name());
    h.write_u64(options.fill_delay_slots as u64);
    match &options.trace {
        None => h.write_u64(0),
        Some(config) => {
            h.write_u64(1);
            h.write_u64(config.reservation_tables as u64);
            h.write_u64(config.explanations as u64);
        }
    }
    h
}

/// Extends a [`base_fingerprint`] with one function's body and the
/// module's symbol table, yielding the entry's address.
pub fn func_key(base: &StableHasher, module: &ir::Module, func: &ir::Function) -> CacheKey {
    let mut h = base.clone();
    // The function body: blocks, statements, node forest, types,
    // locals — `Function`'s `StableHash` impl covers all of it
    // structurally (and float constants were already materialised
    // into globals, so `ConstF` hashes by IEEE bit pattern anyway).
    func.stable_hash(&mut h);
    // Symbol ids embedded in the body and in the cached assembly are
    // indices into this table; the mapping is part of the content.
    h.write_u64(module.symbol_count() as u64);
    for i in 0..module.symbol_count() {
        h.write_str(module.symbol_name(ir::SymbolId(i as u32)));
    }
    h.finish()
}

/// Drops spans and profile rows from a recorded trace: their
/// wall-clock timings belong to the run that recorded them and must
/// not replay into later compiles.
pub(crate) fn strip_spans(data: &TraceData) -> TraceData {
    TraceData {
        records: data
            .records
            .iter()
            .filter(|r| !matches!(r, Record::Span { .. } | Record::Prof { .. }))
            .cloned()
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Entry codec: one flat JSON object (the workspace dialect — scalar
// values only) with the assembly in a compact positional text form.
// ---------------------------------------------------------------------

fn encode_operand(out: &mut String, op: &crate::code::Operand) {
    use crate::code::{ImmVal, Operand};
    use std::fmt::Write as _;
    match op {
        Operand::Phys(p) => {
            let _ = write!(out, "P{}.{}", p.class.0, p.index);
        }
        Operand::Imm(ImmVal::Const(v)) => {
            let _ = write!(out, "C{v}");
        }
        Operand::Imm(ImmVal::Sym(s, a)) => {
            let _ = write!(out, "S{}.{a}", s.0);
        }
        Operand::Imm(ImmVal::SymHigh(s, a)) => {
            let _ = write!(out, "H{}.{a}", s.0);
        }
        Operand::Imm(ImmVal::SymLow(s, a)) => {
            let _ = write!(out, "L{}.{a}", s.0);
        }
        Operand::Block(b) => {
            let _ = write!(out, "B{}", b.0);
        }
        Operand::Func(s) => {
            let _ = write!(out, "F{}", s.0);
        }
        Operand::Vreg(v) => {
            let _ = write!(out, "V{}", v.0);
        }
        Operand::VregHalf(v, h) => {
            let _ = write!(out, "U{}.{h}", v.0);
        }
    }
}

fn decode_operand(text: &str) -> Option<crate::code::Operand> {
    use crate::code::{ImmVal, Operand, Vreg};
    use marion_ir::{BlockId, SymbolId};
    use marion_maril::{PhysReg, RegClassId};
    let (tag, rest) = text.split_at(1);
    let pair = |rest: &str| -> Option<(u32, i64)> {
        let (a, b) = rest.split_once('.')?;
        Some((a.parse().ok()?, b.parse().ok()?))
    };
    Some(match tag {
        "P" => {
            let (class, index) = pair(rest)?;
            Operand::Phys(PhysReg {
                class: RegClassId(class),
                index: u32::try_from(index).ok()?,
            })
        }
        "C" => Operand::Imm(ImmVal::Const(rest.parse().ok()?)),
        "S" => {
            let (s, a) = pair(rest)?;
            Operand::Imm(ImmVal::Sym(SymbolId(s), a))
        }
        "H" => {
            let (s, a) = pair(rest)?;
            Operand::Imm(ImmVal::SymHigh(SymbolId(s), a))
        }
        "L" => {
            let (s, a) = pair(rest)?;
            Operand::Imm(ImmVal::SymLow(SymbolId(s), a))
        }
        "B" => Operand::Block(BlockId(rest.parse().ok()?)),
        "F" => Operand::Func(SymbolId(rest.parse().ok()?)),
        "V" => Operand::Vreg(Vreg(rest.parse().ok()?)),
        "U" => {
            let (v, h) = pair(rest)?;
            Operand::VregHalf(Vreg(v), u8::try_from(h).ok()?)
        }
        _ => return None,
    })
}

/// Compact positional text for a function's blocks: blocks joined by
/// `|`, each `est_cycles@words`; words joined by `;`, sub-operations
/// by `+`; each instruction `template:op,op,...`.
fn encode_blocks(blocks: &[AsmBlock]) -> String {
    let mut out = String::new();
    for (bi, block) in blocks.iter().enumerate() {
        if bi > 0 {
            out.push('|');
        }
        out.push_str(&block.est_cycles.to_string());
        out.push('@');
        for (wi, word) in block.words.iter().enumerate() {
            if wi > 0 {
                out.push(';');
            }
            for (ii, inst) in word.insts.iter().enumerate() {
                if ii > 0 {
                    out.push('+');
                }
                out.push_str(&inst.template.0.to_string());
                out.push(':');
                for (oi, op) in inst.ops.iter().enumerate() {
                    if oi > 0 {
                        out.push(',');
                    }
                    encode_operand(&mut out, op);
                }
            }
        }
    }
    out
}

fn decode_blocks(text: &str) -> Option<Vec<AsmBlock>> {
    use marion_maril::TemplateId;
    if text.is_empty() {
        return Some(Vec::new());
    }
    let mut blocks = Vec::new();
    for btext in text.split('|') {
        let (est, words_text) = btext.split_once('@')?;
        let mut block = AsmBlock {
            words: Vec::new(),
            est_cycles: est.parse().ok()?,
        };
        if !words_text.is_empty() {
            for wtext in words_text.split(';') {
                let mut word = Word::default();
                if !wtext.is_empty() {
                    for itext in wtext.split('+') {
                        let (template, ops_text) = itext.split_once(':')?;
                        let mut inst = AsmInst {
                            template: TemplateId(template.parse().ok()?),
                            ops: Vec::new(),
                        };
                        if !ops_text.is_empty() {
                            for otext in ops_text.split(',') {
                                inst.ops.push(decode_operand(otext)?);
                            }
                        }
                        word.insts.push(inst);
                    }
                }
                block.words.push(word);
            }
        }
        blocks.push(block);
    }
    Some(blocks)
}

/// Compact positional text for per-block schedule quality: blocks
/// joined by `|`, each block the eleven counters of
/// [`crate::quality::BlockQuality`] joined by `,` (estimate, critical
/// path, issue slots, issue cycles, then the seven stall buckets in
/// [`crate::quality::STALL_KEYS`] order).
fn encode_quality(blocks: &[crate::quality::BlockQuality]) -> String {
    blocks
        .iter()
        .map(|b| {
            let s = &b.stalls;
            format!(
                "{},{},{},{},{},{},{},{},{},{},{}",
                b.est_cycles,
                b.critical_path_cycles,
                b.issue_slots_used,
                b.issue_cycles,
                s.dependence,
                s.resource,
                s.class,
                s.temporal,
                s.pressure,
                s.order,
                s.other
            )
        })
        .collect::<Vec<_>>()
        .join("|")
}

fn decode_quality(text: &str) -> Option<Vec<crate::quality::BlockQuality>> {
    if text.is_empty() {
        return Some(Vec::new());
    }
    let mut out = Vec::new();
    for btext in text.split('|') {
        let mut it = btext.split(',');
        let mut next_u32 = || -> Option<u32> { it.next()?.parse().ok() };
        let mut b = crate::quality::BlockQuality {
            est_cycles: next_u32()?,
            critical_path_cycles: next_u32()?,
            issue_slots_used: next_u32()?,
            issue_cycles: next_u32()?,
            ..Default::default()
        };
        let mut next_u64 = || -> Option<u64> { it.next()?.parse().ok() };
        b.stalls.dependence = next_u64()?;
        b.stalls.resource = next_u64()?;
        b.stalls.class = next_u64()?;
        b.stalls.temporal = next_u64()?;
        b.stalls.pressure = next_u64()?;
        b.stalls.order = next_u64()?;
        b.stalls.other = next_u64()?;
        if it.next().is_some() {
            return None;
        }
        out.push(b);
    }
    Some(out)
}

/// Serialises an entry as one flat JSON line (the disk payload).
pub fn encode_entry(entry: &CachedFunc) -> String {
    let mut obj = marion_trace::json::ObjWriter::new();
    obj.int("v", FORMAT_VERSION);
    obj.str("name", &entry.asm.name);
    obj.int("frame_size", entry.asm.frame_size as i64);
    obj.str("blocks", &encode_blocks(&entry.asm.blocks));
    obj.int("insts_generated", entry.stats.insts_generated as i64);
    obj.int("spills", entry.stats.spills as i64);
    obj.int("schedule_passes", entry.stats.schedule_passes as i64);
    obj.int("estimated_cycles", entry.stats.estimated_cycles as i64);
    obj.int("delay_slots_filled", entry.stats.delay_slots_filled as i64);
    obj.int("nops_emitted", entry.stats.nops_emitted as i64);
    obj.str("quality", &encode_quality(&entry.stats.blocks));
    if let Some(trace) = &entry.trace {
        obj.str("trace", &trace.to_jsonl());
    }
    obj.finish()
}

/// Parses [`encode_entry`]'s form. `None` on any malformation — the
/// caller treats the entry as corrupt and recompiles.
pub fn decode_entry(payload: &str) -> Option<CachedFunc> {
    let fields = marion_trace::json::parse_flat(payload).ok()?;
    let get_int = |name: &str| -> Option<i64> {
        fields
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_int())
    };
    let get_str = |name: &str| -> Option<&str> {
        fields
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_str())
    };
    if get_int("v")? != FORMAT_VERSION {
        return None;
    }
    let name = get_str("name")?.to_string();
    let usize_of = |v: i64| usize::try_from(v).ok();
    let stats = FuncStats {
        name: name.clone(),
        insts_generated: usize_of(get_int("insts_generated")?)?,
        spills: usize_of(get_int("spills")?)?,
        schedule_passes: usize_of(get_int("schedule_passes")?)?,
        estimated_cycles: u64::try_from(get_int("estimated_cycles")?).ok()?,
        delay_slots_filled: usize_of(get_int("delay_slots_filled")?)?,
        nops_emitted: usize_of(get_int("nops_emitted")?)?,
        blocks: decode_quality(get_str("quality")?)?,
    };
    let asm = AsmFunc {
        name,
        blocks: decode_blocks(get_str("blocks")?)?,
        frame_size: u32::try_from(get_int("frame_size")?).ok()?,
    };
    let trace = match get_str("trace") {
        Some(text) => Some(TraceData::parse_jsonl(text).ok()?),
        None => None,
    };
    Some(CachedFunc { asm, stats, trace })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::{ImmVal, Operand, Vreg};
    use marion_ir::{BlockId, SymbolId};
    use marion_maril::{PhysReg, RegClassId, TemplateId};

    fn sample_entry() -> CachedFunc {
        let inst = |t: u32, ops: Vec<Operand>| AsmInst {
            template: TemplateId(t),
            ops,
        };
        let phys = |c: u32, i: u32| {
            Operand::Phys(PhysReg {
                class: RegClassId(c),
                index: i,
            })
        };
        let asm = AsmFunc {
            name: "llk_main".into(),
            frame_size: 48,
            blocks: vec![
                AsmBlock {
                    est_cycles: 7,
                    words: vec![
                        Word {
                            insts: vec![inst(3, vec![phys(0, 2), Operand::Imm(ImmVal::Const(-8))])],
                        },
                        Word {
                            insts: vec![
                                inst(
                                    9,
                                    vec![phys(1, 0), Operand::Imm(ImmVal::Sym(SymbolId(4), 12))],
                                ),
                                inst(2, vec![Operand::Block(BlockId(3))]),
                            ],
                        },
                    ],
                },
                AsmBlock {
                    est_cycles: 1,
                    words: vec![Word {
                        insts: vec![inst(
                            11,
                            vec![
                                Operand::Func(SymbolId(2)),
                                Operand::Imm(ImmVal::SymHigh(SymbolId(1), -4)),
                                Operand::Imm(ImmVal::SymLow(SymbolId(1), -4)),
                                Operand::Vreg(Vreg(17)),
                                Operand::VregHalf(Vreg(5), 1),
                            ],
                        )],
                    }],
                },
            ],
        };
        let stats = FuncStats {
            name: "llk_main".into(),
            insts_generated: 4,
            spills: 1,
            schedule_passes: 2,
            estimated_cycles: 8,
            delay_slots_filled: 1,
            nops_emitted: 0,
            blocks: vec![
                crate::quality::BlockQuality {
                    est_cycles: 7,
                    critical_path_cycles: 5,
                    issue_slots_used: 3,
                    issue_cycles: 2,
                    stalls: {
                        let mut s = crate::quality::StallBreakdown::default();
                        s.add("dependence", 2);
                        s.add("resource", 1);
                        s
                    },
                },
                crate::quality::BlockQuality {
                    est_cycles: 1,
                    critical_path_cycles: 1,
                    issue_slots_used: 1,
                    issue_cycles: 1,
                    stalls: crate::quality::StallBreakdown::default(),
                },
            ],
        };
        let trace = {
            let t = marion_trace::Tracer::new(marion_trace::TraceConfig::default());
            t.add("m/llk_main", "insts_generated", 4);
            t.event(
                "m/llk_main/b0",
                "delay_slot_fill",
                &[("inst", marion_trace::Value::from("add r1, r2"))],
            );
            t.finish()
        };
        CachedFunc { asm, stats, trace }
    }

    #[test]
    fn entry_codec_round_trips() {
        let entry = sample_entry();
        let decoded = decode_entry(&encode_entry(&entry)).expect("decodes");
        assert_eq!(decoded, entry);
        // Untraced entries round-trip too.
        let untraced = CachedFunc {
            trace: None,
            ..entry
        };
        assert_eq!(
            decode_entry(&encode_entry(&untraced)).expect("decodes"),
            untraced
        );
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let good = encode_entry(&sample_entry());
        assert!(decode_entry("").is_none());
        assert!(decode_entry("{}").is_none());
        assert!(decode_entry(&good.replace("\"v\":2", "\"v\":999")).is_none());
        // A mangled quality payload reads as corrupt, not as zeros.
        assert!(
            decode_entry(&good.replacen("\"quality\":\"7,5", "\"quality\":\"x,5", 1)).is_none()
        );
        assert!(decode_entry(&good.replacen("P0.2", "Q0.2", 1)).is_none());
        assert!(
            decode_entry(&good.replacen("\"frame_size\":48", "\"frame_size\":-1", 1)).is_none()
        );
    }

    #[test]
    fn empty_function_encodes() {
        let entry = CachedFunc {
            asm: AsmFunc {
                name: "f".into(),
                blocks: Vec::new(),
                frame_size: 0,
            },
            stats: FuncStats {
                name: "f".into(),
                ..FuncStats::default()
            },
            trace: None,
        };
        assert_eq!(decode_entry(&encode_entry(&entry)).unwrap(), entry);
    }
}
