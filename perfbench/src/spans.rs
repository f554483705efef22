//! Spans recorded around the calls into each layer, kept in memory
//! and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Index into the recorder's function names.
    pub func: u32,
    /// Pass (or set-up repetition) the span belongs to.
    pub pass: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-layer totals of one pass: `(self ns, total ns, calls)`.
pub type LayerTimes = BTreeMap<&'static str, (u64, u64, u64)>;

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    funcs: Vec<String>,
    func: u32,
    pass: u32,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder; time starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            funcs: vec![String::new()],
            func: 0,
            pass: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags later spans with a pass number.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Tags later spans with a function (or unit) name.
    pub fn set_func(&mut self, name: String) {
        self.func = self.funcs.len() as u32;
        self.funcs.push(name);
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(ROOT),
            func: self.func,
            pass: self.pass,
        };
        self.spans.push(span);
        self.stack.push(id);
        id
    }

    /// Closes the innermost span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Self time (duration minus the direct children's durations),
    /// total time and call count per layer, for each pass.
    pub fn layer_times(&self) -> BTreeMap<u32, LayerTimes> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<u32, LayerTimes> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.pass).or_default().entry(s.name).or_default();
            e.0 += s.dur_ns().saturating_sub(child);
            e.1 += s.dur_ns();
            e.2 += 1;
        }
        out
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes every span as one JSON line:
    /// `{"name","start_ns","end_ns","parent","func","pass"}`, with
    /// `parent` the line index of the enclosing span (-1 for none).
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"func\":\"{}\",\"pass\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                marion_trace::json::escape(&self.funcs[s.func as usize]),
                s.pass
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new();
        let outer = r.begin("outer");
        r.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.end(outer);
        let t = &r.layer_times()[&0];
        let (outer_self, outer_total, _) = t["outer"];
        let (inner_self, inner_total, calls) = t["inner"];
        assert_eq!(calls, 1);
        assert_eq!(inner_self, inner_total);
        assert_eq!(outer_self + inner_total, outer_total);
    }
}
