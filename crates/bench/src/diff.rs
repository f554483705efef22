//! `marion-bench diff` — the cycle-regression comparator.
//!
//! Compares two `BENCH_quality.json` files (the baseline committed to
//! the repo and a fresh sweep) metric by metric. The bench files nest
//! (`runs[]` arrays of per-run objects), which the trace crate's
//! flat-object parser refuses by design, so this module carries its
//! own small recursive JSON reader — still zero dependencies.
//!
//! Only `*_cycles` values are gated. The simulator is deterministic,
//! so any growth in one is a regression: there is no tolerance.
//! Everything else (stall columns, drift, spill counts…) is context,
//! never gated. Array elements are matched by their string-valued
//! identity fields (`machine`, `strategy`, `workload`…), so
//! reordering runs between files is not a diff, and a regression is
//! reported by the path of the kernel that moved.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Concatenated string-valued fields: the identity of one `runs[]`
    /// element (machine/workload/strategy and the like).
    fn identity(&self) -> String {
        match self {
            Json::Obj(fields) => {
                let mut parts: Vec<&str> = fields
                    .iter()
                    .filter_map(|(_, v)| match v {
                        Json::Str(s) => Some(s.as_str()),
                        _ => None,
                    })
                    .collect();
                if parts.is_empty() {
                    parts.push("");
                }
                parts.join("/")
            }
            _ => String::new(),
        }
    }
}

/// Parses a complete JSON document (any nesting).
///
/// # Errors
///
/// Describes the first syntax error with its byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = P {
        b: text.as_bytes(),
        i: 0,
    };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(v)
}

struct P<'a> {
    b: &'a [u8],
    i: usize,
}

impl P<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        match self.peek() {
            Some(c) if c == want => {
                self.i += 1;
                Ok(())
            }
            other => Err(format!(
                "expected {:?} at offset {}, got {other:?}",
                want as char, self.i
            )),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.i)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            fields.push((key, self.value()?));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                self.i += 1;
                                let d = self.peek().ok_or("truncated \\u escape")?;
                                code =
                                    code * 16 + (d as char).to_digit(16).ok_or("bad hex digit")?;
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.i += 1;
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.i += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the whole sequence.
                    let start = self.i;
                    let s = std::str::from_utf8(&self.b[start..])
                        .map_err(|_| "invalid utf-8 in string")?;
                    let c = s.chars().next().ok_or("truncated utf-8")?;
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?}"))
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("expected {word:?} at offset {}", self.i))
        }
    }
}

/// Gated metrics: simulated or estimated schedule lengths.
fn gated(key: &str) -> bool {
    key.ends_with("_cycles")
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Slash-joined location (`runs/r2000/IPS/LL3/sim_cycles`).
    pub path: String,
    pub old: f64,
    pub new: f64,
    /// Signed percent change, `(new − old) / old × 100`.
    pub pct: f64,
    /// `new > old`.
    pub regressed: bool,
}

/// The full comparison result.
#[derive(Debug, Default)]
pub struct Report {
    pub deltas: Vec<Delta>,
    /// Structural mismatches: keys or runs present on one side only.
    pub warnings: Vec<String>,
}

impl Report {
    pub fn regressions(&self) -> Vec<&Delta> {
        self.deltas.iter().filter(|d| d.regressed).collect()
    }

    /// Human-readable rendering: every gated metric with its delta,
    /// regressions flagged, warnings at the end.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{} metric(s) compared", self.deltas.len());
        for d in &self.deltas {
            let flag = if d.regressed {
                "REGRESSED"
            } else if d.pct.abs() < f64::EPSILON {
                "="
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "  {:9} {}: {} -> {} ({:+.1}%)",
                flag, d.path, d.old, d.new, d.pct
            );
        }
        for w in &self.warnings {
            let _ = writeln!(out, "  warning: {w}");
        }
        let n = self.regressions().len();
        if n > 0 {
            let _ = writeln!(out, "{n} regression(s)");
        } else {
            let _ = writeln!(out, "no regressions");
        }
        out
    }
}

/// Compares two parsed bench documents.
pub fn compare(old: &Json, new: &Json) -> Report {
    let mut report = Report::default();
    walk(old, new, "", &mut report);
    report
}

fn walk(old: &Json, new: &Json, path: &str, report: &mut Report) {
    match (old, new) {
        (Json::Obj(of), Json::Obj(_)) => {
            for (key, ov) in of {
                let sub = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}/{key}")
                };
                match new.get(key) {
                    Some(nv) => walk(ov, nv, &sub, report),
                    None => report.warnings.push(format!("{sub}: missing in NEW")),
                }
            }
            if let Json::Obj(nf) = new {
                for (key, _) in nf {
                    if old.get(key).is_none() {
                        report
                            .warnings
                            .push(format!("{path}/{key}: missing in OLD"));
                    }
                }
            }
        }
        (Json::Arr(oa), Json::Arr(na)) => {
            for ov in oa {
                let id = ov.identity();
                let sub = if id.is_empty() {
                    path.to_string()
                } else {
                    format!("{path}/{id}")
                };
                match na.iter().find(|nv| nv.identity() == id) {
                    Some(nv) => walk(ov, nv, &sub, report),
                    None => report.warnings.push(format!("{sub}: run missing in NEW")),
                }
            }
            for nv in na {
                let id = nv.identity();
                if !oa.iter().any(|ov| ov.identity() == id) {
                    report
                        .warnings
                        .push(format!("{path}/{id}: run missing in OLD"));
                }
            }
        }
        (Json::Num(o), Json::Num(n)) => {
            let key = path.rsplit('/').next().unwrap_or(path);
            if !gated(key) {
                return;
            }
            let pct = if *o != 0.0 {
                (n - o) / o * 100.0
            } else if *n == 0.0 {
                0.0
            } else {
                100.0
            };
            report.deltas.push(Delta {
                path: path.to_string(),
                old: *o,
                new: *n,
                pct,
                regressed: n > o,
            });
        }
        // Strings/bools/nulls are identity context; a changed machine
        // list or strategy label is a warning, not a cycle delta.
        (o, n) if o != n => report
            .warnings
            .push(format!("{path}: value changed between files")),
        _ => {}
    }
}

/// Parses and compares two bench documents; the string is the printed
/// report. Exit-code contract: `Ok((report, 0))` when no cycle count
/// grew, `Ok((report, 1))` when any did.
///
/// # Errors
///
/// Unparseable input (the caller exits 2).
pub fn run_diff(old_text: &str, new_text: &str) -> Result<(String, i32), String> {
    let old = parse(old_text).map_err(|e| format!("OLD: {e}"))?;
    let new = parse(new_text).map_err(|e| format!("NEW: {e}"))?;
    let report = compare(&old, &new);
    let code = if report.regressions().is_empty() {
        0
    } else {
        1
    };
    Ok((report.render(), code))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
      "bench": "quality",
      "runs": [
        {"machine": "r2000", "strategy": "RASE", "workload": "LL3",
         "sim_cycles": 1000, "est_cycles": 900, "critical_path": 700,
         "stall_total": 40, "drift_pct": 11.11},
        {"machine": "i860", "strategy": "RASE", "workload": "LL3",
         "sim_cycles": 2000, "est_cycles": 1900, "critical_path": 1500,
         "stall_total": 80, "drift_pct": 5.26}
      ]
    }"#;

    #[test]
    fn identical_files_exit_zero() {
        let (report, code) = run_diff(BASE, BASE).unwrap();
        assert_eq!(code, 0);
        assert!(report.contains("4 metric(s) compared"), "{report}");
        assert!(report.contains("no regressions"));
    }

    #[test]
    fn cycle_counts_gate_higher_is_worse() {
        // One extra simulated cycle is a regression, named by path.
        let worse = BASE.replace("\"sim_cycles\": 1000", "\"sim_cycles\": 1001");
        let (report, code) = run_diff(BASE, &worse).unwrap();
        assert_eq!(code, 1, "{report}");
        assert!(
            report.contains("REGRESSED runs/r2000/RASE/LL3/sim_cycles"),
            "{report}"
        );
        // Non-cycle quality columns never gate.
        let noisy = BASE
            .replace("\"stall_total\": 40", "\"stall_total\": 90")
            .replace("\"drift_pct\": 11.11", "\"drift_pct\": 44.44")
            .replace("\"critical_path\": 700", "\"critical_path\": 800");
        let (report, code) = run_diff(BASE, &noisy).unwrap();
        assert_eq!(code, 0, "{report}");
        // A cycle improvement passes.
        let better = BASE.replace("\"est_cycles\": 900", "\"est_cycles\": 850");
        let (_, code) = run_diff(BASE, &better).unwrap();
        assert_eq!(code, 0);
    }

    #[test]
    fn runs_match_by_identity_not_order() {
        let old = parse(BASE).unwrap();
        let swapped = r#"{
          "bench": "quality",
          "runs": [
            {"machine": "i860", "strategy": "RASE", "workload": "LL3",
             "sim_cycles": 2000, "est_cycles": 1900, "critical_path": 1500,
             "stall_total": 80, "drift_pct": 5.26},
            {"machine": "r2000", "strategy": "RASE", "workload": "LL3",
             "sim_cycles": 1000, "est_cycles": 900, "critical_path": 700,
             "stall_total": 40, "drift_pct": 11.11}
          ]
        }"#;
        let new = parse(swapped).unwrap();
        let report = compare(&old, &new);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        assert!(report.regressions().is_empty());
    }

    #[test]
    fn missing_runs_and_keys_warn() {
        let old = parse(BASE).unwrap();
        let trimmed = r#"{
          "bench": "quality",
          "runs": [
            {"machine": "r2000", "strategy": "RASE", "workload": "LL3",
             "sim_cycles": 1000, "critical_path": 700,
             "stall_total": 40, "drift_pct": 11.11}
          ]
        }"#;
        let new = parse(trimmed).unwrap();
        let report = compare(&old, &new);
        assert!(report
            .warnings
            .iter()
            .any(|w| w.contains("i860/RASE/LL3") && w.contains("missing in NEW")));
        assert!(report
            .warnings
            .iter()
            .any(|w| w.contains("est_cycles") && w.contains("missing in NEW")));
    }

    #[test]
    fn malformed_input_is_an_error() {
        assert!(run_diff("{", BASE).is_err());
        assert!(run_diff(BASE, "[1,").is_err());
        assert!(parse("{\"a\":1} junk").is_err());
    }

    #[test]
    fn parser_handles_nesting_and_escapes() {
        let v = parse(r#"{"a":[1,2,{"b":"x\ny"}],"c":null,"d":true}"#).unwrap();
        let Json::Obj(fields) = &v else { panic!() };
        assert_eq!(fields.len(), 3);
        assert_eq!(v.get("d"), Some(&Json::Bool(true)));
    }
}
