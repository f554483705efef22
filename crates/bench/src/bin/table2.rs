//! Table 2 — Marion system source code size (in lines of Rust).
//!
//! The paper buckets its C sources into the code generator generator
//! (CGG), the target- and strategy-independent portion (TSI), the
//! target-dependent portion per machine (TD) and the
//! strategy-dependent portion per strategy (SD). The same
//! decomposition maps onto this repository's crates and modules; the
//! shape to expect is the paper's: TD (per machine) and TSI dominate,
//! RASE > IPS > Postpass among the strategies. The last row counts the
//! whole repository: every crate plus the root `src/`, `tests/` and
//! `examples/`.

use std::fs;
use std::path::{Path, PathBuf};

fn loc(path: &Path) -> usize {
    match fs::read_to_string(path) {
        Ok(text) => text.lines().filter(|l| !l.trim().is_empty()).count(),
        Err(_) => 0,
    }
}

fn loc_dir(dir: &Path) -> usize {
    let mut total = 0;
    if let Ok(entries) = fs::read_dir(dir) {
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                total += loc_dir(&p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                total += loc(&p);
            }
        }
    }
    total
}

/// Lines of the `impl Strategy for X` block in strategy.rs.
fn strategy_impl_lines(src: &str, name: &str) -> usize {
    let marker = format!("impl Strategy for {name}");
    let Some(start) = src.find(&marker) else {
        return 0;
    };
    let mut depth = 0usize;
    let mut lines = 0usize;
    let mut started = false;
    for line in src[start..].lines() {
        lines += 1;
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    started = true;
                }
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        if started && depth == 0 {
            break;
        }
    }
    lines
}

fn main() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    println!("Table 2: Marion system source size (non-blank lines of Rust)");
    println!("(paper, in C: CGG 4991; TSI 10877; TD 5512-8492 per target; SD 151/1269/3750)");
    println!();
    let cgg = loc_dir(&root.join("crates/maril/src"));
    let tsi = loc_dir(&root.join("crates/core/src")) + loc_dir(&root.join("crates/ir/src"));
    println!("{:44} {:>6}", "Code Generator Generator (CGG = maril)", cgg);
    println!("{:44} {:>6}", "Target- and strategy-independent (TSI)", tsi);
    for m in ["toyp", "r2000", "m88k", "i860"] {
        let td = loc(&root.join(format!("crates/machines/src/{m}.rs")));
        println!("{:44} {:>6}", format!("Target-dependent (TD), {m}"), td);
    }
    let strategy_src =
        fs::read_to_string(root.join("crates/core/src/strategy.rs")).unwrap_or_default();
    for s in ["Postpass", "Ips", "Rase"] {
        println!(
            "{:44} {:>6}",
            format!("Strategy-dependent (SD), {s}"),
            strategy_impl_lines(&strategy_src, s)
        );
    }
    println!(
        "{:44} {:>6}",
        "Front end (not counted in TSI, as in the paper)",
        loc_dir(&root.join("crates/frontend/src"))
    );
    println!(
        "{:44} {:>6}",
        "Simulator (the paper used real hardware)",
        loc_dir(&root.join("crates/sim/src"))
    );
    let total: usize = ["crates", "src", "tests", "examples"]
        .iter()
        .map(|d| loc_dir(&root.join(d)))
        .sum();
    println!(
        "{:44} {:>6}",
        "Total: every crate, src/, tests/, examples/", total
    );
}
