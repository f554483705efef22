//! # marion-workloads — the evaluation programs
//!
//! The workloads behind the paper's evaluation, written in the
//! C subset that `marion-frontend` accepts:
//!
//! * [`livermore`] — the first fourteen Livermore Loop kernels
//!   (Table 4 compares estimated and actual execution time per kernel
//!   and strategy);
//! * [`suite`] — stand-ins for the paper's compile-time program suite
//!   (NAS Kernel, SPHOT, ARC2D and the Lcc front end), with a
//!   comparable floating-point-loop / integer-branchy mix (Table 3);
//! * [`gen`] — seeded random program generation for stress and
//!   property testing of the whole tool chain.

pub mod gen;
pub mod livermore;
pub mod multi;
pub mod suite;

/// A runnable benchmark program.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short identifier (e.g. `LL3`, `nasker`).
    pub name: String,
    /// C-subset source; the entry point is `main`, which returns a
    /// scaled integer checksum so results can be compared exactly.
    pub source: String,
    /// What the program exercises.
    pub description: String,
}

impl Workload {
    /// Compiles the workload's source to IR.
    ///
    /// # Panics
    ///
    /// Panics if the bundled source does not compile — covered by
    /// tests.
    pub fn module(&self) -> marion_ir::Module {
        marion_frontend::compile(&self.source)
            .unwrap_or_else(|e| panic!("workload {}: {e}", self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marion_ir::interp::Interp;

    #[test]
    fn all_workloads_compile_and_run_in_the_interpreter() {
        let mut all = livermore::kernels();
        all.extend(suite::programs());
        assert!(all.len() >= 18);
        for w in &all {
            let module = w.module();
            let mut interp = Interp::new(&module, 1 << 22).with_budget(200_000_000);
            let result = interp
                .call_by_name("main", &[])
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(result.is_some(), "{} returns nothing", w.name);
        }
    }

    #[test]
    fn livermore_has_fourteen_kernels() {
        let ks = livermore::kernels();
        assert_eq!(ks.len(), 14);
        for (i, k) in ks.iter().enumerate() {
            assert_eq!(k.name, format!("LL{}", i + 1));
        }
    }
}
