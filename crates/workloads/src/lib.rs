//! # lf-workloads — synthetic SPEC-analog benchmark kernels
//!
//! The paper evaluates LoopFrog on SPEC CPU 2006 and CPU 2017; those
//! binaries cannot ship with this reproduction, so this crate provides a
//! suite of synthetic kernels, each mirroring the *loop structure and
//! bottleneck class* of a named SPEC benchmark (see each kernel's
//! `spec_analog`). Kernels are built hint-free; the `lf-compiler` pass adds
//! hints, exactly as the paper's LLVM pass annotates source loops.
//!
//! Every kernel carries the bottleneck [`Category`] the paper's §6.4
//! analysis attributes speedups to, so Table 2 can be regenerated.
//!
//! # Examples
//!
//! ```
//! use lf_workloads::{all, Scale};
//!
//! let suite = all(Scale::Smoke);
//! assert!(suite.len() >= 20);
//! let w = suite.iter().find(|w| w.name == "stencil_blur").unwrap();
//! assert_eq!(w.spec_analog, "538.imagick_r");
//! let result = w.run_reference().unwrap();
//! assert!(result.insts > 1_000);
//! ```

#![warn(missing_docs)]

pub mod gen;
mod kernels;

use lf_isa::{Emulator, ExecResult, Memory, Program};

/// Which SPEC suite a kernel stands in for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// SPEC CPU 2006 analog.
    Cpu2006,
    /// SPEC CPU 2017 analog.
    Cpu2017,
}

/// The dominant bottleneck class of a kernel (paper §6.4, Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// True parallelism: memory-level parallelism across iterations.
    MemParallelism,
    /// True parallelism: cutting control dependencies.
    ControlDep,
    /// True parallelism: cutting long dependency chains.
    DepChains,
    /// Prefetching side effects: faster branch-condition computation.
    BranchPrefetch,
    /// Prefetching side effects: data value delivery.
    DataPrefetch,
    /// Not expected to speed up (serial, low-trip, saturated, or oversized
    /// loops; paper §6.4.3).
    NoSpeedup,
}

/// Simulation scale: how much dynamic work each kernel performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small inputs for unit/integration tests (tens of thousands of
    /// dynamic instructions).
    Smoke,
    /// Evaluation inputs for the benchmark harness (hundreds of thousands
    /// of dynamic instructions; run in release builds).
    Eval,
    /// Full campaign inputs (millions of dynamic instructions per kernel):
    /// the scale the tiered simulation path exists for. Detailed-only runs
    /// at this scale are slow by design; use `--tier sampled`.
    Full,
}

impl Scale {
    /// Picks an element count by scale. `Full` derives its count from the
    /// eval count so kernels need only specify two sizes.
    pub fn elems(self, smoke: usize, eval: usize) -> usize {
        match self {
            Scale::Smoke => smoke,
            Scale::Eval => eval,
            Scale::Full => eval * 8,
        }
    }
}

/// A benchmark kernel: a hint-free program plus its input memory image.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Kernel name (stable identifier).
    pub name: &'static str,
    /// Which suite the analog belongs to.
    pub suite: Suite,
    /// The SPEC benchmark whose hot-loop structure this kernel mirrors.
    pub spec_analog: &'static str,
    /// Expected dominant speedup/bottleneck category.
    pub category: Category,
    /// One-line description of the loop structure.
    pub description: &'static str,
    /// Whether the mirrored source loop sits inside an OpenMP parallel
    /// region in the original benchmark (paper §6.7 generality analysis).
    pub in_openmp_region: bool,
    /// The scale this instance was built at (part of a run's identity for
    /// the experiment engine's deduplication fingerprints).
    pub scale: Scale,
    /// The kernel program, without hints.
    pub program: Program,
    /// Initial memory image.
    pub mem: Memory,
}

impl Workload {
    /// Runs the kernel on the golden emulator, returning its result.
    ///
    /// # Errors
    ///
    /// Returns [`lf_isa::EmuError`] if the kernel faults (a kernel bug).
    pub fn run_reference(&self) -> Result<ExecResult, lf_isa::EmuError> {
        let mut emu = Emulator::new(&self.program, self.mem.clone());
        emu.run(200_000_000)
    }

    /// Runs the reference emulator to completion and returns it (for
    /// profiles and final state).
    ///
    /// # Errors
    ///
    /// Returns [`lf_isa::EmuError`] if the kernel faults.
    pub fn reference_emulator(&self) -> Result<Emulator<'_>, lf_isa::EmuError> {
        let mut emu = Emulator::new(&self.program, self.mem.clone());
        emu.run(200_000_000)?;
        Ok(emu)
    }
}

/// Builds the full suite at the given scale.
pub fn all(scale: Scale) -> Vec<Workload> {
    kernels::all(scale)
}

/// Builds a single kernel by name.
pub fn by_name(name: &str, scale: Scale) -> Option<Workload> {
    all(scale).into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_halts_and_is_deterministic() {
        for w in all(Scale::Smoke) {
            let r1 = w.run_reference().unwrap_or_else(|e| panic!("{} faulted: {e}", w.name));
            assert_eq!(r1.stop, lf_isa::StopReason::Halted, "{} did not halt", w.name);
            let r2 = w.run_reference().unwrap();
            assert_eq!(r1.checksum, r2.checksum, "{} is nondeterministic", w.name);
            assert!(r1.insts > 1_000, "{} too small ({} insts)", w.name, r1.insts);
            assert!(r1.insts < 3_000_000, "{} too large for smoke ({} insts)", w.name, r1.insts);
        }
    }

    #[test]
    fn names_are_unique() {
        let suite = all(Scale::Smoke);
        let mut names: Vec<_> = suite.iter().map(|w| w.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn both_suites_are_represented() {
        let suite = all(Scale::Smoke);
        assert!(suite.iter().filter(|w| w.suite == Suite::Cpu2017).count() >= 12);
        assert!(suite.iter().filter(|w| w.suite == Suite::Cpu2006).count() >= 8);
    }

    #[test]
    fn category_mix_covers_table_2() {
        let suite = all(Scale::Smoke);
        for cat in [
            Category::MemParallelism,
            Category::ControlDep,
            Category::DepChains,
            Category::BranchPrefetch,
            Category::DataPrefetch,
            Category::NoSpeedup,
        ] {
            assert!(suite.iter().any(|w| w.category == cat), "no kernel in category {cat:?}");
        }
    }

    #[test]
    fn eval_scale_is_larger() {
        let s = by_name("stencil_blur", Scale::Smoke).unwrap().run_reference().unwrap();
        let e = by_name("stencil_blur", Scale::Eval).unwrap().run_reference().unwrap();
        assert!(e.insts > s.insts * 2);
    }

    #[test]
    fn some_kernels_are_in_openmp_regions() {
        let suite = all(Scale::Smoke);
        assert!(suite.iter().any(|w| w.in_openmp_region));
        assert!(suite.iter().any(|w| !w.in_openmp_region));
    }
}
