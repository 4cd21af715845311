//! Program representation.

use crate::inst::{Inst, RegionId};
use std::collections::BTreeMap;
use std::fmt;

/// A complete program: an instruction vector (word-addressed) plus optional
/// debug labels.
///
/// Programs are produced either by hand through [`crate::ProgramBuilder`] or
/// by the `lf-workloads` kernels, and are transformed by the `lf-compiler`
/// hint-insertion pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    insts: Vec<Inst>,
    entry: usize,
    labels: BTreeMap<usize, String>,
}

impl Program {
    /// Creates a program from raw instructions, entering at address 0.
    pub fn new(insts: Vec<Inst>) -> Program {
        Program { insts, entry: 0, labels: BTreeMap::new() }
    }

    /// Creates a program with debug labels (address → name).
    pub fn with_labels(insts: Vec<Inst>, labels: BTreeMap<usize, String>) -> Program {
        Program { insts, entry: 0, labels }
    }

    /// The instruction at `pc`, if in range.
    #[inline]
    pub fn fetch(&self, pc: usize) -> Option<Inst> {
        self.insts.get(pc).copied()
    }

    /// All instructions.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The entry program counter.
    pub fn entry(&self) -> usize {
        self.entry
    }

    /// Debug label at an address, if any.
    pub fn label_at(&self, pc: usize) -> Option<&str> {
        self.labels.get(&pc).map(String::as_str)
    }

    /// All labels (address → name).
    pub fn labels(&self) -> &BTreeMap<usize, String> {
        &self.labels
    }

    /// The set of region IDs named by hint instructions in this program.
    pub fn regions(&self) -> Vec<RegionId> {
        let mut v: Vec<RegionId> =
            self.insts.iter().filter_map(|i| i.hint().map(|(_, r)| r)).collect();
        v.sort();
        v.dedup();
        v
    }

    /// A stable content checksum over the executable code (instructions
    /// and entry point; debug labels are excluded). Two programs with
    /// equal fingerprints execute identically, so the experiment engine
    /// uses this as the program component of a run fingerprint.
    pub fn code_fingerprint(&self) -> u64 {
        use std::fmt::Write as _;
        let mut text = String::with_capacity(self.insts.len() * 24);
        for inst in &self.insts {
            // `Inst`'s Debug form is a canonical, stable rendering of every
            // operand; separate instructions with a newline so adjacent
            // encodings cannot bleed together.
            let _ = writeln!(text, "{inst:?}");
        }
        let mut h = crate::checksum::fnv1a(text.as_bytes());
        h ^= crate::checksum::fnv1a_u64(&[self.entry as u64]);
        h
    }

    /// Returns a copy of this program with every hint replaced by `Nop`.
    ///
    /// Useful for checking that hints never change sequential semantics.
    pub fn without_hints(&self) -> Program {
        let mut p = self.clone();
        for i in p.insts.iter_mut() {
            if i.is_hint() {
                *i = Inst::Nop;
            }
        }
        p
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (pc, inst) in self.insts.iter().enumerate() {
            if let Some(l) = self.label_at(pc) {
                writeln!(f, "{l}:")?;
            }
            writeln!(f, "  {pc:4}: {inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{HintKind, Inst};

    #[test]
    fn regions_are_deduped_and_sorted() {
        let p = Program::new(vec![
            Inst::Hint { kind: HintKind::Detach, region: RegionId(5) },
            Inst::Hint { kind: HintKind::Sync, region: RegionId(2) },
            Inst::Hint { kind: HintKind::Reattach, region: RegionId(5) },
            Inst::Halt,
        ]);
        assert_eq!(p.regions(), vec![RegionId(2), RegionId(5)]);
    }

    #[test]
    fn without_hints_replaces_with_nops() {
        let p = Program::new(vec![
            Inst::Hint { kind: HintKind::Detach, region: RegionId(1) },
            Inst::Halt,
        ]);
        let q = p.without_hints();
        assert_eq!(q.fetch(0), Some(Inst::Nop));
        assert_eq!(q.fetch(1), Some(Inst::Halt));
        assert_eq!(q.len(), p.len());
    }

    #[test]
    fn code_fingerprint_tracks_code_not_labels() {
        let hinted = Program::new(vec![
            Inst::Hint { kind: HintKind::Detach, region: RegionId(1) },
            Inst::Halt,
        ]);
        let plain = hinted.without_hints();
        assert_ne!(hinted.code_fingerprint(), plain.code_fingerprint());

        let mut labels = BTreeMap::new();
        labels.insert(0, "loop_head".to_string());
        let labelled = Program::with_labels(
            vec![Inst::Hint { kind: HintKind::Detach, region: RegionId(1) }, Inst::Halt],
            labels,
        );
        assert_eq!(hinted.code_fingerprint(), labelled.code_fingerprint());
    }
}
