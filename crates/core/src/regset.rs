//! Architectural register sets as one 64-bit word, the bit vector hardware
//! keeps for rename's per-epoch and per-iteration read-before-write and
//! written sets (packing's IV detector, §4.3; the commit-time
//! register-independence check, §3–4).

use lf_isa::NUM_ARCH_REGS;

const _: () = assert!(NUM_ARCH_REGS <= 64, "a RegSet holds one bit per architectural register");

/// A set of architectural register indices in `0..64`.
///
/// On those indices `contains`, `insert` (including its return value) and
/// `remove` behave like `HashSet<usize>`'s. An index of 64 or more panics in
/// every build profile rather than aliasing another register.
///
/// # Examples
///
/// ```
/// use loopfrog::regset::RegSet;
///
/// let mut s = RegSet::default();
/// assert!(s.insert(7));
/// assert!(!s.insert(7), "already present");
/// s.insert(3);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 7]);
/// assert!(s.remove(7) && !s.contains(7));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegSet(u64);

impl RegSet {
    fn bit(reg: usize) -> u64 {
        assert!(reg < 64, "register index {reg} does not fit a RegSet");
        1 << reg
    }

    /// Whether `reg` is in the set.
    #[inline]
    pub fn contains(self, reg: usize) -> bool {
        self.0 & Self::bit(reg) != 0
    }

    /// Adds `reg`; returns whether it was absent.
    #[inline]
    pub fn insert(&mut self, reg: usize) -> bool {
        let b = Self::bit(reg);
        let absent = self.0 & b == 0;
        self.0 |= b;
        absent
    }

    /// Removes `reg`; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, reg: usize) -> bool {
        let b = Self::bit(reg);
        let present = self.0 & b != 0;
        self.0 &= !b;
        present
    }

    /// Empties the set.
    pub fn clear(&mut self) {
        self.0 = 0;
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of registers in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The registers in both `self` and `other`.
    pub fn intersection(self, other: RegSet) -> RegSet {
        RegSet(self.0 & other.0)
    }

    /// The registers in ascending index order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let reg = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                reg
            })
        })
    }
}

impl FromIterator<usize> for RegSet {
    fn from_iter<I: IntoIterator<Item = usize>>(regs: I) -> RegSet {
        let mut s = RegSet::default();
        for r in regs {
            s.insert(r);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_stats::rng::SmallRng;
    use std::collections::BTreeSet;

    /// Property test pinning [`RegSet`] to `BTreeSet<usize>` semantics:
    /// random insert/remove/contains/intersection schedules over all 64
    /// indices must agree on every return value, the length and the
    /// ascending iteration order.
    #[test]
    fn randomized_against_btreeset() {
        let mut rng = SmallRng::seed_from_u64(0x4e65_7453);
        for _trial in 0..100 {
            let (mut set, mut model) = (RegSet::default(), BTreeSet::new());
            for _step in 0..300 {
                let r = rng.random_range(0..64usize);
                match rng.random_range(0..5u32) {
                    0 | 1 => assert_eq!(set.insert(r), model.insert(r)),
                    2 => assert_eq!(set.remove(r), model.remove(&r)),
                    3 => {
                        let other: BTreeSet<usize> = (0..rng.random_range(0..20u32))
                            .map(|_| rng.random_range(0..64usize))
                            .collect();
                        let want: BTreeSet<usize> = model.intersection(&other).copied().collect();
                        let got = set.intersection(other.iter().copied().collect());
                        assert_eq!(
                            got.iter().collect::<Vec<_>>(),
                            want.iter().copied().collect::<Vec<_>>()
                        );
                        if rng.random_range(0..4u32) == 0 {
                            (set, model) = (got, want);
                        }
                    }
                    _ => assert_eq!(set.contains(r), model.contains(&r)),
                }
                assert_eq!(set.len(), model.len());
                assert_eq!(set.is_empty(), model.is_empty());
                assert_eq!(
                    set.iter().collect::<Vec<_>>(),
                    model.iter().copied().collect::<Vec<_>>()
                );
            }
            set.clear();
            assert!(set.is_empty() && set.iter().next().is_none());
        }
    }

    #[test]
    #[should_panic(expected = "does not fit a RegSet")]
    fn out_of_range_index_panics() {
        RegSet::default().insert(64);
    }
}
