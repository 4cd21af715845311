//! Branch target buffer (Table 1: "4096-entry BTB").

/// A direct-mapped, tagged branch target buffer mapping branch PCs to
/// predicted targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Btb {
    entries: Vec<Option<(u64, usize)>>, // (pc tag, target)
}

impl Btb {
    /// Creates a BTB with `entries` slots (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Btb {
        assert!(entries.is_power_of_two());
        Btb { entries: vec![None; entries] }
    }

    fn slot(&self, pc: u64) -> usize {
        (pc % self.entries.len() as u64) as usize
    }

    /// The predicted target for the control instruction at `pc`, if cached.
    pub fn lookup(&self, pc: u64) -> Option<usize> {
        match self.entries[self.slot(pc)] {
            Some((tag, target)) if tag == pc => Some(target),
            _ => None,
        }
    }

    /// Installs or updates the target for `pc`.
    pub fn update(&mut self, pc: u64, target: usize) {
        let slot = self.slot(pc);
        self.entries[slot] = Some((pc, target));
    }

    /// The cached `(pc, target)` pairs, in slot order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.entries.iter().flatten().copied()
    }
}

/// Return-address stack (Table 1: "48-entry RAS").
///
/// A circular stack: overflow overwrites the oldest entry, underflow yields
/// `None` (predict via BTB instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ras {
    stack: Vec<usize>,
    capacity: usize,
}

impl Ras {
    /// Creates a RAS holding up to `capacity` return addresses.
    pub fn new(capacity: usize) -> Ras {
        Ras { stack: Vec::with_capacity(capacity), capacity }
    }

    /// Pushes a return address (on call).
    pub fn push(&mut self, addr: usize) {
        if self.stack.len() == self.capacity {
            self.stack.remove(0);
        }
        self.stack.push(addr);
    }

    /// Pops the predicted return address (on return).
    pub fn pop(&mut self) -> Option<usize> {
        self.stack.pop()
    }

    /// Current depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn btb_hits_after_update() {
        let mut b = Btb::new(64);
        assert_eq!(b.lookup(100), None);
        b.update(100, 7);
        assert_eq!(b.lookup(100), Some(7));
    }

    #[test]
    fn btb_tag_rejects_aliases() {
        let mut b = Btb::new(64);
        b.update(100, 7);
        // 164 maps to the same slot but has a different tag.
        assert_eq!(b.lookup(164), None);
        b.update(164, 9);
        assert_eq!(b.lookup(164), Some(9));
        assert_eq!(b.lookup(100), None, "evicted by alias");
    }

    #[test]
    fn ras_lifo_and_overflow() {
        let mut r = Ras::new(2);
        r.push(1);
        r.push(2);
        r.push(3); // evicts 1
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), None);
    }
}
