//! A TAGE conditional branch predictor (Seznec's L-TAGE direction component,
//! Table 1: "256 Kbits LTAGE, 13-component TAGE").
//!
//! Tagged geometric-history tables back a bimodal base predictor. Tables are
//! shared between threadlets; the global history register is supplied by the
//! caller (the paper keeps "(global) history per threadlet").

/// Rolling global branch history, maintained per threadlet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct History(pub u64);

impl History {
    /// Shifts one branch outcome into the history.
    #[inline]
    pub fn push(&mut self, taken: bool) {
        self.0 = (self.0 << 1) | taken as u64;
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TaggedEntry {
    tag: u16,
    ctr: i8,    // 3-bit signed counter, -4..=3; taken when >= 0
    useful: u8, // 2-bit useful counter
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct TaggedTable {
    entries: Vec<TaggedEntry>,
    hist_len: u32,
    index_bits: u32,
}

impl TaggedTable {
    fn new(size: usize, hist_len: u32) -> TaggedTable {
        assert!(size.is_power_of_two());
        TaggedTable {
            entries: vec![TaggedEntry::default(); size],
            hist_len,
            index_bits: size.trailing_zeros(),
        }
    }

    fn fold(&self, hist: u64) -> u64 {
        // Fold the most recent `hist_len` bits of history into index_bits.
        let h = if self.hist_len >= 64 { hist } else { hist & ((1u64 << self.hist_len) - 1) };
        let mut folded = 0u64;
        let mut rest = h;
        while rest != 0 {
            folded ^= rest & ((1 << self.index_bits) - 1);
            rest >>= self.index_bits;
        }
        folded
    }

    fn index(&self, pc: u64, hist: u64) -> usize {
        let f = self.fold(hist);
        ((pc ^ (pc >> self.index_bits as u64) ^ f) & ((1 << self.index_bits) - 1)) as usize
    }

    fn tag(&self, pc: u64, hist: u64) -> u16 {
        let f = self.fold(hist.rotate_left(3));
        ((pc >> 2) ^ f ^ (pc << 1)) as u16 & 0x3ff
    }
}

/// Outcome of a TAGE lookup, retained for the update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TageLookup {
    /// Predicted direction.
    pub taken: bool,
    /// Provider table (None = bimodal base).
    provider: Option<usize>,
    /// Alternate prediction (used for the allocate-on-mispredict policy).
    alt_taken: bool,
    /// Whether the provider entry was newly allocated / weak.
    weak: bool,
}

/// The TAGE predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tage {
    bimodal: Vec<i8>, // 2-bit counters, -2..=1; taken when >= 0
    tables: Vec<TaggedTable>,
    use_alt_on_weak: i8,
    tick: u64,
}

impl Tage {
    /// Creates a TAGE predictor with the default table geometry: a 16K-entry
    /// bimodal base and six 2K-entry tagged tables with history lengths
    /// 4, 8, 16, 28, 44, and 64.
    pub fn new() -> Tage {
        Tage::with_geometry(16 << 10, 2 << 10, &[4, 8, 16, 28, 44, 64])
    }

    /// Creates a TAGE predictor with explicit table sizes and history lengths.
    ///
    /// # Panics
    ///
    /// Panics if the sizes are not powers of two or `hist_lens` is empty.
    pub fn with_geometry(bimodal_size: usize, table_size: usize, hist_lens: &[u32]) -> Tage {
        assert!(bimodal_size.is_power_of_two() && !hist_lens.is_empty());
        Tage {
            bimodal: vec![0; bimodal_size],
            tables: hist_lens.iter().map(|&h| TaggedTable::new(table_size, h)).collect(),
            use_alt_on_weak: 0,
            tick: 0,
        }
    }

    fn bimodal_index(&self, pc: u64) -> usize {
        (pc % self.bimodal.len() as u64) as usize
    }

    /// Predicts the direction of the conditional branch at `pc` under
    /// per-threadlet history `hist`.
    pub fn predict(&self, pc: u64, hist: History) -> TageLookup {
        let base_taken = self.bimodal[self.bimodal_index(pc)] >= 0;
        let mut provider = None;
        let mut alt = base_taken;
        let mut pred = base_taken;
        let mut weak = false;
        // Scan from shortest to longest history; the longest hit provides.
        for (i, t) in self.tables.iter().enumerate() {
            let e = &t.entries[t.index(pc, hist.0)];
            if e.tag == t.tag(pc, hist.0) {
                alt = pred;
                pred = e.ctr >= 0;
                provider = Some(i);
                weak = e.ctr == 0 || e.ctr == -1;
            }
        }
        // Newly-allocated weak entries are less reliable than the alternate.
        if weak && self.use_alt_on_weak >= 0 && provider.is_some() {
            return TageLookup { taken: alt, provider, alt_taken: alt, weak };
        }
        TageLookup { taken: pred, provider, alt_taken: alt, weak }
    }

    /// Trains the predictor with the resolved outcome. `lookup` must be the
    /// value returned by [`Tage::predict`] for this branch instance.
    pub fn update(&mut self, pc: u64, hist: History, lookup: TageLookup, taken: bool) {
        self.tick += 1;
        // Track whether trusting the alternate on weak entries helps.
        if lookup.weak && lookup.provider.is_some() {
            let delta = if lookup.alt_taken == taken { 1 } else { -1 };
            self.use_alt_on_weak = (self.use_alt_on_weak + delta).clamp(-8, 7);
        }
        match lookup.provider {
            None => {
                let idx = self.bimodal_index(pc);
                let c = &mut self.bimodal[idx];
                *c = (*c + if taken { 1 } else { -1 }).clamp(-2, 1);
            }
            Some(p) => {
                let idx = self.tables[p].index(pc, hist.0);
                let e = &mut self.tables[p].entries[idx];
                e.ctr = (e.ctr + if taken { 1 } else { -1 }).clamp(-4, 3);
                if (e.ctr >= 0) == taken
                    && lookup.taken == taken
                    && lookup.taken != lookup.alt_taken
                {
                    e.useful = (e.useful + 1).min(3);
                }
            }
        }
        // Allocate a new entry in a longer-history table on misprediction.
        if lookup.taken != taken {
            let start = lookup.provider.map_or(0, |p| p + 1);
            let mut allocated = false;
            for t in self.tables[start..].iter_mut() {
                let idx = t.index(pc, hist.0);
                let tag = t.tag(pc, hist.0);
                let e = &mut t.entries[idx];
                if e.useful == 0 {
                    e.tag = tag;
                    e.ctr = if taken { 0 } else { -1 };
                    allocated = true;
                    break;
                }
            }
            if !allocated {
                // Decay usefulness so future allocations can succeed.
                for t in self.tables[start..].iter_mut() {
                    let idx = t.index(pc, hist.0);
                    let e = &mut t.entries[idx];
                    e.useful = e.useful.saturating_sub(1);
                }
            }
        }
        // Periodic global useful-bit decay.
        if self.tick.is_multiple_of(1 << 18) {
            for t in self.tables.iter_mut() {
                for e in t.entries.iter_mut() {
                    e.useful >>= 1;
                }
            }
        }
    }
}

impl Default for Tage {
    fn default() -> Tage {
        Tage::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train(tage: &mut Tage, pattern: &[bool], reps: usize) -> (u64, u64) {
        let pc = 0x400;
        let mut hist = History::default();
        let (mut correct, mut total) = (0u64, 0u64);
        for _ in 0..reps {
            for &taken in pattern {
                let l = tage.predict(pc, hist);
                if l.taken == taken {
                    correct += 1;
                }
                total += 1;
                tage.update(pc, hist, l, taken);
                hist.push(taken);
            }
        }
        (correct, total)
    }

    #[test]
    fn learns_always_taken() {
        let mut t = Tage::new();
        let (c, n) = train(&mut t, &[true], 200);
        assert!(c as f64 / n as f64 > 0.95, "accuracy {c}/{n}");
    }

    #[test]
    fn learns_short_periodic_pattern() {
        let mut t = Tage::new();
        // T T N repeated: bimodal alone cannot get this right.
        let (_, _) = train(&mut t, &[true, true, false], 100);
        let (c, n) = train(&mut t, &[true, true, false], 100);
        assert!(c as f64 / n as f64 > 0.9, "late accuracy {c}/{n}");
    }

    #[test]
    fn random_pattern_is_not_catastrophic() {
        // Deterministic pseudo-random pattern; accuracy should be ~50%,
        // and the predictor must not panic or overflow.
        let mut t = Tage::new();
        let mut x: u64 = 0x12345;
        let pattern: Vec<bool> = (0..512)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 62) & 1 == 1
            })
            .collect();
        let (c, n) = train(&mut t, &pattern, 4);
        assert!(c <= n);
    }

    #[test]
    fn distinct_pcs_do_not_destructively_alias_much() {
        let mut t = Tage::new();
        let mut hist = History::default();
        // Two branches with opposite biases.
        for _ in 0..500 {
            for (pc, dir) in [(0x10u64, true), (0x20u64, false)] {
                let l = t.predict(pc, hist);
                t.update(pc, hist, l, dir);
                hist.push(dir);
            }
        }
        let l1 = t.predict(0x10, hist);
        let l2 = t.predict(0x20, hist);
        assert!(l1.taken);
        assert!(!l2.taken);
    }
}
