//! The Speculative State Buffer (paper §4.1).
//!
//! The SSB sits between the store buffer and the L1D. It buffers
//! speculatively written data per threadlet *slice*, serves multi-versioned
//! reads (newest value among the reader's own and older threadlets' slices,
//! falling back to architectural memory; Figure 5), and supports bulk
//! invalidation on squash and counter-based flush on threadlet commit.
//!
//! Data is organized into cache lines composed of granules (§4.1.1): a
//! per-line bitmask identifies valid granules, and a partially written
//! granule requires a read-fill of its unwritten bytes, which counts as a
//! read for conflict purposes (the false-sharing effect of §6.6 / Figure 10).
//!
//! A small, shared, fully associative victim buffer optionally extends the
//! effective associativity of the slices (§6.6).
//!
//! An armed SSB ([`crate::LoopFrogCore::record_footprint`]) also
//! records its [`SsbFootprint`]: the lines each slice epoch allocated. Geometry
//! (`size_bytes`, `assoc`, `victim_entries`) is read only where a write
//! allocates a line, so the footprint of a run that never spilled decides
//! exactly which other geometries would have run it identically
//! ([`SsbFootprint::fits`]; DESIGN.md §8.4).

use crate::config::SsbConfig;
use lf_isa::Memory;
use std::collections::HashMap;

/// Outcome of a speculative store attempting to drain into a slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The write was absorbed. `fill_reads` lists granule addresses that
    /// were only partially covered and required a read-fill of their
    /// unwritten bytes (these count as reads for conflict detection).
    Ok {
        /// Granules whose unwritten bytes were read-filled.
        fill_reads: Vec<u64>,
    },
    /// The slice (and victim buffer) had no room: the threadlet must squash
    /// (speculative writes cannot be discarded; §4.1.2).
    Overflow,
}

#[derive(Debug, Clone)]
struct LineData {
    bytes: Vec<u8>,
    valid: u64, // granule validity bitmask
}

#[derive(Debug, Clone, Default)]
struct Slice {
    lines: HashMap<u64, LineData>,
}

#[derive(Debug, Clone)]
struct VictimEntry {
    slice: usize,
    line_addr: u64,
    data: LineData,
}

/// The speculative state buffer.
#[derive(Debug, Clone)]
pub struct Ssb {
    cfg: SsbConfig,
    slices: Vec<Slice>,
    victim: Vec<VictimEntry>,
    lines_per_slice: usize,
    sets_per_slice: usize,
    overflows: u64,
    /// The footprint being recorded; `None` unless armed.
    recorder: Option<Recorder>,
}

/// The sets of one slice: a fully associative slice is one set.
fn sets_per_slice(cfg: &SsbConfig, lines_per_slice: usize) -> usize {
    match cfg.assoc {
        Some(a) => (lines_per_slice / a).max(1),
        None => 1,
    }
}

/// An armed SSB's footprint so far. Within a slice epoch (the allocations
/// between two clears of the slice) lines are only added, so an epoch is
/// the set of lines it allocated.
#[derive(Debug, Clone)]
struct Recorder {
    /// Per slice, the lines its open epoch allocated.
    open: Vec<Vec<u64>>,
    /// The closed epochs' lines, one epoch after another.
    lines: Vec<u64>,
    /// The end offset in `lines` of each closed epoch.
    ends: Vec<usize>,
    /// A line went to the victim buffer, or a write overflowed.
    spilled: bool,
}

impl Recorder {
    fn close(&mut self, slice: usize) {
        let open = &mut self.open[slice];
        if !open.is_empty() {
            self.lines.extend_from_slice(open);
            self.ends.push(self.lines.len());
            open.clear();
        }
    }
}

/// The lines every slice epoch of a run allocated, recorded by an armed
/// SSB whose every allocation landed in its slice.
///
/// Occupancy only grows within an epoch, so a slice of another geometry
/// would have absorbed the same allocations, in the same order and without
/// a spill, exactly when each epoch's final line set fits it: see
/// [`SsbFootprint::fits`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsbFootprint {
    line: usize,
    granule: usize,
    lines: Vec<u64>,
    ends: Vec<usize>,
}

impl SsbFootprint {
    /// Whether an SSB of geometry `cfg` over `threadlets` slices would have
    /// put every line of the recorded run in its slice: no epoch holds more
    /// lines than a slice, and in a set-associative slice no set more than
    /// `assoc` of them. Such a run takes every branch the recorded one took.
    ///
    /// `cfg` must share the recorded line and granule sizes.
    pub fn fits(&self, cfg: &SsbConfig, threadlets: usize) -> bool {
        debug_assert_eq!(
            (cfg.line, cfg.granule),
            (self.line, self.granule),
            "a footprint answers only for its own line and granule sizes"
        );
        let capacity = cfg.lines_per_slice(threadlets);
        let sets = sets_per_slice(cfg, capacity) as u64;
        let mut per_set: Vec<u64> = Vec::new();
        let mut start = 0;
        for &end in &self.ends {
            let epoch = &self.lines[start..end];
            start = end;
            if epoch.len() > capacity {
                return false;
            }
            if let Some(ways) = cfg.assoc {
                per_set.clear();
                per_set.extend(epoch.iter().map(|l| l % sets));
                per_set.sort_unstable();
                if per_set.chunk_by(|a, b| a == b).any(|set| set.len() > ways) {
                    return false;
                }
            }
        }
        true
    }

    /// Adds `other`'s epochs after this footprint's own, so the result
    /// fits exactly the geometries both fit: the footprint of a run made
    /// of several armed simulations, each starting with empty slices (a
    /// sampled run's windows).
    ///
    /// `other` must share the recorded line and granule sizes.
    pub fn append(&mut self, other: SsbFootprint) {
        debug_assert_eq!(
            (other.line, other.granule),
            (self.line, self.granule),
            "footprints of different line or granule sizes do not join"
        );
        let base = self.lines.len();
        self.lines.extend(other.lines);
        self.ends.extend(other.ends.into_iter().map(|end| base + end));
    }
}

impl Ssb {
    /// Creates an SSB with one slice per threadlet context.
    pub fn new(cfg: &SsbConfig, threadlets: usize) -> Ssb {
        let lines_per_slice = cfg.lines_per_slice(threadlets);
        Ssb {
            cfg: cfg.clone(),
            slices: vec![Slice::default(); threadlets],
            victim: Vec::new(),
            lines_per_slice,
            sets_per_slice: sets_per_slice(cfg, lines_per_slice),
            overflows: 0,
            recorder: None,
        }
    }

    /// Arms footprint recording: from now on every line a write allocates
    /// is recorded with its slice epoch. Unarmed, an allocation pays one
    /// branch.
    pub(crate) fn record_footprint(&mut self) {
        self.recorder = Some(Recorder {
            open: vec![Vec::new(); self.slices.len()],
            lines: Vec::new(),
            ends: Vec::new(),
            spilled: false,
        });
    }

    /// Closes every open epoch and returns the recorded footprint. `None`
    /// if recording was never armed, or if any line went to the victim
    /// buffer or any write overflowed: only a run whose every allocation
    /// landed in its slice proves anything about other geometries.
    pub(crate) fn take_footprint(&mut self) -> Option<SsbFootprint> {
        let mut rec = self.recorder.take()?;
        if rec.spilled {
            return None;
        }
        for slice in 0..rec.open.len() {
            rec.close(slice);
        }
        Some(SsbFootprint {
            line: self.cfg.line,
            granule: self.cfg.granule,
            lines: rec.lines,
            ends: rec.ends,
        })
    }

    /// The configured granule size in bytes.
    pub fn granule(&self) -> u64 {
        self.cfg.granule as u64
    }

    /// The granule addresses covered by a byte access `[addr, addr+len)`.
    pub fn granules_of(&self, addr: u64, len: u64) -> Vec<u64> {
        let g = self.granule();
        let first = addr / g;
        let last = (addr + len - 1) / g;
        (first..=last).collect()
    }

    /// Lines currently held by `slice`.
    pub fn slice_lines(&self, slice: usize) -> usize {
        self.slices[slice].lines.len()
    }

    /// Total overflow events (threadlet squashes forced by capacity).
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr / self.cfg.line as u64
    }

    fn set_of(&self, line_addr: u64) -> u64 {
        line_addr % self.sets_per_slice as u64
    }

    /// Looks up the byte at `addr` in `slice` (including its victim-buffer
    /// entries). Returns `None` if the granule containing it is not valid.
    fn peek_byte(&self, slice: usize, addr: u64) -> Option<u8> {
        let la = self.line_addr(addr);
        let off = (addr % self.cfg.line as u64) as usize;
        let gbit = off / self.cfg.granule;
        let look = |d: &LineData| {
            if d.valid >> gbit & 1 == 1 {
                Some(d.bytes[off])
            } else {
                None
            }
        };
        if let Some(d) = self.slices[slice].lines.get(&la) {
            return look(d);
        }
        self.victim
            .iter()
            .find(|v| v.slice == slice && v.line_addr == la)
            .and_then(|v| look(&v.data))
    }

    /// Multi-versioned read (Figure 5): reads `len` bytes at `addr` as seen
    /// by a threadlet whose older-to-newer slice order (ending with its own
    /// slice) is `order`. Bytes not found in any slice come from `mem`.
    ///
    /// Returns the assembled bytes and whether *all* bytes came from SSB
    /// slices (in which case the parallel L1D lookup result is not needed).
    pub fn read(&self, order: &[usize], addr: u64, len: u64, mem: &Memory) -> (Vec<u8>, bool) {
        let mut out = vec![0; len as usize];
        let all_ssb = self.read_into(order, addr, &mut out, mem);
        (out, all_ssb)
    }

    /// [`Ssb::read`] into a caller's buffer: fills `out` with the
    /// `out.len()` bytes at `addr` and returns whether all of them came
    /// from SSB slices.
    pub(crate) fn read_into(
        &self,
        order: &[usize],
        addr: u64,
        out: &mut [u8],
        mem: &Memory,
    ) -> bool {
        let mut all_ssb = true;
        for (a, byte) in (addr..).zip(out.iter_mut()) {
            // Newest-first: scan own slice backwards to oldest.
            *byte = match order.iter().rev().find_map(|&s| self.peek_byte(s, a)) {
                Some(b) => b,
                None => {
                    all_ssb = false;
                    mem.read_u8(a).unwrap_or(0)
                }
            };
        }
        all_ssb
    }

    /// Whether `slice` can absorb a new line mapping to `line_addr`'s set
    /// without evicting (capacity and associativity), ignoring the victim
    /// buffer.
    fn has_room(&self, slice: usize, line_addr: u64) -> bool {
        let s = &self.slices[slice];
        if s.lines.len() >= self.lines_per_slice {
            return false;
        }
        match self.cfg.assoc {
            None => true,
            Some(a) => {
                let set = self.set_of(line_addr);
                s.lines.keys().filter(|&&l| self.set_of(l) == set).count() < a
            }
        }
    }

    /// Drains a speculative store of `data` at `addr` into `slice`.
    ///
    /// `older_view` supplies the byte value visible to this threadlet just
    /// before this store (from older slices or memory), used to read-fill
    /// partially written granules.
    pub fn write(
        &mut self,
        slice: usize,
        addr: u64,
        data: &[u8],
        older_view: impl Fn(u64) -> u8,
    ) -> WriteOutcome {
        let line_sz = self.cfg.line as u64;
        let gran = self.cfg.granule;
        let mut fill_reads = Vec::new();

        // The store may straddle line boundaries; handle line by line.
        let mut i = 0usize;
        while i < data.len() {
            let a = addr + i as u64;
            let la = self.line_addr(a);
            let line_base = la * line_sz;
            let off = (a - line_base) as usize;
            let n = ((line_sz as usize) - off).min(data.len() - i);

            // Locate or allocate the line (slice, then victim, then new).
            let in_slice = self.slices[slice].lines.contains_key(&la);
            let in_victim = self.victim.iter().position(|v| v.slice == slice && v.line_addr == la);
            if !in_slice && in_victim.is_none() {
                let fresh = LineData { bytes: vec![0; line_sz as usize], valid: 0 };
                if self.has_room(slice, la) {
                    self.slices[slice].lines.insert(la, fresh);
                    if let Some(rec) = &mut self.recorder {
                        rec.open[slice].push(la);
                    }
                } else {
                    if let Some(rec) = &mut self.recorder {
                        rec.spilled = true;
                    }
                    if self.victim.len() < self.cfg.victim_entries {
                        self.victim.push(VictimEntry { slice, line_addr: la, data: fresh });
                    } else {
                        self.overflows += 1;
                        return WriteOutcome::Overflow;
                    }
                }
            }

            // Compute which granules become newly valid but are only
            // partially covered by this write: they need a read-fill.
            let first_g = off / gran;
            let last_g = (off + n - 1) / gran;
            let (valid_before, bytes_ptr): (u64, &mut LineData) = {
                let d = if let Some(d) = self.slices[slice].lines.get_mut(&la) {
                    d
                } else {
                    let vi = self
                        .victim
                        .iter_mut()
                        .find(|v| v.slice == slice && v.line_addr == la)
                        .expect("line just ensured");
                    &mut vi.data
                };
                (d.valid, d)
            };
            for g in first_g..=last_g {
                let g_start = g * gran;
                let g_end = g_start + gran;
                let w_start = off.max(g_start);
                let w_end = (off + n).min(g_end);
                let fully_covered = w_start == g_start && w_end == g_end;
                let was_valid = valid_before >> g & 1 == 1;
                if !was_valid && !fully_covered {
                    // Read-fill the granule's unwritten bytes from the older
                    // view; the fill is an additional (false-sharing) read.
                    for b in g_start..g_end {
                        bytes_ptr.bytes[b] = older_view(line_base + b as u64);
                    }
                    fill_reads.push((line_base + g_start as u64) / gran as u64);
                }
                bytes_ptr.valid |= 1 << g;
            }
            // Apply the written bytes.
            bytes_ptr.bytes[off..off + n].copy_from_slice(&data[i..i + n]);

            i += n;
        }
        WriteOutcome::Ok { fill_reads }
    }

    /// Bulk-invalidates a squashed threadlet's slice and its victim entries.
    pub fn invalidate_slice(&mut self, slice: usize) {
        self.slices[slice].lines.clear();
        self.victim.retain(|v| v.slice != slice);
        if let Some(rec) = &mut self.recorder {
            rec.close(slice);
        }
    }

    /// Removes and returns the slice contents at threadlet commit, for
    /// application to architectural memory. Returns `(line_addr, bytes,
    /// valid_mask)` tuples; the line count drives the flush-timing model.
    pub fn take_slice(&mut self, slice: usize) -> Vec<(u64, Vec<u8>, u64)> {
        if let Some(rec) = &mut self.recorder {
            rec.close(slice);
        }
        let mut out: Vec<(u64, Vec<u8>, u64)> =
            self.slices[slice].lines.drain().map(|(la, d)| (la, d.bytes, d.valid)).collect();
        let mut vict = Vec::new();
        self.victim.retain(|v| {
            if v.slice == slice {
                vict.push((v.line_addr, v.data.bytes.clone(), v.data.valid));
                false
            } else {
                true
            }
        });
        out.extend(vict);
        out.sort_by_key(|(la, _, _)| *la);
        out
    }

    /// Structural invariants scanned by verify builds: valid masks confined
    /// to the line's granule count and never empty, data only in slices
    /// whose contexts are active (`active[slice]`), the architectural
    /// slice (`arch`, whose stores bypass the SSB) empty, and capacity
    /// bounds respected.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    #[cfg(feature = "verify")]
    pub fn check_invariants(&self, active: &[bool], arch: Option<usize>) -> Result<(), String> {
        let gpl = self.cfg.line / self.cfg.granule;
        let mask = if gpl >= 64 { u64::MAX } else { (1u64 << gpl) - 1 };
        let check_line = |slice: usize, la: u64, d: &LineData| -> Result<(), String> {
            if d.valid == 0 {
                return Err(format!("slice {slice} line {la:#x} has an empty valid mask"));
            }
            if d.valid & !mask != 0 {
                return Err(format!(
                    "slice {slice} line {la:#x} valid mask {:#x} exceeds {gpl} granules",
                    d.valid
                ));
            }
            Ok(())
        };
        for (i, s) in self.slices.iter().enumerate() {
            if s.lines.len() > self.lines_per_slice {
                return Err(format!(
                    "slice {i} holds {} lines, capacity {}",
                    s.lines.len(),
                    self.lines_per_slice
                ));
            }
            if !s.lines.is_empty() {
                if !active.get(i).copied().unwrap_or(false) {
                    return Err(format!("slice {i} holds data but its context is not active"));
                }
                if arch == Some(i) {
                    return Err(format!("slice {i} holds data but is architectural"));
                }
            }
            for (la, d) in &s.lines {
                check_line(i, *la, d)?;
            }
        }
        if self.victim.len() > self.cfg.victim_entries {
            return Err(format!(
                "victim buffer holds {} entries, capacity {}",
                self.victim.len(),
                self.cfg.victim_entries
            ));
        }
        for v in &self.victim {
            if !active.get(v.slice).copied().unwrap_or(false) || arch == Some(v.slice) {
                return Err(format!(
                    "victim entry for line {:#x} owned by non-speculative slice {}",
                    v.line_addr, v.slice
                ));
            }
            check_line(v.slice, v.line_addr, &v.data)?;
        }
        Ok(())
    }

    /// Applies one taken line to architectural memory, honoring the valid
    /// granule mask (byte-masked writeback; §4.1.1).
    pub fn apply_line(&self, mem: &mut Memory, line_addr: u64, bytes: &[u8], valid: u64) {
        let line_sz = self.cfg.line;
        let gran = self.cfg.granule;
        for g in 0..(line_sz / gran) {
            if valid >> g & 1 == 1 {
                for b in 0..gran {
                    let a = line_addr * line_sz as u64 + (g * gran + b) as u64;
                    // Lines past the end of the image can only arise from
                    // wrong-path stores, which are squashed before commit.
                    let _ = mem.write(a, 1, bytes[g * gran + b] as u64);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ssb4() -> (Ssb, Memory) {
        let cfg = SsbConfig { size_bytes: 1024, line: 32, granule: 4, ..SsbConfig::default() };
        (Ssb::new(&cfg, 4), Memory::new(4096))
    }

    fn wr(ssb: &mut Ssb, slice: usize, addr: u64, data: &[u8]) -> WriteOutcome {
        ssb.write(slice, addr, data, |_| 0xEE)
    }

    #[test]
    fn own_write_visible_to_own_read() {
        let (mut ssb, mem) = ssb4();
        wr(&mut ssb, 1, 100, &[1, 2, 3, 4]);
        let (bytes, all_ssb) = ssb.read(&[0, 1], 100, 4, &mem);
        assert_eq!(bytes, vec![1, 2, 3, 4]);
        assert!(all_ssb);
    }

    #[test]
    fn newest_older_value_wins_per_granule() {
        // Figure 5: reader sees the most recent value for each granule,
        // ignoring younger threadlets.
        let (mut ssb, mut mem) = ssb4();
        mem.write_u64(96, 0).unwrap();
        wr(&mut ssb, 0, 96, &[10, 10, 10, 10]); // oldest
        wr(&mut ssb, 1, 96, &[20, 20, 20, 20]); // newer
        wr(&mut ssb, 2, 96, &[30, 30, 30, 30]); // reader's own? no: younger
                                                // Reader is threadlet with order [0, 1] (its own slice is 1).
        let (bytes, _) = ssb.read(&[0, 1], 96, 4, &mem);
        assert_eq!(bytes, vec![20; 4], "own slice is newest visible");
        // Reader order [0] only sees the oldest.
        let (bytes, _) = ssb.read(&[0], 96, 4, &mem);
        assert_eq!(bytes, vec![10; 4]);
    }

    #[test]
    fn memory_fallback_for_uncovered_bytes() {
        let (mut ssb, mut mem) = ssb4();
        mem.write(200, 8, u64::from_le_bytes([9; 8])).unwrap();
        wr(&mut ssb, 0, 200, &[1, 1, 1, 1]); // covers first granule only
        let (bytes, all_ssb) = ssb.read(&[0], 200, 8, &mem);
        assert_eq!(bytes, vec![1, 1, 1, 1, 9, 9, 9, 9]);
        assert!(!all_ssb);
    }

    #[test]
    fn partial_granule_write_read_fills_and_reports() {
        let (mut ssb, mem) = ssb4();
        // 2-byte store into a 4-byte granule: the other 2 bytes read-fill
        // from the older view (0xEE) and the granule is reported.
        let out = wr(&mut ssb, 0, 100, &[7, 7]);
        match out {
            WriteOutcome::Ok { fill_reads } => assert_eq!(fill_reads, vec![25]), // 100/4
            other => panic!("{other:?}"),
        }
        let (bytes, all) = ssb.read(&[0], 100, 4, &mem);
        assert!(all, "whole granule valid after fill");
        assert_eq!(bytes, vec![7, 7, 0xEE, 0xEE]);
    }

    #[test]
    fn full_granule_write_reports_no_fill() {
        let (mut ssb, _) = ssb4();
        match wr(&mut ssb, 0, 100, &[1, 2, 3, 4]) {
            WriteOutcome::Ok { fill_reads } => assert!(fill_reads.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn straddling_line_boundary() {
        let (mut ssb, mem) = ssb4();
        // Lines are 32 B; write 8 bytes at 28 straddles lines 0 and 1.
        wr(&mut ssb, 0, 28, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let (bytes, all) = ssb.read(&[0], 28, 8, &mem);
        assert!(all);
        assert_eq!(bytes, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(ssb.slice_lines(0), 2);
    }

    #[test]
    fn capacity_overflow_squashes() {
        let cfg =
            SsbConfig { size_bytes: 4 * 32 * 2, line: 32, granule: 4, ..SsbConfig::default() };
        let mut ssb = Ssb::new(&cfg, 2); // 4 lines per slice
        for i in 0..4 {
            assert!(matches!(wr(&mut ssb, 0, i * 32, &[1; 4]), WriteOutcome::Ok { .. }));
        }
        assert_eq!(wr(&mut ssb, 0, 4 * 32, &[1; 4]), WriteOutcome::Overflow);
        assert_eq!(ssb.overflows(), 1);
        // Existing line still updatable at capacity.
        assert!(matches!(wr(&mut ssb, 0, 0, &[9; 4]), WriteOutcome::Ok { .. }));
    }

    #[test]
    fn low_associativity_overflows_earlier_and_victim_helps() {
        // 8 lines, 1-way: two lines mapping to the same set conflict.
        let cfg = SsbConfig {
            size_bytes: 8 * 32,
            line: 32,
            granule: 4,
            assoc: Some(1),
            victim_entries: 0,
            ..SsbConfig::default()
        };
        let mut ssb = Ssb::new(&cfg, 1);
        assert!(matches!(wr(&mut ssb, 0, 0, &[1; 4]), WriteOutcome::Ok { .. }));
        // line 8 maps to set 0 as well (8 sets → line 8 ≡ set 0).
        assert_eq!(wr(&mut ssb, 0, 8 * 32, &[1; 4]), WriteOutcome::Overflow);

        let cfg = SsbConfig { victim_entries: 2, ..cfg };
        let mut ssb = Ssb::new(&cfg, 1);
        assert!(matches!(wr(&mut ssb, 0, 0, &[1; 4]), WriteOutcome::Ok { .. }));
        assert!(matches!(wr(&mut ssb, 0, 8 * 32, &[2; 4]), WriteOutcome::Ok { .. }));
        let (bytes, _) = ssb.read(&[0], 8 * 32, 4, &Memory::new(1024));
        assert_eq!(bytes, vec![2; 4], "victim entry readable");
    }

    #[test]
    fn invalidate_slice_clears_data() {
        let (mut ssb, mem) = ssb4();
        wr(&mut ssb, 2, 64, &[5; 4]);
        ssb.invalidate_slice(2);
        let (bytes, all) = ssb.read(&[2], 64, 4, &mem);
        assert!(!all);
        assert_eq!(bytes, vec![0; 4]);
        assert_eq!(ssb.slice_lines(2), 0);
    }

    #[test]
    fn take_slice_and_apply_respects_valid_mask() {
        let (mut ssb, mut mem) = ssb4();
        mem.write(0, 8, u64::from_le_bytes([0xAA; 8])).unwrap();
        wr(&mut ssb, 0, 4, &[1, 2, 3, 4]); // second granule of line 0 only
        let lines = ssb.take_slice(0);
        assert_eq!(lines.len(), 1);
        for (la, bytes, valid) in &lines {
            ssb.apply_line(&mut mem, *la, bytes, *valid);
        }
        assert_eq!(mem.read(0, 4).unwrap(), u32::from_le_bytes([0xAA; 4]) as u64);
        assert_eq!(mem.read(4, 4).unwrap(), u32::from_le_bytes([1, 2, 3, 4]) as u64);
        assert_eq!(ssb.slice_lines(0), 0);
    }

    /// One step of a random slice trace.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Write { slice: usize, addr: u64, len: usize },
        Take(usize),
        Invalidate(usize),
    }

    /// 2–4 slices and up to 120 steps over 49 lines, mostly writes (some
    /// straddling a line boundary), with commits and squashes between.
    fn random_trace(rng: &mut lf_stats::rng::SmallRng) -> (usize, Vec<Op>) {
        let slices = rng.random_range(2..=4usize);
        let steps = rng.random_range(1..=120usize);
        let ops = (0..steps)
            .map(|_| {
                let slice = rng.random_range(0..slices);
                match rng.random_range(0..16u32) {
                    0 => Op::Take(slice),
                    1 => Op::Invalidate(slice),
                    _ => Op::Write {
                        slice,
                        addr: rng.random_range(0..48 * 32u64),
                        len: rng.random_range(1..=8usize),
                    },
                }
            })
            .collect();
        (slices, ops)
    }

    /// Replays `ops` through an SSB of geometry `cfg`, armed to record.
    /// Returns the SSB and whether any write overflowed or put a line in
    /// the victim buffer, as seen from outside the recorder.
    fn replay(cfg: &SsbConfig, slices: usize, ops: &[Op]) -> (Ssb, bool) {
        let mut ssb = Ssb::new(cfg, slices);
        ssb.record_footprint();
        let mut spilled = false;
        for op in ops {
            match *op {
                Op::Write { slice, addr, len } => {
                    spilled |=
                        wr(&mut ssb, slice, addr, &[0xAB; 8][..len]) == WriteOutcome::Overflow;
                    spilled |= !ssb.victim.is_empty();
                }
                Op::Take(slice) => {
                    ssb.take_slice(slice);
                }
                Op::Invalidate(slice) => ssb.invalidate_slice(slice),
            }
        }
        (ssb, spilled)
    }

    #[test]
    fn footprint_fits_exactly_the_geometries_that_never_spill() {
        let mut rng = lf_stats::rng::SmallRng::seed_from_u64(0x55b_f007);
        let mut split_rng = lf_stats::rng::SmallRng::seed_from_u64(0x5b117);
        let (mut fits, mut spills, mut set_bound, mut one_over) = (0, 0, 0, 0);
        for case in 0..160 {
            let (slices, ops) = random_trace(&mut rng);
            // 64 fully associative lines per slice hold any epoch of the trace.
            let capacious = SsbConfig { size_bytes: 64 * 32 * slices, ..SsbConfig::default() };
            let record = |ops: &[Op]| {
                let (mut ssb, spilled) = replay(&capacious, slices, ops);
                assert!(!spilled, "case {case}: the capacious geometry spilled");
                ssb.take_footprint().expect("an armed run that never spilled")
            };
            let footprint = record(&ops);
            assert!(footprint.fits(&capacious, slices), "case {case}");
            // The same recording split at a random step, where every slice
            // commits so an epoch ends in each, into two armed runs, each
            // starting empty (as a sampled run's windows do): appended,
            // their footprints are the whole recording's.
            let split = split_rng.random_range(0..=ops.len());
            let boundary = (0..slices).map(Op::Take);
            let whole: Vec<Op> = ops[..split]
                .iter()
                .copied()
                .chain(boundary)
                .chain(ops[split..].iter().copied())
                .collect();
            let mut joined = record(&ops[..split]);
            joined.append(record(&ops[split..]));
            assert_eq!(joined, record(&whole), "case {case}, split at {split}");
            let largest_epoch =
                std::iter::once(0).chain(footprint.ends.iter().copied()).collect::<Vec<_>>();
            let largest_epoch = largest_epoch.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
            for size_bytes in [128, 256, 512, 768, 1024, 2048, 4096] {
                for assoc in [None, Some(1), Some(2), Some(4), Some(8)] {
                    for victim_entries in [0, 2, 8] {
                        let g =
                            SsbConfig { size_bytes, assoc, victim_entries, ..capacious.clone() };
                        let (mut ssb, spilled) = replay(&g, slices, &ops);
                        let what =
                            format!("case {case}, {size_bytes} B, {assoc:?}, {victim_entries}");
                        assert_eq!(footprint.fits(&g, slices), !spilled, "{what}: {ops:?}");
                        let (_, whole_spilled) = replay(&g, slices, &whole);
                        assert_eq!(joined.fits(&g, slices), !whole_spilled, "{what}, split");
                        let recorded = ssb.take_footprint();
                        if spilled {
                            assert_eq!(recorded, None, "{what}: a spilled run proves nothing");
                            spills += 1;
                        } else {
                            assert_eq!(recorded.as_ref(), Some(&footprint), "{what}");
                            fits += 1;
                        }
                        let capacity = g.lines_per_slice(slices);
                        set_bound += usize::from(spilled && largest_epoch <= capacity);
                        one_over += usize::from(assoc.is_none() && largest_epoch == capacity + 1);
                    }
                }
            }
        }
        // Both outcomes, the per-set bound alone, and an epoch one line
        // over capacity all occur, so each bound of `fits` is exercised.
        assert!(fits > 1000 && spills > 1000, "{fits} fit, {spills} spilled");
        assert!(set_bound > 100, "{set_bound} spills came from the per-set bound alone");
        assert!(one_over > 10, "{one_over} epochs were one line over capacity");
    }

    #[test]
    fn unarmed_ssb_records_no_footprint() {
        let (mut ssb, _) = ssb4();
        wr(&mut ssb, 0, 0, &[1; 4]);
        assert_eq!(ssb.take_footprint(), None);
    }

    #[test]
    fn granules_of_spans() {
        let (ssb, _) = ssb4();
        assert_eq!(ssb.granules_of(0, 4), vec![0]);
        assert_eq!(ssb.granules_of(2, 4), vec![0, 1]);
        assert_eq!(ssb.granules_of(8, 1), vec![2]);
    }
}
