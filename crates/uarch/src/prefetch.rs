//! Stride prefetcher (Table 1: L1D "stride (degree: 2)", L2 "stride
//! (degree: 8) and neighbor prefetchers").
//!
//! A PC-indexed reference-prediction table. Because LoopFrog interleaves
//! accesses from several threadlets, the same load PC is seen with
//! out-of-order addresses; the predictor therefore accepts any delta that
//! is a small multiple of the learned stride as confirmation and prefetches
//! ahead of the *furthest* line seen, rather than demanding strictly
//! consecutive strides (which inter-threadlet interleaving would destroy).

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct StrideEntry {
    pc_tag: u64,
    last_line: u64,
    /// First line seen since (re)allocation; fixes the stream direction.
    origin: u64,
    /// Furthest line seen in the stride direction (prefetch frontier).
    frontier: u64,
    stride: i64,
    confidence: u8,
    valid: bool,
}

/// Largest multiple of the learned stride accepted as an in-stream access.
const TOLERANCE: i64 = 8;

/// PC-indexed, interleaving-tolerant stride prefetcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StridePrefetcher {
    entries: Vec<StrideEntry>,
    degree: usize,
}

impl StridePrefetcher {
    /// Creates a prefetcher with `entries` table slots issuing `degree`
    /// prefetches when confident. `degree == 0` disables prefetching.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize, degree: usize) -> StridePrefetcher {
        assert!(entries.is_power_of_two());
        StridePrefetcher { entries: vec![StrideEntry::default(); entries], degree }
    }

    /// Trains on a demand access by `pc` to `line` (line-address units) and
    /// returns the line addresses to prefetch, nearest first. Training
    /// happens in the call; the returned iterator only walks the run, holds
    /// no borrow of the prefetcher and allocates nothing.
    pub fn train(&mut self, pc: u64, line: u64) -> impl Iterator<Item = u64> {
        if self.degree == 0 {
            return run(0, 0, 0);
        }
        let slot = (pc % self.entries.len() as u64) as usize;
        let e = &mut self.entries[slot];
        if !e.valid || e.pc_tag != pc {
            *e = StrideEntry {
                pc_tag: pc,
                last_line: line,
                origin: line,
                frontier: line,
                stride: 0,
                confidence: 0,
                valid: true,
            };
            return run(0, 0, 0);
        }
        let delta = line as i64 - e.last_line as i64;
        if delta == 0 {
            return run(0, 0, 0); // same line: no information
        }
        let confirms =
            e.stride != 0 && delta % e.stride == 0 && (delta / e.stride).abs() <= TOLERANCE;
        if confirms {
            e.confidence = (e.confidence + 1).min(3);
            // Advance the frontier in the stride direction.
            let ahead = if e.stride > 0 { line > e.frontier } else { line < e.frontier };
            if ahead {
                e.frontier = line;
            }
        } else {
            e.confidence = e.confidence.saturating_sub(1);
            if e.confidence == 0 {
                // Adopt the smallest step as the stride magnitude, with the
                // sign of the stream's long-run direction: interleaved
                // threadlets jitter backwards without reversing the stream.
                let dir = line as i64 - e.origin as i64;
                let mag = delta.abs();
                e.stride = if dir < 0 { -mag } else { mag };
                e.frontier = line;
            }
        }
        e.last_line = line;
        if e.confidence >= 2 && e.stride != 0 {
            run(e.frontier, e.stride, self.degree as i64)
        } else {
            run(0, 0, 0)
        }
    }
}

/// The lines `base + k * stride` for `k` in `1..=count`, skipping any that
/// would leave the address space.
fn run(base: u64, stride: i64, count: i64) -> impl Iterator<Item = u64> {
    (1..=count).filter_map(move |k| base.checked_add_signed(stride * k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_unit_stride() {
        let mut p = StridePrefetcher::new(16, 2);
        let mut out = Vec::new();
        for i in 0..6 {
            out = p.train(0x40, 100 + i).collect();
        }
        assert_eq!(out, vec![106, 107]);
    }

    #[test]
    fn learns_negative_stride() {
        let mut p = StridePrefetcher::new(16, 1);
        let mut out = Vec::new();
        for i in 0..6u64 {
            out = p.train(0x40, 100 - i * 2).collect();
        }
        assert_eq!(out, vec![88]);
    }

    #[test]
    fn tolerates_interleaved_threadlet_order() {
        // Four threadlets issue the same-PC stream out of order:
        // 100, 102, 101, 104, 103, 106, 105, ... (stride 1, jitter ±2).
        let mut p = StridePrefetcher::new(16, 2);
        let seq = [100u64, 102, 101, 104, 103, 106, 105, 108, 107, 110];
        let mut fired = 0;
        let mut max_target = 0;
        for &l in &seq {
            let out: Vec<u64> = p.train(0x40, l).collect();
            if !out.is_empty() {
                fired += 1;
                max_target = max_target.max(*out.iter().max().unwrap());
            }
        }
        assert!(fired >= 5, "interleaving must not destroy confidence ({fired})");
        assert!(max_target > 110, "prefetches ahead of the frontier");
    }

    #[test]
    fn no_prefetch_for_random_pattern() {
        let mut p = StridePrefetcher::new(16, 4);
        for line in [5u64, 900, 33, 1022, 7, 512] {
            assert_eq!(p.train(0x40, line).count(), 0);
        }
    }

    #[test]
    fn degree_zero_disables() {
        let mut p = StridePrefetcher::new(16, 0);
        for i in 0..10 {
            assert_eq!(p.train(0x40, i).count(), 0);
        }
    }

    #[test]
    fn pc_aliasing_reallocates() {
        let mut p = StridePrefetcher::new(2, 1);
        for i in 0..5 {
            let _ = p.train(0x2, 10 + i);
        }
        assert_eq!(p.train(0x4, 1000).count(), 0);
    }
}
