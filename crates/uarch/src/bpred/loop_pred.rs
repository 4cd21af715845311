//! Loop termination predictor (the "Loop" component of L-TAGE; Table 1:
//! "256-entry Loop").
//!
//! Learns the trip count of regular loops and predicts the exit iteration
//! exactly, overriding TAGE when confident.

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LoopEntry {
    tag: u32,
    trip: u32,      // learned iteration count between not-taken outcomes
    current: u32,   // iterations seen since last exit
    confidence: u8, // saturating confidence, predicts when >= CONF_THRESHOLD
    valid: bool,
}

const CONF_THRESHOLD: u8 = 3;
const CONF_MAX: u8 = 7;

/// Prediction from the loop predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopLookup {
    /// Direction prediction, if the predictor is confident for this branch.
    pub taken: Option<bool>,
}

/// A tagged table of loop trip counters.
///
/// The predictor models backward loop branches that are taken `trip` times
/// and then fall through once per loop visit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopPredictor {
    entries: Vec<LoopEntry>,
}

impl LoopPredictor {
    /// Creates a predictor with `entries` slots (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> LoopPredictor {
        assert!(entries.is_power_of_two());
        LoopPredictor { entries: vec![LoopEntry::default(); entries] }
    }

    fn slot(&self, pc: u64) -> usize {
        (pc % self.entries.len() as u64) as usize
    }

    fn tag(pc: u64) -> u32 {
        ((pc >> 8) ^ pc) as u32 | 1
    }

    /// Predicts the branch at `pc`: `Some(direction)` when confident.
    pub fn predict(&self, pc: u64) -> LoopLookup {
        let e = &self.entries[self.slot(pc)];
        if e.valid && e.tag == Self::tag(pc) && e.confidence >= CONF_THRESHOLD {
            // Taken while below the learned trip count, not-taken at it.
            LoopLookup { taken: Some(e.current < e.trip) }
        } else {
            LoopLookup { taken: None }
        }
    }

    /// Trains with the resolved outcome of the branch at `pc`.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let slot = self.slot(pc);
        let tag = Self::tag(pc);
        let e = &mut self.entries[slot];
        if !e.valid || e.tag != tag {
            // Allocate only on a not-taken outcome (potential loop exit) so
            // `current` phases align with loop visits.
            if !taken {
                *e = LoopEntry { tag, trip: 0, current: 0, confidence: 0, valid: true };
            }
            return;
        }
        if taken {
            e.current = e.current.saturating_add(1);
            // A taken outcome past the learned trip count is a misprediction.
            if e.current > e.trip {
                e.confidence = 0;
            }
        } else {
            if e.current == e.trip {
                e.confidence = (e.confidence + 1).min(CONF_MAX);
            } else {
                e.trip = e.current;
                e.confidence = 0;
            }
            e.current = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn visit(p: &mut LoopPredictor, pc: u64, trip: u32) -> (u64, u64) {
        // One loop visit: `trip` taken outcomes then one not-taken.
        let (mut right, mut total) = (0, 0);
        for i in 0..=trip {
            let taken = i < trip;
            if let Some(pred) = p.predict(pc).taken {
                total += 1;
                if pred == taken {
                    right += 1;
                }
            }
            p.update(pc, taken);
        }
        (right, total)
    }

    #[test]
    fn learns_fixed_trip_count_exactly() {
        let mut p = LoopPredictor::new(256);
        for _ in 0..6 {
            visit(&mut p, 0x80, 17);
        }
        let (right, total) = visit(&mut p, 0x80, 17);
        assert_eq!(total, 18, "confident on every iteration");
        assert_eq!(right, 18, "including the exit");
    }

    #[test]
    fn trip_change_resets_confidence() {
        let mut p = LoopPredictor::new(256);
        for _ in 0..6 {
            visit(&mut p, 0x80, 10);
        }
        visit(&mut p, 0x80, 12); // trip changed; mispredicts, must relearn
        let (_, total) = visit(&mut p, 0x80, 12);
        // Not confident immediately after the change.
        assert_eq!(total, 0);
        for _ in 0..6 {
            visit(&mut p, 0x80, 12);
        }
        let (right, total) = visit(&mut p, 0x80, 12);
        assert_eq!((right, total), (13, 13));
    }

    #[test]
    fn unconfident_for_irregular_loops() {
        let mut p = LoopPredictor::new(256);
        for t in [3u32, 9, 4, 11, 2, 13] {
            visit(&mut p, 0x80, t);
        }
        let (_, total) = visit(&mut p, 0x80, 5);
        assert_eq!(total, 0, "never confident on irregular trips");
    }
}
