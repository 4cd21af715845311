//! Iteration packing predictors (paper §4.3).
//!
//! Three cooperating predictors decide whether a `detach` should jump more
//! than one iteration ahead:
//!
//! 1. an exponential moving average of iteration sizes estimates the epoch
//!    size `S`, from which the packing factor `P` is derived (smallest `P`
//!    with `P × S` above the target epoch size);
//! 2. an induction-variable detector derives the register loop-carried
//!    dependencies from cumulative per-iteration read/write sets (a register
//!    is an IV if it is written each iteration *and* its new value is
//!    consumed by the next iteration);
//! 3. a strided value predictor with saturating confidence predicts each
//!    IV's starting value `P − 1` iterations ahead.
//!
//! Packing is only performed when every IV is confidently predictable; the
//! engine later verifies predictions against the parent's final register
//! values and patches or squashes (§4.3).

use crate::config::PackingConfig;
use crate::regset::RegSet;
use lf_isa::RegionId;
use lf_stats::Ema;
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, Default)]
struct StridePred {
    last: u64,
    stride: i64,
    confidence: u8,
    trained: bool,
}

const CONF_MAX: u8 = 7;
/// Penalty applied to confidence on a stride mismatch ("small positive
/// update on success and large penalty on failure").
const CONF_PENALTY: u8 = 4;

#[derive(Debug, Clone)]
struct RegionState {
    size_ema: Ema,
    iters_observed: u32,
    /// Registers written during the previous iteration.
    prev_written: RegSet,
    /// Current induction-variable candidate set.
    ivs: RegSet,
    values: HashMap<usize, StridePred>,
}

/// A packing decision for one detach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackDecision {
    /// Iterations per epoch (1 = no packing).
    pub factor: u32,
    /// Predicted start values `(arch_reg, value, stride)` for the successor
    /// when `factor > 1` (the value `factor − 1` strides ahead). The spawn
    /// recomputes from the parent's live register when available, using
    /// `stride`.
    pub predictions: Vec<(usize, u64, i64)>,
}

impl PackDecision {
    /// The no-packing decision.
    pub fn unpacked() -> PackDecision {
        PackDecision { factor: 1, predictions: Vec::new() }
    }
}

/// Per-region packing predictor state.
#[derive(Debug, Clone)]
pub struct PackingPredictors {
    cfg: PackingConfig,
    regions: HashMap<RegionId, RegionState>,
}

impl PackingPredictors {
    /// Creates the predictors.
    pub fn new(cfg: &PackingConfig) -> PackingPredictors {
        PackingPredictors { cfg: cfg.clone(), regions: HashMap::new() }
    }

    fn region(&mut self, r: RegionId) -> &mut RegionState {
        let alpha = self.cfg.alpha;
        self.regions.entry(r).or_insert_with(|| RegionState {
            size_ema: Ema::new(alpha),
            iters_observed: 0,
            prev_written: RegSet::default(),
            ivs: RegSet::default(),
            values: HashMap::new(),
        })
    }

    /// Feeds one completed iteration of `region`: the registers written
    /// during it, the registers it read before writing (live-ins), and its
    /// dynamic size in instructions.
    pub fn observe_iteration(
        &mut self,
        region: RegionId,
        written: RegSet,
        read_before_write: RegSet,
        size: u64,
    ) {
        let st = self.region(region);
        st.size_ema.update(size as f64);
        st.iters_observed += 1;
        // IV candidates: written last iteration AND consumed (read before
        // written) this iteration AND written again this iteration.
        if st.iters_observed >= 2 {
            let cand = st.prev_written.intersection(read_before_write).intersection(written);
            // The IV set converges to the intersection over iterations.
            st.ivs = if st.iters_observed == 2 { cand } else { st.ivs.intersection(cand) };
        }
        st.prev_written = written;
    }

    /// Trains the strided value predictor with `reg`'s value observed at a
    /// detach of `region` (the IV's value for the current iteration).
    pub fn train_value(&mut self, region: RegionId, reg: usize, value: u64) {
        let st = self.region(region);
        let p = st.values.entry(reg).or_default();
        if !p.trained {
            *p = StridePred { last: value, stride: 0, confidence: 0, trained: true };
            return;
        }
        let stride = value.wrapping_sub(p.last) as i64;
        if stride == p.stride {
            p.confidence = (p.confidence + 1).min(CONF_MAX);
        } else {
            p.confidence = p.confidence.saturating_sub(CONF_PENALTY);
            if p.confidence == 0 {
                // Reset both starting value and offset (paper §4.3).
                p.stride = stride;
            }
        }
        p.last = value;
    }

    /// Penalizes a region's value predictor after a verified misprediction
    /// (a squashed packed successor), suppressing further packing until the
    /// predictor retrains.
    pub fn on_mispredict(&mut self, region: RegionId, reg: usize) {
        let st = self.region(region);
        if let Some(v) = st.values.get_mut(&reg) {
            v.confidence = 0;
        }
    }

    /// The current induction-variable set for a region, if it was observed.
    pub fn ivs(&self, region: RegionId) -> Option<RegSet> {
        self.regions.get(&region).map(|s| s.ivs)
    }

    /// Decides the packing factor for a detach of `region`, with predicted
    /// successor start values for every IV. Returns the unpacked decision
    /// unless the region is trained, the estimated iteration size warrants
    /// packing, and *all* IVs are confidently predictable.
    pub fn decide(&mut self, region: RegionId) -> PackDecision {
        if !self.cfg.enabled {
            return PackDecision::unpacked();
        }
        let target = self.cfg.target_epoch_size as f64;
        let max_factor = self.cfg.max_factor;
        let threshold = self.cfg.confidence_threshold;
        let Some(st) = self.regions.get(&region) else {
            return PackDecision::unpacked();
        };
        if st.iters_observed < 4 || st.ivs.is_empty() {
            return PackDecision::unpacked();
        }
        let Some(s) = st.size_ema.value() else {
            return PackDecision::unpacked();
        };
        if s <= 0.0 {
            return PackDecision::unpacked();
        }
        // Largest P with P × S ≤ target: epochs are packed up to the
        // target size, and iterations at or above it are never packed
        // (packing is for ultra-small iterations; §4.3).
        let p = ((target / s).floor() as u32).min(max_factor);
        if p < 2 {
            return PackDecision::unpacked();
        }
        // Every IV must be confidently predictable. Predictions come out in
        // ascending register order, the order `RegSet` iterates in.
        let mut predictions = Vec::new();
        for reg in st.ivs.iter() {
            match st.values.get(&reg) {
                Some(v) if v.confidence >= threshold => {
                    let ahead = v.stride.wrapping_mul((p - 1) as i64);
                    predictions.push((reg, v.last.wrapping_add(ahead as u64), v.stride));
                }
                _ => return PackDecision::unpacked(),
            }
        }
        // Verify-build invariant: a packed decision stays within
        // [2, max_factor] and predicts every detected IV exactly once.
        #[cfg(feature = "verify")]
        {
            assert!((2..=max_factor).contains(&p), "packing factor {p} outside [2, {max_factor}]");
            assert_eq!(predictions.len(), st.ivs.len(), "one prediction per IV");
        }
        PackDecision { factor: p, predictions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(regs: &[usize]) -> RegSet {
        regs.iter().copied().collect()
    }

    fn train_simple_loop(p: &mut PackingPredictors, region: RegionId, iters: u32, size: u64) {
        // IV in register 5, stride 8; register 6 is a scratch (written but
        // not consumed); register 7 is a live-in invariant (read only).
        for i in 0..iters {
            p.train_value(region, 5, (i as u64) * 8);
            p.observe_iteration(region, set(&[5, 6]), set(&[5, 7]), size);
        }
    }

    #[test]
    fn detects_iv_and_rejects_scratch_and_invariants() {
        let mut p = PackingPredictors::new(&PackingConfig::default());
        let r = RegionId(10);
        train_simple_loop(&mut p, r, 6, 20);
        let ivs = p.ivs(r).unwrap();
        assert!(ivs.contains(5));
        assert!(!ivs.contains(6), "scratch is not an IV");
        assert!(!ivs.contains(7), "read-only live-in is not an IV");
    }

    #[test]
    fn packs_small_iterations_with_strided_prediction() {
        let cfg = PackingConfig { target_epoch_size: 100, ..PackingConfig::default() };
        let mut p = PackingPredictors::new(&cfg);
        let r = RegionId(10);
        train_simple_loop(&mut p, r, 8, 20);
        let d = p.decide(r);
        // S ≈ 20, target 100 → P = floor(100/20) = 5.
        assert_eq!(d.factor, 5);
        assert_eq!(d.predictions.len(), 1);
        let (reg, val, stride) = d.predictions[0];
        assert_eq!(reg, 5);
        // last value was 7*8 = 56; 4 strides ahead → 56 + 4*8 = 88.
        assert_eq!(val, 88);
        assert_eq!(stride, 8);
    }

    #[test]
    fn large_iterations_do_not_pack() {
        let cfg = PackingConfig { target_epoch_size: 100, ..PackingConfig::default() };
        let mut p = PackingPredictors::new(&cfg);
        let r = RegionId(3);
        train_simple_loop(&mut p, r, 8, 500);
        assert_eq!(p.decide(r), PackDecision::unpacked());
    }

    #[test]
    fn unconfident_iv_blocks_packing() {
        let cfg = PackingConfig { target_epoch_size: 100, ..PackingConfig::default() };
        let mut p = PackingPredictors::new(&cfg);
        let r = RegionId(4);
        // Noisy IV values: stride never repeats.
        let noisy = [0u64, 3, 11, 12, 40, 41, 77, 90];
        for (i, v) in noisy.iter().enumerate() {
            p.train_value(r, 5, *v);
            let _ = i;
            p.observe_iteration(r, set(&[5]), set(&[5]), 20);
        }
        assert_eq!(p.decide(r), PackDecision::unpacked());
    }

    #[test]
    fn confidence_recovers_after_phase_change() {
        let cfg = PackingConfig {
            target_epoch_size: 100,
            confidence_threshold: 3,
            ..PackingConfig::default()
        };
        let mut p = PackingPredictors::new(&cfg);
        let r = RegionId(5);
        train_simple_loop(&mut p, r, 8, 20);
        assert!(p.decide(r).factor > 1);
        // Stride change: confidence collapses...
        p.train_value(r, 5, 1000);
        p.observe_iteration(r, set(&[5]), set(&[5]), 20);
        p.train_value(r, 5, 1003);
        p.observe_iteration(r, set(&[5]), set(&[5]), 20);
        assert_eq!(p.decide(r).factor, 1);
        // ...then rebuilds on the new stride.
        for i in 2..10u64 {
            p.train_value(r, 5, 1000 + i * 3);
            p.observe_iteration(r, set(&[5]), set(&[5]), 20);
        }
        assert!(p.decide(r).factor > 1);
    }

    #[test]
    fn factor_clamps_at_max_factor() {
        // Ultra-small iterations against a huge target: raw P = floor(1000/4)
        // = 250, clamped to the default max_factor of 25 (a packed epoch's
        // squash cost grows with P, so the paper caps it).
        let cfg = PackingConfig { target_epoch_size: 1000, ..PackingConfig::default() };
        let mut p = PackingPredictors::new(&cfg);
        let r = RegionId(11);
        train_simple_loop(&mut p, r, 8, 4);
        let d = p.decide(r);
        assert_eq!(d.factor, 25);
        // The prediction reaches P − 1 = 24 strides past the last value
        // (56): 56 + 24*8 = 248.
        assert_eq!(d.predictions, vec![(5, 248, 8)]);

        // An explicit tighter cap wins over the size-derived factor too.
        let cfg = PackingConfig { target_epoch_size: 1000, max_factor: 3, ..cfg };
        let mut p = PackingPredictors::new(&cfg);
        train_simple_loop(&mut p, r, 8, 4);
        let d = p.decide(r);
        assert_eq!(d.factor, 3);
        assert_eq!(d.predictions, vec![(5, 56 + 2 * 8, 8)]);
    }

    #[test]
    fn factor_one_boundary_stays_unpacked() {
        // S == target → P = 1, which is no packing at all; just below the
        // 2× threshold (S in (target/2, target]) still yields P = 1.
        let cfg = PackingConfig { target_epoch_size: 100, ..PackingConfig::default() };
        let mut p = PackingPredictors::new(&cfg);
        let r = RegionId(12);
        train_simple_loop(&mut p, r, 8, 100);
        assert_eq!(p.decide(r), PackDecision::unpacked());

        let mut p = PackingPredictors::new(&cfg);
        train_simple_loop(&mut p, r, 8, 60);
        assert_eq!(p.decide(r), PackDecision::unpacked());

        // Exactly at the threshold (S == target/2) the first packed factor
        // appears.
        let mut p = PackingPredictors::new(&cfg);
        train_simple_loop(&mut p, r, 8, 50);
        assert_eq!(p.decide(r).factor, 2);
    }

    #[test]
    fn one_unconfident_iv_among_confident_blocks_packing() {
        // Two IVs: reg 5 strides perfectly, reg 6 is erratic. Packing
        // requires *every* IV to be predictable, so the region falls back
        // to unpacked until reg 6 settles.
        let cfg = PackingConfig { target_epoch_size: 100, ..PackingConfig::default() };
        let mut p = PackingPredictors::new(&cfg);
        let r = RegionId(13);
        let noisy = [0u64, 3, 11, 12, 40, 41, 77, 90];
        for (i, v) in noisy.iter().enumerate() {
            p.train_value(r, 5, (i as u64) * 8);
            p.train_value(r, 6, *v);
            p.observe_iteration(r, set(&[5, 6]), set(&[5, 6]), 20);
        }
        assert_eq!(p.ivs(r), Some(set(&[5, 6])));
        assert_eq!(p.decide(r), PackDecision::unpacked());
        // Once reg 6 locks onto a stride, both IVs are predicted.
        for i in 0..8u64 {
            p.train_value(r, 5, 64 + i * 8);
            p.train_value(r, 6, 100 + i * 4);
            p.observe_iteration(r, set(&[5, 6]), set(&[5, 6]), 20);
        }
        let d = p.decide(r);
        assert_eq!(d.factor, 5);
        assert_eq!(d.predictions.len(), 2);
    }

    #[test]
    fn mispredict_suppresses_packing_until_retrained() {
        let cfg = PackingConfig { target_epoch_size: 100, ..PackingConfig::default() };
        let mut p = PackingPredictors::new(&cfg);
        let r = RegionId(14);
        train_simple_loop(&mut p, r, 8, 20);
        assert_eq!(p.decide(r).factor, 5);
        // A verified misprediction zeroes confidence: no packing even
        // though the stride tables still hold the old pattern.
        p.on_mispredict(r, 5);
        assert_eq!(p.decide(r), PackDecision::unpacked());
        // Continued correct strides rebuild confidence to the threshold.
        for i in 8..13u32 {
            p.train_value(r, 5, (i as u64) * 8);
            p.observe_iteration(r, set(&[5, 6]), set(&[5, 7]), 20);
        }
        assert_eq!(p.decide(r).factor, 5);
    }

    #[test]
    fn disabled_packing_always_unpacked() {
        let cfg =
            PackingConfig { enabled: false, target_epoch_size: 100, ..PackingConfig::default() };
        let mut p = PackingPredictors::new(&cfg);
        let r = RegionId(6);
        train_simple_loop(&mut p, r, 10, 10);
        assert_eq!(p.decide(r), PackDecision::unpacked());
    }

    #[test]
    fn untrained_region_unpacked() {
        let mut p = PackingPredictors::new(&PackingConfig::default());
        assert_eq!(p.decide(RegionId(99)), PackDecision::unpacked());
    }
}
