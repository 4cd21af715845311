//! Dynamic loop deselection (paper §5.1).
//!
//! "Dynamic selection avoids unprofitable parallelization by ignoring hints
//! and treating them as NOPs. … unprofitable loops must be excluded by
//! either static or dynamic deselection, as they may lead to slowdown.
//! … [a solution] may be based on performance counters."
//!
//! This monitor watches each region's epochs at run time and suppresses a
//! region's hints once its observed behaviour predicts a loss: epochs that
//! keep squashing on conflicts, keep overflowing the SSB, or are too small
//! to pay the spawn overhead. Suppression is periodically reconsidered so
//! phase changes can re-enable a region.

use lf_isa::RegionId;
use std::collections::HashMap;

/// Per-region profitability counters.
#[derive(Debug, Clone, Default)]
struct RegionScore {
    /// Epochs spawned for this region.
    spawned: u64,
    /// Epochs squashed by memory conflicts.
    conflicts: u64,
    /// SSB overflow stalls attributed to this region.
    overflows: u64,
    /// Epochs retired successfully.
    retired: u64,
    /// Sum of committed instructions over retired epochs.
    retired_insts: u64,
    /// Region currently suppressed.
    suppressed: bool,
    /// Spawns observed while suppressed (drives periodic re-evaluation).
    observed_while_suppressed: u64,
}

/// Tunable thresholds for the dynamic deselector.
#[derive(Debug, Clone, PartialEq)]
pub struct DeselectConfig {
    /// Master enable (off reproduces the paper's headline configuration,
    /// which relies on static selection only).
    pub enabled: bool,
    /// Epochs to observe before judging a region.
    pub warmup_epochs: u64,
    /// Suppress when conflicts-per-retired-epoch exceeds this.
    pub max_conflict_rate: f64,
    /// Suppress when more than this fraction of spawned epochs hit an SSB
    /// overflow stall (each epoch reports at most one overflow event).
    pub max_overflow_rate: f64,
    /// Suppress when the mean retired epoch is smaller than this (too
    /// little work to pay the spawn overhead).
    pub min_epoch_insts: f64,
    /// Re-evaluate a suppressed region after this many ignored detaches.
    pub retry_after: u64,
}

impl Default for DeselectConfig {
    fn default() -> DeselectConfig {
        DeselectConfig {
            enabled: false,
            warmup_epochs: 8,
            // Conservative: only a real storm (conflicts well past one per
            // retired epoch) is suppressed — regions like the paper's
            // povray profit from failed speculation's prefetching.
            max_conflict_rate: 2.0,
            max_overflow_rate: 0.25,
            min_epoch_insts: 4.0,
            retry_after: 256,
        }
    }
}

/// Run-time region profitability monitor.
#[derive(Debug, Clone)]
pub struct Deselector {
    cfg: DeselectConfig,
    regions: HashMap<RegionId, RegionScore>,
    /// Monitors of sibling configurations fed this one's events (an armed
    /// run; see [`Deselector::shadow`]).
    shadows: Vec<Shadow>,
}

/// A monitor of a sibling configuration that follows a run whose own
/// deselection is off (DESIGN.md §8.4). It takes every event the run's
/// monitor takes and *diverges* the first time it suppresses a region.
/// Until then it has answered every `is_suppressed` query as the run's own
/// monitor did, so a run under its configuration would have taken every
/// step the shadowed run took, and counted no suppressed region.
#[derive(Debug, Clone)]
struct Shadow {
    monitor: Deselector,
    diverged: bool,
}

impl Deselector {
    /// Creates a monitor.
    pub fn new(cfg: &DeselectConfig) -> Deselector {
        Deselector { cfg: cfg.clone(), regions: HashMap::new(), shadows: Vec::new() }
    }

    /// Arms one shadow for each distinct enabled configuration among
    /// `siblings`. This monitor's own deselection must be off: a shadow
    /// stands for its configuration only while neither monitor suppresses.
    pub(crate) fn shadow<'a>(&mut self, siblings: impl IntoIterator<Item = &'a DeselectConfig>) {
        debug_assert!(!self.cfg.enabled, "only a monitor that never suppresses is shadowed");
        for cfg in siblings {
            if cfg.enabled && !self.shadows.iter().any(|s| s.monitor.cfg == *cfg) {
                self.shadows.push(Shadow { monitor: Deselector::new(cfg), diverged: false });
            }
        }
    }

    /// The shadowed configurations that never suppressed a region.
    pub(crate) fn undiverged_shadows(&self) -> Vec<DeselectConfig> {
        self.shadows.iter().filter(|s| !s.diverged).map(|s| s.monitor.cfg.clone()).collect()
    }

    /// Feeds an event concerning `region` to every live shadow. An event
    /// re-evaluates at most its own region, so a shadow that now
    /// suppresses any region suppresses `region`.
    fn feed(&mut self, region: RegionId, event: impl Fn(&mut Deselector)) {
        for s in self.shadows.iter_mut().filter(|s| !s.diverged) {
            event(&mut s.monitor);
            s.diverged = s.monitor.is_suppressed(region);
        }
    }

    /// Whether `region`'s hints should currently be treated as NOPs.
    pub fn is_suppressed(&self, region: RegionId) -> bool {
        if !self.cfg.enabled {
            return false;
        }
        self.regions.get(&region).is_some_and(|s| s.suppressed)
    }

    /// Advances a suppressed region's retry clock by one *committed*
    /// detach (wrong-path fetches never commit, so pacing tracks real
    /// architectural progress); after `retry_after` ignored detaches the
    /// region gets a clean slate.
    pub fn note_suppressed_detach(&mut self, region: RegionId) {
        self.feed(region, |d| d.note_suppressed_detach(region));
        if !self.cfg.enabled {
            return;
        }
        let retry_after = self.cfg.retry_after;
        let Some(s) = self.regions.get_mut(&region) else { return };
        if !s.suppressed {
            return;
        }
        s.observed_while_suppressed += 1;
        if s.observed_while_suppressed >= retry_after {
            *s = RegionScore::default();
        }
    }

    fn reevaluate(&mut self, region: RegionId) {
        let (warmup, max_conflict, max_overflow, min_insts) = (
            self.cfg.warmup_epochs,
            self.cfg.max_conflict_rate,
            self.cfg.max_overflow_rate,
            self.cfg.min_epoch_insts,
        );
        let Some(s) = self.regions.get_mut(&region) else { return };
        if s.spawned < warmup {
            return;
        }
        let spawned = s.spawned as f64;
        // Squash-recycled successors are respawned, inflating the spawn
        // count; retired epochs are the honest denominator for conflicts.
        // Judging conflicts before enough epochs retired would mistake a
        // startup burst for a storm (and benchmarks like the paper's povray
        // profit from failed speculation's prefetching side effects, so
        // over-eager suppression costs real speedup).
        let enough_retires = s.retired >= warmup / 2;
        let conflict_rate = s.conflicts as f64 / s.retired.max(1) as f64;
        let overflow_rate = s.overflows as f64 / spawned;
        let mean_insts =
            if s.retired == 0 { 0.0 } else { s.retired_insts as f64 / s.retired as f64 };
        if (enough_retires && conflict_rate > max_conflict)
            || overflow_rate > max_overflow
            || (enough_retires && mean_insts < min_insts)
        {
            s.suppressed = true;
            s.observed_while_suppressed = 0;
        }
    }

    /// Records a spawn for `region`.
    pub fn on_spawn(&mut self, region: RegionId) {
        self.feed(region, |d| d.on_spawn(region));
        if self.cfg.enabled {
            self.regions.entry(region).or_default().spawned += 1;
        }
    }

    /// Records a conflict squash of an epoch of `region`.
    pub fn on_conflict(&mut self, region: RegionId) {
        self.feed(region, |d| d.on_conflict(region));
        if self.cfg.enabled {
            self.regions.entry(region).or_default().conflicts += 1;
            self.reevaluate(region);
        }
    }

    /// Records an SSB overflow stall for an epoch of `region`.
    pub fn on_overflow(&mut self, region: RegionId) {
        self.feed(region, |d| d.on_overflow(region));
        if self.cfg.enabled {
            self.regions.entry(region).or_default().overflows += 1;
            self.reevaluate(region);
        }
    }

    /// Records a successful epoch retirement of `insts` instructions.
    pub fn on_retire(&mut self, region: RegionId, insts: u64) {
        self.feed(region, |d| d.on_retire(region, insts));
        if self.cfg.enabled {
            let s = self.regions.entry(region).or_default();
            s.retired += 1;
            s.retired_insts += insts;
            self.reevaluate(region);
        }
    }

    /// Number of currently suppressed regions (statistics).
    pub fn suppressed_count(&self) -> usize {
        self.regions.values().filter(|s| s.suppressed).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled() -> DeselectConfig {
        DeselectConfig { enabled: true, ..DeselectConfig::default() }
    }

    #[test]
    fn disabled_never_suppresses() {
        let mut d = Deselector::new(&DeselectConfig::default());
        let r = RegionId(5);
        for _ in 0..100 {
            d.on_spawn(r);
            d.on_conflict(r);
        }
        assert!(!d.is_suppressed(r));
        assert_eq!(d.suppressed_count(), 0);
    }

    #[test]
    fn conflict_storm_suppresses_after_warmup() {
        let mut d = Deselector::new(&enabled());
        let r = RegionId(5);
        // Warmup: spawns, retires, and a growing pile of conflicts.
        for _ in 0..7 {
            d.on_spawn(r);
            d.on_retire(r, 50);
            d.on_conflict(r);
            d.on_conflict(r);
            d.on_conflict(r);
            assert!(!d.is_suppressed(r), "still warming up");
        }
        d.on_spawn(r);
        d.on_retire(r, 50);
        d.on_conflict(r);
        assert!(d.is_suppressed(r), "3 conflicts per retired epoch is a storm");
        assert_eq!(d.suppressed_count(), 1);
    }

    #[test]
    fn healthy_region_stays_selected() {
        let mut d = Deselector::new(&enabled());
        let r = RegionId(9);
        for _ in 0..100 {
            d.on_spawn(r);
            d.on_retire(r, 50);
        }
        assert!(!d.is_suppressed(r));
    }

    #[test]
    fn tiny_epochs_are_suppressed() {
        let mut d = Deselector::new(&enabled());
        let r = RegionId(2);
        for _ in 0..10 {
            d.on_spawn(r);
            d.on_retire(r, 2);
        }
        assert!(d.is_suppressed(r));
    }

    #[test]
    fn suppression_retries_after_a_while() {
        let cfg = DeselectConfig { retry_after: 10, ..enabled() };
        let mut d = Deselector::new(&cfg);
        let r = RegionId(3);
        for _ in 0..10 {
            d.on_spawn(r);
            d.on_retire(r, 50);
            d.on_conflict(r);
            d.on_conflict(r);
            d.on_conflict(r);
        }
        // The first 9 committed detaches see suppression; the 10th trips
        // the retry threshold and resets the region to a clean slate.
        for _ in 0..9 {
            assert!(d.is_suppressed(r));
            d.note_suppressed_detach(r);
        }
        d.note_suppressed_detach(r);
        assert!(!d.is_suppressed(r));
    }

    #[test]
    fn flip_flop_suppression_cycles_cleanly() {
        // suppress → retry reset → re-suppress → retry reset again: the
        // clean slate after each retry must re-run the full warmup, and a
        // region that keeps storming keeps getting re-suppressed.
        let cfg = DeselectConfig { retry_after: 10, ..enabled() };
        let mut d = Deselector::new(&cfg);
        let r = RegionId(7);
        for round in 0..3 {
            for _ in 0..10 {
                d.on_spawn(r);
                d.on_retire(r, 50);
                d.on_conflict(r);
                d.on_conflict(r);
                d.on_conflict(r);
            }
            assert!(d.is_suppressed(r), "round {round}: storm suppresses");
            // Mid-retry the region stays suppressed (no early reset).
            for k in 0..9 {
                d.note_suppressed_detach(r);
                assert!(d.is_suppressed(r), "round {round}: still suppressed at {k}");
            }
            d.note_suppressed_detach(r);
            assert!(!d.is_suppressed(r), "round {round}: retry grants a clean slate");
            // The clean slate must re-run warmup: a single early conflict
            // is not judged before `warmup_epochs` spawns.
            d.on_spawn(r);
            d.on_conflict(r);
            assert!(!d.is_suppressed(r), "round {round}: warmup restarts after reset");
        }
    }

    #[test]
    fn suppressed_detach_on_healthy_region_is_inert() {
        // The retry clock only runs for suppressed regions: committed
        // detaches of a healthy region must not erase its history.
        let cfg = DeselectConfig { retry_after: 2, ..enabled() };
        let mut d = Deselector::new(&cfg);
        let r = RegionId(8);
        for _ in 0..10 {
            d.on_spawn(r);
            d.on_retire(r, 50);
            d.note_suppressed_detach(r);
        }
        assert!(!d.is_suppressed(r));
        // History survived: a conflict storm is judged on the full record
        // (10 retires), not a freshly reset one still in warmup.
        for _ in 0..21 {
            d.on_conflict(r);
        }
        assert!(d.is_suppressed(r), "21 conflicts over 10 retires is a storm");
    }

    /// A shadow stays undiverged exactly as long as a monitor of its
    /// configuration, fed the same events, has never suppressed a region;
    /// the shadowed monitor, whose deselection is off, suppresses nothing,
    /// and a disabled sibling configuration is not shadowed.
    #[test]
    fn shadows_diverge_exactly_when_their_monitor_first_suppresses() {
        let mut rng = lf_stats::rng::SmallRng::seed_from_u64(0xde5e_1ec7);
        let siblings = [
            enabled(),
            DeselectConfig { warmup_epochs: 4, retry_after: 3, ..enabled() },
            DeselectConfig { max_conflict_rate: 1e9, min_epoch_insts: 0.0, ..enabled() },
            DeselectConfig { warmup_epochs: 2, ..DeselectConfig::default() },
        ];
        let (mut held, mut diverged) = (0, 0);
        for case in 0..300 {
            let mut own = Deselector::new(&DeselectConfig::default());
            own.shadow(&siblings);
            let mut monitors: Vec<(Deselector, bool)> =
                siblings.iter().map(|c| (Deselector::new(c), false)).collect();
            for step in 0..rng.random_range(1..=120usize) {
                let r = RegionId(rng.random_range(0..3usize));
                let insts = rng.random_range(1..=60u64);
                let event = rng.random_range(0..5u32);
                for d in std::iter::once(&mut own).chain(monitors.iter_mut().map(|(d, _)| d)) {
                    match event {
                        0 => d.on_spawn(r),
                        1 => d.on_conflict(r),
                        2 => d.on_overflow(r),
                        3 => d.on_retire(r, insts),
                        _ => d.note_suppressed_detach(r),
                    }
                }
                for (d, suppressed) in &mut monitors {
                    *suppressed |= d.suppressed_count() > 0;
                }
                let live: Vec<DeselectConfig> = siblings
                    .iter()
                    .zip(&monitors)
                    .filter(|(c, (_, suppressed))| c.enabled && !suppressed)
                    .map(|(c, _)| c.clone())
                    .collect();
                assert_eq!(own.undiverged_shadows(), live, "case {case}, step {step}");
                assert_eq!(own.suppressed_count(), 0);
            }
            let live = own.undiverged_shadows().len();
            held += live;
            diverged += 3 - live;
        }
        assert!(held > 100 && diverged > 100, "{held} held, {diverged} diverged");
    }

    #[test]
    fn regions_are_independent() {
        let mut d = Deselector::new(&enabled());
        let (bad, good) = (RegionId(1), RegionId(2));
        for _ in 0..10 {
            d.on_spawn(bad);
            d.on_retire(bad, 50);
            d.on_conflict(bad);
            d.on_conflict(bad);
            d.on_conflict(bad);
            d.on_spawn(good);
            d.on_retire(good, 100);
        }
        assert!(d.is_suppressed(bad));
        assert!(!d.is_suppressed(good));
    }
}
