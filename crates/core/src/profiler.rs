//! Engine self-profiler: sampled wall-clock accounting per pipeline stage.
//!
//! Answers "where does the *simulator's* time go?" (as opposed to the
//! telemetry layer, which accounts *simulated* cycles). Reading the clock
//! around all six stage calls of every tick would double the cost of short
//! stages, so the profiler samples: a tick of a cycle that is a multiple
//! of [`SAMPLE_PERIOD`] is timed end to end, the rest run untouched.
//! Cycles skipped after a quiet tick cost no stage time and are never
//! timed. Stage latencies are strongly
//! periodic in this engine (the same loop kernels dominate each run), so a
//! 1-in-64 systematic sample converges on the true shares within a few
//! thousand cycles while keeping overhead under a percent.
//!
//! Enable with [`crate::LoopFrogCore::enable_profiler`] — deliberately a
//! core method and not a [`crate::LoopFrogConfig`] field, so profiled and
//! unprofiled runs share a config fingerprint and the harness's
//! deduplication, caching, and determinism guarantees are untouched (the
//! report travels outside the deterministic statistics).

use lf_stats::Json;

/// One tick in every `SAMPLE_PERIOD` is wall-clock timed. A power of two,
/// so the per-tick sampling decision is a mask test.
pub const SAMPLE_PERIOD: u64 = 64;

/// The pipeline stages timed by the profiler, in tick order. Squash and
/// coherence work is attributed to the stage that triggers it (commit for
/// conflict/sync/packing squashes and store drains, writeback for
/// wrong-path recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    /// Commit (including store drains, squash cascades, coherence).
    Commit = 0,
    /// Deferred threadlet spawn service.
    Spawn = 1,
    /// Writeback (completion drain, branch resolution, recovery).
    Writeback = 2,
    /// Issue/execute (including SSB/L1D accesses).
    Issue = 3,
    /// Decode/rename (including detach capture).
    Rename = 4,
    /// Fetch (including I-cache and hint interpretation).
    Fetch = 5,
}

const STAGE_COUNT: usize = 6;
const STAGE_NAMES: [&str; STAGE_COUNT] =
    ["commit", "spawn_service", "writeback", "issue", "rename", "fetch"];

/// Sampled wall-clock time of one pipeline stage.
#[derive(Debug, Clone)]
pub struct StageProfile {
    /// Stage name (`commit`, `spawn_service`, `writeback`, `issue`,
    /// `rename`, `fetch`).
    pub name: &'static str,
    /// Wall-clock nanoseconds accumulated over sampled ticks.
    pub sampled_ns: u64,
}

/// The self-profiler's result: per-stage wall-clock shares estimated from
/// sampled ticks. Shares are relative to the total sampled stage time;
/// `sampled_ns / sampled_ticks` estimates a stage's cost per *ticked*
/// cycle. Cycles the core skips after a quiet tick (DESIGN.md §10.8) are
/// never timed, so scaling by `total_ticks` would overstate the total.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Ticks that were wall-clock timed.
    pub sampled_ticks: u64,
    /// Simulated cycles while the profiler was enabled, skipped quiet
    /// cycles included.
    pub total_ticks: u64,
    /// Per-stage sampled totals, in tick order.
    pub stages: Vec<StageProfile>,
}

impl ProfileReport {
    /// Total sampled nanoseconds across all stages.
    pub fn sampled_total_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.sampled_ns).sum()
    }

    /// The fraction of sampled stage time spent in `name`, or 0.0 for an
    /// unknown stage or an empty profile.
    pub fn share(&self, name: &str) -> f64 {
        let total = self.sampled_total_ns();
        if total == 0 {
            return 0.0;
        }
        self.stages
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.sampled_ns as f64 / total as f64)
            .unwrap_or(0.0)
    }

    /// Renders the report as JSON (stage list plus sampling metadata).
    pub fn to_json(&self) -> Json {
        let total = self.sampled_total_ns();
        let mut stages = Vec::new();
        for s in &self.stages {
            let mut o = Json::obj();
            o.set("name", Json::Str(s.name.to_string()));
            o.set("sampled_ns", Json::Num(s.sampled_ns as f64));
            let share = if total == 0 { 0.0 } else { s.sampled_ns as f64 / total as f64 };
            o.set("share", Json::Num(share));
            stages.push(o);
        }
        let mut j = Json::obj();
        j.set("sample_period", Json::Num(SAMPLE_PERIOD as f64));
        j.set("sampled_ticks", Json::Num(self.sampled_ticks as f64));
        j.set("total_ticks", Json::Num(self.total_ticks as f64));
        j.set("sampled_total_ns", Json::Num(total as f64));
        j.set("stages", Json::Arr(stages));
        j
    }
}

/// Accumulates sampled per-stage durations while the core runs.
#[derive(Debug, Default)]
pub(crate) struct Profiler {
    stage_ns: [u64; STAGE_COUNT],
    sampled_ticks: u64,
}

impl Profiler {
    pub(crate) fn new() -> Profiler {
        Profiler::default()
    }

    /// Whether tick `cycle` is a sampled tick.
    #[inline]
    pub(crate) fn is_sample(cycle: u64) -> bool {
        cycle & (SAMPLE_PERIOD - 1) == 0
    }

    #[inline]
    pub(crate) fn record(&mut self, stage: Stage, ns: u64) {
        self.stage_ns[stage as usize] += ns;
    }

    #[inline]
    pub(crate) fn count_tick(&mut self) {
        self.sampled_ticks += 1;
    }

    pub(crate) fn report(&self, total_ticks: u64) -> ProfileReport {
        ProfileReport {
            sampled_ticks: self.sampled_ticks,
            total_ticks,
            stages: STAGE_NAMES
                .iter()
                .zip(self.stage_ns.iter())
                .map(|(&name, &sampled_ns)| StageProfile { name, sampled_ns })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_mask_matches_period() {
        assert!(Profiler::is_sample(0));
        assert!(!Profiler::is_sample(1));
        assert!(!Profiler::is_sample(SAMPLE_PERIOD - 1));
        assert!(Profiler::is_sample(SAMPLE_PERIOD));
        assert!(Profiler::is_sample(SAMPLE_PERIOD * 7));
    }

    #[test]
    fn report_shares_sum_to_one() {
        let mut p = Profiler::new();
        p.record(Stage::Commit, 300);
        p.record(Stage::Issue, 500);
        p.record(Stage::Fetch, 200);
        p.count_tick();
        let r = p.report(64);
        assert_eq!(r.sampled_ticks, 1);
        assert_eq!(r.total_ticks, 64);
        assert_eq!(r.sampled_total_ns(), 1000);
        assert!((r.share("issue") - 0.5).abs() < 1e-12);
        assert!((r.share("commit") - 0.3).abs() < 1e-12);
        assert_eq!(r.share("no_such_stage"), 0.0);
        let sum: f64 = STAGE_NAMES.iter().map(|n| r.share(n)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_has_zero_shares() {
        let r = Profiler::new().report(0);
        assert_eq!(r.share("commit"), 0.0);
        assert_eq!(r.sampled_total_ns(), 0);
    }

    #[test]
    fn json_shape() {
        let mut p = Profiler::new();
        p.record(Stage::Rename, 10);
        p.count_tick();
        let j = p.report(64).to_json();
        let s = j.to_string_pretty();
        assert!(s.contains("\"sample_period\""));
        assert!(s.contains("\"stages\""));
        assert!(s.contains("\"rename\""));
        assert!(s.contains("\"share\""));
    }
}
