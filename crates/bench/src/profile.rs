//! `lf-bench profile` — the engine self-profiler over the perf basket.
//!
//! Answers "where does the *simulator's* wall-clock time go?" per pipeline
//! stage, using the core's sampled self-profiler
//! ([`loopfrog::LoopFrogCore::enable_profiler`]) on the same frozen kernel
//! basket as `lf-bench perf`, so a throughput regression in the trajectory
//! can immediately be attributed to a stage. Sampled stage times from all
//! repetitions are pooled (shares converge with more reps; there is no
//! "best of" for a distribution), and kernels are reported individually
//! plus as a basket-wide aggregate.
//!
//! Profiling is core-side state, not configuration: the simulated results
//! of a profiled run are byte-identical to an unprofiled one.

use crate::perf::BASKET;
use crate::runner::scale_tag;
use crate::RunArtifact;
use lf_compiler::{annotate, SelectOptions};
use lf_stats::Json;
use lf_workloads::Scale;
use loopfrog::{LoopFrogConfig, LoopFrogCore, ProfileReport};
use std::path::PathBuf;

/// Options for one `lf-bench profile` invocation.
#[derive(Debug, Clone)]
pub struct ProfileOptions {
    /// Workload scale.
    pub scale: Scale,
    /// Repetitions per (kernel, config) pair; sampled times are pooled.
    pub reps: usize,
    /// Where to write the profile artifact (`None` = print only).
    pub json_path: Option<PathBuf>,
}

impl Default for ProfileOptions {
    fn default() -> ProfileOptions {
        ProfileOptions { scale: Scale::Smoke, reps: 3, json_path: None }
    }
}

/// Stage-time accumulator: pools sampled nanoseconds by stage name across
/// reports while preserving the pipeline's stage order.
#[derive(Debug, Default, Clone)]
pub(crate) struct StagePool {
    stages: Vec<(&'static str, u64)>,
    sampled_ticks: u64,
    total_ticks: u64,
}

impl StagePool {
    pub(crate) fn add(&mut self, report: &ProfileReport) {
        self.sampled_ticks += report.sampled_ticks;
        self.total_ticks += report.total_ticks;
        for s in &report.stages {
            match self.stages.iter_mut().find(|(name, _)| *name == s.name) {
                Some((_, ns)) => *ns += s.sampled_ns,
                None => self.stages.push((s.name, s.sampled_ns)),
            }
        }
    }

    fn total_ns(&self) -> u64 {
        self.stages.iter().map(|(_, ns)| ns).sum()
    }

    fn share(&self, name: &str) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            return 0.0;
        }
        self.stages
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, ns)| *ns as f64 / total as f64)
            .unwrap_or(0.0)
    }

    /// Each stage's share of the pooled sampled time, keyed by stage name.
    pub(crate) fn shares_json(&self) -> Json {
        let mut j = Json::obj();
        for (name, _) in &self.stages {
            j.set(name, self.share(name));
        }
        j
    }

    /// `<stage> <share>%` for every stage, in pipeline order.
    pub(crate) fn shares_line(&self) -> String {
        let shares: Vec<String> =
            self.stages.iter().map(|(n, _)| format!("{n} {:.1}%", self.share(n) * 100.0)).collect();
        shares.join(", ")
    }

    fn to_json(&self) -> Json {
        let total = self.total_ns();
        let mut stages = Vec::new();
        for (name, ns) in &self.stages {
            let mut o = Json::obj();
            o.set("name", *name);
            o.set("sampled_ns", *ns);
            o.set("share", if total == 0 { 0.0 } else { *ns as f64 / total as f64 });
            stages.push(o);
        }
        let mut j = Json::obj();
        j.set("sampled_ticks", self.sampled_ticks);
        j.set("total_ticks", self.total_ticks);
        j.set("sampled_total_ns", total);
        j.set("stages", Json::Arr(stages));
        j
    }
}

/// Runs the basket with the self-profiler enabled and returns the profile
/// JSON that was written (or would have been, with `json_path: None`).
pub fn run_profile(opts: &ProfileOptions) -> Json {
    let select = SelectOptions::default();
    let configs: [(&'static str, LoopFrogConfig); 2] =
        [("base", LoopFrogConfig::baseline()), ("lf", LoopFrogConfig::default())];

    let mut per_kernel: Vec<(String, StagePool)> = Vec::new();
    let mut aggregate = StagePool::default();
    for name in BASKET {
        let w = lf_workloads::by_name(name, opts.scale)
            .unwrap_or_else(|| panic!("perf basket kernel {name} is not registered"));
        let emu = w.reference_emulator().expect("basket kernel runs on the golden emulator");
        let ann = annotate(&w.program, emu.profile(), &select);
        for (tag, cfg) in &configs {
            let mut pool = StagePool::default();
            for _ in 0..opts.reps.max(1) {
                let mut core = LoopFrogCore::new(&ann.program, w.mem.clone(), cfg.clone());
                core.enable_profiler();
                let r = core.run().unwrap_or_else(|e| panic!("{name} ({tag}) failed: {e}"));
                let report = r.profile.expect("profiler was enabled");
                pool.add(&report);
                aggregate.add(&report);
            }
            per_kernel.push((format!("{name}/{tag}"), pool));
        }
    }

    // One row per (kernel, config), one column per stage, shares of that
    // row's sampled stage time; the aggregate row pools everything.
    let stage_names: Vec<&'static str> = aggregate.stages.iter().map(|(n, _)| *n).collect();
    let mut header: Vec<&str> = vec!["kernel/config"];
    header.extend(stage_names.iter().copied());
    header.push("sampled ms");
    let row_for = |label: &str, pool: &StagePool| -> Vec<String> {
        let mut row = vec![label.to_string()];
        for s in &stage_names {
            row.push(format!("{:5.1}%", pool.share(s) * 100.0));
        }
        row.push(format!("{:.2}", pool.total_ns() as f64 / 1e6));
        row
    };
    let mut rows: Vec<Vec<String>> =
        per_kernel.iter().map(|(label, pool)| row_for(label, pool)).collect();
    rows.push(row_for("TOTAL", &aggregate));

    println!(
        "self-profiler: per-stage wall-clock shares, {} kernels x 2 configs, scale {}, {} rep(s) pooled\n",
        BASKET.len(),
        scale_tag(opts.scale),
        opts.reps.max(1)
    );
    crate::print_table(&header, &rows);
    println!(
        "\nsampled {} of {} ticks (1 in {}); shares are of sampled stage time",
        aggregate.sampled_ticks,
        aggregate.total_ticks,
        loopfrog::profiler::SAMPLE_PERIOD
    );

    let mut profile = Json::obj();
    profile.set("reps", opts.reps.max(1) as u64);
    profile.set("kernels", Json::Arr(BASKET.iter().map(|k| Json::from(*k)).collect()));
    let mut per = Json::obj();
    for (label, pool) in &per_kernel {
        per.set(label, pool.to_json());
    }
    profile.set("per_run", per);
    profile.set("aggregate", aggregate.to_json());

    let mut art = RunArtifact::new("profile", opts.scale);
    art.set_extra("profile", profile);
    let doc = art.into_json();
    if let Some(path) = &opts.json_path {
        match crate::durable::atomic_write_json(&doc, path) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_reports_shares_for_every_stage() {
        let opts = ProfileOptions { scale: Scale::Smoke, reps: 1, json_path: None };
        let doc = run_profile(&opts);
        let profile = doc.get("profile").expect("profile section");
        let agg = profile.get("aggregate").expect("aggregate pool");
        let stages = agg.get("stages").and_then(Json::as_arr).expect("stage array");
        assert_eq!(stages.len(), 6, "six pipeline stages");
        let shares: f64 = stages.iter().filter_map(|s| s.get("share").and_then(Json::as_f64)).sum();
        assert!((shares - 1.0).abs() < 1e-9, "shares sum to 1, got {shares}");
        assert!(
            agg.get("sampled_ticks").and_then(Json::as_u64).unwrap() > 0,
            "a smoke run is long enough to sample"
        );
        let per = profile.get("per_run").expect("per-run pools");
        assert!(per.get("stencil_blur/lf").is_some());
        assert!(per.get("stencil_blur/base").is_some());
    }
}
