//! Tiered-simulation proof: the sampled tier vs full detailed runs.
//!
//! Where `simpoint_check` validates the SimPoint *methodology* with
//! bespoke emulator-side snapshots, this scenario exercises the
//! production tiered path end to end — [`crate::tiered::build_plan`]'s
//! functional passes, warm [`lf_isa::Checkpoint`]s, detailed warm-up
//! windows, and [`crate::tiered::sample_windows`]'s weighted whole-run
//! reconstruction — and reports what the tier buys: the detailed-cycle
//! reduction and the sampled-vs-full relative error, both carried in the
//! artifact's telemetry.
//!
//! Both sides are planned runs: the full run on the campaign tier (it
//! deduplicates with the headline suite) and the estimate on
//! [`Tier::Sampled`]. Under `--tier sampled` the two are the same run.

use crate::engine::planner::{Hinting, Planner};
use crate::engine::{EngineCtx, Scenario};
use crate::tiered::Tier;
use crate::{RunArtifact, RunConfig};
use lf_stats::Json;
use std::fmt::Write;

const KERNELS: [&str; 4] = ["stencil_blur", "event_queue", "hash_lookup", "md_force"];

/// The sampled-tier speedup/accuracy scenario.
pub struct SimpointSampled;

impl Scenario for SimpointSampled {
    fn name(&self) -> &'static str {
        "simpoint_sampled"
    }

    fn title(&self) -> &'static str {
        "tiered simulation: sampled windows vs full detailed runs"
    }

    fn plan(&self, p: &mut Planner<'_>) {
        let cfg = RunConfig::default();
        for w in p.kernels() {
            if KERNELS.contains(&w.name) {
                p.request(w.name, Hinting::Annotated, &cfg.lf);
                p.request_tiered(w.name, Hinting::Annotated, &cfg.lf, Tier::Sampled);
            }
        }
    }

    fn render(&self, ctx: &EngineCtx<'_>, out: &mut String) -> RunArtifact {
        let rc = RunConfig::default();
        let hinting = Hinting::Annotated;
        writeln!(out, "{}\n", self.title()).unwrap();
        writeln!(
            out,
            "{:<16} {:>9} {:>4} {:>12} {:>12} {:>7} {:>10}",
            "kernel", "insts", "k", "full cycles", "estimated", "error", "reduction"
        )
        .unwrap();

        let mut points = Vec::new();
        let mut failures = Vec::new();
        let kernels =
            KERNELS.iter().filter_map(|name| ctx.kernels().iter().find(|w| w.name == *name));
        for w in kernels {
            let runs = ctx.try_outcome(w.name, &hinting, &rc.lf).and_then(|full| {
                Ok((full, ctx.try_outcome_tiered(w.name, &hinting, &rc.lf, Tier::Sampled)?))
            });
            let (full, sampled) = match runs {
                Ok(runs) => runs,
                Err(f) => {
                    writeln!(out, "{:<16} FAILED: {} ({})", w.name, f.error.message(), f.cell())
                        .unwrap();
                    failures.push(f.to_json());
                    continue;
                }
            };
            let count = |key: &str| {
                sampled
                    .tier_field(key)
                    .and_then(Json::as_u64)
                    .unwrap_or_else(|| panic!("{} sampled outcome lacks tier.{key}", w.name))
            };
            let est_cycles = sampled
                .tier_field("est_cycles")
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{} sampled outcome lacks tier.est_cycles", w.name));
            let (total_insts, interval_len) = (count("total_insts"), count("interval_len"));
            let detailed_cycles = count("detailed_cycles");
            let windows =
                sampled.tier_field("windows").and_then(Json::as_arr).map_or(0, <[_]>::len);
            let err = (est_cycles - full.stats.cycles as f64) / full.stats.cycles as f64 * 100.0;
            let reduction = full.stats.cycles as f64 / detailed_cycles as f64;
            writeln!(
                out,
                "{:<16} {:>9} {:>4} {:>12} {:>12.0} {:>+6.1}% {:>9.1}x",
                w.name, total_insts, windows, full.stats.cycles, est_cycles, err, reduction
            )
            .unwrap();
            let mut p = Json::obj();
            p.set("kernel", w.name);
            p.set("total_insts", total_insts);
            p.set("interval_len", interval_len);
            p.set("simpoints", windows as u64);
            p.set("full_cycles", full.stats.cycles);
            p.set("estimated_cycles", est_cycles);
            p.set("detailed_cycles", detailed_cycles);
            p.set("error_pct", err);
            p.set("detailed_cycle_reduction", reduction);
            points.push(p);
        }
        writeln!(
            out,
            "\nsampled tier: functional fast-forward + warm checkpoints + weighted windows;"
        )
        .unwrap();
        writeln!(out, "reduction is full detailed cycles over cycles the tier simulated.").unwrap();
        let mut art = RunArtifact::new(self.name(), ctx.scale());
        art.set_extra("sampled_vs_full", Json::Arr(points));
        if !failures.is_empty() {
            art.set_extra("failures", Json::Arr(failures));
        }
        art
    }
}
