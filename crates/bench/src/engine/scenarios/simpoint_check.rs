//! §6.1 methodology check: SimPoint-style sampled simulation.
//!
//! The paper simulates up to 15 SimPoints of 250M instructions per SPEC
//! benchmark and estimates the whole run from the cluster weights. This
//! experiment validates the same pipeline end-to-end at our scale: collect
//! basic-block vectors on the golden emulator, cluster them (random
//! projection + k-means + BIC), warm-start the cycle simulator at each
//! representative interval, and compare the weighted cycle estimate with
//! the full detailed simulation.
//!
//! Both sides are planned runs. The full-run ground truth runs on the
//! campaign tier (it deduplicates with the headline suite); the estimate
//! runs on [`Tier::SimpointCheck`] (`crate::tiered::run_simpoint_check`).

use crate::engine::planner::{Hinting, Planner};
use crate::engine::{EngineCtx, Scenario};
use crate::tiered::Tier;
use crate::{RunArtifact, RunConfig};
use lf_stats::Json;
use std::fmt::Write;

const KERNELS: [&str; 4] = ["stencil_blur", "event_queue", "hash_lookup", "md_force"];

/// The SimPoint methodology-check scenario.
pub struct SimpointCheck;

impl Scenario for SimpointCheck {
    fn name(&self) -> &'static str {
        "simpoint_check"
    }

    fn title(&self) -> &'static str {
        "§6.1 methodology: SimPoint-sampled vs full detailed simulation"
    }

    fn plan(&self, p: &mut Planner<'_>) {
        let cfg = RunConfig::default();
        for w in p.kernels() {
            if KERNELS.contains(&w.name) {
                p.request(w.name, Hinting::Annotated, &cfg.lf);
                p.request_tiered(w.name, Hinting::Annotated, &cfg.lf, Tier::SimpointCheck);
            }
        }
    }

    fn render(&self, ctx: &EngineCtx<'_>, out: &mut String) -> RunArtifact {
        let rc = RunConfig::default();
        let hinting = Hinting::Annotated;
        writeln!(out, "{}\n", self.title()).unwrap();
        writeln!(
            out,
            "{:<16} {:>9} {:>6} {:>12} {:>12} {:>7}",
            "kernel", "insts", "k", "full cycles", "estimated", "error"
        )
        .unwrap();

        let mut points = Vec::new();
        let mut failures = Vec::new();
        let kernels =
            KERNELS.iter().filter_map(|name| ctx.kernels().iter().find(|w| w.name == *name));
        for w in kernels {
            // Either run (or the preparation both depend on) may have
            // failed; skip the kernel with an explicit line rather than
            // aborting the whole methodology check.
            let runs = ctx.try_outcome(w.name, &hinting, &rc.lf).and_then(|full| {
                Ok((full, ctx.try_outcome_tiered(w.name, &hinting, &rc.lf, Tier::SimpointCheck)?))
            });
            let (full, check) = match runs {
                Ok(runs) => runs,
                Err(f) => {
                    writeln!(out, "{:<16} FAILED: {} ({})", w.name, f.error.message(), f.cell())
                        .unwrap();
                    failures.push(f.to_json());
                    continue;
                }
            };
            let field = |key: &str| {
                check
                    .tier_field(key)
                    .unwrap_or_else(|| panic!("{} simpoint-check outcome lacks tier.{key}", w.name))
            };
            let count = |key: &str| field(key).as_u64().expect("a count");
            let (total_insts, simpoints) = (count("total_insts"), count("simpoints"));
            let estimate = field("est_cycles").as_f64().expect("a cycle estimate");

            let err = (estimate - full.stats.cycles as f64) / full.stats.cycles as f64 * 100.0;
            writeln!(
                out,
                "{:<16} {:>9} {:>6} {:>12} {:>12.0} {:>+6.1}%",
                w.name, total_insts, simpoints, full.stats.cycles, estimate, err
            )
            .unwrap();
            let mut p = Json::obj();
            p.set("kernel", w.name);
            p.set("total_insts", total_insts);
            p.set("simpoints", simpoints);
            p.set("full_cycles", full.stats.cycles);
            p.set("estimated_cycles", estimate);
            p.set("error_pct", err);
            points.push(p);
        }
        writeln!(out, "\npaper methodology: SimPoint-weighted estimates stand in for full runs;")
            .unwrap();
        writeln!(out, "errors within ±10% validate the sampling pipeline at this scale.").unwrap();
        let mut art = RunArtifact::new(self.name(), ctx.scale());
        art.set_extra("simpoint_estimates", Json::Arr(points));
        if !failures.is_empty() {
            art.set_extra("failures", Json::Arr(failures));
        }
        art
    }
}
