//! Determinism regression: two simulations of the same kernel at the same
//! config must render byte-identical JSON artifacts.
//!
//! The simulator has no intentional randomness, so any divergence means a
//! result-producing path depends on nondeterministic state — historically,
//! `HashMap`/`HashSet` iteration order (the SSB's line map, the conflict
//! detector's granule sets, the packing predictor's IV capture). Those
//! paths are either sorted before use or built on ordered structures
//! ([`loopfrog` `GranuleSet`]); this test pins that property end to end
//! through the full artifact renderer, where a single reordered squash or
//! flush would perturb cycle counts and diff loudly.

use lf_bench::artifact::RunArtifact;
use lf_bench::{run_kernel_with, RunConfig};
use lf_workloads::{by_name, Scale};
use loopfrog::LoopFrogCore;

/// Renders a complete artifact for one kernel at one config.
fn render(kernel: &str, cfg: &RunConfig) -> String {
    render_with(kernel, cfg, |_| {})
}

/// [`render`] with a core hook (to attach observers before simulating).
fn render_with(kernel: &str, cfg: &RunConfig, hook: impl FnMut(&mut LoopFrogCore)) -> String {
    let w = by_name(kernel, Scale::Smoke).expect("kernel exists");
    let run = run_kernel_with(&w, cfg, hook);
    let mut art = RunArtifact::new("determinism_test", Scale::Smoke);
    art.set_config(cfg);
    art.push_kernel(&run);
    art.to_json().to_string_pretty()
}

#[test]
fn repeated_runs_render_byte_identical_artifacts() {
    // Kernels chosen to cover the order-sensitive machinery: stencil_blur
    // drains multi-granule lines through the SSB, hash_lookup squashes on
    // real conflicts, md_force packs small iterations (IV capture and
    // strided prediction).
    let cfg = RunConfig { deselect_unprofitable: false, ..RunConfig::default() };
    for kernel in ["stencil_blur", "hash_lookup", "md_force"] {
        let a = render(kernel, &cfg);
        let b = render(kernel, &cfg);
        assert_eq!(a, b, "{kernel}: artifacts diverged across identical runs");
    }
}

#[test]
fn repeated_runs_are_deterministic_under_default_config() {
    // The default (deselection on) path exercises the deselector's region
    // map as well.
    let cfg = RunConfig::default();
    let a = render("hash_lookup", &cfg);
    let b = render("hash_lookup", &cfg);
    assert_eq!(a, b);
}

#[test]
fn observers_never_perturb_artifacts() {
    // The zero-cost-when-disabled contract, from the other side: with
    // every observer armed — full pipeline tracing into text, Konata and
    // flight-recorder sinks, and the self-profiler — the rendered artifact
    // must stay byte-identical to an unobserved run. Observation is
    // core-side state outside the deterministic statistics; if a trace
    // emit or a profiler sample ever feeds back into simulated behavior,
    // this diffs loudly.
    use loopfrog::{FlightRecorder, KonataTracer, TextTracer, TraceMux};
    let cfg = RunConfig { deselect_unprofitable: false, ..RunConfig::default() };
    for kernel in ["stencil_blur", "hash_lookup"] {
        let plain = render(kernel, &cfg);
        let observed = render_with(kernel, &cfg, |core| {
            let mut mux = TraceMux::new();
            mux.add(Box::new(TextTracer::new(std::io::sink())));
            mux.add(Box::new(KonataTracer::new(std::io::sink())));
            mux.add(Box::new(FlightRecorder::new(64)));
            core.set_tracer(Box::new(mux));
            core.enable_profiler();
        });
        assert_eq!(plain, observed, "{kernel}: observers perturbed the artifact");
    }
}
