//! `lf-bench perf` — the simulator-throughput microbenchmark.
//!
//! Runs a fixed kernel basket at pinned configurations (the default
//! baseline and LoopFrog configs), measures wall-clock time around the
//! simulator alone (annotation and workload construction are excluded),
//! and reports simulated kilocycles per second and committed MIPS. The
//! same basket also runs on the functional fast tier, whose emulation
//! throughput (M insts/s) is what the tiered sampling path fast-forwards
//! at; its wall time is kept out of the detailed-throughput figures. After
//! the timed reps, one more rep per detailed cell runs under the engine
//! self-profiler ([`loopfrog::LoopFrogCore::enable_profiler`], untimed).
//! Its per-stage shares of sampled wall-clock time are printed as one
//! table row per (kernel, config) cell plus a pooled total, and recorded
//! in the entry: pooled as `stage_shares`, and per cell in each detailed
//! `per_run` row, so each before/after pair shows where its time went.
//! Profiling is core-side state, not configuration: a profiled run's
//! simulated results are byte-identical to an unprofiled one. Each
//! labelled invocation (`--label`) appends one entry to
//! `results/BENCH_throughput.json`, so the file accumulates a throughput
//! trajectory across commits; an unlabelled, diagnostic run prints its
//! tables and writes nothing.
//!
//! The basket is deliberately frozen: entries are only comparable when
//! they simulate the same work, so changing [`BASKET`] or the pinned
//! configs invalidates the trajectory (bump the label if you must).

use crate::engine::planner::{Hinting, PreparedKernel};
use crate::runner::scale_tag;
use lf_stats::Json;
use lf_workloads::Scale;
use loopfrog::{simulate, LoopFrogConfig, LoopFrogCore, ProfileReport};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The fixed kernel basket: one or two representatives per bottleneck
/// category so the hot path is exercised across regular, serial,
/// control-dependent, and irregular behavior.
pub const BASKET: &[&str] =
    &["stencil_blur", "md_force", "compress_rle", "hash_lookup", "graph_relax", "event_queue"];

/// Options for one `lf-bench perf` invocation.
#[derive(Debug, Clone)]
pub struct PerfOptions {
    /// Workload scale (smoke for CI, eval for real measurements).
    pub scale: Scale,
    /// Repetitions per (kernel, config) pair; the best wall time is kept.
    pub reps: usize,
    /// Free-form label recorded in the trajectory entry (e.g. a commit
    /// subject, or a before/after tag). Only a labelled run appends its
    /// entry.
    pub label: Option<String>,
    /// Where a labelled run appends its entry (`None` = print only).
    pub json_path: Option<PathBuf>,
}

/// A labelled run more than this fraction slower than the best prior
/// entry at the same scale gets a non-blocking regression warning.
const WARN_FRAC: f64 = 0.15;

impl Default for PerfOptions {
    fn default() -> PerfOptions {
        PerfOptions {
            scale: Scale::Smoke,
            reps: 3,
            label: None,
            json_path: Some(PathBuf::from("results/BENCH_throughput.json")),
        }
    }
}

/// One timed (kernel, config) measurement.
struct Sample {
    kernel: &'static str,
    config: &'static str,
    cycles: u64,
    insts: u64,
    best_wall_s: f64,
    /// Stage times of the cell's profiled rep (`None` on the functional
    /// tier, which has no pipeline stages).
    stages: Option<StagePool>,
}

/// Stage-time accumulator: pools sampled nanoseconds by stage name across
/// profile reports while preserving the pipeline's stage order.
#[derive(Default)]
struct StagePool {
    stages: Vec<(&'static str, u64)>,
    sampled_ticks: u64,
    total_ticks: u64,
}

impl StagePool {
    fn add(&mut self, report: &ProfileReport) {
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
    fn shares_json(&self) -> Json {
        let mut j = Json::obj();
        for (name, _) in &self.stages {
            j.set(name, self.share(name));
        }
        j
    }
}

/// Runs the basket and returns the trajectory entry that was appended
/// (or would have been, without a label or a `json_path`).
pub fn run_perf(opts: &PerfOptions) -> Json {
    let configs: [(&'static str, LoopFrogConfig); 2] =
        [("base", LoopFrogConfig::baseline()), ("lf", LoopFrogConfig::default())];

    let mut samples: Vec<Sample> = Vec::new();
    let mut func_samples: Vec<Sample> = Vec::new();
    let mut stages = StagePool::default();
    for name in BASKET {
        let w = lf_workloads::by_name(name, opts.scale)
            .unwrap_or_else(|| panic!("perf basket kernel {name} is not registered"));
        let prep = PreparedKernel::prepare(w, &Hinting::Annotated);
        let (w, program) =
            (&prep.workload, prep.program().expect("a full preparation holds its program"));
        for (tag, cfg) in &configs {
            let mut best_wall_s = f64::INFINITY;
            let mut cycles = 0u64;
            let mut insts = 0u64;
            for _ in 0..opts.reps.max(1) {
                let mem = w.mem.clone();
                let start = Instant::now();
                let r = simulate(program, mem, cfg.clone())
                    .unwrap_or_else(|e| panic!("{name} ({tag}) failed: {e}"));
                let wall = start.elapsed().as_secs_f64();
                // The simulator is deterministic: cycle/inst counts are
                // identical across reps, only the wall time varies.
                cycles = r.stats.cycles;
                insts = r.stats.committed_insts;
                best_wall_s = best_wall_s.min(wall);
            }
            let mut core = LoopFrogCore::new(program, w.mem.clone(), cfg.clone());
            core.enable_profiler();
            let r = core.run().unwrap_or_else(|e| panic!("{name} ({tag}, profiled) failed: {e}"));
            let report = r.profile.expect("profiler was enabled");
            let mut cell = StagePool::default();
            cell.add(&report);
            stages.add(&report);
            samples.push(Sample {
                kernel: w.name,
                config: tag,
                cycles,
                insts,
                best_wall_s,
                stages: Some(cell),
            });
        }
        // The functional fast tier over the same annotated program: zero
        // simulated cycles, instruction throughput only.
        let mut best_wall_s = f64::INFINITY;
        let mut insts = 0u64;
        for _ in 0..opts.reps.max(1) {
            let start = Instant::now();
            let mut fast = lf_isa::FastTier::new(program, w.mem.clone());
            fast.run_to_inst_count(u64::MAX - 1)
                .unwrap_or_else(|e| panic!("{name} (functional) faulted: {e}"));
            assert!(fast.is_halted(), "{name} did not halt on the fast tier");
            let wall = start.elapsed().as_secs_f64();
            insts = fast.inst_count();
            best_wall_s = best_wall_s.min(wall);
        }
        func_samples.push(Sample {
            kernel: w.name,
            config: "functional",
            cycles: 0,
            insts,
            best_wall_s,
            stages: None,
        });
    }

    let total_cycles: u64 = samples.iter().map(|s| s.cycles).sum();
    let total_insts: u64 = samples.iter().map(|s| s.insts).sum();
    let total_wall_s: f64 = samples.iter().map(|s| s.best_wall_s).sum();
    let kcps = total_cycles as f64 / total_wall_s / 1e3;
    let mips = total_insts as f64 / total_wall_s / 1e6;
    let func_insts: u64 = func_samples.iter().map(|s| s.insts).sum();
    let func_wall_s: f64 = func_samples.iter().map(|s| s.best_wall_s).sum();
    let func_mips = func_insts as f64 / func_wall_s / 1e6;

    let mut rows = Vec::new();
    for s in samples.iter().chain(&func_samples) {
        rows.push(vec![
            s.kernel.to_string(),
            s.config.to_string(),
            if s.cycles == 0 { "-".to_string() } else { s.cycles.to_string() },
            s.insts.to_string(),
            format!("{:.2}", s.best_wall_s * 1e3),
            if s.cycles == 0 {
                "-".to_string()
            } else {
                format!("{:.0}", s.cycles as f64 / s.best_wall_s / 1e3)
            },
        ]);
    }
    println!(
        "simulator throughput: {} kernels x 2 configs, scale {}, best of {} rep(s)\n",
        BASKET.len(),
        scale_tag(opts.scale),
        opts.reps.max(1)
    );
    crate::print_table(&["kernel", "config", "sim cycles", "insts", "wall ms", "kcycles/s"], &rows);
    println!(
        "\ntotal: {total_cycles} simulated cycles, {total_insts} committed insts in {:.1} ms",
        total_wall_s * 1e3
    );
    println!("throughput: {kcps:.0} simulated kcycles/s, {mips:.2} committed MIPS");
    println!(
        "functional tier: {func_insts} insts in {:.1} ms — {func_mips:.1} M insts/s",
        func_wall_s * 1e3
    );

    // One row per (kernel, config), one column per stage, shares of that
    // cell's sampled stage time; the total row pools every cell.
    let stage_names: Vec<&'static str> = stages.stages.iter().map(|(n, _)| *n).collect();
    let mut header = vec!["kernel/config"];
    header.extend(&stage_names);
    header.push("sampled ms");
    let row_for = |label: String, pool: &StagePool| {
        let mut row = vec![label];
        row.extend(stage_names.iter().map(|s| format!("{:5.1}%", pool.share(s) * 100.0)));
        row.push(format!("{:.2}", pool.total_ns() as f64 / 1e6));
        row
    };
    let mut rows: Vec<Vec<String>> = samples
        .iter()
        .filter_map(|s| Some(row_for(format!("{}/{}", s.kernel, s.config), s.stages.as_ref()?)))
        .collect();
    rows.push(row_for("TOTAL".into(), &stages));
    println!(
        "\nstage shares: one untimed profiled rep per cell, {} of {} ticks sampled (1 in {})\n",
        stages.sampled_ticks,
        stages.total_ticks,
        loopfrog::profiler::SAMPLE_PERIOD
    );
    crate::print_table(&header, &rows);

    let mut entry = Json::obj();
    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    entry.set("unix_time", unix_secs);
    if let Some(label) = &opts.label {
        entry.set("label", label.as_str());
    }
    entry.set("scale", scale_tag(opts.scale));
    entry.set("reps", opts.reps.max(1) as u64);
    entry.set("kernels", Json::Arr(BASKET.iter().map(|k| Json::from(*k)).collect()));
    entry.set("sim_cycles", total_cycles);
    entry.set("committed_insts", total_insts);
    entry.set("wall_ms", total_wall_s * 1e3);
    entry.set("kcycles_per_sec", kcps);
    entry.set("committed_mips", mips);
    entry.set("functional_insts", func_insts);
    entry.set("functional_wall_ms", func_wall_s * 1e3);
    entry.set("functional_mips", func_mips);
    entry.set("stage_shares", stages.shares_json());
    let mut per = Vec::new();
    for s in samples.iter().chain(&func_samples) {
        let mut j = Json::obj();
        j.set("kernel", s.kernel);
        j.set("config", s.config);
        j.set("cycles", s.cycles);
        j.set("insts", s.insts);
        j.set("wall_ms", s.best_wall_s * 1e3);
        if let Some(pool) = &s.stages {
            j.set("stage_shares", pool.shares_json());
        }
        per.push(j);
    }
    entry.set("per_run", Json::Arr(per));

    if let (Some(path), Some(_)) = (&opts.json_path, &opts.label) {
        match append_throughput_entry(path, &entry) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: failed to update {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    entry
}

/// Appends `entry` to the throughput trajectory and emits the
/// non-blocking regression warning (more than [`WARN_FRAC`] slower)
/// against the best prior entry at the same scale. File schema: a
/// top-level `runs` array, oldest first.
pub(crate) fn append_throughput_entry(path: &Path, entry: &Json) -> std::io::Result<()> {
    let (mut doc, mut runs) = crate::durable::read_trajectory(path)?;

    // Regression check: the warning is advisory (wall clock varies across
    // hosts and CI runners), so it never affects the exit status.
    let this_kcps = entry.get("kcycles_per_sec").and_then(Json::as_f64).unwrap_or(0.0);
    let prior_best = runs
        .iter()
        .filter(|r| {
            r.get("scale").and_then(Json::as_str) == entry.get("scale").and_then(Json::as_str)
        })
        .filter_map(|r| r.get("kcycles_per_sec").and_then(Json::as_f64))
        .fold(f64::NAN, f64::max);
    if prior_best.is_finite() && this_kcps < prior_best * (1.0 - WARN_FRAC) {
        eprintln!(
            "warning: throughput regression: {this_kcps:.0} kcycles/s is {:.0}% below the best \
             recorded entry ({prior_best:.0} kcycles/s) at this scale",
            (1.0 - this_kcps / prior_best) * 100.0
        );
    } else if prior_best.is_finite() {
        println!(
            "delta vs best recorded entry at this scale: {:+.1}%",
            (this_kcps / prior_best - 1.0) * 100.0
        );
    }

    runs.push(entry.clone());
    doc.set("runs", Json::Arr(runs));
    // The trajectory is read-modify-write: an atomic commit means a crash
    // mid-append preserves the whole prior history instead of truncating
    // it.
    crate::durable::atomic_write_json(&doc, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The six pipeline stages the engine self-profiler times.
    const STAGES: [&str; 6] = ["commit", "spawn_service", "writeback", "issue", "rename", "fetch"];

    #[test]
    fn basket_kernels_exist_at_both_scales() {
        for scale in [Scale::Smoke, Scale::Eval] {
            for name in BASKET {
                assert!(
                    lf_workloads::by_name(name, scale).is_some(),
                    "basket kernel {name} missing at {scale:?}"
                );
            }
        }
    }

    #[test]
    fn perf_entry_has_throughput_fields() {
        let dir = std::env::temp_dir().join(format!("lf-perf-test-{}", std::process::id()));
        let path = dir.join("BENCH_throughput.json");
        let opts = PerfOptions {
            scale: Scale::Smoke,
            reps: 1,
            label: Some("unit-test".into()),
            json_path: Some(path.clone()),
        };
        let entry = run_perf(&opts);
        assert!(entry.get("kcycles_per_sec").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(entry.get("committed_mips").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(entry.get("scale").and_then(Json::as_str), Some("smoke"));
        let shares = entry.get("stage_shares").expect("stage shares recorded");
        let sum: f64 = STAGES.iter().map(|s| shares.get(s).and_then(Json::as_f64).expect(s)).sum();
        assert!((sum - 1.0).abs() < 1e-9, "stage shares sum to 1, got {sum}");
        let per_run = entry.get("per_run").and_then(Json::as_arr).unwrap();
        assert_eq!(per_run.len(), BASKET.len() * 3, "base, lf and functional per kernel");

        // The basket's simulated work is pinned to the committed ledger:
        // every detailed cell must simulate the cycles and instructions of
        // the `pr6-after` entry, so a hot-path change that perturbs timing
        // fails here. (Functional rows postdate that entry.)
        let ledger =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_throughput.json");
        let ledger = Json::parse(&std::fs::read_to_string(ledger).unwrap()).unwrap();
        let pinned = ledger
            .get("runs")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .find(|r| r.get("label").and_then(Json::as_str) == Some("pr6-after"))
            .expect("the ledger keeps the pr6-after entry");
        let work = |r: &Json| {
            let field = |k| r.get(k).and_then(Json::as_str).unwrap().to_string();
            let count = |k| r.get(k).and_then(Json::as_u64).unwrap();
            (field("kernel"), field("config"), count("cycles"), count("insts"))
        };
        let rows = |e: &Json| -> Vec<_> {
            e.get("per_run").and_then(Json::as_arr).unwrap().iter().map(work).collect()
        };
        let simulated: Vec<_> =
            rows(&entry).into_iter().filter(|(_, config, ..)| config != "functional").collect();
        assert_eq!(simulated, rows(pinned), "the basket's simulated work moved");
        // A second run appends rather than overwrites.
        run_perf(&opts);
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("runs").and_then(Json::as_arr).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profile_reports_shares_for_every_stage() {
        // An unlabelled, diagnostic run prints its tables and leaves the
        // ledger untouched.
        let dir = std::env::temp_dir().join(format!("lf-perf-unlabelled-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_throughput.json");
        let ledger = "{\"runs\": []}\n";
        std::fs::write(&path, ledger).unwrap();
        let opts = PerfOptions {
            scale: Scale::Smoke,
            reps: 1,
            label: None,
            json_path: Some(path.clone()),
        };
        let entry = run_perf(&opts);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), ledger, "an unlabelled run wrote");
        std::fs::remove_dir_all(&dir).ok();
        // The pooled shares and every detailed cell's own shares cover the
        // six pipeline stages and sum to 1, so every cell's profiled rep
        // sampled some stage time.
        let assert_shares = |shares: &Json, what: &str| {
            let Json::Obj(m) = shares else { panic!("{what}: stage shares are not an object") };
            assert_eq!(m.len(), STAGES.len(), "{what}: six pipeline stages");
            let sum: f64 =
                STAGES.iter().map(|s| shares.get(s).and_then(Json::as_f64).expect(s)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "{what}: stage shares sum to {sum}, not 1");
        };
        assert_shares(entry.get("stage_shares").expect("stage shares recorded"), "pooled");
        let mut cells = Vec::new();
        for r in entry.get("per_run").and_then(Json::as_arr).unwrap() {
            let field = |k| r.get(k).and_then(Json::as_str).unwrap();
            let cell = format!("{}/{}", field("kernel"), field("config"));
            match field("config") {
                "functional" => assert!(r.get("stage_shares").is_none(), "{cell}"),
                _ => assert_shares(r.get("stage_shares").expect("cell shares"), &cell),
            }
            cells.push(cell);
        }
        assert!(cells.iter().any(|c| c == "stencil_blur/lf"));
        assert!(cells.iter().any(|c| c == "stencil_blur/base"));
    }
}
