//! Per-layer probes of the campaign benchmark.
//!
//! Times calls into each workspace crate's public API — workload
//! construction, golden emulation, annotation, kernel preparation, request
//! fingerprinting, the run cache, the functional tier and checkpoints,
//! SimPoint clustering, the sampled tier, the detailed core on the frozen
//! `lf-bench perf` basket, and the `lf-uarch` components — and prints one
//! JSON object: `{"metrics": {name: value}, "checks": {name: value}}`.
//!
//! ```text
//! perfbench-harness --scale smoke|eval --tier detailed|sampled
//!                   --cache-dir DIR --work DIR --seed N
//! ```
//!
//! `--cache-dir` is the run cache a campaign of the same workload just
//! filled (the cache probes read its entries); `--work` is a scratch
//! directory the probes may write into. The seed drives the synthetic input
//! streams of the component microbenchmarks.

use lf_bench::engine::cache::{CacheLookup, DiskCache};
use lf_bench::engine::planner::{Hinting, PreparedKernel};
use lf_bench::perf::BASKET;
use lf_bench::tiered::{
    build_plan, sample_windows, CheckpointStore, PlanLookup, Tier, MAX_SIMPOINTS,
};
use lf_compiler::{annotate, SelectOptions};
use lf_isa::{Checkpoint, FastTier, Program, NUM_ARCH_REGS};
use lf_stats::{parse_fingerprint_hex, pick_simpoints, Json, SmallRng};
use lf_workloads::{Scale, Workload};
use loopfrog::{simulate, LoopFrogConfig, LoopFrogCore};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Simulated cycles and committed instructions of the frozen smoke basket
/// (both configs), as recorded by every `results/BENCH_throughput.json`
/// entry. `core.kcycles_per_s` is only comparable with that ledger while
/// the basket still simulates exactly this work.
const BASKET_CYCLES: u64 = 252_485;
const BASKET_INSTS: u64 = 158_564;

/// Repetitions of each whole-suite or whole-basket timing; the median is
/// reported.
const REPS: usize = 3;

struct Args {
    scale: Scale,
    tier: Tier,
    cache_dir: PathBuf,
    work: PathBuf,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} expects a value"))
    };
    let scale = match value("--scale")? {
        "smoke" => Scale::Smoke,
        "eval" => Scale::Eval,
        other => return Err(format!("--scale expects smoke or eval, got {other}")),
    };
    let tier = Tier::parse(value("--tier")?).ok_or("unknown --tier")?;
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    Ok(Args {
        scale,
        tier,
        cache_dir: PathBuf::from(value("--cache-dir")?),
        work: PathBuf::from(value("--work")?),
        seed,
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of `REPS` timings of `f`, in milliseconds.
fn median_ms(mut f: impl FnMut()) -> f64 {
    median(
        (0..REPS)
            .map(|_| {
                let t = Instant::now();
                f();
                ms(t.elapsed())
            })
            .collect(),
    )
}

/// Median nanoseconds per call of `f`: the iteration count is calibrated
/// until one sample takes ~20 ms, then five samples are taken.
fn ns_per_iter(mut f: impl FnMut()) -> f64 {
    let mut sample = |iters: u64| {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        t.elapsed()
    };
    let target = Duration::from_millis(20);
    let mut iters = 1u64;
    loop {
        let t = sample(iters);
        if t >= target || iters >= 1 << 26 {
            break;
        }
        let scale = (target.as_nanos() as f64 / t.as_nanos().max(1) as f64).ceil() as u64;
        iters = (iters * scale.clamp(2, 16)).min(1 << 26);
    }
    median((0..5).map(|_| sample(iters).as_nanos() as f64 / iters as f64).collect())
}

/// `lf-workloads`, `lf-isa` golden emulation, `lf-compiler`, and the
/// planner's preparation and fingerprinting, over the whole suite — the
/// set-up a campaign pays before it probes the cache.
fn suite_layers(args: &Args, m: &mut Json) {
    m.set("workloads.build_ms", median_ms(|| drop(black_box(lf_workloads::all(args.scale)))));
    let suite = lf_workloads::all(args.scale);

    let mut golden_mips = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        let insts: u64 = suite
            .iter()
            .map(|w| w.reference_emulator().expect("suite kernels run on the golden emulator"))
            .map(|emu| emu.inst_count())
            .sum();
        golden_mips.push(insts as f64 / t.elapsed().as_secs_f64() / 1e6);
    }
    m.set("isa.golden_mips", median(golden_mips));

    let emus: Vec<_> = suite
        .iter()
        .map(|w| w.reference_emulator().expect("suite kernels run on the golden emulator"))
        .collect();
    let select = SelectOptions::default();
    m.set(
        "compiler.annotate_ms",
        median_ms(|| {
            for (w, emu) in suite.iter().zip(&emus) {
                black_box(annotate(&w.program, emu.profile(), &select));
            }
        }),
    );
    drop(emus);

    let hinting = Hinting::default_annotated();
    m.set(
        "planner.prepare_ms",
        median_ms(|| {
            for w in &suite {
                black_box(PreparedKernel::prepare(w.clone(), &hinting));
            }
        }),
    );
    let prepared: Vec<PreparedKernel> =
        suite.iter().map(|w| PreparedKernel::prepare(w.clone(), &hinting)).collect();
    let configs = [LoopFrogConfig::baseline(), LoopFrogConfig::default()];
    let mut i = 0usize;
    let fingerprint_ns = ns_per_iter(|| {
        let prep = &prepared[i % prepared.len()];
        let cfg = &configs[(i / prepared.len()) % configs.len()];
        black_box(prep.request_fingerprint_tiered(cfg, args.tier));
        i += 1;
    });
    m.set("planner.fingerprint_us", fingerprint_ns / 1e3);
}

/// `DiskCache` lookups over every entry the campaign committed, and
/// stores of those outcomes into a scratch cache.
fn cache_layer(args: &Args, m: &mut Json) -> Result<(), String> {
    let mut entries: Vec<(u64, u64)> = std::fs::read_dir(&args.cache_dir)
        .map_err(|e| format!("cannot list {}: {e}", args.cache_dir.display()))?
        .filter_map(Result::ok)
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let fp = parse_fingerprint_hex(name.strip_suffix(".json")?)?;
            Some((fp, e.metadata().ok()?.len()))
        })
        .collect();
    entries.sort_unstable();
    if entries.is_empty() {
        return Err(format!("no run-cache entries in {}", args.cache_dir.display()));
    }
    let cache = DiskCache::new(&args.cache_dir);
    let mut lookup_us = Vec::new();
    let mut outcomes = Vec::new();
    for &(fp, _) in &entries {
        let t = Instant::now();
        let found = cache.lookup(fp);
        lookup_us.push(t.elapsed().as_secs_f64() * 1e6);
        match found {
            CacheLookup::Hit(outcome) => outcomes.push(outcome),
            other => return Err(format!("cache entry {fp:016x} did not hit: {other:?}")),
        }
    }
    m.set("cache.lookup_us", median(lookup_us));
    let total_bytes: u64 = entries.iter().map(|&(_, len)| len).sum();
    m.set("cache.entry_kb", total_bytes as f64 / entries.len() as f64 / 1024.0);

    let scratch = DiskCache::new(args.work.join("store-probe"));
    let mut store_ms = Vec::new();
    for outcome in outcomes.iter().take(64) {
        let t = Instant::now();
        scratch.store(outcome).map_err(|e| format!("cache store failed: {e}"))?;
        store_ms.push(ms(t.elapsed()));
    }
    m.set("cache.store_ms", median(store_ms));
    Ok(())
}

/// The frozen basket at `scale`, annotated as the campaign would.
fn annotated_basket(scale: Scale) -> Vec<(Workload, Program)> {
    let select = SelectOptions::default();
    BASKET
        .iter()
        .map(|name| {
            let w = lf_workloads::by_name(name, scale).expect("basket kernels are registered");
            let emu = w.reference_emulator().expect("basket kernels run on the golden emulator");
            let program = annotate(&w.program, emu.profile(), &select).program;
            drop(emu);
            (w, program)
        })
        .collect()
}

/// The functional tier, checkpoints, SimPoint clustering, the sampled
/// tier's plan/window/store path, and detailed-core restore, over the
/// basket at the workload's scale.
fn tiered_layers(args: &Args, m: &mut Json) -> Result<(), String> {
    let basket = annotated_basket(args.scale);

    let mut fast_mips = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        let mut insts = 0u64;
        for (w, program) in &basket {
            let mut fast = FastTier::new(program, w.mem.clone());
            fast.run_to_inst_count(u64::MAX - 1).map_err(|e| format!("{}: {e}", w.name))?;
            insts += fast.inst_count();
        }
        fast_mips.push(insts as f64 / t.elapsed().as_secs_f64() / 1e6);
    }
    m.set("isa.fast_mips", median(fast_mips));

    let store = CheckpointStore::new(args.work.join("ckpt-probe"));
    let lf = LoopFrogConfig::default();
    let (mut plan_ms, mut windows_ms, mut store_ms, mut lookup_ms, mut simpoint_ms) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut detailed_cycles = 0u64;
    let (mut ckpt_bytes, mut encode_ms, mut decode_ms, mut restore_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (w, program) in &basket {
        // Each step runs once checked, then `REPS` times timed: plans,
        // windows and store round trips are deterministic.
        let plan = build_plan(program, &w.mem)?;
        plan_ms += median_ms(|| drop(black_box(build_plan(program, &w.mem))));

        detailed_cycles += sample_windows(program, &plan, &lf)?.detailed_cycles;
        windows_ms += median_ms(|| drop(black_box(sample_windows(program, &plan, &lf))));

        let key = CheckpointStore::plan_key(program, &w.mem, args.scale);
        store.store(key, &plan).map_err(|e| format!("plan store failed: {e}"))?;
        if !matches!(store.lookup(key), PlanLookup::Hit(_)) {
            return Err(format!("{}: stored plan did not read back", w.name));
        }
        store_ms += median_ms(|| drop(black_box(store.store(key, &plan))));
        lookup_ms += median_ms(|| drop(black_box(store.lookup(key))));

        for (_, ckpt) in &plan.picks {
            let t = Instant::now();
            let bytes = ckpt.to_bytes();
            encode_ms.push(ms(t.elapsed()));
            ckpt_bytes.push(bytes.len() as f64);
            let t = Instant::now();
            black_box(Checkpoint::from_bytes(&bytes).map_err(|e| format!("{e:?}"))?);
            decode_ms.push(ms(t.elapsed()));
            let t = Instant::now();
            black_box(LoopFrogCore::from_checkpoint(program, ckpt, lf.clone()));
            restore_ms.push(ms(t.elapsed()));
        }

        // Clustering input: the same interval BBVs the plan was built from.
        let mut fast = FastTier::new(program, w.mem.clone());
        while !fast.is_halted() {
            fast.run_interval(plan.interval_len).map_err(|e| format!("{}: {e}", w.name))?;
        }
        simpoint_ms +=
            median_ms(|| drop(black_box(pick_simpoints(fast.vectors(), MAX_SIMPOINTS, args.seed))));
    }
    m.set("isa.checkpoint_kb", ckpt_bytes.iter().sum::<f64>() / ckpt_bytes.len() as f64 / 1024.0);
    m.set("isa.checkpoint_encode_ms", median(encode_ms));
    m.set("isa.checkpoint_decode_ms", median(decode_ms));
    m.set("stats.simpoint_ms", simpoint_ms);
    m.set("tiered.build_plan_ms", plan_ms);
    m.set("tiered.sample_windows_ms", windows_ms);
    m.set("tiered.detailed_cycles", detailed_cycles as f64);
    m.set("tiered.plan_store_ms", store_ms);
    m.set("tiered.plan_lookup_ms", lookup_ms);
    m.set("core.restore_ms", median(restore_ms));
    Ok(())
}

/// The detailed core on the frozen smoke basket: throughput per config,
/// self-profiler stage shares, and the SSB and conflict-detector
/// microbenchmarks. Returns the basket's (cycles, committed insts).
fn core_layer(args: &Args, m: &mut Json) -> Result<(u64, u64), String> {
    let basket = annotated_basket(Scale::Smoke);
    let configs = [("base", LoopFrogConfig::baseline()), ("lf", LoopFrogConfig::default())];
    let (mut cycles, mut insts, mut wall_s) = ([0u64; 2], [0u64; 2], [0f64; 2]);
    for (w, program) in &basket {
        for (c, (tag, cfg)) in configs.iter().enumerate() {
            let mut walls = Vec::new();
            let mut counts = (0, 0);
            for _ in 0..REPS {
                let mem = w.mem.clone();
                let t = Instant::now();
                let r = simulate(program, mem, cfg.clone())
                    .map_err(|e| format!("{} ({tag}): {e}", w.name))?;
                walls.push(t.elapsed().as_secs_f64());
                // The simulator is deterministic: every rep has these counts.
                counts = (r.stats.cycles, r.stats.committed_insts);
            }
            cycles[c] += counts.0;
            insts[c] += counts.1;
            wall_s[c] += median(walls);
        }
    }
    let kcps = |cyc: u64, wall: f64| cyc as f64 / wall / 1e3;
    let (total_cycles, total_insts) = (cycles[0] + cycles[1], insts[0] + insts[1]);
    let total_wall = wall_s[0] + wall_s[1];
    m.set("core.kcycles_per_s", kcps(total_cycles, total_wall));
    m.set("core.kcycles_per_s.base", kcps(cycles[0], wall_s[0]));
    m.set("core.kcycles_per_s.lf", kcps(cycles[1], wall_s[1]));
    m.set(
        "core.base_lf_cost_ratio",
        (wall_s[0] / cycles[0] as f64) / (wall_s[1] / cycles[1] as f64),
    );
    m.set("core.committed_mips", total_insts as f64 / total_wall / 1e6);

    // Stage shares, pooled over one profiled run of every (kernel, config).
    let mut stages: Vec<(&'static str, u64)> = Vec::new();
    for (w, program) in &basket {
        for (tag, cfg) in &configs {
            let mut core = LoopFrogCore::new(program, w.mem.clone(), cfg.clone());
            core.enable_profiler();
            let r = core.run().map_err(|e| format!("{} ({tag}): {e}", w.name))?;
            for s in r.profile.expect("the profiler was enabled").stages {
                match stages.iter_mut().find(|(name, _)| *name == s.name) {
                    Some((_, ns)) => *ns += s.sampled_ns,
                    None => stages.push((s.name, s.sampled_ns)),
                }
            }
        }
    }
    let sampled_ns: u64 = stages.iter().map(|(_, ns)| ns).sum();
    for stage in ["fetch", "rename", "issue", "writeback", "commit", "spawn_service"] {
        let ns = stages.iter().find(|(name, _)| *name == stage).map_or(0, |(_, ns)| *ns);
        m.set(&format!("core.stage.{stage}_share"), ns as f64 / sampled_ns.max(1) as f64);
    }

    let mut rng = SmallRng::seed_from_u64(args.seed);
    let offsets: Vec<u64> = (0..256).map(|_| rng.random_range(0..256u64) * 8).collect();
    let mut ssb = loopfrog::ssb::Ssb::new(&loopfrog::SsbConfig::default(), 4);
    let mem = lf_isa::Memory::new(1 << 16);
    let mut i = 0usize;
    m.set(
        "core.ssb_rw_ns",
        ns_per_iter(|| {
            let addr = offsets[i % offsets.len()];
            let _ = ssb.write(i % 4, addr, &[1, 2, 3, 4, 5, 6, 7, 8], |_| 0);
            black_box(ssb.read(&[0, 1, 2, 3], black_box(addr), 8, &mem));
            i += 1;
            if i.is_multiple_of(512) {
                (0..4).for_each(|s| ssb.invalidate_slice(s));
            }
        }),
    );
    let mut cd = loopfrog::conflict::ConflictDetector::new(4);
    let mut i = 0usize;
    m.set(
        "core.conflict_ns",
        ns_per_iter(|| {
            let g = offsets[i % offsets.len()] / 8;
            cd.on_read(3, &[g]);
            black_box(cd.on_write(0, black_box(&[g + 1]), &[1, 2, 3]));
            i += 1;
            if i.is_multiple_of(1024) {
                (0..4).for_each(|s| cd.clear(s));
            }
        }),
    );
    Ok((total_cycles, total_insts))
}

/// `lf-uarch` component microbenchmarks through its public API.
fn uarch_layer(args: &Args, m: &mut Json) {
    use lf_uarch::bpred::{History, Tage};
    use lf_uarch::{AccessKind, IssueQueue, MemConfig, MemHierarchy, PhysRegFile, RenameMap};
    let mut rng = SmallRng::seed_from_u64(args.seed ^ 0x5eed);

    // Issue queue: 32 entries wait on a register that never becomes ready
    // (operand-waiting instructions a select scan must step over); each
    // iteration inserts one instruction, wakes its producer, and selects.
    let mut prf = PhysRegFile::new(512);
    let blocked = prf.alloc().expect("fresh register file");
    let ready = prf.alloc_ready(1).expect("fresh register file");
    let mut iq: IssueQueue<u64> = IssueQueue::new(96);
    let mut uid = 0u64;
    for _ in 0..32 {
        iq.insert(uid, 0, [Some(blocked), None], &prf);
        uid += 1;
    }
    m.set(
        "uarch.iq_select_ns",
        ns_per_iter(|| {
            let p = prf.alloc().expect("each iteration releases what it allocates");
            iq.insert(uid, 1, [Some(p), Some(ready)], &prf);
            prf.write(p, uid);
            iq.wakeup(p);
            black_box(iq.select(1, |_, tid| tid == 1));
            prf.release(p);
            uid += 1;
        }),
    );

    // Rename: allocate a destination, remap an architectural register,
    // release the previous mapping.
    let mut prf = PhysRegFile::new(256);
    let mut map = RenameMap::new_initial(&mut prf);
    let order: Vec<usize> = (0..64).map(|_| rng.random_range(0..NUM_ARCH_REGS)).collect();
    let mut i = 0usize;
    m.set(
        "uarch.rename_ns",
        ns_per_iter(|| {
            let p = prf.alloc().expect("each iteration releases one mapping");
            prf.write(p, i as u64);
            let old = map.set(order[i % order.len()], p);
            prf.release(old);
            i += 1;
        }),
    );

    let mut tage = Tage::new();
    let mut hist = History::default();
    let pattern: Vec<(u64, bool)> =
        (0..64).map(|k| (0x400 + k * 4, rng.random_range(0..4u64) != 0)).collect();
    let mut i = 0usize;
    m.set(
        "uarch.tage_ns",
        ns_per_iter(|| {
            let (pc, taken) = pattern[i % pattern.len()];
            let lookup = tage.predict(black_box(pc), hist);
            tage.update(pc, hist, lookup, taken);
            hist.push(taken);
            i += 1;
        }),
    );

    let mut mem = MemHierarchy::new(MemConfig::default());
    let addrs: Vec<u64> = (0..4096).map(|_| rng.random_range(0..(1u64 << 22)) & !7).collect();
    let (mut now, mut i) = (0u64, 0usize);
    m.set(
        "uarch.mem_access_ns",
        ns_per_iter(|| {
            now = mem.access_data(0x40, black_box(addrs[i % addrs.len()]), AccessKind::Load, now);
            i += 1;
        }),
    );
}

fn run(args: &Args) -> Result<Json, String> {
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("cannot create {}: {e}", args.work.display()))?;
    let mut m = Json::obj();
    suite_layers(args, &mut m);
    cache_layer(args, &mut m)?;
    tiered_layers(args, &mut m)?;
    let (cycles, insts) = core_layer(args, &mut m)?;
    uarch_layer(args, &mut m);
    let mut checks = Json::obj();
    checks.set("basket_cycles", cycles);
    checks.set("basket_insts", insts);
    checks.set("basket_continuity", cycles == BASKET_CYCLES && insts == BASKET_INSTS);
    let mut out = Json::obj();
    out.set("metrics", m);
    out.set("checks", checks);
    Ok(out)
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(doc) => println!("{}", doc.to_string_compact()),
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            std::process::exit(1);
        }
    }
}
