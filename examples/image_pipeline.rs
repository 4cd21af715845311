//! Image-processing scenario (the paper's biggest winner class, mirroring
//! 538.imagick_r): run the stencil-blur kernel through the *full* pipeline
//! — profile on the golden emulator, let the compiler pass select loops and
//! insert hints automatically, then simulate baseline vs LoopFrog.
//!
//! Run with: `cargo run --release --example image_pipeline`
//! Add `--trace` to print the first lines of the pipeline event trace
//! (spawns, squashes, retirements; see `loopfrog::trace`).

use lf_compiler::{annotate, SelectOptions};
use lf_workloads::{by_name, Scale};
use loopfrog::{simulate, LoopFrogConfig, LoopFrogCore, TextTracer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = by_name("stencil_blur", Scale::Smoke).expect("kernel exists");
    println!("workload: {} (analog of {})", workload.name, workload.spec_analog);
    println!("  {}\n", workload.description);

    // 1. Profile the sequential run (paper §5.1: profile-guided selection).
    let emu = workload.reference_emulator()?;
    println!("profiled {} dynamic instructions", emu.inst_count());

    // 2. Select loops and insert detach/reattach/sync hints (§5.3).
    let annotated = annotate(&workload.program, emu.profile(), &SelectOptions::default());
    for report in &annotated.reports {
        match (&report.placement, &report.rejected) {
            (Some(p), _) => println!(
                "loop @{}: selected — coverage {:.0}%, trip {:.0}, body ≈{:.1} insts/iter",
                report.header_addr,
                report.coverage * 100.0,
                report.trip,
                p.body_score
            ),
            (None, Some(why)) => {
                println!("loop @{}: rejected — {why}", report.header_addr)
            }
            _ => {}
        }
    }

    // 3. Simulate both configurations on the hinted binary.
    let base = simulate(&annotated.program, workload.mem.clone(), LoopFrogConfig::baseline())?;
    let trace = std::env::args().any(|a| a == "--trace");
    let lf = if trace {
        // Keep a shared handle to the tracer so the captured buffer can be
        // read back after the run.
        let sink = std::rc::Rc::new(std::cell::RefCell::new(TextTracer::new(Vec::new())));
        let mut core =
            LoopFrogCore::new(&annotated.program, workload.mem.clone(), LoopFrogConfig::default());
        core.set_tracer(Box::new(std::rc::Rc::clone(&sink)));
        let r = core.run()?;
        let buf = sink.replace(TextTracer::new(Vec::new())).into_inner();
        let text = String::from_utf8_lossy(&buf);
        println!("\npipeline trace (threadlet lifecycle, first 12 lines):");
        for line in text
            .lines()
            .filter(|l| l.contains("spawn") || l.contains("retire") || l.contains("squash"))
            .take(12)
        {
            println!("  {line}");
        }
        r
    } else {
        simulate(&annotated.program, workload.mem.clone(), LoopFrogConfig::default())?
    };
    assert_eq!(base.checksum, emu.state_checksum());
    assert_eq!(lf.checksum, emu.state_checksum());

    println!("\nbaseline: {} cycles | loopfrog: {} cycles", base.stats.cycles, lf.stats.cycles);
    println!(
        "whole-program speedup: {:.1}% (paper reports +87% for imagick on real SPEC inputs)",
        (base.stats.cycles as f64 / lf.stats.cycles as f64 - 1.0) * 100.0
    );
    println!(
        "squash breakdown: {} conflicts, {} sync exits, {} wrong-path",
        lf.stats.squashes_conflict, lf.stats.squashes_sync, lf.stats.squashes_wrong_path
    );
    Ok(())
}
