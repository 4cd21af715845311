//! `lf-bench trace` — per-instruction pipeline-trace export.
//!
//! Runs one kernel standalone (no engine, no cache) with the core's
//! unified event stream attached, fanning the single stream out to any
//! combination of sinks:
//!
//! - `--text PATH` — the gem5-style one-line-per-event textual trace
//!   ([`loopfrog::TextTracer`]); `-` writes to stdout.
//! - `--konata PATH` — Konata / O3PipeView-compatible pipeline
//!   visualization ([`loopfrog::KonataTracer`]; open in Konata).
//! - `--dump-flight-recorder PATH` — the last-N-event window at run end
//!   ([`loopfrog::FlightRecorder`], unfiltered), as JSON.
//!
//! One [`loopfrog::TraceFilter`] (from `--cycles LO:HI`, `--tid N`,
//! `--kinds a,b,...`) is shared by the text and Konata sinks, so both
//! describe the same slice of the run. Tracing is core-side state: the
//! simulated results are byte-identical with or without it.

use crate::engine::planner::{Hinting, PreparedKernel};
use crate::runner::scale_tag;
use lf_stats::Json;
use lf_workloads::Scale;
use loopfrog::{
    FlightRecorder, KonataTracer, LoopFrogConfig, LoopFrogCore, TextTracer, TraceFilter, TraceKind,
    TraceMux,
};
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;

/// Which pinned configuration to trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceConfig {
    /// The baseline core (hints as NOPs).
    Base,
    /// The LoopFrog core (default config).
    Lf,
}

/// Options for one `lf-bench trace` invocation.
#[derive(Debug, Clone)]
pub struct TraceOptions {
    /// Kernel to trace.
    pub kernel: String,
    /// Workload scale.
    pub scale: Scale,
    /// Which config to simulate.
    pub config: TraceConfig,
    /// Konata output path.
    pub konata: Option<PathBuf>,
    /// Text-trace output path (`-` = stdout).
    pub text: Option<PathBuf>,
    /// Flight-recorder dump path (JSON, last-N events at run end).
    pub dump_flight_recorder: Option<PathBuf>,
    /// Shared admission filter: cycle range.
    pub cycles: Option<(u64, u64)>,
    /// Shared admission filter: one threadlet.
    pub tid: Option<usize>,
    /// Shared admission filter: event kinds.
    pub kinds: Option<Vec<TraceKind>>,
}

/// Flight-recorder depth for on-demand dumps: enough to cover several
/// epochs of an 8-wide core without the dump becoming a full trace.
const DUMP_DEPTH: usize = 256;

fn filter_of(opts: &TraceOptions) -> TraceFilter {
    let mut f = TraceFilter::new();
    if let Some((lo, hi)) = opts.cycles {
        f = f.with_cycle_range(lo, hi);
    }
    if let Some(tid) = opts.tid {
        f = f.with_tid(tid);
    }
    if let Some(kinds) = &opts.kinds {
        f = f.with_kinds(kinds);
    }
    f
}

fn create(path: &PathBuf) -> std::io::BufWriter<std::fs::File> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    match std::fs::File::create(path) {
        Ok(f) => std::io::BufWriter::new(f),
        Err(e) => {
            eprintln!("error: cannot create {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Runs the traced simulation and writes every requested sink. Returns
/// the number of cycles simulated.
pub fn run_trace(opts: &TraceOptions) -> u64 {
    let w = lf_workloads::by_name(&opts.kernel, opts.scale).unwrap_or_else(|| {
        eprintln!("error: unknown kernel {:?} at scale {}", opts.kernel, scale_tag(opts.scale));
        std::process::exit(2);
    });
    let prep = PreparedKernel::prepare(w, &Hinting::Annotated);
    let cfg = match opts.config {
        TraceConfig::Base => LoopFrogConfig::baseline(),
        TraceConfig::Lf => LoopFrogConfig::default(),
    };

    let filter = filter_of(opts);
    let mut mux = TraceMux::new();
    if let Some(path) = &opts.text {
        if path.as_os_str() == "-" {
            mux.add(Box::new(
                TextTracer::new(std::io::stdout().lock()).with_filter(filter.clone()),
            ));
        } else {
            mux.add(Box::new(TextTracer::new(create(path)).with_filter(filter.clone())));
        }
    }
    if let Some(path) = &opts.konata {
        mux.add(Box::new(KonataTracer::new(create(path)).with_filter(filter.clone())));
    }
    let dump = opts
        .dump_flight_recorder
        .as_ref()
        .map(|path| (path, Rc::new(RefCell::new(FlightRecorder::new(DUMP_DEPTH)))));
    if let Some((_, recorder)) = &dump {
        mux.add(Box::new(Rc::clone(recorder)));
    }

    let program = prep.program().expect("a full preparation holds its program");
    let mut core = LoopFrogCore::new(program, prep.workload.mem.clone(), cfg);
    if !mux.is_empty() {
        core.set_tracer(Box::new(mux));
    }
    let result = core.run().unwrap_or_else(|e| {
        eprintln!("error: {} failed: {e}", opts.kernel);
        std::process::exit(1);
    });
    // Dropping the core drops the tracer, flushing the buffered sinks.
    drop(core);

    if let Some((path, recorder)) = &dump {
        let events: Vec<Json> = recorder
            .borrow()
            .window()
            .iter()
            .map(|ev| {
                let mut j = Json::obj();
                j.set("cycle", ev.cycle());
                j.set("kind", format!("{:?}", ev.kind()).to_lowercase());
                j.set("tid", ev.tid() as u64);
                j.set("text", format!("{ev}"));
                j
            })
            .collect();
        let mut doc = Json::obj();
        doc.set("kernel", opts.kernel.as_str());
        doc.set("scale", scale_tag(opts.scale));
        doc.set("depth", DUMP_DEPTH as u64);
        doc.set("cycles", result.stats.cycles);
        doc.set("events", Json::Arr(events));
        if let Err(e) = crate::durable::atomic_write_json(&doc, path) {
            eprintln!("error: failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", path.display());
    }
    for path in [&opts.text, &opts.konata].into_iter().flatten() {
        if path.as_os_str() != "-" {
            eprintln!("wrote {}", path.display());
        }
    }
    eprintln!(
        "traced {} ({}, scale {}): {} cycles",
        opts.kernel,
        match opts.config {
            TraceConfig::Base => "base",
            TraceConfig::Lf => "lf",
        },
        scale_tag(opts.scale),
        result.stats.cycles
    );
    result.stats.cycles
}

/// Parses `--kinds` operands (comma-separated [`TraceKind`] names).
pub fn parse_kinds(spec: &str) -> Result<Vec<TraceKind>, String> {
    spec.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| TraceKind::parse(s).ok_or_else(|| format!("unknown event kind {s:?}")))
        .collect()
}

/// Parses a `--cycles LO:HI` operand.
pub fn parse_cycle_range(spec: &str) -> Result<(u64, u64), String> {
    let (lo, hi) = spec.split_once(':').ok_or_else(|| format!("expected LO:HI, got {spec:?}"))?;
    let lo = lo.parse::<u64>().map_err(|_| format!("bad cycle {lo:?}"))?;
    let hi = hi.parse::<u64>().map_err(|_| format!("bad cycle {hi:?}"))?;
    if lo > hi {
        return Err(format!("empty range {lo}:{hi}"));
    }
    Ok((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_and_range_parsers() {
        assert_eq!(parse_kinds("rename,commit").unwrap().len(), 2);
        assert!(parse_kinds("rename,bogus").is_err());
        assert_eq!(parse_cycle_range("10:20").unwrap(), (10, 20));
        assert!(parse_cycle_range("20:10").is_err());
        assert!(parse_cycle_range("nope").is_err());
    }

    #[test]
    fn trace_writes_konata_and_flight_recorder() {
        let dir = std::env::temp_dir().join(format!("lf-trace-test-{}", std::process::id()));
        let konata = dir.join("trace.kanata");
        let dump = dir.join("flight.json");
        let opts = TraceOptions {
            kernel: "stencil_blur".into(),
            scale: Scale::Smoke,
            config: TraceConfig::Lf,
            konata: Some(konata.clone()),
            text: None,
            dump_flight_recorder: Some(dump.clone()),
            cycles: None,
            tid: None,
            kinds: None,
        };
        let cycles = run_trace(&opts);
        assert!(cycles > 0);
        let kanata = std::fs::read_to_string(&konata).unwrap();
        assert!(kanata.starts_with("Kanata\t0004\n"), "Konata header");
        assert!(kanata.lines().any(|l| l.starts_with("I\t")), "instruction records");
        assert!(kanata.lines().any(|l| l.starts_with("R\t")), "retire records");
        let doc = Json::parse(&std::fs::read_to_string(&dump).unwrap()).unwrap();
        let events = doc.get("events").and_then(Json::as_arr).unwrap();
        assert!(!events.is_empty(), "a clean run still dumps the live window");
        assert!(events.len() <= DUMP_DEPTH);
        std::fs::remove_dir_all(&dir).ok();
    }
}
