//! Pipeline tracing: a gem5-style event stream for debugging and teaching.
//!
//! Attach a [`Tracer`] to a [`crate::LoopFrogCore`] with
//! [`crate::LoopFrogCore::set_tracer`] and every significant pipeline event
//! — renames, issues, completions, commits, threadlet spawns, squashes,
//! per-instruction flushes, mispredicts, retirements, region deselections —
//! is reported as it happens. There is exactly one event stream; sinks
//! differ in how they render it:
//!
//! * [`TextTracer`] renders events as one line each,
//! * [`KonataTracer`] renders the per-instruction lifecycle in the
//!   Konata/O3PipeView `Kanata 0004` format (gem5's pipeline viewer),
//! * [`FlightRecorder`] keeps the last N events in a ring, for post-mortem
//!   dumps without a full trace,
//! * [`CountingTracer`] aggregates per-kind counts (tests, cheap profiling),
//! * [`TraceMux`] fans one stream out to several sinks.
//!
//! The text and Konata sinks share the same [`TraceFilter`] admission
//! logic, so a filtered text trace and a filtered Konata trace show the
//! same slice of the run. Callers that read a sink back after the run keep
//! a handle through the `Rc<RefCell<T>>` adapter at the end of this module.

use lf_isa::{Inst, RegionId};
use std::fmt;
use std::io::Write;

/// Why a threadlet (and its successors) was squashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SquashReason {
    /// Inter-threadlet read-after-write conflict (Algorithm 1).
    Conflict,
    /// Loop exit: a committed `sync` discarded the misspeculated successor.
    SyncExit,
    /// The spawning detach was on a mispredicted path.
    WrongPath,
    /// Iteration-packing value misprediction.
    Packing,
    /// Stale inherited register consumed (body→continuation dataflow).
    RegisterViolation,
}

/// One pipeline event.
#[derive(Debug, Clone)]
pub enum TraceEvent {
    /// An instruction entered the out-of-order window.
    Rename {
        /// Cycle of the event.
        cycle: u64,
        /// Threadlet context.
        tid: usize,
        /// Dynamic instruction id.
        uid: u64,
        /// Static program counter.
        pc: usize,
        /// The instruction.
        inst: Inst,
    },
    /// An instruction left the issue queue for a functional unit.
    Issue {
        /// Cycle of the event.
        cycle: u64,
        /// Threadlet context.
        tid: usize,
        /// Dynamic instruction id.
        uid: u64,
    },
    /// An instruction's result wrote back (execution complete).
    Complete {
        /// Cycle of the event.
        cycle: u64,
        /// Threadlet context.
        tid: usize,
        /// Dynamic instruction id.
        uid: u64,
    },
    /// An instruction committed to its threadlet.
    Commit {
        /// Cycle of the event.
        cycle: u64,
        /// Threadlet context.
        tid: usize,
        /// Dynamic instruction id.
        uid: u64,
        /// Static program counter.
        pc: usize,
        /// Whether the committing threadlet was architectural.
        architectural: bool,
    },
    /// An in-flight instruction was discarded by a squash.
    Flush {
        /// Cycle of the event.
        cycle: u64,
        /// Threadlet context.
        tid: usize,
        /// Dynamic instruction id.
        uid: u64,
    },
    /// A detach spawned a successor threadlet.
    Spawn {
        /// Cycle of the event.
        cycle: u64,
        /// Spawning context.
        parent: usize,
        /// New context.
        child: usize,
        /// Region (continuation address).
        region: RegionId,
        /// Iteration-packing factor (1 = unpacked).
        factor: u32,
    },
    /// A threadlet (and everything younger) was squashed.
    SquashThreadlets {
        /// Cycle of the event.
        cycle: u64,
        /// Oldest squashed context.
        first: usize,
        /// Whether `first` restarts from its checkpoint (vs. recycled).
        restart: bool,
        /// Cause.
        reason: SquashReason,
    },
    /// A control instruction resolved against its prediction.
    Mispredict {
        /// Cycle of the event.
        cycle: u64,
        /// Threadlet context.
        tid: usize,
        /// Branch program counter.
        pc: usize,
        /// Resolved target.
        actual: usize,
    },
    /// The architectural threadlet retired and its successor was promoted.
    Retire {
        /// Cycle of the event.
        cycle: u64,
        /// Retiring context.
        tid: usize,
        /// Retiring epoch number.
        epoch: u64,
    },
    /// A detach for a deselected (unprofitable) region fetched as a no-op.
    Deselect {
        /// Cycle of the event.
        cycle: u64,
        /// Fetching context.
        tid: usize,
        /// Suppressed region.
        region: RegionId,
    },
}

/// The kind of a [`TraceEvent`], for filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// [`TraceEvent::Rename`]
    Rename,
    /// [`TraceEvent::Issue`]
    Issue,
    /// [`TraceEvent::Complete`]
    Complete,
    /// [`TraceEvent::Commit`]
    Commit,
    /// [`TraceEvent::Flush`]
    Flush,
    /// [`TraceEvent::Spawn`]
    Spawn,
    /// [`TraceEvent::SquashThreadlets`]
    Squash,
    /// [`TraceEvent::Mispredict`]
    Mispredict,
    /// [`TraceEvent::Retire`]
    Retire,
    /// [`TraceEvent::Deselect`]
    Deselect,
}

impl TraceKind {
    /// Parses the lowercase kind name used by CLI filters.
    pub fn parse(name: &str) -> Option<TraceKind> {
        Some(match name {
            "rename" => TraceKind::Rename,
            "issue" => TraceKind::Issue,
            "complete" => TraceKind::Complete,
            "commit" => TraceKind::Commit,
            "flush" => TraceKind::Flush,
            "spawn" => TraceKind::Spawn,
            "squash" => TraceKind::Squash,
            "mispredict" => TraceKind::Mispredict,
            "retire" => TraceKind::Retire,
            "deselect" => TraceKind::Deselect,
            _ => return None,
        })
    }
}

impl TraceEvent {
    /// The event's cycle.
    pub fn cycle(&self) -> u64 {
        match self {
            TraceEvent::Rename { cycle, .. }
            | TraceEvent::Issue { cycle, .. }
            | TraceEvent::Complete { cycle, .. }
            | TraceEvent::Commit { cycle, .. }
            | TraceEvent::Flush { cycle, .. }
            | TraceEvent::Spawn { cycle, .. }
            | TraceEvent::SquashThreadlets { cycle, .. }
            | TraceEvent::Mispredict { cycle, .. }
            | TraceEvent::Retire { cycle, .. }
            | TraceEvent::Deselect { cycle, .. } => *cycle,
        }
    }

    /// The event's kind.
    pub fn kind(&self) -> TraceKind {
        match self {
            TraceEvent::Rename { .. } => TraceKind::Rename,
            TraceEvent::Issue { .. } => TraceKind::Issue,
            TraceEvent::Complete { .. } => TraceKind::Complete,
            TraceEvent::Commit { .. } => TraceKind::Commit,
            TraceEvent::Flush { .. } => TraceKind::Flush,
            TraceEvent::Spawn { .. } => TraceKind::Spawn,
            TraceEvent::SquashThreadlets { .. } => TraceKind::Squash,
            TraceEvent::Mispredict { .. } => TraceKind::Mispredict,
            TraceEvent::Retire { .. } => TraceKind::Retire,
            TraceEvent::Deselect { .. } => TraceKind::Deselect,
        }
    }

    /// The threadlet context the event concerns: the acting `tid` for
    /// per-threadlet events, the spawning parent for [`TraceEvent::Spawn`],
    /// and the oldest victim for [`TraceEvent::SquashThreadlets`].
    pub fn tid(&self) -> usize {
        match self {
            TraceEvent::Rename { tid, .. }
            | TraceEvent::Issue { tid, .. }
            | TraceEvent::Complete { tid, .. }
            | TraceEvent::Commit { tid, .. }
            | TraceEvent::Flush { tid, .. }
            | TraceEvent::Mispredict { tid, .. }
            | TraceEvent::Retire { tid, .. }
            | TraceEvent::Deselect { tid, .. } => *tid,
            TraceEvent::Spawn { parent, .. } => *parent,
            TraceEvent::SquashThreadlets { first, .. } => *first,
        }
    }

    /// The dynamic instruction id, for per-instruction lifecycle events.
    pub fn uid(&self) -> Option<u64> {
        match self {
            TraceEvent::Rename { uid, .. }
            | TraceEvent::Issue { uid, .. }
            | TraceEvent::Complete { uid, .. }
            | TraceEvent::Commit { uid, .. }
            | TraceEvent::Flush { uid, .. } => Some(*uid),
            _ => None,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Rename { cycle, tid, uid, pc, inst } => {
                write!(f, "{cycle:>8} T{tid} rename  u{uid} pc{pc}: {inst}")
            }
            TraceEvent::Issue { cycle, tid, uid } => {
                write!(f, "{cycle:>8} T{tid} issue   u{uid}")
            }
            TraceEvent::Complete { cycle, tid, uid } => {
                write!(f, "{cycle:>8} T{tid} wback   u{uid}")
            }
            TraceEvent::Commit { cycle, tid, uid, pc, architectural } => {
                let m = if *architectural { "arch" } else { "spec" };
                write!(f, "{cycle:>8} T{tid} commit  u{uid} pc{pc} [{m}]")
            }
            TraceEvent::Flush { cycle, tid, uid } => {
                write!(f, "{cycle:>8} T{tid} flush   u{uid}")
            }
            TraceEvent::Spawn { cycle, parent, child, region, factor } => {
                write!(f, "{cycle:>8} T{parent} spawn   T{child} {region} x{factor}")
            }
            TraceEvent::SquashThreadlets { cycle, first, restart, reason } => {
                let k = if *restart { "restart" } else { "recycle" };
                write!(f, "{cycle:>8} -- squash  from T{first} ({k}, {reason:?})")
            }
            TraceEvent::Mispredict { cycle, tid, pc, actual } => {
                write!(f, "{cycle:>8} T{tid} mispred pc{pc} -> {actual}")
            }
            TraceEvent::Retire { cycle, tid, epoch } => {
                write!(f, "{cycle:>8} T{tid} retire  epoch {epoch}")
            }
            TraceEvent::Deselect { cycle, tid, region } => {
                write!(f, "{cycle:>8} T{tid} deslect {region}")
            }
        }
    }
}

/// An observer of pipeline events.
pub trait Tracer {
    /// Receives one event; called synchronously from the pipeline loop.
    fn event(&mut self, ev: &TraceEvent);
}

/// Admission filter shared by every sink: an optional cycle range, one
/// threadlet, and/or a set of event kinds. Filters compose (all present
/// restrictions must match); the default passes everything. Because text
/// and Konata sinks consult the same filter, a filtered text trace and a
/// filtered Konata trace describe the same slice of the run.
#[derive(Debug, Default, Clone)]
pub struct TraceFilter {
    cycle_range: Option<(u64, u64)>,
    tid: Option<usize>,
    kinds: Option<Vec<TraceKind>>,
}

impl TraceFilter {
    /// A filter that passes every event.
    pub fn new() -> TraceFilter {
        TraceFilter::default()
    }

    /// Restricts to cycles in `[start, end]` (inclusive).
    pub fn with_cycle_range(mut self, start: u64, end: u64) -> TraceFilter {
        self.cycle_range = Some((start, end));
        self
    }

    /// Restricts to events concerning threadlet `tid` (see
    /// [`TraceEvent::tid`]).
    pub fn with_tid(mut self, tid: usize) -> TraceFilter {
        self.tid = Some(tid);
        self
    }

    /// Restricts to the given event kinds.
    pub fn with_kinds(mut self, kinds: &[TraceKind]) -> TraceFilter {
        self.kinds = Some(kinds.to_vec());
        self
    }

    /// Whether `ev` passes every restriction.
    pub fn passes(&self, ev: &TraceEvent) -> bool {
        if let Some((lo, hi)) = self.cycle_range {
            let c = ev.cycle();
            if c < lo || c > hi {
                return false;
            }
        }
        if let Some(tid) = self.tid {
            if ev.tid() != tid {
                return false;
            }
        }
        if let Some(kinds) = &self.kinds {
            if !kinds.contains(&ev.kind()) {
                return false;
            }
        }
        true
    }
}

/// Writes one line per event to a [`Write`] sink, with a [`TraceFilter`]
/// deciding admission. By default everything passes.
#[derive(Debug)]
pub struct TextTracer<W: Write> {
    sink: W,
    filter: TraceFilter,
}

impl<W: Write> TextTracer<W> {
    /// Creates a tracer writing to `sink` (no filtering).
    pub fn new(sink: W) -> TextTracer<W> {
        TextTracer { sink, filter: TraceFilter::new() }
    }

    /// Replaces the admission filter wholesale.
    pub fn with_filter(mut self, filter: TraceFilter) -> TextTracer<W> {
        self.filter = filter;
        self
    }

    /// Returns the sink.
    pub fn into_inner(self) -> W {
        self.sink
    }
}

impl<W: Write> Tracer for TextTracer<W> {
    fn event(&mut self, ev: &TraceEvent) {
        if self.filter.passes(ev) {
            let _ = writeln!(self.sink, "{ev}");
        }
    }
}

/// Renders the per-instruction lifecycle in the `Kanata 0004` log format
/// consumed by [Konata] (and structurally equivalent to gem5's O3PipeView
/// traces). Load the output file in Konata to scrub through the pipeline
/// visually: one row per instruction, colored stage segments, flushed
/// instructions greyed out.
///
/// Lifecycles anchor at rename (the fetch queue has no dynamic id yet):
/// `Rn` covers rename→issue, `Is` issue→writeback, `Cp` writeback→commit.
/// Commit retires the row; a squash flushes it.
///
/// Admission is decided by the shared [`TraceFilter`] **on the
/// instruction's rename event only**: once admitted, the instruction's
/// whole lifecycle is rendered even if later events fall outside a cycle
/// filter — a torn lifecycle would render as a stuck row. Non-instruction
/// events (spawn, retire, …) are not part of the Konata format and are
/// ignored here; pair this sink with a [`TextTracer`] via [`TraceMux`] to
/// capture them.
///
/// [Konata]: https://github.com/shioyadan/Konata
#[derive(Debug)]
pub struct KonataTracer<W: Write> {
    sink: W,
    filter: TraceFilter,
    header_done: bool,
    last_cycle: Option<u64>,
    /// uid → (konata row id, currently-open stage), for admitted uids.
    open: std::collections::HashMap<u64, (u64, &'static str)>,
    next_row: u64,
    retired: u64,
}

impl<W: Write> KonataTracer<W> {
    /// Creates a tracer writing to `sink` (no filtering).
    pub fn new(sink: W) -> KonataTracer<W> {
        KonataTracer {
            sink,
            filter: TraceFilter::new(),
            header_done: false,
            last_cycle: None,
            open: std::collections::HashMap::new(),
            next_row: 0,
            retired: 0,
        }
    }

    /// Replaces the admission filter (applied at rename; see type docs).
    pub fn with_filter(mut self, filter: TraceFilter) -> KonataTracer<W> {
        self.filter = filter;
        self
    }

    /// Returns the sink.
    pub fn into_inner(self) -> W {
        self.sink
    }

    fn sync_cycle(&mut self, cycle: u64) {
        match self.last_cycle {
            None => {
                let _ = writeln!(self.sink, "C=\t{cycle}");
                self.last_cycle = Some(cycle);
            }
            Some(last) if cycle > last => {
                let _ = writeln!(self.sink, "C\t{}", cycle - last);
                self.last_cycle = Some(cycle);
            }
            _ => {}
        }
    }

    fn close_stage(&mut self, row: u64, stage: &str) {
        let _ = writeln!(self.sink, "E\t{row}\t0\t{stage}");
    }

    fn open_stage(&mut self, row: u64, stage: &str) {
        let _ = writeln!(self.sink, "S\t{row}\t0\t{stage}");
    }
}

impl<W: Write> Tracer for KonataTracer<W> {
    fn event(&mut self, ev: &TraceEvent) {
        let Some(uid) = ev.uid() else { return };
        if !self.header_done {
            let _ = writeln!(self.sink, "Kanata\t0004");
            self.header_done = true;
        }
        match ev {
            TraceEvent::Rename { cycle, tid, uid, pc, inst } => {
                if !self.filter.passes(ev) {
                    return; // never admitted: later events find no open row
                }
                let row = self.next_row;
                self.next_row += 1;
                self.sync_cycle(*cycle);
                let _ = writeln!(self.sink, "I\t{row}\t{uid}\t{tid}");
                let _ = writeln!(self.sink, "L\t{row}\t0\tu{uid} pc{pc}: {inst}");
                self.open_stage(row, "Rn");
                self.open.insert(*uid, (row, "Rn"));
            }
            TraceEvent::Issue { cycle, .. } => {
                if let Some(&(row, stage)) = self.open.get(&uid) {
                    self.sync_cycle(*cycle);
                    self.close_stage(row, stage);
                    self.open_stage(row, "Is");
                    self.open.insert(uid, (row, "Is"));
                }
            }
            TraceEvent::Complete { cycle, .. } => {
                if let Some(&(row, stage)) = self.open.get(&uid) {
                    self.sync_cycle(*cycle);
                    self.close_stage(row, stage);
                    self.open_stage(row, "Cp");
                    self.open.insert(uid, (row, "Cp"));
                }
            }
            TraceEvent::Commit { cycle, .. } => {
                if let Some((row, stage)) = self.open.remove(&uid) {
                    self.sync_cycle(*cycle);
                    self.close_stage(row, stage);
                    let _ = writeln!(self.sink, "R\t{row}\t{}\t0", self.retired);
                    self.retired += 1;
                }
            }
            TraceEvent::Flush { cycle, .. } => {
                if let Some((row, stage)) = self.open.remove(&uid) {
                    self.sync_cycle(*cycle);
                    self.close_stage(row, stage);
                    let _ = writeln!(self.sink, "R\t{row}\t{}\t1", self.retired);
                }
            }
            _ => {}
        }
    }
}

/// Fans one event stream out to several sinks, preserving order.
#[derive(Default)]
pub struct TraceMux {
    sinks: Vec<Box<dyn Tracer>>,
}

impl TraceMux {
    /// An empty mux (events are dropped until a sink is added).
    pub fn new() -> TraceMux {
        TraceMux::default()
    }

    /// Adds a sink; events are delivered in insertion order.
    pub fn add(&mut self, sink: Box<dyn Tracer>) {
        self.sinks.push(sink);
    }

    /// Builder-style [`TraceMux::add`].
    pub fn with(mut self, sink: Box<dyn Tracer>) -> TraceMux {
        self.add(sink);
        self
    }

    /// Number of attached sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether the mux has no sinks.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl Tracer for TraceMux {
    fn event(&mut self, ev: &TraceEvent) {
        for sink in &mut self.sinks {
            sink.event(ev);
        }
    }
}

/// A bounded ring of the most recent events: the last `cap` events of a
/// run, kept without paying for a full trace. The first event of each
/// threadlet squash also freezes a copy of the ring, so the lead-up to the
/// most recent squash survives the events that follow it. It sees every
/// event (no [`TraceFilter`]); whoever attaches it picks the window to read
/// after the run: [`FlightRecorder::window`] or
/// [`FlightRecorder::pre_squash`].
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    ring: std::collections::VecDeque<TraceEvent>,
    pre_squash: Vec<TraceEvent>,
}

impl FlightRecorder {
    /// Creates a recorder keeping the last `cap` events.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> FlightRecorder {
        assert!(cap > 0, "flight recorder depth must be positive");
        FlightRecorder {
            cap,
            ring: std::collections::VecDeque::with_capacity(cap),
            pre_squash: Vec::new(),
        }
    }

    /// The last `cap` events recorded, oldest first, regardless of
    /// squashes: what the pipeline was doing when the run ended.
    pub fn window(&self) -> Vec<TraceEvent> {
        self.ring.iter().cloned().collect()
    }

    /// The events recorded before the most recent threadlet squash, oldest
    /// first (empty if no squash happened).
    pub fn pre_squash(&self) -> &[TraceEvent] {
        &self.pre_squash
    }
}

impl Tracer for FlightRecorder {
    fn event(&mut self, ev: &TraceEvent) {
        if matches!(ev, TraceEvent::SquashThreadlets { .. }) {
            self.pre_squash = self.ring.iter().cloned().collect();
        }
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(ev.clone());
    }
}

/// Counts events per kind.
#[derive(Debug, Default, Clone)]
pub struct CountingTracer {
    /// Rename events seen.
    pub renames: u64,
    /// Issue events seen.
    pub issues: u64,
    /// Complete (writeback) events seen.
    pub completes: u64,
    /// Commit events seen.
    pub commits: u64,
    /// Per-instruction flush events seen.
    pub flushes: u64,
    /// Spawn events seen.
    pub spawns: u64,
    /// Squash events seen.
    pub squashes: u64,
    /// Mispredict events seen.
    pub mispredicts: u64,
    /// Retire events seen.
    pub retires: u64,
    /// Deselect events seen.
    pub deselects: u64,
}

impl Tracer for CountingTracer {
    fn event(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::Rename { .. } => self.renames += 1,
            TraceEvent::Issue { .. } => self.issues += 1,
            TraceEvent::Complete { .. } => self.completes += 1,
            TraceEvent::Commit { .. } => self.commits += 1,
            TraceEvent::Flush { .. } => self.flushes += 1,
            TraceEvent::Spawn { .. } => self.spawns += 1,
            TraceEvent::SquashThreadlets { .. } => self.squashes += 1,
            TraceEvent::Mispredict { .. } => self.mispredicts += 1,
            TraceEvent::Retire { .. } => self.retires += 1,
            TraceEvent::Deselect { .. } => self.deselects += 1,
        }
    }
}

/// Sharing adapter: lets callers keep a handle to the tracer while the
/// core owns the boxed trait object.
impl<T: Tracer> Tracer for std::rc::Rc<std::cell::RefCell<T>> {
    fn event(&mut self, ev: &TraceEvent) {
        self.borrow_mut().event(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_one_line_each() {
        let evs = [
            TraceEvent::Spawn { cycle: 7, parent: 0, child: 1, region: RegionId(9), factor: 2 },
            TraceEvent::Retire { cycle: 9, tid: 0, epoch: 3 },
            TraceEvent::SquashThreadlets {
                cycle: 11,
                first: 2,
                restart: true,
                reason: SquashReason::Conflict,
            },
            TraceEvent::Issue { cycle: 12, tid: 1, uid: 40 },
            TraceEvent::Complete { cycle: 13, tid: 1, uid: 40 },
            TraceEvent::Flush { cycle: 14, tid: 1, uid: 41 },
            TraceEvent::Deselect { cycle: 15, tid: 0, region: RegionId(9) },
        ];
        for ev in &evs {
            let s = ev.to_string();
            assert!(!s.contains('\n'));
            assert!(!s.is_empty());
        }
        assert_eq!(evs[0].cycle(), 7);
        assert_eq!(evs[3].uid(), Some(40));
        assert_eq!(evs[0].uid(), None);
    }

    #[test]
    fn text_tracer_writes_lines() {
        let mut t = TextTracer::new(Vec::new());
        t.event(&TraceEvent::Retire { cycle: 1, tid: 0, epoch: 0 });
        t.event(&TraceEvent::Mispredict { cycle: 2, tid: 1, pc: 5, actual: 9 });
        let out = String::from_utf8(t.into_inner()).unwrap();
        assert_eq!(out.lines().count(), 2);
    }

    #[test]
    fn text_tracer_filters_compose() {
        let evs = [
            TraceEvent::Retire { cycle: 1, tid: 0, epoch: 0 },
            TraceEvent::Retire { cycle: 5, tid: 1, epoch: 1 },
            TraceEvent::Mispredict { cycle: 5, tid: 1, pc: 3, actual: 7 },
            TraceEvent::Retire { cycle: 9, tid: 1, epoch: 2 },
        ];
        let feed = |mut t: TextTracer<Vec<u8>>| {
            for ev in &evs {
                t.event(ev);
            }
            String::from_utf8(t.into_inner()).unwrap()
        };

        let text = |f: TraceFilter| TextTracer::new(Vec::new()).with_filter(f);

        let by_cycle = feed(text(TraceFilter::new().with_cycle_range(2, 8)));
        assert_eq!(by_cycle.lines().count(), 2);

        let by_tid = feed(text(TraceFilter::new().with_tid(0)));
        assert_eq!(by_tid.lines().count(), 1);

        let by_kind = feed(text(TraceFilter::new().with_kinds(&[TraceKind::Mispredict])));
        assert_eq!(by_kind.lines().count(), 1);
        assert!(by_kind.contains("mispred"));

        let combined = feed(text(
            TraceFilter::new().with_cycle_range(2, 8).with_tid(1).with_kinds(&[TraceKind::Retire]),
        ));
        assert_eq!(combined.lines().count(), 1);
        assert!(combined.contains("epoch 1"));
    }

    #[test]
    fn shared_filter_admits_identically_for_text_and_konata() {
        // The same TraceFilter drives both sinks: an instruction renamed by
        // T1 passes, one renamed by T0 is invisible in both outputs.
        let evs = [
            TraceEvent::Rename { cycle: 1, tid: 1, uid: 10, pc: 0, inst: Inst::Halt },
            TraceEvent::Rename { cycle: 1, tid: 0, uid: 11, pc: 1, inst: Inst::Halt },
            TraceEvent::Issue { cycle: 2, tid: 1, uid: 10 },
            TraceEvent::Issue { cycle: 2, tid: 0, uid: 11 },
        ];
        let filter = TraceFilter::new().with_tid(1);
        let mut text = TextTracer::new(Vec::new()).with_filter(filter.clone());
        let mut kon = KonataTracer::new(Vec::new()).with_filter(filter);
        for ev in &evs {
            text.event(ev);
            kon.event(ev);
        }
        let text_out = String::from_utf8(text.into_inner()).unwrap();
        let kon_out = String::from_utf8(kon.into_inner()).unwrap();
        assert!(text_out.contains("u10") && !text_out.contains("u11"));
        assert!(kon_out.contains("u10") && !kon_out.contains("u11"));
        // Both rename and issue of the admitted uid made it to Konata.
        assert!(kon_out.contains("I\t0\t10\t1"));
        assert!(kon_out.contains("S\t0\t0\tIs"));
    }

    #[test]
    fn konata_renders_full_lifecycle() {
        let mut kon = KonataTracer::new(Vec::new());
        let inst = Inst::Halt;
        kon.event(&TraceEvent::Rename { cycle: 4, tid: 0, uid: 7, pc: 2, inst });
        kon.event(&TraceEvent::Issue { cycle: 5, tid: 0, uid: 7 });
        kon.event(&TraceEvent::Complete { cycle: 8, tid: 0, uid: 7 });
        kon.event(&TraceEvent::Commit { cycle: 9, tid: 0, uid: 7, pc: 2, architectural: true });
        let out = String::from_utf8(kon.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "Kanata\t0004");
        assert_eq!(lines[1], "C=\t4");
        assert!(lines.contains(&"I\t0\t7\t0"));
        // Rename opens Rn; issue closes Rn and opens Is; complete closes Is
        // and opens Cp; commit closes Cp and retires cleanly (flag 0).
        assert!(lines.contains(&"S\t0\t0\tRn"));
        assert!(lines.contains(&"E\t0\t0\tRn"));
        assert!(lines.contains(&"S\t0\t0\tIs"));
        assert!(lines.contains(&"E\t0\t0\tIs"));
        assert!(lines.contains(&"S\t0\t0\tCp"));
        assert!(lines.contains(&"E\t0\t0\tCp"));
        assert!(lines.contains(&"R\t0\t0\t0"));
        // Cycle advances are deltas.
        assert!(lines.contains(&"C\t1"));
        assert!(lines.contains(&"C\t3"));
    }

    #[test]
    fn konata_marks_flushed_instructions() {
        let mut kon = KonataTracer::new(Vec::new());
        kon.event(&TraceEvent::Rename { cycle: 1, tid: 2, uid: 3, pc: 0, inst: Inst::Halt });
        kon.event(&TraceEvent::Flush { cycle: 6, tid: 2, uid: 3 });
        let out = String::from_utf8(kon.into_inner()).unwrap();
        assert!(out.contains("R\t0\t0\t1"), "flush must retire with flag 1:\n{out}");
    }

    #[test]
    fn trace_mux_fans_out_in_order() {
        let a = std::rc::Rc::new(std::cell::RefCell::new(CountingTracer::default()));
        let b = std::rc::Rc::new(std::cell::RefCell::new(CountingTracer::default()));
        let mut mux = TraceMux::new().with(Box::new(a.clone())).with(Box::new(b.clone()));
        assert_eq!(mux.len(), 2);
        mux.event(&TraceEvent::Retire { cycle: 1, tid: 0, epoch: 0 });
        mux.event(&TraceEvent::Issue { cycle: 2, tid: 0, uid: 1 });
        assert_eq!(a.borrow().retires, 1);
        assert_eq!(b.borrow().issues, 1);
    }

    #[test]
    fn event_kind_and_tid_accessors() {
        let spawn =
            TraceEvent::Spawn { cycle: 3, parent: 2, child: 3, region: RegionId(4), factor: 1 };
        assert_eq!(spawn.kind(), TraceKind::Spawn);
        assert_eq!(spawn.tid(), 2);
        let squash = TraceEvent::SquashThreadlets {
            cycle: 4,
            first: 1,
            restart: false,
            reason: SquashReason::Packing,
        };
        assert_eq!(squash.kind(), TraceKind::Squash);
        assert_eq!(squash.tid(), 1);
        assert_eq!(TraceKind::parse("flush"), Some(TraceKind::Flush));
        assert_eq!(TraceKind::parse("nope"), None);
    }

    #[test]
    fn counting_tracer_counts() {
        let mut c = CountingTracer::default();
        c.event(&TraceEvent::Retire { cycle: 1, tid: 0, epoch: 0 });
        c.event(&TraceEvent::Retire { cycle: 2, tid: 1, epoch: 1 });
        c.event(&TraceEvent::Spawn {
            cycle: 3,
            parent: 0,
            child: 1,
            region: RegionId(4),
            factor: 1,
        });
        c.event(&TraceEvent::Flush { cycle: 4, tid: 1, uid: 9 });
        assert_eq!(c.retires, 2);
        assert_eq!(c.spawns, 1);
        assert_eq!(c.flushes, 1);
    }

    #[test]
    fn flight_recorder_freezes_on_squash() {
        let mut r = FlightRecorder::new(2);
        let retire = |cycle| TraceEvent::Retire { cycle, tid: 0, epoch: 0 };
        let cycles = |evs: &[TraceEvent]| evs.iter().map(TraceEvent::cycle).collect::<Vec<_>>();
        r.event(&retire(1));
        r.event(&retire(2));
        r.event(&retire(3)); // evicts cycle 1
        assert_eq!(cycles(&r.window()), [2, 3]);
        assert!(r.pre_squash().is_empty());
        r.event(&TraceEvent::SquashThreadlets {
            cycle: 4,
            first: 1,
            restart: false,
            reason: SquashReason::Conflict,
        });
        assert_eq!(cycles(r.pre_squash()), [2, 3]);
        // Later events move the window but not the capture.
        r.event(&retire(5));
        assert_eq!(cycles(&r.window()), [4, 5]);
        assert_eq!(cycles(r.pre_squash()), [2, 3]);
    }
}
