//! Unified observability layer: trace spans and funnel counters.
//!
//! Both schedules ([`crate::pipeline::run_pair`] at one thread, the
//! streaming dataflow executor at more, both behind
//! [`crate::genome_pipeline::align_assemblies_observed`]) thread an
//! [`Obs`] handle through the stage functions' hot loops. The handle is
//! a `Copy` few-word value wrapping an optional `&TraceRecorder`, the
//! run's optional [`FaultInjector`] and the pair it attributes to; when
//! observability is off (the default for every pre-existing entry
//! point) the recorder is `None` and every instrumentation call reduces
//! to a single branch, and so does every fault gate without an
//! injector. Every span of one recorder is timed from its start.
//!
//! This module alone reads the clock, and a stage interval is timed
//! once, by its span: [`SpanBuf::finish`] returns the span's `dur_us`,
//! recorder or not, for the caller to charge to its stage.
//!
//! Two primitives:
//!
//! * **Spans** ([`Span`]) — named, timestamped intervals (`seed`,
//!   `filter.batch`, `extend.tile`, `chain`, `checkpoint`, …) gathered
//!   in per-worker [`SpanBuf`] buffers and flushed to the recorder at
//!   batch boundaries, so the shared span list is touched once per
//!   batch rather than once per tile.
//! * **Counters** ([`Counter`]) — relaxed atomic funnel totals (pairs
//!   done, filter tiles, DP cells, …), folded in one finished pair at a
//!   time from the same [`PairRecord`] the run's report is folded from
//!   ([`Obs::pair_done`]), so a trace counts exactly what the report
//!   does.
//!
//! The [`TraceRecorder`] renders everything as JSONL with
//! deterministic integer-only fields, one [`TraceLine`] a line: this
//! module alone defines what a trace line is, in both directions
//! (`wga profile` reads traces back through [`TraceLine::from_json`]).

mod progress;

pub use progress::{render_progress_line, ProgressMeter, ProgressSnapshot};

use crate::error::WgaResult;
use crate::faultsim::{FaultInjector, Hook};
use crate::journal::PairRecord;
use crate::json::Json;
use crate::report::Strand;
use crate::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// `pair` value for spans not attributed to a chromosome pair.
pub const NO_PAIR: u64 = u64::MAX;

/// Version stamped into the `{"schema":N}` header line of every trace
/// written by [`TraceRecorder::write_trace`]. Bumped when the JSONL
/// shape changes incompatibly; readers (`wga profile`) reject traces
/// with a higher major and treat headerless traces as schema 1.
///
/// * schema 1 — spans without `tid`/`id`/`parent`, no header line.
/// * schema 2 — header line, per-span `tid`/`id`/`parent`, `extend`
///   lane spans, `queue.wait` spans, the `extend.rows` counter.
pub const TRACE_SCHEMA: u64 = 2;

/// `parent`/`id` value for spans with no parent (or, for `id`, spans
/// recorded while observability was off).
pub const NO_SPAN: u64 = 0;

/// Worker-thread ids are assigned lazily, first-use order; 0 is "never
/// assigned" so real ids start at 1.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static NEXT_LOCAL_SPAN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Small stable id for the calling thread (1-based, assigned on first
/// use). Ids are process-wide, so every recorder in a run shares one
/// numbering and a worker keeps its id across pairs.
pub fn thread_id() -> u64 {
    TID.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

/// Allocates a process-unique span id on the calling thread: the
/// thread id in the high bits, a per-thread sequence in the low 40.
/// Never returns [`NO_SPAN`].
fn alloc_span_id() -> u64 {
    let tid = thread_id();
    NEXT_LOCAL_SPAN.with(|n| {
        let next = n.get() + 1;
        n.set(next);
        (tid << 40) | next
    })
}

/// `strand` code for forward-strand spans.
pub const STRAND_FWD: u8 = 0;
/// `strand` code for reverse-strand spans.
pub const STRAND_REV: u8 = 1;
/// `strand` code for spans with no strand (seed-table build, checkpoint…).
pub const STRAND_NA: u8 = 2;

/// Trace code for a pipeline strand.
pub fn strand_code(strand: Strand) -> u8 {
    match strand {
        Strand::Forward => STRAND_FWD,
        Strand::Reverse => STRAND_REV,
    }
}

/// Names of the spans the drivers emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanName {
    /// D-SOFT seeding of one query range of one strand of one pair
    /// (`seq` = the range's index).
    Seed,
    /// Seed-table construction for one target chromosome.
    SeedTable,
    /// One batch of gapped filter tiles: one query range's seed hits,
    /// on every schedule (`seq` = the range's index).
    FilterBatch,
    /// GACT-X extension of one surviving anchor (items = tiles).
    ExtendTile,
    /// Chaining of one pair's alignments (CLI post-pass).
    Chain,
    /// One checkpoint-journal append.
    Checkpoint,
    /// One injected fault (`seq` = hook code, `items` = fault-kind
    /// code), the audit trail of a chaos run.
    Fault,
    /// The whole extension commit loop of one (pair, strand) lane
    /// (`items` = anchors in, `cells` = extension DP cells); the
    /// `extend.tile` spans it encloses carry its id as their `parent`.
    Extend,
    /// Time a dataflow thread spent blocked (`seq` = queue code: 0
    /// producer push, 1 worker pop, 4 producer waiting for the range
    /// tasks it queued to seed; 2, the pop of a retired extension queue,
    /// and 3, the pop of a retired collector's queue, only in old
    /// traces).
    QueueWait,
}

impl SpanName {
    /// Every span name, for schema tests and documentation.
    pub const ALL: [SpanName; 9] = [
        SpanName::Seed,
        SpanName::SeedTable,
        SpanName::FilterBatch,
        SpanName::ExtendTile,
        SpanName::Chain,
        SpanName::Checkpoint,
        SpanName::Fault,
        SpanName::Extend,
        SpanName::QueueWait,
    ];

    /// The wire name used in trace JSONL lines.
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanName::Seed => "seed",
            SpanName::SeedTable => "seed.table",
            SpanName::FilterBatch => "filter.batch",
            SpanName::ExtendTile => "extend.tile",
            SpanName::Chain => "chain",
            SpanName::Checkpoint => "checkpoint",
            SpanName::Fault => "fault",
            SpanName::Extend => "extend",
            SpanName::QueueWait => "queue.wait",
        }
    }
}

/// One recorded interval. All fields are integers so the JSONL output
/// is deterministic in shape (values are wall-clock measurements and
/// naturally vary run to run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was measured.
    pub name: SpanName,
    /// Pair id (`target_index * query_count + query_index`), or
    /// [`NO_PAIR`] for spans outside any pair.
    pub pair: u64,
    /// [`STRAND_FWD`], [`STRAND_REV`] or [`STRAND_NA`].
    pub strand: u8,
    /// Sequence number disambiguating sibling spans (batch index,
    /// anchor index, …).
    pub seq: u64,
    /// Microseconds since the recorder started.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Work items covered (tiles, hits, alignments — span-specific).
    pub items: u64,
    /// DP cells covered, where meaningful (0 otherwise).
    pub cells: u64,
    /// Id of the worker thread that recorded the span ([`thread_id`]).
    pub tid: u64,
    /// Process-unique span id ([`NO_SPAN`] only in hand-built spans).
    pub id: u64,
    /// Id of the enclosing span, or [`NO_SPAN`] for top-level spans.
    /// Today only `extend.tile` spans nest (under their lane's
    /// `extend` span).
    pub parent: u64,
}

/// One line of a `--trace-out` file: what [`TraceRecorder::lines`]
/// yields, [`TraceRecorder::write_trace`] renders and `wga profile` reads
/// back, all through this type. Every value is an integer, so a line is
/// deterministic in shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceLine {
    /// `{"schema":N}`, the first line since schema 2 ([`TRACE_SCHEMA`]).
    Schema(u64),
    /// `{"span":NAME,"pair":…,"strand":…,"seq":…,"start_us":…,"dur_us":…,
    /// "items":…,"cells":…,"tid":…,"id":…,"parent":…}`. A schema-1 span
    /// has no `tid`/`id`/`parent`; they read as 0.
    Span(Span),
    /// `{"counter":NAME,"value":N}`, by wire name, so a reader keeps a
    /// counter this recorder no longer has.
    Counter(String, u64),
}

impl TraceLine {
    /// The line as JSON.
    pub fn to_json(&self) -> Json {
        match self {
            TraceLine::Schema(version) => Json::obj([("schema", (*version).into())]),
            TraceLine::Span(s) => Json::obj([
                ("span", s.name.as_str().into()),
                ("pair", s.pair.into()),
                ("strand", u64::from(s.strand).into()),
                ("seq", s.seq.into()),
                ("start_us", s.start_us.into()),
                ("dur_us", s.dur_us.into()),
                ("items", s.items.into()),
                ("cells", s.cells.into()),
                ("tid", s.tid.into()),
                ("id", s.id.into()),
                ("parent", s.parent.into()),
            ]),
            TraceLine::Counter(name, value) => Json::obj([
                ("counter", name.as_str().into()),
                ("value", (*value).into()),
            ]),
        }
    }

    /// Reads one line: its kind, a known span name, and
    /// every field of that kind, present (`tid`/`id`/`parent` aside) and
    /// a `u64`. Errors name what is wrong. `None` is a retired line of an
    /// older trace, which every reader skips unread: a `hwsim.bsw` /
    /// `hwsim.gactx` span (modeled cycles posing as a span) or a `hist`
    /// line of the log2 histograms no report read.
    pub fn from_json(doc: &Json) -> Result<Option<TraceLine>, String> {
        if doc.get("schema").is_some() {
            return doc.u64("schema").map(|v| Some(TraceLine::Schema(v)));
        }
        let span = doc.get("span").and_then(Json::as_str);
        if matches!(span, Some("hwsim.bsw" | "hwsim.gactx")) || doc.get("hist").is_some() {
            return Ok(None);
        }
        if let Some(name) = span {
            let name = SpanName::ALL
                .into_iter()
                .find(|n| n.as_str() == name)
                .ok_or_else(|| format!("unknown span name {name:?}"))?;
            let strand = doc.u64("strand")?;
            if strand > u64::from(STRAND_NA) {
                return Err(format!("strand code out of range: {strand}"));
            }
            let schema_2 = |key: &str| doc.get_u64(key).map(Option::unwrap_or_default);
            return Ok(Some(TraceLine::Span(Span {
                name,
                pair: doc.u64("pair")?,
                strand: strand as u8,
                seq: doc.u64("seq")?,
                start_us: doc.u64("start_us")?,
                dur_us: doc.u64("dur_us")?,
                items: doc.u64("items")?,
                cells: doc.u64("cells")?,
                tid: schema_2("tid")?,
                id: schema_2("id")?,
                parent: schema_2("parent")?,
            })));
        }
        if let Some(name) = doc.get("counter").and_then(Json::as_str) {
            let value = doc.u64("value")?;
            return Ok(Some(TraceLine::Counter(name.to_string(), value)));
        }
        Err("line is neither a schema header, a span, nor a counter".into())
    }
}

/// Funnel counters maintained by the recorder (relaxed atomics), each
/// the sum of one report field over the finished pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Chromosome pairs finished (computed, failed or replayed from a
    /// journal).
    PairsDone,
    /// Gapped filter tiles executed.
    FilterTiles,
    /// DP cells spent in the gapped filter.
    FilterCells,
    /// Anchors that survived the filter threshold.
    AnchorsPassed,
    /// GACT-X tiles spent in extension.
    ExtensionTiles,
    /// DP cells spent in GACT-X extension.
    ExtensionCells,
    /// DP rows spent in GACT-X extension (with cells and tiles, enough
    /// to replay the GACT-X cycle model from a trace).
    ExtensionRows,
    /// Alignments kept after extension.
    AlignmentsKept,
}

/// Number of [`Counter`] variants.
pub const COUNTER_COUNT: usize = 8;

impl Counter {
    /// Every counter, for trace rendering and schema tests.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::PairsDone,
        Counter::FilterTiles,
        Counter::FilterCells,
        Counter::AnchorsPassed,
        Counter::ExtensionTiles,
        Counter::ExtensionCells,
        Counter::ExtensionRows,
        Counter::AlignmentsKept,
    ];

    /// The wire name used in trace JSONL `counter` lines.
    pub fn as_str(&self) -> &'static str {
        match self {
            Counter::PairsDone => "pairs.done",
            Counter::FilterTiles => "filter.tiles",
            Counter::FilterCells => "filter.cells",
            Counter::AnchorsPassed => "anchors.passed",
            Counter::ExtensionTiles => "extend.tiles",
            Counter::ExtensionCells => "extend.cells",
            Counter::ExtensionRows => "extend.rows",
            Counter::AlignmentsKept => "alignments.kept",
        }
    }
}

/// The observation handle threaded through the drivers.
///
/// `Copy` and a few words wide; cloning it into worker closures is
/// free. When disabled (`rec == None`) every method is a branch on a
/// register — no atomics touched, no time read but a span's own. A chaos run's
/// fault injector rides along the same way: `None` (the default
/// everywhere) makes every `fault_gate` call a single branch.
#[derive(Clone, Copy)]
pub struct Obs<'a> {
    rec: Option<&'a TraceRecorder>,
    injector: Option<&'a FaultInjector>,
    pair: u64,
}

impl std::fmt::Debug for Obs<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.rec.is_some())
            .field("chaos", &self.injector.is_some())
            .field("pair", &self.pair)
            .finish()
    }
}

impl Obs<'static> {
    /// The disabled handle — what every pre-existing entry point uses.
    pub fn off() -> Obs<'static> {
        Obs {
            rec: None,
            injector: None,
            pair: NO_PAIR,
        }
    }
}

impl<'a> Obs<'a> {
    /// A handle feeding `recorder`.
    pub fn new(recorder: &'a TraceRecorder) -> Obs<'a> {
        Obs {
            rec: Some(recorder),
            ..Obs::off()
        }
    }

    /// A copy of this handle attributing subsequent spans to `pair`.
    pub fn with_pair(self, pair: u64) -> Obs<'a> {
        Obs { pair, ..self }
    }

    /// A copy of this handle carrying a chaos run's fault injector.
    pub fn with_injector(self, injector: &'a FaultInjector) -> Obs<'a> {
        Obs {
            injector: Some(injector),
            ..self
        }
    }

    /// The fault injector riding on this handle, if any.
    pub fn injector(&self) -> Option<&'a FaultInjector> {
        self.injector
    }

    /// Runs the fault-injection gate for `hook` at this handle's pair.
    /// A single branch when no injector is attached. Panics on an
    /// injection, which fails the pair through the executors' existing
    /// pair-level panic isolation — see [`crate::faultsim`].
    #[inline]
    pub fn fault_gate(&self, hook: Hook) {
        if let Some(injector) = self.injector {
            injector.gate(hook, self);
        }
    }

    /// Runs the I/O fault gate for `hook` at this handle's pair: a
    /// journal append or sync, or a FASTA read, passes it and then runs
    /// its operation once. A single branch when no injector is attached;
    /// an injection is the caller's error — see
    /// [`FaultInjector::gate_io`].
    ///
    /// # Errors
    ///
    /// The injected [`WgaError::Io`](crate::error::WgaError::Io).
    #[inline]
    pub fn io_gate(&self, hook: Hook) -> WgaResult<()> {
        match self.injector {
            Some(injector) => injector.gate_io(hook, self),
            None => Ok(()),
        }
    }

    /// Records one injected fault as a [`SpanName::Fault`] span
    /// (`seq` = hook code, `items` = fault-kind code, `cells` = 0).
    /// Called by the injector itself so every injection is auditable in
    /// the trace.
    pub fn fault_span(&self, hook_code: u64, kind_code: u64) {
        if let Some(rec) = self.rec {
            let mut spans = vec![Span {
                name: SpanName::Fault,
                pair: self.pair,
                strand: STRAND_NA,
                seq: hook_code,
                start_us: rec.since_start(Instant::now()),
                dur_us: 0,
                items: kind_code,
                cells: 0,
                tid: thread_id(),
                id: alloc_span_id(),
                parent: NO_SPAN,
            }];
            rec.flush_spans(&mut spans);
        }
    }

    /// The pair this handle attributes spans to ([`NO_PAIR`] if unset).
    pub fn pair(&self) -> u64 {
        self.pair
    }

    /// Folds one finished pair — committed, failed or replayed from a
    /// journal — into the funnel counters (no-op when disabled). The
    /// record is what the run's report is folded from, so the counters
    /// and the report cannot disagree: a failed pair's tiles count not
    /// at all, a replayed pair's as journaled.
    pub fn pair_done(&self, record: &PairRecord) {
        if let Some(rec) = self.rec {
            let (work, funnel) = (&record.workload, &record.counters);
            for (counter, n) in [
                (Counter::PairsDone, 1),
                (Counter::FilterTiles, work.filter_tiles),
                (Counter::FilterCells, funnel.filter_cells),
                (Counter::AnchorsPassed, funnel.anchors_passed),
                (Counter::ExtensionTiles, work.extension_tiles),
                (Counter::ExtensionCells, work.extension_cells),
                (Counter::ExtensionRows, work.extension_rows),
                (Counter::AlignmentsKept, funnel.alignments_kept),
            ] {
                rec.add(counter, n);
            }
        }
    }

    /// [`Obs::pair_done`] for a pair replayed from a journal. Its
    /// counters fold in like any pair's, but the progress meter keeps it
    /// out of its rate and ETA: this process spent no time on it.
    pub fn pair_replayed(&self, record: &PairRecord) {
        self.pair_done(record);
        if let Some(rec) = self.rec {
            let cells = record.counters.filter_cells + record.workload.extension_cells;
            rec.replayed_pairs.fetch_add(1, Ordering::Relaxed);
            rec.replayed_cells.fetch_add(cells, Ordering::Relaxed);
        }
    }

    /// Forwards the run's total pair count to the recorder.
    pub fn set_total_pairs(&self, pairs: u64) {
        if let Some(rec) = self.rec {
            rec.set_total_pairs(pairs);
        }
    }

    /// Starts a timer, or an inert one when disabled, for a span no
    /// stage is charged (an `extend.tile`). The single branch is the
    /// entire per-call cost on the disabled path.
    #[inline]
    pub fn timer(&self) -> SpanTimer {
        SpanTimer(self.rec.map(|_| Instant::now()))
    }

    /// A fresh span buffer bound to this handle. One per worker/batch;
    /// dropped buffers flush themselves.
    pub fn buffer(&self) -> SpanBuf<'a> {
        SpanBuf {
            obs: *self,
            spans: Vec::new(),
            parent: NO_SPAN,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push_span(
        &self,
        spans: &mut Vec<Span>,
        timer: SpanTimer,
        name: SpanName,
        pair: u64,
        strand: u8,
        seq: u64,
        items: u64,
        cells: u64,
        id: u64,
        parent: u64,
    ) -> u64 {
        let Some(start) = timer.0 else {
            return 0;
        };
        let dur_us = start.elapsed().as_micros() as u64;
        if let Some(rec) = self.rec {
            spans.push(Span {
                name,
                pair,
                strand,
                seq,
                start_us: rec.since_start(start),
                dur_us,
                items,
                cells,
                tid: thread_id(),
                id: if id == NO_SPAN { alloc_span_id() } else { id },
                parent,
            });
        }
        dur_us
    }
}

/// A started span clock, or an inert one from a disabled [`Obs::timer`].
#[derive(Debug, Clone, Copy)]
pub struct SpanTimer(Option<Instant>);

impl SpanTimer {
    /// A clock started now (also for an interval no span records, like
    /// a command's wall time, which [`SpanTimer::read`] returns).
    pub fn now() -> SpanTimer {
        SpanTimer(Some(Instant::now()))
    }

    /// The time since the clock started, zero for an inert one.
    pub fn read(&self) -> Duration {
        self.0.map_or(Duration::ZERO, |start| start.elapsed())
    }
}

/// Per-worker span buffer. Spans accumulate locally and hit the shared
/// recorder once, at [`SpanBuf::flush`] (called automatically on drop).
pub struct SpanBuf<'a> {
    obs: Obs<'a>,
    spans: Vec<Span>,
    parent: u64,
}

impl std::fmt::Debug for SpanBuf<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanBuf")
            .field("obs", &self.obs)
            .field("buffered", &self.spans.len())
            .finish()
    }
}

impl SpanBuf<'_> {
    /// Starts the clock of a span that will end in [`SpanBuf::finish`],
    /// on a disabled handle too.
    #[inline]
    pub fn start(&self) -> SpanTimer {
        SpanTimer::now()
    }

    /// Pre-allocates a span id the caller can hand to
    /// [`SpanBuf::finish_with_id`] and advertise as the parent of
    /// enclosed spans before the enclosing span itself finishes.
    /// Returns [`NO_SPAN`] on a disabled handle.
    pub fn alloc_id(&self) -> u64 {
        if self.obs.rec.is_some() {
            alloc_span_id()
        } else {
            NO_SPAN
        }
    }

    /// Sets the `parent` stamped on every span this buffer finishes
    /// from now on ([`NO_SPAN`] to clear).
    pub fn set_parent(&mut self, parent: u64) {
        self.parent = parent;
    }

    /// Completes a span attributed to the handle's pair. Each `finish*`
    /// returns the span's `dur_us`, recorded or not (0 if inert).
    pub fn finish(
        &mut self,
        timer: SpanTimer,
        name: SpanName,
        strand: u8,
        seq: u64,
        items: u64,
        cells: u64,
    ) -> u64 {
        let pair = self.obs.pair;
        self.finish_for_pair(timer, name, pair, strand, seq, items, cells)
    }

    /// Completes a span under a pre-allocated id from
    /// [`SpanBuf::alloc_id`], attributed to the handle's pair. The
    /// buffer's current parent does not apply (a span cannot be its
    /// own ancestor); the span is top-level unless `set_parent` is
    /// layered by hand into `finish_for_pair`.
    #[allow(clippy::too_many_arguments)]
    pub fn finish_with_id(
        &mut self,
        timer: SpanTimer,
        id: u64,
        name: SpanName,
        strand: u8,
        seq: u64,
        items: u64,
        cells: u64,
    ) -> u64 {
        let obs = self.obs;
        let pair = obs.pair;
        obs.push_span(
            &mut self.spans,
            timer,
            name,
            pair,
            strand,
            seq,
            items,
            cells,
            id,
            NO_SPAN,
        )
    }

    /// Completes a span attributed to an explicit pair (for buffers
    /// shared across pairs, like a dataflow worker's).
    #[allow(clippy::too_many_arguments)]
    pub fn finish_for_pair(
        &mut self,
        timer: SpanTimer,
        name: SpanName,
        pair: u64,
        strand: u8,
        seq: u64,
        items: u64,
        cells: u64,
    ) -> u64 {
        let obs = self.obs;
        let parent = self.parent;
        obs.push_span(
            &mut self.spans,
            timer,
            name,
            pair,
            strand,
            seq,
            items,
            cells,
            NO_SPAN,
            parent,
        )
    }

    /// Completes a `queue.wait` span: a wait of kind `code` (the
    /// dataflow executor's queue codes) attributed to `pair`.
    pub(crate) fn finish_wait(&mut self, timer: SpanTimer, pair: u64, code: u64) {
        self.finish_for_pair(timer, SpanName::QueueWait, pair, STRAND_NA, code, 0, 0);
    }

    /// Hands buffered spans to the recorder, leaving the buffer empty.
    pub fn flush(&mut self) {
        if !self.spans.is_empty() {
            if let Some(rec) = self.obs.rec {
                rec.flush_spans(&mut self.spans);
            } else {
                self.spans.clear();
            }
        }
    }
}

impl Drop for SpanBuf<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// The concrete recorder behind `--trace-out` / `--progress`:
/// span list under one mutex (touched once per batch flush) and relaxed
/// atomic counters.
#[derive(Debug)]
pub struct TraceRecorder {
    spans: Mutex<Vec<Span>>,
    counters: [AtomicU64; COUNTER_COUNT],
    total_pairs: AtomicU64,
    /// Pairs and DP cells folded in by [`Obs::pair_replayed`]: counted
    /// in the trace, kept out of the progress rate and ETA.
    replayed_pairs: AtomicU64,
    replayed_cells: AtomicU64,
    started: Instant,
}

impl TraceRecorder {
    /// An empty recorder; the progress clock and the span epoch start
    /// now.
    pub fn new() -> TraceRecorder {
        TraceRecorder {
            spans: Mutex::new(Vec::new()),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            total_pairs: AtomicU64::new(0),
            replayed_pairs: AtomicU64::new(0),
            replayed_cells: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Takes a batch of finished spans, leaving `spans` empty (the
    /// buffer is reused).
    fn flush_spans(&self, spans: &mut Vec<Span>) {
        self.spans.lock().append(spans);
    }

    fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn set_total_pairs(&self, pairs: u64) {
        self.total_pairs.store(pairs, Ordering::Relaxed);
    }

    /// Microseconds from the recorder's start to `at`: every span's
    /// `start_us`.
    fn since_start(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.started).as_micros() as u64
    }

    /// Current value of one funnel counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// A copy of every span flushed so far, sorted by
    /// `(start_us, pair, seq)` into a stable timeline.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().clone();
        spans.sort_by_key(|s| (s.start_us, s.pair, s.seq, s.id));
        spans
    }

    /// A consistent-enough snapshot for live progress reporting.
    pub fn progress(&self) -> ProgressSnapshot {
        let cells = self.counter(Counter::FilterCells) + self.counter(Counter::ExtensionCells);
        ProgressSnapshot {
            pairs_done: self.counter(Counter::PairsDone),
            pairs_replayed: self.replayed_pairs.load(Ordering::Relaxed),
            pairs_total: self.total_pairs.load(Ordering::Relaxed),
            filter_tiles: self.counter(Counter::FilterTiles),
            anchors_passed: self.counter(Counter::AnchorsPassed),
            cells: cells.saturating_sub(self.replayed_cells.load(Ordering::Relaxed)),
            elapsed_us: self.started.elapsed().as_micros() as u64,
        }
    }

    /// The full trace, one [`TraceLine`] a line: the `{"schema":N}`
    /// header (see [`TRACE_SCHEMA`]), every span in timeline order, then
    /// every funnel counter.
    pub fn lines(&self) -> impl Iterator<Item = TraceLine> + '_ {
        let spans = self.spans().into_iter().map(TraceLine::Span);
        let counters = Counter::ALL
            .into_iter()
            .map(|c| TraceLine::Counter(c.as_str().to_string(), self.counter(c)));
        std::iter::once(TraceLine::Schema(TRACE_SCHEMA))
            .chain(spans)
            .chain(counters)
    }

    /// Writes [`TraceRecorder::lines`] as JSONL.
    pub fn write_trace<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        for line in self.lines() {
            writeln!(w, "{}", line.to_json())?;
        }
        Ok(())
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_records_nothing_and_times_only_spans() {
        let obs = Obs::off();
        assert!(obs.rec.is_none());
        let timer = obs.timer();
        assert!(timer.0.is_none(), "a disabled timer never reads the clock");
        obs.pair_done(&PairRecord::failed("chrI", "chr1", String::new()));
        let mut buf = obs.buffer();
        assert_eq!(buf.alloc_id(), NO_SPAN);
        let t = buf.start();
        assert!(t.0.is_some(), "a span's own clock runs without a recorder");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let dur_us = buf.finish(t, SpanName::Seed, STRAND_FWD, 0, 1, 2);
        assert!(dur_us >= 2_000, "the stage is charged {dur_us} us");
        assert!(buf.spans.is_empty(), "no span without a recorder");
    }

    #[test]
    fn trace_recorder_collects_spans_and_counters() {
        let rec = TraceRecorder::new();
        let obs = Obs::new(&rec).with_pair(3);
        assert!(obs.rec.is_some());
        assert_eq!(obs.pair(), 3);

        let mut record = PairRecord::failed("chrI", "chr1", String::new());
        record.workload.filter_tiles = 1;
        record.counters.filter_cells = 640;
        record.workload.extension_tiles = 5;
        record.workload.extension_cells = 1_000;
        record.workload.extension_rows = 40;
        obs.pair_done(&record);

        let dur_us = {
            let mut buf = obs.buffer();
            let t = buf.start();
            buf.finish(t, SpanName::FilterBatch, STRAND_FWD, 7, 64, 640)
            // drop flushes
        };

        assert_eq!(rec.counter(Counter::FilterTiles), 1);
        assert_eq!(rec.counter(Counter::FilterCells), 640);
        assert_eq!(rec.counter(Counter::ExtensionTiles), 5);
        assert_eq!(rec.counter(Counter::ExtensionCells), 1_000);
        assert_eq!(rec.counter(Counter::ExtensionRows), 40);
        assert_eq!(rec.counter(Counter::PairsDone), 1);

        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, SpanName::FilterBatch);
        assert_eq!(spans[0].pair, 3);
        assert_eq!(spans[0].seq, 7);
        assert_eq!(spans[0].items, 64);
        assert_eq!(spans[0].dur_us, dur_us, "finish returns the span's dur_us");
    }

    #[test]
    fn span_line_shape_and_round_trip() {
        let span = Span {
            name: SpanName::ExtendTile,
            pair: 2,
            strand: STRAND_REV,
            seq: 9,
            start_us: 10,
            dur_us: 20,
            items: 4,
            cells: 512,
            tid: 1,
            id: (1 << 40) | 6,
            parent: (1 << 40) | 5,
        };
        let line = TraceLine::Span(span).to_json().to_string();
        assert_eq!(
            line,
            format!(
                "{{\"span\":\"extend.tile\",\"pair\":2,\"strand\":1,\"seq\":9,\
                 \"start_us\":10,\"dur_us\":20,\"items\":4,\"cells\":512,\
                 \"tid\":1,\"id\":{},\"parent\":{}}}",
                (1u64 << 40) | 6,
                (1u64 << 40) | 5
            )
        );
        let doc = crate::json::parse(&line).unwrap();
        assert_eq!(TraceLine::from_json(&doc), Ok(Some(TraceLine::Span(span))));
        // A schema-1 span: no tid/id/parent, read as zero.
        let old = crate::json::parse(
            r#"{"span":"seed","pair":0,"strand":0,"seq":0,"start_us":1,"dur_us":2,"items":3,"cells":4}"#,
        )
        .unwrap();
        let Ok(Some(TraceLine::Span(old))) = TraceLine::from_json(&old) else {
            panic!("schema-1 span")
        };
        assert_eq!(
            (old.name, old.cells, old.tid, old.id, old.parent),
            (SpanName::Seed, 4, 0, 0, 0)
        );
        for (bad, why) in [
            (r#"{"span":"bogus","pair":0}"#, "unknown span name"),
            (
                r#"{"span":"seed","pair":0,"strand":3}"#,
                "strand code out of range",
            ),
            (r#"{"span":"seed","strand":0,"pair":-1}"#, "\"pair\""),
            (r#"{"other":1}"#, "neither"),
        ] {
            let err = TraceLine::from_json(&crate::json::parse(bad).unwrap()).unwrap_err();
            assert!(err.contains(why), "{bad}: {err}");
        }
        // Retired lines read as nothing, unvalidated: a malformed
        // histogram too.
        for retired in [
            r#"{"span":"hwsim.bsw","pair":0,"strand":2,"seq":0,"start_us":9,"dur_us":0,"items":3,"cells":7}"#,
            r#"{"span":"hwsim.gactx"}"#,
            r#"{"hist":"filter.tile_ns","total":5,"buckets":[[5,1],[2,1]]}"#,
        ] {
            let doc = crate::json::parse(retired).unwrap();
            assert_eq!(TraceLine::from_json(&doc), Ok(None), "{retired}");
        }
    }

    #[test]
    fn span_ids_are_unique_and_parent_links_hold() {
        let rec = TraceRecorder::new();
        let obs = Obs::new(&rec).with_pair(0);
        let mut buf = obs.buffer();
        let lane_timer = buf.start();
        let lane_id = buf.alloc_id();
        assert_ne!(lane_id, NO_SPAN);
        buf.set_parent(lane_id);
        let t = buf.start();
        buf.finish(t, SpanName::ExtendTile, STRAND_FWD, 0, 1, 10);
        let t = buf.start();
        buf.finish(t, SpanName::ExtendTile, STRAND_FWD, 1, 2, 20);
        buf.set_parent(NO_SPAN);
        buf.finish_with_id(lane_timer, lane_id, SpanName::Extend, STRAND_FWD, 0, 2, 30);
        buf.flush();

        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3, "span ids must be unique");
        let lane = spans.iter().find(|s| s.name == SpanName::Extend).unwrap();
        assert_eq!(lane.id, lane_id);
        assert_eq!(lane.parent, NO_SPAN);
        for tile in spans.iter().filter(|s| s.name == SpanName::ExtendTile) {
            assert_eq!(tile.parent, lane_id);
            assert_eq!(tile.tid, lane.tid);
        }
    }

    #[test]
    fn write_trace_is_parseable_jsonl() {
        let rec = TraceRecorder::new();
        let obs = Obs::new(&rec);
        let mut buf = obs.with_pair(0).buffer();
        let t = buf.start();
        buf.finish(t, SpanName::Seed, STRAND_FWD, 0, 10, 0);
        buf.flush();

        let mut out = Vec::new();
        rec.write_trace(&mut out).expect("write to Vec");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<TraceLine> = rec.lines().collect();
        assert_eq!(text.lines().count(), lines.len());
        let mut schema = 0;
        let mut spans = 0;
        let mut counters = 0;
        for ((i, line), recorded) in text.lines().enumerate().zip(lines) {
            let value = crate::json::parse(line).expect("valid JSON line");
            let parsed = TraceLine::from_json(&value).expect("a trace line");
            let parsed = parsed.expect("no retired line is written");
            assert_eq!(parsed, recorded, "reads back to the recorded line");
            assert_eq!(
                parsed.to_json().to_string(),
                line,
                "re-renders byte for byte"
            );
            match parsed {
                TraceLine::Schema(v) => {
                    assert_eq!(i, 0, "schema header must be the first line");
                    assert_eq!(v, TRACE_SCHEMA);
                    schema += 1;
                }
                TraceLine::Span(_) => spans += 1,
                TraceLine::Counter(..) => counters += 1,
            }
        }
        assert_eq!(schema, 1);
        assert_eq!(spans, 1);
        assert_eq!(counters, COUNTER_COUNT);
    }
}
