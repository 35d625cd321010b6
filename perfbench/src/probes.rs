//! Layer probes that observe the engine from outside: timing wrappers
//! for the `Disk` and `LogStore` handed to `StorageManager::with_parts`,
//! a span collector for `Mood::tracer()`, and the per-statement layer
//! split computed from span nesting.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mood_core::storage::{
    Disk, FileId, LogStore, Page, PageId, Result as StorageResult, RetryStats,
};
use mood_core::trace::Subscriber;
use mood_core::{RingBuffer, SpanRecord};

/// The wrapped calls, by layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Io {
    /// `read_page` / `read_pages`: units are pages.
    Read,
    /// `write_page` and `allocate_page` (one page each), `sync` (none).
    Write,
    /// Log `append`: units are bytes.
    Append,
    /// Log `force`.
    Force,
}

/// Counters of one kind of wrapped call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoCount {
    pub calls: u64,
    pub units: u64,
    pub nanos: u64,
}

/// One wrapped call's wall-clock interval (recorded only while tracing).
#[derive(Clone, Copy, Debug)]
pub struct IoEvent {
    pub kind: Io,
    pub start: Instant,
    pub end: Instant,
}

/// The latency model of a device: a positioning delay per read call and
/// a transfer delay per page, the SEQCOST/RNDCOST shape of the paper's
/// cost model, plus a delay per log force. Pages and log live in memory,
/// so every run sees the same device instead of the host's page cache and
/// fsync latency.
#[derive(Clone, Copy, Debug)]
pub struct Device {
    pub seek: Duration,
    pub per_page: Duration,
    pub force: Duration,
}

/// Counters shared by the disk and log wrappers of one database, and the
/// device whose latency they charge once armed.
pub struct IoLog {
    device: Device,
    armed: AtomicBool,
    counts: [[AtomicU64; 3]; 4],
    tracing: AtomicBool,
    events: Mutex<Vec<IoEvent>>,
}

impl IoLog {
    pub fn new(device: Device) -> Arc<IoLog> {
        Arc::new(IoLog {
            device,
            armed: AtomicBool::new(false),
            counts: Default::default(),
            tracing: AtomicBool::new(false),
            events: Mutex::new(Vec::new()),
        })
    }

    /// Start charging the device latency (set-up runs uncharged).
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Relaxed);
    }

    /// Busy-wait until `delay` after `start`: far more repeatable than a
    /// sleep at these durations.
    fn charge(&self, delay: Duration, start: Instant) {
        if self.armed.load(Ordering::Relaxed) {
            while start.elapsed() < delay {
                std::hint::spin_loop();
            }
        }
    }

    fn record(&self, kind: Io, units: u64, start: Instant) {
        let end = Instant::now();
        let c = &self.counts[kind as usize];
        c[0].fetch_add(1, Ordering::Relaxed);
        c[1].fetch_add(units, Ordering::Relaxed);
        c[2].fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
        if self.tracing.load(Ordering::Relaxed) {
            self.events
                .lock()
                .expect("event log poisoned")
                .push(IoEvent { kind, start, end });
        }
    }

    pub fn count(&self, kind: Io) -> IoCount {
        let c = &self.counts[kind as usize];
        IoCount {
            calls: c[0].load(Ordering::Relaxed),
            units: c[1].load(Ordering::Relaxed),
            nanos: c[2].load(Ordering::Relaxed),
        }
    }

    /// Record call intervals from now on (the traced run only).
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
    }

    pub fn take_events(&self) -> Vec<IoEvent> {
        std::mem::take(&mut *self.events.lock().expect("event log poisoned"))
    }
}

/// A `Disk` wrapper that times every call and charges the device's read
/// latency.
pub struct TimedDisk {
    inner: Arc<dyn Disk>,
    log: Arc<IoLog>,
}

impl TimedDisk {
    pub fn new(inner: Arc<dyn Disk>, log: Arc<IoLog>) -> TimedDisk {
        TimedDisk { inner, log }
    }

    fn read_delay(&self, pages: u32) -> Duration {
        self.log.device.seek + self.log.device.per_page * pages
    }
}

impl Disk for TimedDisk {
    fn create_file(&self) -> StorageResult<FileId> {
        self.inner.create_file()
    }
    fn drop_file(&self, file: FileId) -> StorageResult<()> {
        self.inner.drop_file(file)
    }
    fn page_count(&self, file: FileId) -> StorageResult<u32> {
        self.inner.page_count(file)
    }
    fn allocate_page(&self, file: FileId) -> StorageResult<PageId> {
        let start = Instant::now();
        let out = self.inner.allocate_page(file);
        self.log.record(Io::Write, 1, start);
        out
    }
    fn read_page(&self, file: FileId, page: PageId, buf: &mut Page) -> StorageResult<()> {
        let start = Instant::now();
        self.log.charge(self.read_delay(1), start);
        let out = self.inner.read_page(file, page, buf);
        self.log.record(Io::Read, 1, start);
        out
    }
    fn read_pages(&self, file: FileId, start_page: PageId, bufs: &mut [Page]) -> StorageResult<()> {
        let start = Instant::now();
        self.log.charge(self.read_delay(bufs.len() as u32), start);
        let out = self.inner.read_pages(file, start_page, bufs);
        self.log.record(Io::Read, bufs.len() as u64, start);
        out
    }
    fn write_page(&self, file: FileId, page: PageId, data: &Page) -> StorageResult<()> {
        let start = Instant::now();
        let out = self.inner.write_page(file, page, data);
        self.log.record(Io::Write, 1, start);
        out
    }
    fn sync(&self) -> StorageResult<()> {
        let start = Instant::now();
        let out = self.inner.sync();
        self.log.record(Io::Write, 0, start);
        out
    }
    fn files(&self) -> Vec<FileId> {
        self.inner.files()
    }
    fn retry_stats(&self) -> Option<Arc<RetryStats>> {
        self.inner.retry_stats()
    }
}

/// A `LogStore` wrapper that times appends and forces, and charges the
/// device's force latency.
pub struct TimedLog {
    inner: Arc<dyn LogStore>,
    log: Arc<IoLog>,
}

impl TimedLog {
    pub fn new(inner: Arc<dyn LogStore>, log: Arc<IoLog>) -> TimedLog {
        TimedLog { inner, log }
    }
}

impl LogStore for TimedLog {
    fn append(&self, bytes: &[u8]) -> StorageResult<()> {
        let start = Instant::now();
        let out = self.inner.append(bytes);
        self.log.record(Io::Append, bytes.len() as u64, start);
        out
    }
    fn force(&self) -> StorageResult<()> {
        let start = Instant::now();
        self.log.charge(self.log.device.force, start);
        let out = self.inner.force();
        self.log.record(Io::Force, 0, start);
        out
    }
    fn read_all(&self) -> StorageResult<Vec<u8>> {
        self.inner.read_all()
    }
    fn truncate(&self) -> StorageResult<()> {
        self.inner.truncate()
    }
}

/// Collects the engine's spans in a [`RingBuffer`] and stamps each with
/// the instant it finished, so the wrappers' call intervals can be placed
/// inside the innermost span that covers them.
pub struct SpanLog {
    ring: Arc<RingBuffer>,
    ends: Mutex<Vec<Instant>>,
}

impl SpanLog {
    pub fn new() -> Arc<SpanLog> {
        Arc::new(SpanLog {
            ring: RingBuffer::new(1 << 16),
            ends: Mutex::new(Vec::new()),
        })
    }

    /// The spans finished since the last call, in finishing order.
    pub fn take(&self) -> Vec<Span> {
        let mut ends = self.ends.lock().expect("span stamps poisoned");
        let records = self.ring.records();
        self.ring.clear();
        assert_eq!(self.ring.dropped(), 0, "span ring overflowed");
        assert_eq!(records.len(), ends.len(), "span stamps out of step");
        records
            .into_iter()
            .zip(ends.drain(..))
            .map(|(record, end)| Span {
                start: end - record.elapsed,
                end,
                record,
            })
            .collect()
    }
}

impl Subscriber for SpanLog {
    fn on_span(&self, span: &SpanRecord) {
        self.ends
            .lock()
            .expect("span stamps poisoned")
            .push(Instant::now());
        self.ring.on_span(span);
    }
}

/// A finished span with its wall-clock interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub record: SpanRecord,
    pub start: Instant,
    pub end: Instant,
}

/// The layers one statement's wall time splits into. The engine's spans
/// give the SQL front end and executor layers as self times (a span's
/// duration minus its child spans and the wrapped I/O placed inside it);
/// the wrappers give disk and WAL time wherever it happened.
#[derive(Clone, Copy, Debug, Default)]
pub struct Split {
    pub parse: f64,
    pub bind: f64,
    pub optimize: f64,
    /// Plan preparation and lazy predicate compilation outside the bind
    /// and optimize spans (from the engine's `compile_ns` counter).
    pub compile: f64,
    /// `execute` spans' own time: result shaping, projection, sorting.
    pub exec_self: f64,
    pub join: f64,
    /// `op:SELECT` and `op:INDSEL`.
    pub select: f64,
    /// `op:BIND`: extent scans and object decoding.
    pub exec_bind: f64,
    /// Every other `op:*` span.
    pub exec_other: f64,
    /// UPDATE and `new` run in the session with no span of their own: a
    /// DML statement's time outside its spans and wrapped I/O is this.
    pub dml: f64,
    pub disk_read: f64,
    pub disk_write: f64,
    pub wal: f64,
    /// A query's wall time that no span or wrapper covers (session
    /// dispatch, plan-cache lookup, the gaps between spans).
    pub unattributed: f64,
    /// The statement's wall time; the fields above add up to it.
    pub wall: f64,
}

impl Split {
    /// Every layer, wall excluded, by metric name (µs per statement once
    /// divided by the statement count).
    pub fn layers(&self) -> [(&'static str, f64); 14] {
        [
            ("sql.parse_us_per_op", self.parse),
            ("sql.bind_us_per_op", self.bind),
            ("sql.optimize_us_per_op", self.optimize),
            ("sql.compile_us_per_op", self.compile),
            ("exec.self_us_per_op", self.exec_self),
            ("exec.join_us_per_op", self.join),
            ("exec.select_us_per_op", self.select),
            ("exec.bind_us_per_op", self.exec_bind),
            ("exec.other_us_per_op", self.exec_other),
            ("dml.self_us_per_op", self.dml),
            ("disk.read_us_per_op", self.disk_read),
            ("disk.write_us_per_op", self.disk_write),
            ("wal.us_per_op", self.wal),
            ("trace.unattributed_us_per_op", self.unattributed),
        ]
    }

    pub fn add(&mut self, o: &Split) {
        self.parse += o.parse;
        self.bind += o.bind;
        self.optimize += o.optimize;
        self.compile += o.compile;
        self.exec_self += o.exec_self;
        self.join += o.join;
        self.select += o.select;
        self.exec_bind += o.exec_bind;
        self.exec_other += o.exec_other;
        self.dml += o.dml;
        self.disk_read += o.disk_read;
        self.disk_write += o.disk_write;
        self.wal += o.wal;
        self.unattributed += o.unattributed;
        self.wall += o.wall;
    }

    fn span_slot(&mut self, name: &str) -> &mut f64 {
        match name {
            "parse" => &mut self.parse,
            "bind" => &mut self.bind,
            "optimize" => &mut self.optimize,
            "execute" => &mut self.exec_self,
            "op:SELECT" | "op:INDSEL" => &mut self.select,
            "op:BIND" => &mut self.exec_bind,
            n if n.starts_with("op:JOIN") => &mut self.join,
            _ => &mut self.exec_other,
        }
    }

    fn io_slot(&mut self, kind: Io) -> &mut f64 {
        match kind {
            Io::Read => &mut self.disk_read,
            Io::Write => &mut self.disk_write,
            Io::Append | Io::Force => &mut self.wal,
        }
    }

    /// Split one statement that ran for `wall`, given its spans in
    /// finishing order, the wrapped I/O calls made meanwhile, the engine's
    /// `compile_ns` delta, and whether it was UPDATE or `new`.
    pub fn of_statement(
        wall: Duration,
        spans: &[Span],
        io: &[IoEvent],
        compile_ns: u64,
        dml: bool,
    ) -> Split {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let mut split = Split {
            wall: us(wall),
            ..Split::default()
        };
        // Each I/O call belongs to the deepest span covering its midpoint.
        let mut io_in_span = vec![0.0; spans.len()];
        let mut io_outside = 0.0;
        for ev in io {
            let mid = ev.start + (ev.end - ev.start) / 2;
            let owner = spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.start <= mid && mid <= s.end)
                .max_by_key(|(_, s)| s.record.depth)
                .map(|(i, _)| i);
            let t = us(ev.end - ev.start);
            match owner {
                Some(i) => io_in_span[i] += t,
                None => io_outside += t,
            }
            *split.io_slot(ev.kind) += t;
        }
        // Spans finish children first: a span's direct children are the
        // deeper spans finished since the last span at its depth or above.
        let mut open: Vec<(usize, f64)> = Vec::new();
        let mut planned = 0.0;
        for (i, s) in spans.iter().enumerate() {
            let d = s.record.depth;
            let mut children = 0.0;
            while let Some(&(cd, t)) = open.last() {
                if cd <= d {
                    break;
                }
                open.pop();
                children += t;
            }
            let elapsed = us(s.end - s.start);
            *split.span_slot(&s.record.name) += elapsed - children - io_in_span[i];
            if matches!(s.record.name.as_str(), "bind" | "optimize") && d == 0 {
                planned += elapsed;
            }
            open.push((d, elapsed));
        }
        let top_level: f64 = open.iter().map(|&(_, t)| t).sum();
        // `compile_ns` times plan preparation as a whole, bind and optimize
        // spans included; only the rest lies outside the spans.
        if compile_ns > 0 {
            split.compile = (compile_ns as f64 / 1e3 - planned).max(0.0);
        }
        let rest = split.wall - top_level - io_outside - split.compile;
        if dml {
            split.dml = rest;
        } else {
            split.unattributed = rest;
        }
        split
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_core::MetricsSnapshot;

    fn span(name: &str, depth: usize, t0: Instant, from_us: u64, to_us: u64) -> Span {
        let start = t0 + Duration::from_micros(from_us);
        let end = t0 + Duration::from_micros(to_us);
        Span {
            record: SpanRecord {
                name: name.into(),
                depth,
                attrs: Vec::new(),
                rows: None,
                delta: MetricsSnapshot::default(),
                elapsed: end - start,
            },
            start,
            end,
        }
    }

    fn io(kind: Io, t0: Instant, from_us: u64, to_us: u64) -> IoEvent {
        IoEvent {
            kind,
            start: t0 + Duration::from_micros(from_us),
            end: t0 + Duration::from_micros(to_us),
        }
    }

    #[test]
    fn self_times_and_remainder_telescope_to_the_wall_time() {
        let t0 = Instant::now();
        // Finishing order: children before parents.
        let spans = [
            span("parse", 0, t0, 2, 7),
            span("op:BIND", 2, t0, 20, 30),
            span("op:JOIN(HASH_PARTITION)", 1, t0, 10, 60),
            span("op:SELECT", 1, t0, 62, 70),
            span("execute", 0, t0, 8, 100),
        ];
        let events = [
            io(Io::Read, t0, 40, 50),    // inside the join
            io(Io::Read, t0, 22, 24),    // inside the bind
            io(Io::Force, t0, 110, 118), // after every span: commit
        ];
        let split = Split::of_statement(Duration::from_micros(120), &spans, &events, 0, false);
        let near = |a: f64, b: f64| (a - b).abs() < 1e-6;
        assert!(near(split.parse, 5.0));
        assert!(near(split.exec_bind, 8.0));
        assert!(near(split.join, 50.0 - 10.0 - 10.0));
        assert!(near(split.select, 8.0));
        assert!(near(split.exec_self, 92.0 - 50.0 - 8.0));
        assert!(near(split.disk_read, 12.0));
        assert!(near(split.wal, 8.0));
        assert!(near(split.unattributed, 120.0 - 5.0 - 92.0 - 8.0));
        let sum: f64 = split.layers().iter().map(|(_, v)| v).sum();
        assert!(near(sum, 120.0));

        // A DML statement's time outside spans and I/O is the DML layer.
        let dml = Split::of_statement(Duration::from_micros(120), &spans, &events, 0, true);
        assert!(near(dml.dml, split.unattributed));
        assert!(near(dml.unattributed, 0.0));
    }

    #[test]
    fn compile_time_outside_the_planning_spans_is_its_own_layer() {
        let t0 = Instant::now();
        let spans = [
            span("parse", 0, t0, 0, 4),
            span("bind", 0, t0, 5, 9),
            span("optimize", 0, t0, 10, 20),
            span("execute", 0, t0, 30, 40),
        ];
        // Preparation ran from 5 to 28: bind and optimize plus 9 µs more.
        let split = Split::of_statement(Duration::from_micros(45), &spans, &[], 23_000, false);
        assert!((split.compile - 9.0).abs() < 1e-6);
        assert!((split.unattributed - (45.0 - 28.0 - 9.0)).abs() < 1e-6);
    }
}
