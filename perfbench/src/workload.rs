//! Workload definitions, database set-up, the closed measurement loop and
//! the metrics it reports.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mood_core::cost::JoinMethod;
use mood_core::storage::{Disk, MemDisk, MemLog, PAGE_SIZE};
use mood_core::{Answer, Mood, MoodError, Oid, StorageManager, Value};

use crate::gen::{pad, Class, Keys, Mix, Model, Sizes, Stmt, Stream, MODULE_PAD, PART_PAD, SCHEMA};
use crate::probes::{Device, Io, IoCount, IoLog, SpanLog, Split, TimedDisk, TimedLog};

pub struct Workload {
    pub name: &'static str,
    pub mix: Mix,
    /// Buffer-pool frames.
    pub pool: usize,
}

/// Every workload's device: seek ≈60 µs plus ≈5 µs per page read, the
/// shape of the paper's SEQCOST/RNDCOST model, and 100 µs per log force,
/// about a file log's median append+force on a local disk.
const DEVICE: Device = Device {
    seek: Duration::from_micros(60),
    per_page: Duration::from_micros(5),
    force: Duration::from_micros(100),
};

/// Both navigate workloads run the same statements from the same seed
/// and differ only in how much of the data the pool holds. Every
/// workload runs every statement class, so that each reports every
/// end-to-end metric. Traversals still take most of the time. A lookup
/// right after a heavy statement runs about twice as slow as one after a
/// light statement; with heavy statements at 30%, the lookup median lies
/// inside the fast mode instead of on the edge between the two.
const NAVIGATE: Mix = Mix {
    shares: [55, 18, 7, 5, 15],
    keys: Keys::Uniform,
};

/// Why each workload exists is recorded in `BENCHMARK.json`.
pub static WORKLOADS: [Workload; 3] = [
    Workload {
        name: "oltp_hot",
        mix: Mix {
            shares: [80, 3, 3, 9, 5],
            keys: Keys::Zipf(0.99),
        },
        pool: HOT_POOL,
    },
    Workload {
        name: "navigate_hot",
        mix: NAVIGATE,
        pool: HOT_POOL,
    },
    Workload {
        name: "navigate_cold",
        mix: NAVIGATE,
        pool: COLD_POOL,
    },
];

/// Holds the whole database, ≥ 2× its pages.
const HOT_POOL: usize = 4096;
/// ≤ ⅛ of the full-size database's pages.
const COLD_POOL: usize = 40;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all its digits (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

type Result<T> = std::result::Result<T, MoodError>;

fn io_err(e: std::io::Error) -> MoodError {
    MoodError::Io(e.to_string())
}

/// A set-up database with handles on its wrapped parts. Its directory
/// is removed when it is dropped.
pub struct Db {
    pub mood: Mood,
    pub disk: Arc<TimedDisk>,
    pub io: Arc<IoLog>,
    dir: PathBuf,
}

impl Drop for Db {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub total: f64,
    pub load: f64,
    pub index: f64,
    pub stats: f64,
}

/// Build a durable database (no-steal pool, redo WAL forced at every
/// commit) over the device, through the workload's own pool: schema,
/// `CREATE INDEX` on the still empty extent, the objects, statistics and
/// a checkpoint. Durable managers pin every page a transaction dirties,
/// so building the index over loaded data would pin the whole tree in
/// one transaction, more than the cold pool holds. The load itself runs
/// outside any transaction, like a bulk loader, and the checkpoint
/// flushes it. (A reopen cannot shrink the pool instead: index
/// definitions do not survive a reopen.) `dir` holds the catalog root.
pub fn setup(w: &Workload, model: &Model, dir: &Path) -> Result<(Db, SetupTimes)> {
    let start = Instant::now();
    std::fs::create_dir_all(dir).map_err(io_err)?;
    let io = IoLog::new(DEVICE);
    let timed = Arc::new(TimedDisk::new(Arc::new(MemDisk::new()), io.clone()));
    let sm = StorageManager::with_parts(
        timed.clone(),
        Box::new(TimedLog::new(Arc::new(MemLog::new()), io.clone())),
        w.pool,
    )?;
    let mood = Mood::open_with_storage(Arc::new(sm), dir)?;
    for ddl in SCHEMA {
        mood.execute(ddl)?;
    }
    let mut times = SetupTimes::default();
    let t = Instant::now();
    mood.execute("CREATE INDEX ON Part(id)")?;
    times.index = t.elapsed().as_secs_f64();
    let t = Instant::now();
    load(&mood, model)?;
    times.load = t.elapsed().as_secs_f64();
    let t = Instant::now();
    mood.collect_stats()?;
    times.stats = t.elapsed().as_secs_f64();
    mood.checkpoint()?;
    times.total = start.elapsed().as_secs_f64();
    Ok((
        Db {
            mood,
            disk: timed,
            io,
            dir: dir.to_path_buf(),
        },
        times,
    ))
}

fn part_value(p: &crate::gen::PartRow, next: Oid, owner: Oid) -> Value {
    Value::tuple(vec![
        ("id", Value::Integer(p.id)),
        ("kind", Value::Integer(p.kind)),
        ("x", Value::Integer(p.x)),
        ("pad", Value::string(pad('p', p.id as usize, PART_PAD))),
        ("next", Value::Ref(next)),
        ("owner", Value::Ref(owner)),
    ])
}

/// Insert Modules, then Parts in heap order. `next` may point at a Part
/// not yet stored, so Parts first take a placeholder of the same encoded
/// size and a second pass rewrites each in place.
fn load(db: &Mood, model: &Model) -> Result<()> {
    let cat = db.catalog();
    let mut modules = Vec::with_capacity(model.grp.len());
    for (id, grp) in model.grp.iter().enumerate() {
        modules.push(cat.new_object(
            "Module",
            Value::tuple(vec![
                ("id", Value::Integer(id as i32)),
                ("grp", Value::Integer(*grp)),
                ("pad", Value::string(pad('m', id, MODULE_PAD))),
            ]),
        )?);
    }
    let owner_of = |p: &crate::gen::PartRow| modules[p.owner.expect("generated parts have owners")];
    let mut oids: Vec<Option<Oid>> = vec![None; model.parts.len()];
    for &id in &model.heap_order {
        let p = &model.parts[id];
        oids[id] = Some(cat.new_object("Part", part_value(p, modules[0], owner_of(p)))?);
    }
    for &id in &model.heap_order {
        let p = &model.parts[id];
        let next = oids[p.next.expect("generated parts have a next")].expect("all parts stored");
        cat.update_object(
            oids[id].expect("stored above"),
            part_value(p, next, owner_of(p)),
        )?;
    }
    Ok(())
}

/// Nearest-rank percentile in µs of latencies in ns, sorted ascending.
fn percentile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e3
}

/// The closed loop: one client, next statement only after the last
/// answer arrived and was checked.
struct Client<'a> {
    db: &'a Db,
    model: Model,
    stream: Stream,
    sizes: Sizes,
    attempted: u64,
    failed: u64,
}

/// One executed statement.
struct Done {
    stmt: Stmt,
    wall: Duration,
    answer: Option<Answer>,
    ok: bool,
}

impl Client<'_> {
    fn step(&mut self) -> Done {
        let stmt = self.stream.next_stmt();
        let sql = stmt.sql(&self.sizes);
        let t0 = Instant::now();
        let result = self.db.mood.execute(&sql);
        let wall = t0.elapsed();
        self.attempted += 1;
        let (ok, answer) = match result {
            Ok(a) => (self.model.expected(&stmt).matches(&a), Some(a)),
            Err(e) => {
                eprintln!("statement failed: {sql}: {e}");
                (false, None)
            }
        };
        if ok {
            self.model.apply(&stmt);
        } else {
            self.failed += 1;
            if answer.is_some() {
                eprintln!("wrong answer: {sql}");
            }
        }
        Done {
            stmt,
            wall,
            answer,
            ok,
        }
    }
}

/// Where set-ups put their files: inside the working directory, one
/// directory per process and set-up.
const DATA_ROOT: &str = ".bench_data";

fn data_dir(w: &Workload) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    Path::new(DATA_ROOT).join(format!("{}-{}-{n}", w.name, std::process::id()))
}

/// A machine fingerprint printed with every result, so that numbers from
/// different machines are never compared.
pub fn fingerprint(args: &Args) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim());
    let cpus = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let s = &args.sizes;
    format!(
        "{{\"fingerprint\": {{\"cpu_model\": \"{}\", \"cpus\": {cpus}, \"workload\": \"{}\", \
         \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"parts\": {}, \"modules\": {}, \
         \"groups\": {}, \"kinds\": {}, \"range\": {}, \"pool_frames\": {}}}}}",
        model.replace(['"', '\\'], ""),
        args.workload.name,
        args.seed,
        args.seconds,
        args.trace,
        s.parts,
        s.modules,
        s.groups,
        s.kinds,
        s.range,
        args.workload.pool,
    )
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Every allocated page × `PAGE_SIZE`, over the generator's payload.
fn stored_bytes_per_user_byte(db: &Db, model: &Model) -> Result<f64> {
    let mut pages = 0u64;
    for f in db.disk.files() {
        pages += db.disk.page_count(f)? as u64;
    }
    Ok(pages as f64 * PAGE_SIZE as f64 / model.payload_bytes() as f64)
}

/// Set up `SETUP_REPS` times, keep the last database, and measure it.
pub fn run(args: &Args) -> Result<Report> {
    let w = args.workload;
    let model = Model::generate(args.sizes, args.seed);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut db = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous database before building the next one.
        drop(db.take());
        let dir = data_dir(w);
        let _ = std::fs::remove_dir_all(&dir);
        let (d, times) = setup(w, &model, &dir)?;
        setups.push(times);
        db = Some(d);
    }
    let db = db.expect("SETUP_REPS > 0");
    let result = measure(args, &db, model, &setups);
    drop(db);
    // Succeeds only once no other run is using the directory.
    let _ = std::fs::remove_dir(DATA_ROOT);
    result
}

fn measure(args: &Args, db: &Db, model: Model, setups: &[SetupTimes]) -> Result<Report> {
    let w = args.workload;
    let mut client = Client {
        db,
        model,
        stream: Stream::new(args.sizes, w.mix, args.seed),
        sizes: args.sizes,
        attempted: 0,
        failed: 0,
    };
    db.io.arm();
    warm_up(&mut client, args.seconds);
    if !args.trace {
        return end_to_end(args, &mut client, setups);
    }
    per_layer(args, &mut client, setups)
}

/// Untimed warm-up: fills the pool, the plan cache and lazy compilation
/// before anything is measured. Runs a tenth of the measured time, and
/// until every class in the mix has run three times. Its answers are
/// checked and counted like all others.
fn warm_up(client: &mut Client<'_>, seconds: f64) {
    let until = Instant::now() + Duration::from_secs_f64(seconds / 10.0);
    let mut seen = [0u32; 5];
    let mix = client.stream.mix();
    loop {
        let done = client.step();
        seen[done.stmt.class() as usize] += 1;
        let all = Class::ALL
            .iter()
            .all(|c| mix.shares[*c as usize] == 0 || seen[*c as usize] >= 3);
        if all && Instant::now() >= until {
            break;
        }
    }
}

fn end_to_end(args: &Args, client: &mut Client<'_>, setups: &[SetupTimes]) -> Result<Report> {
    let mut samples: [Vec<u64>; 5] = Default::default();
    let mut busy = Duration::ZERO;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while Instant::now() < deadline {
        let done = client.step();
        if done.ok {
            busy += done.wall;
            samples[done.stmt.class() as usize].push(done.wall.as_nanos() as u64);
        }
    }
    let answered: usize = samples.iter().map(Vec::len).sum();
    let mut metrics = vec![
        (
            "setup_s".to_string(),
            median(setups.iter().map(|s| s.total).collect()),
            "s",
        ),
        (
            "ops_per_s".to_string(),
            answered as f64 / busy.as_secs_f64(),
            "1/s",
        ),
    ];
    for class in Class::ALL {
        let s = &mut samples[class as usize];
        s.sort_unstable();
        let tail = class.tail();
        metrics.push((
            format!("{}_p50_us", class.name()),
            percentile_us(s, 0.5),
            "us",
        ));
        metrics.push((
            format!("{}_p{tail}_us", class.name()),
            percentile_us(s, tail as f64 / 100.0),
            "us",
        ));
        let q: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
            .iter()
            .map(|q| format!("{:.0}", percentile_us(s, *q)))
            .collect();
        eprintln!(
            "{}: {} samples; p10 p25 p50 p75 p90 p99 max (us): {}",
            class.name(),
            s.len(),
            q.join(" ")
        );
    }
    metrics.push(("peak_rss_mb".into(), peak_rss_mb(), "MB"));
    metrics.push((
        "stored_bytes_per_user_byte".into(),
        stored_bytes_per_user_byte(client.db, &client.model)?,
        "ratio",
    ));
    Ok(Report {
        correct: client.failed == 0,
        attempted: client.attempted,
        failed: client.failed,
        metrics,
    })
}

/// Buffer-pool accesses so far, from the engine's page counters.
fn accesses(db: &Db) -> u64 {
    let s = db.mood.metrics().snapshot();
    s.buffer_hits + s.buffer_misses
}

const IO_KINDS: [Io; 4] = [Io::Read, Io::Write, Io::Append, Io::Force];

/// Per-class latencies in ns.
#[derive(Default)]
struct Latencies([Vec<u64>; 5]);

impl Latencies {
    fn add(&mut self, class: Class, wall: Duration) {
        self.0[class as usize].push(wall.as_nanos() as u64);
    }

    fn count(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }

    fn median_us(&mut self, class: usize) -> f64 {
        self.0[class].sort_unstable();
        percentile_us(&self.0[class], 0.5)
    }
}

/// Half the time untraced, half with the span collector subscribed and
/// the wrappers recording call intervals. The traced half yields the
/// layer split; the untraced half is the baseline for the overhead of
/// tracing, compared class by class so that the two halves' different
/// statement mixes do not count as overhead.
fn per_layer(args: &Args, client: &mut Client<'_>, setups: &[SetupTimes]) -> Result<Report> {
    let db = client.db;
    let half = Duration::from_secs_f64(args.seconds / 2.0);

    let mut plain = Latencies::default();
    let deadline = Instant::now() + half;
    while Instant::now() < deadline {
        let done = client.step();
        plain.add(done.stmt.class(), done.wall);
    }

    let spans = SpanLog::new();
    db.mood.tracer().subscribe(spans.clone());
    db.io.set_tracing(true);
    let io_before: Vec<IoCount> = IO_KINDS.iter().map(|k| db.io.count(*k)).collect();
    let em_before = db.mood.engine_metrics();
    let mut traced = Latencies::default();
    let mut split = Split::default();
    let (mut rows_examined, mut rows_returned) = (0u64, 0u64);
    let methods = JoinMethod::ALL.map(|m| m.plan_name());
    let mut joins = [0u64; JoinMethod::ALL.len()];
    let (mut updates, mut update_accesses, mut commits) = (0u64, 0u64, 0u64);
    let deadline = Instant::now() + half;
    while Instant::now() < deadline {
        let compile_before = db.mood.engine_metrics().compile_ns;
        let accesses_before = accesses(db);
        let done = client.step();
        let compile_ns = db.mood.engine_metrics().compile_ns - compile_before;
        let stmt_spans = spans.take();
        let class = done.stmt.class();
        traced.add(class, done.wall);
        split.add(&Split::of_statement(
            done.wall,
            &stmt_spans,
            &db.io.take_events(),
            compile_ns,
            class.writes(),
        ));
        if class == Class::Update {
            updates += 1;
            update_accesses += accesses(db) - accesses_before;
        }
        if class.writes() && done.ok {
            commits += 1;
        }
        for s in &stmt_spans {
            let name = s.record.name.as_str();
            if matches!(name, "op:BIND" | "op:INDSEL") {
                rows_examined += s.record.rows.unwrap_or(0);
            }
            let method = name
                .strip_prefix("op:JOIN(")
                .and_then(|r| r.strip_suffix(')'));
            if let Some(m) = methods.iter().position(|m| Some(*m) == method) {
                joins[m] += 1;
            }
        }
        if let Some(Answer::Rows(r)) = &done.answer {
            rows_returned += r.rows.len() as u64;
        }
    }
    db.io.set_tracing(false);
    let em = db.mood.engine_metrics();
    let [read, write, append, force]: [IoCount; 4] = std::array::from_fn(|i| {
        let (c, b) = (db.io.count(IO_KINDS[i]), io_before[i]);
        IoCount {
            calls: c.calls - b.calls,
            units: c.units - b.units,
            nanos: c.nanos - b.nanos,
        }
    });
    // Fused scans and batched joins stream objects through batches
    // instead of emitting them from a BIND span.
    rows_examined += em.batch.rows - em_before.batch.rows;

    let ops = traced.count().max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));

    for (name, us) in split.layers() {
        put(name, us / ops, "us");
    }
    put("trace.wall_us_per_op", split.wall / ops, "us");
    // The traced statements' time at each class's median latency, traced
    // over untraced.
    let (mut with, mut without) = (0.0, 0.0);
    for c in 0..5 {
        if plain.0[c].is_empty() {
            continue;
        }
        let n = traced.0[c].len() as f64;
        with += n * traced.median_us(c);
        without += n * plain.median_us(c);
    }
    put(
        "trace.overhead_pct",
        100.0 * (ratio(with, without) - 1.0),
        "%",
    );

    let hits = (em.plan_cache.hits - em_before.plan_cache.hits) as f64;
    let misses = (em.plan_cache.misses - em_before.plan_cache.misses) as f64;
    put(
        "sql.plan_cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    put(
        "exec.rows_examined_per_row_returned",
        ratio(rows_examined as f64, rows_returned as f64),
        "ratio",
    );
    for (method, count) in methods.iter().zip(joins) {
        put(&format!("exec.joins.{method}"), count as f64 / ops, "1/op");
    }
    put(
        "dml.page_accesses_per_update",
        ratio(update_accesses as f64, updates as f64),
        "count",
    );

    let d = em.disk.delta(&em_before.disk);
    let pool_accesses = (d.buffer_hits + d.buffer_misses) as f64;
    put(
        "pool.hit_ratio",
        ratio(d.buffer_hits as f64, pool_accesses),
        "ratio",
    );
    put("pool.accesses_per_op", pool_accesses / ops, "count");
    put("pool.misses_per_op", d.buffer_misses as f64 / ops, "count");
    put(
        "pool.evictions_per_op",
        d.buffer_evictions as f64 / ops,
        "count",
    );
    let wait_us = (em.buffer_wait_ns - em_before.buffer_wait_ns) as f64 / 1e3;
    put("pool.wait_us_per_op", wait_us / ops, "us");

    put("disk.read_calls_per_op", read.calls as f64 / ops, "count");
    put(
        "disk.pages_per_read_call",
        ratio(read.units as f64, read.calls as f64),
        "count",
    );
    put("disk.write_pages_per_op", write.units as f64 / ops, "count");

    let commits = commits as f64;
    put(
        "wal.bytes_per_commit",
        ratio(append.units as f64, commits),
        "bytes",
    );
    put(
        "wal.appends_per_commit",
        ratio(append.calls as f64, commits),
        "count",
    );
    put(
        "wal.forces_per_commit",
        ratio(force.calls as f64, commits),
        "count",
    );
    put(
        "wal.force_us_per_commit",
        ratio(force.nanos as f64 / 1e3, commits),
        "us",
    );

    put(
        "setup.load_s",
        median(setups.iter().map(|s| s.load).collect()),
        "s",
    );
    put(
        "setup.index_s",
        median(setups.iter().map(|s| s.index).collect()),
        "s",
    );
    put(
        "setup.stats_s",
        median(setups.iter().map(|s| s.stats).collect()),
        "s",
    );
    Ok(Report {
        correct: client.failed == 0,
        attempted: client.attempted,
        failed: client.failed,
        metrics: m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_run(w: &'static Workload, trace: bool) -> Report {
        let args = Args {
            workload: w,
            seed: 7,
            seconds: 0.4,
            trace,
            sizes: Sizes::tiny(),
        };
        run(&args).expect("tiny run")
    }

    fn metric(r: &Report, name: &str) -> f64 {
        r.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .1
    }

    #[test]
    fn tiny_runs_finish_with_no_failed_statement() {
        for w in &WORKLOADS {
            for trace in [false, true] {
                let r = tiny_run(w, trace);
                assert!(r.attempted > 0, "{}: nothing ran", w.name);
                assert_eq!(r.failed, 0, "{} trace={trace}", w.name);
                assert!(r.correct);
            }
        }
    }

    #[test]
    fn traced_layers_add_up_to_the_wall_time() {
        for w in &WORKLOADS {
            let r = tiny_run(w, true);
            let wall = metric(&r, "trace.wall_us_per_op");
            let layers = Split::default().layers();
            let sum: f64 = layers.iter().map(|(name, _)| metric(&r, name)).sum();
            assert!(wall > 0.0);
            assert!(
                (sum - wall).abs() <= 1e-6 * wall,
                "{}: layers {sum} != wall {wall}",
                w.name
            );
            for (name, _) in layers {
                let v = metric(&r, name);
                assert!(v >= -0.005 * wall, "{}: {name} = {v}", w.name);
            }
        }
    }

    #[test]
    fn end_to_end_metrics_are_all_reported_and_positive() {
        let r = tiny_run(&WORKLOADS[0], false);
        let mut names = vec!["setup_s".to_string(), "ops_per_s".to_string()];
        for c in Class::ALL {
            names.push(format!("{}_p50_us", c.name()));
            names.push(format!("{}_p{}_us", c.name(), c.tail()));
        }
        names.extend(["peak_rss_mb".into(), "stored_bytes_per_user_byte".into()]);
        let got: Vec<&str> = r.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(got, names);
        assert!(r.metrics.iter().all(|(_, v, _)| *v > 0.0));
    }
}
