//! DML access paths: UPDATE and DELETE find their targets through the same
//! lowering, optimizer and plan executor as SELECT (index probes, range
//! scans, multi-term unions, path joins), and `Catalog::update_object`
//! maintains only the indexes whose key changed.
//!
//! The oracle is the interpreter (`Executor::eval_pred`) over a snapshot of
//! the extent taken before the statement: an object is a target when its
//! WHERE clause evaluates to TRUE. Every case checks the affected count,
//! the final extent and the contents of every index, across index presence,
//! parallelism and batch size.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mood_core::sql::{parse_expr, BoundObj, Executor, Row};
use mood_core::storage::wal::MemLog;
use mood_core::storage::MemDisk;
use mood_core::{Answer, Mood, Oid, RingBuffer, StorageManager, Value};

/// Gadgets in the differential grid.
const N: i32 = 300;

/// Makers: the targets of `maker` and of the set-valued `parts`.
const MAKERS: i32 = 4;

/// Padding per Gadget: a few objects per page, so a modest extent spans
/// enough pages for the cost model to prefer index probes.
const PAD: usize = 600;

/// The schema and `n` Gadgets with ids `0..n` in OID order. `x` cycles
/// through 0..7, `name` through five strings with every eleventh NULL,
/// `maker` through the makers, and `parts` holds 0, 1 or 2 makers. With
/// `indexed`, `id` has a B+-tree and `x` a hash index.
fn populate(db: &Mood, n: i32, indexed: bool) {
    for ddl in [
        "CREATE CLASS Maker TUPLE (code Integer, tag String(16))",
        "CREATE CLASS Gadget TUPLE (id Integer, x Integer, name String(16), \
         maker REFERENCE (Maker), parts SET (REFERENCE (Maker)), pad String)",
    ] {
        db.execute(ddl).unwrap();
    }
    if indexed {
        db.execute("CREATE INDEX ON Gadget(id)").unwrap();
        db.execute("CREATE HASH INDEX ON Gadget(x)").unwrap();
    }
    let cat = db.catalog();
    let makers: Vec<Oid> = (0..MAKERS)
        .map(|c| {
            cat.new_object(
                "Maker",
                Value::tuple(vec![
                    ("code", Value::Integer(c)),
                    ("tag", Value::string(format!("m{c}"))),
                ]),
            )
            .unwrap()
        })
        .collect();
    for i in 0..n {
        let parts = (0..i % 3)
            .map(|k| Value::Ref(makers[((i + k) % MAKERS) as usize]))
            .collect();
        let name = if i % 11 == 0 {
            Value::Null
        } else {
            Value::string(format!("n{}", i % 5))
        };
        cat.new_object(
            "Gadget",
            Value::tuple(vec![
                ("id", Value::Integer(i)),
                ("x", Value::Integer(i % 97)),
                ("name", name),
                ("maker", Value::Ref(makers[(i % MAKERS) as usize])),
                ("parts", Value::Set(parts)),
                ("pad", Value::string("p".repeat(PAD))),
            ]),
        )
        .unwrap();
    }
    db.collect_stats().unwrap();
}

fn build(n: i32, indexed: bool) -> Mood {
    let db = Mood::in_memory();
    populate(&db, n, indexed);
    db
}

/// A durable database (no-steal pool, redo WAL forced at each commit)
/// over an in-memory device, loaded outside any transaction and
/// checkpointed, like a bulk load; plus the directory holding its catalog
/// root, for the caller to remove.
fn build_durable(n: i32) -> (Mood, PathBuf) {
    static RUN: AtomicU64 = AtomicU64::new(0);
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "mood-dml-paths-{}-{}",
        std::process::id(),
        RUN.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sm = StorageManager::with_parts(Arc::new(MemDisk::new()), Box::new(MemLog::new()), 1024)
        .unwrap();
    let db = Mood::open_with_storage(Arc::new(sm), &dir).unwrap();
    populate(&db, n, true);
    db.checkpoint().unwrap();
    (db, dir)
}

fn extent(db: &Mood) -> BTreeMap<Oid, Value> {
    db.catalog().extent("Gadget").unwrap().into_iter().collect()
}

fn bind(var: &str, oid: Oid, value: &Value) -> Row {
    let mut row = Row::new();
    row.insert(
        var.to_string(),
        BoundObj {
            oid: Some(oid),
            value: Arc::new(value.clone()),
        },
    );
    row
}

fn affected(answer: Answer) -> usize {
    match answer {
        Answer::Done { affected } => affected,
        other => panic!("not a DML acknowledgement: {other:?}"),
    }
}

fn oid_of(db: &Mood, id: i32) -> Oid {
    let Answer::Rows(r) = db
        .execute(&format!("SELECT g FROM Gadget g WHERE g.id = {id}"))
        .unwrap()
    else {
        panic!("SELECT must return rows")
    };
    assert_eq!(r.rows.len(), 1, "id {id} must name one object");
    r.rows[0][0].as_oid().unwrap()
}

/// One WHERE shape of the grid.
struct Shape {
    name: &'static str,
    where_clause: Option<&'static str>,
    /// For a set-valued path `g.parts.…`: the predicate over one element
    /// `m`; an object is a target when some element satisfies it. (The
    /// interpreter does not range over set elements itself.)
    per_part: Option<&'static str>,
    /// With the indexes present, the optimizer serves this shape (or one
    /// of its terms) with an index probe.
    probes_index: bool,
}

const fn shape(name: &'static str, where_clause: &'static str, probes_index: bool) -> Shape {
    Shape {
        name,
        where_clause: Some(where_clause),
        per_part: None,
        probes_index,
    }
}

const SHAPES: &[Shape] = &[
    shape("indexed equality", "g.id = 17", true),
    shape("one-sided range", "g.id >= 297", true),
    shape("two-sided range", "g.id > 0 AND g.id <= 4", true),
    shape("wide range", "g.id >= 10 AND g.id < 30", false),
    shape("unindexed", "g.name = 'n3'", false),
    shape("hash-indexed attribute", "g.x = 5", false),
    shape("disjunction", "g.id = 3 OR g.x = 5 OR g.name = 'n1'", true),
    shape("path through a reference", "g.maker.code = 2", false),
    // A Gadget whose two parts both match binds twice in the path join;
    // it must still be written (and counted) once.
    Shape {
        name: "set-valued path",
        where_clause: Some("g.parts.code >= 1"),
        per_part: Some("m.code >= 1"),
        probes_index: false,
    },
    Shape {
        name: "no WHERE",
        where_clause: None,
        per_part: None,
        probes_index: false,
    },
];

fn indsels(db: &Mood) -> u64 {
    db.engine_metrics()
        .operators
        .iter()
        .find(|(k, _)| k == "INDSEL")
        .map(|(_, t)| t.invocations)
        .unwrap_or(0)
}

/// The oracle's targets, in extent order.
fn oracle_targets(db: &Mood, snapshot: &BTreeMap<Oid, Value>, shape: &Shape) -> Vec<Oid> {
    let ex = Executor::new(db.catalog(), db.funcman());
    let pred = shape
        .per_part
        .or(shape.where_clause)
        .map(|w| parse_expr(w).unwrap());
    snapshot
        .iter()
        .filter(|(oid, value)| match (&pred, shape.per_part) {
            (None, _) => true,
            (Some(p), None) => ex.eval_pred(p, &bind("g", **oid, value)).unwrap(),
            (Some(p), Some(_)) => {
                let Some(Value::Set(parts)) = value.field("parts") else {
                    return false;
                };
                parts.iter().any(|part| {
                    let m = part.as_oid().unwrap();
                    let (_, mv) = db.get_object(m).unwrap();
                    ex.eval_pred(p, &bind("m", m, &mv)).unwrap()
                })
            }
        })
        .map(|(oid, _)| *oid)
        .collect()
}

/// Every index agrees with the extent: for each key the old or the new
/// extent holds, the probe returns exactly the objects holding it now;
/// the B+-tree's full range holds one entry per non-null id.
fn assert_indexes_match(
    db: &Mood,
    before: &BTreeMap<Oid, Value>,
    after: &BTreeMap<Oid, Value>,
    ctx: &str,
) {
    let cat = db.catalog();
    for attr in ["id", "x"] {
        if cat.index("Gadget", attr).is_none() {
            continue;
        }
        let mut expect: BTreeMap<i32, BTreeSet<Oid>> = BTreeMap::new();
        for v in before.values() {
            if let Some(Value::Integer(k)) = v.field(attr) {
                expect.entry(*k).or_default();
            }
        }
        for (oid, v) in after {
            if let Some(Value::Integer(k)) = v.field(attr) {
                expect.entry(*k).or_default().insert(*oid);
            }
        }
        for (k, oids) in &expect {
            let got: BTreeSet<Oid> = cat
                .index_lookup("Gadget", attr, &Value::Integer(*k))
                .unwrap()
                .into_iter()
                .collect();
            assert_eq!(&got, oids, "{ctx}: index on {attr}, key {k}");
        }
    }
    if cat.index("Gadget", "id").is_some() {
        let all = cat.index_range("Gadget", "id", None, None).unwrap();
        let live = after
            .values()
            .filter(|v| matches!(v.field("id"), Some(Value::Integer(_))))
            .count();
        assert_eq!(all.len(), live, "{ctx}: B+-tree entries");
    }
}

/// UPDATE assignments of the grid: one moves both indexed keys, one
/// touches only an unindexed attribute.
const UPDATES: &[&[(&str, &str)]] = &[
    &[("id", "g.id + 1000"), ("x", "g.x * 2 + 1")],
    &[("name", "'touched'")],
];

/// Run one DML statement and hold it to the oracle: the affected count,
/// the final extent, every index, and (with indexes present) the index
/// probe the shape promises.
fn check(
    db: &Mood,
    shape: &Shape,
    sql: &str,
    targets: usize,
    expect: &BTreeMap<Oid, Value>,
    ctx: &str,
) {
    let before = extent(db);
    let probes = indsels(db);
    let n = affected(
        db.execute(sql)
            .unwrap_or_else(|e| panic!("{ctx}: {sql}: {e}")),
    );
    assert_eq!(n, targets, "{ctx}: affected by {sql}");
    let after = extent(db);
    assert_eq!(&after, expect, "{ctx}: extent after {sql}");
    assert_indexes_match(db, &before, &after, &format!("{ctx}: {sql}"));
    if shape.probes_index && db.catalog().index("Gadget", "id").is_some() {
        assert!(indsels(db) > probes, "{ctx}: {sql} must probe the index");
    }
}

fn dml_sql(head: &str, shape: &Shape) -> String {
    match shape.where_clause {
        Some(w) => format!("{head} WHERE {w}"),
        None => head.to_string(),
    }
}

fn check_update(db: &Mood, shape: &Shape, assignments: &[(&str, &str)], ctx: &str) {
    let before = extent(db);
    let ex = Executor::new(db.catalog(), db.funcman());
    let mut expect = before.clone();
    let targets = oracle_targets(db, &before, shape);
    for &oid in &targets {
        let row = bind("g", oid, &before[&oid]);
        let value = expect.get_mut(&oid).unwrap();
        for (attr, e) in assignments {
            value.set_field(attr, ex.eval_expr(&parse_expr(e).unwrap(), &row).unwrap());
        }
    }
    let set: Vec<String> = assignments
        .iter()
        .map(|(a, e)| format!("{a} = {e}"))
        .collect();
    let sql = dml_sql(&format!("UPDATE Gadget g SET {}", set.join(", ")), shape);
    check(db, shape, &sql, targets.len(), &expect, ctx);
}

fn check_delete(db: &Mood, shape: &Shape, ctx: &str) {
    let mut expect = extent(db);
    let targets = oracle_targets(db, &expect, shape);
    for oid in &targets {
        expect.remove(oid);
    }
    let sql = dml_sql("DELETE FROM Gadget g", shape);
    check(db, shape, &sql, targets.len(), &expect, ctx);
}

#[test]
fn dml_matches_the_interpreter_across_paths_and_settings() {
    for indexed in [false, true] {
        for parallelism in [1, 8] {
            for batch in [1, 1024] {
                let fresh = || {
                    let db = build(N, indexed);
                    db.set_parallelism(parallelism);
                    db.set_batch_size(batch);
                    db
                };
                for shape in SHAPES {
                    let ctx = format!(
                        "{} (indexed {indexed}, parallelism {parallelism}, batch {batch})",
                        shape.name
                    );
                    for assignments in UPDATES {
                        check_update(&fresh(), shape, assignments, &ctx);
                    }
                    check_delete(&fresh(), shape, &ctx);
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Edge cases
// ----------------------------------------------------------------------

#[test]
fn halloween_update_moves_each_object_exactly_once() {
    let db = build(N, true);
    let n = affected(
        db.execute("UPDATE Gadget g SET id = g.id + 1000 WHERE g.id >= 0")
            .unwrap(),
    );
    assert_eq!(n, N as usize);
    let ids: BTreeSet<i32> = extent(&db)
        .values()
        .map(|v| match v.field("id") {
            Some(Value::Integer(i)) => *i,
            other => panic!("id {other:?}"),
        })
        .collect();
    assert_eq!(ids, (1000..1000 + N).collect());
    let indexed = db
        .catalog()
        .index_range("Gadget", "id", None, None)
        .unwrap();
    assert_eq!(indexed.len(), N as usize);

    // Served by a B+-tree range probe whose range the moved keys stay in.
    let db = build(N, true);
    let probes = indsels(&db);
    let n = affected(
        db.execute("UPDATE Gadget g SET id = g.id + 2 WHERE g.id >= 297")
            .unwrap(),
    );
    assert_eq!(n, 3);
    assert!(indsels(&db) > probes, "the range is index-served");
    let ids: BTreeSet<i32> = extent(&db)
        .values()
        .filter_map(|v| match v.field("id") {
            Some(Value::Integer(i)) if *i >= 297 => Some(*i),
            _ => None,
        })
        .collect();
    assert_eq!(ids, BTreeSet::from([299, 300, 301]));
}

#[test]
fn unique_violation_mid_update_rolls_the_statement_back() {
    let db = build(N, false);
    db.execute("CREATE UNIQUE INDEX ON Gadget(id)").unwrap();
    let before = extent(&db);
    let ten = oid_of(&db, 10);
    // The first target moves to 500; the second collides with it.
    assert!(db
        .execute("UPDATE Gadget g SET id = 500 WHERE g.id >= 10")
        .is_err());
    assert_eq!(extent(&db), before, "autocommit statement undone");
    let cat = db.catalog();
    assert!(cat
        .index_lookup("Gadget", "id", &Value::Integer(500))
        .unwrap()
        .is_empty());
    assert_eq!(
        cat.index_lookup("Gadget", "id", &Value::Integer(10))
            .unwrap(),
        vec![ten]
    );
    // Inside an explicit transaction only the failing statement is undone.
    db.execute("BEGIN").unwrap();
    db.execute("UPDATE Gadget g SET id = 900 WHERE g.id = 10")
        .unwrap();
    assert!(db
        .execute("UPDATE Gadget g SET id = 500 WHERE g.id >= 20")
        .is_err());
    db.execute("COMMIT").unwrap();
    let after = extent(&db);
    assert_eq!(after[&ten].field("id"), Some(&Value::Integer(900)));
    let mut expect = before.clone();
    expect
        .get_mut(&ten)
        .unwrap()
        .set_field("id", Value::Integer(900));
    assert_eq!(after, expect);
    assert_indexes_match(&db, &before, &after, "after savepoint rollback");
}

#[test]
fn update_in_a_transaction_sees_its_own_new_objects() {
    let db = build(N, true);
    db.execute("BEGIN").unwrap();
    db.execute("new Gadget <900, 3, 'fresh', NULL, NULL>")
        .unwrap();
    let probes = indsels(&db);
    let n = affected(
        db.execute("UPDATE Gadget g SET x = 42 WHERE g.id = 900")
            .unwrap(),
    );
    assert_eq!(n, 1, "the index probe finds the transaction's new object");
    assert!(indsels(&db) > probes);
    db.execute("COMMIT").unwrap();
    let Answer::Rows(r) = db
        .execute("SELECT g.x FROM Gadget g WHERE g.id = 900")
        .unwrap()
    else {
        panic!("SELECT must return rows")
    };
    assert_eq!(r.rows, vec![vec![Value::Integer(42)]]);
}

// ----------------------------------------------------------------------
// Count guards: counts, not timings
// ----------------------------------------------------------------------

#[test]
fn unindexed_update_logs_one_page_image_and_a_commit() {
    let (db, dir) = build_durable(N);
    let before = db.engine_metrics().wal.appends;
    let n = affected(
        db.execute("UPDATE Gadget g SET name = 'z' WHERE g.id = 17")
            .unwrap(),
    );
    assert_eq!(n, 1);
    let appends = db.engine_metrics().wal.appends - before;
    assert_eq!(
        appends, 2,
        "heap page image + commit record, no index pages"
    );
    drop(db);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn indexed_key_update_moves_the_index_entry() {
    let (db, dir) = build_durable(N);
    let oid = oid_of(&db, 17);
    db.execute("UPDATE Gadget g SET id = 5017 WHERE g.id = 17")
        .unwrap();
    let cat = db.catalog();
    assert!(cat
        .index_lookup("Gadget", "id", &Value::Integer(17))
        .unwrap()
        .is_empty());
    assert_eq!(
        cat.index_lookup("Gadget", "id", &Value::Integer(5017))
            .unwrap(),
        vec![oid]
    );
    drop(db);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn update_by_indexed_key_touches_a_handful_of_pages() {
    let db = build(5_000, true);
    let before = db.metrics().snapshot();
    let n = affected(
        db.execute("UPDATE Gadget g SET name = 'z' WHERE g.id = 4321")
            .unwrap(),
    );
    assert_eq!(n, 1);
    let d = db.metrics().snapshot().delta(&before);
    let touched = d.buffer_hits + d.buffer_misses;
    assert!(touched <= 10, "pool pages touched: {touched} ({d:?})");
}

// ----------------------------------------------------------------------
// Observability
// ----------------------------------------------------------------------

#[test]
fn indexed_update_traces_bind_optimize_and_indsel() {
    let db = build(N, true);
    let before = indsels(&db);
    let ring = RingBuffer::new(64);
    db.tracer().subscribe(ring.clone());
    db.execute("UPDATE Gadget g SET name = 'z' WHERE g.id = 17")
        .unwrap();
    for name in ["bind", "optimize", "op:INDSEL"] {
        assert!(
            !ring.named(name).is_empty(),
            "missing {name} span: {:?}",
            ring.records().iter().map(|r| &r.name).collect::<Vec<_>>()
        );
    }
    assert_eq!(indsels(&db), before + 1, "registry counts the INDSEL");
}
