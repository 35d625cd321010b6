//! The `Join` operator and its four execution methods (Section 3.2 / §6):
//! forward traversal, backward traversal, indexed join (binary join index),
//! and pointer-based hash-partition join.
//!
//! All four compute the same *implicit join* `C.A = D.self` — pairs of
//! (C-object, D-object) where C's reference attribute `A` points at the
//! D-object — but with different access patterns, which the storage-layer
//! metrics expose and the benches compare against the §6 cost formulas.

use std::collections::{HashMap, HashSet};

use mood_catalog::Catalog;
use mood_datamodel::Value;
use mood_storage::exec::{run_chunked, ExecutionConfig};
use mood_storage::{AccessHint, FileId, Oid, PageId};

use crate::collection::{join_return, Collection, Kind, Obj};
use crate::error::{AlgebraError, Result};
use crate::ops::deref;

pub use mood_cost::JoinMethod;

/// The right-hand side of an implicit join: either a whole class (the
/// executor fetches referenced objects directly by pointer — the common
/// `BIND(Class, d)` plan leaf) or a materialized collection (a prior
/// operator's output; membership is enforced).
#[derive(Debug, Clone, Copy)]
pub enum JoinRhs<'a> {
    Class(&'a str),
    Collection(&'a Collection),
}

/// Extract the reference OIDs from an attribute value (Reference, or
/// Set/List of references — the traversable constructors).
fn ref_oids(v: &Value) -> Vec<Oid> {
    match v {
        Value::Ref(oid) => vec![*oid],
        Value::Set(items) | Value::List(items) => items.iter().filter_map(|i| i.as_oid()).collect(),
        _ => Vec::new(),
    }
}

/// The sorted, deduplicated target pages of one probe batch — the run map
/// the pipelined prefetch (`BufferPool::prefetch_run`) consults as the
/// probes advance.
fn batch_pages(batch: &[Obj], attr: &str) -> Vec<(FileId, PageId)> {
    let mut pages: Vec<(FileId, PageId)> = Vec::new();
    for l in batch {
        if let Some(v) = l.value.field(attr) {
            for oid in ref_oids(v) {
                pages.push((oid.file, oid.page));
            }
        }
    }
    pages.sort_unstable();
    pages.dedup();
    pages
}

/// Materialize the objects of any collection. Set/list members are
/// dereferenced in `exec.parallelism` contiguous chunks, concatenated in
/// input order: each identifier is dereferenced exactly once.
pub fn materialize(catalog: &Catalog, c: &Collection, exec: ExecutionConfig) -> Result<Vec<Obj>> {
    Ok(match c {
        Collection::Extent(objs) => objs.clone(),
        Collection::Set(oids) | Collection::List(oids) => {
            run_chunked(exec.parallelism, oids, |_, chunk| {
                chunk.iter().map(|&oid| deref(catalog, oid)).collect()
            })?
        }
        Collection::NamedObject(o) => vec![o.clone()],
        Collection::Empty => Vec::new(),
    })
}

/// The right side of a join, fixed before probing starts.
struct Rhs {
    /// Membership filter (None: any object of the right class qualifies).
    allowed: Option<HashSet<Oid>>,
    /// Right objects known up front: a prior operator's extent output, a
    /// backward scan, or the warm-up of a parallel probe. `None` records a
    /// qualifying OID that is dangling.
    cache: HashMap<Oid, Option<Obj>>,
    /// Right class for the unmaterialized case.
    class: Option<String>,
}

impl Rhs {
    fn build(rhs: &JoinRhs<'_>) -> Rhs {
        match rhs {
            JoinRhs::Class(c) => Rhs {
                allowed: None,
                cache: HashMap::new(),
                class: Some(c.to_string()),
            },
            JoinRhs::Collection(col) => {
                let mut cache = HashMap::new();
                if let Collection::Extent(objs) = col {
                    for o in objs {
                        if let Some(oid) = o.oid {
                            cache.insert(oid, Some(o.clone()));
                        }
                    }
                }
                Rhs {
                    allowed: Some(col.oids().into_iter().collect()),
                    cache,
                    class: None,
                }
            }
        }
    }

    /// A scanned class extent: every right object is known up front.
    fn scan(catalog: &Catalog, class: &str) -> Result<Rhs> {
        let mut cache = HashMap::new();
        catalog.extent_with(class, AccessHint::Sequential, &mut |oid, value| {
            cache.insert(oid, Some(Obj::stored(oid, value)));
            true
        })?;
        Ok(Rhs {
            allowed: Some(cache.keys().copied().collect()),
            cache,
            class: None,
        })
    }
}

/// One worker's view of an [`Rhs`]: the shared, read-only right side plus
/// the targets this worker fetched itself.
struct Probe<'r> {
    rhs: &'r Rhs,
    fetched: HashMap<Oid, Option<Obj>>,
}

impl<'r> Probe<'r> {
    fn new(rhs: &'r Rhs) -> Probe<'r> {
        Probe {
            rhs,
            fetched: HashMap::new(),
        }
    }

    /// Resolve one referenced OID to a right-side object if it qualifies.
    fn fetch(&mut self, catalog: &Catalog, oid: Oid) -> Result<Option<Obj>> {
        if let Some(allowed) = &self.rhs.allowed {
            if !allowed.contains(&oid) {
                return Ok(None);
            }
        }
        if let Some(hit) = self.rhs.cache.get(&oid).or_else(|| self.fetched.get(&oid)) {
            return Ok(hit.clone());
        }
        let obj = match catalog.get_object(oid) {
            Ok((class, value)) => {
                let wanted = self
                    .rhs
                    .class
                    .as_ref()
                    .is_none_or(|want| catalog.is_subclass(&class, want));
                wanted.then(|| Obj::stored(oid, value))
            }
            // Dangling references produce no pair (not an error): deleted
            // targets simply do not join.
            Err(mood_catalog::CatalogError::Storage(_)) => None,
            Err(e) => return Err(e.into()),
        };
        self.fetched.insert(oid, obj.clone());
        Ok(obj)
    }
}

/// Execute `Join(left, rhs, method, left.attr = rhs.self)`, returning the
/// joined pairs in left-collection order.
///
/// `exec.parallelism` splits the probe side into contiguous chunks run on
/// worker threads; pairs and their order are those of the sequential run.
/// `exec.batch_size` is the forward probe's unit: a class right side keeps
/// its target cache for one batch of left objects and prefetches the
/// batch's page runs. At `batch_size` 1 the probe fetches once per
/// reference, the worst case the §6 formulas price, and the total page
/// accesses are the same at every parallelism.
pub fn join(
    catalog: &Catalog,
    left: &Collection,
    attr: &str,
    rhs: JoinRhs<'_>,
    method: JoinMethod,
    exec: ExecutionConfig,
) -> Result<Vec<(Obj, Obj)>> {
    match method {
        JoinMethod::ForwardTraversal | JoinMethod::BackwardTraversal => {
            let rhs = match (method, rhs) {
                // §6.2's access pattern: the D side is read by one
                // sequential extent scan up front; the join itself is then
                // pure CPU work (membership tests against the scanned map).
                (JoinMethod::BackwardTraversal, JoinRhs::Class(class)) => {
                    Rhs::scan(catalog, class)?
                }
                (_, rhs) => Rhs::build(&rhs),
            };
            traverse(catalog, &materialize(catalog, left, exec)?, attr, rhs, exec)
        }
        JoinMethod::BinaryJoinIndex => {
            indexed(catalog, &materialize(catalog, left, exec)?, attr, rhs, exec)
        }
        JoinMethod::HashPartition => {
            let left_objs = materialize(catalog, left, exec)?;
            hash_partition(catalog, &left_objs, attr, Rhs::build(&rhs), exec)
        }
    }
}

/// Forward and backward traversal: for each left object, chase `attr`'s
/// reference(s) and look the target up on the right side (§6.1's pattern:
/// one random access per reference).
///
/// * A class right side (forward traversal) has no targets cached. Its
///   probe cache lives for one batch, so at `batch_size` 1 every reference
///   pays its fetch and shared targets are refetched — the paper's
///   worst-case ftc. The buffer pool still absorbs repeats when it is
///   large, exactly the effect §6.1 calls out. Left chunks are independent,
///   so each worker fetches one target per reference, as sequentially.
/// * Any other right side keeps its cache for the whole join and fetches
///   each distinct qualifying target once. In parallel, those fetches run
///   first in one sequential warm-up pass (first-encounter order, the
///   sequential access sequence); the workers then only read the cache.
fn traverse(
    catalog: &Catalog,
    left_objs: &[Obj],
    attr: &str,
    mut rhs: Rhs,
    exec: ExecutionConfig,
) -> Result<Vec<(Obj, Obj)>> {
    let per_batch = rhs.allowed.is_none();
    if !per_batch && exec.is_parallel() {
        let mut warm = Probe::new(&rhs);
        for l in left_objs {
            for oid in l.value.field(attr).map(ref_oids).unwrap_or_default() {
                warm.fetch(catalog, oid)?;
            }
        }
        let fetched = warm.fetched;
        rhs.cache.extend(fetched);
    }
    let batch_size = exec.batch_size.max(1);
    let prefetch = per_batch && batch_size > 1;
    let storage = catalog.storage();
    run_chunked(exec.parallelism, left_objs, |_, chunk| {
        let mut probe = Probe::new(&rhs);
        let mut out = Vec::new();
        for batch in chunk.chunks(batch_size) {
            if per_batch {
                probe.fetched.clear();
            }
            // Pipelined probe prefetch: at each probe past the last
            // prefetched run, batch-read the consecutive page run ahead
            // of it (one readahead window at a time — see
            // `BufferPool::prefetch_run`). On a clustered heap the chase
            // becomes one batched read per window; on a scattered heap
            // the runs degenerate to single pages and nothing is issued.
            let pages = if prefetch {
                batch_pages(batch, attr)
            } else {
                Vec::new()
            };
            let mut pf_end: Option<(FileId, u32)> = None;
            for l in batch {
                for oid in l.value.field(attr).map(ref_oids).unwrap_or_default() {
                    if prefetch && pf_end.is_none_or(|(f, end)| f != oid.file || oid.page.0 >= end)
                    {
                        let n = storage.pool().prefetch_run(&pages, (oid.file, oid.page));
                        if n > 0 {
                            pf_end = Some((oid.file, oid.page.0 + n));
                        }
                    }
                    if let Some(r) = probe.fetch(catalog, oid)? {
                        out.push((l.clone(), r));
                    }
                }
            }
            if prefetch {
                storage.registry().record_batch(batch.len() as u64);
            }
        }
        Ok(out)
    })
}

/// Indexed join through the *binary join index* on (left-class, attr): for
/// each qualifying right object, probe the index for the left OIDs that
/// reference it (§6.3's pattern). Requires the index to exist and the left
/// collection to be a class extent (the index covers the stored extent).
/// Index probes are read-only, so right objects are probed in contiguous
/// chunks on worker threads, each exactly once.
fn indexed(
    catalog: &Catalog,
    left_objs: &[Obj],
    attr: &str,
    rhs: JoinRhs<'_>,
    exec: ExecutionConfig,
) -> Result<Vec<(Obj, Obj)>> {
    // Identify the left class from the extent's stored objects.
    let Some(first_oid) = left_objs.iter().find_map(|o| o.oid) else {
        return Ok(Vec::new());
    };
    let (left_class, _) = catalog.get_object(first_oid)?;
    let left_by_oid: HashMap<Oid, &Obj> = left_objs
        .iter()
        .filter_map(|o| o.oid.map(|id| (id, o)))
        .collect();

    let right_objs: Vec<Obj> = match rhs {
        JoinRhs::Collection(c) => materialize(catalog, c, exec)?,
        JoinRhs::Class(c) => {
            let mut objs = Vec::new();
            catalog.extent_with(c, AccessHint::Sequential, &mut |oid, v| {
                objs.push(Obj::stored(oid, v));
                true
            })?;
            objs
        }
    };
    if catalog.index(&left_class, attr).is_none() {
        return Err(AlgebraError::NotApplicable {
            operator: "Join(BINARY_JOIN_INDEX)",
            detail: format!("no binary join index on {left_class}.{attr}"),
        });
    }
    let mut out = run_chunked(exec.parallelism, &right_objs, |_, chunk| {
        let mut pairs = Vec::new();
        for r in chunk {
            let Some(r_oid) = r.oid else { continue };
            for l_oid in catalog.index_lookup(&left_class, attr, &Value::Ref(r_oid))? {
                if let Some(l) = left_by_oid.get(&l_oid) {
                    pairs.push(((*l).clone(), r.clone()));
                }
            }
        }
        Ok::<_, AlgebraError>(pairs)
    })?;
    // Index probes return right-major order; normalize to left order for
    // comparability across methods.
    out.sort_by_key(|(l, _)| l.oid);
    Ok(out)
}

/// Pointer-based hash-partition join (§6.4): partition the left objects on
/// the pointer field, then chase each *distinct* pointer once and emit all
/// pairs for that target. Only applicable when `attr` is a plain Reference
/// (the paper's stated restriction). The sorted distinct keys are probed
/// in contiguous chunks; workers hold disjoint keys, so each target is
/// still fetched exactly once.
fn hash_partition(
    catalog: &Catalog,
    left_objs: &[Obj],
    attr: &str,
    rhs: Rhs,
    exec: ExecutionConfig,
) -> Result<Vec<(Obj, Obj)>> {
    let mut partitions: HashMap<Oid, Vec<usize>> = HashMap::new();
    for (i, l) in left_objs.iter().enumerate() {
        match l.value.field(attr) {
            Some(Value::Ref(oid)) => partitions.entry(*oid).or_default().push(i),
            Some(Value::Set(_) | Value::List(_)) => {
                return Err(AlgebraError::NotApplicable {
                    operator: "Join(HASH_PARTITION)",
                    detail: format!(
                        "{attr} is a collection of references; hash-partition join \
                         applies only when the constructor of the attribute is Reference"
                    ),
                })
            }
            _ => {}
        }
    }
    // Probe phase: each distinct target fetched once.
    let mut keys: Vec<Oid> = partitions.keys().copied().collect();
    keys.sort();
    let mut out = run_chunked(exec.parallelism, &keys, |_, chunk| {
        let mut probe = Probe::new(&rhs);
        let mut pairs = Vec::new();
        for &oid in chunk {
            if let Some(r) = probe.fetch(catalog, oid)? {
                for &i in &partitions[&oid] {
                    pairs.push((left_objs[i].clone(), r.clone()));
                }
            }
        }
        Ok::<_, AlgebraError>(pairs)
    })?;
    out.sort_by_key(|(l, _)| l.oid);
    Ok(out)
}

/// Wrap joined pairs as a collection with the Table 2 return kind.
/// Extent results are transient ⟨left, right⟩ tuples; set/list results keep
/// the left side's identifiers; a named-object pair keeps the left object.
pub fn pairs_to_collection(pairs: Vec<(Obj, Obj)>, k1: Kind, k2: Kind) -> Collection {
    match join_return(k1, k2) {
        Kind::Extent => Collection::Extent(
            pairs
                .into_iter()
                .map(|(l, r)| {
                    Obj::transient(Value::Tuple(vec![
                        ("left".to_string(), l.oid.map(Value::Ref).unwrap_or(l.value)),
                        (
                            "right".to_string(),
                            r.oid.map(Value::Ref).unwrap_or(r.value),
                        ),
                    ]))
                })
                .collect(),
        ),
        Kind::Set => Collection::set_from(pairs.iter().filter_map(|(l, _)| l.oid).collect()),
        Kind::List => Collection::List(pairs.iter().filter_map(|(l, _)| l.oid).collect()),
        Kind::NamedObject => match pairs.into_iter().next() {
            Some((l, _)) => Collection::NamedObject(l),
            None => Collection::Empty,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::bind_class;
    use mood_catalog::{ClassBuilder, IndexKind};
    use mood_datamodel::TypeDescriptor;
    use mood_storage::StorageManager;
    use std::sync::Arc;

    /// Build the paper's Vehicle→DriveTrain→Engine shape at small scale.
    fn setup() -> (Arc<Catalog>, Vec<Oid>, Vec<Oid>) {
        let sm = Arc::new(StorageManager::in_memory());
        let cat = Arc::new(Catalog::create(sm).unwrap());
        cat.define_class(
            ClassBuilder::class("VehicleDriveTrain")
                .attribute("transmission", TypeDescriptor::string()),
        )
        .unwrap();
        cat.define_class(
            ClassBuilder::class("Vehicle")
                .attribute("id", TypeDescriptor::integer())
                .attribute("drivetrain", TypeDescriptor::reference("VehicleDriveTrain")),
        )
        .unwrap();
        let mut trains = Vec::new();
        for i in 0..5 {
            trains.push(
                cat.new_object(
                    "VehicleDriveTrain",
                    Value::tuple(vec![(
                        "transmission",
                        Value::string(if i % 2 == 0 { "AUTOMATIC" } else { "MANUAL" }),
                    )]),
                )
                .unwrap(),
            );
        }
        let mut cars = Vec::new();
        for i in 0..20 {
            cars.push(
                cat.new_object(
                    "Vehicle",
                    Value::tuple(vec![
                        ("id", Value::Integer(i as i32)),
                        ("drivetrain", Value::Ref(trains[i % 5])),
                    ]),
                )
                .unwrap(),
            );
        }
        (cat, cars, trains)
    }

    fn pair_ids(pairs: &[(Obj, Obj)]) -> Vec<(Oid, Oid)> {
        let mut v: Vec<_> = pairs
            .iter()
            .map(|(l, r)| (l.oid.unwrap(), r.oid.unwrap()))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn all_methods_agree_on_class_rhs() {
        let (cat, _, _) = setup();
        cat.create_index("Vehicle", "drivetrain", IndexKind::BTree, false)
            .unwrap();
        let left = bind_class(&cat, "Vehicle", false, &[]).unwrap();
        let expected = {
            let pairs = join(
                &cat,
                &left,
                "drivetrain",
                JoinRhs::Class("VehicleDriveTrain"),
                JoinMethod::ForwardTraversal,
                ExecutionConfig::default(),
            )
            .unwrap();
            assert_eq!(pairs.len(), 20, "every car joins its drivetrain");
            pair_ids(&pairs)
        };
        for method in [
            JoinMethod::BackwardTraversal,
            JoinMethod::BinaryJoinIndex,
            JoinMethod::HashPartition,
        ] {
            let pairs = join(
                &cat,
                &left,
                "drivetrain",
                JoinRhs::Class("VehicleDriveTrain"),
                method,
                ExecutionConfig::default(),
            )
            .unwrap();
            assert_eq!(pair_ids(&pairs), expected, "{method:?} disagrees");
        }
    }

    #[test]
    fn membership_filter_on_collection_rhs() {
        let (cat, _, trains) = setup();
        let left = bind_class(&cat, "Vehicle", false, &[]).unwrap();
        // Only the first drivetrain qualifies.
        let rhs = Collection::set_from(vec![trains[0]]);
        let pairs = join(
            &cat,
            &left,
            "drivetrain",
            JoinRhs::Collection(&rhs),
            JoinMethod::ForwardTraversal,
            ExecutionConfig::default(),
        )
        .unwrap();
        assert_eq!(pairs.len(), 4, "cars 0,5,10,15");
        assert!(pairs.iter().all(|(_, r)| r.oid == Some(trains[0])));
    }

    #[test]
    fn hash_partition_fetches_each_target_once() {
        let (cat, _, _) = setup();
        let left = bind_class(&cat, "Vehicle", false, &[]).unwrap();
        let metrics = cat.storage().metrics();
        let before = metrics.snapshot();
        let pairs = join(
            &cat,
            &left,
            "drivetrain",
            JoinRhs::Class("VehicleDriveTrain"),
            JoinMethod::HashPartition,
            ExecutionConfig::default(),
        )
        .unwrap();
        assert_eq!(pairs.len(), 20);
        let delta = metrics.snapshot().delta(&before);
        // 5 distinct targets, all on one page → very few physical reads
        // (buffer hits don't count); the point is it did not fetch 20 times.
        assert!(delta.buffer_hits + delta.buffer_misses <= 8, "{delta:?}");
    }

    #[test]
    fn indexed_join_requires_index() {
        let (cat, _, _) = setup();
        let left = bind_class(&cat, "Vehicle", false, &[]).unwrap();
        let err = join(
            &cat,
            &left,
            "drivetrain",
            JoinRhs::Class("VehicleDriveTrain"),
            JoinMethod::BinaryJoinIndex,
            ExecutionConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, AlgebraError::NotApplicable { .. }));
    }

    #[test]
    fn dangling_references_produce_no_pairs() {
        let (cat, cars, trains) = setup();
        cat.delete_object(trains[0]).unwrap();
        let left = bind_class(&cat, "Vehicle", false, &[]).unwrap();
        let pairs = join(
            &cat,
            &left,
            "drivetrain",
            JoinRhs::Class("VehicleDriveTrain"),
            JoinMethod::ForwardTraversal,
            ExecutionConfig::default(),
        )
        .unwrap();
        assert_eq!(pairs.len(), 16, "4 cars lost their drivetrain");
        let _ = cars;
    }

    #[test]
    fn null_references_skip() {
        let (cat, _, _) = setup();
        let lonely = cat
            .new_object("Vehicle", Value::tuple(vec![("id", Value::Integer(99))]))
            .unwrap();
        let left = Collection::set_from(vec![lonely]);
        let pairs = join(
            &cat,
            &left,
            "drivetrain",
            JoinRhs::Class("VehicleDriveTrain"),
            JoinMethod::ForwardTraversal,
            ExecutionConfig::default(),
        )
        .unwrap();
        assert!(pairs.is_empty());
    }

    #[test]
    fn set_valued_references_join_forward_but_not_hash() {
        let (cat, _, _) = setup();
        cat.define_class(ClassBuilder::class("Fleet").attribute(
            "vehicles",
            TypeDescriptor::set_of(TypeDescriptor::reference("Vehicle")),
        ))
        .unwrap();
        let cars = cat.extent("Vehicle").unwrap();
        let fleet = cat
            .new_object(
                "Fleet",
                Value::tuple(vec![(
                    "vehicles",
                    Value::Set(vec![Value::Ref(cars[0].0), Value::Ref(cars[1].0)]),
                )]),
            )
            .unwrap();
        let left = Collection::set_from(vec![fleet]);
        let pairs = join(
            &cat,
            &left,
            "vehicles",
            JoinRhs::Class("Vehicle"),
            JoinMethod::ForwardTraversal,
            ExecutionConfig::default(),
        )
        .unwrap();
        assert_eq!(pairs.len(), 2);
        // The paper: hash-partition "can only be applied when constructor
        // of attribute A is Reference".
        let err = join(
            &cat,
            &left,
            "vehicles",
            JoinRhs::Class("Vehicle"),
            JoinMethod::HashPartition,
            ExecutionConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, AlgebraError::NotApplicable { .. }));
    }

    #[test]
    fn pairs_to_collection_follows_table2() {
        let (cat, _, _) = setup();
        let left = bind_class(&cat, "Vehicle", false, &[]).unwrap();
        let pairs = join(
            &cat,
            &left,
            "drivetrain",
            JoinRhs::Class("VehicleDriveTrain"),
            JoinMethod::ForwardTraversal,
            ExecutionConfig::default(),
        )
        .unwrap();
        let as_extent = pairs_to_collection(pairs.clone(), Kind::Extent, Kind::Extent);
        assert_eq!(as_extent.kind(), Some(Kind::Extent));
        assert_eq!(as_extent.len(), 20);
        let as_set = pairs_to_collection(pairs.clone(), Kind::Set, Kind::List);
        assert_eq!(as_set.kind(), Some(Kind::Set));
        assert_eq!(as_set.len(), 20, "20 distinct left oids");
        let as_named = pairs_to_collection(pairs, Kind::NamedObject, Kind::NamedObject);
        assert_eq!(as_named.kind(), Some(Kind::NamedObject));
    }
}
