//! `DupElim`, `Union`, `Intersection`, `Difference` — with the return-type
//! rules of Tables 3 and 4.

use std::collections::HashSet;

use mood_catalog::Catalog;
use mood_datamodel::deep_eq;
use mood_storage::exec::{run_chunked, ExecutionConfig};
use mood_storage::Oid;

use crate::collection::{Collection, Obj};
use crate::error::{AlgebraError, Result};

/// `DupElim(arg)` — Table 3:
/// * Set → not applicable (a set has no duplicates);
/// * List → list of ordered distinct object identifiers;
/// * Extent → extent of distinct objects *by deep equality*.
///
/// In parallel, each chunk drops its local duplicates on a worker thread,
/// then one sequential pass over the survivors catches duplicates that span
/// chunks. First occurrences are decided in input order in both passes, so
/// the result is the sequential one.
pub fn dup_elim(catalog: &Catalog, arg: &Collection, exec: ExecutionConfig) -> Result<Collection> {
    match arg {
        Collection::Set(_) => Err(AlgebraError::NotApplicable {
            operator: "DupElim",
            detail: "sets have no duplicates (Table 3: not applicable)".into(),
        }),
        Collection::List(oids) => {
            let mut sorted = run_chunked(exec.parallelism, oids, |_, chunk| {
                let mut sorted = chunk.to_vec();
                sorted.sort();
                sorted.dedup();
                Ok::<_, AlgebraError>(sorted)
            })?;
            if exec.is_parallel() {
                sorted.sort();
                sorted.dedup();
            }
            Ok(Collection::List(sorted))
        }
        Collection::Extent(objs) => {
            let survivors = run_chunked(exec.parallelism, objs, |_, chunk| {
                Ok::<_, AlgebraError>(first_occurrences(catalog, chunk))
            })?;
            Ok(Collection::Extent(if exec.is_parallel() {
                first_occurrences(catalog, &survivors)
            } else {
                survivors
            }))
        }
        Collection::NamedObject(_) | Collection::Empty => Ok(arg.clone()),
    }
}

/// The first occurrence of each distinct object, in input order. Deep
/// equality is expensive, so a cheap shallow pass (identical OIDs) prunes
/// before the pairwise deep check.
fn first_occurrences(catalog: &Catalog, objs: &[Obj]) -> Vec<Obj> {
    let mut kept: Vec<Obj> = Vec::new();
    let mut seen_oids: HashSet<Oid> = HashSet::new();
    for o in objs {
        if o.oid.is_some_and(|oid| !seen_oids.insert(oid)) {
            continue; // literally the same object
        }
        if !kept.iter().any(|k| deep_eq(&o.value, &k.value, catalog)) {
            kept.push(o.clone());
        }
    }
    kept
}

fn oids_of<'c>(arg: &'c Collection, operator: &'static str) -> Result<&'c [Oid]> {
    match arg {
        Collection::Set(v) | Collection::List(v) => Ok(v),
        other => Err(AlgebraError::NotApplicable {
            operator,
            detail: format!(
                "arguments must be sets or lists (Table 4), got {:?}",
                other.kind()
            ),
        }),
    }
}

fn both_lists(a: &Collection, b: &Collection) -> bool {
    matches!((a, b), (Collection::List(_), Collection::List(_)))
}

/// `Union(arg1, arg2)` — Table 4. Two lists concatenate ("union
/// corresponds to array concatenation"); any set operand makes the result a
/// set. Concatenation has no per-element work to split, so `exec` is
/// accepted for a uniform signature and not used.
pub fn union(a: &Collection, b: &Collection, _exec: ExecutionConfig) -> Result<Collection> {
    let out = [oids_of(a, "Union")?, oids_of(b, "Union")?].concat();
    Ok(if both_lists(a, b) {
        Collection::List(out)
    } else {
        Collection::set_from(out)
    })
}

/// `Intersection(arg1, arg2)` — Table 4.
pub fn intersection(a: &Collection, b: &Collection, exec: ExecutionConfig) -> Result<Collection> {
    let common = filter_members(a, b, true, "Intersection", exec)?;
    if both_lists(a, b) {
        // List ∩ List keeps the left list's order, deduplicated.
        let mut seen = HashSet::new();
        Ok(Collection::List(
            common.into_iter().filter(|o| seen.insert(*o)).collect(),
        ))
    } else {
        Ok(Collection::set_from(common))
    }
}

/// `Difference(arg1, arg2)` — Table 4: objects in `arg1` but not `arg2`.
pub fn difference(a: &Collection, b: &Collection, exec: ExecutionConfig) -> Result<Collection> {
    let rest = filter_members(a, b, false, "Difference", exec)?;
    Ok(if both_lists(a, b) {
        Collection::List(rest)
    } else {
        Collection::set_from(rest)
    })
}

/// The identifiers of `a` whose membership in `b` equals `member`, in `a`'s
/// order. `b`'s membership set is built once; `a` is filtered in contiguous
/// chunks.
fn filter_members(
    a: &Collection,
    b: &Collection,
    member: bool,
    operator: &'static str,
    exec: ExecutionConfig,
) -> Result<Vec<Oid>> {
    let (xa, xb) = (oids_of(a, operator)?, oids_of(b, operator)?);
    let set_b: HashSet<Oid> = xb.iter().copied().collect();
    run_chunked(exec.parallelism, xa, |_, chunk| {
        Ok(chunk
            .iter()
            .copied()
            .filter(|o| set_b.contains(o) == member)
            .collect())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_catalog::ClassBuilder;
    use mood_datamodel::{TypeDescriptor, Value};
    use mood_storage::StorageManager;
    use std::sync::Arc;

    fn catalog() -> Arc<Catalog> {
        let sm = Arc::new(StorageManager::in_memory());
        let cat = Arc::new(Catalog::create(sm).unwrap());
        cat.define_class(
            ClassBuilder::class("Point")
                .attribute("x", TypeDescriptor::integer())
                .attribute("y", TypeDescriptor::integer()),
        )
        .unwrap();
        cat
    }

    fn pt(cat: &Catalog, x: i32, y: i32) -> Oid {
        cat.new_object(
            "Point",
            Value::tuple(vec![("x", Value::Integer(x)), ("y", Value::Integer(y))]),
        )
        .unwrap()
    }

    #[test]
    fn dupelim_rejects_sets() {
        let cat = catalog();
        let err = dup_elim(&cat, &Collection::Set(vec![]), ExecutionConfig::default()).unwrap_err();
        assert!(matches!(err, AlgebraError::NotApplicable { .. }));
    }

    #[test]
    fn dupelim_on_list_sorts_and_dedups() {
        let cat = catalog();
        let (a, b) = (pt(&cat, 1, 1), pt(&cat, 2, 2));
        let list = Collection::List(vec![b, a, b, a, b]);
        let out = dup_elim(&cat, &list, ExecutionConfig::default()).unwrap();
        assert_eq!(out, Collection::List(vec![a, b]), "ordered distinct oids");
    }

    #[test]
    fn dupelim_on_extent_uses_deep_equality() {
        let cat = catalog();
        // Two distinct objects with equal values, one different.
        let a = pt(&cat, 1, 1);
        let b = pt(&cat, 1, 1);
        let c = pt(&cat, 9, 9);
        let extent = Collection::Extent(vec![
            crate::ops::deref(&cat, a).unwrap(),
            crate::ops::deref(&cat, b).unwrap(),
            crate::ops::deref(&cat, c).unwrap(),
        ]);
        let out = dup_elim(&cat, &extent, ExecutionConfig::default()).unwrap();
        assert_eq!(out.len(), 2, "deep-equal objects collapse");
    }

    #[test]
    fn union_set_semantics() {
        let cat = catalog();
        let (a, b, c) = (pt(&cat, 1, 0), pt(&cat, 2, 0), pt(&cat, 3, 0));
        let s = Collection::set_from(vec![a, b]);
        let l = Collection::List(vec![b, c]);
        let out = union(&s, &l, ExecutionConfig::default()).unwrap();
        assert_eq!(out, Collection::set_from(vec![a, b, c]));
    }

    #[test]
    fn union_of_lists_concatenates() {
        let cat = catalog();
        let (a, b) = (pt(&cat, 1, 0), pt(&cat, 2, 0));
        let l1 = Collection::List(vec![a, b]);
        let l2 = Collection::List(vec![b, a]);
        let out = union(&l1, &l2, ExecutionConfig::default()).unwrap();
        assert_eq!(
            out,
            Collection::List(vec![a, b, b, a]),
            "array concatenation"
        );
    }

    #[test]
    fn intersection_and_difference() {
        let cat = catalog();
        let (a, b, c) = (pt(&cat, 1, 0), pt(&cat, 2, 0), pt(&cat, 3, 0));
        let s1 = Collection::set_from(vec![a, b]);
        let s2 = Collection::set_from(vec![b, c]);
        assert_eq!(
            intersection(&s1, &s2, ExecutionConfig::default()).unwrap(),
            Collection::set_from(vec![b])
        );
        assert_eq!(
            difference(&s1, &s2, ExecutionConfig::default()).unwrap(),
            Collection::set_from(vec![a])
        );
        assert_eq!(
            difference(&s2, &s1, ExecutionConfig::default()).unwrap(),
            Collection::set_from(vec![c])
        );
    }

    #[test]
    fn list_list_ops_stay_lists() {
        let cat = catalog();
        let (a, b, c) = (pt(&cat, 1, 0), pt(&cat, 2, 0), pt(&cat, 3, 0));
        let l1 = Collection::List(vec![c, a, b]);
        let l2 = Collection::List(vec![b, c]);
        assert_eq!(
            intersection(&l1, &l2, ExecutionConfig::default()).unwrap(),
            Collection::List(vec![c, b])
        );
        assert_eq!(
            difference(&l1, &l2, ExecutionConfig::default()).unwrap(),
            Collection::List(vec![a])
        );
    }

    #[test]
    fn extent_operands_rejected() {
        let cat = catalog();
        let _ = cat;
        let e = Collection::Extent(vec![]);
        let s = Collection::Set(vec![]);
        assert!(union(&e, &s, ExecutionConfig::default()).is_err());
        assert!(intersection(&s, &e, ExecutionConfig::default()).is_err());
        assert!(difference(&e, &e, ExecutionConfig::default()).is_err());
    }
}
