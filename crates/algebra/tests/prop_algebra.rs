//! Property tests for the algebra's laws: set operators form a Boolean
//! algebra over OID sets, Sort orders without losing elements, DupElim is
//! idempotent, Nest inverts Unnest, the four join methods agree on
//! randomized databases, and no operator's result depends on its
//! `ExecutionConfig`.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;

use mood_algebra::{
    deref, difference, dup_elim, intersection, join, nest, project, select, sort, union, unnest,
    Collection, ExecutionConfig, JoinMethod, JoinRhs, Obj, Predicate,
};
use mood_catalog::{Catalog, ClassBuilder, IndexKind};
use mood_datamodel::{TypeDescriptor, Value};
use mood_funcman::expr::BinOp;
use mood_funcman::{compile_program, CompileOpts, CompiledPredicate, Expr};
use mood_storage::{Oid, StorageManager};

const PAR_LEVELS: [usize; 4] = [1, 2, 4, 8];
const BATCH_SIZES: [usize; 3] = [1, 7, 1024];

/// Sequential and row at a time: the reference every other setting of the
/// grid must reproduce exactly (including element order).
fn reference() -> ExecutionConfig {
    ExecutionConfig::default().with_batch_size(1)
}

/// Every parallelism × batch size setting.
fn grid() -> impl Iterator<Item = ExecutionConfig> {
    PAR_LEVELS.into_iter().flat_map(|p| {
        BATCH_SIZES
            .into_iter()
            .map(move |b| ExecutionConfig::with_parallelism(p).with_batch_size(b))
    })
}

/// The objects behind `idx`, as an extent (duplicates allowed).
fn extent_of(cat: &Catalog, oids: &[Oid], idx: &[usize]) -> Collection {
    Collection::Extent(
        idx.iter()
            .map(|&i| {
                let (_, v) = cat.get_object(oids[i]).unwrap();
                Obj::stored(oids[i], v)
            })
            .collect(),
    )
}

/// `D(id)` objects and `C(id, d: Ref D, ds: Set<Ref D>)` objects: `C` number
/// `i` references `D` number `refs[i] % n_d`, and the set holds that target
/// and the next `fan - 1` ones. Both reference attributes carry a binary
/// join index.
fn ref_db(n_d: usize, refs: &[usize], fan: usize) -> (Arc<Catalog>, Vec<Oid>, Vec<Oid>) {
    let sm = Arc::new(StorageManager::in_memory());
    let cat = Arc::new(Catalog::create(sm).unwrap());
    cat.define_class(ClassBuilder::class("D").attribute("id", TypeDescriptor::integer()))
        .unwrap();
    cat.define_class(
        ClassBuilder::class("C")
            .attribute("id", TypeDescriptor::integer())
            .attribute("d", TypeDescriptor::reference("D"))
            .attribute("ds", TypeDescriptor::set_of(TypeDescriptor::reference("D"))),
    )
    .unwrap();
    cat.create_index("C", "d", IndexKind::BTree, false).unwrap();
    cat.create_index("C", "ds", IndexKind::BTree, false)
        .unwrap();
    let d_oids: Vec<Oid> = (0..n_d)
        .map(|i| {
            cat.new_object("D", Value::tuple(vec![("id", Value::Integer(i as i32))]))
                .unwrap()
        })
        .collect();
    let c_oids = refs
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            let ds = (0..fan.min(n_d))
                .map(|k| Value::Ref(d_oids[(r + k) % n_d]))
                .collect();
            cat.new_object(
                "C",
                Value::tuple(vec![
                    ("id", Value::Integer(i as i32)),
                    ("d", Value::Ref(d_oids[r % n_d])),
                    ("ds", Value::Set(ds)),
                ]),
            )
            .unwrap()
        })
        .collect();
    (cat, c_oids, d_oids)
}

fn catalog_with_items(n: usize) -> (Arc<Catalog>, Vec<Oid>) {
    let sm = Arc::new(StorageManager::in_memory());
    let cat = Arc::new(Catalog::create(sm).unwrap());
    cat.define_class(
        ClassBuilder::class("Item")
            .attribute("k", TypeDescriptor::integer())
            .attribute("grp", TypeDescriptor::integer()),
    )
    .unwrap();
    let oids = (0..n)
        .map(|i| {
            cat.new_object(
                "Item",
                Value::tuple(vec![
                    ("k", Value::Integer(i as i32)),
                    ("grp", Value::Integer((i % 3) as i32)),
                ]),
            )
            .unwrap()
        })
        .collect();
    (cat, oids)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn set_operators_match_hashset_semantics(
        xs in proptest::collection::vec(0usize..20, 0..15),
        ys in proptest::collection::vec(0usize..20, 0..15),
    ) {
        let (_cat, oids) = catalog_with_items(20);
        let a = Collection::set_from(xs.iter().map(|&i| oids[i]).collect());
        let b = Collection::set_from(ys.iter().map(|&i| oids[i]).collect());
        let sa: HashSet<Oid> = a.oids().into_iter().collect();
        let sb: HashSet<Oid> = b.oids().into_iter().collect();

        let exec = reference();
        let u: HashSet<Oid> = union(&a, &b, exec).unwrap().oids().into_iter().collect();
        prop_assert_eq!(&u, &sa.union(&sb).copied().collect::<HashSet<_>>());

        let i: HashSet<Oid> = intersection(&a, &b, exec).unwrap().oids().into_iter().collect();
        prop_assert_eq!(&i, &sa.intersection(&sb).copied().collect::<HashSet<_>>());

        let d: HashSet<Oid> = difference(&a, &b, exec).unwrap().oids().into_iter().collect();
        prop_assert_eq!(&d, &sa.difference(&sb).copied().collect::<HashSet<_>>());

        // De Morgan-ish sanity: |A∪B| = |A| + |B| − |A∩B|.
        prop_assert_eq!(u.len(), sa.len() + sb.len() - i.len());
    }

    #[test]
    fn sort_is_a_permutation_in_key_order(perm in proptest::collection::vec(0usize..30, 1..30)) {
        let (cat, oids) = catalog_with_items(30);
        let extent = extent_of(&cat, &oids, &perm);
        let sorted = sort(&cat, &extent, &["k"], reference()).unwrap();
        let Collection::Extent(objs) = &sorted else { panic!() };
        prop_assert_eq!(objs.len(), perm.len(), "no elements lost");
        let keys: Vec<i32> = objs
            .iter()
            .map(|o| match o.value.field("k") {
                Some(Value::Integer(i)) => *i,
                _ => unreachable!(),
            })
            .collect();
        let mut want: Vec<i32> = perm.iter().map(|&i| i as i32).collect();
        want.sort();
        prop_assert_eq!(keys, want);
    }

    #[test]
    fn dup_elim_is_idempotent_on_lists(items in proptest::collection::vec(0usize..10, 0..25)) {
        let (cat, oids) = catalog_with_items(10);
        let list = Collection::List(items.iter().map(|&i| oids[i]).collect());
        let once = dup_elim(&cat, &list, reference()).unwrap();
        let twice = dup_elim(&cat, &once, reference()).unwrap();
        prop_assert_eq!(&once, &twice);
        // Distinct count matches the model.
        let distinct: HashSet<usize> = items.into_iter().collect();
        prop_assert_eq!(once.len(), distinct.len());
    }

    #[test]
    fn unnest_then_nest_roundtrips(groups in proptest::collection::vec(
        (0i32..100, proptest::collection::hash_set(0u8..200, 1..6)),
        1..6,
    )) {
        // Build tuples <head, tail: Set> with unique heads and non-empty,
        // disjoint-ish tails.
        let (cat, _) = catalog_with_items(1);
        let mut heads = HashSet::new();
        let flat_input: Vec<Obj> = groups
            .iter()
            .filter(|(h, _)| heads.insert(*h))
            .map(|(h, tail)| {
                Obj::transient(Value::tuple(vec![
                    ("head", Value::Integer(*h)),
                    (
                        "tail",
                        Value::Set(tail.iter().map(|&t| Value::Integer(t as i32)).collect()),
                    ),
                ]))
            })
            .collect();
        let n_groups = flat_input.len();
        let total: usize = flat_input
            .iter()
            .map(|o| match o.value.field("tail") {
                Some(Value::Set(s)) => s.len(),
                _ => 0,
            })
            .sum();
        let nested_in = Collection::Extent(flat_input);
        let flat = unnest(&cat, &nested_in, "tail").unwrap();
        prop_assert_eq!(flat.len(), total, "one row per tail element");
        let back = nest(&cat, &flat, "tail").unwrap();
        prop_assert_eq!(back.len(), n_groups, "nest regroups by head");
        // Each regrouped tail matches the original as a set.
        let Collection::Extent(back_objs) = &back else { panic!() };
        let Collection::Extent(orig_objs) = &nested_in else { panic!() };
        for orig in orig_objs {
            let head = orig.value.field("head").unwrap();
            let orig_tail = orig.value.field("tail").unwrap();
            let found = back_objs
                .iter()
                .find(|o| o.value.field("head").unwrap().equals(head))
                .expect("head survives");
            prop_assert!(found.value.field("tail").unwrap().equals(orig_tail));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn join_methods_agree_on_random_databases(
        n_d in 1usize..12,
        refs in proptest::collection::vec(0usize..12, 1..40),
    ) {
        let (cat, _, _) = ref_db(n_d, &refs, 1);
        let left = mood_algebra::bind_class(&cat, "C", false, &[]).unwrap();
        let mut outcomes: Vec<Vec<(Oid, Oid)>> = Vec::new();
        for method in JoinMethod::ALL {
            let mut pairs: Vec<(Oid, Oid)> =
                join(&cat, &left, "d", JoinRhs::Class("D"), method, reference())
                    .unwrap()
                    .into_iter()
                    .map(|(l, r)| (l.oid.unwrap(), r.oid.unwrap()))
                    .collect();
            pairs.sort();
            outcomes.push(pairs);
        }
        for w in outcomes.windows(2) {
            prop_assert_eq!(&w[0], &w[1], "join methods disagree");
        }
        prop_assert_eq!(outcomes[0].len(), refs.len(), "every C joins exactly once");
    }
}

// ----------------------------------------------------------------------
// Configuration independence: at every parallelism in {1, 2, 4, 8} and
// batch size in {1, 7, 1024}, each operator must return exactly (including
// element order) its sequential, row-at-a-time result.
// ----------------------------------------------------------------------

/// `self.k % modulus = 0`, compiled for the register machine.
fn compiled_k_divisible_by(modulus: i32) -> CompiledPredicate {
    let rem = Expr::Binary(
        BinOp::Rem,
        Box::new(Expr::Path(vec!["self".into(), "k".into()])),
        Box::new(Expr::int(modulus.into())),
    );
    let expr = Expr::Binary(BinOp::Eq, Box::new(rem), Box::new(Expr::int(0)));
    CompiledPredicate::new(compile_program(&expr, &CompileOpts::sql("i")).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn select_par_equals_select(
        perm in proptest::collection::vec(0usize..30, 0..40),
        modulus in 2i32..5,
    ) {
        let (cat, oids) = catalog_with_items(30);
        let extent = extent_of(&cat, &oids, &perm);
        let list = Collection::List(perm.iter().map(|&i| oids[i]).collect());
        let set = Collection::set_from(perm.iter().map(|&i| oids[i]).collect());
        let closure = |o: &Obj| -> mood_algebra::Result<bool> {
            Ok(matches!(o.value.field("k"), Some(Value::Integer(k)) if k % modulus == 0))
        };
        let program = compiled_k_divisible_by(modulus);
        for arg in [&extent, &list, &set] {
            let want = select(&cat, arg, Predicate::Closure(&closure), reference()).unwrap();
            for exec in grid() {
                for p in [Predicate::Closure(&closure), Predicate::Compiled(&program)] {
                    let got = select(&cat, arg, p, exec).unwrap();
                    prop_assert_eq!(&got, &want, "select {:?}", exec);
                }
            }
        }
    }

    #[test]
    fn compiled_path_predicate_equals_closure(
        n_d in 1usize..10,
        refs in proptest::collection::vec(0usize..10, 0..30),
        bound in 0i32..10,
    ) {
        // `self.d.id < bound`: the program dereferences `d` through the
        // per-batch deref cache, the closure through the catalog.
        let (cat, c_oids, _) = ref_db(n_d, &refs, 1);
        let path = Expr::Path(vec!["self".into(), "d".into(), "id".into()]);
        let expr = Expr::Binary(BinOp::Lt, Box::new(path), Box::new(Expr::int(bound.into())));
        let program =
            CompiledPredicate::new(compile_program(&expr, &CompileOpts::sql("c")).unwrap());
        let closure = |o: &Obj| -> mood_algebra::Result<bool> {
            let Some(Value::Ref(d)) = o.value.field("d") else { return Ok(false) };
            let target = deref(&cat, *d)?;
            Ok(matches!(target.value.field("id"), Some(Value::Integer(id)) if *id < bound))
        };
        let all: Vec<usize> = (0..c_oids.len()).collect();
        let extent = extent_of(&cat, &c_oids, &all);
        let list = Collection::List(c_oids.iter().rev().copied().collect());
        for arg in [&extent, &list] {
            let want = select(&cat, arg, Predicate::Closure(&closure), reference()).unwrap();
            for exec in grid() {
                let got = select(&cat, arg, Predicate::Compiled(&program), exec).unwrap();
                prop_assert_eq!(&got, &want, "compiled path select {:?}", exec);
            }
        }
    }

    #[test]
    fn project_par_equals_project(perm in proptest::collection::vec(0usize..30, 0..40)) {
        let (cat, oids) = catalog_with_items(30);
        let extent = extent_of(&cat, &oids, &perm);
        let list = Collection::List(perm.iter().map(|&i| oids[i]).collect());
        for arg in [&extent, &list] {
            let want = project(&cat, arg, &["grp"], reference()).unwrap();
            for exec in grid() {
                let got = project(&cat, arg, &["grp"], exec).unwrap();
                prop_assert_eq!(&got, &want, "project {:?}", exec);
            }
        }
    }

    #[test]
    fn sort_par_equals_sort(perm in proptest::collection::vec(0usize..30, 0..60)) {
        let (cat, oids) = catalog_with_items(30);
        // Duplicates in `perm` exercise the stability tiebreak: `grp` has
        // only three distinct values, so equal-key runs are long.
        let extent = extent_of(&cat, &oids, &perm);
        let list = Collection::List(perm.iter().map(|&i| oids[i]).collect());
        for arg in [&extent, &list] {
            for keys in [&["k"][..], &["grp"][..], &["grp", "k"][..]] {
                let want = sort(&cat, arg, keys, reference()).unwrap();
                // A budget of 2 spills every input of three or more rows to
                // disk in two-row runs.
                let spilled = PAR_LEVELS
                    .map(|p| ExecutionConfig::with_parallelism(p).with_sort_budget(2));
                for exec in grid().chain(spilled) {
                    let got = sort(&cat, arg, keys, exec).unwrap();
                    prop_assert_eq!(&got, &want, "sort {:?} {:?}", keys, exec);
                }
            }
        }
    }

    #[test]
    fn dup_elim_par_equals_dup_elim(items in proptest::collection::vec(0usize..10, 0..40)) {
        let (cat, oids) = catalog_with_items(10);
        let list = Collection::List(items.iter().map(|&i| oids[i]).collect());
        let extent = extent_of(&cat, &oids, &items);
        for arg in [&list, &extent] {
            let want = dup_elim(&cat, arg, reference()).unwrap();
            for exec in grid() {
                let got = dup_elim(&cat, arg, exec).unwrap();
                prop_assert_eq!(&got, &want, "dup_elim {:?}", exec);
            }
        }
    }

    #[test]
    fn set_ops_par_equal_sequential(
        xs in proptest::collection::vec(0usize..20, 0..25),
        ys in proptest::collection::vec(0usize..20, 0..25),
    ) {
        let (_cat, oids) = catalog_with_items(20);
        let a = Collection::set_from(xs.iter().map(|&i| oids[i]).collect());
        let b = Collection::set_from(ys.iter().map(|&i| oids[i]).collect());
        let la = Collection::List(xs.iter().map(|&i| oids[i]).collect());
        let lb = Collection::List(ys.iter().map(|&i| oids[i]).collect());
        for (x, y) in [(&a, &b), (&la, &lb), (&a, &lb)] {
            for op in [union, intersection, difference] {
                let want = op(x, y, reference()).unwrap();
                for exec in grid() {
                    prop_assert_eq!(&op(x, y, exec).unwrap(), &want, "set op {:?}", exec);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn join_par_equals_join_for_every_method(
        n_d in 1usize..10,
        refs in proptest::collection::vec(0usize..10, 1..30),
    ) {
        let (cat, _, d_oids) = ref_db(n_d, &refs, 1);
        let left = mood_algebra::bind_class(&cat, "C", false, &[]).unwrap();
        let d_set = Collection::set_from(d_oids.clone());
        // A list right side, in reverse and with a repeat.
        let mut rev: Vec<Oid> = d_oids.iter().rev().copied().collect();
        rev.push(d_oids[0]);
        let d_list = Collection::List(rev);
        let d_extent = mood_algebra::bind_class(&cat, "D", false, &[]).unwrap();
        for method in JoinMethod::ALL {
            for rhs in [
                JoinRhs::Class("D"),
                JoinRhs::Collection(&d_set),
                JoinRhs::Collection(&d_list),
                JoinRhs::Collection(&d_extent),
            ] {
                let want = join(&cat, &left, "d", rhs, method, reference()).unwrap();
                for exec in grid() {
                    let got = join(&cat, &left, "d", rhs, method, exec).unwrap();
                    prop_assert_eq!(&got, &want, "join {:?} {:?} {:?}", method, rhs, exec);
                }
            }
        }
    }

    #[test]
    fn set_valued_join_equals_across_grid(
        n_d in 1usize..10,
        refs in proptest::collection::vec(0usize..10, 1..30),
        fan in 1usize..4,
    ) {
        // `ds` is a Set of references: forward and backward traversal chase
        // every element, the binary join index holds one entry per element.
        let (cat, c_oids, d_oids) = ref_db(n_d, &refs, fan);
        let left = mood_algebra::bind_class(&cat, "C", false, &[]).unwrap();
        let d_set = Collection::set_from(d_oids[..n_d.div_ceil(2)].to_vec());
        let mut per_method: Vec<Vec<(Oid, Oid)>> = Vec::new();
        for method in [
            JoinMethod::ForwardTraversal,
            JoinMethod::BackwardTraversal,
            JoinMethod::BinaryJoinIndex,
        ] {
            for rhs in [JoinRhs::Class("D"), JoinRhs::Collection(&d_set)] {
                let want = join(&cat, &left, "ds", rhs, method, reference()).unwrap();
                for exec in grid() {
                    let got = join(&cat, &left, "ds", rhs, method, exec).unwrap();
                    prop_assert_eq!(&got, &want, "join {:?} {:?} {:?}", method, rhs, exec);
                }
            }
            let mut pairs: Vec<(Oid, Oid)> =
                join(&cat, &left, "ds", JoinRhs::Class("D"), method, reference())
                    .unwrap()
                    .into_iter()
                    .map(|(l, r)| (l.oid.unwrap(), r.oid.unwrap()))
                    .collect();
            pairs.sort();
            per_method.push(pairs);
        }
        for w in per_method.windows(2) {
            prop_assert_eq!(&w[0], &w[1], "join methods disagree on a set-valued attribute");
        }
        prop_assert_eq!(per_method[0].len(), c_oids.len() * fan.min(n_d));
    }
}
