//! # mood-algebra — the MOOD object algebra
//!
//! Section 3.2 of the paper: general operators (`ObjId`, `TypeId`, `Deref`,
//! `isA`, `Bind`), collection operators (`Select`, `IndSel`, `Project`,
//! `Join` with four methods, `Partition`, `Sort`, `DupElim`, `Union`,
//! `Intersection`, `Difference`) and conversion operators (`asSet`,
//! `asList`, `asExtent`, `Unnest`, `Nest`, `Flatten`) — with the
//! return-type rules of Tables 1–7 enforced and encoded as pure functions
//! ([`collection`]).
//!
//! Each collection operator is one function. Its [`ExecutionConfig`] sets
//! how it runs, never what it returns: `parallelism` splits the input into
//! contiguous chunks run on worker threads and concatenated in input order,
//! `batch_size` sets how many rows share a compiled predicate's deref cache
//! and a forward join probe's target cache and prefetch, and `sort_budget`
//! is the row count above which `Sort` spills its runs to disk.
//!
//! The four join methods compute identical pairs but with the §6 access
//! patterns, which the instrumented storage layer exposes for the cost
//! model benches. At `batch_size` 1 a join performs exactly the accesses
//! those formulas price, at any parallelism.

pub mod collection;
pub mod error;
pub mod join;
pub mod ops;
pub mod restructure;
pub mod setops;

pub use collection::{
    as_extent_return, as_set_list_elements, dupelim_return, join_return, select_return,
    setop_return, unnest_accepts, Collection, Kind, Obj,
};
pub use error::{AlgebraError, Result};
pub use join::{join, materialize, pairs_to_collection, JoinMethod, JoinRhs};
pub use mood_storage::exec::ExecutionConfig;
pub use ops::{
    bind, bind_class, deref, ind_sel, is_a, obj_id, select, type_id, IndexType, Predicate,
};
pub use restructure::{
    as_extent, as_list, as_set, flatten, nest, partition, project, sort, unnest, SortKey,
};
pub use setops::{difference, dup_elim, intersection, union};
