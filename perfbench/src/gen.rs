//! The seeded OCB-style generator: the object graph, the statement stream
//! drawn from a workload's mix, and the shadow model every answer is
//! checked against.
//!
//! `Part(id, kind, x, pad, next → Part, owner → Module)` and
//! `Module(id, grp, pad)`. Part ids are assigned to heap positions by a
//! random permutation and `next`/`owner` point at random objects, so the
//! heap order is scrambled relative to both id order and traversal order.

use mood_core::{Answer, Value};

/// SplitMix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Database and statement sizes. All scale together (see `Sizes::full`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    pub parts: usize,
    pub modules: usize,
    /// Distinct `Module.grp` values (the traversal predicate's domain).
    pub groups: usize,
    /// Distinct `Part.kind` values (the scan's GROUP BY domain).
    pub kinds: usize,
    /// Width of the traversal's id range.
    pub range: usize,
    /// `Part.x` is drawn from `0..x_domain`.
    pub x_domain: i32,
}

impl Sizes {
    pub const fn full() -> Sizes {
        Sizes {
            parts: 5_000,
            modules: 313,
            groups: 8,
            kinds: 8,
            range: 64,
            x_domain: 10_000,
        }
    }

    /// A few pages of data.
    #[cfg(test)]
    pub const fn tiny() -> Sizes {
        Sizes {
            parts: 400,
            modules: 25,
            groups: 4,
            kinds: 4,
            range: 16,
            x_domain: 1_000,
        }
    }
}

pub const PART_PAD: usize = 120;
pub const MODULE_PAD: usize = 60;

pub const SCHEMA: [&str; 2] = [
    "CREATE CLASS Module TUPLE (id Integer, grp Integer, pad String(80))",
    "CREATE CLASS Part TUPLE (id Integer, kind Integer, x Integer, pad String(160), \
     next REFERENCE (Part), owner REFERENCE (Module))",
];

/// Shadow of one Part. `next`/`owner` are ids; inserted Parts have none.
#[derive(Clone, Debug, PartialEq)]
pub struct PartRow {
    pub id: i32,
    pub kind: i32,
    pub x: i32,
    pub next: Option<usize>,
    pub owner: Option<usize>,
}

/// The shadow model: every object's `x`, `next`, `owner` and `grp`.
#[derive(Clone, Debug, PartialEq)]
pub struct Model {
    pub sizes: Sizes,
    /// Indexed by Part id.
    pub parts: Vec<PartRow>,
    /// `grp` of each Module, indexed by Module id.
    pub grp: Vec<i32>,
    /// Part ids in heap (insertion) order.
    pub heap_order: Vec<usize>,
}

/// A padding string that differs per object, so pages do not compress to
/// one repeated record.
pub fn pad(tag: char, n: usize, len: usize) -> String {
    let mut s = format!("{tag}{n}-");
    while s.len() < len {
        s.push((b'a' + (s.len() + n) as u8 % 26) as char);
    }
    s.truncate(len);
    s
}

impl Model {
    pub fn generate(sizes: Sizes, seed: u64) -> Model {
        let mut rng = Rng::new(seed ^ 0x6F63_625F_6461_7461);
        let grp = (0..sizes.modules)
            .map(|_| rng.below(sizes.groups) as i32)
            .collect();
        let parts = (0..sizes.parts)
            .map(|id| PartRow {
                id: id as i32,
                kind: rng.below(sizes.kinds) as i32,
                x: rng.below(sizes.x_domain as usize) as i32,
                next: Some(rng.below(sizes.parts)),
                owner: Some(rng.below(sizes.modules)),
            })
            .collect();
        let mut heap_order: Vec<usize> = (0..sizes.parts).collect();
        shuffle(&mut heap_order, &mut rng);
        Model {
            sizes,
            parts,
            grp,
            heap_order,
        }
    }

    /// Bytes of user data: 4 per Integer, the string's length for a
    /// String, 8 per set reference (an OID).
    pub fn payload_bytes(&self) -> u64 {
        let modules = self.grp.len() as u64 * (8 + MODULE_PAD as u64);
        let parts: u64 = self
            .parts
            .iter()
            .map(|p| {
                12 + PART_PAD as u64 + 8 * (p.next.is_some() as u64 + p.owner.is_some() as u64)
            })
            .sum();
        modules + parts
    }

    fn group_of_next_owner(&self, p: &PartRow) -> Option<i32> {
        let next = &self.parts[p.next?];
        Some(self.grp[next.owner?])
    }

    /// The answer `stmt` must give against the current model.
    pub fn expected(&self, stmt: &Stmt) -> Expected {
        match stmt {
            Stmt::Lookup { id } => {
                let p = &self.parts[*id as usize];
                let grp = p.owner.map_or(Value::Null, |o| Value::Integer(self.grp[o]));
                Expected::Row(vec![Value::Integer(p.id), Value::Integer(p.x), grp])
            }
            Stmt::Traverse { lo, grp } => Expected::Ids(
                (*lo..lo + self.sizes.range as i32)
                    .filter(|&i| self.group_of_next_owner(&self.parts[i as usize]) == Some(*grp))
                    .collect(),
            ),
            Stmt::Scan { x } => {
                let mut counts = vec![0i64; self.sizes.kinds];
                for p in self.parts.iter().filter(|p| p.x > *x) {
                    counts[p.kind as usize] += 1;
                }
                Expected::Counts(counts)
            }
            Stmt::Update { .. } => Expected::OneAffected,
            Stmt::Insert { .. } => Expected::Created,
        }
    }

    /// Apply a statement that succeeded to the model.
    pub fn apply(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Update { id } => self.parts[*id as usize].x += 1,
            Stmt::Insert { id, kind, x } => {
                debug_assert_eq!(*id as usize, self.parts.len(), "ids are dense");
                self.parts.push(PartRow {
                    id: *id,
                    kind: *kind,
                    x: *x,
                    next: None,
                    owner: None,
                });
            }
            Stmt::Lookup { .. } | Stmt::Traverse { .. } | Stmt::Scan { .. } => {}
        }
    }
}

/// A statement's correct answer.
#[derive(Clone, Debug, PartialEq)]
pub enum Expected {
    /// The exact row.
    Row(Vec<Value>),
    /// The exact id set, ascending.
    Ids(Vec<i32>),
    /// The exact count per `kind`; kinds with no row count 0.
    Counts(Vec<i64>),
    /// Exactly one object updated.
    OneAffected,
    /// Exactly one object created.
    Created,
}

impl Expected {
    pub fn matches(&self, answer: &Answer) -> bool {
        match (self, answer) {
            (Expected::Row(want), Answer::Rows(r)) => r.rows.len() == 1 && &r.rows[0] == want,
            (Expected::Ids(want), Answer::Rows(r)) => {
                let mut got: Vec<i32> = Vec::with_capacity(r.rows.len());
                for row in &r.rows {
                    match row.as_slice() {
                        [Value::Integer(i)] => got.push(*i),
                        _ => return false,
                    }
                }
                got.sort_unstable();
                &got == want
            }
            (Expected::Counts(want), Answer::Rows(r)) => {
                let mut got = vec![0i64; want.len()];
                for row in &r.rows {
                    let [kind, count] = row.as_slice() else {
                        return false;
                    };
                    let (Some(kind), Some(count)) = (int(kind), int(count)) else {
                        return false;
                    };
                    match usize::try_from(kind).ok().and_then(|k| got.get_mut(k)) {
                        Some(slot) if *slot == 0 && count > 0 => *slot = count,
                        _ => return false,
                    }
                }
                &got == want
            }
            (Expected::OneAffected, Answer::Done { affected }) => *affected == 1,
            (Expected::Created, Answer::Created(Value::Ref(_))) => true,
            _ => false,
        }
    }
}

fn int(v: &Value) -> Option<i64> {
    match v {
        Value::Integer(i) => Some(*i as i64),
        Value::LongInteger(i) => Some(*i),
        _ => None,
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// The five statement classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Lookup,
    Traverse,
    Scan,
    Update,
    Insert,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::Lookup,
        Class::Traverse,
        Class::Scan,
        Class::Update,
        Class::Insert,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Lookup => "lookup",
            Class::Traverse => "traverse",
            Class::Scan => "scan",
            Class::Update => "update",
            Class::Insert => "insert",
        }
    }

    /// The tail percentile reported with the median: p99 needs ~1,000
    /// samples to leave ten beyond it, which only lookups reach.
    pub fn tail(self) -> u32 {
        match self {
            Class::Lookup => 99,
            _ => 90,
        }
    }

    pub fn writes(self) -> bool {
        matches!(self, Class::Update | Class::Insert)
    }
}

/// One generated statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stmt {
    Lookup { id: i32 },
    Traverse { lo: i32, grp: i32 },
    Scan { x: i32 },
    Update { id: i32 },
    Insert { id: i32, kind: i32, x: i32 },
}

impl Stmt {
    pub fn class(&self) -> Class {
        match self {
            Stmt::Lookup { .. } => Class::Lookup,
            Stmt::Traverse { .. } => Class::Traverse,
            Stmt::Scan { .. } => Class::Scan,
            Stmt::Update { .. } => Class::Update,
            Stmt::Insert { .. } => Class::Insert,
        }
    }

    pub fn sql(&self, sizes: &Sizes) -> String {
        match self {
            Stmt::Lookup { id } => {
                format!("SELECT p.id, p.x, p.owner.grp FROM EVERY Part p WHERE p.id = {id}")
            }
            Stmt::Traverse { lo, grp } => format!(
                "SELECT p.id FROM EVERY Part p WHERE p.id >= {lo} AND p.id < {} \
                 AND p.next.owner.grp = {grp}",
                lo + sizes.range as i32
            ),
            Stmt::Scan { x } => {
                format!("SELECT p.kind, COUNT(*) FROM EVERY Part p WHERE p.x > {x} GROUP BY p.kind")
            }
            Stmt::Update { id } => format!("UPDATE Part p SET x = p.x + 1 WHERE p.id = {id}"),
            Stmt::Insert { id, kind, x } => format!(
                "new Part <{id}, {kind}, {x}, '{}', NULL, NULL>",
                pad('n', *id as usize, PART_PAD)
            ),
        }
    }
}

/// How keys are drawn.
#[derive(Clone, Copy, Debug)]
pub enum Keys {
    Uniform,
    /// Zipf with exponent `s` over the original Part ids.
    Zipf(f64),
}

/// A statement mix: the share of each class, in `Class::ALL` order.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub shares: [u32; 5],
    pub keys: Keys,
}

/// The seeded statement stream of one workload. It reads nothing back
/// from the engine: the same seed gives the same statements.
pub struct Stream {
    rng: Rng,
    sizes: Sizes,
    mix: Mix,
    /// Zipf CDF over ranks, and the id each rank maps to.
    zipf: Option<(Vec<f64>, Vec<i32>)>,
    /// Classes still to deal from the current deck.
    deck: Vec<Class>,
    next_insert: i32,
}

impl Stream {
    pub fn new(sizes: Sizes, mix: Mix, seed: u64) -> Stream {
        let mut rng = Rng::new(seed ^ 0x7374_6D74_5F73_6571);
        let zipf = match mix.keys {
            Keys::Uniform => None,
            Keys::Zipf(s) => {
                let mut cdf: Vec<f64> = Vec::with_capacity(sizes.parts);
                let mut total = 0.0;
                for rank in 1..=sizes.parts {
                    total += 1.0 / (rank as f64).powf(s);
                    cdf.push(total);
                }
                cdf.iter_mut().for_each(|c| *c /= total);
                // Hot ranks land on scattered ids (and so heap pages).
                let mut ids: Vec<usize> = (0..sizes.parts).collect();
                shuffle(&mut ids, &mut rng);
                Some((cdf, ids.into_iter().map(|i| i as i32).collect()))
            }
        };
        Stream {
            rng,
            sizes,
            mix,
            zipf,
            deck: Vec::new(),
            next_insert: sizes.parts as i32,
        }
    }

    pub fn mix(&self) -> Mix {
        self.mix
    }

    fn key(&mut self) -> i32 {
        match &self.zipf {
            None => self.rng.below(self.sizes.parts) as i32,
            Some((cdf, ids)) => {
                let u = self.rng.unit();
                let rank = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
                ids[rank]
            }
        }
    }

    /// The next class, dealt from a shuffled deck holding each class as
    /// many times as its share: every deck has the mix's exact shares,
    /// so a run's heavy statements do not vary in number by chance.
    fn next_class(&mut self) -> Class {
        if self.deck.is_empty() {
            for (c, share) in Class::ALL.iter().zip(self.mix.shares) {
                self.deck.extend(std::iter::repeat_n(*c, share as usize));
            }
            shuffle(&mut self.deck, &mut self.rng);
        }
        self.deck.pop().expect("a mix has a positive share")
    }

    pub fn next_stmt(&mut self) -> Stmt {
        let class = self.next_class();
        match class {
            Class::Lookup => Stmt::Lookup { id: self.key() },
            Class::Traverse => Stmt::Traverse {
                lo: self.rng.below(self.sizes.parts - self.sizes.range + 1) as i32,
                grp: self.rng.below(self.sizes.groups) as i32,
            },
            Class::Scan => Stmt::Scan {
                x: self.rng.below(self.sizes.x_domain as usize) as i32,
            },
            Class::Update => Stmt::Update { id: self.key() },
            Class::Insert => {
                let id = self.next_insert;
                self.next_insert += 1;
                Stmt::Insert {
                    id,
                    kind: self.rng.below(self.sizes.kinds) as i32,
                    x: self.rng.below(self.sizes.x_domain as usize) as i32,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> Mix {
        Mix {
            shares: [5, 3, 2, 4, 6],
            keys: Keys::Zipf(0.99),
        }
    }

    /// The statements and expected answers of `n` steps, applying each.
    fn trace(seed: u64, n: usize) -> Vec<(Stmt, Expected)> {
        let sizes = Sizes::tiny();
        let mut model = Model::generate(sizes, seed);
        let mut stream = Stream::new(sizes, mix(), seed);
        (0..n)
            .map(|_| {
                let stmt = stream.next_stmt();
                let want = model.expected(&stmt);
                model.apply(&stmt);
                (stmt, want)
            })
            .collect()
    }

    #[test]
    fn same_seed_same_statements_and_answers() {
        assert_eq!(
            Model::generate(Sizes::tiny(), 3),
            Model::generate(Sizes::tiny(), 3)
        );
        assert_eq!(trace(3, 2_000), trace(3, 2_000));
        assert_ne!(trace(3, 2_000), trace(4, 2_000));
    }

    #[test]
    fn every_deck_has_the_exact_shares() {
        let mut stream = Stream::new(Sizes::tiny(), mix(), 1);
        let deck: u32 = mix().shares.iter().sum();
        for _ in 0..10 {
            let mut seen = [0u32; 5];
            for _ in 0..deck {
                seen[stream.next_stmt().class() as usize] += 1;
            }
            assert_eq!(seen, mix().shares);
        }
    }

    #[test]
    fn answers_are_checked_exactly() {
        let sizes = Sizes::tiny();
        let model = Model::generate(sizes, 5);
        let scan = Stmt::Scan { x: 10 };
        let Expected::Counts(counts) = model.expected(&scan) else {
            panic!("scan expects counts")
        };
        let rows = |counts: &[i64]| {
            Answer::Rows(mood_core::QueryResult {
                columns: vec!["kind".into(), "count".into()],
                rows: counts
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| **c > 0)
                    .map(|(k, c)| vec![Value::Integer(k as i32), Value::LongInteger(*c)])
                    .collect(),
            })
        };
        assert!(model.expected(&scan).matches(&rows(&counts)));
        let mut off = counts.clone();
        off[0] += 1;
        assert!(!model.expected(&scan).matches(&rows(&off)));
        let update = Stmt::Update { id: 1 };
        assert!(model
            .expected(&update)
            .matches(&Answer::Done { affected: 1 }));
        assert!(!model
            .expected(&update)
            .matches(&Answer::Done { affected: 2 }));
    }
}
