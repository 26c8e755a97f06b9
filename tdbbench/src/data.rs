//! Seeded inputs and the oracles that check replies against them.
//!
//! Everything here is derived from `--seed` alone: the interval relations
//! come from `tdb-gen`, the query constants from a splitmix64 stream. The
//! oracles read only the generated tuples, never the engine.

use tdb::prelude::{IntervalGen, Row, Temporal, TimePoint, Value};

/// Rows in the query workloads' relation `T`.
pub const T_ROWS: usize = 40_000;
/// Mean inter-arrival gap of `T` (ticks).
pub const T_GAP: f64 = 3.0;
/// Mean duration of `T` (ticks).
pub const T_DURATION: f64 = 30.0;
/// Filter replies hold at most this many rows.
pub const FILTER_MAX_ROWS: usize = 100;
/// `\set limit` for `filter` and the ingest reader: above every reply.
pub const FILTER_LIMIT: usize = 1_000;
/// `\set limit` for `join_limit` (the engine default).
pub const JOIN_LIMIT: usize = 20;
/// `\set limit` for `join_full`: above every seed's pair count.
pub const JOIN_FULL_LIMIT: usize = 1_000_000;

/// The self Contain-join every join workload runs.
pub const JOIN_QUERY: &str = "range of a is T range of b is T retrieve (P=a.Id, Q=b.Id) \
                              where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo";

/// A deterministic 64-bit stream (splitmix64).
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` tag.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Exponentially distributed with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        -(1.0 - u).ln() * mean
    }
}

/// One generated interval: its index is its `Id` suffix.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    pub ts: i64,
    pub te: i64,
}

/// A generated relation, in `ValidFrom` order, with the `Id` prefix its
/// rows carry (`S` for `tdb-gen` surrogates, `x`/`y` for arrivals).
pub struct Relation {
    pub prefix: &'static str,
    pub tuples: Vec<Interval>,
}

impl Relation {
    /// `n` Poisson intervals from `tdb-gen`, the first starting at `start`.
    pub fn poisson(
        prefix: &'static str,
        n: usize,
        (gap, dur): (f64, f64),
        seed: u64,
        start: i64,
    ) -> Relation {
        let tuples = IntervalGen::poisson(n, gap, dur, seed)
            .starting_at(start)
            .generate()
            .iter()
            .map(|t| Interval {
                ts: t.ts().0,
                te: t.te().0,
            })
            .collect();
        Relation { prefix, tuples }
    }

    /// Interval-schema rows (`Id, Seq, ValidFrom, ValidTo`) of the first
    /// `n` tuples.
    pub fn rows(&self, n: usize) -> Vec<Row> {
        self.tuples
            .iter()
            .take(n)
            .enumerate()
            .map(|(i, t)| {
                Row::new(vec![
                    Value::str(format!("{}{i}", self.prefix)),
                    Value::Int(i as i64),
                    Value::Time(TimePoint(t.ts)),
                    Value::Time(TimePoint(t.te)),
                ])
            })
            .collect()
    }

    /// Arrival lines (`<ts> <te> <id> <seq>`) for rows `lo..hi`.
    pub fn lines(&self, lo: usize, hi: usize) -> String {
        let mut out = String::new();
        for (i, t) in self.tuples.iter().enumerate().take(hi).skip(lo) {
            out.push_str(&format!("{} {} {}{i} {i}\n", t.ts, t.te, self.prefix));
        }
        out
    }

    /// The tuple an `Id` value names, if it is one of ours.
    pub fn lookup(&self, id: &Value) -> Option<(usize, Interval)> {
        let i: usize = id.as_str()?.strip_prefix(self.prefix)?.parse().ok()?;
        self.tuples.get(i).map(|t| (i, *t))
    }

    /// Exact size of the self Contain-join `a.ts < b.ts ∧ b.te < a.te`.
    /// Tuples are in `ts` order, so every partner `b` of `a` starts inside
    /// `(a.ts, a.te)`.
    pub fn contain_pairs(&self) -> u64 {
        self.contain_pairs_with(self)
    }

    /// Exact size of `self ⋈ other` under `a.ts < b.ts ∧ b.te < a.te`.
    pub fn contain_pairs_with(&self, other: &Relation) -> u64 {
        let mut n = 0u64;
        for a in &self.tuples {
            let start = other.tuples.partition_point(|b| b.ts <= a.ts);
            n += other.tuples[start..]
                .iter()
                .take_while(|b| b.ts < a.te)
                .filter(|b| b.te < a.te)
                .count() as u64;
        }
        n
    }
}

/// A selection over one relation, with the sorted indexes it must return.
pub struct Selection {
    pub text: String,
    pub expected: Vec<usize>,
}

/// The `filter` query stream: alternating `ValidFrom < c` and timeslices
/// at `t`, each answering 0–[`FILTER_MAX_ROWS`] rows of `rel` (variable
/// name `x`, relation name `name`).
pub struct Selections {
    rng: Rng,
    n: u64,
}

impl Selections {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Selections {
        Selections {
            rng: Rng::new(seed, 0xF1),
            n: 0,
        }
    }

    /// The next selection over `rel`, stored as `name`.
    pub fn next(&mut self, rel: &Relation, name: &str) -> Selection {
        let tuples = &rel.tuples;
        self.n += 1;
        if self.n % 2 == 1 {
            let k = self.rng.below(FILTER_MAX_ROWS as u64 + 1) as usize;
            let c = tuples.get(k).map_or(i64::MAX / 2, |t| t.ts);
            let expected = (0..tuples.len())
                .take_while(|&i| tuples[i].ts < c)
                .collect();
            Selection {
                text: format!("range of x is {name} retrieve (I=x.Id) where x.ValidFrom < {c}"),
                expected,
            }
        } else {
            loop {
                let span = tuples.last().map_or(1, |t| t.ts.max(1)) as u64;
                let t = self.rng.below(span) as i64;
                let end = tuples.partition_point(|x| x.ts <= t);
                let expected: Vec<usize> = (0..end).filter(|&i| tuples[i].te > t).collect();
                if expected.len() <= FILTER_MAX_ROWS {
                    return Selection {
                        text: format!(
                            "range of x is {name} retrieve (I=x.Id) \
                             where x.ValidFrom <= {t} and x.ValidTo > {t}"
                        ),
                        expected,
                    };
                }
            }
        }
    }
}

/// Does a selection reply match? `rows` are single-column `Id` rows.
/// With `prefix_ok`, the reply may be any prefix (in `ValidFrom` order)
/// of the expected set — what a reader sees while arrivals are still
/// being promoted; otherwise it must be the whole set.
pub fn selection_ok(rel: &Relation, sel: &Selection, rows: &[Row], prefix_ok: bool) -> bool {
    let mut got: Vec<usize> = Vec::with_capacity(rows.len());
    for row in rows {
        match rel.lookup(row.get(0)) {
            Some((i, _)) => got.push(i),
            None => return false,
        }
    }
    got.sort_unstable();
    if prefix_ok {
        got.len() <= sel.expected.len() && got[..] == sel.expected[..got.len()]
    } else {
        got == sel.expected
    }
}

/// Does every `(P, Q)` row satisfy the Contain predicate over `rel`?
pub fn contain_rows_ok(rel: &Relation, rows: &[Row]) -> bool {
    rows.iter().all(
        |row| match (rel.lookup(row.get(0)), rel.lookup(row.get(1))) {
            (Some((_, a)), Some((_, b))) => a.ts < b.ts && b.te < a.te,
            _ => false,
        },
    )
}
