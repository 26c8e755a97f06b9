//! The catalog: named temporal relations with schemas and statistics.
//!
//! Paper Section 6: "Statistical information about the database is known to
//! be important in query optimization. For temporal databases, it appears to
//! be more critical ... estimating the amount of local workspace becomes
//! necessary." The catalog stores each relation's [`TemporalSchema`],
//! row count and [`TemporalStats`], plus which sort orders the stored
//! representation already satisfies — the optimizer's "interesting orders".
//!
//! Each relation's heap file is decoded at most once per catalog: the first
//! read fills a shared, immutable row snapshot ([`Catalog::rows`]) that
//! every later scan borrows. The heap file stays the only durable copy;
//! the snapshot is extended after a committed append and dropped whenever
//! the relation is replaced or removed.

use crate::heap::HeapFile;
use crate::iostats::IoStats;
use crate::page::PAGE_SIZE;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tdb_core::{
    jobj, Direction, Field, FieldType, Json, Period, Row, Schema, SortKey, SortSpec, StreamOrder,
    TdbError, TdbResult, TemporalSchema, TemporalStats, TimePoint,
};

/// Metadata for one relation.
#[derive(Debug, Clone)]
pub struct RelationMeta {
    /// Relation name.
    pub name: String,
    /// Schema including the designated timestamp columns.
    pub schema: TemporalSchema,
    /// Heap file path, relative to the catalog directory.
    pub file: String,
    /// Row count.
    pub rows: usize,
    /// Temporal statistics (λ, durations, concurrency).
    pub stats: TemporalStats,
    /// Sort orders the stored row sequence satisfies.
    pub known_orders: Vec<StreamOrder>,
    /// Durable page count of the heap file at the last manifest write.
    /// Each append batch writes only fresh pages, so this is the commit
    /// point a durable reopen truncates torn trailing pages back to.
    /// `None` for manifests written before durability existed.
    pub pages: Option<u64>,
}

// Manifest serialization. The format is deliberately spelled out field by
// field so the on-disk schema is explicit and stable; `from_json` rejects
// anything it does not recognize rather than guessing.

fn corrupt(what: &str) -> TdbError {
    TdbError::Corrupt(format!("catalog manifest: {what}"))
}

fn sort_spec_to_json(s: SortSpec) -> Json {
    let key = match s.key {
        SortKey::ValidFrom => "ValidFrom",
        SortKey::ValidTo => "ValidTo",
    };
    let dir = match s.direction {
        Direction::Asc => "asc",
        Direction::Desc => "desc",
    };
    jobj! { "key" => key, "direction" => dir }
}

fn sort_spec_from_json(j: &Json) -> TdbResult<SortSpec> {
    let key = match j.get("key").and_then(Json::as_str) {
        Some("ValidFrom") => SortKey::ValidFrom,
        Some("ValidTo") => SortKey::ValidTo,
        _ => return Err(corrupt("bad sort key")),
    };
    let direction = match j.get("direction").and_then(Json::as_str) {
        Some("asc") => Direction::Asc,
        Some("desc") => Direction::Desc,
        _ => return Err(corrupt("bad sort direction")),
    };
    Ok(SortSpec { key, direction })
}

fn order_to_json(o: StreamOrder) -> Json {
    jobj! {
        "primary" => sort_spec_to_json(o.primary),
        "secondary" => o.secondary.map(sort_spec_to_json),
    }
}

fn order_from_json(j: &Json) -> TdbResult<StreamOrder> {
    let primary = sort_spec_from_json(j.get("primary").ok_or_else(|| corrupt("order.primary"))?)?;
    let secondary = match j.get("secondary") {
        None | Some(Json::Null) => None,
        Some(s) => Some(sort_spec_from_json(s)?),
    };
    Ok(StreamOrder { primary, secondary })
}

fn schema_to_json(s: &TemporalSchema) -> Json {
    let fields: Vec<Json> = s
        .schema
        .fields()
        .iter()
        .map(|f| jobj! { "name" => f.name.as_str(), "type" => f.ty.to_string() })
        .collect();
    jobj! {
        "fields" => fields,
        "valid_from" => s.valid_from,
        "valid_to" => s.valid_to,
    }
}

fn schema_from_json(j: &Json) -> TdbResult<TemporalSchema> {
    let mut fields = Vec::new();
    for f in j
        .get("fields")
        .and_then(Json::as_array)
        .ok_or_else(|| corrupt("schema.fields"))?
    {
        let name = f
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| corrupt("field.name"))?;
        let ty = match f.get("type").and_then(Json::as_str) {
            Some("bool") => FieldType::Bool,
            Some("int") => FieldType::Int,
            Some("time") => FieldType::Time,
            Some("str") => FieldType::Str,
            _ => return Err(corrupt("field.type")),
        };
        fields.push(Field::new(name, ty));
    }
    let valid_from = j
        .get("valid_from")
        .and_then(Json::as_usize)
        .ok_or_else(|| corrupt("schema.valid_from"))?;
    let valid_to = j
        .get("valid_to")
        .and_then(Json::as_usize)
        .ok_or_else(|| corrupt("schema.valid_to"))?;
    TemporalSchema::new(Schema::new(fields), valid_from, valid_to)
        .map_err(|e| corrupt(&format!("invalid schema: {e}")))
}

fn stats_to_json(s: &TemporalStats) -> Json {
    jobj! {
        "count" => s.count,
        "min_ts" => s.min_ts.map(|t| t.0),
        "max_te" => s.max_te.map(|t| t.0),
        "lambda" => s.lambda,
        "mean_duration" => s.mean_duration,
        "max_duration" => s.max_duration,
        "max_concurrency" => s.max_concurrency,
    }
}

fn stats_from_json(j: &Json) -> TdbResult<TemporalStats> {
    let field = |name: &str| j.get(name).ok_or_else(|| corrupt(name));
    Ok(TemporalStats {
        count: field("count")?.as_usize().ok_or_else(|| corrupt("count"))?,
        min_ts: field("min_ts")?.as_i64().map(TimePoint),
        max_te: field("max_te")?.as_i64().map(TimePoint),
        lambda: field("lambda")?.as_f64(),
        mean_duration: field("mean_duration")?
            .as_f64()
            .ok_or_else(|| corrupt("mean_duration"))?,
        max_duration: field("max_duration")?
            .as_i64()
            .ok_or_else(|| corrupt("max_duration"))?,
        max_concurrency: field("max_concurrency")?
            .as_usize()
            .ok_or_else(|| corrupt("max_concurrency"))?,
    })
}

impl RelationMeta {
    fn to_json(&self) -> Json {
        let orders: Vec<Json> = self
            .known_orders
            .iter()
            .copied()
            .map(order_to_json)
            .collect();
        jobj! {
            "name" => self.name.as_str(),
            "schema" => schema_to_json(&self.schema),
            "file" => self.file.as_str(),
            "rows" => self.rows,
            "stats" => stats_to_json(&self.stats),
            "known_orders" => orders,
            "pages" => self.pages.map(|p| p as i64),
        }
    }

    fn from_json(j: &Json) -> TdbResult<RelationMeta> {
        let known_orders = j
            .get("known_orders")
            .and_then(Json::as_array)
            .ok_or_else(|| corrupt("known_orders"))?
            .iter()
            .map(order_from_json)
            .collect::<TdbResult<Vec<_>>>()?;
        Ok(RelationMeta {
            name: j
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| corrupt("name"))?
                .to_string(),
            schema: schema_from_json(j.get("schema").ok_or_else(|| corrupt("schema"))?)?,
            file: j
                .get("file")
                .and_then(Json::as_str)
                .ok_or_else(|| corrupt("file"))?
                .to_string(),
            rows: j
                .get("rows")
                .and_then(Json::as_usize)
                .ok_or_else(|| corrupt("rows"))?,
            stats: stats_from_json(j.get("stats").ok_or_else(|| corrupt("stats"))?)?,
            known_orders,
            pages: j.get("pages").and_then(Json::as_i64).map(|p| p as u64),
        })
    }
}

/// A directory-backed catalog of temporal relations.
pub struct Catalog {
    dir: PathBuf,
    relations: BTreeMap<String, RelationMeta>,
    io: IoStats,
    /// When set, every manifest write goes through write-temp → fsync →
    /// rename and heap appends are fdatasync'd before the manifest points
    /// at them, so a crash can never expose a half-written catalog.
    durable: bool,
    /// Decoded rows per relation, in storage order, filled on first read.
    /// The lock guards only the map: decoding happens outside it.
    snapshots: Mutex<BTreeMap<String, Arc<Vec<Row>>>>,
}

impl Catalog {
    const MANIFEST: &'static str = "catalog.json";

    /// Open (or initialize) a catalog in `dir`.
    pub fn open(dir: impl AsRef<Path>, io: IoStats) -> TdbResult<Catalog> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let manifest = dir.join(Self::MANIFEST);
        let relations = if manifest.exists() {
            let text = std::fs::read_to_string(&manifest)?;
            let doc = Json::parse(&text)
                .map_err(|e| TdbError::Corrupt(format!("catalog manifest: {e}")))?;
            doc.as_object()
                .ok_or_else(|| corrupt("top level must be an object"))?
                .iter()
                .map(|(name, meta)| Ok((name.clone(), RelationMeta::from_json(meta)?)))
                .collect::<TdbResult<BTreeMap<_, _>>>()?
        } else {
            BTreeMap::new()
        };
        Ok(Catalog {
            dir,
            relations,
            io,
            durable: false,
            snapshots: Mutex::new(BTreeMap::new()),
        })
    }

    /// Open a catalog in durable mode: crash-safe manifest writes, synced
    /// heap appends, and torn trailing heap pages (from a batch that died
    /// before its manifest update) truncated back to the last durable
    /// page count recorded in the manifest.
    pub fn open_durable(dir: impl AsRef<Path>, io: IoStats) -> TdbResult<Catalog> {
        let mut cat = Self::open(dir, io)?;
        cat.durable = true;
        cat.repair_heaps()?;
        Ok(cat)
    }

    /// Whether this catalog was opened in durable mode.
    pub fn is_durable(&self) -> bool {
        self.durable
    }

    /// Truncate each heap file back to its manifest-recorded durable page
    /// count. Appends only ever write fresh pages past that point, so
    /// anything beyond it is an unacknowledged batch torn by a crash. A
    /// heap *shorter* than the manifest claims is real corruption: the
    /// manifest is only renamed into place after the heap is synced.
    fn repair_heaps(&self) -> TdbResult<()> {
        for meta in self.relations.values() {
            let Some(pages) = meta.pages else { continue };
            let path = self.dir.join(&meta.file);
            let len = std::fs::metadata(&path)?.len();
            let want = pages * PAGE_SIZE as u64;
            if len < want {
                return Err(TdbError::Corrupt(format!(
                    "heap file {} has {len} bytes but the manifest records {pages} durable pages",
                    path.display()
                )));
            }
            if len > want {
                let file = std::fs::OpenOptions::new().write(true).open(&path)?;
                file.set_len(want)?;
                file.sync_data()?;
            }
        }
        Ok(())
    }

    fn persist(&self) -> TdbResult<()> {
        let doc = Json::Object(
            self.relations
                .iter()
                .map(|(name, meta)| (name.clone(), meta.to_json()))
                .collect(),
        );
        let path = self.dir.join(Self::MANIFEST);
        if self.durable {
            // Crash-safe replace: the manifest is either the old complete
            // version or the new complete version, never a torn mix.
            let tmp = self.dir.join("catalog.json.tmp");
            {
                let mut f = std::fs::File::create(&tmp)?;
                f.write_all(doc.to_string_pretty().as_bytes())?;
                f.sync_all()?;
            }
            std::fs::rename(&tmp, &path)?;
        } else {
            std::fs::write(path, doc.to_string_pretty())?;
        }
        Ok(())
    }

    /// The I/O counter handle shared by this catalog's files.
    pub fn io(&self) -> &IoStats {
        &self.io
    }

    /// Names of all relations.
    pub fn relation_names(&self) -> Vec<String> {
        self.relations.keys().cloned().collect()
    }

    /// Metadata for `name`.
    pub fn meta(&self, name: &str) -> TdbResult<&RelationMeta> {
        self.relations
            .get(name)
            .ok_or_else(|| TdbError::Catalog(format!("unknown relation `{name}`")))
    }

    /// Create (or replace) a relation from rows, validating every row
    /// against the schema and recording statistics.
    ///
    /// `known_orders` documents orderings the caller guarantees the row
    /// sequence satisfies; they are verified here so the optimizer can trust
    /// them later.
    pub fn create_relation(
        &mut self,
        name: &str,
        schema: TemporalSchema,
        rows: &[Row],
        known_orders: Vec<StreamOrder>,
    ) -> TdbResult<()> {
        let mut periods = Vec::with_capacity(rows.len());
        for row in rows {
            schema.check_row(row)?;
            periods.push(schema.period_of(row)?);
        }
        for order in &known_orders {
            if let Some(i) = order.first_violation(&periods) {
                return Err(TdbError::OrderViolation {
                    context: "catalog create_relation",
                    detail: format!("claimed order {order} violated at row {i}"),
                });
            }
        }

        // The heap is about to be rewritten: the next read decodes it anew.
        self.snapshots.get_mut().remove(name);
        let file = format!("{name}.heap");
        let mut heap = HeapFile::create(self.dir.join(&file), self.io.clone())?;
        for row in rows {
            heap.append(row)?;
        }
        heap.flush()?;
        if self.durable {
            heap.sync_data()?;
        }

        let stats = TemporalStats::compute(&periods);
        let pages = Some(heap.page_count());
        self.relations.insert(
            name.to_string(),
            RelationMeta {
                name: name.to_string(),
                schema,
                file,
                rows: rows.len(),
                stats,
                known_orders,
                pages,
            },
        );
        self.persist()
    }

    /// Append rows to an existing relation, preserving its claimed sort
    /// orders and refreshing statistics.
    ///
    /// Every claimed order in `known_orders` is re-verified over the
    /// *combined* row sequence (the stored rows come from the snapshot, not
    /// a heap re-read), so an append that would break an order the
    /// optimizer relies on is rejected outright and changes nothing. Live
    /// ingestion satisfies this by construction: closed prefixes are
    /// promoted in watermark order, so each batch sorts entirely after the
    /// rows already stored. Once the heap write and manifest update
    /// succeed, the snapshot is extended in place (copied only if a reader
    /// still holds it); if either fails, the snapshot is dropped so the next
    /// read re-decodes the heap. Returns the new total row count.
    pub fn append_rows(&mut self, name: &str, rows: &[Row]) -> TdbResult<usize> {
        let meta = self.meta(name)?;
        if rows.is_empty() {
            return Ok(meta.rows);
        }
        let schema = meta.schema.clone();
        let file = meta.file.clone();
        let known_orders = meta.known_orders.clone();

        let existing = self.rows(name)?;
        let mut periods = Vec::with_capacity(existing.len() + rows.len());
        for row in existing.iter() {
            periods.push(schema.period_of(row)?);
        }
        drop(existing);
        for row in rows {
            schema.check_row(row)?;
            periods.push(schema.period_of(row)?);
        }
        for order in &known_orders {
            if let Some(i) = order.first_violation(&periods) {
                return Err(TdbError::OrderViolation {
                    context: "catalog append_rows",
                    detail: format!("append would violate claimed order {order} at row {i}"),
                });
            }
        }

        let committed = self.commit_append(name, &file, rows, &periods);
        let snapshots = self.snapshots.get_mut();
        match committed {
            Ok(()) => {
                if let Some(snapshot) = snapshots.get_mut(name) {
                    Arc::make_mut(snapshot).extend_from_slice(rows);
                }
                Ok(periods.len())
            }
            Err(e) => {
                snapshots.remove(name);
                Err(e)
            }
        }
    }

    /// Write an already-verified append batch to the heap, then point the
    /// manifest at it.
    fn commit_append(
        &mut self,
        name: &str,
        file: &str,
        rows: &[Row],
        periods: &[Period],
    ) -> TdbResult<()> {
        let mut heap = HeapFile::open(self.dir.join(file), self.io.clone())?;
        for row in rows {
            heap.append(row)?;
        }
        heap.flush()?;
        if self.durable {
            heap.sync_data()?;
        }

        let meta = self
            .relations
            .get_mut(name)
            .expect("relation existed above");
        meta.rows = periods.len();
        meta.stats = TemporalStats::compute(periods);
        meta.pages = Some(heap.page_count());
        self.persist()
    }

    /// The decoded rows of `name` in storage order, shared.
    ///
    /// The first call per relation decodes its heap file (a snapshot miss
    /// in [`IoStats`]); later calls return the same snapshot without
    /// touching the disk (a hit). A decode error is returned as is and
    /// nothing is cached, so a corrupt heap fails on every call.
    pub fn rows(&self, name: &str) -> TdbResult<Arc<Vec<Row>>> {
        let meta = self.meta(name)?;
        if let Some(rows) = self.snapshots.lock().get(name) {
            self.io.record_hit();
            return Ok(Arc::clone(rows));
        }
        self.io.record_miss();
        // Decode without holding the lock. Mutations need `&mut self`, so
        // the heap cannot change underneath; two racing readers decode the
        // same rows and the first to insert wins.
        let mut heap = HeapFile::open(self.dir.join(&meta.file), self.io.clone())?;
        let rows = Arc::new(heap.scan::<Row>()?.collect::<TdbResult<Vec<Row>>>()?);
        Ok(Arc::clone(
            self.snapshots
                .lock()
                .entry(name.to_string())
                .or_insert(rows),
        ))
    }

    /// Read every row of `name` in storage order: an owned copy of
    /// [`Catalog::rows`].
    pub fn scan(&self, name: &str) -> TdbResult<Vec<Row>> {
        Ok(self.rows(name)?.to_vec())
    }

    /// Drop a relation and its heap file.
    pub fn drop_relation(&mut self, name: &str) -> TdbResult<()> {
        let meta = self
            .relations
            .remove(name)
            .ok_or_else(|| TdbError::Catalog(format!("unknown relation `{name}`")))?;
        self.snapshots.get_mut().remove(name);
        let _ = std::fs::remove_file(self.dir.join(&meta.file));
        self.persist()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tdb_core::{TimePoint, Value};

    fn tmpdir(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("tdb-catalog-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn faculty_rows() -> (TemporalSchema, Vec<Row>) {
        let schema = TemporalSchema::time_sequence("Name", "Rank");
        let mk = |n: &str, r: &str, s: i64, e: i64| {
            Row::new(vec![
                Value::str(n),
                Value::str(r),
                Value::Time(TimePoint(s)),
                Value::Time(TimePoint(e)),
            ])
        };
        (
            schema,
            vec![
                mk("Smith", "Assistant", 0, 5),
                mk("Smith", "Associate", 5, 9),
                mk("Smith", "Full", 9, 20),
            ],
        )
    }

    #[test]
    fn create_scan_round_trip() {
        let mut cat = Catalog::open(tmpdir("a"), IoStats::new()).unwrap();
        let (schema, rows) = faculty_rows();
        cat.create_relation("Faculty", schema, &rows, vec![StreamOrder::TS_ASC])
            .unwrap();
        assert_eq!(cat.scan("Faculty").unwrap(), rows);
        let meta = cat.meta("Faculty").unwrap();
        assert_eq!(meta.rows, 3);
        assert_eq!(meta.stats.count, 3);
        assert_eq!(meta.known_orders, vec![StreamOrder::TS_ASC]);
    }

    #[test]
    fn persists_across_reopen() {
        let dir = tmpdir("b");
        {
            let mut cat = Catalog::open(&dir, IoStats::new()).unwrap();
            let (schema, rows) = faculty_rows();
            cat.create_relation("Faculty", schema, &rows, vec![])
                .unwrap();
        }
        let cat = Catalog::open(&dir, IoStats::new()).unwrap();
        assert_eq!(cat.relation_names(), vec!["Faculty".to_string()]);
        assert_eq!(cat.scan("Faculty").unwrap().len(), 3);
    }

    #[test]
    fn rejects_bad_rows_and_false_order_claims() {
        let mut cat = Catalog::open(tmpdir("c"), IoStats::new()).unwrap();
        let (schema, mut rows) = faculty_rows();
        // Claimed TE ↑ is false here: TEs are 5, 9, 20 — actually it's true;
        // reverse rows to break TS order instead.
        rows.reverse();
        assert!(matches!(
            cat.create_relation("F", schema.clone(), &rows, vec![StreamOrder::TS_ASC]),
            Err(TdbError::OrderViolation { .. })
        ));
        // Arity mismatch.
        let bad = vec![Row::new(vec![Value::Int(1)])];
        assert!(cat.create_relation("F", schema, &bad, vec![]).is_err());
    }

    #[test]
    fn append_rows_extends_and_reverifies_orders() {
        let mut cat = Catalog::open(tmpdir("f"), IoStats::new()).unwrap();
        let (schema, rows) = faculty_rows();
        cat.create_relation("Faculty", schema, &rows, vec![StreamOrder::TS_ASC])
            .unwrap();
        let later = Row::new(vec![
            Value::str("Jones"),
            Value::str("Assistant"),
            Value::Time(TimePoint(12)),
            Value::Time(TimePoint(30)),
        ]);
        let total = cat
            .append_rows("Faculty", std::slice::from_ref(&later))
            .unwrap();
        assert_eq!(total, 4);
        let meta = cat.meta("Faculty").unwrap();
        assert_eq!(meta.rows, 4);
        assert_eq!(meta.stats.count, 4);
        assert_eq!(cat.scan("Faculty").unwrap().len(), 4);

        // An append that would break the claimed TS ↑ order is rejected
        // and leaves the relation untouched.
        let early = Row::new(vec![
            Value::str("Early"),
            Value::str("Assistant"),
            Value::Time(TimePoint(1)),
            Value::Time(TimePoint(2)),
        ]);
        assert!(matches!(
            cat.append_rows("Faculty", &[early]),
            Err(TdbError::OrderViolation { .. })
        ));
        assert_eq!(cat.scan("Faculty").unwrap().len(), 4);

        // Empty appends are a no-op returning the current count.
        assert_eq!(cat.append_rows("Faculty", &[]).unwrap(), 4);
    }

    #[test]
    fn unknown_relation_errors() {
        let cat = Catalog::open(tmpdir("d"), IoStats::new()).unwrap();
        assert!(matches!(cat.meta("Nope"), Err(TdbError::Catalog(_))));
        assert!(cat.scan("Nope").is_err());
    }

    #[test]
    fn drop_removes_relation_and_file() {
        let dir = tmpdir("e");
        let mut cat = Catalog::open(&dir, IoStats::new()).unwrap();
        let (schema, rows) = faculty_rows();
        cat.create_relation("Faculty", schema, &rows, vec![])
            .unwrap();
        cat.drop_relation("Faculty").unwrap();
        assert!(cat.meta("Faculty").is_err());
        assert!(!dir.join("Faculty.heap").exists());
        assert!(cat.drop_relation("Faculty").is_err());
    }

    #[test]
    fn corrupt_heap_fails_every_read_and_caches_nothing() {
        let dir = tmpdir("corrupt");
        let mut cat = Catalog::open(&dir, IoStats::new()).unwrap();
        let schema = TemporalSchema::time_sequence("Name", "Rank");
        let rows: Vec<Row> = (0..2000)
            .map(|i| mk_row(&format!("N{i}"), i, i + 5))
            .collect();
        cat.create_relation("R", schema, &rows, vec![]).unwrap();
        let pages = cat.meta("R").unwrap().pages.unwrap();
        assert!(pages >= 2, "the decode must get past a good page first");
        // An impossible slot count in the last page's header: every page
        // before it decodes, then the scan fails.
        let path = dir.join("R.heap");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = (pages as usize - 1) * PAGE_SIZE;
        bytes[last..last + 2].copy_from_slice(&[0xFF, 0xFF]);
        std::fs::write(&path, &bytes).unwrap();
        for _ in 0..2 {
            let before = cat.io().snapshot();
            assert!(matches!(cat.rows("R"), Err(TdbError::Corrupt(_))));
            assert!(matches!(cat.scan("R"), Err(TdbError::Corrupt(_))));
            let delta = cat.io().snapshot().since(&before);
            assert_eq!(delta.snapshot_hits, 0, "nothing was cached");
            assert_eq!(delta.snapshot_misses, 2);
            assert_eq!(delta.pages_read, 2 * pages, "each call re-reads the heap");
        }
    }

    fn mk_row(name: &str, ts: i64, te: i64) -> Row {
        Row::new(vec![
            Value::str(name),
            Value::str("r"),
            Value::Time(TimePoint(ts)),
            Value::Time(TimePoint(te)),
        ])
    }

    /// One step of the snapshot-coherence property.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// Create or replace a relation with `n` TS-ordered rows.
        Create(usize),
        /// Append `n` rows after the current maximum `ValidFrom`.
        Append(usize),
        /// Append one row that breaks the claimed TS order.
        BadAppend,
        Drop,
        Reopen,
        /// Read the relation, filling its snapshot.
        Read,
    }

    fn arb_step() -> impl Strategy<Value = (Step, usize, i64)> {
        (0u8..6, 0usize..6, 0usize..2, 1i64..20).prop_map(|(k, n, rel, dur)| {
            let step = match k {
                0 => Step::Create(n),
                1 => Step::Append(n),
                2 => Step::BadAppend,
                3 => Step::Drop,
                4 => Step::Reopen,
                _ => Step::Read,
            };
            (step, rel, dur)
        })
    }

    fn heap_decode(dir: &Path, meta: &RelationMeta) -> Vec<Row> {
        HeapFile::open(dir.join(&meta.file), IoStats::new())
            .unwrap()
            .scan::<Row>()
            .unwrap()
            .collect::<TdbResult<Vec<Row>>>()
            .unwrap()
    }

    fn open_as(durable: bool, dir: &Path) -> Catalog {
        if durable {
            Catalog::open_durable(dir, IoStats::new()).unwrap()
        } else {
            Catalog::open(dir, IoStats::new()).unwrap()
        }
    }

    static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn snapshot_matches_heap_after_every_step(
            durable in proptest::bool::ANY,
            steps in proptest::collection::vec(arb_step(), 1..24),
        ) {
            let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir = tmpdir(&format!("prop{case}"));
            let mut cat = open_as(durable, &dir);
            let names = ["R", "S"];
            // The model: what each live relation must hold.
            let mut model: BTreeMap<&str, Vec<Row>> = BTreeMap::new();
            let mut next_ts = 0i64;
            let mut fresh = |n: usize, dur: i64| -> Vec<Row> {
                (0..n)
                    .map(|_| {
                        next_ts += 1;
                        mk_row(&format!("t{next_ts}"), next_ts, next_ts + dur)
                    })
                    .collect()
            };
            for (step, rel, dur) in steps {
                let name = names[rel];
                match step {
                    Step::Create(n) => {
                        let rows = fresh(n, dur);
                        let schema = TemporalSchema::time_sequence("Name", "Rank");
                        cat.create_relation(name, schema, &rows, vec![StreamOrder::TS_ASC])
                            .unwrap();
                        model.insert(name, rows);
                    }
                    Step::Append(n) => {
                        let rows = fresh(n, dur);
                        match model.get_mut(name) {
                            Some(want) => {
                                let total = cat.append_rows(name, &rows).unwrap();
                                want.extend(rows);
                                prop_assert_eq!(total, want.len());
                            }
                            None => prop_assert!(cat.append_rows(name, &rows).is_err()),
                        }
                    }
                    Step::BadAppend => {
                        let Some(want) = model.get(name) else { continue };
                        if want.is_empty() {
                            continue;
                        }
                        let before = cat.rows(name).unwrap();
                        let early = mk_row("early", -1, dur);
                        prop_assert!(matches!(
                            cat.append_rows(name, &[early]),
                            Err(TdbError::OrderViolation { .. })
                        ));
                        let after = cat.rows(name).unwrap();
                        prop_assert!(Arc::ptr_eq(&before, &after), "rejected append kept the snapshot");
                    }
                    Step::Drop => {
                        let dropped = cat.drop_relation(name);
                        prop_assert_eq!(dropped.is_ok(), model.remove(name).is_some());
                    }
                    Step::Reopen => {
                        drop(cat);
                        cat = open_as(durable, &dir);
                    }
                    Step::Read => {
                        let _ = cat.rows(name);
                    }
                }
                for name in names {
                    match model.get(name) {
                        Some(want) => {
                            let meta = cat.meta(name).unwrap().clone();
                            let scanned = cat.scan(name).unwrap();
                            prop_assert_eq!(&scanned, &heap_decode(&dir, &meta));
                            prop_assert_eq!(&scanned, want);
                            prop_assert_eq!(meta.rows, want.len());
                        }
                        None => prop_assert!(cat.scan(name).is_err()),
                    }
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
