//! The `haecdb` facade: tables, indexes, and the energy-metered query
//! path.
//!
//! Every query is planned with the dual-objective cost model (index vs
//! scan per the session [`Goal`]), executed with the adaptive vectorized
//! kernels, and charged to the database's [`EnergyMeter`] — making
//! "energy per query" a first-class observable, as the paper demands.
//! This module holds the query builder, the [`Database`] facade and its
//! snapshot/transaction handles; every `execute*` entry point resolves
//! its table pins and hands them to the one executor in
//! `crate::executor`.
//!
//! Execution is **store-granular** over the main/delta store of
//! [`crate::table::Table`]: whole segments and delta chunks are skipped
//! via zone maps, integer and string predicates run directly on the
//! compressed data ([`haec_columnar::encoding::EncodedInts::scan`] — no
//! decode; a delta chunk shows the same encoded column shape as a
//! segment), and stores are dispatched as morsels across real threads
//! for large tables. Aggregation pushes down the same way: each segment folds a
//! partial [`haec_exec::agg::AggState`] straight from its encoded
//! columns via streaming decode
//! ([`haec_columnar::encoding::EncodedInts::iter`] — no
//! full-column materialization), zone maps answer MIN/MAX and COUNT for
//! fully-surviving segments without touching a single column byte, and
//! partials merge with `AggState::merge`. Scanning (and folding)
//! encoded bytes instead of raw rows is the paper's "energy efficiency
//! by data reduction" made concrete: less DRAM traffic per answered
//! query — and every path, including the decode itself, is billed to the
//! meter.

use crate::error::{DbError, DbResult};
use crate::executor::check_int_column;
use crate::index::{Index, IndexMaintenance, IndexStats};
use crate::schema::{Record, TableSchema};
use crate::segment::MergeStats;
use crate::table::{Table, TableSnapshot};
use haec_columnar::chunk::Chunk;
use haec_columnar::value::{CmpOp, DataType, Value};
use haec_energy::calibrate::{Kernel, KernelCosts};
use haec_energy::machine::MachineSpec;
use haec_energy::meter::EnergyMeter;
use haec_energy::profile::{CostEstimator, ExecutionContext, ResourceProfile};
use haec_energy::units::{ByteCount, Joules};
use haec_exec::agg::AggKind;
use haec_exec::pool::{ExecOpts, WorkerPool};
use haec_planner::access::AccessPath;
use haec_planner::cost::CostModel;
use haec_planner::optimizer::Goal;
use haec_txn::oracle::{Timestamp, TimestampOracle};
use parking_lot::{Mutex, RwLock};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// One conjunct of a query's WHERE clause (integer columns).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Filter {
    /// Column name.
    pub column: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal operand.
    pub literal: i64,
}

/// An equality predicate on a dictionary-encoded string column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StrFilter {
    /// Column name.
    pub column: String,
    /// The value rows must equal (`negated` flips to `<>`).
    pub value: String,
    /// `true` for `<>`, `false` for `=`.
    pub negated: bool,
}

/// A declarative query against one table.
///
/// ```
/// use haecdb::db::Query;
/// use haec_columnar::value::CmpOp;
/// use haec_exec::agg::AggKind;
/// let q = Query::scan("orders")
///     .filter("amount", CmpOp::Ge, 100)
///     .filter_str_eq("country", "de")
///     .group_by("region")
///     .aggregate(AggKind::Sum, "amount");
/// assert_eq!(q.table(), "orders");
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    pub(crate) table: String,
    pub(crate) filters: Vec<Filter>,
    pub(crate) str_filters: Vec<StrFilter>,
    pub(crate) join: Option<JoinClause>,
    pub(crate) group_by: Option<String>,
    pub(crate) agg: Option<(AggKind, String)>,
    pub(crate) select: Option<Vec<String>>,
    /// The first misuse of the builder (a second join stage, a
    /// `join_filter*` before `join`), surfaced by `execute` as
    /// [`DbError::BadQuery`].
    pub(crate) misuse: Option<&'static str>,
}

/// The equi-join stage of a [`Query`]: the other (right) table, the key
/// column on each side, and the right side's own filters.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct JoinClause {
    pub(crate) table: String,
    pub(crate) left_col: String,
    pub(crate) right_col: String,
    pub(crate) filters: Vec<Filter>,
    pub(crate) str_filters: Vec<StrFilter>,
}

impl Query {
    /// Starts a query over `table`.
    pub fn scan(table: impl Into<String>) -> Self {
        Query {
            table: table.into(),
            filters: Vec::new(),
            str_filters: Vec::new(),
            join: None,
            group_by: None,
            agg: None,
            select: None,
            misuse: None,
        }
    }

    /// Adds a conjunctive integer predicate.
    pub fn filter(mut self, column: impl Into<String>, op: CmpOp, literal: i64) -> Self {
        self.filters.push(Filter { column: column.into(), op, literal });
        self
    }

    /// Adds a conjunctive string-equality predicate (evaluated on
    /// dictionary codes, never on the strings themselves).
    pub fn filter_str_eq(mut self, column: impl Into<String>, value: impl Into<String>) -> Self {
        self.str_filters.push(StrFilter { column: column.into(), value: value.into(), negated: false });
        self
    }

    /// Adds a conjunctive string-inequality predicate.
    pub fn filter_str_ne(mut self, column: impl Into<String>, value: impl Into<String>) -> Self {
        self.str_filters.push(StrFilter { column: column.into(), value: value.into(), negated: true });
        self
    }

    /// Equi-joins this query's table with `table` on
    /// `left_col = right_col` (both integer columns, or both string
    /// columns — string keys join **code-to-code** on dictionary codes,
    /// never on the strings).
    ///
    /// Filters added with [`Query::filter`] / [`Query::filter_str_eq`]
    /// apply to the left (this) table; filters on the joined table go
    /// through [`Query::join_filter`] / [`Query::join_filter_str_eq`].
    /// Without a projection the output carries every left column under
    /// its own name, then every right column as `"table.column"`;
    /// [`Query::select`] accepts bare names (left side wins ties) or
    /// qualified `"table.column"` names for either side. In a
    /// self-join, bare names mean the left occurrence and qualified
    /// names the right one — matching the default projection's labels.
    ///
    /// Only one join stage is supported (multi-way joins are a ROADMAP
    /// item): a second `join` keeps the first and makes `execute` return
    /// [`DbError::BadQuery`] — silently replacing the first join (and
    /// its `join_filter`s) would mask a query-building bug.
    pub fn join(
        mut self,
        table: impl Into<String>,
        left_col: impl Into<String>,
        right_col: impl Into<String>,
    ) -> Self {
        if self.join.is_some() {
            self.misuse.get_or_insert("only one join stage is supported");
            return self;
        }
        self.join = Some(JoinClause {
            table: table.into(),
            left_col: left_col.into(),
            right_col: right_col.into(),
            filters: Vec::new(),
            str_filters: Vec::new(),
        });
        self
    }

    /// The join stage the `join_filter*` builders add to; calling one
    /// before [`Query::join`] is recorded as a misuse.
    fn join_stage(&mut self) -> Option<&mut JoinClause> {
        if self.join.is_none() {
            self.misuse.get_or_insert("join_filter* requires .join(...) first");
        }
        self.join.as_mut()
    }

    /// Adds a conjunctive integer predicate on the joined (right) table.
    /// Before [`Query::join`] it makes `execute` return
    /// [`DbError::BadQuery`].
    pub fn join_filter(mut self, column: impl Into<String>, op: CmpOp, literal: i64) -> Self {
        if let Some(jc) = self.join_stage() {
            jc.filters.push(Filter { column: column.into(), op, literal });
        }
        self
    }

    /// Adds a conjunctive string-equality predicate on the joined
    /// (right) table. Before [`Query::join`] it makes `execute` return
    /// [`DbError::BadQuery`].
    pub fn join_filter_str_eq(mut self, column: impl Into<String>, value: impl Into<String>) -> Self {
        if let Some(jc) = self.join_stage() {
            jc.str_filters.push(StrFilter { column: column.into(), value: value.into(), negated: false });
        }
        self
    }

    /// Adds a conjunctive string-inequality predicate on the joined
    /// (right) table. Before [`Query::join`] it makes `execute` return
    /// [`DbError::BadQuery`].
    pub fn join_filter_str_ne(mut self, column: impl Into<String>, value: impl Into<String>) -> Self {
        if let Some(jc) = self.join_stage() {
            jc.str_filters.push(StrFilter { column: column.into(), value: value.into(), negated: true });
        }
        self
    }

    /// Groups by an integer or string column (string keys group on
    /// dictionary codes; the strings are decoded once per group for the
    /// output).
    pub fn group_by(mut self, column: impl Into<String>) -> Self {
        self.group_by = Some(column.into());
        self
    }

    /// Aggregates `column` with `kind`. Every kind but
    /// [`AggKind::Count`] needs an `Int64` column; COUNT counts rows, so
    /// its column only has to exist.
    pub fn aggregate(mut self, kind: AggKind, column: impl Into<String>) -> Self {
        self.agg = Some((kind, column.into()));
        self
    }

    /// Restricts output columns (ignored when aggregating).
    pub fn select<I, S>(mut self, columns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.select = Some(columns.into_iter().map(Into::into).collect());
        self
    }

    /// The queried table.
    pub fn table(&self) -> &str {
        &self.table
    }
}

/// Row-count threshold from which a stage's units with work — those
/// holding a selected row, or in the filter those no zone settles —
/// run morsel-parallel on real threads (one morsel = one store) instead
/// of serially: counted over those units' stores, not the table, so a
/// lookup its zones narrow to one store runs inline.
pub const PARALLEL_SCAN_ROWS: usize = 262_144;

/// The outcome of a query: rows plus full metering.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// The result rows.
    pub rows: Chunk,
    /// Modelled energy charged for this query.
    pub energy: Joules,
    /// Modelled execution time.
    pub modeled_time: Duration,
    /// Measured wall time of the real execution.
    pub wall_time: Duration,
    /// The access path taken for the first indexable predicate.
    pub access_path: Option<AccessPath>,
    /// The resource profile the energy charge was computed from (decode
    /// cycles, DRAM traffic, …) — lets callers verify *what* was billed,
    /// e.g. that a zone-answered MIN touched zero column bytes.
    pub profile: ResourceProfile,
}

/// The in-memory, energy-metered, multi-version database.
///
/// All methods take `&self`: a `Database` can be shared across threads
/// (behind an `Arc`) with readers pinning immutable snapshots while
/// writers insert and merge concurrently. Timestamps come from one
/// shared [`TimestampOracle`]; see [`Database::begin_snapshot`] and
/// [`Database::begin_transaction`] for multi-statement reads.
///
/// ```
/// use haecdb::prelude::*;
///
/// let db = Database::new();
/// db.create_table("t", &[("k", DataType::Int64), ("v", DataType::Int64)])?;
/// db.insert("t", &Record::new().with("k", 1i64).with("v", 10i64))?;
/// db.insert("t", &Record::new().with("k", 2i64).with("v", 20i64))?;
/// let out = db.execute(&Query::scan("t").filter("v", CmpOp::Gt, 15))?;
/// assert_eq!(out.rows.rows(), 1);
/// assert!(out.energy.joules() > 0.0);
/// # Ok::<(), haecdb::error::DbError>(())
/// ```
#[derive(Debug)]
pub struct Database {
    estimator: CostEstimator,
    pub(crate) costs: KernelCosts,
    /// The planner's cost model over the machine model + `costs`, built
    /// once: neither changes after construction.
    pub(crate) model: CostModel,
    meter: Mutex<EnergyMeter>,
    tables: RwLock<HashMap<String, Arc<Table>>>,
    goal: Mutex<Goal>,
    /// The shared source of all timestamps: inserts, snapshots and
    /// transactions draw from one total order.
    oracle: Arc<TimestampOracle>,
    /// The persistent worker pool every query executes on — shared
    /// across all queries of this database (and, via
    /// [`WorkerPool::global`], usually across the whole process), so a
    /// query never creates a thread.
    pool: Arc<WorkerPool>,
    /// Parallelism used when a query carries no explicit grant —
    /// resolved **once** at construction from the pool width and the
    /// machine model, never re-queried from the OS per query.
    pub(crate) default_dop: usize,
}

impl Database {
    /// Creates a database on the default 2013 commodity machine model.
    pub fn new() -> Self {
        Database::with_machine(MachineSpec::commodity_2013())
    }

    /// Creates a database over an explicit machine model, executing on
    /// the process-wide [`WorkerPool::global`].
    // haec-lint: allow(dead-pub) — the facade's constructor for a machine model other than `new`'s.
    pub fn with_machine(machine: MachineSpec) -> Self {
        Database::with_machine_and_pool(machine, Arc::clone(WorkerPool::global()))
    }

    /// Creates a database over an explicit machine model **and** worker
    /// pool — a query server supplies its own sized pool; everything
    /// else shares the process-wide one via [`Database::with_machine`].
    pub fn with_machine_and_pool(machine: MachineSpec, pool: Arc<WorkerPool>) -> Self {
        let default_dop = pool.workers().min(machine.cores()).max(1);
        let costs = KernelCosts::default_2013();
        Database {
            estimator: CostEstimator::new(machine.clone()),
            model: CostModel::new(machine).with_kernel_costs(costs.clone()),
            costs,
            meter: Mutex::new(EnergyMeter::new()),
            tables: RwLock::new(HashMap::new()),
            goal: Mutex::new(Goal::MinTime),
            oracle: Arc::new(TimestampOracle::new()),
            pool,
            default_dop,
        }
    }

    /// The worker pool this database's queries execute on.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Sets the session optimization goal (Fig. 2's knob).
    pub fn set_goal(&self, goal: Goal) {
        *self.goal.lock() = goal;
    }

    /// The session goal.
    pub fn goal(&self) -> Goal {
        *self.goal.lock()
    }

    /// The machine model.
    pub fn machine(&self) -> &MachineSpec {
        self.model.machine()
    }

    /// A copy of the cumulative energy meter at this instant.
    pub fn meter(&self) -> EnergyMeter {
        self.meter.lock().clone()
    }

    /// The shared timestamp oracle (inserts, snapshots and transactions
    /// all draw from it).
    pub fn oracle(&self) -> &Arc<TimestampOracle> {
        &self.oracle
    }

    /// Charges a resource profile to the meter and returns its estimate.
    pub(crate) fn charge(&self, profile: &ResourceProfile) -> haec_energy::profile::CostEstimate {
        self.estimator.charge(profile, self.exec_ctx(), &mut self.meter.lock())
    }

    /// Creates a strict-schema table.
    ///
    /// # Errors
    ///
    /// [`DbError::TableExists`] on name collisions.
    pub fn create_table(&self, name: &str, columns: &[(&str, DataType)]) -> DbResult<()> {
        let mut tables = self.tables.write();
        if tables.contains_key(name) {
            return Err(DbError::TableExists(name.to_string()));
        }
        let schema = TableSchema::strict(columns.iter().map(|(n, t)| (n.to_string(), *t)).collect());
        tables.insert(name.to_string(), Arc::new(Table::new(name, schema)));
        Ok(())
    }

    /// Creates a strict-schema table whose main store keeps `sort_key`
    /// globally sorted across merges. Sorting happens only inside the
    /// lock-free build phase of [`Database::merge`]; readers always see
    /// either the old layout or the new one, never a mixture. String
    /// keys sort by **global dictionary code** (insertion order), not
    /// collation order — see the schema docs for the caveat.
    ///
    /// # Errors
    ///
    /// [`DbError::TableExists`] on name collisions,
    /// [`DbError::NoSuchColumn`] if `sort_key` is not one of `columns`,
    /// and [`DbError::TypeMismatch`] if it is not `Int64` or `Str`.
    pub fn create_table_sorted(
        &self,
        name: &str,
        columns: &[(&str, DataType)],
        sort_key: &str,
    ) -> DbResult<()> {
        let mut tables = self.tables.write();
        if tables.contains_key(name) {
            return Err(DbError::TableExists(name.to_string()));
        }
        let (_, dtype) = columns
            .iter()
            .find(|(n, _)| *n == sort_key)
            .ok_or_else(|| DbError::NoSuchColumn { table: name.to_string(), column: sort_key.to_string() })?;
        if !matches!(dtype, DataType::Int64 | DataType::Str) {
            return Err(DbError::TypeMismatch { column: sort_key.to_string(), expected: DataType::Int64 });
        }
        let schema = TableSchema::strict(columns.iter().map(|(n, t)| (n.to_string(), *t)).collect())
            .with_sort_key(sort_key);
        tables.insert(name.to_string(), Arc::new(Table::new(name, schema)));
        Ok(())
    }

    /// Creates a flexible-schema ("data first") table.
    ///
    /// # Errors
    ///
    /// [`DbError::TableExists`] on name collisions.
    pub fn create_flexible_table(&self, name: &str) -> DbResult<()> {
        let mut tables = self.tables.write();
        if tables.contains_key(name) {
            return Err(DbError::TableExists(name.to_string()));
        }
        tables.insert(name.to_string(), Arc::new(Table::new(name, TableSchema::flexible())));
        Ok(())
    }

    /// The shared handle of one table.
    fn handle(&self, name: &str) -> DbResult<Arc<Table>> {
        self.tables.read().get(name).cloned().ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// A latest-state snapshot of one table (`None` if it does not
    /// exist) — the view single-statement reads and diagnostics use.
    pub fn table(&self, name: &str) -> Option<TableSnapshot> {
        self.tables.read().get(name).map(|t| t.read())
    }

    /// Inserts one record into the table's open delta chunk, stamping it
    /// with the next timestamp from the shared oracle. Nothing is
    /// indexed here: a delta chunk is indexed once sealed, by its first
    /// reader. Returns the row's commit timestamp. Once
    /// the delta outgrows the table's merge threshold, a delta→main
    /// merge runs automatically (and its re-encoding cost is charged to
    /// the meter).
    ///
    /// # Errors
    ///
    /// Propagates schema violations; unknown table is
    /// [`DbError::NoSuchTable`].
    pub fn insert(&self, table: &str, record: &Record) -> DbResult<Timestamp> {
        let t = self.handle(table)?;
        // Fires before any state is touched: an injected failure must
        // leave the row unpublished and unbilled.
        fail::fail_point!("db::insert", |msg: Option<String>| Err(DbError::Exec(
            msg.unwrap_or_else(|| "failpoint db::insert".into())
        )));
        let (ts, _, delta_rows) = t.insert(record, &self.oracle)?;
        // Charge ingestion: one materialize per field, billing the bytes
        // each field actually writes (a string is its payload plus a
        // 4-byte dictionary code, not an 8-byte cell).
        let payload: u64 = record
            .iter()
            .map(|(_, v)| match v {
                Value::Int(_) | Value::Float(_) => 8,
                Value::Str(s) => 4 + s.len() as u64,
                Value::Null => 1, // validity bit, rounded up
            })
            .sum();
        let profile = ResourceProfile {
            cpu_cycles: self.costs.cycles_for(Kernel::Materialize, record.len() as u64),
            dram_written: ByteCount::new(payload),
            ..ResourceProfile::default()
        };
        self.charge(&profile);
        if delta_rows >= t.merge_threshold() {
            self.merge(table)?;
        }
        Ok(ts)
    }

    /// Compacts `table`'s delta into compressed main segments, charging
    /// the re-encoding CPU and DRAM traffic to the energy meter — and
    /// the index builds of an eager index's new segments as the index's
    /// maintenance. A no-op (and free) when the delta is empty.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`] for unknown tables.
    pub fn merge(&self, table: &str) -> DbResult<MergeStats> {
        let t = self.handle(table)?;
        let stats = t.merge();
        if stats.rows_merged > 0 {
            self.charge_encode(stats.raw_bytes, stats.encoded_bytes);
            t.indexes().iter().for_each(|index| self.charge_index_builds(index));
        }
        Ok(stats)
    }

    /// Charges re-encoding `raw_bytes` plain bytes into `encoded_bytes`
    /// to the meter — a merge's segments, or sealed delta chunks' views:
    /// storage maintenance, never a query's bill. `EncodedInts::auto`
    /// trial-encodes every scheme and keeps the smallest; charge all four
    /// attempts, plus reading the flat input and writing the encoded
    /// output. Nothing to encode is free.
    pub(crate) fn charge_encode(&self, raw_bytes: usize, encoded_bytes: usize) {
        if raw_bytes > 0 {
            let values = (raw_bytes / 8) as u64;
            self.charge(&ResourceProfile {
                cpu_cycles: self.costs.cycles_for(Kernel::CompressEncode, values * 4),
                dram_read: ByteCount::new(raw_bytes as u64),
                dram_written: ByteCount::new(encoded_bytes as u64),
                ..ResourceProfile::default()
            });
        }
    }

    /// Charges the store builds of `index` not charged yet to the meter
    /// — storage maintenance, never a query's bill — as one decode of
    /// the column and one join-table build over its rows, each entry a
    /// key and a row id. Nothing built is free.
    pub(crate) fn charge_index_builds(&self, index: &Index) {
        let (rows, bytes) = index.take_unbilled();
        if rows > 0 {
            self.charge(&ResourceProfile {
                cpu_cycles: self.costs.cycles_for(Kernel::CompressDecode, rows)
                    + self.costs.cycles_for(Kernel::HashBuild, rows),
                dram_read: ByteCount::new(bytes),
                dram_written: ByteCount::new(rows * 12),
                ..ResourceProfile::default()
            });
        }
    }

    /// Sets the delta row count that triggers an automatic merge on
    /// `table` (`usize::MAX` disables auto-merging).
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`] for unknown tables.
    pub fn set_merge_threshold(&self, table: &str, rows: usize) -> DbResult<()> {
        self.handle(table)?.set_merge_threshold(rows);
        Ok(())
    }

    /// Declares an index on an integer column. Under
    /// [`IndexMaintenance::Eager`] every store the table holds now is
    /// indexed here, and every segment a later merge builds is indexed
    /// by that merge; under [`IndexMaintenance::NeedToKnow`] nothing is,
    /// and each store is indexed by the first query that reads it. The
    /// builds are charged to the meter as the index's maintenance.
    ///
    /// # Errors
    ///
    /// Unknown table/column errors, and [`DbError::TypeMismatch`] for a
    /// column that is not `Int64`.
    pub fn create_index(&self, table: &str, column: &str, maintenance: IndexMaintenance) -> DbResult<()> {
        let handle = self.handle(table)?;
        let t = handle.read();
        // Declared before any store is indexed: a build that fails
        // leaves cells for readers to fill, never an index that is
        // missing its stores. A store a merge publishes meanwhile is
        // indexed by its first reader.
        let index = handle.add_index(check_int_column(&t, table, column)?, maintenance);
        if maintenance == IndexMaintenance::Eager {
            for u in 0..t.store_count() {
                index.on(t.store(u).0, false);
            }
        }
        self.charge_index_builds(&index);
        Ok(())
    }

    /// Work counters of the index on `table.column`: `lookups` counts
    /// the queries that took the index path, `maintenance_ops` the rows
    /// indexed by store builds — eager or on a reader's demand — and
    /// `catchups` the store builds a reader triggered. `None` when the
    /// column has no index.
    pub fn index_stats(&self, table: &str, column: &str) -> Option<IndexStats> {
        let t = self.handle(table).ok()?;
        let idx = t.schema().position(column)?;
        t.indexes().iter().find(|i| i.column == idx).map(|i| i.stats())
    }

    fn exec_ctx(&self) -> ExecutionContext {
        ExecutionContext::parallel(self.machine().pstates().fastest(), self.machine().cores())
    }

    /// Executes a query, charging its energy to the meter.
    ///
    /// Predicates run on compressed data behind zone maps — main
    /// segments' and delta chunks' alike; large tables scan
    /// store-parallel.
    ///
    /// # Errors
    ///
    /// Unknown tables/columns, type mismatches, and malformed queries.
    pub fn execute(&self, query: &Query) -> DbResult<QueryResult> {
        self.execute_opts(query, &ExecOpts::default())
    }

    /// Executes a query with explicit [`ExecOpts`] — the surface a
    /// query server's governor grant (parallelism degree, fleet-wide
    /// in-flight [`haec_exec::pool::MorselGate`], cancel token) travels
    /// through to reach the engine. A nonzero `opts.dop` also opts small
    /// tables into pooled dispatch (the default path only parallelizes
    /// from [`PARALLEL_SCAN_ROWS`] rows of the stores a stage reads).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Database::execute`].
    pub fn execute_opts(&self, query: &Query, opts: &ExecOpts) -> DbResult<QueryResult> {
        self.run(query, opts, |name| {
            self.table(name).map(Cow::Owned).ok_or_else(|| DbError::NoSuchTable(name.to_string()))
        })
    }

    /// Pins a consistent multi-table snapshot: one timestamp from the
    /// shared oracle, every table pinned at it. Queries through the
    /// returned [`DbSnapshot`] all see exactly the rows committed before
    /// that timestamp, however many inserts and merges run concurrently.
    ///
    /// If a concurrent merge folds rows newer than the drawn timestamp
    /// into a table's segments between the draw and the pin, the whole
    /// pin retries with a fresh timestamp (segments carry no per-row
    /// timestamps, so the older cut is no longer servable) — readers
    /// spin briefly instead of ever blocking a writer.
    pub fn begin_snapshot(&self) -> DbSnapshot<'_> {
        let tables = self.tables.read();
        'retry: loop {
            let ts = self.oracle.next();
            let mut pinned = HashMap::with_capacity(tables.len());
            for t in tables.values() {
                match t.pin_at(ts) {
                    Some(s) => {
                        pinned.insert(Arc::clone(s.shared_name()), s);
                    }
                    None => continue 'retry,
                }
            }
            return DbSnapshot { db: self, ts, tables: pinned };
        }
    }

    /// Begins a transaction: a pinned [`DbSnapshot`] plus a private
    /// write overlay. Reads see the snapshot **and** the transaction's
    /// own uncommitted writes (in the spirit of the `haec_txn`
    /// database-conversation model); nothing is visible to others until
    /// [`DbTransaction::commit`].
    pub fn begin_transaction(&self) -> DbTransaction<'_> {
        DbTransaction { snapshot: self.begin_snapshot(), writes: Vec::new() }
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

/// A consistent read view of the whole database as of one timestamp
/// (see [`Database::begin_snapshot`]).
///
/// Holding a `DbSnapshot` keeps the pinned table versions alive (via
/// their `Arc`s) but blocks nobody: writers keep inserting, merges keep
/// swapping segment sets; the old sets are reclaimed when the last
/// snapshot pinning them drops.
#[derive(Debug)]
pub struct DbSnapshot<'a> {
    db: &'a Database,
    ts: Timestamp,
    /// Keyed by the tables' shared names: a pin allocates no string.
    tables: HashMap<Arc<str>, TableSnapshot>,
}

impl DbSnapshot<'_> {
    /// The snapshot's timestamp: exactly the rows with commit timestamp
    /// ≤ this are visible.
    pub fn timestamp(&self) -> Timestamp {
        self.ts
    }

    /// The pinned view of one table (`None` if it did not exist at the
    /// pin).
    pub fn table(&self, name: &str) -> Option<&TableSnapshot> {
        self.tables.get(name)
    }

    /// Executes a query against the pinned state. Work is charged to
    /// the database's meter as usual; the result's `energy` is the
    /// query's own cost, unpolluted by concurrent queries.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Database::execute`]; tables created
    /// after the pin are invisible ([`DbError::NoSuchTable`]).
    pub fn execute(&self, query: &Query) -> DbResult<QueryResult> {
        self.execute_opts(query, &ExecOpts::default())
    }

    /// Executes a query against the pinned state with explicit
    /// [`ExecOpts`] — how a query server runs a governor-granted query
    /// on its pinned snapshot (see [`Database::execute_opts`]).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`DbSnapshot::execute`].
    pub fn execute_opts(&self, query: &Query, opts: &ExecOpts) -> DbResult<QueryResult> {
        self.db.run(query, opts, |name| {
            self.table(name).map(Cow::Borrowed).ok_or_else(|| DbError::NoSuchTable(name.to_string()))
        })
    }
}

/// A transaction: a pinned snapshot plus a private write overlay, giving
/// read-your-own-writes on top of snapshot isolation (see
/// [`Database::begin_transaction`]).
#[derive(Debug)]
pub struct DbTransaction<'a> {
    snapshot: DbSnapshot<'a>,
    writes: Vec<(String, Record)>,
}

impl DbTransaction<'_> {
    /// The transaction's snapshot timestamp.
    pub fn timestamp(&self) -> Timestamp {
        self.snapshot.ts
    }

    /// Number of buffered (uncommitted) writes.
    pub fn pending_writes(&self) -> usize {
        self.writes.len()
    }

    /// Buffers one insert in the transaction's private overlay. The row
    /// is visible to this transaction's own reads immediately, and to
    /// nobody else until [`DbTransaction::commit`].
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`] if the table did not exist at the pin.
    pub fn insert(&mut self, table: &str, record: Record) -> DbResult<()> {
        if !self.snapshot.tables.contains_key(table) {
            return Err(DbError::NoSuchTable(table.to_string()));
        }
        self.writes.push((table.to_string(), record));
        Ok(())
    }

    /// The pinned base snapshot of one table overlaid with this
    /// transaction's pending rows for it.
    fn overlay(&self, table: &str) -> DbResult<TableSnapshot> {
        let base = self.snapshot.tables.get(table).ok_or_else(|| DbError::NoSuchTable(table.to_string()))?;
        let pending: Vec<Record> =
            self.writes.iter().filter(|(t, _)| t == table).map(|(_, r)| r.clone()).collect();
        if pending.is_empty() {
            Ok(base.clone())
        } else {
            base.with_pending(&pending)
        }
    }

    /// Executes a query against the snapshot **plus** this transaction's
    /// own uncommitted writes.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Database::execute`]; overlay rows that
    /// violate the schema surface here.
    pub fn execute(&self, query: &Query) -> DbResult<QueryResult> {
        self.snapshot.db.run(query, &ExecOpts::default(), |name| self.overlay(name).map(Cow::Owned))
    }

    /// Commits the overlay: every buffered write replays through
    /// [`Database::insert`], each drawing a fresh commit timestamp.
    /// Returns the last commit timestamp (the snapshot's timestamp when
    /// the transaction wrote nothing).
    ///
    /// # Errors
    ///
    /// A write that fails validation (e.g. against a schema that
    /// evolved since the pin) aborts the replay; earlier writes of this
    /// transaction stay committed — callers that need atomicity must
    /// pre-validate, as the overlay's own `execute` does.
    pub fn commit(self) -> DbResult<Timestamp> {
        let mut last = self.snapshot.ts;
        for (table, record) in &self.writes {
            last = self.snapshot.db.insert(table, record)?;
        }
        Ok(last)
    }

    /// Discards the overlay; the database is untouched.
    pub fn rollback(self) {
        drop(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{projected_str_columns, str_projection_cost};
    use crate::segment::SEGMENT_ROWS;
    use haec_planner::access::choose_access_segmented;

    fn sample_db(rows: i64) -> Database {
        let db = Database::new();
        db.create_table(
            "orders",
            &[("id", DataType::Int64), ("region", DataType::Int64), ("amount", DataType::Int64)],
        )
        .unwrap();
        for i in 0..rows {
            db.insert("orders", &Record::new().with("id", i).with("region", i % 4).with("amount", i * 3))
                .unwrap();
        }
        db
    }

    #[test]
    fn filter_and_project() {
        let db = sample_db(100);
        let out = db.execute(&Query::scan("orders").filter("amount", CmpOp::Lt, 30).select(["id"])).unwrap();
        assert_eq!(out.rows.rows(), 10);
        assert_eq!(out.rows.width(), 1);
        assert!(out.energy.joules() > 0.0);
    }

    #[test]
    fn conjunctive_filters() {
        let db = sample_db(100);
        let out = db
            .execute(&Query::scan("orders").filter("region", CmpOp::Eq, 1).filter("amount", CmpOp::Lt, 60))
            .unwrap();
        // region==1: ids 1,5,9,...; amount<60 → id*3<60 → id<20 → ids 1,5,9,13,17
        assert_eq!(out.rows.rows(), 5);
    }

    #[test]
    fn global_and_grouped_aggregates() {
        let db = sample_db(100);
        let out = db.execute(&Query::scan("orders").aggregate(AggKind::Sum, "amount")).unwrap();
        let want: i64 = (0..100).map(|i| i * 3).sum();
        assert_eq!(out.rows.row(0).unwrap()[0].as_float(), Some(want as f64));

        let out = db
            .execute(&Query::scan("orders").group_by("region").aggregate(AggKind::Count, "amount"))
            .unwrap();
        assert_eq!(out.rows.rows(), 4);
        for r in 0..4 {
            assert_eq!(out.rows.row(r).unwrap()[1].as_float(), Some(25.0));
        }
    }

    #[test]
    fn segmented_execution_matches_flat() {
        // The core differential guarantee: merging (any number of times)
        // never changes any query answer.
        let queries = [
            Query::scan("orders").filter("amount", CmpOp::Lt, 600),
            Query::scan("orders").filter("region", CmpOp::Eq, 2).filter("amount", CmpOp::Ge, 300),
            Query::scan("orders").filter("id", CmpOp::Gt, 750).select(["id", "amount"]),
            Query::scan("orders").group_by("region").aggregate(AggKind::Sum, "amount"),
            Query::scan("orders").filter("amount", CmpOp::Ne, 0).aggregate(AggKind::Max, "id"),
        ];
        let flat = sample_db(1000);
        let seg = sample_db(1000);
        seg.merge("orders").unwrap();
        let mixed = Database::new();
        mixed
            .create_table(
                "orders",
                &[("id", DataType::Int64), ("region", DataType::Int64), ("amount", DataType::Int64)],
            )
            .unwrap();
        for i in 0..1000i64 {
            mixed
                .insert("orders", &Record::new().with("id", i).with("region", i % 4).with("amount", i * 3))
                .unwrap();
            if i == 311 || i == 702 {
                mixed.merge("orders").unwrap();
            }
        }
        assert_eq!(mixed.table("orders").unwrap().segments().len(), 2);
        for q in &queries {
            let a = flat.execute(q).unwrap();
            let b = seg.execute(q).unwrap();
            let c = mixed.execute(q).unwrap();
            assert_eq!(a.rows.rows(), b.rows.rows(), "{q:?}");
            for r in 0..a.rows.rows() {
                assert_eq!(a.rows.row(r), b.rows.row(r), "{q:?} row {r}");
                assert_eq!(a.rows.row(r), c.rows.row(r), "{q:?} row {r} (mixed)");
            }
        }
    }

    #[test]
    fn merge_is_metered_and_auto_triggers() {
        let db = sample_db(10);
        db.set_merge_threshold("orders", 50).unwrap();
        let before = db.meter().grand_total();
        let stats = db.merge("orders").unwrap();
        assert_eq!(stats.rows_merged, 10);
        assert!(db.meter().grand_total().joules() > before.joules(), "merge must cost energy");
        // Empty merge is free.
        let e0 = db.meter().grand_total();
        assert_eq!(db.merge("orders").unwrap(), MergeStats::default());
        assert_eq!(db.meter().grand_total(), e0);
        // Auto-trigger: inserting past the threshold compacts the delta.
        for i in 10..200i64 {
            db.insert("orders", &Record::new().with("id", i).with("region", i % 4).with("amount", i * 3))
                .unwrap();
        }
        let t = db.table("orders").unwrap();
        assert!(t.delta_rows() < 50, "delta stayed below threshold, got {}", t.delta_rows());
        assert!(t.main_rows() >= 150);
    }

    #[test]
    fn zone_pruning_reduces_scan_energy() {
        // Sorted ids split across segments: a range predicate touching
        // one segment must cost measurably less than one touching all.
        // Build a 4-segment table by merging every 250 rows.
        let seg_db = Database::new();
        seg_db
            .create_table(
                "orders",
                &[("id", DataType::Int64), ("region", DataType::Int64), ("amount", DataType::Int64)],
            )
            .unwrap();
        for i in 0..1000i64 {
            seg_db
                .insert("orders", &Record::new().with("id", i).with("region", i % 4).with("amount", i * 3))
                .unwrap();
            if (i + 1) % 250 == 0 {
                seg_db.merge("orders").unwrap();
            }
        }
        assert_eq!(seg_db.table("orders").unwrap().segments().len(), 4);
        // SUM must stream the surviving values, so pruning 3 of 4
        // segments shows up directly in the energy bill.
        let narrow = seg_db
            .execute(&Query::scan("orders").filter("id", CmpOp::Lt, 100).aggregate(AggKind::Sum, "id"))
            .unwrap();
        let broad = seg_db
            .execute(&Query::scan("orders").filter("id", CmpOp::Ge, 0).aggregate(AggKind::Sum, "id"))
            .unwrap();
        assert_eq!(narrow.rows.row(0).unwrap()[0].as_float(), Some(4950.0));
        assert_eq!(broad.rows.row(0).unwrap()[0].as_float(), Some(499_500.0));
        // The narrow query prunes 3 of 4 segments AND folds fewer rows.
        assert!(narrow.energy.joules() < broad.energy.joules());
        // COUNT under a tautological predicate is answered from segment
        // row counts without touching any column bytes at all.
        let count = seg_db
            .execute(&Query::scan("orders").filter("id", CmpOp::Ge, 0).aggregate(AggKind::Count, "id"))
            .unwrap();
        assert_eq!(count.rows.row(0).unwrap()[0].as_float(), Some(1000.0));
        assert!(count.energy.joules() < narrow.energy.joules());
    }

    #[test]
    fn index_is_used_for_point_queries() {
        let db = sample_db(50_000);
        db.create_index("orders", "id", IndexMaintenance::Eager).unwrap();
        let out = db.execute(&Query::scan("orders").filter("id", CmpOp::Eq, 123)).unwrap();
        assert_eq!(out.rows.rows(), 1);
        assert_eq!(out.access_path, Some(AccessPath::IndexLookup));
        assert_eq!(db.index_stats("orders", "id").unwrap().lookups, 1);
    }

    #[test]
    fn index_works_across_merged_segments() {
        // Row ids are stable across merges, so an index built before a
        // merge keeps answering correctly after it.
        let db = sample_db(50_000);
        db.create_index("orders", "id", IndexMaintenance::Eager).unwrap();
        db.merge("orders").unwrap();
        let out = db
            .execute(&Query::scan("orders").filter("id", CmpOp::Eq, 123).filter("region", CmpOp::Eq, 3))
            .unwrap();
        assert_eq!(out.rows.rows(), 1, "id 123 has region 3");
        let miss = db
            .execute(&Query::scan("orders").filter("id", CmpOp::Eq, 123).filter("region", CmpOp::Eq, 0))
            .unwrap();
        assert_eq!(miss.rows.rows(), 0);
    }

    #[test]
    fn scan_chosen_without_index() {
        let db = sample_db(1000);
        let out = db.execute(&Query::scan("orders").filter("id", CmpOp::Eq, 5)).unwrap();
        assert_eq!(out.rows.rows(), 1);
        assert_eq!(out.access_path, None, "no index: no access decision");
    }

    /// An `orders`-shaped table with `id` shuffled at insert (so sorting
    /// is real work), declared sorted on `id` when `sorted` is set.
    fn shuffled_orders_db(rows: i64, sorted: bool) -> Database {
        let db = Database::new();
        let cols = [("id", DataType::Int64), ("region", DataType::Int64), ("amount", DataType::Int64)];
        if sorted {
            db.create_table_sorted("orders", &cols, "id").unwrap();
        } else {
            db.create_table("orders", &cols).unwrap();
        }
        db.set_merge_threshold("orders", usize::MAX).unwrap();
        let mut ids: Vec<i64> = (0..rows).collect();
        ids.sort_by_key(|&i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64));
        for id in ids {
            db.insert("orders", &Record::new().with("id", id).with("region", id % 4).with("amount", id * 3))
                .unwrap();
        }
        db.merge("orders").unwrap();
        db
    }

    #[test]
    fn sorting_merge_produces_sorted_disjoint_segments() {
        let db = shuffled_orders_db(3 * SEGMENT_ROWS as i64 / 2, true);
        let t = db.table("orders").unwrap();
        let zones = t.zone_maps("id").unwrap();
        assert!(zones.iter().all(|z| z.sorted), "every segment claims sortedness");
        assert!(haec_planner::access::sorted_layout(&zones), "zones are disjoint ascending");
        // Non-key columns rode along with the permutation.
        let out = db.execute(&Query::scan("orders").filter("id", CmpOp::Eq, 123)).unwrap();
        assert_eq!(out.rows.rows(), 1);
        let row = out.rows.row(0).unwrap();
        assert_eq!(row[1].as_int(), Some(3), "region permuted with id");
        assert_eq!(row[2].as_int(), Some(369), "amount permuted with id");
    }

    #[test]
    fn sorted_point_query_uses_zone_binary_search_and_reads_less() {
        let rows = 3 * SEGMENT_ROWS as i64 / 2;
        let sorted = shuffled_orders_db(rows, true);
        let unsorted = shuffled_orders_db(rows, false);
        let q = Query::scan("orders").filter("id", CmpOp::Eq, 123);
        let s = sorted.execute(&q).unwrap();
        let u = unsorted.execute(&q).unwrap();
        assert_eq!(s.access_path, Some(AccessPath::ZoneBinarySearch));
        assert_eq!(u.access_path, None, "unsorted, unindexed: no access decision");
        assert_eq!(s.rows.rows(), 1);
        assert_eq!(u.rows.rows(), 1);
        assert!(
            s.profile.dram_read < u.profile.dram_read,
            "binary search must read fewer bytes: {} vs {}",
            s.profile.dram_read,
            u.profile.dram_read,
        );
        assert!(s.energy.joules() < u.energy.joules());
    }

    #[test]
    fn sorted_range_and_aggregate_agree_with_unsorted() {
        let rows = SEGMENT_ROWS as i64 + 1000;
        let sorted = shuffled_orders_db(rows, true);
        let unsorted = shuffled_orders_db(rows, false);
        for q in [
            Query::scan("orders").filter("id", CmpOp::Lt, 500).aggregate(AggKind::Sum, "amount"),
            Query::scan("orders").filter("id", CmpOp::Ge, rows - 300).aggregate(AggKind::Count, "id"),
            Query::scan("orders")
                .filter("id", CmpOp::Gt, 100)
                .filter("region", CmpOp::Eq, 1)
                .aggregate(AggKind::Sum, "id"),
        ] {
            let s = sorted.execute(&q).unwrap();
            let u = unsorted.execute(&q).unwrap();
            assert_eq!(s.rows.row(0).unwrap()[0], u.rows.row(0).unwrap()[0]);
        }
    }

    #[test]
    fn sorting_merge_leaves_pinned_snapshots_their_own_index() {
        let rows = SEGMENT_ROWS as i64 + 1000;
        let db = shuffled_orders_db(rows, true);
        db.create_index("orders", "amount", IndexMaintenance::Eager).unwrap();
        // Pin a snapshot, then run a sorting merge that permutes new rows.
        let snap = db.begin_snapshot();
        for i in 0..2000 {
            let id = rows + (i * 7919) % 2000;
            db.insert("orders", &Record::new().with("id", id).with("region", 0).with("amount", id * 3))
                .unwrap();
        }
        db.merge("orders").unwrap();
        let stats = db.index_stats("orders", "amount").unwrap();
        assert_eq!(stats.maintenance_ops, rows as u64 + 2000, "the merge indexed its new segment");
        // Each view reads the index of the stores it pinned: the live
        // table the permuted segment's, the snapshot its own two (a
        // literal past every zone it pinned is a scan of nothing).
        let point = |id: i64| Query::scan("orders").filter("amount", CmpOp::Eq, id * 3).select(["id"]);
        for (id, live_rows, pinned_rows) in
            [(123, 1, 1), (rows, 1, 0), (rows + 1234, 1, 0), (rows + 1999, 1, 0)]
        {
            let live = db.execute(&point(id)).unwrap();
            let old = snap.execute(&point(id)).unwrap();
            assert_eq!((live.rows.rows(), old.rows.rows()), (live_rows, pinned_rows), "id {id}");
            assert_eq!(live.access_path, Some(AccessPath::IndexLookup), "id {id}");
            if pinned_rows == 1 {
                assert_eq!(old.access_path, Some(AccessPath::IndexLookup), "id {id}");
            }
            assert_eq!(live.rows.row(0).unwrap(), vec![Value::Int(id)]);
        }
        assert_eq!(db.index_stats("orders", "amount").unwrap().catchups, 0, "no reader built a store");
    }

    #[test]
    fn sorted_string_key_orders_by_dictionary_code() {
        // String sort keys order by *global dictionary code* — first
        // appearance, not collation. "zebra" was interned first, so it
        // sorts before "apple".
        let db = Database::new();
        db.create_table_sorted("t", &[("k", DataType::Str), ("v", DataType::Int64)], "k").unwrap();
        db.set_merge_threshold("t", usize::MAX).unwrap();
        for (k, v) in [("zebra", 1i64), ("apple", 2), ("zebra", 3), ("mango", 4), ("apple", 5)] {
            db.insert("t", &Record::new().with("k", k).with("v", v)).unwrap();
        }
        db.merge("t").unwrap();
        let t = db.table("t").unwrap();
        let seg = &t.segments()[0];
        assert_eq!(seg.sorted_by(), Some(0));
        let codes: Vec<i64> = (0..5).map(|i| seg.get_int(0, i).unwrap()).collect();
        assert!(codes.windows(2).all(|w| w[0] <= w[1]), "codes ascending: {codes:?}");
        // Equality still resolves correctly, and the stable sort kept
        // duplicate keys in insertion order.
        let out = db.execute(&Query::scan("t").filter_str_eq("k", "zebra")).unwrap();
        assert_eq!(out.rows.rows(), 2);
        let vs: Vec<_> = (0..2).map(|r| out.rows.row(r).unwrap()[1].as_int().unwrap()).collect();
        assert_eq!(vs, [1, 3], "stable sort preserves insertion order within a key");
    }

    #[test]
    fn sorted_join_sides_agree_with_unsorted() {
        let build = |sorted: bool| {
            let db = Database::new();
            let cols = [("k", DataType::Int64), ("v", DataType::Int64)];
            if sorted {
                db.create_table_sorted("l", &cols, "k").unwrap();
                db.create_table_sorted("r", &cols, "k").unwrap();
            } else {
                db.create_table("l", &cols).unwrap();
                db.create_table("r", &cols).unwrap();
            }
            for t in ["l", "r"] {
                db.set_merge_threshold(t, usize::MAX).unwrap();
            }
            for i in 0..2000i64 {
                let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64) % 500;
                db.insert("l", &Record::new().with("k", k).with("v", i)).unwrap();
                if i % 3 == 0 {
                    db.insert("r", &Record::new().with("k", k).with("v", -i)).unwrap();
                }
            }
            db.merge("l").unwrap();
            db.merge("r").unwrap();
            db
        };
        let q = Query::scan("l").join("r", "k", "k").filter("k", CmpOp::Ge, 0);
        let s = build(true).execute(&q).unwrap();
        let u = build(false).execute(&q).unwrap();
        assert_eq!(s.rows.rows(), u.rows.rows());
        let canon = |out: &QueryResult| {
            let mut rows: Vec<Vec<String>> = (0..out.rows.rows())
                .map(|r| out.rows.row(r).unwrap().iter().map(|v| format!("{v:?}")).collect())
                .collect();
            rows.sort();
            rows
        };
        assert_eq!(canon(&s), canon(&u));
    }

    #[test]
    fn index_and_scan_agree() {
        let with_idx = sample_db(10_000);
        with_idx.create_index("orders", "region", IndexMaintenance::Eager).unwrap();
        let without = sample_db(10_000);
        let q = Query::scan("orders").filter("region", CmpOp::Eq, 2).aggregate(AggKind::Sum, "amount");
        let a = with_idx.execute(&q).unwrap();
        let b = without.execute(&q).unwrap();
        assert_eq!(a.rows.row(0).unwrap()[0], b.rows.row(0).unwrap()[0]);
    }

    #[test]
    fn energy_goal_changes_nothing_single_node_but_is_respected() {
        let db = sample_db(10_000);
        db.create_index("orders", "id", IndexMaintenance::Eager).unwrap();
        db.set_goal(Goal::MinEnergy);
        assert_eq!(db.goal(), Goal::MinEnergy);
        let out = db.execute(&Query::scan("orders").filter("id", CmpOp::Eq, 7)).unwrap();
        // On one node the energy- and time-optimal access coincide (E1).
        assert_eq!(out.access_path, Some(AccessPath::IndexLookup));
    }

    #[test]
    fn over_budget_projection_still_takes_dominant_index() {
        // The projection term is added to BOTH access-path candidates;
        // when it pushes both past an energy budget, the planner must
        // fall back to ranking the access work alone instead of
        // silently defaulting to the (strictly worse) full scan.
        let db = Database::new();
        db.create_table("users", &[("id", DataType::Int64), ("country", DataType::Str)]).unwrap();
        for i in 0..50_000i64 {
            db.insert(
                "users",
                &Record::new().with("id", i).with("country", ["de", "us", "fr"][i as usize % 3]),
            )
            .unwrap();
        }
        db.create_index("users", "id", IndexMaintenance::Eager).unwrap();
        // Recompute the two candidates exactly as execute() does, to pick
        // a budget the index access fits but the whole query does not.
        let t = db.table("users").unwrap();
        let mut meta = t.planner_meta();
        meta.columns.iter_mut().find(|c| c.name == "id").unwrap().indexed = true;
        let zones = t.zone_maps("id").unwrap();
        let encoded = t.column_encoded_bytes("id").unwrap() as u64;
        let model = &db.model;
        let decision = choose_access_segmented(model, &meta, "id", CmpOp::Eq, 123, &zones, encoded);
        let q = Query::scan("users").filter("id", CmpOp::Eq, 123);
        let project =
            str_projection_cost(model, &t, &meta, &projected_str_columns(&t, &q), decision.selectivity);
        assert!(project.energy.joules() > 0.0, "string projection must cost something");
        let index = decision.index_cost.expect("point predicate on an indexed column");
        let budget = Joules::new(index.energy.joules() + project.energy.joules() / 2.0);
        assert!((index + project).energy.joules() > budget.joules());
        db.set_goal(Goal::MinTimeUnderEnergyBudget(budget));
        let out = db.execute(&q).unwrap();
        assert_eq!(out.access_path, Some(AccessPath::IndexLookup));
        assert_eq!(out.rows.rows(), 1);
    }

    #[test]
    fn a_first_reader_pays_nothing_in_its_bill() {
        // Two sealed chunks and the open chunk's prefix. The first query
        // to read the sealed chunks builds their column views; its bill is
        // what every later run bills, at every grant, and the encode goes
        // to the meter instead — once per (chunk, column) read.
        let q = Query::scan("orders").filter("amount", CmpOp::Ge, 900).aggregate(AggKind::Sum, "region");
        let read = ["region", "amount"];
        let mut results = Vec::new();
        let rows = 2 * crate::table::DELTA_CHUNK_ROWS as i64 + 10;
        for dop in [1, 2] {
            // `twin` sees the same inserts, then only the charges expected.
            let (db, twin) = (sample_db(rows), sample_db(rows));
            let t = db.table("orders").unwrap();
            let sealed: Vec<_> = (0..t.store_count())
                .filter_map(|u| match t.store(u).0 {
                    crate::table::Store::Chunk { chunk, sealed: true } => Some(chunk),
                    _ => None,
                })
                .collect();
            assert_eq!(sealed.len(), 2);
            for run in 0..3 {
                let out = db.execute_opts(&q, &ExecOpts::with_dop(dop)).unwrap();
                twin.charge(&out.profile);
                if run == 0 {
                    let (mut raw, mut encoded) = (0, 0);
                    for (chunk, name) in sealed.iter().flat_map(|c| read.map(|n| (c, n))) {
                        let view = chunk.column(t.schema().position(name).unwrap(), true).unwrap();
                        raw += view.raw_bytes(chunk.rows());
                        encoded += view.encoded_bytes();
                    }
                    assert!(raw > encoded, "the views are encoded");
                    twin.charge_encode(raw, encoded);
                }
                assert_eq!(db.meter().grand_total(), twin.meter().grand_total(), "dop {dop}, run {run}");
                results.push((out.rows, out.profile));
            }
        }
        assert!(results.windows(2).all(|w| w[0] == w[1]), "one answer and one bill: {results:?}");
    }

    #[test]
    fn meter_accumulates_across_queries() {
        let db = sample_db(1000);
        let before = db.meter().grand_total();
        db.execute(&Query::scan("orders").aggregate(AggKind::Sum, "amount")).unwrap();
        let mid = db.meter().grand_total();
        // Filtered: an unfiltered MAX is answered from the zone map for
        // free, in the delta as in a segment.
        db.execute(&Query::scan("orders").filter("amount", CmpOp::Gt, 30).aggregate(AggKind::Max, "amount"))
            .unwrap();
        let after = db.meter().grand_total();
        assert!(mid > before);
        assert!(after > mid);
    }

    #[test]
    fn error_paths() {
        let db = sample_db(10);
        assert!(matches!(db.execute(&Query::scan("nope")), Err(DbError::NoSuchTable(_))));
        assert!(matches!(
            db.execute(&Query::scan("orders").filter("ghost", CmpOp::Eq, 1)),
            Err(DbError::NoSuchColumn { .. })
        ));
        assert!(matches!(db.execute(&Query::scan("orders").group_by("region")), Err(DbError::BadQuery(_))));
        assert!(matches!(db.create_table("orders", &[]), Err(DbError::TableExists(_))));
        assert!(db.create_index("orders", "ghost", IndexMaintenance::Eager).is_err());
        assert!(matches!(db.merge("nope"), Err(DbError::NoSuchTable(_))));
        assert!(matches!(db.set_merge_threshold("nope", 1), Err(DbError::NoSuchTable(_))));
    }

    #[test]
    fn duplicate_output_names_are_bad_queries() {
        // A projection naming one column twice, and a group column named
        // like the aggregate's own output, collide in the result chunk:
        // a typed error on every entry point, pooled or not — never a
        // panic.
        let db = sample_db(100);
        db.create_table("g", &[("sum(v)", DataType::Int64), ("v", DataType::Int64)]).unwrap();
        for i in 0..10i64 {
            db.insert("g", &Record::new().with("sum(v)", i % 3).with("v", i)).unwrap();
        }
        db.merge("orders").unwrap();
        let queries = [
            Query::scan("orders").select(["amount", "amount"]),
            Query::scan("orders").filter("amount", CmpOp::Lt, 30).select(["id", "region", "id"]),
            Query::scan("g").group_by("sum(v)").aggregate(AggKind::Sum, "v"),
        ];
        let snap = db.begin_snapshot();
        let mut txn = db.begin_transaction();
        txn.insert("orders", Record::new().with("id", 100i64).with("region", 0i64).with("amount", 1i64))
            .unwrap();
        for q in &queries {
            let bad =
                |r: DbResult<QueryResult>| matches!(r, Err(DbError::BadQuery(m)) if m.contains("duplicate"));
            assert!(bad(db.execute(q)), "{q:?}");
            assert!(bad(snap.execute_opts(q, &ExecOpts::with_dop(2))), "{q:?}");
            assert!(bad(txn.execute(q)), "{q:?}");
        }
        // Distinct names still answer.
        let out = db.execute(&Query::scan("g").group_by("v").aggregate(AggKind::Sum, "sum(v)")).unwrap();
        assert_eq!(out.rows.rows(), 10);
    }

    #[test]
    fn string_filters_on_dictionary_codes() {
        let db = Database::new();
        db.create_table("users", &[("id", DataType::Int64), ("country", DataType::Str)]).unwrap();
        let countries = ["de", "us", "fr", "de", "de", "jp"];
        for (i, c) in countries.iter().enumerate() {
            db.insert("users", &Record::new().with("id", i as i64).with("country", *c)).unwrap();
        }
        // Exercise both storage forms: flat delta, then merged main.
        for merged in [false, true] {
            if merged {
                db.merge("users").unwrap();
            }
            let eq = db.execute(&Query::scan("users").filter_str_eq("country", "de")).unwrap();
            assert_eq!(eq.rows.rows(), 3, "merged={merged}");
            let ne = db.execute(&Query::scan("users").filter_str_ne("country", "de")).unwrap();
            assert_eq!(ne.rows.rows(), 3, "merged={merged}");
            // Unknown value: `=` empty, `<>` everything.
            assert_eq!(
                db.execute(&Query::scan("users").filter_str_eq("country", "zz")).unwrap().rows.rows(),
                0
            );
            assert_eq!(
                db.execute(&Query::scan("users").filter_str_ne("country", "zz")).unwrap().rows.rows(),
                6
            );
            // Combined with an integer predicate.
            let both = db
                .execute(&Query::scan("users").filter("id", CmpOp::Lt, 4).filter_str_eq("country", "de"))
                .unwrap();
            assert_eq!(both.rows.rows(), 2, "merged={merged}");
            // Wrong type errors cleanly.
            assert!(matches!(
                db.execute(&Query::scan("users").filter_str_eq("id", "de")),
                Err(DbError::TypeMismatch { .. })
            ));
        }
    }

    #[test]
    fn string_projection_reaches_client_as_codes() {
        let db = Database::new();
        db.create_table("users", &[("id", DataType::Int64), ("country", DataType::Str)]).unwrap();
        let countries = ["de", "us", "fr", "de", "de", "jp"];
        for i in 0..1200i64 {
            db.insert(
                "users",
                &Record::new().with("id", i).with("country", countries[i as usize % countries.len()]),
            )
            .unwrap();
        }
        db.merge("users").unwrap();
        // Post-merge delta rows: one value the global dictionary already
        // holds, one fresh (dictionary growth).
        db.insert("users", &Record::new().with("id", 1200i64).with("country", "de")).unwrap();
        db.insert("users", &Record::new().with("id", 1201i64).with("country", "br")).unwrap();
        let out = db.execute(&Query::scan("users").select(["country"])).unwrap();
        let col = out.rows.column("country").unwrap().as_str().unwrap();
        assert_eq!(col.len(), 1202);
        // Codes-to-client: one shared output dictionary, each distinct
        // value decoded once — across the main and delta code spaces.
        assert_eq!(col.dict_size(), 5, "de/us/fr/jp/br");
        assert_eq!(col.get(0), Some("de"));
        assert_eq!(col.get(1201), Some("br"));
        // The dense projection is billed: encoded code bytes + first-
        // touch dictionary entries + delta codes — real, but far below
        // the 8 B/row a decode-early string materialization would move.
        assert!(out.profile.dram_read.bytes() > 0, "projection reads must be billed");
        assert!(out.profile.dram_read.bytes() < 1202 * 8);
        // A filtered (sparse) projection still decodes correctly.
        let sparse =
            db.execute(&Query::scan("users").filter("id", CmpOp::Eq, 5).select(["country"])).unwrap();
        assert_eq!(sparse.rows.column("country").unwrap().as_str().unwrap().get(0), Some("jp"));
        assert_eq!(sparse.rows.column("country").unwrap().as_str().unwrap().dict_size(), 1);
    }

    #[test]
    fn parallel_scan_path_matches_serial() {
        // Above the threshold the scan runs segment-parallel (auto-merge
        // has produced multiple 64K segments by now); results must be
        // identical to the serial reference.
        let rows = (super::PARALLEL_SCAN_ROWS + 10_000) as i64;
        let db = Database::new();
        db.create_table("big", &[("v", DataType::Int64)]).unwrap();
        for i in 0..rows {
            db.insert("big", &Record::new().with("v", (i * 31) % 1000)).unwrap();
        }
        let t = db.table("big").unwrap();
        assert!(t.segments().len() > 1, "auto-merge should have built segments");
        let out = db.execute(&Query::scan("big").filter("v", CmpOp::Lt, 100)).unwrap();
        let expected = (0..rows).filter(|i| (i * 31) % 1000 < 100).count();
        assert_eq!(out.rows.rows(), expected);
        // Ordering preserved (segments are re-stitched in row order).
        let first_vals = out.rows.column("v").unwrap().as_int64().unwrap();
        let reference: Vec<i64> = (0..rows).map(|i| (i * 31) % 1000).filter(|&v| v < 100).take(32).collect();
        assert_eq!(&first_vals[..32], &reference[..]);
    }

    #[test]
    fn projection_skips_unprojected_columns() {
        // Same filter, narrower projection → strictly less energy
        // (fewer columns materialized and written).
        let wide = sample_db(50_000);
        let narrow = sample_db(50_000);
        let all = wide.execute(&Query::scan("orders").filter("amount", CmpOp::Lt, 60_000)).unwrap();
        let one = narrow
            .execute(&Query::scan("orders").filter("amount", CmpOp::Lt, 60_000).select(["id"]))
            .unwrap();
        assert_eq!(all.rows.rows(), one.rows.rows());
        assert!(one.energy.joules() < all.energy.joules());
    }

    #[test]
    fn compressed_scan_beats_flat_on_energy() {
        // The acceptance-criterion shape at unit-test scale: identical
        // data and query, merged (compressed, zone-mapped) vs flat
        // delta. Compressible data → fewer DRAM bytes → less energy.
        let rows = (SEGMENT_ROWS * 2) as i64;
        let mk = || {
            let db = Database::new();
            db.create_table("t", &[("ts", DataType::Int64), ("v", DataType::Int64)]).unwrap();
            db.set_merge_threshold("t", usize::MAX).unwrap();
            for i in 0..rows {
                db.insert("t", &Record::new().with("ts", 1_600_000_000 + i).with("v", i % 16)).unwrap();
            }
            db
        };
        let flat = mk();
        let merged = mk();
        merged.merge("t").unwrap();
        let q = Query::scan("t").filter("v", CmpOp::Lt, 4).aggregate(AggKind::Count, "v");
        let a = flat.execute(&q).unwrap();
        let b = merged.execute(&q).unwrap();
        assert_eq!(a.rows.row(0).unwrap()[0], b.rows.row(0).unwrap()[0]);
        assert!(
            b.energy.joules() < a.energy.joules(),
            "compressed scan {} J should beat flat {} J",
            b.energy.joules(),
            a.energy.joules()
        );
    }

    #[test]
    fn segment_aggregation_is_metered_and_zone_answered() {
        let db = sample_db(10_000);
        db.merge("orders").unwrap();
        // Pushed-down SUM streams the encoded column: nonzero decode
        // cycles and encoded-byte DRAM traffic must be billed…
        let sum = db.execute(&Query::scan("orders").aggregate(AggKind::Sum, "amount")).unwrap();
        let want: f64 = (0..10_000).map(|i| (i * 3) as f64).sum();
        assert_eq!(sum.rows.row(0).unwrap()[0].as_float(), Some(want));
        assert!(sum.profile.dram_read.bytes() > 0, "segment aggregation must bill DRAM traffic");
        assert!(sum.profile.cpu_cycles.count() > 0, "segment aggregation must bill decode cycles");
        // …but only the *encoded* bytes, never the flat 8 B/row the
        // gather path used to bill (amount = 3·i delta-encodes tightly).
        assert!(sum.profile.dram_read.bytes() < 10_000 * 8);
        // MIN/MAX over tautological segments answer from zone maps:
        // zero column bytes touched.
        for kind in [AggKind::Min, AggKind::Max, AggKind::Count] {
            let out = db.execute(&Query::scan("orders").aggregate(kind, "amount")).unwrap();
            assert_eq!(out.profile.dram_read.bytes(), 0, "{kind} should be zone-answered");
            assert!(out.energy.joules() < sum.energy.joules(), "{kind} must beat the streaming SUM");
        }
        let max = db.execute(&Query::scan("orders").aggregate(AggKind::Max, "amount")).unwrap();
        assert_eq!(max.rows.row(0).unwrap()[0].as_float(), Some(9_999.0 * 3.0));
    }

    #[test]
    fn grouped_pushdown_parallel_matches_serial() {
        // Above PARALLEL_SCAN_ROWS the aggregation dispatches segments as
        // morsels; answers must equal the small/serial reference shape.
        let rows = (super::PARALLEL_SCAN_ROWS + 5_000) as i64;
        let db = Database::new();
        db.create_table("big", &[("g", DataType::Int64), ("v", DataType::Int64)]).unwrap();
        for i in 0..rows {
            db.insert("big", &Record::new().with("g", i % 7).with("v", i % 100)).unwrap();
        }
        assert!(db.table("big").unwrap().segments().len() > 1);
        let out = db
            .execute(
                &Query::scan("big").filter("v", CmpOp::Lt, 50).group_by("g").aggregate(AggKind::Sum, "v"),
            )
            .unwrap();
        assert_eq!(out.rows.rows(), 7);
        for r in 0..7 {
            let g = out.rows.row(r).unwrap()[0].as_int().unwrap();
            let want: i64 = (0..rows).filter(|i| i % 7 == g && i % 100 < 50).map(|i| i % 100).sum();
            assert_eq!(out.rows.row(r).unwrap()[1].as_float(), Some(want as f64), "group {g}");
        }
    }

    #[test]
    fn group_by_string_column_on_dictionary_codes() {
        let db = Database::new();
        db.create_table("users", &[("country", DataType::Str), ("score", DataType::Int64)]).unwrap();
        let data = [("de", 10), ("us", 20), ("de", 30), ("fr", 5), ("us", 7), ("de", 2)];
        for (c, s) in data {
            db.insert("users", &Record::new().with("country", c).with("score", s as i64)).unwrap();
        }
        // Both storage forms, plus the mixed case with post-merge rows.
        for stage in 0..3 {
            if stage == 1 {
                db.merge("users").unwrap();
            }
            if stage == 2 {
                db.insert("users", &Record::new().with("country", "jp").with("score", 99i64)).unwrap();
                db.insert("users", &Record::new().with("country", "de").with("score", 1i64)).unwrap();
            }
            let out = db
                .execute(&Query::scan("users").group_by("country").aggregate(AggKind::Sum, "score"))
                .unwrap();
            let mut want = vec![("de", 42.0), ("fr", 5.0), ("us", 27.0)];
            if stage == 2 {
                want = vec![("de", 43.0), ("fr", 5.0), ("jp", 99.0), ("us", 27.0)];
            }
            assert_eq!(out.rows.rows(), want.len(), "stage {stage}");
            for (r, (c, s)) in want.iter().enumerate() {
                assert_eq!(out.rows.row(r).unwrap()[0], Value::Str(c.to_string()), "stage {stage}");
                assert_eq!(out.rows.row(r).unwrap()[1].as_float(), Some(*s), "stage {stage}");
            }
        }
        // Grouping on a float column stays an error.
        let fdb = Database::new();
        fdb.create_table("t", &[("f", DataType::Float64), ("v", DataType::Int64)]).unwrap();
        assert!(matches!(
            fdb.execute(&Query::scan("t").group_by("f").aggregate(AggKind::Sum, "v")),
            Err(DbError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn create_index_backfill_is_metered() {
        let db = sample_db(5_000);
        db.merge("orders").unwrap();
        let before = db.meter().grand_total();
        db.create_index("orders", "id", IndexMaintenance::Eager).unwrap();
        assert!(db.meter().grand_total().joules() > before.joules(), "index backfill must charge the meter");
    }

    #[test]
    fn insert_bills_string_payload_bytes() {
        let db = Database::new();
        db.create_table("t", &[("s", DataType::Str)]).unwrap();
        db.insert("t", &Record::new().with("s", "x")).unwrap();
        let short = db.meter().grand_total().joules();
        db.insert("t", &Record::new().with("s", "x".repeat(10_000).as_str())).unwrap();
        let long = db.meter().grand_total().joules() - short;
        assert!(long > short, "a 10 KB string must cost more to ingest than one byte");
    }

    /// A two-table schema for join tests: a small dimension table and a
    /// larger fact table, with both int and string join keys.
    fn join_dbs(users: i64, orders: i64) -> Database {
        let db = Database::new();
        db.create_table("users", &[("uid", DataType::Int64), ("country", DataType::Str)]).unwrap();
        db.create_table(
            "orders",
            &[("user_id", DataType::Int64), ("amount", DataType::Int64), ("country", DataType::Str)],
        )
        .unwrap();
        let countries = ["de", "us", "fr", "jp"];
        for i in 0..users {
            db.insert(
                "users",
                &Record::new().with("uid", i).with("country", countries[i as usize % countries.len()]),
            )
            .unwrap();
        }
        for i in 0..orders {
            db.insert(
                "orders",
                &Record::new()
                    .with("user_id", i % (users * 2).max(1)) // half the orders dangle
                    .with("amount", i * 3)
                    .with("country", countries[(i as usize / 2) % countries.len()]),
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn join_int_keys_matches_nested_loop_across_layouts() {
        let q = Query::scan("orders")
            .join("users", "user_id", "uid")
            .filter("amount", CmpOp::Lt, 120)
            .select(["user_id", "amount", "users.country"]);
        let reference: Vec<(i64, i64, &str)> = (0..100i64)
            .map(|i| (i % 80, i * 3))
            .filter(|&(_, amt)| amt < 120)
            .filter(|&(uid, _)| uid < 40)
            .map(|(uid, amt)| (uid, amt, ["de", "us", "fr", "jp"][uid as usize % 4]))
            .collect();
        // Flat, fully merged, and mixed main/delta on both tables.
        for stage in 0..3 {
            let db = join_dbs(40, 100);
            if stage >= 1 {
                db.merge("users").unwrap();
                db.merge("orders").unwrap();
            }
            if stage == 2 {
                db.insert(
                    "orders",
                    &Record::new().with("user_id", 5i64).with("amount", 7i64).with("country", "de"),
                )
                .unwrap();
            }
            let out = db.execute(&q).unwrap();
            let mut got: Vec<(i64, i64, Value)> = (0..out.rows.rows())
                .map(|r| {
                    let row = out.rows.row(r).unwrap();
                    (row[0].as_int().unwrap(), row[1].as_int().unwrap(), row[2].clone())
                })
                .collect();
            let mut want: Vec<(i64, i64, Value)> =
                reference.iter().map(|&(u, a, c)| (u, a, Value::Str(c.to_string()))).collect();
            if stage == 2 {
                want.push((5, 7, Value::Str("us".into()))); // uid 5 % 4 = 1 → "us"
            }
            let key = |v: &(i64, i64, Value)| (v.0, v.1, format!("{:?}", v.2));
            got.sort_by_key(key);
            want.sort_by_key(key);
            assert_eq!(got, want, "stage {stage}");
            assert!(out.energy.joules() > 0.0);
        }
    }

    #[test]
    fn join_string_keys_code_to_code() {
        // Join on the string column: codes remap across the two tables'
        // dictionaries (interned in different orders), including values
        // fresh in one side's delta.
        let db = join_dbs(8, 40);
        db.merge("users").unwrap();
        db.merge("orders").unwrap();
        // Fresh post-merge values on both sides: "br" only joins via the
        // delta-fresh key space; "zz" must join with nothing.
        db.insert("users", &Record::new().with("uid", 100i64).with("country", "br")).unwrap();
        db.insert("orders", &Record::new().with("user_id", 0i64).with("amount", 1i64).with("country", "br"))
            .unwrap();
        db.insert("orders", &Record::new().with("user_id", 0i64).with("amount", 2i64).with("country", "zz"))
            .unwrap();
        let q = Query::scan("users").join("orders", "country", "country").select(["uid", "orders.amount"]);
        let out = db.execute(&q).unwrap();
        // Reference nested loop over the decoded tables.
        let users = db.table("users").unwrap().to_chunk();
        let orders = db.table("orders").unwrap().to_chunk();
        let mut want = Vec::new();
        for u in 0..users.rows() {
            for o in 0..orders.rows() {
                if users.row(u).unwrap()[1] == orders.row(o).unwrap()[2] {
                    want.push((
                        users.row(u).unwrap()[0].as_int().unwrap(),
                        orders.row(o).unwrap()[1].as_int().unwrap(),
                    ));
                }
            }
        }
        let mut got: Vec<(i64, i64)> = (0..out.rows.rows())
            .map(|r| {
                let row = out.rows.row(r).unwrap();
                (row[0].as_int().unwrap(), row[1].as_int().unwrap())
            })
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert!(want.iter().any(|&(u, _)| u == 100), "delta-fresh key must join");
        assert_eq!(got, want);
    }

    #[test]
    fn join_on_compressed_segments_never_decodes_keys() {
        // The acceptance criterion: joining two merged tables must not
        // decode the key columns — the billed DRAM traffic stays below
        // what the flat 8 B/row keys alone would cost.
        let rows = 2 * SEGMENT_ROWS as i64;
        let dim = 1024i64;
        let db = Database::new();
        db.create_table("d", &[("k", DataType::Int64), ("tag", DataType::Str)]).unwrap();
        db.create_table("f", &[("fk", DataType::Int64), ("v", DataType::Int64)]).unwrap();
        db.set_merge_threshold("d", usize::MAX).unwrap();
        db.set_merge_threshold("f", usize::MAX).unwrap();
        for i in 0..dim {
            db.insert("d", &Record::new().with("k", i).with("tag", if i % 2 == 0 { "a" } else { "b" }))
                .unwrap();
        }
        for i in 0..rows {
            db.insert("f", &Record::new().with("fk", i % dim).with("v", i)).unwrap();
        }
        db.merge("d").unwrap();
        db.merge("f").unwrap();
        let q = Query::scan("f")
            .join("d", "fk", "k")
            .filter("v", CmpOp::Lt, 64) // keep the gather small
            .select(["fk", "v", "d.tag"]);
        let out = db.execute(&q).unwrap();
        assert_eq!(out.rows.rows(), 64);
        let flat_key_bytes = ((rows + dim) * 8) as u64;
        assert!(
            out.profile.dram_read.bytes() < flat_key_bytes,
            "join billed {} B but flat keys alone would be {} B — keys were decoded",
            out.profile.dram_read.bytes(),
            flat_key_bytes
        );
        assert!(out.profile.cpu_cycles.count() > 0);
    }

    #[test]
    fn join_zone_pruning_skips_probe_segments() {
        // Sorted fact keys split over 4 segments; a dimension covering
        // only the first quarter must leave 3 probe segments untouched,
        // which shows up directly in the bytes billed.
        let mk = |dim_hi: i64| {
            let db = Database::new();
            db.create_table("d", &[("k", DataType::Int64)]).unwrap();
            db.create_table("f", &[("fk", DataType::Int64), ("v", DataType::Int64)]).unwrap();
            db.set_merge_threshold("d", usize::MAX).unwrap();
            db.set_merge_threshold("f", usize::MAX).unwrap();
            for i in 0..dim_hi {
                db.insert("d", &Record::new().with("k", i * 97)).unwrap();
            }
            db.merge("d").unwrap();
            for i in 0..1000i64 {
                db.insert("f", &Record::new().with("fk", i).with("v", i)).unwrap();
                if (i + 1) % 250 == 0 {
                    db.merge("f").unwrap();
                }
            }
            db
        };
        let q = Query::scan("f").join("d", "fk", "k").select(["fk"]);
        let narrow = mk(2); // keys {0, 97}: only segment 1 of f can match
        let broad = mk(11); // keys up to 970: every segment survives
        let n = narrow.execute(&q).unwrap();
        let b = broad.execute(&q).unwrap();
        assert_eq!(n.rows.rows(), 2);
        assert_eq!(b.rows.rows(), 11);
        assert!(
            n.profile.dram_read.bytes() < b.profile.dram_read.bytes(),
            "pruned probe ({} B) must read less than the broad one ({} B)",
            n.profile.dram_read.bytes(),
            b.profile.dram_read.bytes()
        );
        assert!(n.energy.joules() < b.energy.joules());
    }

    #[test]
    fn join_with_filters_on_both_sides_and_self_join() {
        let db = join_dbs(40, 100);
        db.merge("users").unwrap();
        let out = db
            .execute(
                &Query::scan("orders")
                    .join("users", "user_id", "uid")
                    .filter("amount", CmpOp::Lt, 150)
                    .join_filter("uid", CmpOp::Lt, 10)
                    .join_filter_str_ne("country", "us")
                    .select(["user_id", "users.country"]),
            )
            .unwrap();
        let want = (0..50i64) // amount = i*3 < 150
            .map(|i| i % 80)
            .filter(|&u| u < 10 && u % 4 != 1)
            .count();
        assert_eq!(out.rows.rows(), want);
        // Self-join: every user pairs with the users sharing its
        // country; the default projection keeps both sides' columns
        // apart (left bare, right prefixed).
        let selfj = db.execute(&Query::scan("users").join("users", "country", "country")).unwrap();
        assert_eq!(selfj.rows.rows(), 40 * 10, "40 users, 10 per country");
        assert_eq!(
            selfj.rows.names(),
            vec!["uid", "country", "users.uid", "users.country"],
            "self-join output columns stay distinguishable"
        );
        // Empty sides: a filter matching nothing yields an empty, well-
        // shaped result.
        let empty = db
            .execute(&Query::scan("orders").join("users", "user_id", "uid").filter("amount", CmpOp::Lt, -1))
            .unwrap();
        assert_eq!(empty.rows.rows(), 0);
        assert_eq!(empty.rows.width(), 5, "all left + prefixed right columns");
    }

    #[test]
    fn join_extreme_int_keys_survive() {
        // i64::MIN is a legitimate integer join key, not the string
        // NO_KEY sentinel — it must join on every storage layout.
        for merged in [false, true] {
            let db = Database::new();
            db.create_table("a", &[("k", DataType::Int64), ("v", DataType::Int64)]).unwrap();
            db.create_table("b", &[("k", DataType::Int64), ("w", DataType::Int64)]).unwrap();
            for (k, v) in [(i64::MIN, 1i64), (-1, 2), (0, 3), (i64::MAX, 4)] {
                db.insert("a", &Record::new().with("k", k).with("v", v)).unwrap();
            }
            for (k, w) in [(i64::MAX, 10i64), (i64::MIN, 20)] {
                db.insert("b", &Record::new().with("k", k).with("w", w)).unwrap();
            }
            if merged {
                db.merge("a").unwrap();
                db.merge("b").unwrap();
            }
            let out = db.execute(&Query::scan("a").join("b", "k", "k").select(["v", "b.w"])).unwrap();
            let mut got: Vec<(i64, i64)> = (0..out.rows.rows())
                .map(|r| {
                    let row = out.rows.row(r).unwrap();
                    (row[0].as_int().unwrap(), row[1].as_int().unwrap())
                })
                .collect();
            got.sort_unstable();
            assert_eq!(got, vec![(1, 20), (4, 10)], "merged={merged}");
        }
    }

    #[test]
    fn self_join_qualified_select_means_right_side() {
        // Employee → boss self-join: "u.uid" must name the RIGHT
        // occurrence (the boss), exactly as the default projection
        // labels it.
        let db = Database::new();
        db.create_table("u", &[("uid", DataType::Int64), ("boss", DataType::Int64)]).unwrap();
        db.insert("u", &Record::new().with("uid", 1i64).with("boss", 2i64)).unwrap();
        db.insert("u", &Record::new().with("uid", 2i64).with("boss", 2i64)).unwrap();
        let out = db
            .execute(
                &Query::scan("u")
                    .join("u", "boss", "uid")
                    .filter("uid", CmpOp::Eq, 1)
                    .select(["uid", "u.uid"]),
            )
            .unwrap();
        assert_eq!(out.rows.rows(), 1);
        let row = out.rows.row(0).unwrap();
        assert_eq!(row[0].as_int(), Some(1), "bare name = left side (the employee)");
        assert_eq!(row[1].as_int(), Some(2), "qualified name = right side (the boss)");
    }

    #[test]
    fn join_goal_and_algorithms_agree() {
        // MinEnergy may pick a different algorithm; answers must not
        // change.
        let q = Query::scan("orders").join("users", "user_id", "uid").select(["amount"]);
        let a = join_dbs(30, 500);
        let b = join_dbs(30, 500);
        b.set_goal(Goal::MinEnergy);
        let ra = a.execute(&q).unwrap();
        let rb = b.execute(&q).unwrap();
        let sorted = |r: &QueryResult| {
            let mut v: Vec<i64> =
                (0..r.rows.rows()).map(|i| r.rows.row(i).unwrap()[0].as_int().unwrap()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(&ra), sorted(&rb));
    }

    #[test]
    fn second_join_stage_is_rejected() {
        let db = join_dbs(4, 8);
        let q = Query::scan("orders").join("users", "user_id", "uid").join("users", "user_id", "uid");
        assert!(matches!(db.execute(&q), Err(DbError::BadQuery(_))));
    }

    #[test]
    fn join_filters_before_join_are_rejected() {
        let db = join_dbs(4, 8);
        let join = |q: Query| q.join("users", "user_id", "uid");
        for q in [
            join(Query::scan("orders").join_filter("uid", CmpOp::Ge, 0)),
            join(Query::scan("orders").join_filter_str_eq("country", "de")),
            join(Query::scan("orders").join_filter_str_ne("country", "de")),
        ] {
            assert!(matches!(db.execute(&q), Err(DbError::BadQuery(_))));
        }
    }

    #[test]
    fn count_accepts_any_existing_column() {
        // COUNT never reads its column: strings and floats count rows
        // like integers, on merged segments and the delta alike.
        let db = Database::new();
        db.create_table("t", &[("id", DataType::Int64), ("region", DataType::Str), ("w", DataType::Float64)])
            .unwrap();
        db.set_merge_threshold("t", usize::MAX).unwrap();
        for i in 0..150i64 {
            let rec = Record::new()
                .with("id", i)
                .with("region", ["n", "s", "w"][(i % 3) as usize])
                .with("w", i as f64);
            db.insert("t", &rec).unwrap();
            if i == 99 {
                db.merge("t").unwrap();
            }
        }
        let t = db.table("t").unwrap();
        assert_eq!((t.main_rows(), t.delta_rows()), (100, 50));
        let count = |q: Query| -> Vec<f64> {
            let out = db.execute(&q).unwrap();
            let col = out.rows.column_at(out.rows.width() - 1).unwrap();
            col.as_float64().unwrap().to_vec()
        };
        for col in ["id", "region", "w"] {
            assert_eq!(count(Query::scan("t").aggregate(AggKind::Count, col)), [150.0], "{col}");
            let filtered = Query::scan("t").filter("id", CmpOp::Ge, 90).filter_str_ne("region", "s");
            assert_eq!(count(filtered.aggregate(AggKind::Count, col)), [40.0], "{col} filtered");
            let grouped = Query::scan("t").filter("id", CmpOp::Lt, 120).group_by("region");
            assert_eq!(count(grouped.aggregate(AggKind::Count, col)), [40.0, 40.0, 40.0], "{col} grouped");
        }
        // The column must still exist, and other kinds still need ints.
        assert!(matches!(
            db.execute(&Query::scan("t").aggregate(AggKind::Count, "ghost")),
            Err(DbError::NoSuchColumn { .. })
        ));
        for col in ["region", "w"] {
            assert!(matches!(
                db.execute(&Query::scan("t").aggregate(AggKind::Sum, col)),
                Err(DbError::TypeMismatch { .. })
            ));
        }
    }

    #[test]
    fn join_error_paths() {
        let db = join_dbs(4, 8);
        assert!(matches!(
            db.execute(&Query::scan("orders").join("nope", "user_id", "uid")),
            Err(DbError::NoSuchTable(_))
        ));
        assert!(matches!(
            db.execute(&Query::scan("orders").join("users", "ghost", "uid")),
            Err(DbError::NoSuchColumn { .. })
        ));
        assert!(matches!(
            db.execute(&Query::scan("orders").join("users", "user_id", "country")),
            Err(DbError::TypeMismatch { .. })
        ));
        assert!(matches!(
            db.execute(
                &Query::scan("orders").join("users", "user_id", "uid").aggregate(AggKind::Sum, "amount")
            ),
            Err(DbError::BadQuery(_))
        ));
        assert!(matches!(
            db.execute(&Query::scan("orders").join("users", "user_id", "uid").select(["ghost"])),
            Err(DbError::NoSuchColumn { .. })
        ));
    }

    #[test]
    fn grouped_pushdown_skips_hashing_on_collapsed_zones() {
        // Group key constant within every segment (sorted inserts): the
        // pushdown folds each segment into a single state without
        // reading the key column at all — the billed traffic stays at
        // the value column's encoded bytes.
        let db = Database::new();
        db.create_table("t", &[("g", DataType::Int64), ("v", DataType::Int64)]).unwrap();
        db.set_merge_threshold("t", usize::MAX).unwrap();
        let per = SEGMENT_ROWS as i64;
        for i in 0..2 * per {
            db.insert("t", &Record::new().with("g", i / per).with("v", (i % per) % 1000)).unwrap();
        }
        db.merge("t").unwrap();
        let out = db.execute(&Query::scan("t").group_by("g").aggregate(AggKind::Sum, "v")).unwrap();
        assert_eq!(out.rows.rows(), 2);
        for r in 0..2 {
            let g = out.rows.row(r).unwrap()[0].as_int().unwrap();
            let want: i64 = (0..per).map(|i| i % 1000).sum();
            assert_eq!(out.rows.row(r).unwrap()[1].as_float(), Some(want as f64), "group {g}");
        }
        let t = db.table("t").unwrap();
        let value_bytes = t.column_encoded_bytes("v").unwrap() as u64;
        let key_bytes = t.column_encoded_bytes("g").unwrap() as u64;
        assert!(key_bytes > 0);
        assert!(
            out.profile.dram_read.bytes() <= value_bytes,
            "collapsed-zone group-by billed {} B; value column is {} B — key bytes were read",
            out.profile.dram_read.bytes(),
            value_bytes
        );
        // MIN with collapsed zones is answered entirely from metadata.
        let min = db.execute(&Query::scan("t").group_by("g").aggregate(AggKind::Min, "v")).unwrap();
        assert_eq!(min.profile.dram_read.bytes(), 0, "zone-answered grouped MIN reads no bytes");
    }

    #[test]
    fn flexible_ingest_then_query() {
        let db = Database::new();
        db.create_flexible_table("events").unwrap();
        db.insert("events", &Record::new().with("user", 1i64)).unwrap();
        db.insert("events", &Record::new().with("user", 2i64).with("clicks", 5i64)).unwrap();
        let out = db.execute(&Query::scan("events").filter("user", CmpOp::Gt, 0)).unwrap();
        assert_eq!(out.rows.rows(), 2);
        assert_eq!(db.table("events").unwrap().schema().evolved_columns(), 2);
    }

    #[test]
    fn flexible_evolution_across_merges_queries_consistently() {
        let db = Database::new();
        db.create_flexible_table("events").unwrap();
        for i in 0..100i64 {
            db.insert("events", &Record::new().with("user", i)).unwrap();
        }
        db.merge("events").unwrap();
        for i in 100..200i64 {
            db.insert("events", &Record::new().with("user", i).with("clicks", i % 7)).unwrap();
        }
        // Pre-merge rows read clicks as sentinel 0.
        let zero = db.execute(&Query::scan("events").filter("clicks", CmpOp::Eq, 0)).unwrap();
        let expected = 100 + (100..200).filter(|i| i % 7 == 0).count();
        assert_eq!(zero.rows.rows(), expected);
        db.merge("events").unwrap();
        let zero2 = db.execute(&Query::scan("events").filter("clicks", CmpOp::Eq, 0)).unwrap();
        assert_eq!(zero2.rows.rows(), expected);
    }

    #[test]
    fn rejected_record_leaves_a_flexible_table_untouched() {
        // Regression: `admit` used to add an unknown field's column to the
        // schema before type-checking the rest of the record, so this
        // rejected insert left `b` in the schema with no delta column, and
        // the next query naming `b` (or any `planner_meta`) indexed past
        // the end of the delta.
        let db = Database::new();
        db.create_flexible_table("t").unwrap();
        db.insert("t", &Record::new().with("a", 1i64)).unwrap();
        let bad = Record::new().with("b", 2i64).with("a", "x");
        let err = db.insert("t", &bad).unwrap_err();
        assert_eq!(err, DbError::TypeMismatch { column: "a".into(), expected: DataType::Int64 });
        let t = db.table("t").unwrap();
        assert_eq!((t.schema().width(), t.schema().evolved_columns()), (1, 1));
        assert_eq!((t.rows(), t.delta_rows()), (1, 1));
        assert_eq!(t.planner_meta().columns.len(), 1);
        let q = Query::scan("t").filter("b", CmpOp::Eq, 2);
        assert!(matches!(db.execute(&q), Err(DbError::NoSuchColumn { .. })));

        // The same record through a transaction's overlay: rejected when
        // the overlay is built, base snapshot and table untouched; a valid
        // one evolves the overlay alone.
        assert_eq!(t.with_pending(std::slice::from_ref(&bad)).unwrap_err(), err);
        let mut txn = db.begin_transaction();
        txn.insert("t", bad).unwrap();
        assert_eq!(txn.execute(&Query::scan("t")).unwrap_err(), err);
        txn.rollback();
        let mut txn = db.begin_transaction();
        txn.insert("t", Record::new().with("b", 2i64).with("a", 7i64)).unwrap();
        let out = txn.execute(&q).unwrap();
        assert_eq!(out.rows.row(0).unwrap(), vec![Value::Int(7), Value::Int(2)]);
        txn.rollback();
        assert!(matches!(db.execute(&q), Err(DbError::NoSuchColumn { .. })));
        assert_eq!(db.table("t").unwrap().schema().width(), 1);
    }

    #[test]
    fn executor_reads_a_pin_cut_inside_a_sealed_chunk() {
        use crate::table::DELTA_CHUNK_ROWS as C;
        // `begin_snapshot` only cuts inside a sealed chunk when an insert
        // races it; `Table::pin_at` with an older timestamp gets there
        // deterministically, and `run` takes any pin.
        let db = Database::new();
        let table = Table::new(
            "t",
            TableSchema::strict(vec![("id".into(), DataType::Int64), ("tag".into(), DataType::Str)]),
        );
        let stamps: Vec<Timestamp> = (0..2 * C as i64 + 10)
            .map(|i| {
                let rec = Record::new().with("id", i).with("tag", ["x", "y", "z"][i as usize % 3]);
                table.insert(&rec, db.oracle()).unwrap().0
            })
            .collect();
        for cut in [1, C - 1, C, C + 1, C + C / 2, 2 * C, 2 * C + 9] {
            let snap = table.pin_at(Timestamp(stamps[cut].0 - 1)).unwrap();
            assert_eq!(snap.rows(), cut);
            let run = |q: &Query| db.run(q, &ExecOpts::default(), |_| Ok(Cow::Borrowed(&snap))).unwrap().rows;
            // A point on each side of the cut, and of the chunk boundary.
            for id in [0, cut as i64 - 1, cut as i64, C as i64 - 1, C as i64] {
                let rows = run(&Query::scan("t").filter("id", CmpOp::Eq, id)).rows();
                assert_eq!(rows, usize::from(id < cut as i64), "cut {cut}: id = {id}");
            }
            let count = run(&Query::scan("t").filter_str_eq("tag", "y").aggregate(AggKind::Count, "id"));
            assert_eq!(count.row(0).unwrap()[0].as_float(), Some(((cut + 1) / 3) as f64), "cut {cut}");
            let sum =
                run(&Query::scan("t").filter("id", CmpOp::Ge, C as i64 - 2).aggregate(AggKind::Sum, "id"));
            let want: i64 = (C as i64 - 2..cut as i64).sum();
            let got = sum.row(0).unwrap()[0].as_float().unwrap();
            assert!(got == want as f64 || (want == 0 && got.is_nan()), "cut {cut}: {got} vs {want}");
        }
    }
}
