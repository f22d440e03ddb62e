//! The fifteen query classes, the operation lists built from them, and
//! the answer checker.
//!
//! Every answer is checked against the generator's own columns
//! ([`Model`]) and running aggregates of the visible row prefix
//! ([`RefState`]) — never against the engine. On the read-only
//! workloads the prefix is the whole table, so a check is an equality;
//! on `mixed_serve` a query sees the preloaded rows plus some prefix of
//! the writer's rows, so an aggregate must lie between the reference at
//! submit and the reference at return (the MVCC prefix property), and
//! every returned row must be a correct row of that prefix.

use crate::data::{country_of, status_of, tier_of, Fnv, Model, AMOUNTS, REGIONS, STATUSES, TIERS, USERS};
use crate::rng::Rng;
use haecdb::prelude::*;

pub const RANGE_SMALL_ROWS: i64 = 200;
pub const RANGE_SUM_ROWS: i64 = 2_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    SumAll,
    CountInt,
    SumRleFilter,
    CountStrEq,
    MaxPlainFilter,
    GroupStr,
    Point,
    RangeSmall,
    IndexEq,
    ZoneMin,
    RangeSum,
    JoinIntFiltered,
    ProjectSparse,
    JoinStrFiltered,
    ProjectMultiFilter,
}

impl Class {
    pub const COUNT: usize = 15;
    pub const ALL: [Class; Class::COUNT] = [
        Class::SumAll,
        Class::CountInt,
        Class::SumRleFilter,
        Class::CountStrEq,
        Class::MaxPlainFilter,
        Class::GroupStr,
        Class::Point,
        Class::RangeSmall,
        Class::IndexEq,
        Class::ZoneMin,
        Class::RangeSum,
        Class::JoinIntFiltered,
        Class::ProjectSparse,
        Class::JoinStrFiltered,
        Class::ProjectMultiFilter,
    ];
    const NAMES: [&'static str; Class::COUNT] = [
        "sum_all",
        "count_int",
        "sum_rle_filter",
        "count_str_eq",
        "max_plain_filter",
        "group_str",
        "point",
        "range_small",
        "index_eq",
        "zone_min",
        "range_sum",
        "join_int_filtered",
        "project_sparse",
        "join_str_filtered",
        "project_multi_filter",
    ];
    const OP_SPANS: [&'static str; Class::COUNT] = [
        "op.sum_all",
        "op.count_int",
        "op.sum_rle_filter",
        "op.count_str_eq",
        "op.max_plain_filter",
        "op.group_str",
        "op.point",
        "op.range_small",
        "op.index_eq",
        "op.zone_min",
        "op.range_sum",
        "op.join_int_filtered",
        "op.project_sparse",
        "op.join_str_filtered",
        "op.project_multi_filter",
    ];

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        Class::NAMES[self.index()]
    }

    /// Name of the root span of one operation of this class.
    pub fn op_span(self) -> &'static str {
        Class::OP_SPANS[self.index()]
    }
}

/// One operation: a prebuilt query and the literal it was built from.
#[derive(Clone, Debug)]
pub struct Op {
    pub class: Class,
    /// The class's one varying literal (an id, a bound, a region, …);
    /// 0 for classes without one.
    pub arg: i64,
    pub query: Query,
}

impl Op {
    /// Draws the class's literal from `rng`. Ids are drawn from the
    /// preloaded rows only, so lookups stay exact while a writer runs.
    pub fn draw(class: Class, rng: &mut Rng, model: &Model) -> Op {
        let preload = model.preload as u64;
        let arg = match class {
            Class::SumAll
            | Class::MaxPlainFilter
            | Class::GroupStr
            | Class::ZoneMin
            | Class::ProjectSparse => 0,
            Class::CountInt => 1 + rng.below(AMOUNTS as u64 - 1),
            Class::SumRleFilter | Class::ProjectMultiFilter => rng.below(STATUSES as u64),
            Class::CountStrEq | Class::JoinStrFiltered => rng.below(REGIONS as u64),
            Class::Point => rng.below(preload),
            Class::RangeSmall => rng.below(preload - RANGE_SMALL_ROWS as u64),
            Class::IndexEq => rng.below(USERS as u64),
            Class::RangeSum => rng.below(preload - RANGE_SUM_ROWS as u64),
            Class::JoinIntFiltered => rng.below(TIERS as u64),
        } as i64;
        Op { class, arg, query: build_query(class, arg, model) }
    }
}

fn build_query(class: Class, arg: i64, model: &Model) -> Query {
    let events = Query::scan("events");
    let region = || model.regions[arg as usize].as_str();
    match class {
        Class::SumAll => events.aggregate(AggKind::Sum, "amount"),
        Class::CountInt => events.filter("amount", CmpOp::Lt, arg).aggregate(AggKind::Count, "amount"),
        Class::SumRleFilter => events.filter("status", CmpOp::Eq, arg).aggregate(AggKind::Sum, "payload"),
        Class::CountStrEq => events.filter_str_eq("region", region()).aggregate(AggKind::Count, "amount"),
        Class::MaxPlainFilter => events.filter("payload", CmpOp::Gt, 0).aggregate(AggKind::Max, "user_id"),
        Class::GroupStr => {
            events.filter("amount", CmpOp::Lt, 500).group_by("region").aggregate(AggKind::Sum, "amount")
        }
        Class::Point => events.filter("id", CmpOp::Eq, arg).select(["id", "user_id", "amount"]),
        Class::RangeSmall => events
            .filter("id", CmpOp::Ge, arg)
            .filter("id", CmpOp::Lt, arg + RANGE_SMALL_ROWS)
            .select(["id", "user_id", "amount"]),
        Class::IndexEq => events.filter("user_id", CmpOp::Eq, arg).aggregate(AggKind::Sum, "amount"),
        Class::ZoneMin => events.aggregate(AggKind::Min, "amount"),
        Class::RangeSum => events
            .filter("id", CmpOp::Ge, arg)
            .filter("id", CmpOp::Lt, arg + RANGE_SUM_ROWS)
            .aggregate(AggKind::Sum, "amount"),
        Class::JoinIntFiltered => events
            .filter("amount", CmpOp::Lt, 50)
            .join("users", "user_id", "uid")
            .join_filter("tier", CmpOp::Eq, arg)
            .select(["id", "amount", "country"]),
        Class::ProjectSparse => events.filter("amount", CmpOp::Lt, 20).select(["id", "region", "payload"]),
        Class::JoinStrFiltered => {
            events.filter_str_eq("region", region()).join("users", "user_id", "uid").select(["id", "tier"])
        }
        Class::ProjectMultiFilter => {
            events.filter("status", CmpOp::Eq, arg).filter("amount", CmpOp::Lt, 100).select(["id", "region"])
        }
    }
}

/// `len` operations cycling through `pattern`, literals drawn from the
/// seed's operation stream.
pub fn op_list(pattern: &[Class], len: usize, seed: u64, stream: u64, model: &Model) -> Vec<Op> {
    let mut rng = Rng::new(seed, stream);
    (0..len).map(|i| Op::draw(pattern[i % pattern.len()], &mut rng, model)).collect()
}

pub fn op_list_digest(ops: &[Op]) -> u64 {
    let mut h = Fnv::new();
    for op in ops {
        h.write(op.class.index() as u64);
        h.write(op.arg as u64);
    }
    h.0
}

/// Running aggregates over the first `rows` rows of the model — exactly
/// what the fifteen classes need, each updated in O(1) per row.
#[derive(Clone, Debug)]
pub struct RefState {
    pub rows: usize,
    amount_hist: [u64; AMOUNTS],
    amount_min: i64,
    /// Wrapping, like the engine's `AggState::sum`.
    status_payload_sum: [i64; STATUSES],
    status_amount_lt100: [u64; STATUSES],
    region_count: [u64; REGIONS],
    region_count_lt500: [u64; REGIONS],
    region_sum_lt500: [i64; REGIONS],
    max_user_payload_pos: i64,
    user_amount_sum: Vec<i64>,
    tier_amount_lt50: [u64; TIERS],
}

impl RefState {
    pub fn new() -> RefState {
        RefState {
            rows: 0,
            amount_hist: [0; AMOUNTS],
            amount_min: i64::MAX,
            status_payload_sum: [0; STATUSES],
            status_amount_lt100: [0; STATUSES],
            region_count: [0; REGIONS],
            region_count_lt500: [0; REGIONS],
            region_sum_lt500: [0; REGIONS],
            max_user_payload_pos: i64::MIN,
            user_amount_sum: vec![0; USERS],
            tier_amount_lt50: [0; TIERS],
        }
    }

    /// Extends the prefix to `rows` rows (never shrinks).
    pub fn advance(&mut self, model: &Model, rows: usize) {
        for row in self.rows..rows {
            let (user, amount, payload) = (model.user_id[row], model.amount[row], model.payload[row]);
            let (status, region) = (status_of(row) as usize, model.region[row] as usize);
            self.amount_hist[amount as usize] += 1;
            self.amount_min = self.amount_min.min(amount);
            self.status_payload_sum[status] = self.status_payload_sum[status].wrapping_add(payload);
            self.region_count[region] += 1;
            self.user_amount_sum[user as usize] += amount;
            if payload > 0 {
                self.max_user_payload_pos = self.max_user_payload_pos.max(user);
            }
            if amount < 500 {
                self.region_count_lt500[region] += 1;
                self.region_sum_lt500[region] += amount;
                if amount < 100 {
                    self.status_amount_lt100[status] += 1;
                    if amount < 50 {
                        self.tier_amount_lt50[tier_of(user) as usize] += 1;
                    }
                }
            }
        }
        self.rows = self.rows.max(rows);
    }

    fn count_amount_lt(&self, bound: i64) -> u64 {
        self.amount_hist[..bound as usize].iter().sum()
    }

    /// The class's scalar answer, or its row count for the classes that
    /// return rows (`group_str`: its group count).
    fn expect(&self, op: &Op, model: &Model) -> f64 {
        let arg = op.arg as usize;
        match op.class {
            Class::SumAll => self.amount_hist.iter().zip(0u64..).map(|(&n, a)| n * a).sum::<u64>() as f64,
            Class::CountInt => self.count_amount_lt(op.arg) as f64,
            Class::SumRleFilter => self.status_payload_sum[arg] as f64,
            Class::CountStrEq | Class::JoinStrFiltered => self.region_count[arg] as f64,
            Class::MaxPlainFilter => self.max_user_payload_pos as f64,
            Class::GroupStr => self.region_count_lt500.iter().filter(|&&n| n > 0).count() as f64,
            Class::Point => 1.0,
            Class::RangeSmall => RANGE_SMALL_ROWS as f64,
            Class::IndexEq => self.user_amount_sum[arg] as f64,
            Class::ZoneMin => self.amount_min as f64,
            Class::RangeSum => {
                (model.amount_prefix[arg + RANGE_SUM_ROWS as usize] - model.amount_prefix[arg]) as f64
            }
            Class::JoinIntFiltered => self.tier_amount_lt50[arg] as f64,
            Class::ProjectSparse => self.count_amount_lt(20) as f64,
            Class::ProjectMultiFilter => self.status_amount_lt100[arg] as f64,
        }
    }
}

fn between(got: f64, a: f64, b: f64) -> bool {
    a.min(b) <= got && got <= a.max(b)
}

fn ints<'a>(res: &'a QueryResult, name: &str) -> Result<&'a [i64], String> {
    res.rows.column(name).and_then(|c| c.as_int64()).ok_or_else(|| format!("no int column {name}"))
}

fn strs<'a>(res: &'a QueryResult, name: &str) -> Result<&'a haec_columnar::dict::DictColumn, String> {
    res.rows.column(name).and_then(|c| c.as_str()).ok_or_else(|| format!("no string column {name}"))
}

/// Checks one answer. `lo` is the reference state at submit and `hi` at
/// return; pass the same state twice when no writer runs.
pub fn verify(op: &Op, res: &QueryResult, model: &Model, lo: &RefState, hi: &RefState) -> Result<(), String> {
    let (want_lo, want_hi) = (lo.expect(op, model), hi.expect(op, model));
    let returns_rows = matches!(
        op.class,
        Class::GroupStr
            | Class::Point
            | Class::RangeSmall
            | Class::JoinIntFiltered
            | Class::ProjectSparse
            | Class::JoinStrFiltered
            | Class::ProjectMultiFilter
    );
    if !returns_rows {
        let col = res.rows.column_at(0).and_then(|c| c.as_float64()).ok_or("no aggregate column")?;
        return match col {
            [got] if between(*got, want_lo, want_hi) => Ok(()),
            _ => Err(format!("got {col:?}, want {want_lo}..={want_hi}")),
        };
    }
    let n = res.rows.rows();
    if !between(n as f64, want_lo, want_hi) {
        return Err(format!("got {n} rows, want {want_lo}..={want_hi}"));
    }
    if op.class == Class::GroupStr {
        return verify_groups(res, model, lo, hi);
    }

    let ids = ints(res, "id")?;
    let row_ok: Box<dyn Fn(usize, usize) -> bool + '_> = match op.class {
        Class::Point | Class::RangeSmall => {
            let (users, amounts) = (ints(res, "user_id")?, ints(res, "amount")?);
            let span = if op.class == Class::Point { 1 } else { RANGE_SMALL_ROWS };
            Box::new(move |i, id| {
                (op.arg..op.arg + span).contains(&(id as i64))
                    && users[i] == model.user_id[id]
                    && amounts[i] == model.amount[id]
            })
        }
        Class::JoinIntFiltered => {
            let (amounts, countries) = (ints(res, "amount")?, strs(res, "country")?);
            Box::new(move |i, id| {
                let user = model.user_id[id];
                model.amount[id] < 50
                    && tier_of(user) == op.arg
                    && amounts[i] == model.amount[id]
                    && countries.get(i) == Some(model.countries[country_of(user)].as_str())
            })
        }
        Class::ProjectSparse => {
            let (regions, payloads) = (strs(res, "region")?, ints(res, "payload")?);
            Box::new(move |i, id| {
                model.amount[id] < 20
                    && payloads[i] == model.payload[id]
                    && regions.get(i) == Some(model.regions[model.region[id] as usize].as_str())
            })
        }
        Class::JoinStrFiltered => {
            let tiers = ints(res, "tier")?;
            Box::new(move |i, id| model.region[id] as i64 == op.arg && tiers[i] == tier_of(model.user_id[id]))
        }
        Class::ProjectMultiFilter => {
            let regions = strs(res, "region")?;
            Box::new(move |i, id| {
                status_of(id) == op.arg
                    && model.amount[id] < 100
                    && regions.get(i) == Some(model.regions[model.region[id] as usize].as_str())
            })
        }
        _ => unreachable!("scalar and grouped classes returned above"),
    };
    for (i, &id) in ids.iter().enumerate() {
        if id < 0 || id as usize >= hi.rows || !row_ok(i, id as usize) {
            return Err(format!("row {i} (id {id}) is not a row of the answer"));
        }
    }
    // Right count + every row right + no row twice = the right set.
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    if sorted.windows(2).any(|w| w[0] == w[1]) {
        return Err("an id was returned twice".into());
    }
    Ok(())
}

fn verify_groups(res: &QueryResult, model: &Model, lo: &RefState, hi: &RefState) -> Result<(), String> {
    let (keys, sums) = (
        strs(res, "region")?,
        res.rows.column_at(1).and_then(|c| c.as_float64()).ok_or("no aggregate column")?,
    );
    let mut seen = [false; REGIONS];
    for (i, &sum) in sums.iter().enumerate() {
        let region = keys
            .get(i)
            .and_then(|name| model.regions.iter().position(|r| r == name))
            .ok_or_else(|| format!("group {i} has an unknown key"))?;
        if std::mem::replace(&mut seen[region], true) {
            return Err(format!("group {region} was returned twice"));
        }
        let (a, b) = (lo.region_sum_lt500[region] as f64, hi.region_sum_lt500[region] as f64);
        if hi.region_count_lt500[region] == 0 || !between(sum, a, b) {
            return Err(format!("group {region}: got {sum}, want {a}..={b}"));
        }
    }
    match (0..REGIONS).find(|&r| lo.region_count_lt500[r] > 0 && !seen[r]) {
        Some(r) => Err(format!("group {r} is missing")),
        None => Ok(()),
    }
}
