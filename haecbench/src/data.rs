//! Table generation and set-up. The generator's plain column vectors
//! ([`Model`]) stay in memory as the reference every answer is checked
//! against; the engine receives the same rows only as `Record`s through
//! `Database::insert`.

use crate::rng::Rng;
use crate::workload::Spec;
use haecdb::prelude::*;
use std::sync::Arc;
use std::time::Instant;

pub const USERS: usize = 16_384;
pub const REGIONS: usize = 64;
pub const COUNTRIES: usize = 8;
pub const TIERS: usize = 5;
pub const AMOUNTS: usize = 1_000;
pub const STATUSES: usize = 7;
/// Rows per insert batch, in set-up and in the `mixed_serve` writer.
pub const BATCH_ROWS: usize = 500;

/// `events.status`: long runs, so `EncodedInts::auto` picks RLE.
pub fn status_of(id: usize) -> i64 {
    ((id / 4096) % STATUSES) as i64
}

pub fn tier_of(uid: i64) -> i64 {
    uid % TIERS as i64
}

pub fn country_of(uid: i64) -> usize {
    (uid as usize / TIERS) % COUNTRIES
}

/// Nanoseconds since the run began: one clock for samples and spans.
#[derive(Clone, Copy, Debug)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// The generated `events` columns (`id` is the row number, `status` is
/// [`status_of`]) for the preloaded rows followed by the rows the
/// `mixed_serve` writer appends, plus lookup tables derived from them.
pub struct Model {
    /// Rows set-up inserts; rows beyond belong to the writer.
    pub preload: usize,
    pub user_id: Vec<i64>,
    pub amount: Vec<i64>,
    pub payload: Vec<i64>,
    pub region: Vec<u8>,
    /// `amount_prefix[i]` = sum of `amount[..i]`, for O(1) range sums.
    pub amount_prefix: Vec<i64>,
    pub regions: Vec<String>,
    pub countries: Vec<String>,
}

impl Model {
    /// Column shapes are chosen so that `EncodedInts::auto` picks every
    /// scheme on real segments: ascending `id` (Delta), uniform
    /// `user_id` and `amount` (FOR), run-structured `status` (RLE) and
    /// full-range `payload` (Plain); `region` is a 64-value string.
    pub fn generate(seed: u64, preload: usize, writer_rows: usize) -> Model {
        let rows = preload + writer_rows;
        let mut rng = Rng::new(seed, 1);
        let mut m = Model {
            preload,
            user_id: Vec::with_capacity(rows),
            amount: Vec::with_capacity(rows),
            payload: Vec::with_capacity(rows),
            region: Vec::with_capacity(rows),
            amount_prefix: Vec::with_capacity(rows + 1),
            regions: (0..REGIONS).map(|r| format!("region-{r:02}")).collect(),
            countries: (0..COUNTRIES).map(|c| format!("country-{c}")).collect(),
        };
        let mut running = 0i64;
        m.amount_prefix.push(0);
        for _ in 0..rows {
            let r = rng.next_u64();
            m.user_id.push((r % USERS as u64) as i64);
            let amount = ((r >> 16) % AMOUNTS as u64) as i64;
            m.amount.push(amount);
            m.region.push(((r >> 40) % REGIONS as u64) as u8);
            m.payload.push(rng.next_u64() as i64);
            running += amount;
            m.amount_prefix.push(running);
        }
        m
    }

    pub fn rows(&self) -> usize {
        self.amount.len()
    }

    pub fn event(&self, row: usize) -> Record {
        Record::new()
            .with("id", row as i64)
            .with("user_id", self.user_id[row])
            .with("amount", self.amount[row])
            .with("status", status_of(row))
            .with("payload", self.payload[row])
            .with("region", self.regions[self.region[row] as usize].as_str())
    }

    /// FNV-1a over every generated cell — "same seed, same inputs" as
    /// one number.
    pub fn checksum(&self) -> u64 {
        let mut h = Fnv::new();
        for row in 0..self.rows() {
            h.write(self.user_id[row] as u64);
            h.write(self.amount[row] as u64);
            h.write(self.payload[row] as u64);
            h.write(self.region[row] as u64);
        }
        h.0
    }
}

/// FNV-1a over 64-bit words.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn write(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// One 500-row insert batch as its issuer saw it.
#[derive(Clone, Copy, Debug)]
pub struct BatchSample {
    pub rows: usize,
    /// When the batch was due (equals `start_ns` in set-up, which is
    /// not paced).
    pub due_ns: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The table's main epoch advanced across this batch: it paid for a
    /// delta→main merge. Sampled only when asked, because reading the
    /// epoch pins a snapshot.
    pub merged: bool,
}

/// Reads `events`' main epoch and visible delta rows.
pub fn epoch_and_delta(db: &Database) -> (u64, usize) {
    let t = db.table("events").expect("events exists");
    (t.epoch(), t.delta_rows())
}

pub struct SetUp {
    pub db: Arc<Database>,
    pub model: Model,
    /// generate + insert every row + merge (+ index build).
    pub seconds: f64,
    pub batches: Vec<BatchSample>,
    /// Insert calls that returned an error.
    pub failed: u64,
}

/// Builds the workload's tables through the public write path: default
/// merge threshold (one auto-merge per 64 K rows), then a final merge
/// so the measured phase starts fully merged.
pub fn set_up(spec: &Spec, seed: u64, writer_rows: usize, sample_epochs: bool) -> SetUp {
    let clock = Clock::start();
    let model = Model::generate(seed, spec.events_rows, writer_rows);
    let db = Database::new();
    let mut failed = 0u64;

    db.create_table(
        "users",
        &[("uid", DataType::Int64), ("tier", DataType::Int64), ("country", DataType::Str)],
    )
    .expect("fresh database");
    for uid in 0..USERS as i64 {
        let rec = Record::new()
            .with("uid", uid)
            .with("tier", tier_of(uid))
            .with("country", model.countries[country_of(uid)].as_str());
        failed += db.insert("users", &rec).is_err() as u64;
    }
    db.merge("users").expect("users exists");

    db.create_table_sorted(
        "events",
        &[
            ("id", DataType::Int64),
            ("user_id", DataType::Int64),
            ("amount", DataType::Int64),
            ("status", DataType::Int64),
            ("payload", DataType::Int64),
            ("region", DataType::Str),
        ],
        "id",
    )
    .expect("fresh database");
    let mut batches = Vec::with_capacity(model.preload / BATCH_ROWS + 1);
    let mut epoch = 0;
    let mut records = Vec::with_capacity(BATCH_ROWS);
    for first in (0..model.preload).step_by(BATCH_ROWS) {
        let end = (first + BATCH_ROWS).min(model.preload);
        records.clear();
        records.extend((first..end).map(|row| model.event(row)));
        let start_ns = clock.ns();
        for rec in &records {
            failed += db.insert("events", rec).is_err() as u64;
        }
        let end_ns = clock.ns();
        let merged = sample_epochs && {
            let (now, _) = epoch_and_delta(&db);
            std::mem::replace(&mut epoch, now) != now
        };
        batches.push(BatchSample { rows: end - first, due_ns: start_ns, start_ns, end_ns, merged });
    }
    db.merge("events").expect("events exists");
    if spec.index {
        db.create_index("events", "user_id", IndexMaintenance::Eager).expect("events.user_id exists");
    }
    SetUp { db: Arc::new(db), model, seconds: clock.ns() as f64 / 1e9, batches, failed }
}
