//! Integration across substrates: storage tiers + energy metering,
//! networking + compression, planner + real table statistics, and the
//! query server + machine model.

use haec_columnar::encoding::EncodedInts;
use haec_energy::machine::MachineSpec;
use haec_energy::meter::{Domain, EnergyMeter};
use haec_energy::profile::{CostEstimator, ExecutionContext};
use haec_energy::units::ByteCount;
use haec_net::shipping::{decide, CompressorSpec, Objective};
use haec_net::topology::{LinkClass, LinkSpec};
use haec_planner::cost::CostModel;
use haec_planner::join_order::{plan_dp, plan_greedy, JoinGraph};
use haec_sched::governor::GovernorPolicy;
use haec_sched::qserver::{QueryServer, QueryServerConfig};
use haec_storage::hierarchy::{Hierarchy, PlacementPolicy};
use haec_storage::temperature::{AccessKind, DensityClass};
use haecdb::prelude::*;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn storage_accesses_charge_the_energy_meter() {
    let mut h = Hierarchy::new(PlacementPolicy::DensityAware);
    let hot = h.create_segment(ByteCount::from_mib(64), DensityClass::High);
    let cold = h.create_segment(ByteCount::from_gib(1), DensityClass::Low);
    let est = CostEstimator::new(MachineSpec::commodity_2013());
    let mut meter = EnergyMeter::new();
    let ctx = ExecutionContext::single(est.machine().pstates().fastest());

    let p = h.access(hot, AccessKind::Point);
    est.charge(&p.profile, ctx, &mut meter);
    let dram_energy = meter.total(Domain::Dram);
    assert!(dram_energy.joules() > 0.0, "hot access bills DRAM");
    assert_eq!(meter.total(Domain::Disk).joules(), 0.0);

    let s = h.access(cold, AccessKind::Scan);
    est.charge(&s.profile, ctx, &mut meter);
    assert!(meter.total(Domain::Disk).joules() > 0.0, "cold scan bills the disk domain");
}

#[test]
fn real_compression_ratio_feeds_the_shipping_decision() {
    // Encode a real run-heavy column, then use its *measured* ratio in
    // the shipping decision — the E16 → E3 pipeline.
    let data: Vec<i64> = (0..1_000_000).map(|i| (i / 1000) % 50).collect();
    let encoded = EncodedInts::auto(&data);
    let ratio = encoded.stats().ratio();
    assert!(ratio > 4.0, "run-heavy data compresses well, got {ratio:.1}x");

    let codec = CompressorSpec::lightweight(ratio);
    let payload = ByteCount::new((data.len() * 8) as u64);
    let slow = decide(payload, &codec, &LinkSpec::default_for(LinkClass::Ethernet1G), Objective::MinTime);
    let fast = decide(payload, &codec, &LinkSpec::default_for(LinkClass::IntraBoard), Objective::MinTime);
    assert!(slow.compress, "1GbE with {ratio:.0}x ratio must compress");
    assert!(!fast.compress, "QPI-class link ships raw");
}

#[test]
fn planner_costs_real_tables_consistently() {
    // Build a real table, extract its stats, and check the planner's
    // access decision against actually executing both ways.
    let db = Database::new();
    db.create_table("t", &[("k", DataType::Int64), ("v", DataType::Int64)]).unwrap();
    for i in 0..50_000i64 {
        db.insert("t", &Record::new().with("k", i).with("v", i % 100)).unwrap();
    }
    let t = db.table("t").unwrap();
    let mut meta = t.planner_meta();
    assert_eq!(meta.rows, 50_000);
    meta.columns.iter_mut().find(|c| c.name == "k").unwrap().indexed = true;
    let model = CostModel::new(MachineSpec::commodity_2013());
    let zones = t.zone_maps("k").unwrap();
    let encoded = t.column_encoded_bytes("k").unwrap() as u64;
    let d =
        haec_planner::access::choose_access_segmented(&model, &meta, "k", CmpOp::Eq, 123, &zones, encoded);
    assert_eq!(d.path, haec_planner::access::AccessPath::IndexLookup);

    // The engine agrees: with the index created, it uses it.
    db.create_index("t", "k", IndexMaintenance::Eager).unwrap();
    let out = db.execute(&Query::scan("t").filter("k", CmpOp::Eq, 123)).unwrap();
    assert_eq!(out.access_path, Some(haec_planner::access::AccessPath::IndexLookup));
}

#[test]
fn join_ordering_invariants_hold_on_random_graphs() {
    // DP (exact) vs greedy on assorted small graphs built from "real"
    // catalog-ish sizes: DP never loses, both agree on final cardinality.
    for seed in 0..5u64 {
        let n = 6 + (seed as usize % 3);
        let mut g = JoinGraph::new((0..n).map(|i| 10f64.powi(2 + ((i as i32 + seed as i32) % 4))).collect());
        for i in 1..n {
            g.add_edge(i - 1, i, 10f64.powi(-((i as i32 % 3) + 1)));
        }
        if n > 4 {
            g.add_edge(0, n - 1, 0.5);
        }
        let dp = plan_dp(&g);
        let gr = plan_greedy(&g);
        assert!(dp.cout <= gr.cout * 1.000001, "seed {seed}: dp {} > greedy {}", dp.cout, gr.cout);
        let rel = (dp.final_card - gr.final_card).abs() / dp.final_card.max(1e-30);
        assert!(rel < 1e-9, "seed {seed}: final cards diverged");
    }
}

#[test]
fn scheduler_respects_machine_power_envelope() {
    // Whatever the governor, every query the real server serves draws a
    // modeled power (its own bill over its own modeled time) within the
    // machine model's physical envelope.
    let db = Database::new();
    db.create_table("t", &[("v", DataType::Int64)]).unwrap();
    for i in 0..40_000i64 {
        db.insert("t", &Record::new().with("v", i % 1000)).unwrap();
    }
    let db = Arc::new(db);
    let idle = db.machine().idle_floor().watts();
    let peak = db.machine().peak_power().watts();
    for gov in [
        GovernorPolicy::RaceToIdle,
        GovernorPolicy::OnDemand,
        GovernorPolicy::PaceToDeadline(Duration::from_millis(300)),
        GovernorPolicy::EnergyCap(haec_energy::units::Watts::new(peak * 0.5)),
    ] {
        let srv =
            QueryServer::new(Arc::clone(&db), QueryServerConfig { governor: gov, ..Default::default() });
        for q in [
            Query::scan("t").aggregate(AggKind::Sum, "v"),
            Query::scan("t").filter("v", CmpOp::Lt, 500).aggregate(AggKind::Count, "v"),
        ] {
            let served = srv.execute(&q).unwrap();
            let watts = served.result.energy.joules() / served.result.modeled_time.as_secs_f64();
            assert!(watts >= idle, "{gov}: {watts} W below the idle floor {idle}");
            assert!(watts <= peak, "{gov}: {watts} W above peak {peak}");
        }
    }
}

#[test]
fn end_to_end_energy_story_is_self_consistent() {
    // The same amount of logical work must cost monotonically more
    // energy as the data grows — across the whole stack (ingest + scan +
    // aggregate), using the database's own meter.
    let mut energies = Vec::new();
    for rows in [10_000i64, 40_000, 160_000] {
        let db = Database::new();
        db.create_table("t", &[("v", DataType::Int64)]).unwrap();
        for i in 0..rows {
            db.insert("t", &Record::new().with("v", i % 1000)).unwrap();
        }
        let before = db.meter().grand_total();
        db.execute(&Query::scan("t").filter("v", CmpOp::Lt, 500).aggregate(AggKind::Sum, "v")).unwrap();
        let after = db.meter().grand_total();
        energies.push(after.joules() - before.joules());
    }
    assert!(energies[0] < energies[1] && energies[1] < energies[2], "{energies:?}");
}
