//! Self-test for `haec-lint`: every rule must fire on a seeded
//! violation (a lint that can't fail proves nothing), every exemption
//! channel must work (test regions, allow-list, inline escapes,
//! masking), and the real tree must scan clean — which makes the lint
//! part of tier-1 `cargo test`, not just CI.

use haec_lint::{dead_pub, mask_source, scan_source, scan_workspace, test_regions};

fn rules_fired(path: &str, src: &str) -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = scan_source(path, src).into_iter().map(|f| f.rule).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

// -- masking ----------------------------------------------------------

#[test]
fn masking_blanks_comments_and_strings_preserving_lines() {
    let src = "let a = 1; // unsafe in a comment\nlet b = \"thread::spawn\";\n/* grand_total */ let c = 2;\n";
    let masked = mask_source(src);
    assert_eq!(masked.lines().count(), src.lines().count());
    assert!(!masked.contains("unsafe"));
    assert!(!masked.contains("thread::spawn"));
    assert!(!masked.contains("grand_total"));
    assert!(masked.contains("let a = 1;"));
    assert!(masked.contains("let c = 2;"));
}

#[test]
fn masking_handles_raw_strings_and_char_literals() {
    let src = "let r = r#\"unsafe { } \"# ; let c = 'x'; let lt: &'static str = s;\n";
    let masked = mask_source(src);
    assert!(!masked.contains("unsafe"));
    assert!(masked.contains("'static"), "lifetimes must survive masking");
}

#[test]
fn forbidden_tokens_inside_prose_never_fire() {
    let src = "//! Docs may say unsafe and thread::spawn and grand_total freely.\nfn f() {}\n";
    assert!(rules_fired("crates/core/src/x.rs", src).is_empty());
}

// -- test region detection --------------------------------------------

#[test]
fn cfg_test_regions_are_located_by_brace_matching() {
    let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { let x = { 1 }; }\n}\nfn c() {}\n";
    let regions = test_regions(&mask_source(src));
    assert_eq!(regions, vec![(2, 5)]);
}

#[test]
fn conjunctive_cfg_test_gates_are_test_regions() {
    // Loom-excluded test modules are still test code.
    let src = "fn a() {}\n#[cfg(all(test, not(haec_loom)))]\nmod tests {\n    fn t() { std::thread::scope(|s| {}); }\n}\n";
    assert_eq!(test_regions(&mask_source(src)), vec![(2, 5)]);
    assert!(rules_fired("crates/sched/src/fake.rs", src).is_empty());
    // ...but a *negated* test gate is not.
    let not_test = "#[cfg(not(test))]\nfn serve() { std::thread::spawn(|| {}); }\n";
    let fired = rules_fired("crates/sched/src/fake.rs", not_test);
    assert!(fired.contains(&"no-thread-spawn"), "{fired:?}");
}

// -- safety-comment ----------------------------------------------------

#[test]
fn unsafe_without_safety_comment_fires() {
    let src = "fn f(p: *const u32) -> u32 {\n    unsafe { *p }\n}\n";
    let findings = scan_source("crates/exec/src/fake.rs", src);
    assert!(findings.iter().any(|f| f.rule == "safety-comment" && f.line == 2), "{findings:?}");
}

#[test]
fn unsafe_with_safety_comment_passes() {
    let src =
        "fn f(p: *const u32) -> u32 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
    assert!(rules_fired("crates/exec/src/fake.rs", src).is_empty());
}

#[test]
fn unsafe_fn_with_doc_safety_section_passes() {
    let src = "/// Does a thing.\n///\n/// # Safety\n///\n/// `p` must be valid.\nunsafe fn f(p: *const u32) -> u32 {\n    // SAFETY: per this fn's contract.\n    unsafe { *p }\n}\n";
    assert!(rules_fired("crates/exec/src/fake.rs", src).is_empty());
}

#[test]
fn forbid_unsafe_code_attribute_is_not_an_unsafe_token() {
    let src = "#![forbid(unsafe_code)]\n#![deny(unsafe_op_in_unsafe_fn)]\nfn f() {}\n";
    assert!(rules_fired("crates/core/src/fake.rs", src).is_empty());
}

// -- unsafe-in-shims ---------------------------------------------------

#[test]
fn unsafe_in_a_shim_fires_even_with_safety_comment() {
    let src = "// SAFETY: totally fine, promise.\nunsafe fn f() {}\n";
    let fired = rules_fired("shims/rand/src/lib.rs", src);
    assert!(fired.contains(&"unsafe-in-shims"), "{fired:?}");
}

// -- no-thread-spawn ---------------------------------------------------

#[test]
fn stray_thread_spawn_fires() {
    let src = "pub fn serve() {\n    std::thread::spawn(|| {});\n}\n";
    let findings = scan_source("crates/sched/src/fake.rs", src);
    assert!(findings.iter().any(|f| f.rule == "no-thread-spawn" && f.line == 2), "{findings:?}");
}

#[test]
fn thread_builder_and_scope_also_fire() {
    for line in ["std::thread::Builder::new();", "std::thread::scope(|s| {});"] {
        let src = format!("pub fn serve() {{\n    {line}\n}}\n");
        let fired = rules_fired("crates/core/src/fake.rs", &src);
        assert!(fired.contains(&"no-thread-spawn"), "{line}: {fired:?}");
    }
}

#[test]
fn thread_spawn_in_cfg_test_is_exempt() {
    let src = "pub fn api() {}\n#[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(|| {}); }\n}\n";
    assert!(rules_fired("crates/sched/src/fake.rs", src).is_empty());
}

#[test]
fn thread_spawn_in_test_harness_paths_is_exempt() {
    let src = "fn t() { std::thread::spawn(|| {}); }\n";
    assert!(rules_fired("crates/core/tests/fake.rs", src).is_empty());
    assert!(rules_fired("tests/fake.rs", src).is_empty());
}

#[test]
fn pool_and_loom_shim_may_spawn() {
    let src = "fn t() { std::thread::spawn(|| {}); }\n";
    assert!(rules_fired("crates/exec/src/pool.rs", src).is_empty());
    assert!(rules_fired("shims/loom/src/thread.rs", src).is_empty());
}

// -- no-available-parallelism -----------------------------------------

#[test]
fn per_call_available_parallelism_fires() {
    let src =
        "pub fn plan() -> usize {\n    std::thread::available_parallelism().map_or(1, |n| n.get())\n}\n";
    let fired = rules_fired("crates/planner/src/fake.rs", src);
    assert!(fired.contains(&"no-available-parallelism"), "{fired:?}");
}

#[test]
fn pool_construction_may_size_from_hardware() {
    let src =
        "pub fn global() -> usize {\n    std::thread::available_parallelism().map_or(1, |n| n.get())\n}\n";
    let fired = rules_fired("crates/exec/src/pool.rs", src);
    assert!(!fired.contains(&"no-available-parallelism"), "{fired:?}");
}

// -- meter-delta-billing ----------------------------------------------

#[test]
fn meter_delta_billing_in_query_path_fires() {
    let src =
        "pub fn bill(db: &Db) -> f64 {\n    let before = db.meter().grand_total();\n    before.joules()\n}\n";
    let findings = scan_source("crates/core/src/db.rs", src);
    assert!(findings.iter().any(|f| f.rule == "meter-delta-billing" && f.line == 2), "{findings:?}");
}

#[test]
fn meter_totals_outside_query_paths_are_fine() {
    let src = "pub fn report(m: &Meter) -> Joules { m.grand_total() }\n";
    assert!(rules_fired("crates/energy/src/meter.rs", src).is_empty());
}

// -- instant-in-energy -------------------------------------------------

#[test]
fn wall_clock_in_energy_crate_fires() {
    let src = "pub fn charge() {\n    let t = std::time::Instant::now();\n}\n";
    let fired = rules_fired("crates/energy/src/meter.rs", src);
    assert!(fired.contains(&"instant-in-energy"), "{fired:?}");
}

#[test]
fn calibration_harness_is_allow_listed() {
    let src = "pub fn calibrate() {\n    let t = std::time::Instant::now();\n}\n";
    assert!(rules_fired("crates/energy/src/calibrate.rs", src).is_empty());
}

// -- sorted-claim ------------------------------------------------------

#[test]
fn ad_hoc_sortedness_claim_fires() {
    let src = "pub fn plan() {\n    let z = ZoneMapMeta { rows: 1, min: 0, max: 9, sorted: true };\n}\n";
    let findings = scan_source("crates/planner/src/fake.rs", src);
    assert!(findings.iter().any(|f| f.rule == "sorted-claim" && f.line == 2), "{findings:?}");
    let src = "pub fn build() {\n    let s = Segment { sorted_by: Some(0) };\n}\n";
    let fired = rules_fired("crates/core/src/fake.rs", src);
    assert!(fired.contains(&"sorted-claim"), "{fired:?}");
}

#[test]
fn merge_build_path_may_claim_sortedness() {
    let src = "pub fn build() {\n    let s = Segment { sorted_by: Some(0) };\n}\n";
    assert!(rules_fired("crates/core/src/segment.rs", src).is_empty());
    assert!(rules_fired("crates/core/src/table.rs", src).is_empty());
}

#[test]
fn test_fixtures_may_claim_sortedness() {
    let src = "#[cfg(test)]\nmod tests {\n    fn z() { let z = ZoneMapMeta { rows: 1, min: 0, max: 9, sorted: true }; }\n}\n";
    assert!(rules_fired("crates/planner/src/fake.rs", src).is_empty());
    let harness = "fn z() { let z = ZoneMapMeta { rows: 1, min: 0, max: 9, sorted: true }; }\n";
    assert!(rules_fired("crates/core/tests/fake.rs", harness).is_empty());
}

// -- encoded-reader ----------------------------------------------------

#[test]
fn encoded_reader_outside_the_executor_fires() {
    for line in ["let mut cur = data.cursor();", "let mut blocks = data.blocks();"] {
        let src = format!("pub fn gather(data: &EncodedInts) {{\n    {line}\n}}\n");
        let findings = scan_source("crates/core/src/table.rs", &src);
        assert!(findings.iter().any(|f| f.rule == "encoded-reader" && f.line == 2), "{line}: {findings:?}");
    }
}

#[test]
fn the_executor_and_tests_may_open_encoded_readers() {
    let src = "pub fn walk(data: &EncodedInts) {\n    let mut cur = data.cursor();\n}\n";
    assert!(rules_fired("crates/core/src/executor.rs", src).is_empty());
    assert!(rules_fired("crates/columnar/src/encoding/mod.rs", src).is_empty());
    assert!(rules_fired("crates/core/tests/fake.rs", src).is_empty());
    let in_region =
        "pub fn api() {}\n#[cfg(test)]\nmod tests {\n    fn t(d: &EncodedInts) { d.blocks(); }\n}\n";
    assert!(rules_fired("crates/core/src/table.rs", in_region).is_empty());
}

#[test]
fn a_point_read_on_the_query_path_fires() {
    let src = "fn matches(t: &TableSnapshot, r: usize) -> bool {\n    t.get_int(0, r) == Some(1)\n}\n";
    let findings = scan_source("crates/core/src/executor.rs", src);
    assert!(findings.iter().any(|f| f.rule == "encoded-reader" && f.line == 2), "{findings:?}");
    // Tests and the storage layer's own callers may read a cell.
    let in_region =
        "pub fn api() {}\n#[cfg(test)]\nmod tests {\n    fn t(s: &TableSnapshot) { s.get_int(0, 1); }\n}\n";
    assert!(rules_fired("crates/core/src/executor.rs", in_region).is_empty());
    assert!(rules_fired("crates/core/src/table.rs", src).is_empty());
}

// -- failpoint-confined ------------------------------------------------

#[test]
fn arming_a_failpoint_in_production_code_fires() {
    for line in ["fail::cfg(\"merge::publish\", \"panic\").unwrap();", "fail::seed(42);", "fail::teardown();"]
    {
        let src = format!("pub fn serve() {{\n    {line}\n}}\n");
        let findings = scan_source("crates/core/src/fake.rs", &src);
        assert!(
            findings.iter().any(|f| f.rule == "failpoint-confined" && f.line == 2),
            "{line}: {findings:?}"
        );
    }
}

#[test]
fn instrumentation_outside_engine_crates_fires() {
    let src = "pub fn plan() {\n    fail::fail_point!(\"planner::cost\");\n}\n";
    let fired = rules_fired("crates/planner/src/fake.rs", src);
    assert!(fired.contains(&"failpoint-confined"), "{fired:?}");
}

#[test]
fn instrumentation_in_engine_crates_passes() {
    let src = "pub fn merge() {\n    fail::fail_point!(\"merge::publish\");\n}\n";
    assert!(rules_fired("crates/core/src/fake.rs", src).is_empty());
    assert!(rules_fired("crates/exec/src/fake.rs", src).is_empty());
    assert!(rules_fired("crates/sched/src/fake.rs", src).is_empty());
}

#[test]
fn test_harnesses_may_arm_failpoints() {
    let src = "fn t() { fail::cfg(\"db::insert\", \"return(x)\").unwrap(); fail::teardown(); }\n";
    assert!(rules_fired("crates/core/tests/fault_injection.rs", src).is_empty());
    let in_region =
        "pub fn api() {}\n#[cfg(test)]\nmod tests {\n    fn t() { fail::cfg(\"a\", \"off\").unwrap(); }\n}\n";
    assert!(rules_fired("crates/core/src/fake.rs", in_region).is_empty());
}

#[test]
fn the_fail_shim_itself_is_exempt() {
    let src = "pub fn cfg(name: &str, spec: &str) {}\npub fn f() { fail_point!(\"x\"); }\n";
    assert!(rules_fired("shims/fail/src/lib.rs", src).is_empty());
}

// -- dead-pub (cross-file) ---------------------------------------------

fn dead_pub_fired(files: &[(&str, &str)]) -> Vec<(String, usize)> {
    let files: Vec<(String, String)> = files.iter().map(|&(p, s)| (p.to_string(), s.to_string())).collect();
    dead_pub(&files).into_iter().map(|f| (f.path, f.line)).collect()
}

#[test]
fn a_pub_fn_no_other_file_names_fires() {
    let lib = "pub fn called() {}\n\
               pub fn uncalled() {}\n\
               pub const UNUSED: u32 = 1;\n\
               pub fn self_only() {}\n\
               fn f() { self_only(); }\n\
               #[cfg(test)]\n\
               mod tests {\n    pub fn helper() {}\n    fn t() { super::uncalled(); }\n}\n";
    // Only code counts: not a `use` line, a comment, a doctest or a
    // plain string literal.
    let user = "use crate::lib::{called, uncalled};\n\
                // uncalled() in a comment\n\
                /// ```\n/// lib::UNUSED\n/// ```\n\
                fn g() { called(); let s = \"uncalled UNUSED\"; }\n";
    let fired = dead_pub_fired(&[("crates/core/src/lib.rs", lib), ("crates/core/src/user.rs", user)]);
    let at = |line| ("crates/core/src/lib.rs".to_string(), line);
    assert_eq!(fired, vec![at(2), at(3), at(4)]);
}

#[test]
fn a_format_capture_a_harness_or_an_escape_keeps_a_pub_fn() {
    let lib = "pub const SPAN: u32 = 1;\n\
               pub fn probed() {}\n\
               // haec-lint: allow(dead-pub) — a reference decoder the tests check against.\n\
               pub fn reference() {}\n";
    let user = "fn g() { println!(\"{SPAN}\"); }\n";
    let bench = "fn b() { probed(); }\n";
    let files = [
        ("crates/exec/src/lib.rs", lib),
        ("crates/bench/src/user.rs", user),
        ("haecbench/src/main.rs", bench),
    ];
    assert!(dead_pub_fired(&files).is_empty());
    // The lint and experiment crates are entry points, not library surface.
    assert!(dead_pub_fired(&[("crates/bench/src/lib.rs", "pub fn run() {}\n")]).is_empty());
}

// -- escapes -----------------------------------------------------------

#[test]
fn inline_escape_suppresses_one_site() {
    let with_escape =
        "pub fn f() {\n    // haec-lint: allow(no-thread-spawn)\n    std::thread::spawn(|| {});\n}\n";
    assert!(rules_fired("crates/core/src/fake.rs", with_escape).is_empty());
    let same_line = "pub fn f() {\n    std::thread::spawn(|| {}); // haec-lint: allow(no-thread-spawn)\n}\n";
    assert!(rules_fired("crates/core/src/fake.rs", same_line).is_empty());
}

#[test]
fn inline_escape_is_rule_specific() {
    let src = "pub fn f() {\n    // haec-lint: allow(safety-comment)\n    std::thread::spawn(|| {});\n}\n";
    let fired = rules_fired("crates/core/src/fake.rs", src);
    assert!(fired.contains(&"no-thread-spawn"), "escape for another rule must not apply: {fired:?}");
}

// -- the real tree -----------------------------------------------------

/// The workspace itself must be clean — this runs on every
/// `cargo test`, so a violation fails tier-1, not just the CI lint job.
#[test]
fn real_tree_has_zero_findings() {
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate lives under <root>/crates/")
        .to_path_buf();
    let findings = scan_workspace(&root).expect("workspace scan");
    assert!(
        findings.is_empty(),
        "workspace violates its own invariants:\n{}",
        findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}
