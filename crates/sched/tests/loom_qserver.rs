//! Model-checked verification of the query server's admission path:
//! admit → cancel → permit-release interleavings over the real
//! [`AdmissionGate`] (the exact code `QueryServer` runs — its
//! primitives come from a cfg switch, not a port).
//!
//! Invariants checked in every schedule: no permit leak (the gate
//! quiesces to zero), no double release (a second release would leave
//! `active` ≠ 0), and a query cancelled while queued is never counted
//! in flight. Only built under `RUSTFLAGS="--cfg haec_loom"`:
//!
//! ```text
//! RUSTFLAGS="--cfg haec_loom" cargo test -p haec-sched --test loom_qserver --release
//! ```
#![cfg(haec_loom)]

use haec_exec::cancel::CancelToken;
use haec_sched::admission::{AdmissionGate, AdmitError};
use loom::sync::Arc;

/// A cancel racing a fast-path admission on a free gate: the query
/// either wins the slot before the cancel lands (and the engine would
/// then stop it at its first morsel) or exits `Cancelled` — and either
/// way the gate quiesces to zero and stays grantable.
#[test]
fn cancel_racing_fast_path_admission_never_leaks() {
    let report = loom::model(|| {
        let gate = Arc::new(AdmissionGate::new(1, 1));
        let token = CancelToken::new();

        let admitter = {
            let gate = Arc::clone(&gate);
            let token = token.clone();
            loom::thread::spawn(move || match gate.admit(0, None, Some(&token)) {
                Ok(permit) => {
                    drop(permit);
                    true
                }
                Err(e) => {
                    assert_eq!(e, AdmitError::Cancelled, "free gate + no deadline: only cancel refuses");
                    false
                }
            })
        };
        // The gate is free, so no waiter ever parks: the cancel needs
        // no wake-up to be seen.
        let canceller = {
            let token = token.clone();
            loom::thread::spawn(move || token.cancel())
        };
        let _admitted = admitter.join().unwrap();
        canceller.join().unwrap();

        assert_eq!(gate.active(), 0, "permit leaked or double-released");
        assert_eq!(gate.queued(), 0, "waiter entry leaked");
        // The slot is genuinely free: a fresh admission takes it.
        drop(gate.admit(0, None, None).unwrap());
        assert_eq!(gate.active(), 0);
    });
    assert!(report.interleavings > 1, "expected >1 distinct interleaving, got {report:?}");
}

/// The hard window: a query *queued* behind a full gate is cancelled
/// while the slot-holder releases. Promotion may grant the slot to the
/// cancelled query before it notices — the bail path must hand the
/// grant straight back, so the cancelled query is never observably in
/// flight and the slot is immediately reusable.
#[test]
fn cancel_racing_release_hands_back_a_won_grant() {
    let report = loom::model(|| {
        let gate = Arc::new(AdmissionGate::new(1, 2));
        let token = CancelToken::new();
        let held = gate.admit(0, None, None).unwrap();

        // Pre-fire the cancel: the waiter below is cancelled from the
        // start, so every schedule exercises "cancelled query races a
        // promotion", including the one where promote() marks it
        // Admitted before its first poll.
        let waiter = {
            let gate = Arc::clone(&gate);
            let token = token.clone();
            loom::thread::spawn(move || {
                token.cancel();
                gate.admit(0, None, Some(&token)).map(drop)
            })
        };
        // The release interleaves with the waiter's enqueue and polls.
        drop(held);

        let outcome = waiter.join().unwrap();
        match outcome {
            // Fast path won before the flag was visible: permit was
            // held and dropped; nothing to undo.
            Ok(()) => {}
            Err(e) => assert_eq!(e, AdmitError::Cancelled),
        }

        assert_eq!(gate.active(), 0, "a cancelled query was counted in flight");
        assert_eq!(gate.queued(), 0, "cancelled waiter left its queue entry");
        drop(gate.admit(0, None, None).unwrap());
        assert_eq!(gate.active(), 0);
    });
    assert!(report.interleavings > 1, "expected >1 distinct interleaving, got {report:?}");
}

/// Shedding (the energy governor's budget-tighten path) racing a
/// release: the queued query is either shed or promoted, never both,
/// never lost — and the shed counter agrees with the outcome.
#[test]
fn shed_racing_release_resolves_each_waiter_exactly_once() {
    let report = loom::model(|| {
        let gate = Arc::new(AdmissionGate::new(1, 1));
        let held = gate.admit(0, None, None).unwrap();

        let waiter = {
            let gate = Arc::clone(&gate);
            loom::thread::spawn(move || gate.admit(0, None, None).map(drop))
        };
        let shedder = {
            let gate = Arc::clone(&gate);
            loom::thread::spawn(move || gate.shed_lowest(1))
        };
        // The release interleaves with the shed and the waiter's polls.
        drop(held);

        let outcome = waiter.join().unwrap();
        let shed = shedder.join().unwrap();

        match &outcome {
            Ok(()) => {}
            Err(e) => assert_eq!(*e, AdmitError::Shed, "no cancel/deadline in this model"),
        }
        assert_eq!(
            gate.shed_total(),
            if outcome.is_err() { 1 } else { shed as u64 },
            "shed accounting disagrees with the waiter's outcome"
        );
        assert_eq!(gate.active(), 0, "permit leaked or double-released");
        assert_eq!(gate.queued(), 0);
        drop(gate.admit(0, None, None).unwrap());
    });
    assert!(report.interleavings > 1, "expected >1 distinct interleaving, got {report:?}");
}
