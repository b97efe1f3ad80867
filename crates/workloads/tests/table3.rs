//! The reproduction's core claim: running Portend over every workload
//! reproduces Table 3's class distribution (93 distinct races, 92
//! classified correctly — the ocean `residual` race is the expected
//! misclassification) — paper §5.2.

use portend::{PortendConfig, RaceClass, VerdictDetail};
use portend_workloads::{all, ClassCounts, ScoreCard};

fn classify_counts(result: &portend::PipelineResult) -> ClassCounts {
    let mut c = ClassCounts::default();
    for a in &result.analyzed {
        let v = a.verdict.as_ref().expect("classifiable");
        match v.class {
            RaceClass::SpecViolated => c.spec_viol += 1,
            RaceClass::OutputDiffers => c.out_diff += 1,
            RaceClass::KWitnessHarmless => {
                if v.states_differ == Some(true) {
                    c.kw_differ += 1
                } else {
                    c.kw_same += 1
                }
            }
            RaceClass::SingleOrdering => c.single_ord += 1,
        }
    }
    c
}

#[test]
fn every_workload_matches_its_table3_row() {
    let mut total_races = 0;
    let mut total_correct = 0;
    let mut total_scored = 0;
    for w in all() {
        let result = w.analyze(PortendConfig::default());
        let counts = classify_counts(&result);
        let detail: Vec<String> = result
            .analyzed
            .iter()
            .map(|a| {
                format!(
                    "{} -> {}",
                    a.cluster.representative.alloc_name,
                    a.verdict
                        .as_ref()
                        .map(|v| v.to_string())
                        .unwrap_or_else(|e| e.to_string())
                )
            })
            .collect();
        assert_eq!(
            counts,
            w.expected,
            "{}: classification distribution mismatch:\n{}",
            w.name,
            detail.join("\n")
        );
        total_races += counts.total();

        let card = ScoreCard::new(&w, &result);
        assert_eq!(card.unmatched, 0, "{}: race without ground truth", w.name);
        assert_eq!(card.errors, 0, "{}: classification errors", w.name);
        total_correct += card.correct();
        total_scored += card.total();
    }
    // 93 distinct races across the 11 targets (Table 3).
    assert_eq!(total_races, 93, "expected the paper's 93 distinct races");
    // 92/93 correct: only the ocean residual race is misclassified (§5.4).
    assert_eq!(total_scored, 93);
    assert_eq!(
        total_correct, 92,
        "expected exactly one misclassification (ocean)"
    );
}

#[test]
fn sqlite_alternate_deadlocks() {
    let w = portend_workloads::sqlite();
    let result = w.analyze(PortendConfig::default());
    assert_eq!(result.analyzed.len(), 1);
    let v = result.analyzed[0].verdict.as_ref().unwrap();
    match &v.detail {
        VerdictDetail::SpecViolation { kind, replay } => {
            assert_eq!(kind.table2_column(), "deadlock");
            assert!(!replay.schedule.is_empty(), "replayable evidence expected");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn ctrace_fig4_crash_found_via_multipath_multischedule() {
    let w = portend_workloads::ctrace();
    let result = w.analyze(PortendConfig::default());
    let id_race = result
        .analyzed
        .iter()
        .find(|a| a.cluster.representative.alloc_name == "id")
        .expect("id race detected");
    let v = id_race.verdict.as_ref().unwrap();
    assert_eq!(v.class, RaceClass::SpecViolated, "{v}");
    match &v.detail {
        VerdictDetail::SpecViolation { kind, replay } => {
            assert!(kind.to_string().contains("out-of-bounds"), "{kind}");
            // The evidence must carry the --no-hash-table input (0), not
            // the recorded --use-hash-table (1): Fig. 4's "the developer
            // is given the trace in which the input is --no-hash-table".
            assert_eq!(
                replay.inputs.first(),
                Some(&0),
                "inputs: {:?}",
                replay.inputs
            );
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn fmm_semantic_predicate_flips_timestamp_race_to_spec_violated() {
    let w = portend_workloads::fmm();
    // Without the predicate: k-witness harmless (states differ).
    let result = w.analyze(PortendConfig::default());
    let ts = result
        .analyzed
        .iter()
        .find(|a| a.cluster.representative.alloc_name == "timestamp")
        .expect("timestamp race detected");
    assert_eq!(
        ts.verdict.as_ref().unwrap().class,
        RaceClass::KWitnessHarmless
    );

    // With the §5.1 predicate: spec violated (semantic).
    let mut w = w;
    w.predicates = w.optional_predicates.clone();
    let result = w.analyze(PortendConfig::default());
    let ts = result
        .analyzed
        .iter()
        .find(|a| a.cluster.representative.alloc_name == "timestamp")
        .expect("timestamp race detected");
    let v = ts.verdict.as_ref().unwrap();
    assert_eq!(v.class, RaceClass::SpecViolated, "{v}");
    match &v.detail {
        VerdictDetail::SpecViolation { kind, .. } => {
            assert_eq!(kind.table2_column(), "semantic")
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn memcached_whatif_sync_removal_exposes_crash() {
    let w = portend_workloads::memcached_weakened();
    let result = w.analyze(PortendConfig::default());
    let conn = result
        .analyzed
        .iter()
        .find(|a| a.cluster.representative.alloc_name == "conn_idx")
        .expect("weakened sync exposes the conn_idx race");
    let v = conn.verdict.as_ref().unwrap();
    assert_eq!(v.class, RaceClass::SpecViolated, "{v}");

    // The stock build has no conn_idx race at all.
    let stock = portend_workloads::memcached().analyze(PortendConfig::default());
    assert!(
        stock
            .analyzed
            .iter()
            .all(|a| a.cluster.representative.alloc_name != "conn_idx"),
        "stock memcached must not race on conn_idx"
    );
}
