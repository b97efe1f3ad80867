//! Farm equivalence suite: `Pipeline::run` at any worker count must
//! produce verdicts identical to an un-farmed reference — the paper's
//! serial loop, `Portend::classify` over the recorded clusters in
//! detection order — across the entire workloads corpus, with or
//! without the shared solver cache and priority ordering.
//!
//! This is the farm's core contract: parallelism and caching change only
//! *when* work happens, never what is computed. Classification is a pure
//! function of (case, cluster, config), and the solver cache key captures
//! the entire solver call, so full structural equality of verdicts (class,
//! detail, k, states_differ, and work counters) must hold. Two workers
//! that miss the cache on the same cold slice at once share one solve
//! (single-flight), so even the solve count does not depend on timing.

use std::sync::{Arc, Barrier};

use portend_repro::portend::{
    ClassifyError, FarmKnobs, PipelineResult, Portend, PortendConfig, Verdict,
};
use portend_repro::portend_symex::{CmpOp, Expr, SatResult, Solver, SolverCache, VarTable};
use portend_repro::portend_workloads::{all, by_name, Workload};

/// The reference the farm is held to, kept independent of it: one
/// classifier (sharing one solver cache when the knobs enable it, as a
/// serial run would) classifies every recorded cluster of `recorded`,
/// in detection order, on the calling thread.
fn reference(
    recorded: &PipelineResult,
    cfg: &PortendConfig,
) -> Vec<Result<Verdict, ClassifyError>> {
    let portend = if cfg.farm.solver_cache {
        let cache = Arc::new(SolverCache::new(cfg.farm.cache_shards));
        Portend::with_cache(cfg.clone(), cache)
    } else {
        Portend::new(cfg.clone())
    };
    recorded
        .record
        .clusters
        .iter()
        .map(|c| portend.classify(&recorded.case, &c.representative))
        .collect()
}

/// Asserts that `farm` analyzed `recorded`'s clusters, in detection
/// order, with exactly the `expected` verdicts.
fn assert_matches(
    name: &str,
    recorded: &PipelineResult,
    expected: &[Result<Verdict, ClassifyError>],
    farm: &PipelineResult,
) {
    assert_eq!(
        expected.len(),
        farm.analyzed.len(),
        "{name}: distinct race counts differ"
    );
    for (i, ((cluster, want), got)) in recorded
        .record
        .clusters
        .iter()
        .zip(expected)
        .zip(&farm.analyzed)
        .enumerate()
    {
        assert_eq!(
            cluster, &got.cluster,
            "{name}: cluster #{i} differs (detection order must be restored)"
        );
        assert_eq!(
            want, &got.verdict,
            "{name}: verdict for cluster #{i} ({}) differs",
            cluster.representative
        );
    }
}

/// Checks `w` on the farm at each of `workers` against the reference.
fn check_workers(w: &Workload, cfg: &PortendConfig, workers: &[usize]) {
    let one = w.analyze(cfg.clone());
    assert!(
        !one.analyzed.is_empty(),
        "{}: corpus workload must detect races",
        w.name
    );
    let expected = reference(&one, cfg);
    assert_matches(&format!("{} w=1", w.name), &one, &expected, &one);
    for &n in workers {
        let farm = w.analyze_parallel(cfg.clone(), n);
        assert_matches(&format!("{} w={n}", w.name), &one, &expected, &farm);
    }
}

/// The headline property over the full Table 1 corpus at 1 and 4
/// workers.
#[test]
fn run_parallel_matches_serial_across_the_corpus() {
    let cfg = PortendConfig::default();
    for w in all() {
        check_workers(&w, &cfg, &[4]);
    }
}

/// Worker count is irrelevant to the outcome (odd counts exercise
/// stealing imbalance).
#[test]
fn any_worker_count_agrees_with_serial() {
    let cfg = PortendConfig::default();
    for name in ["ctrace", "bbuf"] {
        let w = by_name(name).expect("workload exists");
        check_workers(&w, &cfg, &[2, 3, 8]);
    }
}

/// Every farm knob combination preserves verdicts: cache off, priority
/// off, both off, a tiny soft time budget (which may only *count*
/// overruns, never alter results), and a single cache shard.
#[test]
fn farm_knobs_do_not_change_verdicts() {
    let w = by_name("bbuf").expect("workload exists");
    let default = PortendConfig::default();
    let one = w.analyze(default.clone());
    let expected = reference(&one, &default);
    let knob_sets = [
        FarmKnobs {
            solver_cache: false,
            ..Default::default()
        },
        FarmKnobs {
            priority_order: false,
            ..Default::default()
        },
        FarmKnobs {
            solver_cache: false,
            priority_order: false,
            ..Default::default()
        },
        FarmKnobs {
            job_time_budget_ms: 1,
            ..Default::default()
        },
        FarmKnobs {
            cache_shards: 1,
            ..Default::default()
        },
    ];
    for (i, farm) in knob_sets.into_iter().enumerate() {
        let cfg = PortendConfig {
            farm,
            ..Default::default()
        };
        let parallel = w.analyze_parallel(cfg, 4);
        assert_matches(&format!("bbuf knobs#{i}"), &one, &expected, &parallel);
    }
}

/// Farm statistics are coherent: every cluster becomes exactly one job,
/// the shared solver cache sees real traffic on a multi-race workload,
/// and utilization stays in [0, 1].
#[test]
fn farm_stats_are_coherent() {
    let cfg = PortendConfig::default();
    let w = by_name("ctrace").expect("workload exists");
    let (result, stats) = w.analyze_parallel_with_stats(cfg, 4);
    assert_eq!(stats.jobs as usize, result.analyzed.len());
    assert_eq!(
        stats.per_worker.iter().map(|p| p.jobs).sum::<u64>(),
        stats.jobs,
        "every job is executed by exactly one worker"
    );
    let util = stats.utilization();
    assert!((0.0..=1.0).contains(&util), "utilization {util}");
    let cache = stats.cache.expect("solver cache on by default");
    // Queries arrive at slice granularity by default (`slice_solver`),
    // at whole-query granularity when slicing is off.
    let lookups = cache.hits + cache.misses + cache.slice_hits + cache.slice_misses;
    assert!(
        lookups > 0,
        "classification must issue solver queries: {cache:?}"
    );
    assert!(
        cache.hits + cache.slice_hits > 0,
        "multi-race workloads repeat constraint queries across races/schedules: {cache:?}"
    );
    assert!(
        cache.slice_hits > 0,
        "slice-level keys must hit across the Mp x Ma combinations: {cache:?}"
    );
    assert!(cache.key_bytes > 0, "lookups render keys: {cache:?}");
}

/// The single-flight counters surface through `FarmStats` exactly when
/// the shared cache exists.
#[test]
fn farm_stats_surface_single_flight_section() {
    let w = by_name("ctrace").expect("workload exists");
    let (_, on) = w.analyze_parallel_with_stats(PortendConfig::default(), 4);
    let sf = on.single_flight.expect("cache on by default");
    assert!(sf.claims > 0, "cold slices claim flights: {sf:?}");

    let no_cache = PortendConfig {
        farm: FarmKnobs {
            solver_cache: false,
            ..Default::default()
        },
        ..Default::default()
    };
    let (_, off) = w.analyze_parallel_with_stats(no_cache, 4);
    assert!(
        off.single_flight.is_none(),
        "no cache, no single-flight section: {off:?}"
    );
}

/// Single-flight dedup: when two threads miss the shared cache on the
/// *same* cold slice concurrently, the second must block on the first's
/// publication instead of re-solving — and both must receive the
/// identical answer. The follower thread enters each round only after
/// observing (via the claims counter) that the leader already holds the
/// slice's flight, so the two requests genuinely overlap; the slice is
/// expensive enough (a forward-only nonlinear root search over a wide
/// domain) that the leader is still solving when the follower arrives.
///
/// Whatever the timing, each of the N rendezvoused duplicate rounds is
/// solved exactly once: the follower's answer is a dedup, or a cache
/// hit when the leader finished first.
#[test]
fn concurrent_identical_cold_slices_are_deduplicated() {
    const ROUNDS: i64 = 8;
    let cache = Arc::new(SolverCache::new(4));
    let barrier = Arc::new(Barrier::new(2));
    let mut handles = Vec::new();
    for follower in [false, true] {
        let cache = Arc::clone(&cache);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let solver = Solver::new().cached(Arc::clone(&cache));
            let mut solves = 0u64;
            let mut verdicts = Vec::new();
            for round in 0..ROUNDS {
                // A fresh key every round: x*x == root^2 with a large
                // root, so every round is a cold, multi-millisecond
                // solve for whoever leads it.
                let root = 150_000 + round;
                let mut vars = VarTable::new();
                let x = Expr::var(vars.fresh("x", 0, root + 50_000));
                let cs = vec![x.clone().mul(x).cmp(CmpOp::Eq, Expr::konst(root * root))];
                let claims_before = cache.single_flight_snapshot().claims;
                barrier.wait();
                if follower {
                    while cache.single_flight_snapshot().claims == claims_before {
                        std::thread::yield_now();
                    }
                }
                let (r, stats) = solver.check_sliced_with_stats(&cs, &vars);
                // A deduplicated (or cache-hit) answer costs zero
                // search nodes; a real solve always visits some.
                solves += (stats.nodes > 0) as u64;
                verdicts.push(r);
            }
            (solves, verdicts)
        }));
    }
    let (solves_a, a) = handles.pop().unwrap().join().unwrap();
    let (solves_b, b) = handles.pop().unwrap().join().unwrap();
    assert_eq!(a, b, "deduplicated answers must be identical");
    assert!(
        a.iter().all(|r| matches!(r, SatResult::Sat(_))),
        "every round has a satisfying root: {a:?}"
    );
    let n = ROUNDS as u64;
    assert_eq!(solves_a + solves_b, n, "one solve per duplicate round");
    let c = cache.snapshot();
    assert_eq!(
        (c.slice_misses, c.slice_hits),
        (n, n),
        "the follower of every round is counted as a hit: {c:?}"
    );
    let sf = cache.single_flight_snapshot();
    assert_eq!(sf.claims, n, "each round claims exactly one flight: {sf:?}");
    assert!(
        (1..=n).contains(&sf.slices_deduped),
        "overlapping rounds must dedup, not re-solve: {sf:?}"
    );
    assert!(
        sf.single_flight_waits >= sf.slices_deduped,
        "every dedup passed through a wait: {sf:?}"
    );
}
