//! Farm benchmark: wall-clock speedup of race classification at 4 farm
//! workers (`Pipeline::run`) over its baseline, the same pipeline on
//! one farm worker, on the workloads corpus, plus the corpus-level
//! fan-out (one farm job per workload).
//!
//! Prints, per workload: 1-worker and 4-worker wall time, wall-clock
//! speedup, *critical-path* speedup, solver cache hit rates (whole-query
//! and slice-level), and worker utilization — the headline numbers for
//! the farm's ">1.5× at 4 workers with a nonzero cache hit rate" target.
//!
//! Wall-clock speedup requires the hardware to exist: on a host with
//! fewer cores than workers (CI containers are often single-core) the
//! threads time-share one CPU and wall clock cannot improve. The
//! critical-path speedup — total classification work divided by the
//! busiest worker's time — is the farm's scheduling quality, i.e. the
//! wall-clock speedup the same run achieves once one core per worker is
//! available; the benchmark prints the host core count next to it.

use std::time::{Duration, Instant};

use portend::{PortendConfig, RaceClass};
use portend_bench::crit::fmt_duration;
use portend_bench::render_table;
use portend_farm::{Farm, FarmConfig, JobSpec};
use portend_workloads::by_name;

const CORPUS: [&str; 4] = ["ctrace", "bbuf", "memcached", "pbzip2"];
const WORKERS: usize = 4;
const SAMPLES: u32 = 3;

/// Minimum wall time of `samples` runs of `f`.
fn time_min<F: FnMut()>(samples: u32, mut f: F) -> Duration {
    (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .min()
        .expect("at least one sample")
}

fn classes(result: &portend::PipelineResult) -> Vec<Option<RaceClass>> {
    result
        .analyzed
        .iter()
        .map(|a| a.verdict.as_ref().ok().map(|v| v.class))
        .collect()
}

fn main() {
    let cfg = PortendConfig::default();
    let mut rows = Vec::new();
    let mut total_serial = Duration::ZERO;
    let mut total_parallel = Duration::ZERO;

    for name in CORPUS {
        let w = by_name(name).expect("workload exists");

        // The baseline: `analyze` is the one-worker farm.
        let serial_result = w.analyze(cfg.clone());
        let serial = time_min(SAMPLES, || {
            let r = w.analyze(cfg.clone());
            assert!(!r.analyzed.is_empty());
        });

        let (parallel_result, stats) = w.analyze_parallel_with_stats(cfg.clone(), WORKERS);
        assert_eq!(
            classes(&serial_result),
            classes(&parallel_result),
            "{name}: {WORKERS}-worker verdicts must equal 1-worker verdicts"
        );
        let parallel = time_min(SAMPLES, || {
            let r = w.analyze_parallel(cfg.clone(), WORKERS);
            assert!(!r.analyzed.is_empty());
        });

        total_serial += serial;
        total_parallel += parallel;
        // Critical-path speedup: total classification work over the
        // busiest worker — the wall-clock speedup with >= WORKERS cores.
        let critical_path = stats
            .per_worker
            .iter()
            .map(|p| p.busy)
            .max()
            .unwrap_or(Duration::ZERO)
            .as_secs_f64();
        let cp_speedup = stats.busy_total.as_secs_f64() / critical_path.max(1e-9);
        let hit_rate = stats.cache_hit_rate().unwrap_or(0.0);
        let slice_rate = stats.slice_hit_rate().unwrap_or(0.0);
        rows.push(vec![
            name.to_string(),
            serial_result.analyzed.len().to_string(),
            fmt_duration(serial),
            fmt_duration(parallel),
            format!(
                "{:.2}x",
                serial.as_secs_f64() / parallel.as_secs_f64().max(1e-9)
            ),
            format!("{cp_speedup:.2}x"),
            format!("{:.0}%", 100.0 * hit_rate),
            format!("{:.0}%", 100.0 * slice_rate),
            format!("{:.0}%", 100.0 * stats.utilization()),
        ]);
    }
    rows.push(vec![
        "TOTAL".into(),
        String::new(),
        fmt_duration(total_serial),
        fmt_duration(total_parallel),
        format!(
            "{:.2}x",
            total_serial.as_secs_f64() / total_parallel.as_secs_f64().max(1e-9)
        ),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "farm speedup at {WORKERS} workers on {cores} host core(s) \
         (min of {SAMPLES} samples per cell):\n"
    );
    if cores < WORKERS {
        println!(
            "note: host has fewer cores than workers — wall-clock speedup is \
             bounded by the hardware; the critical-path column is the speedup \
             this run achieves once {WORKERS} cores are available.\n"
        );
    }
    println!(
        "{}",
        render_table(
            &[
                "Program",
                "Races",
                "1 worker",
                "4 workers",
                "Wall speedup",
                "Crit-path speedup",
                "Cache hit",
                "Slice hit",
                "Worker util",
            ],
            &rows,
        )
    );

    // Corpus-level fan-out: one farm job per (program, trace) case. This
    // is the same generic engine the pipeline delegates to, reused one
    // level up the stack.
    let corpus_serial = time_min(1, || {
        for name in CORPUS {
            let w = by_name(name).expect("workload exists");
            let r = w.analyze(cfg.clone());
            assert!(!r.analyzed.is_empty());
        }
    });
    let farm = Farm::new(FarmConfig::with_workers(WORKERS));
    let corpus_cfg = cfg.clone();
    let t0 = Instant::now();
    let jobs = CORPUS
        .iter()
        .enumerate()
        .map(|(i, name)| JobSpec::new(i, *name))
        .collect();
    let (outputs, corpus_stats) = farm
        .run(jobs, move |_w, name: &str| {
            let w = by_name(name).expect("workload exists");
            w.analyze(corpus_cfg.clone()).analyzed.len()
        })
        .join();
    let corpus_parallel = t0.elapsed();
    assert_eq!(outputs.len(), CORPUS.len());
    println!(
        "corpus fan-out ({} cases): serial {} | farm {} | speedup {:.2}x | {}",
        CORPUS.len(),
        fmt_duration(corpus_serial),
        fmt_duration(corpus_parallel),
        corpus_serial.as_secs_f64() / corpus_parallel.as_secs_f64().max(1e-9),
        corpus_stats.summary(),
    );
}
