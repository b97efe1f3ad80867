//! portend-perf — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path portend-perf/Cargo.toml -- \
//!     --workload suite-2w|suite-1w|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds the workload, then runs closed-loop ops with one client for
//! `S` seconds, checking every verdict. With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it alternates untraced and
//! traced ops and prints the per-layer metrics, each timed from outside
//! around calls into the layer's public functions or read from the
//! program's own counters and trace spans. The last line of standard
//! output is one JSON object: `correct`, `attempted` and `failed` count
//! checked race verdicts, and `metrics` maps each metric name to its
//! value and unit. README.md beside this file lists the workloads and
//! which end-to-end metric each per-layer metric should move.

mod measure;
mod serve;
mod suite;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use measure::{ms, quantile, ratio, Layers, Tally};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// Windows of consecutive ops `races_per_s` is the median over.
const THROUGHPUT_WINDOWS: usize = 10;

/// Ops a run makes however short `--seconds` is.
const MIN_OPS: usize = 2;

/// The work one op did, as the client saw it.
#[derive(Debug, Default, Clone)]
pub struct Op {
    /// Time from sending the op to its last frame.
    pub time: Duration,
    /// Race clusters classified.
    pub races: u64,
    /// Per program request: time to its first streamed verdict.
    pub first_verdicts: Vec<Duration>,
}

/// A workload the benchmark drives.
pub trait Bench {
    /// One untraced op; every verdict is checked into `tally`.
    fn op(&mut self, tally: &mut Tally) -> Result<Op, String>;
    /// One traced op, adding its per-layer numbers to `layers`.
    fn op_traced(&mut self, tally: &mut Tally, layers: &mut Layers) -> Result<Op, String>;
    /// Adds numbers taken once at the end of the run.
    fn finish(&mut self, _layers: &mut Layers) {}
}

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["suite-2w", "suite-1w", "serve"];

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed of the serve request mix (the suite's inputs are fixed).
    pub seed: u64,
    /// How long ops are measured.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload:?} (one of {WORKLOADS:?})"
            ));
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds >= 0.0 && seconds.is_finite()) {
            return Err(format!("bad --seconds {seconds}"));
        }
        Ok(Args {
            workload,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run prints.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Verdict bookkeeping over every measured op.
    pub tally: Tally,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Free-form lines printed before the result (sample counts, the
    /// failure ratio, the echoed seed).
    pub notes: Vec<String>,
}

fn setup(args: &Args) -> Result<Box<dyn Bench>, String> {
    Ok(match args.workload.as_str() {
        "suite-2w" => Box::new(suite::Suite::setup(2)?),
        "suite-1w" => Box::new(suite::Suite::setup(1)?),
        _ => Box::new(serve::Serve::setup(args.seed, args.trace)?),
    })
}

/// Sets the workload up [`SETUP_REPEATS`] times, then measures it.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut bench = None;
    for _ in 0..SETUP_REPEATS {
        drop(bench.take());
        let t = Instant::now();
        bench = Some(setup(args)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("SETUP_REPEATS > 0");

    let mut tally = Tally::default();
    let mut layers = Layers::default();
    // Flat samples, so the benchmark's own memory barely grows with the
    // number of ops and `peak_rss_mb` stays the program's.
    let mut plain_ms: Vec<f64> = Vec::new();
    let mut plain_races: Vec<u64> = Vec::new();
    let mut first: Vec<f64> = Vec::new();
    let mut traced_ms: Vec<f64> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while plain_ms.len() < MIN_OPS || Instant::now() < deadline {
        let op = bench.op(&mut tally)?;
        plain_ms.push(ms(op.time));
        plain_races.push(op.races);
        first.extend(op.first_verdicts.iter().map(|&d| ms(d)));
        if args.trace {
            traced_ms.push(ms(bench.op_traced(&mut tally, &mut layers)?.time));
        }
    }
    bench.finish(&mut layers);
    drop(bench);

    let mut notes = vec![format!(
        "workload {} seed {} seconds {} trace {} ops {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        plain_ms.len()
    )];
    notes.push(format!(
        "fail_ratio {} ratio ({} failed of {} races)",
        tally.fail_ratio(),
        tally.failed,
        tally.attempted
    ));
    let metrics = if args.trace {
        let p50 = quantile(&plain_ms, 0.5);
        let overhead = 100.0 * ratio(quantile(&traced_ms, 0.5) - p50, p50);
        notes.push(format!(
            "per-layer numbers are per op over {} traced ops",
            traced_ms.len()
        ));
        per_layer(&layers, traced_ms.len(), overhead)
    } else {
        // Throughput per window of consecutive ops, so a burst of host
        // contention moves one window, not the reported median.
        let window = plain_ms.len().div_ceil(THROUGHPUT_WINDOWS);
        let throughput: Vec<f64> = plain_ms
            .chunks(window)
            .zip(plain_races.chunks(window))
            .map(|(t, r)| ratio(r.iter().sum::<u64>() as f64, t.iter().sum::<f64>() / 1e3))
            .collect();
        notes.push(format!(
            "samples: op {} first_verdict {} setup {}",
            plain_ms.len(),
            first.len(),
            setups.len()
        ));
        vec![
            metric("setup_s", quantile(&setups, 0.5), "s"),
            metric("op_p50_ms", quantile(&plain_ms, 0.5), "ms"),
            metric("op_p90_ms", quantile(&plain_ms, 0.9), "ms"),
            metric("races_per_s", quantile(&throughput, 0.5), "1/s"),
            metric("first_verdict_p50_ms", quantile(&first, 0.5), "ms"),
            metric("verdict_pass_ratio", 1.0 - tally.fail_ratio(), "ratio"),
            metric("truth_accuracy", tally.truth_accuracy(), "ratio"),
            metric("peak_rss_mb", measure::peak_rss_mb(), "MiB"),
        ]
    };
    Ok(Outcome {
        tally,
        metrics,
        notes,
    })
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The per-layer metrics: per-op means of the traced ops' sums, and
/// ratios of sums.
fn per_layer(l: &Layers, ops: usize, trace_overhead_pct: f64) -> Vec<Metric> {
    let per_op = |name: &'static str, unit| metric(name, l.per_op(name, ops), unit);
    let of = |a: &str, b: &str| ratio(l.sum(a), l.sum(b));
    vec![
        per_op("vm.classify_insts", "count"),
        metric(
            "vm.classify_ns_per_inst",
            of("core.classify_ns", "vm.classify_insts"),
            "ns",
        ),
        metric(
            "vm.plain_ns_per_inst",
            of("vm.plain_ns", "vm.plain_insts"),
            "ns",
        ),
        per_op("farm.wall_ns", "ns"),
        per_op("farm.busy_ns", "ns"),
        metric(
            "farm.efficiency",
            of("farm.busy_ns", "farm.capacity_ns"),
            "ratio",
        ),
        per_op("farm.steals", "count"),
        per_op("store.load_ns", "ns"),
        per_op("store.save_ns", "ns"),
        per_op("store.warm_hits", "count"),
        metric("store.dir_bytes", l.sum("store.dir_bytes"), "bytes"),
        per_op("symex.solves", "count"),
        per_op("symex.slice_hits", "count"),
        metric(
            "symex.hit_ratio",
            of("symex.cache_hits", "symex.cache_probes"),
            "ratio",
        ),
        per_op("symex.solver_ns", "ns"),
        per_op("symex.forks", "count"),
        per_op("symex.fork_bytes_copied", "bytes"),
        per_op("replay.record_ns", "ns"),
        per_op("race.clusters", "count"),
        per_op("race.instances", "count"),
        per_op("sa.static_ns", "ns"),
        per_op("sa.candidates", "count"),
        per_op("core.classify_ns", "ns"),
        per_op("core.primaries", "count"),
        per_op("core.alternates", "count"),
        per_op("core.preemptions", "count"),
        per_op("serve.parse_ns", "ns"),
        per_op("serve.render_ns", "ns"),
        per_op("serve.frame_bytes", "bytes"),
        metric("obs.trace_overhead_pct", trace_overhead_pct, "%"),
    ]
}

/// The result line: one JSON object.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.tally.failed == 0 && o.tally.attempted > 0,
        o.tally.attempted,
        o.tally.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("portend-perf: {e}");
            eprintln!("usage: portend-perf --workload W --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("{note}");
            }
            for m in &outcome.metrics {
                println!("{} {} {}", m.name, m.value, m.unit);
            }
            println!("{}", result_json(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("portend-perf: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portend_obs::json::{self, Json};

    fn args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.into(),
            seed: 7,
            seconds: 0.0,
            trace,
        }
    }

    /// Every metric a run prints is declared in `BENCHMARK.json` (in the
    /// matching section) and has a well-formed name, and every declared
    /// metric is printed.
    #[test]
    fn printed_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |section: &str| -> Vec<String> {
            doc.get(section)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let declared: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(declared, WORKLOADS);
        let well_formed = |n: &str| {
            !n.is_empty()
                && n.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
        };
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let want = names(section);
            for w in WORKLOADS {
                let out = run(&args(w, trace)).unwrap();
                assert!(out.tally.attempted > 0 && out.tally.failed == 0, "{w}");
                let got: Vec<String> = out.metrics.iter().map(|m| m.name.to_string()).collect();
                assert_eq!(got, want, "{w} trace={trace}");
                assert!(got.iter().all(|n| well_formed(n)), "{got:?}");
                let line = result_json(&out);
                assert!(json::parse(&line).is_ok(), "{line}");
            }
        }
    }

    /// The counts that do not depend on timing repeat exactly from one
    /// suite op to the next.
    #[test]
    fn deterministic_counts_repeat_across_ops() {
        for workers in [2, 1] {
            let mut bench = suite::Suite::setup(workers).unwrap();
            let mut counts = Vec::new();
            for _ in 0..2 {
                let mut layers = Layers::default();
                let mut tally = Tally::default();
                bench.op_traced(&mut tally, &mut layers).unwrap();
                assert_eq!(tally.failed, 0);
                counts.push(
                    ["vm.classify_insts", "race.clusters", "symex.solves"].map(|n| layers.sum(n)),
                );
            }
            assert_eq!(counts[0], counts[1], "workers={workers}");
            assert_eq!(counts[0][1], 93.0, "race clusters per suite pass");
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = Args::parse(&argv("--workload serve --seed 9 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve".into(),
                seed: 9,
                seconds: 2.5,
                trace: true
            }
        );
        assert!(Args::parse(&argv("--workload nope")).is_err());
        assert!(Args::parse(&argv("--workload suite-1w --trace 2")).is_err());
        assert!(Args::parse(&argv("--workload suite-1w --seed")).is_err());
    }
}
