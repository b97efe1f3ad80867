//! Shared measurement pieces: verdict checking, percentiles, per-layer
//! accumulation, span self time, and the process's peak memory.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use portend_obs::Trace;
use portend_replay::{ExecutionTrace, RecordConfig};
use portend_vm::{drive, DriveCfg, NullMonitor};
use portend_workloads::Workload;

/// Verdict bookkeeping for one run: every race is checked against its
/// pinned label (`Workload::expected_verdict`) and scored against the
/// manual ground truth (`GroundTruth::expected`), as `ScoreCard` does.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Races whose verdict was checked.
    pub attempted: u64,
    /// Races whose verdict differed from the pinned label, failed to
    /// classify, or came back as an error frame.
    pub failed: u64,
    /// Races with a ground-truth entry (the accuracy denominator).
    pub truth_total: u64,
    /// Of those, verdicts equal to the manual ground truth.
    pub truth_ok: u64,
}

impl Tally {
    /// Checks one race's outcome: `Ok(class label)` or `Err(message)`.
    /// A failure is printed to stderr and counted.
    pub fn check(&mut self, w: &Workload, alloc: &str, outcome: Result<&str, &str>) {
        self.attempted += 1;
        let pinned = w.expected_verdict(alloc).map(|c| c.label());
        let truth = w
            .ground_truth
            .iter()
            .find(|g| g.alloc == alloc)
            .map(|g| g.expected.label());
        if truth.is_some() {
            self.truth_total += 1;
        }
        match outcome {
            Ok(class) => {
                if truth == Some(class) {
                    self.truth_ok += 1;
                }
                if pinned != Some(class) {
                    self.fail(&format!(
                        "{} race on {alloc}: verdict {class}, pinned {}",
                        w.name,
                        pinned.unwrap_or("<none>")
                    ));
                }
            }
            Err(message) => self.fail(&format!("{} race on {alloc}: error {message}", w.name)),
        }
    }

    /// Checks every race of one pipeline result.
    pub fn check_all(&mut self, w: &Workload, analyzed: &[portend::AnalyzedRace]) {
        for a in analyzed {
            let outcome = match &a.verdict {
                Ok(v) => Ok(v.class.label()),
                Err(e) => Err(e.0.as_str()),
            };
            self.check(w, &a.cluster.representative.alloc_name, outcome);
        }
    }

    /// Counts a failure that is not tied to one checked race (an error
    /// frame, a missing frame): it is attempted and failed.
    pub fn fail_unchecked(&mut self, what: &str) {
        self.attempted += 1;
        self.fail(what);
    }

    fn fail(&mut self, what: &str) {
        self.failed += 1;
        eprintln!("verdict check failed: {what}");
    }

    /// Failed over attempted.
    pub fn fail_ratio(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// Share of ground-truth-scored verdicts that equal the truth.
    pub fn truth_accuracy(&self) -> f64 {
        ratio(self.truth_ok as f64, self.truth_total as f64)
    }
}

/// `a / b`, or `0` when `b` is `0`.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (`0..=1`) of `samples`, linearly interpolated
/// between order statistics; `0` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Per-layer sums over the traced ops of a run. Names are the metric
/// names printed at the end; [`Layers::per_op`] turns the sums into
/// per-op means.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Adds `v` to the sum named `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }

    /// The sum named `name` (`0` when nothing was added).
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// The sum named `name` divided by `ops`.
    pub fn per_op(&self, name: &str, ops: usize) -> f64 {
        ratio(self.sum(name), ops as f64)
    }

    /// Folds one classified race's work counters in.
    pub fn add_race(&mut self, time: Duration, stats: &portend::ClassifyStats) {
        self.add("core.classify_ns", time.as_nanos() as f64);
        self.add("vm.classify_insts", stats.instructions as f64);
        self.add("core.primaries", stats.primaries as f64);
        self.add("core.alternates", stats.alternates as f64);
        self.add("core.preemptions", stats.preemptions as f64);
    }

    /// Folds one farm run's statistics in.
    pub fn add_farm(&mut self, stats: &portend::FarmStats) {
        let wall = stats.wall.as_nanos() as f64;
        self.add("farm.wall_ns", wall);
        self.add("farm.busy_ns", stats.busy_total.as_nanos() as f64);
        self.add("farm.capacity_ns", wall * stats.per_worker.len() as f64);
        self.add("farm.steals", stats.steals as f64);
        self.add("symex.fork_bytes_copied", stats.fork_bytes_copied as f64);
    }

    /// Folds one solver-cache counter delta in. A whole-query miss is
    /// a solve; a slice miss is not always one (a concurrent worker may
    /// be solving the same slice), so slice solves are counted from the
    /// trace instead (see [`Layers::add_spans`]).
    pub fn add_cache(&mut self, c: &portend::CacheSnapshot) {
        self.add("symex.solves", c.misses as f64);
        self.add("symex.slice_hits", c.slice_hits as f64);
        self.add("symex.cache_hits", (c.hits + c.slice_hits) as f64);
        self.add(
            "symex.cache_probes",
            (c.hits + c.misses + c.slice_hits + c.slice_misses) as f64,
        );
    }

    /// Folds one run's trace spans in: cold slices solved, solver self
    /// time, and fork count.
    pub fn add_spans(&mut self, spans: &[SpanRec]) {
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64;
        self.add("symex.solves", count("slice_solve"));
        self.add("symex.solver_ns", self_time_ns(spans, "solver_check"));
        self.add("symex.forks", count("fork"));
    }
}

/// Times the layers that run before any verdict, from outside, by
/// calling their public entry points on `w` once: the recording run
/// (`portend_replay::record`, which also yields the detector's race
/// counts), the static pass (`portend_sa::analyze`), and a plain
/// interpretation under `NullMonitor` (`portend_vm::drive`, Table 4's
/// baseline).
pub fn probe(w: &Workload, layers: &mut Layers) {
    let cfg = RecordConfig {
        scheduler: w.record_scheduler.clone(),
        vm: w.vm,
        ..Default::default()
    };
    let t = Instant::now();
    let run = black_box(portend_replay::record(&w.program, w.inputs.clone(), cfg));
    layers.add("replay.record_ns", t.elapsed().as_nanos() as f64);
    layers.add("race.clusters", run.clusters.len() as f64);
    layers.add("race.instances", run.races.len() as f64);

    let t = Instant::now();
    let sa = black_box(portend_sa::analyze(&w.program));
    layers.add("sa.static_ns", t.elapsed().as_nanos() as f64);
    layers.add("sa.candidates", sa.stats().candidates as f64);

    let mut m = ExecutionTrace::new(vec![], w.inputs.clone()).machine(&w.program, w.vm);
    let mut sched = w.record_scheduler.clone();
    let t = Instant::now();
    black_box(drive(
        &mut m,
        &mut sched,
        &mut NullMonitor,
        &DriveCfg::with_budget(5_000_000),
    ));
    layers.add("vm.plain_ns", t.elapsed().as_nanos() as f64);
    layers.add("vm.plain_insts", m.steps as f64);
}

/// One trace event reduced to what the per-layer numbers need. Instants
/// have `dur_ns == 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Lane (thread) index the event was recorded on.
    pub lane: usize,
    /// Event name (`solver_check`, `slice_solve`, `fork`, …).
    pub name: String,
    /// Start offset in nanoseconds.
    pub ts_ns: f64,
    /// Duration in nanoseconds.
    pub dur_ns: f64,
    /// Whether the event is a span (as opposed to an instant).
    pub is_span: bool,
}

/// Flattens an in-memory trace.
pub fn spans_of(trace: &Trace) -> Vec<SpanRec> {
    let mut out = Vec::with_capacity(trace.total_events() as usize);
    for (lane, l) in trace.lanes.iter().enumerate() {
        for e in &l.events {
            out.push(SpanRec {
                lane,
                name: e.name.to_string(),
                ts_ns: e.ts_ns as f64,
                dur_ns: e.dur_ns as f64,
                is_span: e.kind.is_span(),
            });
        }
    }
    out
}

/// Reads the events back out of a Chrome trace-event document
/// (`Trace::to_chrome_json`: microsecond timestamps, lane as `tid`).
pub fn spans_of_chrome(doc: &portend_obs::json::Json) -> Vec<SpanRec> {
    let Some(events) = doc.get("traceEvents").and_then(|e| e.as_arr()) else {
        return Vec::new();
    };
    events
        .iter()
        .filter_map(|e| {
            let ph = e.get("ph")?.as_str()?;
            if ph != "X" && ph != "i" {
                return None;
            }
            Some(SpanRec {
                lane: e.get("tid")?.as_u64()? as usize,
                name: e.get("name")?.as_str()?.to_string(),
                ts_ns: e.get("ts")?.as_f64()? * 1e3,
                dur_ns: e.get("dur").and_then(|d| d.as_f64()).unwrap_or(0.0) * 1e3,
                is_span: ph == "X",
            })
        })
        .collect()
}

/// Summed self time of the spans named `name`: each span's duration
/// minus the part its directly nested child spans (same lane) cover.
pub fn self_time_ns(spans: &[SpanRec], name: &str) -> f64 {
    let mut by_lane: BTreeMap<usize, Vec<&SpanRec>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.is_span) {
        by_lane.entry(s.lane).or_default().push(s);
    }
    let mut total = 0.0;
    for (_, mut lane) in by_lane {
        // Parents sort before the children they enclose.
        lane.sort_by(|a, b| {
            a.ts_ns
                .total_cmp(&b.ts_ns)
                .then(b.dur_ns.total_cmp(&a.dur_ns))
        });
        let mut child_ns = vec![0.0; lane.len()];
        let mut stack: Vec<usize> = Vec::new();
        for (i, s) in lane.iter().enumerate() {
            while let Some(&top) = stack.last() {
                if lane[top].ts_ns + lane[top].dur_ns <= s.ts_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = stack.last() {
                child_ns[parent] += s.dur_ns;
            }
            stack.push(i);
        }
        total += lane
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.dur_ns - c).max(0.0))
            .sum::<f64>();
    }
    total
}

/// The process's peak resident set in MiB (`VmHWM`), or `0` where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(lane: usize, name: &str, ts: f64, dur: f64) -> SpanRec {
        SpanRec {
            lane,
            name: name.into(),
            ts_ns: ts,
            dur_ns: dur,
            is_span: true,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(0, "job", 0.0, 100.0),
            span(0, "solver_check", 10.0, 50.0),
            span(0, "slice_solve", 20.0, 10.0),
            span(0, "slice_solve", 40.0, 5.0),
            span(1, "solver_check", 0.0, 7.0),
        ];
        assert_eq!(self_time_ns(&spans, "solver_check"), 35.0 + 7.0);
        assert_eq!(self_time_ns(&spans, "job"), 50.0);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
    }
}
