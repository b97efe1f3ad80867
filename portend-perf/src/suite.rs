//! `suite-2w` and `suite-1w`: one op is one `portend analyze` pass over
//! the 11 modeled workloads, at a fixed farm width, with no warm store.
//!
//! Untraced ops go through the CLI's public path
//! (`portend_cli::analyze_workload`) with verdict frames rendered into an
//! in-memory sink. Traced ops make the same calls one level down
//! (`Workload::analyze_streamed` with `PortendConfig::trace` set), so the
//! benchmark can time `Frame::render` and keep the run's trace in memory.
//! Every op starts a fresh solver cache, as a `portend analyze`
//! invocation does.

use std::io::Write;
use std::time::{Duration, Instant};

use portend::{PipelineResult, PortendConfig, RaceOutcome, RunReport, TraceConfig, WarmSource};
use portend_cli::AnalyzeOptions;
use portend_serve::Frame;
use portend_workloads::Workload;

use crate::measure::{self, Layers, Tally};
use crate::{Bench, Op};

/// The suite workload at one farm width.
pub struct Suite {
    workloads: Vec<Workload>,
    opts: AnalyzeOptions,
    sink: FrameSink,
}

/// The in-memory frame sink: keeps the rendered lines of one
/// `analyze_workload` call and the instant the first one arrived.
#[derive(Default)]
struct FrameSink {
    buf: Vec<u8>,
    first: Option<Instant>,
}

impl FrameSink {
    fn reset(&mut self) {
        self.buf.clear();
        self.first = None;
    }

    fn lines(&self) -> usize {
        self.buf.iter().filter(|&&b| b == b'\n').count()
    }
}

impl Write for FrameSink {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.first.get_or_insert_with(Instant::now);
        self.buf.extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Suite {
    /// Builds the workload set once and runs one untimed warm-up pass,
    /// whose verdicts are checked (a failure is printed) but not counted.
    pub fn setup(workers: usize) -> Result<Suite, String> {
        let mut suite = Suite {
            workloads: portend_workloads::all(),
            opts: AnalyzeOptions {
                workers,
                ..AnalyzeOptions::default()
            },
            sink: FrameSink::default(),
        };
        suite.op(&mut Tally::default())?;
        Ok(suite)
    }
}

/// Checks every race of one workload's result and that the sink holds
/// one verdict frame per race plus the terminating report.
fn check(w: &Workload, result: &PipelineResult, frames: usize, tally: &mut Tally) {
    tally.check_all(w, &result.analyzed);
    if frames != result.analyzed.len() + 1 {
        tally.fail_unchecked(&format!(
            "{}: {frames} frames for {} races",
            w.name,
            result.analyzed.len()
        ));
    }
}

impl Bench for Suite {
    fn op(&mut self, tally: &mut Tally) -> Result<Op, String> {
        let mut op = Op::default();
        for (at, w) in self.workloads.iter().enumerate() {
            self.sink.reset();
            let t = Instant::now();
            let (result, _) =
                portend_cli::analyze_workload(w, at as u64 + 1, None, &self.opts, &mut self.sink)
                    .map_err(|e| format!("{}: {e}", w.name))?;
            let took = t.elapsed();
            op.time += took;
            op.first_verdicts
                .push(self.sink.first.map_or(took, |f| f.duration_since(t)));
            op.races += result.analyzed.len() as u64;
            check(w, &result, self.sink.lines(), tally);
        }
        Ok(op)
    }

    fn op_traced(&mut self, tally: &mut Tally, layers: &mut Layers) -> Result<Op, String> {
        let mut op = Op::default();
        for (at, w) in self.workloads.iter().enumerate() {
            let request = at as u64 + 1;
            let config = PortendConfig {
                trace: Some(TraceConfig::new()),
                ..PortendConfig::default()
            };
            let sink = &mut self.sink;
            sink.reset();
            let mut render = Duration::ZERO;
            let mut emit = |frame: Frame, sink: &mut FrameSink| {
                let t = Instant::now();
                let line = frame.render();
                render += t.elapsed();
                writeln!(sink, "{line}").expect("in-memory sink");
            };
            let t = Instant::now();
            let (result, stats) = w.analyze_streamed(
                config,
                self.opts.workers,
                &WarmSource::default(),
                &mut |seq, index, race| {
                    let race = RaceOutcome::from_analyzed(race).to_json_value();
                    emit(
                        Frame::Verdict {
                            request,
                            seq,
                            index: index as u64,
                            race,
                        },
                        sink,
                    );
                },
            );
            let report = RunReport::from_result(w.name, &result).with_farm(stats.clone());
            emit(
                Frame::Done {
                    request,
                    report: report.to_json_value(),
                },
                sink,
            );
            let took = t.elapsed();
            op.time += took;
            op.first_verdicts
                .push(sink.first.map_or(took, |f| f.duration_since(t)));
            op.races += result.analyzed.len() as u64;
            check(w, &result, sink.lines(), tally);

            layers.add("serve.render_ns", render.as_nanos() as f64);
            layers.add("serve.frame_bytes", sink.buf.len() as f64);
            for a in &result.analyzed {
                if let Ok(v) = &a.verdict {
                    layers.add_race(a.time, &v.stats);
                }
            }
            layers.add_farm(&stats);
            if let Some(cache) = &result.cache {
                layers.add_cache(cache);
            }
            if let Some(trace) = &result.trace {
                layers.add_spans(&measure::spans_of(trace));
            }
            measure::probe(w, layers);
        }
        Ok(op)
    }
}
