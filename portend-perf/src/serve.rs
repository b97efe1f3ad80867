//! `serve`: one resident `portend_serve::Server`, driven by a closed loop
//! with one client. Each op is one `analyze` request line, drawn by a
//! seeded RNG from the eight programs other than pbzip2, memcached and
//! fmm, and sent through `Server::handle_line`. The server sees nothing
//! but the generated lines, and keeps its warm capital in its resident
//! per-program caches.
//!
//! The timed server has no store directory. With one, every request
//! also loads, saves and re-indexes its program's store, about three
//! file replacements that on a shared virtual disk made the run-to-run
//! spread of every timing metric exceed the largest bound a metric may
//! have. The traced run measures the store on its own instead: after
//! each traced request, [`StoreProbe`] times `StoreManager::save_from`
//! and `StoreManager::load_into` from outside and analyzes the program
//! once more, warmed from the loaded store.
//!
//! The server keeps no trace of a request in memory, so the traced run
//! uses a second server whose analysis configuration exports each
//! request's trace as a Chrome file; the benchmark reads it back after
//! the request. Untraced and traced requests alternate.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use portend::{CacheSnapshot, PortendConfig, RaceOutcome, RunReport, TraceConfig, WarmSource};
use portend_serve::{Frame, Request, Server, ServerConfig};
use portend_symex::{SolverCache, StoreManager};
use portend_vm::SmallRng;
use portend_workloads::Workload;

use crate::measure::{self, Layers, Tally};
use crate::{Bench, Op};

/// The programs the request mix draws from.
pub const PROGRAMS: [&str; 8] = [
    "SQLite", "ocean", "ctrace", "bbuf", "AVV", "DCL", "DBM", "RW",
];

/// Farm width of every request: one worker per core of the two-core
/// reference host, pinned so that larger hosts run the same mix.
const WORKERS: usize = 2;

/// The directory (relative to the working directory) holding the traced
/// run's files; it is removed again when the workload ends.
const TMP_ROOT: &str = ".portend-perf-tmp";

/// A directory removed with everything in it on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Result<TempDir, String> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(TMP_ROOT)
            .join(format!("serve-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run's directory is left in it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One resident server, the last cache counters it reported per
/// program, and where its requests export their trace, if they do.
struct Served {
    server: Server,
    chrome: Option<PathBuf>,
    last_cache: HashMap<&'static str, CacheSnapshot>,
}

/// What one request produced.
struct Reply {
    op: Op,
    frames: Vec<Frame>,
    render: Duration,
    bytes: usize,
}

impl Served {
    fn new(chrome: Option<PathBuf>) -> Result<Served, String> {
        let analysis = PortendConfig {
            trace: chrome
                .as_ref()
                .map(|path| TraceConfig::new().with_chrome(path)),
            ..PortendConfig::default()
        };
        let server = Server::new(ServerConfig {
            analysis,
            workers: WORKERS,
            ..ServerConfig::default()
        })
        .map_err(|e| e.to_string())?;
        Ok(Served {
            server,
            chrome,
            last_cache: HashMap::new(),
        })
    }

    /// Sends one request line and renders every frame into memory, as
    /// the daemon's I/O loop does.
    fn send(&self, line: &str) -> Reply {
        let mut frames = Vec::new();
        let mut first = None;
        let mut render = Duration::ZERO;
        let mut sink: Vec<u8> = Vec::new();
        let t = Instant::now();
        self.server.handle_line(line, &mut |frame| {
            let r = Instant::now();
            let text = frame.render();
            render += r.elapsed();
            if first.is_none() && matches!(frame, Frame::Verdict { .. }) {
                first = Some(Instant::now());
            }
            sink.extend_from_slice(text.as_bytes());
            sink.push(b'\n');
            frames.push(frame);
        });
        let took = t.elapsed();
        Reply {
            op: Op {
                time: took,
                races: 0,
                first_verdicts: vec![first.map_or(took, |f| f.duration_since(t))],
            },
            frames,
            render,
            bytes: sink.len(),
        }
    }
}

/// The warm-store round trip the traced run times from outside: a
/// managed store directory and one solver cache per program, filled by
/// one analysis at set-up as a server's resident cache is.
struct StoreProbe {
    manager: StoreManager,
    caches: Vec<Arc<SolverCache>>,
}

/// A cache shaped as the default configuration builds one.
fn fresh_cache() -> Arc<SolverCache> {
    Arc::new(SolverCache::new(PortendConfig::default().farm.cache_shards))
}

impl StoreProbe {
    fn new(dir: &Path, programs: &[Workload]) -> Result<StoreProbe, String> {
        let manager = StoreManager::new(dir).map_err(|e| e.to_string())?;
        let caches = programs
            .iter()
            .map(|w| {
                let cache = fresh_cache();
                let warm = WarmSource::Borrowed(Arc::clone(&cache));
                w.analyze_streamed(PortendConfig::default(), WORKERS, &warm, &mut |_, _, _| {});
                cache
            })
            .collect();
        Ok(StoreProbe { manager, caches })
    }

    /// Saves program `at`'s cache as its managed store, loads that store
    /// into a cold cache, and analyzes the program warmed from it,
    /// checking the warm verdicts too.
    fn round_trip(
        &self,
        w: &Workload,
        at: usize,
        tally: &mut Tally,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let fingerprint = w.fingerprint();
        let t = Instant::now();
        self.manager
            .save_from(fingerprint, &self.caches[at])
            .map_err(|e| e.to_string())?;
        layers.add("store.save_ns", t.elapsed().as_nanos() as f64);
        let cold = fresh_cache();
        let t = Instant::now();
        self.manager
            .load_into(fingerprint, &cold)
            .map_err(|e| e.to_string())?;
        layers.add("store.load_ns", t.elapsed().as_nanos() as f64);

        let warm = WarmSource::Borrowed(cold);
        let (result, _) =
            w.analyze_streamed(PortendConfig::default(), WORKERS, &warm, &mut |_, _, _| {});
        tally.check_all(w, &result.analyzed);
        let warm_hits = result.cache.map_or(0, |c| c.warm_hits);
        layers.add("store.warm_hits", warm_hits as f64);
        Ok(())
    }
}

/// What only the traced run needs. Fields drop in order, so the
/// directory goes last.
struct Traced {
    served: Served,
    probe: StoreProbe,
    _root: TempDir,
}

/// The serve workload.
pub struct Serve {
    programs: Vec<Workload>,
    plain: Served,
    traced: Option<Traced>,
    rng: SmallRng,
    next_id: u64,
}

impl Serve {
    /// Builds the programs and the server(s), and primes each program
    /// once per server.
    pub fn setup(seed: u64, traced: bool) -> Result<Serve, String> {
        let programs = PROGRAMS
            .iter()
            .map(|n| portend_workloads::by_name(n).ok_or_else(|| format!("no workload {n}")))
            .collect::<Result<Vec<_>, _>>()?;
        let plain = Served::new(None)?;
        let traced = if traced {
            let root = TempDir::new()?;
            Some(Traced {
                served: Served::new(Some(root.0.join("request.trace.json")))?,
                probe: StoreProbe::new(&root.0.join("store"), &programs)?,
                _root: root,
            })
        } else {
            None
        };
        let mut bench = Serve {
            programs,
            plain,
            traced,
            rng: SmallRng::seed_from_u64(seed),
            next_id: 0,
        };
        // Priming verdicts are checked (a failure is printed) but not
        // counted: they are set-up, not measured ops.
        let mut tally = Tally::default();
        let primes: Vec<(usize, String)> = (0..PROGRAMS.len())
            .map(|at| (at, bench.request_line(at)))
            .collect();
        for (at, line) in primes {
            let reply = bench.plain.send(&line);
            check(&bench.programs[at], &reply.frames, &mut tally);
            if let Some(traced) = &mut bench.traced {
                let served = &mut traced.served;
                let reply = served.send(&line);
                if let Some(report) = check(&bench.programs[at], &reply.frames, &mut tally) {
                    if let Some(c) = report.cache {
                        served.last_cache.insert(PROGRAMS[at], c);
                    }
                }
            }
        }
        Ok(bench)
    }

    /// The next request line for program `at`.
    fn request_line(&mut self, at: usize) -> String {
        self.next_id += 1;
        Request::Analyze {
            id: self.next_id,
            workload: PROGRAMS[at].to_string(),
            workers: 0,
        }
        .render()
    }

    /// Draws the next program of the mix and its request line.
    fn draw(&mut self) -> (usize, String) {
        let at = self.rng.gen_index(PROGRAMS.len());
        (at, self.request_line(at))
    }
}

/// Checks a request's frames: each verdict against its pinned label,
/// one verdict per race of the terminating report, no error frame.
/// Returns the terminating report.
fn check(w: &Workload, frames: &[Frame], tally: &mut Tally) -> Option<RunReport> {
    let mut verdicts = 0;
    let mut report = None;
    for frame in frames {
        match frame {
            Frame::Verdict { race, .. } => match RaceOutcome::from_json_value(race) {
                Ok(o) => {
                    verdicts += 1;
                    let outcome = match &o.verdict {
                        Ok(v) => Ok(v.class.as_str()),
                        Err(e) => Err(e.as_str()),
                    };
                    tally.check(w, &o.alloc_name, outcome);
                }
                Err(e) => tally.fail_unchecked(&format!("{}: bad verdict frame: {e}", w.name)),
            },
            Frame::Done { report: doc, .. } => match RunReport::from_json_value(doc) {
                Ok(r) => report = Some(r),
                Err(e) => tally.fail_unchecked(&format!("{}: bad done frame: {e}", w.name)),
            },
            Frame::Error { message, .. } => {
                tally.fail_unchecked(&format!("{}: error frame: {message}", w.name))
            }
            other => tally.fail_unchecked(&format!("{}: unexpected frame {other:?}", w.name)),
        }
    }
    match &report {
        Some(r) if r.races.len() == verdicts => {}
        Some(r) => tally.fail_unchecked(&format!(
            "{}: {verdicts} verdict frames for {} races",
            w.name,
            r.races.len()
        )),
        None => tally.fail_unchecked(&format!("{}: no done frame", w.name)),
    }
    report
}

/// `now - before` for the counters the per-layer numbers use; the
/// resident cache's counters only grow.
fn cache_delta(now: &CacheSnapshot, before: &CacheSnapshot) -> CacheSnapshot {
    CacheSnapshot {
        hits: now.hits.saturating_sub(before.hits),
        misses: now.misses.saturating_sub(before.misses),
        slice_hits: now.slice_hits.saturating_sub(before.slice_hits),
        slice_misses: now.slice_misses.saturating_sub(before.slice_misses),
        ..CacheSnapshot::default()
    }
}

/// Total size of the regular files directly in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl Bench for Serve {
    fn op(&mut self, tally: &mut Tally) -> Result<Op, String> {
        let (at, line) = self.draw();
        let mut reply = self.plain.send(&line);
        if let Some(report) = check(&self.programs[at], &reply.frames, tally) {
            reply.op.races = report.races.len() as u64;
        }
        Ok(reply.op)
    }

    fn op_traced(&mut self, tally: &mut Tally, layers: &mut Layers) -> Result<Op, String> {
        let (at, line) = self.draw();
        let w = &self.programs[at];
        let traced = self
            .traced
            .as_mut()
            .ok_or("serve was set up without a traced server")?;
        let served = &mut traced.served;
        let mut reply = served.send(&line);
        let Some(report) = check(w, &reply.frames, tally) else {
            return Ok(reply.op);
        };
        reply.op.races = report.races.len() as u64;

        let t = Instant::now();
        std::hint::black_box(Request::parse(&line)).map_err(|e| e.to_string())?;
        layers.add("serve.parse_ns", t.elapsed().as_nanos() as f64);
        layers.add("serve.render_ns", reply.render.as_nanos() as f64);
        layers.add("serve.frame_bytes", reply.bytes as f64);
        for race in &report.races {
            if let Ok(v) = &race.verdict {
                layers.add_race(race.time, &v.stats);
            }
        }
        if let Some(farm) = &report.farm {
            layers.add_farm(farm);
        }
        if let Some(now) = report.cache {
            let before = served
                .last_cache
                .insert(PROGRAMS[at], now)
                .unwrap_or_default();
            layers.add_cache(&cache_delta(&now, &before));
        }
        if let Some(path) = &served.chrome {
            let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            let doc = portend_obs::json::parse(&text).map_err(|e| e.to_string())?;
            layers.add_spans(&measure::spans_of_chrome(&doc));
        }
        measure::probe(w, layers);
        traced.probe.round_trip(w, at, tally, layers)?;
        Ok(reply.op)
    }

    fn finish(&mut self, layers: &mut Layers) {
        if let Some(traced) = &self.traced {
            let bytes = dir_bytes(traced.probe.manager.dir());
            layers.add("store.dir_bytes", bytes as f64);
        }
    }
}
