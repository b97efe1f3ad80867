//! The resident daemon: request dispatch, per-program cache residency,
//! managed warm-store lifecycle, and the stdio / Unix-socket loops.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use portend::{PortendConfig, RaceOutcome, RunReport, WarmSource};
use portend_obs::EventKind;
use portend_symex::{SolverCache, StoreBudget, StoreManager, WarmStoreError};

use crate::protocol::{Frame, Request};

/// How a [`Server`] is assembled.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Managed store directory for per-program warm stores; `None`
    /// keeps warm capital in-memory only (still shared across requests
    /// for the daemon's lifetime, lost on exit).
    pub store_dir: Option<PathBuf>,
    /// Disk budget for the store directory (ignored without one).
    pub budget: Option<StoreBudget>,
    /// The analysis configuration applied to every request.
    pub analysis: PortendConfig,
    /// Default farm width for requests that don't name one (`0` = one
    /// worker per CPU).
    pub workers: usize,
}

/// The resident analysis service.
///
/// One `Server` owns one [`StoreManager`] (when a store directory is
/// configured) and one resident [`SolverCache`] *per program
/// fingerprint*, shared across every request for that program — warm
/// capital compounds both in-memory (within the daemon's lifetime) and
/// on disk (across daemon restarts, via the managed stores).
///
/// The server is transport-agnostic: [`Server::handle_line`] maps one
/// request line to a sequence of frame lines, and
/// [`Server::serve_stdio`] / [`Server::serve_unix`] are thin loops over
/// it. Frames stream — the `out` callback fires per classified cluster,
/// not per request.
pub struct Server {
    manager: Option<Arc<StoreManager>>,
    caches: Mutex<HashMap<u64, Arc<SolverCache>>>,
    analysis: PortendConfig,
    workers: usize,
    shutdown: AtomicBool,
}

impl Server {
    /// Builds a server, creating the store directory when configured.
    pub fn new(config: ServerConfig) -> Result<Server, WarmStoreError> {
        let manager = match &config.store_dir {
            Some(dir) => Some(Arc::new(match config.budget {
                Some(b) => StoreManager::with_budget(dir, b)?,
                None => StoreManager::new(dir)?,
            })),
            None => None,
        };
        Ok(Server {
            manager,
            caches: Mutex::new(HashMap::new()),
            analysis: config.analysis,
            workers: config.workers,
            shutdown: AtomicBool::new(false),
        })
    }

    /// The managed store directory's manager, when one is configured
    /// (`portend store ls` against a running daemon's directory uses
    /// the same manager type).
    pub fn manager(&self) -> Option<&Arc<StoreManager>> {
        self.manager.as_ref()
    }

    /// Whether a shutdown request has been handled.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Handles one request line, emitting zero or more frames through
    /// `out`. Returns `false` when the session should end (a shutdown
    /// was acknowledged).
    pub fn handle_line(&self, line: &str, out: &mut dyn FnMut(Frame)) -> bool {
        let line = line.trim();
        if line.is_empty() {
            return true;
        }
        match Request::parse(line) {
            Ok(req) => self.handle(&req, out),
            Err(message) => {
                out(Frame::Error {
                    request: 0,
                    message,
                });
                true
            }
        }
    }

    /// Handles one parsed request. Returns `false` on shutdown.
    pub fn handle(&self, req: &Request, out: &mut dyn FnMut(Frame)) -> bool {
        match req {
            Request::Ping { id } => {
                out(Frame::Pong { request: *id });
                true
            }
            Request::Shutdown { id } => {
                self.shutdown.store(true, Ordering::Relaxed);
                out(Frame::Bye { request: *id });
                false
            }
            Request::Analyze {
                id,
                workload,
                workers,
            } => {
                self.analyze(*id, workload, *workers, out);
                true
            }
        }
    }

    /// Runs one analysis request, streaming a verdict frame per
    /// classified cluster and terminating with the full run report.
    fn analyze(&self, id: u64, workload: &str, workers: usize, out: &mut dyn FnMut(Frame)) {
        let Some(w) = portend_workloads::by_name(workload) else {
            out(Frame::Error {
                request: id,
                message: format!("unknown workload {workload:?}"),
            });
            return;
        };
        let fingerprint = w.fingerprint();
        portend_obs::instant(EventKind::RequestStart, id, fingerprint);
        let cache = self.resident_cache(fingerprint);
        // The manager path warms from (and saves back to) the
        // per-program store every request — touch-on-load keeps the
        // LRU honest; resident entries are never overwritten. Without
        // a store directory the borrowed cache alone carries warmth.
        let warm = match &self.manager {
            Some(manager) => WarmSource::Manager {
                manager: Arc::clone(manager),
                fingerprint,
                cache: Some(cache),
            },
            None => WarmSource::Borrowed(cache),
        };
        let workers = if workers > 0 { workers } else { self.workers };
        let (result, stats) = w.analyze_streamed(
            self.analysis.clone(),
            workers,
            &warm,
            &mut |seq, index, race| {
                out(Frame::Verdict {
                    request: id,
                    seq,
                    index: index as u64,
                    race: RaceOutcome::from_analyzed(race).to_json_value(),
                });
            },
        );
        let report = RunReport::from_result(w.name, &result).with_farm(stats);
        out(Frame::Done {
            request: id,
            report: report.to_json_value(),
        });
    }

    /// The daemon's resident cache for `fingerprint`, created on first
    /// use per the analysis configuration's farm knobs.
    fn resident_cache(&self, fingerprint: u64) -> Arc<SolverCache> {
        let mut caches = self.caches.lock().expect("cache registry poisoned");
        Arc::clone(
            caches
                .entry(fingerprint)
                .or_insert_with(|| Arc::new(SolverCache::new(self.analysis.farm.cache_shards))),
        )
    }

    /// Serves line-delimited requests from `input` to `output` until
    /// EOF or shutdown. [`Server::serve_stdio`] is this over the
    /// process's stdio; tests drive it with in-memory buffers.
    ///
    /// A request line longer than [`MAX_REQUEST_LINE`] bytes is never
    /// buffered whole: it is answered with an error frame, the rest of
    /// it is skipped, and the session goes on with the next line.
    pub fn serve_io(&self, input: &mut dyn BufRead, output: &mut dyn Write) -> std::io::Result<()> {
        let mut line = Vec::new();
        loop {
            let read = read_bounded_line(input, &mut line, MAX_REQUEST_LINE)?;
            let mut io_err = None;
            let mut emit = |frame: Frame| {
                if io_err.is_none() {
                    io_err = writeln!(output, "{}", frame.render())
                        .and_then(|()| output.flush())
                        .err();
                }
            };
            let keep_going = match read {
                LineRead::Eof => return Ok(()),
                LineRead::TooLong => {
                    emit(Frame::Error {
                        request: 0,
                        message: format!(
                            "request line longer than {MAX_REQUEST_LINE} bytes; skipped"
                        ),
                    });
                    true
                }
                LineRead::Line => {
                    let text = std::str::from_utf8(&line)
                        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
                    self.handle_line(text, &mut emit)
                }
            };
            if let Some(e) = io_err {
                return Err(e);
            }
            if !keep_going {
                return Ok(());
            }
        }
    }

    /// Serves requests on stdin/stdout until EOF or shutdown — the
    /// `portend serve` default transport (one client, e.g. a build
    /// system holding the daemon as a coprocess).
    pub fn serve_stdio(&self) -> std::io::Result<()> {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        self.serve_io(&mut stdin.lock(), &mut stdout.lock())
    }

    /// Serves requests on a Unix domain socket at `path` (replacing any
    /// stale socket file), one connection at a time, until a client
    /// sends `shutdown`. Connections are independent sessions over the
    /// *same* server state — warm capital compounds across them.
    #[cfg(unix)]
    pub fn serve_unix(&self, path: &std::path::Path) -> std::io::Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        for conn in listener.incoming() {
            let stream = conn?;
            let mut reader = std::io::BufReader::new(stream.try_clone()?);
            let mut writer = stream;
            // A per-connection I/O failure (client hung up mid-stream)
            // ends that session, not the daemon.
            let _ = self.serve_io(&mut reader, &mut writer);
            if self.shutting_down() {
                break;
            }
        }
        let _ = std::fs::remove_file(path);
        Ok(())
    }
}

/// The longest request line [`Server::serve_io`] accepts, in bytes,
/// not counting the newline. Requests are a few dozen bytes; the cap
/// bounds what one client can make the daemon buffer.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// What [`read_bounded_line`] found.
enum LineRead {
    /// End of input before any byte.
    Eof,
    /// A line of at most the cap, now in the buffer (newline included).
    Line,
    /// A line over the cap; it was consumed and discarded.
    TooLong,
}

/// Reads one `\n`-terminated line (or the unterminated tail before EOF)
/// into `buf`, storing at most `cap` bytes of it plus the newline: a
/// longer line is consumed through its newline without being stored.
fn read_bounded_line(
    input: &mut dyn BufRead,
    buf: &mut Vec<u8>,
    cap: usize,
) -> std::io::Result<LineRead> {
    buf.clear();
    // Line bytes seen so far, newline excluded.
    let mut len = 0usize;
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(match len {
                0 => LineRead::Eof,
                n if n > cap => LineRead::TooLong,
                _ => LineRead::Line,
            });
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map_or(chunk.len(), |i| i + 1);
        len += newline.unwrap_or(chunk.len());
        if len <= cap {
            buf.extend_from_slice(&chunk[..take]);
        }
        input.consume(take);
        if newline.is_some() {
            return Ok(if len > cap {
                LineRead::TooLong
            } else {
                LineRead::Line
            });
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("store_dir", &self.manager.as_ref().map(|m| m.dir()))
            .field("workers", &self.workers)
            .field("shutting_down", &self.shutting_down())
            .finish_non_exhaustive()
    }
}
