//! The executor: scheduling loop, watchpoints, suspension, budgets.
//!
//! [`drive`] runs a [`Machine`] under a [`Scheduler`] until it completes,
//! crashes, deadlocks, exhausts its step budget, hits a watched memory
//! access, or reaches a symbolic fork the caller must resolve. It is the
//! single scheduling loop shared by plain execution, recording, replay,
//! single-pre/single-post classification, and multi-path exploration —
//! which is what keeps schedule decision points aligned across all of them.

use std::collections::BTreeSet;

use portend_symex::Expr;

use crate::error::VmError;
use crate::machine::{Machine, StepEvent};
use crate::monitor::Monitor;
use crate::program::{AllocId, BlockId, Pc};
use crate::sched::{PickReason, Scheduler};
use crate::thread::{Frame, ThreadId};

/// A watched memory location; hitting it returns control to the caller
/// *before* the access executes (this is how the classifier checkpoints
/// "just before the first racing access", paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watch {
    /// The watched allocation.
    pub alloc: AllocId,
    /// Specific offset, or `None` for the whole allocation.
    pub offset: Option<i64>,
    /// Restrict to one thread, or `None` for any.
    pub tid: Option<ThreadId>,
    /// Only trigger on writes.
    pub writes_only: bool,
}

impl Watch {
    /// Watch every access to an allocation.
    pub fn alloc(alloc: AllocId) -> Self {
        Watch {
            alloc,
            offset: None,
            tid: None,
            writes_only: false,
        }
    }

    /// Watch accesses to one cell.
    pub fn cell(alloc: AllocId, offset: i64) -> Self {
        Watch {
            alloc,
            offset: Some(offset),
            tid: None,
            writes_only: false,
        }
    }

    /// Restrict the watch to one thread.
    pub fn by(mut self, tid: ThreadId) -> Self {
        self.tid = Some(tid);
        self
    }
}

/// A watch hit: the current thread is *about to* perform this access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchHit {
    /// The accessing thread.
    pub tid: ThreadId,
    /// The pc of the pending access.
    pub pc: Pc,
    /// The accessed allocation.
    pub alloc: AllocId,
    /// The resolved offset.
    pub offset: i64,
    /// Whether the pending access is a write.
    pub is_write: bool,
}

/// Execution budget and controls for one [`drive`] call.
#[derive(Debug, Clone)]
pub struct DriveCfg {
    /// Maximum instructions to execute in this call.
    pub max_steps: u64,
    /// Watched locations.
    pub watches: Vec<Watch>,
    /// Locations whose accesses become scheduler *preemption points*
    /// instead of stopping execution (paper §6: a detected racing access is
    /// considered a possible preemption point). Used during post-race
    /// schedule diversification.
    pub preempt_watches: Vec<Watch>,
    /// Threads excluded from scheduling (used to enforce the alternate
    /// ordering of racing accesses, paper §3.2).
    pub suspended: BTreeSet<ThreadId>,
    /// Record scheduler decisions into `machine.sched_log`.
    pub record_schedule: bool,
}

impl Default for DriveCfg {
    fn default() -> Self {
        DriveCfg {
            max_steps: 1_000_000,
            watches: Vec::new(),
            preempt_watches: Vec::new(),
            suspended: BTreeSet::new(),
            record_schedule: false,
        }
    }
}

impl DriveCfg {
    /// A config with only a step budget.
    pub fn with_budget(max_steps: u64) -> Self {
        DriveCfg {
            max_steps,
            ..Default::default()
        }
    }
}

/// Why [`drive`] returned.
#[derive(Debug, Clone, PartialEq)]
pub enum DriveStop {
    /// Every thread exited.
    Completed,
    /// Execution crashed or deadlocked.
    Error(VmError),
    /// The step budget was exhausted (the classifier's "timeout").
    StepLimit,
    /// No thread is schedulable, but only because of suspensions — not a
    /// true deadlock. The classifier's alternate-enforcement probes this.
    Stuck,
    /// A watched access is pending (not yet executed).
    WatchHit(WatchHit),
    /// A branch on a symbolic condition needs the caller to fork
    /// (resolve with [`Machine::apply_branch`]).
    SymBranch {
        /// The symbolic condition.
        cond: Expr,
        /// Target when non-zero.
        then_b: BlockId,
        /// Target when zero.
        else_b: BlockId,
    },
    /// A symbolic assertion needs the caller to fork
    /// (resolve with [`Machine::apply_assert`]).
    SymAssert {
        /// The symbolic condition.
        cond: Expr,
        /// The assertion message.
        msg: String,
    },
}

impl DriveStop {
    /// Whether the stop is a crash or deadlock.
    pub fn is_error(&self) -> bool {
        matches!(self, DriveStop::Error(_))
    }
}

fn watch_match(m: &Machine, watches: &[Watch]) -> Option<WatchHit> {
    if watches.is_empty() {
        return None;
    }
    let (alloc, offset, is_write) = m.peek_access()?;
    let offset = offset?;
    let tid = m.cur;
    for w in watches {
        if w.alloc != alloc {
            continue;
        }
        if let Some(o) = w.offset {
            if o != offset {
                continue;
            }
        }
        if let Some(t) = w.tid {
            if t != tid {
                continue;
            }
        }
        if w.writes_only && !is_write {
            continue;
        }
        let pc = m.thread(tid).pc().expect("runnable thread has a pc");
        return Some(WatchHit {
            tid,
            pc,
            alloc,
            offset,
            is_write,
        });
    }
    None
}

/// Runs the machine until one of the [`DriveStop`] conditions.
///
/// The scheduling contract: the scheduler is consulted when (a) execution
/// starts or the current thread blocked/exited, or (b) the current thread
/// is about to execute a preemption-point instruction. Watch hits return
/// to the caller *without* consulting the scheduler, so recorded schedule
/// traces stay aligned between runs with and without watchpoints.
///
/// While the current thread is runnable and not suspended, a step builds
/// no thread list: completion, deadlock and `Stuck` are impossible then,
/// so the runnable and alive sets are computed only at a real scheduling
/// point, into buffers reused for the rest of the call.
///
/// Under a passive monitor ([`Monitor::is_passive`]) a spin that provably
/// repeats — the same thread, frames and scheduler state at two
/// scheduling points with no effect between them — is fast-forwarded by
/// whole periods up to the step budget. The stop, the machine state and
/// every counter come out exactly as if each step had been interpreted
/// (DESIGN.md, "Spin fast-forward").
pub fn drive(
    m: &mut Machine,
    sched: &mut Scheduler,
    mon: &mut dyn Monitor,
    cfg: &DriveCfg,
) -> DriveStop {
    let mut local_steps: u64 = 0;
    let mut just_picked = false;
    // The schedulable threads (runnable, not suspended) and the alive
    // ones (runnable, suspended or not), refilled at each scheduling point.
    let (mut runnable, mut alive) = (Vec::new(), Vec::new());
    let mut spin = mon.is_passive().then(|| SpinDetector::new(m));
    loop {
        let cur_ok = m.thread(m.cur).is_runnable() && !cfg.suspended.contains(&m.cur);
        let at_preempt = cur_ok
            && (m.peek_inst().is_some_and(|i| i.is_preemption_point())
                || watch_match(m, &cfg.preempt_watches).is_some());
        if !cur_ok || (at_preempt && !just_picked) {
            if !cur_ok && m.all_finished() {
                return DriveStop::Completed;
            }
            runnable.clear();
            alive.clear();
            for t in m.threads.iter().filter(|t| t.is_runnable()) {
                alive.push(t.id);
                if !cfg.suspended.contains(&t.id) {
                    runnable.push(t.id);
                }
            }
            if runnable.is_empty() {
                let any_suspended_alive = cfg.suspended.iter().any(|t| !m.thread(*t).is_finished());
                if any_suspended_alive {
                    return DriveStop::Stuck;
                }
                return DriveStop::Error(VmError::Deadlock(m.deadlock_info()));
            }
            if let Some(spin) = &mut spin {
                local_steps += spin.at_pick(m, sched, local_steps, cfg.max_steps);
            }
            let reason = if cur_ok {
                PickReason::Preemption
            } else {
                PickReason::Blocked
            };
            let t = sched.pick(&runnable, &alive, m.cur, reason);
            m.preemptions += 1;
            if cfg.record_schedule {
                m.sched_log.push(t);
            }
            m.cur = t;
            just_picked = true;
            continue;
        }

        if let Some(hit) = watch_match(m, &cfg.watches) {
            return DriveStop::WatchHit(hit);
        }

        if local_steps >= cfg.max_steps {
            return DriveStop::StepLimit;
        }
        local_steps += 1;
        just_picked = false;

        match m.step(mon) {
            StepEvent::Ran | StepEvent::Blocked | StepEvent::Exited => {}
            StepEvent::SymBranch {
                cond,
                then_b,
                else_b,
            } => {
                return DriveStop::SymBranch {
                    cond,
                    then_b,
                    else_b,
                }
            }
            StepEvent::SymAssert { cond, msg } => return DriveStop::SymAssert { cond, msg },
            StepEvent::Err(e) => return DriveStop::Error(e),
        }
    }
}

/// Effect-free scheduling points in a row before [`SpinDetector`] takes
/// its first snapshot. Runs that never spin (almost all of them) never
/// get this far, so they pay no snapshot and no comparison; a spin that
/// runs into a classification timeout passes it within its first few
/// hundred steps.
const SPIN_QUIET_PICKS: u32 = 128;

/// The state a spin must come back to, taken at a scheduling point just
/// before the pick, plus the counters that measure one period from it.
#[derive(Debug)]
struct SpinMark {
    cur: ThreadId,
    frames: Vec<Vec<Frame>>,
    sched: Scheduler,
    local_steps: u64,
    steps: u64,
    thread_steps: Vec<u64>,
    preemptions: u64,
    log_len: usize,
}

impl SpinMark {
    fn take(m: &Machine, sched: &Scheduler, local_steps: u64) -> SpinMark {
        SpinMark {
            cur: m.cur,
            frames: m.threads.iter().map(|t| t.frames.clone()).collect(),
            sched: sched.clone(),
            local_steps,
            steps: m.steps,
            thread_steps: m.threads.iter().map(|t| t.steps).collect(),
            preemptions: m.preemptions,
            log_len: m.sched_log.len(),
        }
    }

    /// Whether the machine and scheduler are back in the marked state.
    /// With no effect since the mark, this tuple is all of the state
    /// that can have changed.
    fn repeats(&self, m: &Machine, sched: &Scheduler) -> bool {
        m.cur == self.cur
            && sched.same_state(&self.sched)
            && m.threads.len() == self.frames.len()
            && m.threads
                .iter()
                .zip(&self.frames)
                .all(|(t, f)| t.frames == *f)
    }

    /// Advances every counter by as many whole periods (mark → now) as
    /// the step budget still holds, as interpreting them would; returns
    /// the steps skipped.
    fn fast_forward(&self, m: &mut Machine, local_steps: u64, max_steps: u64) -> u64 {
        let period = local_steps - self.local_steps;
        let n = (max_steps - local_steps) / period;
        m.steps += n * (m.steps - self.steps);
        for (t, base) in m.threads.iter_mut().zip(&self.thread_steps) {
            t.steps += n * (t.steps - base);
        }
        m.preemptions += n * (m.preemptions - self.preemptions);
        // Without `record_schedule` the log did not grow: nothing repeats.
        let picks = m.sched_log.as_slice()[self.log_len..].to_vec();
        if !picks.is_empty() {
            for _ in 0..n {
                for &t in &picks {
                    m.sched_log.push(t);
                }
            }
        }
        n * period
    }
}

/// Finds an exact cycle of a spinning execution at [`drive`]'s scheduling
/// points and skips its whole periods.
///
/// Every instruction outside [`Inst::is_register_only`](crate::Inst::is_register_only) counts
/// as an effect on the machine. Between two scheduling points with no
/// effect, only the current thread's registers and pc, the step and
/// preemption counters, the schedule log and the scheduler can change;
/// so when `(current thread, every thread's frames, scheduler state)`
/// repeats, the execution from there on repeats the same period until
/// the budget runs out. That is only sound when nothing watches the
/// skipped instructions, so [`drive`] uses it under a passive monitor
/// only.
///
/// Snapshots start after [`SPIN_QUIET_PICKS`] effect-free scheduling
/// points in a row and are refreshed Brent-style, at power-of-two
/// distances, so a period of `q` scheduling points is found within
/// about `2q` of them with `log2 q` snapshots.
#[derive(Debug)]
struct SpinDetector {
    /// Effect-free scheduling points in a row, saturating at the start
    /// threshold.
    quiet: u32,
    mark: Option<SpinMark>,
    /// Scheduling points since `mark` was taken.
    since_mark: u64,
    /// Scheduling points after which `mark` is replaced.
    span: u64,
}

impl SpinDetector {
    fn new(m: &mut Machine) -> SpinDetector {
        m.effected = false;
        SpinDetector {
            quiet: 0,
            mark: None,
            since_mark: 0,
            span: 1,
        }
    }

    /// Called at each scheduling point before the pick; returns the
    /// steps it fast-forwarded (0 unless a cycle closed here).
    fn at_pick(
        &mut self,
        m: &mut Machine,
        sched: &Scheduler,
        local_steps: u64,
        max_steps: u64,
    ) -> u64 {
        if std::mem::take(&mut m.effected) {
            self.quiet = 0;
            self.mark = None;
            return 0;
        }
        if self.quiet < SPIN_QUIET_PICKS {
            self.quiet += 1;
            return 0;
        }
        let Some(mark) = &self.mark else {
            self.mark = Some(SpinMark::take(m, sched, local_steps));
            self.since_mark = 0;
            self.span = 1;
            return 0;
        };
        self.since_mark += 1;
        if mark.repeats(m, sched) {
            let skipped = mark.fast_forward(m, local_steps, max_steps);
            // Less than one period of budget is left: nothing more to skip.
            self.quiet = 0;
            self.mark = None;
            return skipped;
        }
        if self.since_mark >= self.span {
            self.mark = Some(SpinMark::take(m, sched, local_steps));
            self.since_mark = 0;
            self.span *= 2;
        }
        0
    }
}

/// Convenience: run a fresh machine to completion under a scheduler,
/// with a step budget. Returns the final stop.
pub fn run_to_completion(
    m: &mut Machine,
    sched: &mut Scheduler,
    mon: &mut dyn Monitor,
    max_steps: u64,
) -> DriveStop {
    drive(m, sched, mon, &DriveCfg::with_budget(max_steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::config::VmConfig;
    use crate::inst::Operand;
    use crate::io::{InputMode, InputSource, InputSpec};
    use crate::monitor::{NullMonitor, RecordingMonitor};
    use std::sync::Arc;

    fn boot(p: crate::program::Program, inputs: Vec<i64>) -> Machine {
        Machine::new(
            Arc::new(p),
            InputSource::new(InputSpec::concrete(inputs), InputMode::Concrete),
            VmConfig::default(),
        )
    }

    /// Two threads racing on a counter; main joins both.
    fn racy_counter_program() -> crate::program::Program {
        let mut pb = ProgramBuilder::new("racy", "racy.c");
        let g = pb.global("counter", 0);
        let worker = pb.func("worker", |f| {
            let _ = f.param();
            f.racy_inc(g, Operand::Imm(0));
            f.ret(None);
        });
        let main = pb.func("main", |f| {
            let t1 = f.spawn(worker, Operand::Imm(0));
            let t2 = f.spawn(worker, Operand::Imm(1));
            f.join(t1);
            f.join(t2);
            let v = f.load(g, Operand::Imm(0));
            f.output(1, v);
            f.ret(None);
        });
        pb.build(main).unwrap()
    }

    #[test]
    fn cooperative_run_completes() {
        let mut m = boot(racy_counter_program(), vec![]);
        let mut s = Scheduler::Cooperative;
        let mut mon = NullMonitor;
        let stop = run_to_completion(&mut m, &mut s, &mut mon, 100_000);
        assert_eq!(stop, DriveStop::Completed);
        assert_eq!(m.output.concrete_values(), Some(vec![2]));
    }

    #[test]
    fn deadlock_detected() {
        let mut pb = ProgramBuilder::new("dl", "dl.c");
        let a = pb.mutex("A");
        let b = pb.mutex("B");
        let worker = pb.func("worker", |f| {
            let _ = f.param();
            f.lock(b);
            f.yield_();
            f.lock(a);
            f.unlock(a);
            f.unlock(b);
            f.ret(None);
        });
        let main = pb.func("main", |f| {
            let t = f.spawn(worker, Operand::Imm(0));
            f.lock(a);
            f.yield_();
            f.lock(b);
            f.unlock(b);
            f.unlock(a);
            f.join(t);
            f.ret(None);
        });
        let mut m = boot(pb.build(main).unwrap(), vec![]);
        // Round-robin interleaves the two lock acquisitions.
        let mut s = Scheduler::RoundRobin;
        let mut mon = NullMonitor;
        let stop = run_to_completion(&mut m, &mut s, &mut mon, 100_000);
        match stop {
            DriveStop::Error(VmError::Deadlock(info)) => {
                assert_eq!(info.edges.len(), 2);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn watchpoint_stops_before_access() {
        let mut pb = ProgramBuilder::new("w", "w.c");
        let g = pb.global("g", 5);
        let main = pb.func("main", |f| {
            let v = f.load(g, Operand::Imm(0));
            f.output(1, v);
            f.ret(None);
        });
        let mut m = boot(pb.build(main).unwrap(), vec![]);
        let mut s = Scheduler::Cooperative;
        let mut mon = NullMonitor;
        let cfg = DriveCfg {
            watches: vec![Watch::cell(crate::program::AllocId(0), 0)],
            ..Default::default()
        };
        let stop = drive(&mut m, &mut s, &mut mon, &cfg);
        match stop {
            DriveStop::WatchHit(hit) => {
                assert!(!hit.is_write);
                assert_eq!(hit.offset, 0);
                // The access has not executed: no output yet.
                assert!(m.output.is_empty());
            }
            other => panic!("expected watch hit, got {other:?}"),
        }
        // Step over the access, then the program completes.
        let ev = m.step(&mut mon);
        assert_eq!(ev, StepEvent::Ran);
        let stop = drive(&mut m, &mut s, &mut mon, &cfg);
        assert_eq!(stop, DriveStop::Completed);
        assert_eq!(m.output.concrete_values(), Some(vec![5]));
    }

    #[test]
    fn suspension_makes_execution_stuck_not_deadlocked() {
        let mut m = boot(racy_counter_program(), vec![]);
        let mut s = Scheduler::Cooperative;
        let mut mon = NullMonitor;
        let mut cfg = DriveCfg::default();
        // Suspend the main thread immediately: nothing else exists yet.
        cfg.suspended.insert(ThreadId(0));
        let stop = drive(&mut m, &mut s, &mut mon, &cfg);
        assert_eq!(stop, DriveStop::Stuck);
    }

    #[test]
    fn schedule_recording_and_exact_replay() {
        let mut m1 = boot(racy_counter_program(), vec![]);
        let mut s1 = Scheduler::random(7);
        let mut mon1 = RecordingMonitor::default();
        let cfg = DriveCfg {
            record_schedule: true,
            ..Default::default()
        };
        let stop = drive(&mut m1, &mut s1, &mut mon1, &cfg);
        assert_eq!(stop, DriveStop::Completed);
        let trace = m1.sched_log.to_vec();
        assert!(!trace.is_empty());

        // Replaying the recorded decisions reproduces the exact access
        // interleaving.
        let mut m2 = boot(racy_counter_program(), vec![]);
        let mut s2 = Scheduler::follow(trace);
        let mut mon2 = RecordingMonitor::default();
        let stop = drive(&mut m2, &mut s2, &mut mon2, &DriveCfg::default());
        assert_eq!(stop, DriveStop::Completed);
        assert!(!s2.diverged());
        let seq1: Vec<_> = mon1
            .accesses
            .iter()
            .map(|a| (a.tid, a.pc, a.is_write))
            .collect();
        let seq2: Vec<_> = mon2
            .accesses
            .iter()
            .map(|a| (a.tid, a.pc, a.is_write))
            .collect();
        assert_eq!(seq1, seq2);
        assert_eq!(m1.output, m2.output);
    }

    #[test]
    fn step_limit_on_spin_loop() {
        let mut pb = ProgramBuilder::new("spin", "spin.c");
        let g = pb.global("flag", 0);
        let main = pb.func("main", |f| {
            f.spin_while_eq(g, Operand::Imm(0), 0);
            f.ret(None);
        });
        let mut m = boot(pb.build(main).unwrap(), vec![]);
        let mut s = Scheduler::Cooperative;
        let mut mon = NullMonitor;
        let stop = run_to_completion(&mut m, &mut s, &mut mon, 1000);
        assert_eq!(stop, DriveStop::StepLimit);
    }

    /// Main spawns a producer that would set `flag`, then spins until it
    /// is set; with the producer suspended the spin runs out the budget.
    fn suspended_producer_program() -> crate::program::Program {
        let mut pb = ProgramBuilder::new("spin", "spin.c");
        let g = pb.global("flag", 0);
        let producer = pb.func("producer", |f| {
            let _ = f.param();
            f.store(g, Operand::Imm(0), Operand::Imm(1));
            f.ret(None);
        });
        let main = pb.func("main", |f| {
            let t = f.spawn(producer, Operand::Imm(0));
            f.spin_while_eq(g, Operand::Imm(0), 0);
            f.join(t);
            f.ret(None);
        });
        pb.build(main).unwrap()
    }

    #[test]
    fn huge_budget_spin_finishes_only_by_fast_forward() {
        // Interpreting 2^40 steps would take hours; skipping whole
        // periods takes a few hundred interpreted steps.
        let mut m = boot(suspended_producer_program(), vec![]);
        let cfg = DriveCfg {
            max_steps: 1 << 40,
            suspended: [ThreadId(1)].into_iter().collect(),
            ..Default::default()
        };
        let stop = drive(&mut m, &mut Scheduler::Cooperative, &mut NullMonitor, &cfg);
        assert_eq!(stop, DriveStop::StepLimit);
        assert_eq!(m.steps, 1 << 40);
        assert_eq!(m.thread(ThreadId(0)).steps, 1 << 40);
        assert!(m.preemptions > (1 << 37), "one pick per spin iteration");
    }

    #[test]
    fn condvar_handoff() {
        let mut pb = ProgramBuilder::new("cv", "cv.c");
        let g = pb.global("ready", 0);
        let mu = pb.mutex("m");
        let cv = pb.condvar("c");
        let worker = pb.func("worker", |f| {
            let _ = f.param();
            f.lock(mu);
            f.store(g, Operand::Imm(0), Operand::Imm(1));
            f.cond_signal(cv);
            f.unlock(mu);
            f.ret(None);
        });
        let main = pb.func("main", |f| {
            let t = f.spawn(worker, Operand::Imm(0));
            f.lock(mu);
            f.while_loop(
                |f| {
                    let v = f.load(g, Operand::Imm(0));
                    f.cmp(portend_symex::CmpOp::Eq, v, Operand::Imm(0))
                },
                |f| {
                    f.cond_wait(cv, mu);
                },
            );
            f.unlock(mu);
            f.join(t);
            f.output(1, Operand::Imm(99));
            f.ret(None);
        });
        let p = pb.build(main).unwrap();
        for seed in 0..8 {
            let mut m = boot(p.clone(), vec![]);
            let mut s = Scheduler::random(seed);
            let mut mon = NullMonitor;
            let stop = run_to_completion(&mut m, &mut s, &mut mon, 100_000);
            assert_eq!(stop, DriveStop::Completed, "seed {seed}");
            assert_eq!(m.output.concrete_values(), Some(vec![99]));
        }
    }

    #[test]
    fn barrier_releases_full_party() {
        let mut pb = ProgramBuilder::new("bar", "bar.c");
        let bar = pb.barrier("b", 3);
        let g = pb.global("done", 0);
        let worker = pb.func("worker", |f| {
            let _ = f.param();
            f.barrier_wait(bar);
            f.racy_inc(g, Operand::Imm(0));
            f.ret(None);
        });
        let main = pb.func("main", |f| {
            let t1 = f.spawn(worker, Operand::Imm(0));
            let t2 = f.spawn(worker, Operand::Imm(1));
            f.barrier_wait(bar);
            f.join(t1);
            f.join(t2);
            let v = f.load(g, Operand::Imm(0));
            f.output(1, v);
            f.ret(None);
        });
        let p = pb.build(main).unwrap();
        for seed in 0..8 {
            let mut m = boot(p.clone(), vec![]);
            let mut s = Scheduler::random(seed);
            let mut mon = NullMonitor;
            let stop = run_to_completion(&mut m, &mut s, &mut mon, 100_000);
            assert_eq!(stop, DriveStop::Completed, "seed {seed}");
            assert_eq!(m.output.concrete_values(), Some(vec![2]));
        }
    }
}
