//! Randomized property tests on the reproduction's core invariants:
//! solver soundness, solver-cache transparency, expression-simplification
//! equivalence, vector-clock laws, VM replay determinism, and the
//! executor's scheduling loop against a reference implementation.
//!
//! Driven by the workspace's own deterministic PRNG
//! ([`portend_repro::portend_vm::SmallRng`]) instead of an external
//! property-testing crate: every case derives from a fixed seed, so
//! failures reproduce exactly and the suite needs no network access.

use std::collections::BTreeSet;
use std::sync::Arc;

use portend_repro::portend_race::VectorClock;
use portend_repro::portend_symex::{
    BinOp, CmpOp, Expr, Model, SatResult, ScopedSolver, Solver, SolverCache, SolverConfig, VarId,
    VarTable,
};
use portend_repro::portend_vm::{
    drive, AllocId, DriveCfg, DriveStop, InputMode, InputSource, InputSpec, Inst, Machine, Monitor,
    NullMonitor, Operand, PickReason, Program, ProgramBuilder, RecordingMonitor, Scheduler,
    SmallRng, StepEvent, SymDomain, ThreadId, VmConfig, VmError, Watch, WatchHit,
};
use portend_repro::portend_workloads::conformance::random_program;

// ---------------------------------------------------------------------
// Expression language: random expression trees over two bounded vars.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum ETree {
    Const(i64),
    Var(u8),
    Bin(BinOp, Box<ETree>, Box<ETree>),
    Cmp(CmpOp, Box<ETree>, Box<ETree>),
    Not(Box<ETree>),
}

const BIN_OPS: [BinOp; 6] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
];
const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// A random expression tree of depth at most `depth`.
fn gen_etree(r: &mut SmallRng, depth: u32) -> ETree {
    let leaf = depth == 0 || r.gen_index(3) == 0;
    if leaf {
        if r.gen_index(2) == 0 {
            ETree::Const(r.gen_index(40) as i64 - 20)
        } else {
            ETree::Var(r.gen_index(2) as u8)
        }
    } else {
        match r.gen_index(3) {
            0 => ETree::Bin(
                BIN_OPS[r.gen_index(BIN_OPS.len())],
                Box::new(gen_etree(r, depth - 1)),
                Box::new(gen_etree(r, depth - 1)),
            ),
            1 => ETree::Cmp(
                CMP_OPS[r.gen_index(CMP_OPS.len())],
                Box::new(gen_etree(r, depth - 1)),
                Box::new(gen_etree(r, depth - 1)),
            ),
            _ => ETree::Not(Box::new(gen_etree(r, depth - 1))),
        }
    }
}

fn build(t: &ETree) -> Expr {
    match t {
        ETree::Const(v) => Expr::konst(*v),
        ETree::Var(i) => Expr::var(VarId(*i as u32)),
        ETree::Bin(op, a, b) => Expr::bin(*op, build(a), build(b)),
        ETree::Cmp(op, a, b) => build(a).cmp(*op, build(b)),
        ETree::Not(a) => build(a).not(),
    }
}

/// Reference evaluation without any simplification.
fn eval_ref(t: &ETree, a: i64, b: i64) -> Option<i64> {
    match t {
        ETree::Const(v) => Some(*v),
        ETree::Var(0) => Some(a),
        ETree::Var(_) => Some(b),
        ETree::Bin(op, x, y) => op.apply(eval_ref(x, a, b)?, eval_ref(y, a, b)?),
        ETree::Cmp(op, x, y) => Some(op.apply(eval_ref(x, a, b)?, eval_ref(y, a, b)?)),
        ETree::Not(x) => Some((eval_ref(x, a, b)? == 0) as i64),
    }
}

/// Constant folding and simplification preserve semantics.
#[test]
fn expr_simplification_preserves_semantics() {
    let mut r = SmallRng::seed_from_u64(0xE59);
    for _case in 0..256 {
        let t = gen_etree(&mut r, 3);
        let a = r.gen_index(60) as i64 - 30;
        let b = r.gen_index(60) as i64 - 30;
        let e = build(&t);
        let mut m = Model::new();
        m.set(VarId(0), a);
        m.set(VarId(1), b);
        let expected = eval_ref(&t, a, b);
        let got = e.eval(&m).ok();
        assert_eq!(got, expected, "tree {t:?} under ({a},{b})");
    }
}

fn two_var_table(lo: i64, hi: i64) -> VarTable {
    let mut vars = VarTable::new();
    vars.fresh("a", lo, hi);
    vars.fresh("b", lo, hi);
    vars
}

/// Any model the solver returns actually satisfies the constraints.
#[test]
fn solver_models_are_sound() {
    let mut r = SmallRng::seed_from_u64(0x50B);
    for _case in 0..256 {
        let n = 1 + r.gen_index(3);
        let ts: Vec<ETree> = (0..n).map(|_| gen_etree(&mut r, 3)).collect();
        let vars = two_var_table(-10, 10);
        let cs: Vec<Expr> = ts.iter().map(build).collect();
        let solver = Solver::new();
        if let SatResult::Sat(model) = solver.check(&cs, &vars) {
            for c in &cs {
                // A satisfying model makes every constraint non-zero.
                let v = c.eval(&model);
                assert!(
                    matches!(v, Ok(x) if x != 0),
                    "constraint {c} -> {v:?} under {model}"
                );
            }
        }
    }
}

/// Unsat answers are sound: no assignment in the domain satisfies.
#[test]
fn solver_unsat_is_sound() {
    let mut r = SmallRng::seed_from_u64(0x07A);
    for _case in 0..256 {
        let n = 1 + r.gen_index(2);
        let ts: Vec<ETree> = (0..n).map(|_| gen_etree(&mut r, 3)).collect();
        let vars = two_var_table(-4, 4);
        let cs: Vec<Expr> = ts.iter().map(build).collect();
        let solver = Solver::new();
        if solver.check(&cs, &vars) == SatResult::Unsat {
            for a in -4i64..=4 {
                for b in -4i64..=4 {
                    let mut m = Model::new();
                    m.set(VarId(0), a);
                    m.set(VarId(1), b);
                    let all_hold = cs.iter().all(|c| matches!(c.eval(&m), Ok(v) if v != 0));
                    assert!(!all_hold, "unsat but ({a},{b}) satisfies {cs:?}");
                }
            }
        }
    }
}

/// The shared solver cache never changes a satisfiability answer: for
/// random constraint sets, a cache-backed solver returns exactly what an
/// uncached solver returns — on the miss that populates the cache, on
/// the hit that reuses it, and across solvers sharing the cache.
#[test]
fn solver_cache_is_transparent() {
    let mut r = SmallRng::seed_from_u64(0xCAC4E);
    let cache = Arc::new(SolverCache::new(4));
    let cached = Solver::new().cached(Arc::clone(&cache));
    let cached_peer = Solver::new().cached(Arc::clone(&cache));
    let uncached = Solver::new();
    let mut hits_seen = 0u64;
    for _case in 0..192 {
        let n = 1 + r.gen_index(3);
        let ts: Vec<ETree> = (0..n).map(|_| gen_etree(&mut r, 3)).collect();
        let vars = two_var_table(-6, 6);
        let cs: Vec<Expr> = ts.iter().map(build).collect();

        let reference = uncached.check(&cs, &vars);
        let (first, s1) = cached.check_with_stats(&cs, &vars);
        let (second, s2) = cached.check_with_stats(&cs, &vars);
        let (third, s3) = cached_peer.check_with_stats(&cs, &vars);
        assert_eq!(first, reference, "miss result differs for {cs:?}");
        assert_eq!(second, reference, "hit result differs for {cs:?}");
        assert_eq!(third, reference, "shared-cache result differs for {cs:?}");
        assert!(
            !s1.cache_hit || hits_seen > 0,
            "first query can only hit a repeat key"
        );
        assert!(s2.cache_hit, "identical repeat query must hit");
        assert!(s3.cache_hit, "peer solver on the same cache must hit");
        hits_seen += (s1.cache_hit as u64) + 2;
    }
    let snap = cache.snapshot();
    assert!(snap.hits >= 2 * 192, "hits {snap:?}");
    assert!(snap.entries > 0 && snap.entries <= snap.misses);
}

/// Constraint slicing is transparent: on randomized constraint sets the
/// sliced answer is structurally identical to the whole-query answer —
/// verdict and witness model — whenever the whole query decides within
/// budget, and slicing never turns a decided answer into `Unknown`.
///
/// Two regimes:
/// * default budget — on this distribution the whole query always
///   decides, so exact equality (including the model) is asserted for
///   every case, with and without a shared cache attached;
/// * starvation budget — when the whole query still decides, slicing
///   must agree exactly (each slice's search is a projection of the
///   combined search, so it fits in any budget the whole query fit in);
///   when the whole query gives up with `Unknown`, slicing may decide,
///   and the decision is verified against the domain (model check for
///   `Sat`, brute force for `Unsat`).
#[test]
fn sliced_solver_is_transparent() {
    let mut r = SmallRng::seed_from_u64(0x511CED);
    let solver = Solver::new();
    let cache = Arc::new(SolverCache::new(4));
    let cached = Solver::new().cached(Arc::clone(&cache));
    for _case in 0..256 {
        let n = 1 + r.gen_index(4);
        let ts: Vec<ETree> = (0..n).map(|_| gen_etree(&mut r, 3)).collect();
        let vars = two_var_table(-6, 6);
        let cs: Vec<Expr> = ts.iter().map(build).collect();
        let whole = solver.check(&cs, &vars);
        assert_ne!(whole, SatResult::Unknown, "distribution stays in budget");
        let sliced = solver.check_sliced(&cs, &vars);
        assert_eq!(sliced, whole, "sliced != whole for {cs:?}");
        // Per-slice caching must not change the answer either — cold,
        // and again warm (every slice now memoized).
        assert_eq!(cached.check_sliced(&cs, &vars), whole, "cold cache: {cs:?}");
        assert_eq!(cached.check_sliced(&cs, &vars), whole, "warm cache: {cs:?}");
    }
    let snap = cache.snapshot();
    assert!(snap.slice_hits > 0, "warm passes hit per-slice: {snap:?}");

    // Starvation regime: `Unknown` budgeting.
    let tiny = Solver::with_config(SolverConfig {
        node_budget: 8,
        max_prune_passes: 1,
    });
    let mut improved = 0u64;
    for _case in 0..256 {
        let n = 1 + r.gen_index(4);
        let ts: Vec<ETree> = (0..n).map(|_| gen_etree(&mut r, 3)).collect();
        let vars = two_var_table(-4, 4);
        let cs: Vec<Expr> = ts.iter().map(build).collect();
        let whole = tiny.check(&cs, &vars);
        let sliced = tiny.check_sliced(&cs, &vars);
        match &whole {
            SatResult::Unknown => match &sliced {
                // Slicing may decide what the whole query could not;
                // verify any such decision against the domains.
                SatResult::Sat(m) => {
                    improved += 1;
                    for c in &cs {
                        assert!(
                            matches!(c.eval(m), Ok(v) if v != 0),
                            "sliced Sat model violates {c} under {m}"
                        );
                    }
                }
                SatResult::Unsat => {
                    improved += 1;
                    for a in -4i64..=4 {
                        for b in -4i64..=4 {
                            let mut m = Model::new();
                            m.set(VarId(0), a);
                            m.set(VarId(1), b);
                            let all = cs.iter().all(|c| matches!(c.eval(&m), Ok(v) if v != 0));
                            assert!(!all, "sliced Unsat but ({a},{b}) satisfies {cs:?}");
                        }
                    }
                }
                SatResult::Unknown => {}
            },
            decided => assert_eq!(
                &sliced, decided,
                "slicing flipped a decided answer for {cs:?}"
            ),
        }
    }
    assert!(improved > 0, "starvation regime exercises Unknown recovery");
}

/// The scoped solver's incremental checks (shared-prefix sync plus a
/// probed extra constraint) agree with fresh whole-list checks at every
/// step of a randomly evolving path condition.
#[test]
fn scoped_solver_matches_fresh_checks() {
    let mut r = SmallRng::seed_from_u64(0x5C07D);
    let plain = Solver::new();
    for _round in 0..48 {
        let vars = two_var_table(-6, 6);
        let mut scoped = ScopedSolver::new(Solver::new());
        let mut path: Vec<Expr> = Vec::new();
        for _step in 0..8 {
            // Mutate the path the way a worklist explorer does: truncate
            // to a random prefix (switching to a sibling state), then
            // extend with fresh branch constraints.
            path.truncate(r.gen_index(path.len() + 1));
            for _ in 0..=r.gen_index(2) {
                path.push(build(&gen_etree(&mut r, 2)));
            }
            scoped.sync_path(&path);
            assert_eq!(
                scoped.check(&vars),
                plain.check(&path, &vars),
                "sync_path state diverged for {path:?}"
            );
            let extra = build(&gen_etree(&mut r, 2));
            let mut with_extra = path.clone();
            with_extra.push(extra.clone());
            assert_eq!(
                scoped.check_assuming(extra, &vars),
                plain.check(&with_extra, &vars),
                "check_assuming diverged for {with_extra:?}"
            );
            assert_eq!(scoped.len(), path.len(), "probe must not leak frames");
        }
        let st = scoped.stats();
        assert_eq!(st.checks, 16, "8 syncs x (check + probe)");
    }
}

/// Vector-clock join is a least upper bound: both operands ≤ join;
/// idempotent and commutative.
#[test]
fn vector_clock_join_is_lub() {
    let mut r = SmallRng::seed_from_u64(0xC10C);
    for _case in 0..256 {
        let len_a = r.gen_index(12);
        let len_b = r.gen_index(12);
        let mut a = VectorClock::new();
        for _ in 0..len_a {
            a.tick(ThreadId(r.gen_index(4) as u32));
        }
        let mut b = VectorClock::new();
        for _ in 0..len_b {
            b.tick(ThreadId(r.gen_index(4) as u32));
        }
        let mut j = a.clone();
        j.join(&b);
        assert!(a.leq(&j));
        assert!(b.leq(&j));
        // Idempotent.
        let mut j2 = j.clone();
        j2.join(&b);
        assert_eq!(j, j2);
        // Commutative.
        let mut k = b.clone();
        k.join(&a);
        assert_eq!(j, k);
    }
}

/// The VM is deterministic: the same seeded random schedule produces
/// the same outputs, step counts, and final memory.
#[test]
fn vm_runs_are_deterministic() {
    let mut r = SmallRng::seed_from_u64(0xDE7);
    for _case in 0..40 {
        let seed = r.next_u64() % 1000;
        let increments = 1 + r.gen_index(23) as i64;
        let mut pb = ProgramBuilder::new("det", "det.c");
        let g = pb.global("g", 0);
        let worker = pb.func("worker", move |f| {
            let _ = f.param();
            f.for_range(Operand::Imm(increments), |f, _| {
                f.racy_inc(g, Operand::Imm(0));
                f.yield_();
            });
            f.ret(None);
        });
        let main = pb.func("main", move |f| {
            let t1 = f.spawn(worker, Operand::Imm(0));
            let t2 = f.spawn(worker, Operand::Imm(1));
            f.join(t1);
            f.join(t2);
            let v = f.load(g, Operand::Imm(0));
            f.output(1, v);
            f.ret(None);
        });
        let program = Arc::new(pb.build(main).unwrap());
        let run = |seed: u64| {
            let mut m = Machine::new(
                Arc::clone(&program),
                InputSource::new(InputSpec::concrete(vec![]), InputMode::Concrete),
                VmConfig::default(),
            );
            let mut s = Scheduler::random(seed);
            let mut mon = portend_repro::portend_vm::NullMonitor;
            let stop = drive(&mut m, &mut s, &mut mon, &DriveCfg::default());
            (stop, m.output.hash_chain(), m.steps, m.mem.fingerprint())
        };
        assert_eq!(run(seed), run(seed), "seed {seed}, increments {increments}");
    }
}

/// The final counter value under any schedule stays within the
/// lost-update envelope [increments, 2*increments].
#[test]
fn racy_counter_respects_lost_update_envelope() {
    let mut r = SmallRng::seed_from_u64(0x10E);
    for _case in 0..60 {
        let seed = r.next_u64() % 200;
        let n = 1 + r.gen_index(15) as i64;
        let mut pb = ProgramBuilder::new("env", "env.c");
        let g = pb.global("g", 0);
        let worker = pb.func("worker", move |f| {
            let _ = f.param();
            f.for_range(Operand::Imm(n), |f, _| {
                let v = f.load(g, Operand::Imm(0));
                f.yield_();
                let v1 = f.add(v, Operand::Imm(1));
                f.store(g, Operand::Imm(0), v1);
            });
            f.ret(None);
        });
        let main = pb.func("main", move |f| {
            let t1 = f.spawn(worker, Operand::Imm(0));
            let t2 = f.spawn(worker, Operand::Imm(1));
            f.join(t1);
            f.join(t2);
            let v = f.load(g, Operand::Imm(0));
            f.output(1, v);
            f.ret(None);
        });
        let program = Arc::new(pb.build(main).unwrap());
        let mut m = Machine::new(
            Arc::clone(&program),
            InputSource::new(InputSpec::concrete(vec![]), InputMode::Concrete),
            VmConfig::default(),
        );
        let mut s = Scheduler::random(seed);
        let mut mon = portend_repro::portend_vm::NullMonitor;
        let _ = drive(&mut m, &mut s, &mut mon, &DriveCfg::default());
        let total = m.output.concrete_values().unwrap()[0];
        assert!(total >= n && total <= 2 * n, "total {total} for n {n}");
    }
}

// ---------------------------------------------------------------------
// Drive equivalence: the executor against a reference scheduling loop.
// ---------------------------------------------------------------------

/// The scheduling loop `drive` is specified by, written naively from the
/// public API: every iteration checks completion, lists the runnable
/// threads and asks whether the current one is among them. `drive`
/// skips that work while the current thread can keep running; it must
/// still stop, step and consult the scheduler exactly as this does.
fn reference_drive(
    m: &mut Machine,
    sched: &mut Scheduler,
    mon: &mut dyn Monitor,
    cfg: &DriveCfg,
) -> DriveStop {
    let mut local_steps: u64 = 0;
    let mut just_picked = false;
    loop {
        if m.all_finished() {
            return DriveStop::Completed;
        }
        let runnable = m.runnable_threads(&cfg.suspended);
        if runnable.is_empty() {
            if cfg.suspended.iter().any(|t| !m.thread(*t).is_finished()) {
                return DriveStop::Stuck;
            }
            return DriveStop::Error(VmError::Deadlock(m.deadlock_info()));
        }
        let cur_ok = runnable.contains(&m.cur);
        let at_preempt = cur_ok
            && (m.peek_inst().is_some_and(|i| i.is_preemption_point())
                || reference_watch_match(m, &cfg.preempt_watches).is_some());
        if !cur_ok || (at_preempt && !just_picked) {
            let reason = if cur_ok {
                PickReason::Preemption
            } else {
                PickReason::Blocked
            };
            let alive = m.runnable_threads(&BTreeSet::new());
            let t = sched.pick(&runnable, &alive, m.cur, reason);
            m.preemptions += 1;
            if cfg.record_schedule {
                m.sched_log.push(t);
            }
            m.cur = t;
            just_picked = true;
            continue;
        }
        if let Some(hit) = reference_watch_match(m, &cfg.watches) {
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

/// The first watch the current thread's pending access matches.
fn reference_watch_match(m: &Machine, watches: &[Watch]) -> Option<WatchHit> {
    let (alloc, offset, is_write) = m.peek_access()?;
    let offset = offset?;
    let tid = m.cur;
    watches
        .iter()
        .any(|w| {
            w.alloc == alloc
                && w.offset.is_none_or(|o| o == offset)
                && w.tid.is_none_or(|t| t == tid)
                && (is_write || !w.writes_only)
        })
        .then(|| WatchHit {
            tid,
            pc: m.thread(tid).pc().expect("runnable thread has a pc"),
            alloc,
            offset,
            is_write,
        })
}

type DriveFn = fn(&mut Machine, &mut Scheduler, &mut dyn Monitor, &DriveCfg) -> DriveStop;

/// Everything one supervised session observably produced.
#[derive(Debug, PartialEq)]
struct Session {
    stops: Vec<DriveStop>,
    steps: u64,
    thread_steps: Vec<u64>,
    preemptions: u64,
    sched_log: Vec<ThreadId>,
    output: u64,
    memory: u64,
    accesses: usize,
    syncs: usize,
    /// What the scheduler decides next: its state after the session.
    next_picks: Vec<ThreadId>,
}

/// Which monitor a session runs under. `drive` fast-forwards periodic
/// spins only under a passive monitor, so `Null` exercises that path
/// and `Recording` the step-by-step one.
#[derive(Debug, Clone, Copy)]
enum MonitorMode {
    Recording,
    Null,
}

/// Drives `m` the way the classifier's supervisor does, for at most
/// `rounds` drive calls: a watch hit is stepped over, a symbolic fork
/// takes its true side, a step limit resumes with a fresh budget;
/// anything else ends the session.
fn drive_session(
    drive_fn: DriveFn,
    mut m: Machine,
    mut sched: Scheduler,
    cfg: &DriveCfg,
    mode: MonitorMode,
    rounds: usize,
) -> Session {
    let mut recording = RecordingMonitor::default();
    let mut null = NullMonitor;
    let mon: &mut dyn Monitor = match mode {
        MonitorMode::Recording => &mut recording,
        MonitorMode::Null => &mut null,
    };
    let mut stops = Vec::new();
    for _ in 0..rounds {
        let stop = drive_fn(&mut m, &mut sched, mon, cfg);
        stops.push(stop.clone());
        match stop {
            DriveStop::WatchHit(_) => {
                let _ = m.step(mon);
            }
            DriveStop::SymBranch { cond, then_b, .. } => m.apply_branch(then_b, cond.truthy()),
            DriveStop::SymAssert { cond, msg } => {
                if m.apply_assert(true, cond, &msg).is_some() {
                    break;
                }
            }
            DriveStop::StepLimit => {}
            DriveStop::Completed | DriveStop::Error(_) | DriveStop::Stuck => break,
        }
    }
    let all: Vec<ThreadId> = m.threads.iter().map(|t| t.id).collect();
    let next_picks = (0..16)
        .map(|_| sched.pick(&all, &all, m.cur, PickReason::Preemption))
        .collect();
    Session {
        stops,
        steps: m.steps,
        thread_steps: m.threads.iter().map(|t| t.steps).collect(),
        preemptions: m.preemptions,
        sched_log: m.sched_log.to_vec(),
        output: m.output.hash_chain(),
        memory: m.mem.fingerprint(),
        accesses: recording.accesses.len(),
        syncs: recording.syncs.len(),
        next_picks,
    }
}

/// Two threads racing on a counter; main joins both and prints it.
fn racy_counter_program() -> Arc<Program> {
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
    Arc::new(pb.build(main).unwrap())
}

/// Lock-order inversion: deadlocks under interleaving schedules.
fn deadlock_program() -> Arc<Program> {
    let mut pb = ProgramBuilder::new("dl", "dl.c");
    let g = pb.global("g", 0);
    let a = pb.mutex("A");
    let b = pb.mutex("B");
    let worker = pb.func("worker", move |f| {
        let _ = f.param();
        f.lock(b);
        f.yield_();
        f.lock(a);
        f.racy_inc(g, Operand::Imm(0));
        f.unlock(a);
        f.unlock(b);
        f.ret(None);
    });
    let main = pb.func("main", move |f| {
        let t = f.spawn(worker, Operand::Imm(0));
        f.lock(a);
        f.yield_();
        f.lock(b);
        f.racy_inc(g, Operand::Imm(0));
        f.unlock(b);
        f.unlock(a);
        f.join(t);
        f.ret(None);
    });
    Arc::new(pb.build(main).unwrap())
}

/// A worker branches and asserts on a symbolic input while main races
/// with it on a global: exercises the symbolic-fork stops.
fn symbolic_program() -> Arc<Program> {
    let mut pb = ProgramBuilder::new("sym", "sym.c");
    let g = pb.global("g", 0);
    let worker = pb.func("worker", move |f| {
        let x = f.param();
        let big = f.cmp(CmpOp::Gt, x, Operand::Imm(3));
        f.if_else(
            big,
            |f| {
                f.store(g, Operand::Imm(0), Operand::Imm(1));
            },
            |f| {
                f.racy_inc(g, Operand::Imm(0));
            },
        );
        let ok = f.cmp(CmpOp::Ne, x, Operand::Imm(100));
        f.assert_true(ok, "x is not 100");
        f.ret(None);
    });
    let main = pb.func("main", move |f| {
        let x = f.input();
        let t = f.spawn(worker, x);
        f.racy_inc(g, Operand::Imm(0));
        f.join(t);
        let v = f.load(g, Operand::Imm(0));
        f.output(1, v);
        f.ret(None);
    });
    Arc::new(pb.build(main).unwrap())
}

/// `drive` matches the reference scheduling loop stop for stop: same
/// `DriveStop`s, step counts (total and per thread), scheduler
/// consultations, recorded schedule, memory, outputs and scheduler
/// state, over random programs, the racy counter, a deadlocking and a
/// symbolic program, under seeded random and round-robin schedulers,
/// with watches, preemption watches, suspensions and tight budgets,
/// under a recording and under a passive monitor.
#[test]
fn drive_matches_reference_scheduling_loop() {
    let mut programs: Vec<(Arc<Program>, InputSource)> = Vec::new();
    let mut r = SmallRng::seed_from_u64(0xD21E);
    for _ in 0..12 {
        let (program, _) = random_program(r.next_u64());
        programs.push((
            program,
            InputSource::new(InputSpec::concrete(vec![]), InputMode::Concrete),
        ));
    }
    let concrete = || InputSource::new(InputSpec::concrete(vec![]), InputMode::Concrete);
    programs.push((racy_counter_program(), concrete()));
    programs.push((deadlock_program(), concrete()));
    programs.push((
        symbolic_program(),
        InputSource::new(
            InputSpec::concrete(vec![5]).with_symbolic(SymDomain::new("x", 0, 200)),
            InputMode::Symbolic,
        ),
    ));

    let g = AllocId(0);
    let cfgs = [
        DriveCfg::default(),
        DriveCfg::with_budget(7),
        DriveCfg {
            watches: vec![Watch::cell(g, 0)],
            ..Default::default()
        },
        DriveCfg {
            watches: vec![Watch::alloc(g).by(ThreadId(1))],
            preempt_watches: vec![Watch::alloc(g)],
            ..Default::default()
        },
        DriveCfg {
            preempt_watches: vec![Watch::cell(g, 0)],
            max_steps: 11,
            ..Default::default()
        },
        DriveCfg {
            suspended: [ThreadId(1)].into_iter().collect(),
            ..Default::default()
        },
        DriveCfg {
            watches: vec![Watch {
                writes_only: true,
                ..Watch::alloc(g)
            }],
            suspended: [ThreadId(0)].into_iter().collect(),
            ..Default::default()
        },
    ];

    for (pi, (program, inputs)) in programs.iter().enumerate() {
        for (ci, cfg) in cfgs.iter().enumerate() {
            let cfg = DriveCfg {
                record_schedule: true,
                ..cfg.clone()
            };
            for sched in [
                Scheduler::random(r.next_u64() % 1000),
                Scheduler::random(r.next_u64() % 1000),
                Scheduler::RoundRobin,
            ] {
                for mode in [MonitorMode::Recording, MonitorMode::Null] {
                    let m = Machine::new(Arc::clone(program), inputs.clone(), VmConfig::default());
                    let want =
                        drive_session(reference_drive, m.clone(), sched.clone(), &cfg, mode, 64);
                    let got = drive_session(drive, m, sched.clone(), &cfg, mode, 64);
                    assert_eq!(got, want, "program {pi}, cfg {ci}, {sched:?}, {mode:?}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Periodic spins: the fast-forward path of `drive`.
// ---------------------------------------------------------------------

/// `flag` (alloc 0) is set by a producer thread T1; T0 (and, with
/// `second_spinner`, T2) wait for it in a yielding `spin_while_eq`.
fn spin_on_flag_program(second_spinner: bool) -> Arc<Program> {
    let mut pb = ProgramBuilder::new("spin", "spin.c");
    let flag = pb.global("flag", 0);
    let producer = pb.func("producer", move |f| {
        let _ = f.param();
        f.store(flag, Operand::Imm(0), Operand::Imm(1));
        f.ret(None);
    });
    let spinner = pb.func("spinner", move |f| {
        let _ = f.param();
        f.spin_while_eq(flag, Operand::Imm(0), 0);
        f.ret(None);
    });
    let main = pb.func("main", move |f| {
        let p = f.spawn(producer, Operand::Imm(0));
        let s = second_spinner.then(|| f.spawn(spinner, Operand::Imm(1)));
        f.spin_while_eq(flag, Operand::Imm(0), 0);
        f.join(p);
        if let Some(s) = s {
            f.join(s);
        }
        let v = f.load(flag, Operand::Imm(0));
        f.output(1, v);
        f.ret(None);
    });
    Arc::new(pb.build(main).unwrap())
}

/// T0 waits for T1's flag in a loop with no `Yield`: it reaches a
/// scheduling point only where a preemption watch puts one.
fn spin_without_yield_program() -> Arc<Program> {
    let mut pb = ProgramBuilder::new("busy", "busy.c");
    let flag = pb.global("flag", 0);
    let producer = pb.func("producer", move |f| {
        let _ = f.param();
        f.store(flag, Operand::Imm(0), Operand::Imm(1));
        f.ret(None);
    });
    let main = pb.func("main", move |f| {
        let p = f.spawn(producer, Operand::Imm(0));
        f.while_loop(
            |f| {
                let v = f.load(flag, Operand::Imm(0));
                f.cmp(CmpOp::Eq, v, Operand::Imm(0))
            },
            |_| {},
        );
        f.join(p);
        f.ret(None);
    });
    Arc::new(pb.build(main).unwrap())
}

/// T0 bumps a counter (alloc 1) on every wait iteration, then zeroes the
/// registers it used: its frames repeat exactly while memory does not,
/// so only counting the `Store` as an effect keeps it from being
/// mistaken for a cycle.
fn spin_with_store_program() -> Arc<Program> {
    let mut pb = ProgramBuilder::new("count", "count.c");
    let flag = pb.global("flag", 0);
    let polls = pb.global("polls", 0);
    let producer = pb.func("producer", move |f| {
        let _ = f.param();
        f.store(flag, Operand::Imm(0), Operand::Imm(1));
        f.ret(None);
    });
    let main = pb.func("main", move |f| {
        let p = f.spawn(producer, Operand::Imm(0));
        f.while_loop(
            |f| {
                let v = f.load(flag, Operand::Imm(0));
                f.cmp(CmpOp::Eq, v, Operand::Imm(0))
            },
            |f| {
                let n = f.load(polls, Operand::Imm(0));
                let n1 = f.add(n, Operand::Imm(1));
                f.store(polls, Operand::Imm(0), n1);
                for r in [n, n1] {
                    if let Operand::Reg(dst) = r {
                        f.emit(Inst::Const { dst, value: 0 });
                    }
                }
                f.yield_();
            },
        );
        f.join(p);
        let v = f.load(polls, Operand::Imm(0));
        f.output(1, v);
        f.ret(None);
    });
    Arc::new(pb.build(main).unwrap())
}

/// `drive` under a passive monitor skips whole periods of a spin, yet
/// every observable result equals the reference loop's step-by-step
/// interpretation: stops, total and per-thread steps, preemptions,
/// recorded schedule, memory, outputs and the scheduler's next 16
/// picks. Cases: a suspended producer with one or two spinning
/// consumers, a spin without a yield (with and without a preemption
/// watch on the flag), a spin that stores on every iteration, a trace
/// that slips on the suspended producer, a random scheduler with one
/// runnable thread, round-robin and cooperative schedulers, schedule
/// recording on and off, and budgets that are not a multiple of any
/// period.
#[test]
fn drive_matches_reference_on_periodic_spins() {
    let programs = [
        spin_on_flag_program(false),
        spin_on_flag_program(true),
        spin_without_yield_program(),
        spin_with_store_program(),
    ];
    let flag = AllocId(0);
    let producer: BTreeSet<ThreadId> = [ThreadId(1)].into_iter().collect();
    let cfgs = [
        DriveCfg {
            max_steps: 2_011,
            suspended: producer.clone(),
            ..Default::default()
        },
        DriveCfg {
            max_steps: 5_003,
            suspended: producer.clone(),
            preempt_watches: vec![Watch::cell(flag, 0)],
            ..Default::default()
        },
        DriveCfg {
            max_steps: 3_001,
            preempt_watches: vec![Watch::alloc(flag).by(ThreadId(0))],
            ..Default::default()
        },
        DriveCfg::with_budget(4_099),
    ];
    let t = ThreadId;
    let scheds = [
        Scheduler::Cooperative,
        Scheduler::RoundRobin,
        Scheduler::random(7),
        Scheduler::follow_with_fallback(vec![t(1), t(1), t(0), t(2)], Scheduler::RoundRobin),
        Scheduler::follow_with_fallback(vec![t(0), t(1)], Scheduler::random(11)),
    ];
    for (pi, program) in programs.iter().enumerate() {
        for (ci, cfg) in cfgs.iter().enumerate() {
            for record_schedule in [false, true] {
                let cfg = DriveCfg {
                    record_schedule,
                    ..cfg.clone()
                };
                for sched in &scheds {
                    for mode in [MonitorMode::Null, MonitorMode::Recording] {
                        let m = Machine::new(
                            Arc::clone(program),
                            InputSource::new(InputSpec::concrete(vec![]), InputMode::Concrete),
                            VmConfig::default(),
                        );
                        let want =
                            drive_session(reference_drive, m.clone(), sched.clone(), &cfg, mode, 3);
                        let got = drive_session(drive, m, sched.clone(), &cfg, mode, 3);
                        assert_eq!(
                            got, want,
                            "program {pi}, cfg {ci}, record {record_schedule}, {sched:?}, {mode:?}"
                        );
                    }
                }
            }
        }
    }
}
