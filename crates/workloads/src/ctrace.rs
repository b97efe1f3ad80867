//! Model of ctrace 1.2: 15 races — the paper's flagship Fig. 4 crash
//! (harmful only for a specific input, thread schedule, and value of
//! `id`, discoverable only through multi-path multi-schedule analysis),
//! 10 "output differs" races on debug-log state, and 4 harmless
//! "k-witness (states differ)" races on debug bookkeeping cells.

use std::sync::Arc;

use portend::RaceClass;
use portend_symex::CmpOp;
use portend_vm::{InputSpec, Operand, ProgramBuilder, Scheduler, SymDomain, VmConfig};

use crate::common::{emit_double_read_print, kw_differ_truth, outdiff_truth};
use crate::spec::{ClassCounts, GroundTruth, Needs, Workload};

/// Number of request-handler iterations; also the size of `stats_array`
/// (Fig. 4's `MAX_SIZE`), so the overflow needs `id` to be bumped between
/// the bounds check and the use.
const MAX_SIZE: i64 = 8;

/// Builds the workload.
pub fn ctrace() -> Workload {
    let mut pb = ProgramBuilder::new("ctrace", "ctrace.c");
    let id = pb.global("id", 0);
    let hash_table = pb.array("hash_table", MAX_SIZE as usize);
    let stats_array = pb.array("stats_array", MAX_SIZE as usize);
    let lock = pb.mutex("l");
    // Debug bookkeeping cells: written by two threads, never read.
    let dbg: Vec<_> = (0..4)
        .map(|i| pb.global(format!("dbg_cell{i}"), 0))
        .collect();
    // Directly printed trace level (single-path-visible outDiff).
    let trc_level = pb.global("trc_level", 0);
    // Gated log counters (multi-path outDiff).
    let log_cnt: Vec<_> = (0..5)
        .map(|i| pb.global(format!("log_cnt{i}"), 0))
        .collect();
    // Double-read format buffers (multi-schedule outDiff; 2 races each).
    let fmt: Vec<_> = (0..2)
        .map(|i| pb.global(format!("fmt_buf{i}"), 0))
        .collect();

    // T1 — reqHandler (paper Fig. 4 thread T1): increments `id` under a
    // lock, MAX_SIZE times, then stamps two debug cells.
    let dbg_t1 = dbg.clone();
    let req_handler = pb.func("reqHandler", move |f| {
        let _ = f.param();
        f.for_range(Operand::Imm(MAX_SIZE), |f, _i| {
            f.lock(lock);
            f.line(15);
            f.racy_inc(id, Operand::Imm(0));
            f.unlock(lock);
        });
        // Teardown bookkeeping happens long after the status command's
        // prints (keeping the debug-cell races decoupled from the
        // output-visible ones).
        for _ in 0..70 {
            f.yield_();
        }
        f.line(61);
        f.store(dbg_t1[0], Operand::Imm(0), Operand::Imm(1));
        f.line(62);
        f.store(dbg_t1[1], Operand::Imm(0), Operand::Imm(1));
        f.ret(None);
    });

    // T2 — updateStats (paper Fig. 4 thread T2): reads `id` without the
    // lock; the stats structure depends on the --use-hash-table option.
    let update_stats = pb.func("updateStats", move |f| {
        let use_hash_table = f.param();
        // Let the request handler finish first in the recorded schedule
        // (the racy read then races with the *last* increment).
        for _ in 0..48 {
            f.yield_();
        }
        f.line(19);
        f.if_else(
            use_hash_table,
            |f| {
                f.line(26);
                let tmp = f.load(id, Operand::Imm(0)); // racy read (update1)
                let slot = f.bin(portend_symex::BinOp::And, tmp, Operand::Imm(MAX_SIZE - 1));
                f.line(28);
                f.store(hash_table, slot, Operand::Imm(55));
            },
            |f| {
                f.line(30);
                let v = f.load(id, Operand::Imm(0)); // racy read (update2 check)
                let in_range = f.cmp(CmpOp::Lt, v, Operand::Imm(MAX_SIZE));
                f.if_then(in_range, |f| {
                    f.line(31);
                    let w = f.load(id, Operand::Imm(0)); // racy re-read (update2 use)
                    f.store(stats_array, w, Operand::Imm(77));
                });
            },
        );
        f.ret(None);
    });

    // T3 — logger: stamps debug cells (racing with T1's stamps), sets the
    // trace level, bumps the gated log counters, fills the format buffers.
    let dbg_t3 = dbg.clone();
    let log_t3 = log_cnt.clone();
    let fmt_t3 = fmt.clone();
    let logger = pb.func("logger", move |f| {
        let _ = f.param();
        f.line(80);
        f.store(trc_level, Operand::Imm(0), Operand::Imm(2));
        for (i, &c) in log_t3.iter().enumerate() {
            f.line(90 + i as u32);
            f.store(c, Operand::Imm(0), Operand::Imm(20 + i as i64));
        }
        f.line(101);
        f.store(fmt_t3[0], Operand::Imm(0), Operand::Imm(64));
        f.line(102);
        f.store(fmt_t3[1], Operand::Imm(0), Operand::Imm(65));
        // Teardown bookkeeping, long after the status command's prints.
        for _ in 0..70 {
            f.yield_();
        }
        f.line(71);
        f.store(dbg_t3[0], Operand::Imm(0), Operand::Imm(3));
        f.line(72);
        f.store(dbg_t3[1], Operand::Imm(0), Operand::Imm(3));
        f.line(73);
        f.store(dbg_t3[2], Operand::Imm(0), Operand::Imm(3));
        f.line(74);
        f.store(dbg_t3[3], Operand::Imm(0), Operand::Imm(3));
        f.ret(None);
    });

    let dbg_m = dbg.clone();
    let log_m = log_cnt.clone();
    let fmt_m = fmt.clone();
    let main = pb.func("main", move |f| {
        let use_hash_table = f.input(); // --use-hash-table (recorded: 1)
        let debug = f.input(); // --debug (recorded: 0)
        let t1 = f.spawn(req_handler, Operand::Imm(0));
        let t2 = f.spawn(update_stats, use_hash_table);
        let t3 = f.spawn(logger, Operand::Imm(0));
        // Wait a while so the logger's writes land first in the recorded
        // schedule, then serve the "status" command.
        for _ in 0..30 {
            f.yield_();
        }
        f.line(130);
        let lvl = f.load(trc_level, Operand::Imm(0)); // racy read, printed
        f.output(1, lvl);
        // Gated log-counter report: the loads always execute (so the
        // races are observed), the prints need --debug.
        let mut loaded = Vec::new();
        for (i, &c) in log_m.iter().enumerate() {
            f.line(140 + i as u32);
            loaded.push(f.load(c, Operand::Imm(0))); // racy reads
        }
        f.if_then(debug, |f| {
            for v in loaded {
                f.output(1, v);
            }
        });
        // Double-read prints of the format buffers.
        f.line(150);
        emit_double_read_print(f, fmt_m[0], 1);
        f.line(151);
        emit_double_read_print(f, fmt_m[1], 1);
        // Main stamps two of the debug cells during teardown (the racing
        // side for cells 2 and 3, with different values than T3's).
        f.line(120);
        f.store(dbg_m[2], Operand::Imm(0), Operand::Imm(9));
        f.line(121);
        f.store(dbg_m[3], Operand::Imm(0), Operand::Imm(9));
        f.join(t1);
        f.join(t2);
        f.join(t3);
        f.ret(None);
    });
    let program = Arc::new(pb.build(main).expect("valid ctrace model"));

    let mut ground_truth = vec![GroundTruth {
        alloc: "id".to_string(),
        expected: RaceClass::SpecViolated,
        predicted: None,
        needs: Needs::MultiPath,
        states_differ: true,
        note: "Fig. 4: stats_array overflow for --no-hash-table when the \
               increment lands between check and use",
    }];
    for i in 0..4 {
        ground_truth.push(kw_differ_truth(
            &format!("dbg_cell{i}"),
            "debug bookkeeping, never read",
        ));
    }
    ground_truth.push(outdiff_truth(
        "trc_level",
        Needs::SinglePath,
        "trace level printed by the status command",
    ));
    for i in 0..5 {
        ground_truth.push(outdiff_truth(
            &format!("log_cnt{i}"),
            Needs::MultiPath,
            "printed only under --debug (recorded run is quiet)",
        ));
    }
    for i in 0..2 {
        ground_truth.push(outdiff_truth(
            &format!("fmt_buf{i}"),
            Needs::MultiSchedule,
            "double-read print: only a randomized post-race schedule \
             exposes the stale value",
        ));
    }

    Workload {
        name: "ctrace",
        language: "C",
        original_loc: 886,
        forked_threads: 3,
        program,
        inputs: vec![1, 0],
        input_spec: InputSpec::concrete(vec![1, 0])
            .with_symbolic(SymDomain::new("use_hash_table", 0, 1))
            .with_symbolic(SymDomain::new("debug", 0, 1)),
        predicates: vec![],
        optional_predicates: vec![],
        record_scheduler: Scheduler::RoundRobin,
        vm: VmConfig::default(),
        ground_truth,
        expected: ClassCounts {
            spec_viol: 1,
            out_diff: 10,
            kw_differ: 4,
            ..Default::default()
        },
    }
}
