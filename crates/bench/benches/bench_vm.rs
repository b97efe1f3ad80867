//! Criterion benchmark: raw interpretation speed of the VM substrate
//! (the reproduction's "Cloud9 running time" baseline, Table 4 col. 2),
//! and an alternate-enforcement timeout (paper §3.2): a consumer spins on
//! a flag whose producer is suspended until a 1M-step budget runs out.
//! Under `NullMonitor` that spin is fast-forwarded by whole periods;
//! under `RecordingMonitor` every step is interpreted. The bench asserts
//! both give the same stop, steps and schedule log before timing them.

use portend_bench::crit::Criterion;
use portend_bench::{criterion_group, criterion_main};
use portend_vm::{
    drive, DriveCfg, DriveStop, InputMode, InputSource, InputSpec, Machine, Monitor, NullMonitor,
    Operand, ProgramBuilder, RecordingMonitor, Scheduler, ThreadId, VmConfig,
};
use std::sync::Arc;

/// The enforcement-timeout budget.
const TIMEOUT_BUDGET: u64 = 1_000_000;

fn workload_program() -> Arc<portend_vm::Program> {
    let mut pb = ProgramBuilder::new("spin", "spin.c");
    let g = pb.global("counter", 0);
    let worker = pb.func("worker", |f| {
        let _ = f.param();
        f.for_range(Operand::Imm(200), |f, _| {
            f.racy_inc(g, Operand::Imm(0));
            f.yield_();
        });
        f.ret(None);
    });
    let main = pb.func("main", |f| {
        let t1 = f.spawn(worker, Operand::Imm(0));
        let t2 = f.spawn(worker, Operand::Imm(1));
        f.join(t1);
        f.join(t2);
        f.ret(None);
    });
    Arc::new(pb.build(main).unwrap())
}

fn bench_vm(c: &mut Criterion) {
    let program = workload_program();
    c.bench_function("vm_interpret_2_threads_400_increments", |b| {
        b.iter(|| {
            let mut m = Machine::new(
                Arc::clone(&program),
                InputSource::new(InputSpec::concrete(vec![]), InputMode::Concrete),
                VmConfig::default(),
            );
            let mut s = Scheduler::RoundRobin;
            let mut mon = NullMonitor;
            let stop = drive(&mut m, &mut s, &mut mon, &DriveCfg::default());
            portend_bench::crit::black_box(stop)
        })
    });
}

/// T0 spawns a producer T1 that would set `flag`, then waits for it in a
/// yielding spin.
fn enforcement_program() -> Arc<portend_vm::Program> {
    let mut pb = ProgramBuilder::new("enforce", "enforce.c");
    let flag = pb.global("flag", 0);
    let producer = pb.func("producer", |f| {
        let _ = f.param();
        f.store(flag, Operand::Imm(0), Operand::Imm(1));
        f.ret(None);
    });
    let main = pb.func("main", |f| {
        let t = f.spawn(producer, Operand::Imm(0));
        f.spin_while_eq(flag, Operand::Imm(0), 0);
        f.join(t);
        f.ret(None);
    });
    Arc::new(pb.build(main).unwrap())
}

/// Runs the enforcement probe with the producer suspended, the way the
/// classifier's supervisor drives it (schedule recorded).
fn enforce(program: &Arc<portend_vm::Program>, mon: &mut dyn Monitor) -> (DriveStop, Machine) {
    let mut m = Machine::new(
        Arc::clone(program),
        InputSource::new(InputSpec::concrete(vec![]), InputMode::Concrete),
        VmConfig::default(),
    );
    let cfg = DriveCfg {
        max_steps: TIMEOUT_BUDGET,
        suspended: [ThreadId(1)].into_iter().collect(),
        record_schedule: true,
        ..Default::default()
    };
    let stop = drive(&mut m, &mut Scheduler::follow(vec![]), mon, &cfg);
    (stop, m)
}

fn bench_enforcement_timeout(c: &mut Criterion) {
    let program = enforcement_program();
    let (fast_stop, fast) = enforce(&program, &mut NullMonitor);
    let (slow_stop, slow) = enforce(&program, &mut RecordingMonitor::default());
    assert_eq!(fast_stop, DriveStop::StepLimit);
    assert_eq!(fast_stop, slow_stop);
    assert_eq!(fast.steps, TIMEOUT_BUDGET);
    assert_eq!(fast.steps, slow.steps);
    assert_eq!(fast.preemptions, slow.preemptions);
    assert_eq!(fast.sched_log, slow.sched_log);

    let mut g = c.benchmark_group("vm_enforcement_timeout_1M");
    g.sample_size(10);
    g.bench_function("null_monitor_fast_forward", |b| {
        b.iter(|| enforce(&program, &mut NullMonitor).0)
    });
    g.bench_function("recording_monitor_interpreted", |b| {
        b.iter(|| enforce(&program, &mut RecordingMonitor::default()).0)
    });
    g.finish();
}

criterion_group!(benches, bench_vm, bench_enforcement_timeout);
criterion_main!(benches);
