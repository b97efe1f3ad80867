//! The instruction set of the Portend virtual machine.
//!
//! The IR is register-based and deliberately small: it contains exactly the
//! constructs Portend's analyses need to observe — shared-memory accesses,
//! POSIX-style synchronization, thread management, I/O, and control flow.
//! It plays the role LLVM bitcode plays for the original Portend.

use std::fmt;

use portend_symex::{BinOp, CmpOp};

use crate::program::{AllocId, BlockId, FuncId, SyncId};

/// A virtual register index, local to a stack frame.
pub type Reg = u32;

/// An instruction operand: a register or an immediate constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Read the value of a register.
    Reg(Reg),
    /// A literal constant.
    Imm(i64),
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "r{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// One IR instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inst {
    /// `dst <- imm`
    Const {
        /// Destination register.
        dst: Reg,
        /// The constant value.
        value: i64,
    },
    /// `dst <- src`
    Copy {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst <- lhs op rhs` (wrapping 64-bit arithmetic).
    Bin {
        /// The operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst <- lhs op rhs` (0/1 result).
    Cmp {
        /// The comparison.
        op: CmpOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst <- (src == 0) ? 1 : 0`
    Not {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst <- mem[base][index]` — a shared-memory **read** (a potential
    /// racing access).
    Load {
        /// Destination register.
        dst: Reg,
        /// The accessed allocation.
        base: AllocId,
        /// Index within the allocation; must evaluate concrete.
        index: Operand,
    },
    /// `mem[base][index] <- src` — a shared-memory **write** (a potential
    /// racing access).
    Store {
        /// The accessed allocation.
        base: AllocId,
        /// Index within the allocation; must evaluate concrete.
        index: Operand,
        /// The stored value.
        src: Operand,
    },
    /// Unconditional jump within the current function.
    Jump {
        /// Target block.
        target: BlockId,
    },
    /// Conditional branch on the truthiness of `cond`. Branching on a
    /// symbolic condition is the multi-path fork point (paper §3.3).
    Branch {
        /// Branch condition.
        cond: Operand,
        /// Block taken when `cond != 0`.
        then_b: BlockId,
        /// Block taken when `cond == 0`.
        else_b: BlockId,
    },
    /// Function call; arguments are copied into the callee's first registers.
    Call {
        /// Register receiving the return value, if any.
        dst: Option<Reg>,
        /// The callee.
        func: FuncId,
        /// Argument operands.
        args: Vec<Operand>,
    },
    /// Return from the current function.
    Ret {
        /// Returned value, if any.
        value: Option<Operand>,
    },
    /// Spawn a new thread running `func(arg)`; `dst` receives the thread id.
    Spawn {
        /// Register receiving the new thread's id.
        dst: Reg,
        /// Thread entry function.
        func: FuncId,
        /// Single argument passed in the callee's `r0`.
        arg: Operand,
    },
    /// Block until the given thread exits (like `pthread_join`).
    Join {
        /// The joined thread id; must evaluate concrete.
        tid: Operand,
    },
    /// Acquire a mutex (like `pthread_mutex_lock`); blocks while held.
    MutexLock {
        /// The mutex.
        mutex: SyncId,
    },
    /// Release a mutex (like `pthread_mutex_unlock`).
    MutexUnlock {
        /// The mutex.
        mutex: SyncId,
    },
    /// Atomically release `mutex` and wait on `cond`
    /// (like `pthread_cond_wait`); re-acquires `mutex` before continuing.
    CondWait {
        /// The condition variable.
        cond: SyncId,
        /// The associated mutex; must be held.
        mutex: SyncId,
    },
    /// Wake one waiter (like `pthread_cond_signal`). Lost wakeups are
    /// possible by design, as with POSIX.
    CondSignal {
        /// The condition variable.
        cond: SyncId,
    },
    /// Wake all waiters (like `pthread_cond_broadcast`).
    CondBroadcast {
        /// The condition variable.
        cond: SyncId,
    },
    /// Wait at a barrier until its full party has arrived.
    BarrierWait {
        /// The barrier.
        barrier: SyncId,
    },
    /// Append a value to the program's output log (the VM's `write(2)`;
    /// paper §4 intercepts output system calls the same way).
    Output {
        /// File-descriptor-like channel (1 = stdout, 2 = stderr, ...).
        fd: i64,
        /// The emitted value.
        value: Operand,
    },
    /// Read the next value from the program input (symbolic in multi-path
    /// mode). Models `read(2)`, `getopt`, `gettimeofday`, ...
    Input {
        /// Destination register.
        dst: Reg,
    },
    /// Crash with `AssertFailed` when `cond` is zero. Used both for program
    /// assertions and for the "semantic property" checks of §5.1.
    Assert {
        /// The asserted condition.
        cond: Operand,
        /// Message reported on failure.
        msg: String,
    },
    /// A pure preemption point (models `sched_yield`/`usleep`).
    Yield,
    /// Mark an allocation dead; later accesses are use-after-free crashes.
    Free {
        /// The freed allocation.
        base: AllocId,
    },
    /// Do nothing.
    Nop,
}

impl Inst {
    /// Whether executing this instruction can change nothing but the
    /// executing thread's registers and pc (and the step counters).
    ///
    /// This is a whitelist: every other instruction — including any added
    /// later — counts as an *effect* (see `Machine::step`), which is what
    /// the executor's spin fast-forward relies on. A failing `Assert` or
    /// `Bin`, or a symbolic `Branch`/`Assert`, ends the drive instead of
    /// changing state, so they stay on the list.
    pub fn is_register_only(&self) -> bool {
        matches!(
            self,
            Inst::Const { .. }
                | Inst::Copy { .. }
                | Inst::Not { .. }
                | Inst::Bin { .. }
                | Inst::Cmp { .. }
                | Inst::Load { .. }
                | Inst::Jump { .. }
                | Inst::Branch { .. }
                | Inst::Assert { .. }
                | Inst::Yield
                | Inst::Nop
        )
    }

    /// Whether executing this instruction is a scheduler preemption point.
    ///
    /// Synchronization operations and `Yield` are always preemption points
    /// (paper §3.1: "Portend treats all POSIX threads synchronization
    /// primitives as possible preemption points"). Racing accesses become
    /// preemption points dynamically via watchpoints, not statically here.
    pub fn is_preemption_point(&self) -> bool {
        matches!(
            self,
            Inst::MutexLock { .. }
                | Inst::MutexUnlock { .. }
                | Inst::CondWait { .. }
                | Inst::CondSignal { .. }
                | Inst::CondBroadcast { .. }
                | Inst::BarrierWait { .. }
                | Inst::Join { .. }
                | Inst::Spawn { .. }
                | Inst::Yield
        )
    }

    /// The memory access this instruction performs, if any:
    /// `(allocation, index operand, is_write)`.
    pub fn memory_access(&self) -> Option<(AllocId, Operand, bool)> {
        match self {
            Inst::Load { base, index, .. } => Some((*base, *index, false)),
            Inst::Store { base, index, .. } => Some((*base, *index, true)),
            _ => None,
        }
    }

    /// The blocks control can transfer to when this instruction ends a
    /// basic block: both arms of a branch, the target of a jump, and
    /// nothing for a return. Non-terminators yield an empty list (control
    /// falls through to the next instruction in the block).
    pub fn terminator_targets(&self) -> Vec<BlockId> {
        match self {
            Inst::Jump { target } => vec![*target],
            Inst::Branch { then_b, else_b, .. } => vec![*then_b, *else_b],
            _ => Vec::new(),
        }
    }

    /// The function this instruction calls, if it is a [`Inst::Call`].
    /// Spawns are *not* call edges — the spawned function runs in a new
    /// thread (see [`Inst::spawn_target`]).
    pub fn callee(&self) -> Option<FuncId> {
        match self {
            Inst::Call { func, .. } => Some(*func),
            _ => None,
        }
    }

    /// The entry function of the thread this instruction spawns, if it
    /// is a [`Inst::Spawn`].
    pub fn spawn_target(&self) -> Option<FuncId> {
        match self {
            Inst::Spawn { func, .. } => Some(*func),
            _ => None,
        }
    }

    /// The mutex this instruction acquires when it completes: the lock
    /// of a [`Inst::MutexLock`], and the re-acquired mutex of a
    /// [`Inst::CondWait`] (POSIX `cond_wait` returns with the mutex
    /// held again).
    pub fn acquires_mutex(&self) -> Option<SyncId> {
        match self {
            Inst::MutexLock { mutex } => Some(*mutex),
            Inst::CondWait { mutex, .. } => Some(*mutex),
            _ => None,
        }
    }

    /// The mutex this instruction releases: the lock of a
    /// [`Inst::MutexUnlock`]. A [`Inst::CondWait`] releases its mutex
    /// too, but only *during* the wait — it holds the mutex again by the
    /// time the next instruction runs, so for a statement-level
    /// held-locks analysis it is not a release (see
    /// [`Inst::acquires_mutex`]).
    pub fn releases_mutex(&self) -> Option<SyncId> {
        match self {
            Inst::MutexUnlock { mutex } => Some(*mutex),
            _ => None,
        }
    }

    /// The barrier this instruction waits at, if it is a
    /// [`Inst::BarrierWait`].
    pub fn barrier(&self) -> Option<SyncId> {
        match self {
            Inst::BarrierWait { barrier } => Some(*barrier),
            _ => None,
        }
    }

    /// A short mnemonic for listings and reports.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Inst::Const { .. } => "const",
            Inst::Copy { .. } => "copy",
            Inst::Bin { .. } => "bin",
            Inst::Cmp { .. } => "cmp",
            Inst::Not { .. } => "not",
            Inst::Load { .. } => "load",
            Inst::Store { .. } => "store",
            Inst::Jump { .. } => "jump",
            Inst::Branch { .. } => "branch",
            Inst::Call { .. } => "call",
            Inst::Ret { .. } => "ret",
            Inst::Spawn { .. } => "spawn",
            Inst::Join { .. } => "join",
            Inst::MutexLock { .. } => "lock",
            Inst::MutexUnlock { .. } => "unlock",
            Inst::CondWait { .. } => "cond-wait",
            Inst::CondSignal { .. } => "cond-signal",
            Inst::CondBroadcast { .. } => "cond-broadcast",
            Inst::BarrierWait { .. } => "barrier-wait",
            Inst::Output { .. } => "output",
            Inst::Input { .. } => "input",
            Inst::Assert { .. } => "assert",
            Inst::Yield => "yield",
            Inst::Free { .. } => "free",
            Inst::Nop => "nop",
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Const { dst, value } => write!(f, "r{dst} = const {value}"),
            Inst::Copy { dst, src } => write!(f, "r{dst} = {src}"),
            Inst::Bin { op, dst, lhs, rhs } => write!(f, "r{dst} = {op} {lhs}, {rhs}"),
            Inst::Cmp { op, dst, lhs, rhs } => write!(f, "r{dst} = cmp.{op} {lhs}, {rhs}"),
            Inst::Not { dst, src } => write!(f, "r{dst} = not {src}"),
            Inst::Load { dst, base, index } => write!(f, "r{dst} = load {base}[{index}]"),
            Inst::Store { base, index, src } => write!(f, "store {base}[{index}] = {src}"),
            Inst::Jump { target } => write!(f, "jump {target}"),
            Inst::Branch {
                cond,
                then_b,
                else_b,
            } => {
                write!(f, "branch {cond} ? {then_b} : {else_b}")
            }
            Inst::Call { dst, func, args } => {
                let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                match dst {
                    Some(d) => write!(f, "r{d} = call {func}({})", args.join(", ")),
                    None => write!(f, "call {func}({})", args.join(", ")),
                }
            }
            Inst::Ret { value: Some(v) } => write!(f, "ret {v}"),
            Inst::Ret { value: None } => write!(f, "ret"),
            Inst::Spawn { dst, func, arg } => write!(f, "r{dst} = spawn {func}({arg})"),
            Inst::Join { tid } => write!(f, "join {tid}"),
            Inst::MutexLock { mutex } => write!(f, "lock {mutex}"),
            Inst::MutexUnlock { mutex } => write!(f, "unlock {mutex}"),
            Inst::CondWait { cond, mutex } => write!(f, "cond-wait {cond}, {mutex}"),
            Inst::CondSignal { cond } => write!(f, "cond-signal {cond}"),
            Inst::CondBroadcast { cond } => write!(f, "cond-broadcast {cond}"),
            Inst::BarrierWait { barrier } => write!(f, "barrier-wait {barrier}"),
            Inst::Output { fd, value } => write!(f, "output fd={fd} {value}"),
            Inst::Input { dst } => write!(f, "r{dst} = input"),
            Inst::Assert { cond, msg } => write!(f, "assert {cond} \"{msg}\""),
            Inst::Yield => write!(f, "yield"),
            Inst::Free { base } => write!(f, "free {base}"),
            Inst::Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preemption_points() {
        assert!(Inst::Yield.is_preemption_point());
        assert!(Inst::MutexLock { mutex: SyncId(0) }.is_preemption_point());
        assert!(!Inst::Nop.is_preemption_point());
        assert!(!Inst::Load {
            dst: 0,
            base: AllocId(0),
            index: Operand::Imm(0)
        }
        .is_preemption_point());
    }

    #[test]
    fn register_only_whitelist() {
        assert!(Inst::Yield.is_register_only());
        assert!(Inst::Load {
            dst: 0,
            base: AllocId(0),
            index: Operand::Imm(0)
        }
        .is_register_only());
        assert!(!Inst::Store {
            base: AllocId(0),
            index: Operand::Imm(0),
            src: Operand::Imm(1)
        }
        .is_register_only());
        assert!(!Inst::MutexLock { mutex: SyncId(0) }.is_register_only());
        assert!(!Inst::Input { dst: 0 }.is_register_only());
    }

    #[test]
    fn memory_access_extraction() {
        let ld = Inst::Load {
            dst: 1,
            base: AllocId(3),
            index: Operand::Imm(2),
        };
        assert_eq!(
            ld.memory_access(),
            Some((AllocId(3), Operand::Imm(2), false))
        );
        let st = Inst::Store {
            base: AllocId(3),
            index: Operand::Reg(1),
            src: Operand::Imm(9),
        };
        assert_eq!(
            st.memory_access(),
            Some((AllocId(3), Operand::Reg(1), true))
        );
        assert_eq!(Inst::Yield.memory_access(), None);
    }

    #[test]
    fn inspection_helpers() {
        let jump = Inst::Jump { target: BlockId(4) };
        assert_eq!(jump.terminator_targets(), vec![BlockId(4)]);
        let br = Inst::Branch {
            cond: Operand::Reg(0),
            then_b: BlockId(1),
            else_b: BlockId(2),
        };
        assert_eq!(br.terminator_targets(), vec![BlockId(1), BlockId(2)]);
        assert!(Inst::Ret { value: None }.terminator_targets().is_empty());
        assert!(Inst::Yield.terminator_targets().is_empty());

        let call = Inst::Call {
            dst: None,
            func: FuncId(7),
            args: vec![],
        };
        assert_eq!(call.callee(), Some(FuncId(7)));
        assert_eq!(call.spawn_target(), None);
        let spawn = Inst::Spawn {
            dst: 0,
            func: FuncId(8),
            arg: Operand::Imm(0),
        };
        assert_eq!(spawn.spawn_target(), Some(FuncId(8)));
        assert_eq!(spawn.callee(), None);

        let lock = Inst::MutexLock { mutex: SyncId(3) };
        assert_eq!(lock.acquires_mutex(), Some(SyncId(3)));
        assert_eq!(lock.releases_mutex(), None);
        let unlock = Inst::MutexUnlock { mutex: SyncId(3) };
        assert_eq!(unlock.releases_mutex(), Some(SyncId(3)));
        assert_eq!(unlock.acquires_mutex(), None);
        let wait = Inst::CondWait {
            cond: SyncId(0),
            mutex: SyncId(5),
        };
        assert_eq!(wait.acquires_mutex(), Some(SyncId(5)));
        assert_eq!(wait.releases_mutex(), None);
        let bar = Inst::BarrierWait { barrier: SyncId(2) };
        assert_eq!(bar.barrier(), Some(SyncId(2)));
        assert_eq!(lock.barrier(), None);
    }

    #[test]
    fn display_smoke() {
        let i = Inst::Bin {
            op: BinOp::Add,
            dst: 2,
            lhs: Operand::Reg(1),
            rhs: Operand::Imm(5),
        };
        assert_eq!(i.to_string(), "r2 = add r1, 5");
        assert_eq!(i.mnemonic(), "bin");
    }
}
