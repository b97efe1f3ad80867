//! The cooperative single-processor scheduler (paper §3.1, §6).
//!
//! Scheduling decisions happen at *preemption points*: synchronization
//! operations, `Yield`, thread blocking/exit, and (dynamically) watched
//! racing accesses. The scheduler is a cloneable value so that forked
//! exploration states carry independent schedule positions — this is what
//! lets the multi-path explorer prune paths that diverge from a recorded
//! schedule trace (paper Fig. 5).

use std::sync::Arc;

use crate::cowlog::CowList;
use crate::rng::SmallRng;
use crate::thread::ThreadId;

/// Why the scheduler is being consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PickReason {
    /// Execution is starting.
    Start,
    /// The current thread blocked or exited.
    Blocked,
    /// The current thread reached a preemption point.
    Preemption,
}

/// A thread scheduling policy.
///
/// All policies are deterministic given their initial value ([`Scheduler::Random`]
/// carries a seeded RNG), which is what makes replay exact.
#[derive(Debug, Clone, Default)]
pub enum Scheduler {
    /// Run the current thread until it blocks or exits; then pick the
    /// lowest-id runnable thread. This is the default for plain runs.
    #[default]
    Cooperative,
    /// Rotate through runnable threads at every preemption point.
    RoundRobin,
    /// Pick uniformly at random at every preemption point (used for
    /// multi-schedule analysis, paper §3.4).
    Random(SmallRng),
    /// Follow a recorded decision list; once exhausted or diverged, fall
    /// back to the inner policy.
    Trace {
        /// The recorded decisions, in consult order.
        trace: Arc<[ThreadId]>,
        /// Next decision index.
        pos: usize,
        /// Set when a decision could not be honored (the designated
        /// thread was not runnable). Multi-path exploration prunes states
        /// that diverge before the race (paper §3.3).
        diverged: bool,
        /// Policy used after the trace ends or diverges.
        fallback: Box<Scheduler>,
    },
}

/// The recorded schedule-decision log of one execution.
///
/// Append-only and `Arc`-backed (shared `CowList` storage): cloning
/// (part of every machine fork) copies one pointer; the first append
/// after a fork copies the decisions once (copy-on-write), tracked by
/// [`SchedLog::cow_bytes`] for fork-cost accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedLog {
    decisions: CowList<ThreadId>,
}

impl SchedLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a decision.
    pub fn push(&mut self, t: ThreadId) {
        self.decisions.push(t);
    }

    /// Number of recorded decisions.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// Whether no decision was recorded.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// The decisions as a slice, in consult order.
    pub fn as_slice(&self) -> &[ThreadId] {
        self.decisions.as_slice()
    }

    /// The decisions as an owned vector (for replay evidence and
    /// [`Scheduler::follow`]).
    pub fn to_vec(&self) -> Vec<ThreadId> {
        self.decisions.as_slice().to_vec()
    }

    /// Bytes a deep copy of the log would move.
    pub fn heap_bytes(&self) -> u64 {
        self.decisions.heap_bytes()
    }

    /// Bytes this instance copied on-write since construction (monotone).
    pub fn cow_bytes(&self) -> u64 {
        self.decisions.cow_bytes()
    }

    /// An eagerly deep-copied clone (no shared storage).
    pub fn deep_clone(&self) -> SchedLog {
        SchedLog {
            decisions: self.decisions.deep_clone(),
        }
    }
}

impl Scheduler {
    /// A random scheduler with the given seed.
    pub fn random(seed: u64) -> Self {
        Scheduler::Random(SmallRng::seed_from_u64(seed))
    }

    /// A trace-following scheduler with a cooperative fallback.
    pub fn follow(trace: impl Into<Arc<[ThreadId]>>) -> Self {
        Scheduler::Trace {
            trace: trace.into(),
            pos: 0,
            diverged: false,
            fallback: Box::new(Scheduler::Cooperative),
        }
    }

    /// A trace-following scheduler with an explicit fallback.
    pub fn follow_with_fallback(trace: impl Into<Arc<[ThreadId]>>, fallback: Scheduler) -> Self {
        Scheduler::Trace {
            trace: trace.into(),
            pos: 0,
            diverged: false,
            fallback: Box::new(fallback),
        }
    }

    /// Whether a trace-following scheduler failed to honor a decision.
    /// Always `false` for other policies.
    pub fn diverged(&self) -> bool {
        match self {
            Scheduler::Trace { diverged, .. } => *diverged,
            _ => false,
        }
    }

    /// Whether a trace-following scheduler consumed its whole trace.
    pub fn trace_exhausted(&self) -> bool {
        match self {
            Scheduler::Trace { trace, pos, .. } => *pos >= trace.len(),
            _ => true,
        }
    }

    /// Whether `self` and `other` will make the same decisions from now
    /// on, given the same arguments: same policy and same position (a
    /// trace compared by identity, not contents). `false` never breaks
    /// anything, it only makes the executor's spin detection miss.
    pub(crate) fn same_state(&self, other: &Scheduler) -> bool {
        match (self, other) {
            (Scheduler::Cooperative, Scheduler::Cooperative)
            | (Scheduler::RoundRobin, Scheduler::RoundRobin) => true,
            (Scheduler::Random(a), Scheduler::Random(b)) => a == b,
            (
                Scheduler::Trace {
                    trace,
                    pos,
                    diverged,
                    fallback,
                },
                Scheduler::Trace {
                    trace: trace_b,
                    pos: pos_b,
                    diverged: diverged_b,
                    fallback: fallback_b,
                },
            ) => {
                Arc::ptr_eq(trace, trace_b)
                    && pos == pos_b
                    && diverged == diverged_b
                    && fallback.same_state(fallback_b)
            }
            _ => false,
        }
    }

    /// Picks the next thread to run.
    ///
    /// `schedulable` is non-empty and sorted ascending: the threads the
    /// executor may actually schedule (runnable and not suspended).
    /// `alive` additionally includes runnable-but-*suspended* threads.
    /// `current` is the thread that was running (it may not be runnable
    /// anymore).
    ///
    /// A trace-following scheduler distinguishes the two sets: a decision
    /// naming a *suspended* thread is retried later (the suspension is an
    /// analysis artifact — the trace "slips" and realigns once the thread
    /// is released), while a decision naming a blocked or finished thread
    /// is a genuine divergence from the recorded execution.
    ///
    /// # Panics
    ///
    /// Panics if `schedulable` is empty (the executor never does this).
    #[allow(clippy::only_used_in_recursion)] // `reason` is part of the policy API
    pub fn pick(
        &mut self,
        schedulable: &[ThreadId],
        alive: &[ThreadId],
        current: ThreadId,
        reason: PickReason,
    ) -> ThreadId {
        assert!(
            !schedulable.is_empty(),
            "scheduler consulted with no runnable thread"
        );
        match self {
            Scheduler::Cooperative => {
                if schedulable.contains(&current) {
                    current
                } else {
                    schedulable[0]
                }
            }
            Scheduler::RoundRobin => {
                // The first runnable thread with id greater than current,
                // wrapping around.
                schedulable
                    .iter()
                    .copied()
                    .find(|t| t.0 > current.0)
                    .unwrap_or(schedulable[0])
            }
            Scheduler::Random(rng) => {
                let i = rng.gen_index(schedulable.len());
                schedulable[i]
            }
            Scheduler::Trace {
                trace,
                pos,
                diverged,
                fallback,
            } => {
                if *diverged || *pos >= trace.len() {
                    return fallback.pick(schedulable, alive, current, reason);
                }
                let want = trace[*pos];
                if schedulable.contains(&want) {
                    *pos += 1;
                    want
                } else if alive.contains(&want) {
                    // Suspended by the analysis: slip without diverging.
                    fallback.pick(schedulable, alive, current, reason)
                } else {
                    *diverged = true;
                    fallback.pick(schedulable, alive, current, reason)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> ThreadId {
        ThreadId(i)
    }

    #[test]
    fn cooperative_prefers_current() {
        let mut s = Scheduler::Cooperative;
        assert_eq!(
            s.pick(&[t(0), t(1)], &[t(0), t(1)], t(1), PickReason::Preemption),
            t(1)
        );
        assert_eq!(
            s.pick(&[t(0), t(2)], &[t(0), t(2)], t(1), PickReason::Blocked),
            t(0)
        );
    }

    #[test]
    fn round_robin_rotates() {
        let mut s = Scheduler::RoundRobin;
        assert_eq!(
            s.pick(
                &[t(0), t(1), t(2)],
                &[t(0), t(1), t(2)],
                t(0),
                PickReason::Preemption
            ),
            t(1)
        );
        assert_eq!(
            s.pick(
                &[t(0), t(1), t(2)],
                &[t(0), t(1), t(2)],
                t(2),
                PickReason::Preemption
            ),
            t(0)
        );
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut a = Scheduler::random(42);
        let mut b = Scheduler::random(42);
        for _ in 0..32 {
            let runnable = [t(0), t(1), t(2), t(3)];
            assert_eq!(
                a.pick(&runnable, &runnable, t(0), PickReason::Preemption),
                b.pick(&runnable, &runnable, t(0), PickReason::Preemption)
            );
        }
    }

    #[test]
    fn trace_follows_then_falls_back() {
        let mut s = Scheduler::follow(vec![t(1), t(0)]);
        assert_eq!(
            s.pick(&[t(0), t(1)], &[t(0), t(1)], t(0), PickReason::Preemption),
            t(1)
        );
        assert_eq!(
            s.pick(&[t(0), t(1)], &[t(0), t(1)], t(1), PickReason::Preemption),
            t(0)
        );
        assert!(s.trace_exhausted());
        assert!(!s.diverged());
        // Exhausted: cooperative fallback keeps the current thread.
        assert_eq!(
            s.pick(&[t(0), t(1)], &[t(0), t(1)], t(1), PickReason::Preemption),
            t(1)
        );
    }

    #[test]
    fn trace_divergence_is_flagged() {
        let mut s = Scheduler::follow(vec![t(5)]);
        let got = s.pick(&[t(0), t(1)], &[t(0), t(1)], t(0), PickReason::Preemption);
        assert_eq!(got, t(0));
        assert!(s.diverged());
    }

    #[test]
    fn same_state_tracks_position_not_just_policy() {
        let mut a = Scheduler::follow_with_fallback(vec![t(1), t(0)], Scheduler::random(3));
        let b = a.clone();
        assert!(a.same_state(&b));
        let _ = a.pick(&[t(0), t(1)], &[t(0), t(1)], t(0), PickReason::Preemption);
        assert!(!a.same_state(&b), "trace position moved");
        let c = Scheduler::follow_with_fallback(vec![t(1), t(0)], Scheduler::random(3));
        assert!(!c.same_state(&b), "a different trace allocation");
        let mut r = Scheduler::random(5);
        let r0 = r.clone();
        let _ = r.pick(&[t(0)], &[t(0)], t(0), PickReason::Preemption);
        assert!(!r.same_state(&r0), "a one-thread pick still draws");
        assert!(Scheduler::RoundRobin.same_state(&Scheduler::RoundRobin));
        assert!(!Scheduler::RoundRobin.same_state(&Scheduler::Cooperative));
    }

    #[test]
    fn cloned_scheduler_has_independent_position() {
        let mut a = Scheduler::follow(vec![t(1), t(0)]);
        let _ = a.pick(&[t(0), t(1)], &[t(0), t(1)], t(0), PickReason::Preemption);
        let mut b = a.clone();
        assert_eq!(
            a.pick(&[t(0), t(1)], &[t(0), t(1)], t(1), PickReason::Preemption),
            t(0)
        );
        assert_eq!(
            b.pick(&[t(0), t(1)], &[t(0), t(1)], t(1), PickReason::Preemption),
            t(0)
        );
    }
}
