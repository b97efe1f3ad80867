//! # portend-workloads — modeled experimental targets
//!
//! IR models of the 7 real-world applications and 4 micro-benchmarks the
//! Portend paper evaluates on (Table 1), reproducing each program's *race
//! population*: the same number of distinct races, the same class mix
//! (Table 3), the same harmful consequences (Table 2), and the same
//! detection difficulty (which races need ad-hoc-synchronization
//! detection, multi-path, or multi-schedule analysis — Fig. 7).
//!
//! Every workload carries its manually-derived ground truth
//! ([`GroundTruth`]), standing in for the paper's one person-month of
//! manual race classification.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod bbuf;
mod common;
pub mod conformance;
mod ctrace;
mod fmm;
mod memcached;
mod micro;
mod ocean;
mod pbzip2;
mod spec;
mod sqlite;

pub use bbuf::bbuf;
pub use common::{declare_adhoc_stage, emit_consume, emit_produce, AdhocStage};
pub use ctrace::ctrace;
pub use fmm::{fmm, timestamps_positive};
pub use memcached::{memcached, memcached_weakened};
pub use micro::{avv, dbm, dcl, rw};
pub use ocean::ocean;
pub use pbzip2::pbzip2;
pub use spec::{ClassCounts, GroundTruth, Needs, ScoreCard, Workload};
pub use sqlite::sqlite;

/// Builds one workload.
type Build = fn() -> Workload;

/// The 11 experimental targets of Table 1 by name, in the paper's order.
const TARGETS: [(&str, Build); 11] = [
    ("SQLite", sqlite),
    ("ocean", ocean),
    ("fmm", fmm),
    ("memcached", memcached),
    ("pbzip2", pbzip2),
    ("ctrace", ctrace),
    ("bbuf", bbuf),
    ("AVV", avv),
    ("DCL", dcl),
    ("DBM", dbm),
    ("RW", rw),
];

/// The 11 experimental targets of Table 1, in the paper's order.
pub fn all() -> Vec<Workload> {
    TARGETS.iter().map(|(_, build)| build()).collect()
}

/// The 7 real-world application models (Table 2/3's upper block).
pub fn applications() -> Vec<Workload> {
    all().into_iter().take(7).collect()
}

/// Looks a workload up by name (including `"memcached-weakened"`),
/// building only that workload.
pub fn by_name(name: &str) -> Option<Workload> {
    if name == "memcached-weakened" {
        return Some(memcached_weakened());
    }
    TARGETS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, build)| build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_names_match_the_built_workloads() {
        for (name, build) in TARGETS {
            assert_eq!(build().name, name);
            assert_eq!(by_name(name).map(|w| w.name), Some(name));
        }
        assert_eq!(
            by_name("memcached-weakened").map(|w| w.name),
            Some("memcached-weakened")
        );
        assert!(by_name("no-such-program").is_none());
    }
}
