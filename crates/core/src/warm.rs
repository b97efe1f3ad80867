//! Where a pipeline run's solver cache comes from — and where its warm
//! capital goes when the run finishes.
//!
//! [`WarmSource`] names three interchangeable lifecycles — a fresh
//! cache with no store I/O, a caller-owned cache (the resident daemon's
//! per-program cache), and a managed [`StoreManager`] directory keyed
//! by program fingerprint (`--store-dir`) — that all flow through the
//! same two calls: [`WarmSource::acquire`] before classification and
//! [`WarmSource::release`] after. Verdicts never depend on the variant:
//! the cache is answer-preserving, and every store failure is a clean
//! cold start.

use std::sync::Arc;

use portend_symex::{SolverCache, StoreManager};

use crate::config::FarmKnobs;

/// A pipeline run's warm-store lifecycle: how the shared solver cache
/// is built/warmed before classification and persisted after.
#[derive(Debug, Clone, Default)]
pub enum WarmSource {
    /// A new cache when `FarmKnobs::solver_cache` is on (sharded per
    /// `FarmKnobs::cache_shards`), and no store I/O in either direction.
    #[default]
    Fresh,
    /// Use a caller-owned cache as-is: no store I/O in either
    /// direction, no reconfiguration (the owner already chose the
    /// sharding). The daemon uses this to let warm capital
    /// compound in-memory across requests.
    Borrowed(Arc<SolverCache>),
    /// A managed per-program store directory. `acquire` warms from the
    /// store keyed by `fingerprint` (touching its LRU recency);
    /// `release` saves back through the manager, which then enforces
    /// the directory budget and its own `WarmPolicy`.
    Manager {
        /// The store directory manager (shared across requests).
        manager: Arc<StoreManager>,
        /// The program fingerprint the run analyzes
        /// (`portend_vm::Program::fingerprint`).
        fingerprint: u64,
        /// A resident cache to reuse (daemon case); `None` builds a
        /// fresh one per the knobs, exactly as [`WarmSource::Fresh`]
        /// does (none at all when `solver_cache` is off).
        cache: Option<Arc<SolverCache>>,
    },
}

impl WarmSource {
    /// Builds (or borrows) the run's shared solver cache and warms it
    /// from this source's store. A missing, stale, foreign, or corrupt
    /// store is a clean cold start — classification must never fail
    /// because last run's warm capital didn't survive; a *foreign*
    /// store additionally marks the cache's
    /// `warm_rejected_fingerprint` counter so the rejection is never
    /// silent.
    pub(crate) fn acquire(&self, knobs: &FarmKnobs) -> Option<Arc<SolverCache>> {
        let fresh = || {
            knobs
                .solver_cache
                .then(|| Arc::new(SolverCache::new(knobs.cache_shards)))
        };
        match self {
            WarmSource::Fresh => fresh(),
            WarmSource::Borrowed(cache) => Some(Arc::clone(cache)),
            WarmSource::Manager {
                manager,
                fingerprint,
                cache,
            } => {
                let cache = cache.clone().or_else(fresh)?;
                let _ = manager.load_into(*fingerprint, &cache);
                Some(cache)
            }
        }
    }

    /// Persists the run's cache back through this source. Failures
    /// (full disk, unwritable path) are deliberately swallowed: the
    /// store is an optimization, the verdicts are already computed.
    pub(crate) fn release(&self, cache: Option<&Arc<SolverCache>>) {
        if let (
            WarmSource::Manager {
                manager,
                fingerprint,
                ..
            },
            Some(cache),
        ) = (self, cache)
        {
            let _ = manager.save_from(*fingerprint, cache);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_cache_off_builds_no_cache_but_borrowed_keeps_its_own() {
        let knobs = FarmKnobs {
            solver_cache: false,
            ..Default::default()
        };
        let dir = std::env::temp_dir().join(format!("portend-warmsource-{}", std::process::id()));
        let manager = Arc::new(StoreManager::new(&dir).expect("store dir"));
        let managed = WarmSource::Manager {
            manager,
            fingerprint: 0x5eed,
            cache: None,
        };
        assert!(WarmSource::Fresh.acquire(&knobs).is_none());
        assert!(managed.acquire(&knobs).is_none());
        let own = Arc::new(SolverCache::new(1));
        let borrowed = WarmSource::Borrowed(Arc::clone(&own))
            .acquire(&knobs)
            .expect("a borrowed cache is used as-is");
        assert!(Arc::ptr_eq(&borrowed, &own));
        // With the cache on, both gated sources build one.
        let on = FarmKnobs::default();
        assert!(WarmSource::Fresh.acquire(&on).is_some());
        assert!(managed.acquire(&on).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
