//! Execution settings shared by the sensitivity computations.
//!
//! Every sensitivity entry point is a method of
//! [`SensitivityOps`](crate::SensitivityOps) on [`ExecContext`]; the plain
//! free functions build a throwaway context from
//! [`SensitivityConfig::default`].  Results are **byte-identical** at every
//! parallelism level: the engine's parallel loops are morsel-driven with
//! work stealing — workers *claim* morsels in a nondeterministic order, but
//! every result is tagged with its morsel index and merged in morsel order
//! (see `dpsyn_relational::exec`) — so the knobs trade only wall-clock
//! time, never output.

use dpsyn_relational::{ExecContext, Parallelism, DEFAULT_CACHE_SLOTS, DEFAULT_MIN_PAR_INSTANCE};

/// Default threshold below which sensitivity computations take the
/// sequential code paths (re-exported engine default; see
/// [`SensitivityConfig::min_par_instance`]).
pub(crate) const MIN_PAR_INSTANCE: usize = DEFAULT_MIN_PAR_INSTANCE;

/// Tunables for the sensitivity computations.
///
/// Two knobs: how many worker threads the subset enumerations and probe
/// loops may use, and the instance size below which the sequential
/// code paths run regardless (pool and shard-lock overhead would dominate
/// tiny joins).  The parallelism default resolves to the machine's available
/// cores (or the `DPSYN_THREADS` environment variable);
/// [`SensitivityConfig::sequential`] pins the exact single-threaded code
/// path the crate used before the parallel execution layer existed.
///
/// A config converts into a throwaway [`ExecContext`] via
/// [`SensitivityConfig::to_context`]; for cross-call sub-join cache reuse,
/// hold a long-lived context (or a `dpsyn::Session`) instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensitivityConfig {
    /// Worker threads available to one sensitivity computation.
    pub parallelism: Parallelism,
    /// Instances with fewer distinct tuples than this (summed across
    /// relations) run the sequential code paths even when a multi-thread
    /// [`Parallelism`] is requested.  Results are identical either way;
    /// only wall-clock differs.  Defaults to the engine's
    /// [`DEFAULT_MIN_PAR_INSTANCE`].
    pub min_par_instance: usize,
    /// Number of `(query, instance)` slots the context's persistent cache
    /// LRU keeps warm at once (lattices, full joins and join plans).
    /// Defaults to the engine's [`DEFAULT_CACHE_SLOTS`]; one slot reproduces
    /// the historical single-instance behaviour.
    pub cache_slots: usize,
}

impl Default for SensitivityConfig {
    fn default() -> Self {
        SensitivityConfig {
            parallelism: Parallelism::default(),
            min_par_instance: MIN_PAR_INSTANCE,
            cache_slots: DEFAULT_CACHE_SLOTS,
        }
    }
}

impl SensitivityConfig {
    /// The sequential configuration (one worker, no spawned threads).
    pub fn sequential() -> Self {
        SensitivityConfig {
            parallelism: Parallelism::SEQUENTIAL,
            ..SensitivityConfig::default()
        }
    }

    /// A configuration with exactly `n` worker threads.
    pub fn with_threads(n: usize) -> Self {
        SensitivityConfig {
            parallelism: Parallelism::threads(n),
            ..SensitivityConfig::default()
        }
    }

    /// Sets the small-instance sequential-fallback threshold.
    pub fn with_min_par_instance(mut self, min_par_instance: usize) -> Self {
        self.min_par_instance = min_par_instance;
        self
    }

    /// Sets the context cache LRU's slot capacity (clamped to at least 1).
    pub fn with_cache_slots(mut self, cache_slots: usize) -> Self {
        self.cache_slots = cache_slots.max(1);
        self
    }

    /// Builds a fresh (cold-cache) execution context carrying these
    /// settings.  The legacy `*_with` entry points call this once per
    /// invocation; a long-lived context additionally reuses its sub-join
    /// lattice across calls.
    pub fn to_context(&self) -> ExecContext {
        ExecContext::new(self.parallelism)
            .with_min_par_instance(self.min_par_instance)
            .with_cache_slots(self.cache_slots)
    }
}

impl From<SensitivityConfig> for ExecContext {
    fn from(config: SensitivityConfig) -> Self {
        config.to_context()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_constructors() {
        assert!(SensitivityConfig::sequential().parallelism.is_sequential());
        assert_eq!(SensitivityConfig::with_threads(4).parallelism.get(), 4);
        assert!(SensitivityConfig::default().parallelism.get() >= 1);
        assert_eq!(
            SensitivityConfig::default().min_par_instance,
            MIN_PAR_INSTANCE
        );
    }

    #[test]
    fn threshold_is_configurable_and_flows_into_the_context() {
        let config = SensitivityConfig::sequential().with_min_par_instance(7);
        assert_eq!(config.min_par_instance, 7);
        let ctx = config.to_context();
        assert_eq!(ctx.min_par_instance(), 7);
        assert!(ctx.parallelism().is_sequential());
        let ctx2: ExecContext = SensitivityConfig::with_threads(3).into();
        assert_eq!(ctx2.parallelism().get(), 3);
        assert_eq!(ctx2.min_par_instance(), MIN_PAR_INSTANCE);
    }

    #[test]
    fn cache_slots_are_configurable_and_flow_into_the_context() {
        assert_eq!(
            SensitivityConfig::default().cache_slots,
            DEFAULT_CACHE_SLOTS
        );
        let config = SensitivityConfig::sequential().with_cache_slots(2);
        assert_eq!(config.to_context().cache_slots(), 2);
        // Clamped to at least one slot.
        assert_eq!(
            SensitivityConfig::sequential()
                .with_cache_slots(0)
                .to_context()
                .cache_slots(),
            1
        );
    }
}
