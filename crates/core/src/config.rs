//! The explicit run context threaded from the CLI down to the engine.
//!
//! A [`RunConfig`] carries every knob that used to live in process-global
//! mutable state (`set_default_coalescing`, `set_partition_mode`):
//! fidelity, fragment-train coalescing, the partitioned engine choice, a
//! seed offset, and the sweep worker budget. Binaries parse
//! their flags into one config up front, and everything below — registry
//! entries, `Scenario::run`, the topology helpers, `FabricBuilder` — takes
//! it (or the [`EngineProfile`] derived from it) as an argument. Flag order
//! can no longer matter and concurrent runs with different configs cannot
//! interfere.

use crate::Fidelity;
pub use ibfabric::fabric::{EngineProfile, PartitionMode};

/// Everything that parameterizes one experiment run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RunConfig {
    /// Iteration-count scale (`Quick` for CI, `Full` for recorded numbers).
    pub fidelity: Fidelity,
    /// Fragment-train coalescing on the wire path (`--no-coalescing` clears
    /// it). A/B-invisible in every virtual-time observable.
    pub coalescing: bool,
    /// Serial (the default) vs forced-partitioned engine. Also
    /// A/B-invisible.
    pub partition: PartitionMode,
    /// Additive offset applied to every experiment's canonical seed via
    /// [`RunConfig::seed_for`]. The default `0` reproduces the recorded
    /// goldens bit-for-bit; any other value shifts the whole run onto a
    /// different deterministic trajectory.
    pub seed: u64,
    /// Cap on sweep worker threads (`None` = derive from the machine).
    pub workers: Option<usize>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            fidelity: Fidelity::Quick,
            coalescing: true,
            partition: PartitionMode::Off,
            seed: 0,
            workers: None,
        }
    }
}

impl RunConfig {
    /// The default config at `Full` fidelity.
    pub fn full() -> Self {
        RunConfig {
            fidelity: Fidelity::Full,
            ..RunConfig::default()
        }
    }

    /// The engine profile to build fabrics with under this config.
    pub fn engine(&self) -> EngineProfile {
        EngineProfile {
            coalescing: self.coalescing,
            partition: self.partition,
        }
    }

    /// Offset an experiment's canonical seed by the config's seed. With the
    /// default `seed: 0` this is the identity, so the historical hardcoded
    /// seeds (and therefore the golden outputs) are preserved exactly.
    pub fn seed_for(&self, canonical: u64) -> u64 {
        canonical.wrapping_add(self.seed)
    }

    /// Canonical one-line description, the digest input. Excludes `workers`:
    /// the worker budget affects wall clock only, never results, so two runs
    /// differing only in `workers` share a digest.
    pub fn describe(&self) -> String {
        format!(
            "fidelity={} coalescing={} partition={} seed={}",
            self.fidelity.name(),
            self.coalescing,
            partition_name(self.partition),
            self.seed,
        )
    }

    /// FNV-1a 64-bit digest of [`RunConfig::describe`], hex-encoded. Stamped
    /// into every figure's provenance block so a golden mismatch can be
    /// traced to a config mismatch at a glance.
    pub fn digest(&self) -> String {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x100_0000_01b3;
        let mut hash = FNV_OFFSET;
        for byte in self.describe().bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        format!("{hash:016x}")
    }
}

/// Stable lowercase name for a partition mode (provenance / describe).
pub fn partition_name(mode: PartitionMode) -> &'static str {
    match mode {
        PartitionMode::Off => "off",
        PartitionMode::Force => "force",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_preserves_canonical_seeds() {
        let cfg = RunConfig::default();
        assert_eq!(cfg.seed_for(42), 42);
        assert_eq!(cfg.seed_for(17), 17);
        let offset = RunConfig {
            seed: 5,
            ..RunConfig::default()
        };
        assert_eq!(offset.seed_for(42), 47);
    }

    #[test]
    fn digest_distinguishes_configs_but_not_workers() {
        let base = RunConfig::default();
        let forced = RunConfig {
            partition: PartitionMode::Force,
            ..base
        };
        let nocoal = RunConfig {
            coalescing: false,
            ..base
        };
        let budgeted = RunConfig {
            workers: Some(3),
            ..base
        };
        assert_ne!(base.digest(), forced.digest());
        assert_ne!(base.digest(), nocoal.digest());
        assert_ne!(forced.digest(), nocoal.digest());
        assert_eq!(
            base.digest(),
            budgeted.digest(),
            "workers is wall-clock only"
        );
        assert_eq!(base.digest().len(), 16, "fixed-width hex");
    }

    #[test]
    fn engine_profile_mirrors_config() {
        let cfg = RunConfig {
            coalescing: false,
            partition: PartitionMode::Force,
            ..RunConfig::default()
        };
        let p = cfg.engine();
        assert!(!p.coalescing);
        assert_eq!(p.partition, PartitionMode::Force);
    }
}
