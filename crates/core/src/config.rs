//! Build-time configuration for the private shortest-path schemes.

use privpath_pir::{PirMode, SystemSpec};

/// Configuration shared by all scheme builders. Defaults match the paper's
/// full-featured setting: 4 KB pages, packed partitioning, index compression
/// on, cost-model PIR.
#[derive(Debug, Clone)]
pub struct BuildConfig {
    /// Hardware/link constants (Table 2).
    pub spec: SystemSpec,
    /// How PIR fetches are served (cost-only vs functional oblivious store).
    pub pir_mode: PirMode,
    /// Packed KD-tree partitioning (§5.6). Disabling reproduces the CI-P /
    /// PI-P ablation of Figure 8.
    pub packed_partition: bool,
    /// In-page index compression (§5.5). Disabling reproduces the CI-C /
    /// PI-C ablation of Figure 9.
    pub compress_index: bool,
    /// Disk pages per region in the region-data file — 1 for CI/PI/HY, the
    /// cluster-size parameter for PI* (§6).
    pub cluster_pages: u16,
    /// HY: region sets with more regions than this are replaced by their
    /// `G_ij` subgraph (the tuning knob of Figure 10). `None` lets HY pick
    /// the smallest threshold whose index still fits the PIR size limit.
    pub hy_threshold: Option<usize>,
    /// LM: number of landmark anchors (Figure 5's tuning knob).
    pub landmarks: usize,
    /// AF: number of arc-flag regions (bits per edge).
    pub af_regions: usize,
    /// OBF: `|S| = |T|` — the real endpoint plus `obf_decoys - 1` uniform
    /// random fakes (the x-axis of Figure 6). Must be at least 1.
    pub obf_decoys: usize,
    /// LM/AF: node pairs sampled to derive the fixed query plan, plus a
    /// safety margin. `0` derives the plan exhaustively over all node pairs
    /// (small networks only) — the paper's method.
    pub plan_sample: usize,
    /// Relative safety margin added to sampled plan maxima (ignored for
    /// exhaustive derivation).
    pub plan_margin: f64,
    /// RNG seed (dummy-request page choices, plan sampling).
    pub seed: u64,
    /// Worker threads for pre-computation (0 = all available cores).
    pub threads: usize,
}

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig {
            spec: SystemSpec::default(),
            pir_mode: PirMode::CostOnly,
            packed_partition: true,
            compress_index: true,
            cluster_pages: 1,
            hy_threshold: None,
            landmarks: 5,
            af_regions: 8,
            obf_decoys: 20,
            plan_sample: 256,
            plan_margin: 0.25,
            seed: 0x5eed,
            threads: 0,
        }
    }
}

impl BuildConfig {
    /// Resolved worker-thread count.
    pub(crate) fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_full_featured() {
        let c = BuildConfig::default();
        assert!(c.packed_partition);
        assert!(c.compress_index);
        assert_eq!(c.cluster_pages, 1);
        assert!(c.resolved_threads() >= 1);
    }
}
