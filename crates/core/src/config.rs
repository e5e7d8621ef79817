//! Runtime tuning knobs (Table 2) and their effect on the cost model.

use crate::error::RunError;
use serde::{Deserialize, Serialize};
use twoface_net::CostModel;

/// The nonzero order inside asynchronous stripes that the cost model
/// charges for (§7.1).
///
/// The paper keeps column-major order because the distinct required `B`
/// rows then fall out of a linear scan; §7.1 reports that a row-major
/// variant (cheaper compute via output buffering) lost overall because
/// "the cost of identifying which columns contained nonzeros ... became
/// drastically higher". [`AsyncLayout::RowMajor`] reproduces that rejected
/// design for the `ablation_async_layout` experiment. The layout selects
/// only the charges: both read the one stored stripe, row-major with its
/// `UniqueColIDs` built at preparation, and compute bit-identical `C`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AsyncLayout {
    /// The paper's choice: linear-scan column identification, one atomic
    /// per nonzero during compute.
    #[default]
    ColumnMajor,
    /// The §7.1 alternative: buffered row-panel compute, but a runtime
    /// sort+dedup to find the required `B` rows.
    RowMajor,
}

/// Two-Face's constant runtime parameters (Table 2 of the paper).
///
/// Thread counts here are *modeled*: they scale the analytic cost model the
/// same way real thread pools scale throughput (the Table-3 coefficients
/// were calibrated at the Table-2 defaults, so deviating from a default
/// scales the corresponding coefficient proportionally — see
/// [`TwoFaceConfig::effective_cost`]). They never spawn host threads.
/// *Real* execution workers — the OS threads that run the local kernels,
/// preprocessing, and verification — are a separate, orthogonal knob
/// ([`crate::RunOptions`]' `workers` field / the `TWOFACE_THREADS`
/// environment variable, see [`crate::pool`]): changing the worker count
/// changes host wall-clock time but never a simulated timing or an output
/// bit.
///
/// # Example
///
/// ```
/// use twoface_core::TwoFaceConfig;
///
/// let config = TwoFaceConfig::default();
/// assert_eq!(config.sync_comp_threads, 120);
/// assert_eq!(config.max_coalesce_distance(128), 1); // 127/128 + 1
/// assert_eq!(config.max_coalesce_distance(32), 4);  // 127/32 + 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TwoFaceConfig {
    /// Threads per node issuing asynchronous (one-sided) transfers.
    pub async_comm_threads: usize,
    /// Threads per node computing on asynchronous stripes.
    pub async_comp_threads: usize,
    /// Threads per node computing on synchronous/local-input stripes.
    pub sync_comp_threads: usize,
    /// Height (rows) of the row panels in the synchronous/local-input
    /// sparse matrix.
    pub row_panel_height: usize,
    /// Overrides the `(127 / K) + 1` coalescing-distance rule with a fixed
    /// value when set (used by the coalescing ablation).
    pub coalesce_distance_override: Option<usize>,
    /// Nonzero order inside asynchronous stripes (§7.1).
    pub async_layout: AsyncLayout,
}

impl Default for TwoFaceConfig {
    /// The Table-2 defaults: 2 async-comm, 8 async-comp, and 120 sync
    /// threads; 32-row panels; rule-based coalescing distance.
    fn default() -> Self {
        TwoFaceConfig {
            async_comm_threads: 2,
            async_comp_threads: 8,
            sync_comp_threads: 120,
            row_panel_height: 32,
            coalesce_distance_override: None,
            async_layout: AsyncLayout::ColumnMajor,
        }
    }
}

impl TwoFaceConfig {
    /// Table-2 default thread counts, for scaling the calibrated
    /// coefficients.
    const DEFAULT_ASYNC_COMM: f64 = 2.0;
    const DEFAULT_ASYNC_COMP: f64 = 8.0;
    const DEFAULT_SYNC_COMP: f64 = 120.0;

    /// Checks that every knob can run: the thread counts, the row-panel
    /// height and a set coalescing-distance override must all be positive.
    /// Every entry point that takes a config calls this before anything
    /// else, so a zero reaches no kernel, rank thread or spill file.
    ///
    /// # Errors
    ///
    /// [`RunError::InvalidConfig`] naming the first zero field.
    pub fn check(&self) -> Result<(), RunError> {
        let threads = [
            ("async_comm_threads", self.async_comm_threads),
            ("async_comp_threads", self.async_comp_threads),
            ("sync_comp_threads", self.sync_comp_threads),
        ];
        if let Some((field, _)) = threads.iter().find(|(_, count)| *count == 0) {
            return Err(RunError::InvalidConfig { context: format!("{field} must be positive") });
        }
        check_panel_height(self.row_panel_height)?;
        if self.coalesce_distance_override == Some(0) {
            return Err(RunError::InvalidConfig {
                context: "coalesce_distance_override must be positive when set".to_string(),
            });
        }
        Ok(())
    }

    /// The maximum row-coalescing distance for asynchronous transfers:
    /// `(127 / K) + 1` (Table 2), so aggressiveness falls as the cost of a
    /// useless row grows with `K`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn max_coalesce_distance(&self, k: usize) -> usize {
        assert!(k > 0, "dense matrices must have at least one column");
        self.coalesce_distance_override.unwrap_or(127 / k + 1)
    }

    /// Derives the cost model in force under this thread configuration.
    ///
    /// The Table-3 coefficients embed the Table-2 thread split, so halving a
    /// pool doubles its per-unit cost:
    ///
    /// * `γ_A`, the async compute throughput, scales with
    ///   `8 / async_comp_threads`;
    /// * `β_A`/`α_A`/`α_run`, the async transfer pipeline, scale with
    ///   `2 / async_comm_threads`;
    /// * `γ_sync`/`κ_sync` scale with `120 / sync_comp_threads`.
    ///
    /// # Panics
    ///
    /// Panics if any thread count is zero.
    pub fn effective_cost(&self, base: &CostModel) -> CostModel {
        assert!(
            self.async_comm_threads > 0
                && self.async_comp_threads > 0
                && self.sync_comp_threads > 0,
            "thread counts must be positive"
        );
        let comm_scale = Self::DEFAULT_ASYNC_COMM / self.async_comm_threads as f64;
        let comp_scale = Self::DEFAULT_ASYNC_COMP / self.async_comp_threads as f64;
        let sync_scale = Self::DEFAULT_SYNC_COMP / self.sync_comp_threads as f64;
        CostModel {
            beta_async: base.beta_async * comm_scale,
            alpha_async: base.alpha_async * comm_scale,
            alpha_run: base.alpha_run * comm_scale,
            gamma_async: base.gamma_async * comp_scale,
            kappa_async: base.kappa_async * comp_scale,
            gamma_sync: base.gamma_sync * sync_scale,
            kappa_sync: base.kappa_sync * sync_scale,
            ..*base
        }
    }
}

/// The row-panel height part of [`TwoFaceConfig::check`], for the rank
/// structure builders that take a height alone.
pub(crate) fn check_panel_height(panel_height: usize) -> Result<(), RunError> {
    if panel_height == 0 {
        return Err(RunError::InvalidConfig {
            context: "row_panel_height must be positive".to_string(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_distance_follows_table2_rule() {
        let c = TwoFaceConfig::default();
        assert_eq!(c.max_coalesce_distance(1), 128);
        assert_eq!(c.max_coalesce_distance(32), 4);
        assert_eq!(c.max_coalesce_distance(64), 2);
        assert_eq!(c.max_coalesce_distance(127), 2);
        assert_eq!(c.max_coalesce_distance(512), 1);
    }

    #[test]
    fn coalesce_override_wins() {
        let c = TwoFaceConfig { coalesce_distance_override: Some(9), ..Default::default() };
        assert_eq!(c.max_coalesce_distance(128), 9);
    }

    #[test]
    fn default_config_leaves_cost_model_unchanged() {
        let base = CostModel::delta();
        let eff = TwoFaceConfig::default().effective_cost(&base);
        assert_eq!(base, eff);
    }

    #[test]
    fn fewer_async_comp_threads_raises_gamma() {
        let base = CostModel::delta();
        let c = TwoFaceConfig { async_comp_threads: 4, ..Default::default() };
        let eff = c.effective_cost(&base);
        assert!((eff.gamma_async - base.gamma_async * 2.0).abs() < 1e-18);
        assert_eq!(eff.beta_async, base.beta_async, "comm pool untouched");
    }

    #[test]
    fn more_comm_threads_lowers_transfer_cost() {
        let base = CostModel::delta();
        let c = TwoFaceConfig { async_comm_threads: 4, ..Default::default() };
        let eff = c.effective_cost(&base);
        assert!((eff.beta_async - base.beta_async / 2.0).abs() < 1e-18);
        assert!((eff.alpha_async - base.alpha_async / 2.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn zero_k_rejected() {
        let _ = TwoFaceConfig::default().max_coalesce_distance(0);
    }
}
