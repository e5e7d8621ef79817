//! The SpMM algorithms under comparison (Table 4) and the algorithm-family
//! extensions (1.5D replication, 2D SUMMA, one-sided slicing, and
//! cost-model auto-selection).
//!
//! Every algorithm implements the [`SpmmAlgorithm`] trait: a staged,
//! immutable per-run object whose [`SpmmAlgorithm::execute`] body runs on
//! every simulated rank. The runner resolves an [`Algorithm`] value into a
//! staged object via [`stage`]; [`Algorithm::Auto`] is resolved to a
//! concrete family member first, by the calibrated cost model's closed-form
//! predictions (see [`auto`]).

pub(crate) mod auto;
pub(crate) mod collective;
pub(crate) mod replicated;
pub(crate) mod slicing;
pub(crate) mod summa;
pub(crate) mod twoface;

use crate::config::TwoFaceConfig;
use crate::error::RankError;
use crate::runner::{ExecOpts, Problem};
use twoface_net::RankCtx;

/// One of the distributed SpMM algorithms the repository evaluates: the
/// paper's Table-4 lineup plus the algorithm-family extensions.
///
/// All use 1D row partitioning of `A` and `C`; they differ in how the dense
/// input `B` reaches the nonzeros that need it (and, for the partial-`C`
/// family, in where the products are computed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Dense shifting with replication factor `c` (Bharadwaj et al.):
    /// `MPI_Allgather`-style replication of `c` blocks, then `p/c`
    /// compute-and-`MPI_Sendrecv` shift steps.
    DenseShifting {
        /// The replication factor `c` (the paper runs 1, 2, 4, and 8).
        replication: usize,
    },
    /// Full replication of `B` via `MPI_Allgather` before computing.
    Allgather,
    /// Whole-block one-sided prefetch via `MPI_Get` of every needed block.
    AsyncCoarse,
    /// Everything fine-grained: every remote-input stripe is asynchronous
    /// (`MPI_Rget` of exactly the needed rows).
    AsyncFine,
    /// The paper's contribution: collective multicasts for synchronous
    /// stripes plus fine-grained one-sided gets for asynchronous stripes,
    /// overlapped.
    TwoFace,
    /// 1.5D dense replication over a `c`-deep process grid (Bharadwaj et
    /// al.'s communication-avoiding family): ranks form teams of `c`, each
    /// team layer broadcast-replicates `1/c` of the `B` blocks across its
    /// layer set, computes partial `C` blocks for its whole team, and the
    /// team reduces the partials pairwise.
    OneFiveD {
        /// The team depth `c` (`1 ≤ c ≤ p`; `c = 1` degenerates to
        /// broadcast-everything, `c = p` to owner-of-`B` computes).
        replication: usize,
    },
    /// Stationary-`C` 2D SUMMA over a `p_r × p_c` logical grid
    /// ([`Grid2d::square_ish`]): `B` blocks multicast down grid columns in
    /// band rounds, partial `C` blocks reduce across grid rows.
    ///
    /// [`Grid2d::square_ish`]: twoface_net::Grid2d::square_ish
    Summa,
    /// One-sided slicing: every rank `MPI_Rget`s exactly the `B` row slices
    /// its nonzeros touch, block by block, fully on the asynchronous lane —
    /// no collectives after window creation.
    Slicing,
    /// Cost-model auto-selection: the runner computes [`SpmmStats`] for the
    /// problem, evaluates every family member's closed-form prediction
    /// under the effective cost model, and runs the feasible argmin (see
    /// [`resolve_auto`]).
    ///
    /// [`SpmmStats`]: twoface_net::SpmmStats
    /// [`resolve_auto`]: crate::resolve_auto
    Auto,
}

impl Algorithm {
    /// The lineup of Figures 7–9 in their legend order, extended with the
    /// algorithm-family members (1.5D, SUMMA, slicing) ahead of Two-Face.
    pub const FIGURE7_LINEUP: [Algorithm; 10] = [
        Algorithm::Allgather,
        Algorithm::AsyncCoarse,
        Algorithm::AsyncFine,
        Algorithm::DenseShifting { replication: 2 },
        Algorithm::DenseShifting { replication: 4 },
        Algorithm::DenseShifting { replication: 8 },
        Algorithm::OneFiveD { replication: 4 },
        Algorithm::Summa,
        Algorithm::Slicing,
        Algorithm::TwoFace,
    ];

    /// One representative of each of the eight concrete algorithm shapes —
    /// the differential-test family. Replicated members appear once, at a
    /// factor that divides none of the usual test node counts evenly, so
    /// the wrap-around paths stay covered.
    pub const FAMILY: [Algorithm; 8] = [
        Algorithm::Allgather,
        Algorithm::AsyncCoarse,
        Algorithm::AsyncFine,
        Algorithm::DenseShifting { replication: 2 },
        Algorithm::OneFiveD { replication: 2 },
        Algorithm::Summa,
        Algorithm::Slicing,
        Algorithm::TwoFace,
    ];

    /// Display name matching the paper's figures ("DS2", "Two-Face", ...).
    pub fn name(self) -> String {
        match self {
            Algorithm::DenseShifting { replication } => format!("DS{replication}"),
            Algorithm::Allgather => "Allgather".to_string(),
            Algorithm::AsyncCoarse => "Async Coarse".to_string(),
            Algorithm::AsyncFine => "Async Fine".to_string(),
            Algorithm::TwoFace => "Two-Face".to_string(),
            Algorithm::OneFiveD { replication } => format!("1.5D-c{replication}"),
            Algorithm::Summa => "SUMMA".to_string(),
            Algorithm::Slicing => "Slicing".to_string(),
            Algorithm::Auto => "Auto".to_string(),
        }
    }

    /// The MPI transfer operations the real implementation uses (Table 4).
    pub fn mpi_operations(self) -> &'static str {
        match self {
            Algorithm::DenseShifting { .. } => "MPI_Allgather, MPI_Sendrecv",
            Algorithm::Allgather => "MPI_Allgather",
            Algorithm::AsyncCoarse => "MPI_Get",
            Algorithm::AsyncFine => "MPI_Rget",
            Algorithm::TwoFace => "MPI_Rget, MPI_Ibcast",
            Algorithm::OneFiveD { .. } => "MPI_Bcast, MPI_Reduce",
            Algorithm::Summa => "MPI_Bcast, MPI_Reduce",
            Algorithm::Slicing => "MPI_Rget",
            Algorithm::Auto => "model-selected",
        }
    }

    /// Whether this algorithm consumes a Two-Face [`PartitionPlan`]
    /// (Two-Face itself and the all-async Async Fine variant).
    ///
    /// [`Algorithm::Auto`] reports `false`: the runner resolves it to a
    /// concrete algorithm *before* consulting this.
    ///
    /// [`PartitionPlan`]: twoface_partition::PartitionPlan
    pub fn uses_plan(self) -> bool {
        matches!(self, Algorithm::TwoFace | Algorithm::AsyncFine)
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// A staged, per-run algorithm instance: all `B`-independent preprocessing
/// done, ready to execute on every rank and to report its memory footprint.
///
/// Staged objects are immutable and `Sync` — `execute` runs concurrently on
/// one thread per simulated rank, sharing the staged data read-only.
pub(crate) trait SpmmAlgorithm: Sync {
    /// Estimated extra peak bytes on `rank` beyond its base operands (its
    /// `A` partition and own `B`/`C` blocks) — replicated blocks, fetch
    /// buffers, partial-`C` accumulators.
    fn memory_extra(&self, rank: usize) -> usize;

    /// The per-rank body. Returns the rank's flat `row_block × K` slab of
    /// `C`, or the first unrecoverable fault.
    fn execute(&self, ctx: &mut RankCtx) -> Result<Vec<f64>, RankError>;
}

/// Builds the staged object for a *concrete* algorithm (the runner resolves
/// [`Algorithm::Auto`] first). Plan-using algorithms arrive staged from the
/// runner, which owns plan resolution and reuse.
///
/// # Panics
///
/// Panics if `algorithm` is [`Algorithm::Auto`] (unresolved) or a plan-using
/// algorithm arrives unstaged — both runner bugs, not user errors.
pub(crate) fn stage<'a>(
    algorithm: Algorithm,
    problem: &'a Problem,
    config: &'a TwoFaceConfig,
    exec: ExecOpts,
    planned: Option<twoface::PlannedAlgo<'a>>,
) -> Box<dyn SpmmAlgorithm + 'a> {
    use collective::{AllgatherAlgo, AsyncCoarseAlgo, BaselineData, DenseShiftingAlgo};
    match algorithm {
        Algorithm::Allgather => {
            Box::new(AllgatherAlgo { data: BaselineData::build(problem, false), problem, exec })
        }
        Algorithm::AsyncCoarse => {
            Box::new(AsyncCoarseAlgo { data: BaselineData::build(problem, false), problem, exec })
        }
        Algorithm::DenseShifting { replication } => Box::new(DenseShiftingAlgo {
            data: BaselineData::build(problem, true),
            problem,
            exec,
            replication,
        }),
        Algorithm::OneFiveD { replication } => Box::new(replicated::OneFiveDAlgo {
            data: BaselineData::build(problem, true),
            problem,
            exec,
            replication,
        }),
        Algorithm::Summa => {
            Box::new(summa::SummaAlgo::stage(BaselineData::build(problem, true), problem, exec))
        }
        Algorithm::Slicing => Box::new(slicing::SlicingAlgo {
            data: BaselineData::build(problem, true),
            problem,
            exec,
            config,
        }),
        Algorithm::TwoFace | Algorithm::AsyncFine => {
            Box::new(planned.expect("runner stages plan-using algorithms"))
        }
        Algorithm::Auto => unreachable!("Auto is resolved before staging"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_figures() {
        assert_eq!(Algorithm::DenseShifting { replication: 4 }.name(), "DS4");
        assert_eq!(Algorithm::TwoFace.name(), "Two-Face");
        assert_eq!(Algorithm::AsyncFine.to_string(), "Async Fine");
        assert_eq!(Algorithm::OneFiveD { replication: 4 }.name(), "1.5D-c4");
        assert_eq!(Algorithm::Summa.name(), "SUMMA");
        assert_eq!(Algorithm::Slicing.name(), "Slicing");
        assert_eq!(Algorithm::Auto.name(), "Auto");
    }

    #[test]
    fn table4_operations() {
        assert_eq!(Algorithm::TwoFace.mpi_operations(), "MPI_Rget, MPI_Ibcast");
        assert_eq!(Algorithm::Allgather.mpi_operations(), "MPI_Allgather");
        assert_eq!(Algorithm::Summa.mpi_operations(), "MPI_Bcast, MPI_Reduce");
        assert_eq!(Algorithm::Slicing.mpi_operations(), "MPI_Rget");
    }

    #[test]
    fn plan_users() {
        assert!(Algorithm::TwoFace.uses_plan());
        assert!(Algorithm::AsyncFine.uses_plan());
        assert!(!Algorithm::Allgather.uses_plan());
        assert!(!Algorithm::DenseShifting { replication: 2 }.uses_plan());
        assert!(!Algorithm::OneFiveD { replication: 2 }.uses_plan());
        assert!(!Algorithm::Summa.uses_plan());
        assert!(!Algorithm::Slicing.uses_plan());
        assert!(!Algorithm::Auto.uses_plan(), "Auto is resolved before plans are consulted");
    }

    #[test]
    fn lineup_is_unique() {
        let names: std::collections::HashSet<String> =
            Algorithm::FIGURE7_LINEUP.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn family_covers_every_shape_once() {
        let names: std::collections::HashSet<String> =
            Algorithm::FAMILY.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), Algorithm::FAMILY.len());
        assert!(!Algorithm::FAMILY.contains(&Algorithm::Auto), "Auto is a selector, not a member");
    }
}
