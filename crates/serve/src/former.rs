//! Batch formation for [`SpmmService::drain`]: the drained queue is
//! grouped by `(matrix, algorithm, K)`, and each group is chunked at the
//! [`ServeConfig::max_k_per_batch`] budget by [`requests_per_batch`], the
//! chunk rule the front-end uses too. Callers that form their own batches
//! hand them to [`SpmmService::execute`], which runs them as given.
//!
//! Formation decides *which* requests share an execution, never *what* it
//! computes, so the bit-identity contract ([`SpmmService`] docs) holds for
//! any arrival order.
//!
//! [`ServeConfig::max_k_per_batch`]: crate::ServeConfig::max_k_per_batch
//! [`SpmmService`]: crate::SpmmService
//! [`SpmmService::drain`]: crate::SpmmService::drain
//! [`SpmmService::execute`]: crate::SpmmService::execute

use std::sync::Arc;
use twoface_core::Algorithm;
use twoface_matrix::DenseMatrix;

/// A request with its id, queued or handed to `execute`.
pub(crate) struct Pending {
    pub(crate) id: u64,
    pub(crate) matrix: usize,
    pub(crate) b: Arc<DenseMatrix>,
    pub(crate) algorithm: Algorithm,
}

/// One fused execution: requests sharing `(matrix, algorithm, k_each)`
/// whose combined `K` fits the budget (a single over-wide request still
/// forms a singleton batch).
pub(crate) struct Batch {
    pub(crate) matrix: usize,
    pub(crate) algorithm: Algorithm,
    pub(crate) k_each: usize,
    pub(crate) requests: Vec<Pending>,
}

impl Batch {
    fn key(&self) -> (usize, Algorithm, usize) {
        (self.matrix, self.algorithm, self.k_each)
    }
}

/// Requests of width `k` that one execution fuses under a
/// `max_k_per_batch` column budget. A single request wider than the budget
/// still runs (solo).
pub fn requests_per_batch(max_k_per_batch: usize, k: usize) -> usize {
    (max_k_per_batch / k.max(1)).max(1)
}

/// Forms batches from a drained queue: the whole queue is grouped by
/// `(matrix, algorithm, K)` first (groups in first-arrival order, FIFO
/// within a group), then each group is chunked at the K budget. Compatible
/// requests fuse regardless of how incompatible ones interleave between
/// them, so batch count and composition depend only on the multiset of
/// queued keys — not on arrival order across keys.
pub(crate) fn form_batches(queue: Vec<Pending>, max_k_per_batch: usize) -> Vec<Batch> {
    let mut groups: Vec<Batch> = Vec::new();
    for pending in queue {
        let k = pending.b.cols();
        let key = (pending.matrix, pending.algorithm, k);
        match groups.iter_mut().find(|g| g.key() == key) {
            Some(group) => group.requests.push(pending),
            None => groups.push(Batch {
                matrix: pending.matrix,
                algorithm: pending.algorithm,
                k_each: k,
                requests: vec![pending],
            }),
        }
    }
    let mut batches = Vec::new();
    for group in groups {
        let per_batch = requests_per_batch(max_k_per_batch, group.k_each);
        let Batch { matrix, algorithm, k_each, requests } = group;
        let mut requests = requests.into_iter();
        loop {
            let chunk: Vec<Pending> = requests.by_ref().take(per_batch).collect();
            if chunk.is_empty() {
                break;
            }
            batches.push(Batch { matrix, algorithm, k_each, requests: chunk });
        }
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(id: u64, matrix: usize, k: usize) -> Pending {
        let b = DenseMatrix::from_vec(2, k, vec![0.0; 2 * k]).unwrap();
        Pending { id, matrix, b: Arc::new(b), algorithm: Algorithm::TwoFace }
    }

    fn shape(batches: &[Batch]) -> Vec<(usize, usize, Vec<u64>)> {
        batches
            .iter()
            .map(|b| (b.matrix, b.k_each, b.requests.iter().map(|r| r.id).collect()))
            .collect()
    }

    #[test]
    fn key_grouped_fuses_across_interleavings() {
        // An m0/m1/m0/m1 interleaving must not change how the four m0
        // requests fuse.
        let interleaved = vec![
            pending(0, 0, 4),
            pending(1, 1, 4),
            pending(2, 0, 4),
            pending(3, 1, 4),
            pending(4, 0, 4),
            pending(5, 0, 4),
        ];
        let contiguous = vec![
            pending(0, 0, 4),
            pending(2, 0, 4),
            pending(4, 0, 4),
            pending(5, 0, 4),
            pending(1, 1, 4),
            pending(3, 1, 4),
        ];
        let a = form_batches(interleaved, 16);
        let b = form_batches(contiguous, 16);
        assert_eq!(shape(&a), shape(&b));
        assert_eq!(shape(&a), vec![(0, 4, vec![0, 2, 4, 5]), (1, 4, vec![1, 3])]);

        // Nor does it reorder or re-split a group that fills its budget:
        // groups stay contiguous in first-arrival order.
        let interleaved =
            vec![pending(0, 0, 8), pending(1, 1, 8), pending(2, 0, 8), pending(3, 0, 8)];
        let contiguous =
            vec![pending(0, 0, 8), pending(2, 0, 8), pending(3, 0, 8), pending(1, 1, 8)];
        let a = shape(&form_batches(interleaved, 16));
        assert_eq!(a, shape(&form_batches(contiguous, 16)));
        assert_eq!(a, vec![(0, 8, vec![0, 2]), (0, 8, vec![3]), (1, 8, vec![1])]);
    }

    #[test]
    fn key_grouped_chunks_at_the_budget_in_fifo_order() {
        let queue = (0..5).map(|id| pending(id, 0, 8)).collect();
        let batches = form_batches(queue, 16);
        assert_eq!(shape(&batches), vec![(0, 8, vec![0, 1]), (0, 8, vec![2, 3]), (0, 8, vec![4])]);
    }

    #[test]
    fn over_wide_requests_run_solo() {
        let queue = vec![pending(0, 0, 32), pending(1, 0, 32)];
        let batches = form_batches(queue, 16);
        assert_eq!(shape(&batches), vec![(0, 32, vec![0]), (0, 32, vec![1])]);
    }
}
