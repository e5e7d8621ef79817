//! The end-to-end preprocessing product: a [`PartitionPlan`].
//!
//! A plan records, for every node, how each of its sparse stripes will be
//! processed, plus the replicated multicast metadata ("for each dense stripe
//! of `B` ... a list of nodes that are destinations of the collective
//! transfer of that stripe", §5.1).

use crate::{
    classify_node_fanout_aware, enforce_memory_cap, profile_all_nodes, ModelCoefficients,
    NodeClassification, NodeProfile, OneDimLayout, StripeClass,
};
use twoface_matrix::{CooMatrix, Fingerprint};

/// Which stripe classifier a plan is built with.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ClassifierKind {
    /// The paper's §4.2 greedy model: every synchronous stripe costs the
    /// same regardless of how many nodes the multicast reaches.
    #[default]
    Greedy,
    /// The fan-out-aware extension the paper leaves as future work: the
    /// synchronous cost of a stripe is inflated by `1 + (penalty · d)²`
    /// where `d` is the stripe's candidate destination count.
    FanoutAware {
        /// The per-destination penalty coefficient; use the cost model's
        /// `multicast_fanout` to mirror the simulated machine.
        penalty: f64,
    },
}

/// Options controlling plan construction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanOptions {
    /// Per-node byte budget for buffered synchronous dense stripes. When
    /// the classifier's choice would exceed it, stripes are flipped to async
    /// (§6.3). `None` disables the cap.
    pub sync_buffer_budget: Option<usize>,
    /// The classifier to run (the paper's greedy model by default).
    pub classifier: ClassifierKind,
}

/// A complete stripe classification for one matrix on one layout.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionPlan {
    layout: OneDimLayout,
    k: usize,
    profiles: Vec<NodeProfile>,
    classifications: Vec<NodeClassification>,
    /// `destinations[s]` = sorted ranks (never including the owner) that
    /// receive dense stripe `s` via multicast.
    destinations: Vec<Vec<usize>>,
    memory_flips: usize,
}

impl PartitionPlan {
    /// Builds a plan: profiles every node, runs the §4.2 classifier, applies
    /// the memory cap, and derives the multicast metadata.
    pub fn build(
        a: &CooMatrix,
        layout: OneDimLayout,
        coeffs: &ModelCoefficients,
        k: usize,
        options: PlanOptions,
    ) -> PartitionPlan {
        let profiles = profile_all_nodes(a, &layout);
        Self::build_from_profiles(profiles, layout, coeffs, k, options)
    }

    /// Builds a plan from already-computed per-node profiles (one per rank,
    /// in rank order). This is the out-of-core entry point: the streamed
    /// runner profiles each rank from its spilled shard
    /// ([`NodeProfile::build_from_rows`](crate::NodeProfile::build_from_rows))
    /// without ever holding the global matrix, then classifies here exactly
    /// as [`PartitionPlan::build`] would.
    ///
    /// # Panics
    ///
    /// Panics if `profiles.len() != layout.nodes()` or a profile's rank does
    /// not match its position.
    pub fn build_from_profiles(
        profiles: Vec<NodeProfile>,
        layout: OneDimLayout,
        coeffs: &ModelCoefficients,
        k: usize,
        options: PlanOptions,
    ) -> PartitionPlan {
        assert_eq!(profiles.len(), layout.nodes(), "one profile per rank");
        for (i, p) in profiles.iter().enumerate() {
            assert_eq!(p.rank, i, "profiles must be in rank order");
        }
        // Candidate destination counts per stripe: nodes other than the
        // owner that hold at least one nonzero in it. Only computed when the
        // fan-out-aware classifier asks for it.
        let candidate_dests: Option<Vec<usize>> = match options.classifier {
            ClassifierKind::Greedy => None,
            ClassifierKind::FanoutAware { .. } => {
                let mut counts = vec![0usize; layout.num_stripes()];
                for profile in &profiles {
                    for s in profile.remote_stripes(&layout) {
                        counts[s.stripe] += 1;
                    }
                }
                Some(counts)
            }
        };
        let fanout = match (&candidate_dests, options.classifier) {
            (Some(counts), ClassifierKind::FanoutAware { penalty }) => {
                Some((counts.as_slice(), penalty))
            }
            _ => None,
        };
        let mut memory_flips = 0;
        let classifications: Vec<NodeClassification> = profiles
            .iter()
            .map(|profile| {
                let mut c = classify_node_fanout_aware(profile, &layout, coeffs, k, fanout);
                if let Some(budget) = options.sync_buffer_budget {
                    memory_flips += enforce_memory_cap(&mut c, profile, &layout, coeffs, k, budget);
                }
                c
            })
            .collect();
        let mut destinations = vec![Vec::new(); layout.num_stripes()];
        for c in &classifications {
            for &(stripe, class) in &c.classes {
                if class == StripeClass::Sync {
                    destinations[stripe].push(c.rank);
                }
            }
        }
        // classifications iterate in rank order, so each list is sorted.
        PartitionPlan { layout, k, profiles, classifications, destinations, memory_flips }
    }

    /// Builds a plan that forces every remote-input stripe to `class`
    /// (local-input stripes stay local-input).
    ///
    /// `StripeClass::Async` yields the *Async Fine* baseline's view of the
    /// matrix; `StripeClass::Sync` is used by the calibration profiles of
    /// §6.2.
    ///
    /// # Panics
    ///
    /// Panics if `class` is [`StripeClass::LocalInput`].
    pub fn build_uniform(
        a: &CooMatrix,
        layout: OneDimLayout,
        k: usize,
        class: StripeClass,
    ) -> PartitionPlan {
        assert_ne!(class, StripeClass::LocalInput, "remote stripes cannot be local-input");
        let profiles = profile_all_nodes(a, &layout);
        let classifications: Vec<NodeClassification> = profiles
            .iter()
            .map(|profile| NodeClassification {
                rank: profile.rank,
                classes: profile
                    .stripes
                    .iter()
                    .map(|s| {
                        let c = if layout.stripe_owner(s.stripe) == profile.rank {
                            StripeClass::LocalInput
                        } else {
                            class
                        };
                        (s.stripe, c)
                    })
                    .collect(),
            })
            .collect();
        let mut destinations = vec![Vec::new(); layout.num_stripes()];
        for c in &classifications {
            for &(stripe, cl) in &c.classes {
                if cl == StripeClass::Sync {
                    destinations[stripe].push(c.rank);
                }
            }
        }
        PartitionPlan { layout, k, profiles, classifications, destinations, memory_flips: 0 }
    }

    /// The layout the plan was built for.
    pub fn layout(&self) -> &OneDimLayout {
        &self.layout
    }

    /// The dense-matrix column count (`K`) the plan was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The per-node stripe profiles computed during preprocessing.
    pub fn profile(&self, rank: usize) -> &NodeProfile {
        &self.profiles[rank]
    }

    /// The class of `(rank, stripe)`, or `None` if the stripe holds no
    /// nonzeros on that node.
    pub fn class_of(&self, rank: usize, stripe: usize) -> Option<StripeClass> {
        self.classifications[rank].class_of(stripe)
    }

    /// The classification of one node.
    pub fn classification(&self, rank: usize) -> &NodeClassification {
        &self.classifications[rank]
    }

    /// The multicast destination ranks of dense stripe `s` (sorted, never
    /// including the owner). Empty when no node needs the stripe
    /// synchronously — then the stripe "will not be communicated at all"
    /// (§4.1).
    pub fn multicast_destinations(&self, stripe: usize) -> &[usize] {
        &self.destinations[stripe]
    }

    /// Number of stripes flipped to async by the memory cap across all
    /// nodes.
    pub fn memory_flips(&self) -> usize {
        self.memory_flips
    }

    /// Stable 64-bit fingerprint of everything about the plan that affects
    /// execution: the layout shape, `K`, every per-node stripe
    /// classification, and the multicast destination sets.
    pub fn fingerprint(&self) -> u64 {
        let mut f = Fingerprint::new();
        f.mix_bytes(b"plan")
            .mix_usize(self.layout.rows())
            .mix_usize(self.layout.cols())
            .mix_usize(self.layout.nodes())
            .mix_usize(self.layout.stripe_width())
            .mix_usize(self.k)
            .mix_usize(self.memory_flips);
        for classification in &self.classifications {
            f.mix_usize(classification.classes.len());
            for &(stripe, class) in &classification.classes {
                let tag = match class {
                    StripeClass::LocalInput => 0u64,
                    StripeClass::Sync => 1,
                    StripeClass::Async => 2,
                };
                f.mix_usize(stripe).mix_u64(tag);
            }
        }
        for dests in &self.destinations {
            f.mix_usize(dests.len());
            for &d in dests {
                f.mix_usize(d);
            }
        }
        f.finish()
    }

    /// Approximate heap footprint of the plan in bytes (profiles,
    /// classifications, and destination sets). Used by the serving layer's
    /// plan cache to enforce its byte budget; exact allocator overhead is
    /// deliberately ignored.
    pub fn approx_bytes(&self) -> usize {
        let word = std::mem::size_of::<usize>();
        let mut bytes = std::mem::size_of::<PartitionPlan>();
        for profile in &self.profiles {
            bytes += profile.stripes.len() * 3 * word;
        }
        for classification in &self.classifications {
            bytes += classification.classes.len() * 2 * word;
        }
        for dests in &self.destinations {
            bytes += word + dests.len() * word;
        }
        bytes
    }

    /// Per-class stripe counts summed over all nodes:
    /// `(local_input, sync, async)`.
    pub fn class_totals(&self) -> (usize, usize, usize) {
        let mut totals = (0, 0, 0);
        for c in &self.classifications {
            totals.0 += c.count(StripeClass::LocalInput);
            totals.1 += c.count(StripeClass::Sync);
            totals.2 += c.count(StripeClass::Async);
        }
        totals
    }

    /// Per-class *nonzero* counts summed over all nodes:
    /// `(local_input, sync, async)`.
    pub fn nnz_totals(&self) -> (usize, usize, usize) {
        let mut totals = (0usize, 0usize, 0usize);
        for (profile, c) in self.profiles.iter().zip(&self.classifications) {
            for s in &profile.stripes {
                match c.class_of(s.stripe).expect("profiled stripes are classified") {
                    StripeClass::LocalInput => totals.0 += s.nnz,
                    StripeClass::Sync => totals.1 += s.nnz,
                    StripeClass::Async => totals.2 += s.nnz,
                }
            }
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoface_matrix::gen::{webcrawl, WebcrawlConfig};

    fn small_plan(coeffs: &ModelCoefficients) -> (CooMatrix, PartitionPlan) {
        let a =
            webcrawl(&WebcrawlConfig { n: 256, hosts: 16, per_row: 6, ..Default::default() }, 42);
        let layout = OneDimLayout::new(256, 256, 4, 16);
        let plan = PartitionPlan::build(&a, layout, coeffs, 8, PlanOptions::default());
        (a, plan)
    }

    #[test]
    fn every_nonzero_stripe_is_classified() {
        let (a, plan) = small_plan(&ModelCoefficients::table3());
        let layout = plan.layout();
        for (r, c, _) in a.iter() {
            let rank = (0..layout.nodes())
                .find(|&n| layout.row_range(n).contains(&r))
                .expect("row is owned");
            let stripe = layout.stripe_of_col(c);
            assert!(plan.class_of(rank, stripe).is_some(), "({rank}, {stripe}) unclassified");
        }
    }

    #[test]
    fn local_stripes_are_local_input() {
        let (_, plan) = small_plan(&ModelCoefficients::table3());
        let layout = plan.layout().clone();
        for rank in 0..layout.nodes() {
            for s in layout.stripes_of_owner(rank) {
                if let Some(class) = plan.class_of(rank, s) {
                    assert_eq!(class, StripeClass::LocalInput);
                }
            }
        }
    }

    #[test]
    fn destinations_match_sync_classes_exactly() {
        let (_, plan) = small_plan(&ModelCoefficients::table3());
        let layout = plan.layout().clone();
        for s in 0..layout.num_stripes() {
            let dests = plan.multicast_destinations(s);
            assert!(dests.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            for rank in 0..layout.nodes() {
                let is_dest = dests.contains(&rank);
                let is_sync = plan.class_of(rank, s) == Some(StripeClass::Sync);
                assert_eq!(is_dest, is_sync, "stripe {s} rank {rank}");
                if is_dest {
                    assert_ne!(rank, layout.stripe_owner(s), "owner never a destination");
                }
            }
        }
    }

    #[test]
    fn uniform_async_plan_has_no_sync_stripes() {
        let a =
            webcrawl(&WebcrawlConfig { n: 256, hosts: 16, per_row: 6, ..Default::default() }, 42);
        let layout = OneDimLayout::new(256, 256, 4, 16);
        let plan = PartitionPlan::build_uniform(&a, layout, 8, StripeClass::Async);
        let (local, sync, async_) = plan.class_totals();
        assert_eq!(sync, 0);
        assert!(local > 0 && async_ > 0);
        for s in 0..plan.layout().num_stripes() {
            assert!(plan.multicast_destinations(s).is_empty());
        }
    }

    #[test]
    fn uniform_sync_plan_has_no_async_stripes() {
        let a =
            webcrawl(&WebcrawlConfig { n: 256, hosts: 16, per_row: 6, ..Default::default() }, 42);
        let layout = OneDimLayout::new(256, 256, 4, 16);
        let plan = PartitionPlan::build_uniform(&a, layout, 8, StripeClass::Sync);
        let (_, sync, async_) = plan.class_totals();
        assert_eq!(async_, 0);
        assert!(sync > 0);
    }

    #[test]
    fn nnz_totals_cover_matrix() {
        let (a, plan) = small_plan(&ModelCoefficients::table3());
        let (l, s, y) = plan.nnz_totals();
        assert_eq!(l + s + y, a.nnz());
    }

    #[test]
    fn build_from_profiles_matches_build() {
        use crate::{profile_all_nodes, NodeProfile};
        let a =
            webcrawl(&WebcrawlConfig { n: 256, hosts: 16, per_row: 6, ..Default::default() }, 42);
        let layout = OneDimLayout::new(256, 256, 4, 16);
        let coeffs = ModelCoefficients::table3();
        let resident = PartitionPlan::build(&a, layout.clone(), &coeffs, 8, PlanOptions::default());
        // Profiles built per-rank from row shards, as the streamed path does.
        let profiles: Vec<NodeProfile> = (0..layout.nodes())
            .map(|rank| {
                let rows = layout.row_range(rank);
                let shard: Vec<_> =
                    a.triplets().iter().filter(|t| rows.contains(&t.row)).copied().collect();
                NodeProfile::build_from_rows(&shard, &layout, rank)
            })
            .collect();
        assert_eq!(profiles, profile_all_nodes(&a, &layout));
        let streamed = PartitionPlan::build_from_profiles(
            profiles,
            layout,
            &coeffs,
            8,
            PlanOptions::default(),
        );
        assert_eq!(streamed, resident);
        assert_eq!(streamed.fingerprint(), resident.fingerprint());
    }

    #[test]
    fn memory_cap_produces_flips_and_more_async() {
        let coeffs = ModelCoefficients {
            // All-sync-leaning coefficients.
            beta_sync: 1e-12,
            alpha_sync: 0.0,
            beta_async: 1e3,
            alpha_async: 1e3,
            gamma_async: 1e3,
            kappa_async: 1e3,
        };
        let a = webcrawl(
            &WebcrawlConfig {
                n: 256,
                hosts: 16,
                per_row: 6,
                intra_host: 0.2,
                ..Default::default()
            },
            42,
        );
        let layout = OneDimLayout::new(256, 256, 4, 16);
        let uncapped = PartitionPlan::build(&a, layout.clone(), &coeffs, 8, PlanOptions::default());
        assert_eq!(uncapped.memory_flips(), 0);
        let (_, sync_before, async_before) = uncapped.class_totals();
        assert!(sync_before > 0);
        let capped = PartitionPlan::build(
            &a,
            layout,
            &coeffs,
            8,
            PlanOptions { sync_buffer_budget: Some(16 * 8 * 8), ..Default::default() },
        );
        assert!(capped.memory_flips() > 0);
        let (_, sync_after, async_after) = capped.class_totals();
        assert!(sync_after < sync_before);
        assert!(async_after > async_before);
    }
}
