//! Regression tests for subgroup collectives on non-trivial 2D rank grids.
//!
//! The cluster's collectives were grown against 1D (all-rank or
//! TwoFace-stripe) groups; the SUMMA/1.5D algorithms drive them with
//! [`Grid2d`] row and column teams instead. These tests pin the properties
//! that family relies on:
//!
//! * multicasts over grid teams (including degenerate 1×p and prime grids)
//!   deliver the root's data to exactly the team;
//! * disjoint teams run their collectives concurrently without tag
//!   interference, and epoch namespacing keeps reused team tags fresh
//!   across runs on one cluster;
//! * a stall inside one subgroup fails *symmetrically*: every rank of the
//!   cluster — inside or outside the stalled team — reports a typed
//!   [`NetError::RankStalled`], and no rank hangs at an unrelated
//!   collective waiting for the dead team.

#![forbid(unsafe_code)]

use twoface_net::{Cluster, CostModel, FaultPlan, Grid2d, NetError, Payload};

/// Each column team multicasts its top row's rank id; every member must see
/// its own team root's data, on square and non-square (2×3, 1×5) grids.
#[test]
fn grid_team_multicasts_deliver_root_data_to_exactly_the_team() {
    for (rows, cols) in [(2, 2), (2, 3), (1, 5), (2, 4)] {
        let p = rows * cols;
        let grid = Grid2d::new(rows, cols);
        let cluster = Cluster::new(p, CostModel::delta());
        let outputs = cluster.run(|ctx| {
            let (_, j) = grid.coords(ctx.rank());
            let team = grid.col_team(j);
            let root = team[0];
            let data = (ctx.rank() == root).then(|| Payload::from(vec![root as f64; 4]));
            // Tag = column index: disjoint teams, distinct tags, same run.
            let got = ctx.multicast(j as u64, root, &team, data)?;
            Ok::<Vec<f64>, NetError>(got.to_vec())
        });
        for out in outputs {
            let (_, j) = grid.coords(out.rank);
            let root = grid.col_team(j)[0];
            assert_eq!(
                out.result.expect("grid multicast succeeds"),
                vec![root as f64; 4],
                "{rows}x{cols} grid, rank {}",
                out.rank
            );
        }
    }
}

/// Row-team and column-team collectives interleave in one run: every rank
/// multicasts along its row team, then its column team, with tags drawn
/// from disjoint sub-ranges. The meet registry must keep all groups apart.
#[test]
fn row_and_column_rounds_interleave_without_interference() {
    let grid = Grid2d::new(2, 3);
    let cluster = Cluster::new(grid.ranks(), CostModel::delta());
    let outputs = cluster.run(|ctx| {
        let (i, j) = grid.coords(ctx.rank());
        let row_team = grid.row_team(i);
        let row_root = row_team[0];
        let row_data = (ctx.rank() == row_root).then(|| Payload::from(vec![100.0 + i as f64]));
        let from_row = ctx.multicast(i as u64, row_root, &row_team, row_data)?;
        let col_team = grid.col_team(j);
        let col_root = col_team[0];
        let col_data = (ctx.rank() == col_root).then(|| Payload::from(vec![200.0 + j as f64]));
        let from_col = ctx.multicast(100 + j as u64, col_root, &col_team, col_data)?;
        Ok::<(f64, f64), NetError>((from_row[0], from_col[0]))
    });
    for out in outputs {
        let (i, j) = grid.coords(out.rank);
        assert_eq!(out.result.unwrap(), (100.0 + i as f64, 200.0 + j as f64));
    }
}

/// The same team tags are reusable run after run on one cluster: the run
/// epoch namespaces them, so a retained meet from run N can never alias
/// run N+1's collectives.
#[test]
fn grid_tags_are_reusable_across_runs_on_one_cluster() {
    let grid = Grid2d::new(2, 2);
    let cluster = Cluster::new(grid.ranks(), CostModel::delta());
    for round in 0..3 {
        let outputs = cluster.run(|ctx| {
            let (_, j) = grid.coords(ctx.rank());
            let team = grid.col_team(j);
            let root = team[0];
            let data = (ctx.rank() == root).then(|| Payload::from(vec![round as f64]));
            Ok::<f64, NetError>(ctx.multicast(j as u64, root, &team, data)?[0])
        });
        for out in outputs {
            assert_eq!(out.result.unwrap(), round as f64, "round {round}");
        }
    }
}

/// A stall confined to one column team fails the whole run symmetrically:
/// the stalled team's members trip the check at their own multicast, and
/// the other ranks — parked at an all-rank barrier the dead team will never
/// reach — are woken by the poisoned meet registry with the same typed
/// error. Nobody hangs, and everyone names the same straggler.
#[test]
fn subgroup_stall_fails_every_rank_with_a_typed_error() {
    let grid = Grid2d::new(2, 3);
    let p = grid.ranks();
    let slow = grid.rank_at(1, 0); // a member of column team 0
    let cluster = Cluster::new(p, CostModel::delta());
    cluster.set_fault_plan(Some(
        FaultPlan::quiescent(11).with_slow_rank(slow, 5.0).with_stall_timeout(1.0),
    ));
    let outputs = cluster.run(|ctx| {
        let (_, j) = grid.coords(ctx.rank());
        let team = grid.col_team(j);
        let root = team[0];
        let data = (ctx.rank() == root).then(|| Payload::from(vec![0.0; 2]));
        ctx.multicast(j as u64, root, &team, data)?;
        // Only reachable by teams without the straggler; the poisoned
        // registry must abort it instead of deadlocking on team 0.
        ctx.barrier()?;
        Ok::<(), NetError>(())
    });
    for out in outputs {
        match out.result {
            Err(NetError::RankStalled { rank, straggler, .. }) => {
                assert_eq!(rank, out.rank);
                assert_eq!(straggler, slow, "every rank blames the stalled straggler");
            }
            other => panic!("rank {} got {other:?}, expected RankStalled", out.rank),
        }
    }

    // The poison must not leak into the next run: with the fault plan
    // removed, the same cluster completes normally.
    cluster.set_fault_plan(None);
    let outputs = cluster.run(|ctx| {
        ctx.barrier()?;
        Ok::<(), NetError>(())
    });
    assert!(outputs.into_iter().all(|o| o.result.is_ok()));
}

/// All-rank collectives keep their pre-existing stall semantics: the spread
/// is identical for every participant, so all ranks fail together at the
/// tripped collective itself.
#[test]
fn all_rank_stall_still_fails_all_ranks_at_the_same_collective() {
    let p = 4;
    let cluster = Cluster::new(p, CostModel::delta());
    cluster.set_fault_plan(Some(
        FaultPlan::quiescent(3).with_slow_rank(2, 9.0).with_stall_timeout(2.0),
    ));
    let outputs = cluster.run(|ctx| {
        ctx.barrier()?;
        Ok::<(), NetError>(())
    });
    for out in outputs {
        assert!(
            matches!(out.result, Err(NetError::RankStalled { straggler: 2, .. })),
            "rank {} did not report the straggler",
            out.rank
        );
    }
}
