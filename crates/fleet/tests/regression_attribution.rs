//! Acceptance for regression attribution (ISSUE 9): seeding a synthetic
//! regression — an inflated LogGP multicast coefficient — must make the
//! baseline check fail, and the attribution printed for the failing report
//! must name the phase class and op kind that actually moved (Sync
//! Comm/multicast) while the one-sided side is reported unchanged.

#![forbid(unsafe_code)]

use std::path::Path;
use twoface_fleet::{attribution, diff};
use twoface_net::{
    Cluster, CostModel, Lane, Observability, OpEvent, Payload, PhaseClass, ProfileSummary,
};

const RANKS: usize = 4;

/// A small deterministic workload mixing collective and one-sided traffic:
/// rank 0 multicasts a 512-element block to everyone, then every rank pulls
/// 128 elements one-sidedly from its neighbour.
fn profiled_run(cost: CostModel) -> ProfileSummary {
    let cluster = Cluster::new(RANKS, cost);
    cluster.set_observability(Observability::comm());
    let outputs = cluster.run(|ctx| {
        let rank = ctx.rank();
        let win = ctx.create_window(vec![rank as f64; 256]).expect("no faults installed");
        let group: Vec<usize> = (0..ctx.ranks()).collect();
        let data = (rank == 0).then(|| Payload::from(vec![1.0f64; 512]));
        ctx.multicast(1, 0, &group, data).expect("no faults installed");
        let peer = (rank + 1) % ctx.ranks();
        ctx.win_get(win, peer, 0..128, Lane::Async, PhaseClass::AsyncComm)
            .expect("no faults installed");
        ctx.join_lanes();
    });
    let events: Vec<Vec<OpEvent>> = outputs.into_iter().map(|o| o.events).collect();
    ProfileSummary::from_events(&events)
}

/// The test-only regression knob: the same machine with its multicast
/// fan-out penalty inflated, slowing collective broadcasts while leaving
/// the one-sided rates untouched.
fn inflated_multicast(base: &CostModel) -> CostModel {
    CostModel { multicast_fanout: base.multicast_fanout * 4.0, ..*base }
}

fn write_pair(root: &Path, rel: &str, text: &str, baseline: &str) {
    let run_path = root.join(rel);
    let base_path = root.join("baselines").join(rel);
    for p in [&run_path, &base_path] {
        std::fs::create_dir_all(p.parent().expect("paths are nested")).unwrap();
    }
    std::fs::write(run_path, text).unwrap();
    std::fs::write(base_path, baseline).unwrap();
}

fn report_json(summary: &ProfileSummary) -> String {
    format!(
        "{{\n  \"schema_version\": 1,\n  \"simulated_seconds\": {:?}\n}}\n",
        summary.total_seconds()
    )
}

#[test]
fn seeded_multicast_regression_fails_check_and_is_attributed() {
    let root =
        std::env::temp_dir().join(format!("twoface-seeded-regression-{}", std::process::id()));
    std::fs::create_dir_all(&root).unwrap();

    let healthy = profiled_run(CostModel::delta_scaled());
    let regressed = profiled_run(inflated_multicast(&CostModel::delta_scaled()));
    assert!(
        regressed.total_seconds() > healthy.total_seconds(),
        "the inflated coefficient must actually slow the run"
    );

    // The tree a fleet run would leave behind: the regressed report and its
    // profile sidecar in results/, the healthy pair blessed in baselines/.
    write_pair(&root, "results/synthetic.json", &report_json(&regressed), &report_json(&healthy));
    write_pair(
        &root,
        "results/synthetic.profile.json",
        &regressed.to_json_pretty(),
        &healthy.to_json_pretty(),
    );

    let check = diff::check_tree(&root);
    assert!(!check.passed(), "the seeded regression must fail the gate");
    assert!(
        check
            .failures()
            .any(|d| d.file == "results/synthetic.json" && d.path.contains("simulated_seconds")),
        "the gated seconds field is out of band: {:?}",
        check.diffs
    );

    // Attribution names the class and op kind that were actually inflated,
    // once per report (the profile sidecar's own failure folds into it).
    let explained = attribution::explain_failures(&root, &check);
    assert_eq!(explained.len(), 1, "one attribution per report: {explained:?}");
    let (file, explanation) = &explained[0];
    assert_eq!(file, "results/synthetic.json");
    let explanation = explanation.as_ref().expect("both profile sides exist");
    assert!(
        explanation.lines[0].starts_with("Sync Comm/multicast"),
        "top-ranked line names the drifted cell: {:?}",
        explanation.lines
    );
    assert!(
        explanation.lines[0].contains("events unchanged"),
        "the event count did not move, only its cost: {:?}",
        explanation.lines[0]
    );
    assert!(
        explanation.lines.iter().any(|l| l.starts_with("unchanged: Async Comm/get")),
        "the one-sided side is explicitly unchanged: {:?}",
        explanation.lines
    );

    // Blessing the regressed tree makes the same check pass again.
    diff::bless_tree(&root).unwrap();
    assert!(diff::check_tree(&root).passed());

    std::fs::remove_dir_all(&root).ok();
}
