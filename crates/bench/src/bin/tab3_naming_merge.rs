//! Table 3: after a partition heals, the reconciled naming database holds
//! **both** partitions' concurrent mappings for each LWG, side by side.
//!
//! Scenario (paper Figure 3): two LWGs spanning both sides of a partition;
//! while split, each side installs its own concurrent view of each LWG
//! (backed by its side's concurrent HWG views) and registers it with its
//! reachable name server. On heal, the servers' anti-entropy merge keeps
//! all of them — conflicts are surfaced, never silently dropped.

use plwg_bench::render_db;
use plwg_core::{LwgConfig, LwgId};
use plwg_vsync::VsyncStack;

type LwgNode = plwg_core::LwgNode<VsyncStack>;
use plwg_naming::{NameServer, NamingConfig};
use plwg_sim::{NodeId, SimDuration, SimTime, World, WorldConfig};

const LWG_A: LwgId = LwgId(1);
const LWG_B: LwgId = LwgId(2);

fn at(s: u64) -> SimTime {
    SimTime::from_micros(s * 1_000_000)
}

fn main() {
    let mut w = World::new(WorldConfig::default());
    let s0 = w.add_node(Box::new(NameServer::new(
        NodeId(0),
        vec![NodeId(1)],
        NamingConfig::default(),
    )));
    let s1 = w.add_node(Box::new(NameServer::new(
        NodeId(1),
        vec![NodeId(0)],
        NamingConfig::default(),
    )));
    let servers = vec![s0, s1];
    let apps: Vec<NodeId> = (0..8)
        .map(|i| {
            w.add_node(Box::new(
                LwgNode::builder(NodeId(2 + i))
                    .servers(servers.clone())
                    .config(LwgConfig::default())
                    .build_node()
                    .expect("valid LWG config"),
            ))
        })
        .collect();

    // LWG_a = {p0,p1,p4,p5}, LWG_b = {p2,p3,p6,p7}: each spans the future
    // partition boundary, and the two groups are disjoint so they ride
    // different HWGs (hwg_1, hwg_2 of the paper's figure).
    let members_a = [apps[0], apps[1], apps[4], apps[5]];
    let members_b = [apps[2], apps[3], apps[6], apps[7]];
    for (i, &m) in members_a.iter().enumerate() {
        w.invoke_at(
            at(0) + SimDuration::from_millis(400 * i as u64),
            m,
            |a: &mut LwgNode, ctx| a.service().join(ctx, LWG_A),
        );
    }
    for (i, &m) in members_b.iter().enumerate() {
        w.invoke_at(
            at(1) + SimDuration::from_millis(400 * i as u64),
            m,
            |a: &mut LwgNode, ctx| a.service().join(ctx, LWG_B),
        );
    }
    w.run_until(at(15));
    println!("== before the partition (one mapping per LWG) ==");
    w.inspect(s0, |s: &NameServer| print!("{}", render_db(s.db())));

    // Partition p = {s0, p0..p3} vs p' = {s1, p4..p7}.
    let mut side_p = vec![s0];
    side_p.extend(&apps[..4]);
    let mut side_q = vec![s1];
    side_q.extend(&apps[4..]);
    w.split_at(at(16), vec![side_p, side_q]);
    w.run_until(at(35));

    println!("\n== partition p (server 0's replica) ==");
    w.inspect(s0, |s: &NameServer| print!("{}", render_db(s.db())));
    println!("\n== partition p' (server 1's replica) ==");
    w.inspect(s1, |s: &NameServer| print!("{}", render_db(s.db())));

    // The Table 3 moment: what reconciliation produces when the two
    // replicas meet. (In the live system this state exists only briefly —
    // the MULTIPLE-MAPPINGS callbacks repair it within a second — so we
    // apply the reconciliation algorithm to the two partition replicas
    // directly, exactly as the healing servers do.)
    let db_p = w.inspect(s0, |s: &NameServer| s.db().clone());
    let db_q = w.inspect(s1, |s: &NameServer| s.db().clone());
    let mut merged = db_p.clone();
    let changed = merged.merge(&db_q);
    println!("\n== merged naming service (paper Table 3) ==");
    print!("{}", render_db(&merged));
    println!("  entries changed by the merge: {changed:?}");
    println!(
        "  inconsistent groups detected: {:?}",
        merged.inconsistent()
    );
    assert!(
        !merged.inconsistent().is_empty(),
        "Table 3 requires a conflict"
    );

    w.heal_at(at(35));

    // And the eventual collapse (Table 4's final stage).
    w.run_until(at(80));
    println!("\n== after reconciliation completes (paper Table 4, stage 4) ==");
    w.inspect(s0, |s: &NameServer| {
        print!("{}", render_db(s.db()));
        assert!(s.db().inconsistent().is_empty(), "must converge");
    });
}
