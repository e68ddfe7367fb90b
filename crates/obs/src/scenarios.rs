//! Deterministic scenario worlds to build timelines from.
//!
//! Each scenario constructs a [`World`] with tracing enabled, drives the
//! full PLWG stack (name servers + `LwgService` over the
//! virtually-synchronous substrate) through a scripted run, and returns
//! the world so callers can inspect `world.trace()` — the `timeline` bin
//! renders [`crate::Timeline::build`] over it.

use plwg_core::{LwgConfig, LwgNode};
use plwg_naming::{LwgId, NameServer, NamingConfig};
use plwg_sim::{Frame, NodeId, SimDuration, SimTime, World, WorldConfig};
use plwg_vsync::VsyncStack;

/// The production node type the scenarios simulate.
pub type Node = LwgNode<VsyncStack>;

fn at(s: u64) -> SimTime {
    SimTime::from_micros(s * 1_000_000)
}

fn traced_world() -> World {
    World::new(WorldConfig {
        trace: true,
        ..WorldConfig::default()
    })
}

/// Two members join one group and exchange a multicast — the smallest
/// end-to-end run (mirrors `examples/quickstart.rs`).
pub fn quickstart() -> World {
    let mut world = traced_world();
    let ns = world.add_node(Box::new(NameServer::new(
        NodeId(0),
        vec![],
        NamingConfig::default(),
    )));
    let a = world.add_node(Box::new(
        Node::builder(NodeId(1))
            .servers(vec![ns])
            .config(LwgConfig::default())
            .build_node()
            .expect("valid LWG config"),
    ));
    let b = world.add_node(Box::new(
        Node::builder(NodeId(2))
            .servers(vec![ns])
            .config(LwgConfig::default())
            .build_node()
            .expect("valid LWG config"),
    ));
    let g = LwgId(7);
    world.invoke(a, move |n: &mut Node, ctx| n.service().join(ctx, g));
    world.invoke_at(at(2), b, move |n: &mut Node, ctx| n.service().join(ctx, g));
    world.run_until(at(8));
    world.invoke(a, move |n: &mut Node, ctx| {
        n.service().send(ctx, g, Frame::from_u64(42));
    });
    world.run_until(at(10));
    world
}

/// The paper's headline scenario, on the variant that exercises the
/// **whole** four-step §6 procedure: the network is split *before* the
/// group exists, each side founds the group on its own freshly allocated
/// HWG, and the t=20s heal must run naming reconciliation →
/// MULTIPLE-MAPPINGS → the highest-gid mapping **switch** → the
/// MERGE-VIEWS single flush, back to one merged view.
pub fn heal() -> World {
    let mut world = World::new(WorldConfig {
        seed: 31,
        trace: true,
        ..WorldConfig::default()
    });
    let s0 = world.add_node(Box::new(NameServer::new(
        NodeId(0),
        vec![NodeId(1)],
        NamingConfig::default(),
    )));
    let s1 = world.add_node(Box::new(NameServer::new(
        NodeId(1),
        vec![NodeId(0)],
        NamingConfig::default(),
    )));
    let nodes: Vec<NodeId> = (2..6)
        .map(|i| {
            world.add_node(Box::new(
                Node::builder(NodeId(i))
                    .servers(vec![s0, s1])
                    .config(LwgConfig::default())
                    .build_node()
                    .expect("valid LWG config"),
            ))
        })
        .collect();
    let group = LwgId(9);
    world.split_at(
        at(1),
        vec![vec![s0, nodes[0], nodes[1]], vec![s1, nodes[2], nodes[3]]],
    );
    for (i, &n) in nodes.iter().enumerate() {
        world.invoke_at(
            at(2) + SimDuration::from_millis(400 * (i as u64 % 2)),
            n,
            move |app: &mut Node, ctx| app.service().join(ctx, group),
        );
    }
    world.run_until(at(18));
    // Both sides stay live in their concurrent views.
    for &(n, v) in &[(nodes[0], 100u64), (nodes[2], 200u64)] {
        world.invoke(n, move |app: &mut Node, ctx| {
            app.service().send(ctx, group, Frame::from_u64(v));
        });
    }
    world.heal_at(at(20));
    world.run_until(at(60));
    world
}

/// Membership churn without partitions: staggered joins, one voluntary
/// leave and one crash, exercising LWG flushes and the prune path.
pub fn churn() -> World {
    let mut world = traced_world();
    let ns = world.add_node(Box::new(NameServer::new(
        NodeId(0),
        vec![],
        NamingConfig::default(),
    )));
    let nodes: Vec<NodeId> = (1..5)
        .map(|i| {
            world.add_node(Box::new(
                Node::builder(NodeId(i))
                    .servers(vec![ns])
                    .config(LwgConfig::default())
                    .build_node()
                    .expect("valid LWG config"),
            ))
        })
        .collect();
    let g = LwgId(3);
    for (i, &n) in nodes.iter().enumerate() {
        world.invoke_at(at(i as u64), n, move |app: &mut Node, ctx| {
            app.service().join(ctx, g);
        });
    }
    world.run_until(at(10));
    let leaver = nodes[3];
    world.invoke(leaver, move |app: &mut Node, ctx| {
        app.service().leave(ctx, g)
    });
    world.run_until(at(15));
    world.crash(nodes[2]);
    world.run_until(at(25));
    world
}

/// Runs the scenario named `name` (`quickstart`, `heal` or `churn`).
/// Returns `None` for an unknown name.
pub fn by_name(name: &str) -> Option<World> {
    match name {
        "quickstart" => Some(quickstart()),
        "heal" => Some(heal()),
        "churn" => Some(churn()),
        _ => None,
    }
}

/// The scenario names [`by_name`] accepts.
pub const NAMES: &[&str] = &["quickstart", "heal", "churn"];
