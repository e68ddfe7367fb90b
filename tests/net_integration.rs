//! Multi-process integration: the full LWG stack across real OS
//! processes on loopback UDP — group formation, a socket-level
//! partition, and the §6 heal — driven by the `plwg::net::harness`
//! stdio protocol.
//!
//! The child processes are this very test binary, re-executed with
//! `--exact child_entry` and a role in the environment (never a nested
//! `cargo run`, which would deadlock on the build lock). `child_entry`
//! is a no-op under a normal `cargo test` run.

use plwg::net::harness::{self, ChildProc, Controller};
use plwg::net::{NetOptions, NetRuntime};
use plwg::prelude::*;
use std::process::Command;

const GROUP: LwgId = LwgId(3);
const NS: NodeId = NodeId(0);
const APPS: [NodeId; 2] = [NodeId(2), NodeId(4)];

/// Child dispatcher: does nothing unless spawned by the parent test with
/// a role in `PLWG_NET_CHILD`.
#[test]
fn child_entry() {
    let Ok(id) = std::env::var("PLWG_NET_CHILD") else {
        return;
    };
    let id: u32 = id.parse().expect("node id");
    if NodeId(id) == NS {
        run_name_server();
    } else {
        run_app(NodeId(id));
    }
}

fn child_runtime(me: NodeId) -> NetRuntime {
    let mut rt = NetRuntime::bind(me, "127.0.0.1:0", NetOptions::default()).expect("bind");
    rt.enable_trace();
    harness::announce(rt.local_addr().expect("local addr"));
    for (node, addr) in harness::read_book().expect("address book") {
        rt.add_peer(node, addr);
    }
    rt
}

fn run_name_server() {
    let mut rt = child_runtime(NS);
    let mut server = NameServer::new(NS, vec![], NamingConfig::default());
    let mut seen_all = false;
    rt.run_until(&mut server, SimDuration::from_secs(120), |_, rt| {
        seen_all |= rt.peers_up() == APPS.len();
        seen_all && rt.peers_up() == 0
    });
    harness::emit_events(rt.trace_ref().events());
}

fn run_app(me: NodeId) {
    let mut rt = child_runtime(me);
    let mut node: LwgNode = plwg::core::LwgNode::builder(me)
        .servers([NS])
        .config(LwgConfig::default())
        .build_node()
        .expect("valid LWG config");
    rt.run_for(&mut node, SimDuration::from_millis(20));
    node.service().join(&mut rt, GROUP);

    let view_len = |p: &mut dyn Process| -> usize {
        p.as_any_mut()
            .downcast_mut::<LwgNode>()
            .expect("hosts an LwgNode")
            .current_view(GROUP)
            .map_or(0, |v| v.len())
    };

    assert!(
        rt.run_until(&mut node, SimDuration::from_secs(60), |p, _| view_len(p)
            == APPS.len()),
        "{me}: initial view never formed"
    );
    harness::mark("joined");
    assert!(
        rt.run_until(&mut node, SimDuration::from_secs(60), |p, _| view_len(p)
            == 1),
        "{me}: view never shrank to a singleton after the split"
    );
    harness::mark("split");
    assert!(
        rt.run_until(&mut node, SimDuration::from_secs(120), |p, _| view_len(p)
            == APPS.len()),
        "{me}: views never merged after the heal"
    );
    harness::mark("merged");
    rt.run_for(&mut node, SimDuration::from_secs(2));
    rt.shutdown();
    harness::emit_events(rt.trace_ref().events());
}

/// Spawns this test binary as a child hosting `id`.
fn spawn_child(id: NodeId) -> ChildProc {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--exact", "child_entry", "--nocapture", "--test-threads=1"])
        .env("PLWG_NET_CHILD", id.0.to_string());
    ChildProc::spawn(id, &mut cmd).expect("spawn child")
}

/// One name server and two application nodes in three OS processes: the
/// group forms, a drop-filter partition splits the two members into
/// concurrent singleton views, and the heal merges them back — with
/// exactly one MERGE-VIEWS across the whole fleet.
#[test]
fn three_processes_split_and_heal_over_loopback() {
    let mut children = vec![spawn_child(NS), spawn_child(APPS[0]), spawn_child(APPS[1])];
    harness::share_books(&mut children).expect("share books");
    for c in children.iter_mut().skip(1) {
        c.wait_mark("joined").expect("join milestone");
    }

    // Partition {ns, 2} | {4}: node 4 founds a concurrent singleton view.
    let ctl = Controller::new().expect("controller socket");
    ctl.split(&[&children[0], &children[1]], &[&children[2]])
        .expect("install drop filters");
    for c in children.iter_mut().skip(1) {
        c.wait_mark("split").expect("split milestone");
    }

    ctl.heal(&[&children[0], &children[1]], &[&children[2]])
        .expect("lift drop filters");
    for c in children.iter_mut().skip(1) {
        c.wait_mark("merged").expect("merge milestone");
    }

    let mut corpus = Vec::new();
    for c in children.drain(..) {
        let node = c.node;
        let (status, events) = c.finish().expect("child evidence");
        assert!(status.success(), "{node} exited with {status}");
        assert!(!events.is_empty(), "{node} must contribute trace events");
        corpus.extend(events);
    }

    assert_eq!(
        corpus.iter().filter(|e| e.kind == "lwg.merge").count(),
        1,
        "exactly one MERGE-VIEWS for one heal"
    );
    assert!(corpus.iter().any(|e| e.kind == "net.peer.down"));
    assert!(corpus.iter().any(|e| e.kind == "net.peer.up"));
    let blocks = corpus.iter().filter(|e| e.kind == "net.ctrl.block").count();
    assert_eq!(blocks, 3, "every process acknowledged its drop filter");
    assert_eq!(
        corpus
            .iter()
            .filter(|e| e.kind == "net.ctrl.unblock")
            .count(),
        blocks
    );
}
