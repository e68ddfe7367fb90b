//! Macro-benchmark: **wall-clock throughput of the real-socket data
//! plane** (`plwg-net`), the companion number to `throughput_sweep`'s
//! simulator-core msgs/s.
//!
//! Two `NetRuntime`s on loopback UDP, one per thread: the sender streams
//! fixed-size frames in paced bursts through the peer pool and socket;
//! the receiver's reactor counts what actually arrives. UDP is lossy
//! even on loopback when bursts outrun the socket buffer, so the bench
//! reports the delivery ratio alongside msgs/s — the number is the
//! transport's *sustained* rate, not an in-memory upper bound.
//!
//! Results land in `BENCH_net.json`. Unlike `BENCH_pack.json` /
//! `BENCH_throughput.json` this file is wall-clock and machine-dependent,
//! so CI runs only `--smoke` (small counts, sanity gates) and never diffs
//! the JSON.
//!
//! Run with: `cargo run --release -p plwg-bench --bin net_throughput`

use plwg_net::{NetOptions, NetRuntime};
use plwg_sim::{NodeId, Payload, Process, SimDuration, Transport};
use plwg_workload::Table;
use std::fmt::Write as _;
use std::sync::mpsc;
use std::time::Instant;

const SENDER: NodeId = NodeId(1);
const RECEIVER: NodeId = NodeId(2);
/// Bytes per burst before the sender lets its reactor breathe. Between
/// bursts the sender runs one short reactor turn (heartbeats, pool
/// upkeep), so the burst paces the stream: it must stay small enough that
/// loopback's receive buffer absorbs it while the receiver drains. The
/// figure is therefore still set by this pacing, not by the stack alone.
const BURST_BYTES: u64 = 16 * 1024;

fn burst_frames(payload_bytes: usize) -> u64 {
    (BURST_BYTES / payload_bytes.max(1) as u64).max(16)
}

/// Receiver process: counts frames and timestamps the first/last one.
struct Counter {
    n: u64,
    first: Option<Instant>,
    last: Option<Instant>,
}

impl Process for Counter {
    fn on_message(&mut self, _ctx: &mut dyn Transport, _from: NodeId, _msg: Payload) {
        self.n += 1;
        let now = Instant::now();
        self.first.get_or_insert(now);
        self.last = Some(now);
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Sender process: pure source, nothing to receive.
struct Source;

impl Process for Source {
    fn on_message(&mut self, _ctx: &mut dyn Transport, _from: NodeId, _msg: Payload) {}
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

struct Row {
    payload_bytes: usize,
    sent: u64,
    received: u64,
    wall_ms: f64,
    bytes_tx: u64,
}

impl Row {
    fn msgs_per_s(&self) -> f64 {
        self.received as f64 / (self.wall_ms / 1000.0).max(1e-9)
    }
    fn delivery_ratio(&self) -> f64 {
        self.received as f64 / self.sent.max(1) as f64
    }
    fn mib_per_s(&self) -> f64 {
        (self.received as f64 * self.payload_bytes as f64)
            / (1024.0 * 1024.0)
            / (self.wall_ms / 1000.0).max(1e-9)
    }
}

fn run(payload_bytes: usize, frames: u64) -> Row {
    let (addr_tx, addr_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();

    // Receiver thread: bind, publish the address, count until the sender
    // is done and the pipe has drained (or 60 s pass).
    let rx_thread = std::thread::spawn(move || {
        let mut rt = NetRuntime::bind(RECEIVER, "127.0.0.1:0", NetOptions::default())
            .expect("bind receiver");
        addr_tx
            .send(rt.local_addr().expect("receiver addr"))
            .expect("publish addr");
        let mut counter = Counter {
            n: 0,
            first: None,
            last: None,
        };
        let deadline = Instant::now() + std::time::Duration::from_secs(60);
        let mut sender_done = false;
        let mut drained_turns = 0u32;
        while Instant::now() < deadline && drained_turns < 20 {
            let before = counter.n;
            rt.run_for(&mut counter, SimDuration::from_millis(25));
            sender_done |= done_rx.try_recv().is_ok();
            if sender_done {
                // Keep draining until the socket goes quiet.
                drained_turns = if counter.n == before {
                    drained_turns + 1
                } else {
                    0
                };
            }
            if counter.n >= frames {
                break;
            }
        }
        counter
    });

    let peer = addr_rx.recv().expect("receiver addr");
    let mut rt =
        NetRuntime::bind(SENDER, "127.0.0.1:0", NetOptions::default()).expect("bind sender");
    rt.add_peer(RECEIVER, peer);
    let mut src = Source;
    // Connect before timing: the handshake is not the data plane.
    while rt.peers_up() == 0 {
        rt.run_for(&mut src, SimDuration::from_millis(10));
    }

    let frame = Payload::from_vec(vec![7u8; payload_bytes]);
    // Frames are cheap to clone (shared buffer), so one template suffices.
    let mut sent = 0u64;
    let burst_cap = burst_frames(payload_bytes);
    while sent < frames {
        let burst = burst_cap.min(frames - sent);
        for _ in 0..burst {
            rt.send(RECEIVER, frame.clone());
        }
        sent += burst;
        // One reactor turn per burst: services heartbeats and paces the
        // stream to something loopback can mostly carry.
        rt.run_for(&mut src, SimDuration::from_micros(200));
    }
    let bytes_tx = rt.registry().counter(plwg_net::keys::NETIO_BYTES_TX);
    // The receiver may already have counted every frame and returned, in
    // which case the channel is closed — that is the success path.
    let _ = done_tx.send(());
    let counter = rx_thread.join().expect("receiver thread");

    let wall_ms = match (counter.first, counter.last) {
        (Some(a), Some(b)) => b.duration_since(a).as_secs_f64() * 1000.0,
        _ => 0.0,
    };
    Row {
        payload_bytes,
        sent,
        received: counter.n,
        wall_ms,
        bytes_tx,
    }
}

fn json(rows: &[Row]) -> String {
    let mut out = String::from("{\n  \"bench\": \"net_throughput\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"payload_bytes\": {}, \"sent\": {}, \"received\": {}, \
             \"delivery_ratio\": {:.3}, \"wall_ms\": {:.1}, \"msgs_per_s\": {:.0}, \
             \"mib_per_s\": {:.1}, \"bytes_tx\": {}}}{}",
            r.payload_bytes,
            r.sent,
            r.received,
            r.delivery_ratio(),
            r.wall_ms,
            r.msgs_per_s(),
            r.mib_per_s(),
            r.bytes_tx,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn gate(rows: &[Row]) {
    for r in rows {
        assert!(
            r.received > 0,
            "{}B: nothing arrived over loopback",
            r.payload_bytes
        );
        assert!(
            r.delivery_ratio() > 0.5,
            "{}B: delivery ratio {:.2} — transport is dropping most of the stream",
            r.payload_bytes,
            r.delivery_ratio()
        );
        assert!(
            r.msgs_per_s() > 10_000.0,
            "{}B: {:.0} msgs/s is below the loopback floor (10k/s); are short \
             reactor waits rounding up to a kernel tick again?",
            r.payload_bytes,
            r.msgs_per_s()
        );
    }
    println!("gates: ok (frames flow, majority delivered, rate above floor)");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cells: &[(usize, u64)] = if smoke {
        &[(64, 5_000), (1024, 2_000)]
    } else {
        &[(64, 200_000), (1024, 50_000)]
    };

    println!(
        "Real-socket data plane: UDP loopback, two runtimes, paced {}KiB bursts\n",
        BURST_BYTES / 1024
    );
    let mut table = Table::new(&[
        "payload", "sent", "received", "delivery", "wall ms", "msg/s", "MiB/s",
    ]);
    let mut rows = Vec::new();
    for &(size, frames) in cells {
        let r = run(size, frames);
        table.row(&[
            format!("{}B", r.payload_bytes),
            r.sent.to_string(),
            r.received.to_string(),
            format!("{:.1}%", r.delivery_ratio() * 100.0),
            format!("{:.1}", r.wall_ms),
            format!("{:.0}", r.msgs_per_s()),
            format!("{:.1}", r.mib_per_s()),
        ]);
        rows.push(r);
    }
    println!("{}", table.render());
    println!("simulator-core baseline for the same payloads: BENCH_throughput.json");

    if smoke {
        gate(&rows);
        return;
    }
    let path = "BENCH_net.json";
    match std::fs::write(path, json(&rows)) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
