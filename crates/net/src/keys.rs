//! Canonical metric keys owned by the net runtime.
//!
//! Namespaced under `netio.*` to stay disjoint from the simulator's
//! virtual-network `net.*` keys — a process that mixes substrates (e.g.
//! the throughput bench comparing both) must not alias counters.

use plwg_sim::{CounterKey, GaugeKey};

/// Datagrams put on the wire by the runtime's socket.
pub const NETIO_DGRAM_TX: CounterKey = CounterKey::new("netio.dgram_tx");
/// Datagrams received and successfully unpacked.
pub const NETIO_DGRAM_RX: CounterKey = CounterKey::new("netio.dgram_rx");
/// Received datagrams that failed to unpack, plus transport-family frames
/// that failed to decode; both are dropped.
pub const NETIO_DECODE_ERRORS: CounterKey = CounterKey::new("netio.decode_errors");
/// Failed socket receives (`recv_from` errors), counted by the reactor;
/// whatever datagram was lost to the error is not seen at all.
pub const NETIO_RECV_ERRORS: CounterKey = CounterKey::new("netio.recv_errors");
/// Encoded datagram bytes put on the wire.
pub const NETIO_BYTES_TX: CounterKey = CounterKey::new("netio.bytes_tx");
/// Datagrams discarded by the runtime itself: sends to or receipts from a
/// blocked peer, sends to a peer with no known address, and failed
/// socket sends (the real-network counterpart of the simulator's
/// `net.dropped`).
pub const NETIO_DROPPED: CounterKey = CounterKey::new("netio.dropped");
/// Frames dropped by per-peer send-queue backpressure.
pub const NETIO_QUEUE_DROPPED: CounterKey = CounterKey::new("netio.queue_dropped");
/// Peers currently in the `Up` state.
pub const NETIO_PEERS_UP: GaugeKey = GaugeKey::new("netio.peers_up");
