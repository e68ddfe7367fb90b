//! The reactor: one UDP socket, one timer heap, one protocol thread.
//!
//! [`NetRuntime`] is the real-network counterpart of the simulator's
//! per-node context. It owns a UDP socket, a monotone [`WallClock`], a
//! binary-heap timer wheel and the [`PeerPool`] lifecycle machine, and it
//! lends itself to the hosted [`Process`] as `&mut dyn Transport` — so
//! the vsync/naming/LWG stack runs over it unchanged.
//!
//! The socket has two users. A reader thread, spawned by
//! [`NetRuntime::bind`], blocks in `recv_from` on a clone of the socket,
//! unpacks each datagram and queues it on a bounded channel; it only moves
//! bytes. Everything else — sends, timers, the pool and every protocol
//! callback — runs on the thread that calls [`NetRuntime::run_for`].
//! Waiting on the channel rather than on the socket makes the wait as
//! precise as the OS scheduler: a socket read timeout is counted in kernel
//! ticks and would round every timer and short deadline up to one.
//!
//! The reactor turn is: deliver self-sends → fire due timers → service
//! the peer pool (heartbeats, hellos, suspicion) → wait for a datagram
//! until the next deadline → demux. Frames of family [`family::NET`] are
//! the transport's own lifecycle and harness-control traffic; every other
//! family goes up to the process.
//!
//! Partitions, for real: the harness sends [`NetMsg::Block`] and the
//! runtime installs a socket-level drop filter — datagrams to or from a
//! blocked peer are discarded (and counted under `netio.dropped`) at this
//! boundary, in both directions. Above the seam that is indistinguishable
//! from a network partition, which is the point: the §6 heal protocol then
//! runs against real packet loss.

use crate::clock::WallClock;
use crate::events::NetEvent;
use crate::keys::{
    NETIO_BYTES_TX, NETIO_DECODE_ERRORS, NETIO_DGRAM_RX, NETIO_DGRAM_TX, NETIO_DROPPED,
    NETIO_PEERS_UP, NETIO_QUEUE_DROPPED, NETIO_RECV_ERRORS,
};
use crate::msg::{net_frame, pack_datagram, unpack_datagram, NetMsg};
use crate::peer::{NetOptions, PeerPool, PeerState, PoolAction};
use plwg_sim::{
    family, peek_family, Clock, MetricsRegistry, NodeId, Payload, Process, SimDuration, SimTime,
    TimerToken, Trace, Transport, TransportExt, WireError,
};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Longest single wait for a datagram; bounds how stale pool maintenance
/// can get.
const MAX_POLL: SimDuration = SimDuration::from_millis(25);

/// Datagrams the reader may queue ahead of the reactor (the peer send
/// queue's default depth). A full inbox blocks the reader, so overflow
/// lands in the kernel's receive buffer, as it would with no reader.
const INBOX_DATAGRAMS: usize = 1024;

/// What the reader thread hands the reactor.
enum Inbound {
    /// A datagram from `addr`, unpacked — or the reason it would not unpack.
    Datagram(SocketAddr, Result<(NodeId, Vec<Payload>), WireError>),
    /// `recv_from` failed.
    RecvError,
}

/// The real-socket runtime hosting one protocol [`Process`].
pub struct NetRuntime {
    me: NodeId,
    clock: WallClock,
    socket: UdpSocket,
    inbox: Receiver<Inbound>,
    reader: Option<JoinHandle<()>>,
    book: BTreeMap<NodeId, SocketAddr>,
    pool: PeerPool,
    timers: BinaryHeap<Reverse<(u64, u64, u64)>>,
    timer_gen: BTreeMap<u64, u64>,
    next_gen: u64,
    pending_local: VecDeque<Payload>,
    blocked: BTreeSet<NodeId>,
    metrics: MetricsRegistry,
    trace: Trace,
    started: bool,
}

impl NetRuntime {
    /// Binds a runtime for node `me` on `addr` (use port 0 to let the OS
    /// pick; read it back with [`NetRuntime::local_addr`]).
    pub fn bind(me: NodeId, addr: impl ToSocketAddrs, opts: NetOptions) -> io::Result<NetRuntime> {
        opts.validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let socket = UdpSocket::bind(addr)?;
        let (tx, inbox) = mpsc::sync_channel(INBOX_DATAGRAMS);
        let reader_socket = socket.try_clone()?;
        let reader = thread::Builder::new()
            .name(format!("plwg-net-rx-{}", me.0))
            .spawn(move || read_loop(&reader_socket, &tx))?;
        Ok(NetRuntime {
            me,
            clock: WallClock::start(),
            socket,
            inbox,
            reader: Some(reader),
            book: BTreeMap::new(),
            pool: PeerPool::new(me, opts),
            timers: BinaryHeap::new(),
            timer_gen: BTreeMap::new(),
            next_gen: 0,
            pending_local: VecDeque::new(),
            blocked: BTreeSet::new(),
            metrics: MetricsRegistry::new(),
            trace: Trace::new(false),
            started: false,
        })
    }

    /// The socket's bound address (the harness publishes this).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Registers a peer's address and starts greeting it.
    pub fn add_peer(&mut self, node: NodeId, addr: SocketAddr) {
        if node == self.me {
            return;
        }
        self.book.insert(node, addr);
        self.pool.add_peer(node);
    }

    /// Turns trace recording on (off by default, as on the simulator).
    pub fn enable_trace(&mut self) {
        if !self.trace.is_enabled() {
            self.trace = Trace::new(true);
        }
    }

    /// Read access to the metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Read access to the trace sink.
    pub fn trace_ref(&self) -> &Trace {
        &self.trace
    }

    /// The lifecycle state of `peer`, if registered.
    pub fn peer_state(&self, peer: NodeId) -> Option<PeerState> {
        self.pool.state_of(peer)
    }

    /// Number of peers currently up.
    pub fn peers_up(&self) -> usize {
        self.pool.up_count()
    }

    /// Runs the reactor for `dur` of wall-clock time, driving `p`.
    ///
    /// The first call delivers `p`'s [`Process::on_start`] (arming its
    /// periodic timers), mirroring the simulator's node-admission hook.
    pub fn run_for(&mut self, p: &mut dyn Process, dur: SimDuration) {
        if !self.started {
            self.started = true;
            p.on_start(self);
        }
        let deadline = self.clock.now().checked_add(dur).unwrap_or(SimTime::MAX);
        loop {
            self.deliver_local(p);
            self.fire_timers(p);
            self.service_pool();
            let now = self.clock.now();
            if now >= deadline {
                return;
            }
            let mut next = deadline;
            if let Some(&Reverse((due, _, _))) = self.timers.peek() {
                next = next.min(SimTime::from_micros(due));
            }
            let wait = next.saturating_since(now).min(MAX_POLL);
            let wait = Duration::from_micros(wait.as_micros());
            match self.inbox.recv_timeout(wait) {
                Ok(Inbound::Datagram(addr, unpacked)) => self.on_datagram(p, unpacked, addr),
                Ok(Inbound::RecvError) => self.metrics.incr(NETIO_RECV_ERRORS),
                Err(RecvTimeoutError::Timeout) => {}
                // The reader only exits once the inbox is gone; should it
                // die anyway, keep the deadline without spinning.
                Err(RecvTimeoutError::Disconnected) => thread::sleep(wait),
            }
        }
    }

    /// Runs until `done` returns true (checked once per reactor turn), or
    /// until `timeout` elapses. Returns whether `done` was reached.
    pub fn run_until(
        &mut self,
        p: &mut dyn Process,
        timeout: SimDuration,
        mut done: impl FnMut(&mut dyn Process, &NetRuntime) -> bool,
    ) -> bool {
        let deadline = self
            .clock
            .now()
            .checked_add(timeout)
            .unwrap_or(SimTime::MAX);
        while self.clock.now() < deadline {
            if done(p, self) {
                return true;
            }
            self.run_for(p, SimDuration::from_millis(10));
        }
        done(p, self)
    }

    /// Announces departure to all up peers (best-effort, unreliable).
    pub fn shutdown(&mut self) {
        for a in self.pool.goodbyes() {
            self.apply_action(a);
        }
    }

    fn deliver_local(&mut self, p: &mut dyn Process) {
        while let Some(f) = self.pending_local.pop_front() {
            let me = self.me;
            p.on_message(self, me, f);
        }
    }

    fn fire_timers(&mut self, p: &mut dyn Process) {
        loop {
            let now = self.clock.now().as_micros();
            match self.timers.peek() {
                Some(&Reverse((due, gen, raw))) if due <= now => {
                    self.timers.pop();
                    if self.timer_gen.get(&raw) == Some(&gen) {
                        self.timer_gen.remove(&raw);
                        p.on_timer(self, TimerToken(raw));
                    }
                }
                _ => return,
            }
        }
    }

    fn service_pool(&mut self) {
        let now = self.clock.now();
        for a in self.pool.tick(now) {
            self.apply_action(a);
        }
        self.metrics
            .set_gauge(NETIO_PEERS_UP, self.pool.up_count() as i64);
        for ev in self.pool.drain_events() {
            if matches!(ev, NetEvent::QueueDrop { .. }) {
                self.metrics.incr(NETIO_QUEUE_DROPPED);
            }
            self.emit(move || ev);
        }
    }

    fn apply_action(&mut self, action: PoolAction) {
        match action {
            PoolAction::Control(to, msg) => self.transmit(to, &[net_frame(&msg)]),
            PoolAction::Flush(to, frames) => {
                if !frames.is_empty() {
                    self.transmit(to, &frames);
                }
            }
        }
    }

    /// Puts `frames` on the wire towards `to`, applying the drop filter.
    fn transmit(&mut self, to: NodeId, frames: &[Payload]) {
        let addr = match self.book.get(&to) {
            Some(&addr) if !self.blocked.contains(&to) => addr,
            _ => {
                self.metrics.incr(NETIO_DROPPED);
                return;
            }
        };
        let dgram = pack_datagram(self.me, frames);
        if self.socket.send_to(&dgram, addr).is_ok() {
            self.metrics.incr(NETIO_DGRAM_TX);
            self.metrics.add(NETIO_BYTES_TX, dgram.len() as u64);
        } else {
            self.metrics.incr(NETIO_DROPPED);
        }
    }

    fn on_datagram(
        &mut self,
        p: &mut dyn Process,
        unpacked: Result<(NodeId, Vec<Payload>), WireError>,
        addr: SocketAddr,
    ) {
        let Ok((from, frames)) = unpacked else {
            self.metrics.incr(NETIO_DECODE_ERRORS);
            return;
        };
        if self.blocked.contains(&from) {
            self.metrics.incr(NETIO_DROPPED);
            return;
        }
        self.metrics.incr(NETIO_DGRAM_RX);
        // Source address is authoritative for the sending node: a peer
        // that rebound after a restart is re-learned here.
        if from != self.me {
            self.book.insert(from, addr);
        }
        let now = self.clock.now();
        if let Some(a) = self.pool.heard_from(from, now) {
            self.apply_action(a);
        }
        for frame in frames {
            if peek_family(&frame) == Some(family::NET) {
                match plwg_sim::decode_frame::<NetMsg>(family::NET, &frame) {
                    Ok(msg) => self.on_net_msg(from, msg),
                    Err(_) => self.metrics.incr(NETIO_DECODE_ERRORS),
                }
            } else {
                p.on_message(self, from, frame);
            }
        }
        self.service_pool();
    }

    fn on_net_msg(&mut self, from: NodeId, msg: NetMsg) {
        match msg {
            NetMsg::Block { peers } => {
                self.blocked.extend(peers.iter().copied());
                self.emit(|| NetEvent::Blocked { peers });
            }
            NetMsg::Unblock { peers } => {
                for peer in &peers {
                    self.blocked.remove(peer);
                }
                self.emit(|| NetEvent::Unblocked { peers });
            }
            other => {
                let now = self.clock.now();
                for a in self.pool.on_net_msg(from, &other, now) {
                    self.apply_action(a);
                }
            }
        }
    }
}

/// The reader thread: moves datagrams from the socket to the inbox until
/// the inbox is dropped. One receive buffer serves every datagram; each is
/// copied once, by `unpack_datagram`.
fn read_loop(socket: &UdpSocket, inbox: &SyncSender<Inbound>) {
    let mut buf = vec![0u8; 65_536];
    loop {
        let item = match socket.recv_from(&mut buf) {
            Ok((n, addr)) => Inbound::Datagram(addr, unpack_datagram(&buf[..n])),
            // Pause, so a persistent fault cannot spin.
            Err(_) => {
                thread::sleep(Duration::from_millis(1));
                Inbound::RecvError
            }
        };
        if inbox.send(item).is_err() {
            return;
        }
    }
}

impl Drop for NetRuntime {
    /// Stops and joins the reader, so the address is free once this returns.
    fn drop(&mut self) {
        let Some(reader) = self.reader.take() else {
            return;
        };
        // Dropping the inbox is the stop signal: it frees a reader blocked
        // on a full inbox, and makes its next hand-off fail. A reader
        // parked in `recv_from` needs one more datagram to get there.
        self.inbox = mpsc::sync_channel(0).1;
        if let Ok(mut addr) = self.socket.local_addr() {
            if addr.ip().is_unspecified() {
                addr.set_ip(match addr {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = self.socket.send_to(&[], addr);
        }
        let _ = reader.join();
    }
}

impl Transport for NetRuntime {
    fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn id(&self) -> NodeId {
        self.me
    }

    fn send(&mut self, to: NodeId, msg: Payload) {
        if to == self.me {
            self.pending_local.push_back(msg);
            return;
        }
        if self.blocked.contains(&to) {
            self.metrics.incr(NETIO_DROPPED);
            return;
        }
        if self.pool.offer(to, msg.clone()) {
            self.transmit(to, &[msg]);
        }
    }

    fn broadcast(&mut self, msg: Payload) {
        let peers: Vec<NodeId> = self.pool.peers().collect();
        for to in peers {
            self.send(to, msg.clone());
        }
    }

    fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        let due = self
            .clock
            .now()
            .checked_add(delay)
            .unwrap_or(SimTime::MAX)
            .as_micros();
        let gen = self.next_gen;
        self.next_gen += 1;
        self.timer_gen.insert(token.0, gen);
        self.timers.push(Reverse((due, gen, token.0)));
    }

    fn cancel_timer(&mut self, token: TimerToken) {
        self.timer_gen.remove(&token.0);
    }

    fn metrics(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    fn trace(&mut self) -> &mut Trace {
        &mut self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        got: Vec<(NodeId, Vec<u8>)>,
        fired: Vec<TimerToken>,
        /// `ctx.now()` at every callback, in order.
        at: Vec<SimTime>,
    }

    impl Recorder {
        fn new() -> Self {
            Recorder {
                got: Vec::new(),
                fired: Vec::new(),
                at: Vec::new(),
            }
        }
    }

    impl Process for Recorder {
        fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: Payload) {
            self.got.push((from, msg.bytes().to_vec()));
            self.at.push(ctx.now());
        }
        fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) {
            self.fired.push(token);
            self.at.push(ctx.now());
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn rt(me: u32) -> NetRuntime {
        NetRuntime::bind(NodeId(me), "127.0.0.1:0", NetOptions::default()).expect("bind")
    }

    #[test]
    fn timers_fire_in_order_and_cancel() {
        let mut rt = rt(0);
        let mut p = Recorder::new();
        rt.set_timer(SimDuration::from_millis(20), TimerToken(2));
        rt.set_timer(SimDuration::from_millis(5), TimerToken(1));
        rt.set_timer(SimDuration::from_millis(10), TimerToken(3));
        rt.cancel_timer(TimerToken(3));
        rt.run_for(&mut p, SimDuration::from_millis(60));
        assert_eq!(p.fired, vec![TimerToken(1), TimerToken(2)]);
    }

    #[test]
    fn rearming_a_timer_supersedes_the_old_deadline() {
        let mut rt = rt(0);
        let mut p = Recorder::new();
        rt.set_timer(SimDuration::from_millis(5), TimerToken(7));
        rt.set_timer(SimDuration::from_millis(30), TimerToken(7));
        rt.run_for(&mut p, SimDuration::from_millis(15));
        assert!(p.fired.is_empty(), "old deadline must not fire");
        rt.run_for(&mut p, SimDuration::from_millis(30));
        assert_eq!(p.fired, vec![TimerToken(7)]);
    }

    #[test]
    fn short_waits_are_not_rounded_up_to_a_kernel_tick() {
        let mut rt = rt(0);
        let mut p = Recorder::new();
        let t0 = rt.now();
        for _ in 0..50 {
            rt.run_for(&mut p, SimDuration::from_millis(1));
        }
        let took = rt.now().saturating_since(t0);
        assert!(
            took < SimDuration::from_millis(250),
            "50 x run_for(1 ms) took {} us",
            took.as_micros()
        );
    }

    #[test]
    fn a_short_timer_fires_when_due() {
        let mut rt = rt(0);
        let mut p = Recorder::new();
        let t0 = rt.now();
        rt.set_timer(SimDuration::from_millis(2), TimerToken(1));
        rt.run_for(&mut p, SimDuration::from_millis(20));
        assert_eq!(p.fired, vec![TimerToken(1)]);
        let after = p.at[0].saturating_since(t0);
        assert!(after >= SimDuration::from_millis(2), "fired early");
        assert!(
            after < SimDuration::from_millis(6),
            "a 2 ms timer fired after {} us",
            after.as_micros()
        );
    }

    #[test]
    fn a_datagram_ends_a_long_wait_at_once() {
        let mut rt = rt(2);
        let addr = rt.local_addr().expect("addr");
        let clock = rt.clock.clone();
        let sender = thread::spawn(move || {
            let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
            thread::sleep(Duration::from_millis(50));
            let dgram = pack_datagram(NodeId(1), &[Payload::copy_from_slice(&[42])]);
            let sent = clock.now();
            sock.send_to(&dgram, addr).expect("send");
            sent
        });
        let mut p = Recorder::new();
        rt.run_for(&mut p, SimDuration::from_millis(200));
        let sent = sender.join().expect("sender thread");
        assert_eq!(p.got, vec![(NodeId(1), vec![42])]);
        let latency = p.at[0].saturating_since(sent);
        assert!(
            latency < SimDuration::from_millis(20),
            "delivered {} us after the send",
            latency.as_micros()
        );
    }

    #[test]
    fn self_send_loops_back_locally() {
        let mut rt = rt(4);
        let mut p = Recorder::new();
        rt.send(NodeId(4), Payload::copy_from_slice(&[1, 2, 3]));
        rt.run_for(&mut p, SimDuration::from_millis(5));
        assert_eq!(p.got, vec![(NodeId(4), vec![1, 2, 3])]);
    }

    #[test]
    fn two_runtimes_connect_and_exchange_frames() {
        let mut a = rt(1);
        let mut b = rt(2);
        a.add_peer(NodeId(2), b.local_addr().expect("addr"));
        b.add_peer(NodeId(1), a.local_addr().expect("addr"));
        let mut pa = Recorder::new();
        let mut pb = Recorder::new();
        // Queue app traffic before the peers are even up: it must ride
        // the queue and flush on connect.
        a.send(NodeId(2), Payload::copy_from_slice(&[42]));
        for _ in 0..100 {
            a.run_for(&mut pa, SimDuration::from_millis(10));
            b.run_for(&mut pb, SimDuration::from_millis(10));
            if a.peers_up() == 1 && b.peers_up() == 1 && !pb.got.is_empty() {
                break;
            }
        }
        assert_eq!(a.peer_state(NodeId(2)), Some(PeerState::Up));
        assert_eq!(b.peer_state(NodeId(1)), Some(PeerState::Up));
        assert_eq!(pb.got, vec![(NodeId(1), vec![42])]);
        assert!(a.registry().counter(NETIO_DGRAM_TX) > 0);
        assert!(b.registry().counter(NETIO_DGRAM_RX) > 0);
    }

    #[test]
    fn block_filter_cuts_both_directions_until_unblocked() {
        let mut a = rt(1);
        let mut b = rt(2);
        a.add_peer(NodeId(2), b.local_addr().expect("addr"));
        b.add_peer(NodeId(1), a.local_addr().expect("addr"));
        a.enable_trace();
        let mut pa = Recorder::new();
        let mut pb = Recorder::new();
        for _ in 0..100 {
            a.run_for(&mut pa, SimDuration::from_millis(10));
            b.run_for(&mut pb, SimDuration::from_millis(10));
            if a.peers_up() == 1 && b.peers_up() == 1 {
                break;
            }
        }
        assert_eq!(a.peers_up(), 1);
        // Partition: a drops everything to/from 2.
        a.on_net_msg(
            NodeId(99),
            NetMsg::Block {
                peers: vec![NodeId(2)],
            },
        );
        a.send(NodeId(2), Payload::copy_from_slice(&[9]));
        for _ in 0..200 {
            a.run_for(&mut pa, SimDuration::from_millis(10));
            b.run_for(&mut pb, SimDuration::from_millis(10));
            if a.peer_state(NodeId(2)) == Some(PeerState::Down)
                && b.peer_state(NodeId(1)) == Some(PeerState::Down)
            {
                break;
            }
        }
        assert_eq!(a.peer_state(NodeId(2)), Some(PeerState::Down));
        assert_eq!(b.peer_state(NodeId(1)), Some(PeerState::Down));
        assert!(pb.got.is_empty(), "blocked frame must not arrive");
        // Heal: the filter lifts and the pool reconnects on its own.
        a.on_net_msg(
            NodeId(99),
            NetMsg::Unblock {
                peers: vec![NodeId(2)],
            },
        );
        for _ in 0..200 {
            a.run_for(&mut pa, SimDuration::from_millis(10));
            b.run_for(&mut pb, SimDuration::from_millis(10));
            if a.peers_up() == 1 && b.peers_up() == 1 {
                break;
            }
        }
        assert_eq!(a.peers_up(), 1);
        assert_eq!(b.peers_up(), 1);
        assert_eq!(a.trace_ref().count("net.ctrl.block"), 1);
        assert_eq!(a.trace_ref().count("net.ctrl.unblock"), 1);
    }
}
