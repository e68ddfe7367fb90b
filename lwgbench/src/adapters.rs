//! Timing adapters: the program's public seams, wrapped from outside.
//!
//! Nothing inside the stack is instrumented. Instead the traced run puts
//! a wrapper at each seam the stack already exposes:
//!
//! * [`Timed`] — an [`HwgSubstrate`] around `VsyncStack` / `NetSubstrate`:
//!   every down-call and up-call offer is a `vsync` span.
//! * [`Traced`] — a [`Process`] around a member (`core`) or a
//!   `NameServer` (`naming`): every callback is a span of that layer.
//! * [`Tap`] — a [`Transport`] around the runtime's context: every send is
//!   counted as a `wire` frame with its bytes and timed as a span of the
//!   runtime's layer (`sim` or `net`).

use crate::spans::{self, Layer};
use plwg_hwg::{GroupStatus, HwgConfig, HwgEvent, HwgId, HwgSubstrate, View};
use plwg_sim::{
    MetricsRegistry, NodeId, Payload, Process, SimDuration, SimTime, TimerToken, Trace, Transport,
};
use std::any::Any;
use std::collections::BTreeSet;

/// A [`Transport`] that counts frames and times sends as `layer`.
pub struct Tap<'a> {
    inner: &'a mut dyn Transport,
    layer: Layer,
}

impl<'a> Tap<'a> {
    /// Wraps `inner`, charging its work to `layer` (`Sim` or `Net`).
    pub fn new(inner: &'a mut dyn Transport, layer: Layer) -> Tap<'a> {
        Tap { inner, layer }
    }
}

impl Transport for Tap<'_> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn send(&mut self, to: NodeId, msg: Payload) {
        spans::count_wire(msg.len());
        let inner = &mut *self.inner;
        spans::span(self.layer, 0, || inner.send(to, msg));
    }

    fn broadcast(&mut self, msg: Payload) {
        spans::count_wire(msg.len());
        let inner = &mut *self.inner;
        spans::span(self.layer, 0, || inner.broadcast(msg));
    }

    fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        let inner = &mut *self.inner;
        spans::span(self.layer, 0, || inner.set_timer(delay, token));
    }

    fn cancel_timer(&mut self, token: TimerToken) {
        let inner = &mut *self.inner;
        spans::span(self.layer, 0, || inner.cancel_timer(token));
    }

    fn metrics(&mut self) -> &mut MetricsRegistry {
        self.inner.metrics()
    }

    fn trace(&mut self) -> &mut Trace {
        self.inner.trace()
    }
}

/// A [`Process`] whose callbacks are spans of `layer`, with the context
/// wrapped in a [`Tap`] charging `io`.
pub struct Traced<P> {
    inner: P,
    layer: Layer,
    io: Layer,
}

impl<P: Process> Traced<P> {
    /// Wraps `inner`.
    pub fn new(inner: P, layer: Layer, io: Layer) -> Traced<P> {
        Traced { inner, layer, io }
    }
}

impl<P: Process> Process for Traced<P> {
    fn on_start(&mut self, ctx: &mut dyn Transport) {
        let mut tap = Tap::new(ctx, self.io);
        let inner = &mut self.inner;
        spans::span(self.layer, 0, || inner.on_start(&mut tap));
    }

    fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: Payload) {
        let mut tap = Tap::new(ctx, self.io);
        let inner = &mut self.inner;
        spans::span(self.layer, 0, || inner.on_message(&mut tap, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) {
        let mut tap = Tap::new(ctx, self.io);
        let inner = &mut self.inner;
        spans::span(self.layer, 0, || inner.on_timer(&mut tap, token));
    }

    fn on_crash(&mut self, now: SimTime) {
        self.inner.on_crash(now);
    }

    /// Exposes the wrapped process, so `World::invoke` and
    /// `World::inspect` reach it by its own type.
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// Boxes `p` for a world or runtime, wrapped in [`Traced`] for a traced
/// run.
pub fn hosted<P: Process>(p: P, traced: bool, layer: Layer, io: Layer) -> Box<dyn Process> {
    if traced {
        Box::new(Traced::new(p, layer, io))
    } else {
        Box::new(p)
    }
}

/// An [`HwgSubstrate`] whose calls are `vsync` spans.
pub struct Timed<S>(S);

impl<S: HwgSubstrate> HwgSubstrate for Timed<S> {
    fn build(me: NodeId, cfg: &HwgConfig) -> Self {
        Timed(S::build(me, cfg))
    }

    fn node(&self) -> NodeId {
        self.0.node()
    }

    fn start(&mut self, ctx: &mut dyn Transport) {
        let s = &mut self.0;
        spans::span(Layer::Vsync, 0, || s.start(ctx));
    }

    fn join(&mut self, ctx: &mut dyn Transport, hwg: HwgId) {
        let s = &mut self.0;
        spans::span(Layer::Vsync, 0, || s.join(ctx, hwg));
    }

    fn create(&mut self, ctx: &mut dyn Transport, hwg: HwgId) {
        let s = &mut self.0;
        spans::span(Layer::Vsync, 0, || s.create(ctx, hwg));
    }

    fn leave(&mut self, ctx: &mut dyn Transport, hwg: HwgId) {
        let s = &mut self.0;
        spans::span(Layer::Vsync, 0, || s.leave(ctx, hwg));
    }

    fn send(&mut self, ctx: &mut dyn Transport, hwg: HwgId, data: Payload) {
        let s = &mut self.0;
        spans::span(Layer::Vsync, 0, || s.send(ctx, hwg, data));
    }

    fn send_to(
        &mut self,
        ctx: &mut dyn Transport,
        hwg: HwgId,
        targets: &BTreeSet<NodeId>,
        data: Payload,
    ) {
        let s = &mut self.0;
        spans::span(Layer::Vsync, 0, || s.send_to(ctx, hwg, targets, data));
    }

    fn force_flush(&mut self, ctx: &mut dyn Transport, hwg: HwgId) {
        let s = &mut self.0;
        spans::span(Layer::Vsync, 0, || s.force_flush(ctx, hwg));
    }

    fn stop_ok(&mut self, ctx: &mut dyn Transport, hwg: HwgId) {
        let s = &mut self.0;
        spans::span(Layer::Vsync, 0, || s.stop_ok(ctx, hwg));
    }

    fn view_of(&self, hwg: HwgId) -> Option<&View> {
        self.0.view_of(hwg)
    }

    fn status_of(&self, hwg: HwgId) -> GroupStatus {
        self.0.status_of(hwg)
    }

    fn is_coordinator(&self, hwg: HwgId) -> bool {
        self.0.is_coordinator(hwg)
    }

    fn groups(&self) -> Vec<HwgId> {
        self.0.groups()
    }

    fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: &Payload) -> bool {
        let s = &mut self.0;
        spans::span(Layer::Vsync, 0, || s.on_message(ctx, from, msg))
    }

    fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) -> bool {
        let s = &mut self.0;
        spans::span(Layer::Vsync, 0, || s.on_timer(ctx, token))
    }

    fn drain_events(&mut self) -> Vec<HwgEvent> {
        let s = &mut self.0;
        spans::span(Layer::Vsync, 0, || s.drain_events())
    }

    fn drain_events_into(&mut self, out: &mut Vec<HwgEvent>) {
        let s = &mut self.0;
        spans::span(Layer::Vsync, 0, || s.drain_events_into(out));
    }
}
