//! A generic [`Process`] adapter for a [`HwgSubstrate`].
//!
//! Putting a bare substrate on a simulated node means forwarding messages
//! and timers to it and draining its upcalls after each one. [`Driver`]
//! writes that demux once: `Box<Driver<S>>` is ready for
//! [`plwg_sim::World::add_node`], and its recorded [`HwgEvent`]s can be read
//! back through [`plwg_sim::World::inspect`].

use crate::substrate::{HwgEvent, HwgSubstrate};
use plwg_sim::{NodeId, Payload, Process, TimerToken, Transport};
use std::any::Any;

/// Runs a [`HwgSubstrate`] as a simulated [`Process`], accumulating its
/// upcalls for later inspection.
pub struct Driver<S: HwgSubstrate> {
    substrate: S,
    events: Vec<HwgEvent>,
}

impl<S: HwgSubstrate> Driver<S> {
    /// Wraps `substrate`.
    pub fn new(substrate: S) -> Self {
        Driver {
            substrate,
            events: Vec::new(),
        }
    }

    /// The wrapped substrate.
    pub fn substrate(&self) -> &S {
        &self.substrate
    }

    /// Mutable access to the wrapped substrate (down-calls).
    pub fn substrate_mut(&mut self) -> &mut S {
        &mut self.substrate
    }

    /// All upcalls recorded so far, in delivery order.
    pub fn events(&self) -> &[HwgEvent] {
        &self.events
    }
}

impl<S: HwgSubstrate + 'static> Process for Driver<S> {
    fn on_start(&mut self, ctx: &mut dyn Transport) {
        self.substrate.start(ctx);
    }

    fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: Payload) {
        if self.substrate.on_message(ctx, from, &msg) {
            self.substrate.drain_events_into(&mut self.events);
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) {
        if self.substrate.on_timer(ctx, token) {
            self.substrate.drain_events_into(&mut self.events);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
