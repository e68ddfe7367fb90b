//! A ready-made [`plwg_sim::Process`] wrapping an [`LwgService`] — the
//! easiest way to put the light-weight group service on a simulated node.
//!
//! Applications either embed [`LwgService`] in their own process type (for
//! custom reaction logic) or use [`LwgNode`] and subscribe to its upcall
//! stream via [`LwgNode::events`].

use crate::builder::LwgBuilder;
use crate::events::LwgEvents;
use crate::service::LwgService;
use plwg_hwg::{HwgSubstrate, View};
use plwg_naming::LwgId;
use plwg_sim::{NodeId, Payload, Process, TimerToken, Transport};
use std::any::Any;

/// A simulated node running the LWG service over substrate `S`, recording
/// all upcalls into a drainable [`LwgEvents`] stream.
///
/// ```
/// use plwg_core::{LwgEvent, LwgId, LwgNode};
/// use plwg_naming::{NameServer, NamingConfig};
/// use plwg_sim::{Frame, NodeId, SimDuration, World, WorldConfig};
/// use plwg_vsync::VsyncStack;
///
/// type Node = LwgNode<VsyncStack>;
/// let mut world = World::new(WorldConfig::default());
/// let ns = world.add_node(Box::new(NameServer::new(
///     NodeId(0),
///     vec![],
///     NamingConfig::default(),
/// )));
/// let node = Node::builder(NodeId(1)).servers([ns]).build_node().unwrap();
/// let a = world.add_node(Box::new(node));
/// let g = LwgId(7);
/// world.invoke(a, |n: &mut Node, ctx| n.service().join(ctx, g));
/// world.run_for(SimDuration::from_secs(5));
/// world.invoke(a, |n: &mut Node, ctx| {
///     n.service().send(ctx, g, Frame::from_u64(42))
/// });
/// world.run_for(SimDuration::from_secs(1));
///
/// // Consume the upcalls recorded since the previous drain…
/// for ev in world.invoke(a, |n: &mut Node, _| n.events().drain()) {
///     match ev {
///         LwgEvent::Data { lwg, src, data } => {
///             assert_eq!((lwg, src, data.try_u64()), (g, a, Some(42)));
///         }
///         LwgEvent::View { view, .. } => assert!(view.contains(a)),
///         LwgEvent::Left { .. } => unreachable!("never left"),
///     }
/// }
/// // …or read the full history without consuming it.
/// let got = world.inspect(a, |n: &Node| n.events_ref().data_from(g, a));
/// assert_eq!(got, vec![42]);
/// ```
pub struct LwgNode<S: HwgSubstrate> {
    service: LwgService<S>,
    events: LwgEvents,
}

impl<S: HwgSubstrate> LwgNode<S> {
    /// Starts building a node for `me`: set the name servers (and
    /// optionally a config or pre-built substrate), then call
    /// [`LwgBuilder::build_node`]:
    ///
    /// ```
    /// use plwg_core::{LwgConfig, LwgNode, ScriptedHwg};
    /// use plwg_sim::NodeId;
    ///
    /// let node: LwgNode<ScriptedHwg> = LwgNode::builder(NodeId(1))
    ///     .servers([NodeId(0)])
    ///     .config(LwgConfig::default())
    ///     .build_node()
    ///     .expect("valid config");
    /// # let _ = node;
    /// ```
    pub fn builder(me: NodeId) -> LwgBuilder<S> {
        LwgBuilder::new(me)
    }

    pub(crate) fn from_service(service: LwgService<S>, events: LwgEvents) -> Self {
        LwgNode { service, events }
    }

    /// The wrapped service (join/leave/send and introspection).
    pub fn service(&mut self) -> &mut LwgService<S> {
        &mut self.service
    }

    /// Immutable access to the wrapped service.
    pub fn service_ref(&self) -> &LwgService<S> {
        &self.service
    }

    /// The recorded upcall stream: `events().drain()` consumes the events
    /// since the previous drain, `events().history()` keeps the full run.
    pub fn events(&mut self) -> &mut LwgEvents {
        &mut self.events
    }

    /// Read-only view of the upcall stream (no draining).
    pub fn events_ref(&self) -> &LwgEvents {
        &self.events
    }

    /// The group's *live* view at this node (`None` once the node has left
    /// the group). For the historic record use `events_ref().views_of(..)`.
    pub fn current_view(&self, lwg: LwgId) -> Option<&View> {
        self.service.view_of(lwg)
    }

    fn pump_events(&mut self) {
        for ev in self.service.drain_events() {
            self.events.record(ev);
        }
    }
}

impl<S: HwgSubstrate + 'static> Process for LwgNode<S> {
    fn on_start(&mut self, ctx: &mut dyn Transport) {
        self.service.start(ctx);
    }

    fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: Payload) {
        if self.service.on_message(ctx, from, &msg) {
            self.pump_events();
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) {
        if self.service.on_timer(ctx, token) {
            self.pump_events();
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl<S: HwgSubstrate> std::fmt::Debug for LwgNode<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LwgNode")
            .field("service", &self.service)
            .field("events", &self.events.history().len())
            .finish()
    }
}
