//! The benchmark's application process: an `LwgService` whose upcalls go
//! straight into the shared [`Books`].

use crate::adapters::Tap;
use crate::ledger::Ledger;
use crate::spans::{self, Layer};
use plwg_core::{LwgConfig, LwgEvent, LwgService};
use plwg_hwg::HwgSubstrate;
use plwg_naming::LwgId;
use plwg_sim::{NodeId, Payload, Process, TimerToken, Transport};
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Tracks, per LWG, which members currently show the group's full
/// membership, and when every tracked group last became full everywhere.
#[derive(Debug, Default)]
pub struct ViewTracker {
    groups: BTreeMap<LwgId, Group>,
    full_groups: usize,
    armed: Option<u64>,
    converged_at: Option<u64>,
}

#[derive(Debug)]
struct Group {
    members: Vec<NodeId>,
    showing: u32,
    /// When the group last became full at every member.
    full_at: u64,
    /// Whether the group was not full when the tracker was last armed.
    broken_at_arm: bool,
}

impl Group {
    fn full(&self) -> bool {
        self.showing.count_ones() as usize == self.members.len()
    }
}

impl ViewTracker {
    /// Tracks `lwg`, whose full membership is `members`.
    pub fn expect(&mut self, lwg: LwgId, members: &[NodeId]) {
        let mut members = members.to_vec();
        members.sort_unstable();
        self.groups.insert(
            lwg,
            Group {
                members,
                showing: 0,
                full_at: 0,
                broken_at_arm: true,
            },
        );
    }

    /// Starts waiting for every group to be full again; the moment that
    /// happens is then reported by [`ViewTracker::converged_at`].
    pub fn arm(&mut self, now_us: u64) {
        self.armed = Some(now_us);
        self.converged_at = None;
        for g in self.groups.values_mut() {
            g.broken_at_arm = !g.full();
        }
        self.check(now_us);
    }

    /// For each group that was not full when the tracker was armed, how
    /// long after arming it last became full (µs); meaningful once
    /// [`ViewTracker::converged_at`] is set.
    pub fn per_group_us(&self) -> Vec<u64> {
        let armed = self.armed.unwrap_or(0);
        self.groups
            .values()
            .filter(|g| g.broken_at_arm && g.full())
            .map(|g| g.full_at.saturating_sub(armed))
            .collect()
    }

    /// When every group last became full at every member after
    /// [`ViewTracker::arm`].
    pub fn converged_at(&self) -> Option<u64> {
        self.converged_at
    }

    /// Whether every group is full at every member right now.
    pub fn all_full(&self) -> bool {
        self.full_groups == self.groups.len()
    }

    /// Records that `member` installed a view of `lwg` with `view`.
    pub fn on_view(&mut self, lwg: LwgId, member: NodeId, view: &[NodeId], now_us: u64) {
        let Some(g) = self.groups.get_mut(&lwg) else {
            return;
        };
        let Ok(pos) = g.members.binary_search(&member) else {
            return;
        };
        let was = g.full();
        let mut shown = view.to_vec();
        shown.sort_unstable();
        if shown == g.members {
            g.showing |= 1 << pos;
        } else {
            g.showing &= !(1 << pos);
        }
        match (was, g.full()) {
            (false, true) => {
                g.full_at = now_us;
                self.full_groups += 1;
            }
            (true, false) => self.full_groups -= 1,
            _ => {}
        }
        self.check(now_us);
    }

    fn check(&mut self, now_us: u64) {
        if self.armed.is_some() && self.converged_at.is_none() && self.all_full() {
            self.converged_at = Some(now_us);
        }
    }
}

/// What all members of one run write into.
#[derive(Debug)]
pub struct Books {
    /// The delivery ledger.
    pub ledger: Ledger,
    /// LWG view convergence.
    pub views: ViewTracker,
}

/// Shared handle to the [`Books`].
pub type SharedBooks = Arc<Mutex<Books>>;

/// Locks the books; a panic elsewhere has already failed the run.
pub fn lock(books: &SharedBooks) -> MutexGuard<'_, Books> {
    books
        .lock()
        .expect("a member thread panicked while holding the books")
}

/// A benchmark member: the LWG service plus delivery bookkeeping.
pub struct Member<S: HwgSubstrate> {
    /// The service under test.
    pub service: LwgService<S>,
    bit: u32,
    books: SharedBooks,
    /// Latencies of self-deliveries are skipped when false.
    time_own: bool,
    /// The runtime layer the member's sends are charged to.
    io: Layer,
    /// Wall-clock epoch shared by the threads of a real-socket run; the
    /// simulator's virtual clock is used when `None`.
    epoch: Option<Instant>,
}

impl<S: HwgSubstrate> Member<S> {
    /// A member for node `me` (ledger bit `bit`) using `servers`.
    pub fn new(
        me: NodeId,
        bit: u32,
        servers: &[NodeId],
        cfg: LwgConfig,
        books: SharedBooks,
    ) -> Member<S> {
        Member {
            service: LwgService::builder(me)
                .servers(servers.iter().copied())
                .config(cfg)
                .build()
                .expect("benchmark LWG config is valid"),
            bit,
            books,
            time_own: true,
            io: Layer::Sim,
            epoch: None,
        }
    }

    /// Uses wall-clock µs since `epoch` and times only deliveries from
    /// other members.
    pub fn on_wall_clock(mut self, epoch: Instant) -> Self {
        self.epoch = Some(epoch);
        self.time_own = false;
        self.io = Layer::Net;
        self
    }

    /// Joins `lwg`.
    pub fn join(&mut self, ctx: &mut dyn Transport, lwg: LwgId) {
        self.call(ctx, 0, |svc, ctx| svc.join(ctx, lwg));
    }

    /// Registers a message on `lwg` that was due at `due_us` and that the
    /// members in `expect` must deliver, then multicasts its payload.
    pub fn multicast(
        &mut self,
        ctx: &mut dyn Transport,
        lwg: LwgId,
        class: u8,
        due_us: u64,
        expect: u32,
    ) {
        let sent_us = self.now_us(ctx);
        let (id, payload) = spans::span(Layer::Bench, 0, || {
            let mut b = lock(&self.books);
            let id = b.ledger.register(lwg, class, due_us, expect);
            (id, b.ledger.payload(id, sent_us))
        });
        self.call(ctx, id, |svc, ctx| {
            svc.send(ctx, lwg, Payload::from_vec(payload))
        });
    }

    /// Calls into the service (a `core` span when tracing), then records
    /// the upcalls it produced.
    fn call(
        &mut self,
        ctx: &mut dyn Transport,
        msg: u64,
        f: impl FnOnce(&mut LwgService<S>, &mut dyn Transport),
    ) {
        if spans::enabled() {
            let mut tap = Tap::new(ctx, self.io);
            let svc = &mut self.service;
            spans::span(Layer::Core, msg, || f(svc, &mut tap));
        } else {
            f(&mut self.service, ctx);
        }
        self.record(ctx);
    }

    /// Current time in µs on the member's clock.
    fn now_us(&self, ctx: &dyn Transport) -> u64 {
        match self.epoch {
            Some(e) => e.elapsed().as_micros() as u64,
            None => ctx.now().as_micros(),
        }
    }

    /// Hands the service's pending upcalls to the books.
    fn record(&mut self, ctx: &dyn Transport) {
        let events = self.service.drain_events();
        if events.is_empty() {
            return;
        }
        let now = self.now_us(ctx);
        let me = self.service.node();
        spans::span(Layer::Bench, 0, || {
            let mut b = lock(&self.books);
            for ev in events {
                match ev {
                    LwgEvent::Data { lwg, src, data } => {
                        let timed = self.time_own || src != me;
                        b.ledger.deliver(self.bit, lwg, data.bytes(), now, timed);
                    }
                    LwgEvent::View { lwg, view } => b.views.on_view(lwg, me, &view.members, now),
                    LwgEvent::Left { .. } => {}
                }
            }
        });
    }
}

impl<S: HwgSubstrate + 'static> Process for Member<S> {
    fn on_start(&mut self, ctx: &mut dyn Transport) {
        self.service.start(ctx);
    }

    fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: Payload) {
        if self.service.on_message(ctx, from, &msg) {
            self.record(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) {
        if self.service.on_timer(ctx, token) {
            self.record(ctx);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: LwgId = LwgId(1);
    const H: LwgId = LwgId(2);

    #[test]
    fn convergence_is_the_moment_the_last_group_fills() {
        let (a, b, c) = (NodeId(1), NodeId(2), NodeId(3));
        let mut t = ViewTracker::default();
        t.expect(G, &[b, a]);
        t.expect(H, &[a, b, c]);
        t.arm(0);
        t.on_view(G, a, &[a, b], 10);
        t.on_view(G, b, &[b, a], 20);
        assert_eq!(t.converged_at(), None);
        t.on_view(H, a, &[a, b, c], 30);
        t.on_view(H, b, &[a, b, c], 40);
        t.on_view(H, c, &[a, c], 50);
        assert_eq!(t.converged_at(), None, "c shows a partial view");
        t.on_view(H, c, &[c, b, a], 60);
        assert_eq!(t.converged_at(), Some(60));
        assert!(t.all_full());
        let mut per = t.per_group_us();
        per.sort_unstable();
        assert_eq!(per, vec![20, 60]);
        // A later partial view breaks G; re-arming waits for the next fill
        // and times only the group that was broken.
        t.on_view(G, a, &[a], 70);
        t.arm(75);
        assert_eq!(t.converged_at(), None);
        t.on_view(G, a, &[a, b], 90);
        assert_eq!(t.converged_at(), Some(90));
        assert_eq!(t.per_group_us(), vec![15]);
    }
}
