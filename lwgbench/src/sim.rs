//! Shared scaffolding of the two simulator workloads: a `World` with two
//! name servers and a set of [`Member`]s writing into one set of books.

use crate::adapters::hosted;
use crate::layers::Counters;
use crate::ledger::Ledger;
use crate::member::{lock, Books, Member, SharedBooks, ViewTracker};
use crate::report;
use crate::spans::{self, Layer};
use plwg_core::LwgConfig;
use plwg_hwg::HwgSubstrate;
use plwg_naming::{LwgId, NameServer, NamingConfig};
use plwg_sim::{NodeId, SimDuration, SimRng, SimTime, World, WorldConfig};
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Longest a group formation or heal may take before it counts as failed.
pub const CONVERGE_LIMIT: SimDuration = SimDuration::from_secs(60);
/// Polling step while waiting for views to converge.
const CONVERGE_STEP: SimDuration = SimDuration::from_millis(10);
/// Virtual time run between checks of the wall-clock guard.
const SLICE: SimDuration = SimDuration::from_millis(1);

/// How one group formation or heal converged.
#[derive(Debug, Clone)]
pub struct Heal {
    /// Until every group showed its full view at every member.
    pub total: SimDuration,
    /// Per group that had lost its full view, until it was full again (ms).
    pub per_group_ms: Vec<f64>,
}

impl Heal {
    /// `total` in ms.
    pub fn total_ms(&self) -> f64 {
        self.total.as_micros() as f64 / 1e3
    }
}

/// The heal metrics over `heals`: the median per-group time and the median
/// over heals of the time until every group was full.
pub fn heal_figures(heals: &[Option<Heal>]) -> (f64, f64) {
    let done: Vec<&Heal> = heals.iter().flatten().collect();
    let per_group: Vec<f64> = done
        .iter()
        .flat_map(|h| h.per_group_ms.iter().copied())
        .collect();
    let totals: Vec<f64> = done.iter().map(|h| h.total_ms()).collect();
    (report::median(&per_group), report::median(&totals))
}

/// A simulated system under test.
pub struct SimRig<S> {
    /// The world.
    pub w: World,
    /// Name-server nodes.
    pub servers: Vec<NodeId>,
    /// Member nodes; member `i` has ledger bit `i`.
    pub apps: Vec<NodeId>,
    /// Where members record deliveries and views.
    pub books: SharedBooks,
    /// Program counters harvested since the last [`SimRig::take_counters`].
    counters: Counters,
    /// Set once the run hit the wall-clock guard; the world then stops.
    pub overrun: bool,
    _substrate: PhantomData<S>,
}

impl<S: HwgSubstrate + 'static> SimRig<S> {
    /// Two name servers and `apps` members on `cfg`, all wrapped for
    /// tracing when `traced`. Delivery later than `limit_us` fails.
    pub fn new(seed: u64, apps: usize, cfg: &LwgConfig, traced: bool, limit_us: u64) -> Self {
        let mut w = World::new(WorldConfig {
            seed,
            ..WorldConfig::default()
        });
        let books = Arc::new(Mutex::new(Books {
            ledger: Ledger::new(seed, limit_us, 1),
            views: ViewTracker::default(),
        }));
        let servers: Vec<NodeId> = (0..2u32)
            .map(|i| {
                let ns = NameServer::new(NodeId(i), vec![NodeId(1 - i)], NamingConfig::default());
                w.add_node(hosted(ns, traced, Layer::Naming, Layer::Sim))
            })
            .collect();
        let apps = (0..apps as u32)
            .map(|i| {
                let me = NodeId(2 + i);
                let m = Member::<S>::new(me, i, &servers, cfg.clone(), books.clone());
                w.add_node(hosted(m, traced, Layer::Core, Layer::Sim))
            })
            .collect();
        SimRig {
            w,
            servers,
            apps,
            books,
            counters: Counters::default(),
            overrun: false,
            _substrate: PhantomData,
        }
    }

    /// Ledger bit mask of `members`.
    pub fn mask(&self, members: &[NodeId]) -> u32 {
        members
            .iter()
            .filter_map(|m| self.apps.iter().position(|a| a == m))
            .fold(0, |acc, i| acc | 1 << i)
    }

    /// Runs the world to `t` as one `sim` span, then harvests and resets
    /// the metric registry (which would otherwise grow with every message).
    /// Past the wall-clock guard ([`report::deadline`]) the world no longer
    /// advances and [`SimRig::overrun`] is set.
    pub fn run_until(&mut self, t: SimTime) {
        let (w, overrun) = (&mut self.w, &mut self.overrun);
        spans::span(Layer::Sim, 0, || {
            while w.now() < t && !*overrun {
                *overrun = Instant::now() > report::deadline();
                w.run_until(t.min(w.now() + SLICE));
            }
        });
        self.counters.harvest(self.w.metrics());
        self.w.metrics_mut().reset();
    }

    /// Counters since the previous call.
    pub fn take_counters(&mut self) -> Counters {
        std::mem::take(&mut self.counters)
    }

    /// Arms the view tracker at `from` and runs until every tracked group
    /// is full at every member; returns how long that took after `from`,
    /// or `None` past [`CONVERGE_LIMIT`].
    pub fn await_full_views(&mut self, from: SimTime) -> Option<Heal> {
        if self.w.now() < from {
            self.run_until(from);
        }
        lock(&self.books).views.arm(from.as_micros());
        let deadline = from + CONVERGE_LIMIT;
        loop {
            let converged = {
                let b = lock(&self.books);
                b.views.converged_at().map(|at| Heal {
                    total: SimTime::from_micros(at).saturating_since(from),
                    per_group_ms: b
                        .views
                        .per_group_us()
                        .iter()
                        .map(|&us| us as f64 / 1e3)
                        .collect(),
                })
            };
            if converged.is_some() {
                return converged;
            }
            if self.w.now() >= deadline || self.overrun {
                return None;
            }
            let next = self.w.now() + CONVERGE_STEP;
            self.run_until(next);
        }
    }

    /// Has every member of every group in `groups` join it (member `k` of
    /// group `g` at `g * group_gap + k * member_gap` from now), waits until
    /// the views are full, then lets the system settle until `settle`
    /// after the first join. Returns the time from the last join call to
    /// full views.
    pub fn form(
        &mut self,
        groups: &[(LwgId, Vec<NodeId>)],
        group_gap: SimDuration,
        member_gap: SimDuration,
        settle: SimDuration,
    ) -> Option<Heal> {
        let t0 = self.w.now();
        let mut last = t0;
        for (g, (lwg, members)) in groups.iter().enumerate() {
            lock(&self.books).views.expect(*lwg, members);
            for (k, &m) in members.iter().enumerate() {
                let at =
                    t0 + group_gap.saturating_mul(g as u64) + member_gap.saturating_mul(k as u64);
                last = last.max(at);
                let lwg = *lwg;
                self.w
                    .invoke_at(at, m, move |n: &mut Member<S>, ctx| n.join(ctx, lwg));
            }
        }
        let took = self.await_full_views(last);
        if self.w.now() < t0 + settle {
            self.run_until(t0 + settle);
        }
        took
    }
}

/// `k` distinct elements of `pool`, drawn with `rng`.
pub fn pick<T: Copy>(rng: &mut SimRng, pool: &[T], k: usize) -> Vec<T> {
    let mut v = pool.to_vec();
    let k = k.min(v.len());
    for i in 0..k {
        let j = rng.range(i as u64, v.len() as u64) as usize;
        v.swap(i, j);
    }
    v.truncate(k);
    v
}
