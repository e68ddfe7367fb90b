//! `sim_partition`: the §6 recovery path, over and over.
//!
//! 16 members and 2 name servers run `LWGS` four-member LWGs on
//! `LwgConfig::default()`. The members form four disjoint communities of
//! four, drawn from the seed, and each LWG is one whole community, so a
//! community's 16 LWGs share one HWG (the co-mapped case of paper §6.4).
//! The run repeats a cycle until `--seconds` of wall time have passed:
//!
//! 1. a seeded random split into two sides (one name server each) that
//!    cuts one community, and so its 16 LWGs, two against two;
//! 2. ten virtual seconds apart;
//! 3. heal, then wait until every LWG shows its full view at every member
//!    (the heal time);
//! 4. two virtual seconds to settle, then one virtual second of light
//!    background traffic — one message every 10 ms on a random LWG from a
//!    random member of it — and two seconds to drain.

use crate::adapters::Timed;
use crate::layers::{self, NetFigures, Window};
use crate::member::{lock, Member};
use crate::report::{self, median, ratio, Report};
use crate::sim::{heal_figures, pick, Heal, SimRig};
use crate::spans::{self, Tracer};
use plwg_core::LwgConfig;
use plwg_hwg::HwgSubstrate;
use plwg_naming::LwgId;
use plwg_sim::{NodeId, SimDuration, SimRng};
use plwg_vsync::VsyncStack;
use std::time::Instant;

const APPS: usize = 16;
const LWGS: u64 = 64;
const COMMUNITY: usize = 4;
/// LWGs formed together in one batch during set-up.
const BATCH: usize = 16;
const APART: SimDuration = SimDuration::from_secs(10);
const TRAFFIC: SimDuration = SimDuration::from_secs(1);
const TRAFFIC_GAP: SimDuration = SimDuration::from_millis(10);
const DRAIN: SimDuration = SimDuration::from_secs(2);
/// Between full views and the background traffic.
const SETTLE: SimDuration = SimDuration::from_secs(2);
/// Latency limit of background messages, on the virtual clock.
const LIMIT_US: u64 = 250_000;
const SETUPS: usize = 5;

struct Partition<S> {
    rig: SimRig<S>,
    rng: SimRng,
    communities: Vec<Vec<NodeId>>,
    groups: Vec<(LwgId, Vec<NodeId>)>,
    masks: Vec<u32>,
    /// Time from the last join call to full views, per formation batch.
    formed: Vec<Option<Heal>>,
}

fn setup<S: HwgSubstrate + 'static>(seed: u64, traced: bool) -> Partition<S> {
    let mut rng = SimRng::from_seed(seed ^ 0x9A27_1710);
    let mut rig = SimRig::<S>::new(seed, APPS, &LwgConfig::default(), traced, LIMIT_US);
    // Four disjoint communities of four members, drawn from the seed; LWG
    // `g` is the whole of community `g mod 4`.
    let apps = pick(&mut rng, &rig.apps, APPS);
    let communities: Vec<Vec<NodeId>> = apps.chunks(COMMUNITY).map(<[NodeId]>::to_vec).collect();
    let groups: Vec<(LwgId, Vec<NodeId>)> = (1..=LWGS)
        .map(|g| {
            (
                LwgId(g),
                communities[g as usize % communities.len()].clone(),
            )
        })
        .collect();
    let formed = groups
        .chunks(BATCH)
        .map(|batch| {
            rig.form(
                batch,
                SimDuration::from_millis(50),
                SimDuration::from_millis(150),
                SimDuration::from_secs(3),
            )
        })
        .collect();
    let settled = rig.w.now() + SimDuration::from_secs(5);
    rig.run_until(settled);
    let masks = groups.iter().map(|(_, m)| rig.mask(m)).collect();
    Partition {
        rig,
        rng,
        communities,
        groups,
        masks,
        formed,
    }
}

/// What the measured cycles did.
#[derive(Default)]
struct Measured {
    heals: Vec<Option<Heal>>,
    wall_ns: u64,
    deliveries: u64,
    /// Per cycle: background deliveries, sends and host-normalized ns.
    cycles: Vec<(u64, u64, f64)>,
}

impl Measured {
    /// The median over cycles of `num` per host-normalized second.
    fn median_rate(&self, num: impl Fn(&(u64, u64, f64)) -> u64) -> f64 {
        let rates: Vec<f64> = self
            .cycles
            .iter()
            .map(|c| ratio(num(c) as f64 * 1e9, c.2))
            .collect();
        median(&rates)
    }
}

impl<S: HwgSubstrate + 'static> Partition<S> {
    /// Two sides, one name server each, that cut one community in half:
    /// the seed picks the community and which two of its members leave with
    /// the second name server, so every cycle heals the same amount of
    /// state.
    fn draw_split(&mut self) -> Vec<Vec<NodeId>> {
        let cut = self.rng.range(0, self.communities.len() as u64) as usize;
        let away = pick(&mut self.rng, &self.communities[cut], COMMUNITY / 2);
        let mut sides = vec![vec![self.rig.servers[0]], vec![self.rig.servers[1]]];
        for &a in &self.rig.apps {
            sides[usize::from(away.contains(&a))].push(a);
        }
        sides
    }

    fn traffic(&mut self) {
        let t0 = self.rig.w.now();
        let mut at = t0;
        while at < t0 + TRAFFIC {
            let g = self.rng.range(0, self.groups.len() as u64) as usize;
            let (lwg, members) = &self.groups[g];
            let (lwg, mask) = (*lwg, self.masks[g]);
            let from = pick(&mut self.rng, members, 1)[0];
            self.rig
                .w
                .invoke_at(at, from, move |m: &mut Member<S>, ctx| {
                    let now = ctx.now().as_micros();
                    m.multicast(ctx, lwg, 0, now, mask);
                });
            at += TRAFFIC_GAP;
        }
        self.rig.run_until(t0 + TRAFFIC + DRAIN);
    }

    /// One split → apart → heal → full views → traffic cycle; returns the
    /// heal time, or `None` if the views never converged.
    fn cycle(&mut self) -> Option<Heal> {
        let sides = self.draw_split();
        let now = self.rig.w.now();
        self.rig.w.split_at(now, sides);
        self.rig.run_until(now + APART);
        let healed = self.rig.w.now();
        self.rig.w.heal_at(healed);
        let took = self.rig.await_full_views(healed);
        let settled = self.rig.w.now() + SETTLE;
        self.rig.run_until(settled);
        self.traffic();
        took
    }

    fn measure(&mut self, seconds: f64) -> Measured {
        let (d0, s0) = {
            let b = lock(&self.rig.books);
            (b.ledger.delivered(), b.ledger.registered())
        };
        self.rig.take_counters();
        let t0 = Instant::now();
        let mut m = Measured::default();
        let mut mark = (d0, s0, t0);
        while t0.elapsed().as_secs_f64() < seconds {
            let heal = self.cycle();
            let failed = heal.is_none();
            m.heals.push(heal);
            let mut b = lock(&self.rig.books);
            b.ledger.retire();
            let now = (b.ledger.delivered(), b.ledger.registered(), Instant::now());
            let wall = now.2.duration_since(mark.2).as_nanos() as u64;
            let norm = report::normalized_ns(wall, report::host_probe_ns());
            m.cycles.push((now.0 - mark.0, now.1 - mark.1, norm));
            mark = (now.0, now.1, Instant::now());
            if failed {
                break;
            }
        }
        m.wall_ns = t0.elapsed().as_nanos() as u64;
        m.deliveries = lock(&self.rig.books).ledger.delivered() - d0;
        m
    }
}

/// Adds the delivery and convergence checks of `p` to `r`.
fn check<S>(r: &mut Report, p: &Partition<S>, m: &Measured) {
    let v = lock(&p.rig.books).ledger.verdict();
    let stuck = p
        .formed
        .iter()
        .chain(&m.heals)
        .filter(|x| x.is_none())
        .count() as u64;
    r.correct &= v.correct() && stuck == 0;
    r.attempted += v.attempted + (p.formed.len() + m.heals.len()) as u64;
    r.failed += v.failed + stuck;
    if !v.correct() || stuck > 0 {
        r.note(format!(
            "sim_partition check failed: {v:?}, {stuck} formations or heals never converged{}",
            if p.rig.overrun {
                " (wall-clock guard hit)"
            } else {
                ""
            }
        ));
    }
}

fn totals_ms(d: &[Option<Heal>]) -> Vec<f64> {
    d.iter().flatten().map(Heal::total_ms).collect()
}

/// Runs `sim_partition` and reports its end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Report {
    let mut r = Report::new();
    let mut setup_s = Vec::new();
    let mut p = None;
    for _ in 0..SETUPS {
        let (built, secs) = report::normalized_secs(|| setup::<VsyncStack>(seed, false));
        setup_s.push(secs);
        p = Some(built);
    }
    let mut p = p.expect("at least one set-up");
    let m = p.measure(seconds);
    check(&mut r, &p, &m);
    let wall_s = m.wall_ns as f64 / 1e9;
    let (heal_p50, heal_max) = heal_figures(&m.heals);
    let c = p.rig.take_counters();
    let b = lock(&p.rig.books);
    let hist = b.ledger.merged_hist();
    r.metric("setup_s", median(&setup_s), "s");
    r.metric("deliveries_per_s", m.median_rate(|c| c.0), "1/s");
    r.metric("deliver_p50_ms", hist.quantile_ms(0.5).unwrap_or(0.0), "ms");
    r.metric(
        "deliver_p99_ms",
        hist.quantile_ms(0.99).unwrap_or(0.0),
        "ms",
    );
    r.metric(
        "delivery_ratio",
        ratio(b.ledger.delivered() as f64, b.ledger.expected() as f64),
        "ratio",
    );
    r.metric("heal_p50_ms", heal_p50, "ms");
    r.metric("heal_max_ms", heal_max, "ms");
    r.metric("cycle_wall_s", ratio(1.0, m.median_rate(|_| 1)), "s");
    r.metric("max_rate_per_s", m.median_rate(|c| c.1), "1/s");
    r.metric("rss_peak_mib", report::rss_peak_mib(), "MiB");
    r.note(format!(
        "sim_partition: {} cycles in {wall_s:.2} s wall, heals {:?} ms, {} lwg.merge, \
         {} HWG flushes, {} background deliveries; formation {:?} ms",
        m.heals.len(),
        totals_ms(&m.heals),
        c.lwg_merges,
        c.hwg_flushes,
        m.deliveries,
        totals_ms(&p.formed)
    ));
    r
}

/// Runs `sim_partition` untraced and then traced for half of `seconds`
/// each, and reports the per-layer metrics of the traced half.
pub fn run_traced(seed: u64, seconds: f64) -> (Report, Tracer) {
    let mut r = Report::new();
    let mut plain = setup::<VsyncStack>(seed, false);
    let base = plain.measure(seconds / 2.0);
    check(&mut r, &plain, &base);

    let mut p = setup::<Timed<VsyncStack>>(seed, true);
    spans::install(200_000);
    let m = p.measure(seconds / 2.0);
    let tracer = spans::take().expect("tracer installed above");
    check(&mut r, &p, &m);
    let counters = p.rig.take_counters();
    let per_cycle = |m: &Measured| ratio(1.0, m.median_rate(|_| 1));
    let cycles = m.heals.len() as f64;
    let window = Window {
        tracer: &tracer,
        counters,
        deliveries: m.deliveries,
        cycles,
        heals: cycles,
        wall_ns: m.wall_ns,
        net: NetFigures::default(),
        overhead_frac: ratio(per_cycle(&m), per_cycle(&base)) - 1.0,
    };
    layers::per_layer(&mut r, &window);
    r.note(format!(
        "sim_partition traced: {cycles} cycles, {} lwg.merge over {cycles} heals",
        counters.lwg_merges
    ));
    (r, tracer)
}
