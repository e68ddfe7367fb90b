//! `sim_fanout`: the steady-state LWG data plane on the simulator.
//!
//! An 8-member HWG (pinned by one group every member joins) carries 8
//! co-mapped 4-member LWGs. Two seeded senders belong to every LWG; each
//! LWG's other two members follow a fixed pattern over a seeded ordering of
//! the other six. Each sender multicasts
//! one 64-byte message per LWG per virtual millisecond, open loop on the
//! virtual clock, with the shipping `pack-2ms+subset` configuration. The
//! window runs in 50 ms virtual chunks until `--seconds` of wall time have
//! passed, then the system drains for one virtual second.

use crate::adapters::Timed;
use crate::layers::{self, NetFigures, Window};
use crate::member::{lock, Member};
use crate::report::{self, median, ratio, Report};
use crate::sim::{heal_figures, pick, Heal, SimRig};
use crate::spans::{self, Layer, Tracer};
use plwg_core::LwgConfig;
use plwg_hwg::HwgSubstrate;
use plwg_naming::LwgId;
use plwg_sim::{NodeId, SimDuration, SimRng, SimTime};
use plwg_vsync::VsyncStack;
use std::rc::Rc;
use std::time::Instant;

const APPS: usize = 8;
const LWGS: u64 = 8;
const GROUP: usize = 4;
const SENDERS: usize = 2;
/// The group every member joins, pinning the shared HWG at 8 members.
const PIN: LwgId = LwgId(100);
/// Latency limit on the virtual clock.
const LIMIT_US: u64 = 50_000;
const CHUNK: SimDuration = SimDuration::from_millis(50);
/// Chunks per sub-window. Each sub-window is timed in host-normalized
/// seconds (a host probe runs after it) and rates are medians over
/// sub-windows.
const SUB: usize = 10;
const DRAIN: SimDuration = SimDuration::from_secs(1);
const SETUPS: usize = 5;

/// The shipping data-plane configuration: pack up to 16 sends for at most
/// 2 ms, deliver co-mapped data only to interested members.
pub fn config() -> LwgConfig {
    LwgConfig {
        pack_max_msgs: 16,
        pack_delay: SimDuration::from_millis(2),
        subset_delivery: true,
        // Keep the co-mapped regime stable for the whole measurement.
        policy_interval: SimDuration::from_secs(600),
        ..LwgConfig::default()
    }
}

struct Fanout<S> {
    rig: SimRig<S>,
    senders: Vec<NodeId>,
    lwgs: Rc<Vec<(LwgId, u32)>>,
    /// Time from the last join call to full views, per formed group.
    formed: Vec<Option<Heal>>,
}

fn setup<S: HwgSubstrate + 'static>(seed: u64, traced: bool) -> Fanout<S> {
    let mut rng = SimRng::from_seed(seed ^ 0xFA40_0075);
    let mut rig = SimRig::<S>::new(seed, APPS, &config(), traced, LIMIT_US);
    let apps = rig.apps.clone();
    // The seed permutes which nodes play which part; the membership pattern
    // itself is fixed (LWG `g` adds the pair `2g, 2g + 1` of the other six
    // members, cyclically), so every seed does the same amount of work.
    let roles = pick(&mut rng, &apps, APPS);
    let (senders, others) = roles.split_at(SENDERS);
    let groups: Vec<(LwgId, Vec<NodeId>)> = (1..=LWGS)
        .map(|g| {
            let mut members = senders.to_vec();
            let at = 2 * g as usize;
            members.extend((at..at + GROUP - SENDERS).map(|i| others[i % others.len()]));
            (LwgId(g), members)
        })
        .collect();
    let mut formed = vec![rig.form(
        &[(PIN, apps)],
        SimDuration::ZERO,
        SimDuration::from_millis(300),
        SimDuration::from_secs(10),
    )];
    for g in &groups {
        formed.push(rig.form(
            std::slice::from_ref(g),
            SimDuration::ZERO,
            SimDuration::from_millis(200),
            SimDuration::from_secs(3),
        ));
    }
    let settled = rig.w.now() + SimDuration::from_secs(4);
    rig.run_until(settled);
    let lwgs = groups.iter().map(|(l, m)| (*l, rig.mask(m))).collect();
    Fanout {
        rig,
        senders: senders.to_vec(),
        lwgs: Rc::new(lwgs),
        formed,
    }
}

/// What one measured window did.
struct Measured {
    deliveries: u64,
    wall_ns: u64,
    virtual_s: f64,
    sends: u64,
    /// Per sub-window of [`SUB`] chunks: deliveries, sends and
    /// host-normalized ns.
    subs: Vec<(u64, u64, f64)>,
}

impl Measured {
    /// The median over sub-windows of `num` per host-normalized second.
    fn median_rate(&self, num: impl Fn(&(u64, u64, f64)) -> u64) -> f64 {
        let rates: Vec<f64> = self
            .subs
            .iter()
            .map(|s| ratio(num(s) as f64 * 1e9, s.2))
            .collect();
        median(&rates)
    }
}

fn schedule<S: HwgSubstrate + 'static>(f: &mut Fanout<S>, from: SimTime, to: SimTime) {
    let mut at = from;
    while at < to {
        for &s in &f.senders {
            let lwgs = Rc::clone(&f.lwgs);
            f.rig.w.invoke_at(at, s, move |m: &mut Member<S>, ctx| {
                let now = ctx.now().as_micros();
                for &(lwg, mask) in lwgs.iter() {
                    m.multicast(ctx, lwg, 0, now, mask);
                }
            });
        }
        at += SimDuration::from_millis(1);
    }
}

fn measure<S: HwgSubstrate + 'static>(f: &mut Fanout<S>, seconds: f64) -> Measured {
    let start = f.rig.w.now();
    let (d0, s0) = {
        let b = lock(&f.rig.books);
        (b.ledger.delivered(), b.ledger.registered())
    };
    f.rig.take_counters();
    let t0 = Instant::now();
    let mut t = start;
    let mut subs = Vec::new();
    let mut mark = (d0, s0, t0);
    let mut chunks = 0;
    while t0.elapsed().as_secs_f64() < seconds {
        schedule(f, t, t + CHUNK);
        t += CHUNK;
        f.rig.run_until(t);
        let mut b = lock(&f.rig.books);
        b.ledger.retire();
        chunks += 1;
        if chunks % SUB == 0 {
            let now = (b.ledger.delivered(), b.ledger.registered(), Instant::now());
            let wall = now.2.duration_since(mark.2).as_nanos() as u64;
            let norm = report::normalized_ns(wall, report::host_probe_ns());
            subs.push((now.0 - mark.0, now.1 - mark.1, norm));
            mark = (now.0, now.1, Instant::now());
        }
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let b = lock(&f.rig.books);
    Measured {
        deliveries: b.ledger.delivered() - d0,
        wall_ns,
        virtual_s: t.saturating_since(start).as_secs_f64(),
        sends: b.ledger.registered() - s0,
        subs,
    }
}

fn drain<S: HwgSubstrate + 'static>(f: &mut Fanout<S>) {
    let t = f.rig.w.now() + DRAIN;
    f.rig.run_until(t);
}

/// Adds the delivery check of `f` to `r`.
fn check<S>(r: &mut Report, f: &Fanout<S>) {
    let b = lock(&f.rig.books);
    let v = b.ledger.verdict();
    let unformed = f.formed.iter().filter(|x| x.is_none()).count() as u64;
    r.correct &= v.correct() && unformed == 0;
    r.attempted += v.attempted + f.formed.len() as u64;
    r.failed += v.failed + unformed;
    if !v.correct() || unformed > 0 {
        r.note(format!(
            "sim_fanout check failed: {v:?}, {unformed} groups never formed"
        ));
    }
}

/// Runs `sim_fanout` and reports its end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Report {
    let mut r = Report::new();
    let mut setup_s = Vec::new();
    let mut f = None;
    for _ in 0..SETUPS {
        let (built, secs) = report::normalized_secs(|| setup::<VsyncStack>(seed, false));
        setup_s.push(secs);
        f = Some(built);
    }
    let mut f = f.expect("at least one set-up");
    let m = measure(&mut f, seconds);
    drain(&mut f);
    check(&mut r, &f);
    let wall_s = m.wall_ns as f64 / 1e9;
    let (heal_p50, heal_max) = heal_figures(&f.formed);
    let b = lock(&f.rig.books);
    let hist = b.ledger.merged_hist();
    r.metric("setup_s", median(&setup_s), "s");
    r.metric("deliveries_per_s", m.median_rate(|s| s.0), "1/s");
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
    // A cycle is one virtual second of the send schedule.
    let virtual_per_sub = CHUNK.as_secs_f64() * SUB as f64;
    r.metric(
        "cycle_wall_s",
        ratio(1.0, m.median_rate(|_| 1) * virtual_per_sub),
        "s",
    );
    r.metric("max_rate_per_s", m.median_rate(|s| s.1), "1/s");
    r.metric("rss_peak_mib", report::rss_peak_mib(), "MiB");
    r.note(format!(
        "sim_fanout: {} deliveries of {} sends in {:.2} s wall / {:.2} s virtual; {} latency samples",
        m.deliveries,
        m.sends,
        wall_s,
        m.virtual_s,
        hist.count()
    ));
    r
}

/// Runs `sim_fanout` untraced and then traced for half of `seconds` each,
/// and reports the per-layer metrics of the traced half.
pub fn run_traced(seed: u64, seconds: f64) -> (Report, Tracer) {
    let mut r = Report::new();
    let mut plain = setup::<VsyncStack>(seed, false);
    let base = measure(&mut plain, seconds / 2.0);
    drain(&mut plain);
    check(&mut r, &plain);

    let mut f = setup::<Timed<VsyncStack>>(seed, true);
    spans::install(200_000);
    let m = measure(&mut f, seconds / 2.0);
    let tracer = spans::take().expect("tracer installed above");
    let counters = f.rig.take_counters();
    drain(&mut f);
    check(&mut r, &f);

    let rate = |m: &Measured| ratio(m.deliveries as f64, m.wall_ns as f64);
    let window = Window {
        tracer: &tracer,
        counters,
        deliveries: m.deliveries,
        cycles: m.virtual_s,
        heals: 0.0,
        wall_ns: m.wall_ns,
        net: NetFigures::default(),
        overhead_frac: ratio(rate(&base), rate(&m)) - 1.0,
    };
    layers::per_layer(&mut r, &window);
    let mut split = String::from("sim_fanout traced window self time:");
    for l in Layer::ALL {
        let share = ratio(tracer.totals(l).self_ns as f64, m.wall_ns as f64);
        split.push_str(&format!(" {}={:.1}%", l.name(), share * 100.0));
    }
    split.push_str(&format!(
        " unattributed (host probe and generator scheduling between chunks)={:.1}%",
        r.get("trace.unattributed_frac").unwrap_or(0.0) * 100.0
    ));
    r.note(split);
    (r, tracer)
}
