//! `net_loopback`: the LWG stack over real UDP on loopback, in one process.
//!
//! A name server and two members each run on their own `NetRuntime`
//! thread. Both members join one LWG. Member A then multicasts 64-byte
//! messages open loop at staged rates ([`RATES`]), each stage an equal
//! share of `--seconds`, stopping after the first stage that fails; every
//! member checks what it delivers, and member B's deliveries are timed
//! against a clock shared by all threads of the process. The name server
//! is idle after set-up, so at most two threads are busy.

use crate::adapters::{hosted, Timed};
use crate::layers::{self, Counters, NetFigures, Window};
use crate::ledger::{LatencyHist, Ledger};
use crate::member::{lock, Books, Member, SharedBooks, ViewTracker};
use crate::report::{self, median, ratio, Report};
use crate::spans::{self, Layer, Tracer};
use plwg_hwg::HwgSubstrate;
use plwg_naming::{LwgId, NameServer, NamingConfig};
use plwg_net::{NetOptions, NetRuntime, NetSubstrate};
use plwg_sim::{NodeId, Process, SimDuration, Transport};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered rates of the stages, messages per second.
pub const RATES: [u64; 4] = [1_000, 2_000, 4_000, 8_000];
/// Latency limit on p99, and the limit past which a delivery fails.
const LIMIT_US: u64 = 100_000;
/// A stage passes when at least this share of its deliveries happened
/// within [`GRACE`] after it ended (no growing backlog).
const MIN_RATIO: f64 = 0.999;
const GRACE: Duration = Duration::from_millis(200);
/// How long the whole set-up (bind, connect, join, full views) may take.
const SETUP_LIMIT: Duration = Duration::from_secs(60);
const SETUPS: usize = 5;
const GROUP: LwgId = LwgId(1);
const NS: NodeId = NodeId(0);
const A: NodeId = NodeId(2);
const B: NodeId = NodeId(3);
/// Ledger bits of the members.
const BOTH: u32 = 0b11;

/// Run phases, advanced by the main thread and member A.
const SETUP: u8 = 0;
const WINDOW: u8 = 1;
const CLOSED: u8 = 2;
const STOP: u8 = 3;

/// State shared by the threads of one set-up.
struct Shared {
    traced: bool,
    epoch: Instant,
    books: SharedBooks,
    phase: AtomicU8,
    /// Latest join call, µs since `epoch`.
    joined_us: AtomicU64,
    stage_s: f64,
}

impl Shared {
    fn phase(&self) -> u8 {
        self.phase.load(Ordering::SeqCst)
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// What one thread measured over the window.
#[derive(Default)]
struct Out {
    tracer: Option<Tracer>,
    counters: Counters,
    busy_ns: u64,
    window_ns: u64,
    /// Member A only: generator lateness and stage verdicts.
    gen_late: Option<LatencyHist>,
    passed: Vec<bool>,
    stages_ns: Vec<u64>,
}

/// Per-thread window bookkeeping: CPU time, counters and the tracer.
struct Meter {
    started: Option<(Instant, u64)>,
    out: Out,
}

impl Meter {
    fn new() -> Meter {
        Meter {
            started: None,
            out: Out::default(),
        }
    }

    /// Opens or closes the window according to the shared phase.
    fn tick(&mut self, sh: &Shared, rt: &mut NetRuntime) {
        let phase = sh.phase();
        if phase >= WINDOW && self.started.is_none() {
            rt.metrics().reset();
            if sh.traced {
                spans::install(100_000);
            }
            self.started = Some((Instant::now(), report::thread_cpu_ns()));
        }
        if phase >= CLOSED && self.out.window_ns == 0 {
            if let Some((t0, cpu0)) = self.started {
                self.out.window_ns = t0.elapsed().as_nanos().max(1) as u64;
                self.out.busy_ns = report::thread_cpu_ns().saturating_sub(cpu0);
                self.out.tracer = spans::take();
                self.out.counters.harvest(rt.registry());
            }
        }
    }
}

type Book = Vec<(NodeId, SocketAddr)>;

/// Binds a runtime, publishes its address and waits for the book.
fn connect(
    me: NodeId,
    tx: &mpsc::Sender<(NodeId, SocketAddr)>,
    rx: &mpsc::Receiver<Book>,
) -> NetRuntime {
    let mut rt = NetRuntime::bind(me, "127.0.0.1:0", NetOptions::default())
        .expect("bind a loopback UDP socket");
    tx.send((me, rt.local_addr().expect("bound socket has an address")))
        .expect("main thread is waiting for addresses");
    for (node, addr) in rx.recv().expect("main thread sends the address book") {
        rt.add_peer(node, addr);
    }
    rt
}

fn run_name_server(sh: &Shared, mut rt: NetRuntime) -> Out {
    let mut p = hosted(
        NameServer::new(NS, vec![], NamingConfig::default()),
        sh.traced,
        Layer::Naming,
        Layer::Net,
    );
    let mut meter = Meter::new();
    while sh.phase() < STOP {
        rt.run_for(p.as_mut(), SimDuration::from_millis(5));
        meter.tick(sh, &mut rt);
    }
    meter.out
}

fn member_of<S: HwgSubstrate + 'static>(p: &mut Box<dyn Process>) -> &mut Member<S> {
    p.as_any_mut()
        .downcast_mut::<Member<S>>()
        .expect("the hosted process is a benchmark member")
}

fn run_member<S: HwgSubstrate + 'static>(sh: &Shared, mut rt: NetRuntime, me: NodeId) -> Out {
    let bit = u32::from(me == B);
    let m = Member::<S>::new(me, bit, &[NS], super::fanout::config(), sh.books.clone())
        .on_wall_clock(sh.epoch);
    let mut p = hosted(m, sh.traced, Layer::Core, Layer::Net);
    // The first turn delivers on_start (arming the service's timers).
    rt.run_for(p.as_mut(), SimDuration::from_millis(20));
    member_of::<S>(&mut p).join(&mut rt, GROUP);
    sh.joined_us.fetch_max(sh.now_us(), Ordering::SeqCst);
    let mut meter = Meter::new();
    while sh.phase() < STOP {
        if me == A && sh.phase() == WINDOW {
            meter.tick(sh, &mut rt);
            generate::<S>(sh, &mut rt, &mut p, &mut meter.out);
            sh.phase.store(CLOSED, Ordering::SeqCst);
        }
        rt.run_for(p.as_mut(), SimDuration::from_millis(5));
        meter.tick(sh, &mut rt);
    }
    meter.out
}

/// Member A's open-loop generator: the stages of [`RATES`].
fn generate<S: HwgSubstrate + 'static>(
    sh: &Shared,
    rt: &mut NetRuntime,
    p: &mut Box<dyn Process>,
    out: &mut Out,
) {
    let mut late = LatencyHist::default();
    for (stage, &rate) in RATES.iter().enumerate() {
        let t0 = Instant::now();
        let start_us = sh.now_us();
        let len_us = (sh.stage_s * 1e6) as u64;
        let mut k = 0u64;
        loop {
            let now = sh.now_us();
            if now >= start_us + len_us {
                break;
            }
            let mut due = start_us + k * 1_000_000 / rate;
            while due <= now && due < start_us + len_us {
                late.record(sh.now_us().saturating_sub(due));
                member_of::<S>(p).multicast(rt, GROUP, stage as u8, due, BOTH);
                k += 1;
                due = start_us + k * 1_000_000 / rate;
            }
            let wait = due.saturating_sub(sh.now_us()).max(1);
            rt.run_for(p.as_mut(), SimDuration::from_micros(wait));
        }
        // Let the tail of the stage arrive, then judge it.
        let grace_end = Instant::now() + GRACE;
        while Instant::now() < grace_end {
            rt.run_for(p.as_mut(), SimDuration::from_millis(5));
        }
        out.stages_ns.push(t0.elapsed().as_nanos() as u64);
        let b = lock(&sh.books);
        let (expected, got, _) = b.ledger.class_counts(stage..stage + 1);
        let p99 = b.ledger.hist_of(stage..stage + 1).quantile_ms(0.99);
        let pass = ratio(got as f64, expected as f64) >= MIN_RATIO
            && p99.is_some_and(|ms| ms * 1000.0 <= LIMIT_US as f64);
        out.passed.push(pass);
        if !pass {
            break;
        }
    }
    out.gen_late = Some(late);
}

/// One running set-up: three threads and their shared state.
struct Rig {
    sh: Arc<Shared>,
    threads: Vec<(&'static str, JoinHandle<Out>)>,
    setup_s: f64,
    /// From the later join call to full views at both members.
    formed: Option<Duration>,
}

fn start<S: HwgSubstrate + 'static>(seed: u64, traced: bool, stage_s: f64) -> Rig {
    let t0 = Instant::now();
    let mut views = ViewTracker::default();
    views.expect(GROUP, &[A, B]);
    views.arm(0);
    let sh = Arc::new(Shared {
        traced,
        epoch: Instant::now(),
        books: Arc::new(Mutex::new(Books {
            ledger: Ledger::new(seed, LIMIT_US, RATES.len()),
            views,
        })),
        phase: AtomicU8::new(SETUP),
        joined_us: AtomicU64::new(0),
        stage_s,
    });
    let (addr_tx, addr_rx) = mpsc::channel();
    let mut book_txs = Vec::new();
    let mut threads = Vec::new();
    for (name, me) in [("ns", NS), ("a", A), ("b", B)] {
        let (book_tx, book_rx) = mpsc::channel::<Book>();
        book_txs.push(book_tx);
        let (sh, addr_tx) = (Arc::clone(&sh), addr_tx.clone());
        let handle = std::thread::Builder::new()
            .name(format!("lwgbench-{name}"))
            .spawn(move || {
                let rt = connect(me, &addr_tx, &book_rx);
                if me == NS {
                    run_name_server(&sh, rt)
                } else {
                    run_member::<S>(&sh, rt, me)
                }
            })
            .expect("spawn a runtime thread");
        threads.push((name, handle));
    }
    let book: Book = (0..3)
        .map(|_| {
            addr_rx
                .recv()
                .expect("every runtime thread publishes its address")
        })
        .collect();
    for tx in book_txs {
        tx.send(book.clone())
            .expect("runtime thread waits for the book");
    }
    let deadline = Instant::now() + SETUP_LIMIT;
    let formed = loop {
        let converged = lock(&sh.books).views.converged_at();
        if let Some(at) = converged {
            let joined = sh.joined_us.load(Ordering::SeqCst);
            break Some(Duration::from_micros(at.saturating_sub(joined)));
        }
        if Instant::now() > deadline {
            break None;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    Rig {
        sh,
        threads,
        setup_s: t0.elapsed().as_secs_f64(),
        formed,
    }
}

impl Rig {
    /// Runs the measured window (if the set-up converged), stops every
    /// thread and waits for it.
    fn finish(self, measure: bool) -> (Arc<Shared>, Vec<(&'static str, Out)>, Option<Duration>) {
        if measure && self.formed.is_some() {
            self.sh.phase.store(WINDOW, Ordering::SeqCst);
            let limit = Instant::now()
                + Duration::from_secs_f64(self.sh.stage_s * RATES.len() as f64)
                + SETUP_LIMIT;
            while self.sh.phase() < CLOSED && Instant::now() < limit {
                std::thread::sleep(Duration::from_millis(5));
            }
            self.sh.phase.store(CLOSED, Ordering::SeqCst);
            // Let every thread close its window before stopping.
            std::thread::sleep(Duration::from_millis(50));
        }
        self.sh.phase.store(STOP, Ordering::SeqCst);
        let outs = self
            .threads
            .into_iter()
            .map(|(name, h)| (name, h.join().expect("runtime thread panicked")))
            .collect();
        (self.sh, outs, self.formed)
    }
}

/// The measured window of one set-up.
struct Measured {
    outs: Vec<(&'static str, Out)>,
    sh: Arc<Shared>,
    formed: Option<Duration>,
}

impl Measured {
    fn out(&self, name: &str) -> &Out {
        &self
            .outs
            .iter()
            .find(|(n, _)| *n == name)
            .expect("thread ran")
            .1
    }

    fn deliveries(&self) -> u64 {
        lock(&self.sh.books).ledger.delivered()
    }

    fn busy_ns(&self) -> u64 {
        self.outs.iter().map(|(_, o)| o.busy_ns).sum()
    }
}

fn measure<S: HwgSubstrate + 'static>(seed: u64, traced: bool, seconds: f64) -> Measured {
    let rig = start::<S>(seed, traced, seconds / RATES.len() as f64);
    let (sh, outs, formed) = rig.finish(true);
    Measured { outs, sh, formed }
}

fn check(r: &mut Report, m: &Measured) {
    let v = lock(&m.sh.books).ledger.verdict();
    let failed_stage = m.out("a").passed.iter().any(|p| !p);
    let unformed = u64::from(m.formed.is_none());
    r.correct &= v.duplicates == 0 && v.corrupt == 0 && v.strays == 0 && unformed == 0;
    r.attempted += v.attempted + 1;
    r.failed += v.failed + unformed;
    if !r.correct || failed_stage {
        r.note(format!(
            "net_loopback: {v:?}; set-up formed: {}; stages passed: {:?}",
            m.formed.is_some(),
            m.out("a").passed
        ));
    }
}

/// Runs `net_loopback` and reports its end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Report {
    let mut r = Report::new();
    let mut setup_s = Vec::new();
    let mut formed = Vec::new();
    for _ in 1..SETUPS {
        let rig = start::<NetSubstrate>(seed, false, 0.0);
        setup_s.push(rig.setup_s);
        let (_, _, f) = rig.finish(false);
        r.correct &= f.is_some();
        formed.push(f);
    }
    let rig = start::<NetSubstrate>(seed, false, seconds / RATES.len() as f64);
    setup_s.push(rig.setup_s);
    let (sh, outs, f) = rig.finish(true);
    formed.push(f);
    let m = Measured {
        outs,
        sh,
        formed: f,
    };
    check(&mut r, &m);
    let a = m.out("a");
    let wall_s = a.window_ns as f64 / 1e9;
    let formed_ms: Vec<f64> = formed
        .iter()
        .flatten()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    let passed = a.passed.iter().take_while(|p| **p).count();
    let b = lock(&m.sh.books);
    r.metric("setup_s", median(&setup_s), "s");
    r.metric(
        "deliveries_per_s",
        ratio(b.ledger.delivered() as f64, wall_s),
        "1/s",
    );
    let hist = b.ledger.merged_hist();
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
    // One group per set-up: its formation is both the per-group time and
    // the time until every group is full.
    r.metric("heal_p50_ms", median(&formed_ms), "ms");
    r.metric("heal_max_ms", median(&formed_ms), "ms");
    let stages_s: Vec<f64> = a.stages_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
    r.metric("cycle_wall_s", median(&stages_s), "s");
    r.metric(
        "max_rate_per_s",
        passed.checked_sub(1).map_or(0.0, |i| RATES[i] as f64),
        "1/s",
    );
    r.metric("rss_peak_mib", report::rss_peak_mib(), "MiB");
    let per_stage: Vec<String> = (0..a.passed.len())
        .map(|s| {
            let h = b.ledger.hist_of(s..s + 1);
            format!(
                "{}/s p50 {:.3} p99 {:.3} ms",
                RATES[s],
                h.quantile_ms(0.5).unwrap_or(0.0),
                h.quantile_ms(0.99).unwrap_or(0.0)
            )
        })
        .collect();
    r.note(format!(
        "net_loopback: {} deliveries in {wall_s:.2} s; stages {per_stage:?}; set-ups {setup_s:?} s; \
         formation {formed_ms:?} ms",
        b.ledger.delivered()
    ));
    r
}

/// Runs `net_loopback` untraced and then traced for half of `seconds`
/// each, and reports the per-layer metrics of the traced half.
pub fn run_traced(seed: u64, seconds: f64) -> (Report, Vec<(&'static str, Tracer)>) {
    let mut r = Report::new();
    let base = measure::<NetSubstrate>(seed, false, seconds / 2.0);
    check(&mut r, &base);
    let mut m = measure::<Timed<NetSubstrate>>(seed, true, seconds / 2.0);
    check(&mut r, &m);

    let mut merged = Tracer::new(0);
    let mut counters = Counters::default();
    let mut tracers = Vec::new();
    for (name, out) in &mut m.outs {
        if let Some(t) = out.tracer.take() {
            merged.absorb(&t);
            tracers.push((*name, t));
        }
        let c = out.counters;
        counters.add(&c);
    }
    let a = m.out("a");
    let (b_out, ns_out) = (m.out("b"), m.out("ns"));
    let busy_frac = |o: &Out| ratio(o.busy_ns as f64, o.window_ns as f64);
    let cpu_per_delivery = |m: &Measured| ratio(m.busy_ns() as f64, m.deliveries() as f64);
    let late = a.gen_late.clone().unwrap_or_default();
    let transit = lock(&m.sh.books)
        .ledger
        .transit()
        .quantile_ms(0.5)
        .unwrap_or(0.0);
    let net = NetFigures {
        busy_frac: busy_frac(a).max(busy_frac(b_out)),
        busy_ns: m.busy_ns(),
        // Every datagram of the window is sent and received by one of the
        // three runtimes; windows close a few ms apart, so a handful of
        // datagrams in flight at the edges may show.
        dgram_loss: counters.dgram_tx as f64 - counters.dgram_rx as f64,
        gen_late_p50_ms: late.quantile_ms(0.5).unwrap_or(0.0),
        gen_late_p99_ms: late.quantile_ms(0.99).unwrap_or(0.0),
        transit_p50_ms: transit,
    };
    let deliveries = m.deliveries();
    let window = Window {
        tracer: &merged,
        counters,
        deliveries,
        cycles: a.passed.len() as f64,
        heals: 0.0,
        wall_ns: a.window_ns,
        net,
        overhead_frac: ratio(cpu_per_delivery(&m), cpu_per_delivery(&base)) - 1.0,
    };
    layers::per_layer(&mut r, &window);
    let d = deliveries as f64;
    r.note(format!(
        "net_loopback traced: p50 from due {:.3} ms = generator lateness p50 {:.3} ms + transit p50 {transit:.3} ms; \
         per delivery: core {:.0} ns, vsync {:.0} ns, net {:.0} ns self; ns thread busy {:.1}%",
        lock(&m.sh.books).ledger.merged_hist().quantile_ms(0.5).unwrap_or(0.0),
        net.gen_late_p50_ms,
        ratio(merged.totals(Layer::Core).self_ns as f64, d),
        ratio(merged.totals(Layer::Vsync).self_ns as f64, d),
        r.get("net.self_ns_per_delivery").unwrap_or(0.0),
        busy_frac(ns_out) * 100.0,
    ));
    (r, tracers)
}
