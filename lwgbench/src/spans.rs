//! In-memory span tracer: the per-layer split of a traced run.
//!
//! The benchmark wraps each call it makes into a layer (a simulator step,
//! a process callback, a substrate call, a transport send) in a span. A
//! span's *self time* is its duration minus the durations of its direct
//! children; because children nest strictly inside their parent, the self
//! times of all spans under one root add up to the root's duration.
//! Allocations are attributed the same way, from the benchmark's counting
//! allocator.
//!
//! Self times are aggregated online, so a run of any length needs only the
//! stack of open spans. The first [`Tracer::new`]`(cap)` spans are also
//! kept as records (name, start, end, parent, message id) and written out
//! when the run ends.
//!
//! Tracing is per thread and off unless [`install`] was called on that
//! thread; [`span`] is then a single thread-local check.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// A layer of the stack, named after its crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `plwg-sim`: the `World` event loop and simulated network.
    Sim,
    /// `plwg-net`: the `NetRuntime` reactor, peer pool and socket.
    Net,
    /// `plwg-vsync`: the HWG stack behind `HwgSubstrate`.
    Vsync,
    /// `plwg-core`: `LwgService`.
    Core,
    /// `plwg-naming`: `NameServer`.
    Naming,
    /// The benchmark's own application code (delivery bookkeeping).
    Bench,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 6] = [
        Layer::Sim,
        Layer::Net,
        Layer::Vsync,
        Layer::Core,
        Layer::Naming,
        Layer::Bench,
    ];

    /// The layer's metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Sim => "sim",
            Layer::Net => "net",
            Layer::Vsync => "vsync",
            Layer::Core => "core",
            Layer::Naming => "naming",
            Layer::Bench => "bench",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer the span times.
    pub layer: Layer,
    /// Start, in ns since the tracer was installed.
    pub start_ns: u64,
    /// End, in ns since the tracer was installed.
    pub end_ns: u64,
    /// Index of the parent span in [`Tracer::spans`], if recorded.
    pub parent: Option<u32>,
    /// Benchmark message id the span works on (0 when not known).
    pub msg: u64,
}

/// Aggregated cost of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Span time minus child-span time, summed.
    pub self_ns: u64,
    /// Allocations made in the layer's spans outside its child spans.
    pub self_allocs: u64,
}

struct Open {
    layer: Layer,
    start_ns: u64,
    allocs0: u64,
    child_ns: u64,
    child_allocs: u64,
    slot: Option<u32>,
}

/// The per-thread span aggregator.
pub struct Tracer {
    epoch: Instant,
    open: Vec<Open>,
    totals: [LayerTotals; 6],
    spans: Vec<Span>,
    cap: usize,
    frames: u64,
    bytes: u64,
}

impl Tracer {
    /// A tracer that keeps the first `cap` span records.
    pub fn new(cap: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            open: Vec::with_capacity(64),
            totals: [LayerTotals::default(); 6],
            spans: Vec::with_capacity(cap),
            cap,
            frames: 0,
            bytes: 0,
        }
    }

    /// Opens a span of `layer` at `t_ns` with the allocator at `allocs`.
    pub fn enter(&mut self, layer: Layer, t_ns: u64, allocs: u64, msg: u64) {
        let slot = if self.spans.len() < self.cap {
            self.spans.push(Span {
                layer,
                start_ns: t_ns,
                end_ns: t_ns,
                parent: self.open.last().and_then(|o| o.slot),
                msg,
            });
            u32::try_from(self.spans.len() - 1).ok()
        } else {
            None
        };
        self.open.push(Open {
            layer,
            start_ns: t_ns,
            allocs0: allocs,
            child_ns: 0,
            child_allocs: 0,
            slot,
        });
    }

    /// Closes the innermost open span at `t_ns` with the allocator at
    /// `allocs`. A close without an open span is ignored.
    pub fn exit(&mut self, t_ns: u64, allocs: u64) {
        let Some(o) = self.open.pop() else {
            return;
        };
        let dur = t_ns.saturating_sub(o.start_ns);
        let made = allocs.saturating_sub(o.allocs0);
        let t = &mut self.totals[o.layer.index()];
        t.self_ns += dur.saturating_sub(o.child_ns);
        t.self_allocs += made.saturating_sub(o.child_allocs);
        if let Some(s) = o.slot.and_then(|i| self.spans.get_mut(i as usize)) {
            s.end_ns = t_ns;
        }
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
            parent.child_allocs += made;
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Per-layer totals.
    pub fn totals(&self, layer: Layer) -> LayerTotals {
        self.totals[layer.index()]
    }

    /// Sum of every layer's self time.
    pub fn total_self_ns(&self) -> u64 {
        self.totals.iter().map(|t| t.self_ns).sum()
    }

    /// Adds `other`'s totals and wire counts (another thread's tracer of
    /// the same window); its span records stay with it.
    pub fn absorb(&mut self, other: &Tracer) {
        for (a, b) in self.totals.iter_mut().zip(&other.totals) {
            a.self_ns += b.self_ns;
            a.self_allocs += b.self_allocs;
        }
        self.frames += other.frames;
        self.bytes += other.bytes;
    }

    /// Frames and bytes counted at the `Transport` boundary.
    pub fn wire(&self) -> (u64, u64) {
        (self.frames, self.bytes)
    }

    /// The recorded span prefix.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans as tab-separated lines (`index layer start_ns
    /// end_ns parent msg`, parent `-` for a root).
    pub fn spans_tsv(&self) -> String {
        let mut out = String::from("index\tlayer\tstart_ns\tend_ns\tparent\tmsg\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.msg
            );
        }
        out
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Turns tracing on for this thread, keeping up to `cap` span records.
pub fn install(cap: usize) {
    TRACER.with(|t| *t.borrow_mut() = Some(Tracer::new(cap)));
}

/// Turns tracing off for this thread and returns what it gathered.
pub fn take() -> Option<Tracer> {
    TRACER.with(|t| t.borrow_mut().take())
}

/// Whether this thread is tracing.
pub fn enabled() -> bool {
    TRACER.with(|t| t.borrow().is_some())
}

/// Runs `f` inside a span of `layer` (just runs it when tracing is off).
pub fn span<R>(layer: Layer, msg: u64, f: impl FnOnce() -> R) -> R {
    let on = TRACER.with(|t| match t.borrow_mut().as_mut() {
        Some(tr) => {
            let now = tr.now_ns();
            tr.enter(layer, now, crate::alloc::count(), msg);
            true
        }
        None => false,
    });
    let r = f();
    if on {
        TRACER.with(|t| {
            if let Some(tr) = t.borrow_mut().as_mut() {
                let allocs = crate::alloc::count();
                let now = tr.now_ns();
                tr.exit(now, allocs);
            }
        });
    }
    r
}

/// Counts one frame of `bytes` crossing the `Transport` boundary.
pub fn count_wire(bytes: usize) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.frames += 1;
            tr.bytes += bytes as u64;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ```text
    /// sim   [0 ............................................ 100]  allocs 0→20
    ///   core  [10 ........................ 60]                     allocs 2→12
    ///     vsync [20 .......... 40]                                allocs 4→9
    ///       sim   [25 .. 30]                                      allocs 5→6
    ///   naming                       [70 .. 80]                   allocs 14→15
    /// ```
    fn synthetic() -> Tracer {
        let mut t = Tracer::new(16);
        t.enter(Layer::Sim, 0, 0, 0);
        t.enter(Layer::Core, 10, 2, 7);
        t.enter(Layer::Vsync, 20, 4, 0);
        t.enter(Layer::Sim, 25, 5, 0);
        t.exit(30, 6);
        t.exit(40, 9);
        t.exit(60, 12);
        t.enter(Layer::Naming, 70, 14, 0);
        t.exit(80, 15);
        t.exit(100, 20);
        t
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let t = synthetic();
        // sim: root 100 - core 50 - naming 10, plus the nested send 5.
        assert_eq!(t.totals(Layer::Sim).self_ns, 40 + 5);
        assert_eq!(t.totals(Layer::Core).self_ns, 50 - 20);
        assert_eq!(t.totals(Layer::Vsync).self_ns, 20 - 5);
        assert_eq!(t.totals(Layer::Naming).self_ns, 10);
        assert_eq!(t.totals(Layer::Net), LayerTotals::default());
        // Self times partition the root span exactly.
        assert_eq!(t.total_self_ns(), 100);
    }

    #[test]
    fn allocations_are_attributed_like_time() {
        let t = synthetic();
        assert_eq!(t.totals(Layer::Sim).self_allocs, (20 - 10 - 1) + 1);
        assert_eq!(t.totals(Layer::Core).self_allocs, 10 - 5);
        assert_eq!(t.totals(Layer::Vsync).self_allocs, 5 - 1);
        assert_eq!(t.totals(Layer::Naming).self_allocs, 1);
        let sum: u64 = Layer::ALL.iter().map(|&l| t.totals(l).self_allocs).sum();
        assert_eq!(sum, 20);
    }

    #[test]
    fn records_keep_parents_and_message_ids() {
        let t = synthetic();
        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].parent, None);
        assert_eq!(
            (s[1].layer, s[1].parent, s[1].msg),
            (Layer::Core, Some(0), 7)
        );
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(s[4].parent, Some(0));
        assert_eq!((s[2].start_ns, s[2].end_ns), (20, 40));
        assert!(t
            .spans_tsv()
            .lines()
            .nth(4)
            .expect("row")
            .starts_with("3\tsim\t25\t30\t2\t0"));
    }

    #[test]
    fn record_cap_does_not_change_the_totals() {
        let full = synthetic();
        let mut t = Tracer::new(2);
        t.enter(Layer::Sim, 0, 0, 0);
        t.enter(Layer::Core, 10, 2, 7);
        t.enter(Layer::Vsync, 20, 4, 0);
        t.enter(Layer::Sim, 25, 5, 0);
        t.exit(30, 6);
        t.exit(40, 9);
        t.exit(60, 12);
        t.enter(Layer::Naming, 70, 14, 0);
        t.exit(80, 15);
        t.exit(100, 20);
        assert_eq!(t.spans().len(), 2);
        for l in Layer::ALL {
            assert_eq!(t.totals(l), full.totals(l));
        }
    }

    #[test]
    fn span_is_a_no_op_until_installed() {
        assert!(!enabled());
        assert_eq!(span(Layer::Core, 0, || 3), 3);
        install(8);
        span(Layer::Sim, 0, || span(Layer::Core, 1, || count_wire(10)));
        let t = take().expect("installed");
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.wire(), (1, 10));
        assert_eq!(t.totals(Layer::Core).self_allocs, 0);
        assert!(!enabled());
    }
}
