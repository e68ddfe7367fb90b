//! Per-layer metrics of a traced window: the program's own counters, read
//! from its metric registries, plus the span tracer's self times.

use crate::report::{ratio, Report};
use crate::spans::{Layer, Tracer};
use plwg_sim::MetricsRegistry;

/// Every per-layer metric, in report order.
pub const PER_LAYER: &[&str] = &[
    "sim.self_ns_per_delivery",
    "sim.msgs_per_delivery",
    "wire.bytes_per_delivery",
    "wire.frames_per_delivery",
    "core.self_ns_per_delivery",
    "core.allocs_per_delivery",
    "core.filtered_per_delivery",
    "core.batch_occupancy",
    "vsync.self_ns_per_delivery",
    "vsync.allocs_per_delivery",
    "vsync.multicasts_per_delivery",
    "vsync.flushes_per_heal",
    "vsync.views_per_heal",
    "vsync.nack_resends",
    "vsync.self_ms_per_cycle",
    "fd.suspicions",
    "core.merges_per_heal",
    "core.switches_per_cycle",
    "core.self_ms_per_cycle",
    "naming.self_ms_per_cycle",
    "naming.reconciliations_per_heal",
    "naming.callbacks_per_heal",
    "naming.client_retries",
    "net.busy_frac",
    "net.self_ns_per_delivery",
    "net.dgrams_per_delivery",
    "net.dgram_loss",
    "net.queue_dropped",
    "net.gen_late_p50_ms",
    "net.gen_late_p99_ms",
    "net.transit_p50_ms",
    "bench.self_ns_per_delivery",
    "trace.unattributed_frac",
    "trace.overhead_frac",
];

/// Program counters summed over a window (and over processes).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Simulated-network messages (per receiver copy).
    pub sim_sent: u64,
    /// LWG deliveries counted by the service.
    pub lwg_delivered: u64,
    /// Multicasts a member examined and filtered.
    pub lwg_filtered: u64,
    /// Merged LWG views announced (one per `lwg.merge` event).
    pub lwg_merges: u64,
    /// LWG switches started.
    pub lwg_switches: u64,
    /// HWG multicasts, full-view and subset.
    pub hwg_multicasts: u64,
    /// HWG flush rounds.
    pub hwg_flushes: u64,
    /// HWG views installed.
    pub hwg_views: u64,
    /// NACK retransmissions.
    pub nack_resends: u64,
    /// Failure-detector suspicions.
    pub suspicions: u64,
    /// Naming gossip rounds that changed a replica.
    pub ns_reconciliations: u64,
    /// MULTIPLE-MAPPINGS callbacks.
    pub ns_callbacks: u64,
    /// Naming client retries.
    pub ns_retries: u64,
    /// Datagrams sent on real sockets.
    pub dgram_tx: u64,
    /// Datagrams received on real sockets.
    pub dgram_rx: u64,
    /// Frames dropped by peer-queue backpressure.
    pub queue_dropped: u64,
    /// Sum and count of batch-occupancy samples.
    pub occupancy: (u64, u64),
}

impl Counters {
    /// Adds `o` (another process's counters over the same window).
    pub fn add(&mut self, o: &Counters) {
        self.sim_sent += o.sim_sent;
        self.lwg_delivered += o.lwg_delivered;
        self.lwg_filtered += o.lwg_filtered;
        self.lwg_merges += o.lwg_merges;
        self.lwg_switches += o.lwg_switches;
        self.hwg_multicasts += o.hwg_multicasts;
        self.hwg_flushes += o.hwg_flushes;
        self.hwg_views += o.hwg_views;
        self.nack_resends += o.nack_resends;
        self.suspicions += o.suspicions;
        self.ns_reconciliations += o.ns_reconciliations;
        self.ns_callbacks += o.ns_callbacks;
        self.ns_retries += o.ns_retries;
        self.dgram_tx += o.dgram_tx;
        self.dgram_rx += o.dgram_rx;
        self.queue_dropped += o.queue_dropped;
        self.occupancy.0 += o.occupancy.0;
        self.occupancy.1 += o.occupancy.1;
    }

    /// Adds the counters of `m`.
    pub fn harvest(&mut self, m: &MetricsRegistry) {
        use plwg_core::keys as lwg;
        use plwg_hwg::keys as hwg;
        use plwg_naming::keys as ns;
        use plwg_net::keys as netio;
        self.sim_sent += m.counter(plwg_sim::keys::NET_SENT);
        self.lwg_delivered += m.counter(lwg::DATA_DELIVERED);
        self.lwg_filtered += m.counter(lwg::FILTERED);
        self.lwg_merges += m.counter(lwg::VIEWS_MERGED);
        self.lwg_switches += m.counter(lwg::SWITCHES);
        self.hwg_multicasts += m.counter(hwg::DATA_SENT) + m.counter(hwg::SUBSET_SENDS);
        self.hwg_flushes += m.counter(hwg::FLUSHES);
        self.hwg_views += m.counter(hwg::VIEWS_INSTALLED);
        self.nack_resends += m.counter(hwg::NACK_RESENDS);
        self.suspicions += m.counter(plwg_vsync::keys::FD_SUSPICIONS);
        self.ns_reconciliations += m.counter(ns::RECONCILIATIONS);
        self.ns_callbacks += m.counter(ns::CALLBACKS);
        self.ns_retries += m.counter(ns::CLIENT_RETRIES);
        self.dgram_tx += m.counter(netio::NETIO_DGRAM_TX);
        self.dgram_rx += m.counter(netio::NETIO_DGRAM_RX);
        self.queue_dropped += m.counter(netio::NETIO_QUEUE_DROPPED);
        if let Some(h) = m.histogram(lwg::BATCH_OCCUPANCY) {
            let s = h.summary();
            self.occupancy.0 += (s.mean * s.count as f64).round() as u64;
            self.occupancy.1 += s.count as u64;
        }
    }
}

/// Real-socket figures of a traced window (zero on the simulator).
#[derive(Debug, Clone, Copy, Default)]
pub struct NetFigures {
    /// Busiest member thread's CPU time over wall time.
    pub busy_frac: f64,
    /// Member threads' CPU time, summed (ns).
    pub busy_ns: u64,
    /// Datagrams sent minus datagrams received, over all runtimes.
    pub dgram_loss: f64,
    /// Generator lateness quantiles (ms).
    pub gen_late_p50_ms: f64,
    /// Generator lateness p99 (ms).
    pub gen_late_p99_ms: f64,
    /// Send-to-deliver time, excluding generator lateness, p50 (ms).
    pub transit_p50_ms: f64,
}

/// What a traced window did, for [`per_layer`].
pub struct Window<'a> {
    /// The merged tracer of every thread of the window.
    pub tracer: &'a Tracer,
    /// The program's counters over the window.
    pub counters: Counters,
    /// Deliveries checked by the ledger in the window.
    pub deliveries: u64,
    /// Workload cycles completed in the window.
    pub cycles: f64,
    /// Heals completed in the window.
    pub heals: f64,
    /// Wall time of the window (ns), over which self times must add up.
    pub wall_ns: u64,
    /// Real-socket figures.
    pub net: NetFigures,
    /// Untraced over traced cost, minus one.
    pub overhead_frac: f64,
}

/// Adds every [`PER_LAYER`] metric of `w` to `r`.
pub fn per_layer(r: &mut Report, w: &Window<'_>) {
    let d = w.deliveries as f64;
    let c = &w.counters;
    let t = w.tracer;
    let ns = |l: Layer| t.totals(l).self_ns as f64;
    let allocs = |l: Layer| t.totals(l).self_allocs as f64;
    let (frames, bytes) = t.wire();
    r.metric("sim.self_ns_per_delivery", ratio(ns(Layer::Sim), d), "ns");
    r.metric(
        "sim.msgs_per_delivery",
        ratio(c.sim_sent as f64, d),
        "count",
    );
    r.metric("wire.bytes_per_delivery", ratio(bytes as f64, d), "B");
    r.metric("wire.frames_per_delivery", ratio(frames as f64, d), "count");
    r.metric("core.self_ns_per_delivery", ratio(ns(Layer::Core), d), "ns");
    r.metric(
        "core.allocs_per_delivery",
        ratio(allocs(Layer::Core), d),
        "count",
    );
    r.metric(
        "core.filtered_per_delivery",
        ratio(c.lwg_filtered as f64, c.lwg_delivered as f64),
        "count",
    );
    r.metric(
        "core.batch_occupancy",
        ratio(c.occupancy.0 as f64, c.occupancy.1 as f64),
        "count",
    );
    r.metric(
        "vsync.self_ns_per_delivery",
        ratio(ns(Layer::Vsync), d),
        "ns",
    );
    r.metric(
        "vsync.allocs_per_delivery",
        ratio(allocs(Layer::Vsync), d),
        "count",
    );
    r.metric(
        "vsync.multicasts_per_delivery",
        ratio(c.hwg_multicasts as f64, d),
        "count",
    );
    let per_heal = |x: u64| ratio(x as f64, w.heals);
    let ms_per_cycle = |l: Layer| ratio(ns(l) / 1e6, w.cycles);
    r.metric("vsync.flushes_per_heal", per_heal(c.hwg_flushes), "count");
    r.metric("vsync.views_per_heal", per_heal(c.hwg_views), "count");
    r.metric("vsync.nack_resends", c.nack_resends as f64, "count");
    r.metric("vsync.self_ms_per_cycle", ms_per_cycle(Layer::Vsync), "ms");
    r.metric("fd.suspicions", c.suspicions as f64, "count");
    r.metric("core.merges_per_heal", per_heal(c.lwg_merges), "count");
    r.metric(
        "core.switches_per_cycle",
        ratio(c.lwg_switches as f64, w.cycles),
        "count",
    );
    r.metric("core.self_ms_per_cycle", ms_per_cycle(Layer::Core), "ms");
    r.metric(
        "naming.self_ms_per_cycle",
        ms_per_cycle(Layer::Naming),
        "ms",
    );
    r.metric(
        "naming.reconciliations_per_heal",
        per_heal(c.ns_reconciliations),
        "count",
    );
    r.metric(
        "naming.callbacks_per_heal",
        per_heal(c.ns_callbacks),
        "count",
    );
    r.metric("naming.client_retries", c.ns_retries as f64, "count");
    let attributed = ns(Layer::Core) + ns(Layer::Vsync) + ns(Layer::Naming) + ns(Layer::Bench);
    let net_self = if w.net.busy_ns > 0 {
        (w.net.busy_ns as f64 - attributed).max(0.0)
    } else {
        0.0
    };
    r.metric("net.busy_frac", w.net.busy_frac, "ratio");
    r.metric("net.self_ns_per_delivery", ratio(net_self, d), "ns");
    r.metric(
        "net.dgrams_per_delivery",
        ratio(c.dgram_tx as f64, d),
        "count",
    );
    r.metric("net.dgram_loss", w.net.dgram_loss, "count");
    r.metric("net.queue_dropped", c.queue_dropped as f64, "count");
    r.metric("net.gen_late_p50_ms", w.net.gen_late_p50_ms, "ms");
    r.metric("net.gen_late_p99_ms", w.net.gen_late_p99_ms, "ms");
    r.metric("net.transit_p50_ms", w.net.transit_p50_ms, "ms");
    r.metric(
        "bench.self_ns_per_delivery",
        ratio(ns(Layer::Bench), d),
        "ns",
    );
    let unattributed = if w.net.busy_ns > 0 {
        0.0
    } else {
        ratio(
            w.wall_ns as f64 - t.total_self_ns() as f64,
            w.wall_ns as f64,
        )
    };
    r.metric("trace.unattributed_frac", unattributed, "ratio");
    r.metric("trace.overhead_frac", w.overhead_frac, "ratio");
}
