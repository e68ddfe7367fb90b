//! Correctness and latency bookkeeping: what was sent, to whom, and what
//! each member delivered.
//!
//! Every benchmark message is a 64-byte payload carrying its id, the time
//! it was due, the time it was actually sent, seed-derived filler and a
//! checksum over all of it. The [`Ledger`] registers each message with the
//! members that must deliver it and checks every delivery: the payload is
//! intact, the member is expected, the group matches, and the member has
//! not delivered it before. Latency runs from the due time, so a stalled
//! generator shows in it.

use plwg_naming::LwgId;
use std::collections::VecDeque;
use std::ops::Range;

/// Bytes of every benchmark payload.
pub const PAYLOAD_BYTES: usize = 64;
const CHECKED: usize = PAYLOAD_BYTES - 8;

/// The header of a benchmark payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Ledger id of the message.
    pub id: u64,
    /// When the open-loop schedule said it should be sent (µs).
    pub due_us: u64,
    /// When the generator actually sent it (µs).
    pub sent_us: u64,
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn word(bytes: &[u8], at: usize) -> Option<u64> {
    let b: [u8; 8] = bytes.get(at..at + 8)?.try_into().ok()?;
    Some(u64::from_le_bytes(b))
}

/// Encodes `stamp` with filler derived from `seed` and the message id.
pub fn encode(seed: u64, stamp: Stamp) -> Vec<u8> {
    let mut out = Vec::with_capacity(PAYLOAD_BYTES);
    for w in [stamp.id, stamp.due_us, stamp.sent_us] {
        out.extend_from_slice(&w.to_le_bytes());
    }
    let mut f = seed ^ stamp.id.rotate_left(17);
    while out.len() < CHECKED {
        f = splitmix(f);
        out.extend_from_slice(&f.to_le_bytes());
    }
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Decodes a payload, or `None` if its length, checksum or filler is not
/// what [`encode`] wrote for `seed`.
pub fn decode(seed: u64, bytes: &[u8]) -> Option<Stamp> {
    if bytes.len() != PAYLOAD_BYTES || word(bytes, CHECKED)? != fnv1a(&bytes[..CHECKED]) {
        return None;
    }
    let stamp = Stamp {
        id: word(bytes, 0)?,
        due_us: word(bytes, 8)?,
        sent_us: word(bytes, 16)?,
    };
    (encode(seed, stamp) == bytes).then_some(stamp)
}

/// A latency histogram with 1 µs buckets up to [`LatencyHist::SPAN_US`]
/// (allocated up to the largest sample seen) and exact overflow samples
/// beyond it.
#[derive(Debug, Clone, Default)]
pub struct LatencyHist {
    buckets: Vec<u32>,
    overflow: Vec<u64>,
    count: u64,
}

impl LatencyHist {
    /// Width of the bucketed range.
    pub const SPAN_US: u64 = 200_000;

    /// Records one sample.
    pub fn record(&mut self, us: u64) {
        self.count += 1;
        if us >= Self::SPAN_US {
            self.overflow.push(us);
            return;
        }
        let i = us as usize;
        if i >= self.buckets.len() {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Adds `other`'s samples.
    pub fn merge(&mut self, other: &LatencyHist) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.overflow.extend_from_slice(&other.overflow);
        self.count += other.count;
    }

    /// The `q`-quantile in ms. Time stamps are whole µs, so within its
    /// bucket the quantile is interpolated as if the bucket's samples sat
    /// evenly spread over that µs. `None` without samples.
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(0.5);
        let mut below = 0.0;
        for (us, &n) in self.buckets.iter().enumerate() {
            let n = f64::from(n);
            if n > 0.0 && below + n >= rank {
                return Some((us as f64 + (rank - below - 0.5) / n) / 1000.0);
            }
            below += n;
        }
        let mut over = self.overflow.clone();
        over.sort_unstable();
        let i = ((rank - below).ceil() as usize).clamp(1, over.len()) - 1;
        over.get(i).map(|&us| us as f64 / 1000.0)
    }
}

#[derive(Debug, Clone, Copy)]
struct Msg {
    lwg: LwgId,
    class: u8,
    due_us: u64,
    expect: u32,
    got: u32,
    late: bool,
}

/// Outcome of the delivery check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Messages registered.
    pub attempted: u64,
    /// Messages with a missing delivery or one later than the limit.
    pub failed: u64,
    /// Expected deliveries that never happened.
    pub missing: u64,
    /// Deliveries of a message a member had already delivered.
    pub duplicates: u64,
    /// Payloads that failed the checksum or named an unknown id.
    pub corrupt: u64,
    /// Deliveries at a non-member or on the wrong group.
    pub strays: u64,
}

impl Verdict {
    /// Whether the run delivered exactly once, intact, to every member.
    pub fn correct(&self) -> bool {
        self.missing == 0 && self.duplicates == 0 && self.corrupt == 0 && self.strays == 0
    }
}

/// The exactly-once delivery ledger.
///
/// Messages every member has delivered can be retired
/// ([`Ledger::retire`]), so a long run keeps only the messages still in
/// flight; a later delivery of a retired message is a duplicate.
#[derive(Debug)]
pub struct Ledger {
    seed: u64,
    limit_us: u64,
    /// Live messages; `msgs[0]` has id `base`.
    msgs: VecDeque<Msg>,
    base: u64,
    expected: u64,
    retired_late: u64,
    hists: Vec<LatencyHist>,
    transit: LatencyHist,
    delivered: u64,
    duplicates: u64,
    corrupt: u64,
    strays: u64,
}

impl Ledger {
    /// A ledger for payloads of `seed`, counting deliveries later than
    /// `limit_us` as failures, with `classes` latency histograms.
    pub fn new(seed: u64, limit_us: u64, classes: usize) -> Ledger {
        Ledger {
            seed,
            limit_us,
            msgs: VecDeque::new(),
            base: 0,
            expected: 0,
            retired_late: 0,
            hists: vec![LatencyHist::default(); classes.max(1)],
            transit: LatencyHist::default(),
            delivered: 0,
            duplicates: 0,
            corrupt: 0,
            strays: 0,
        }
    }

    /// Registers a message on `lwg` due at `due_us` that the members in
    /// bit mask `expect` must deliver; returns its id. `class` selects the
    /// latency histogram (a rate stage, say).
    pub fn register(&mut self, lwg: LwgId, class: u8, due_us: u64, expect: u32) -> u64 {
        self.msgs.push_back(Msg {
            lwg,
            class,
            due_us,
            expect,
            got: 0,
            late: false,
        });
        self.expected += u64::from(expect.count_ones());
        self.registered() - 1
    }

    /// Drops the oldest messages that every expected member has delivered.
    pub fn retire(&mut self) {
        while let Some(m) = self.msgs.front() {
            if m.got != m.expect {
                return;
            }
            self.retired_late += u64::from(m.late);
            self.msgs.pop_front();
            self.base += 1;
        }
    }

    fn live(&self, id: u64) -> Option<&Msg> {
        self.msgs
            .get(usize::try_from(id.checked_sub(self.base)?).ok()?)
    }

    /// The payload of message `id`, sent at `sent_us`.
    pub fn payload(&self, id: u64, sent_us: u64) -> Vec<u8> {
        let due_us = self.live(id).map_or(0, |m| m.due_us);
        encode(
            self.seed,
            Stamp {
                id,
                due_us,
                sent_us,
            },
        )
    }

    /// Checks one delivery of `bytes` on `lwg` at the member with bit
    /// `member`, at `now_us`. Records its latency when `timed`.
    pub fn deliver(&mut self, member: u32, lwg: LwgId, bytes: &[u8], now_us: u64, timed: bool) {
        let Some(stamp) = decode(self.seed, bytes) else {
            self.corrupt += 1;
            return;
        };
        if stamp.id < self.base {
            // Retired: every expected member had already delivered it.
            self.duplicates += 1;
            return;
        }
        let slot = usize::try_from(stamp.id - self.base).unwrap_or(usize::MAX);
        let Some(m) = self.msgs.get_mut(slot) else {
            self.corrupt += 1;
            return;
        };
        if m.due_us != stamp.due_us {
            self.corrupt += 1;
            return;
        }
        let bit = 1u32 << member;
        if m.lwg != lwg || m.expect & bit == 0 {
            self.strays += 1;
            return;
        }
        if m.got & bit != 0 {
            self.duplicates += 1;
            return;
        }
        m.got |= bit;
        self.delivered += 1;
        let lat = now_us.saturating_sub(m.due_us);
        m.late |= lat > self.limit_us;
        if timed {
            if let Some(h) = self.hists.get_mut(m.class as usize) {
                h.record(lat);
            }
            self.transit.record(now_us.saturating_sub(stamp.sent_us));
        }
    }

    /// Checked deliveries so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Messages registered so far.
    pub fn registered(&self) -> u64 {
        self.base + self.msgs.len() as u64
    }

    /// Send-to-deliver times of the timed deliveries, measured from when
    /// each message was actually sent rather than when it was due.
    pub fn transit(&self) -> &LatencyHist {
        &self.transit
    }

    /// All latency samples.
    pub fn merged_hist(&self) -> LatencyHist {
        self.hist_of(0..self.hists.len())
    }

    /// Latency samples of the classes in `classes`, merged.
    pub fn hist_of(&self, classes: Range<usize>) -> LatencyHist {
        let mut all = LatencyHist::default();
        for h in self.hists.get(classes).unwrap_or_default() {
            all.merge(h);
        }
        all
    }

    /// Over the live (unretired) messages of the classes in `classes`:
    /// deliveries expected, deliveries made, and messages delivered after
    /// the limit.
    pub fn class_counts(&self, classes: Range<usize>) -> (u64, u64, u64) {
        let (mut expected, mut got, mut late) = (0, 0, 0);
        for m in self
            .msgs
            .iter()
            .filter(|m| classes.contains(&usize::from(m.class)))
        {
            expected += u64::from(m.expect.count_ones());
            got += u64::from((m.got & m.expect).count_ones());
            late += u64::from(m.late);
        }
        (expected, got, late)
    }

    /// Expected deliveries over all registered messages.
    pub fn expected(&self) -> u64 {
        self.expected
    }

    /// The delivery check over everything registered.
    pub fn verdict(&self) -> Verdict {
        let mut v = Verdict {
            attempted: self.registered(),
            duplicates: self.duplicates,
            corrupt: self.corrupt,
            strays: self.strays,
            failed: self.retired_late,
            ..Verdict::default()
        };
        for m in &self.msgs {
            let missing = u64::from((m.expect & !m.got).count_ones());
            v.missing += missing;
            v.failed += u64::from(missing > 0 || m.late);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: LwgId = LwgId(3);

    /// Two messages to members {0, 1, 2}, delivered everywhere.
    fn clean() -> (Ledger, Vec<Vec<u8>>) {
        let mut l = Ledger::new(42, 10_000, 1);
        let a = l.register(G, 0, 100, 0b111);
        let b = l.register(G, 0, 200, 0b111);
        let pa = l.payload(a, 150);
        let pb = l.payload(b, 250);
        for member in 0..3 {
            l.deliver(member, G, &pa, 1_100, true);
            l.deliver(member, G, &pb, 1_300, true);
        }
        (l, vec![pa, pb])
    }

    #[test]
    fn payload_round_trips_and_detects_corruption() {
        let s = Stamp {
            id: 9,
            due_us: 1234,
            sent_us: 1240,
        };
        let p = encode(7, s);
        assert_eq!(p.len(), PAYLOAD_BYTES);
        assert_eq!(decode(7, &p), Some(s));
        assert_eq!(decode(8, &p), None, "filler is bound to the seed");
        for i in 0..PAYLOAD_BYTES {
            let mut bad = p.clone();
            bad[i] ^= 1;
            assert_eq!(decode(7, &bad), None, "flipped byte {i} went unnoticed");
        }
        assert_eq!(decode(7, &p[..63]), None);
    }

    #[test]
    fn exact_delivery_passes() {
        let (l, _) = clean();
        let v = l.verdict();
        assert!(v.correct(), "{v:?}");
        assert_eq!((v.attempted, v.failed, l.delivered()), (2, 0, 6));
        assert_eq!(l.hist_of(0..1).count(), 6);
    }

    #[test]
    fn a_dropped_delivery_fails_the_check() {
        let mut l = Ledger::new(42, 10_000, 1);
        let a = l.register(G, 0, 100, 0b111);
        let p = l.payload(a, 100);
        l.deliver(0, G, &p, 500, true);
        l.deliver(2, G, &p, 500, true);
        let v = l.verdict();
        assert!(!v.correct());
        assert_eq!((v.missing, v.failed), (1, 1));
    }

    #[test]
    fn a_duplicated_delivery_fails_the_check() {
        let (mut l, p) = clean();
        l.deliver(1, G, &p[0], 2_000, true);
        let v = l.verdict();
        assert!(!v.correct());
        assert_eq!(v.duplicates, 1);
        assert_eq!(
            l.delivered(),
            6,
            "the duplicate is not counted as delivered"
        );
    }

    #[test]
    fn retired_messages_stay_counted_and_catch_late_duplicates() {
        let (mut l, p) = clean();
        let c = l.register(G, 0, 300, 0b11);
        l.retire();
        assert_eq!((l.registered(), l.expected()), (3, 8));
        l.deliver(2, G, &p[1], 5_000, true);
        let pc = l.payload(c, 300);
        l.deliver(0, G, &pc, 400, true);
        let v = l.verdict();
        assert_eq!((v.attempted, v.duplicates, v.missing), (3, 1, 1));
        l.deliver(1, G, &pc, 400, true);
        l.retire();
        assert_eq!(l.verdict().missing, 0);
        assert_eq!(l.delivered(), 8);
    }

    #[test]
    fn corrupt_stray_and_late_deliveries_are_caught() {
        let (mut l, p) = clean();
        let mut bad = p[0].clone();
        bad[30] ^= 0x80;
        l.deliver(0, G, &bad, 2_000, true);
        l.deliver(5, G, &p[1], 2_000, true);
        l.deliver(0, LwgId(4), &p[1], 2_000, true);
        let v = l.verdict();
        assert_eq!((v.corrupt, v.strays), (1, 2));
        assert!(!v.correct());

        let mut l = Ledger::new(42, 1_000, 1);
        let a = l.register(G, 0, 0, 0b1);
        let pa = l.payload(a, 0);
        l.deliver(0, G, &pa, 1_001, true);
        let v = l.verdict();
        assert!(v.correct(), "late is a failure, not a violation");
        assert_eq!(v.failed, 1);
    }

    #[test]
    fn quantiles_interpolate_within_a_microsecond() {
        let mut h = LatencyHist::default();
        for us in [
            1000, 1000, 1000, 1000, 2000, 3000, 4000, 5000, 6000, 300_000,
        ] {
            h.record(us);
        }
        let near = |q: f64, ms: f64| (h.quantile_ms(q).expect("samples") - ms).abs() < 1e-9;
        assert!(near(0.5, 2.0005));
        assert!(near(0.8, 5.0005));
        assert!(near(0.2, 1.000375), "rank 2 of the four 1 ms samples");
        assert_eq!(h.quantile_ms(1.0), Some(300.0));
        assert_eq!(LatencyHist::default().quantile_ms(0.5), None);
    }
}
