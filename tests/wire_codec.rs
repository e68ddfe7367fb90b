//! Wire-codec properties over the real protocol messages.
//!
//! Seeded (reproducible) round-trips across every variant of the four
//! wire families, rejection of truncated/trailing/misrouted frames, a
//! no-panic sweep over corrupted frames of every family (`NET` included)
//! and over random and mutated datagrams, and the golden frame snapshot
//! (`tests/golden/wire_frames.hex`) that pins the byte layout: any
//! encoding change — even a compatible-looking one — must show up as a
//! reviewed diff of that file. Regenerate with
//! `WIRE_GOLDEN_BLESS=1 cargo test --test wire_codec`.

use plwg::core::{LFlushId, LwgMsg};
use plwg::hwg::{HwgId, View, ViewId};
use plwg::naming::{LwgId, Mapping, MappingDb, NsMsg, RequestId};
use plwg::net::{pack_datagram, unpack_datagram, NetMsg};
use plwg::sim::{
    decode_frame, encode_frame, family, peek_family, Decode, Encode, Frame, NodeId, SimRng,
};
use plwg::vsync::{FlushId, FlushPurpose, Slot, VsMsg};
use std::collections::BTreeMap;
use std::fmt::Debug;

// ---------------------------------------------------------------------
// Seeded generators
// ---------------------------------------------------------------------

fn node(rng: &mut SimRng) -> NodeId {
    NodeId(rng.range(0, 16) as u32)
}

fn view_id(rng: &mut SimRng) -> ViewId {
    ViewId::new(node(rng), rng.range(0, 64))
}

fn flush_id(rng: &mut SimRng) -> FlushId {
    FlushId {
        initiator: node(rng),
        nonce: rng.range(0, 64),
    }
}

fn lflush_id(rng: &mut SimRng) -> LFlushId {
    LFlushId {
        initiator: node(rng),
        nonce: rng.range(0, 64),
    }
}

fn payload(rng: &mut SimRng) -> Frame {
    let mut bytes = vec![0u8; rng.range(0, 64) as usize];
    rng.fill_bytes(&mut bytes);
    Frame::from_vec(bytes)
}

fn members(rng: &mut SimRng) -> Vec<NodeId> {
    let base = rng.range(0, 8) as u32;
    (0..rng.range(1, 5))
        .map(|i| NodeId(base + i as u32))
        .collect()
}

fn view(rng: &mut SimRng) -> View {
    View {
        id: view_id(rng),
        members: members(rng),
        predecessors: (0..rng.range(0, 3)).map(|_| view_id(rng)).collect(),
    }
}

fn seq_map(rng: &mut SimRng) -> BTreeMap<NodeId, u64> {
    (0..rng.range(0, 4))
        .map(|_| (node(rng), rng.range(0, 1000)))
        .collect()
}

fn seq_pairs(rng: &mut SimRng) -> Vec<(NodeId, u64)> {
    (0..rng.range(0, 4))
        .map(|_| (node(rng), rng.range(0, 1000)))
        .collect()
}

fn slot(rng: &mut SimRng) -> Slot {
    if rng.chance(0.2) {
        Slot::Skip
    } else {
        Slot::Full(payload(rng))
    }
}

fn mapping(rng: &mut SimRng) -> Mapping {
    Mapping {
        lwg_view: view_id(rng),
        members: members(rng),
        hwg: HwgId(rng.range(0, 32)),
        hwg_view: view_id(rng),
    }
}

fn vs_msg(rng: &mut SimRng) -> VsMsg {
    let hwg = HwgId(rng.range(0, 32));
    match rng.range(0, 19) {
        0 => VsMsg::Heartbeat,
        1 => VsMsg::JoinProbe { hwg },
        2 => VsMsg::JoinOffer {
            hwg,
            view_id: view_id(rng),
        },
        3 => VsMsg::JoinReq { hwg },
        4 => VsMsg::LeaveReq { hwg },
        5 => VsMsg::Data {
            hwg,
            view_id: view_id(rng),
            sender: node(rng),
            seq: rng.range(1, 1000),
            payload: slot(rng),
        },
        6 => VsMsg::FlushReq {
            hwg,
            view_id: view_id(rng),
            flush: flush_id(rng),
            proposed: members(rng),
            purpose: if rng.chance(0.5) {
                FlushPurpose::ViewChange
            } else {
                FlushPurpose::Merge { leader: node(rng) }
            },
        },
        7 => VsMsg::FlushDigest {
            hwg,
            flush: flush_id(rng),
            prefix: seq_map(rng),
            extras: seq_pairs(rng),
            thin: seq_pairs(rng),
        },
        8 => VsMsg::FlushTarget {
            hwg,
            flush: flush_id(rng),
            target: seq_map(rng),
        },
        9 => VsMsg::FlushPull {
            hwg,
            flush: flush_id(rng),
            wants: seq_pairs(rng),
        },
        10 => VsMsg::FlushFill {
            hwg,
            view_id: view_id(rng),
            sender: node(rng),
            seq: rng.range(1, 1000),
            payload: slot(rng),
        },
        11 => VsMsg::FlushDone {
            hwg,
            flush: flush_id(rng),
        },
        12 => VsMsg::NewView {
            hwg,
            view: view(rng),
        },
        13 => VsMsg::Nack {
            hwg,
            view_id: view_id(rng),
            sender: node(rng),
            missing: (0..rng.range(0, 5)).map(|_| rng.range(1, 1000)).collect(),
        },
        14 => VsMsg::Stability {
            hwg,
            view_id: view_id(rng),
            prefix: seq_map(rng),
        },
        15 => VsMsg::Beacon {
            hwg,
            view_id: view_id(rng),
        },
        16 => VsMsg::MergeReq {
            hwg,
            invitee_view: view_id(rng),
            leader_view: view_id(rng),
        },
        17 => VsMsg::MergeReady {
            hwg,
            view: view(rng),
        },
        _ => VsMsg::MergeNack {
            hwg,
            invitee_view: view_id(rng),
        },
    }
}

fn lwg_msg(rng: &mut SimRng) -> LwgMsg {
    let lwg = LwgId(rng.range(0, 32));
    match rng.range(0, 13) {
        0 => LwgMsg::Data {
            lwg,
            lwg_view: view_id(rng),
            data: payload(rng),
        },
        1 => LwgMsg::Batch {
            entries: (0..rng.range(1, 5))
                .map(|_| (LwgId(rng.range(0, 32)), view_id(rng), payload(rng)))
                .collect(),
        },
        2 => LwgMsg::JoinReq { lwg },
        3 => LwgMsg::LeaveReq { lwg },
        4 => LwgMsg::Flush {
            lwg,
            flush: lflush_id(rng),
            members: members(rng),
        },
        5 => LwgMsg::FlushOk {
            lwg,
            flush: lflush_id(rng),
        },
        6 => LwgMsg::NewLwgView {
            lwg,
            flush: if rng.chance(0.5) {
                Some(lflush_id(rng))
            } else {
                None
            },
            view: view(rng),
            hwg: HwgId(rng.range(0, 32)),
        },
        7 => LwgMsg::SwitchTo {
            lwg,
            flush: lflush_id(rng),
            to: HwgId(rng.range(0, 32)),
            members: members(rng),
        },
        8 => LwgMsg::SwitchReady {
            lwg,
            flush: lflush_id(rng),
        },
        9 => LwgMsg::MergeViews,
        10 => LwgMsg::AllViews {
            views: (0..rng.range(0, 3))
                .map(|_| (LwgId(rng.range(0, 32)), view(rng)))
                .collect(),
        },
        11 => LwgMsg::Dissolved {
            lwg,
            flush: lflush_id(rng),
        },
        _ => LwgMsg::Redirect {
            lwg,
            to: HwgId(rng.range(0, 32)),
        },
    }
}

fn ns_msg(rng: &mut SimRng) -> NsMsg {
    let lwg = LwgId(rng.range(0, 32));
    let req = RequestId(rng.range(0, 1000));
    match rng.range(0, 7) {
        0 => NsMsg::Set {
            req,
            lwg,
            mapping: mapping(rng),
            preds: (0..rng.range(0, 3)).map(|_| view_id(rng)).collect(),
        },
        1 => NsMsg::Read { req, lwg },
        2 => NsMsg::TestSet {
            req,
            lwg,
            mapping: mapping(rng),
            preds: (0..rng.range(0, 3)).map(|_| view_id(rng)).collect(),
        },
        3 => NsMsg::Unset {
            req,
            lwg,
            lwg_view: view_id(rng),
        },
        4 => NsMsg::Reply {
            req,
            lwg,
            mappings: (0..rng.range(0, 3)).map(|_| mapping(rng)).collect(),
        },
        5 => NsMsg::MultipleMappings {
            lwg,
            mappings: (0..rng.range(1, 3)).map(|_| mapping(rng)).collect(),
        },
        _ => {
            let mut db = MappingDb::new();
            for _ in 0..rng.range(0, 3) {
                let m = mapping(rng);
                db.set(LwgId(rng.range(0, 32)), m, &[]);
            }
            NsMsg::Gossip { db }
        }
    }
}

fn net_msg(rng: &mut SimRng) -> NetMsg {
    let node = node(rng);
    match rng.range(0, 5) {
        0 => NetMsg::Hello { node },
        1 => NetMsg::Alive { node },
        2 => NetMsg::Bye { node },
        3 => NetMsg::Block {
            peers: members(rng),
        },
        _ => NetMsg::Unblock {
            peers: members(rng),
        },
    }
}

/// A frame of a random family, as the protocol layers would emit it.
fn any_frame(rng: &mut SimRng) -> Frame {
    match rng.range(0, 4) {
        0 => encode_frame(family::VS, &vs_msg(rng)),
        1 => encode_frame(family::LWG, &lwg_msg(rng)),
        2 => encode_frame(family::NS, &ns_msg(rng)),
        _ => encode_frame(family::NET, &net_msg(rng)),
    }
}

// ---------------------------------------------------------------------
// Round-trip properties (the enums have no PartialEq; their Debug forms
// are total, so string equality is the identity check)
// ---------------------------------------------------------------------

const SEEDS: [u64; 3] = [1, 42, 0xF00D];
const ITERS: usize = 300;

/// Encodes seeded messages of family `fam` and decodes them back.
fn round_trips<T: Encode + Decode + Debug>(fam: u64, gen: fn(&mut SimRng) -> T) {
    for seed in SEEDS {
        let mut rng = SimRng::from_seed(seed);
        for _ in 0..ITERS {
            let msg = gen(&mut rng);
            let f = encode_frame(fam, &msg);
            assert_eq!(peek_family(&f), Some(fam));
            let back: T = decode_frame(fam, &f).expect("round trip");
            assert_eq!(format!("{msg:?}"), format!("{back:?}"));
        }
    }
}

#[test]
fn vs_frames_round_trip() {
    round_trips(family::VS, vs_msg);
}

#[test]
fn lwg_frames_round_trip() {
    round_trips(family::LWG, lwg_msg);
}

#[test]
fn ns_frames_round_trip() {
    round_trips(family::NS, ns_msg);
}

#[test]
fn net_frames_round_trip() {
    round_trips(family::NET, net_msg);
}

// ---------------------------------------------------------------------
// Rejection: every malformation fails typed, never panics
// ---------------------------------------------------------------------

/// Every field of every message is required and every variable-length
/// structure carries an explicit length prefix, so *no strict prefix* of
/// a valid frame is itself a valid frame.
fn assert_prefixes_rejected<T: Encode + Decode + Debug>(fam: u64, msg: &T) {
    let f = encode_frame(fam, msg);
    for cut in 0..f.len() {
        let t = Frame::copy_from_slice(&f.bytes()[..cut]);
        assert!(
            decode_frame::<T>(fam, &t).is_err(),
            "prefix of len {cut}/{} of {msg:?} decoded",
            f.len()
        );
    }
}

/// A valid frame with one extra byte appended fails to decode.
fn assert_trailing_rejected<T: Encode + Decode>(fam: u64, msg: &T) {
    let mut long = encode_frame(fam, msg).bytes().to_vec();
    long.push(0);
    assert!(decode_frame::<T>(fam, &Frame::from_vec(long)).is_err());
}

#[test]
fn every_truncation_is_rejected() {
    let mut rng = SimRng::from_seed(7);
    for _ in 0..40 {
        assert_prefixes_rejected(family::VS, &vs_msg(&mut rng));
        assert_prefixes_rejected(family::LWG, &lwg_msg(&mut rng));
        assert_prefixes_rejected(family::NS, &ns_msg(&mut rng));
        assert_prefixes_rejected(family::NET, &net_msg(&mut rng));
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut rng = SimRng::from_seed(8);
    for _ in 0..40 {
        assert_trailing_rejected(family::VS, &vs_msg(&mut rng));
        assert_trailing_rejected(family::LWG, &lwg_msg(&mut rng));
        assert_trailing_rejected(family::NS, &ns_msg(&mut rng));
        assert_trailing_rejected(family::NET, &net_msg(&mut rng));
    }
}

#[test]
fn misrouted_family_is_rejected() {
    let f = encode_frame(family::VS, &VsMsg::Heartbeat);
    assert!(decode_frame::<NsMsg>(family::NS, &f).is_err());
    assert!(decode_frame::<LwgMsg>(family::LWG, &f).is_err());
}

/// Arbitrary corruption may decode (flipping a payload byte yields a
/// different but well-formed message) or fail typed; it must never panic,
/// and whatever does decode must itself round-trip. (Byte-for-byte
/// re-encoding is *not* asserted: a flipped map key decodes fine but
/// re-encodes in canonical sorted order.)
#[test]
fn corruption_never_panics() {
    let mut rng = SimRng::from_seed(9);
    for _ in 0..200 {
        let f = encode_frame(family::VS, &vs_msg(&mut rng));
        corrupt_and_check::<VsMsg>(&mut rng, family::VS, &f);
        let f = encode_frame(family::LWG, &lwg_msg(&mut rng));
        corrupt_and_check::<LwgMsg>(&mut rng, family::LWG, &f);
        let f = encode_frame(family::NS, &ns_msg(&mut rng));
        corrupt_and_check::<NsMsg>(&mut rng, family::NS, &f);
        let f = encode_frame(family::NET, &net_msg(&mut rng));
        corrupt_and_check::<NetMsg>(&mut rng, family::NET, &f);
    }
}

/// Flips one random bit of `f`, then decodes it as family `fam`.
fn corrupt_and_check<T: Encode + Decode + Debug>(rng: &mut SimRng, fam: u64, f: &Frame) {
    let mut bytes = f.bytes().to_vec();
    let i = rng.range(0, bytes.len() as u64) as usize;
    bytes[i] ^= 1 << rng.range(0, 8);
    let corrupt = Frame::from_vec(bytes);
    if let Ok(back) = decode_frame::<T>(fam, &corrupt) {
        let re = encode_frame(fam, &back);
        let again: T = decode_frame(fam, &re).expect("re-encode round trips");
        assert_eq!(format!("{back:?}"), format!("{again:?}"));
    }
}

/// Unpacks `dgram` and, if the envelope parses, decodes every frame with
/// its family's decoder — what the net runtime and the stack above it do
/// with a received datagram. Either step may fail; neither may panic.
fn unpack_and_decode(dgram: &[u8]) {
    let Ok((_, frames)) = unpack_datagram(dgram) else {
        return;
    };
    for f in &frames {
        let _decoded = match peek_family(f) {
            Some(family::VS) => decode_frame::<VsMsg>(family::VS, f).is_ok(),
            Some(family::LWG) => decode_frame::<LwgMsg>(family::LWG, f).is_ok(),
            Some(family::NS) => decode_frame::<NsMsg>(family::NS, f).is_ok(),
            Some(family::NET) => decode_frame::<NetMsg>(family::NET, f).is_ok(),
            _ => false,
        };
    }
}

/// Arbitrary bytes off the socket, and real multi-frame datagrams with
/// one mutation each (a bit flip, a truncation, or random trailing
/// bytes): the datagram envelope and every family decoder behind it
/// return `Ok` or `Err`, never panic.
#[test]
fn datagram_corruption_never_panics() {
    for seed in SEEDS {
        let mut rng = SimRng::from_seed(seed);
        for _ in 0..ITERS {
            let mut noise = vec![0u8; rng.range(0, 128) as usize];
            rng.fill_bytes(&mut noise);
            unpack_and_decode(&noise);

            let frames: Vec<Frame> = (0..rng.range(1, 4)).map(|_| any_frame(&mut rng)).collect();
            let mut dgram = pack_datagram(node(&mut rng), &frames);
            let (_, back) = unpack_datagram(&dgram).expect("real datagram unpacks");
            assert_eq!(back.len(), frames.len());
            match rng.range(0, 3) {
                0 => {
                    let i = rng.range(0, dgram.len() as u64) as usize;
                    dgram[i] ^= 1 << rng.range(0, 8);
                }
                1 => dgram.truncate(rng.range(0, dgram.len() as u64) as usize),
                _ => {
                    let mut tail = vec![0u8; rng.range(1, 16) as usize];
                    rng.fill_bytes(&mut tail);
                    dgram.extend_from_slice(&tail);
                }
            }
            unpack_and_decode(&dgram);
        }
    }
}

// ---------------------------------------------------------------------
// Golden snapshot
// ---------------------------------------------------------------------

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// One fixed frame per message variant, plus the interesting shapes:
/// every encoding primitive (varint, map, vec, tuple, option, nested
/// payload) appears at least once, so a codec change cannot miss the
/// snapshot.
fn golden_entries() -> Vec<(&'static str, Frame)> {
    let v1 = ViewId::new(NodeId(1), 3);
    let v2 = ViewId::new(NodeId(2), 5);
    let view = View {
        id: v2,
        members: vec![NodeId(1), NodeId(2), NodeId(4)],
        predecessors: vec![v1],
    };
    let mapping = Mapping {
        lwg_view: v1,
        members: vec![NodeId(1), NodeId(2)],
        hwg: HwgId(7),
        hwg_view: v2,
    };
    let mut db = MappingDb::new();
    db.set(LwgId(9), mapping.clone(), &[]);
    let mut entries = vec![
        ("vs.heartbeat", encode_frame(family::VS, &VsMsg::Heartbeat)),
        (
            "vs.data",
            encode_frame(
                family::VS,
                &VsMsg::Data {
                    hwg: HwgId(7),
                    view_id: v1,
                    sender: NodeId(2),
                    seq: 9,
                    payload: Slot::Full(Frame::from_vec(vec![0xde, 0xad, 0xbe, 0xef])),
                },
            ),
        ),
        (
            "vs.data.skip",
            encode_frame(
                family::VS,
                &VsMsg::Data {
                    hwg: HwgId(7),
                    view_id: v1,
                    sender: NodeId(2),
                    seq: 10,
                    payload: Slot::Skip,
                },
            ),
        ),
        (
            "vs.flush_digest",
            encode_frame(
                family::VS,
                &VsMsg::FlushDigest {
                    hwg: HwgId(7),
                    flush: FlushId {
                        initiator: NodeId(1),
                        nonce: 2,
                    },
                    prefix: BTreeMap::from([(NodeId(1), 4), (NodeId(2), 7)]),
                    extras: vec![(NodeId(3), 5)],
                    thin: vec![],
                },
            ),
        ),
        (
            "vs.new_view",
            encode_frame(
                family::VS,
                &VsMsg::NewView {
                    hwg: HwgId(7),
                    view: view.clone(),
                },
            ),
        ),
        (
            "vs.merge_req",
            encode_frame(
                family::VS,
                &VsMsg::MergeReq {
                    hwg: HwgId(7),
                    invitee_view: v1,
                    leader_view: v2,
                },
            ),
        ),
        (
            "lwg.data",
            encode_frame(
                family::LWG,
                &LwgMsg::Data {
                    lwg: LwgId(3),
                    lwg_view: v1,
                    data: Frame::from_vec(vec![0x2a]),
                },
            ),
        ),
        (
            "lwg.batch",
            encode_frame(
                family::LWG,
                &LwgMsg::Batch {
                    entries: vec![
                        (LwgId(3), v1, Frame::from_vec(vec![0x01])),
                        (LwgId(4), v2, Frame::from_vec(vec![0x02, 0x03])),
                    ],
                },
            ),
        ),
        (
            "lwg.new_lwg_view",
            encode_frame(
                family::LWG,
                &LwgMsg::NewLwgView {
                    lwg: LwgId(3),
                    flush: Some(LFlushId {
                        initiator: NodeId(1),
                        nonce: 2,
                    }),
                    view: view.clone(),
                    hwg: HwgId(7),
                },
            ),
        ),
        (
            "lwg.redirect",
            encode_frame(
                family::LWG,
                &LwgMsg::Redirect {
                    lwg: LwgId(3),
                    to: HwgId(8),
                },
            ),
        ),
        (
            "ns.set",
            encode_frame(
                family::NS,
                &NsMsg::Set {
                    req: RequestId(11),
                    lwg: LwgId(9),
                    mapping: mapping.clone(),
                    preds: vec![v1],
                },
            ),
        ),
        (
            "ns.reply",
            encode_frame(
                family::NS,
                &NsMsg::Reply {
                    req: RequestId(11),
                    lwg: LwgId(9),
                    mappings: vec![mapping.clone()],
                },
            ),
        ),
        ("ns.gossip", encode_frame(family::NS, &NsMsg::Gossip { db })),
    ];
    // One frame for every remaining variant (and both arms of `Slot`,
    // `FlushPurpose` and the `NewLwgView` flush option).
    let vs = |m: VsMsg| encode_frame(family::VS, &m);
    let lwg = |m: LwgMsg| encode_frame(family::LWG, &m);
    let ns = |m: NsMsg| encode_frame(family::NS, &m);
    let net = |m: NetMsg| encode_frame(family::NET, &m);
    let hwg = HwgId(7);
    let fid = FlushId {
        initiator: NodeId(1),
        nonce: 2,
    };
    let lfid = LFlushId {
        initiator: NodeId(1),
        nonce: 2,
    };
    let seqs = BTreeMap::from([(NodeId(1), 4), (NodeId(2), 7)]);
    entries.extend([
        ("vs.join_probe", vs(VsMsg::JoinProbe { hwg })),
        ("vs.join_offer", vs(VsMsg::JoinOffer { hwg, view_id: v2 })),
        ("vs.join_req", vs(VsMsg::JoinReq { hwg })),
        ("vs.leave_req", vs(VsMsg::LeaveReq { hwg })),
        (
            "vs.flush_req",
            vs(VsMsg::FlushReq {
                hwg,
                view_id: v1,
                flush: fid,
                proposed: view.members.clone(),
                purpose: FlushPurpose::ViewChange,
            }),
        ),
        (
            "vs.flush_req.merge",
            vs(VsMsg::FlushReq {
                hwg,
                view_id: v1,
                flush: fid,
                proposed: view.members.clone(),
                purpose: FlushPurpose::Merge { leader: NodeId(2) },
            }),
        ),
        (
            "vs.flush_target",
            vs(VsMsg::FlushTarget {
                hwg,
                flush: fid,
                target: seqs.clone(),
            }),
        ),
        (
            "vs.flush_pull",
            vs(VsMsg::FlushPull {
                hwg,
                flush: fid,
                wants: vec![(NodeId(3), 5)],
            }),
        ),
        (
            "vs.flush_fill",
            vs(VsMsg::FlushFill {
                hwg,
                view_id: v1,
                sender: NodeId(3),
                seq: 5,
                payload: Slot::Full(Frame::from_vec(vec![0x55])),
            }),
        ),
        ("vs.flush_done", vs(VsMsg::FlushDone { hwg, flush: fid })),
        (
            "vs.nack",
            vs(VsMsg::Nack {
                hwg,
                view_id: v1,
                sender: NodeId(2),
                missing: vec![3, 300],
            }),
        ),
        (
            "vs.stability",
            vs(VsMsg::Stability {
                hwg,
                view_id: v1,
                prefix: seqs,
            }),
        ),
        ("vs.beacon", vs(VsMsg::Beacon { hwg, view_id: v2 })),
        (
            "vs.merge_ready",
            vs(VsMsg::MergeReady {
                hwg,
                view: view.clone(),
            }),
        ),
        (
            "vs.merge_nack",
            vs(VsMsg::MergeNack {
                hwg,
                invitee_view: v1,
            }),
        ),
        ("lwg.join_req", lwg(LwgMsg::JoinReq { lwg: LwgId(3) })),
        ("lwg.leave_req", lwg(LwgMsg::LeaveReq { lwg: LwgId(3) })),
        (
            "lwg.flush",
            lwg(LwgMsg::Flush {
                lwg: LwgId(3),
                flush: lfid,
                members: vec![NodeId(1), NodeId(2)],
            }),
        ),
        (
            "lwg.flush_ok",
            lwg(LwgMsg::FlushOk {
                lwg: LwgId(3),
                flush: lfid,
            }),
        ),
        (
            "lwg.new_lwg_view.no_flush",
            lwg(LwgMsg::NewLwgView {
                lwg: LwgId(3),
                flush: None,
                view: view.clone(),
                hwg,
            }),
        ),
        (
            "lwg.switch_to",
            lwg(LwgMsg::SwitchTo {
                lwg: LwgId(3),
                flush: lfid,
                to: HwgId(8),
                members: vec![NodeId(1), NodeId(2)],
            }),
        ),
        (
            "lwg.switch_ready",
            lwg(LwgMsg::SwitchReady {
                lwg: LwgId(3),
                flush: lfid,
            }),
        ),
        ("lwg.merge_views", lwg(LwgMsg::MergeViews)),
        (
            "lwg.all_views",
            lwg(LwgMsg::AllViews {
                views: vec![(LwgId(3), view)],
            }),
        ),
        (
            "lwg.dissolved",
            lwg(LwgMsg::Dissolved {
                lwg: LwgId(3),
                flush: lfid,
            }),
        ),
        (
            "ns.read",
            ns(NsMsg::Read {
                req: RequestId(12),
                lwg: LwgId(9),
            }),
        ),
        (
            "ns.test_set",
            ns(NsMsg::TestSet {
                req: RequestId(13),
                lwg: LwgId(9),
                mapping: mapping.clone(),
                preds: vec![],
            }),
        ),
        (
            "ns.unset",
            ns(NsMsg::Unset {
                req: RequestId(14),
                lwg: LwgId(9),
                lwg_view: v1,
            }),
        ),
        (
            "ns.multiple_mappings",
            ns(NsMsg::MultipleMappings {
                lwg: LwgId(9),
                mappings: vec![
                    mapping.clone(),
                    Mapping {
                        hwg: HwgId(8),
                        ..mapping
                    },
                ],
            }),
        ),
        ("net.hello", net(NetMsg::Hello { node: NodeId(1) })),
        ("net.alive", net(NetMsg::Alive { node: NodeId(2) })),
        ("net.bye", net(NetMsg::Bye { node: NodeId(4) })),
        (
            "net.block",
            net(NetMsg::Block {
                peers: vec![NodeId(2), NodeId(4)],
            }),
        ),
        (
            "net.unblock",
            net(NetMsg::Unblock {
                peers: vec![NodeId(2)],
            }),
        ),
    ]);
    entries
}

#[test]
fn golden_frames_match_snapshot() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wire_frames.hex");
    let mut lines = vec![
        "# Golden wire frames: <label> <hex of the full frame, family tag included>.".to_string(),
        "# Any diff here is a wire-format change; regenerate only deliberately with".to_string(),
        "# WIRE_GOLDEN_BLESS=1 cargo test --test wire_codec".to_string(),
    ];
    for (label, frame) in golden_entries() {
        lines.push(format!("{label} {}", hex(frame.bytes())));
    }
    let want = lines.join("\n") + "\n";
    if std::env::var_os("WIRE_GOLDEN_BLESS").is_some() {
        std::fs::write(&path, &want).expect("write golden");
        return;
    }
    let got = std::fs::read_to_string(&path).expect(
        "tests/golden/wire_frames.hex missing — run WIRE_GOLDEN_BLESS=1 cargo test --test wire_codec",
    );
    assert_eq!(
        got, want,
        "wire frames drifted from the golden snapshot; if the format change is \
         intentional, re-bless with WIRE_GOLDEN_BLESS=1 cargo test --test wire_codec"
    );
}

/// The golden snapshot still decodes: the file guards compatibility of the
/// *decoder* too, not just encoder stability.
#[test]
fn golden_frames_still_decode() {
    for (label, frame) in golden_entries() {
        let fam = peek_family(&frame).expect("family tag");
        let ok = match fam {
            family::VS => decode_frame::<VsMsg>(fam, &frame).is_ok(),
            family::NS => decode_frame::<NsMsg>(fam, &frame).is_ok(),
            family::LWG => decode_frame::<LwgMsg>(fam, &frame).is_ok(),
            family::NET => decode_frame::<NetMsg>(fam, &frame).is_ok(),
            _ => false,
        };
        assert!(ok, "golden frame {label} no longer decodes");
    }
}
