//! # plwg-wire — zero-copy wire codec substrate
//!
//! The bottom layer of the PLWG workspace: shared immutable byte buffers
//! ([`Frame`]) and a compact, deterministic binary codec ([`Encode`] /
//! [`Decode`] over LEB128 varints) that every protocol crate uses to put
//! its messages on the wire. This crate knows nothing about the protocols
//! themselves — each crate implements the codec for the message types it
//! owns (`plwg-vsync` for `VsMsg`, `plwg-naming` for `NsMsg`, `plwg-core`
//! for `LwgMsg`, `plwg-net` for `NetMsg`) — it only fixes the *frame
//! discipline* they share:
//!
//! ```text
//! frame := family-tag:varint body
//! body  := variant-tag:u8 field*              (per message enum)
//! field := varint | byte | len:varint bytes   (nested frames are
//!                                              length-prefixed and decode
//!                                              as zero-copy sub-slices)
//! ```
//!
//! Layouts are declared, not hand-written: [`wire_enum!`] and
//! [`wire_struct!`] generate both directions of a message's codec from
//! one statement listing its tags and fields in wire order. Three decoders
//! stay hand-written because they re-check invariants the wire cannot
//! carry: `View` (`plwg-hwg`) rejects an empty or duplicated membership,
//! and `LwgEntry` / `MappingDb` (`plwg-naming`) re-apply tombstones and
//! rebuild the derived `multi` index.
//!
//! Decoding never panics and never copies payload bytes: a nested frame
//! read via [`Reader::read_frame`] shares the incoming allocation, so a
//! batch serialized once by a sender is sliced — not re-buffered — by
//! every member that delivers it.
//!
//! Everything here is pure `std`, allocation-conscious and deterministic;
//! the simulator's `Payload` type *is* [`Frame`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod derive;
mod frame;

pub use codec::{
    decode_frame, encode_frame, peek_family, put_varint, Decode, Encode, Reader, WireError,
};
pub use frame::Frame;

/// Top-level frame family tags: the first varint of every frame that
/// travels through the simulated network names the protocol that owns it.
///
/// The tags are part of the wire format — reordering or reusing them is a
/// compatibility break (see DESIGN.md, "Wire format & zero-copy data
/// plane").
pub mod family {
    /// Virtual-synchrony stack control and data messages (`VsMsg`).
    pub const VS: u64 = 1;
    /// Naming-service messages (`NsMsg`).
    pub const NS: u64 = 2;
    /// Light-weight group service messages (`LwgMsg`) — both direct sends
    /// and the payloads carried inside HWG data multicasts.
    pub const LWG: u64 = 3;
    /// The scripted test substrate's messages (`ScriptedMsg`).
    pub const SCRIPTED: u64 = 4;
    /// Transport-level peer-pool messages of the real-socket runtime
    /// (`plwg-net`'s `NetMsg`: hello/alive/bye and harness control).
    pub const NET: u64 = 5;
}
