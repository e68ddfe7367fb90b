//! # plwg-hwg — the heavy-weight-group substrate interface (paper Table 1)
//!
//! The paper's light-weight group service is defined *against an interface*,
//! not against one membership implementation: Table 1 lists the down-calls
//! (`Join`, `Leave`, `Send`, `StopOk`) and up-calls (`View`, `Data`, `Stop`)
//! the LWG layer exchanges with whatever heavy-weight group (HWG) substrate
//! sits below it — Horus in the original system. This crate captures that
//! seam as Rust types:
//!
//! * [`HwgSubstrate`] — the Table-1 contract. `plwg-vsync` implements it for
//!   its partitionable virtually-synchronous stack, which is also the
//!   real-socket substrate (`plwg_net::NetSubstrate` *is* `VsyncStack`);
//!   `plwg-core` provides a second, scripted implementation for
//!   deterministic protocol tests.
//! * [`HwgEvent`] — the up-call events (`View` / `Data` / `Stop`, plus the
//!   `Left` completion notice).
//! * [`Driver`] — runs any substrate as a simulated
//!   [`Process`](plwg_sim::Process), recording its up-calls (plain virtual
//!   synchrony on a node with no hand-written demux).
//! * [`HwgId`], [`ViewId`], [`View`], [`GroupStatus`], [`HwgConfig`] — the
//!   vocabulary types shared by every layer (naming service included).
//!
//! Keeping these types below both `plwg-vsync` and `plwg-core` is what lets
//! the LWG service compile with **no** dependency on any particular
//! substrate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod driver;
mod events;
mod id;
pub mod keys;
mod substrate;
mod view;
mod wire;

pub use config::HwgConfig;
pub use driver::Driver;
pub use events::{flush_key, view_key, HwgTraceEvent};
pub use id::{FlushId, HwgId, ViewId};
pub use substrate::{GroupStatus, HwgEvent, HwgSubstrate};
pub use view::View;
