//! ZeroSum-rs wire layer: the paper's per-node monitors feeding an
//! allocation-wide collector, made real.
//!
//! The crate is organised as independently testable layers:
//!
//! * [`frame`] — the versioned, checksummed, length-prefixed binary
//!   codec. Decoding hostile bytes yields typed errors, never panics
//!   (enforced by fuzz tests *and* the panic-reachability audit).
//! * [`transport`] — the [`Link`] trait and the deterministic
//!   in-process backend ([`in_proc_pair`]) that keeps every chaos
//!   differential seed-reproducible.
//! * [`tcp`] — the same contract over non-blocking loopback/cluster
//!   TCP ([`TcpLink`], [`Acceptor`]).
//! * [`fault`] — seeded [`TransportFaultPlan`]s and the backend-
//!   agnostic [`FaultyLink`] chaos wrapper (drop, corrupt, truncate,
//!   delay, reorder, disconnect, partition, kill), and the seeded
//!   [`AllocationFaultPlan`]s (node kills, stalls, delayed rejoins,
//!   clock skew) the chaos driver applies at each agent.
//! * [`agent`] — the node-side streamer: Hello/heartbeat/detail/
//!   aggregate protocol, detail shedding under backpressure, and
//!   reconnect-with-exponential-backoff (the only re-probe of a dead
//!   node) that surfaces collector-side as plain silence for the
//!   Alive→Suspect→Dead machine.
//! * [`collector`] — the bounded daemon core driving the allocation's
//!   [`zerosum_core::Supervision`] rounds off received frames.
//!
//! This is the one allocation path: node faults (kills, stalls,
//! delayed rejoins, clock skew) and link faults are both judged on it,
//! by the transport-chaos driver in `zerosum-experiments`.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![warn(missing_docs)]

pub mod agent;
pub mod collector;
pub mod fault;
pub mod frame;
pub mod tcp;
pub mod transport;

pub use agent::{AgentStats, NodeAgent};
pub use collector::{Collector, CollectorConfig, CollectorStats};
pub use fault::{
    AllocationFaultPlan, FaultyLink, LinkFaultPlan, LinkFaultStats, NodeFaultPlan,
    TransportFaultPlan,
};
pub use frame::{decode_frame, encode_frame, frame_bytes, DecodeError, EncodeError, Frame};
pub use tcp::{Acceptor, TcpLink, DEFAULT_WINDOW};
pub use transport::{in_proc_pair, InProcLink, Link, SendStatus, TransportError};
