//! `fc::net` — the zero-dependency HTTP/1.1 network front.
//!
//! The ROADMAP's serving layer ends, until this module, at a library
//! boundary: [`PlannerService`](fc_core::PlannerService) and
//! [`ClaimStream`](crate::ClaimStream) give a *process* admission
//! control, quotas, cancellation, and surgical cache invalidation —
//! but the paper's setting (Sintos, Agarwal & Yang, VLDB 2019) is an
//! interactive *service*: fact-checkers iteratively pick data to
//! clean, reveal values, and re-ask, from outside the process. The
//! environment still allows no registry dependencies, so this front is
//! hand-rolled on `std::net` alone:
//!
//! * [`json`] — a minimal JSON codec (value tree, strict bounded
//!   parser, deterministic writer);
//! * [`api`] — the typed request/response structs every route, client,
//!   and load driver encodes and decodes through, plus the plan and stats
//!   response encoders whose bytes are the determinism gate;
//! * [`client`] — the matching minimal blocking client (examples,
//!   tests, and CI gates drive the server with it), including the
//!   typed [`ApiClient`];
//! * [`http`] — HTTP/1.1 framing: `Content-Length` bodies, keep-alive,
//!   chunked streamed responses, hard header/body limits, typed 4xx
//!   mapping for malformed input;
//! * [`PlannerServer`] — the route table, per-request tenancy
//!   (`x-tenant` header), wire-native stream creation,
//!   disconnect-driven cancellation, and stream snapshot/adopt for
//!   replication;
//! * [`router`] — the consistent-hash shard front that spreads streams
//!   across N `PlannerServer` backends with health probes, drain, and
//!   bounded retry.
//!
//! The server and the router share one connection front: the accept
//! loop, the saturation `503` past `max_connections` live connections,
//! the keep-alive loop, graceful drain, and the `405`/`404` answers.
//! Each supplies only its route table. Handler threads are reused: a
//! handler whose connection ends parks (holding no connection slot) for
//! up to the read timeout, and the accept loop hands the next socket to
//! a parked handler before it spawns a new thread. Every HTTP message
//! leaves in one `write` ([`http`]'s one-write rule).
//!
//! Everything the serving layer guarantees in-process holds over the
//! wire: plans are byte-identical to in-process
//! [`PlannerService`](fc_core::PlannerService) results, quota
//! rejections are `429`s with nothing queued, a client hangup cancels
//! the request it was waiting on, and shutdown never drops a completed
//! plan.

pub mod api;
pub mod client;
mod front;
pub mod http;
pub mod json;
pub mod router;
pub mod server;

pub use api::ApiError;
pub use client::{ApiClient, ClientError, ClientPool, ClientPools};
pub use router::{RouterConfig, RouterHandle, RouterServer};
pub use server::{PlannerServer, ServerConfig, ServerHandle};
