//! **droplet-serve** — a long-running experiment service over the DROPLET
//! simulation engine (DESIGN.md §18).
//!
//! The service parses experiment specs, flat JSON bodies, into
//! [`RunSpec`]: [`droplet::specparse::RunSpec`], the one description of a
//! run, which `droplet-sim` builds from its flags through the same
//! validator. `/run` and `/sweep` share one job path: a request has one
//! cell per prefetcher, and the cells it must simulate run as one job on
//! the shared [`droplet::JobPool`] and [`droplet::TraceCache`], with
//! warm-snapshot fork reuse across a sweep's cells. At most one job per
//! pool worker runs at a time. Two layers keep repeated work off the
//! engine, cell by cell:
//!
//! * **in-flight dedupe** ([`dedupe`]): concurrent identical cells —
//!   equal `(config_hash, workload_hash)` keys — share one engine run and
//!   all receive bit-identical results;
//! * **a content-addressed result store** ([`store`]): completed canonical
//!   bodies persist on disk under their key and answer later identical
//!   cells across restarts, so a partly stored sweep runs only its
//!   missing cells.
//!
//! Everything is hand-rolled over [`std::net`] — the service adds no
//! dependencies to the workspace.
//!
//! # Endpoints
//!
//! | Endpoint | Body | Answer |
//! |---|---|---|
//! | `POST /run` | spec | canonical result JSON (`?stream=1`: chunked JSONL epochs, then the result) |
//! | `POST /sweep` | spec + `prefetchers` list | per-cell results over one shared warm-up |
//! | `GET /result/<key>` | — | stored result, 404 if absent |
//! | `GET /stats` | — | service counters |
//! | `GET /healthz` | — | liveness |
//!
//! Responses carry `X-Droplet-Source: engine|inflight|store`; bodies are
//! byte-identical regardless of source.

pub mod dedupe;
pub mod http;
pub mod server;
pub mod store;

pub use dedupe::{Claim, Inflight, JobCell};
pub use droplet::specparse::RunSpec;
pub use server::{spawn, RunOutcome, ServerHandle, ServerOptions, ServerState, Submission};
pub use store::ResultStore;
