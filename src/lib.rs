//! Umbrella crate for the `rmem` workspace: re-exports of the subsystem
//! crates, so the repository-root integration tests and examples (and any
//! quick experiment) can depend on one name.
//!
//! The real code lives in the `crates/` workspace members:
//!
//! * [`types`] — vocabulary types, wire codec, the automaton model;
//! * [`storage`] — stable-storage backends (memory, fsync'd file, fault
//!   injection);
//! * [`core`] — the register emulations (Figs. 4–5 and friends) and the
//!   multi-register [`core::SharedMemory`];
//! * [`consistency`] — persistent/transient atomicity checkers;
//! * [`sim`] — the deterministic discrete-event simulator;
//! * [`net`] — the real socket/thread runtime;
//! * [`kv`] — the sharded key-value store layered over the shared memory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rmem_consistency as consistency;
pub use rmem_core as core;
pub use rmem_kv as kv;
pub use rmem_net as net;
pub use rmem_sim as sim;
pub use rmem_storage as storage;
pub use rmem_types as types;
