//! `rmem-kv`: a sharded key-value store over the crash-recovery register
//! emulations.
//!
//! The register algorithms (Guerraoui & Levy, ICDCS 2004 — see
//! `rmem-core`) emulate an addressable shared memory whose registers stay
//! atomic through crashes and recoveries. This crate turns that memory
//! into a *store*:
//!
//! * [`ShardRouter`] — a pure, stable hash mapping string keys onto a
//!   store's fixed number of shards with linear-hashing addressing
//!   (= `hash % shards` for power-of-two counts); shard `i` is register
//!   `i + 1` ([`router`]).
//! * [`codec`] — register payloads tag values with their key, so shard
//!   collisions degrade to explicit misses.
//! * [`KvClient`] — `get`/`put`/`multi_get`/`multi_put` over a cluster,
//!   one driver keeping every shard's operation in flight at once from
//!   the calling thread ([`client`]).
//! * [`seam`] — everything that driver asks of the outside (submit, wait,
//!   cancel, the time), as the one trait [`World`]. The
//!   real runtime (`rmem-net`) is one implementation,
//!   [`KvClient::new`]; [`host`] is the other: [`run_hosted`] runs the
//!   same clients, unmodified, inside a seeded `rmem-sim` run — virtual
//!   time, scripted crashes, and a history that is a function of the
//!   seed.
//! * [`crash`] — the one way a client crashes: [`Crash`], a budget of
//!   outputs (submissions, journal writes) shared by its world and its
//!   intent journal, after which its host takes none — so a crash can
//!   fall on any step, hosted or real.
//! * [`history`] — per-**key** atomicity certification: decode a recorded
//!   register-level history ([`OpRecorder`]), check each register's
//!   restriction (linearizability locality), and name every verdict with
//!   its key.
//!
//! Every store guarantee is inherited, not re-proved: a key's operations
//! are exactly its registers' operations, so the paper's per-register
//! criteria (persistent/transient atomicity) lift to per-key criteria
//! word for word — which [`certify_per_key_epoch_path`] checks on
//! recorded runs, real and simulated.
//!
//! # Example: a simulated, certified store run
//!
//! Two real clients on three simulated nodes, one of which crashes under
//! them and recovers:
//!
//! ```
//! use rmem_consistency::Criterion;
//! use rmem_core::{Persistent, SharedMemory};
//! use rmem_kv::{certify_per_key_epoch_path, run_hosted, KvClient, OpRecorder, Script, ShardRouter};
//! use rmem_sim::{ClusterConfig, PlannedEvent, Schedule, Simulation};
//! use rmem_types::ProcessId;
//!
//! let router = ShardRouter::new(4);
//! let keys = router.covering_keys("key-");
//! let recorder = OpRecorder::new();
//! let schedule = Schedule::new()
//!     .at(1_500, PlannedEvent::Crash(ProcessId(1)))
//!     .at(4_000, PlannedEvent::Recover(ProcessId(1)));
//! let memory = SharedMemory::factory(Persistent::flavor());
//! let sim = Simulation::new(ClusterConfig::new(3), memory, 7).with_schedule(schedule);
//! let report = run_hosted(sim, |world| {
//!     let client = |c: u8| {
//!         let kv = KvClient::over(world.clone(), router).with_recorder(recorder.clone());
//!         let keys = &keys;
//!         Box::new(move || {
//!             for (i, key) in keys.iter().enumerate() {
//!                 kv.put(key, vec![c, i as u8]).expect("a minority crash fails no call");
//!                 assert!(kv.get(key).expect("nor a read").is_some());
//!             }
//!         }) as Script
//!     };
//!     vec![client(0), client(1)]
//! });
//! assert_eq!(report.trace.crashes, 1);
//! let names = keys.iter().map(String::as_str);
//! let cert = certify_per_key_epoch_path(&recorder.history(), names, &[4], Criterion::Persistent)
//!     .expect("the persistent store must be atomic per key");
//! assert_eq!(cert.per_key.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod codec;
pub mod crash;
pub mod exactly_once;
pub mod health;
pub mod history;
pub mod host;
pub mod recorder;
pub mod router;
pub mod seam;

pub use chaos::{run_chaos, ChaosConfig, ChaosFailure, ChaosReport};
pub use client::{HealthStats, KvClient, KvError, KvOpStats};
pub use crash::Crash;
pub use exactly_once::Resolution;
pub use health::{HealthMemory, NodeGate};
pub use history::{
    certify_per_key_epoch_path, check_store_exactly_once, CertifyError, KeyViolation, KvCertificate,
};
pub use host::{run_hosted, Script};
pub use recorder::OpRecorder;
pub use router::{data_register, ShardMap, ShardRouter};
pub use seam::World;
