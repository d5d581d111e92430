//! Per-key atomicity certification of store runs.
//!
//! The register emulation's checkers certify histories per *register*
//! (linearizability is local). The store adds one indirection — keys
//! route to registers — so [`certify_per_key_epoch_path`], the one
//! certifier, works in two steps:
//!
//! 1. **Decode**: rewrite a register-level history of encoded entries
//!    (`[key][value]` payloads, see [`crate::codec`]) into one whose
//!    values are the raw store values, verifying along the way that every
//!    payload in a register belongs to the key routed there (a foreign
//!    key would mean a shard collision — the certificate would be about
//!    the cell, not the key).
//! 2. **Check**: run [`rmem_consistency::check_per_register`] on that and
//!    relabel each register's verdict with its key.
//!
//! The result is checker output that *names keys*: "key `user:7` is
//! persistent-atomic", or a [`KeyViolation`] naming the key that is not.
//! Registers are the store's (data shard `i` at register `i + 1`):
//! histories come from an [`OpRecorder`](crate::OpRecorder), on the real
//! runtime and in hosted simulation alike.

use std::collections::{BTreeMap, HashMap};

use bytes::Bytes;
use rmem_consistency::{
    check_per_register, Criterion, DuplicateApplication, Event, ExactlyOnceReport, History,
    Verdict, Violation,
};
use rmem_types::{Op, OpResult, OpTag, RegisterId, Value};

use crate::codec;
use crate::router::ShardRouter;

/// Why a store run could not be certified per key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvCertError {
    /// The shard path names other than one count: a store's shard count
    /// is fixed when it is built.
    ShardPath {
        /// The path given.
        path: Vec<u16>,
    },
    /// Two keys share a register; the per-key reading of locality does not
    /// apply. Re-run with more shards or different keys.
    ShardCollision {
        /// The shared register.
        register: RegisterId,
        /// The colliding keys.
        keys: Vec<String>,
    },
    /// The history addresses a register the map knows nothing about.
    UnmappedRegister {
        /// The unknown register.
        register: RegisterId,
    },
    /// A payload in a register decodes to a different key than the map
    /// assigns it (a router mismatch between writer and certifier).
    ForeignEntry {
        /// The register in question.
        register: RegisterId,
        /// The key the map expects there.
        expected: String,
        /// The key found in the payload.
        found: String,
    },
    /// A payload was not a well-formed store entry.
    MalformedEntry {
        /// The register in question.
        register: RegisterId,
    },
    /// The history itself is malformed: a reply appeared with no matching
    /// invocation, so the value cannot be attributed to a register.
    StrayReply {
        /// The orphaned operation id.
        op: rmem_types::OpId,
    },
}

impl std::fmt::Display for KvCertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvCertError::ShardPath { path } => {
                write!(f, "shard path {path:?} is not one shard count")
            }
            KvCertError::ShardCollision { register, keys } => {
                write!(f, "keys {keys:?} collide on {register}")
            }
            KvCertError::UnmappedRegister { register } => {
                write!(f, "history touches unmapped register {register}")
            }
            KvCertError::ForeignEntry {
                register,
                expected,
                found,
            } => {
                write!(
                    f,
                    "{register} hosts {expected:?} but carries an entry for {found:?}"
                )
            }
            KvCertError::MalformedEntry { register } => {
                write!(f, "non-store payload in {register}")
            }
            KvCertError::StrayReply { op } => {
                write!(f, "reply to {op} without a matching invocation")
            }
        }
    }
}

impl std::error::Error for KvCertError {}

/// A per-key atomicity violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyViolation {
    /// The key whose history violates the criterion.
    pub key: String,
    /// The register hosting it.
    pub register: RegisterId,
    /// The underlying checker verdict.
    pub violation: Violation,
}

impl std::fmt::Display for KeyViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "key {:?} (on {}): {}",
            self.key, self.register, self.violation
        )
    }
}

impl std::error::Error for KeyViolation {}

/// A successful certificate: per-key witnesses, named by key.
#[derive(Debug, Clone)]
pub struct KvCertificate {
    /// Each certified key's witnessing linearization.
    pub per_key: BTreeMap<String, Verdict>,
}

/// The logical identity and effect of one store write, for the
/// exactly-once criterion: the payload's op tag plus its decoded entries.
fn store_effect(op: &Op) -> Option<(OpTag, Vec<(String, Bytes)>)> {
    let payload = op.write_value()?;
    let tag = codec::payload_op_tag(payload)?;
    Some((tag, codec::decode_entries(payload).unwrap_or_default()))
}

/// Checks the **exactly-once criterion** over a store run: every write
/// carrying an op-id frame (see [`crate::codec`]) must share its effect
/// — key and value — with every other physical write under the same tag,
/// so duplicate applications (crash-recovery retries, duplicate
/// deliveries) collapse into one logical write. Untagged legacy writes
/// are exempt.
///
/// The certifier runs this automatically; it is exposed for callers
/// that want the [`ExactlyOnceReport`] (retry counts) of a passing run.
///
/// # Errors
///
/// Returns the first [`DuplicateApplication`] in history order.
pub fn check_store_exactly_once(
    history: &History,
) -> Result<ExactlyOnceReport, DuplicateApplication<OpTag>> {
    rmem_consistency::check_exactly_once(history, store_effect)
}

/// Certifies a store run per key: each key's operations are checked
/// under `criterion`.
///
/// `shard_path` is the store's one shard count, `&[shards]` — a store's
/// shard count is fixed when it is built (the slice is the signature the
/// frozen `benchmark/` package calls). The key universe must be
/// injective under that count (covering keys qualify), and every
/// operation of the run must address a key's register.
///
/// # Errors
///
/// [`CertifyError::Setup`] when the run is not a clean store run over
/// that count, or the path is not one count;
/// [`CertifyError::Violation`] when a key's history fails the criterion;
/// [`CertifyError::DuplicateWrite`] when the run violates the
/// exactly-once criterion ([`check_store_exactly_once`]).
pub fn certify_per_key_epoch_path<'a>(
    history: &History,
    keys: impl IntoIterator<Item = &'a str>,
    shard_path: &[u16],
    criterion: Criterion,
) -> Result<KvCertificate, CertifyError> {
    let &[shards] = shard_path else {
        let path = shard_path.to_vec();
        return Err(CertifyError::Setup(KvCertError::ShardPath { path }));
    };
    // The exactly-once criterion first: with it in hand, duplicate
    // physical writes of one logical op are guaranteed same-effect, so
    // the atomicity checkers below read them as benign re-writes.
    check_store_exactly_once(history).map_err(CertifyError::DuplicateWrite)?;

    // The tenant of every register, refusing collisions up front.
    let router = ShardRouter::new(shards);
    let mut tenants: BTreeMap<RegisterId, String> = BTreeMap::new();
    for key in keys {
        let reg = router.register_for(key);
        let tenant = tenants.entry(reg).or_insert_with(|| key.to_string());
        if tenant != key {
            return Err(CertifyError::Setup(KvCertError::ShardCollision {
                register: reg,
                keys: vec![tenant.clone(), key.to_string()],
            }));
        }
    }

    // Decode a payload against its register's tenant into the raw store
    // value.
    let decode = |reg: RegisterId, payload: &Value| -> Result<Value, CertifyError> {
        if payload.is_bottom() {
            return Ok(Value::bottom());
        }
        let tenant = &tenants[&reg];
        let setup = |e| Err(CertifyError::Setup(e));
        match codec::decode_entries(payload) {
            Some(entries) => match entries.iter().find(|(found, _)| found != tenant) {
                Some((found, _)) => setup(KvCertError::ForeignEntry {
                    register: reg,
                    expected: tenant.clone(),
                    found: found.clone(),
                }),
                None => Ok(Value::new(entries[0].1.to_vec())),
            },
            None => setup(KvCertError::MalformedEntry { register: reg }),
        }
    };

    let mut register_of_op = HashMap::new();
    let mut decoded = History::new();
    for event in history.events() {
        decoded.push(match event {
            Event::Invoke { op, operation } => {
                let reg = operation.register();
                if !tenants.contains_key(&reg) {
                    let e = KvCertError::UnmappedRegister { register: reg };
                    return Err(CertifyError::Setup(e));
                }
                register_of_op.insert(*op, reg);
                let operation = match operation {
                    Op::WriteAt(_, payload) | Op::Write(payload) => {
                        Op::WriteAt(reg, decode(reg, payload)?)
                    }
                    Op::ReadAt(_) | Op::Read => Op::ReadAt(reg),
                };
                Event::Invoke { op: *op, operation }
            }
            Event::Reply { op, result } => {
                let stray = CertifyError::Setup(KvCertError::StrayReply { op: *op });
                let &reg = register_of_op.get(op).ok_or(stray)?;
                let result = match result {
                    OpResult::ReadValue(payload) => OpResult::ReadValue(decode(reg, payload)?),
                    other => other.clone(),
                };
                Event::Reply { op: *op, result }
            }
            other => other.clone(),
        });
    }

    let mut per_key = BTreeMap::new();
    for (register, outcome) in check_per_register(&decoded, criterion) {
        let key = tenants[&register].clone();
        match outcome {
            Ok(verdict) => {
                per_key.insert(key, verdict);
            }
            Err(violation) => {
                return Err(CertifyError::Violation(KeyViolation {
                    key,
                    register,
                    violation,
                }));
            }
        }
    }
    Ok(KvCertificate { per_key })
}

/// Failure modes of [`certify_per_key_epoch_path`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertifyError {
    /// The run is not a certifiable store run (collision, foreign
    /// payload, …).
    Setup(KvCertError),
    /// A key's history violates the criterion.
    Violation(KeyViolation),
    /// A logical write (one op tag) was applied with diverging effects —
    /// the exactly-once criterion ([`check_store_exactly_once`]) failed.
    DuplicateWrite(DuplicateApplication<OpTag>),
}

impl std::fmt::Display for CertifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertifyError::Setup(e) => write!(f, "cannot certify: {e}"),
            CertifyError::Violation(v) => write!(f, "atomicity violation: {v}"),
            CertifyError::DuplicateWrite(d) => write!(f, "duplicate application: {d}"),
        }
    }
}

impl std::error::Error for CertifyError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ShardRouter;
    use bytes::Bytes;
    use rmem_types::ProcessId;

    fn payload(key: &str, v: &[u8]) -> Value {
        codec::encode_entry(key, &Bytes::copy_from_slice(v), 0)
    }

    fn register_under(key: &str, shards: u16) -> RegisterId {
        ShardRouter::new(shards).register_for(key)
    }

    /// One key per shard of a `shards`-wide store.
    fn covering(shards: u16) -> Vec<String> {
        ShardRouter::new(shards).covering_keys("k-")
    }

    /// Certifies `h` as a run over `shards` shards.
    fn certify(
        h: &History,
        keys: &[String],
        shards: u16,
        criterion: Criterion,
    ) -> Result<KvCertificate, CertifyError> {
        certify_per_key_epoch_path(h, keys.iter().map(String::as_str), &[shards], criterion)
    }

    #[test]
    fn sequential_store_run_certifies_per_key() {
        let keys = covering(4);
        let mut h = History::new();
        for (i, key) in keys.iter().enumerate() {
            let reg = register_under(key, 4);
            let w = h.invoke(ProcessId(0), Op::WriteAt(reg, payload(key, &[i as u8])));
            h.reply(w, OpResult::Written);
            let r = h.invoke(ProcessId(1), Op::ReadAt(reg));
            h.reply(r, OpResult::ReadValue(payload(key, &[i as u8])));
        }
        let cert = certify(&h, &keys, 4, Criterion::Persistent).unwrap();
        assert_eq!(cert.per_key.len(), keys.len());
        for key in &keys {
            assert!(
                cert.per_key.contains_key(key),
                "missing certificate for {key}"
            );
        }
    }

    #[test]
    fn stale_read_is_reported_against_its_key() {
        let keys = covering(2);
        let key = &keys[0];
        let reg = register_under(key, 2);
        let mut h = History::new();
        let w1 = h.invoke(ProcessId(0), Op::WriteAt(reg, payload(key, b"1")));
        h.reply(w1, OpResult::Written);
        let w2 = h.invoke(ProcessId(0), Op::WriteAt(reg, payload(key, b"2")));
        h.reply(w2, OpResult::Written);
        // A read strictly after both writes returning the older value:
        // not atomic.
        let r = h.invoke(ProcessId(1), Op::ReadAt(reg));
        h.reply(r, OpResult::ReadValue(payload(key, b"1")));
        match certify(&h, &keys, 2, Criterion::Persistent) {
            Err(CertifyError::Violation(v)) => {
                assert_eq!(&v.key, key, "violation must name the key");
                assert_eq!(v.register, reg);
            }
            other => panic!("expected a named violation, got {other:?}"),
        }
    }

    #[test]
    fn collisions_refuse_certification() {
        // Two keys of one shard: the per-register certificate could not be
        // read as a per-key one.
        let keys = ["a".to_string(), "b".to_string()];
        match certify(&History::new(), &keys, 1, Criterion::Transient) {
            Err(CertifyError::Setup(KvCertError::ShardCollision { register, keys })) => {
                assert_eq!(register, crate::router::data_register(0));
                assert_eq!(keys, ["a", "b"]);
            }
            other => panic!("expected a collision, got {other:?}"),
        }
        // One key per shard never collides.
        certify(&History::new(), &covering(8), 8, Criterion::Transient).unwrap();
    }

    #[test]
    fn foreign_payload_is_detected() {
        let keys = covering(2);
        let reg = register_under(&keys[0], 2);
        let mut h = History::new();
        // A payload written under the *other* key's name into this
        // register.
        let w = h.invoke(ProcessId(0), Op::WriteAt(reg, payload(&keys[1], b"x")));
        h.reply(w, OpResult::Written);
        assert!(matches!(
            certify(&h, &keys, 2, Criterion::Persistent),
            Err(CertifyError::Setup(KvCertError::ForeignEntry { .. }))
        ));
    }

    #[test]
    fn unmapped_register_is_detected() {
        let keys = covering(2);
        let mut h = History::new();
        let w = h.invoke(
            ProcessId(0),
            Op::WriteAt(RegisterId(7), payload("zzz", b"x")),
        );
        h.reply(w, OpResult::Written);
        assert!(matches!(
            certify(&h, &keys, 2, Criterion::Persistent),
            Err(CertifyError::Setup(KvCertError::UnmappedRegister { .. }))
        ));
    }

    #[test]
    fn stray_reply_is_an_error_not_a_panic() {
        let keys = covering(2);
        let mut h = History::new();
        // A reply with no invocation: malformed, but must come back as an
        // error the caller can handle.
        h.push(rmem_consistency::Event::Reply {
            op: rmem_types::OpId::new(ProcessId(0), 0),
            result: OpResult::ReadValue(payload("k", b"x")),
        });
        assert!(matches!(
            certify(&h, &keys, 2, Criterion::Persistent),
            Err(CertifyError::Setup(KvCertError::StrayReply { .. }))
        ));
    }

    /// What the frozen `benchmark/` package computes by hand: data
    /// shard `i` at register `i + 1`, a stamp of 0, and a certifier that
    /// takes exactly one shard count.
    #[test]
    fn the_benchmark_pinned_layout_holds() {
        let map = crate::ShardMap::genesis(16);
        for i in 0..64 {
            let key = format!("k{i}");
            let shard = ShardRouter::new(16).shard_of(&key);
            assert_eq!(map.register_for(&key), RegisterId(1 + shard));
        }
        assert_eq!(map.stamp(), 0);
        let keys = covering(4);
        let names = || keys.iter().map(String::as_str);
        for path in [&[][..], &[4, 8], &[4, 8, 16]] {
            assert!(
                matches!(
                    certify_per_key_epoch_path(
                        &History::new(),
                        names(),
                        path,
                        Criterion::Persistent
                    ),
                    Err(CertifyError::Setup(KvCertError::ShardPath { .. }))
                ),
                "{path:?}"
            );
        }
        certify_per_key_epoch_path(&History::new(), names(), &[4], Criterion::Persistent).unwrap();
    }

    #[test]
    fn exactly_once_retries_collapse_but_forks_fail() {
        let keys = covering(2);
        let key = &keys[0];
        let reg = register_under(key, 2);
        let tag = OpTag::new(5, 0);
        let tagged = |v: &[u8]| codec::encode_entry_tagged(key, &Bytes::copy_from_slice(v), tag);

        // A crashed write retried under the same tag with the same value:
        // one logical write, certifiable.
        let mut h = History::new();
        let w1 = h.invoke(ProcessId(0), Op::WriteAt(reg, tagged(b"v")));
        h.reply(w1, OpResult::Written);
        let w2 = h.invoke(ProcessId(0), Op::WriteAt(reg, tagged(b"v")));
        h.reply(w2, OpResult::Written);
        let r = h.invoke(ProcessId(1), Op::ReadAt(reg));
        h.reply(r, OpResult::ReadValue(tagged(b"v")));
        certify(&h, &keys, 2, Criterion::Persistent).expect("same-effect retry is benign");
        let report = check_store_exactly_once(&h).unwrap();
        assert_eq!(report.tagged_writes, 2);
        assert_eq!(report.logical_ops, 1);
        assert_eq!(report.retries, 1);

        // A retry that forked the value is a duplicate application even
        // though each individual history would be atomic.
        let mut forked = History::new();
        let w1 = forked.invoke(ProcessId(0), Op::WriteAt(reg, tagged(b"a")));
        forked.reply(w1, OpResult::Written);
        let w2 = forked.invoke(ProcessId(0), Op::WriteAt(reg, tagged(b"b")));
        forked.reply(w2, OpResult::Written);
        match certify(&forked, &keys, 2, Criterion::Persistent) {
            Err(CertifyError::DuplicateWrite(d)) => assert_eq!(d.tag, tag),
            other => panic!("expected a duplicate application, got {other:?}"),
        }
    }

    #[test]
    fn crash_events_survive_decoding() {
        let keys = covering(2);
        let key = &keys[0];
        let reg = register_under(key, 2);
        let mut h = History::new();
        let w = h.invoke(ProcessId(0), Op::WriteAt(reg, payload(key, b"1")));
        h.reply(w, OpResult::Written);
        h.crash(ProcessId(0));
        h.recover(ProcessId(0));
        let r = h.invoke(ProcessId(0), Op::ReadAt(reg));
        h.reply(r, OpResult::ReadValue(payload(key, b"1")));
        let cert = certify(&h, &keys, 2, Criterion::Persistent).unwrap();
        assert!(cert.per_key.contains_key(key));
    }
}
