//! Per-key atomicity certification of store runs.
//!
//! The register emulation's checkers certify histories per *register*
//! (linearizability is local). The store adds two indirections — keys
//! route to registers, and a live split moves a key from one register to
//! another — so [`certify_per_key_epoch_path`], the one certifier, works
//! in three steps:
//!
//! 1. **Decode**: rewrite a register-level history of encoded entries
//!    (`[key][value]` payloads, see [`crate::codec`]) into one whose
//!    values are the raw store values, verifying along the way that every
//!    payload in a register belongs to the key routed there under some
//!    shard count on the path (a foreign key would mean a shard collision
//!    — the certificate would be about the cell, not the key), and
//!    dropping the config-register and seal traffic.
//! 2. **Stitch**: relabel every home a key had along the path onto its
//!    final one, so its operations form one logical history.
//! 3. **Check**: run [`rmem_consistency::check_per_register_epochs`] on
//!    that and relabel each register's verdict with its key.
//!
//! The result is checker output that *names keys*: "key `user:7` is
//! persistent-atomic", or a [`KeyViolation`] naming the key that is not.
//! Registers are the epoch layer's (data shard `i` at register `i + 1`,
//! register 0 the shard map): histories come from an
//! [`OpRecorder`](crate::OpRecorder), on the real runtime and in hosted
//! simulation alike. A run without splits is the path `&[shards]`.

use std::collections::BTreeMap;

use bytes::Bytes;
use rmem_consistency::{
    check_per_register_epochs, Criterion, DuplicateApplication, Event, ExactlyOnceReport, History,
    Verdict, Violation,
};
use rmem_types::{Op, OpResult, OpTag, RegisterId, Value};

use crate::codec;
use crate::epoch::{data_register, CONFIG_REGISTER};

/// Why a store run could not be certified per key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvCertError {
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
/// exactly-once criterion: the payload's op tag plus its decoded entries
/// (the epoch stamp is deliberately excluded — a recovery may re-issue a
/// write under a newer epoch without forking the logical op).
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

/// The epoch-layer register hosting `key` under a `shards`-wide routing.
fn register_under(key: &str, shards: u16) -> RegisterId {
    data_register(crate::router::shard_at(
        crate::router::stable_hash(key),
        shards,
    ))
}

/// How one recorded operation fares in the cross-epoch decode.
enum OpFate {
    /// Part of a key's logical history; carries the decoded read value
    /// for reads.
    Keep(Option<Value>),
    /// Migration infrastructure (seal-marker writes, reads that observed
    /// only a seal marker) — not a store operation on any key.
    Skip,
}

/// Certifies a store run per key, across a whole **chain of live
/// splits** (e.g. the chaos matrix's 4 → 8 → 16): each key's operations
/// at every home along the path are stitched into one logical history
/// and checked under `criterion`. A run without splits is the
/// one-element path `&[shards]`.
///
/// Config-register operations (shard-map reads and publishes) are
/// ignored; seal markers and reads that observed only a seal are
/// migration infrastructure and are excluded from the per-key histories
/// — a migration bug cannot hide behind that exclusion, because the
/// migrator's own old-home read and the values later served at the new
/// home remain in the history, and a non-tag-monotonic handoff (lost
/// update, resurrected value, forgotten value) fails the stitched check.
///
/// `shard_path` lists the shard counts in epoch order. The key universe
/// must be injective under *every* count on the path (covering keys of
/// the first router qualify — linear hashing preserves injectivity
/// across splits). With per-epoch injectivity, a register's tenant is
/// unique across the whole path, so the composed old-home → final-home
/// relabeling is conflict-free by construction.
///
/// Registers no listed key maps to may appear only as the footprint of
/// splitting an **empty** shard — seal writes and reads observing ⊥ or a
/// seal, which carry no store data and are skipped. Any store data on an
/// unmapped register still fails with
/// [`KvCertError::UnmappedRegister`].
///
/// # Errors
///
/// [`CertifyError::Setup`] when the run is not a clean store run over
/// that path, [`CertifyError::Violation`] when a key's stitched history
/// fails the criterion, [`CertifyError::DuplicateWrite`] when the run
/// violates the exactly-once criterion ([`check_store_exactly_once`]).
///
/// # Panics
///
/// Panics on an empty `shard_path`.
pub fn certify_per_key_epoch_path<'a>(
    history: &History,
    keys: impl IntoIterator<Item = &'a str>,
    shard_path: &[u16],
    criterion: Criterion,
) -> Result<KvCertificate, CertifyError> {
    assert!(
        !shard_path.is_empty(),
        "an epoch path names at least one shard count"
    );
    // The exactly-once criterion first: with it in hand, duplicate
    // physical writes of one logical op are guaranteed same-effect, so
    // the atomicity checkers below read them as benign re-writes.
    check_store_exactly_once(history).map_err(CertifyError::DuplicateWrite)?;

    // Tenant maps for every epoch on the path, refusing collisions up
    // front.
    let keys: Vec<&str> = keys.into_iter().collect();
    let mut tenants: Vec<BTreeMap<RegisterId, String>> = vec![BTreeMap::new(); shard_path.len()];
    for key in &keys {
        for (tenant, &shards) in tenants.iter_mut().zip(shard_path) {
            let reg = register_under(key, shards);
            if let Some(existing) = tenant.get(&reg) {
                if existing != key {
                    return Err(CertifyError::Setup(KvCertError::ShardCollision {
                        register: reg,
                        keys: vec![existing.clone(), key.to_string()],
                    }));
                }
            } else {
                tenant.insert(reg, key.to_string());
            }
        }
    }
    let tenant_of = |reg: RegisterId| tenants.iter().rev().find_map(|t| t.get(&reg));

    // Decode a payload against the register's tenant: `None` marks
    // migration infrastructure, `Some` carries the raw store value.
    let decode = |reg: RegisterId, payload: &Value| -> Result<Option<Value>, KvCertError> {
        if payload.is_bottom() {
            return Ok(Some(Value::bottom()));
        }
        if codec::is_seal(payload) {
            return Ok(None);
        }
        let tenant = tenant_of(reg).expect("checked before decoding");
        match codec::decode_entries(payload) {
            Some(entries) => {
                if let Some((found, _)) = entries.iter().find(|(found, _)| found != tenant) {
                    return Err(KvCertError::ForeignEntry {
                        register: reg,
                        expected: tenant.clone(),
                        found: found.clone(),
                    });
                }
                Ok(Some(Value::new(entries[0].1.to_vec())))
            }
            None => Err(KvCertError::MalformedEntry { register: reg }),
        }
    };

    // Pass 1: classify every operation (an op is skipped as a whole, so
    // reads that observed only a seal drop their invocation too — a
    // dangling invoke would read as a pending operation).
    let mut register_of_op: std::collections::HashMap<rmem_types::OpId, RegisterId> =
        std::collections::HashMap::new();
    let mut fates: std::collections::HashMap<rmem_types::OpId, OpFate> =
        std::collections::HashMap::new();
    for event in history.events() {
        match event {
            Event::Invoke { op, operation } => {
                let reg = operation.register();
                register_of_op.insert(*op, reg);
                if reg == CONFIG_REGISTER {
                    fates.insert(*op, OpFate::Skip);
                    continue;
                }
                if tenant_of(reg).is_none() {
                    // A register no key maps to may still appear as pure
                    // migration footprint: splitting an *empty* shard
                    // seals its old home and reads it (observing ⊥ or the
                    // seal). That carries no store data and is skipped;
                    // anything else on an unmapped register is a routing
                    // bug and fails below (writes here, reads at their
                    // reply).
                    match operation {
                        Op::WriteAt(_, payload) | Op::Write(payload)
                            if !codec::is_seal(payload) =>
                        {
                            return Err(CertifyError::Setup(KvCertError::UnmappedRegister {
                                register: reg,
                            }));
                        }
                        _ => {
                            fates.insert(*op, OpFate::Skip);
                            continue;
                        }
                    }
                }
                let fate = match operation {
                    Op::WriteAt(_, payload) | Op::Write(payload) => {
                        match decode(reg, payload).map_err(CertifyError::Setup)? {
                            Some(_) => OpFate::Keep(None),
                            None => OpFate::Skip, // seal-marker write
                        }
                    }
                    Op::ReadAt(_) | Op::Read => OpFate::Keep(None),
                };
                fates.insert(*op, fate);
            }
            Event::Reply { op, result } => {
                let reg = *register_of_op
                    .get(op)
                    .ok_or(CertifyError::Setup(KvCertError::StrayReply { op: *op }))?;
                if reg == CONFIG_REGISTER {
                    continue;
                }
                if let OpResult::ReadValue(payload) = result {
                    if tenant_of(reg).is_none() {
                        // Skipped unmapped-register read: legal only if it
                        // observed no store data.
                        if payload.is_bottom() || codec::is_seal(payload) {
                            continue;
                        }
                        return Err(CertifyError::Setup(KvCertError::UnmappedRegister {
                            register: reg,
                        }));
                    }
                    match decode(reg, payload).map_err(CertifyError::Setup)? {
                        Some(raw) => {
                            fates.insert(*op, OpFate::Keep(Some(raw)));
                        }
                        None => {
                            fates.insert(*op, OpFate::Skip); // saw only a seal
                        }
                    }
                }
            }
            Event::Crash { .. } | Event::Recover { .. } => {}
        }
    }

    // Pass 2: emit the decoded history, dropping skipped operations.
    let mut decoded = History::new();
    for event in history.events() {
        match event {
            Event::Invoke { op, operation } => {
                if matches!(fates.get(op), Some(OpFate::Skip)) {
                    continue;
                }
                let reg = register_of_op[op];
                let operation = match operation {
                    Op::WriteAt(_, payload) | Op::Write(payload) => Op::WriteAt(
                        reg,
                        decode(reg, payload)
                            .map_err(CertifyError::Setup)?
                            .expect("non-seal write classified Keep"),
                    ),
                    Op::ReadAt(_) | Op::Read => Op::ReadAt(reg),
                };
                decoded.push(Event::Invoke { op: *op, operation });
            }
            Event::Reply { op, result } => {
                if matches!(fates.get(op), Some(OpFate::Skip)) {
                    continue;
                }
                let result = match (result, fates.get(op)) {
                    (OpResult::ReadValue(_), Some(OpFate::Keep(Some(raw)))) => {
                        OpResult::ReadValue(raw.clone())
                    }
                    (other, _) => other.clone(),
                };
                decoded.push(Event::Reply { op: *op, result });
            }
            Event::Crash { pid } => decoded.push(Event::Crash { pid: *pid }),
            Event::Recover { pid } => decoded.push(Event::Recover { pid: *pid }),
        }
    }

    // The composed register moves of the whole path: every intermediate
    // home a key ever had relabels straight onto its final home (the
    // one-hop relabeling of `stitch_moves` composes here, at map
    // construction).
    let final_shards = *shard_path.last().expect("non-empty path");
    let mut moves: BTreeMap<RegisterId, RegisterId> = BTreeMap::new();
    for key in &keys {
        let final_reg = register_under(key, final_shards);
        for &shards in &shard_path[..shard_path.len() - 1] {
            let reg = register_under(key, shards);
            if reg != final_reg {
                moves.insert(reg, final_reg);
            }
        }
    }

    let final_tenant = tenants.last().expect("non-empty path");
    let mut per_key = BTreeMap::new();
    for (register, outcome) in check_per_register_epochs(&decoded, &moves, criterion) {
        let key = final_tenant
            .get(&register)
            .ok_or(CertifyError::Setup(KvCertError::UnmappedRegister {
                register,
            }))?
            .clone();
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
        stamped(key, v, 0)
    }

    fn stamped(key: &str, v: &[u8], epoch: u8) -> Value {
        codec::encode_entry(key, &Bytes::copy_from_slice(v), epoch)
    }

    /// One key per shard of a `shards`-wide store.
    fn covering(shards: u16) -> Vec<String> {
        ShardRouter::new(shards).covering_keys("k-")
    }

    /// Certifies `h` as a run without splits.
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
                assert_eq!(register, data_register(0));
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

    // -- Cross-epoch certification ----------------------------------------

    const SPLIT: [u16; 2] = [4, 8];

    /// A key universe injective under both sides of a split, with a key
    /// the real routing moves and one it keeps.
    fn split_fixture() -> (Vec<String>, String, String) {
        let keys = ShardRouter::new(4).covering_keys("e-");
        let moves = |k: &&String| register_under(k, 4) != register_under(k, 8);
        let moved = keys.iter().find(moves).expect("a 4→8 split moves a key");
        let stayed = keys.iter().find(|k| !moves(k)).expect("and keeps one");
        (keys.clone(), moved.clone(), stayed.clone())
    }

    fn certify_split(
        h: &History,
        keys: &[String],
        criterion: Criterion,
    ) -> Result<KvCertificate, CertifyError> {
        certify_per_key_epoch_path(h, keys.iter().map(String::as_str), &SPLIT, criterion)
    }

    #[test]
    fn clean_split_run_certifies_across_epochs() {
        let (keys, moved, stayed) = split_fixture();
        let (old_home, new_home) = (register_under(&moved, 4), register_under(&moved, 8));
        let mut h = History::new();
        // Epoch 0: both keys written and read at their old homes.
        for (i, key) in [&moved, &stayed].into_iter().enumerate() {
            let reg = register_under(key, 4);
            let w = h.invoke(ProcessId(0), Op::WriteAt(reg, stamped(key, &[i as u8], 0)));
            h.reply(w, OpResult::Written);
            let r = h.invoke(ProcessId(1), Op::ReadAt(reg));
            h.reply(r, OpResult::ReadValue(stamped(key, &[i as u8], 0)));
        }
        // The migrator reads the moved key's old home (recorded), copies
        // it (unrecorded), seals; a lagging reader observes the seal
        // marker (excluded), then the new home serves the value.
        let m = h.invoke(ProcessId(2), Op::ReadAt(old_home));
        h.reply(m, OpResult::ReadValue(stamped(&moved, &[0], 0)));
        let lag = h.invoke(ProcessId(1), Op::ReadAt(old_home));
        h.reply(lag, OpResult::ReadValue(codec::encode_seal(1)));
        let r = h.invoke(ProcessId(1), Op::ReadAt(new_home));
        h.reply(r, OpResult::ReadValue(stamped(&moved, &[0], 1)));
        // Epoch 1 write + read at the new home.
        let w = h.invoke(
            ProcessId(0),
            Op::WriteAt(new_home, stamped(&moved, b"n", 1)),
        );
        h.reply(w, OpResult::Written);
        let r = h.invoke(ProcessId(1), Op::ReadAt(new_home));
        h.reply(r, OpResult::ReadValue(stamped(&moved, b"n", 1)));

        let cert = certify_split(&h, &keys, Criterion::Persistent)
            .expect("a clean split run must certify");
        assert!(cert.per_key.contains_key(&moved));
        assert!(cert.per_key.contains_key(&stayed));
    }

    #[test]
    fn lost_update_across_split_is_a_named_violation() {
        let (keys, moved, _) = split_fixture();
        let mut h = History::new();
        // Two completed writes at the old home…
        for v in [b"1", b"2"] {
            let w = h.invoke(
                ProcessId(0),
                Op::WriteAt(register_under(&moved, 4), stamped(&moved, v, 0)),
            );
            h.reply(w, OpResult::Written);
        }
        // …but the new home serves the superseded one: the handoff was
        // not tag-monotonic.
        let r = h.invoke(ProcessId(1), Op::ReadAt(register_under(&moved, 8)));
        h.reply(r, OpResult::ReadValue(stamped(&moved, b"1", 1)));
        match certify_split(&h, &keys, Criterion::Transient) {
            Err(CertifyError::Violation(v)) => {
                assert_eq!(v.key, moved, "the violation must name the moved key");
                assert_eq!(v.register, register_under(&moved, 8));
            }
            other => panic!("expected a named violation, got {other:?}"),
        }
    }

    #[test]
    fn forgotten_value_across_split_fails() {
        let (keys, moved, _) = split_fixture();
        let mut h = History::new();
        let w = h.invoke(
            ProcessId(0),
            Op::WriteAt(register_under(&moved, 4), stamped(&moved, b"v", 0)),
        );
        h.reply(w, OpResult::Written);
        // The new home serves ⊥ although the write completed pre-split.
        let r = h.invoke(ProcessId(1), Op::ReadAt(register_under(&moved, 8)));
        h.reply(r, OpResult::ReadValue(Value::bottom()));
        assert!(matches!(
            certify_split(&h, &keys, Criterion::Persistent),
            Err(CertifyError::Violation(_))
        ));
    }

    #[test]
    fn config_register_traffic_is_ignored() {
        let (keys, _, stayed) = split_fixture();
        let mut h = History::new();
        // Shard-map publishes and reads share the recorded history.
        let w = h.invoke(
            ProcessId(0),
            Op::WriteAt(CONFIG_REGISTER, crate::epoch::ShardMap::genesis(4).encode()),
        );
        h.reply(w, OpResult::Written);
        let r = h.invoke(ProcessId(1), Op::ReadAt(CONFIG_REGISTER));
        h.reply(
            r,
            OpResult::ReadValue(crate::epoch::ShardMap::genesis(4).encode()),
        );
        let w = h.invoke(
            ProcessId(0),
            Op::WriteAt(register_under(&stayed, 4), stamped(&stayed, b"v", 0)),
        );
        h.reply(w, OpResult::Written);
        let cert = certify_split(&h, &keys, Criterion::Persistent)
            .expect("config traffic must not disturb certification");
        assert!(cert.per_key.contains_key(&stayed));
    }

    #[test]
    fn cross_epoch_collisions_are_refused() {
        // A universe injective under the old epoch but colliding in the
        // new one cannot happen with linear hashing; force the reverse: 2
        // keys on one *old* shard.
        assert!(matches!(
            certify_per_key_epoch_path(&History::new(), ["a", "b"], &[1, 2], Criterion::Persistent),
            Err(CertifyError::Setup(KvCertError::ShardCollision { .. }))
        ));
    }

    #[test]
    fn split_chain_certifies_along_the_whole_path() {
        // A key that moves at both hops of 4 → 8 → 16, written and read
        // at each of its three successive homes.
        let keys = ShardRouter::new(4).covering_keys("p-");
        let path = [4u16, 8, 16];
        let key = keys
            .iter()
            .find(|k| {
                register_under(k, 4) != register_under(k, 8)
                    && register_under(k, 8) != register_under(k, 16)
            })
            .expect("some covering key moves at both hops")
            .clone();
        let mut h = History::new();
        for (i, shards) in path.iter().enumerate() {
            let reg = register_under(&key, *shards);
            let w = h.invoke(ProcessId(0), Op::WriteAt(reg, stamped(&key, &[i as u8], 0)));
            h.reply(w, OpResult::Written);
            let r = h.invoke(ProcessId(1), Op::ReadAt(reg));
            h.reply(r, OpResult::ReadValue(stamped(&key, &[i as u8], 0)));
        }
        let cert = certify_per_key_epoch_path(
            &h,
            keys.iter().map(String::as_str),
            &path,
            Criterion::Persistent,
        )
        .expect("a clean three-epoch run must certify");
        assert!(cert.per_key.contains_key(&key));

        // A resurrected value across the chain still fails: the final
        // home serving hop 0's value after hop 2's write completed.
        let stale = h.invoke(ProcessId(1), Op::ReadAt(register_under(&key, 16)));
        h.reply(stale, OpResult::ReadValue(stamped(&key, &[0], 0)));
        assert!(matches!(
            certify_per_key_epoch_path(
                &h,
                keys.iter().map(String::as_str),
                &path,
                Criterion::Transient
            ),
            Err(CertifyError::Violation(_))
        ));
    }

    #[test]
    fn exactly_once_retries_collapse_but_forks_fail() {
        let keys = covering(2);
        let key = &keys[0];
        let reg = register_under(key, 2);
        let tag = OpTag::new(5, 0);
        let tagged = |v: &[u8]| codec::encode_entry_tagged(key, &Bytes::copy_from_slice(v), 0, tag);

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
        // though each individual history would be atomic — on a path of
        // one epoch as of two.
        let mut forked = History::new();
        let w1 = forked.invoke(ProcessId(0), Op::WriteAt(reg, tagged(b"a")));
        forked.reply(w1, OpResult::Written);
        let w2 = forked.invoke(ProcessId(0), Op::WriteAt(reg, tagged(b"b")));
        forked.reply(w2, OpResult::Written);
        match certify(&forked, &keys, 2, Criterion::Persistent) {
            Err(CertifyError::DuplicateWrite(d)) => assert_eq!(d.tag, tag),
            other => panic!("expected a duplicate application, got {other:?}"),
        }
        assert!(matches!(
            certify_per_key_epoch_path(
                &forked,
                keys.iter().map(String::as_str),
                &[2, 4],
                Criterion::Persistent
            ),
            Err(CertifyError::DuplicateWrite(_))
        ));
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
