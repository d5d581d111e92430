//! Recording store traffic as a checkable [`History`].
//!
//! The simulator records register-level histories natively; real-thread
//! runs (`rmem-net`) do not, and neither knows what a *store* operation
//! is. An [`OpRecorder`] records at the client, on either runtime (real,
//! or hosted in the simulator — [`crate::host`]): attach one to a
//! [`KvClient`](crate::KvClient) and every register
//! operation the client performs is recorded as an invocation/reply
//! pair, ready for the per-key certifier
//! ([`certify_per_key_epoch_path`](crate::certify_per_key_epoch_path)).
//!
//! Each recording client must be its own history *process* (the model
//! keeps processes sequential per register): [`OpRecorder::assign_pid`]
//! hands out distinct ids, and
//! [`KvClient::recorded_clone`](crate::KvClient::recorded_clone) wraps
//! that for per-thread clones.
//!
//! An operation that fails **ambiguously** (a timeout after failover — it
//! may or may not have taken effect) is recorded the way the paper's
//! model describes exactly that situation: the invocation stays pending
//! and the process records a crash/recovery pair, so the checkers apply
//! their crash completion rules instead of refusing the history as
//! malformed.

use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::{Arc, Mutex};

use rmem_consistency::History;
use rmem_types::{Op, OpId, OpResult, ProcessId};

/// A shared, thread-safe history recorder (clones record into the same
/// history).
#[derive(Clone, Default)]
pub struct OpRecorder {
    history: Arc<Mutex<History>>,
    next_pid: Arc<AtomicU16>,
}

impl std::fmt::Debug for OpRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpRecorder")
            .field("pids", &self.next_pid.load(Ordering::Relaxed))
            .finish()
    }
}

impl OpRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        OpRecorder::default()
    }

    /// Reserves the next history process id for one recording client.
    pub fn assign_pid(&self) -> ProcessId {
        ProcessId(self.next_pid.fetch_add(1, Ordering::Relaxed))
    }

    /// A snapshot of everything recorded so far.
    pub fn history(&self) -> History {
        self.history.lock().expect("recorder lock").clone()
    }

    pub(crate) fn invoke(&self, pid: ProcessId, op: Op) -> OpId {
        self.history.lock().expect("recorder lock").invoke(pid, op)
    }

    pub(crate) fn reply(&self, op: OpId, result: OpResult) {
        self.history
            .lock()
            .expect("recorder lock")
            .reply(op, result);
    }

    /// Records the ambiguous-failure idiom: the operation stays pending
    /// and the process crashes and recovers, which is precisely the
    /// crash-recovery model's description of "the caller cannot know
    /// whether the operation took effect".
    pub(crate) fn abandon(&self, pid: ProcessId) {
        let mut h = self.history.lock().expect("recorder lock");
        h.crash(pid);
        h.recover(pid);
    }
}
