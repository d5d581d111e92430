//! One way to crash a client: its host stops taking its outputs.
//!
//! The paper's processes crash at any step and recover from what their
//! stable storage kept. A store client's steps reach the outside only
//! through its **outputs**: a submission at a node ([`World::submit`],
//! [`World::submit_write_with`]) and a write to its intent journal
//! ([`StableStorage::store`], [`begin_store`], [`flush`]). So a client
//! that crashed after its k-th output is one whose host forwarded k of
//! them and takes none after: every later submission fails
//! [`ClientError::ProcessDown`] (nothing was sent) and every later
//! journal write fails with an I/O error (nothing was stored). What the
//! client asks without acting — [`World::wait_any`], [`World::now`],
//! [`World::nodes`], [`World::max_value_len`], [`World::cancel`] — keeps
//! being answered, so its calls in flight, retries and failovers end on
//! their own, and what it left behind is what recovery finds: the
//! journal's intents and whatever its forwarded submissions landed.
//!
//! [`Crash`] is that budget, shared by the client's world
//! ([`KvClient::with_crash`](crate::KvClient::with_crash)) and its
//! journal's storage ([`Crash::storage`]). Hosted ([`crate::host`]), a
//! run with [`Crash::after`]`(k)` for every `k` up to the crasher's
//! output count tries every crash point of a script; on the real runtime
//! ([`crate::run_chaos`]) a crasher [`arm`](Crash::arm)s its budget when
//! its crash signal arrives. A budget that is never spent changes
//! nothing: every call is forwarded as it was made.
//!
//! [`begin_store`]: StableStorage::begin_store
//! [`flush`]: StableStorage::flush

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use rmem_net::pipeline::AnyCompletion;
use rmem_net::{ClientError, Ticket};
use rmem_storage::{StableStorage, StorageError};
use rmem_types::{Op, RegisterId};

use crate::seam::World;

/// A client's output budget (see the [module docs](self)); clones share
/// it. The default is not yet armed: every output is forwarded until
/// [`arm`](Crash::arm).
#[derive(Debug, Clone, Default)]
pub struct Crash(Arc<Mutex<Budget>>);

#[derive(Debug, Default)]
struct Budget {
    /// Outputs forwarded so far.
    made: u64,
    /// How many outputs are forwarded in all, once armed.
    limit: Option<u64>,
}

impl Crash {
    /// A budget of `k` outputs: the client crashes after its `k`-th.
    pub fn after(k: u64) -> Crash {
        let crash = Crash::default();
        crash.arm(k);
        crash
    }

    /// Crashes the client after `more` further outputs. Only the first
    /// arming counts: a crashed client stays crashed.
    pub fn arm(&self, more: u64) {
        let mut budget = self.lock();
        budget.limit = budget.limit.or(Some(budget.made + more));
    }

    /// How many outputs were forwarded.
    pub fn outputs(&self) -> u64 {
        self.lock().made
    }

    /// Whether the budget is spent: the client is down.
    pub fn crashed(&self) -> bool {
        let budget = self.lock();
        budget.limit == Some(budget.made)
    }

    /// `inner` as a journal storage whose writes spend this budget.
    pub fn storage(&self, inner: impl StableStorage + 'static) -> Box<dyn StableStorage> {
        Box::new(Outputs(inner, self.clone()))
    }

    /// `inner` as a world whose submissions spend this budget.
    pub(crate) fn world(&self, inner: Arc<dyn World>) -> Arc<dyn World> {
        Arc::new(Outputs(inner, self.clone()))
    }

    fn lock(&self) -> MutexGuard<'_, Budget> {
        self.0.lock().expect("crash budget lock")
    }

    /// Spends one output, or refuses it with `down()` once the budget
    /// is spent.
    fn take<E>(&self, down: impl FnOnce() -> E) -> Result<(), E> {
        let mut budget = self.lock();
        if budget.limit == Some(budget.made) {
            return Err(down());
        }
        budget.made += 1;
        Ok(())
    }
}

/// A journal write refused by a crashed client's host.
fn refused(key: &str) -> StorageError {
    StorageError::io(key, std::io::Error::other("the client crashed"))
}

/// A world or a storage whose outputs spend a [`Crash`] budget.
#[derive(Debug)]
struct Outputs<T>(T, Crash);

impl World for Outputs<Arc<dyn World>> {
    fn nodes(&self) -> usize {
        self.0.nodes()
    }

    fn max_value_len(&self) -> Option<usize> {
        self.0.max_value_len()
    }

    fn submit(&self, node: usize, op: Op) -> Result<Ticket, ClientError> {
        self.1.take(|| ClientError::ProcessDown)?;
        self.0.submit(node, op)
    }

    fn submit_write_with(
        &self,
        node: usize,
        reg: RegisterId,
        fill: &mut dyn FnMut(&mut BytesMut),
    ) -> Result<Ticket, ClientError> {
        self.1.take(|| ClientError::ProcessDown)?;
        self.0.submit_write_with(node, reg, fill)
    }

    fn wait_any(&self, tickets: &[Ticket], until: Duration) -> Option<AnyCompletion> {
        self.0.wait_any(tickets, until)
    }

    fn cancel(&self, ticket: Ticket) {
        self.0.cancel(ticket);
    }

    fn now(&self) -> Duration {
        self.0.now()
    }
}

impl<S: StableStorage> StableStorage for Outputs<S> {
    fn store(&mut self, key: &str, bytes: Bytes) -> Result<(), StorageError> {
        self.1.take(|| refused(key))?;
        self.0.store(key, bytes)
    }

    fn retrieve(&self, key: &str) -> Result<Option<Bytes>, StorageError> {
        self.0.retrieve(key)
    }

    fn keys(&self) -> Vec<String> {
        self.0.keys()
    }

    fn begin_store(&mut self, key: &str, bytes: Bytes) -> Result<(), StorageError> {
        self.1.take(|| refused(key))?;
        self.0.begin_store(key, bytes)
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        self.1.take(|| refused("flush"))?;
        self.0.flush()
    }

    fn group_commits(&self) -> bool {
        self.0.group_commits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KvClient, ShardRouter};
    use rmem_core::{SharedMemory, Transient};
    use rmem_net::LocalCluster;
    use rmem_obs::ObsHandle;

    #[test]
    fn the_budget_survives_a_rebuilt_world() {
        let factory = SharedMemory::factory(Transient::flavor());
        let mut cluster = LocalCluster::channel(3, factory).unwrap();
        let crash = Crash::after(0);
        let kv = KvClient::new(cluster.clients(), ShardRouter::new(4))
            .unwrap()
            .with_crash(&crash)
            .with_obs(ObsHandle::disabled());
        assert!(
            kv.put("k", b"v".to_vec()).is_err(),
            "a crashed client reaches nothing"
        );
        assert_eq!(crash.outputs(), 0);
        cluster.shutdown();
    }
}
