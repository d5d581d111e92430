//! The per-node **syncer**: a thread that owns the node's stable storage
//! and turns the runner's store requests into group commits.
//!
//! The event loop never touches the disk. Every [`Action::Store`] becomes
//! a [`StoreRequest`] on the syncer's queue; the syncer drains *everything
//! queued* into one batch, stages each record
//! ([`StableStorage::begin_store`]), commits the batch with a single
//! [`flush`](StableStorage::flush), and only then posts one
//! [`RunnerEvent::StoresDurable`] naming the whole group onto the node's
//! event queue — the loop forwards each token to the automaton as
//! `Input::StoreDone`. The ack-after-durable invariant is structural: a
//! token cannot be posted before the flush covering it returned.
//!
//! Group commit falls out of the queue: while one fsync is in flight,
//! every store that arrives waits in the channel and joins the *next*
//! commit, so concurrent operations on a node amortize the disk without
//! any timer or batching policy.
//!
//! A failed stage or flush is terminal: per the crash-recovery model a
//! process whose log fails must crash rather than run ahead of its stable
//! storage. The syncer posts [`RunnerEvent::StoreFailed`] (after bumping
//! the shared failure counter) and stops; the runner halts the node.
//!
//! [`Action::Store`]: rmem_types::Action::Store
//! [`StableStorage::begin_store`]: rmem_storage::StableStorage::begin_store

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender};
use rmem_obs::{EventKind, FlightEvent, ObsHandle};
use rmem_storage::StableStorage;
use rmem_types::StoreToken;

use crate::runner::RunnerEvent;

/// One store the event loop wants made durable.
#[derive(Debug)]
pub(crate) struct StoreRequest {
    pub token: StoreToken,
    pub key: String,
    pub bytes: bytes::Bytes,
}

/// Handle the runner keeps: the request queue plus the join handle that
/// yields the storage back at shutdown.
pub(crate) struct Syncer {
    tx: Sender<StoreRequest>,
    handle: Option<std::thread::JoinHandle<Box<dyn StableStorage>>>,
}

impl Syncer {
    /// Spawns the syncer thread for one node. `outcomes` is the node's
    /// event queue, where commit results re-enter the loop; `failures` is
    /// the counter behind
    /// [`ProcessRunner::store_failures`](crate::ProcessRunner::store_failures);
    /// `obs` is the node's observability handle (group commits show up in
    /// the flight recorder and the `syncer.*` metrics).
    pub(crate) fn spawn_with_obs(
        me: rmem_types::ProcessId,
        storage: Box<dyn StableStorage>,
        outcomes: Sender<RunnerEvent>,
        failures: Arc<AtomicU64>,
        obs: ObsHandle,
    ) -> Self {
        let (tx, rx) = unbounded::<StoreRequest>();
        let handle = std::thread::Builder::new()
            .name(format!("rmem-sync-{me}"))
            .spawn(move || run(storage, rx, outcomes, failures, obs))
            .expect("spawning the syncer thread");
        Syncer {
            tx,
            handle: Some(handle),
        }
    }

    /// Enqueues a store. `false` means the syncer thread is gone: either
    /// it halted on a log failure (its `StoreFailed` is already on the
    /// node's queue) or it died without a verdict.
    pub(crate) fn submit(&self, req: StoreRequest) -> bool {
        self.tx.send(req).is_ok()
    }

    /// Stops the thread and returns the storage (the "disk" the next
    /// incarnation recovers from).
    pub(crate) fn stop(mut self) -> Box<dyn StableStorage> {
        drop(self.tx); // closing the queue is the shutdown signal
        self.handle
            .take()
            .expect("stop called once")
            .join()
            .expect("syncer thread panicked")
    }
}

fn run(
    mut storage: Box<dyn StableStorage>,
    rx: Receiver<StoreRequest>,
    outcomes: Sender<RunnerEvent>,
    failures: Arc<AtomicU64>,
    obs: ObsHandle,
) -> Box<dyn StableStorage> {
    let commits = obs.metrics.counter("syncer.commits");
    let commit_micros = obs.metrics.histogram("syncer.commit_micros");
    let group_size = obs.metrics.histogram("syncer.group_size");
    // Blocks until work arrives; Err means the runner dropped the queue.
    while let Ok(first) = rx.recv() {
        // The group: everything queued while the previous commit ran.
        let mut batch = vec![first];
        while let Ok(req) = rx.try_recv() {
            batch.push(req);
        }
        let commit_started = Instant::now();
        let mut staged = Vec::with_capacity(batch.len());
        let mut error = None;
        for req in batch {
            match storage.begin_store(&req.key, req.bytes.clone()) {
                Ok(()) => staged.push(req.token),
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        let error = error.or_else(|| storage.flush().err());
        match error {
            None => {
                commits.inc();
                group_size.record(staged.len() as u64);
                if obs.metrics.is_enabled() {
                    commit_micros.record(commit_started.elapsed().as_micros() as u64);
                }
                obs.flight
                    .record(FlightEvent::new(EventKind::GroupCommit).with_aux(staged.len() as u64));
                let _ = outcomes.send(RunnerEvent::StoresDurable(staged));
            }
            Some(e) => {
                // A store the log could not make durable: per the model
                // the process crashes. Nothing staged is acknowledged —
                // some of it may be on disk (harmless: unacknowledged
                // stores are exactly what recovery is specified to
                // tolerate), but no ack can have raced ahead.
                failures.fetch_add(1, Ordering::Relaxed);
                let _ = outcomes.send(RunnerEvent::StoreFailed(e));
                break;
            }
        }
    }
    storage
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ProcessRunner;
    use bytes::Bytes;
    use parking_lot::Mutex;
    use rmem_storage::{FaultPlan, FaultyStorage, MemStorage, StorageError};
    use rmem_types::ProcessId;
    use std::time::Duration;

    /// A syncer over `storage`, and a closure that waits for the next
    /// thing it posts: one group commit's durable tokens, or the failure.
    fn spawn(
        storage: impl StableStorage + 'static,
        failures: Arc<AtomicU64>,
    ) -> (Syncer, impl Fn() -> Result<Vec<StoreToken>, StorageError>) {
        let (_inbox, queue) = ProcessRunner::queue();
        let syncer = Syncer::spawn_with_obs(
            ProcessId(0),
            Box::new(storage),
            queue.tx.clone(),
            failures,
            ObsHandle::new(),
        );
        let next = move || match queue.rx.recv_timeout(Duration::from_secs(5)) {
            Ok(RunnerEvent::StoresDurable(tokens)) => Ok(tokens),
            Ok(RunnerEvent::StoreFailed(e)) => Err(e),
            _ => panic!("the syncer posts only commit outcomes"),
        };
        (syncer, next)
    }

    /// A storage probe that records the call sequence, so tests can
    /// assert every `Done` was preceded by the flush covering it.
    #[derive(Clone, Default)]
    struct Probe {
        log: Arc<Mutex<Vec<String>>>,
        staged: Arc<Mutex<Vec<String>>>,
        committed: Arc<Mutex<Vec<String>>>,
        delay: Option<Duration>,
    }

    impl StableStorage for Probe {
        fn store(&mut self, key: &str, bytes: Bytes) -> Result<(), StorageError> {
            self.begin_store(key, bytes)?;
            self.flush()
        }

        fn retrieve(&self, _key: &str) -> Result<Option<Bytes>, StorageError> {
            Ok(None)
        }

        fn keys(&self) -> Vec<String> {
            Vec::new()
        }

        fn begin_store(&mut self, key: &str, _bytes: Bytes) -> Result<(), StorageError> {
            self.log.lock().push(format!("begin:{key}"));
            self.staged.lock().push(key.to_string());
            Ok(())
        }

        fn flush(&mut self) -> Result<(), StorageError> {
            if let Some(d) = self.delay {
                std::thread::sleep(d);
            }
            let staged: Vec<String> = self.staged.lock().drain(..).collect();
            self.log.lock().push(format!("flush:{}", staged.len()));
            self.committed.lock().extend(staged);
            Ok(())
        }
    }

    fn req(token: u64) -> StoreRequest {
        StoreRequest {
            token: StoreToken(token),
            key: format!("k{token}"),
            bytes: Bytes::from_static(b"v"),
        }
    }

    #[test]
    fn done_only_after_the_covering_flush() {
        let probe = Probe::default();
        let committed = probe.committed.clone();
        let (syncer, next) = spawn(probe, Arc::new(AtomicU64::new(0)));
        for t in 0..10u64 {
            syncer.submit(req(t));
        }
        let mut done = 0;
        while done < 10 {
            for token in next().expect("no failure injected") {
                // The commit covering this store must already have
                // happened: its key is in the committed set.
                assert!(
                    committed
                        .lock()
                        .iter()
                        .any(|k| k == &format!("k{}", token.0)),
                    "ack for k{} preceded its commit",
                    token.0
                );
                done += 1;
            }
        }
        syncer.stop();
    }

    #[test]
    fn stores_arriving_during_a_slow_commit_coalesce() {
        let probe = Probe {
            delay: Some(Duration::from_millis(40)),
            ..Probe::default()
        };
        let log = probe.log.clone();
        let (syncer, next) = spawn(probe, Arc::new(AtomicU64::new(0)));
        // First store starts a slow commit; the rest pile up behind it.
        syncer.submit(req(0));
        std::thread::sleep(Duration::from_millis(10));
        for t in 1..8u64 {
            syncer.submit(req(t));
        }
        let mut groups = Vec::new();
        while groups.iter().sum::<usize>() < 8 {
            groups.push(next().expect("no failure injected").len());
        }
        syncer.stop();
        let flushes: Vec<usize> = log
            .lock()
            .iter()
            .filter_map(|l| l.strip_prefix("flush:").and_then(|n| n.parse().ok()))
            .collect();
        assert_eq!(flushes.iter().sum::<usize>(), 8, "every store committed");
        assert_eq!(groups, flushes, "one event per group commit");
        assert!(
            flushes.len() < 8,
            "stores queued behind a slow fsync must share commits, got {flushes:?}"
        );
        assert!(
            flushes.iter().any(|&n| n > 1),
            "at least one commit must be a real group, got {flushes:?}"
        );
    }

    #[test]
    fn a_log_failure_reports_failed_and_stops() {
        let failures = Arc::new(AtomicU64::new(0));
        let storage = FaultyStorage::new(MemStorage::new(), FaultPlan::fail_at(vec![2]));
        let (syncer, next) = spawn(storage, failures.clone());
        syncer.submit(req(0));
        // Let the first commit complete so the failing store is its own
        // group (deterministic position 2).
        assert_eq!(next().expect("first store"), vec![StoreToken(0)]);
        syncer.submit(req(1));
        if let Ok(tokens) = next() {
            panic!("stores {tokens:?} must not be acked after a log failure");
        }
        assert_eq!(failures.load(Ordering::Relaxed), 1);
        // The syncer stopped: the storage comes back even though requests
        // may still be queued.
        let storage = syncer.stop();
        assert_eq!(storage.keys(), vec!["k0".to_string()]);
    }
}
