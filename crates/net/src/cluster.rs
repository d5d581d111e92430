//! Local clusters: `n` runners wired together on one machine, with
//! kill/restart support for crash-recovery experiments on real threads.

use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::Mutex;
use rmem_obs::{FlightRecorder, MetricsSnapshot, ObsHandle};
use rmem_storage::{
    CountingStorage, FileStorage, MemStorage, StableStorage, StorageError, StoreCounters,
    WalStorage,
};
use rmem_types::{AutomatonFactory, ProcessId};

use crate::channel::{ChannelTransport, Switchboard};
use crate::error::NetError;
use crate::runner::{Client, ProcessRunner};
use crate::tcp::TcpTransport;
use crate::transport::Transport;
use crate::udp::UdpTransport;

/// A [`StableStorage`] handle shareable between the cluster (which must
/// keep it across kill/restart — the "disk" survives the "machine") and
/// the runner thread using it.
#[derive(Debug, Clone)]
pub struct SharedStorage(Arc<Mutex<MemStorage>>);

impl SharedStorage {
    /// Creates empty shared storage.
    pub fn new() -> Self {
        SharedStorage(Arc::new(Mutex::new(MemStorage::new())))
    }
}

impl Default for SharedStorage {
    fn default() -> Self {
        SharedStorage::new()
    }
}

impl StableStorage for SharedStorage {
    fn store(&mut self, key: &str, bytes: bytes::Bytes) -> Result<(), StorageError> {
        self.0.lock().store(key, bytes)
    }

    fn retrieve(&self, key: &str) -> Result<Option<bytes::Bytes>, StorageError> {
        self.0.lock().retrieve(key)
    }

    fn keys(&self) -> Vec<String> {
        self.0.lock().keys()
    }

    /// Memory needs no physical fsync.
    fn fsyncs_per_commit(&self) -> u64 {
        0
    }
}

enum TransportKind {
    Channel(Arc<Switchboard>),
    Udp(Vec<std::net::SocketAddr>),
    Tcp(Vec<std::net::SocketAddr>),
}

/// Which disk backend a directory-backed cluster gives its nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskMode {
    /// [`FileStorage`]: one fsync'd file per slot — the paper's §V-A
    /// synchronous log, two physical fsyncs per store.
    File,
    /// [`WalStorage`]: the segmented group-commit write-ahead log — one
    /// fsync per commit, shared by every store the syncer batched.
    Wal,
}

enum NodeDisk {
    Shared(SharedStorage),
    Dir(PathBuf, DiskMode),
}

impl NodeDisk {
    fn open(&self, counters: &Arc<StoreCounters>) -> Box<dyn StableStorage> {
        let inner: Box<dyn StableStorage> = match self {
            NodeDisk::Shared(s) => Box::new(s.clone()),
            NodeDisk::Dir(dir, DiskMode::File) => {
                Box::new(FileStorage::open(dir).expect("opening the node's storage directory"))
            }
            NodeDisk::Dir(dir, DiskMode::Wal) => {
                Box::new(WalStorage::open(dir).expect("opening the node's write-ahead log"))
            }
        };
        Box::new(CountingStorage::new(inner, counters.clone()))
    }
}

/// A cluster of `n` processes on this machine.
///
/// Three wirings, same runner code: in-memory channels
/// ([`channel`](LocalCluster::channel)), UDP loopback sockets
/// ([`udp`](LocalCluster::udp) — the paper's §V-A setup with `FileStorage`
/// fsync logs), or TCP ([`tcp`](LocalCluster::tcp) — for payloads above
/// the UDP datagram ceiling).
///
/// [`kill`](LocalCluster::kill) stops a process abruptly while its storage
/// survives; [`restart`](LocalCluster::restart) boots a new incarnation
/// that runs the algorithm's recovery procedure.
pub struct LocalCluster {
    factory: Arc<dyn AutomatonFactory>,
    kind: TransportKind,
    disks: Vec<NodeDisk>,
    nodes: Vec<Option<ProcessRunner>>,
    /// Per-node storage instrumentation (stores, bytes, commits, fsyncs);
    /// survives kill/restart so a whole experiment accumulates.
    counters: Vec<Arc<StoreCounters>>,
    /// Per-node observability (metrics registry + flight recorder); like
    /// the storage counters it survives kill/restart, so a node's event
    /// trail spans its incarnations.
    obs: Vec<ObsHandle>,
}

impl std::fmt::Debug for LocalCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalCluster")
            .field("n", &self.nodes.len())
            .field("algorithm", &self.factory.algorithm())
            .finish()
    }
}

impl LocalCluster {
    /// An in-memory cluster: crossbeam-channel transport, crash-surviving
    /// [`SharedStorage`]. Fast enough for unit tests.
    ///
    /// # Errors
    ///
    /// Infallible today; `Result` keeps the signature uniform with the
    /// socket-backed constructors.
    pub fn channel(n: usize, factory: Arc<dyn AutomatonFactory>) -> Result<Self, NetError> {
        let board = Switchboard::new(n);
        let disks = (0..n)
            .map(|_| NodeDisk::Shared(SharedStorage::new()))
            .collect();
        Self::assemble(factory, TransportKind::Channel(board), disks)
    }

    /// An in-memory-transport cluster with *mixed* disks: every
    /// `wal_every`-th node (0, `wal_every`, 2·`wal_every`, …) persists to
    /// a real group-commit [`WalStorage`] under `dir`, the rest use
    /// [`SharedStorage`]. The chaos suites use this wiring to run big
    /// clusters cheaply (channel transport, mostly memory disks) while
    /// still exercising genuine WAL recoveries — including torn tails via
    /// [`tear_wal_tail`](LocalCluster::tear_wal_tail) — on a spread of
    /// nodes.
    ///
    /// # Errors
    ///
    /// Infallible today; `Result` keeps the signature uniform with the
    /// socket-backed constructors.
    ///
    /// # Panics
    ///
    /// Panics if `wal_every` is zero.
    pub fn channel_mixed(
        n: usize,
        factory: Arc<dyn AutomatonFactory>,
        dir: impl Into<PathBuf>,
        wal_every: usize,
    ) -> Result<Self, NetError> {
        assert!(wal_every > 0, "wal_every must be at least 1");
        let board = Switchboard::new(n);
        let dir = dir.into();
        let disks = (0..n)
            .map(|i| {
                if i % wal_every == 0 {
                    NodeDisk::Dir(dir.join(format!("p{i}")), DiskMode::Wal)
                } else {
                    NodeDisk::Shared(SharedStorage::new())
                }
            })
            .collect();
        Self::assemble(factory, TransportKind::Channel(board), disks)
    }

    /// A UDP loopback cluster with file-backed storage under `dir` — the
    /// closest analogue of the paper's testbed on one machine.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] if sockets cannot be bound.
    pub fn udp(
        n: usize,
        factory: Arc<dyn AutomatonFactory>,
        dir: impl Into<PathBuf>,
    ) -> Result<Self, NetError> {
        Self::udp_with_disk(n, factory, dir, DiskMode::File)
    }

    /// [`udp`](LocalCluster::udp) with an explicit disk backend: the
    /// paper's per-slot fsync files or the group-commit WAL.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] if sockets cannot be bound.
    pub fn udp_with_disk(
        n: usize,
        factory: Arc<dyn AutomatonFactory>,
        dir: impl Into<PathBuf>,
        mode: DiskMode,
    ) -> Result<Self, NetError> {
        Self::udp_with_disk_obs(n, factory, dir, mode, true)
    }

    /// [`udp_with_disk`](LocalCluster::udp_with_disk) with observability
    /// switched on or off. `obs_enabled = false` is the uninstrumented
    /// baseline the bench harness measures overhead against: flight
    /// recorders drop every event and latency timing is skipped.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] if sockets cannot be bound.
    pub fn udp_with_disk_obs(
        n: usize,
        factory: Arc<dyn AutomatonFactory>,
        dir: impl Into<PathBuf>,
        mode: DiskMode,
        obs_enabled: bool,
    ) -> Result<Self, NetError> {
        Self::udp_with_disk_obs_sized(
            n,
            factory,
            dir,
            mode,
            obs_enabled,
            FlightRecorder::DEFAULT_CAPACITY,
        )
    }

    /// [`udp_with_disk_obs`](LocalCluster::udp_with_disk_obs) with an
    /// explicit flight-recorder ring capacity per node (rounded up to a
    /// power of two; each slot costs
    /// [`FlightRecorder::SLOT_BYTES`] = 48 bytes plus a sixteenth for the
    /// spill ring, so a 2^18-slot tracing ring is 12.75 MiB per node). The default 4096-slot ring keeps only a
    /// postmortem tail; stitched tracing over a long benchmark run needs
    /// rings deep enough to hold every event of the window being stitched.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] if sockets cannot be bound.
    pub fn udp_with_disk_obs_sized(
        n: usize,
        factory: Arc<dyn AutomatonFactory>,
        dir: impl Into<PathBuf>,
        mode: DiskMode,
        obs_enabled: bool,
        ring_capacity: usize,
    ) -> Result<Self, NetError> {
        let base = free_udp_base(n);
        let peers = UdpTransport::loopback_peers(n, base);
        let dir = dir.into();
        let disks = (0..n)
            .map(|i| NodeDisk::Dir(dir.join(format!("p{i}")), mode))
            .collect();
        Self::assemble_with_obs(
            factory,
            TransportKind::Udp(peers),
            disks,
            obs_enabled,
            ring_capacity,
        )
    }

    /// A TCP loopback cluster with file-backed storage under `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] if listeners cannot be bound.
    pub fn tcp(
        n: usize,
        factory: Arc<dyn AutomatonFactory>,
        dir: impl Into<PathBuf>,
    ) -> Result<Self, NetError> {
        let base = free_tcp_base(n);
        let peers = TcpTransport::loopback_peers(n, base);
        let dir = dir.into();
        let disks = (0..n)
            .map(|i| NodeDisk::Dir(dir.join(format!("p{i}")), DiskMode::File))
            .collect();
        Self::assemble(factory, TransportKind::Tcp(peers), disks)
    }

    fn assemble(
        factory: Arc<dyn AutomatonFactory>,
        kind: TransportKind,
        disks: Vec<NodeDisk>,
    ) -> Result<Self, NetError> {
        Self::assemble_with_obs(factory, kind, disks, true, FlightRecorder::DEFAULT_CAPACITY)
    }

    fn assemble_with_obs(
        factory: Arc<dyn AutomatonFactory>,
        kind: TransportKind,
        disks: Vec<NodeDisk>,
        obs_enabled: bool,
        ring_capacity: usize,
    ) -> Result<Self, NetError> {
        let n = disks.len();
        let mut cluster = LocalCluster {
            factory,
            kind,
            disks,
            nodes: (0..n).map(|_| None).collect(),
            counters: (0..n).map(|_| StoreCounters::new()).collect(),
            obs: (0..n)
                .map(|_| {
                    if obs_enabled {
                        ObsHandle::with_capacity(ring_capacity)
                    } else {
                        ObsHandle::disabled()
                    }
                })
                .collect(),
        };
        for pid in ProcessId::all(n) {
            cluster.boot(pid)?;
        }
        Ok(cluster)
    }

    fn boot(&mut self, pid: ProcessId) -> Result<(), NetError> {
        let n = self.nodes.len();
        let (inbox, queue) = ProcessRunner::queue();
        let transport: Arc<dyn Transport> = match &self.kind {
            TransportKind::Channel(board) => {
                Arc::new(ChannelTransport::new(pid, n, board.clone(), inbox))
            }
            TransportKind::Udp(peers) => Arc::new(UdpTransport::bind(pid, peers.clone(), inbox)?),
            TransportKind::Tcp(peers) => Arc::new(TcpTransport::bind(pid, peers.clone(), inbox)?),
        };
        let storage = self.disks[pid.index()].open(&self.counters[pid.index()]);
        let runner = ProcessRunner::start_with_obs(
            self.factory.as_ref(),
            storage,
            transport,
            queue,
            self.obs[pid.index()].clone(),
        );
        self.nodes[pid.index()] = Some(runner);
        Ok(())
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no processes (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// A client handle for `pid`.
    ///
    /// # Panics
    ///
    /// Panics if the process is currently killed.
    pub fn client(&self, pid: ProcessId) -> Client {
        self.nodes[pid.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("{pid} is down"))
            .client()
    }

    /// Client handles for every process that is currently up, in process
    /// order. The natural input for `rmem-kv`'s `KvClient`, which spreads
    /// per-shard traffic across the cluster.
    pub fn clients(&self) -> Vec<Client> {
        self.nodes
            .iter()
            .flatten()
            .map(ProcessRunner::client)
            .collect()
    }

    /// Whether `pid` is currently running.
    pub fn is_up(&self, pid: ProcessId) -> bool {
        self.nodes[pid.index()].is_some()
    }

    /// The storage instrumentation for `pid`: stores, bytes, commits,
    /// fsyncs and group sizes, accumulated across restarts.
    pub fn storage_counters(&self, pid: ProcessId) -> Arc<StoreCounters> {
        self.counters[pid.index()].clone()
    }

    /// The observability handle for `pid` (metrics registry + flight
    /// recorder), accumulated across restarts like the storage counters.
    pub fn obs(&self, pid: ProcessId) -> &ObsHandle {
        &self.obs[pid.index()]
    }

    /// The flight recorder for `pid` — the event trail to dump when a
    /// fault experiment fails certification.
    pub fn flight_recorder(&self, pid: ProcessId) -> Arc<FlightRecorder> {
        self.obs[pid.index()].flight.clone()
    }

    /// A point-in-time copy of `pid`'s metrics, with the storage layer's
    /// [`StoreCounters`] bridged in as `storage.*` gauges so one snapshot
    /// covers the whole node.
    pub fn metrics(&self, pid: ProcessId) -> MetricsSnapshot {
        let c = &self.counters[pid.index()];
        let mut snap = self.obs[pid.index()].metrics.snapshot();
        snap.set_gauge("storage.stores", c.stores());
        snap.set_gauge("storage.bytes", c.bytes());
        snap.set_gauge("storage.retrieves", c.retrieves());
        snap.set_gauge("storage.commits", c.commits());
        snap.set_gauge("storage.fsyncs", c.fsyncs());
        snap
    }

    /// Every node's flight-recorder tail, rendered as one labelled
    /// timeline block per node — what the fault suites print when
    /// certification fails.
    pub fn dump_flight_recorders(&self, last: usize) -> String {
        let mut out = String::new();
        for pid in ProcessId::all(self.nodes.len()) {
            out.push_str(&format!("--- flight recorder {pid} ---\n"));
            out.push_str(&self.obs[pid.index()].flight.dump_timeline(last));
        }
        out
    }

    /// Every node's flight-recorder contents as stitcher inputs — one
    /// [`RingDump`](rmem_obs::trace::RingDump) per node. Append the
    /// client family's dump (see [`TraceCtx`](crate::runner::TraceCtx))
    /// and hand the lot to [`rmem_obs::trace::stitch`].
    pub fn ring_dumps(&self) -> Vec<rmem_obs::trace::RingDump> {
        ProcessId::all(self.nodes.len())
            .map(|pid| rmem_obs::trace::RingDump::node(pid.0, self.obs[pid.index()].flight.dump()))
            .collect()
    }

    /// Every node's flight recorder stitched into causal per-op timelines
    /// (plus any `extra` rings — typically the traced client families'),
    /// rendered as the stitch summary followed by the `n` slowest ops'
    /// full timelines. What the fault suites print when certification
    /// fails: unlike [`dump_flight_recorders`](Self::dump_flight_recorders)
    /// the events of all nodes appear on one clock, in causal order.
    pub fn dump_stitched(&self, extra: Vec<rmem_obs::trace::RingDump>, n: usize) -> String {
        let mut rings = self.ring_dumps();
        rings.extend(extra);
        let report = rmem_obs::trace::stitch(&rings);
        format!(
            "{}\n{}",
            report.render_summary(),
            report.render_exemplars(n)
        )
    }

    /// How many stable-storage commits have failed at `pid` (the first
    /// one halts the node). 0 for a killed node slot.
    pub fn store_failures(&self, pid: ProcessId) -> u64 {
        self.nodes[pid.index()]
            .as_ref()
            .map_or(0, ProcessRunner::store_failures)
    }

    /// Whether `pid`'s event loop has exited on its own — the clean halt
    /// a log failure forces — while the cluster still considers the slot
    /// occupied. [`kill`](LocalCluster::kill) + [`restart`](LocalCluster::restart)
    /// recovers such a node.
    pub fn is_halted(&self, pid: ProcessId) -> bool {
        self.nodes[pid.index()]
            .as_ref()
            .is_some_and(ProcessRunner::is_halted)
    }

    /// Kills `pid`: the runner stops, volatile state is gone, stable
    /// storage survives for [`restart`](LocalCluster::restart). No-op if
    /// already down.
    pub fn kill(&mut self, pid: ProcessId) {
        if let Some(runner) = self.nodes[pid.index()].take() {
            let _ = runner.stop();
        }
    }

    /// Whether `pid`'s disk is a directory-backed write-ahead log — the
    /// only disks [`tear_wal_tail`](LocalCluster::tear_wal_tail) can
    /// corrupt.
    pub fn has_wal_disk(&self, pid: ProcessId) -> bool {
        matches!(self.disks[pid.index()], NodeDisk::Dir(_, DiskMode::Wal))
    }

    /// Tears the tail of a killed WAL-backed node's newest log segment by
    /// appending garbage bytes, simulating a crash that interrupted an
    /// in-flight append. The node's next
    /// [`restart`](LocalCluster::restart) must recover by truncating the
    /// torn tail (the WAL's CRC guard) — exactly the §V-A "recover from
    /// whatever the disk holds" scenario.
    ///
    /// Returns the number of garbage bytes appended; `Ok(0)` if the node
    /// has no segments yet (it never logged).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from reading the directory or
    /// appending to the segment.
    ///
    /// # Panics
    ///
    /// Panics if the node is still up (tearing a live log is not a crash
    /// model, it's a data race) or if its disk is not a directory-backed
    /// WAL (see [`has_wal_disk`](LocalCluster::has_wal_disk)).
    pub fn tear_wal_tail(&mut self, pid: ProcessId) -> std::io::Result<usize> {
        assert!(
            !self.is_up(pid),
            "{pid} is still up; kill it before tearing its log"
        );
        let NodeDisk::Dir(dir, DiskMode::Wal) = &self.disks[pid.index()] else {
            panic!("{pid} has no write-ahead log to tear");
        };
        let mut segments: Vec<PathBuf> = match std::fs::read_dir(dir) {
            Ok(entries) => entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".wal"))
                })
                .collect(),
            // The node never booted far enough to create its directory.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        segments.sort();
        let Some(newest) = segments.pop() else {
            return Ok(0);
        };
        // Half a record header's worth of garbage: enough to fail the CRC
        // check, short enough to look like an interrupted append.
        const GARBAGE: [u8; 7] = [0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x13, 0x37];
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new().append(true).open(&newest)?;
        file.write_all(&GARBAGE)?;
        file.sync_all()?;
        Ok(GARBAGE.len())
    }

    /// Restarts a killed `pid`; the new incarnation recovers from the
    /// surviving storage (running the algorithm's recovery procedure).
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] if the transport cannot be rebuilt.
    ///
    /// # Panics
    ///
    /// Panics if the process is still up.
    pub fn restart(&mut self, pid: ProcessId) -> Result<(), NetError> {
        assert!(self.nodes[pid.index()].is_none(), "{pid} is still up");
        self.boot(pid)
    }

    /// Stops every process.
    pub fn shutdown(&mut self) {
        for pid in ProcessId::all(self.nodes.len()) {
            self.kill(pid);
        }
    }
}

impl Drop for LocalCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn free_udp_base(n: usize) -> u16 {
    let probe = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    let port = probe.local_addr().unwrap().port();
    drop(probe);
    assert!((port as usize) + n < u16::MAX as usize);
    port
}

fn free_tcp_base(n: usize) -> u16 {
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let port = probe.local_addr().unwrap().port();
    drop(probe);
    assert!((port as usize) + n < u16::MAX as usize);
    port
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmem_core::{Persistent, Transient};
    use rmem_types::Value;

    #[test]
    fn channel_cluster_write_read() {
        let mut cluster = LocalCluster::channel(3, Transient::factory()).unwrap();
        cluster
            .client(ProcessId(0))
            .write(Value::from_u32(11))
            .unwrap();
        let v = cluster.client(ProcessId(2)).read().unwrap();
        assert_eq!(v.as_u32(), Some(11));
        cluster.shutdown();
    }

    #[test]
    fn kill_and_restart_preserves_written_values() {
        let mut cluster = LocalCluster::channel(3, Persistent::factory()).unwrap();
        cluster
            .client(ProcessId(0))
            .write(Value::from_u32(77))
            .unwrap();
        cluster.kill(ProcessId(0));
        assert!(!cluster.is_up(ProcessId(0)));
        // Reads still work with a majority up.
        let v = cluster.client(ProcessId(1)).read().unwrap();
        assert_eq!(v.as_u32(), Some(77));
        // The restarted process recovers and serves too.
        cluster.restart(ProcessId(0)).unwrap();
        assert!(cluster.is_up(ProcessId(0)));
        let v = cluster.client(ProcessId(0)).read().unwrap();
        assert_eq!(v.as_u32(), Some(77));
        cluster.shutdown();
    }

    #[test]
    fn total_crash_with_full_recovery_keeps_the_value() {
        let mut cluster = LocalCluster::channel(3, Persistent::factory()).unwrap();
        cluster
            .client(ProcessId(1))
            .write(Value::from_u32(5))
            .unwrap();
        for pid in ProcessId::all(3) {
            cluster.kill(pid);
        }
        for pid in ProcessId::all(3) {
            cluster.restart(pid).unwrap();
        }
        let v = cluster.client(ProcessId(2)).read().unwrap();
        assert_eq!(
            v.as_u32(),
            Some(5),
            "the completed write must survive a total crash"
        );
        cluster.shutdown();
    }
}
