//! The seam: everything [`KvClient`](crate::KvClient) asks of the world.
//!
//! The client's driver is blocking code — routing, cutting, failover,
//! `resolve` — that never touches a socket, a
//! thread or a clock itself. What it needs from outside is one trait,
//! [`World`]: **submit** a register operation at a node (a write also
//! encoded in place), **wait** for any of a list of tickets until a
//! deadline, **cancel** one, the two facts it asks its transport (node
//! count, largest value) and the **time**.
//!
//! The clock is an effect like the rest, not a convenience: patience,
//! health-mark decay and latency laps all read time. A
//! client reading `Instant::now()` for any of them would differ from run
//! to run with every message delivered in the same order, and could not
//! run in virtual time at all. The world has no randomness effect: the
//! client draws none (a busy register queues its next operation at the
//! node, so nothing backs off). Behind the seam, a run of the client is a
//! function of what its world answers.
//!
//! Two implementations exist: `Wire`, the real runtime (`rmem-net`'s
//! pipelined reactor and the monotonic clock), and [`crate::host`]: the
//! same client, unmodified, in a seeded simulation.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use rmem_net::pipeline::AnyCompletion;
use rmem_net::{Client, ClientError, PipelinedClient, Ticket};
use rmem_types::{Op, RegisterId};

/// What a [`KvClient`](crate::KvClient) asks of the world it runs in (see
/// the [module docs](self)). Times are [`Duration`]s since an origin the
/// world fixes; only differences and order matter to the client.
pub trait World: Send + Sync + std::fmt::Debug {
    /// How many nodes there are; submissions name one by index.
    fn nodes(&self) -> usize;

    /// The largest register value a write can carry, if the transport
    /// bounds it.
    fn max_value_len(&self) -> Option<usize>;

    /// Submits `op` at `node`, returning its ticket at once — or
    /// [`ClientError::ProcessDown`] if the node is gone (nothing was sent),
    /// [`ClientError::TooLarge`] for a value over the frame.
    fn submit(&self, node: usize, op: Op) -> Result<Ticket, ClientError>;

    /// [`submit`](Self::submit) of a write to `reg` whose payload `fill`
    /// encodes in place, into the operation slot's reusable buffer.
    fn submit_write_with(
        &self,
        node: usize,
        reg: RegisterId,
        fill: &mut dyn FnMut(&mut BytesMut),
    ) -> Result<Ticket, ClientError>;

    /// Blocks until one of `tickets` completes — its index in the list and
    /// its settled result; the others stay in flight — or the clock
    /// reaches `until` (`None`; nothing is cancelled). A node that dies
    /// under an operation — or refuses it — settles the ticket with that
    /// error.
    fn wait_any(&self, tickets: &[Ticket], until: Duration) -> Option<AnyCompletion>;

    /// Abandons an operation in flight; its completion, if it comes, is
    /// dropped.
    fn cancel(&self, ticket: Ticket);

    /// The time.
    fn now(&self) -> Duration;
}

/// The origin of every [`Wire`]'s clock: one per process, so a client
/// rebuilt over new handles, and families sharing a health memory, agree
/// on what a stored deadline means.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// The real runtime: one reactor spanning the cluster's node handles.
#[derive(Debug)]
pub(crate) struct Wire {
    fan: PipelinedClient,
    max_value_len: Option<usize>,
}

impl Wire {
    /// A reactor over `nodes` (it inherits their trace context).
    pub(crate) fn new(nodes: &[Client]) -> Self {
        Wire {
            // Patience is the driver's: every wait names its deadline.
            fan: PipelinedClient::fan(nodes).with_timeout(Duration::from_secs(1 << 32)),
            // The minimum across nodes — a value must fit every replica's
            // frame, not just the contacted node's, because the protocol
            // forwards it to all of them.
            max_value_len: nodes.iter().filter_map(Client::max_value_len).min(),
        }
    }
}

impl World for Wire {
    fn nodes(&self) -> usize {
        self.fan.nodes()
    }

    fn max_value_len(&self) -> Option<usize> {
        self.max_value_len
    }

    fn submit(&self, node: usize, op: Op) -> Result<Ticket, ClientError> {
        self.fan.submit(node, op)
    }

    fn submit_write_with(
        &self,
        node: usize,
        reg: RegisterId,
        fill: &mut dyn FnMut(&mut BytesMut),
    ) -> Result<Ticket, ClientError> {
        self.fan.submit_write_with(node, reg, fill)
    }

    fn wait_any(&self, tickets: &[Ticket], until: Duration) -> Option<AnyCompletion> {
        self.fan.wait_any(tickets, Some(origin() + until))
    }

    fn cancel(&self, ticket: Ticket) {
        self.fan.cancel(ticket);
    }

    fn now(&self) -> Duration {
        origin().elapsed()
    }
}
