//! The host: real [`KvClient`](crate::KvClient)s inside a seeded
//! `rmem-sim` run.
//!
//! [`run_hosted`] runs **scripts** — ordinary blocking closures calling
//! `get`/`put`/`multi_*`/`resolve_all` on clients built
//! [`over`](crate::KvClient::over) the [`World`] it hands out — against a
//! [`Simulation`]: nodes are simulated processes, time is virtual, and
//! every effect of every client ([`crate::seam`]) is served from the
//! simulator's port. A submission is an invocation at the node's process
//! *now* — behind the one its register is serving, it waits its turn, as
//! at the real runner; a node crashing under an operation, or with it
//! still waiting, settles it `ProcessDown`; `with_op_timeout` is virtual
//! patience; tickets are [`InFlightTable`]'s.
//!
//! # One runs at a time
//!
//! Each script has its own (scoped) thread, but the threads never run
//! together: a **baton** names the one script allowed to run, every other
//! sleeps. A script keeps the baton until it waits ([`World::wait_any`])
//! or ends; giving it up, it picks the next holder itself, under the one
//! lock — the **lowest-numbered** script with a completed ticket or a ripe
//! deadline — and while there is none it steps the simulator, one event at
//! a time. Virtual time moves only there: client code takes none, and
//! scripts start in order at time zero.
//!
//! So a hosted run is **a function of its seed**: no two threads ever
//! race, the choice of the next script depends on nothing but the
//! simulator's state and the scripts' own past calls, and the only
//! randomness — network and disk, in the simulator — is seeded. Same seed,
//! same scripts: the same history, event for event.
//!
//! # Why threads, not a rewritten driver
//!
//! The client's driver as a resumable state machine fed by the simulator
//! would host the data path only. Everything above it — `resolve_all`,
//! exactly-once `put`, `multi_put` over an intent journal — is blocking
//! code calling the driver in loops, and each would need a
//! hand-written twin kept in step with it forever. Threads that take turns
//! host the **whole** client with no line of it rewritten: what virtual
//! time certifies is what ships. Fault exploration reads the same way: a
//! client crash after its k-th output is its host taking no output after
//! the k-th — [`Crash`](crate::Crash), which a hosted run can place at
//! every k of a script; a paused or skewed clock would be its answer to
//! [`World::now`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;
use std::time::Duration;

use bytes::BytesMut;
use rmem_net::pipeline::{AnyCompletion, Claimed, InFlightTable, Routed};
use rmem_net::{ClientError, Ticket};
use rmem_sim::{Invoked, SimReport, Simulation, VirtualTime};
use rmem_types::{Op, OpId, OpResult, ProcessId, RegisterId, RejectReason, Value};

use crate::seam::World;

/// One hosted client program: blocking code over hosted clients.
pub type Script<'s> = Box<dyn FnOnce() + Send + 's>;

/// What a script that gave the baton up sleeps on: the tokens of its
/// tickets and its deadline (zero once one of them completed).
#[derive(Default)]
struct Parked {
    tokens: Vec<u64>,
    until: VirtualTime,
}

struct State {
    sim: Simulation,
    table: InFlightTable,
    /// The ticket tokens of the operations the simulator holds for us.
    tokens: HashMap<OpId, u64>,
    /// The script holding the baton: every seam call is its.
    running: usize,
    /// Per script: what it sleeps on (`None` while it runs, and once it
    /// has ended), and its thread, to wake it alone.
    parked: Vec<Option<Parked>>,
    threads: Vec<Option<Thread>>,
    /// A script panicked: everyone else gives up too.
    aborted: bool,
}

/// The hosted [`World`], shared by every client of the run.
struct Host {
    state: Mutex<State>,
}

impl std::fmt::Debug for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Host")
    }
}

/// Runs scripts to their ends over `sim` (not yet started; attach its
/// schedule and faults first) and returns the simulator's report. `setup`
/// is handed the world and returns the scripts, so it can build clients —
/// independent families, or clones of one — and move them in. Panics if a
/// script does, or if the simulator hits its time or event limit with a
/// script still waiting.
pub fn run_hosted<'s>(
    mut sim: Simulation,
    setup: impl FnOnce(Arc<dyn World>) -> Vec<Script<'s>>,
) -> SimReport {
    sim.start();
    let host = Arc::new(Host {
        state: Mutex::new(State {
            sim,
            table: InFlightTable::new(),
            tokens: HashMap::new(),
            running: usize::MAX,
            parked: Vec::new(),
            threads: Vec::new(),
            aborted: false,
        }),
    });
    let scripts = setup(host.clone());
    // Everyone starts asleep on a deadline of zero: in order, at once.
    let asleep = |_| Some(Parked::default());
    host.lock().parked = scripts.iter().map(asleep).collect();
    host.lock().threads = vec![None; scripts.len()];
    host.lock().schedule();
    std::thread::scope(|scope| {
        for (me, script) in scripts.into_iter().enumerate() {
            let host = &*host;
            scope.spawn(move || {
                let _abort = AbortOnPanic(host);
                host.lock().threads[me] = Some(std::thread::current());
                drop(host.await_turn(me));
                script();
                // Ended (`parked[me]` stays `None`): pass the baton on.
                host.lock().schedule();
            });
        }
    });
    let report = host.lock().sim.finish();
    report
}

/// Wakes everyone up to fail with its thread if that panics: nobody else
/// would ever pass them the baton.
struct AbortOnPanic<'a>(&'a Host);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut st = (self.0.state.lock()).unwrap_or_else(PoisonError::into_inner);
            st.aborted = true;
            st.threads.iter().flatten().for_each(Thread::unpark);
        }
    }
}

impl State {
    /// Routes what the simulator completed into the ticket table, noting
    /// which sleepers that concerns.
    fn route(&mut self) {
        for (op, end) in self.sim.take_completions() {
            let token = self.tokens.remove(&op).expect("a hosted operation");
            // Lost to its node's crash: what a halting runner answers.
            let lost = (OpResult::Rejected(RejectReason::Shutdown), 0);
            let (result, rounds) = end.unwrap_or(lost);
            if self.table.route(token, result, rounds, None) == Routed::Delivered {
                for parked in self.parked.iter_mut().flatten() {
                    if parked.tokens.contains(&token) {
                        parked.until = VirtualTime::ZERO;
                    }
                }
            }
        }
    }

    /// Hands the baton to the lowest-numbered script with something to
    /// do, stepping the simulator until there is one (or none is left).
    fn schedule(&mut self) {
        loop {
            self.route();
            let now = self.sim.now();
            let ripe = |p: &Option<Parked>| p.as_ref().is_some_and(|p| p.until <= now);
            let next = self.parked.iter().position(ripe);
            if next.is_some() || self.parked.iter().all(Option::is_none) {
                self.running = next.unwrap_or(usize::MAX);
                let thread = next.and_then(|next| self.threads[next].as_ref());
                return thread.into_iter().for_each(Thread::unpark);
            }
            let stepped = self.sim.step();
            assert!(stepped, "the simulator is at its limits, scripts waiting");
        }
    }
}

impl Host {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("host state lock")
    }

    /// Sleeps until script `me` holds the baton.
    fn await_turn(&self, me: usize) -> MutexGuard<'_, State> {
        loop {
            let mut st = self.lock();
            assert!(!st.aborted, "another hosted script panicked");
            if st.running == me {
                st.parked[me] = None;
                return st;
            }
            drop(st);
            std::thread::park();
        }
    }
}

impl World for Host {
    fn nodes(&self) -> usize {
        self.lock().sim.processes()
    }

    fn max_value_len(&self) -> Option<usize> {
        None
    }

    fn submit(&self, node: usize, op: Op) -> Result<Ticket, ClientError> {
        let mut st = self.lock();
        let ticket = st.table.begin(node, op.register(), None);
        match st.sim.invoke(ProcessId(node as u16), op) {
            Invoked::Accepted(id) => {
                st.tokens.insert(id, ticket.token());
                Ok(ticket)
            }
            // The node's event loop is gone: nothing was sent.
            Invoked::Down => {
                st.table.cancel(ticket);
                Err(ClientError::ProcessDown)
            }
        }
    }

    fn submit_write_with(
        &self,
        node: usize,
        reg: RegisterId,
        fill: &mut dyn FnMut(&mut BytesMut),
    ) -> Result<Ticket, ClientError> {
        let mut payload = BytesMut::new();
        fill(&mut payload);
        self.submit(node, Op::WriteAt(reg, Value::new(payload.freeze())))
    }

    fn wait_any(&self, tickets: &[Ticket], until: Duration) -> Option<AnyCompletion> {
        let until = VirtualTime(u64::try_from(until.as_micros()).unwrap_or(u64::MAX));
        let me = self.lock().running;
        loop {
            let mut st = self.await_turn(me);
            st.route();
            for (i, &ticket) in tickets.iter().enumerate() {
                if let Claimed::Ready(result, rounds) = st.table.claim(ticket) {
                    let settled = match result {
                        OpResult::Rejected(_) => Err(ClientError::ProcessDown),
                        result => Ok((result, rounds)),
                    };
                    return Some((i, settled));
                }
            }
            if st.sim.now() >= until {
                return None;
            }
            // Give the baton up until a ticket completes or the clock —
            // kept running by the wake — gets there.
            st.sim.wake_at(until);
            let tokens = tickets.iter().map(|t| t.token()).collect();
            st.parked[me] = Some(Parked { tokens, until });
            st.schedule();
        }
    }

    fn cancel(&self, ticket: Ticket) {
        self.lock().table.cancel(ticket);
    }

    fn now(&self) -> Duration {
        Duration::from_micros(self.lock().sim.now().as_micros())
    }
}
