//! `rmem-node` — run one process of a robust shared-memory cluster.
//!
//! ```text
//! rmem-node --id <N> --peers <addr,addr,...> [options]
//!
//!   --id <N>              this process's index into the peer list
//!   --peers <list>        comma-separated socket addresses, one per process
//!   --algo <name>         persistent | transient | crash-stop | regular
//!                         (default: persistent; always the multi-register
//!                         shared-memory form)
//!   --dir <path>          stable-storage directory (default: ./rmem-node-<id>)
//!   --transport <t>       udp | tcp (default: udp)
//!   --control <addr>      control-protocol listen address
//!                         (default: peer address port + 1000)
//! ```
//!
//! Example 3-node cluster on one machine:
//!
//! ```text
//! rmem-node --id 0 --peers 127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102 &
//! rmem-node --id 1 --peers 127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102 &
//! rmem-node --id 2 --peers 127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102 &
//! rmem-client --node 127.0.0.1:8100 write 0 "hello"
//! rmem-client --node 127.0.0.1:8101 read 0
//! ```
//!
//! Kill a node with SIGKILL mid-write if you like — that is the model.
//! Restarting it with the same `--dir` runs the recovery procedure.

use std::net::SocketAddr;
use std::sync::Arc;

use rmem_core::{CrashStop, Persistent, Regular, SharedMemory, Transient};
use rmem_net::{ControlServer, ProcessRunner, TcpTransport, Transport, UdpTransport};
use rmem_storage::FileStorage;
use rmem_types::{AutomatonFactory, ProcessId};

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: rmem-node --id <N> --peers <addr,...> [--algo persistent|transient|crash-stop|regular] [--dir <path>] [--transport udp|tcp] [--control <addr>]");
    std::process::exit(2);
}

struct Args {
    id: u16,
    peers: Vec<SocketAddr>,
    algo: String,
    dir: std::path::PathBuf,
    transport: String,
    control: Option<SocketAddr>,
}

fn parse_args() -> Args {
    let mut id = None;
    let mut peers: Vec<SocketAddr> = Vec::new();
    let mut algo = "persistent".to_string();
    let mut dir = None;
    let mut transport = "udp".to_string();
    let mut control = None;

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--id" => id = value("--id").parse().ok(),
            "--peers" => {
                peers = value("--peers")
                    .split(',')
                    .map(|a| {
                        a.parse()
                            .unwrap_or_else(|_| usage(&format!("bad peer address {a:?}")))
                    })
                    .collect();
            }
            "--algo" => algo = value("--algo"),
            "--dir" => dir = Some(std::path::PathBuf::from(value("--dir"))),
            "--transport" => transport = value("--transport"),
            "--control" => control = value("--control").parse().ok(),
            "--help" | "-h" => usage("help requested"),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let Some(id) = id else {
        usage("--id is required")
    };
    if peers.is_empty() {
        usage("--peers is required");
    }
    if (id as usize) >= peers.len() {
        usage("--id must index into --peers");
    }
    let dir = dir.unwrap_or_else(|| std::path::PathBuf::from(format!("rmem-node-{id}")));
    Args {
        id,
        peers,
        algo,
        dir,
        transport,
        control,
    }
}

fn factory_for(algo: &str) -> Arc<dyn AutomatonFactory> {
    let flavor = match algo {
        "persistent" => Persistent::flavor(),
        "transient" => Transient::flavor(),
        "crash-stop" => CrashStop::flavor(),
        "regular" => Regular::flavor(),
        other => usage(&format!("unknown algorithm {other:?}")),
    };
    SharedMemory::factory(flavor)
}

fn main() {
    let args = parse_args();
    let me = ProcessId(args.id);
    let factory = factory_for(&args.algo);

    let storage = FileStorage::open(&args.dir)
        .unwrap_or_else(|e| usage(&format!("cannot open storage dir: {e}")));

    let (inbox, queue) = ProcessRunner::queue();
    let transport: Arc<dyn Transport> = match args.transport.as_str() {
        "udp" => Arc::new(
            UdpTransport::bind(me, args.peers.clone(), inbox)
                .unwrap_or_else(|e| usage(&format!("transport: {e}"))),
        ),
        "tcp" => Arc::new(
            TcpTransport::bind(me, args.peers.clone(), inbox)
                .unwrap_or_else(|e| usage(&format!("transport: {e}"))),
        ),
        other => usage(&format!("unknown transport {other:?}")),
    };

    let runner = ProcessRunner::start(factory.as_ref(), Box::new(storage), transport, queue);

    let control_addr = args.control.unwrap_or_else(|| {
        let mut a = args.peers[args.id as usize];
        a.set_port(a.port() + 1000);
        a
    });
    let control = ControlServer::bind(control_addr, runner.client())
        .unwrap_or_else(|e| usage(&format!("control: {e}")));

    println!(
        "rmem-node {}: algorithm={} peers={} transport={} dir={} control={}",
        me,
        args.algo,
        args.peers.len(),
        args.transport,
        args.dir.display(),
        control.addr(),
    );
    println!("serving; kill me abruptly whenever you like — that is the model.");

    // Serve until killed. Crash semantics are the whole point: there is no
    // graceful-shutdown dance, stable storage is always consistent.
    loop {
        std::thread::park();
    }
}
