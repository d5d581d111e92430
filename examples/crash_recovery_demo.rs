//! The paper's Fig. 1, live: one crash schedule, two algorithms, two
//! verdicts — then the same crash at the *disk* level, recovered by the
//! write-ahead log.
//!
//! Part 1: the writer crashes in the middle of `W(v2)` after the value
//! reached a single replica; after recovery it starts `W(v3)`. Two reads
//! during `W(v3)` observe `v1` then `v2` under the transient algorithm —
//! the "overlapping write" the paper's Fig. 1 depicts — which
//! **transient atomicity permits and persistent atomicity forbids**. The
//! persistent algorithm on the same schedule never exposes `v2` at all
//! (the crash beat its pre-log, so recovery has nothing to finish).
//!
//! Part 2: a node's stable storage is now `WalStorage` (the segmented
//! group-commit log). We write records, crash mid-append — a torn tail
//! at the end of the newest segment — and reopen: replay keeps exactly
//! the durable prefix, truncates the torn bytes, and reports what it
//! did.
//!
//! ```text
//! cargo run --example crash_recovery_demo
//! ```

use bytes::Bytes;
use rmem_bench::scenarios;
use rmem_consistency::{check_persistent, check_transient};
use rmem_core::{Flavor, FlavorFactory, DEFAULT_RETRANSMIT};
use rmem_sim::{ClusterConfig, Simulation};
use rmem_storage::{StableStorage, WalStorage};
use rmem_types::AutomatonFactory;
use std::sync::Arc;

fn main() {
    // The figure's message pattern is the figures' broadcasts: the fast
    // path, and with it thrifty rounds, off.
    for flavor in [Flavor::transient(), Flavor::persistent()] {
        let flavor = flavor.with_read_fast_path(false);
        let factory: Arc<dyn AutomatonFactory> =
            Arc::new(FlavorFactory::new(flavor, DEFAULT_RETRANSMIT));
        let name = factory.algorithm();
        println!("=== {} register on the Fig. 1 schedule ===", name);
        let mut sim =
            Simulation::new(ClusterConfig::new(3), factory, 7).with_schedule(scenarios::fig1());
        let report = sim.run();
        for op in report.trace.operations() {
            println!("  {}", rmem_sim::render::describe_op(op));
        }
        println!(
            "{}",
            rmem_sim::render::render_timeline(&report.trace, 3, 90)
        );
        let history = report.trace.to_history();
        let persistent = check_persistent(&history)
            .map(|_| ())
            .map_err(|e| e.to_string());
        let transient = check_transient(&history)
            .map(|_| ())
            .map_err(|e| e.to_string());
        println!("  persistent atomicity: {}", verdict(&persistent));
        println!("  transient atomicity:  {}", verdict(&transient));
        println!();
    }
    println!("The transient run shows the overlapping write of Fig. 1 (left): after the");
    println!("writer's crash, a read still returns v1 and a later read returns v2 while");
    println!("W(v3) is in progress. Transient atomicity places W(v2)'s missing reply just");
    println!("before W(v3)'s reply (a weak completion); persistent atomicity cannot.");
    println!();
    wal_recovery_demo();
}

/// Part 2: the same crash story one layer down — a torn append in the
/// write-ahead log, truncated (never trusted) on recovery.
fn wal_recovery_demo() {
    println!("=== WAL crash recovery (torn tail) ===");
    let dir = std::env::temp_dir().join(format!("rmem-crashdemo-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // A process logs the algorithm's slots; the last append is torn by a
    // crash (simulated by cutting bytes off the newest segment — the
    // only way a torn write can exist, since `store` fsyncs).
    {
        let mut wal = WalStorage::open(&dir).expect("open WAL");
        wal.store("writing", Bytes::from_static(b"ts=3 v2"))
            .expect("store");
        wal.store("written", Bytes::from_static(b"ts=2 v1"))
            .expect("store");
        wal.store("written", Bytes::from_static(b"ts=3 v2"))
            .expect("store");
        println!(
            "  before crash: {} records across {} segment(s), {} bytes",
            3,
            wal.segment_ids().len(),
            wal.log_bytes()
        );
    }
    let seg = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "wal"))
        .expect("segment file");
    let len = std::fs::metadata(&seg).expect("metadata").len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .expect("open segment");
    f.set_len(len - 5).expect("tear the tail");
    drop(f);
    println!("  crash: the last append is torn (5 bytes short)");

    let wal = WalStorage::open(&dir).expect("reopen WAL");
    let r = wal.recovery_summary();
    println!(
        "  recovery: {} segment(s) replayed, {} record(s) scanned, {} slot(s) kept, \
         {} torn tail byte(s) truncated",
        r.segments_replayed, r.records_scanned, r.records_kept, r.tail_bytes_truncated
    );
    println!(
        "  written = {:?} (the torn ts=3 adoption is gone — it was never",
        wal.retrieve("written")
            .expect("retrieve")
            .map(|b| String::from_utf8_lossy(&b).into_owned())
    );
    println!("  acknowledged: ack-after-durable means nobody was told it was stable)");
    let _ = std::fs::remove_dir_all(&dir);
}

fn verdict(r: &Result<(), String>) -> String {
    match r {
        Ok(()) => "SATISFIED".to_string(),
        Err(e) => format!("VIOLATED ({e})"),
    }
}
