//! Extension experiment: the cost of each algorithm's recovery procedure
//! (Recover event → process ready to serve).
//!
//! Usage:
//! ```text
//! cargo run --release -p rmem-bench --bin recovery_time -- [--csv]
//! ```

fn main() {
    let (_, table) = rmem_bench::recovery_table();
    println!("{}", table.to_text());
    println!("expected composition (δ=100µs, λ=200µs, ≈5µs serialization per send):");
    println!("  persistent ≈ one propagation round-trip (2δ), plus replica logs (λ) if the");
    println!("               interrupted write had not been adopted yet (Fig. 4 lines 43–46);");
    println!("  transient  ≈ one local log (λ) for the rec counter (Fig. 5 lines 19–21);");
    println!("  catch-up   = a read query round (2δ) beside either, so an up-to-date process");
    println!("               recovers in 2δ / max(λ, 2δ) — the second broadcast's serialization");
    println!("               is all it adds — and so does one that missed a write a majority of");
    println!("               the others attests durable: it adopts the write on their word, no");
    println!("               log (+5 µs: the last voucher's ack); without such a majority it");
    println!("               waits one retransmit period for one and logs (2δ + R + λ); with the");
    println!("               fast path off there is no catch-up and the rows read the figures'");
    println!("               2δ and λ whatever the process missed;");
    println!("  regular    ≈ λ + a majority query round (2δ);");
    println!("  crash-stop = 0 — it restores nothing, which is exactly why it forgets.");
    if std::env::args().any(|a| a == "--csv") {
        let path = table.write_csv("recovery_time").expect("writing CSV");
        println!("wrote {}", path.display());
    }
}
