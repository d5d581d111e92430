//! Property tests of the pipelined client's in-flight op table.
//!
//! The table is the reactor's core bookkeeping: a generation-tagged slot
//! per submitted op, acks routed back by token. Three properties, over
//! randomized ack schedules (reordered, duplicated, dropped):
//!
//! 1. every ack lands in **its own** slot — a claim returns exactly the
//!    result routed under that ticket's token, whatever order acks
//!    arrive in;
//! 2. an ack for a reclaimed slot (cancelled, or already claimed) is
//!    **counted** (`late_acks`) and **dropped** — never delivered to the
//!    slot's new tenant;
//! 3. after every ticket is settled (claimed or cancelled) the table
//!    holds zero in-flight slots and reuses them without growing — no
//!    slot leaks.
//!
//! A fourth, end-to-end property drives a real cluster through
//! [`PipelinedClient::wait_all`] and asserts the same zero-leak
//! invariant against live completions.

use proptest::prelude::*;
use proptest::TestCaseError;
use rmem_core::{SharedMemory, Transient};
use rmem_net::{Claimed, InFlightTable, LocalCluster, PipelinedClient, Routed};
use rmem_types::{OpResult, RegisterId, Value};

/// The op's identity baked into its result, so a misdelivery (ack i
/// claimed by ticket j) is detectable.
fn ack(i: usize) -> OpResult {
    OpResult::ReadValue(Value::from_u32(i as u32))
}

fn check_any_schedule(copies: Vec<usize>, shuffle: Vec<usize>) -> Result<(), TestCaseError> {
    let n = copies.len();
    let mut table = InFlightTable::new();
    let tickets: Vec<_> = (0..n)
        .map(|i| table.begin(0, RegisterId(i as u16), None))
        .collect();
    prop_assert_eq!(table.in_flight(), n);

    // Build the ack stream (op i appears `copies[i]` times), then
    // shuffle it deterministically from the random swap indices.
    let mut stream: Vec<usize> = (0..n)
        .flat_map(|i| std::iter::repeat_n(i, copies[i]))
        .collect();
    for (k, &r) in shuffle.iter().enumerate() {
        if !stream.is_empty() {
            let a = k % stream.len();
            let b = r % stream.len();
            stream.swap(a, b);
        }
    }

    let mut first_ack_routed = vec![false; n];
    let mut expected_late = 0u64;
    for &i in &stream {
        let routed = table.route(tickets[i].token(), ack(i), 1, None);
        if first_ack_routed[i] {
            prop_assert_eq!(routed, Routed::Duplicate);
            expected_late += 1;
        } else {
            prop_assert_eq!(routed, Routed::Delivered);
            first_ack_routed[i] = true;
        }
    }
    prop_assert_eq!(table.late_acks(), expected_late);

    // Claim everything: acked ops return exactly their own result,
    // dropped ones are still pending and get cancelled.
    for (i, &ticket) in tickets.iter().enumerate() {
        match table.claim(ticket) {
            Claimed::Ready(result, rounds) => {
                prop_assert!(
                    first_ack_routed[i],
                    "op {} never acked yet claimed Ready",
                    i
                );
                prop_assert_eq!(result, ack(i), "op {} claimed a foreign result", i);
                prop_assert_eq!(rounds, 1);
            }
            Claimed::Pending => {
                prop_assert!(
                    !first_ack_routed[i],
                    "op {}'s ack was routed but not claimable",
                    i
                );
                prop_assert!(table.cancel(ticket), "a pending op must be cancellable");
            }
            Claimed::Gone => prop_assert!(false, "op {} vanished before being settled", i),
        }
    }
    prop_assert_eq!(
        table.in_flight(),
        0,
        "settled table must hold no in-flight slots"
    );

    // Zero slot leaks: a second wave of the same size reuses every
    // slot instead of growing the table.
    let cap = table.capacity();
    let second: Vec<_> = (0..n)
        .map(|i| table.begin(0, RegisterId(i as u16), None))
        .collect();
    prop_assert_eq!(
        table.capacity(),
        cap,
        "a settled table must reuse its slots"
    );
    for t in second {
        table.cancel(t);
    }
    Ok(())
}

fn check_reclaimed_slots(n: usize, cancel_mask: Vec<bool>) -> Result<(), TestCaseError> {
    let mut table = InFlightTable::new();
    let first: Vec<_> = (0..n)
        .map(|i| table.begin(0, RegisterId(i as u16), None))
        .collect();
    // Reclaim a random subset (the "abandoned" ops).
    let abandoned: Vec<usize> = (0..n).filter(|&i| cancel_mask[i]).collect();
    for &i in &abandoned {
        prop_assert!(table.cancel(first[i]));
    }
    // New tenants: these reuse the reclaimed slots (LIFO free list),
    // bumping their generation.
    let second: Vec<_> = abandoned
        .iter()
        .map(|&i| table.begin(0, RegisterId((n + i) as u16), None))
        .collect();

    // The zombie acks arrive now. Every one must be Late.
    for &i in &abandoned {
        prop_assert_eq!(
            table.route(first[i].token(), ack(usize::MAX - i), 9, None),
            Routed::Late,
            "a reclaimed slot's old token must route Late"
        );
        prop_assert!(
            matches!(table.claim(first[i]), Claimed::Gone),
            "a cancelled ticket must claim Gone"
        );
    }
    prop_assert_eq!(table.late_acks(), abandoned.len() as u64);

    // The new tenants are untouched: still pending, and their own
    // acks still deliver.
    for (k, &t) in second.iter().enumerate() {
        prop_assert!(matches!(table.claim(t), Claimed::Pending));
        prop_assert_eq!(
            table.route(t.token(), ack(1000 + k), 2, None),
            Routed::Delivered
        );
        match table.claim(t) {
            Claimed::Ready(result, 2) => prop_assert_eq!(result, ack(1000 + k)),
            other => prop_assert!(false, "new tenant claim failed: {:?}", other),
        }
    }
    // Survivors of the first wave still deliver too.
    for i in (0..n).filter(|&i| !cancel_mask[i]) {
        prop_assert_eq!(
            table.route(first[i].token(), ack(i), 1, None),
            Routed::Delivered
        );
        match table.claim(first[i]) {
            Claimed::Ready(result, 1) => prop_assert_eq!(result, ack(i)),
            other => prop_assert!(false, "survivor claim failed: {:?}", other),
        }
    }
    prop_assert_eq!(table.in_flight(), 0);
    Ok(())
}

fn check_live_bursts(regs: usize, rounds: usize) -> Result<(), TestCaseError> {
    let mut cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap();
    let fan = PipelinedClient::fan(&cluster.clients());
    for round in 0..rounds {
        let writes: Vec<_> = (0..regs)
            .map(|r| {
                fan.submit_write(
                    r % fan.nodes(),
                    RegisterId(r as u16),
                    Value::from_u32((round * 100 + r) as u32),
                )
                .expect("submit must succeed on a live cluster")
            })
            .collect();
        for outcome in fan.wait_all(&writes) {
            let (result, _) = outcome.expect("pipelined write must complete");
            prop_assert_eq!(result, OpResult::Written);
        }
        let reads: Vec<_> = (0..regs)
            .map(|r| {
                fan.submit_read((r + 1) % fan.nodes(), RegisterId(r as u16))
                    .expect("submit must succeed on a live cluster")
            })
            .collect();
        for (r, outcome) in fan.wait_all(&reads).into_iter().enumerate() {
            let (result, _) = outcome.expect("pipelined read must complete");
            match result {
                OpResult::ReadValue(v) => prop_assert_eq!(
                    v.as_u32(),
                    Some((round * 100 + r) as u32),
                    "read {} must observe the pipelined write",
                    r
                ),
                other => prop_assert!(false, "read returned {:?}", other),
            }
        }
        prop_assert_eq!(fan.in_flight(), 0, "wait_all must leave no slot occupied");
    }
    prop_assert_eq!(
        fan.late_acks(),
        0,
        "no op was abandoned, so no ack may be late"
    );
    cluster.shutdown();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reordered + duplicated + dropped acks: every first ack routes to
    /// its own slot, every extra ack is counted late, every claim
    /// returns its own op's result. `copies[i]` is how many times op i's
    /// ack arrives (0 = dropped, 1 = normal, 2+ = duplicated); `shuffle`
    /// drives the swap-shuffle of the resulting ack stream.
    #[test]
    fn acks_route_to_their_own_slots_under_any_schedule(
        copies in proptest::collection::vec(0usize..=3, 4..=24),
        shuffle in proptest::collection::vec(any::<usize>(), 72..=72),
    ) {
        check_any_schedule(copies, shuffle)?;
    }

    /// An ack that arrives after its slot was reclaimed — and whose slot
    /// now hosts a new op — is dropped and counted, never delivered to
    /// the new tenant.
    #[test]
    fn late_acks_to_reclaimed_slots_never_misdeliver(
        n in 1usize..=16,
        cancel_mask in proptest::collection::vec(any::<bool>(), 16..=16),
    ) {
        check_reclaimed_slots(n, cancel_mask)?;
    }
}

proptest! {
    // Each case spins a real-threaded 3-process cluster; keep the sweep
    // CI-sized.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// End-to-end: a randomized burst of pipelined writes+reads over
    /// distinct registers all complete through `wait_all`, reads observe
    /// the pipelined writes, and the shared table ends the burst with
    /// zero in-flight slots and zero late acks.
    #[test]
    fn pipelined_bursts_settle_with_zero_slot_leaks(
        regs in 2usize..=12,
        rounds in 1usize..=3,
    ) {
        check_live_bursts(regs, rounds)?;
    }
}
