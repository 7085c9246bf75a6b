//! Wire-format property tests (hand-rolled, seeded — the workspace is
//! dependency-free):
//!
//! * encode/decode round-trips over random batches, including the
//!   degenerate shapes (empty, single-row, max-arity, string/Skolem
//!   values, multiplicities);
//! * canonical bytes: equal multisets encode identically regardless of
//!   construction order;
//! * every strict prefix of a valid payload is rejected — checked both
//!   at the codec and end-to-end through [`ReliableNet::receive`],
//!   where a corrupted wire must count as a drop, leave the sequence
//!   number unconsumed, and never ack.

use calm_common::fact::Fact;
use calm_common::rng::Rng;
use calm_common::storage::SymbolTable;
use calm_common::value::Value;
use calm_net::wirefmt;
use calm_net::{FaultPlan, ReliableNet, Wire};
use calm_transducer::multiset::Multiset;

const MAX_ARITY: usize = 8;

/// A random batch: a few relations of random arity (1..=MAX_ARITY)
/// over a small mixed int/str/Skolem domain, with multiplicities.
fn random_batch(rng: &mut Rng) -> Multiset<Fact> {
    let mut batch = Multiset::new();
    let relations = 1 + (rng.gen_u64() % 4) as usize;
    for r in 0..relations {
        let name = format!("rel_{r}");
        let arity = 1 + (rng.gen_u64() % MAX_ARITY as u64) as usize;
        let rows = rng.gen_u64() % 12;
        for _ in 0..rows {
            let args: Vec<Value> = (0..arity)
                .map(|_| match rng.gen_u64() % 4 {
                    0 => Value::Int(rng.gen_u64() as i64 % 100),
                    1 => Value::Int(-((rng.gen_u64() % 1_000_000) as i64)),
                    2 => Value::str(format!("node-{}", rng.gen_u64() % 8)),
                    _ => Value::skolem("f", vec![Value::Int((rng.gen_u64() % 16) as i64)]),
                })
                .collect();
            let mult = 1 + (rng.gen_u64() % 3) as usize;
            batch.insert_n(Fact::new(&name, args), mult);
        }
    }
    batch
}

#[test]
fn random_batches_round_trip_in_both_formats() {
    for seed in 0..60u64 {
        let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x3157);
        let batch = random_batch(&mut rng);
        let delta = wirefmt::encode(&batch);
        assert_eq!(
            wirefmt::decode(&delta).unwrap(),
            batch,
            "seed {seed}: delta round-trip"
        );
        let naive = wirefmt::encode_naive(&batch);
        assert_eq!(
            wirefmt::decode_naive(&naive).unwrap(),
            batch,
            "seed {seed}: naive round-trip"
        );
        // Canonical: re-encoding the decoded batch is byte-identical.
        assert_eq!(
            wirefmt::encode(&wirefmt::decode(&delta).unwrap()),
            delta,
            "seed {seed}: canonical bytes"
        );
    }
}

#[test]
fn degenerate_shapes_round_trip() {
    // Empty batch.
    let empty: Multiset<Fact> = Multiset::new();
    assert_eq!(wirefmt::decode(&wirefmt::encode(&empty)).unwrap(), empty);
    // Single row, arity 1.
    let single: Multiset<Fact> = [Fact::new("r", vec![Value::Int(i64::MIN)])]
        .into_iter()
        .collect();
    assert_eq!(wirefmt::decode(&wirefmt::encode(&single)).unwrap(), single);
    // One max-arity row with extreme values.
    let wide: Multiset<Fact> = [Fact::new(
        "wide",
        (0..MAX_ARITY as i64)
            .map(|i| {
                Value::Int(if i % 2 == 0 {
                    i64::MAX - i
                } else {
                    i64::MIN + i
                })
            })
            .collect(),
    )]
    .into_iter()
    .collect();
    assert_eq!(wirefmt::decode(&wirefmt::encode(&wide)).unwrap(), wide);
}

#[test]
fn every_strict_prefix_is_rejected_by_the_codec() {
    for seed in 0..20u64 {
        let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x9EF1);
        let batch = random_batch(&mut rng);
        let bytes = wirefmt::encode(&batch);
        for cut in 0..bytes.len() {
            assert!(
                wirefmt::decode(&bytes[..cut]).is_err(),
                "seed {seed}: prefix of {cut}/{} bytes must not decode",
                bytes.len()
            );
        }
    }
}

#[test]
fn reliability_layer_refuses_corrupted_prefixes_and_recovers() {
    // End-to-end corruption handling: feed truncated payloads through
    // the substrate's receive path. Each must be refused (counted as a
    // dropped decode failure, no ack, seq unconsumed); the intact
    // payload must then land exactly once.
    let plan = FaultPlan::none(23);
    for seed in 0..10u64 {
        let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC0DE);
        let mut batch = random_batch(&mut rng);
        if batch.is_empty() {
            batch.insert(Fact::new("pad", vec![Value::Int(0)]));
        }
        let bytes = wirefmt::encode(&batch);
        let mut net = ReliableNet::new(&plan, &[1], &calm_obs::Obs::noop());
        let (mut out, mut table) = (Vec::new(), SymbolTable::new());
        let cuts = [2usize, bytes.len() / 2, bytes.len() - 1];
        for &cut in &cuts {
            let got = net.receive(
                Wire::Data {
                    src: 0,
                    dst: 1,
                    seq: 1,
                    payload: bytes[..cut].to_vec().into(),
                },
                &mut table,
                &mut out,
            );
            assert!(got.is_none(), "seed {seed}: truncated wire must be refused");
            assert!(out.is_empty(), "seed {seed}: refused wires are not acked");
        }
        assert_eq!(net.stats.decode_failures, cuts.len() as u64);
        assert_eq!(net.stats.dropped, cuts.len() as u64);
        // The sender retransmits the intact payload under the same seq.
        let got = net.receive(
            Wire::Data {
                src: 0,
                dst: 1,
                seq: 1,
                payload: bytes.clone().into(),
            },
            &mut table,
            &mut out,
        );
        // The substrate's end-to-end per-source dedup collapses
        // multiplicities: what lands is the batch's support.
        let support: Multiset<Fact> = batch.support().cloned().collect();
        let got = got.map(|(dst, rows, mid)| {
            let mut facts = Multiset::new();
            rows.add_to(&table, &mut facts);
            (dst, facts, mid)
        });
        assert_eq!(
            got,
            Some((1, support, None)),
            "seed {seed}: the clean retransmission lands"
        );
        assert_eq!(
            net.stats.duplicates_suppressed, 0,
            "seed {seed}: refusals must not have consumed the seq"
        );
    }
}
