//! Wire-format property tests (hand-rolled, seeded — the workspace is
//! dependency-free):
//!
//! * encode/decode round-trips over random batches, including the
//!   degenerate shapes (empty, single-row, max-arity, string/Skolem
//!   values, multiplicities);
//! * canonical bytes: equal multisets encode identically regardless of
//!   construction order;
//! * every strict prefix of a valid payload is rejected by the codec
//!   (the reliability layer's own refusal of a corrupted wire is a unit
//!   test of `reliable.rs`).

use calm_common::fact::Fact;
use calm_common::rng::Rng;
use calm_common::value::Value;
use calm_net::wirefmt;
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
