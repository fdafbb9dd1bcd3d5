//! Wire round-trip properties: a CPQ that crosses the protocol — render
//! to text, frame, decode, parse — must come back semantically unchanged
//! (equal canonical form), for every benchmark query and for randomly
//! generated query trees; random delta frames and METRICS registry lists
//! round-trip exactly, and their truncated or lying encodings fail with a
//! typed error.

use cpqx_graph::generate;
use cpqx_graph::{ExtLabel, Graph};
use cpqx_net::proto::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    DecodeError, Request, Response, WireMetrics, WireOp, WireSample, WireSeqLabel,
    DEFAULT_MAX_FRAME,
};
use cpqx_obs::{Metric, MetricKind};
use cpqx_query::canonical::{cache_key, canonicalize};
use cpqx_query::{benchqueries, parse_cpq, Cpq};
use proptest::prelude::*;

/// Sends `q` through the full wire path (text → request frame → bytes →
/// decoded request → parse) and returns what the server would evaluate.
fn through_the_wire(q: &Cpq, g: &Graph) -> Cpq {
    let text = q.to_text(g);
    let mut wire = Vec::new();
    write_frame(&mut wire, &encode_request(&Request::Query(text))).unwrap();
    let payload = read_frame(&mut std::io::Cursor::new(wire), DEFAULT_MAX_FRAME).unwrap();
    let Request::Query(received) = decode_request(&payload).unwrap() else {
        panic!("query decoded as a different opcode");
    };
    parse_cpq(&received, g).expect("server-side parse of client-rendered text")
}

#[test]
fn every_benchquery_survives_the_wire() {
    for seed in [1u64, 7, 42] {
        let g = generate::gmark(400, seed);
        let named: Vec<_> = benchqueries::yago_queries(&g, seed)
            .into_iter()
            .chain(benchqueries::lubm_queries(&g, seed))
            .chain(benchqueries::watdiv_queries(&g, seed))
            .collect();
        assert_eq!(named.len(), 4 + 7 + 12);
        for nq in named {
            let received = through_the_wire(&nq.query, &g);
            assert_eq!(
                canonicalize(&received),
                canonicalize(&nq.query),
                "{} (seed {seed}) changed across the wire",
                nq.name
            );
            assert_eq!(cache_key(&received), cache_key(&nq.query));
        }
    }
}

fn cpq_strategy(ext_labels: u16) -> BoxedStrategy<Cpq> {
    let leaf = prop_oneof![
        5 => (0..ext_labels).prop_map(|l| Cpq::ext(ExtLabel(l))),
        1 => Just(Cpq::Id),
    ];
    leaf.boxed().prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.join(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.conj(b)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_query_trees_survive_the_wire(
        (seed, pick) in (0u64..3, 0u64..u64::MAX),
    ) {
        let g = generate::gmark(60, seed);
        let strat = cpq_strategy(g.ext_label_count());
        let mut rng = TestRng::new(pick);
        let q = strat.new_value(&mut rng);
        let received = through_the_wire(&q, &g);
        prop_assert_eq!(canonicalize(&received), canonicalize(&q), "query {:?}", q);
    }
}

fn wire_op_strategy() -> BoxedStrategy<WireOp> {
    let label = || {
        prop_oneof![
            Just("cites".to_string()),
            Just("livesIn".to_string()),
            Just("héldIn".to_string()), // non-ASCII names must survive UTF-8 framing
            Just(String::new()),
        ]
    };
    let seq = prop::collection::vec(
        (prop::bool::ANY, label()).prop_map(|(inverse, label)| WireSeqLabel { inverse, label }),
        0..cpqx_graph::MAX_SEQ_LEN,
    );
    prop_oneof![
        (any::<u32>(), any::<u32>(), label()).prop_map(|(src, dst, label)| WireOp::InsertEdge {
            src,
            dst,
            label
        }),
        (any::<u32>(), any::<u32>(), label()).prop_map(|(src, dst, label)| WireOp::DeleteEdge {
            src,
            dst,
            label
        }),
        (any::<u32>(), any::<u32>(), label(), label())
            .prop_map(|(src, dst, from, to)| WireOp::ChangeEdgeLabel { src, dst, from, to }),
        label().prop_map(|name| WireOp::AddVertex { name }),
        any::<u32>().prop_map(|vertex| WireOp::DeleteVertex { vertex }),
        seq.prop_map(|seq| WireOp::InsertInterest { seq }),
        prop::collection::vec(
            (prop::bool::ANY, label()).prop_map(|(inverse, label)| WireSeqLabel { inverse, label }),
            0..cpqx_graph::MAX_SEQ_LEN,
        )
        .prop_map(|seq| WireOp::DeleteInterest { seq }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    // Typed delta frames round-trip op-for-op, including truncation
    // robustness of every random encoding.
    #[test]
    fn random_deltas_survive_the_wire(
        ops in prop::collection::vec(wire_op_strategy(), 0..12),
    ) {
        let req = Request::Delta(ops);
        let bytes = encode_request(&req);
        prop_assert_eq!(decode_request(&bytes).unwrap(), req.clone());
        for cut in 0..bytes.len() {
            let _ = decode_request(&bytes[..cut]); // must never panic
        }
        // Framed transport preserves the payload byte-for-byte.
        let mut wire = Vec::new();
        write_frame(&mut wire, &bytes).unwrap();
        let payload = read_frame(&mut std::io::Cursor::new(wire), DEFAULT_MAX_FRAME).unwrap();
        prop_assert_eq!(decode_request(&payload).unwrap(), req);
    }
}

fn wire_sample_strategy() -> BoxedStrategy<WireSample> {
    let name = prop_oneof![
        Just(Metric::Queries.name().to_string()),
        Just(Metric::OpenConnections.name().to_string()),
        Just("cpqx_héld_total".to_string()), // non-ASCII names survive UTF-8 framing
        Just(String::new()),
    ];
    (name, prop::bool::ANY, any::<u64>())
        .prop_map(|(name, gauge, value)| WireSample {
            name,
            kind: if gauge { MetricKind::Gauge } else { MetricKind::Counter },
            value,
        })
        .boxed()
}

/// Offset of the registry count in a METRICS_RESULT payload with no
/// histograms: opcode 1 + epoch 8 + op count 1 + stage count 1.
const COUNTERS_AT: usize = 11;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    // The METRICS registry list round-trips entry for entry; truncated
    // encodings, counts above the real one, and string lengths past the
    // end of the payload all come back as typed errors.
    #[test]
    fn random_counter_lists_survive_the_wire(
        counters in prop::collection::vec(wire_sample_strategy(), 0..40),
        extra in 1u16..u16::MAX,
    ) {
        let n = counters.len();
        let resp = Response::Metrics(Box::new(WireMetrics {
            epoch: 3,
            counters,
            ..WireMetrics::default()
        }));
        let bytes = encode_response(&resp);
        prop_assert_eq!(decode_response(&bytes).unwrap(), resp);
        for cut in 0..bytes.len() {
            prop_assert!(decode_response(&bytes[..cut]).is_err(), "cut at {}", cut);
        }
        let mut lying = bytes.clone();
        let count = (n as u16).saturating_add(extra);
        lying[COUNTERS_AT..COUNTERS_AT + 2].copy_from_slice(&count.to_be_bytes());
        prop_assert_eq!(decode_response(&lying), Err(DecodeError::Truncated));
        if n > 0 {
            let at = COUNTERS_AT + 2;
            let past_end = (bytes.len() - at - 4) as u32 + u32::from(extra);
            let mut lying = bytes.clone();
            lying[at..at + 4].copy_from_slice(&past_end.to_be_bytes());
            prop_assert_eq!(decode_response(&lying), Err(DecodeError::Truncated));
        }
    }
}
