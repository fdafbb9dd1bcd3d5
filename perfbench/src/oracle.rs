//! The answer oracle: `eval_reference` on the seed graph. Every delta a
//! workload sends is net-zero, so the seed graph's answers are the right
//! answers at every epoch, and after recovery.

use crate::load::Answers;
use crate::util::answer_hash;
use crate::workloads::Query;
use cpqx_engine::Engine;
use cpqx_graph::Graph;
use cpqx_query::eval::eval_reference;
use std::collections::{BTreeMap, BTreeSet};

/// (length, hash) of the reference answer, per query index.
pub type Expected = BTreeMap<u32, (u64, u64)>;

/// Reference answers for the query indices in `wanted`, on two threads.
pub fn expected(g: &Graph, queries: &[Query], wanted: &BTreeSet<u32>) -> Expected {
    let ids: Vec<u32> = wanted.iter().copied().collect();
    std::thread::scope(|scope| {
        // Strided halves: the queries come round-robin by template, so
        // both threads get the same mix of heavy and light ones.
        let parts: Vec<_> = (0..2)
            .map(|t| {
                let ids = &ids;
                scope.spawn(move || {
                    ids.iter()
                        .skip(t)
                        .step_by(2)
                        .map(|&i| {
                            let pairs = eval_reference(g, &queries[i as usize].cpq);
                            (i, (pairs.len() as u64, answer_hash(&pairs)))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts.into_iter().flat_map(|h| h.join().expect("oracle thread panicked")).collect()
    })
}

/// A read whose answer differs from the reference.
pub struct Mismatch {
    pub query: u32,
    pub reads: u64,
    pub got_len: u64,
    pub want_len: u64,
}

/// Checks every observed read answer against `want`.
pub fn check(answers: &Answers, want: &Expected) -> Vec<Mismatch> {
    let mut bad: Vec<Mismatch> = answers
        .iter()
        .filter(|((q, len, hash), _)| want.get(q) != Some(&(*len, *hash)))
        .map(|(&(query, got_len, _), &reads)| Mismatch {
            query,
            reads,
            got_len,
            want_len: want.get(&query).map_or(0, |w| w.0),
        })
        .collect();
    bad.sort_by_key(|m| m.query);
    bad
}

/// Queries `engine` in-process for every query in `want`; returns the
/// indices whose answers differ.
pub fn check_engine(engine: &Engine, queries: &[Query], want: &Expected) -> Vec<u32> {
    want.iter()
        .filter(|(&i, &w)| {
            let pairs = engine.query(&queries[i as usize].cpq);
            (pairs.len() as u64, answer_hash(&pairs)) != w
        })
        .map(|(&i, _)| i)
        .collect()
}
