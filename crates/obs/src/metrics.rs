//! The metrics registry: every counter and gauge the engine and the
//! network server keep, declared once.
//!
//! The table below is the only place a metric is named. Each row gives
//! the [`Metric`] id, its [`MetricKind`], its Prometheus series name, its unit
//! and a help string. Values live in the [`crate::Recorder`] as one
//! `AtomicU64` per row, indexed by the id ([`crate::Recorder::add`],
//! [`crate::Recorder::value`]). Every view — the engine's
//! `StatsReport`, the STATS frame, the METRICS frame and its
//! Prometheus rendering — reads these values; none keeps a copy.
//!
//! Unlike the histograms, the registry keeps counting when the
//! recorder is disabled: a count costs one relaxed `fetch_add`, and the
//! STATS frame must stay exact either way.
//!
//! Adding a signal is one row here plus the one call site that bumps
//! it; METRICS and Prometheus carry it from then on.

/// Whether a metric only grows or can also fall.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MetricKind {
    /// Monotonic since the recorder was built.
    Counter = 0,
    /// A level that rises and falls (e.g. open connections).
    Gauge = 1,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }

    /// Decodes a wire tag (`None` for unknown tags).
    pub fn from_u8(tag: u8) -> Option<MetricKind> {
        match tag {
            0 => Some(MetricKind::Counter),
            1 => Some(MetricKind::Gauge),
            _ => None,
        }
    }
}

/// One registry row.
#[derive(Clone, Copy, Debug)]
struct Def {
    kind: MetricKind,
    name: &'static str,
    unit: &'static str,
    help: &'static str,
}

macro_rules! registry {
    ($($id:ident: $kind:ident $name:literal $unit:literal $help:literal;)*) => {
        /// A registry id: one counter or gauge (see the module docs).
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum Metric {
            $(#[doc = $help] $id,)*
        }

        /// Number of registry rows (the recorder's value array size).
        pub const METRIC_COUNT: usize = [$(Metric::$id),*].len();

        impl Metric {
            /// Every metric, in table order.
            pub const ALL: [Metric; METRIC_COUNT] = [$(Metric::$id),*];
        }

        const DEFS: [Def; METRIC_COUNT] =
            [$(Def { kind: MetricKind::$kind, name: $name, unit: $unit, help: $help }),*];
    };
}

registry! {
    // Engine: the read path.
    Queries: Counter "cpqx_queries_total" "queries"
        "Queries served by the engine, cached or not.";
    ResultHits: Counter "cpqx_result_cache_hits_total" "queries"
        "Queries answered from the result cache.";
    ResultMisses: Counter "cpqx_result_cache_misses_total" "queries"
        "Queries executed against the index.";
    PlanHits: Counter "cpqx_plan_cache_hits_total" "plans"
        "Plans reused from the snapshot's plan cache.";
    PlanMisses: Counter "cpqx_plan_cache_misses_total" "plans"
        "Plans lowered fresh.";
    RejectedAdmissions: Counter "cpqx_rejected_admissions_total" "results"
        "Executed results the admission policy refused to cache.";
    // Engine: the write path.
    SnapshotSwaps: Counter "cpqx_snapshot_swaps_total" "snapshots"
        "Snapshots installed after the initial build.";
    InvalidatedResults: Counter "cpqx_invalidated_results_total" "entries"
        "Result-cache entries dropped by snapshot swaps.";
    DeltaTransactions: Counter "cpqx_delta_transactions_total" "transactions"
        "Delta transactions committed.";
    LazyUpdateOps: Counter "cpqx_lazy_update_ops_total" "ops"
        "Delta ops applied by lazy maintenance (no-ops excluded).";
    Rebuilds: Counter "cpqx_rebuilds_total" "rebuilds"
        "Full index rebuilds, manual and automatic.";
    AutoRebuilds: Counter "cpqx_auto_rebuilds_total" "rebuilds"
        "Rebuilds triggered by the fragmentation threshold.";
    CowChunksCopied: Counter "cpqx_cow_chunks_copied_total" "chunks"
        "Copy-on-write chunks copied by write transactions.";
    CowChunksShared: Counter "cpqx_cow_chunks_shared_total" "chunks"
        "Copy-on-write chunks still shared after write transactions.";
    // Engine: durability.
    WalAppends: Counter "cpqx_wal_appends_total" "records"
        "Delta transactions appended to the write-ahead log.";
    WalBytes: Counter "cpqx_wal_bytes_total" "bytes"
        "Bytes (payload and framing) appended to the write-ahead log.";
    SnapshotsWritten: Counter "cpqx_snapshots_written_total" "checkpoints"
        "Snapshot checkpoints persisted.";
    SnapshotChunksWritten: Counter "cpqx_snapshot_chunks_written_total" "chunks"
        "Chunk records checkpoints wrote.";
    SnapshotChunksSkipped: Counter "cpqx_snapshot_chunks_skipped_total" "chunks"
        "Chunk records checkpoints skipped as unchanged.";
    // Server: connections.
    Connections: Counter "cpqx_connections_total" "connections"
        "Connections accepted.";
    RejectedConnections: Counter "cpqx_rejected_connections_total" "connections"
        "Connections refused at the connection cap.";
    OpenConnections: Gauge "cpqx_open_connections" "connections"
        "Connections currently open.";
    // Server: requests, by opcode.
    PingRequests: Counter "cpqx_ping_requests_total" "requests"
        "PING requests served.";
    QueryRequests: Counter "cpqx_query_requests_total" "requests"
        "QUERY requests served.";
    BatchRequests: Counter "cpqx_batch_requests_total" "requests"
        "BATCH requests served.";
    UpdateRequests: Counter "cpqx_update_requests_total" "requests"
        "UPDATE requests served.";
    DeltaRequests: Counter "cpqx_delta_requests_total" "requests"
        "DELTA requests served.";
    StatsRequests: Counter "cpqx_stats_requests_total" "requests"
        "STATS requests served.";
    MetricsRequests: Counter "cpqx_metrics_requests_total" "requests"
        "METRICS requests served.";
    ErrorResponses: Counter "cpqx_error_responses_total" "responses"
        "Error frames sent.";
    // Recorder.
    SlowQueries: Counter "cpqx_slow_queries_total" "queries"
        "Queries over the slow-query threshold.";
    WorkloadKeysDropped: Counter "cpqx_workload_keys_dropped_total" "keys"
        "Canonical keys not counted because the workload table was full.";
}

impl Metric {
    fn def(self) -> &'static Def {
        &DEFS[self as usize]
    }

    /// The Prometheus series name (unique across the table).
    pub fn name(self) -> &'static str {
        self.def().name
    }

    /// Counter or gauge.
    pub fn kind(self) -> MetricKind {
        self.def().kind
    }

    /// What one unit of the value counts (`"bytes"`, `"requests"`, …).
    pub fn unit(self) -> &'static str {
        self.def().unit
    }

    /// One-line description.
    pub fn help(self) -> &'static str {
        self.def().help
    }

    /// Looks a metric up by its series name.
    pub fn from_name(name: &str) -> Option<Metric> {
        Metric::ALL.into_iter().find(|m| m.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_prometheus_shaped() {
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(*m as usize, i, "ALL is in table order");
            assert_eq!(Metric::from_name(m.name()), Some(*m), "{} is declared twice", m.name());
            assert!(m.name().starts_with("cpqx_"), "{}", m.name());
            assert!(
                m.name().bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'),
                "{}",
                m.name()
            );
            assert_eq!(
                m.kind() == MetricKind::Counter,
                m.name().ends_with("_total"),
                "{}",
                m.name()
            );
            assert!(!m.unit().is_empty() && !m.help().is_empty(), "{}", m.name());
        }
        assert_eq!(Metric::from_name("cpqx_nope"), None);
    }

    #[test]
    fn kind_tags_roundtrip() {
        for k in [MetricKind::Counter, MetricKind::Gauge] {
            assert_eq!(MetricKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(MetricKind::from_u8(2), None);
    }
}
