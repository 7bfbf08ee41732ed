//! Per-server protocol statistics.

use cx_obs::registry::{Counter, MetricRegistry, Series};
use cx_obs::LogHistogram;
use serde::{Deserialize, Serialize};

/// Counters every engine maintains. The message counts of Table IV are
/// gathered by the runtime (which sees every `Action::Send`); these are the
/// protocol-internal events the paper's sensitivity studies report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Sub-op executions (writes) performed.
    pub subops_executed: u64,
    /// Cached reads served.
    pub reads_served: u64,
    /// Conflicts detected: a sub-op arrived that accesses the active
    /// objects of another process's pending operation (§III-B).
    pub conflicts: u64,
    /// Immediate commitments launched (conflict, L-COM, disagreement, or
    /// log pressure).
    pub immediate_commitments: u64,
    /// Lazy (trigger-driven) commitment batches launched.
    pub lazy_batches: u64,
    /// Operations committed in commitment batches this server coordinated.
    pub ops_committed: u64,
    /// Operations aborted likewise.
    pub ops_aborted: u64,
    /// Executions invalidated during disordered-conflict handling.
    pub invalidations: u64,
    /// Requests that had to wait because the log hit its upper limit.
    pub log_full_blocks: u64,
    /// Requests blocked behind active objects at least once.
    pub blocked_requests: u64,
    /// Write-back batches issued to the database.
    pub writebacks: u64,
    /// Local (single-server) mutations executed.
    pub local_mutations: u64,
}

impl ServerStats {
    pub fn merge(&mut self, o: &ServerStats) {
        self.subops_executed += o.subops_executed;
        self.reads_served += o.reads_served;
        self.conflicts += o.conflicts;
        self.immediate_commitments += o.immediate_commitments;
        self.lazy_batches += o.lazy_batches;
        self.ops_committed += o.ops_committed;
        self.ops_aborted += o.ops_aborted;
        self.invalidations += o.invalidations;
        self.log_full_blocks += o.log_full_blocks;
        self.blocked_requests += o.blocked_requests;
        self.writebacks += o.writebacks;
        self.local_mutations += o.local_mutations;
    }
}

/// The introspection plane's protocol-internal series — the quantities
/// the paper's argument rests on, which [`ServerStats`] aggregates away.
///
/// Kept *outside* `ServerStats` on purpose: the golden digests hash the
/// `ServerStats` debug representation, so these metrics ride in their own
/// struct that the digest never sees. Engines bump plain counters (no
/// atomics on the hot path, fully deterministic); runtimes merge per
/// server and publish once into the shared [`MetricRegistry`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProtoMetrics {
    /// Conflicts where both servers observed the same execution order
    /// (resolved by blocking the later arrival, §III-B).
    pub conflicts_ordered: u64,
    /// Conflicts where the servers disagreed on the order and an
    /// execution had to be invalidated (the disordered case).
    pub conflicts_disordered: u64,
    /// Blocked executions released by a conflict hint riding the vote.
    pub hint_resolved: u64,
    /// Commitment rounds launched immediately (conflict, L-COM,
    /// disagreement, log pressure, or presumed abort).
    pub immediate_commitments: u64,
    /// Lazy (trigger-driven, batched) commitment rounds.
    pub batched_commitments: u64,
    /// Operations carried by those lazy rounds.
    pub batched_ops: u64,
    /// Cross-server operations aborted.
    pub aborts: u64,
    /// Half-completed commitments resumed by crash recovery (§III-D).
    pub resumed_commitments: u64,
    /// Torn log tails truncated on crash.
    pub wal_truncations: u64,
    /// Operations per commitment round (occupancy).
    pub batch_size: LogHistogram,
    /// Age of the oldest op in a batch when the round launched.
    pub batch_age_ns: LogHistogram,
}

impl ProtoMetrics {
    pub fn merge(&mut self, o: &ProtoMetrics) {
        self.conflicts_ordered += o.conflicts_ordered;
        self.conflicts_disordered += o.conflicts_disordered;
        self.hint_resolved += o.hint_resolved;
        self.immediate_commitments += o.immediate_commitments;
        self.batched_commitments += o.batched_commitments;
        self.batched_ops += o.batched_ops;
        self.aborts += o.aborts;
        self.resumed_commitments += o.resumed_commitments;
        self.wal_truncations += o.wal_truncations;
        self.batch_size.merge(&o.batch_size);
        self.batch_age_ns.merge(&o.batch_age_ns);
    }

    /// Record one commitment round: `ops` in the batch, launched
    /// `immediate`ly or by a lazy trigger, with the oldest member
    /// `oldest_age_ns` old.
    pub fn commitment_round(&mut self, ops: u64, immediate: bool, oldest_age_ns: u64) {
        if immediate {
            self.immediate_commitments += 1;
        } else {
            self.batched_commitments += 1;
            self.batched_ops += ops;
        }
        self.batch_size.record(ops);
        self.batch_age_ns.record(oldest_age_ns);
    }

    /// Publish into the shared registry (counter adds are atomic, so the
    /// TCP runtime's servers publish concurrently).
    pub fn publish(&self, reg: &MetricRegistry) {
        reg.add(Counter::ConflictsOrdered, self.conflicts_ordered);
        reg.add(Counter::ConflictsDisordered, self.conflicts_disordered);
        reg.add(Counter::HintResolved, self.hint_resolved);
        reg.add(Counter::ImmediateCommitments, self.immediate_commitments);
        reg.add(Counter::BatchedCommitments, self.batched_commitments);
        reg.add(Counter::BatchedOps, self.batched_ops);
        reg.add(Counter::Aborts, self.aborts);
        reg.add(Counter::ResumedCommitments, self.resumed_commitments);
        reg.add(Counter::WalTruncations, self.wal_truncations);
        reg.observe_hist(Series::BatchSize, &self.batch_size);
        reg.observe_hist(Series::BatchAgeNs, &self.batch_age_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proto_metrics_merge_and_publish() {
        let mut a = ProtoMetrics::default();
        a.commitment_round(5, false, 1_000);
        a.commitment_round(1, true, 10);
        a.conflicts_ordered = 3;
        let mut b = ProtoMetrics::default();
        b.commitment_round(7, false, 2_000);
        b.conflicts_disordered = 1;
        b.hint_resolved = 1;
        a.merge(&b);
        assert_eq!(a.batched_commitments, 2);
        assert_eq!(a.immediate_commitments, 1);
        assert_eq!(a.batched_ops, 12);
        assert_eq!(a.batch_size.count, 3);

        let reg = MetricRegistry::new();
        a.publish(&reg);
        assert_eq!(reg.get(Counter::ConflictsOrdered), 3);
        assert_eq!(reg.get(Counter::ConflictsDisordered), 1);
        assert_eq!(reg.get(Counter::BatchedOps), 12);
        let snap = reg.snapshot();
        assert_eq!(
            snap.series
                .iter()
                .find(|s| s.name == "cx_commitment_batch_size")
                .unwrap()
                .summary
                .count,
            3
        );
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = ServerStats {
            conflicts: 2,
            lazy_batches: 1,
            ..Default::default()
        };
        let b = ServerStats {
            conflicts: 3,
            ops_committed: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.conflicts, 5);
        assert_eq!(a.ops_committed, 7);
        assert_eq!(a.lazy_batches, 1);
    }
}
