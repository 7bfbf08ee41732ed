//! Partitioned DES execution — the one driver every DES run goes through.
//!
//! Splits one cluster simulation across P partitions. Each partition
//! owns a contiguous slice of the servers plus a slice of the client
//! processes, runs its own timing-wheel kernel and virtual clock, and
//! synchronizes with its siblings only at *window* boundaries
//! (conservative PDES with lookahead — see `cx_sim::partition` and
//! `DesCluster::event_loop` for the two-barrier window protocol).
//!
//! The sequential simulator is this kernel at P=1: one partition owning
//! every node, an infinite window, and a one-slot mailbox and barrier.
//! It runs inline on the caller's thread, never waits on the barrier,
//! and takes no per-send partition lookup, so it costs what a dedicated
//! sequential loop would and reproduces the golden digest bit-for-bit.
//!
//! ## Lookahead
//!
//! The window width is `cfg.net.one_way_ns`: every cross-partition
//! message is a network send, and the network model charges at least the
//! one-way latency (`one_way + bytes/bandwidth`), so an event executed at
//! `t < gmin + W` can only create remote work at `t + W' ≥ gmin + W` —
//! at or beyond the next window's horizon. Partitions therefore never
//! need to roll back, and mailbox arrivals never clamp to "now".
//!
//! ## Determinism
//!
//! For a fixed `(seed, parts)` pair a partitioned run is bit-for-bit
//! reproducible:
//!
//! * node → partition placement is pure arithmetic ([`PartitionMap`]);
//! * the shared op feed hands each process the same subsequence
//!   regardless of pull interleaving (the `OpFeed` contract);
//! * cross-partition mail merges in `(arrival time, source partition,
//!   source sequence)` order — no wall-clock anywhere.
//!
//! `parts > 1` preserves every *total* (ops, conflicts, commitments, WAL
//! records) but may order same-tick events differently than one
//! partition does, so the digest is stable per `(seed, parts)` rather
//! than across partition counts.

use crate::des::{ChaosOutcome, DesCluster};
use crate::fault::{ClusterSnapshot, FaultInjector};
use crate::feed::OpFeed;
use crate::stats::RunStats;
use cx_mdstore::{GlobalView, Violation};
use cx_obs::{FlightEvent, FlightRecorder, MetricRegistry, ObsSink};
use cx_protocol::Endpoint;
use cx_sim::{CrossEvent, Mailbox, PartitionBarrier};
use cx_types::{ClusterConfig, Payload};
use cx_workloads::StreamTrace;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// Pure-arithmetic node → partition placement. Servers and processes are
/// split into contiguous, near-equal ranges so partition p's servers are
/// `server_range(p)` and `GlobalView::merge` over partitions in order
/// visits servers in global order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionMap {
    pub servers: u32,
    pub procs: u32,
    pub parts: u32,
}

impl PartitionMap {
    pub fn new(servers: u32, procs: u32, parts: u32) -> Self {
        assert!(parts >= 1, "need at least one partition");
        assert!(
            parts <= servers,
            "more partitions ({parts}) than servers ({servers})"
        );
        Self {
            servers,
            procs,
            parts,
        }
    }

    /// Which partition owns server `s`.
    pub fn server_part(&self, s: u32) -> u32 {
        debug_assert!(s < self.servers);
        ((s as u64 * self.parts as u64) / self.servers as u64) as u32
    }

    /// The contiguous dense server indices partition `p` owns.
    pub fn server_range(&self, p: u32) -> std::ops::Range<usize> {
        let lo = (p as u64 * self.servers as u64).div_ceil(self.parts as u64);
        let hi = ((p as u64 + 1) * self.servers as u64).div_ceil(self.parts as u64);
        lo as usize..hi as usize
    }

    /// Which partition owns client process `i`.
    pub fn proc_part(&self, i: u32) -> u32 {
        if self.procs == 0 {
            return 0;
        }
        debug_assert!(i < self.procs);
        (((i as u64) * self.parts as u64) / self.procs as u64).min(self.parts as u64 - 1) as u32
    }
}

/// One cross-partition message: who sent it, who receives it, and the
/// already-computed arrival time (network latency applied at the sender).
pub(crate) struct NetEnvelope {
    pub from: Endpoint,
    pub to: Endpoint,
    pub payload: Payload,
}

/// Which part of the cluster a `DesCluster` instance simulates. Every
/// instance has one: the sequential simulator is partition 0 of 1, with
/// every node local, an infinite window, and a one-slot mailbox and
/// barrier that it never waits on.
pub(crate) struct PartCtx {
    /// This partition's index.
    pub me: u32,
    pub pmap: PartitionMap,
    /// Dense indices of the servers this partition owns (cached: the
    /// fault probes walk it after every event).
    pub servers: Range<usize>,
    /// Conservative lookahead window (ns): the minimum cross-partition
    /// message latency, i.e. `cfg.net.one_way_ns`. `u64::MAX` at P=1,
    /// where there is no one to wait for.
    pub window_ns: u64,
    pub mailbox: Arc<Mailbox<NetEnvelope>>,
    pub barrier: Arc<PartitionBarrier>,
    /// Per-sender sequence for deterministic mailbox merge order.
    pub out_seq: u64,
    /// Reusable drain buffer (avoids a per-window allocation).
    pub inbox: Vec<CrossEvent<NetEnvelope>>,
}

impl PartCtx {
    /// The global minimum of every partition's `v`, plus the collective
    /// abort flag. A lone partition is its own reduction and never waits
    /// on the barrier.
    pub fn vote(&self, v: u64) -> (u64, bool) {
        if self.pmap.parts == 1 {
            (v, self.barrier.aborted())
        } else {
            self.barrier.wait_min(v)
        }
    }
}

// The partition workers move `DesCluster` values across threads; keep the
// whole runtime `Send` by construction (e.g. no `Rc`, injector is `Send`).
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<DesCluster>();
};

/// Build the partition clusters over one shared feed, mailbox and
/// barrier. `parts` 0 and 1 both build the sequential simulator.
pub(crate) fn build_partitions(cfg: ClusterConfig, st: StreamTrace, parts: u32) -> Vec<DesCluster> {
    let StreamTrace {
        name: _,
        processes,
        seeds,
        roots,
        total_ops_hint,
        ops,
    } = st;
    let pmap = PartitionMap::new(cfg.servers, processes, parts.max(1));
    let window_ns = if pmap.parts == 1 {
        u64::MAX
    } else {
        assert!(
            cfg.net.one_way_ns > 0,
            "partitioned runs need a nonzero net latency"
        );
        cfg.net.one_way_ns
    };
    let feed = Arc::new(Mutex::new(OpFeed::new(ops, processes, total_ops_hint)));
    let mailbox = Arc::new(Mailbox::new(pmap.parts as usize));
    let barrier = Arc::new(PartitionBarrier::new(pmap.parts));
    (0..pmap.parts)
        .map(|me| {
            DesCluster::build(
                cfg.clone(),
                processes,
                &seeds,
                roots.clone(),
                Arc::clone(&feed),
                PartCtx {
                    me,
                    pmap,
                    servers: pmap.server_range(me),
                    window_ns,
                    mailbox: Arc::clone(&mailbox),
                    barrier: Arc::clone(&barrier),
                    out_seq: 0,
                    inbox: Vec::new(),
                },
            )
        })
        .collect()
}

/// Drive every partition to completion — a lone partition inline on the
/// caller's thread, otherwise one scoped thread each — and merge their
/// stats in partition order (deterministic: placement is contiguous).
/// What is global is charged once here: the shared feed's remainder
/// after a hang-cap abort, and the shared sink's stuck-op report and
/// blame table.
fn run_merged(clusters: &mut [DesCluster]) -> RunStats {
    if let [only] = clusters {
        only.run_partition();
    } else {
        std::thread::scope(|s| {
            for c in clusters.iter_mut() {
                s.spawn(|| c.run_partition());
            }
        });
    }
    let (first, rest) = clusters.split_first_mut().expect("at least one partition");
    let blank = RunStats::new(
        first.stats.protocol,
        first.stats.servers,
        first.stats.processes,
    );
    let mut stats = std::mem::replace(&mut first.stats, blank);
    for c in rest.iter() {
        stats.absorb_partition(&c.stats);
    }
    if first.part.barrier.aborted() {
        // The capped partitions recorded their local in-flight ops; the
        // shared feed's remainder is global, charge it exactly once.
        stats.ops_stuck += first.feed.lock().expect("op feed").remaining();
    }
    // Structured hang diagnostics: the recorder's live-op map names the
    // exact stalled phase for every op still short of its reply.
    stats.stuck_ops = first.obs.stuck_report();
    stats.blame = first.obs.blame_table();
    if let Some(fl) = &first.flight {
        for s in &stats.stuck_ops {
            fl.push(
                stats.drained.0,
                FlightEvent::Stuck {
                    op: s.op,
                    phase: s.phase,
                },
            );
        }
    }
    stats
}

/// Run a clean replay over its partitions: merged stats plus the final
/// namespace check.
pub(crate) fn finish_replay(clusters: &mut [DesCluster]) -> (RunStats, Vec<Violation>) {
    let stats = run_merged(clusters);
    // Partition order × contiguous server ranges = global server order.
    let view = GlobalView::merge(clusters.iter().flat_map(|c| c.local_stores()));
    (stats, view.check(&clusters[0].roots))
}

/// Run a fault-injected replay over its partitions. The injector is the
/// single global fault authority; this end-of-run pass does what only
/// the whole cluster can: stuck-op accounting, quiescence, the merged
/// view, the merged op logs, and the final oracle pass (partitions skip
/// their mid-run oracle checks when P > 1 — they only see local stores).
pub(crate) fn finish_chaos(clusters: &mut [DesCluster]) -> ChaosOutcome {
    let mut stats = run_merged(clusters);

    // Faults can wedge clients forever (a dropped message with no
    // retransmission); surface that instead of hanging: unissued feed
    // ops plus every partition's in-flight clients.
    let in_flight: u64 = clusters.iter().map(|c| c.local_in_flight()).sum();
    let stuck = clusters[0].feed.lock().expect("op feed").remaining() + in_flight;
    stats.ops_stuck = stats.ops_stuck.max(stuck);

    let quiesced = clusters.iter().all(|c| c.local_quiesced());
    let view = GlobalView::merge(clusters.iter().flat_map(|c| c.local_stores()));
    let violations = if quiesced {
        view.check(&clusters[0].roots)
    } else {
        Vec::new()
    };

    // Each partition logged only its local clients' ops, each log in its
    // own ack/issue order; concatenate in partition order and stably
    // sort the acks by time (a no-op for one partition).
    let mut acks = Vec::new();
    let mut issued = Vec::new();
    for c in clusters.iter_mut() {
        let (a, i) = c.take_op_logs();
        acks.extend(a);
        issued.extend(i);
    }
    acks.sort_by_key(|a| a.at);

    let oracle_report = {
        let inj = clusters[0]
            .injector
            .as_ref()
            .expect("chaos run needs an injector");
        let mut inj = inj.lock().expect("injector");
        let snap = ClusterSnapshot {
            stores: clusters.iter().flat_map(|c| c.local_stores()).collect(),
            acks: &acks,
            issued: &issued,
        };
        let v = inj.on_run_end(stats.drained, quiesced, snap);
        stats.faults.oracle_checks += 1;
        stats.faults.oracle_violations += v;
        inj.take_report()
    };

    ChaosOutcome {
        stats,
        violations,
        oracle_report,
        quiesced,
        acks,
        issued,
        view,
    }
}

/// Partitioned replay of a streaming workload over `parts` partitions
/// (1 is the sequential simulator).
pub fn run_stream_partitioned(
    cfg: ClusterConfig,
    st: StreamTrace,
    parts: u32,
) -> (RunStats, Vec<Violation>) {
    run_stream_partitioned_obs(cfg, st, parts, ObsSink::Off, None)
}

/// [`run_stream_partitioned`] with an observability sink and an optional
/// metric registry the merged stats are published into.
pub fn run_stream_partitioned_obs(
    cfg: ClusterConfig,
    st: StreamTrace,
    parts: u32,
    sink: ObsSink,
    reg: Option<&MetricRegistry>,
) -> (RunStats, Vec<Violation>) {
    let mut clusters: Vec<DesCluster> = build_partitions(cfg, st, parts)
        .into_iter()
        .map(|c| c.with_obs(sink.clone()))
        .collect();
    let (stats, violations) = finish_replay(&mut clusters);
    if let Some(reg) = reg {
        stats.publish(reg);
    }
    (stats, violations)
}

/// Partitioned fault-injected replay. The injector is the single global
/// fault authority: all partitions feed it through one mutex, and crash
/// commands execute only on the server's owner partition.
pub fn run_chaos_partitioned(
    cfg: ClusterConfig,
    st: StreamTrace,
    parts: u32,
    injector: Box<dyn FaultInjector>,
    sink: ObsSink,
    flight: Option<FlightRecorder>,
) -> ChaosOutcome {
    let shared: Arc<Mutex<Box<dyn FaultInjector>>> = Arc::new(Mutex::new(injector));
    let mut clusters: Vec<DesCluster> = build_partitions(cfg, st, parts)
        .into_iter()
        .map(|c| {
            let mut c = c
                .with_obs(sink.clone())
                .with_shared_injector(Arc::clone(&shared));
            if let Some(fl) = &flight {
                c = c.with_flight(fl.clone());
            }
            c
        })
        .collect();
    finish_chaos(&mut clusters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_contiguous_and_total() {
        for (servers, parts) in [(8u32, 4u32), (8, 3), (5, 2), (4, 4), (7, 1)] {
            let pm = PartitionMap::new(servers, 16, parts);
            let mut covered = 0usize;
            for p in 0..parts {
                let r = pm.server_range(p);
                assert_eq!(r.start, covered, "ranges must be contiguous");
                for s in r.clone() {
                    assert_eq!(pm.server_part(s as u32), p, "range/part must agree");
                }
                covered = r.end;
            }
            assert_eq!(covered, servers as usize, "every server placed");
        }
    }

    #[test]
    fn proc_placement_covers_all_partitions_when_possible() {
        let pm = PartitionMap::new(8, 16, 4);
        let mut seen = vec![0u32; 4];
        for i in 0..16 {
            seen[pm.proc_part(i) as usize] += 1;
        }
        assert_eq!(seen, vec![4, 4, 4, 4]);
        // Monotone: contiguous proc blocks per partition.
        for i in 1..16 {
            assert!(pm.proc_part(i) >= pm.proc_part(i - 1));
        }
    }

    #[test]
    fn uneven_splits_stay_in_bounds() {
        let pm = PartitionMap::new(8, 3, 3);
        for s in 0..8 {
            assert!(pm.server_part(s) < 3);
        }
        for i in 0..3 {
            assert!(pm.proc_part(i) < 3);
        }
    }
}
