//! One replay of a generated input on the workload's runtime, through the
//! program's public entry points, with the boundaries the benchmark times
//! and the facts its correctness check reads.

use crate::stats::ReplayOutcome;
use crate::workloads::Runtime;
use cx_core::{
    ClusterConfig, DesCluster, LiveMetrics, MetricRegistry, ObsReport, ObsSink, RunStats,
    TcpCluster, TcpOptions, Trace, Violation,
};
use cx_net::{WireTelemetry, WireTotals};
use cx_obs::BlameTable;
use cx_workloads::{OpStream, StreamTrace, TraceOp};
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A replay that has not returned after this long is recorded as hung.
/// Replays take well under a second on the benchmark's inputs.
pub const REPLAY_TIMEOUT: Duration = Duration::from_secs(60);

/// Wall-clock boundaries of one replay.
#[derive(Debug, Clone, Copy)]
pub struct Marks {
    /// The run call was entered (for the DES: cluster construction began).
    pub call: Instant,
    /// The first op was pulled from the input.
    pub first_op: Instant,
    /// The run call returned.
    pub returned: Instant,
    /// Traced TCP only: the `ObsReport` is in hand.
    pub report: Option<Instant>,
    /// Traced TCP only: the blame table is in hand (end of the timed
    /// region).
    pub blame: Option<Instant>,
}

impl Marks {
    /// Everything before the first op was issued, inside the call.
    pub fn pre_issue_s(&self) -> f64 {
        self.first_op
            .saturating_duration_since(self.call)
            .as_secs_f64()
    }

    /// The timed region: from entering the run call until its results
    /// (and, when traced, the report and blame table) are in hand.
    pub fn run_s(&self) -> f64 {
        let end = self.blame.unwrap_or(self.returned);
        end.duration_since(self.call).as_secs_f64()
    }
}

/// What the TCP runtime adds to a run's result.
pub struct TcpExtras {
    /// Client-visible latency p50 / p90 in µs, from the live registry.
    pub lat_us: (f64, f64),
    pub wire: WireTotals,
    pub telem: WireTelemetry,
    pub report: Option<ObsReport>,
    pub blame: Option<BlameTable>,
}

pub struct Replay {
    pub outcome: ReplayOutcome,
    pub marks: Marks,
    pub stats: RunStats,
    pub tcp: Option<TcpExtras>,
}

/// Replay `trace` on `runtime`, on a worker thread so that a panic or a
/// hang is recorded instead of ending the benchmark without a result.
pub fn replay(runtime: Runtime, cfg: ClusterConfig, trace: Trace) -> Result<Replay, ReplayOutcome> {
    let expected = trace.ops.len() as u64;
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::Builder::new()
        .name("perfbench-replay".into())
        .spawn(move || {
            let r = match runtime {
                Runtime::Des => des(cfg, trace),
                Runtime::Tcp { traced } => tcp(cfg, trace, traced),
            };
            // The receiver only goes away after a timeout, when nobody
            // reads the result any more.
            let _ = tx.send(r);
        })
        .expect("spawn replay thread");
    match rx.recv_timeout(REPLAY_TIMEOUT) {
        Ok(r) => {
            worker.join().expect("replay thread ended after sending");
            Ok(r)
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The worker panicked; its message is already on stderr.
            let _ = worker.join();
            Err(ReplayOutcome::crashed(expected))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            // The worker may still be running; the caller stops replaying
            // and the process exit ends it.
            eprintln!("replay hung for {REPLAY_TIMEOUT:?}");
            Err(ReplayOutcome::crashed(expected))
        }
    }
}

fn outcome(expected: u64, stats: &RunStats, violations: &[Violation]) -> ReplayOutcome {
    ReplayOutcome {
        expected,
        completed: stats.ops_total,
        applied: stats.ops_applied,
        fs_failed: stats.ops_failed,
        stuck: stats.ops_stuck,
        violations: violations.len() as u64,
        crashed: false,
    }
}

fn des(cfg: ClusterConfig, trace: Trace) -> Replay {
    let expected = trace.ops.len() as u64;
    let call = Instant::now();
    let cluster = DesCluster::new_stream(cfg, trace.into_stream());
    let first_op = Instant::now();
    let (stats, violations) = cluster.run();
    let returned = Instant::now();
    Replay {
        outcome: outcome(expected, &stats, &violations),
        marks: Marks {
            call,
            first_op,
            returned,
            report: None,
            blame: None,
        },
        stats,
        tcp: None,
    }
}

/// Records when the runtime first pulls an op: the end of its set-up.
struct FirstPull {
    inner: Box<dyn OpStream + Send>,
    at: Arc<OnceLock<Instant>>,
}

impl OpStream for FirstPull {
    fn next_op(&mut self) -> Option<TraceOp> {
        if self.at.get().is_none() {
            let _ = self.at.set(Instant::now());
        }
        self.inner.next_op()
    }
}

fn tcp(cfg: ClusterConfig, trace: Trace, traced: bool) -> Replay {
    let expected = trace.ops.len() as u64;
    let first = Arc::new(OnceLock::new());
    let st = trace.into_stream();
    let st = StreamTrace {
        ops: Box::new(FirstPull {
            inner: st.ops,
            at: Arc::clone(&first),
        }),
        ..st
    };
    // Client latency comes from the live registry; with no output path
    // no monitor thread runs.
    let registry = MetricRegistry::new();
    let sink = if traced {
        ObsSink::recording("cx")
    } else {
        ObsSink::Off
    };
    // One client shepherd thread. With one per core (the default on this
    // kind of box) the client side competes with four server threads for
    // two cores, and run-to-run spread of p99 latency grew past a third.
    let mut opts = TcpOptions {
        obs: sink.clone(),
        live: Some(LiveMetrics::new(registry.clone())),
        client_threads: 1,
        ..TcpOptions::default()
    };
    opts.net.record_flush_spans = traced;

    let call = Instant::now();
    let mut r = TcpCluster::run_stream_opts(cfg, st, opts);
    let returned = Instant::now();
    let (report, blame, report_at, blame_at) = if traced {
        let report = sink.report().expect("recording sink yields a report");
        let report_at = Instant::now();
        let blame = r.stats.blame.take().unwrap_or_else(|| report.blame());
        (
            Some(report),
            Some(blame),
            Some(report_at),
            Some(Instant::now()),
        )
    } else {
        (None, None, None, None)
    };

    let snap = registry.snapshot();
    let lat = snap
        .series
        .iter()
        .find(|s| s.name == "cx_client_latency_ns")
        .expect("registry has the client latency series");
    Replay {
        outcome: outcome(expected, &r.stats, &r.violations),
        marks: Marks {
            call,
            first_op: first.get().copied().unwrap_or(returned),
            returned,
            report: report_at,
            blame: blame_at,
        },
        stats: r.stats,
        tcp: Some(TcpExtras {
            lat_us: (
                lat.summary.p50_ns as f64 / 1e3,
                lat.summary.p90_ns as f64 / 1e3,
            ),
            wire: r.wire,
            telem: r.telem,
            report,
            blame,
        }),
    }
}
