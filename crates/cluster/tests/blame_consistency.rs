//! DES-vs-TCP blame-table consistency on the equivalence scenario
//! (ISSUE 10 satellite 4): both runtimes decompose the same workload into
//! the same blame structure — every replied op accounted, client segments
//! summing to the client window — and the decomposition exhibits the
//! paper's figure-5 split: Cx carries its commitment time in the off-path
//! suffix, 2PC carries it on-path inside the client-visible window.

use cx_cluster::{DesCluster, ObsSink, TcpCluster, TcpOptions};
use cx_obs::{blame_span, edges_by_op, BlameTable, Seg};
use cx_types::{BatchTrigger, ClusterConfig, Protocol};
use cx_workloads::{Trace, TraceBuilder, TraceProfile};

fn fast_cfg(servers: u32, protocol: Protocol) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(servers, protocol);
    cfg.cx.trigger = BatchTrigger::Timeout {
        period_ns: 5_000_000, // 5 ms — wall-clock safe
    };
    cfg.cx.hint_mismatch_timeout_ns = 20_000_000;
    cfg
}

fn home2_prefix() -> Trace {
    TraceBuilder::new(TraceProfile::by_name("home2").unwrap())
        .scale(0.0003)
        .build()
}

fn des_blame(protocol: Protocol, trace: &Trace) -> (BlameTable, u64) {
    let sink = ObsSink::recording(format!("{protocol:?}").to_lowercase());
    let (stats, violations) = DesCluster::new(fast_cfg(4, protocol), trace)
        .with_obs(sink)
        .run();
    assert_eq!(violations, vec![], "{protocol:?}: DES atomicity");
    (
        stats.blame.expect("obs DES run attaches a blame table"),
        stats.ops_total,
    )
}

fn tcp_blame(protocol: Protocol, trace: &Trace) -> (BlameTable, u64) {
    let opts = TcpOptions {
        obs: ObsSink::recording(format!("{protocol:?}").to_lowercase()),
        ..TcpOptions::default()
    };
    let r = TcpCluster::run_stream_opts(fast_cfg(4, protocol), trace.to_stream(), opts);
    assert_eq!(r.violations, vec![], "{protocol:?}: TCP atomicity");
    (
        r.stats.blame.expect("obs TCP run attaches a blame table"),
        r.stats.ops_total,
    )
}

/// Structural checks both runtimes' tables must pass identically.
fn assert_table_shape(t: &BlameTable, ops_total: u64, label: &str) {
    assert_eq!(
        t.ops, ops_total,
        "{label}: every completed op decomposed (got {} of {ops_total})",
        t.ops
    );
    assert_eq!(
        t.client_total.count, t.ops,
        "{label}: client window histogram covers every blamed op"
    );
    // The causal walk, not the coarse fallback, must carry the table:
    // both runtimes record request/response edges for every op.
    assert!(
        t.fallback_ops <= t.ops / 2,
        "{label}: {} of {} ops needed the phase-window fallback",
        t.fallback_ops,
        t.ops
    );
    // Work segments that any run of this workload must exhibit.
    for seg in [Seg::Execute, Seg::ReqWire] {
        assert!(
            t.segs[seg.index()].hist.count > 0,
            "{label}: segment {} never attributed",
            seg.name()
        );
    }
    assert!(!t.exemplars.is_empty(), "{label}: tail exemplars mined");
}

#[test]
fn des_and_tcp_blame_tables_agree_structurally_for_cx() {
    let trace = home2_prefix();
    let (des, des_ops) = des_blame(Protocol::Cx, &trace);
    let (tcp, tcp_ops) = tcp_blame(Protocol::Cx, &trace);
    assert_eq!(des_ops, tcp_ops, "equivalence scenario: same op count");
    assert_table_shape(&des, des_ops, "Cx DES");
    assert_table_shape(&tcp, tcp_ops, "Cx TCP");

    // The paper's claim, in both runtimes: Cx commitment runs OFF the
    // client-visible path. The off-path suffix must dominate whatever
    // commit-class traffic leaked into the client window.
    for (t, label) in [(&des, "DES"), (&tcp, "TCP")] {
        assert!(
            t.commit_total.count > 0,
            "Cx {label}: off-path commitment suffix recorded"
        );
        let off_path: u64 = Seg::SUFFIX.iter().map(|s| t.segs[s.index()].hist.sum).sum();
        let on_path = t.segs[Seg::CommitOnPath.index()].hist.sum;
        assert!(
            off_path > on_path,
            "Cx {label}: commitment must sit off-path \
             (off {off_path} <= on {on_path})"
        );
    }
}

#[test]
fn twopc_blame_puts_commitment_on_path_in_both_runtimes() {
    let trace = home2_prefix();
    let (des, des_ops) = des_blame(Protocol::TwoPc, &trace);
    let (tcp, tcp_ops) = tcp_blame(Protocol::TwoPc, &trace);
    assert_eq!(des_ops, tcp_ops);
    assert_table_shape(&des, des_ops, "2PC DES");
    assert_table_shape(&tcp, tcp_ops, "2PC TCP");

    // 2PC votes before replying: commitment is ON the client-visible path
    // and there is no off-path suffix in either runtime.
    for (t, label) in [(&des, "DES"), (&tcp, "TCP")] {
        assert!(
            t.segs[Seg::CommitOnPath.index()].hist.count > 0,
            "2PC {label}: on-path commitment attributed"
        );
        assert_eq!(
            t.commit_total.count, 0,
            "2PC {label}: no off-path commitment suffix"
        );
    }
}

#[test]
fn blame_invariant_holds_for_every_sampled_span_in_both_runtimes() {
    // The acceptance-criterion form of the invariant: re-derive per-op
    // blame from each runtime's exported report and check() every one.
    let trace = home2_prefix();
    for protocol in [Protocol::Cx, Protocol::TwoPc] {
        let sink = ObsSink::recording(format!("{protocol:?}").to_lowercase());
        let (_, violations) = DesCluster::new(fast_cfg(4, protocol), &trace)
            .with_obs(sink.clone())
            .run();
        assert_eq!(violations, vec![]);
        let rep = sink.report().expect("recording sink yields a report");
        let mut decomposed = 0u64;
        let by_op = edges_by_op(&rep.edges);
        for span in &rep.spans {
            let edges = by_op.get(&span.op).map_or(&[][..], Vec::as_slice);
            if let Some(b) = blame_span(span, edges) {
                b.check().unwrap_or_else(|e| panic!("{protocol:?}: {e}"));
                decomposed += 1;
            }
        }
        assert!(decomposed > 0, "{protocol:?}: spans decomposed");
    }
}
