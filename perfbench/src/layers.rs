//! The traced run: per-layer numbers for one workload.
//!
//! Each repetition generates the workload's first input, calls every
//! layer's public functions on it, each call wrapped in a span, and
//! replays it once on the workload's runtime. A layer's figure is its
//! span's self time per unit of work, taken as the median over
//! repetitions; counts per op come from the replay's own statistics.
//! End-to-end metrics never come from this run.

use crate::replay::{replay, Replay};
use crate::spans::Tracer;
use crate::stats::{interpolated_percentile, median, ns_per, per_unit, ReplayOutcome};
use crate::workloads::{Runtime, Workload};
use crate::Metric;
use cx_core::{ClusterConfig, OpOutcome, Phase, Trace};
use cx_mdstore::MetaStore;
use cx_net::wire::{decode_frame, encode_frame, Frame, FrameBuffer};
use cx_obs::{ObsSink, Seg};
use cx_protocol::testkit::{Envelope, Kit};
use cx_sim::Sim;
use cx_simio::{Disk, DiskReq};
use cx_types::{FileKind, FsOp, OpId, OpPlan, Placement, Role, SimTime, Verdict};
use cx_wal::{encode_record, Record, Wal};
use cx_workloads::SeedEntry;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// At least this many repetitions, however long they take.
const MIN_REPS: usize = 2;
/// Ops whose messages the codec is timed on (a prefix of the input).
const CODEC_OPS: usize = 20_000;
/// Dirty pages are handed to the write-back path every this many
/// sub-ops per server, as the engines' lazy write-back does in batches.
const WRITEBACK_EVERY: usize = 256;

pub struct Traced {
    pub outcomes: Vec<ReplayOutcome>,
    pub metrics: Vec<Metric>,
    pub tracer: Tracer,
}

/// Per-repetition values, keyed by metric name, with their units.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, (Vec<f64>, &'static str)>);

impl Samples {
    fn add(&mut self, name: &'static str, unit: &'static str, v: f64) {
        self.0
            .entry(name)
            .or_insert_with(|| (Vec::new(), unit))
            .0
            .push(v);
    }
}

pub fn run(w: &Workload, seed: u64, seconds: u64) -> Traced {
    let mut tr = Tracer::new();
    let mut samples = Samples::default();
    let mut outcomes = Vec::new();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let root = tr.begin("traced-run");
    let mut rep = 0;
    while rep < MIN_REPS || start.elapsed() < budget {
        let id = tr.begin("rep");
        let ok = one_rep(w, seed, &mut tr, &mut samples, &mut outcomes);
        tr.end(id);
        if !ok {
            break;
        }
        rep += 1;
    }
    tr.end(root);
    let metrics = samples
        .0
        .iter()
        .map(|(name, (v, unit))| {
            Metric::new(name, median(v).expect("one sample per repetition"), unit)
        })
        .collect();
    Traced {
        outcomes,
        metrics,
        tracer: tr,
    }
}

/// Time `f` inside a span named `name`; returns its result and self time.
fn timed<T>(tr: &mut Tracer, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let id = tr.begin(name);
    let out = black_box(f());
    tr.end(id);
    (out, tr.self_ns(id) as f64 / 1e9)
}

/// One repetition; false once a replay failed to return.
fn one_rep(
    w: &Workload,
    seed: u64,
    tr: &mut Tracer,
    s: &mut Samples,
    outcomes: &mut Vec<ReplayOutcome>,
) -> bool {
    let cfg = w.config(seed, 0);
    let (trace, gen_s) = timed(tr, "workloads.gen", || w.generate(&cfg, seed, 0));
    let ops = trace.ops.len() as u64;
    s.add("workloads.gen_ns_per_op", "ns", ns_per(gen_s, ops));

    let placement = Placement::new(cfg.servers);
    let (plans, plan_s) = timed(tr, "types.plan", || {
        trace
            .ops
            .iter()
            .map(|o| placement.plan(o.op))
            .collect::<Vec<OpPlan>>()
    });
    let plan_ns = ns_per(plan_s, ops);
    s.add("types.plan_ns_per_op", "ns", plan_ns);

    let pages = mdstore(tr, s, &cfg, &trace, &plans, &placement);
    let records = wal(tr, s, &cfg, &trace, &plans);
    let submit_ns = simio(tr, s, &cfg, &records, pages);
    let engine_ns = protocol(tr, s, &cfg, &trace, outcomes);
    let queue_ns = sim_queue(tr, s, &cfg, &trace);
    codec(tr, s, &cfg, &trace);
    stamps(tr, s, &trace, &plans);

    // The workload's own replay of the same input.
    let run = match timed_replay(tr, w.runtime, cfg, trace) {
        Ok(r) => r,
        Err(o) => {
            outcomes.push(o);
            return false;
        }
    };
    outcomes.push(run.outcome);
    let st = &run.stats;
    let done = st.ops_total;
    let per_op = |v: u64| per_unit(v as f64, done);
    let events_per_op = per_op(st.events);
    s.add("sim.events_per_op", "count", events_per_op);
    s.add("protocol.msgs_per_op", "count", per_op(st.total_msgs()));
    s.add(
        "protocol.server_msgs_per_op",
        "count",
        per_op(st.server_msgs),
    );
    s.add(
        "protocol.conflicts_per_kop",
        "count",
        1e3 * per_op(st.server_stats.conflicts),
    );
    let p = &st.proto;
    s.add(
        "protocol.immediate_commit_share",
        "share",
        per_unit(
            p.immediate_commitments as f64,
            p.immediate_commitments + p.batched_commitments,
        ),
    );
    s.add(
        "protocol.ops_per_lazy_batch",
        "count",
        per_unit(p.batched_ops as f64, p.batched_commitments),
    );
    s.add("protocol.cross_share", "share", per_op(st.cross_ops));
    s.add("protocol.fs_error_share", "share", per_op(st.ops_failed));
    let d = &st.disk;
    s.add("simio.appends_per_flush", "count", d.appends_per_flush());
    s.add("simio.pages_per_run", "count", d.pages_per_run());
    s.add("simio.log_bytes_per_op", "B", per_op(d.log_bytes));
    // Busy time over every disk's whole run, replay and drain.
    s.add(
        "simio.disk_busy_share",
        "share",
        per_unit(
            d.busy_ns as f64,
            st.drained.0.max(st.replay.0) * u64::from(w.servers),
        ),
    );
    s.add(
        "wal.peak_valid_kb",
        "KiB",
        st.peak_valid_bytes as f64 / 1024.0,
    );

    let (wire, telem) = match &run.tcp {
        Some(t) => (t.wire, Some(&t.telem)),
        None => (cx_net::WireTotals::default(), None),
    };
    s.add("net.frames_per_op", "count", per_op(wire.frames));
    s.add("net.bytes_per_op", "B", per_op(wire.bytes));
    s.add(
        "net.frames_per_flush",
        "count",
        per_unit(wire.frames as f64, wire.flushes),
    );
    let p99 =
        |h: Option<&cx_obs::LogHistogram>| h.map_or(0.0, |h| interpolated_percentile(h, 99.0));
    s.add(
        "net.flush_latency_p99_us",
        "us",
        p99(telem.map(|t| &t.flush_latency_ns)) / 1e3,
    );
    s.add(
        "net.stall_p99_us",
        "us",
        p99(telem.map(|t| &t.stall_ns)) / 1e3,
    );
    s.add(
        "net.queue_depth_p99",
        "count",
        p99(telem.map(|t| &t.queue_depth)),
    );

    obs_report(tr, s, &run);

    // What the layers timed above do not account for: the runtime's own
    // dispatch (and, on TCP, its threads and sockets).
    let simio_reqs = per_op(d.log_appends + d.wb_batches + d.sync_writes);
    let run_ns = ns_per(run.marks.run_s(), done);
    s.add(
        "cluster.unattributed_ns_per_op",
        "ns",
        run_ns - (events_per_op * queue_ns + engine_ns + plan_ns + simio_reqs * submit_ns),
    );
    true
}

/// Replay on the workload's runtime and record its boundaries as spans:
/// `cluster.run` with children for the set-up before the first op and,
/// when traced, the report.
fn timed_replay(
    tr: &mut Tracer,
    runtime: Runtime,
    cfg: ClusterConfig,
    trace: Trace,
) -> Result<Replay, ReplayOutcome> {
    let parent = tr.begin("cluster.replay");
    let r = replay(runtime, cfg, trace);
    tr.end(parent);
    let r = r?;
    let m = r.marks;
    let run = tr.record(
        "cluster.run",
        Some(parent),
        m.call,
        m.blame.unwrap_or(m.returned),
    );
    tr.record("cluster.setup", Some(run), m.call, m.first_op);
    if let Some(rep) = m.report {
        tr.record("obs.report", Some(run), m.returned, rep);
    }
    Ok(r)
}

/// Metrics of the tracing plane itself. Zero where the run recorded
/// nothing (tracing off).
fn obs_report(tr: &mut Tracer, s: &mut Samples, run: &Replay) {
    let done = run.stats.ops_total;
    let report = run.tcp.as_ref().and_then(|t| t.report.as_ref());
    let report_s = match (run.marks.report, report) {
        (Some(at), Some(_)) => at.duration_since(run.marks.returned).as_secs_f64(),
        _ => 0.0,
    };
    s.add("obs.report_s", "s", report_s);
    s.add(
        "obs.spans_per_op",
        "count",
        per_unit(report.map_or(0, |r| r.spans.len()) as f64, done),
    );
    s.add(
        "obs.edges_per_op",
        "count",
        per_unit(report.map_or(0, |r| r.edges.len()) as f64, done),
    );
    // The blame pass, timed on its own over the run's report.
    let blame_s = report.map_or(0.0, |r| timed(tr, "obs.blame", || r.blame()).1);
    s.add("obs.blame_ns_per_op", "ns", ns_per(blame_s, done));
    let blame = run.tcp.as_ref().and_then(|t| t.blame.as_ref());
    for seg in Seg::CLIENT {
        let v = blame.map_or(0.0, |b| {
            interpolated_percentile(&b.segs[seg.index()].hist, 50.0) / 1e3
        });
        s.add(blame_metric(seg), "us", v);
    }
}

fn blame_metric(seg: Seg) -> &'static str {
    match seg {
        Seg::IssueQueue => "blame.issue-queue_p50_us",
        Seg::Dispatch => "blame.dispatch_p50_us",
        Seg::ReqWire => "blame.req-wire_p50_us",
        Seg::Execute => "blame.execute_p50_us",
        Seg::CommitOnPath => "blame.commit-on-path_p50_us",
        Seg::ReplyWire => "blame.reply-wire_p50_us",
        Seg::ReplyDeliver => "blame.reply-deliver_p50_us",
        other => unreachable!("{} is not a client-visible segment", other.name()),
    }
}

/// Seed the input's namespace into one store per server, as the DES
/// seeds its engines.
fn seed_namespace(stores: &mut [&mut MetaStore], trace: &Trace, placement: &Placement) {
    for seed in &trace.seeds {
        match *seed {
            SeedEntry::Dir { ino } => {
                for st in stores.iter_mut() {
                    st.seed_inode(ino, FileKind::Directory, 1);
                }
            }
            SeedEntry::File { parent, name, ino } => {
                stores[placement.dentry_server(parent, name).0 as usize]
                    .seed_dentry(parent, name, ino);
                stores[placement.inode_server(ino).0 as usize].seed_inode(
                    ino,
                    FileKind::Regular,
                    1,
                );
            }
        }
    }
}

fn seeded_stores(cfg: &ClusterConfig, trace: &Trace, placement: &Placement) -> Vec<MetaStore> {
    let mut stores: Vec<MetaStore> = (0..cfg.servers).map(|_| MetaStore::new()).collect();
    seed_namespace(&mut stores.iter_mut().collect::<Vec<_>>(), trace, placement);
    stores
}

/// Apply every mutation's sub-ops on its servers, then resolve every read
/// against the resulting namespace. Returns the dirty-page batches each
/// server handed to write-back.
fn mdstore(
    tr: &mut Tracer,
    s: &mut Samples,
    cfg: &ClusterConfig,
    trace: &Trace,
    plans: &[OpPlan],
    placement: &Placement,
) -> Vec<Vec<Vec<u64>>> {
    let id = tr.begin("mdstore.seed");
    let mut stores = seeded_stores(cfg, trace, placement);
    tr.end(id);
    let mut pages: Vec<Vec<Vec<u64>>> = vec![Vec::new(); stores.len()];
    let (subops, apply_s) = timed(tr, "mdstore.apply", || {
        let mut since = vec![0usize; stores.len()];
        let mut n = 0u64;
        for plan in plans.iter().filter(|p| p.op.is_mutation()) {
            for (server, sub, _) in plan.assignments() {
                let i = server.0 as usize;
                n += 1;
                // A refused sub-op (e.g. the name exists) is the store's
                // answer, as in a replay.
                let _ = black_box(stores[i].apply(&sub));
                since[i] += 1;
                if since[i] == WRITEBACK_EVERY {
                    since[i] = 0;
                    pages[i].push(stores[i].take_dirty_pages());
                }
            }
        }
        n
    });
    s.add("mdstore.apply_ns_per_subop", "ns", ns_per(apply_s, subops));

    let (reads, lookup_s) = timed(tr, "mdstore.lookup", || {
        let mut n = 0u64;
        for o in trace.ops.iter().filter(|o| !o.op.is_mutation()) {
            n += 1;
            let hit = match o.op {
                FsOp::Lookup { parent, name } => stores
                    [placement.dentry_server(parent, name).0 as usize]
                    .lookup(parent, name)
                    .is_some(),
                FsOp::Stat { ino }
                | FsOp::Getattr { ino }
                | FsOp::Access { ino }
                | FsOp::Setattr { ino }
                | FsOp::Readdir { dir: ino } => stores[placement.inode_server(ino).0 as usize]
                    .inode(ino)
                    .is_some(),
                _ => false,
            };
            black_box(hit);
        }
        n
    });
    s.add("mdstore.lookup_ns_per_read", "ns", ns_per(lookup_s, reads));
    pages
}

/// The log records the engines write for the input's mutations: one
/// result per sub-op, then a commit. Grouped per server.
fn wal(
    tr: &mut Tracer,
    s: &mut Samples,
    cfg: &ClusterConfig,
    trace: &Trace,
    plans: &[OpPlan],
) -> Vec<Vec<Record>> {
    let id = tr.begin("wal.records");
    let mut records: Vec<Vec<Record>> = vec![Vec::new(); cfg.servers as usize];
    for (i, (o, plan)) in trace.ops.iter().zip(plans).enumerate() {
        if !o.op.is_mutation() {
            continue;
        }
        let op_id = OpId::new(o.proc, i as u64);
        let peer = |role: Role| match role {
            Role::Coordinator => plan.participant.map(|(srv, _)| srv),
            Role::Participant => Some(plan.coordinator),
        };
        for (srv, subop, role) in plan.assignments() {
            records[srv.0 as usize].push(Record::Result {
                op_id,
                role,
                peer: peer(role),
                subop,
                verdict: Verdict::Yes,
                invalidated: false,
            });
        }
        records[plan.coordinator.0 as usize].push(Record::Commit { op_id });
    }
    tr.end(id);
    let n: u64 = records.iter().map(|r| r.len() as u64).sum();

    let (_, encode_s) = timed(tr, "wal.encode", || {
        let mut buf = Vec::with_capacity(1 << 16);
        let mut bytes = 0usize;
        for rec in records.iter().flatten() {
            if buf.len() > (1 << 16) {
                bytes += buf.len();
                buf.clear();
            }
            encode_record(&mut buf, rec);
        }
        bytes + buf.len()
    });
    s.add("wal.encode_ns_per_record", "ns", ns_per(encode_s, n));

    // Append, make durable in group-commit sized batches, and prune each
    // op once its commit is durable: the log's whole life cycle.
    let (_, append_s) = timed(tr, "wal.append", || {
        let mut kept = 0usize;
        for recs in &records {
            let mut log = Wal::new(None);
            let mut committed = Vec::new();
            for rec in recs {
                let (seq, _) = log.append(rec.clone()).expect("unlimited log");
                if let Record::Commit { op_id } = rec {
                    committed.push(*op_id);
                }
                if committed.len() == 32 {
                    log.mark_durable(seq);
                    for op in committed.drain(..) {
                        log.prune_op(&op);
                    }
                }
            }
            kept += log.record_count();
        }
        kept
    });
    s.add("wal.append_ns_per_record", "ns", ns_per(append_s, n));
    records
}

/// Drive each server's disk model with its log appends and write-back
/// batches on a virtual clock. Returns ns per request.
fn simio(
    tr: &mut Tracer,
    s: &mut Samples,
    cfg: &ClusterConfig,
    records: &[Vec<Record>],
    pages: Vec<Vec<Vec<u64>>>,
) -> f64 {
    let (reqs, submit_s) = timed(tr, "simio.submit", || {
        let mut reqs = 0u64;
        for (recs, mut wb) in records.iter().zip(pages) {
            let mut disk = Disk::new(cfg.disk);
            let mut now = 0u64;
            let mut inflight: Option<SimTime> = None;
            for (token, rec) in recs.iter().enumerate() {
                // One record per simulated microsecond of arrivals.
                now += 1_000;
                while let Some(f) = inflight.filter(|f| f.0 <= now) {
                    inflight = disk.complete(f).map(|b| b.finish);
                }
                let token = token as u64;
                let mut submit = |req| {
                    reqs += 1;
                    if let Some(b) = disk.submit(SimTime(now), req) {
                        inflight = Some(b.finish);
                    }
                };
                submit(DiskReq::LogAppend {
                    bytes: rec.encoded_len(),
                    token,
                });
                if token.is_multiple_of(WRITEBACK_EVERY as u64) {
                    if let Some(p) = wb.pop() {
                        submit(DiskReq::DbWriteback { pages: p, token });
                    }
                }
            }
            while let Some(f) = inflight {
                inflight = disk.complete(f).map(|b| b.finish);
            }
        }
        reqs
    });
    let ns = ns_per(submit_s, reqs);
    s.add("simio.submit_ns_per_req", "ns", ns);
    ns
}

/// A zero-latency protocol harness seeded with the input's namespace.
fn seeded_kit(cfg: &ClusterConfig, trace: &Trace) -> Kit {
    let placement = Placement::new(cfg.servers);
    let mut kit = Kit::new(cfg.clone());
    let mut stores: Vec<&mut MetaStore> = kit.servers.iter_mut().map(|e| e.store_mut()).collect();
    seed_namespace(&mut stores, trace, &placement);
    kit
}

/// Every op of the input through the engines, one at a time, with
/// instant network and disk. Returns ns per op.
fn protocol(
    tr: &mut Tracer,
    s: &mut Samples,
    cfg: &ClusterConfig,
    trace: &Trace,
    outcomes: &mut Vec<ReplayOutcome>,
) -> f64 {
    let id = tr.begin("protocol.seed");
    let mut kit = seeded_kit(cfg, trace);
    tr.end(id);
    let (_, engine_s) = timed(tr, "protocol.engine", || {
        for (i, o) in trace.ops.iter().enumerate() {
            kit.run_op(o.proc, o.op);
            if i % 1024 == 1023 {
                kit.fire_timers();
            }
        }
        kit.quiesce();
    });
    let ops = trace.ops.len() as u64;
    let ns = ns_per(engine_s, ops);
    s.add("protocol.engine_ns_per_op", "ns", ns);
    // The harness's answers are checked like a replay's.
    let applied = kit
        .outcomes
        .values()
        .filter(|o| **o == OpOutcome::Applied)
        .count() as u64;
    let completed = kit.outcomes.len() as u64;
    outcomes.push(ReplayOutcome {
        expected: ops,
        completed,
        applied,
        fs_failed: completed - applied,
        violations: kit.check_consistency(&trace.roots).len() as u64,
        ..ReplayOutcome::default()
    });
    ns
}

/// The event queue at the workload's depth (one in-flight op per client
/// process), popping one event and scheduling one per step, with
/// network-delay jitter and an occasional long timer. Returns ns per
/// event.
fn sim_queue(tr: &mut Tracer, s: &mut Samples, cfg: &ClusterConfig, trace: &Trace) -> f64 {
    let one_way = cfg.net.one_way_ns.max(1);
    let delay = |i: u64| {
        if i.is_multiple_of(64) {
            5_000_000
        } else {
            one_way + (i.wrapping_mul(2_654_435_761) % one_way)
        }
    };
    let events = 4 * trace.ops.len() as u64;
    let mut sim: Sim<u64> = Sim::new();
    for i in 0..u64::from(trace.processes.max(1)) {
        sim.schedule(delay(i), 0, i);
    }
    let (_, queue_s) = timed(tr, "sim.queue", || {
        let mut acc = 0u64;
        for i in 0..events {
            if let Some((_, _, ev)) = sim.pop() {
                acc = acc.wrapping_add(ev);
                sim.schedule(delay(i ^ ev), 0, i);
            }
        }
        acc
    });
    let ns = ns_per(queue_s, events);
    s.add("sim.queue_ns_per_event", "ns", ns);
    ns
}

/// Encode and decode the messages the engines exchange for a prefix of
/// the input, as frames on the wire.
fn codec(tr: &mut Tracer, s: &mut Samples, cfg: &ClusterConfig, trace: &Trace) {
    let id = tr.begin("net.capture");
    let mut kit = seeded_kit(cfg, trace);
    let seen: Rc<RefCell<Vec<Envelope>>> = Rc::default();
    let sink = Rc::clone(&seen);
    kit.hold_if(move |env| {
        sink.borrow_mut().push(env.clone());
        false
    });
    for o in trace.ops.iter().take(CODEC_OPS) {
        kit.run_op(o.proc, o.op);
    }
    kit.quiesce();
    drop(kit);
    let frames: Vec<Frame> = seen
        .take()
        .into_iter()
        .enumerate()
        .map(|(i, e)| Frame::Msg {
            sent_ns: i as u64 * 1_000,
            from: e.from,
            to: e.to,
            payload: e.payload,
        })
        .collect();
    tr.end(id);
    let n = frames.len() as u64;

    let (bytes, encode_s) = timed(tr, "net.encode", || {
        let mut buf = Vec::with_capacity(frames.len() * 64);
        for f in &frames {
            encode_frame(f, &mut buf);
        }
        buf
    });
    s.add("net.encode_ns_per_frame", "ns", ns_per(encode_s, n));

    let (decoded, decode_s) = timed(tr, "net.decode", || {
        let (mut off, mut count) = (0usize, 0u64);
        while off < bytes.len() {
            let (f, used) = decode_frame(&bytes[off..]).expect("own encoding decodes");
            black_box(f);
            off += used;
            count += 1;
        }
        count
    });
    assert_eq!(decoded, n, "every encoded frame decodes");
    s.add("net.decode_ns_per_frame", "ns", ns_per(decode_s, n));

    // The reader's path: socket-sized chunks into a frame buffer, drained
    // a batch at a time.
    let (batched, batch_s) = timed(tr, "net.batch_decode", || {
        let mut fb = FrameBuffer::with_capacity(1 << 16);
        let mut out = Vec::with_capacity(1024);
        let mut count = 0u64;
        for chunk in bytes.chunks(1 << 16) {
            fb.extend(chunk);
            count += fb.drain_frames(&mut out).expect("own encoding decodes") as u64;
            out.clear();
        }
        count
    });
    assert_eq!(batched, n, "every encoded frame batch-decodes");
    s.add("net.batch_decode_ns_per_frame", "ns", ns_per(batch_s, n));
}

/// Stamp every op's lifecycle into a recording sink, from one thread and
/// from two sharing the sink (which shows lock contention).
fn stamps(tr: &mut Tracer, s: &mut Samples, trace: &Trace, plans: &[OpPlan]) {
    const PER_OP: u64 = 5;
    let stamp = |sink: &ObsSink, i: usize| {
        let o = &trace.ops[i];
        let plan = &plans[i];
        let id = OpId::new(o.proc, i as u64);
        let t = i as u64 * 1_000;
        sink.op_issued(id, o.op.class(), plan.is_cross_server(), SimTime(t));
        sink.op_phase(id, Phase::Dispatched, SimTime(t + 100), None);
        sink.op_phase(
            id,
            Phase::Executed,
            SimTime(t + 200),
            Some(plan.coordinator),
        );
        sink.op_replied(id, SimTime(t + 300), OpOutcome::Applied, false);
        sink.client_latency(o.op.class(), plan.is_cross_server(), 300);
    };
    let n = trace.ops.len();
    let stamps = PER_OP * n as u64;

    let sink = ObsSink::recording("cx");
    let (_, one_s) = timed(tr, "obs.stamp_1t", || {
        for i in 0..n {
            stamp(&sink, i);
        }
    });
    s.add("obs.stamp_ns_per_phase_1t", "ns", ns_per(one_s, stamps));

    let sink = ObsSink::recording("cx");
    let (_, two_s) = timed(tr, "obs.stamp_2t", || {
        std::thread::scope(|sc| {
            for k in 0..2 {
                let sink = &sink;
                sc.spawn(move || {
                    for i in (k..n).step_by(2) {
                        stamp(sink, i);
                    }
                });
            }
        });
    });
    // Thread-seconds per stamp: flat when the two threads do not contend.
    s.add(
        "obs.stamp_ns_per_phase_2t",
        "ns",
        ns_per(2.0 * two_s, stamps),
    );
}
