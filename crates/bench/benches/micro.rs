//! Micro-benchmarks of the hot components, with a small hand-rolled timing
//! harness (the workspace builds offline, so there is no Criterion).
//!
//!     cargo bench -p cx-bench
//!     cargo bench -p cx-bench -- wal        # substring filter
//!
//! These measure the substrate itself (not the paper's figures — those
//! live in the `src/bin/` experiment binaries): event-queue churn,
//! protocol-engine throughput on the zero-latency testkit, WAL
//! append/prune and record encode/decode, metadata-store apply/undo and
//! lookup, disk-model scheduling, placement hashing, trace generation,
//! and the wire plane: frame encode/decode and the socket reader's
//! fill-and-drain path.
//!
//! Each benchmark reports the median per-op time over several timed
//! batches (2 warmup + 9 measured).

use cx_core::{BatchTrigger, ClusterConfig, Protocol};
use cx_protocol::testkit::Kit;
use cx_types::{
    FileKind, FsOp, InodeNo, Name, Placement, ProcId, Role, ServerId, SimTime, SubOp, Verdict,
};
use std::hint::black_box;
use std::io::{self, Read};
use std::time::{Duration, Instant};

/// Runs `batch` (which returns the time spent on `units` operations) a few
/// times and prints the median ns/op.
fn bench(filter: &str, name: &str, units: u64, mut batch: impl FnMut() -> Duration) {
    if !name.contains(filter) {
        return;
    }
    for _ in 0..2 {
        batch();
    }
    let mut samples: Vec<f64> = (0..9)
        .map(|_| batch().as_secs_f64() * 1e9 / units as f64)
        .collect();
    samples.sort_by(f64::total_cmp);
    let median = samples[samples.len() / 2];
    println!("{name:<44} {median:>12.1} ns/op");
}

/// Times `f` and keeps its result from being optimized away.
fn timed<T>(f: impl FnOnce() -> T) -> Duration {
    let start = Instant::now();
    black_box(f());
    start.elapsed()
}

fn bench_event_queue(filter: &str) {
    use cx_sim::Sim;
    const N: u64 = 100_000;
    // Near-future-dominated delay mix, like real DES traffic: mostly small
    // deltas with an occasional long timer.
    let delay = |i: u64| {
        if i.is_multiple_of(64) {
            1_000_000 + (i % 7) * 500_000
        } else {
            (i * 2_654_435_761) % 40_000
        }
    };
    bench(filter, "sim/event_queue_schedule_pop", N, || {
        let mut sim: Sim<u64> = Sim::new();
        timed(|| {
            for i in 0..N {
                sim.schedule(delay(i), 0, i);
            }
            let mut acc = 0u64;
            while let Some((_, _, ev)) = sim.pop() {
                acc = acc.wrapping_add(ev);
            }
            acc
        })
    });
    bench(filter, "sim/event_queue_steady_state", N, || {
        let mut sim: Sim<u64> = Sim::new();
        for i in 0..1024 {
            sim.schedule(delay(i), 0, i);
        }
        timed(|| {
            // Pop one, schedule one: the steady-state shape of a replay.
            for i in 0..N {
                if let Some((_, _, ev)) = sim.pop() {
                    sim.schedule(delay(i.wrapping_add(ev)), 0, i);
                }
            }
            sim.events_processed()
        })
    });
}

fn bench_protocol_engines(filter: &str) {
    for protocol in [
        Protocol::Cx,
        Protocol::Se,
        Protocol::SeBatched,
        Protocol::TwoPc,
        Protocol::Ce,
    ] {
        let name = format!("engine_ops/create_{}", protocol.name());
        bench(filter, &name, 64, || {
            let mut cfg = ClusterConfig::new(4, protocol);
            cfg.cx.trigger = BatchTrigger::Threshold { pending_ops: 64 };
            let mut kit = Kit::new(cfg);
            for s in kit.servers.iter_mut() {
                s.store_mut().seed_inode(InodeNo(1), FileKind::Directory, 1);
            }
            timed(move || {
                for i in 0..64u64 {
                    kit.run_op(
                        ProcId::new((i % 4) as u32, 0),
                        FsOp::Create {
                            parent: InodeNo(1),
                            name: Name(100 + i),
                            ino: InodeNo(1000 + i),
                        },
                    );
                }
                kit.quiesce();
                kit
            })
        });
    }
}

fn wal_record(i: u64) -> cx_wal::Record {
    cx_wal::Record::Result {
        op_id: cx_types::OpId::new(ProcId::new(0, 0), i),
        role: Role::Participant,
        peer: Some(ServerId(1)),
        subop: SubOp::CreateInode {
            ino: InodeNo(i),
            kind: FileKind::Regular,
        },
        verdict: Verdict::Yes,
        invalidated: false,
    }
}

fn bench_wal(filter: &str) {
    use cx_wal::Wal;
    bench(filter, "wal/append_commit_prune", 256, || {
        let mut wal = Wal::new(None);
        timed(move || {
            for i in 0..256 {
                let (seq, _) = wal.append(wal_record(i)).expect("unlimited");
                wal.append(cx_wal::Record::Commit {
                    op_id: cx_types::OpId::new(ProcId::new(0, 0), i),
                })
                .expect("unlimited");
                wal.mark_durable(seq);
            }
            wal.prune_all();
            wal
        })
    });
    bench(filter, "wal/encode_decode_record", 10_000, || {
        let r = wal_record(7);
        timed(|| {
            let mut out = 0usize;
            for _ in 0..10_000 {
                let mut buf = Vec::with_capacity(256);
                cx_wal::encode_record(&mut buf, &r);
                out += black_box(cx_wal::decode_record(&buf).expect("round trip")).1;
            }
            out
        })
    });
}

fn bench_store(filter: &str) {
    use cx_mdstore::MetaStore;
    bench(filter, "mdstore/apply_undo_cycle", 256, || {
        let mut store = MetaStore::new();
        timed(move || {
            for i in 0..256u64 {
                let undo = store
                    .apply(&SubOp::CreateInode {
                        ino: InodeNo(i),
                        kind: FileKind::Regular,
                    })
                    .expect("fresh inode");
                if i % 2 == 0 {
                    store.undo(undo);
                }
            }
            store.take_dirty_pages();
            store
        })
    });
    bench(filter, "mdstore/lookup_hit_miss", 20_000, || {
        let mut store = MetaStore::new();
        store.seed_inode(InodeNo(1), FileKind::Directory, 1);
        for i in 0..1_000u64 {
            store.seed_inode(InodeNo(100 + i), FileKind::Regular, 1);
            store.seed_dentry(InodeNo(1), Name(i), InodeNo(100 + i));
        }
        timed(move || {
            let mut hits = 0usize;
            for i in 0..20_000u64 {
                // Every other probe misses.
                if store.lookup(InodeNo(1), Name(i % 2_000)).is_some() {
                    hits += 1;
                }
            }
            hits
        })
    });
}

fn bench_disk_model(filter: &str) {
    use cx_simio::{Disk, DiskReq};
    use cx_types::DiskConfig;
    bench(filter, "disk/group_commit_512_appends", 512, || {
        let mut disk = Disk::new(DiskConfig::default());
        timed(move || {
            let mut batch = disk
                .submit(
                    SimTime(0),
                    DiskReq::LogAppend {
                        bytes: 200,
                        token: 0,
                    },
                )
                .expect("idle start");
            for t in 1..512u64 {
                disk.submit(
                    SimTime(0),
                    DiskReq::LogAppend {
                        bytes: 200,
                        token: t,
                    },
                );
            }
            while let Some(next) = disk.complete(batch.finish) {
                batch = next;
            }
            disk
        })
    });
    bench(filter, "disk/writeback_merge_1000_pages", 1_000, || {
        let mut disk = Disk::new(DiskConfig::default());
        timed(move || {
            let pages: Vec<u64> = (0..1000u64).map(|i| i * 3).collect();
            let batch = disk
                .submit(SimTime(0), DiskReq::DbWriteback { pages, token: 0 })
                .expect("idle start");
            let _ = disk.complete(batch.finish);
            disk
        })
    });
}

fn bench_placement(filter: &str) {
    let p = Placement::new(32);
    bench(filter, "placement/plan_create", 10_000, || {
        timed(|| {
            let mut acc = 0u32;
            for i in 0..10_000u64 {
                let plan = p.plan(FsOp::Create {
                    parent: InodeNo(1),
                    name: Name(i),
                    ino: InodeNo(1000 + i),
                });
                acc = acc.wrapping_add(black_box(&plan).coordinator.0);
            }
            acc
        })
    });
}

fn bench_trace_generation(filter: &str) {
    use cx_core::{TraceBuilder, TraceProfile};
    bench(filter, "workloads/generate_cth_5k_ops", 1, || {
        let profile = TraceProfile::by_name("CTH").expect("exists");
        timed(|| TraceBuilder::new(profile).scale(0.01).build())
    });
}

fn bench_des_replay(filter: &str) {
    use cx_core::{Experiment, Workload};
    bench(filter, "des/replay_cth_1k_ops_cx", 1, || {
        timed(|| {
            Experiment::new(Workload::trace("CTH").scale(0.002))
                .servers(8)
                .protocol(Protocol::Cx)
                .run()
        })
    });
}

/// The `Frame::Msg`s Cx's engines exchange for `ops` creates over four
/// servers on the zero-latency testkit.
fn engine_frames(ops: u64) -> Vec<cx_net::wire::Frame> {
    use cx_net::wire::Frame;
    use std::cell::RefCell;
    use std::rc::Rc;
    let mut cfg = ClusterConfig::new(4, Protocol::Cx);
    cfg.cx.trigger = BatchTrigger::Threshold { pending_ops: 64 };
    let mut kit = Kit::new(cfg);
    for s in kit.servers.iter_mut() {
        s.store_mut().seed_inode(InodeNo(1), FileKind::Directory, 1);
    }
    let seen: Rc<RefCell<Vec<Frame>>> = Rc::default();
    let sink = Rc::clone(&seen);
    kit.hold_if(move |env| {
        let mut frames = sink.borrow_mut();
        let sent_ns = frames.len() as u64 * 1_000;
        frames.push(Frame::Msg {
            sent_ns,
            from: env.from,
            to: env.to,
            payload: env.payload.clone(),
        });
        false
    });
    for i in 0..ops {
        kit.run_op(
            ProcId::new((i % 4) as u32, 0),
            FsOp::Create {
                parent: InodeNo(1),
                name: Name(100 + i),
                ino: InodeNo(1000 + i),
            },
        );
    }
    kit.quiesce();
    seen.take()
}

/// An in-memory socket: each `read` returns at most `chunk` bytes.
struct ChunkedReader<'a> {
    bytes: &'a [u8],
    chunk: usize,
}

impl Read for ChunkedReader<'_> {
    fn read(&mut self, w: &mut [u8]) -> io::Result<usize> {
        let n = self.chunk.min(self.bytes.len()).min(w.len());
        w[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

fn bench_net(filter: &str) {
    use cx_net::wire::{decode_frame, encode_frame, FrameBuffer};
    use cx_types::NetTuning;
    const NAMES: [&str; 3] = ["net/frame_encode", "net/frame_decode", "net/socket_read"];
    if !NAMES.iter().any(|name| name.contains(filter)) {
        return;
    }
    let frames = engine_frames(1024);
    let n = frames.len() as u64;
    let mut bytes = Vec::new();
    for f in &frames {
        encode_frame(f, &mut bytes);
    }
    bench(filter, NAMES[0], n, || {
        let mut buf = Vec::with_capacity(bytes.len());
        timed(|| {
            for f in &frames {
                encode_frame(f, &mut buf);
            }
            buf
        })
    });
    bench(filter, NAMES[1], n, || {
        timed(|| {
            let (mut rest, mut count) = (&bytes[..], 0u64);
            while !rest.is_empty() {
                let (f, used) = decode_frame(rest).expect("own encoding decodes");
                black_box(f);
                rest = &rest[used..];
                count += 1;
            }
            count
        })
    });
    // The reader thread's path: a buffer of the default size, filled by
    // ~1.7 KiB `read`s (a couple of coalesced flushes' worth of ~70 B
    // frames), every complete frame drained after each one.
    bench(filter, NAMES[2], n, || {
        let mut fb = FrameBuffer::with_capacity(NetTuning::default().read_buf_bytes);
        let mut out = Vec::with_capacity(64);
        let mut socket = ChunkedReader {
            bytes: &bytes,
            chunk: 1_700,
        };
        timed(|| {
            let mut count = 0;
            while fb.fill_from(&mut socket, 4096).expect("in-memory read") > 0 {
                count += fb.drain_frames(&mut out).expect("own encoding decodes");
                out.clear();
            }
            assert_eq!(count as u64, n, "every frame arrives");
            count
        })
    });
}

fn main() {
    // Cargo passes `--bench` (and possibly other flags); the first
    // non-flag argument is a substring filter.
    let filter = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .unwrap_or_default();
    println!("{:<44} {:>12}", "benchmark", "median");
    println!("{}", "-".repeat(60));
    bench_event_queue(&filter);
    bench_protocol_engines(&filter);
    bench_wal(&filter);
    bench_store(&filter);
    bench_disk_model(&filter);
    bench_placement(&filter);
    bench_trace_generation(&filter);
    bench_des_replay(&filter);
    bench_net(&filter);
}
