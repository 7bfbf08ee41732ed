//! Coalesced-stream decode equivalence (ISSUE 8 satellite 2): a byte
//! stream of many frames encoded back-to-back — exactly what the
//! coalescing writer's single `write_all` produces — must decode through
//! the incremental [`FrameBuffer`] to the identical frame sequence no
//! matter how the stream is split into reads: frame-aligned, mid-header,
//! mid-body, byte-at-a-time, or all at once. The same holds for the
//! socket path, [`FrameBuffer::fill_from`], fed by a `Read` that returns
//! arbitrary chunks, is interrupted, or fails mid-frame.

use cx_net::wire::{decode_frame, encode_frame, Frame, FrameBuffer};
use cx_net::NodeId;
use cx_protocol::Endpoint;
use cx_types::{Hint, OpId, Payload, ProcId, ServerId, Verdict};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::io::{self, Read};

fn sample_frame(rng: &mut SmallRng) -> Frame {
    let op_id = OpId::new(
        ProcId::new(rng.gen_range(0u32..100), rng.gen_range(0u32..100)),
        rng.next_u64(),
    );
    match rng.gen_range(0u32..6) {
        0 => Frame::Msg {
            sent_ns: rng.next_u64(),
            from: Endpoint::Server(ServerId(0)),
            to: Endpoint::Proc(ProcId::new(1, 2)),
            payload: Payload::SubOpResp {
                op_id,
                verdict: Verdict::Yes,
                hint: Hint(vec![op_id]),
            },
        },
        1 => Frame::Msg {
            sent_ns: rng.next_u64(),
            from: Endpoint::Server(ServerId(1)),
            to: Endpoint::Server(ServerId(2)),
            payload: Payload::Vote {
                ops: (0..rng.gen_range(0u64..6))
                    .map(|s| OpId::new(ProcId::new(0, 0), s))
                    .collect(),
                order_after: vec![],
            },
        },
        2 => Frame::Hello {
            node: NodeId::ClientHost(rng.gen_range(0u32..8)),
            listen_port: rng.gen_range(1024u16..u16::MAX),
        },
        3 => Frame::Probe {
            token: rng.next_u64(),
            t0_ns: rng.next_u64(),
        },
        4 => Frame::Quiesce,
        _ => Frame::StopResp {
            stats_json: (0..rng.gen_range(0usize..64))
                .map(|_| rng.gen_range(0u32..256) as u8)
                .collect(),
            inodes: vec![(rng.next_u64(), 1, 2)],
            dentries: vec![(1, rng.next_u64(), 3)],
        },
    }
}

/// Encode `frames` back-to-back, the coalescing writer's wire image.
fn coalesce(frames: &[Frame]) -> Vec<u8> {
    let mut buf = Vec::new();
    for f in frames {
        encode_frame(f, &mut buf);
    }
    buf
}

/// Reference decode: frame-at-a-time over the whole buffer.
fn decode_whole(mut bytes: &[u8]) -> Vec<Frame> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let (f, used) = decode_frame(bytes).expect("valid stream");
        out.push(f);
        bytes = &bytes[used..];
    }
    out
}

/// Feed `bytes` into a `FrameBuffer` split at the given cut points,
/// draining after every chunk (as a reader would after every `read`).
fn decode_chunked(bytes: &[u8], cuts: &[usize]) -> Vec<Frame> {
    let mut fb = FrameBuffer::with_capacity(64);
    let mut out = Vec::new();
    let mut prev = 0;
    for &c in cuts {
        fb.extend(&bytes[prev..c]);
        fb.drain_frames(&mut out).expect("valid stream");
        prev = c;
    }
    fb.extend(&bytes[prev..]);
    fb.drain_frames(&mut out).expect("valid stream");
    assert_eq!(fb.pending(), 0, "a complete stream leaves no residue");
    out
}

/// A `Read` over a byte stream with a scripted shape: step `i` answers
/// `Interrupted` first if `script[i].1` is set, then returns up to
/// `script[i].0` bytes (the script cycles). Every call first scribbles
/// over the whole window it was lent, so a buffer that trusted bytes past
/// the returned count would decode garbage.
struct ScriptedReader<'a> {
    bytes: &'a [u8],
    script: Vec<(usize, bool)>,
    step: usize,
    interrupted: bool,
}

impl Read for ScriptedReader<'_> {
    fn read(&mut self, w: &mut [u8]) -> io::Result<usize> {
        w.fill(0xA5);
        let (size, interrupt) = self.script[self.step % self.script.len()];
        if interrupt && !self.interrupted {
            self.interrupted = true;
            return Err(io::ErrorKind::Interrupted.into());
        }
        self.interrupted = false;
        self.step += 1;
        let n = size.min(self.bytes.len()).min(w.len());
        w[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// A frame whose encoding is `body` bytes longer than an empty one, so a
/// 64-byte buffer must grow to hold it.
fn big_frame(body: usize) -> Frame {
    Frame::StopResp {
        stats_json: vec![b'x'; body],
        inodes: vec![],
        dentries: vec![],
    }
}

#[test]
fn failed_read_mid_frame_keeps_the_buffered_prefix() {
    let frame = Frame::Probe {
        token: 7,
        t0_ns: 11,
    };
    let mut bytes = Vec::new();
    encode_frame(&frame, &mut bytes);
    let cut = 6; // past the length prefix, inside the body

    /// One good chunk, then a timeout that scribbles over the window,
    /// then the rest.
    struct Flaky<'a> {
        steps: Vec<Result<&'a [u8], io::ErrorKind>>,
    }
    impl Read for Flaky<'_> {
        fn read(&mut self, w: &mut [u8]) -> io::Result<usize> {
            w.fill(0xFF);
            match self.steps.remove(0) {
                Ok(chunk) => {
                    w[..chunk.len()].copy_from_slice(chunk);
                    Ok(chunk.len())
                }
                Err(kind) => Err(kind.into()),
            }
        }
    }
    let mut r = Flaky {
        steps: vec![
            Ok(&bytes[..cut]),
            Err(io::ErrorKind::WouldBlock),
            Ok(&bytes[cut..]),
        ],
    };
    let mut fb = FrameBuffer::with_capacity(64);
    assert_eq!(fb.fill_from(&mut r, 16).expect("first chunk"), cut);
    assert_eq!(fb.next_frame(), Ok(None));
    let err = fb.fill_from(&mut r, 16).expect_err("scripted failure");
    assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    assert_eq!(fb.pending(), cut, "the failed read kept the prefix");
    assert_eq!(fb.next_frame(), Ok(None));
    assert_eq!(fb.fill_from(&mut r, 16).expect("rest"), bytes.len() - cut);
    assert_eq!(fb.next_frame(), Ok(Some(frame)));
    assert_eq!(fb.pending(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The socket path: arbitrary chunk sizes (small ones cut inside
    /// length prefixes), injected `Interrupted`, and one frame larger
    /// than the buffer's initial capacity decode through `fill_from` to
    /// the same sequence as the unsplit stream.
    #[test]
    fn fill_from_decodes_identically(
        seed in any::<u64>(),
        script in prop::collection::vec((1usize..48, any::<bool>()), 1..16),
        min_window in 1usize..96,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut frames: Vec<Frame> = (0..rng.gen_range(1usize..12))
            .map(|_| sample_frame(&mut rng))
            .collect();
        let at = rng.gen_range(0..frames.len() + 1);
        frames.insert(at, big_frame(rng.gen_range(64usize..512)));
        let bytes = coalesce(&frames);
        let reference = decode_whole(&bytes);

        let mut r = ScriptedReader { bytes: &bytes, script, step: 0, interrupted: false };
        let mut fb = FrameBuffer::with_capacity(64);
        let mut out = Vec::new();
        while fb.fill_from(&mut r, min_window).expect("in-memory read") > 0 {
            fb.drain_frames(&mut out).expect("valid stream");
        }
        prop_assert_eq!(fb.pending(), 0, "a complete stream leaves no residue");
        prop_assert_eq!(out, reference);
    }

    /// Arbitrary split boundaries — including mid-length-prefix and
    /// mid-body cuts — decode to the same sequence as the unsplit stream.
    #[test]
    fn arbitrary_boundaries_decode_identically(seed in any::<u64>(), nsplits in 0usize..12) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let frames: Vec<Frame> = (0..rng.gen_range(1usize..12))
            .map(|_| sample_frame(&mut rng))
            .collect();
        let bytes = coalesce(&frames);
        let reference = decode_whole(&bytes);
        prop_assert_eq!(&reference, &frames, "reference decode is identity");

        let mut cuts: Vec<usize> = (0..nsplits)
            .map(|_| rng.gen_range(0usize..bytes.len() + 1))
            .collect();
        cuts.sort_unstable();
        let chunked = decode_chunked(&bytes, &cuts);
        prop_assert_eq!(chunked, reference);
    }

    /// The pathological split: one byte per `read`.
    #[test]
    fn byte_at_a_time_decodes_identically(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let frames: Vec<Frame> = (0..rng.gen_range(1usize..6))
            .map(|_| sample_frame(&mut rng))
            .collect();
        let bytes = coalesce(&frames);
        let cuts: Vec<usize> = (1..bytes.len()).collect();
        prop_assert_eq!(decode_chunked(&bytes, &cuts), frames);
    }

    /// Draining mid-stream never yields a frame early: after any prefix,
    /// the frames out so far are exactly the fully-contained ones.
    #[test]
    fn prefix_yields_exactly_contained_frames(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let frames: Vec<Frame> = (0..rng.gen_range(1usize..8))
            .map(|_| sample_frame(&mut rng))
            .collect();
        let bytes = coalesce(&frames);
        // Frame end offsets in the coalesced stream.
        let mut ends = Vec::new();
        {
            let mut off = 0;
            for f in &frames {
                let mut one = Vec::new();
                encode_frame(f, &mut one);
                off += one.len();
                ends.push(off);
            }
        }
        let cut = rng.gen_range(0usize..bytes.len() + 1);
        let mut fb = FrameBuffer::with_capacity(64);
        fb.extend(&bytes[..cut]);
        let mut out = Vec::new();
        fb.drain_frames(&mut out).expect("prefix of a valid stream");
        let contained = ends.iter().filter(|&&e| e <= cut).count();
        prop_assert_eq!(out.len(), contained, "cut at {} of {}", cut, bytes.len());
        prop_assert_eq!(&out[..], &frames[..contained]);
    }
}
