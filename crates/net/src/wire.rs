//! Length-prefixed binary wire codec for the Cx protocol.
//!
//! Frame layout (DESIGN.md §9):
//!
//! ```text
//! [u32 LE length][u8 version][u8 tag][body]
//! ```
//!
//! `length` counts everything after the prefix (version + tag + body).
//! `version` is [`WIRE_VERSION`]; a peer speaking a different version is
//! rejected with [`WireError::BadVersion`] rather than misparsed. `tag`
//! selects the frame: tags `0..=19` are protocol [`Payload`] variants in
//! declaration order ([`Payload::wire_tag`]), tags `240..=246` are the
//! runtime control plane (handshake, peer gossip, quiesce/probe/stop).
//!
//! The decoder is total: arbitrary bytes yield a typed [`WireError`], never
//! a panic and never an unbounded allocation (every vector length is checked
//! against the bytes actually remaining in the frame before reserving).
//! Integers are little-endian throughout; `Option` is a one-byte flag;
//! vectors are `u32` counts.

use cx_protocol::Endpoint;
use cx_types::{
    FileKind, FsOp, Hint, InodeNo, Name, ObjectId, OpId, OpOutcome, OpPlan, Payload, ProcId, Role,
    ServerId, SubOp, Verdict,
};
use std::fmt;
use std::io::{self, Read, Write};

use crate::NodeId;

/// Current wire protocol version.
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on a single frame's post-prefix length. Generous (a batched
/// commitment over the whole lazy queue is a few hundred KiB at most) while
/// still rejecting hostile length prefixes before any allocation happens.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

// Control-plane frame tags; payload frames use `Payload::wire_tag()` (0..=19).
const TAG_HELLO: u8 = 240;
const TAG_PEERS: u8 = 241;
const TAG_QUIESCE: u8 = 242;
const TAG_PROBE: u8 = 243;
const TAG_PROBE_RESP: u8 = 244;
const TAG_STOP: u8 = 245;
const TAG_STOP_RESP: u8 = 246;

/// Everything that travels over a `cx-net` socket.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A protocol message. `sent_ns` is the sender's clock (nanoseconds
    /// since the run epoch) so the receiver can record one-way flow arcs.
    Msg {
        sent_ns: u64,
        from: Endpoint,
        to: Endpoint,
        payload: Payload,
    },
    /// First frame on every connection: who is dialing, and on which port
    /// the dialer's own listener accepts dial-backs.
    Hello { node: NodeId, listen_port: u16 },
    /// Coordinator → server gossip: the listen addresses of every server,
    /// so multi-process servers can dial each other without a rendezvous
    /// service.
    Peers { servers: Vec<(u32, String)> },
    /// Coordinator asks a server to flush batched commitments (the
    /// drain protocol's first step).
    Quiesce,
    /// Coordinator asks: are you quiesced? Token echoes back in the reply.
    /// `t0_ns` is the sender's clock at send time (nanoseconds since its
    /// run epoch); its echo in [`Frame::ProbeResp`] turns every quiesce
    /// probe into an NTP-style RTT/clock-offset sample for free.
    Probe { token: u64, t0_ns: u64 },
    ProbeResp {
        token: u64,
        quiesced: bool,
        /// The probe's `t0_ns`, echoed verbatim (the prober's own clock).
        echo_t0_ns: u64,
        /// The responder's clock when it built the reply — the `t1` of the
        /// offset estimate `t1 - (t0 + t3) / 2`.
        remote_ns: u64,
    },
    /// Coordinator asks the server to stop and ship its final state.
    Stop,
    /// Server's terminal reply: engine stats as JSON plus a binary snapshot
    /// of the metadata store for the global consistency check.
    StopResp {
        stats_json: Vec<u8>,
        /// `(ino, kind, nlink)` rows; kind 0 = regular, 1 = directory.
        inodes: Vec<(u64, u8, u32)>,
        /// `(parent, name, child)` rows.
        dentries: Vec<(u64, u64, u64)>,
    },
}

/// Typed decode failure. The decoder returns these for any malformed input;
/// it never panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the announced frame/field length.
    Truncated,
    /// Version byte differs from [`WIRE_VERSION`].
    BadVersion(u8),
    /// Frame tag is neither a payload tag nor a control tag.
    UnknownTag(u8),
    /// Length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// A vector/string count is impossible for the bytes remaining.
    BadLength,
    /// An enum discriminant byte is out of range for `what`.
    UnknownEnum { what: &'static str, value: u8 },
    /// Frame body has leftover bytes after a complete decode.
    Trailing(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadVersion(v) => {
                write!(f, "wire version {v} (expected {WIRE_VERSION})")
            }
            WireError::UnknownTag(t) => write!(f, "unknown frame tag {t}"),
            WireError::Oversized(n) => {
                write!(f, "frame length {n} exceeds max {MAX_FRAME_LEN}")
            }
            WireError::BadLength => write!(f, "impossible collection length"),
            WireError::UnknownEnum { what, value } => {
                write!(f, "unknown {what} discriminant {value}")
            }
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after frame body"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------- encoding

struct Enc<'a> {
    out: &'a mut Vec<u8>,
}

impl Enc<'_> {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn len(&mut self, n: usize) {
        debug_assert!(n <= u32::MAX as usize);
        self.u32(n as u32);
    }

    fn op_id(&mut self, id: OpId) {
        self.u32(id.proc.client.0);
        self.u32(id.proc.process.0);
        self.u64(id.seq);
    }
    fn op_ids(&mut self, ids: &[OpId]) {
        self.len(ids.len());
        for &id in ids {
            self.op_id(id);
        }
    }
    fn verdict(&mut self, v: Verdict) {
        self.u8(v.is_yes() as u8);
    }
    fn role(&mut self, r: Role) {
        self.u8(match r {
            Role::Coordinator => 0,
            Role::Participant => 1,
        });
    }
    fn file_kind(&mut self, k: FileKind) {
        self.u8(match k {
            FileKind::Regular => 0,
            FileKind::Directory => 1,
        });
    }
    fn outcome(&mut self, o: OpOutcome) {
        self.u8(match o {
            OpOutcome::Applied => 0,
            OpOutcome::Failed => 1,
        });
    }
    fn object_id(&mut self, o: ObjectId) {
        match o {
            ObjectId::Inode(ino) => {
                self.u8(0);
                self.u64(ino.0);
            }
            ObjectId::Dentry(dir, name) => {
                self.u8(1);
                self.u64(dir.0);
                self.u64(name.0);
            }
        }
    }
    fn subop(&mut self, s: SubOp) {
        match s {
            SubOp::InsertEntry {
                parent,
                name,
                child,
                kind,
            } => {
                self.u8(0);
                self.u64(parent.0);
                self.u64(name.0);
                self.u64(child.0);
                self.file_kind(kind);
            }
            SubOp::RemoveEntry {
                parent,
                name,
                child,
            } => {
                self.u8(1);
                self.u64(parent.0);
                self.u64(name.0);
                self.u64(child.0);
            }
            SubOp::CreateInode { ino, kind } => {
                self.u8(2);
                self.u64(ino.0);
                self.file_kind(kind);
            }
            SubOp::ReleaseInode { ino } => {
                self.u8(3);
                self.u64(ino.0);
            }
            SubOp::IncNlink { ino } => {
                self.u8(4);
                self.u64(ino.0);
            }
            SubOp::DecNlink { ino } => {
                self.u8(5);
                self.u64(ino.0);
            }
            SubOp::ReadInode { ino } => {
                self.u8(6);
                self.u64(ino.0);
            }
            SubOp::ReadEntry { parent, name } => {
                self.u8(7);
                self.u64(parent.0);
                self.u64(name.0);
            }
            SubOp::ReadDir { dir } => {
                self.u8(8);
                self.u64(dir.0);
            }
            SubOp::TouchInode { ino } => {
                self.u8(9);
                self.u64(ino.0);
            }
        }
    }
    fn opt_subop(&mut self, s: &Option<SubOp>) {
        match s {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.subop(*s);
            }
        }
    }
    fn fs_op(&mut self, op: FsOp) {
        match op {
            FsOp::Create { parent, name, ino } => {
                self.u8(0);
                self.u64(parent.0);
                self.u64(name.0);
                self.u64(ino.0);
            }
            FsOp::Remove { parent, name, ino } => {
                self.u8(1);
                self.u64(parent.0);
                self.u64(name.0);
                self.u64(ino.0);
            }
            FsOp::Mkdir { parent, name, ino } => {
                self.u8(2);
                self.u64(parent.0);
                self.u64(name.0);
                self.u64(ino.0);
            }
            FsOp::Rmdir { parent, name, ino } => {
                self.u8(3);
                self.u64(parent.0);
                self.u64(name.0);
                self.u64(ino.0);
            }
            FsOp::Link {
                parent,
                name,
                target,
            } => {
                self.u8(4);
                self.u64(parent.0);
                self.u64(name.0);
                self.u64(target.0);
            }
            FsOp::Unlink {
                parent,
                name,
                target,
            } => {
                self.u8(5);
                self.u64(parent.0);
                self.u64(name.0);
                self.u64(target.0);
            }
            FsOp::Stat { ino } => {
                self.u8(6);
                self.u64(ino.0);
            }
            FsOp::Lookup { parent, name } => {
                self.u8(7);
                self.u64(parent.0);
                self.u64(name.0);
            }
            FsOp::Getattr { ino } => {
                self.u8(8);
                self.u64(ino.0);
            }
            FsOp::Setattr { ino } => {
                self.u8(9);
                self.u64(ino.0);
            }
            FsOp::Readdir { dir } => {
                self.u8(10);
                self.u64(dir.0);
            }
            FsOp::Access { ino } => {
                self.u8(11);
                self.u64(ino.0);
            }
        }
    }
    fn plan(&mut self, p: &OpPlan) {
        self.fs_op(p.op);
        self.u32(p.coordinator.0);
        self.subop(p.coord_subop);
        match p.participant {
            None => self.u8(0),
            Some((sid, s)) => {
                self.u8(1);
                self.u32(sid.0);
                self.subop(s);
            }
        }
        self.opt_subop(&p.colocated);
    }
    fn endpoint(&mut self, e: Endpoint) {
        match e {
            Endpoint::Proc(p) => {
                self.u8(0);
                self.u32(p.client.0);
                self.u32(p.process.0);
            }
            Endpoint::Server(s) => {
                self.u8(1);
                self.u32(s.0);
            }
        }
    }
    fn node_id(&mut self, n: NodeId) {
        match n {
            NodeId::Server(s) => {
                self.u8(0);
                self.u32(s);
            }
            NodeId::ClientHost(c) => {
                self.u8(1);
                self.u32(c);
            }
        }
    }

    fn payload(&mut self, p: &Payload) {
        match p {
            Payload::SubOpReq {
                op_id,
                subop,
                role,
                peer,
                colocated,
            } => {
                self.op_id(*op_id);
                self.subop(*subop);
                self.role(*role);
                match peer {
                    None => self.u8(0),
                    Some(s) => {
                        self.u8(1);
                        self.u32(s.0);
                    }
                }
                self.opt_subop(colocated);
            }
            Payload::SubOpResp {
                op_id,
                verdict,
                hint,
            } => {
                self.op_id(*op_id);
                self.verdict(*verdict);
                self.op_ids(&hint.0);
            }
            Payload::LCom { op_id }
            | Payload::AllNo { op_id }
            | Payload::Committed { op_id }
            | Payload::ClearResp { op_id } => self.op_id(*op_id),
            Payload::Vote { ops, order_after } => {
                self.op_ids(ops);
                self.op_ids(order_after);
            }
            Payload::VoteResult { results } => {
                self.len(results.len());
                for (id, v) in results {
                    self.op_id(*id);
                    self.verdict(*v);
                }
            }
            Payload::CommitDecision { commits, aborts } => {
                self.op_ids(commits);
                self.op_ids(aborts);
            }
            Payload::Ack { ops } | Payload::QueryOutcome { ops } => self.op_ids(ops),
            Payload::CommitmentReq { pending, sweep } => {
                self.op_id(*pending);
                self.bool(*sweep);
            }
            Payload::OpReq { op_id, plan } => {
                self.op_id(*op_id);
                self.plan(plan);
            }
            Payload::OpResp { op_id, outcome } => {
                self.op_id(*op_id);
                self.outcome(*outcome);
            }
            Payload::VoteExec { op_id, subop } | Payload::Clear { op_id, subop } => {
                self.op_id(*op_id);
                self.subop(*subop);
            }
            Payload::Migrate { op_id, objs } | Payload::MigrateResp { op_id, objs } => {
                self.op_id(*op_id);
                self.len(objs.len());
                for &o in objs {
                    self.object_id(o);
                }
            }
            Payload::MigrateBack {
                op_id,
                objs,
                install,
            } => {
                self.op_id(*op_id);
                self.len(objs.len());
                for &o in objs {
                    self.object_id(o);
                }
                self.opt_subop(install);
            }
            Payload::MigrateBackAck { op_id, verdict } => {
                self.op_id(*op_id);
                self.verdict(*verdict);
            }
        }
    }
}

/// Append one complete frame (length prefix included) to `buf`.
pub fn encode_frame(frame: &Frame, buf: &mut Vec<u8>) {
    let len_at = buf.len();
    buf.extend_from_slice(&[0u8; 4]); // patched below
    let mut e = Enc { out: buf };
    e.u8(WIRE_VERSION);
    match frame {
        Frame::Msg {
            sent_ns,
            from,
            to,
            payload,
        } => {
            e.u8(payload.wire_tag());
            e.u64(*sent_ns);
            e.endpoint(*from);
            e.endpoint(*to);
            e.payload(payload);
        }
        Frame::Hello { node, listen_port } => {
            e.u8(TAG_HELLO);
            e.node_id(*node);
            e.u16(*listen_port);
        }
        Frame::Peers { servers } => {
            e.u8(TAG_PEERS);
            e.len(servers.len());
            for (sid, addr) in servers {
                e.u32(*sid);
                let bytes = addr.as_bytes();
                debug_assert!(bytes.len() <= u16::MAX as usize);
                e.u16(bytes.len() as u16);
                e.out.extend_from_slice(bytes);
            }
        }
        Frame::Quiesce => e.u8(TAG_QUIESCE),
        Frame::Probe { token, t0_ns } => {
            e.u8(TAG_PROBE);
            e.u64(*token);
            e.u64(*t0_ns);
        }
        Frame::ProbeResp {
            token,
            quiesced,
            echo_t0_ns,
            remote_ns,
        } => {
            e.u8(TAG_PROBE_RESP);
            e.u64(*token);
            e.bool(*quiesced);
            e.u64(*echo_t0_ns);
            e.u64(*remote_ns);
        }
        Frame::Stop => e.u8(TAG_STOP),
        Frame::StopResp {
            stats_json,
            inodes,
            dentries,
        } => {
            e.u8(TAG_STOP_RESP);
            e.len(stats_json.len());
            e.out.extend_from_slice(stats_json);
            e.len(inodes.len());
            for &(ino, kind, nlink) in inodes {
                e.u64(ino);
                e.u8(kind);
                e.u32(nlink);
            }
            e.len(dentries.len());
            for &(parent, name, child) in dentries {
                e.u64(parent);
                e.u64(name);
                e.u64(child);
            }
        }
    }
    let body_len = (buf.len() - len_at - 4) as u32;
    buf[len_at..len_at + 4].copy_from_slice(&body_len.to_le_bytes());
}

/// Encode into a fresh buffer (convenience for tests and one-shot sends).
pub fn encode_to_vec(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    encode_frame(frame, &mut buf);
    buf
}

// ---------------------------------------------------------------- decoding

struct Cur<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            value => Err(WireError::UnknownEnum {
                what: "bool",
                value,
            }),
        }
    }
    /// Collection count, validated against the bytes actually remaining
    /// (each element needs at least `min_elem` bytes) so a hostile count
    /// can never cause an oversized allocation.
    fn count(&mut self, min_elem: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > self.remaining() / min_elem.max(1) {
            return Err(WireError::BadLength);
        }
        Ok(n)
    }

    fn op_id(&mut self) -> Result<OpId, WireError> {
        let client = self.u32()?;
        let process = self.u32()?;
        let seq = self.u64()?;
        Ok(OpId::new(ProcId::new(client, process), seq))
    }
    fn op_ids(&mut self) -> Result<Vec<OpId>, WireError> {
        let n = self.count(16)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.op_id()?);
        }
        Ok(v)
    }
    fn verdict(&mut self) -> Result<Verdict, WireError> {
        match self.u8()? {
            0 => Ok(Verdict::No),
            1 => Ok(Verdict::Yes),
            value => Err(WireError::UnknownEnum {
                what: "verdict",
                value,
            }),
        }
    }
    fn role(&mut self) -> Result<Role, WireError> {
        match self.u8()? {
            0 => Ok(Role::Coordinator),
            1 => Ok(Role::Participant),
            value => Err(WireError::UnknownEnum {
                what: "role",
                value,
            }),
        }
    }
    fn file_kind(&mut self) -> Result<FileKind, WireError> {
        match self.u8()? {
            0 => Ok(FileKind::Regular),
            1 => Ok(FileKind::Directory),
            value => Err(WireError::UnknownEnum {
                what: "file kind",
                value,
            }),
        }
    }
    fn outcome(&mut self) -> Result<OpOutcome, WireError> {
        match self.u8()? {
            0 => Ok(OpOutcome::Applied),
            1 => Ok(OpOutcome::Failed),
            value => Err(WireError::UnknownEnum {
                what: "op outcome",
                value,
            }),
        }
    }
    fn object_id(&mut self) -> Result<ObjectId, WireError> {
        match self.u8()? {
            0 => Ok(ObjectId::Inode(InodeNo(self.u64()?))),
            1 => Ok(ObjectId::Dentry(InodeNo(self.u64()?), Name(self.u64()?))),
            value => Err(WireError::UnknownEnum {
                what: "object id",
                value,
            }),
        }
    }
    fn object_ids(&mut self) -> Result<Vec<ObjectId>, WireError> {
        let n = self.count(9)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.object_id()?);
        }
        Ok(v)
    }
    fn subop(&mut self) -> Result<SubOp, WireError> {
        Ok(match self.u8()? {
            0 => SubOp::InsertEntry {
                parent: InodeNo(self.u64()?),
                name: Name(self.u64()?),
                child: InodeNo(self.u64()?),
                kind: self.file_kind()?,
            },
            1 => SubOp::RemoveEntry {
                parent: InodeNo(self.u64()?),
                name: Name(self.u64()?),
                child: InodeNo(self.u64()?),
            },
            2 => SubOp::CreateInode {
                ino: InodeNo(self.u64()?),
                kind: self.file_kind()?,
            },
            3 => SubOp::ReleaseInode {
                ino: InodeNo(self.u64()?),
            },
            4 => SubOp::IncNlink {
                ino: InodeNo(self.u64()?),
            },
            5 => SubOp::DecNlink {
                ino: InodeNo(self.u64()?),
            },
            6 => SubOp::ReadInode {
                ino: InodeNo(self.u64()?),
            },
            7 => SubOp::ReadEntry {
                parent: InodeNo(self.u64()?),
                name: Name(self.u64()?),
            },
            8 => SubOp::ReadDir {
                dir: InodeNo(self.u64()?),
            },
            9 => SubOp::TouchInode {
                ino: InodeNo(self.u64()?),
            },
            value => {
                return Err(WireError::UnknownEnum {
                    what: "sub-op",
                    value,
                })
            }
        })
    }
    fn opt_subop(&mut self) -> Result<Option<SubOp>, WireError> {
        Ok(if self.bool()? {
            Some(self.subop()?)
        } else {
            None
        })
    }
    fn fs_op(&mut self) -> Result<FsOp, WireError> {
        Ok(match self.u8()? {
            0 => FsOp::Create {
                parent: InodeNo(self.u64()?),
                name: Name(self.u64()?),
                ino: InodeNo(self.u64()?),
            },
            1 => FsOp::Remove {
                parent: InodeNo(self.u64()?),
                name: Name(self.u64()?),
                ino: InodeNo(self.u64()?),
            },
            2 => FsOp::Mkdir {
                parent: InodeNo(self.u64()?),
                name: Name(self.u64()?),
                ino: InodeNo(self.u64()?),
            },
            3 => FsOp::Rmdir {
                parent: InodeNo(self.u64()?),
                name: Name(self.u64()?),
                ino: InodeNo(self.u64()?),
            },
            4 => FsOp::Link {
                parent: InodeNo(self.u64()?),
                name: Name(self.u64()?),
                target: InodeNo(self.u64()?),
            },
            5 => FsOp::Unlink {
                parent: InodeNo(self.u64()?),
                name: Name(self.u64()?),
                target: InodeNo(self.u64()?),
            },
            6 => FsOp::Stat {
                ino: InodeNo(self.u64()?),
            },
            7 => FsOp::Lookup {
                parent: InodeNo(self.u64()?),
                name: Name(self.u64()?),
            },
            8 => FsOp::Getattr {
                ino: InodeNo(self.u64()?),
            },
            9 => FsOp::Setattr {
                ino: InodeNo(self.u64()?),
            },
            10 => FsOp::Readdir {
                dir: InodeNo(self.u64()?),
            },
            11 => FsOp::Access {
                ino: InodeNo(self.u64()?),
            },
            value => {
                return Err(WireError::UnknownEnum {
                    what: "fs op",
                    value,
                })
            }
        })
    }
    fn plan(&mut self) -> Result<OpPlan, WireError> {
        let op = self.fs_op()?;
        let coordinator = ServerId(self.u32()?);
        let coord_subop = self.subop()?;
        let participant = if self.bool()? {
            Some((ServerId(self.u32()?), self.subop()?))
        } else {
            None
        };
        let colocated = self.opt_subop()?;
        Ok(OpPlan {
            op,
            coordinator,
            coord_subop,
            participant,
            colocated,
        })
    }
    fn endpoint(&mut self) -> Result<Endpoint, WireError> {
        match self.u8()? {
            0 => {
                let client = self.u32()?;
                let process = self.u32()?;
                Ok(Endpoint::Proc(ProcId::new(client, process)))
            }
            1 => Ok(Endpoint::Server(ServerId(self.u32()?))),
            value => Err(WireError::UnknownEnum {
                what: "endpoint",
                value,
            }),
        }
    }
    fn node_id(&mut self) -> Result<NodeId, WireError> {
        match self.u8()? {
            0 => Ok(NodeId::Server(self.u32()?)),
            1 => Ok(NodeId::ClientHost(self.u32()?)),
            value => Err(WireError::UnknownEnum {
                what: "node id",
                value,
            }),
        }
    }

    fn payload(&mut self, tag: u8) -> Result<Payload, WireError> {
        Ok(match tag {
            0 => Payload::SubOpReq {
                op_id: self.op_id()?,
                subop: self.subop()?,
                role: self.role()?,
                peer: if self.bool()? {
                    Some(ServerId(self.u32()?))
                } else {
                    None
                },
                colocated: self.opt_subop()?,
            },
            1 => Payload::SubOpResp {
                op_id: self.op_id()?,
                verdict: self.verdict()?,
                hint: Hint(self.op_ids()?),
            },
            2 => Payload::LCom {
                op_id: self.op_id()?,
            },
            3 => Payload::AllNo {
                op_id: self.op_id()?,
            },
            4 => Payload::Committed {
                op_id: self.op_id()?,
            },
            5 => Payload::Vote {
                ops: self.op_ids()?,
                order_after: self.op_ids()?,
            },
            6 => {
                let n = self.count(17)?;
                let mut results = Vec::with_capacity(n);
                for _ in 0..n {
                    let id = self.op_id()?;
                    let v = self.verdict()?;
                    results.push((id, v));
                }
                Payload::VoteResult { results }
            }
            7 => Payload::CommitDecision {
                commits: self.op_ids()?,
                aborts: self.op_ids()?,
            },
            8 => Payload::Ack {
                ops: self.op_ids()?,
            },
            9 => Payload::CommitmentReq {
                pending: self.op_id()?,
                sweep: self.bool()?,
            },
            10 => Payload::QueryOutcome {
                ops: self.op_ids()?,
            },
            11 => Payload::OpReq {
                op_id: self.op_id()?,
                plan: self.plan()?,
            },
            12 => Payload::OpResp {
                op_id: self.op_id()?,
                outcome: self.outcome()?,
            },
            13 => Payload::VoteExec {
                op_id: self.op_id()?,
                subop: self.subop()?,
            },
            14 => Payload::Clear {
                op_id: self.op_id()?,
                subop: self.subop()?,
            },
            15 => Payload::ClearResp {
                op_id: self.op_id()?,
            },
            16 => Payload::Migrate {
                op_id: self.op_id()?,
                objs: self.object_ids()?,
            },
            17 => Payload::MigrateResp {
                op_id: self.op_id()?,
                objs: self.object_ids()?,
            },
            18 => Payload::MigrateBack {
                op_id: self.op_id()?,
                objs: self.object_ids()?,
                install: self.opt_subop()?,
            },
            19 => Payload::MigrateBackAck {
                op_id: self.op_id()?,
                verdict: self.verdict()?,
            },
            _ => return Err(WireError::UnknownTag(tag)),
        })
    }
}

/// Decode the post-prefix body (version + tag + fields) of one frame.
fn decode_body(body: &[u8]) -> Result<Frame, WireError> {
    let mut c = Cur { b: body, pos: 0 };
    let version = c.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let tag = c.u8()?;
    let frame = match tag {
        t if t < Payload::WIRE_TAG_COUNT => {
            let sent_ns = c.u64()?;
            let from = c.endpoint()?;
            let to = c.endpoint()?;
            let payload = c.payload(t)?;
            Frame::Msg {
                sent_ns,
                from,
                to,
                payload,
            }
        }
        TAG_HELLO => Frame::Hello {
            node: c.node_id()?,
            listen_port: c.u16()?,
        },
        TAG_PEERS => {
            let n = c.count(6)?; // u32 id + u16 addr length minimum
            let mut servers = Vec::with_capacity(n);
            for _ in 0..n {
                let sid = c.u32()?;
                let alen = c.u16()? as usize;
                let bytes = c.take(alen)?;
                let addr = std::str::from_utf8(bytes)
                    .map_err(|_| WireError::BadLength)?
                    .to_owned();
                servers.push((sid, addr));
            }
            Frame::Peers { servers }
        }
        TAG_QUIESCE => Frame::Quiesce,
        TAG_PROBE => Frame::Probe {
            token: c.u64()?,
            t0_ns: c.u64()?,
        },
        TAG_PROBE_RESP => Frame::ProbeResp {
            token: c.u64()?,
            quiesced: c.bool()?,
            echo_t0_ns: c.u64()?,
            remote_ns: c.u64()?,
        },
        TAG_STOP => Frame::Stop,
        TAG_STOP_RESP => {
            let jlen = c.count(1)?;
            let stats_json = c.take(jlen)?.to_vec();
            let ni = c.count(13)?;
            let mut inodes = Vec::with_capacity(ni);
            for _ in 0..ni {
                let ino = c.u64()?;
                let kind = c.u8()?;
                let nlink = c.u32()?;
                inodes.push((ino, kind, nlink));
            }
            let nd = c.count(24)?;
            let mut dentries = Vec::with_capacity(nd);
            for _ in 0..nd {
                let parent = c.u64()?;
                let name = c.u64()?;
                let child = c.u64()?;
                dentries.push((parent, name, child));
            }
            Frame::StopResp {
                stats_json,
                inodes,
                dentries,
            }
        }
        t => return Err(WireError::UnknownTag(t)),
    };
    if c.remaining() != 0 {
        return Err(WireError::Trailing(c.remaining()));
    }
    Ok(frame)
}

/// Decode one frame from the front of `bytes`. Returns the frame and the
/// total number of bytes consumed (length prefix included).
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize), WireError> {
    if bytes.len() < 4 {
        return Err(WireError::Truncated);
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().unwrap());
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized(len));
    }
    let len = len as usize;
    if bytes.len() < 4 + len {
        return Err(WireError::Truncated);
    }
    let frame = decode_body(&bytes[4..4 + len])?;
    Ok((frame, 4 + len))
}

/// Read exactly one frame from a blocking stream. `Ok(None)` means the peer
/// closed the connection cleanly at a frame boundary; a close mid-frame is
/// an `UnexpectedEof` error, and malformed bytes surface as `InvalidData`
/// wrapping the [`WireError`] text.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Frame>> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame length prefix",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::Oversized(len).to_string(),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    decode_body(&body)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Write one frame to a blocking stream (no flush; the caller decides when
/// to flush if the stream is buffered).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame, scratch: &mut Vec<u8>) -> io::Result<()> {
    scratch.clear();
    encode_frame(frame, scratch);
    w.write_all(scratch)
}

/// Incremental decoder over a reusable buffer: bytes go in at arbitrary
/// boundaries (whatever each `read` returned), complete frames come out.
/// A coalesced stream split anywhere — even mid-length-prefix — decodes to
/// the identical frame sequence as frame-at-a-time decoding, because the
/// buffer only ever commits a frame once all of its announced bytes are
/// present.
///
/// The buffer is reused across fills: consumed bytes are compacted to the
/// front before each refill, and each byte of capacity is zero-filled at
/// most once per connection, never per `read`. So the steady state neither
/// allocates nor zeroes, and the buffer grows only when a single frame
/// exceeds the current capacity.
#[derive(Debug)]
pub struct FrameBuffer {
    /// Initialised bytes. The length only grows; `end..` is stale room
    /// the next `read` writes straight into.
    buf: Vec<u8>,
    /// Offset of the first unconsumed byte in `buf`.
    start: usize,
    /// One past the last filled byte in `buf`.
    end: usize,
}

impl FrameBuffer {
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap.max(8)),
            start: 0,
            end: 0,
        }
    }

    /// Unconsumed bytes currently buffered (a partial frame tail, usually).
    pub fn pending(&self) -> usize {
        self.end - self.start
    }

    /// Drop already-consumed bytes, moving any partial tail to the front.
    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }

    /// Append bytes at an arbitrary split point (test/fuzz entry; the
    /// socket path uses [`FrameBuffer::fill_from`]).
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        let end = self.end + bytes.len();
        if end > self.buf.len() {
            self.buf.resize(end, 0);
        }
        self.buf[self.end..end].copy_from_slice(bytes);
        self.end = end;
    }

    /// One `read` from a blocking stream into the buffer tail. Returns the
    /// byte count (`0` = clean EOF); on error the buffered bytes are left
    /// as they were. The read window is the initialised room past the
    /// filled end. Only when that room is under `min_window` is it grown
    /// (and zeroed, once) to the whole capacity or `min_window`, whichever
    /// is larger, so a large frame can always make progress.
    pub fn fill_from<R: Read>(&mut self, r: &mut R, min_window: usize) -> io::Result<usize> {
        self.compact();
        let min_end = self.end + min_window.max(1);
        if self.buf.len() < min_end {
            self.buf.resize(min_end.max(self.buf.capacity()), 0);
        }
        loop {
            match r.read(&mut self.buf[self.end..]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Decode the next complete frame, if one is fully buffered.
    /// `Ok(None)` means more bytes are needed; malformed bytes surface as
    /// the same typed [`WireError`]s as [`decode_frame`]. The length
    /// prefix is checked here rather than delegated, so a `Truncated`
    /// from *inside* a fully-present body (an announced length that lies
    /// about its fields) is reported as the error it is instead of
    /// waiting forever for bytes that cannot help.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let avail = &self.buf[self.start..self.end];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes checked"));
        if len > MAX_FRAME_LEN {
            return Err(WireError::Oversized(len));
        }
        if avail.len() < 4 + len as usize {
            return Ok(None);
        }
        let (frame, used) = decode_frame(avail)?;
        self.start += used;
        Ok(Some(frame))
    }

    /// Decode every complete frame currently buffered into `out`.
    /// Returns the number of frames appended; stops (with the typed error)
    /// at the first malformed frame.
    pub fn drain_frames(&mut self, out: &mut Vec<Frame>) -> Result<usize, WireError> {
        let mut n = 0;
        while let Some(f) = self.next_frame()? {
            out.push(f);
            n += 1;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let bytes = encode_to_vec(&f);
        let (back, used) = decode_frame(&bytes).expect("decode");
        assert_eq!(used, bytes.len());
        assert_eq!(back, f);
    }

    #[test]
    fn control_frames_roundtrip() {
        roundtrip(Frame::Hello {
            node: NodeId::Server(7),
            listen_port: 9999,
        });
        roundtrip(Frame::Hello {
            node: NodeId::ClientHost(0),
            listen_port: 0,
        });
        roundtrip(Frame::Peers {
            servers: vec![(0, "127.0.0.1:4000".into()), (1, "127.0.0.1:4001".into())],
        });
        roundtrip(Frame::Quiesce);
        roundtrip(Frame::Probe {
            token: 42,
            t0_ns: 123_456_789,
        });
        roundtrip(Frame::ProbeResp {
            token: 42,
            quiesced: true,
            echo_t0_ns: 123_456_789,
            remote_ns: 987_654_321,
        });
        roundtrip(Frame::Stop);
        roundtrip(Frame::StopResp {
            stats_json: b"{\"x\":1}".to_vec(),
            inodes: vec![(1, 1, 2), (9, 0, 1)],
            dentries: vec![(1, 77, 9)],
        });
    }

    #[test]
    fn short_prefix_is_truncated() {
        assert_eq!(decode_frame(&[1, 0]), Err(WireError::Truncated));
    }

    #[test]
    fn oversized_prefix_is_rejected_before_alloc() {
        let mut bytes = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 8]);
        assert_eq!(
            decode_frame(&bytes),
            Err(WireError::Oversized(MAX_FRAME_LEN + 1))
        );
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut bytes = encode_to_vec(&Frame::Quiesce);
        bytes[4] = 99;
        assert_eq!(decode_frame(&bytes), Err(WireError::BadVersion(99)));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut bytes = encode_to_vec(&Frame::Quiesce);
        bytes[5] = 200; // between payload and control ranges
        assert_eq!(decode_frame(&bytes), Err(WireError::UnknownTag(200)));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_to_vec(&Frame::Probe { token: 1, t0_ns: 0 });
        // Grow the body by one byte and patch the prefix accordingly.
        bytes.push(0xAB);
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(decode_frame(&bytes), Err(WireError::Trailing(1)));
    }

    #[test]
    fn hostile_vec_count_is_bad_length_not_alloc() {
        // A Vote frame whose ops count claims u32::MAX entries.
        let f = Frame::Msg {
            sent_ns: 0,
            from: Endpoint::Server(ServerId(0)),
            to: Endpoint::Server(ServerId(1)),
            payload: Payload::Vote {
                ops: vec![],
                order_after: vec![],
            },
        };
        let mut bytes = encode_to_vec(&f);
        // ops count lives right after version+tag+sent_ns+from+to.
        let count_at = 4 + 1 + 1 + 8 + 5 + 5;
        bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_frame(&bytes), Err(WireError::BadLength));
    }

    /// Hands out `chunk` bytes of `data` per `read` and scribbles `0xFF`
    /// over the rest of the window it was lent, recording whether the
    /// window's last byte still held an earlier scribble (i.e. was not
    /// zeroed again since).
    struct Scribbler<'a> {
        data: &'a [u8],
        chunk: usize,
        stale: Vec<bool>,
    }

    impl Read for Scribbler<'_> {
        fn read(&mut self, w: &mut [u8]) -> io::Result<usize> {
            self.stale.push(w.last() == Some(&0xFF));
            let n = self.chunk.min(self.data.len()).min(w.len());
            w[..n].copy_from_slice(&self.data[..n]);
            w[n..].fill(0xFF);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn fill_from_zeroes_the_window_once() {
        let mut bytes = Vec::new();
        for token in 0..200 {
            encode_frame(&Frame::Probe { token, t0_ns: 0 }, &mut bytes);
        }
        let mut r = Scribbler {
            data: &bytes,
            chunk: 100,
            stale: Vec::new(),
        };
        let mut fb = FrameBuffer::with_capacity(4096);
        let mut out = Vec::new();
        while fb.fill_from(&mut r, 64).expect("in-memory read") > 0 {
            fb.drain_frames(&mut out).expect("valid stream");
        }
        assert_eq!(out.len(), 200);
        assert_eq!(fb.pending(), 0);
        // The first fill initialised the whole capacity and nothing since
        // grew or re-zeroed it: every later window still held the scribble.
        assert_eq!(fb.buf.len(), fb.buf.capacity());
        assert!(!r.stale[0]);
        assert!(
            r.stale[1..].iter().all(|&s| s),
            "a later read was re-zeroed"
        );
    }

    #[test]
    fn stream_read_frame_handles_clean_close_and_mid_frame_eof() {
        let bytes = encode_to_vec(&Frame::Probe { token: 9, t0_ns: 0 });
        // Clean close: empty stream.
        let mut empty: &[u8] = &[];
        assert!(read_frame(&mut empty).unwrap().is_none());
        // One whole frame then clean close.
        let mut whole: &[u8] = &bytes;
        assert_eq!(
            read_frame(&mut whole).unwrap(),
            Some(Frame::Probe { token: 9, t0_ns: 0 })
        );
        assert!(read_frame(&mut whole).unwrap().is_none());
        // Truncated mid-frame.
        let mut cut: &[u8] = &bytes[..bytes.len() - 1];
        assert!(read_frame(&mut cut).is_err());
    }
}
