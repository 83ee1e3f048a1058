//! Setting a cell up, driving its client sessions, and checking what
//! they read.
//!
//! Each session is a closed loop on its own thread. The own-file
//! workloads send one blocking `read`/`write` at a time; the pipelined
//! workload keeps a window of requests in flight with `submit`/`wait`.
//! Latency is taken at the client around each call, in nanoseconds, into
//! one fixed-footprint histogram per operation type per session.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use deceit::core::{AtomicHistogram, FileParams, HistCounts, ProtocolHost};
use deceit::nfs::{FileHandle, NfsReply, NfsRequest, NfsServer, NfsService};
use deceit::runtime::{ClusterRuntime, RuntimeClient};

use crate::workload::{
    decode, encode, Kind, Op, Stamp, Workload, BLOCK, BLOCKS, FILE_BYTES, REPLICAS, SESSIONS,
    SETUP_SESSION,
};

/// Checker failures kept for the report; later ones are only counted.
const KEPT_ERRORS: usize = 10;

/// An engine the benchmark can host and look inside (outside timed
/// windows) for the modelled network and disk counters.
pub trait Hosted: NfsService + ProtocolHost + Send + Sync + 'static {
    /// The NFS server doing the work.
    fn nfs(&self) -> &NfsServer;
}

impl Hosted for NfsServer {
    fn nfs(&self) -> &NfsServer {
        self
    }
}

impl Hosted for crate::traced::TimedServer {
    fn nfs(&self) -> &NfsServer {
        &self.inner
    }
}

/// Creates the workload's files through their home servers, fills every
/// block with its seeded set-up contents, and settles the cell.
pub fn populate<S: Hosted>(
    rt: &ClusterRuntime<S>,
    w: Workload,
    seed: u64,
) -> Result<Vec<FileHandle>, String> {
    let servers = rt.server_ids().to_vec();
    let mut creators: Vec<RuntimeClient> = servers.iter().map(|&s| rt.client_homed(s)).collect();
    let root = creators[0].root();
    let mut contents = vec![0u8; FILE_BYTES];
    let mut files = Vec::with_capacity(w.files());
    for file in 0..w.files() {
        let c = &mut creators[w.file_home(file, servers.len())];
        let attr = c.create(root, &format!("bench-{file}"), 0o644).map_err(|e| e.to_string())?;
        c.set_file_params(attr.handle, FileParams::important(REPLICAS))
            .map_err(|e| e.to_string())?;
        for (block, out) in contents.chunks_exact_mut(BLOCK).enumerate() {
            let stamp =
                Stamp { file: file as u32, block: block as u32, session: SETUP_SESSION, seq: 0 };
            encode(seed, stamp, out);
        }
        c.write(attr.handle, 0, &contents).map_err(|e| e.to_string())?;
        files.push(attr.handle);
    }
    rt.settle();
    Ok(files)
}

/// What every session thread shares: the generator, the files, the
/// checker's view of what has been sent, and the client-side counters.
pub struct Shared {
    w: Workload,
    seed: u64,
    /// File handles, indexed like the workload's file set.
    pub files: Vec<FileHandle>,
    /// Per session: operations sent so far (a block stamped with a
    /// sequence number at or past this was never sent). Stored with
    /// `Release` before each send, loaded with `Acquire` by the checker,
    /// so a block the server returns is never newer than this count.
    sent: [AtomicU64; SESSIONS],
    /// Per session, per [`Kind`]: client-observed latency, nanoseconds.
    latency: [[AtomicHistogram; 2]; SESSIONS],
    /// Per session: operations completed.
    done: [AtomicU64; SESSIONS],
    /// Per session: operations that failed or timed out.
    failed: [AtomicU64; SESSIONS],
    /// Checker failures: total, and the first few messages.
    pub mismatches: AtomicU64,
    errors: Mutex<Vec<String>>,
    stop: AtomicBool,
}

/// One session: its client and what the final check needs to know about
/// its writes.
pub struct Session {
    client: RuntimeClient,
    index: usize,
    next_seq: u64,
    /// Per block (`file * BLOCKS + block`): the newest acknowledged
    /// write's sequence number.
    last_acked: Vec<Option<u64>>,
}

/// Client-side totals at one instant.
#[derive(Debug, Clone)]
pub struct ClientSnap {
    /// When it was taken.
    pub at: Instant,
    /// Completed operations, all sessions.
    pub done: u64,
    /// Failed operations, all sessions.
    pub failed: u64,
    /// Read latency, all sessions merged.
    pub read: HistCounts,
    /// Write latency, all sessions merged.
    pub write: HistCounts,
}

impl ClientSnap {
    /// Completed operations per second since `earlier`.
    pub fn rate_since(&self, earlier: &ClientSnap) -> f64 {
        (self.done - earlier.done) as f64 / (self.at - earlier.at).as_secs_f64()
    }
}

impl Shared {
    /// State for a fresh cell.
    pub fn new(w: Workload, seed: u64, files: Vec<FileHandle>) -> Self {
        Shared {
            w,
            seed,
            files,
            sent: Default::default(),
            latency: std::array::from_fn(|_| std::array::from_fn(|_| AtomicHistogram::new())),
            done: Default::default(),
            failed: Default::default(),
            mismatches: AtomicU64::new(0),
            errors: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        }
    }

    /// Opens the sessions, session `i` homed on server `i`.
    pub fn sessions<S: Hosted>(&self, rt: &ClusterRuntime<S>) -> Vec<Session> {
        (0..SESSIONS)
            .map(|index| Session {
                client: rt.client_homed(rt.server_ids()[index]),
                index,
                next_seq: 0,
                last_acked: vec![None; self.files.len() * BLOCKS],
            })
            .collect()
    }

    /// Client totals now.
    pub fn snapshot(&self) -> ClientSnap {
        let mut read = HistCounts::zero();
        let mut write = HistCounts::zero();
        for [r, w] in &self.latency {
            read.merge(&r.counts());
            write.merge(&w.counts());
        }
        let sum = |a: &[AtomicU64; SESSIONS]| a.iter().map(|x| x.load(Ordering::Relaxed)).sum();
        ClientSnap {
            at: Instant::now(),
            done: sum(&self.done),
            failed: sum(&self.failed),
            read,
            write,
        }
    }

    /// The first few checker failures.
    pub fn errors(&self) -> Vec<String> {
        self.errors.lock().map(|e| e.clone()).unwrap_or_default()
    }

    fn mismatch(&self, msg: String) {
        self.mismatches.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut errors) = self.errors.lock() {
            if errors.len() < KEPT_ERRORS {
                errors.push(msg);
            }
        }
    }

    /// Runs every session until `stop` is raised by `timer`, which gets
    /// the moment all sessions were released.
    pub fn run<T>(&self, sessions: &mut [Session], timer: impl FnOnce(Instant) -> T) -> T {
        self.stop.store(false, Ordering::Release);
        let start = Barrier::new(sessions.len() + 1);
        std::thread::scope(|scope| {
            let workers: Vec<_> = sessions
                .iter_mut()
                .map(|session| {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        self.drive(session);
                    })
                })
                .collect();
            start.wait();
            let out = timer(Instant::now());
            self.stop.store(true, Ordering::Release);
            for worker in workers {
                worker.join().expect("a session thread panicked");
            }
            out
        })
    }

    /// Runs every session for `d`.
    pub fn run_for(&self, sessions: &mut [Session], d: Duration) {
        self.run(sessions, |_| std::thread::sleep(d));
    }

    fn drive(&self, s: &mut Session) {
        let mut payload = vec![0u8; BLOCK];
        let mut inflight: VecDeque<(u64, Op, deceit::net::rpc::CallId, Instant)> = VecDeque::new();
        let depth = self.w.depth();
        loop {
            let running = !self.stop.load(Ordering::Acquire);
            if running && inflight.len() < depth {
                let (seq, op) = self.next(s);
                let fh = self.files[op.file];
                let req = match op.kind {
                    Kind::Read => NfsRequest::Read { fh, offset: op.offset(), count: BLOCK },
                    Kind::Write => {
                        self.stamp(s.index, seq, op, &mut payload);
                        NfsRequest::Write { fh, offset: op.offset(), data: payload.clone().into() }
                    }
                };
                let start = Instant::now();
                if depth == 1 {
                    // One blocking call: exactly what an application
                    // waiting on each request sees.
                    let reply = s.client.call(req);
                    self.complete(s, seq, op, start, reply.map_err(|e| e.to_string()));
                    continue;
                }
                match s.client.submit(req) {
                    Ok(call) => inflight.push_back((seq, op, call, start)),
                    Err(_) => {
                        self.failed[s.index].fetch_add(1, Ordering::Relaxed);
                    }
                }
                continue;
            }
            let Some((seq, op, call, start)) = inflight.pop_front() else { break };
            let reply = s.client.wait(call);
            self.complete(s, seq, op, start, reply.map_err(|e| e.to_string()));
        }
    }

    /// Draws the session's next operation and publishes it as sent.
    fn next(&self, s: &mut Session) -> (u64, Op) {
        let seq = s.next_seq;
        s.next_seq += 1;
        self.sent[s.index].store(s.next_seq, Ordering::Release);
        (seq, self.w.op(self.seed, s.index, seq))
    }

    fn stamp(&self, session: usize, seq: u64, op: Op, out: &mut [u8]) {
        let stamp =
            Stamp { file: op.file as u32, block: op.block as u32, session: session as u32, seq };
        encode(self.seed, stamp, out);
    }

    fn complete(
        &self,
        s: &mut Session,
        seq: u64,
        op: Op,
        start: Instant,
        reply: Result<NfsReply, String>,
    ) {
        let nanos = start.elapsed().as_nanos() as u64;
        let ok = match (op.kind, reply) {
            (Kind::Read, Ok(NfsReply::Data(data))) => {
                if let Err(e) = self.check_block(op.file, op.block, &data, None) {
                    self.mismatch(format!("read by session {} (op {seq}): {e}", s.index));
                }
                true
            }
            (Kind::Write, Ok(NfsReply::Attr(_))) => {
                let slot = &mut s.last_acked[op.file * BLOCKS + op.block];
                *slot = Some(slot.map_or(seq, |prev| prev.max(seq)));
                true
            }
            _ => false,
        };
        if ok {
            self.latency[s.index][op.kind as usize].record(nanos);
            self.done[s.index].fetch_add(1, Ordering::Relaxed);
        } else {
            self.failed[s.index].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Checks one block read back from the cell: well-formed, holding
    /// either its set-up contents or a block some session really wrote
    /// to this offset. With `sessions` (the final check, when every
    /// acknowledgement is known), also that no acknowledged write to the
    /// block was lost: the set-up contents survive only if nobody's write
    /// was acknowledged, and a session's block is its newest acknowledged
    /// write or one still unacknowledged after it.
    fn check_block(
        &self,
        file: usize,
        block: usize,
        data: &[u8],
        sessions: Option<&[Session]>,
    ) -> Result<(), String> {
        let stamp = decode(self.seed, file, block, data)?;
        let acked = |s: usize| sessions.and_then(|all| all[s].last_acked[file * BLOCKS + block]);
        if stamp.session == SETUP_SESSION {
            if stamp.seq != 0 {
                return Err(format!("block {file}/{block}: bad set-up stamp {stamp:?}"));
            }
            if let Some(s) = (0..SESSIONS).find(|&s| acked(s).is_some()) {
                return Err(format!(
                    "block {file}/{block}: still holds its set-up contents, but session {s}'s write was acknowledged"
                ));
            }
            return Ok(());
        }
        let s = stamp.session as usize;
        if s >= SESSIONS {
            return Err(format!("block {file}/{block}: stamped by unknown session {s}"));
        }
        if stamp.seq >= self.sent[s].load(Ordering::Acquire) {
            return Err(format!(
                "block {file}/{block}: holds session {s}'s op {} before it was sent",
                stamp.seq
            ));
        }
        let op = self.w.op(self.seed, s, stamp.seq);
        if op.kind != Kind::Write || op.file != file || op.block != block {
            return Err(format!(
                "block {file}/{block}: session {s}'s op {} was {op:?}, not a write here",
                stamp.seq
            ));
        }
        if let Some(newest) = acked(s).filter(|&newest| stamp.seq < newest) {
            return Err(format!(
                "block {file}/{block}: holds session {s}'s op {}, older than its acknowledged op {newest}",
                stamp.seq
            ));
        }
        Ok(())
    }

    /// The convergence check: settles the cell, reads every file through
    /// each server, and requires identical bytes everywhere, every block
    /// valid, and no acknowledged write lost.
    pub fn verify<S: Hosted>(&self, rt: &ClusterRuntime<S>, sessions: &[Session]) {
        rt.settle();
        let mut readers: Vec<RuntimeClient> =
            rt.server_ids().iter().map(|&id| rt.client_homed(id)).collect();
        for (file, &fh) in self.files.iter().enumerate() {
            let mut first: Option<Vec<u8>> = None;
            for reader in readers.iter_mut() {
                let server = reader.home();
                let data = match reader.read(fh, 0, FILE_BYTES) {
                    Ok(data) => data.to_vec(),
                    Err(e) => {
                        self.mismatch(format!("final read of file {file} via {server}: {e}"));
                        continue;
                    }
                };
                match &first {
                    None => {
                        if data.len() != FILE_BYTES {
                            self.mismatch(format!(
                                "file {file} via {server}: {} bytes",
                                data.len()
                            ));
                        }
                        for (block, bytes) in data.chunks(BLOCK).enumerate() {
                            if let Err(e) = self.check_block(file, block, bytes, Some(sessions)) {
                                self.mismatch(format!("final state via {server}: {e}"));
                            }
                        }
                        first = Some(data);
                    }
                    Some(expected) if *expected != data => self.mismatch(format!(
                        "file {file}: server {server} disagrees with the others"
                    )),
                    Some(_) => {}
                }
            }
        }
    }
}
