//! Golden dispatch transcript: which access path answers each request,
//! with what reply and what modelled latency.
//!
//! A fixed request script runs through one single-threaded
//! [`NfsServer`] built exactly as `ClusterRuntime::start` builds its
//! engine (the runtime's cluster configuration, sharded). Every request
//! takes the runtime's fallback order: read-only requests try
//! `serve_shared`, then `serve_read_sharded` (when the request names a
//! file), then `serve`; mutating requests try `serve_sharded`, then
//! `serve`. The transcript pins, per request, the path that answered,
//! the reply and the latency, so any change to how the envelope
//! dispatches — or to what a path answers — shows up as a diff.
//!
//! On a mismatch the actual transcript is written next to the test
//! binary's scratch directory (the path is printed); copying it over
//! `tests/golden/dispatch_transcript.txt` accepts the change.

use std::fmt::Write as _;

use deceit_core::{FileParams, ProtocolHost};
use deceit_net::NodeId;
use deceit_nfs::{DeceitFs, FileAttr, FileHandle, NfsReply, NfsRequest, NfsServer, NfsService};
use deceit_runtime::RuntimeConfig;
use deceit_sim::SimDuration;

const GOLDEN: &str = include_str!("golden/dispatch_transcript.txt");

/// Drives the script and records one line per step.
struct Transcript {
    srv: NfsServer,
    out: String,
    step: usize,
}

impl Transcript {
    fn new() -> Self {
        let cfg = RuntimeConfig::new(3);
        let cluster_cfg = cfg.cluster.clone().with_shards(cfg.shards);
        let fs = DeceitFs::new(cfg.servers, cluster_cfg, cfg.fs.clone());
        Transcript { srv: NfsServer::new(fs), out: String::new(), step: 0 }
    }

    /// Serves `req` at server `via` along the runtime's fallback order
    /// and records the outcome.
    fn req(&mut self, via: u32, req: NfsRequest) -> NfsReply {
        let via = NodeId(via);
        // Each fast path declines the other kind of request outright.
        if req.is_read_only() {
            assert!(self.srv.serve_sharded(via, &req).is_none(), "{req:?}");
        } else {
            assert!(self.srv.serve_shared(via, &req).is_none(), "{req:?}");
            assert!(self.srv.serve_read_sharded(via, &req).is_none(), "{req:?}");
        }
        let line = format!("{req:?}");
        let (path, (reply, latency)) = if req.is_read_only() {
            if let Some(out) = self.srv.serve_shared(via, &req) {
                ("shared", out)
            } else if let Some(out) =
                req.shard_key().and_then(|_| self.srv.serve_read_sharded(via, &req))
            {
                ("read_sharded", out)
            } else {
                ("exclusive", self.srv.serve(via, req))
            }
        } else if let Some(out) = self.srv.serve_sharded(via, &req) {
            ("sharded", out)
        } else {
            ("exclusive", self.srv.serve(via, req))
        };
        self.record(via, path, line, &reply, latency);
        reply
    }

    /// Serves `req` on the exclusive path only, as the simulator does.
    fn excl(&mut self, via: u32, req: NfsRequest) {
        let via = NodeId(via);
        let line = format!("{req:?}");
        let (reply, latency) = self.srv.serve(via, req);
        self.record(via, "serve", line, &reply, latency);
    }

    fn record(&mut self, via: NodeId, path: &str, req: String, reply: &NfsReply, at: SimDuration) {
        self.step += 1;
        let _ = writeln!(
            self.out,
            "{:03} via={} {path:<12} {req}\n    -> {reply:?} @ {at:?}",
            self.step, via.0
        );
    }

    /// Serves a request that must answer with attributes.
    fn attr(&mut self, via: u32, req: NfsRequest) -> FileAttr {
        match self.req(via, req) {
            NfsReply::Attr(a) => a,
            other => panic!("expected attributes, got {other:?}"),
        }
    }

    /// A non-request step (settle, pump, crash, ...), recorded by name.
    fn note(&mut self, what: &str) {
        let _ = writeln!(self.out, "--- {what} (pending {})", self.srv.pending_work());
    }

    fn settle(&mut self) {
        self.srv.settle();
        self.note("settle");
    }

    /// One pass of the runtime's per-shard pump.
    fn pump_shards(&mut self) {
        for slot in 0..self.srv.shard_count() {
            let _ = self.srv.try_pump_shard(slot, 128);
        }
        self.note("pump every shard once");
    }
}

fn script() -> String {
    use NfsRequest as R;
    let mut t = Transcript::new();
    let root = t.srv.mount_root();

    // Keyless requests and the root.
    t.req(0, R::Null);
    t.req(0, R::Statfs);
    t.req(0, R::Getattr { fh: root });

    // A one-replica file homed on server 0.
    let a = t.attr(0, R::Create { dir: root, name: "a".into(), mode: 0o644 }).handle;
    t.req(0, R::Write { fh: a, offset: 0, data: b"hello deceit".as_slice().into() });
    t.settle();
    t.req(0, R::Read { fh: a, offset: 0, count: 64 });
    t.req(0, R::Read { fh: a, offset: 6, count: 3 });
    t.req(0, R::Read { fh: a, offset: 100, count: 8 });
    // Non-local reads: server 1 holds no replica, so the lock-free path
    // declines and the ring-locked path forwards.
    t.req(1, R::Read { fh: a, offset: 0, count: 64 });
    t.req(1, R::Getattr { fh: a });
    t.req(0, R::Lookup { dir: root, name: "a".into() });
    // The ring path cannot load a non-local lookup child atomically.
    t.req(1, R::Lookup { dir: root, name: "a".into() });
    t.req(1, R::Readdir { dir: root });
    t.req(0, R::Readdir { dir: root });

    // Symlinks and deterministic read errors.
    let l = t.attr(0, R::Symlink { dir: root, name: "l".into(), target: "a".into() }).handle;
    t.req(0, R::Readlink { fh: l });
    t.req(1, R::Readlink { fh: l });
    t.req(0, R::Readlink { fh: a });
    t.req(0, R::Read { fh: root, offset: 0, count: 8 });
    t.req(0, R::Lookup { dir: root, name: "missing".into() });
    t.req(0, R::Lookup { dir: root, name: "bad;x".into() });
    t.req(0, R::Lookup { dir: a, name: "a".into() });
    t.req(0, R::Readdir { dir: a });

    // Single-file mutations on the sharded path.
    t.req(0, R::Setattr { fh: a, mode: Some(0o600), uid: Some(7), gid: None, size: Some(5) });
    t.req(0, R::Setattr { fh: root, mode: None, uid: None, gid: None, size: Some(0) });
    t.req(0, R::Write { fh: root, offset: 0, data: b"x".as_slice().into() });
    t.req(1, R::Write { fh: a, offset: 5, data: b", world".as_slice().into() });
    t.req(0, R::DeceitSetParams { fh: a, params: FileParams::important(3) });
    t.settle();
    t.req(0, R::DeceitGetParams { fh: a });
    t.req(2, R::DeceitGetParams { fh: a });
    t.req(0, R::DeceitListVersions { fh: a });
    t.req(0, R::DeceitLocateReplicas { fh: a });
    t.req(1, R::Read { fh: a, offset: 0, count: 64 });

    // A write stream: the holder reads its own file under the read
    // lease; other servers forward to the holder until it stabilizes.
    t.req(0, R::Write { fh: a, offset: 0, data: b"HELLO".as_slice().into() });
    t.req(0, R::Write { fh: a, offset: 12, data: b"!".as_slice().into() });
    t.req(0, R::Read { fh: a, offset: 0, count: 64 });
    t.req(0, R::Getattr { fh: a });
    t.req(1, R::Read { fh: a, offset: 0, count: 64 });
    t.req(2, R::Getattr { fh: a });
    t.pump_shards();
    t.req(1, R::Read { fh: a, offset: 0, count: 64 });
    t.settle();
    t.req(1, R::Read { fh: a, offset: 0, count: 64 });
    t.req(2, R::Lookup { dir: root, name: "a".into() });

    // Every read-only request on the exclusive path alone.
    for via in [0, 1] {
        t.excl(via, R::Null);
        t.excl(via, R::Statfs);
        t.excl(via, R::Getattr { fh: a });
        t.excl(via, R::Lookup { dir: root, name: "a".into() });
        t.excl(via, R::Lookup { dir: root, name: "missing".into() });
        t.excl(via, R::Readlink { fh: l });
        t.excl(via, R::Read { fh: a, offset: 2, count: 5 });
        t.excl(via, R::Read { fh: root, offset: 0, count: 5 });
        t.excl(via, R::Readdir { dir: root });
        t.excl(via, R::DeceitGetParams { fh: a });
        t.excl(via, R::DeceitListVersions { fh: l });
        t.excl(via, R::DeceitLocateReplicas { fh: l });
    }
    // And single-file mutations, which the simulator also serves there.
    t.excl(0, R::Write { fh: a, offset: 13, data: b"?".as_slice().into() });
    t.excl(1, R::Setattr { fh: a, mode: Some(0o640), uid: None, gid: Some(3), size: None });
    t.excl(0, R::Setattr { fh: root, mode: None, uid: None, gid: None, size: Some(0) });
    t.excl(0, R::DeceitSetParams { fh: l, params: FileParams::important(2) });
    t.settle();

    // Namespace mutations.
    let d = t.attr(0, R::Mkdir { dir: root, name: "d".into(), mode: 0o755 }).handle;
    t.req(0, R::Mkdir { dir: root, name: "d".into(), mode: 0o755 });
    t.req(0, R::Create { dir: d, name: "x".into(), mode: 0o644 });
    t.req(0, R::Create { dir: root, name: "".into(), mode: 0o644 });
    t.req(0, R::Rmdir { dir: root, name: "d".into() });
    t.req(0, R::Rmdir { dir: root, name: "a".into() });
    t.req(0, R::Link { target: a, dir: d, name: "hard".into() });
    t.req(0, R::Link { target: a, dir: d, name: "v;2".into() });
    t.req(0, R::Link { target: d, dir: root, name: "dirlink".into() });
    t.req(0, R::Link { target: a, dir: d, name: "hard".into() });
    t.excl(0, R::Link { target: l, dir: d, name: "sl".into() });
    t.excl(0, R::Link { target: l, dir: d, name: "sl".into() });
    t.req(0, R::Rename { from_dir: root, from_name: "a".into(), to_dir: d, to_name: "m".into() });
    t.req(0, R::Rename { from_dir: root, from_name: "a".into(), to_dir: d, to_name: "m".into() });
    t.settle();

    // Version-qualified names (§3.5).
    t.req(0, R::Create { dir: root, name: "nope;2".into(), mode: 0o644 });
    let v2 = t.attr(0, R::Create { dir: d, name: "m;2".into(), mode: 0o644 }).handle;
    t.req(0, R::Getattr { fh: v2 });
    t.req(0, R::Lookup { dir: d, name: "m;2".into() });
    t.req(1, R::Lookup { dir: d, name: "m;2".into() });
    let qualified = format!("m;{}", v2.version.unwrap_or(0));
    t.req(0, R::Lookup { dir: d, name: qualified.clone() });
    t.req(1, R::Lookup { dir: d, name: qualified.clone() });
    t.req(0, R::Write { fh: v2, offset: 0, data: b"v2".as_slice().into() });
    t.req(0, R::Read { fh: v2, offset: 0, count: 64 });
    t.req(0, R::Read { fh: FileHandle::versioned(a.seg, 99), offset: 0, count: 64 });
    t.req(0, R::DeceitListVersions { fh: a });
    t.settle();
    t.req(0, R::Remove { dir: d, name: "m;2".into() });
    t.req(0, R::Remove { dir: d, name: qualified });
    t.req(0, R::DeceitListVersions { fh: a });
    t.req(0, R::Read { fh: v2, offset: 0, count: 64 });

    // Removals and the stale handles they leave.
    t.req(0, R::Remove { dir: d, name: "x".into() });
    t.req(0, R::Remove { dir: d, name: "x".into() });
    t.req(0, R::Remove { dir: root, name: "d".into() });
    t.req(0, R::Remove { dir: d, name: "hard".into() });
    t.req(0, R::Remove { dir: d, name: "sl".into() });
    t.req(0, R::Remove { dir: d, name: "m".into() });
    t.settle();
    t.req(0, R::Getattr { fh: a });
    t.req(1, R::Read { fh: a, offset: 0, count: 8 });
    t.req(0, R::Write { fh: a, offset: 0, data: b"gone".as_slice().into() });
    t.req(0, R::Rmdir { dir: root, name: "d".into() });
    t.req(0, R::Readdir { dir: d });
    t.req(0, R::Mkdir { dir: root, name: "l".into(), mode: 0o755 });
    t.req(0, R::DeceitReconcile { dir: root });
    t.req(0, R::Readdir { dir: root });

    // A crashed server: the lock-free path declines, the others report.
    let b = t.attr(0, R::Create { dir: root, name: "b".into(), mode: 0o644 }).handle;
    t.req(0, R::DeceitSetParams { fh: b, params: FileParams::important(3) });
    t.req(0, R::Write { fh: b, offset: 0, data: b"bee".as_slice().into() });
    t.settle();
    t.srv.crash_node(NodeId(2));
    t.note("crash server 2");
    t.req(2, R::Statfs);
    t.req(2, R::Read { fh: b, offset: 0, count: 8 });
    t.req(2, R::Write { fh: b, offset: 0, data: b"B".as_slice().into() });
    t.req(1, R::Read { fh: b, offset: 0, count: 8 });
    t.req(0, R::Write { fh: b, offset: 1, data: b"EE".as_slice().into() });
    t.srv.restart_node(NodeId(2));
    t.note("restart server 2");
    t.settle();
    t.req(2, R::Read { fh: b, offset: 0, count: 8 });
    t.req(2, R::Statfs);
    t.req(1, R::Remove { dir: root, name: "l".into() });
    t.req(0, R::Readdir { dir: root });
    t.out
}

#[test]
fn dispatch_transcript_matches_golden() {
    let actual = script();
    assert_eq!(actual, script(), "the transcript must be deterministic");
    if actual != GOLDEN {
        let path =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("dispatch_transcript.txt");
        std::fs::write(&path, &actual).expect("write the actual transcript");
        let first = actual.lines().zip(GOLDEN.lines()).position(|(a, g)| a != g);
        panic!(
            "dispatch transcript differs from tests/golden/dispatch_transcript.txt \
             (first differing line: {first:?}); actual written to {}",
            path.display()
        );
    }
}
