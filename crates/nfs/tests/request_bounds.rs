//! Out-of-range requests: every entry point answers with a reply, never
//! a panic, and a write the envelope could not read back is refused
//! before anything is stored.

use deceit_net::NodeId;
use deceit_nfs::{DeceitFs, FileHandle, NfsError, NfsReply, NfsRequest, NfsServer, NfsService};

/// A cell with one one-replica file at server 0 holding `body`.
fn cell_with_file(body: &[u8]) -> (NfsServer, FileHandle) {
    let mut srv = NfsServer::new(DeceitFs::with_defaults(3));
    let root = srv.mount();
    let fh = srv.fs.create(NodeId(0), root, "f", 0o644).unwrap().value.handle;
    srv.fs.write(NodeId(0), fh, 0, body).unwrap();
    srv.fs.cluster.run_until_quiet();
    (srv, fh)
}

#[test]
fn oversized_read_ranges_are_clipped_on_every_entry_point() {
    let (mut srv, fh) = cell_with_file(b"hello world");
    for (offset, count, want) in [
        (1, usize::MAX, &b"ello world"[..]),
        (usize::MAX, usize::MAX, &b""[..]),
        (usize::MAX - 2, 8, &b""[..]),
        (6, usize::MAX - 3, &b"world"[..]),
    ] {
        let req = NfsRequest::Read { fh, offset, count };
        let reply = NfsReply::Data(want.into());
        // Server 0 holds the replica: the lock-free path answers.
        let (shared, _) = srv.serve_shared(NodeId(0), &req).expect("local replica");
        assert_eq!(shared, reply, "{req:?}");
        // Server 1 does not: the ring-locked path forwards.
        assert!(srv.serve_shared(NodeId(1), &req).is_none());
        let (ring, _) = srv.serve_read_sharded(NodeId(1), &req).expect("forwarded read");
        assert_eq!(ring, reply, "{req:?}");
        for via in [0, 1] {
            let (exclusive, _) = srv.serve(NodeId(via), req.clone());
            assert_eq!(exclusive, reply, "{req:?} via {via}");
        }
        assert_eq!(&srv.fs.read(NodeId(0), fh, offset, count).unwrap().value[..], want);
    }
}

#[test]
fn writes_past_the_whole_segment_bound_are_refused_on_every_entry_point() {
    let (mut srv, fh) = cell_with_file(b"kept");
    let writes = [
        // Offset arithmetic that would wrap.
        NfsRequest::Write { fh, offset: usize::MAX - 2, data: b"wrap".as_slice().into() },
        // A file larger than one whole-segment read returns.
        NfsRequest::Write { fh, offset: 64 * 1024 * 1024, data: b"lost".as_slice().into() },
        NfsRequest::Setattr { fh, mode: None, uid: None, gid: None, size: Some(64 << 20) },
        NfsRequest::Setattr { fh, mode: None, uid: None, gid: None, size: Some(usize::MAX) },
    ];
    for req in writes {
        let (ring, _) = srv.serve_sharded(NodeId(0), &req).expect("single-file mutation");
        assert_eq!(ring, NfsReply::Error(NfsError::FileTooBig), "{req:?}");
        let (exclusive, _) = srv.serve(NodeId(1), req.clone());
        assert_eq!(exclusive, NfsReply::Error(NfsError::FileTooBig), "{req:?}");
        // Shared access never takes a write.
        assert!(srv.serve_shared(NodeId(0), &req).is_none());
        assert!(srv.serve_read_sharded(NodeId(0), &req).is_none());
    }
    assert_eq!(srv.fs.write(NodeId(0), fh, 64 << 20, b"lost").unwrap_err(), NfsError::FileTooBig);
    assert_eq!(
        srv.fs.setattr(NodeId(0), fh, None, None, None, Some(64 << 20)).unwrap_err(),
        NfsError::FileTooBig
    );
    // Nothing was stored: the file still reads back whole, unchanged.
    let attr = srv.fs.getattr(NodeId(0), fh).unwrap().value;
    assert_eq!(attr.size, 4);
    assert_eq!(&srv.fs.read(NodeId(2), fh, 0, 64).unwrap().value[..], b"kept");
    // Ordinary growth is unaffected.
    let grown = srv.fs.write(NodeId(0), fh, 4096, b"!").unwrap().value;
    assert_eq!(grown.size, 4097);
}
