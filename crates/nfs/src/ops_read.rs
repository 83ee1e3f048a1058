//! Read-only operations (`OpClass::ReadOnly`).
//!
//! Every operation here only *inspects* segments: attributes, file
//! contents, directory listings, link targets, and the Deceit inquiry
//! commands. None of them changes client-visible state, which is what
//! lets a concurrent host run them under its shared cell lock.
//!
//! Each operation has one body, generic over the access mode (`SegIo`,
//! see [`crate::fs`]); the `&mut self` methods run it with exclusive
//! access. The shared mode runs the same body lock-free and answers
//! exactly when the serving server can read every segment involved
//! locally; the ring mode adds the full forwarding read under the file's
//! ring lock. Since the body is the same, a mode that answers gives the
//! reply any other mode would; only latency and protocol side effects
//! differ.

use bytes::Bytes;

use deceit_core::{DeceitError, FileParams, OpResult};
use deceit_net::NodeId;
use deceit_sim::SimDuration;

use crate::dir::DirEntry;
use crate::fs::{
    attr_from, split, DeceitFs, FileAttr, FileType, NfsError, NfsResult, SegIo, Served,
};
use crate::handle::FileHandle;
use crate::name::QualifiedName;

impl DeceitFs {
    /// `GETATTR`.
    pub fn getattr(&mut self, via: NodeId, fh: FileHandle) -> NfsResult<FileAttr> {
        Ok(getattr(self, via, fh)?)
    }

    /// `LOOKUP`: resolves one component in a directory, honoring the
    /// `name;version` syntax (§3.5).
    pub fn lookup(&mut self, via: NodeId, dir: FileHandle, name: &str) -> NfsResult<FileAttr> {
        Ok(lookup(self, via, dir, name)?)
    }

    /// `READ`: file contents (the inode header is invisible to clients).
    pub fn read(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        offset: usize,
        count: usize,
    ) -> NfsResult<Bytes> {
        Ok(read(self, via, fh, offset, count)?)
    }

    /// `READLINK`.
    pub fn readlink(&mut self, via: NodeId, fh: FileHandle) -> NfsResult<String> {
        Ok(readlink(self, via, fh)?)
    }

    /// `READDIR`: lists a directory.
    pub fn readdir(&mut self, via: NodeId, dir: FileHandle) -> NfsResult<Vec<DirEntry>> {
        Ok(readdir(self, via, dir)?)
    }

    /// `STATFS`-style summary: live files and total bytes on one server.
    pub fn statfs(&mut self, via: NodeId) -> NfsResult<(usize, usize)> {
        Ok(statfs(self, via)?)
    }

    /// Reads the per-file semantic parameters.
    pub fn file_params(&mut self, via: NodeId, fh: FileHandle) -> NfsResult<FileParams> {
        Ok(self.get_params(via, fh)?)
    }

    /// Lists all versions of a file (§2.1 "list all versions of a file").
    pub fn file_versions(
        &mut self,
        via: NodeId,
        fh: FileHandle,
    ) -> NfsResult<Vec<deceit_core::VersionInfo>> {
        Ok(self.cluster.list_versions(via, fh.seg)?)
    }

    /// Locates all replicas of a file (§2.1 "locate all replicas").
    pub fn file_replicas(&mut self, via: NodeId, fh: FileHandle) -> NfsResult<Vec<NodeId>> {
        Ok(self.cluster.locate_replicas(via, fh.seg)?)
    }

    /// NFS `ACCESS`: whether `cred` may perform `want` on the file.
    pub fn access(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        cred: crate::auth::Credentials,
        want: crate::auth::AccessMode,
    ) -> NfsResult<bool> {
        let (inode, _, _, latency) = self.load(via, fh)?;
        Ok(OpResult { value: crate::auth::permits(&inode, cred, want), latency })
    }

    /// `READ` with credential enforcement: `EACCES` unless the mode bits
    /// permit reading.
    pub fn read_as(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        cred: crate::auth::Credentials,
        offset: usize,
        count: usize,
    ) -> NfsResult<Bytes> {
        let allowed = self.access(via, fh, cred, crate::auth::AccessMode::Read)?;
        if !allowed.value {
            return Err(NfsError::Access);
        }
        let mut out = self.read(via, fh, offset, count)?;
        out.latency += allowed.latency;
        Ok(out)
    }

    /// Walks an absolute slash-separated path from the root.
    pub fn lookup_path(&mut self, via: NodeId, path: &str) -> NfsResult<FileAttr> {
        let mut latency = SimDuration::ZERO;
        let mut cur = self.root();
        let mut attr = {
            let a = self.getattr(via, cur)?;
            latency += a.latency;
            a.value
        };
        for comp in path.split('/').filter(|c| !c.is_empty() && *c != ".") {
            let next = self.lookup(via, cur, comp)?;
            latency += next.latency;
            attr = next.value;
            cur = attr.handle;
        }
        Ok(OpResult { value: attr, latency })
    }
}

/// `GETATTR` in any access mode.
pub(crate) fn getattr<M: SegIo>(
    io: &mut M,
    via: NodeId,
    fh: FileHandle,
) -> Served<FileAttr, M::Decline> {
    let (inode, payload, version, latency) = io.load(via, fh)?;
    Ok(OpResult { value: attr_from(fh, &inode, payload.len(), version), latency })
}

/// `LOOKUP` in any access mode. The child is read with
/// [`SegIo::read_unlocked`]: it may live outside the caller's locks.
pub(crate) fn lookup<M: SegIo>(
    io: &mut M,
    via: NodeId,
    dir: FileHandle,
    name: &str,
) -> Served<FileAttr, M::Decline> {
    let q = QualifiedName::parse(name).map_err(NfsError::Name)?;
    let (_, table, _, dir_latency) = io.load_dir(via, dir)?;
    let entry = table.get(&q.base).ok_or(NfsError::NotFound)?;
    let fh = match q.version {
        Some(v) => FileHandle::versioned(entry.handle.seg, v),
        None => entry.handle,
    };
    let (inode, payload, version, latency) = split(io.read_unlocked(via, fh)?)?;
    let attr = attr_from(fh, &inode, payload.len(), version);
    Ok(OpResult { value: attr, latency: latency + dir_latency })
}

/// `READ` in any access mode. A range past the end of the file is
/// clipped to it, however large `offset + count`.
pub(crate) fn read<M: SegIo>(
    io: &mut M,
    via: NodeId,
    fh: FileHandle,
    offset: usize,
    count: usize,
) -> Served<Bytes, M::Decline> {
    let (inode, payload, _, latency) = io.load(via, fh)?;
    if inode.ftype == FileType::Directory.to_byte() {
        return Err(NfsError::IsDir.into());
    }
    let end = offset.saturating_add(count).min(payload.len());
    let data = if offset >= payload.len() { Bytes::new() } else { payload.slice(offset..end) };
    Ok(OpResult { value: data, latency })
}

/// `READLINK` in any access mode.
pub(crate) fn readlink<M: SegIo>(
    io: &mut M,
    via: NodeId,
    fh: FileHandle,
) -> Served<String, M::Decline> {
    let (inode, payload, _, latency) = io.load(via, fh)?;
    if inode.ftype != FileType::Symlink.to_byte() {
        let e = DeceitError::InvalidCommand("readlink on non-symlink".to_string());
        return Err(NfsError::Io(e).into());
    }
    Ok(OpResult { value: String::from_utf8_lossy(&payload).into_owned(), latency })
}

/// `READDIR` in any access mode.
pub(crate) fn readdir<M: SegIo>(
    io: &mut M,
    via: NodeId,
    dir: FileHandle,
) -> Served<Vec<DirEntry>, M::Decline> {
    let (_, table, _, latency) = io.load_dir(via, dir)?;
    Ok(OpResult { value: table.entries().to_vec(), latency })
}

/// `STATFS` in any access mode: purely local per-server accounting.
pub(crate) fn statfs<M: SegIo>(io: &mut M, via: NodeId) -> Served<(usize, usize), M::Decline> {
    io.check_up(via)?;
    let s = io.fs().cluster.server(via);
    let value = (s.replicas.len(), s.replicas.durable_bytes());
    Ok(OpResult { value, latency: SimDuration::from_micros(100) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::NfsService;
    use crate::rpc::{NfsReply, NfsRequest, NfsServer};

    fn read_req(fh: FileHandle, count: usize) -> NfsRequest {
        NfsRequest::Read { fh, offset: 0, count }
    }

    /// The shared fast path must agree byte-for-byte with the exclusive
    /// path whenever it answers at all.
    #[test]
    fn shared_path_matches_exclusive_answers() {
        let mut srv = NfsServer::new(DeceitFs::with_defaults(3));
        let root = srv.mount();
        let via = NodeId(0);
        let attr = srv.fs.create(via, root, "f", 0o644).unwrap().value;
        srv.fs.write(via, attr.handle, 0, b"shared vs exclusive").unwrap();
        srv.fs.symlink(via, root, "l", "f").unwrap();
        srv.fs.cluster.run_until_quiet();

        let lookup = |name: &str| NfsRequest::Lookup { dir: root, name: name.into() };
        for req in [
            read_req(attr.handle, 64),
            NfsRequest::Getattr { fh: attr.handle },
            lookup("f"),
            NfsRequest::Readdir { dir: root },
        ] {
            let (shared, _) = srv.serve_shared(via, &req).expect("local stable replica");
            assert!(shared.as_error().is_none(), "{req:?}: {shared:?}");
            let (exclusive, _) = srv.serve(via, req);
            assert_eq!(shared, exclusive);
        }

        let lh = srv.fs.lookup(via, root, "l").unwrap().value.handle;
        let (shared, _) = srv.serve_shared(via, &NfsRequest::Readlink { fh: lh }).unwrap();
        assert_eq!(shared, NfsReply::Path("f".into()));

        // Deterministic errors are answered, not deferred.
        let (missing, _) = srv.serve_shared(via, &lookup("missing")).unwrap();
        assert_eq!(missing.as_error(), Some(&NfsError::NotFound));
        let (dir_read, _) = srv.serve_shared(via, &read_req(root, 8)).unwrap();
        assert_eq!(dir_read.as_error(), Some(&NfsError::IsDir));
    }

    /// Under `opt_read_leases`, the shared path serves the token
    /// holder's own file even mid-write-stream (unstable, lease
    /// published) — and still defers for every other server, whose reads
    /// must forward to the holder (§3.4).
    #[test]
    fn shared_path_serves_holder_under_write_stream_with_leases() {
        use deceit_core::{ClusterConfig, FileParams};
        let cfg = ClusterConfig::deterministic().with_write_pipeline().with_read_leases();
        let mut srv = NfsServer::new(DeceitFs::new(3, cfg, crate::fs::FsConfig::default()));
        let root = srv.mount();
        let via = NodeId(0);
        let attr = srv.fs.create(via, root, "f", 0o644).unwrap().value;
        srv.fs.set_file_params(via, attr.handle, FileParams::important(3)).unwrap();
        srv.fs.cluster.run_until_quiet();
        srv.fs.write(via, attr.handle, 0, b"streaming").unwrap();

        // The file is unstable (stream active), yet the holder's shared
        // path answers at the acked prefix — and matches the exclusive
        // path byte for byte.
        let read = read_req(attr.handle, 64);
        let (shared, _) = srv.serve_shared(via, &read).expect("lease serves the holder");
        assert_eq!(shared, NfsReply::Data(b"streaming".as_slice().into()));
        let getattr = NfsRequest::Getattr { fh: attr.handle };
        let (shared_attr, _) = srv.serve_shared(via, &getattr).expect("lease getattr");
        assert!(matches!(shared_attr, NfsReply::Attr(_)), "{shared_attr:?}");
        let (exclusive_attr, _) = srv.serve(via, getattr);
        assert_eq!(shared_attr, exclusive_attr);
        // Non-holders keep deferring: their reads must forward.
        assert!(srv.serve_shared(NodeId(1), &read).is_none());
        // And once the stream stabilizes, the ordinary stable path
        // takes over everywhere.
        srv.fs.cluster.run_until_quiet();
        assert!(srv.serve_shared(NodeId(1), &read).is_some());
    }

    /// Servers without a local replica defer to the exclusive
    /// (forwarding) path instead of answering.
    #[test]
    fn shared_path_defers_when_not_locally_servable() {
        let mut srv = NfsServer::new(DeceitFs::with_defaults(3));
        let root = srv.mount();
        let attr = srv.fs.create(NodeId(0), root, "only-on-0", 0o644).unwrap().value;
        srv.fs.write(NodeId(0), attr.handle, 0, b"x").unwrap();
        srv.fs.cluster.run_until_quiet();
        // Default params keep one replica, placed at the creating server.
        let holders = srv.fs.file_replicas(NodeId(0), attr.handle).unwrap().value;
        assert_eq!(holders, vec![NodeId(0)]);
        assert!(srv.serve_shared(NodeId(1), &read_req(attr.handle, 8)).is_none());
        // Crashed servers never answer the fast path either.
        srv.fs.cluster.crash_server(NodeId(0));
        assert!(srv.serve_shared(NodeId(0), &read_req(attr.handle, 8)).is_none());
        assert!(srv.serve_shared(NodeId(0), &NfsRequest::Statfs).is_none());
    }
}
