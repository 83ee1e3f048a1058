//! Single-file mutating operations (`OpClass::Mutate`).
//!
//! Every operation here rewrites exactly one segment — the one its file
//! handle names — through the §5.1 optimistic read-modify-write loop.
//! A concurrent host serializes them per shard (the handle's segment id
//! is the shard key). Each has one body, generic over the access mode
//! (`SegIo`, see [`crate::fs`]): the `&mut self` methods run it with
//! exclusive access, and the ring mode runs it under the shared cell
//! lock plus the file's ring lock, concurrently with reads and with
//! mutations of files in other shards. Shared access declines every
//! write.
//!
//! Under the asynchronous write pipeline (the live runtime's default), a
//! write's reply means: durable at the token holder plus the file's
//! `write_safety - 1` synchronous replicas; propagation to the rest of
//! the group is deferred work the pump ships in batches, with lagging
//! replicas' reads forwarding to the holder meanwhile (§3.4). See the
//! README's "failure semantics" section for what a holder crash
//! recovers.

use deceit_core::FileParams;
use deceit_net::NodeId;

use crate::fs::{
    check_fits, DeceitFs, FileAttr, FileType, NfsError, NfsResult, Patch, SegIo, Served,
};
use crate::handle::FileHandle;

impl DeceitFs {
    /// `SETATTR`: chmod/chown/truncate.
    pub fn setattr(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        mode: Option<u32>,
        uid: Option<u32>,
        gid: Option<u32>,
        size: Option<usize>,
    ) -> NfsResult<FileAttr> {
        Ok(setattr(self, via, fh, mode, uid, gid, size)?)
    }

    /// `WRITE`: writes `data` at `offset`, extending the file as needed.
    pub fn write(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        offset: usize,
        data: &[u8],
    ) -> NfsResult<FileAttr> {
        Ok(write(self, via, fh, offset, data)?)
    }

    /// `WRITE` with credential enforcement.
    pub fn write_as(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        cred: crate::auth::Credentials,
        offset: usize,
        data: &[u8],
    ) -> NfsResult<FileAttr> {
        let allowed = self.access(via, fh, cred, crate::auth::AccessMode::Write)?;
        if !allowed.value {
            return Err(NfsError::Access);
        }
        let mut out = self.write(via, fh, offset, data)?;
        out.latency += allowed.latency;
        Ok(out)
    }

    /// Sets the per-file semantic parameters (§4).
    pub fn set_file_params(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        params: FileParams,
    ) -> NfsResult<()> {
        Ok(self.set_params(via, fh, params)?)
    }
}

/// `SETATTR` in any access mode. A truncation that would outgrow one
/// whole-segment read fails with EFBIG.
pub(crate) fn setattr<M: SegIo>(
    io: &mut M,
    via: NodeId,
    fh: FileHandle,
    mode: Option<u32>,
    uid: Option<u32>,
    gid: Option<u32>,
    size: Option<usize>,
) -> Served<FileAttr, M::Decline> {
    let now = io.fs().cluster.now().as_micros();
    let updated = io.update_segment(via, fh, |inode, payload| {
        if let Some(s) = size {
            if inode.ftype == FileType::Directory.to_byte() {
                return Err(NfsError::IsDir);
            }
            check_fits(inode, s)?;
        }
        inode.mode = mode.unwrap_or(inode.mode);
        inode.uid = uid.unwrap_or(inode.uid);
        inode.gid = gid.unwrap_or(inode.gid);
        inode.ctime = now;
        let Some(s) = size else { return Ok(Some(Patch::keep(payload))) };
        inode.mtime = now;
        Ok(Some(Patch::resize(s)))
    })?;
    io.updated_attr(via, fh, updated)
}

/// `WRITE` in any access mode. A write ending past what one
/// whole-segment read returns fails with EFBIG before anything is
/// stored.
pub(crate) fn write<M: SegIo>(
    io: &mut M,
    via: NodeId,
    fh: FileHandle,
    offset: usize,
    data: &[u8],
) -> Served<FileAttr, M::Decline> {
    let now = io.fs().cluster.now().as_micros();
    let updated = io.update_segment(via, fh, |inode, payload| {
        if inode.ftype == FileType::Directory.to_byte() {
            return Err(NfsError::IsDir);
        }
        let end = offset.checked_add(data.len()).ok_or(NfsError::FileTooBig)?;
        check_fits(inode, end)?;
        inode.mtime = now;
        Ok(Some(Patch::write(payload.len(), offset, data)))
    })?;
    io.updated_attr(via, fh, updated)
}
