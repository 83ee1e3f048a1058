//! The file-service envelope: NFS operations over segments.
//!
//! Every operation decomposes into segment-server calls (create, delete,
//! read, write, setparam) exactly as §5.2 prescribes, with directory
//! updates protected by the optimistic-concurrency mechanism of §5.1:
//! "The directory is read, and a position is selected … Then, an update
//! is given to the segment server with the version pair returned by the
//! original read. If a version pair conflict occurs, the whole operation
//! is restarted."
//!
//! This module holds the envelope's shared types and the segment-I/O
//! seam, `SegIo`. Every operation has exactly one body, written over
//! that seam and generic in the *access mode* it runs under:
//!
//! * **exclusive** — [`DeceitFs`] itself, reached through `&mut`: the
//!   full protocol ([`Cluster::read`], [`Cluster::write`],
//!   [`Cluster::advance`]). It answers every request; the simulator and
//!   a concurrent host's fallback use it.
//! * **ring** — `Ring`: `&DeceitFs` plus the ring-lock slots the
//!   caller holds. Reads try a local stable replica, then the token
//!   holder's primary copy, then the full read scoped to those slots;
//!   writes and clock advances are scoped to them too.
//! * **shared** — `SharedAccess`: `&DeceitFs` alone. It answers only
//!   from a local stable replica (or the holder's leased copy) and
//!   declines everything else.
//!
//! A mode that cannot answer *declines* (`Stop::Decline`), and the
//! host retries under a stronger one. Exclusive access declines with
//! [`Infallible`], so the type system proves it never does. The few
//! places where the modes deliberately differ are stated once, on the
//! seam's methods.
//!
//! The operations are grouped by how they interact with engine state —
//! the classification a concurrent host dispatches on (see
//! [`deceit_core::OpClass`]):
//!
//! * [`crate::ops_read`] — read-only operations;
//! * [`crate::ops_file`] — single-file mutations;
//! * [`crate::ops_dir`] — namespace (directory / cross-file) mutations.

use std::borrow::Cow;
use std::convert::Infallible;

use bytes::Bytes;

use deceit_core::{
    Cluster, ClusterConfig, DeceitError, FileParams, OpResult, ReadData, VersionPair, WriteOp,
};
use deceit_net::NodeId;
use deceit_sim::SimDuration;

use crate::dir::Directory;
use crate::handle::FileHandle;
use crate::inode::{CodecError, Inode};
use crate::name::NameError;

/// File types the envelope stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileType {
    /// Regular file.
    Regular,
    /// Directory.
    Directory,
    /// Symbolic link.
    Symlink,
}

impl FileType {
    /// The byte stored in inode headers and directory entries.
    pub fn to_byte(self) -> u8 {
        match self {
            FileType::Regular => 0,
            FileType::Directory => 1,
            FileType::Symlink => 2,
        }
    }

    /// Decodes the byte form.
    pub fn from_byte(b: u8) -> Option<FileType> {
        match b {
            0 => Some(FileType::Regular),
            1 => Some(FileType::Directory),
            2 => Some(FileType::Symlink),
            _ => None,
        }
    }
}

/// NFS-visible attributes of a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileAttr {
    /// The handle the attributes describe.
    pub handle: FileHandle,
    /// File type.
    pub ftype: FileType,
    /// Permission bits.
    pub mode: u32,
    /// Hard-link count (the hint; exact after GC correction).
    pub nlink: u32,
    /// Owner and group.
    pub uid: u32,
    /// Group id.
    pub gid: u32,
    /// Size of the client-visible contents in bytes.
    pub size: usize,
    /// The Deceit version pair — doubles as NFS's change attribute.
    pub version: VersionPair,
    /// Modification time (simulated microseconds).
    pub mtime: u64,
    /// Attribute-change time (simulated microseconds).
    pub ctime: u64,
}

/// Envelope errors (the NFS error surface plus codec/transport causes).
#[derive(Debug, Clone, PartialEq)]
pub enum NfsError {
    /// ENOENT.
    NotFound,
    /// EEXIST.
    Exists,
    /// ENOTDIR.
    NotDir,
    /// EISDIR.
    IsDir,
    /// ENOTEMPTY.
    NotEmpty,
    /// ESTALE — the handle no longer names a live file.
    Stale,
    /// EACCES — the caller's credentials do not permit the operation.
    Access,
    /// Invalid component name.
    Name(NameError),
    /// The directory update kept conflicting (heavy write sharing —
    /// "very rare" per §2.3 — exhausted the restart budget).
    Busy,
    /// Underlying segment-server failure.
    Io(DeceitError),
    /// A segment the envelope expected to be formatted was not.
    Corrupt(CodecError),
    /// EFBIG — the file would outgrow what one whole-segment read
    /// returns.
    FileTooBig,
}

impl std::fmt::Display for NfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NfsError::NotFound => write!(f, "no such file or directory"),
            NfsError::Exists => write!(f, "file exists"),
            NfsError::NotDir => write!(f, "not a directory"),
            NfsError::IsDir => write!(f, "is a directory"),
            NfsError::NotEmpty => write!(f, "directory not empty"),
            NfsError::Stale => write!(f, "stale file handle"),
            NfsError::Access => write!(f, "permission denied"),
            NfsError::Name(e) => write!(f, "{e}"),
            NfsError::Busy => write!(f, "directory update conflicted repeatedly"),
            NfsError::Io(e) => write!(f, "segment server: {e}"),
            NfsError::Corrupt(e) => write!(f, "corrupt segment: {e}"),
            NfsError::FileTooBig => write!(f, "file too large"),
        }
    }
}

impl std::error::Error for NfsError {}

impl From<DeceitError> for NfsError {
    fn from(e: DeceitError) -> Self {
        match e {
            DeceitError::NoSuchSegment(_) | DeceitError::NoSuchVersion(_, _) => NfsError::Stale,
            other => NfsError::Io(other),
        }
    }
}

impl From<NameError> for NfsError {
    fn from(e: NameError) -> Self {
        NfsError::Name(e)
    }
}

impl From<CodecError> for NfsError {
    fn from(e: CodecError) -> Self {
        NfsError::Corrupt(e)
    }
}

/// Result alias: every envelope operation reports its latency.
pub type NfsResult<T> = Result<OpResult<T>, NfsError>;

/// Envelope configuration.
#[derive(Debug, Clone)]
pub struct FsConfig {
    /// Parameters applied to the root directory (administrators replicate
    /// "all important system directories", §6.1).
    pub root_params: FileParams,
    /// Parameters applied to newly created directories.
    pub dir_params: FileParams,
    /// Parameters applied to newly created files (§1: "The default
    /// behavior is equivalent to NFS").
    pub file_params: FileParams,
    /// Restart budget for conflicting directory updates (§5.1).
    pub occ_retries: u32,
}

impl Default for FsConfig {
    fn default() -> Self {
        FsConfig {
            root_params: FileParams::default(),
            dir_params: FileParams::default(),
            file_params: FileParams::default(),
            occ_retries: 8,
        }
    }
}

/// One Deceit cell's file service.
#[derive(Debug)]
pub struct DeceitFs {
    /// The segment-server cell underneath.
    pub cluster: Cluster,
    cfg: FsConfig,
    root: FileHandle,
}

/// The fixed size used when reading a whole segment ("most files are
/// small", §2.3). Writes that would grow a segment past it fail with
/// [`NfsError::FileTooBig`] instead of storing bytes no read returns.
pub(crate) const WHOLE_SEGMENT: usize = 64 * 1024 * 1024;

/// EFBIG unless a segment with `inode`'s header and a `len`-byte payload
/// fits in one whole-segment read.
pub(crate) fn check_fits(inode: &Inode, len: usize) -> Result<(), NfsError> {
    if len > WHOLE_SEGMENT.saturating_sub(inode.encoded_len()) {
        return Err(NfsError::FileTooBig);
    }
    Ok(())
}

impl DeceitFs {
    /// Builds a file service over `servers` Deceit servers and creates the
    /// root directory (via server 0).
    pub fn new(servers: usize, cluster_cfg: ClusterConfig, cfg: FsConfig) -> Self {
        let mut cluster = Cluster::new(servers, cluster_cfg);
        let via = NodeId(0);
        let root_seg = cluster
            .create_with_params(via, cfg.root_params)
            // lint: allow(no-bare-panic): cell construction, not a request path — server 0 of a fresh cell is up and has room for one segment
            .expect("root creation cannot fail on a fresh cell")
            .value;
        let now = cluster.now().as_micros();
        let mut inode = Inode::new(FileType::Directory.to_byte(), 0o755, now);
        inode.nlink = 1;
        let segment = Patch::replace(Directory::new().encode()).build(&inode, &[]);
        cluster
            .write(via, root_seg, WriteOp::Replace(segment), None)
            // lint: allow(no-bare-panic): cell construction, not a request path — the unconditional first write of a segment just created at a live server
            .expect("root format cannot fail");
        cluster.run_until_quiet();
        DeceitFs { cluster, cfg, root: FileHandle::new(root_seg) }
    }

    /// A file service with default configs — the common test fixture.
    pub fn with_defaults(servers: usize) -> Self {
        DeceitFs::new(servers, ClusterConfig::deterministic(), FsConfig::default())
    }

    /// The root directory handle (what `mount` returns).
    pub fn root(&self) -> FileHandle {
        self.root
    }

    /// The envelope configuration.
    pub fn config(&self) -> &FsConfig {
        &self.cfg
    }

    /// Fault-injection support: applies `f` to a segment's inode header in
    /// place, bypassing normal NFS semantics. Used by tests and the bench
    /// harness to reproduce the §5.2 corrupted-link-count scenarios ("the
    /// link counts can be corrupted by an ill timed crash").
    #[doc(hidden)]
    pub fn update_segment_for_test(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        f: impl FnOnce(&mut Inode),
    ) -> Result<SimDuration, NfsError> {
        let mut f = Some(f);
        Ok(self.update_inode(via, fh, |inode| {
            if let Some(f) = f.take() {
                f(inode);
            }
        })?)
    }
}

/// NFS-visible attributes from a loaded inode.
pub(crate) fn attr_from(
    fh: FileHandle,
    inode: &Inode,
    payload_len: usize,
    version: VersionPair,
) -> FileAttr {
    FileAttr {
        handle: fh,
        ftype: FileType::from_byte(inode.ftype).unwrap_or(FileType::Regular),
        mode: inode.mode,
        nlink: inode.nlink,
        uid: inode.uid,
        gid: inode.gid,
        size: payload_len,
        version,
        mtime: inode.mtime,
        ctime: inode.ctime,
    }
}

// ----------------------------------------------------------------------
// The segment-I/O seam
// ----------------------------------------------------------------------

/// Why an operation body stopped without a value.
#[derive(Debug)]
pub(crate) enum Stop<D> {
    /// The operation failed: the error is the reply, in every mode.
    Fail(NfsError),
    /// This access mode cannot answer; the host retries under a
    /// stronger one.
    Decline(D),
}

impl<D> From<NfsError> for Stop<D> {
    fn from(e: NfsError) -> Self {
        Stop::Fail(e)
    }
}

impl<D> From<DeceitError> for Stop<D> {
    fn from(e: DeceitError) -> Self {
        Stop::Fail(e.into())
    }
}

/// Exclusive access never declines, so its stops are plain errors.
impl From<Stop<Infallible>> for NfsError {
    fn from(stop: Stop<Infallible>) -> Self {
        match stop {
            Stop::Fail(e) => e,
            Stop::Decline(never) => match never {},
        }
    }
}

/// An operation's outcome in an access mode that declines with `D`.
pub(crate) type Served<T, D> = Result<OpResult<T>, Stop<D>>;

/// A loaded segment: (inode, client-visible payload, version, latency).
pub(crate) type Loaded = (Inode, Bytes, VersionPair, SimDuration);

/// A finished read-modify-write: the inode and payload length as
/// stored (or as loaded, when the mutation declined to write), the
/// resulting version pair, and the latency.
pub(crate) type Updated = (Inode, usize, VersionPair, SimDuration);

/// How one access mode reaches the segment service. The required
/// methods are the only places the modes differ; the provided plumbing
/// (load, store, the §5.1 restart loop) is written once on top of them.
pub(crate) trait SegIo {
    /// What a decline carries: [`Infallible`] for exclusive access,
    /// which answers everything, `()` for the others.
    type Decline;

    /// The file service behind this access.
    fn fs(&self) -> &DeceitFs;

    /// Reads a whole segment, inode header included.
    fn read_whole(&mut self, via: NodeId, fh: FileHandle) -> Served<ReadData, Self::Decline>;

    /// Reads a segment outside the caller's lock footprint — a
    /// `LOOKUP`'s child. Every mode but ring holds whatever it reads.
    fn read_unlocked(&mut self, via: NodeId, fh: FileHandle) -> Served<ReadData, Self::Decline> {
        self.read_whole(via, fh)
    }

    /// Replaces a segment's contents, conditionally on `expected`.
    fn write_whole(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        buf: Bytes,
        expected: Option<VersionPair>,
    ) -> Served<VersionPair, Self::Decline>;

    /// Lets protocol time pass (the §5.1 restart backoff).
    fn backoff(&mut self, d: SimDuration);

    /// Reads a file's semantic parameters.
    fn get_params(&mut self, via: NodeId, fh: FileHandle) -> Served<FileParams, Self::Decline>;

    /// Sets a file's semantic parameters (§4).
    fn set_params(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        params: FileParams,
    ) -> Served<(), Self::Decline>;

    /// Errors unless `via` is a live server.
    fn check_up(&self, via: NodeId) -> Result<(), Stop<Self::Decline>> {
        Ok(self.fs().cluster.check_up(via)?)
    }

    /// A mutation's reply attributes, assembled from the update's
    /// result: under the caller's locks nothing else can change the file
    /// in between, so this *is* what a re-read would see.
    fn updated_attr(
        &mut self,
        _via: NodeId,
        fh: FileHandle,
        (inode, len, version, latency): Updated,
    ) -> Served<FileAttr, Self::Decline> {
        Ok(OpResult { value: attr_from(fh, &inode, len, version), latency })
    }

    /// The whole file service, for requests only exclusive access can
    /// serve (their footprint escapes any declared lock set).
    fn exclusive(&mut self) -> Result<&mut DeceitFs, Self::Decline>;

    /// Reads a whole segment and splits it into (inode, payload,
    /// version).
    fn load(&mut self, via: NodeId, fh: FileHandle) -> Result<Loaded, Stop<Self::Decline>> {
        Ok(split(self.read_whole(via, fh)?)?)
    }

    /// Loads a directory segment's entry table.
    fn load_dir(
        &mut self,
        via: NodeId,
        fh: FileHandle,
    ) -> Result<(Inode, Directory, VersionPair, SimDuration), Stop<Self::Decline>> {
        let (inode, payload, version, latency) = self.load(via, fh)?;
        if inode.ftype != FileType::Directory.to_byte() {
            return Err(NfsError::NotDir.into());
        }
        let table = Directory::decode(&payload).map_err(NfsError::Corrupt)?;
        Ok((inode, table, version, latency))
    }

    /// Writes a segment's inode + payload conditionally on `expected`.
    fn store(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        inode: &Inode,
        payload: &[u8],
        expected: Option<VersionPair>,
    ) -> Result<(VersionPair, SimDuration), Stop<Self::Decline>> {
        let w = self.write_whole(via, fh, Patch::replace(payload).build(inode, &[]), expected)?;
        Ok((w.value, w.latency))
    }

    /// Rewrites a segment's inode header in place (the payload is kept)
    /// under the §5.1 restart loop, returning the latency.
    fn update_inode(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        mut f: impl FnMut(&mut Inode),
    ) -> Result<SimDuration, Stop<Self::Decline>> {
        let updated = self.update_segment(via, fh, |inode, payload| {
            f(inode);
            Ok(Some(Patch::keep(payload)))
        })?;
        Ok(updated.3)
    }

    /// Runs a read-modify-write on a segment with the §5.1 restart loop.
    /// `mutate` returns `Ok(Some(patch))` to write the loaded payload
    /// patched, `Ok(None)` to leave the segment untouched. The new
    /// segment is built once, into one exact-size buffer that the engine
    /// then shares with every replica.
    fn update_segment<'a>(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        mut mutate: impl FnMut(&mut Inode, &Bytes) -> Result<Option<Patch<'a>>, NfsError>,
    ) -> Result<Updated, Stop<Self::Decline>> {
        let mut latency = SimDuration::ZERO;
        for attempt in 0..self.fs().cfg.occ_retries.max(1) {
            let (mut inode, payload, version, l1) = self.load(via, fh)?;
            latency += l1;
            let Some(patch) = mutate(&mut inode, &payload)? else {
                return Ok((inode, payload.len(), version, latency));
            };
            let segment = patch.build(&inode, &payload);
            match self.write_whole(via, fh, segment, Some(version)) {
                Ok(w) => return Ok((inode, patch.len, w.value, latency + w.latency)),
                Err(Stop::Fail(NfsError::Io(DeceitError::VersionConflict { .. }))) => {
                    self.fs().cluster.stats.incr("nfs/occ_restarts");
                    // §5.1: "the whole operation is restarted." Restarting
                    // takes real time — back off so asynchronously
                    // propagating updates can land before the re-read (a
                    // zero-time retry against a write-behind replica would
                    // spin on the same stale version).
                    let backoff = SimDuration::from_millis(10 * (attempt as u64 + 1));
                    self.backoff(backoff);
                    latency += backoff;
                }
                Err(e) => return Err(e),
            }
        }
        Err(NfsError::Busy.into())
    }
}

/// A read-modify-write's new payload, described against the loaded one:
/// the loaded payload cut or zero-extended to `len` bytes, with `data`
/// written at `at`. Describing it instead of materializing it lets
/// [`Patch::build`] write each byte of the new segment exactly once.
pub(crate) struct Patch<'a> {
    len: usize,
    at: usize,
    data: Cow<'a, [u8]>,
}

impl<'a> Patch<'a> {
    /// The loaded payload unchanged (an inode-only update).
    pub(crate) fn keep(payload: &[u8]) -> Self {
        Patch::resize(payload.len())
    }

    /// The loaded payload cut or zero-extended to `len` bytes.
    pub(crate) fn resize(len: usize) -> Self {
        Patch { len, at: 0, data: Cow::Borrowed(&[]) }
    }

    /// `data` written at `at` over a `payload_len`-byte payload,
    /// zero-filling any gap and extending the payload as needed.
    pub(crate) fn write(payload_len: usize, at: usize, data: &'a [u8]) -> Self {
        Patch { len: payload_len.max(at + data.len()), at, data: Cow::Borrowed(data) }
    }

    /// An entirely new payload.
    pub(crate) fn replace(data: impl Into<Cow<'a, [u8]>>) -> Self {
        let data = data.into();
        Patch { len: data.len(), at: 0, data }
    }

    /// The segment `inode`'s header followed by this patch applied to
    /// `old`, built in one buffer of exactly the segment's size.
    pub(crate) fn build(&self, inode: &Inode, old: &[u8]) -> Bytes {
        let hdr = inode.encoded_len();
        let end = self.at + self.data.len();
        let mut buf = Vec::with_capacity(hdr + self.len);
        inode.encode_into(&mut buf);
        buf.extend_from_slice(&old[..self.at.min(old.len())]);
        buf.resize(hdr + self.at, 0);
        buf.extend_from_slice(&self.data);
        buf.extend_from_slice(old.get(end..self.len.min(old.len())).unwrap_or_default());
        buf.resize(hdr + self.len, 0);
        buf.into()
    }
}

/// Splits a whole-segment read into (inode, payload, version, latency).
pub(crate) fn split(read: OpResult<ReadData>) -> Result<Loaded, NfsError> {
    let (inode, hdr_len) = Inode::decode(&read.value.data)?;
    Ok((inode, read.value.data.slice(hdr_len..), read.value.version, read.latency))
}

/// Exclusive access: the full protocol through `&mut Cluster`.
impl SegIo for DeceitFs {
    type Decline = Infallible;

    fn fs(&self) -> &DeceitFs {
        self
    }

    /// Straight to the full protocol read, with no snapshot shortcut:
    /// forwarding, group joins, cache updates and clock accounting
    /// always run, as the simulator's figures assume.
    fn read_whole(&mut self, via: NodeId, fh: FileHandle) -> Served<ReadData, Infallible> {
        Ok(self.cluster.read(via, fh.seg, fh.version, 0, WHOLE_SEGMENT)?)
    }

    fn write_whole(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        buf: Bytes,
        expected: Option<VersionPair>,
    ) -> Served<VersionPair, Infallible> {
        Ok(self.cluster.write(via, fh.seg, WriteOp::Replace(buf), expected)?)
    }

    fn backoff(&mut self, d: SimDuration) {
        self.cluster.advance(d);
    }

    fn get_params(&mut self, via: NodeId, fh: FileHandle) -> Served<FileParams, Infallible> {
        Ok(self.cluster.get_params(via, fh.seg)?)
    }

    fn set_params(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        params: FileParams,
    ) -> Served<(), Infallible> {
        Ok(self.cluster.set_params(via, fh.seg, params)?)
    }

    /// Re-reads the attributes after the update (a full protocol read,
    /// charged to the reply's latency) rather than assembling them from
    /// the update's result.
    fn updated_attr(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        updated: Updated,
    ) -> Served<FileAttr, Infallible> {
        let mut out = crate::ops_read::getattr(self, via, fh)?;
        out.latency += updated.3;
        Ok(out)
    }

    fn exclusive(&mut self) -> Result<&mut DeceitFs, Infallible> {
        Ok(self)
    }
}

/// Ring access: shared cell access plus the ring locks of `slots` (the
/// slots of the request's `OpClass`). Every cluster call fires deferred
/// work only within those slots.
pub(crate) struct Ring<'a> {
    /// The file service, shared.
    pub fs: &'a DeceitFs,
    /// The ring-lock slots the caller holds.
    pub slots: &'a [usize],
}

impl SegIo for Ring<'_> {
    type Decline = ();

    fn fs(&self) -> &DeceitFs {
        self.fs
    }

    /// The snapshot reads first, then the full read protocol —
    /// forwarding, group joins, LRU touches — scoped to the held slots.
    fn read_whole(&mut self, via: NodeId, fh: FileHandle) -> Served<ReadData, ()> {
        match self.read_unlocked(via, fh) {
            Err(Stop::Decline(())) => {
                let c = &self.fs.cluster;
                Ok(c.read_sharded(self.slots, via, fh.seg, fh.version, 0, WHOLE_SEGMENT)?)
            }
            snapshot => snapshot,
        }
    }

    /// The single-acquisition snapshot reads only — a local stable
    /// replica, then the token holder's primary copy (the steady state
    /// of a write stream). The full read protocol mutates the file's
    /// slot state, and the caller does not hold that slot's lock, so a
    /// child no snapshot serves declines.
    fn read_unlocked(&mut self, via: NodeId, fh: FileHandle) -> Served<ReadData, ()> {
        let c = &self.fs.cluster;
        c.try_read_local(via, fh.seg, fh.version, 0, WHOLE_SEGMENT)
            .or_else(|| c.try_read_primary(via, fh.seg, fh.version, 0, WHOLE_SEGMENT))
            .ok_or(Stop::Decline(()))
    }

    fn write_whole(
        &mut self,
        via: NodeId,
        fh: FileHandle,
        buf: Bytes,
        expected: Option<VersionPair>,
    ) -> Served<VersionPair, ()> {
        Ok(self.fs.cluster.write_sharded(
            self.slots,
            via,
            fh.seg,
            WriteOp::Replace(buf),
            expected,
        )?)
    }

    /// Only the held slots' deferred work fires during the backoff.
    fn backoff(&mut self, d: SimDuration) {
        self.fs.cluster.advance_sharded(self.slots, d);
    }

    fn get_params(&mut self, via: NodeId, fh: FileHandle) -> Served<FileParams, ()> {
        Ok(self.fs.cluster.get_params_sharded(self.slots, via, fh.seg)?)
    }

    fn set_params(&mut self, via: NodeId, fh: FileHandle, params: FileParams) -> Served<(), ()> {
        Ok(self.fs.cluster.set_params_sharded(self.slots, via, fh.seg, params)?)
    }

    fn exclusive(&mut self) -> Result<&mut DeceitFs, ()> {
        Err(())
    }
}

/// Shared access: the shared cell lock alone, concurrent with every
/// other reader. It answers exactly when the serving server can read
/// every segment involved locally, and answers deterministic errors
/// (a missing name, a type mismatch, a corrupt segment) itself; every
/// failure that depends on cluster state declines to a stronger mode.
pub(crate) struct SharedAccess<'a>(pub &'a DeceitFs);

impl SegIo for SharedAccess<'_> {
    type Decline = ();

    fn fs(&self) -> &DeceitFs {
        self.0
    }

    /// A local stable replica — or, under
    /// `ClusterConfig::opt_read_leases`, the token holder's own leased
    /// copy mid-write-stream (§3.4) — or a decline.
    fn read_whole(&mut self, via: NodeId, fh: FileHandle) -> Served<ReadData, ()> {
        self.0
            .cluster
            .try_read_local(via, fh.seg, fh.version, 0, WHOLE_SEGMENT)
            .ok_or(Stop::Decline(()))
    }

    fn write_whole(
        &mut self,
        _via: NodeId,
        _fh: FileHandle,
        _buf: Bytes,
        _expected: Option<VersionPair>,
    ) -> Served<VersionPair, ()> {
        Err(Stop::Decline(()))
    }

    /// Never reached: shared access declines every write first.
    fn backoff(&mut self, _d: SimDuration) {}

    fn get_params(&mut self, _via: NodeId, _fh: FileHandle) -> Served<FileParams, ()> {
        Err(Stop::Decline(()))
    }

    fn set_params(&mut self, _via: NodeId, _fh: FileHandle, _p: FileParams) -> Served<(), ()> {
        Err(Stop::Decline(()))
    }

    /// A down server declines, so the exclusive path reports it.
    fn check_up(&self, via: NodeId) -> Result<(), Stop<()>> {
        self.0.cluster.check_up(via).map_err(|_| Stop::Decline(()))
    }

    fn exclusive(&mut self) -> Result<&mut DeceitFs, ()> {
        Err(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The patched payload built the slow way: copy, resize, overwrite.
    fn naive(old: &[u8], len: usize, at: usize, data: &[u8]) -> Vec<u8> {
        let mut v = old.to_vec();
        v.resize(len, 0);
        v[at..at + data.len()].copy_from_slice(data);
        v
    }

    #[test]
    fn patch_builds_header_and_payload_in_one_exact_buffer() {
        let inode = Inode::new(FileType::Regular.to_byte(), 0o644, 7);
        let hdr = inode.encode();
        let old = b"0123456789";
        let cases: [(Patch, Vec<u8>); 7] = [
            (Patch::keep(old), old.to_vec()),
            (Patch::resize(4), naive(old, 4, 0, b"")),
            (Patch::resize(13), naive(old, 13, 0, b"")),
            (Patch::write(old.len(), 2, b"ab"), naive(old, 10, 2, b"ab")),
            (Patch::write(old.len(), 8, b"abcd"), naive(old, 12, 8, b"abcd")),
            (Patch::write(old.len(), 14, b"z"), naive(old, 15, 14, b"z")),
            (Patch::replace(b"new".to_vec()), b"new".to_vec()),
        ];
        for (i, (patch, payload)) in cases.into_iter().enumerate() {
            let built = patch.build(&inode, old);
            assert_eq!(built.len(), hdr.len() + payload.len(), "case {i}");
            assert_eq!(&built[..hdr.len()], &hdr[..], "case {i}");
            assert_eq!(&built[hdr.len()..], &payload[..], "case {i}");
            assert_eq!(patch.len, payload.len(), "case {i}");
        }
    }
}
