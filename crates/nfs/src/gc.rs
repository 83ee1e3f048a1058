//! Link counting and garbage collection (§5.2).
//!
//! "The NFS envelope attempts to maintain the property that if file f is
//! in directory d, then d is in the uplink list of some version of f. …
//! Deceit also keeps a standard hard link count with f, but it is only
//! considered to be a hint. When the link count goes to zero, the NFS
//! envelope checks every available version of every directory in the
//! uplink list. If none have a link to the file, the segment is
//! deallocated; otherwise, the link count is corrected."

use deceit_core::VersionInfo;
use deceit_net::NodeId;
use deceit_sim::SimDuration;

use crate::dir::Directory;
use crate::fs::{DeceitFs, NfsError, SegIo, WHOLE_SEGMENT};
use crate::handle::FileHandle;
use crate::inode::Inode;

/// Runs the zero-link-count check on `target`: deallocate if truly
/// unlinked, otherwise correct the hint. Returns the time spent.
pub fn collect_if_unlinked(
    fs: &mut DeceitFs,
    via: NodeId,
    target: FileHandle,
) -> Result<SimDuration, NfsError> {
    let (versions, mut latency) = uplink_versions(fs, via, target)?;
    // Count entries, not directories: two hard links from the same
    // directory are two links.
    let true_links: usize = versions
        .iter()
        .map(|(_, table)| table.entries().iter().filter(|e| e.handle.seg == target.seg).count())
        .sum();
    if true_links == 0 {
        // Deallocate the segment.
        let del = fs.cluster.delete(via, target.seg)?;
        latency += del.latency;
        fs.cluster.stats.incr("nfs/gc/deallocated");
    } else {
        // The hint was wrong: correct it (§5.2 "the link count is
        // corrected").
        latency += fs.update_inode(via, target, |inode| inode.nlink = true_links as u32)?;
        fs.cluster.stats.incr("nfs/gc/corrected");
    }
    Ok(latency)
}

/// Computes the paper's Figure 7 quantity for a file: the total number of
/// *link copies*, "where every replica of every version of a directory
/// referring to the file is counted once".
pub fn total_link_copies(
    fs: &mut DeceitFs,
    via: NodeId,
    target: FileHandle,
) -> Result<u64, NfsError> {
    let (versions, _) = uplink_versions(fs, via, target)?;
    // Count one per replica of each version that links to the file.
    let linking = versions.iter().filter(|(_, table)| table.links_to(target.seg));
    Ok(linking.map(|(v, _)| v.holders.len() as u64).sum())
}

/// Every available version of every directory in `target`'s uplink
/// list, with its entry table and the time spent reading them all.
/// Directories that are gone and versions that cannot be read or
/// decoded are skipped.
fn uplink_versions(
    fs: &mut DeceitFs,
    via: NodeId,
    target: FileHandle,
) -> Result<(Vec<(VersionInfo, Directory)>, SimDuration), NfsError> {
    let (inode, _, _, mut latency) = fs.load(via, target)?;
    let mut found = Vec::new();
    for dir_seg in inode.uplinks {
        let Ok(versions) = fs.cluster.list_versions(via, dir_seg) else {
            continue; // directory gone entirely
        };
        latency += versions.latency;
        for v in versions.value {
            let Ok(read) = fs.cluster.read(via, dir_seg, Some(v.major), 0, WHOLE_SEGMENT) else {
                continue;
            };
            latency += read.latency;
            let Ok((_, hdr_len)) = Inode::decode(&read.value.data) else {
                continue;
            };
            let Ok(table) = Directory::decode(&read.value.data[hdr_len..]) else {
                continue;
            };
            found.push((v, table));
        }
    }
    Ok((found, latency))
}
