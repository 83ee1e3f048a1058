//! The three workloads, their seeded request streams, and the
//! self-describing blocks that let every read be checked.
//!
//! Every request is a pure function of `(seed, session, seq)`: the
//! generator is counter-based, so the checker can regenerate any
//! session's `seq`-th operation to confirm that a block it reads back was
//! really written there. The program under test only ever sees the
//! generated requests.

/// Bytes per file.
pub const FILE_BYTES: usize = 4096;
/// Bytes moved by every read and write.
pub const BLOCK: usize = 1024;
/// Blocks per file.
pub const BLOCKS: usize = FILE_BYTES / BLOCK;
/// Replicas per file (`FileParams::important(REPLICAS)`).
pub const REPLICAS: usize = 3;
/// Closed-loop client sessions (one thread each).
pub const SESSIONS: usize = 2;
/// Files each session owns in the own-file workloads.
pub const OWN_FILES: usize = 32;
/// Files shared by both sessions in `shared-pipelined`.
pub const SHARED_FILES: usize = 16;
/// Requests each session keeps in flight in `shared-pipelined`.
pub const PIPELINE_DEPTH: usize = 8;
/// Percentage of `shared-pipelined` requests that are reads.
pub const SHARED_READ_PCT: u64 = 80;

/// Session id stamped into the set-up contents of every block.
pub const SETUP_SESSION: u32 = u32::MAX;

const MAGIC: [u8; 4] = *b"DCBK";
const HEADER: usize = 32;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Each session reads random blocks of its own files.
    ReadLocal,
    /// Each session writes random blocks of its own files.
    WriteOwn,
    /// Both sessions pipeline an 80/20 read/write mix over shared files.
    SharedPipelined,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "read-local" => Some(Workload::ReadLocal),
            "write-own" => Some(Workload::WriteOwn),
            "shared-pipelined" => Some(Workload::SharedPipelined),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadLocal => "read-local",
            Workload::WriteOwn => "write-own",
            Workload::SharedPipelined => "shared-pipelined",
        }
    }

    /// Total files in the cell.
    pub fn files(self) -> usize {
        match self {
            Workload::ReadLocal | Workload::WriteOwn => SESSIONS * OWN_FILES,
            Workload::SharedPipelined => SHARED_FILES,
        }
    }

    /// Requests a session keeps in flight.
    pub fn depth(self) -> usize {
        match self {
            Workload::SharedPipelined => PIPELINE_DEPTH,
            _ => 1,
        }
    }

    /// Whether the workload ever sends reads / writes.
    pub fn sends(self, kind: Kind) -> bool {
        matches!(
            (self, kind),
            (Workload::ReadLocal, Kind::Read)
                | (Workload::WriteOwn, Kind::Write)
                | (Workload::SharedPipelined, _)
        )
    }

    /// The home-server index of the session that creates file `file`.
    /// Own files are created through their owner's home; shared files
    /// are homed round-robin across the `servers` servers.
    pub fn file_home(self, file: usize, servers: usize) -> usize {
        match self {
            Workload::ReadLocal | Workload::WriteOwn => file / OWN_FILES,
            Workload::SharedPipelined => file % servers,
        }
    }

    /// The `seq`-th operation of `session` under `seed`.
    pub fn op(self, seed: u64, session: usize, seq: u64) -> Op {
        let r = mix(seed ^ mix(((session as u64) << 48) ^ seq ^ 0x5EED));
        let block = (r % BLOCKS as u64) as usize;
        let r = r / BLOCKS as u64;
        let (kind, file) = match self {
            Workload::ReadLocal => {
                (Kind::Read, session * OWN_FILES + (r % OWN_FILES as u64) as usize)
            }
            Workload::WriteOwn => {
                (Kind::Write, session * OWN_FILES + (r % OWN_FILES as u64) as usize)
            }
            Workload::SharedPipelined => {
                let file = (r % SHARED_FILES as u64) as usize;
                let pct = (r / SHARED_FILES as u64) % 100;
                (if pct < SHARED_READ_PCT { Kind::Read } else { Kind::Write }, file)
            }
        };
        Op { kind, file, block }
    }
}

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A 1 KiB read.
    Read,
    /// A 1 KiB write.
    Write,
}

/// One generated request: what to do, to which block of which file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Read or write.
    pub kind: Kind,
    /// File index within the workload's file set.
    pub file: usize,
    /// Block index within the file.
    pub block: usize,
}

impl Op {
    /// Byte offset of the block.
    pub fn offset(&self) -> usize {
        self.block * BLOCK
    }
}

/// splitmix64's finalizer: a cheap, well-mixed counter-based generator.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The writer identity stamped into a block's header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// File index.
    pub file: u32,
    /// Block index.
    pub block: u32,
    /// Writing session, or [`SETUP_SESSION`].
    pub session: u32,
    /// The writing session's operation sequence number (0 for set-up).
    pub seq: u64,
}

/// Fills `out` (one block) with the self-describing contents of
/// `stamp`: a header naming the writer and the block, then a body
/// derived from the header and the seed.
pub fn encode(seed: u64, stamp: Stamp, out: &mut [u8]) {
    debug_assert_eq!(out.len(), BLOCK);
    out[0..4].copy_from_slice(&MAGIC);
    out[4..8].copy_from_slice(&stamp.file.to_le_bytes());
    out[8..12].copy_from_slice(&stamp.block.to_le_bytes());
    out[12..16].copy_from_slice(&stamp.session.to_le_bytes());
    out[16..24].copy_from_slice(&stamp.seq.to_le_bytes());
    out[24..32].copy_from_slice(&seed.to_le_bytes());
    let base = body_base(seed, stamp);
    for (i, word) in out[HEADER..].chunks_exact_mut(8).enumerate() {
        word.copy_from_slice(&mix(base ^ i as u64).to_le_bytes());
    }
}

fn body_base(seed: u64, s: Stamp) -> u64 {
    mix(seed
        ^ mix(u64::from(s.file) << 40 ^ u64::from(s.block) << 32 ^ u64::from(s.session))
        ^ mix(s.seq ^ 0xB10C))
}

/// Decodes a block read back from the cell, checking that it is
/// well-formed, belongs to `file`/`block`, and carries exactly the body
/// its header implies. Returns the writer's stamp.
pub fn decode(seed: u64, file: usize, block: usize, data: &[u8]) -> Result<Stamp, String> {
    if data.len() != BLOCK {
        return Err(format!("block {file}/{block}: {} bytes, wanted {BLOCK}", data.len()));
    }
    if data[0..4] != MAGIC {
        return Err(format!("block {file}/{block}: no block header"));
    }
    let u32_at =
        |at: usize| u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]]);
    let u64_at = |at: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&data[at..at + 8]);
        u64::from_le_bytes(b)
    };
    let stamp = Stamp { file: u32_at(4), block: u32_at(8), session: u32_at(12), seq: u64_at(16) };
    if stamp.file as usize != file || stamp.block as usize != block {
        return Err(format!(
            "block {file}/{block}: holds block {}/{} instead",
            stamp.file, stamp.block
        ));
    }
    if u64_at(24) != seed {
        return Err(format!("block {file}/{block}: written under another seed"));
    }
    let base = body_base(seed, stamp);
    let body_ok = data[HEADER..]
        .chunks_exact(8)
        .enumerate()
        .all(|(i, word)| word == mix(base ^ i as u64).to_le_bytes());
    if !body_ok {
        return Err(format!("block {file}/{block}: body does not match its header {stamp:?}"));
    }
    Ok(stamp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_round_trip_and_reject_corruption() {
        let stamp = Stamp { file: 3, block: 2, session: 1, seq: 77 };
        let mut buf = vec![0u8; BLOCK];
        encode(9, stamp, &mut buf);
        assert_eq!(decode(9, 3, 2, &buf), Ok(stamp));
        assert!(decode(9, 3, 1, &buf).is_err(), "wrong offset");
        assert!(decode(8, 3, 2, &buf).is_err(), "wrong seed");
        buf[500] ^= 1;
        assert!(decode(9, 3, 2, &buf).is_err(), "flipped body bit");
    }

    #[test]
    fn streams_are_seeded_and_respect_ownership() {
        for w in [Workload::ReadLocal, Workload::WriteOwn, Workload::SharedPipelined] {
            for seq in 0..1000 {
                assert_eq!(w.op(5, 1, seq), w.op(5, 1, seq));
                let op = w.op(5, 1, seq);
                assert!(op.file < w.files() && op.block < BLOCKS);
                assert!(w.sends(op.kind));
                if w != Workload::SharedPipelined {
                    assert_eq!(w.file_home(op.file, 3), 1, "own files only");
                }
            }
        }
        let differs =
            (0..100).any(|s| Workload::WriteOwn.op(1, 0, s) != Workload::WriteOwn.op(2, 0, s));
        assert!(differs, "the seed changes the stream");
        let reads = (0..10_000)
            .filter(|&s| Workload::SharedPipelined.op(3, 0, s).kind == Kind::Read)
            .count();
        assert!((7_600..8_400).contains(&reads), "80% reads, got {reads}");
    }
}
