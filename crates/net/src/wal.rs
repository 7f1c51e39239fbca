//! Write-ahead log for the coordinator's matrix state.
//!
//! Losing the matrix `M` strands every stream: the paper's repair story
//! (Theorems 4–5) assumes the server can always splice a failed node out,
//! and a coordinator that forgets `M` turns every complaint into a fatal
//! "unknown child". This module makes the mutations durable.
//!
//! ## Format
//!
//! The log is a flat sequence of length-prefixed, checksummed records:
//!
//! ```text
//! [u32 LE payload length][u64 LE FNV-1a of payload][payload]
//! ```
//!
//! where the payload is one [`WalRecord`] as a single JSON object. What a
//! record means and how it renders is [`crate::core::record`]'s business;
//! this module is about the file: framing, `open`/`append`/`sync`/
//! `compact`, and the [`WalStore`] seam tests substitute a fake through.
//! A payload over [`MAX_RECORD`] bytes is refused on the way in, so the
//! log never holds a frame its own reader would stop at.
//!
//! ## Durability semantics
//!
//! [`Wal::append`] buffers in the OS; [`Wal::sync`] fsyncs. The
//! coordinator group-commits: concurrent mutations park on a commit queue
//! and one fsync covers the whole admitted batch, with each response
//! withheld until its batch is durable. A torn tail — a record cut
//! mid-write by a crash — is expected and tolerated: [`Wal::open`] replays
//! the longest valid prefix, truncates the garbage, and resumes appending
//! after it.
//!
//! ## Compaction
//!
//! Every mutation appends forever, so once the log passes
//! [`Wal::compact_threshold`] the coordinator rewrites it as a single
//! [`WalRecord::Checkpoint`] (the full state, including the overlay
//! snapshot JSON from `CurtainServer::to_json`). The rewrite goes to a
//! temp file, is fsync'd, and is renamed over the log — a crash at any
//! point leaves either the old log or the new one, never neither.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};

use crate::core::record::Record;

/// Largest payload a frame may carry. The reader refuses longer length
/// prefixes (a torn header can claim anything), so the writer does too.
pub(crate) const MAX_RECORD: u32 = 16 * 1024 * 1024;
/// Bytes of framing per record (length prefix + checksum).
const HEADER_LEN: usize = 4 + 8;

/// 64-bit FNV-1a over the payload bytes.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The record the log frames: [`Record`] at the TCP driver's address type.
/// Its meaning and its JSON form live in [`crate::core::record`]; this
/// module only knows how to put one on disk and read it back.
pub type WalRecord = Record<SocketAddr>;

/// Where a coordinator's WAL lives, when it compacts, and what a failed
/// log does to mutating requests.
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Log file path (created if absent).
    pub path: PathBuf,
    /// Compaction trigger in bytes (see [`Wal::compact`]).
    pub compact_threshold: u64,
    /// Refuse mutating requests (with `Response::Unavailable`) once the
    /// WAL has failed, instead of serving from memory in degraded mode.
    pub strict: bool,
}

impl WalOptions {
    /// Options for `path` with the default compaction threshold and
    /// strict mode off.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        WalOptions {
            path: path.into(),
            compact_threshold: Wal::DEFAULT_COMPACT_THRESHOLD,
            strict: false,
        }
    }

    /// Overrides the compaction threshold (tests use tiny ones to force
    /// compaction quickly).
    #[must_use]
    pub fn with_compact_threshold(mut self, bytes: u64) -> Self {
        self.compact_threshold = bytes;
        self
    }

    /// Selects strict mode: degraded coordinators refuse mutations.
    #[must_use]
    pub fn with_strict(mut self, on: bool) -> Self {
        self.strict = on;
        self
    }
}

/// The WAL operations the coordinator's commit path needs, as a trait so
/// tests (and benchmarks) can inject fault- or latency-wrapped stores.
/// [`Wal`] is the canonical implementation.
pub trait WalStore: Send {
    /// Appends one record (unsynced).
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    fn append(&mut self, record: &WalRecord) -> io::Result<()>;

    /// Makes everything appended so far durable.
    ///
    /// # Errors
    ///
    /// Propagates fsync errors.
    fn sync(&mut self) -> io::Result<()>;

    /// Atomically rewrites the log as `checkpoint`.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors; the old log must survive failure.
    fn compact(&mut self, checkpoint: &WalRecord) -> io::Result<()>;

    /// Bytes currently in the log.
    fn bytes(&self) -> u64;

    /// Records appended through this handle.
    fn records(&self) -> u64;

    /// Whether the log has outgrown its compaction threshold.
    fn needs_compaction(&self) -> bool;
}

impl WalStore for Wal {
    fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        Wal::append(self, record)
    }

    fn sync(&mut self) -> io::Result<()> {
        Wal::sync(self)
    }

    fn compact(&mut self, checkpoint: &WalRecord) -> io::Result<()> {
        Wal::compact(self, checkpoint)
    }

    fn bytes(&self) -> u64 {
        Wal::bytes(self)
    }

    fn records(&self) -> u64 {
        Wal::records(self)
    }

    fn needs_compaction(&self) -> bool {
        Wal::needs_compaction(self)
    }
}

/// An open write-ahead log positioned for appending.
pub struct Wal {
    path: PathBuf,
    file: File,
    bytes: u64,
    records: u64,
    compact_threshold: u64,
}

impl Wal {
    /// Default [`Wal::compact_threshold`]: 512 KiB.
    pub const DEFAULT_COMPACT_THRESHOLD: u64 = 512 * 1024;

    /// Opens (creating if absent) the log at `path`, replaying every valid
    /// record and truncating any torn tail. Returns the replayed records
    /// and the log positioned for appending after them.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors. A corrupt *tail* is not an error
    /// (it is the expected crash artifact); corruption is only surfaced by
    /// the shorter-than-expected record list.
    pub fn open(path: impl AsRef<Path>, compact_threshold: u64) -> io::Result<(Vec<WalRecord>, Self)> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        let (records, valid_len) = decode_all(&raw);
        if (valid_len as u64) < raw.len() as u64 {
            file.set_len(valid_len as u64)?;
        }
        file.seek(SeekFrom::Start(valid_len as u64))?;
        Ok((
            records,
            Wal {
                path,
                file,
                bytes: valid_len as u64,
                records: 0,
                compact_threshold,
            },
        ))
    }

    /// Creates a fresh, empty log at `path` (truncating any existing one).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn create(path: impl AsRef<Path>, compact_threshold: u64) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(Wal { path, file, bytes: 0, records: 0, compact_threshold })
    }

    /// Appends one record (unsynced — call [`Wal::sync`] to make the batch
    /// durable).
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a payload over [`MAX_RECORD`] (nothing is
    /// written); otherwise propagates write errors.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        let frame = frame_of(record)?;
        self.file.write_all(&frame)?;
        self.bytes += frame.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// Fsyncs everything appended so far.
    ///
    /// # Errors
    ///
    /// Propagates fsync errors.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Bytes currently in the log.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records appended through this handle (excludes replayed history).
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The compaction trigger: once [`Wal::bytes`] exceeds this, the owner
    /// should call [`Wal::compact`] with a fresh checkpoint.
    #[must_use]
    pub fn compact_threshold(&self) -> u64 {
        self.compact_threshold
    }

    /// Whether the log has outgrown its threshold.
    #[must_use]
    pub fn needs_compaction(&self) -> bool {
        self.bytes > self.compact_threshold
    }

    /// Rewrites the log as the single `checkpoint` record, atomically
    /// (temp file + fsync + rename), and repositions for appending.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a payload over [`MAX_RECORD`]; otherwise
    /// propagates file-system errors. On error the old log is untouched.
    pub fn compact(&mut self, checkpoint: &WalRecord) -> io::Result<()> {
        let frame = frame_of(checkpoint)?;
        let tmp_path = self.path.with_extension("wal.tmp");
        let mut tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        tmp.write_all(&frame)?;
        tmp.sync_all()?;
        std::fs::rename(&tmp_path, &self.path)?;
        self.file = tmp;
        self.bytes = frame.len() as u64;
        self.records += 1;
        Ok(())
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("bytes", &self.bytes)
            .finish()
    }
}

/// The frame for `record`, refusing a payload [`decode_all`] would stop
/// at — before the caller has touched the file.
fn frame_of(record: &WalRecord) -> io::Result<Vec<u8>> {
    let payload = record.to_json();
    if payload.len() > MAX_RECORD as usize {
        let msg = format!("wal record of {} bytes exceeds {MAX_RECORD}", payload.len());
        return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
    }
    Ok(encode(payload.as_bytes()))
}

fn encode(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&u32::try_from(payload.len()).expect("record size").to_le_bytes());
    frame.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Decodes the longest valid record prefix; returns the records and the
/// byte offset where validity ends (torn-tail truncation point).
fn decode_all(raw: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while raw.len() - offset >= HEADER_LEN {
        let len = u32::from_le_bytes(raw[offset..offset + 4].try_into().expect("4 bytes"));
        if len > MAX_RECORD {
            break;
        }
        let sum = u64::from_le_bytes(raw[offset + 4..offset + 12].try_into().expect("8 bytes"));
        let start = offset + HEADER_LEN;
        let Some(end) = start.checked_add(len as usize).filter(|e| *e <= raw.len()) else {
            break; // torn mid-payload
        };
        let payload = &raw[start..end];
        if fnv1a64(payload) != sum {
            break;
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break;
        };
        let Ok(record) = WalRecord::parse_json(text) else {
            break;
        };
        records.push(record);
        offset = end;
    }
    (records, offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::record::SourceInfo;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::RegisterSource(SourceInfo {
                addr: addr(9000),
                generations: 4,
                generation_size: 32,
                packet_len: 256,
                content_len: 32_768,
            }),
            WalRecord::Hello {
                node: 0,
                position: 0,
                threads: vec![1, 3],
                data_addr: addr(9001),
            },
            WalRecord::Hello {
                node: 1,
                position: 1,
                threads: vec![0, 2],
                data_addr: addr(9002),
            },
            WalRecord::Resync { node: 7, threads: vec![0, 1], data_addr: addr(9007) },
            WalRecord::Completed { node: 1 },
            WalRecord::Goodbye { node: 1 },
            WalRecord::Splice { node: 0 },
            WalRecord::Checkpoint {
                server: r#"{"k":4}"#.into(),
                addrs: vec![(7, addr(9007))],
                source: Some(SourceInfo {
                    addr: addr(9000),
                    generations: 4,
                    generation_size: 32,
                    packet_len: 256,
                    content_len: 32_768,
                }),
                completed: vec![1],
                epoch: 1_700_000_000_000,
            },
            WalRecord::Checkpoint {
                server: "{}".into(),
                addrs: vec![],
                source: None,
                completed: vec![],
                epoch: 0,
            },
        ]
    }

    #[test]
    fn record_json_round_trips() {
        for r in sample_records() {
            let s = r.to_json();
            assert_eq!(WalRecord::parse_json(&s).expect(&s), r, "payload: {s}");
        }
    }

    #[test]
    fn append_sync_reopen_replays_everything() {
        let dir = std::env::temp_dir().join(format!("curtain-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("replay.wal");
        let records = sample_records();
        {
            let mut wal = Wal::create(&path, 1 << 20).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
            wal.sync().unwrap();
            assert_eq!(wal.records(), records.len() as u64);
        }
        let (replayed, wal) = Wal::open(&path, 1 << 20).unwrap();
        assert_eq!(replayed, records);
        assert!(wal.bytes() > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = std::env::temp_dir().join(format!("curtain-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.wal");
        {
            let mut wal = Wal::create(&path, 1 << 20).unwrap();
            wal.append(&WalRecord::Goodbye { node: 1 }).unwrap();
            wal.append(&WalRecord::Goodbye { node: 2 }).unwrap();
            wal.sync().unwrap();
        }
        // Simulate a crash mid-write: chop the last record in half, then
        // smear garbage over the cut.
        let full = std::fs::read(&path).unwrap();
        let cut = full.len() - 7;
        let mut torn = full[..cut].to_vec();
        torn.extend_from_slice(&[0xFF; 3]);
        std::fs::write(&path, &torn).unwrap();

        let (replayed, mut wal) = Wal::open(&path, 1 << 20).unwrap();
        assert_eq!(replayed, vec![WalRecord::Goodbye { node: 1 }]);
        // Appending after the truncation yields a clean log again.
        wal.append(&WalRecord::Goodbye { node: 3 }).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (replayed, _) = Wal::open(&path, 1 << 20).unwrap();
        assert_eq!(
            replayed,
            vec![WalRecord::Goodbye { node: 1 }, WalRecord::Goodbye { node: 3 }]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checksum_mismatch_stops_replay() {
        let dir = std::env::temp_dir().join(format!("curtain-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.wal");
        {
            let mut wal = Wal::create(&path, 1 << 20).unwrap();
            wal.append(&WalRecord::Goodbye { node: 1 }).unwrap();
            wal.append(&WalRecord::Goodbye { node: 2 }).unwrap();
            wal.sync().unwrap();
        }
        // Flip one payload byte of the second record.
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x55;
        std::fs::write(&path, &raw).unwrap();
        let (replayed, _) = Wal::open(&path, 1 << 20).unwrap();
        assert_eq!(replayed, vec![WalRecord::Goodbye { node: 1 }]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_rewrites_to_one_checkpoint() {
        let dir = std::env::temp_dir().join(format!("curtain-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("compact.wal");
        let mut wal = Wal::create(&path, 64).unwrap(); // tiny threshold
        for node in 0..20 {
            wal.append(&WalRecord::Goodbye { node }).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.needs_compaction());
        let checkpoint = WalRecord::Checkpoint {
            server: r#"{"k":4,"rows":[]}"#.into(),
            addrs: vec![(3, addr(9100))],
            source: None,
            completed: vec![3],
            epoch: 21,
        };
        let before = wal.bytes();
        wal.compact(&checkpoint).unwrap();
        assert!(wal.bytes() < before, "compaction must shrink the log");
        // Appends continue after the checkpoint.
        wal.append(&WalRecord::Goodbye { node: 99 }).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (replayed, _) = Wal::open(&path, 64).unwrap();
        assert_eq!(replayed, vec![checkpoint, WalRecord::Goodbye { node: 99 }]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn over_limit_records_are_refused_before_the_file_is_touched() {
        let dir = std::env::temp_dir().join(format!("curtain-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("overlimit.wal");
        let kept: Vec<WalRecord> = (0..3).map(|node| WalRecord::Goodbye { node }).collect();
        let mut wal = Wal::create(&path, 1 << 20).unwrap();
        for r in &kept {
            wal.append(r).unwrap();
        }
        wal.sync().unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        // One byte more than the reader accepts: acknowledged as durable,
        // this checkpoint would reopen as an empty log.
        let huge = WalRecord::Checkpoint {
            server: "x".repeat(MAX_RECORD as usize + 1),
            addrs: vec![],
            source: None,
            completed: vec![],
            epoch: 0,
        };
        for refused in [wal.append(&huge), wal.compact(&huge)] {
            assert_eq!(refused.unwrap_err().kind(), io::ErrorKind::InvalidInput);
        }
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
        assert_eq!(wal.bytes(), len);
        drop(wal);
        let (replayed, _) = Wal::open(&path, 1 << 20).unwrap();
        assert_eq!(replayed, kept);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_and_missing_logs_open_clean() {
        let dir = std::env::temp_dir().join(format!("curtain-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fresh.wal");
        let _ = std::fs::remove_file(&path);
        let (replayed, wal) = Wal::open(&path, 1 << 20).unwrap();
        assert!(replayed.is_empty());
        assert_eq!(wal.bytes(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pre_epoch_checkpoint_parses_with_zero_epoch() {
        // A checkpoint payload written before the epoch field existed.
        let legacy = r#"{"addrs":[],"completed":[],"rec":"checkpoint","server":"{}","source":null}"#;
        let parsed = WalRecord::parse_json(legacy).unwrap();
        assert_eq!(
            parsed,
            WalRecord::Checkpoint {
                server: "{}".into(),
                addrs: vec![],
                source: None,
                completed: vec![],
                epoch: 0,
            }
        );
    }

    /// Crash-point sweep over `Wal::compact`'s tmp+fsync+rename sequence.
    ///
    /// Before the rename lands, the on-disk truth is the *old* log plus an
    /// arbitrary prefix of the tmp file; after it, the new checkpoint.
    /// For every prefix length of the tmp frame we reconstruct both disk
    /// states a crash could leave and assert `Wal::open` replays either
    /// the full old history or exactly the checkpoint — never a torn
    /// hybrid, never an error.
    #[test]
    fn compact_crash_points_leave_old_or_new_log_never_torn() {
        let dir = std::env::temp_dir().join(format!("curtain-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("crashpoints.wal");
        let old: Vec<WalRecord> = (0..6).map(|node| WalRecord::Goodbye { node }).collect();
        let old_bytes: Vec<u8> = old.iter().flat_map(|r| encode(r.to_json().as_bytes())).collect();
        let checkpoint = WalRecord::Checkpoint {
            server: r#"{"k":4,"rows":[]}"#.into(),
            addrs: vec![(5, addr(9400))],
            source: None,
            completed: vec![5],
            epoch: 99,
        };
        let new_frame = encode(checkpoint.to_json().as_bytes());
        for cut in 0..=new_frame.len() {
            // Crash before the rename: old log intact, tmp partially
            // written. The tmp file is invisible to recovery (open never
            // reads `.wal.tmp`), so we only need the old log to survive.
            std::fs::write(&path, &old_bytes).unwrap();
            std::fs::write(path.with_extension("wal.tmp"), &new_frame[..cut]).unwrap();
            let (replayed, _) = Wal::open(&path, 1 << 20).unwrap();
            assert_eq!(replayed, old, "pre-rename crash at tmp byte {cut} lost history");

            // Crash after a rename of that same partial tmp. A real crash
            // only renames a *synced* (complete) tmp, but the log format
            // must still degrade safely: a torn checkpoint frame replays
            // as empty (superseded state is gone but the file is valid),
            // and the complete frame replays as exactly the checkpoint.
            std::fs::write(&path, &new_frame[..cut]).unwrap();
            let (replayed, _) = Wal::open(&path, 1 << 20).unwrap();
            if cut == new_frame.len() {
                assert_eq!(replayed, vec![checkpoint.clone()]);
            } else {
                assert!(replayed.is_empty(), "torn checkpoint prefix {cut} replayed records");
            }
        }
        let _ = std::fs::remove_file(path.with_extension("wal.tmp"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
