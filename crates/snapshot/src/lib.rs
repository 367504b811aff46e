//! Versioned, checksummed containers for simulator-state snapshots,
//! plus the append-only run journal that records checkpoint lineage.
//!
//! # Container format: `tcc-snapshot/v1`
//!
//! A snapshot file is a fixed header followed by an opaque body (the
//! component-by-component state stream produced by
//! `tcc_types::snap::SnapWriter`):
//!
//! ```text
//! offset  size  field
//!      0     8  magic            b"TCCSNAP1"
//!      8     2  version          u16 LE (currently 4)
//!     10     8  config_digest    u64 LE — digest of the SystemConfig
//!     18     8  at_cycle         u64 LE — simulated cycle of capture
//!     26     8  body_len         u64 LE
//!     34     8  body_checksum    u64 LE — FNV-1a over the body bytes
//!     42     8  header_checksum  u64 LE — FNV-1a over bytes [0, 42)
//!     50   ...  body
//! ```
//!
//! The header checksum makes a torn or bit-rotted header detectable
//! before any length field is trusted; the body checksum catches
//! corruption of the state stream itself. The config is deliberately
//! *not* stored in the snapshot — a resuming process reconstructs all
//! wiring from its own `SystemConfig` and the digest gates against
//! resuming under a different configuration.
//!
//! # Run journal
//!
//! The journal is an append-only text file, one line per checkpoint:
//!
//! ```text
//! v1<TAB>seq<TAB>parent-or-dash<TAB>cycle<TAB>digest-hex<TAB>path<TAB>note
//! ```
//!
//! Appends write a complete line (terminated by `\n`) and flush; a
//! process killed mid-append leaves at most one torn final line, which
//! [`Journal::open`] silently drops. Torn or malformed lines anywhere
//! *else* indicate real corruption and are reported as errors. The
//! `parent` field records lineage: which earlier checkpoint (if any)
//! the run producing this checkpoint was itself resumed from.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use tcc_types::hash::fnv1a;

/// Magic bytes opening every snapshot container.
pub const MAGIC: &[u8; 8] = b"TCCSNAP1";

/// Current container format version. Version 2 changed the body: the
/// serialized-commit and Tardis processors save their shared program-
/// driver fields first and share the driver's phase tags. Version 3
/// moved the TCC processor onto the same layout (driver fields first,
/// TCC phases as backend phases). Version 4 dropped the event counters
/// nothing read: the cache, directory, Tardis-home and chaos counters,
/// per-node traffic bytes and per-category message counts. The body now
/// holds protocol state plus the counters a run's result reports.
/// Version 5 dropped the directory caches' hit and miss counters, the
/// last counters nothing read. An older body would misparse and is
/// refused instead.
pub const FORMAT_VERSION: u16 = 5;

/// Size of the fixed container header in bytes.
pub const HEADER_BYTES: usize = 8 + 2 + 8 + 8 + 8 + 8 + 8;

/// Everything that can go wrong reading a snapshot or journal.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The container version is not the one this build writes: newer
    /// versions are unknown, older ones lay the body out differently.
    UnsupportedVersion(u16),
    /// The byte stream ended before the declared content.
    Truncated { wanted: usize, have: usize },
    /// The header bytes do not match their own checksum.
    HeaderCorrupt { stored: u64, computed: u64 },
    /// The body bytes do not match the header's body checksum.
    BodyCorrupt { stored: u64, computed: u64 },
    /// Bytes remain after the declared body — the file was appended to
    /// or two snapshots were concatenated.
    TrailingBytes(usize),
    /// The snapshot was taken under a different `SystemConfig`.
    ConfigMismatch { snapshot: u64, current: u64 },
    /// A journal line (other than a torn tail) failed to parse.
    JournalCorrupt { line_no: usize, detail: String },
    /// Filesystem failure.
    Io(std::io::Error),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a tcc-snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            SnapshotError::Truncated { wanted, have } => {
                write!(f, "snapshot truncated: wanted {wanted} bytes, have {have}")
            }
            SnapshotError::HeaderCorrupt { stored, computed } => write!(
                f,
                "snapshot header corrupt: checksum {stored:#018x} stored, {computed:#018x} computed"
            ),
            SnapshotError::BodyCorrupt { stored, computed } => write!(
                f,
                "snapshot body corrupt: checksum {stored:#018x} stored, {computed:#018x} computed"
            ),
            SnapshotError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after snapshot body")
            }
            SnapshotError::ConfigMismatch { snapshot, current } => write!(
                f,
                "snapshot taken under config digest {snapshot:#018x}, \
                 current config digest is {current:#018x}"
            ),
            SnapshotError::JournalCorrupt { line_no, detail } => {
                write!(f, "journal line {line_no} corrupt: {detail}")
            }
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// A decoded snapshot: the header metadata plus the opaque state body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Digest of the `SystemConfig` the capturing simulator ran under.
    pub config_digest: u64,
    /// Simulated cycle at which state was captured.
    pub at_cycle: u64,
    /// The component state stream (a `SnapWriter` byte stream).
    pub body: Vec<u8>,
}

impl Snapshot {
    /// Serializes the snapshot into the `tcc-snapshot/v1` container.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_BYTES + self.body.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.config_digest.to_le_bytes());
        out.extend_from_slice(&self.at_cycle.to_le_bytes());
        out.extend_from_slice(&(self.body.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(&self.body).to_le_bytes());
        let header_sum = fnv1a(&out);
        out.extend_from_slice(&header_sum.to_le_bytes());
        out.extend_from_slice(&self.body);
        out
    }

    /// Parses and fully validates a `tcc-snapshot/v1` container.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < HEADER_BYTES {
            // Distinguish "not even our magic" from "our magic, torn".
            if bytes.len() >= MAGIC.len() && &bytes[..MAGIC.len()] != MAGIC {
                return Err(SnapshotError::BadMagic);
            }
            return Err(SnapshotError::Truncated {
                wanted: HEADER_BYTES,
                have: bytes.len(),
            });
        }
        if &bytes[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let u16_at = |o: usize| u16::from_le_bytes(bytes[o..o + 2].try_into().unwrap());
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
        let stored_header_sum = u64_at(HEADER_BYTES - 8);
        let computed_header_sum = fnv1a(&bytes[..HEADER_BYTES - 8]);
        if stored_header_sum != computed_header_sum {
            return Err(SnapshotError::HeaderCorrupt {
                stored: stored_header_sum,
                computed: computed_header_sum,
            });
        }
        let version = u16_at(8);
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let config_digest = u64_at(10);
        let at_cycle = u64_at(18);
        let body_len = usize::try_from(u64_at(26)).expect("body length fits usize");
        let stored_body_sum = u64_at(34);
        let have_body = bytes.len() - HEADER_BYTES;
        if have_body < body_len {
            return Err(SnapshotError::Truncated {
                wanted: HEADER_BYTES + body_len,
                have: bytes.len(),
            });
        }
        if have_body > body_len {
            return Err(SnapshotError::TrailingBytes(have_body - body_len));
        }
        let body = &bytes[HEADER_BYTES..];
        let computed_body_sum = fnv1a(body);
        if stored_body_sum != computed_body_sum {
            return Err(SnapshotError::BodyCorrupt {
                stored: stored_body_sum,
                computed: computed_body_sum,
            });
        }
        Ok(Snapshot {
            config_digest,
            at_cycle,
            body: body.to_vec(),
        })
    }

    /// Errors unless the snapshot's config digest matches `current` —
    /// call before feeding the body to component restore code.
    pub fn check_config(&self, current: u64) -> Result<(), SnapshotError> {
        if self.config_digest != current {
            return Err(SnapshotError::ConfigMismatch {
                snapshot: self.config_digest,
                current,
            });
        }
        Ok(())
    }

    /// Writes the container to `path` crash-safely: the bytes land in a
    /// sibling temporary file which is fsynced and then renamed into
    /// place, so a kill mid-write never leaves a torn file at `path`.
    pub fn write_atomic(&self, path: &Path) -> Result<(), SnapshotError> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&self.to_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and validates a container from disk.
    pub fn read_file(path: &Path) -> Result<Snapshot, SnapshotError> {
        Snapshot::from_bytes(&fs::read(path)?)
    }
}

/// One journal line: a checkpoint and where it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Monotonic checkpoint number within this journal.
    pub seq: u64,
    /// The checkpoint this run was resumed from, if any — the lineage
    /// edge. `None` for checkpoints of an uninterrupted run.
    pub parent: Option<u64>,
    /// Simulated cycle of the checkpoint.
    pub cycle: u64,
    /// Config digest of the capturing run.
    pub digest: u64,
    /// Path of the snapshot file (as given at append time).
    pub path: String,
    /// Free-form annotation (tabs and newlines replaced by spaces).
    pub note: String,
}

impl JournalEntry {
    fn to_line(&self) -> String {
        let parent = match self.parent {
            Some(p) => p.to_string(),
            None => "-".to_string(),
        };
        format!(
            "v1\t{}\t{}\t{}\t{:016x}\t{}\t{}\n",
            self.seq, parent, self.cycle, self.digest, self.path, self.note
        )
    }

    fn parse(line: &str) -> Result<JournalEntry, String> {
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 7 {
            return Err(format!(
                "expected 7 tab-separated fields, got {}",
                fields.len()
            ));
        }
        if fields[0] != "v1" {
            return Err(format!("unknown journal line version {:?}", fields[0]));
        }
        let seq = fields[1]
            .parse::<u64>()
            .map_err(|e| format!("bad seq: {e}"))?;
        let parent = if fields[2] == "-" {
            None
        } else {
            Some(
                fields[2]
                    .parse::<u64>()
                    .map_err(|e| format!("bad parent: {e}"))?,
            )
        };
        let cycle = fields[3]
            .parse::<u64>()
            .map_err(|e| format!("bad cycle: {e}"))?;
        let digest = u64::from_str_radix(fields[4], 16).map_err(|e| format!("bad digest: {e}"))?;
        Ok(JournalEntry {
            seq,
            parent,
            cycle,
            digest,
            path: fields[5].to_string(),
            note: fields[6].to_string(),
        })
    }
}

/// The append-only checkpoint-lineage journal of one soak run.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    entries: Vec<JournalEntry>,
}

impl Journal {
    /// Opens (or creates) a journal file and loads its entries. A
    /// malformed *final* line — the signature of a process killed
    /// mid-append — is dropped silently; malformed interior lines are
    /// corruption and error out.
    pub fn open(path: impl Into<PathBuf>) -> Result<Journal, SnapshotError> {
        let path = path.into();
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e.into()),
        };
        let mut entries = Vec::new();
        let mut seen = BTreeSet::new();
        // Only lines terminated by '\n' are committed; a torn tail has
        // no terminator. Splitting inclusive keeps that distinction.
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        for (i, raw) in lines.iter().enumerate() {
            let committed = raw.ends_with('\n');
            let line = raw.trim_end_matches('\n');
            if line.is_empty() {
                continue;
            }
            match JournalEntry::parse(line) {
                Ok(e) => {
                    if !committed && i == lines.len() - 1 {
                        // Parsed but unterminated: the append died
                        // between write and newline — not trustworthy.
                        break;
                    }
                    if !seen.insert(e.seq) {
                        return Err(SnapshotError::JournalCorrupt {
                            line_no: i + 1,
                            detail: format!("duplicate seq {}", e.seq),
                        });
                    }
                    entries.push(e);
                }
                Err(detail) => {
                    if i == lines.len() - 1 {
                        break; // torn tail from a crash mid-append
                    }
                    return Err(SnapshotError::JournalCorrupt {
                        line_no: i + 1,
                        detail,
                    });
                }
            }
        }
        Ok(Journal { path, entries })
    }

    /// All committed entries, in append order.
    #[must_use]
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// The most recent checkpoint, if any.
    #[must_use]
    pub fn latest(&self) -> Option<&JournalEntry> {
        self.entries.last()
    }

    /// Looks up a checkpoint by sequence number.
    #[must_use]
    pub fn find(&self, seq: u64) -> Option<&JournalEntry> {
        self.entries.iter().find(|e| e.seq == seq)
    }

    /// Appends a checkpoint record and flushes it to disk. Returns the
    /// committed entry (with its assigned sequence number).
    pub fn append(
        &mut self,
        parent: Option<u64>,
        cycle: u64,
        digest: u64,
        path: &str,
        note: &str,
    ) -> Result<&JournalEntry, SnapshotError> {
        let seq = self.entries.last().map_or(0, |e| e.seq + 1);
        let sanitize = |s: &str| s.replace(['\t', '\n', '\r'], " ");
        let entry = JournalEntry {
            seq,
            parent,
            cycle,
            digest,
            path: sanitize(path),
            note: sanitize(note),
        };
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        f.write_all(entry.to_line().as_bytes())?;
        f.sync_all()?;
        self.entries.push(entry);
        Ok(self.entries.last().expect("just pushed"))
    }

    /// The lineage chain of `seq`: the entry itself, its parent, its
    /// parent's parent, … oldest last.
    #[must_use]
    pub fn lineage(&self, seq: u64) -> Vec<&JournalEntry> {
        let mut chain = Vec::new();
        let mut cur = self.find(seq);
        while let Some(e) = cur {
            chain.push(e);
            cur = e.parent.and_then(|p| self.find(p));
        }
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(body: &[u8]) -> Snapshot {
        Snapshot {
            config_digest: 0xdead_beef_cafe_f00d,
            at_cycle: 123_456,
            body: body.to_vec(),
        }
    }

    #[test]
    fn container_round_trips() {
        let s = snap(b"some component state stream");
        let bytes = s.to_bytes();
        assert_eq!(&bytes[..8], MAGIC);
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
        assert!(back.check_config(0xdead_beef_cafe_f00d).is_ok());
        assert!(matches!(
            back.check_config(1),
            Err(SnapshotError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn empty_body_round_trips() {
        let s = snap(b"");
        assert_eq!(Snapshot::from_bytes(&s.to_bytes()).unwrap(), s);
    }

    #[test]
    fn corruption_is_detected_everywhere() {
        let s = snap(b"state bytes that matter");
        let good = s.to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            Snapshot::from_bytes(&bad_magic),
            Err(SnapshotError::BadMagic)
        ));

        // Any header flip after the magic trips the header checksum.
        for off in 8..HEADER_BYTES - 8 {
            let mut b = good.clone();
            b[off] ^= 0x01;
            assert!(
                matches!(
                    Snapshot::from_bytes(&b),
                    Err(SnapshotError::HeaderCorrupt { .. })
                ),
                "flip at header offset {off} went undetected"
            );
        }

        let mut bad_body = good.clone();
        *bad_body.last_mut().unwrap() ^= 0x01;
        assert!(matches!(
            Snapshot::from_bytes(&bad_body),
            Err(SnapshotError::BodyCorrupt { .. })
        ));

        for cut in [good.len() - 1, HEADER_BYTES + 3, HEADER_BYTES, 9, 0] {
            assert!(
                matches!(
                    Snapshot::from_bytes(&good[..cut]),
                    Err(SnapshotError::Truncated { .. })
                ),
                "truncation to {cut} bytes went undetected"
            );
        }

        let mut appended = good.clone();
        appended.extend_from_slice(b"xx");
        assert!(matches!(
            Snapshot::from_bytes(&appended),
            Err(SnapshotError::TrailingBytes(2))
        ));
    }

    /// A sealed container whose header claims `version`; only the
    /// version is "wrong".
    fn with_version(version: u16) -> Vec<u8> {
        let mut bytes = snap(b"abc").to_bytes();
        bytes[8..10].copy_from_slice(&version.to_le_bytes());
        let sum = fnv1a(&bytes[..HEADER_BYTES - 8]);
        bytes[HEADER_BYTES - 8..HEADER_BYTES].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn future_versions_are_refused() {
        let v = FORMAT_VERSION + 1;
        assert!(matches!(
            Snapshot::from_bytes(&with_version(v)),
            Err(SnapshotError::UnsupportedVersion(got)) if got == v
        ));
    }

    #[test]
    fn version_1_containers_are_refused() {
        // Version-1 bodies predate the shared driver layout.
        assert!(matches!(
            Snapshot::from_bytes(&with_version(1)),
            Err(SnapshotError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn version_2_containers_are_refused() {
        // Version-2 bodies predate the TCC processor's driver layout.
        assert!(matches!(
            Snapshot::from_bytes(&with_version(2)),
            Err(SnapshotError::UnsupportedVersion(2))
        ));
    }

    #[test]
    fn version_3_containers_are_refused() {
        // Version-3 bodies carry the counter blocks version 4 dropped.
        assert!(matches!(
            Snapshot::from_bytes(&with_version(3)),
            Err(SnapshotError::UnsupportedVersion(3))
        ));
    }

    #[test]
    fn version_4_containers_are_refused() {
        // Version-4 bodies carry the directory-cache counters version 5
        // dropped.
        assert!(matches!(
            Snapshot::from_bytes(&with_version(4)),
            Err(SnapshotError::UnsupportedVersion(4))
        ));
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = std::env::temp_dir().join("tcc-snapshot-test-atomic");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.tccsnap");
        let s = snap(&[7u8; 1000]);
        s.write_atomic(&path).unwrap();
        assert_eq!(Snapshot::read_file(&path).unwrap(), s);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_appends_and_reopens() {
        let dir = std::env::temp_dir().join("tcc-snapshot-test-journal");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.journal");
        let _ = fs::remove_file(&path);

        let mut j = Journal::open(&path).unwrap();
        assert!(j.entries().is_empty());
        j.append(None, 1000, 0xabc, "ckpt-0.tccsnap", "periodic")
            .unwrap();
        j.append(None, 2000, 0xabc, "ckpt-1.tccsnap", "periodic")
            .unwrap();
        // Simulate a resume from seq 1 in a later process.
        let mut j2 = Journal::open(&path).unwrap();
        assert_eq!(j2.entries().len(), 2);
        assert_eq!(j2.latest().unwrap().cycle, 2000);
        j2.append(Some(1), 3000, 0xabc, "ckpt-2.tccsnap", "resumed")
            .unwrap();

        let j3 = Journal::open(&path).unwrap();
        assert_eq!(j3.entries().len(), 3);
        let chain: Vec<u64> = j3.lineage(2).iter().map(|e| e.seq).collect();
        assert_eq!(chain, vec![2, 1]);
        assert_eq!(j3.find(2).unwrap().parent, Some(1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_tolerates_torn_tail_but_not_interior_corruption() {
        let dir = std::env::temp_dir().join("tcc-snapshot-test-torn");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.journal");

        fs::write(
            &path,
            "v1\t0\t-\t100\t00000000000000ab\ta.tccsnap\tok\n\
             v1\t1\t0\t200\t00000000000000ab\tb.tccsnap\tok\n\
             v1\t2\t1\t3",
        )
        .unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.entries().len(), 2, "torn tail must be dropped");
        assert_eq!(j.latest().unwrap().seq, 1);

        // A parseable but newline-less tail is equally untrusted.
        fs::write(
            &path,
            "v1\t0\t-\t100\t00000000000000ab\ta.tccsnap\tok\n\
             v1\t1\t0\t200\t00000000000000ab\tb.tccsnap\tok",
        )
        .unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.entries().len(), 1);

        fs::write(
            &path,
            "v1\t0\t-\tgarbage\t00000000000000ab\ta.tccsnap\tok\n\
             v1\t1\t0\t200\t00000000000000ab\tb.tccsnap\tok\n",
        )
        .unwrap();
        assert!(matches!(
            Journal::open(&path),
            Err(SnapshotError::JournalCorrupt { line_no: 1, .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_sanitizes_notes() {
        let dir = std::env::temp_dir().join("tcc-snapshot-test-sanitize");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.journal");
        let _ = fs::remove_file(&path);
        let mut j = Journal::open(&path).unwrap();
        j.append(None, 1, 2, "p", "note\twith\ntabs").unwrap();
        let j2 = Journal::open(&path).unwrap();
        assert_eq!(j2.entries()[0].note, "note with tabs");
        fs::remove_dir_all(&dir).unwrap();
    }
}
