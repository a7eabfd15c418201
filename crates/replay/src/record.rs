//! The on-disk experiment record: schema-versioned command streams.
//!
//! A record file starts like a checkpoint — a one-line JSON header carrying
//! the schema version and an FNV-1a checksum of the payload, then a newline
//! — but its payload stays JSON text, and it is written atomically
//! (temporary file + rename). Unlike checkpoints, an invalid record is
//! *never* silently deleted and re-run: records are evidence, so every
//! failure mode surfaces as a typed [`RecordError`].

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::hash::{fnv1a64, hex64};

/// Version of the record format; bump on any layout change so records from
/// older builds are rejected with [`RecordError::SchemaMismatch`] instead
/// of being misread.
pub const REPLAY_SCHEMA: u32 = 1;

/// Upper bound on a record file's size. Records hold hashes, not
/// artifacts; anything past this is hostile or corrupt, and refusing to
/// read it keeps a bad file from ballooning memory.
pub const MAX_RECORD_BYTES: u64 = 1 << 20;

/// What kind of pipeline-level command a record entry captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommandKind {
    /// Synthetic dataset generation.
    Dataset,
    /// A training stage (CNN, VBPR warm-up, VBPR, AMR).
    Train,
    /// One attack-grid cell (model × scenario × epsilon × attack).
    AttackCell,
    /// An evaluation artifact (extracted features, rankings, CHR).
    Evaluate,
    /// Final report assembly.
    Report,
}

impl fmt::Display for CommandKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CommandKind::Dataset => "dataset",
            CommandKind::Train => "train",
            CommandKind::AttackCell => "attack-cell",
            CommandKind::Evaluate => "evaluate",
            CommandKind::Report => "report",
        };
        f.write_str(name)
    }
}

/// One observability counter captured as side-channel evidence alongside a
/// command. Evidence is informational — it explains *how* a stage ran
/// (cache hits, scratch reuse) — and is never part of the replay diff.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Counter name, as [`taamr_obs::Counter::name`] spells it.
    pub name: String,
    /// Counter value at the time the command was recorded.
    pub value: u64,
}

/// One recorded pipeline-level command.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommandRecord {
    /// What kind of command this was.
    pub kind: CommandKind,
    /// Stable stage label (`"cnn"`, `"vbpr"`, `"cell-003"`, ...).
    pub label: String,
    /// FNV-1a content hash of the command's output artifact, as 16 hex
    /// digits.
    pub output_hash: String,
    /// Side-channel counter evidence (empty when telemetry was disabled).
    pub counters: Vec<CounterSample>,
}

impl CommandRecord {
    /// Builds a command record from a raw 64-bit output hash.
    pub fn new(kind: CommandKind, label: impl Into<String>, output_hash: u64) -> Self {
        CommandRecord {
            kind,
            label: label.into(),
            output_hash: hex64(output_hash),
            counters: Vec::new(),
        }
    }
}

/// A complete recorded experiment: identifying context plus the ordered
/// command stream. Thread count is recorded as context, not contract — a
/// replay at a different thread count must still match every hash.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Human-readable record name (golden profile name).
    pub name: String,
    /// Hex fingerprint of the pipeline configuration that produced it.
    pub config_fingerprint: String,
    /// Master experiment seed.
    pub seed: u64,
    /// Thread count of the recording run (context only).
    pub threads: usize,
    /// The ordered command stream.
    pub commands: Vec<CommandRecord>,
}

impl ExperimentRecord {
    /// Assembles a record from its context and command stream.
    pub fn new(
        name: impl Into<String>,
        config_fingerprint: u64,
        seed: u64,
        threads: usize,
        commands: Vec<CommandRecord>,
    ) -> Self {
        ExperimentRecord {
            name: name.into(),
            config_fingerprint: hex64(config_fingerprint),
            seed,
            threads,
            commands,
        }
    }
}

/// Why a record could not be read or written. Hostile input — truncation,
/// bit flips, oversized files, foreign schemas — lands in exactly one of
/// these variants; the reader never panics.
#[derive(Debug)]
pub enum RecordError {
    /// Filesystem failure (read, create, write, or rename).
    Io {
        /// The file being read or written.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The file exceeds [`MAX_RECORD_BYTES`].
    Oversized {
        /// Observed file size in bytes.
        len: u64,
        /// The enforced maximum.
        max: u64,
    },
    /// The file has no header/payload split (no newline) or is not UTF-8.
    MissingHeader,
    /// The header line is not a valid record header.
    BadHeader,
    /// The header declares a different schema version.
    SchemaMismatch {
        /// Schema version found in the file.
        found: u32,
        /// Schema version this build reads ([`REPLAY_SCHEMA`]).
        expected: u32,
    },
    /// The payload bytes do not match the header checksum.
    ChecksumMismatch,
    /// The checksum passed but the payload does not deserialize — the
    /// record was written by something that is not this format.
    Malformed,
    /// The record could not be serialized for writing.
    Serialize,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Io { path, source } => {
                write!(f, "record I/O at {}: {source}", path.display())
            }
            RecordError::Oversized { len, max } => {
                write!(f, "record file is {len} bytes; records are capped at {max}")
            }
            RecordError::MissingHeader => {
                write!(f, "record has no header line (not UTF-8, or no newline)")
            }
            RecordError::BadHeader => write!(f, "record header line does not parse"),
            RecordError::SchemaMismatch { found, expected } => {
                write!(f, "record schema {found} != supported schema {expected}")
            }
            RecordError::ChecksumMismatch => {
                write!(f, "record payload fails its header checksum (corrupt file)")
            }
            RecordError::Malformed => write!(f, "record payload does not deserialize"),
            RecordError::Serialize => write!(f, "record could not be serialized"),
        }
    }
}

impl std::error::Error for RecordError {}

/// Header line preceding every record payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RecordHeader {
    /// Record format version ([`REPLAY_SCHEMA`]).
    schema: u32,
    /// Hex FNV-1a checksum of the payload bytes.
    checksum: String,
}

/// Atomically writes a record: header line + JSON payload to a temporary
/// file, then a rename, so a crash mid-write never leaves a half-valid
/// record under the final name.
///
/// # Errors
///
/// Returns [`RecordError::Serialize`] if the record cannot serialize and
/// [`RecordError::Io`] on any filesystem failure.
pub fn write_record(path: &Path, record: &ExperimentRecord) -> Result<(), RecordError> {
    let body = serde_json::to_string(record).map_err(|_| RecordError::Serialize)?;
    let header = RecordHeader {
        schema: REPLAY_SCHEMA,
        checksum: hex64(fnv1a64(body.as_bytes())),
    };
    let header_line = serde_json::to_string(&header).map_err(|_| RecordError::Serialize)?;
    let tmp_path = tmp_sibling(path);
    let contents = format!("{header_line}\n{body}");
    fs::write(&tmp_path, contents)
        .map_err(|source| RecordError::Io { path: tmp_path.clone(), source })?;
    fs::rename(&tmp_path, path)
        .map_err(|source| RecordError::Io { path: path.to_path_buf(), source })?;
    taamr_obs::incr(taamr_obs::Counter::ReplayRecordWrites);
    Ok(())
}

/// Reads and validates a record file.
///
/// Validation order is outermost-first, so each hostile-input class maps
/// to one variant: size cap, UTF-8 + header split, header parse, schema,
/// checksum, payload deserialization.
///
/// # Errors
///
/// Returns the [`RecordError`] variant matching the first failed check.
pub fn read_record(path: &Path) -> Result<ExperimentRecord, RecordError> {
    let meta = fs::metadata(path)
        .map_err(|source| RecordError::Io { path: path.to_path_buf(), source })?;
    if meta.len() > MAX_RECORD_BYTES {
        return Err(RecordError::Oversized { len: meta.len(), max: MAX_RECORD_BYTES });
    }
    let raw = fs::read(path)
        .map_err(|source| RecordError::Io { path: path.to_path_buf(), source })?;
    let text = String::from_utf8(raw).map_err(|_| RecordError::MissingHeader)?;
    let (header_line, body) = text.split_once('\n').ok_or(RecordError::MissingHeader)?;
    let header: RecordHeader =
        serde_json::from_str(header_line).map_err(|_| RecordError::BadHeader)?;
    if header.schema != REPLAY_SCHEMA {
        return Err(RecordError::SchemaMismatch { found: header.schema, expected: REPLAY_SCHEMA });
    }
    if header.checksum != hex64(fnv1a64(body.as_bytes())) {
        return Err(RecordError::ChecksumMismatch);
    }
    let record: ExperimentRecord =
        serde_json::from_str(body).map_err(|_| RecordError::Malformed)?;
    taamr_obs::incr(taamr_obs::Counter::ReplayRecordReads);
    Ok(record)
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_owned());
        let path = PathBuf::from(dir).join("replay-tests").join(name);
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).expect("scratch dir");
        path
    }

    fn sample() -> ExperimentRecord {
        ExperimentRecord::new(
            "sample",
            0xdead_beef,
            42,
            1,
            vec![
                CommandRecord::new(CommandKind::Dataset, "dataset", 1),
                CommandRecord::new(CommandKind::Train, "cnn", 2),
            ],
        )
    }

    #[test]
    fn round_trips() {
        let path = scratch("roundtrip").join("sample.rec");
        let rec = sample();
        write_record(&path, &rec).expect("write");
        let back = read_record(&path).expect("read");
        assert_eq!(back, rec);
    }

    #[test]
    fn missing_file_is_io() {
        let path = scratch("missing").join("absent.rec");
        assert!(matches!(read_record(&path), Err(RecordError::Io { .. })));
    }

    #[test]
    fn no_tmp_file_survives_a_write() {
        let dir = scratch("tmp");
        write_record(&dir.join("a.rec"), &sample()).expect("write");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files must be renamed away");
    }

    #[test]
    fn wrong_schema_is_typed() {
        let path = scratch("schema").join("future.rec");
        let body = serde_json::to_string(&sample()).expect("serialize");
        let header = RecordHeader { schema: REPLAY_SCHEMA + 7, checksum: hex64(fnv1a64(body.as_bytes())) };
        let header_line = serde_json::to_string(&header).expect("serialize");
        fs::write(&path, format!("{header_line}\n{body}")).expect("write");
        assert!(matches!(
            read_record(&path),
            Err(RecordError::SchemaMismatch { found, expected })
                if found == REPLAY_SCHEMA + 7 && expected == REPLAY_SCHEMA
        ));
    }

    #[test]
    fn valid_checksum_but_foreign_payload_is_malformed() {
        let path = scratch("foreign").join("foreign.rec");
        let body = "{\"not\":\"a record\"}";
        let header = RecordHeader { schema: REPLAY_SCHEMA, checksum: hex64(fnv1a64(body.as_bytes())) };
        let header_line = serde_json::to_string(&header).expect("serialize");
        fs::write(&path, format!("{header_line}\n{body}")).expect("write");
        assert!(matches!(read_record(&path), Err(RecordError::Malformed)));
    }
}
