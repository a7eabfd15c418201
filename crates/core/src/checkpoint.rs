//! Atomic, checksummed stage checkpoints for resumable experiment runs.
//!
//! A *run directory* holds one file per completed pipeline stage (and per
//! completed attack-grid cell). Each file is written atomically — payload to
//! a temporary file, then a rename — and carries a one-line JSON header with
//! the checkpoint schema version, a fingerprint of the pipeline
//! configuration, and an FNV-1a checksum of the payload bytes. A checkpoint
//! only loads if all three match and the payload decodes; anything else
//! (truncation, bit flips, schema drift, a different configuration, a
//! malformed body) is detected, the stale file is deleted, and the stage
//! re-runs.
//!
//! After the header's newline comes a binary body: a tagged encoding of the
//! payload's serde [`Value`](serde::Value) tree in which float arrays are
//! packed `f32`s and lone floats are their `f64` bits (see the private
//! `body` module). Saving and loading a model therefore formats and parses
//! no float text, every `f32` number — ±∞ included — restores bit for bit
//! (NaN restores as NaN), and a resumed run is bitwise identical to an
//! uninterrupted one.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

mod body;

/// Version of the checkpoint format; bump on any layout change so stale
/// checkpoints from older builds are rejected instead of misread.
/// Version 2: the attack grid gained black-box and embedding-space cells,
/// so cell checkpoints from version-1 runs cover a different grid.
/// Version 3: the JSON payload became the binary body, so JSON-era files
/// are discarded and recomputed.
pub const SCHEMA_VERSION: u32 = 3;

// The workspace's one FNV-1a definition now lives in `taamr-replay` (which
// also hashes model/attack artifacts with it); re-exported here so existing
// `taamr::checkpoint::fnv1a64` callers and the checkpoint checksums keep
// working unchanged.
pub use taamr_replay::fnv1a64;

/// Fingerprint of a serialisable configuration: the FNV-1a hash of its JSON
/// form. Two configs fingerprint equal iff they serialise identically.
pub fn config_fingerprint<T: Serialize>(config: &T) -> u64 {
    match serde_json::to_string(config) {
        Ok(json) => fnv1a64(json.as_bytes()),
        Err(_) => 0,
    }
}

/// Why a checkpoint could not be written or restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure (create, write, or rename).
    Io {
        /// The file being written or read.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The payload could not be serialised.
    Serialize {
        /// The stage whose payload failed.
        stage: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "checkpoint I/O at {}: {source}", path.display())
            }
            CheckpointError::Serialize { stage } => {
                write!(f, "could not serialise checkpoint payload for stage '{stage}'")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Header line preceding every checkpoint payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Header {
    /// Checkpoint format version ([`SCHEMA_VERSION`]).
    schema: u32,
    /// Hex fingerprint of the pipeline configuration.
    fingerprint: String,
    /// Hex FNV-1a checksum of the body bytes.
    checksum: String,
}

/// A directory of stage checkpoints for one experiment run.
///
/// All checkpoints in a run directory share one configuration fingerprint;
/// loading with a different configuration invalidates (and deletes) them.
#[derive(Debug, Clone)]
pub struct RunDir {
    dir: PathBuf,
    fingerprint: String,
}

impl RunDir {
    /// Opens (creating if needed) a run directory for the given
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the directory cannot be created.
    pub fn open<T: Serialize>(dir: impl Into<PathBuf>, config: &T) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|source| CheckpointError::Io { path: dir.clone(), source })?;
        Ok(RunDir { dir, fingerprint: format!("{:016x}", config_fingerprint(config)) })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// The file a stage's checkpoint lives in.
    pub fn stage_path(&self, stage: &str) -> PathBuf {
        self.dir.join(format!("{stage}.ckpt"))
    }

    /// Whether a checkpoint file exists for `stage` (it may still fail
    /// validation on load).
    pub fn has_stage(&self, stage: &str) -> bool {
        self.stage_path(stage).exists()
    }

    /// Atomically persists a stage checkpoint: header line + binary body,
    /// written to a temporary file and renamed into place, so a crash
    /// mid-write never leaves a half-valid checkpoint under the final name.
    ///
    /// # Errors
    ///
    /// Returns an error if the payload nests too deeply to encode or any
    /// filesystem step fails.
    pub fn save_stage<T: Serialize>(&self, stage: &str, payload: &T) -> Result<(), CheckpointError> {
        let serialize_err = || CheckpointError::Serialize { stage: stage.to_owned() };
        let body = body::encode(&payload.to_json_value()).ok_or_else(serialize_err)?;
        let header = Header {
            schema: SCHEMA_VERSION,
            fingerprint: self.fingerprint.clone(),
            checksum: format!("{:016x}", fnv1a64(&body)),
        };
        let header_line = serde_json::to_string(&header).map_err(|_| serialize_err())?;
        let final_path = self.stage_path(stage);
        let tmp_path = self.dir.join(format!("{stage}.ckpt.tmp"));
        let mut contents = header_line.into_bytes();
        contents.push(b'\n');
        contents.extend_from_slice(&body);
        fs::write(&tmp_path, contents)
            .map_err(|source| CheckpointError::Io { path: tmp_path.clone(), source })?;
        fs::rename(&tmp_path, &final_path)
            .map_err(|source| CheckpointError::Io { path: final_path.clone(), source })?;
        Ok(())
    }

    /// Loads and validates a stage checkpoint.
    ///
    /// Returns `None` — after **deleting** the stale file — when the file is
    /// missing, truncated, fails the checksum, carries another schema
    /// version, was written under a different configuration, or holds a
    /// body that does not decode into `T`. A `None` simply means "re-run
    /// this stage".
    pub fn load_stage<T: Deserialize>(&self, stage: &str) -> Option<T> {
        let loaded = self.load_stage_inner(stage);
        taamr_obs::incr(if loaded.is_some() {
            taamr_obs::Counter::CheckpointHits
        } else {
            taamr_obs::Counter::CheckpointMisses
        });
        loaded
    }

    fn load_stage_inner<T: Deserialize>(&self, stage: &str) -> Option<T> {
        let contents = fs::read(self.stage_path(stage)).ok()?;
        let Some(body) = self.validate(&contents) else {
            self.discard(stage, "header, schema, fingerprint or checksum mismatch");
            return None;
        };
        let Some(value) = body::decode(body) else {
            self.discard(stage, "malformed body");
            return None;
        };
        match T::from_json_value(&value) {
            Ok(payload) => Some(payload),
            Err(_) => {
                self.discard(stage, "payload does not deserialise");
                None
            }
        }
    }

    /// Atomically writes the current telemetry snapshot to `telemetry.json`
    /// in the run directory (temp file + rename, like every checkpoint).
    ///
    /// # Errors
    ///
    /// Returns an error if serialisation or any filesystem step fails.
    pub fn save_telemetry(&self, telemetry: &taamr_obs::Telemetry) -> Result<PathBuf, CheckpointError> {
        let body = serde_json::to_string(telemetry)
            .map_err(|_| CheckpointError::Serialize { stage: "telemetry".to_owned() })?;
        let final_path = self.dir.join("telemetry.json");
        let tmp_path = self.dir.join("telemetry.json.tmp");
        fs::write(&tmp_path, body)
            .map_err(|source| CheckpointError::Io { path: tmp_path.clone(), source })?;
        fs::rename(&tmp_path, &final_path)
            .map_err(|source| CheckpointError::Io { path: final_path.clone(), source })?;
        Ok(final_path)
    }

    /// Splits and validates header + body; returns the body only if every
    /// header field matches.
    fn validate<'a>(&self, contents: &'a [u8]) -> Option<&'a [u8]> {
        let newline = contents.iter().position(|&b| b == b'\n')?;
        let (header_line, body) = (&contents[..newline], &contents[newline + 1..]);
        let header: Header = serde_json::from_slice(header_line).ok()?;
        if header.schema != SCHEMA_VERSION
            || header.fingerprint != self.fingerprint
            || header.checksum != format!("{:016x}", fnv1a64(body))
        {
            return None;
        }
        Some(body)
    }

    /// Deletes an invalid checkpoint so it cannot shadow a future save.
    fn discard(&self, stage: &str, reason: &str) {
        let path = self.stage_path(stage);
        eprintln!("checkpoint {}: {reason}; deleting and re-running stage", path.display());
        let _ = fs::remove_file(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_owned());
        let path = PathBuf::from(dir).join("ckpt-tests").join(name);
        let _ = fs::remove_dir_all(&path);
        path
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Payload {
        weights: Vec<f32>,
        label: String,
    }

    fn payload() -> Payload {
        Payload {
            weights: vec![1.5e-7, -0.333_333_34, f32::MAX, f32::MIN_POSITIVE],
            label: "stage".into(),
        }
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }

    #[test]
    fn round_trips_floats_bit_exactly() {
        let run = RunDir::open(scratch("roundtrip"), &42u32).unwrap();
        let p = payload();
        run.save_stage("cnn", &p).unwrap();
        let back: Payload = run.load_stage("cnn").expect("valid checkpoint loads");
        assert_eq!(back, p);
        for (a, b) in back.weights.iter().zip(&p.weights) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn missing_stage_is_none() {
        let run = RunDir::open(scratch("missing"), &1u32).unwrap();
        assert!(!run.has_stage("nope"));
        assert!(run.load_stage::<Payload>("nope").is_none());
    }

    #[test]
    fn bit_flip_fails_checksum_and_deletes_the_file() {
        let run = RunDir::open(scratch("bitflip"), &1u32).unwrap();
        run.save_stage("vbpr", &payload()).unwrap();
        let path = run.stage_path("vbpr");
        let len = fs::read(&path).unwrap().len();
        // Flip a bit inside the payload (past the header line).
        taamr_fault::flip_bit(&path, len - 3, 2).unwrap();
        assert!(run.load_stage::<Payload>("vbpr").is_none());
        assert!(!path.exists(), "corrupt checkpoint must be deleted, not ignored");
        // The stage can be saved again cleanly.
        run.save_stage("vbpr", &payload()).unwrap();
        assert!(run.load_stage::<Payload>("vbpr").is_some());
    }

    #[test]
    fn truncation_fails_validation() {
        let run = RunDir::open(scratch("truncate"), &1u32).unwrap();
        run.save_stage("amr", &payload()).unwrap();
        let path = run.stage_path("amr");
        let len = fs::read(&path).unwrap().len();
        taamr_fault::truncate_file(&path, len / 2).unwrap();
        assert!(run.load_stage::<Payload>("amr").is_none());
        assert!(!path.exists());
    }

    #[test]
    fn different_config_fingerprint_invalidates() {
        let dir = scratch("fingerprint");
        let run_a = RunDir::open(&dir, &"config-a").unwrap();
        run_a.save_stage("cnn", &payload()).unwrap();
        let run_b = RunDir::open(&dir, &"config-b").unwrap();
        assert!(run_b.load_stage::<Payload>("cnn").is_none(), "other config must not load");
    }

    #[test]
    fn no_tmp_file_survives_a_save()
    {
        let run = RunDir::open(scratch("tmp"), &1u32).unwrap();
        run.save_stage("cnn", &payload()).unwrap();
        let leftovers: Vec<_> = fs::read_dir(run.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files must be renamed away");
    }

    #[test]
    fn fingerprints_differ_per_config() {
        assert_ne!(config_fingerprint(&1u32), config_fingerprint(&2u32));
        assert_eq!(config_fingerprint(&1u32), config_fingerprint(&1u32));
    }

    // --- hostile bodies -------------------------------------------------
    //
    // Each case plants a body under a valid header with a recomputed
    // checksum, so the decoder (not the checksum) is what must reject it.
    // Random cases come from a 32-bit LCG seeded per case: a failure names
    // its seed, and the seed replays it.

    const HOSTILE_SEED: u64 = 0x7a61_6d72;

    struct DetRng {
        state: u32,
    }

    impl DetRng {
        fn from_seed(seed: u64) -> Self {
            DetRng { state: (seed as u32).wrapping_mul(747_796_405) ^ 2_891_336_453 }
        }

        fn below(&mut self, n: usize) -> usize {
            self.state = self.state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            self.state as usize % n
        }
    }

    /// Writes `body` as `stage` under a header with the run's fingerprint,
    /// the given schema and a checksum that matches the body.
    fn plant(run: &RunDir, stage: &str, schema: u32, body: &[u8]) -> PathBuf {
        let header = Header {
            schema,
            fingerprint: run.fingerprint.clone(),
            checksum: format!("{:016x}", fnv1a64(body)),
        };
        let mut contents = serde_json::to_string(&header).unwrap().into_bytes();
        contents.push(b'\n');
        contents.extend_from_slice(body);
        let path = run.stage_path(stage);
        fs::write(&path, contents).unwrap();
        path
    }

    /// A planted body must load as `None` and leave no file behind.
    fn assert_discarded(run: &RunDir, body: &[u8], case: &str) {
        let path = plant(run, "hostile", SCHEMA_VERSION, body);
        assert!(run.load_stage::<Payload>("hostile").is_none(), "{case}: hostile body loaded");
        assert!(!path.exists(), "{case}: hostile checkpoint must be deleted");
    }

    /// As [`assert_discarded`], and the decoder itself refuses the body.
    fn assert_undecodable(run: &RunDir, body: &[u8], case: &str) {
        assert!(body::decode(body).is_none(), "{case}: decoder accepted a hostile body");
        assert_discarded(run, body, case);
    }

    fn valid_body() -> Vec<u8> {
        body::encode(&payload().to_json_value()).unwrap()
    }

    fn tagged_len(tag: u8, len: u64) -> Vec<u8> {
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes
    }

    #[test]
    fn non_finite_floats_round_trip_bit_exactly() {
        let run = RunDir::open(scratch("non-finite"), &1u32).unwrap();
        let weights = vec![f32::INFINITY, f32::NEG_INFINITY, -0.0, f32::NAN];
        run.save_stage("w", &Payload { weights: weights.clone(), label: String::new() }).unwrap();
        let back: Payload = run.load_stage("w").unwrap();
        let bits = |ws: &[f32]| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.weights), bits(&weights));
    }

    #[test]
    fn hostile_truncation_at_every_offset_is_discarded() {
        let run = RunDir::open(scratch("hostile-truncate"), &1u32).unwrap();
        run.save_stage("full", &payload()).unwrap();
        let file = fs::read(run.stage_path("full")).unwrap();
        // The file cut short: the header or the checksum rejects it.
        for keep in 0..file.len() {
            let path = run.stage_path("cut");
            fs::write(&path, &file[..keep]).unwrap();
            assert!(run.load_stage::<Payload>("cut").is_none(), "file cut at {keep} loaded");
            assert!(!path.exists(), "file cut at {keep} survived");
        }
        // The body cut short under a matching checksum: the decoder does.
        let body = valid_body();
        for keep in 0..body.len() {
            assert_undecodable(&run, &body[..keep], &format!("body cut at {keep}"));
        }
    }

    #[test]
    fn hostile_bit_flips_under_a_recomputed_checksum_are_discarded() {
        let run = RunDir::open(scratch("hostile-flip"), &1u32).unwrap();
        let body = valid_body();
        // Pin the layout: object{2} · "weights" · f32[4] (bytes 33..49) ·
        // "label" · str{5} (bytes 71..76). A flip inside the packed floats
        // or the label's characters is another valid payload; every other
        // byte is a tag, a length or a key, and a flip there must not load.
        assert_eq!(body.len(), 76);
        let tags = (body::TAG_OBJECT, body::TAG_F32_ARRAY, body::TAG_STR);
        assert_eq!((body[0], body[24], body[62]), tags);
        let structural: Vec<usize> =
            (0..body.len()).filter(|i| !(33..49).contains(i) && !(71..76).contains(i)).collect();
        for case in 0..256 {
            let seed = HOSTILE_SEED + case;
            let mut rng = DetRng::from_seed(seed);
            let offset = structural[rng.below(structural.len())];
            let bit = rng.below(8);
            let mut flipped = body.clone();
            flipped[offset] ^= 1 << bit;
            assert_discarded(&run, &flipped, &format!("seed {seed}: byte {offset} bit {bit}"));
        }
    }

    #[test]
    fn hostile_random_bodies_are_discarded() {
        let run = RunDir::open(scratch("hostile-random"), &1u32).unwrap();
        for case in 0..256 {
            let seed = HOSTILE_SEED + 1_000 + case;
            let mut rng = DetRng::from_seed(seed);
            // Half the bytes are valid tags, so decoding gets past the root.
            let body: Vec<u8> = (0..rng.below(64))
                .map(|_| {
                    if rng.below(2) == 0 {
                        rng.below(usize::from(body::TAG_F32_ARRAY) + 1) as u8
                    } else {
                        rng.below(256) as u8
                    }
                })
                .collect();
            assert_discarded(&run, &body, &format!("seed {seed}"));
        }
    }

    #[test]
    fn hostile_length_fields_and_nesting_bombs_are_discarded() {
        let run = RunDir::open(scratch("hostile-lengths"), &1u32).unwrap();
        // Lengths far past the two bytes that follow. Each would abort the
        // test process if the decoder sized an allocation by it; the
        // `/ 4 + 1` and `/ 9 + 1` values overflow an unchecked byte count.
        for len in [u64::MAX, u64::MAX / 4 + 1, u64::MAX / 9 + 1, 1 << 40] {
            for tag in [body::TAG_STR, body::TAG_ARRAY, body::TAG_OBJECT, body::TAG_F32_ARRAY] {
                let mut bytes = tagged_len(tag, len);
                bytes.extend_from_slice(&[body::TAG_NULL, body::TAG_NULL]);
                assert_undecodable(&run, &bytes, &format!("tag {tag} length {len}"));
            }
        }
        let mut huge_key = tagged_len(body::TAG_OBJECT, 1);
        huge_key.extend_from_slice(&u64::MAX.to_le_bytes());
        huge_key.push(body::TAG_NULL);
        assert_undecodable(&run, &huge_key, "key length u64::MAX");

        // 100 000 nested one-element arrays: without the depth cap the
        // decoder's recursion would overflow the stack.
        let mut bomb = tagged_len(body::TAG_ARRAY, 1).repeat(100_000);
        bomb.push(body::TAG_NULL);
        assert_undecodable(&run, &bomb, "nesting bomb");
        let mut at_cap = tagged_len(body::TAG_ARRAY, 1).repeat(body::MAX_DEPTH - 1);
        at_cap.push(body::TAG_NULL);
        assert!(body::decode(&at_cap).is_some(), "nesting up to the cap decodes");
    }

    #[test]
    fn hostile_utf8_unknown_tags_and_trailing_bytes_are_discarded() {
        let run = RunDir::open(scratch("hostile-misc"), &1u32).unwrap();
        let mut bad_key = tagged_len(body::TAG_OBJECT, 1);
        bad_key.extend_from_slice(&2u64.to_le_bytes());
        bad_key.extend_from_slice(&[0xff, 0xfe, body::TAG_NULL]);
        assert_undecodable(&run, &bad_key, "invalid UTF-8 key");

        let mut bad_str = tagged_len(body::TAG_STR, 1);
        bad_str.push(0x80);
        assert_undecodable(&run, &bad_str, "invalid UTF-8 string");

        for tag in body::TAG_F32_ARRAY + 1..=u8::MAX {
            assert_undecodable(&run, &[tag], &format!("unknown tag {tag}"));
        }

        let mut trailing = valid_body();
        trailing.push(body::TAG_NULL);
        assert_undecodable(&run, &trailing, "trailing byte");
        assert_undecodable(&run, &valid_body().repeat(2), "two bodies back to back");
    }

    // --- stale formats --------------------------------------------------

    #[test]
    fn schema_2_json_checkpoint_is_discarded_and_the_stage_recomputes() {
        let run = RunDir::open(scratch("stale-json"), &1u32).unwrap();
        // What a schema-2 build wrote: the same header over a JSON payload.
        let json = serde_json::to_string(&payload()).unwrap();
        let path = plant(&run, "cnn", 2, json.as_bytes());
        assert!(run.load_stage::<Payload>("cnn").is_none(), "a schema-2 checkpoint must not load");
        assert!(!path.exists(), "the stale checkpoint is deleted");

        // A JSON payload under the current schema number fails to decode.
        let path = plant(&run, "cnn", SCHEMA_VERSION, json.as_bytes());
        assert!(run.load_stage::<Payload>("cnn").is_none());
        assert!(!path.exists());

        // The re-run stage saves and loads in the current format.
        run.save_stage("cnn", &payload()).unwrap();
        assert_eq!(run.load_stage::<Payload>("cnn"), Some(payload()));
    }
}
