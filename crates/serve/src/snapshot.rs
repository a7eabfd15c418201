//! Per-slot snapshot store: generation-numbered actor state on disk.
//!
//! Each serving slot owns a [`RunDir`](taamr::checkpoint::RunDir) holding
//! checkpoints named `gen-<k>`. Writes go through the run dir's atomic
//! temp-file + rename path, so a crash mid-write never leaves a half-valid
//! newest generation. Restores walk generations newest-first: a corrupt
//! or stale file (bit rot, torn write, injected
//! [`FaultSite::ServeSnapshotCorrupt`], a JSON-era generation from an older
//! checkpoint schema) fails validation, is deleted, and the walk falls back
//! to the previous good generation — recovery degrades by one snapshot
//! instead of panicking.
//!
//! A generation is one run-dir checkpoint whose payload is `{version,
//! model}`: the model's serde tree sits directly in the binary checkpoint
//! body, with its float arrays packed as `f32`. An `f32` written here —
//! ±∞ included — restores bit-exact (NaN as NaN), which is what makes
//! post-restart scores byte-identical, and neither a save nor a restore
//! formats or parses float text.

use std::path::Path;

use serde::{DeError, Deserialize, Serialize, Value};
use taamr::checkpoint::RunDir;
use taamr_fault::FaultSite;

use crate::error::ServeError;

/// How many snapshot generations a slot keeps on disk. Older generations
/// are pruned after each successful write; the survivors are the fallback
/// chain for corrupt-newest recovery.
pub const SNAPSHOT_KEEP: usize = 4;

/// Stable identity of a slot's run dir (checked on reopen via the run-dir
/// config fingerprint, so two slots can never share snapshot files).
#[derive(Debug, Serialize)]
struct SlotTag {
    slot: String,
}

/// What goes into a `gen-<k>` checkpoint: `SnapshotPayload<&M>` on save,
/// `SnapshotPayload<M>` on restore. (The derive shim takes no generics,
/// hence the hand-written impls.)
struct SnapshotPayload<M> {
    /// Model version the snapshot captures (the supervisor's version gate).
    version: u64,
    /// The model itself.
    model: M,
}

impl<M: Serialize> Serialize for SnapshotPayload<M> {
    fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("version".to_owned(), self.version.to_json_value()),
            ("model".to_owned(), self.model.to_json_value()),
        ])
    }
}

impl<M: Deserialize> Deserialize for SnapshotPayload<M> {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, DeError> {
            match v.get_field(name) {
                Some(field) => T::from_json_value(field),
                None => T::missing_field(name),
            }
        }
        Ok(SnapshotPayload { version: field(v, "version")?, model: field(v, "model")? })
    }
}

/// A successfully restored snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Restored<M> {
    /// The restored model.
    pub model: M,
    /// Model version the snapshot was written at.
    pub version: u64,
    /// Generation number the state came from.
    pub generation: u64,
    /// Newer generations that were skipped as corrupt (newest first).
    pub skipped: Vec<u64>,
}

/// Generation-numbered snapshot storage for one slot.
#[derive(Debug)]
pub struct SnapshotStore {
    run: RunDir,
    slot: String,
    /// Per-slot write ordinal — the fault index for
    /// [`FaultSite::ServeSnapshotCorrupt`].
    writes: u64,
}

fn stage_name(generation: u64) -> String {
    format!("gen-{generation:08}")
}

impl SnapshotStore {
    /// Opens (or creates) the store for `slot` under `root`.
    pub fn open(root: &Path, slot: &str) -> Result<Self, ServeError> {
        let run = RunDir::open(root.join(slot), &SlotTag { slot: slot.to_owned() })
            .map_err(|e| ServeError::Snapshot { slot: slot.to_owned(), detail: e.to_string() })?;
        Ok(SnapshotStore { run, slot: slot.to_owned(), writes: 0 })
    }

    /// Slot this store belongs to.
    pub fn slot(&self) -> &str {
        &self.slot
    }

    /// The file a generation lives in (tests corrupt these directly).
    pub fn generation_path(&self, generation: u64) -> std::path::PathBuf {
        self.run.stage_path(&stage_name(generation))
    }

    /// Existing generation numbers, ascending.
    pub fn generations(&self) -> Vec<u64> {
        let mut gens = Vec::new();
        let Ok(entries) = std::fs::read_dir(self.run.path()) else {
            return gens;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name.strip_prefix("gen-").and_then(|s| s.strip_suffix(".ckpt"))
            else {
                continue;
            };
            if let Ok(g) = stem.parse::<u64>() {
                gens.push(g);
            }
        }
        gens.sort_unstable();
        gens
    }

    /// Writes `model` as the next generation. After a successful write,
    /// generations older than the newest [`SNAPSHOT_KEEP`] are pruned.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Snapshot`] when serialisation or any
    /// filesystem step fails. The previous generations are untouched.
    pub fn save<M: Serialize>(&mut self, model: &M, version: u64) -> Result<u64, ServeError> {
        let generation = self.generations().last().map_or(0, |g| g + 1);
        let stage = stage_name(generation);
        let payload = SnapshotPayload { version, model };
        self.run.save_stage(&stage, &payload).map_err(|e| ServeError::Snapshot {
            slot: self.slot.clone(),
            detail: e.to_string(),
        })?;
        let ordinal = self.writes;
        self.writes += 1;
        if taamr_fault::fire(FaultSite::ServeSnapshotCorrupt, ordinal) {
            let path = self.run.stage_path(&stage);
            let len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(2);
            // Flip one bit mid-file: whatever it lands on (header, payload,
            // checksum digits), validation on load must reject the file.
            let _ = taamr_fault::flip_bit(&path, (len / 2) as usize, 3);
        }
        self.prune(generation);
        Ok(generation)
    }

    /// Restores the newest usable generation, skipping (and deleting)
    /// corrupt ones.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Snapshot`] when no generation survives
    /// validation — the typed end state; this path never panics.
    pub fn restore<M: Deserialize>(&self) -> Result<Restored<M>, ServeError> {
        let mut gens = self.generations();
        gens.reverse();
        let tried = gens.len();
        let mut skipped = Vec::new();
        for generation in gens {
            // `load_stage` validates schema, fingerprint and checksum, decodes
            // the body into the model type, and deletes the file when any of
            // that fails (bit rot, a torn write, an older format, a model of
            // another type).
            match self.run.load_stage::<SnapshotPayload<M>>(&stage_name(generation)) {
                Some(payload) => {
                    return Ok(Restored {
                        model: payload.model,
                        version: payload.version,
                        generation,
                        skipped,
                    })
                }
                None => skipped.push(generation),
            }
        }
        Err(ServeError::Snapshot {
            slot: self.slot.clone(),
            detail: format!(
                "no usable snapshot generation ({tried} tried, skipped corrupt {skipped:?})"
            ),
        })
    }

    fn prune(&self, newest: u64) {
        for generation in self.generations() {
            if generation + SNAPSHOT_KEEP as u64 <= newest {
                let _ = std::fs::remove_file(self.generation_path(generation));
            }
        }
    }
}
