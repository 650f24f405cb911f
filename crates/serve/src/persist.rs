//! Versioned on-disk persistence for trained [`PatientModel`]s.
//!
//! ## File format (versions 1 and 2)
//!
//! ```text
//! offset  size        field
//! 0       8           magic  b"LAELMDL\n"
//! 8       4           header length H (u32 LE)
//! 12      H           header: flat ASCII JSON object (self-describing)
//! 12+H    2·L·8       body: interictal then ictal prototype limbs (u64 LE),
//!                     L = dim.div_ceil(64)
//! …       2·d·4       version 2, when the header says "state":1 —
//!                     interictal then ictal accumulator counts (u32 LE),
//!                     d = dim
//! end−8   8           FNV-1a 64 checksum of every preceding byte (u64 LE)
//! ```
//!
//! The header carries the full [`LaelapsConfig`] (the model seed
//! regenerates both item memories exactly — see [`PatientModel`]) plus the
//! electrode count and the body geometry, so a reader can validate the
//! body length before touching it. `tr` is stored as raw IEEE-754 bits for
//! bit-exact round-trips. Readers reject unknown format versions *before*
//! the checksum so a newer-version file fails with
//! [`ServeError::VersionMismatch`], not a corruption error.
//!
//! **Version 2** additionally carries the model generation and, optionally,
//! the resumable training state (the per-class accumulator counts behind
//! the prototypes), so a loaded model can [`PatientModel::absorb`] newly
//! confirmed seizures instead of retraining from scratch. The writer emits
//! version 1 for generation-0 models without state — bytes identical to
//! what previous builds wrote — and version 2 otherwise; version-1 files
//! always stay loadable.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use laelaps_core::hv::{DenseAccumulator, Hypervector, TiePolicy};
use laelaps_core::{AmTrainer, AssociativeMemory, LaelapsConfig, PatientModel};

use crate::error::{Result, ServeError};
use crate::stats::RegistryStats;

/// Magic bytes opening every model file.
pub const MAGIC: [u8; 8] = *b"LAELMDL\n";

/// Highest format version this build reads and the version it writes for
/// models carrying a generation or training state (stateless generation-0
/// models still serialize as version 1 for maximum compatibility).
pub const FORMAT_VERSION: u32 = 2;

/// File extension used by the [`ModelRegistry`].
pub const MODEL_EXT: &str = "laemodel";

// ---------------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------------

/// Incremental FNV-1a 64 (tiny, dependency-free; adequate for detecting
/// accidental corruption — this is not a cryptographic seal). Model files
/// of both format versions are sealed with it; the wire protocol
/// ([`crate::wire`]) has its own word-wide checksum, since it has one
/// version and carries every chunk.
#[derive(Debug, Clone)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Minimal flat JSON (header is a single object of string/u64 fields)
// ---------------------------------------------------------------------------

fn json_escape_ok(s: &str) -> bool {
    s.bytes()
        .all(|b| (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\')
}

fn write_json_header(fields: &[(&str, JsonValue)]) -> Vec<u8> {
    let mut out = String::from("{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match value {
            JsonValue::Num(n) => out.push_str(&format!("\"{key}\":{n}")),
            JsonValue::Str(s) => {
                debug_assert!(json_escape_ok(s));
                out.push_str(&format!("\"{key}\":\"{s}\""));
            }
        }
    }
    out.push('}');
    out.into_bytes()
}

enum JsonValue {
    Num(u64),
    Str(String),
}

/// Parses the flat header object into a key → value map.
///
/// Deliberately strict: printable-ASCII, no escapes, no nesting, no
/// arrays — anything else is corruption by construction of the writer.
fn parse_json_header(bytes: &[u8]) -> Result<HashMap<String, JsonValue>> {
    let corrupt = |reason: &str| ServeError::Corrupt {
        reason: format!("header: {reason}"),
    };
    let text = std::str::from_utf8(bytes)
        .map_err(|_| corrupt("not valid UTF-8"))?
        .trim();
    let inner = text
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or_else(|| corrupt("not a JSON object"))?;
    let mut map = HashMap::new();
    if inner.trim().is_empty() {
        return Ok(map);
    }
    for pair in inner.split(',') {
        let (raw_key, raw_value) = pair
            .split_once(':')
            .ok_or_else(|| corrupt("field without ':'"))?;
        let key = raw_key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| corrupt("unquoted key"))?;
        let raw_value = raw_value.trim();
        let value = if let Some(s) = raw_value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
        {
            if !json_escape_ok(s) {
                return Err(corrupt("string value with escapes"));
            }
            JsonValue::Str(s.to_string())
        } else {
            JsonValue::Num(
                raw_value
                    .parse::<u64>()
                    .map_err(|_| corrupt("non-integer numeric value"))?,
            )
        };
        map.insert(key.to_string(), value);
    }
    Ok(map)
}

fn header_num(map: &HashMap<String, JsonValue>, key: &str) -> Result<u64> {
    match map.get(key) {
        Some(JsonValue::Num(n)) => Ok(*n),
        Some(JsonValue::Str(_)) => Err(ServeError::Corrupt {
            reason: format!("header field {key:?} should be numeric"),
        }),
        None => Err(ServeError::Corrupt {
            reason: format!("header missing field {key:?}"),
        }),
    }
}

fn header_str<'m>(map: &'m HashMap<String, JsonValue>, key: &str) -> Result<&'m str> {
    match map.get(key) {
        Some(JsonValue::Str(s)) => Ok(s),
        Some(JsonValue::Num(_)) => Err(ServeError::Corrupt {
            reason: format!("header field {key:?} should be a string"),
        }),
        None => Err(ServeError::Corrupt {
            reason: format!("header missing field {key:?}"),
        }),
    }
}

fn tie_policy_name(policy: TiePolicy) -> &'static str {
    match policy {
        TiePolicy::ZeroOnTie => "zero_on_tie",
        TiePolicy::TieBreakVector => "tie_break_vector",
    }
}

fn tie_policy_from_name(name: &str) -> Result<TiePolicy> {
    match name {
        "zero_on_tie" => Ok(TiePolicy::ZeroOnTie),
        "tie_break_vector" => Ok(TiePolicy::TieBreakVector),
        other => Err(ServeError::Corrupt {
            reason: format!("unknown tie policy {other:?}"),
        }),
    }
}

// ---------------------------------------------------------------------------
// Save / load
// ---------------------------------------------------------------------------

struct CountingChecksumWriter<'w, W: Write> {
    inner: &'w mut W,
    checksum: Fnv1a,
}

impl<W: Write> CountingChecksumWriter<'_, W> {
    fn put(&mut self, bytes: &[u8]) -> Result<()> {
        self.checksum.update(bytes);
        self.inner.write_all(bytes)?;
        Ok(())
    }
}

/// Serializes `model` into `writer`: version 1 for a generation-0 model
/// without training state (byte-identical to previous builds), version 2
/// otherwise (generation + optional accumulator state).
///
/// # Errors
///
/// Returns [`ServeError::Io`] on write failure.
pub fn save_model<W: Write>(model: &PatientModel, writer: &mut W) -> Result<()> {
    let config = model.config();
    let limbs = config.dim.div_ceil(64);
    let state = model.train_state();
    let version: u64 = if state.is_none() && model.generation() == 0 {
        1
    } else {
        2
    };
    let mut fields = vec![
        ("format", JsonValue::Num(version)),
        ("dim", JsonValue::Num(config.dim as u64)),
        ("lbp_len", JsonValue::Num(config.lbp_len as u64)),
        ("sample_rate", JsonValue::Num(config.sample_rate as u64)),
        (
            "window_samples",
            JsonValue::Num(config.window_samples as u64),
        ),
        ("hop_samples", JsonValue::Num(config.hop_samples as u64)),
        (
            "postprocess_len",
            JsonValue::Num(config.postprocess_len as u64),
        ),
        ("tc", JsonValue::Num(config.tc as u64)),
        ("tr_bits", JsonValue::Num(config.tr.to_bits())),
        (
            "refractory_labels",
            JsonValue::Num(config.refractory_labels as u64),
        ),
        (
            "tie_policy",
            JsonValue::Str(tie_policy_name(config.tie_policy).to_string()),
        ),
        ("seed", JsonValue::Num(config.seed)),
        ("electrodes", JsonValue::Num(model.electrodes() as u64)),
        ("limbs", JsonValue::Num(limbs as u64)),
    ];
    if version >= 2 {
        fields.push(("generation", JsonValue::Num(model.generation())));
        fields.push(("state", JsonValue::Num(state.is_some() as u64)));
        if let Some(state) = state {
            fields.push((
                "inter_added",
                JsonValue::Num(state.interictal_accumulator().len() as u64),
            ));
            fields.push((
                "ictal_added",
                JsonValue::Num(state.ictal_accumulator().len() as u64),
            ));
        }
    }
    let header = write_json_header(&fields);
    let mut out = CountingChecksumWriter {
        inner: writer,
        checksum: Fnv1a::new(),
    };
    out.put(&MAGIC)?;
    out.put(&(header.len() as u32).to_le_bytes())?;
    out.put(&header)?;
    for prototype in [model.am().interictal(), model.am().ictal()] {
        for &limb in prototype.limbs() {
            out.put(&limb.to_le_bytes())?;
        }
    }
    if let Some(state) = state {
        for accumulator in [state.interictal_accumulator(), state.ictal_accumulator()] {
            for &count in accumulator.counts() {
                out.put(&count.to_le_bytes())?;
            }
        }
    }
    let digest = out.checksum.finish();
    out.inner.write_all(&digest.to_le_bytes())?;
    Ok(())
}

/// Writes `bytes` to `path` through a sibling temp file and a rename, so
/// readers never observe a half-written file. The temp name is unique
/// per process and call, so concurrent writes to the same path cannot
/// interleave into one file — last rename wins whole.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
    let outcome = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if outcome.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    outcome
}

/// Serializes `model` to `path` atomically (temp file + rename), so
/// readers never observe a half-written model.
///
/// # Errors
///
/// Returns [`ServeError::Io`] on filesystem failure.
pub fn save_model_to(model: &PatientModel, path: &Path) -> Result<()> {
    // In-memory serialize: model files are ≤ a few hundred KiB.
    let mut bytes = Vec::new();
    save_model(model, &mut bytes)?;
    write_atomic(path, &bytes)
}

/// Deserializes a model from `reader`.
///
/// # Errors
///
/// * [`ServeError::VersionMismatch`] — written by a newer format;
/// * [`ServeError::Corrupt`] — truncated file, bad magic or header,
///   checksum mismatch, or body values the core rejects structurally;
/// * [`ServeError::Core`] — config/AM validation failure.
pub fn load_model<R: Read>(reader: &mut R) -> Result<PatientModel> {
    // Whole-file read: model files are ≤ a few hundred KiB (2 prototypes).
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    let corrupt = |reason: &str| ServeError::Corrupt {
        reason: reason.to_string(),
    };
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(corrupt("file truncated"));
    }
    if bytes[..8] != MAGIC {
        return Err(corrupt("bad magic (not a Laelaps model file)"));
    }
    let header_len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    let header_end = 12usize
        .checked_add(header_len)
        .ok_or_else(|| corrupt("header length overflows"))?;
    if bytes.len() < header_end + 8 {
        return Err(corrupt("file truncated"));
    }
    let header = parse_json_header(&bytes[12..header_end])?;

    // Version gate comes before checksum verification so future-format
    // files are reported as such rather than as "corrupt".
    let version = header_num(&header, "format")?;
    if version == 0 || version > FORMAT_VERSION as u64 {
        return Err(ServeError::VersionMismatch {
            found: version,
            supported: FORMAT_VERSION,
        });
    }

    let (body, footer) = bytes[header_end..].split_at(bytes.len() - header_end - 8);
    let mut checksum = Fnv1a::new();
    checksum.update(&bytes[..header_end]);
    checksum.update(body);
    let expected = u64::from_le_bytes(footer.try_into().expect("8 bytes"));
    if checksum.finish() != expected {
        return Err(corrupt("checksum mismatch"));
    }

    let dim = header_num(&header, "dim")? as usize;
    let limbs = header_num(&header, "limbs")? as usize;
    if limbs != dim.div_ceil(64) {
        return Err(corrupt("limb count inconsistent with dimension"));
    }
    let (generation, has_state) = if version >= 2 {
        (
            header_num(&header, "generation")?,
            header_num(&header, "state")? != 0,
        )
    } else {
        (0, false)
    };
    let expected_body = 2 * limbs * 8 + if has_state { 2 * dim * 4 } else { 0 };
    if body.len() != expected_body {
        return Err(corrupt("body length inconsistent with header geometry"));
    }
    let read_prototype = |offset: usize| -> Result<Hypervector> {
        let words: Vec<u64> = body[offset..offset + limbs * 8]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        Hypervector::from_limbs(dim, words).ok_or_else(|| corrupt("prototype has padding bits set"))
    };
    let interictal = read_prototype(0)?;
    let ictal = read_prototype(limbs * 8)?;
    let train_state = if has_state {
        let counts_base = 2 * limbs * 8;
        let read_accumulator = |offset: usize, added: u32| -> Result<DenseAccumulator> {
            let counts: Vec<u32> = body[offset..offset + dim * 4]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect();
            DenseAccumulator::from_counts(counts, added)
                .ok_or_else(|| corrupt("accumulator counts exceed their addition count"))
        };
        let inter = read_accumulator(counts_base, header_num(&header, "inter_added")? as u32)?;
        let ictal_acc = read_accumulator(
            counts_base + dim * 4,
            header_num(&header, "ictal_added")? as u32,
        )?;
        Some(AmTrainer::from_accumulators(inter, ictal_acc)?)
    } else {
        None
    };

    let config = LaelapsConfig::builder()
        .dim(dim)
        .lbp_len(header_num(&header, "lbp_len")? as usize)
        .window_samples(header_num(&header, "window_samples")? as usize)
        .hop_samples(header_num(&header, "hop_samples")? as usize)
        .postprocess_len(header_num(&header, "postprocess_len")? as usize)
        .tc(header_num(&header, "tc")? as usize)
        .tr(f64::from_bits(header_num(&header, "tr_bits")?))
        .refractory_labels(header_num(&header, "refractory_labels")? as usize)
        .tie_policy(tie_policy_from_name(header_str(&header, "tie_policy")?)?)
        .seed(header_num(&header, "seed")?)
        .build();
    // `sample_rate` must bypass the builder's window rescaling.
    let mut config = config?;
    config.sample_rate = header_num(&header, "sample_rate")? as u32;
    config.validate()?;

    let am = AssociativeMemory::from_prototypes(interictal, ictal)?;
    let electrodes = header_num(&header, "electrodes")? as usize;
    let mut model = PatientModel::new(config, electrodes, am)?.with_generation(generation);
    if let Some(state) = train_state {
        model = model.with_train_state(state)?;
    }
    Ok(model)
}

/// Deserializes a model from `path`.
///
/// # Errors
///
/// As [`load_model`], plus [`ServeError::Io`] for filesystem failures.
pub fn load_model_from(path: &Path) -> Result<PatientModel> {
    let mut file = std::fs::File::open(path)?;
    load_model(&mut file)
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Tuning knobs for a [`ModelRegistry`].
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Upper bound on cached models; loads past it evict the least
    /// recently used entry, so a fleet larger than RAM cannot grow the
    /// cache unbounded.
    pub cache_entries: usize,
    /// Generations kept on disk per patient (the current model plus
    /// `keep_generations` archived predecessors for rollback).
    pub keep_generations: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            cache_entries: 1024,
            keep_generations: 4,
        }
    }
}

/// A directory of persisted models, loaded and cached by patient id.
///
/// Thread-safe: loads share a mutex-guarded **LRU** cache of
/// `Arc<PatientModel>`, so N sessions for one patient share one model in
/// memory while the cache stays bounded ([`RegistryConfig::cache_entries`]).
/// Cache effectiveness is observable through [`ModelRegistry::stats`].
///
/// The registry is **generational**: [`ModelRegistry::publish`] atomically
/// replaces a patient's current model (temp file + rename — readers never
/// observe a half-written model) while archiving the predecessor, keeping
/// the last [`RegistryConfig::keep_generations`] for
/// [`ModelRegistry::rollback`].
///
/// # Examples
///
/// ```no_run
/// use laelaps_serve::ModelRegistry;
///
/// let registry = ModelRegistry::open("/var/lib/laelaps/models")?;
/// let model = registry.load("P14")?;
/// println!("P14: {} electrodes", model.electrodes());
/// # Ok::<(), laelaps_serve::ServeError>(())
/// ```
#[derive(Debug)]
pub struct ModelRegistry {
    dir: PathBuf,
    config: RegistryConfig,
    cache: Mutex<HashMap<String, CacheEntry>>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

#[derive(Debug)]
struct CacheEntry {
    model: Arc<PatientModel>,
    last_used: u64,
}

fn valid_patient_id(id: &str) -> bool {
    !id.is_empty()
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

impl ModelRegistry {
    /// Opens (creating if needed) a registry rooted at `dir` with default
    /// limits.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        Self::open_with(dir, RegistryConfig::default())
    }

    /// Opens a registry with explicit cache and generation limits.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the directory cannot be created.
    pub fn open_with(dir: impl Into<PathBuf>, config: RegistryConfig) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ModelRegistry {
            dir,
            config: RegistryConfig {
                cache_entries: config.cache_entries.max(1),
                keep_generations: config.keep_generations,
            },
            cache: Mutex::new(HashMap::new()),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// The registry's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Cache hit/miss/eviction counters and current occupancy.
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            cached_entries: self.cache.lock().expect("registry cache poisoned").len(),
        }
    }

    fn path_for(&self, patient: &str) -> Result<PathBuf> {
        if !valid_patient_id(patient) {
            return Err(ServeError::InvalidPatientId {
                patient: patient.to_string(),
            });
        }
        Ok(self.dir.join(format!("{patient}.{MODEL_EXT}")))
    }

    /// Path of the archived copy of `patient`'s generation `generation`.
    fn archive_path(&self, patient: &str, generation: u64) -> PathBuf {
        self.dir
            .join(format!("{patient}.g{generation:08}.{MODEL_EXT}"))
    }

    /// Inserts into the cache, evicting the least recently used entry
    /// when over capacity.
    fn cache_insert(&self, patient: &str, model: Arc<PatientModel>) {
        let mut cache = self.cache.lock().expect("registry cache poisoned");
        let last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        cache.insert(patient.to_string(), CacheEntry { model, last_used });
        while cache.len() > self.config.cache_entries {
            let coldest = cache
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("cache over capacity is nonempty");
            cache.remove(&coldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Persists `model` under `patient` and primes the cache. Unlike
    /// [`ModelRegistry::publish`], no generation archive is kept — use
    /// this for initial training flows that do not need rollback.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidPatientId`] or [`ServeError::Io`].
    pub fn save(&self, patient: &str, model: &PatientModel) -> Result<()> {
        let path = self.path_for(patient)?;
        save_model_to(model, &path)?;
        self.cache_insert(patient, Arc::new(model.clone()));
        Ok(())
    }

    /// Publishes `model` as `patient`'s current model **atomically**
    /// (temp file + rename; a concurrent [`ModelRegistry::load`] sees
    /// either the old or the new file, never a torn one), archives it
    /// under its generation number for [`ModelRegistry::rollback`], prunes
    /// archives beyond [`RegistryConfig::keep_generations`], and primes
    /// the cache. Returns the published generation.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidPatientId`] or [`ServeError::Io`].
    pub fn publish(&self, patient: &str, model: &PatientModel) -> Result<u64> {
        let path = self.path_for(patient)?;
        let generation = model.generation();
        // One serialization feeds both the archive and the current file.
        let mut bytes = Vec::new();
        save_model(model, &mut bytes)?;
        write_atomic(&self.archive_path(patient, generation), &bytes)?;
        write_atomic(&path, &bytes)?;
        self.cache_insert(patient, Arc::new(model.clone()));
        self.prune_generations(patient)?;
        Ok(generation)
    }

    /// Archived generation numbers for `patient`, ascending.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidPatientId`] or [`ServeError::Io`].
    pub fn generations(&self, patient: &str) -> Result<Vec<u64>> {
        if !valid_patient_id(patient) {
            return Err(ServeError::InvalidPatientId {
                patient: patient.to_string(),
            });
        }
        let prefix = format!("{patient}.g");
        let suffix = format!(".{MODEL_EXT}");
        let mut generations = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(mid) = name
                .strip_prefix(&prefix)
                .and_then(|rest| rest.strip_suffix(&suffix))
            {
                if let Ok(generation) = mid.parse::<u64>() {
                    generations.push(generation);
                }
            }
        }
        generations.sort_unstable();
        Ok(generations)
    }

    fn prune_generations(&self, patient: &str) -> Result<()> {
        // The newest archive duplicates the just-published current model,
        // so keep `keep_generations` archives *besides* it — otherwise
        // the promised number of rollback targets would be short by one.
        let keep = self.config.keep_generations + 1;
        let generations = self.generations(patient)?;
        if generations.len() > keep {
            for &generation in &generations[..generations.len() - keep] {
                let _ = std::fs::remove_file(self.archive_path(patient, generation));
            }
        }
        Ok(())
    }

    /// Re-publishes the newest archived generation older than the current
    /// model as `patient`'s current model and returns it.
    ///
    /// Rollback is not serialized against concurrent publishers: a
    /// retraining already in flight (e.g. an
    /// [`crate::adapt::AdaptationEngine`] worker that loaded the current
    /// model before this call) will publish a successor derived from the
    /// rolled-back-away lineage and overwrite this rollback. Quiesce the
    /// engine first ([`crate::adapt::AdaptationEngine::flush`]) when
    /// rolling back a patient that may have feedback queued.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoPriorGeneration`] if no older archive exists;
    /// otherwise the [`ModelRegistry::load`] / [`ServeError::Io`] errors.
    pub fn rollback(&self, patient: &str) -> Result<Arc<PatientModel>> {
        let current = self.load(patient)?.generation();
        let target = self
            .generations(patient)?
            .into_iter()
            .rfind(|&g| g < current)
            .ok_or_else(|| ServeError::NoPriorGeneration {
                patient: patient.to_string(),
            })?;
        let model = load_model_from(&self.archive_path(patient, target))?;
        let path = self.path_for(patient)?;
        save_model_to(&model, &path)?;
        let model = Arc::new(model);
        self.cache_insert(patient, Arc::clone(&model));
        Ok(model)
    }

    /// Loads `patient`'s current model, from cache when warm.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownPatient`] if no file exists; otherwise the
    /// [`load_model`] errors.
    pub fn load(&self, patient: &str) -> Result<Arc<PatientModel>> {
        {
            let mut cache = self.cache.lock().expect("registry cache poisoned");
            if let Some(entry) = cache.get_mut(patient) {
                entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&entry.model));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let path = self.path_for(patient)?;
        let model = match load_model_from(&path) {
            Ok(model) => Arc::new(model),
            Err(ServeError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(ServeError::UnknownPatient {
                    patient: patient.to_string(),
                })
            }
            Err(other) => return Err(other),
        };
        self.cache_insert(patient, Arc::clone(&model));
        Ok(model)
    }

    /// Whether a model file (or cached model) exists for `patient`.
    pub fn contains(&self, patient: &str) -> bool {
        if self
            .cache
            .lock()
            .expect("registry cache poisoned")
            .contains_key(patient)
        {
            return true;
        }
        self.path_for(patient).is_ok_and(|p| p.exists())
    }

    /// Drops `patient` from the in-memory cache (the file stays). Manual
    /// evictions are not counted in [`RegistryStats::evictions`], which
    /// tracks capacity pressure only.
    pub fn evict(&self, patient: &str) {
        self.cache
            .lock()
            .expect("registry cache poisoned")
            .remove(patient);
    }

    /// Patient ids with a current model file on disk, sorted (generation
    /// archives are excluded — their stems contain a dot).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the directory cannot be read.
    pub fn patient_ids(&self) -> Result<Vec<String>> {
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some(MODEL_EXT) {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    if valid_patient_id(stem) {
                        ids.push(stem.to_string());
                    }
                }
            }
        }
        ids.sort();
        Ok(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model(seed: u64) -> PatientModel {
        let config = LaelapsConfig::builder()
            .dim(100) // ragged limb on purpose
            .seed(seed)
            .tr(3.25)
            .build()
            .unwrap();
        let mut bits_a = vec![false; 100];
        let mut bits_b = vec![true; 100];
        bits_a[17] = true;
        bits_b[3] = false;
        let am = AssociativeMemory::from_prototypes(
            Hypervector::from_bits(bits_a),
            Hypervector::from_bits(bits_b),
        )
        .unwrap();
        PatientModel::new(config, 6, am).unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let model = tiny_model(99);
        let mut bytes = Vec::new();
        save_model(&model, &mut bytes).unwrap();
        let back = load_model(&mut bytes.as_slice()).unwrap();
        assert_eq!(back.config(), model.config());
        assert_eq!(back.electrodes(), model.electrodes());
        assert_eq!(back.am(), model.am());
    }

    #[test]
    fn tr_roundtrips_bit_exactly() {
        let model = tiny_model(1).with_tr(0.1 + 0.2).unwrap();
        let mut bytes = Vec::new();
        save_model(&model, &mut bytes).unwrap();
        let back = load_model(&mut bytes.as_slice()).unwrap();
        assert_eq!(back.config().tr.to_bits(), model.config().tr.to_bits());
    }

    #[test]
    fn header_is_readable_json() {
        let mut bytes = Vec::new();
        save_model(&tiny_model(2), &mut bytes).unwrap();
        let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let header = std::str::from_utf8(&bytes[12..12 + header_len]).unwrap();
        assert!(header.starts_with('{') && header.ends_with('}'));
        assert!(header.contains("\"format\":1"));
        assert!(header.contains("\"dim\":100"));
        assert!(header.contains("\"tie_policy\":\"zero_on_tie\""));
    }

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(parse_json_header(b"not json").is_err());
        assert!(parse_json_header(b"{\"a\" 1}").is_err());
        assert!(parse_json_header(b"{a:1}").is_err());
        assert!(parse_json_header(b"{\"a\":1.5}").is_err());
        assert!(parse_json_header(b"{}").map(|m| m.len()).unwrap() == 0);
        let map = parse_json_header(b"{\"a\":1,\"b\":\"x\"}").unwrap();
        assert_eq!(header_num(&map, "a").unwrap(), 1);
        assert_eq!(header_str(&map, "b").unwrap(), "x");
        assert!(header_num(&map, "b").is_err());
        assert!(header_str(&map, "a").is_err());
        assert!(header_num(&map, "missing").is_err());
    }

    #[test]
    fn registry_roundtrip_and_cache() {
        let dir =
            std::env::temp_dir().join(format!("laelaps-registry-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = ModelRegistry::open(&dir).unwrap();
        let model = tiny_model(3);
        registry.save("P1", &model).unwrap();
        assert!(registry.contains("P1"));
        assert!(!registry.contains("P2"));
        let a = registry.load("P1").unwrap();
        let b = registry.load("P1").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "cache must share one Arc");
        assert_eq!(a.am(), model.am());
        assert_eq!(registry.patient_ids().unwrap(), vec!["P1".to_string()]);

        registry.evict("P1");
        let c = registry.load("P1").unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "evict forces a fresh read");
        assert_eq!(c.am(), model.am());

        assert!(matches!(
            registry.load("P9"),
            Err(ServeError::UnknownPatient { .. })
        ));
        assert!(matches!(
            registry.save("../evil", &model),
            Err(ServeError::InvalidPatientId { .. })
        ));
        assert!(matches!(
            registry.load(""),
            Err(ServeError::InvalidPatientId { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
