//! The bundle-shard codec: append-only fixed-stride records behind a
//! self-describing header, read back through a memory mapping.
//!
//! Layout (little-endian):
//!
//! ```text
//! header   20 B   CheckpointHeader { "LTBS", version, schema_len, crc32(schema) }
//! schema   var    BundleSchema descriptor (see `schema` module)
//! pad      0–3 B  zeros, so the data region is 4-byte aligned
//! records  n ×    { id u64 | payload_crc u32 | payload record_len × f32 }
//! ```
//!
//! Design points, all driven by the out-of-core store:
//!
//! * **per-record CRCs, no trailing file CRC** — a shard stays valid
//!   under `O_APPEND`-style streaming ingest; a whole-payload checksum
//!   (as in the legacy `.jagb` format) would need rewriting on every
//!   append;
//! * **fixed stride** — sample `i` lives at a computable offset, so a
//!   mapped shard serves `&[f32]` views with zero per-fetch I/O or
//!   deserialisation;
//! * **ids in the record header** — ingest shards carry arbitrary global
//!   ids (fresh samples get ids past the base corpus), so the reader
//!   indexes `id → record` at map time instead of assuming density;
//! * **verify once per mapping** — a mapping is an immutable snapshot of
//!   the file, so a record whose CRC passed against it passes on every
//!   later read of the same mapping. The reader checks each record's CRC
//!   on its first read and remembers the pass; re-mapping (`open`,
//!   `refresh`) forgets every pass. A record that fails is never
//!   remembered, so it fails on every read.

use crate::header::{CheckpointError, CheckpointHeader, HEADER_BYTES};
use crate::schema::BundleSchema;
use ltfb_tensor::{crc32, put_f32s_le};
use memmap2::Mmap;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// `"LTBS"` — LTfb Bundle Shard.
pub const SHARD_MAGIC: u32 = 0x4C54_4253;
/// Bump on any layout change (enforced by lint rule LA005's convention).
pub const SHARD_VERSION: u32 = 1;

/// Bytes before the payload within one record (`id u64 | crc u32`).
pub(crate) const RECORD_HEADER_BYTES: usize = 12;

fn data_offset(schema_len: usize) -> usize {
    let unaligned = HEADER_BYTES + schema_len;
    unaligned + (4 - unaligned % 4) % 4
}

fn record_stride(schema: &BundleSchema) -> usize {
    RECORD_HEADER_BYTES + schema.record_bytes()
}

/// Append-only shard writer (creation and streaming ingest).
pub struct ShardWriter {
    file: BufWriter<File>,
    path: PathBuf,
    schema: BundleSchema,
    count: usize,
    bytes_written: u64,
    /// One encoded record (`id | crc | payload`), reused across appends.
    record: Vec<u8>,
}

impl ShardWriter {
    /// Create (truncating) a shard at `path` with the given schema.
    pub fn create(path: &Path, schema: BundleSchema) -> Result<ShardWriter, CheckpointError> {
        let mut file = BufWriter::new(File::create(path)?);
        let body = schema.encode();
        CheckpointHeader::for_body(SHARD_MAGIC, SHARD_VERSION, &body).write_to(&mut file)?;
        file.write_all(&body)?;
        let pad = data_offset(body.len()) - HEADER_BYTES - body.len();
        file.write_all(&[0u8; 3][..pad])?;
        file.flush()?;
        Ok(ShardWriter {
            file,
            path: path.to_path_buf(),
            schema,
            count: 0,
            bytes_written: 0,
            record: Vec::new(),
        })
    }

    /// Re-open an existing shard for appending. The on-disk schema must
    /// match `schema` exactly, and the existing tail must be whole
    /// records.
    pub fn open_append(path: &Path, schema: BundleSchema) -> Result<ShardWriter, CheckpointError> {
        let existing = MmapShard::open(path)?;
        if existing.schema() != &schema {
            return Err(CheckpointError::ConfigMismatch(format!(
                "shard schema on disk differs from the writer's ({} vs {} fields)",
                existing.schema().fields.len(),
                schema.fields.len()
            )));
        }
        let count = existing.len();
        let file = BufWriter::new(OpenOptions::new().append(true).open(path)?);
        Ok(ShardWriter {
            file,
            path: path.to_path_buf(),
            schema,
            count,
            bytes_written: 0,
            record: Vec::new(),
        })
    }

    /// Append one record. `payload` must be exactly one record long.
    /// The record is encoded once into a reused buffer and handed to the
    /// file in one write.
    pub fn append(&mut self, id: u64, payload: &[f32]) -> Result<(), CheckpointError> {
        if payload.len() != self.schema.record_len() {
            return Err(CheckpointError::ConfigMismatch(format!(
                "record payload has {} f32s, schema says {}",
                payload.len(),
                self.schema.record_len()
            )));
        }
        let rec = &mut self.record;
        rec.clear();
        rec.extend_from_slice(&id.to_le_bytes());
        rec.extend_from_slice(&[0u8; 4]);
        put_f32s_le(rec, payload);
        let crc = crc32(&rec[RECORD_HEADER_BYTES..]);
        rec[8..RECORD_HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
        self.file.write_all(rec)?;
        self.count += 1;
        self.bytes_written += rec.len() as u64;
        Ok(())
    }

    /// Flush buffered records to the file system — a reader re-mapping
    /// the shard sees everything appended before the flush.
    pub fn flush(&mut self) -> Result<(), CheckpointError> {
        self.file.flush()?;
        Ok(())
    }

    /// Records in the shard (pre-existing plus appended).
    pub fn count(&self) -> usize {
        self.count
    }

    /// Payload + record-header bytes appended by this writer.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn schema(&self) -> &BundleSchema {
        &self.schema
    }
}

/// A memory-mapped shard serving zero-copy `&[f32]` sample views.
pub struct MmapShard {
    mmap: Mmap,
    path: PathBuf,
    schema: BundleSchema,
    data_off: usize,
    /// Record ids in record order (`ids[i]` is record `i`).
    ids: Vec<u64>,
    index: HashMap<u64, usize>,
    /// `verified[i]` is set once record `i`'s CRC has passed against this
    /// mapping; a new mapping starts with every flag clear.
    verified: Vec<AtomicBool>,
    /// Strict mode refuses a partial tail record; streaming mode (the
    /// ingest reader) exposes only the complete prefix.
    strict: bool,
}

impl MmapShard {
    /// Map a shard, requiring the tail to be whole records.
    pub fn open(path: &Path) -> Result<MmapShard, CheckpointError> {
        Self::open_mode(path, true)
    }

    /// Map a shard that a writer may still be appending to: a partial
    /// tail record is not an error, it is simply not visible yet.
    pub fn open_streaming(path: &Path) -> Result<MmapShard, CheckpointError> {
        Self::open_mode(path, false)
    }

    fn open_mode(path: &Path, strict: bool) -> Result<MmapShard, CheckpointError> {
        let mmap = Mmap::map_path(path)?;
        let mut shard = MmapShard {
            mmap,
            path: path.to_path_buf(),
            schema: BundleSchema::new(vec![]),
            data_off: 0,
            ids: Vec::new(),
            index: HashMap::new(),
            verified: Vec::new(),
            strict,
        };
        shard.decode_layout()?;
        Ok(shard)
    }

    /// Index the current mapping. Runs on every map (open and refresh),
    /// and forgets every record's verified flag before anything else, so
    /// no pass recorded against an older mapping vouches for this one.
    fn decode_layout(&mut self) -> Result<(), CheckpointError> {
        self.ids.clear();
        self.index.clear();
        self.verified.clear();
        let raw: &[u8] = &self.mmap;
        let head: [u8; HEADER_BYTES] = raw
            .get(..HEADER_BYTES)
            .and_then(|s| s.try_into().ok())
            .ok_or(CheckpointError::Truncated)?;
        let header = CheckpointHeader::decode(&head, SHARD_MAGIC, SHARD_VERSION)?;
        let schema_len = header.body_len as usize;
        let body = raw
            .get(HEADER_BYTES..HEADER_BYTES + schema_len)
            .ok_or(CheckpointError::Truncated)?;
        if crc32(body) != header.crc {
            return Err(CheckpointError::BadChecksum);
        }
        self.schema = BundleSchema::decode(body)?;
        self.data_off = data_offset(schema_len);
        if raw.len() < self.data_off {
            return Err(CheckpointError::Truncated);
        }
        let stride = record_stride(&self.schema);
        let data_len = raw.len() - self.data_off;
        if self.strict && !data_len.is_multiple_of(stride) {
            return Err(CheckpointError::Truncated);
        }
        let n = data_len / stride;
        self.ids.reserve(n);
        for i in 0..n {
            let off = self.data_off + i * stride;
            let id_raw: [u8; 8] = raw
                .get(off..off + 8)
                .and_then(|s| s.try_into().ok())
                .ok_or(CheckpointError::Truncated)?;
            let id = u64::from_le_bytes(id_raw);
            self.ids.push(id);
            self.index.insert(id, i);
        }
        self.verified.resize_with(n, || AtomicBool::new(false));
        Ok(())
    }

    /// Re-map the file, picking up records appended (and flushed) since
    /// the last map. Header and schema must be unchanged.
    pub fn refresh(&mut self) -> Result<(), CheckpointError> {
        let schema_before = self.schema.clone();
        self.mmap = Mmap::map_path(&self.path)?;
        self.decode_layout()?;
        if self.schema != schema_before {
            return Err(CheckpointError::ConfigMismatch(
                "shard schema changed under an open reader".into(),
            ));
        }
        Ok(())
    }

    /// Complete records visible in the mapping.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Record ids in record order.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Record index of global id `id`, if present.
    pub fn index_of(&self, id: u64) -> Option<usize> {
        self.index.get(&id).copied()
    }

    pub fn schema(&self) -> &BundleSchema {
        &self.schema
    }

    /// Bytes this mapping spans.
    pub fn bytes_mapped(&self) -> u64 {
        self.mmap.len() as u64
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Zero-copy view of record `idx`'s full payload. The payload's
    /// checksum is verified against the record header on the first read
    /// of `idx` in this mapping; later reads of a record that passed skip
    /// the check (the mapping's bytes cannot change), while a record that
    /// failed is checked, and fails, on every read. Every failure is
    /// typed; this never panics on disk corruption.
    pub fn sample(&self, idx: usize) -> Result<&[f32], CheckpointError> {
        let stride = record_stride(&self.schema);
        if idx >= self.ids.len() {
            return Err(CheckpointError::ConfigMismatch(format!(
                "record {idx} out of range 0..{}",
                self.ids.len()
            )));
        }
        let off = self.data_off + idx * stride;
        // Relaxed is enough: the flag publishes no data. The bytes it
        // vouches for are fixed for the mapping's whole life, and the
        // mapping and flags are only ever replaced together under
        // `&mut self`. A reader that sees a stale `false` just re-checks
        // the same bytes and gets the same answer.
        let verified = &self.verified[idx];
        if !verified.load(Ordering::Relaxed) {
            let raw: &[u8] = &self.mmap;
            let crc_raw: [u8; 4] = raw
                .get(off + 8..off + RECORD_HEADER_BYTES)
                .and_then(|s| s.try_into().ok())
                .ok_or(CheckpointError::Truncated)?;
            let payload = raw
                .get(off + RECORD_HEADER_BYTES..off + stride)
                .ok_or(CheckpointError::Truncated)?;
            if crc32(payload) != u32::from_le_bytes(crc_raw) {
                return Err(CheckpointError::BadChecksum);
            }
            verified.store(true, Ordering::Relaxed);
        }
        self.mmap
            .as_f32s(off + RECORD_HEADER_BYTES, self.schema.record_len())
            .ok_or(CheckpointError::Truncated)
    }

    /// [`MmapShard::sample`] addressed by global id.
    pub fn sample_by_id(&self, id: u64) -> Result<Option<&[f32]>, CheckpointError> {
        match self.index_of(id) {
            Some(idx) => Ok(Some(self.sample(idx)?)),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
impl ShardWriter {
    /// The per-element append encoding this writer replaced: a fresh
    /// buffer per record and three writes. Byte oracle for `append`.
    fn append_per_element(&mut self, id: u64, payload: &[f32]) -> Result<(), CheckpointError> {
        let mut raw = Vec::with_capacity(payload.len() * 4);
        for &v in payload {
            raw.extend_from_slice(&v.to_le_bytes());
        }
        self.file.write_all(&id.to_le_bytes())?;
        self.file.write_all(&crc32(&raw).to_le_bytes())?;
        self.file.write_all(&raw)?;
        self.count += 1;
        self.bytes_written += (RECORD_HEADER_BYTES + raw.len()) as u64;
        Ok(())
    }
}

#[cfg(test)]
impl MmapShard {
    /// Read oracle for `sample`: checks record `idx`'s CRC on every call
    /// and decodes the payload from the mapping's bytes, ignoring the
    /// verified flags entirely.
    fn sample_checked_every_read(&self, idx: usize) -> Result<Vec<f32>, CheckpointError> {
        if idx >= self.ids.len() {
            return Err(CheckpointError::ConfigMismatch(format!(
                "record {idx} out of range"
            )));
        }
        let stride = record_stride(&self.schema);
        let off = self.data_off + idx * stride;
        let raw: &[u8] = &self.mmap;
        let crc = u32::from_le_bytes(raw[off + 8..off + 12].try_into().unwrap());
        let payload = &raw[off + RECORD_HEADER_BYTES..off + stride];
        if crc32(payload) != crc {
            return Err(CheckpointError::BadChecksum);
        }
        Ok(ltfb_tensor::f32s_from_le(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TensorField;
    use proptest::prelude::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ltbs-shard-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ))
    }

    fn schema() -> BundleSchema {
        BundleSchema::new(vec![
            TensorField::new("a", vec![3]),
            TensorField::new("b/c", vec![2, 2]),
        ])
    }

    fn payload(seed: u64, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| (seed * 31 + i as u64) as f32 * 0.5)
            .collect()
    }

    #[test]
    fn write_then_mmap_views_bit_exact() {
        let p = temp_path("rt");
        let s = schema();
        let mut w = ShardWriter::create(&p, s.clone()).unwrap();
        for id in [7u64, 3, 99] {
            w.append(id, &payload(id, s.record_len())).unwrap();
        }
        w.flush().unwrap();
        let shard = MmapShard::open(&p).unwrap();
        assert_eq!(shard.len(), 3);
        assert_eq!(shard.ids(), &[7, 3, 99]);
        assert_eq!(shard.schema(), &s);
        for id in [7u64, 3, 99] {
            let view = shard.sample_by_id(id).unwrap().unwrap();
            assert_eq!(view, &payload(id, s.record_len())[..], "id {id}");
        }
        assert!(shard.sample_by_id(1).unwrap().is_none());
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn append_reopen_and_refresh() {
        let p = temp_path("append");
        let s = schema();
        let mut w = ShardWriter::create(&p, s.clone()).unwrap();
        w.append(0, &payload(0, s.record_len())).unwrap();
        w.flush().unwrap();

        let mut reader = MmapShard::open_streaming(&p).unwrap();
        assert_eq!(reader.len(), 1);

        let mut w2 = ShardWriter::open_append(&p, s.clone()).unwrap();
        assert_eq!(w2.count(), 1);
        w2.append(1, &payload(1, s.record_len())).unwrap();
        w2.append(2, &payload(2, s.record_len())).unwrap();
        w2.flush().unwrap();

        // Snapshot semantics: invisible until refresh.
        assert_eq!(reader.len(), 1);
        reader.refresh().unwrap();
        assert_eq!(reader.len(), 3);
        assert_eq!(
            reader.sample_by_id(2).unwrap().unwrap(),
            &payload(2, s.record_len())[..]
        );
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn partial_tail_streaming_vs_strict() {
        let p = temp_path("tail");
        let s = schema();
        let mut w = ShardWriter::create(&p, s.clone()).unwrap();
        w.append(0, &payload(0, s.record_len())).unwrap();
        w.append(1, &payload(1, s.record_len())).unwrap();
        w.flush().unwrap();
        // Chop mid-record.
        let raw = std::fs::read(&p).unwrap();
        std::fs::write(&p, &raw[..raw.len() - 5]).unwrap();
        assert!(matches!(
            MmapShard::open(&p),
            Err(CheckpointError::Truncated)
        ));
        let streaming = MmapShard::open_streaming(&p).unwrap();
        assert_eq!(streaming.len(), 1, "only the complete record is visible");
        assert_eq!(
            streaming.sample(0).unwrap(),
            &payload(0, s.record_len())[..]
        );
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn corrupt_record_crc_is_typed_on_read() {
        let p = temp_path("crc");
        let s = schema();
        let mut w = ShardWriter::create(&p, s.clone()).unwrap();
        w.append(0, &payload(0, s.record_len())).unwrap();
        w.append(1, &payload(1, s.record_len())).unwrap();
        w.flush().unwrap();
        let mut raw = std::fs::read(&p).unwrap();
        let last = raw.len() - 1; // inside record 1's payload
        raw[last] ^= 0xFF;
        std::fs::write(&p, &raw).unwrap();
        let shard = MmapShard::open(&p).unwrap();
        assert!(shard.sample(0).is_ok(), "record 0 untouched");
        assert!(matches!(shard.sample(1), Err(CheckpointError::BadChecksum)));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn wrong_magic_and_schema_mismatch_rejected() {
        let p = temp_path("magic");
        std::fs::write(&p, vec![0u8; 64]).unwrap();
        assert!(matches!(
            MmapShard::open(&p),
            Err(CheckpointError::BadMagic(0))
        ));
        let s = schema();
        let mut w = ShardWriter::create(&p, s.clone()).unwrap();
        w.append(0, &payload(0, s.record_len())).unwrap();
        w.flush().unwrap();
        let other = BundleSchema::new(vec![TensorField::new("z", vec![1])]);
        assert!(matches!(
            ShardWriter::open_append(&p, other),
            Err(CheckpointError::ConfigMismatch(_))
        ));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn wrong_payload_len_refused_by_writer() {
        let p = temp_path("len");
        let s = schema();
        let mut w = ShardWriter::create(&p, s.clone()).unwrap();
        assert!(matches!(
            w.append(0, &[1.0, 2.0]),
            Err(CheckpointError::ConfigMismatch(_))
        ));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn empty_shard_round_trips() {
        let p = temp_path("empty");
        let s = schema();
        let mut w = ShardWriter::create(&p, s.clone()).unwrap();
        w.flush().unwrap();
        let shard = MmapShard::open(&p).unwrap();
        assert!(shard.is_empty());
        assert_eq!(shard.schema(), &s);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn corrupt_record_fails_on_every_read_and_neighbours_stay_ok() {
        let p = temp_path("crc-twice");
        let s = schema();
        let mut w = ShardWriter::create(&p, s.clone()).unwrap();
        for id in 0..3u64 {
            w.append(id, &payload(id, s.record_len())).unwrap();
        }
        w.flush().unwrap();
        let mut raw = std::fs::read(&p).unwrap();
        let record_1_last = raw.len() - record_stride(&s) - 1;
        raw[record_1_last] ^= 0x01;
        std::fs::write(&p, &raw).unwrap();
        let shard = MmapShard::open(&p).unwrap();
        for _ in 0..2 {
            assert!(matches!(shard.sample(1), Err(CheckpointError::BadChecksum)));
            for id in [0u64, 2] {
                assert_eq!(
                    shard.sample(id as usize).unwrap(),
                    &payload(id, s.record_len())[..]
                );
            }
        }
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn refresh_rechecks_records_verified_in_the_old_mapping() {
        let p = temp_path("regen");
        let s = schema();
        let mut w = ShardWriter::create(&p, s.clone()).unwrap();
        w.append(0, &payload(0, s.record_len())).unwrap();
        w.flush().unwrap();
        let mut shard = MmapShard::open_streaming(&p).unwrap();
        assert!(shard.sample(0).is_ok());
        let mut raw = std::fs::read(&p).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x80;
        std::fs::write(&p, &raw).unwrap();
        // The old mapping is a snapshot: still intact, still verified.
        assert_eq!(shard.sample(0).unwrap(), &payload(0, s.record_len())[..]);
        shard.refresh().unwrap();
        assert!(matches!(shard.sample(0), Err(CheckpointError::BadChecksum)));
        std::fs::remove_file(&p).unwrap();
    }

    /// A shard whose data region is `data_len` zero bytes behind a schema
    /// with a single field of shape `dims`, written without any geometry
    /// check (the writer only encodes the schema).
    fn crafted_shard(tag: &str, dims: Vec<u64>, data_len: usize) -> PathBuf {
        let p = temp_path(tag);
        let mut w =
            ShardWriter::create(&p, BundleSchema::new(vec![TensorField::new("x", dims)])).unwrap();
        w.flush().unwrap();
        let mut raw = std::fs::read(&p).unwrap();
        raw.resize(raw.len() + data_len, 0);
        std::fs::write(&p, &raw).unwrap();
        p
    }

    #[test]
    fn crafted_overflowing_schema_is_typed_on_open() {
        // Before `decode` checked the record size: the first two panicked
        // in debug builds (product overflow), the third panicked in debug
        // (stride add) and divided by zero in release, and the first
        // mapped five phantom 12-byte "records" in release.
        let cases: [(&str, Vec<u64>); 3] = [
            ("ovf-mul", vec![1 << 62, 4]),
            ("ovf-max", vec![u64::MAX, 2]),
            ("ovf-add", vec![(1 << 62) - 3]),
        ];
        for (tag, dims) in cases {
            let p = crafted_shard(tag, dims.clone(), 5 * RECORD_HEADER_BYTES);
            for opened in [MmapShard::open(&p), MmapShard::open_streaming(&p)] {
                assert!(
                    matches!(opened, Err(CheckpointError::ConfigMismatch(_))),
                    "dims {dims:?}"
                );
            }
            std::fs::remove_file(&p).unwrap();
        }
    }

    /// f32s weighted towards bit patterns a value comparison would miss:
    /// NaNs with arbitrary sign and payload, -0.0 and subnormals.
    fn edge_f32() -> impl Strategy<Value = f32> {
        (0u8..4, any::<u32>()).prop_map(|(class, r)| match class {
            0 => f32::from_bits(0x7F80_0001 | (r & 0x807F_FFFF)),
            1 => f32::from_bits(r & 0x807F_FFFF),
            2 => -0.0,
            _ => f32::from_bits(r),
        })
    }

    /// A schema with 1–3 fields of rank 1–2, each dim 1–4.
    fn small_schema() -> impl Strategy<Value = BundleSchema> {
        prop::collection::vec(prop::collection::vec(1u64..5, 1..3), 1..4).prop_map(|shapes| {
            BundleSchema::new(
                shapes
                    .into_iter()
                    .enumerate()
                    .map(|(i, dims)| TensorField::new(format!("f{i}"), dims))
                    .collect(),
            )
        })
    }

    /// Records `(ids[i], pool[i * len..][..len])`; the pool holds enough
    /// words for the largest `small_schema` record times six.
    fn records(ids: &[u64], pool: &[f32], len: usize) -> Vec<(u64, Vec<f32>)> {
        ids.iter()
            .enumerate()
            .map(|(i, &id)| (id, pool[i * len..(i + 1) * len].to_vec()))
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn append_bytes_match_per_element_oracle(
            s in small_schema(),
            ids in prop::collection::vec(any::<u64>(), 0..7),
            pool in prop::collection::vec(edge_f32(), 300..301),
        ) {
            let (p, q) = (temp_path("wr-new"), temp_path("wr-old"));
            let mut new = ShardWriter::create(&p, s.clone()).unwrap();
            let mut old = ShardWriter::create(&q, s.clone()).unwrap();
            for (id, rec) in records(&ids, &pool, s.record_len()) {
                new.append(id, &rec).unwrap();
                old.append_per_element(id, &rec).unwrap();
            }
            new.flush().unwrap();
            old.flush().unwrap();
            prop_assert_eq!(new.bytes_written(), old.bytes_written());
            prop_assert_eq!(new.count(), old.count());
            let (a, b) = (std::fs::read(&p).unwrap(), std::fs::read(&q).unwrap());
            std::fs::remove_file(&p).unwrap();
            std::fs::remove_file(&q).unwrap();
            prop_assert!(a == b, "shard bytes differ from the per-element oracle");
        }

        #[test]
        fn sample_matches_per_read_crc_oracle(
            s in small_schema(),
            n in 1usize..7,
            pool in prop::collection::vec(edge_f32(), 300..301),
            flip in any::<prop::sample::Index>(),
            reads in prop::collection::vec(any::<prop::sample::Index>(), 1..24),
        ) {
            let p = temp_path("oracle");
            let mut w = ShardWriter::create(&p, s.clone()).unwrap();
            let ids: Vec<u64> = (0..n as u64).collect();
            for (id, rec) in records(&ids, &pool, s.record_len()) {
                w.append(id, &rec).unwrap();
            }
            w.flush().unwrap();
            let mut shard = MmapShard::open_streaming(&p).unwrap();
            // Reads on the clean mapping, then one bit flipped anywhere in
            // the data region, a re-map, and the same reads again: each
            // result must be what a check on every read would give.
            for phase in 0..2 {
                if phase == 1 {
                    let mut raw = std::fs::read(&p).unwrap();
                    let bit = flip.index((raw.len() - shard.data_off) * 8);
                    raw[shard.data_off + bit / 8] ^= 1 << (bit % 8);
                    std::fs::write(&p, &raw).unwrap();
                    shard.refresh().unwrap();
                }
                for r in &reads {
                    let idx = r.index(n);
                    match (shard.sample(idx), shard.sample_checked_every_read(idx)) {
                        (Ok(view), Ok(want)) => prop_assert_eq!(bits(view), bits(&want)),
                        (Err(CheckpointError::BadChecksum), Err(CheckpointError::BadChecksum)) => {}
                        (got, want) => prop_assert!(
                            false,
                            "record {}: sample {:?}, oracle {:?}", idx, got.map(bits), want.map(|v| bits(&v))
                        ),
                    }
                }
            }
            std::fs::remove_file(&p).unwrap();
        }
    }
}
