//! Schema descriptors: the self-describing part of a bundle shard.
//!
//! A shard stores fixed-stride records of f32 words; the schema names the
//! tensors inside one record and their shapes, so a reader can slice a
//! record into fields without out-of-band knowledge — the property HDF5
//! gives the paper, reduced to the f32 tensors this workspace moves.

use crate::header::CheckpointError;
use crate::shard::RECORD_HEADER_BYTES;

/// One named tensor inside a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorField {
    /// Field name; `/`-separated paths mirror the Conduit-node layout
    /// (e.g. `"outputs/images"`).
    pub name: String,
    /// Tensor shape; the field occupies `dims.iter().product()` f32s.
    pub dims: Vec<u64>,
}

impl TensorField {
    pub fn new(name: impl Into<String>, dims: Vec<u64>) -> TensorField {
        TensorField {
            name: name.into(),
            dims,
        }
    }

    /// Number of f32 elements the field occupies.
    pub fn len(&self) -> usize {
        self.dims.iter().product::<u64>() as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The full record schema of a shard: fields in record order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleSchema {
    pub fields: Vec<TensorField>,
}

impl BundleSchema {
    pub fn new(fields: Vec<TensorField>) -> BundleSchema {
        BundleSchema { fields }
    }

    /// Total f32 words per record.
    pub fn record_len(&self) -> usize {
        self.fields.iter().map(TensorField::len).sum()
    }

    /// Total payload bytes per record.
    pub fn record_bytes(&self) -> usize {
        self.record_len() * 4
    }

    /// The f32-word range field `i` occupies within a record.
    pub fn field_range(&self, i: usize) -> std::ops::Range<usize> {
        let start: usize = self.fields[..i].iter().map(TensorField::len).sum();
        start..start + self.fields[i].len()
    }

    /// Bytes one shard record of this schema occupies, record header
    /// included, or `None` if a shape's product or the sum overflows
    /// `usize`. [`BundleSchema::decode`] refuses such a schema, so the
    /// unchecked geometry helpers above are exact for every decoded one.
    fn checked_record_stride(&self) -> Option<usize> {
        let words = self.fields.iter().try_fold(0usize, |acc, f| {
            let len = f.dims.iter().try_fold(1u64, |p, &d| p.checked_mul(d))?;
            acc.checked_add(usize::try_from(len).ok()?)
        })?;
        words.checked_mul(4)?.checked_add(RECORD_HEADER_BYTES)
    }

    /// Find a field by name, returning its index and descriptor.
    pub fn field_named(&self, name: &str) -> Option<(usize, &TensorField)> {
        self.fields.iter().enumerate().find(|(_, f)| f.name == name)
    }

    /// Serialise the schema descriptor (the shard header's body).
    ///
    /// Layout, little-endian:
    /// `n_fields u32 | { name_len u32 | name bytes | ndims u32 | dims u64… }…`
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.fields.len() as u32).to_le_bytes());
        for f in &self.fields {
            out.extend_from_slice(&(f.name.len() as u32).to_le_bytes());
            out.extend_from_slice(f.name.as_bytes());
            out.extend_from_slice(&(f.dims.len() as u32).to_le_bytes());
            for &d in &f.dims {
                out.extend_from_slice(&d.to_le_bytes());
            }
        }
        out
    }

    /// Decode a schema descriptor; every malformation is a typed error,
    /// never a panic (the bytes come from disk). That includes shapes
    /// whose record size overflows: the schema CRC catches corruption,
    /// not a crafted file.
    pub fn decode(raw: &[u8]) -> Result<BundleSchema, CheckpointError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], CheckpointError> {
            let s = raw.get(*pos..*pos + n).ok_or(CheckpointError::Truncated)?;
            *pos += n;
            Ok(s)
        };
        let take_u32 = |pos: &mut usize| -> Result<u32, CheckpointError> {
            let b = take(pos, 4)?;
            Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        };
        let n_fields = take_u32(&mut pos)? as usize;
        let mut fields = Vec::with_capacity(n_fields.min(1024));
        for _ in 0..n_fields {
            let name_len = take_u32(&mut pos)? as usize;
            let name = std::str::from_utf8(take(&mut pos, name_len)?)
                .map_err(|e| CheckpointError::ConfigMismatch(format!("field name: {e}")))?
                .to_string();
            let ndims = take_u32(&mut pos)? as usize;
            let mut dims = Vec::with_capacity(ndims.min(16));
            for _ in 0..ndims {
                let b = take(&mut pos, 8)?;
                dims.push(u64::from_le_bytes([
                    b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
                ]));
            }
            fields.push(TensorField { name, dims });
        }
        if pos != raw.len() {
            return Err(CheckpointError::ConfigMismatch(format!(
                "schema descriptor has {} trailing bytes",
                raw.len() - pos
            )));
        }
        let schema = BundleSchema { fields };
        if schema.checked_record_stride().is_none() {
            return Err(CheckpointError::ConfigMismatch(
                "schema record size overflows".into(),
            ));
        }
        Ok(schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jag_like() -> BundleSchema {
        BundleSchema::new(vec![
            TensorField::new("inputs/params", vec![5]),
            TensorField::new("outputs/scalars", vec![15]),
            TensorField::new("outputs/images", vec![12, 8, 8]),
        ])
    }

    #[test]
    fn record_geometry() {
        let s = jag_like();
        assert_eq!(s.record_len(), 5 + 15 + 12 * 8 * 8);
        assert_eq!(s.record_bytes(), s.record_len() * 4);
        assert_eq!(s.field_range(0), 0..5);
        assert_eq!(s.field_range(1), 5..20);
        assert_eq!(s.field_range(2), 20..20 + 12 * 8 * 8);
        let (i, f) = s.field_named("outputs/scalars").unwrap();
        assert_eq!(i, 1);
        assert_eq!(f.len(), 15);
        assert!(s.field_named("nope").is_none());
    }

    #[test]
    fn encode_decode_round_trip() {
        let s = jag_like();
        assert_eq!(BundleSchema::decode(&s.encode()).unwrap(), s);
        let empty = BundleSchema::new(vec![]);
        assert_eq!(BundleSchema::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn truncated_descriptor_is_typed() {
        let enc = jag_like().encode();
        for cut in [0, 3, 7, enc.len() - 1] {
            assert!(
                matches!(
                    BundleSchema::decode(&enc[..cut]),
                    Err(CheckpointError::Truncated)
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut enc = jag_like().encode();
        enc.push(0);
        assert!(matches!(
            BundleSchema::decode(&enc),
            Err(CheckpointError::ConfigMismatch(_))
        ));
    }

    /// Shapes whose record size overflows: the product of the dims, or
    /// the payload bytes plus the 12-byte record header.
    const OVERFLOWING_DIMS: [&[u64]; 4] =
        [&[1 << 62, 4], &[u64::MAX, 2], &[(1 << 62) - 3], &[u64::MAX]];

    #[test]
    fn overflowing_record_size_rejected() {
        for dims in OVERFLOWING_DIMS {
            let s = BundleSchema::new(vec![TensorField::new("x", dims.to_vec())]);
            assert!(
                matches!(
                    BundleSchema::decode(&s.encode()),
                    Err(CheckpointError::ConfigMismatch(_))
                ),
                "dims {dims:?}"
            );
        }
        // Two fields whose records each fit overflow together.
        let half = vec![TensorField::new("h", vec![1 << 61]); 2];
        assert!(matches!(
            BundleSchema::decode(&BundleSchema::new(half).encode()),
            Err(CheckpointError::ConfigMismatch(_))
        ));
        // The largest stride that fits still decodes.
        let max_words = ((usize::MAX - RECORD_HEADER_BYTES) / 4) as u64;
        let s = BundleSchema::new(vec![TensorField::new("m", vec![max_words])]);
        assert_eq!(BundleSchema::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn non_utf8_name_rejected() {
        let mut enc = Vec::new();
        enc.extend_from_slice(&1u32.to_le_bytes());
        enc.extend_from_slice(&2u32.to_le_bytes());
        enc.extend_from_slice(&[0xFF, 0xFE]);
        enc.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            BundleSchema::decode(&enc),
            Err(CheckpointError::ConfigMismatch(_))
        ));
    }
}
