//! Binary (de)serialisation of matrices.
//!
//! Model exchange in LTFB ships generator weights between trainers as flat
//! byte buffers over the communication layer; the same codec backs the
//! bundle file format's tensor payloads. Format (little-endian):
//!
//! ```text
//! magic  u32  = 0x4C54_4642 ("LTFB")
//! rows   u64
//! cols   u64
//! data   rows*cols f32, row-major
//! crc    u32  (CRC-32 of the data bytes)
//! ```

use crate::matrix::Matrix;
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: u32 = 0x4C54_4642;

/// Errors from [`decode_matrix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer too short for the header or payload.
    Truncated { needed: usize, have: usize },
    /// Magic number mismatch: not an encoded matrix.
    BadMagic(u32),
    /// Stored CRC does not match the payload (corruption).
    BadChecksum { stored: u32, computed: u32 },
    /// rows*cols overflows or is absurdly large for the buffer.
    BadShape { rows: u64, cols: u64 },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed, have } => {
                write!(
                    f,
                    "truncated matrix buffer: need {needed} bytes, have {have}"
                )
            }
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            DecodeError::BadChecksum { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            DecodeError::BadShape { rows, cols } => write!(f, "bad shape {rows}x{cols}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// CRC-32 (IEEE polynomial, reflected, as in zlib/PNG) by slicing-by-8:
/// eight bytes per step through eight 256-entry tables. Every shard read,
/// ingest append and matrix decode checks one, so this runs at memory
/// speed rather than a bit at a time.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// `CRC_TABLES[0][b]` is the CRC register after shifting byte `b` through
/// it; `CRC_TABLES[k][b]` is that value advanced by `k` further zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// Append `src` as little-endian f32 words: the same bytes as
/// `put_f32_le` per element, staged a block at a time so the conversion
/// vectorises and the buffer grows by whole blocks.
pub fn put_f32s_le(buf: &mut impl BufMut, src: &[f32]) {
    let mut stage = [0u8; 1024];
    for block in src.chunks(stage.len() / 4) {
        let bytes = &mut stage[..block.len() * 4];
        for (word, v) in bytes.chunks_exact_mut(4).zip(block) {
            word.copy_from_slice(&v.to_le_bytes());
        }
        buf.put_slice(bytes);
    }
}

/// Decode little-endian f32 words, the inverse of [`put_f32s_le`]. Every
/// bit pattern (NaN payloads, -0.0, subnormals) survives. A trailing
/// partial word is ignored; callers pass whole words.
pub fn f32s_from_le(src: &[u8]) -> Vec<f32> {
    src.chunks_exact(4)
        .map(|w| f32::from_le_bytes([w[0], w[1], w[2], w[3]]))
        .collect()
}

/// Number of bytes [`encode_matrix`] will produce for a `rows x cols` matrix.
pub fn encoded_len(rows: usize, cols: usize) -> usize {
    4 + 8 + 8 + rows * cols * 4 + 4
}

/// Serialise a matrix into a fresh byte buffer.
pub fn encode_matrix(m: &Matrix) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_len(m.rows(), m.cols()));
    encode_matrix_into(m, &mut buf);
    buf.freeze()
}

/// Serialise a matrix, appending to an existing buffer (used when packing
/// many weight tensors into one model-exchange message).
pub fn encode_matrix_into(m: &Matrix, buf: &mut BytesMut) {
    buf.put_u32_le(MAGIC);
    buf.put_u64_le(m.rows() as u64);
    buf.put_u64_le(m.cols() as u64);
    let start = buf.len();
    put_f32s_le(buf, m.as_slice());
    let crc = crc32(&buf[start..]);
    buf.put_u32_le(crc);
}

/// Deserialise one matrix from the front of `buf`, advancing it past the
/// consumed bytes. Multiple matrices can be decoded back-to-back.
pub fn decode_matrix(buf: &mut Bytes) -> Result<Matrix, DecodeError> {
    const HEADER: usize = 4 + 8 + 8;
    if buf.remaining() < HEADER {
        return Err(DecodeError::Truncated {
            needed: HEADER,
            have: buf.remaining(),
        });
    }
    let magic = buf.get_u32_le();
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let rows = buf.get_u64_le();
    let cols = buf.get_u64_le();
    let n = rows
        .checked_mul(cols)
        .filter(|&n| n <= (buf.remaining() as u64) / 4 + 1)
        .ok_or(DecodeError::BadShape { rows, cols })? as usize;
    let payload = n * 4;
    if buf.remaining() < payload + 4 {
        return Err(DecodeError::Truncated {
            needed: payload + 4,
            have: buf.remaining(),
        });
    }
    let computed = crc32(&buf[..payload]);
    let data = f32s_from_le(&buf[..payload]);
    buf.advance(payload);
    let stored = buf.get_u32_le();
    if stored != computed {
        return Err(DecodeError::BadChecksum { stored, computed });
    }
    Ok(Matrix::from_vec(rows as usize, cols as usize, data))
}

/// Encode a sequence of matrices into one contiguous message.
pub fn encode_matrices(ms: &[&Matrix]) -> Bytes {
    let total: usize = ms.iter().map(|m| encoded_len(m.rows(), m.cols())).sum();
    let mut buf = BytesMut::with_capacity(total + 8);
    buf.put_u64_le(ms.len() as u64);
    for m in ms {
        encode_matrix_into(m, &mut buf);
    }
    buf.freeze()
}

/// Decode a message produced by [`encode_matrices`].
pub fn decode_matrices(mut buf: Bytes) -> Result<Vec<Matrix>, DecodeError> {
    if buf.remaining() < 8 {
        return Err(DecodeError::Truncated {
            needed: 8,
            have: buf.remaining(),
        });
    }
    let count = buf.get_u64_le() as usize;
    let mut out = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        out.push(decode_matrix(&mut buf)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{seeded_rng, uniform};
    use proptest::prelude::*;

    #[test]
    fn round_trip_single() {
        let m = uniform(7, 11, -3.0, 3.0, &mut seeded_rng(1));
        let bytes = encode_matrix(&m);
        assert_eq!(bytes.len(), encoded_len(7, 11));
        let got = decode_matrix(&mut bytes.clone()).unwrap();
        assert_eq!(got, m);
    }

    #[test]
    fn round_trip_empty() {
        let m = Matrix::zeros(0, 5);
        let got = decode_matrix(&mut encode_matrix(&m)).unwrap();
        assert_eq!(got.shape(), (0, 5));
    }

    #[test]
    fn round_trip_many() {
        let mut rng = seeded_rng(2);
        let ms: Vec<Matrix> = (1..5)
            .map(|i| uniform(i, i + 2, -1.0, 1.0, &mut rng))
            .collect();
        let refs: Vec<&Matrix> = ms.iter().collect();
        let got = decode_matrices(encode_matrices(&refs)).unwrap();
        assert_eq!(got, ms);
    }

    #[test]
    fn corruption_detected_by_checksum() {
        let m = uniform(4, 4, -1.0, 1.0, &mut seeded_rng(3));
        let bytes = encode_matrix(&m);
        let mut raw = bytes.to_vec();
        raw[24] ^= 0x40; // flip a bit inside the payload
        let err = decode_matrix(&mut Bytes::from(raw)).unwrap_err();
        assert!(matches!(err, DecodeError::BadChecksum { .. }), "{err}");
    }

    #[test]
    fn bad_magic_rejected() {
        let mut raw = encode_matrix(&Matrix::zeros(1, 1)).to_vec();
        raw[0] = 0;
        let err = decode_matrix(&mut Bytes::from(raw)).unwrap_err();
        assert!(matches!(err, DecodeError::BadMagic(_)));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = encode_matrix(&Matrix::zeros(3, 3));
        let raw = bytes.slice(..bytes.len() - 6);
        let err = decode_matrix(&mut raw.clone()).unwrap_err();
        assert!(matches!(err, DecodeError::Truncated { .. }));
    }

    #[test]
    fn absurd_shape_rejected_without_allocation() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(MAGIC);
        buf.put_u64_le(u64::MAX);
        buf.put_u64_le(u64::MAX);
        let err = decode_matrix(&mut buf.freeze()).unwrap_err();
        assert!(matches!(err, DecodeError::BadShape { .. }));
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32 of "123456789" is 0xCBF43926 (IEEE reference vector).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_oracle(b"123456789"), 0xCBF4_3926);
    }

    /// The bitwise CRC the tables are derived from; [`crc32`] must agree
    /// with it on every input.
    fn crc32_oracle(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    /// The per-element matrix encoder the bulk codec replaced.
    fn encode_matrix_oracle(m: &Matrix) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u32_le(MAGIC);
        buf.put_u64_le(m.rows() as u64);
        buf.put_u64_le(m.cols() as u64);
        for &v in m.as_slice() {
            buf.put_f32_le(v);
        }
        let crc = crc32_oracle(&buf[20..]);
        buf.put_u32_le(crc);
        buf
    }

    /// The per-element payload decoder the bulk codec replaced.
    fn f32s_from_le_oracle(mut src: &[u8]) -> Vec<f32> {
        let mut out = Vec::with_capacity(src.len() / 4);
        while src.remaining() >= 4 {
            out.push(src.get_f32_le());
        }
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// f32s weighted towards the patterns a value-level comparison would
    /// miss: NaNs with arbitrary sign and payload, ±0.0 and subnormals.
    fn edge_f32() -> impl Strategy<Value = f32> {
        (0u8..4, any::<u32>()).prop_map(|(class, r)| match class {
            0 => f32::from_bits(0x7F80_0001 | (r & 0x807F_FFFF)),
            1 => f32::from_bits(r & 0x807F_FFFF),
            2 => -0.0,
            _ => f32::from_bits(r),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn crc32_matches_bitwise_oracle(
            raw in prop::collection::vec(any::<u8>(), 4104..4105),
            len in 0usize..=4096,
            start in 0usize..8,
        ) {
            let data = &raw[start..start + len];
            prop_assert_eq!(crc32(data), crc32_oracle(data), "len {} start {}", len, start);
        }

        #[test]
        fn bulk_f32_codec_matches_per_element_oracle(
            v in prop::collection::vec(edge_f32(), 0..600),
        ) {
            let mut bulk = Vec::new();
            put_f32s_le(&mut bulk, &v);
            let mut each = Vec::new();
            for &x in &v {
                each.put_f32_le(x);
            }
            prop_assert_eq!(&bulk, &each);
            prop_assert_eq!(bits(&f32s_from_le(&bulk)), bits(&v));
            prop_assert_eq!(bits(&f32s_from_le_oracle(&bulk)), bits(&v));
        }

        #[test]
        fn matrix_wire_bytes_match_oracle(
            (rows, cols, v) in (0usize..9, 0usize..40).prop_flat_map(|(r, c)| {
                (Just(r), Just(c), prop::collection::vec(edge_f32(), r * c..r * c + 1))
            }),
        ) {
            let m = Matrix::from_vec(rows, cols, v);
            let bytes = encode_matrix(&m);
            prop_assert_eq!(&bytes[..], &encode_matrix_oracle(&m)[..]);
            let got = decode_matrix(&mut bytes.clone()).unwrap();
            prop_assert_eq!(got.shape(), (rows, cols));
            prop_assert_eq!(bits(got.as_slice()), bits(m.as_slice()));
        }
    }

    #[test]
    fn back_to_back_decoding_advances_buffer() {
        let a = Matrix::full(2, 2, 1.0);
        let b = Matrix::full(1, 3, 2.0);
        let mut buf = BytesMut::new();
        encode_matrix_into(&a, &mut buf);
        encode_matrix_into(&b, &mut buf);
        let mut bytes = buf.freeze();
        assert_eq!(decode_matrix(&mut bytes).unwrap(), a);
        assert_eq!(decode_matrix(&mut bytes).unwrap(), b);
        assert_eq!(bytes.remaining(), 0);
    }
}
