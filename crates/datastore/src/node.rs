//! A Conduit-like typed data node: the data-type-agnostic in-memory
//! container the LBANN data store keeps samples in ("The data store
//! itself utilizes Conduit to provide a data-type-agnostic in-memory
//! framework for managing data samples", Section III-B).
//!
//! A node is either a leaf (f32 array / f64 / i64 / string) or a map of
//! named children addressed by `/`-separated paths, and serialises to a
//! self-describing binary form for the inter-rank shuffle.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use ltfb_tensor::{f32s_from_le, put_f32s_le};
use std::collections::BTreeMap;

/// A typed tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Dense f32 array (images, scalars, parameters).
    F32Array(Vec<f32>),
    /// Scalar double.
    F64(f64),
    /// Scalar integer.
    I64(i64),
    /// UTF-8 string (provenance labels etc.).
    Str(String),
    /// Named children, sorted (deterministic serialisation order).
    Map(BTreeMap<String, Node>),
}

impl Node {
    /// An empty map node.
    pub fn map() -> Node {
        Node::Map(BTreeMap::new())
    }

    /// Insert/overwrite a child at a `/`-separated path, creating
    /// intermediate maps. Panics if an intermediate path component is a
    /// leaf (that is a schema bug, not a data condition).
    pub fn set(&mut self, path: &str, value: Node) {
        let mut cur = self;
        let parts: Vec<&str> = path.split('/').filter(|p| !p.is_empty()).collect();
        assert!(!parts.is_empty(), "empty node path");
        for (i, part) in parts.iter().enumerate() {
            let map = match cur {
                Node::Map(m) => m,
                other => panic!("path component before {part:?} is a leaf: {other:?}"),
            };
            if i == parts.len() - 1 {
                map.insert((*part).to_string(), value);
                return;
            }
            cur = map.entry((*part).to_string()).or_insert_with(Node::map);
        }
    }

    /// Fetch the node at a `/`-separated path.
    pub fn get(&self, path: &str) -> Option<&Node> {
        let mut cur = self;
        for part in path.split('/').filter(|p| !p.is_empty()) {
            match cur {
                Node::Map(m) => cur = m.get(part)?,
                _ => return None,
            }
        }
        Some(cur)
    }

    /// Convenience: fetch an f32 array leaf.
    pub fn get_f32s(&self, path: &str) -> Option<&[f32]> {
        match self.get(path)? {
            Node::F32Array(v) => Some(v),
            _ => None,
        }
    }

    /// Total payload bytes of all leaves (the store's memory accounting).
    pub fn payload_bytes(&self) -> usize {
        match self {
            Node::F32Array(v) => v.len() * 4,
            Node::F64(_) => 8,
            Node::I64(_) => 8,
            Node::Str(s) => s.len(),
            Node::Map(m) => m.values().map(Node::payload_bytes).sum(),
        }
    }

    /// Serialise to a self-describing byte buffer.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        encode(self, &mut buf);
        buf.freeze()
    }

    /// Exact length of [`Node::to_bytes`]: a tag byte per node, a u64
    /// length before every array, string, map and key.
    fn encoded_len(&self) -> usize {
        1 + match self {
            Node::F32Array(v) => 8 + v.len() * 4,
            Node::F64(_) | Node::I64(_) => 8,
            Node::Str(s) => 8 + s.len(),
            Node::Map(m) => {
                8 + m
                    .iter()
                    .map(|(k, v)| 8 + k.len() + v.encoded_len())
                    .sum::<usize>()
            }
        }
    }

    /// Deserialise a buffer produced by [`Node::to_bytes`].
    pub fn from_bytes(mut data: Bytes) -> Result<Node, NodeDecodeError> {
        let node = decode(&mut data)?;
        if data.has_remaining() {
            return Err(NodeDecodeError::TrailingBytes(data.remaining()));
        }
        Ok(node)
    }
}

/// Errors decoding a serialised node.
#[derive(Debug, PartialEq, Eq)]
pub enum NodeDecodeError {
    Truncated,
    UnknownTag(u8),
    BadUtf8,
    TrailingBytes(usize),
}

impl std::fmt::Display for NodeDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeDecodeError::Truncated => write!(f, "node buffer truncated"),
            NodeDecodeError::UnknownTag(t) => write!(f, "unknown node tag {t}"),
            NodeDecodeError::BadUtf8 => write!(f, "invalid utf-8 in node string"),
            NodeDecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after node"),
        }
    }
}

impl std::error::Error for NodeDecodeError {}

const TAG_F32ARR: u8 = 1;
const TAG_F64: u8 = 2;
const TAG_I64: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_MAP: u8 = 5;

fn encode(n: &Node, buf: &mut BytesMut) {
    match n {
        Node::F32Array(v) => {
            buf.put_u8(TAG_F32ARR);
            buf.put_u64_le(v.len() as u64);
            put_f32s_le(buf, v);
        }
        Node::F64(x) => {
            buf.put_u8(TAG_F64);
            buf.put_f64_le(*x);
        }
        Node::I64(x) => {
            buf.put_u8(TAG_I64);
            buf.put_i64_le(*x);
        }
        Node::Str(s) => {
            buf.put_u8(TAG_STR);
            buf.put_u64_le(s.len() as u64);
            buf.put_slice(s.as_bytes());
        }
        Node::Map(m) => {
            buf.put_u8(TAG_MAP);
            buf.put_u64_le(m.len() as u64);
            for (k, v) in m {
                buf.put_u64_le(k.len() as u64);
                buf.put_slice(k.as_bytes());
                encode(v, buf);
            }
        }
    }
}

fn take_len(data: &mut Bytes) -> Result<usize, NodeDecodeError> {
    if data.remaining() < 8 {
        return Err(NodeDecodeError::Truncated);
    }
    Ok(data.get_u64_le() as usize)
}

fn decode(data: &mut Bytes) -> Result<Node, NodeDecodeError> {
    if data.remaining() < 1 {
        return Err(NodeDecodeError::Truncated);
    }
    match data.get_u8() {
        TAG_F32ARR => {
            let n = take_len(data)?;
            let len = n
                .checked_mul(4)
                .filter(|&len| len <= data.remaining())
                .ok_or(NodeDecodeError::Truncated)?;
            let v = f32s_from_le(&data[..len]);
            data.advance(len);
            Ok(Node::F32Array(v))
        }
        TAG_F64 => {
            if data.remaining() < 8 {
                return Err(NodeDecodeError::Truncated);
            }
            Ok(Node::F64(data.get_f64_le()))
        }
        TAG_I64 => {
            if data.remaining() < 8 {
                return Err(NodeDecodeError::Truncated);
            }
            Ok(Node::I64(data.get_i64_le()))
        }
        TAG_STR => {
            let n = take_len(data)?;
            if data.remaining() < n {
                return Err(NodeDecodeError::Truncated);
            }
            let raw = data.copy_to_bytes(n);
            String::from_utf8(raw.to_vec())
                .map(Node::Str)
                .map_err(|_| NodeDecodeError::BadUtf8)
        }
        TAG_MAP => {
            let n = take_len(data)?;
            let mut m = BTreeMap::new();
            for _ in 0..n {
                let klen = take_len(data)?;
                if data.remaining() < klen {
                    return Err(NodeDecodeError::Truncated);
                }
                let kraw = data.copy_to_bytes(klen);
                let k = String::from_utf8(kraw.to_vec()).map_err(|_| NodeDecodeError::BadUtf8)?;
                m.insert(k, decode(data)?);
            }
            Ok(Node::Map(m))
        }
        t => Err(NodeDecodeError::UnknownTag(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_node() -> Node {
        let mut n = Node::map();
        n.set("inputs/params", Node::F32Array(vec![0.1, 0.2, 0.3]));
        n.set("outputs/scalars", Node::F32Array(vec![1.0; 15]));
        n.set("outputs/images/view0", Node::F32Array(vec![0.5; 64]));
        n.set("meta/id", Node::I64(42));
        n.set("meta/origin", Node::Str("jag".into()));
        n.set("meta/time", Node::F64(1.25));
        n
    }

    #[test]
    fn path_set_get() {
        let n = sample_node();
        assert_eq!(n.get_f32s("inputs/params"), Some(&[0.1f32, 0.2, 0.3][..]));
        assert_eq!(n.get("meta/id"), Some(&Node::I64(42)));
        assert_eq!(n.get("missing"), None);
        assert_eq!(n.get("meta/id/deeper"), None, "leaf has no children");
    }

    #[test]
    fn payload_accounting() {
        let n = sample_node();
        // 3*4 + 15*4 + 64*4 + 8 + 3 + 8 = 347.
        assert_eq!(n.payload_bytes(), 347);
    }

    #[test]
    fn round_trip() {
        let n = sample_node();
        let decoded = Node::from_bytes(n.to_bytes()).unwrap();
        assert_eq!(decoded, n);
    }

    #[test]
    fn round_trip_each_leaf_kind() {
        for n in [
            Node::F32Array(vec![]),
            Node::F32Array(vec![f32::MAX, f32::MIN, 0.0]),
            Node::F64(-1.5e300),
            Node::I64(i64::MIN),
            Node::Str(String::new()),
            Node::Str("snowman ☃".into()),
            Node::map(),
        ] {
            assert_eq!(Node::from_bytes(n.to_bytes()).unwrap(), n);
        }
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample_node().to_bytes();
        for cut in [0, 1, 5, bytes.len() - 1] {
            let r = Node::from_bytes(bytes.slice(..cut));
            assert!(r.is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut raw = sample_node().to_bytes().to_vec();
        raw.push(0);
        assert!(matches!(
            Node::from_bytes(Bytes::from(raw)),
            Err(NodeDecodeError::TrailingBytes(1))
        ));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            Node::from_bytes(Bytes::from_static(&[99u8])),
            Err(NodeDecodeError::UnknownTag(99))
        ));
    }

    #[test]
    fn overflowing_array_length_is_truncated_not_a_panic() {
        for n in [u64::MAX, u64::MAX / 4 + 1, 1 << 62] {
            let mut raw = vec![TAG_F32ARR];
            raw.extend_from_slice(&n.to_le_bytes());
            raw.extend_from_slice(&[0; 16]);
            assert_eq!(
                Node::from_bytes(Bytes::from(raw)),
                Err(NodeDecodeError::Truncated),
                "length {n:#x}"
            );
        }
    }

    /// The per-element encoder the bulk f32 codec replaced.
    fn encode_oracle(n: &Node, buf: &mut Vec<u8>) {
        match n {
            Node::F32Array(v) => {
                buf.put_u8(TAG_F32ARR);
                buf.put_u64_le(v.len() as u64);
                for &x in v {
                    buf.put_f32_le(x);
                }
            }
            Node::F64(x) => {
                buf.put_u8(TAG_F64);
                buf.put_f64_le(*x);
            }
            Node::I64(x) => {
                buf.put_u8(TAG_I64);
                buf.put_i64_le(*x);
            }
            Node::Str(s) => {
                buf.put_u8(TAG_STR);
                buf.put_u64_le(s.len() as u64);
                buf.put_slice(s.as_bytes());
            }
            Node::Map(m) => {
                buf.put_u8(TAG_MAP);
                buf.put_u64_le(m.len() as u64);
                for (k, v) in m {
                    buf.put_u64_le(k.len() as u64);
                    buf.put_slice(k.as_bytes());
                    encode_oracle(v, buf);
                }
            }
        }
    }

    /// The per-element decoder the bulk f32 codec replaced, for
    /// well-formed input only.
    fn decode_oracle(data: &mut Bytes) -> Node {
        let len = |data: &mut Bytes| data.get_u64_le() as usize;
        match data.get_u8() {
            TAG_F32ARR => Node::F32Array((0..len(data)).map(|_| data.get_f32_le()).collect()),
            TAG_F64 => Node::F64(data.get_f64_le()),
            TAG_I64 => Node::I64(data.get_i64_le()),
            TAG_STR => {
                let n = len(data);
                Node::Str(String::from_utf8(data.copy_to_bytes(n).to_vec()).unwrap())
            }
            TAG_MAP => Node::Map(
                (0..len(data))
                    .map(|_| {
                        let k = len(data);
                        let k = String::from_utf8(data.copy_to_bytes(k).to_vec()).unwrap();
                        (k, decode_oracle(data))
                    })
                    .collect(),
            ),
            t => panic!("oracle fed unknown tag {t}"),
        }
    }

    /// Every f32 leaf's bit patterns, depth first; `==` on `Node` would
    /// call two equal NaNs different and `0.0 == -0.0` the same.
    fn leaf_bits(n: &Node, out: &mut Vec<u32>) {
        match n {
            Node::F32Array(v) => out.extend(v.iter().map(|x| x.to_bits())),
            Node::Map(m) => m.values().for_each(|c| leaf_bits(c, out)),
            _ => {}
        }
    }

    /// Trees whose f32 leaves lean on NaN payloads, ±0.0 and subnormals.
    fn edge_node() -> impl Strategy<Value = Node> {
        let edge_f32 = (0u8..4, any::<u32>()).prop_map(|(class, r)| match class {
            0 => f32::from_bits(0x7F80_0001 | (r & 0x807F_FFFF)),
            1 => f32::from_bits(r & 0x807F_FFFF),
            2 => -0.0,
            _ => f32::from_bits(r),
        });
        let leaf = prop_oneof![
            prop::collection::vec(edge_f32, 0..300).prop_map(Node::F32Array),
            any::<f64>().prop_map(Node::F64),
            any::<i64>().prop_map(Node::I64),
            "[a-z0-9 ]{0,16}".prop_map(Node::Str),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop::collection::btree_map("[a-z][a-z0-9_]{0,8}", inner, 0..4).prop_map(Node::Map)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn wire_bytes_match_per_element_oracle(node in edge_node()) {
            let bytes = node.to_bytes();
            let mut oracle = Vec::new();
            encode_oracle(&node, &mut oracle);
            prop_assert_eq!(&bytes[..], &oracle[..]);
            prop_assert_eq!(bytes.len(), node.encoded_len());
        }

        #[test]
        fn decode_round_trips_bit_exactly(node in edge_node()) {
            let bytes = node.to_bytes();
            let decoded = Node::from_bytes(bytes.clone()).unwrap();
            let mut want = Vec::new();
            leaf_bits(&node, &mut want);
            let mut got = Vec::new();
            leaf_bits(&decoded, &mut got);
            prop_assert_eq!(&got, &want);
            let mut oracle = Vec::new();
            leaf_bits(&decode_oracle(&mut bytes.clone()), &mut oracle);
            prop_assert_eq!(&oracle, &want);
            prop_assert_eq!(decoded.to_bytes(), bytes);
        }
    }

    #[test]
    fn set_creates_intermediates_and_overwrites() {
        let mut n = Node::map();
        n.set("a/b/c", Node::I64(1));
        assert_eq!(n.get("a/b/c"), Some(&Node::I64(1)));
        n.set("a/b/c", Node::I64(2));
        assert_eq!(n.get("a/b/c"), Some(&Node::I64(2)));
    }

    #[test]
    #[should_panic(expected = "is a leaf")]
    fn set_through_leaf_panics() {
        let mut n = Node::map();
        n.set("x", Node::I64(1));
        n.set("x/y", Node::I64(2));
    }

    #[test]
    fn deterministic_serialisation_order() {
        let mut a = Node::map();
        a.set("z", Node::I64(1));
        a.set("a", Node::I64(2));
        let mut b = Node::map();
        b.set("a", Node::I64(2));
        b.set("z", Node::I64(1));
        assert_eq!(
            a.to_bytes(),
            b.to_bytes(),
            "BTreeMap must give canonical order"
        );
    }
}
