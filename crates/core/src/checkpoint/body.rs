//! The binary checkpoint body: a tagged encoding of a serde [`Value`] tree.
//!
//! Every node is one tag byte followed by its content. Integers, lengths
//! and lone floats are 8 bytes little-endian (a float is its `f64` bits).
//! Strings and object keys are a length plus UTF-8 bytes. An array of
//! floats that all survive an `f32` round trip bit for bit is stored as
//! packed little-endian `f32`s: that is every weight and feature matrix, so
//! a model body is close to its in-memory size and costs no float
//! formatting or parsing either way.
//!
//! [`decode`] treats its input as hostile. It never panics, checks every
//! length against the bytes that remain before reading or allocating,
//! caps nesting at [`MAX_DEPTH`], rejects unknown tags and invalid UTF-8,
//! and fails unless the whole body is consumed. Generic arrays and objects
//! grow as their elements decode, so no allocation is ever sized by a
//! length field alone.

use serde::Value;

pub(super) const TAG_NULL: u8 = 0;
pub(super) const TAG_FALSE: u8 = 1;
pub(super) const TAG_TRUE: u8 = 2;
pub(super) const TAG_INT: u8 = 3;
pub(super) const TAG_UINT: u8 = 4;
pub(super) const TAG_FLOAT: u8 = 5;
pub(super) const TAG_STR: u8 = 6;
pub(super) const TAG_ARRAY: u8 = 7;
pub(super) const TAG_OBJECT: u8 = 8;
pub(super) const TAG_F32_ARRAY: u8 = 9;

/// Deepest nesting either direction accepts (the root is depth 1). Deeper
/// payloads fail to encode, so a checkpoint that saves always loads.
pub(super) const MAX_DEPTH: usize = 128;

/// Encodes `value`; `None` when it nests deeper than [`MAX_DEPTH`].
pub(super) fn encode(value: &Value) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    encode_into(value, 1, &mut out)?;
    Some(out)
}

fn put_len(len: usize, out: &mut Vec<u8>) {
    out.extend_from_slice(&(len as u64).to_le_bytes());
}

fn put_str(s: &str, out: &mut Vec<u8>) {
    put_len(s.len(), out);
    out.extend_from_slice(s.as_bytes());
}

/// Whether `f` is an `f32` widened to `f64`, so narrowing it loses nothing.
fn is_f32_exact(f: f64) -> bool {
    f64::from(f as f32).to_bits() == f.to_bits()
}

fn encode_into(value: &Value, depth: usize, out: &mut Vec<u8>) -> Option<()> {
    if depth > MAX_DEPTH {
        return None;
    }
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::UInt(u) => {
            out.push(TAG_UINT);
            out.extend_from_slice(&u.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_str(s, out);
        }
        Value::Array(items)
            if !items.is_empty()
                && items.iter().all(|v| matches!(v, Value::Float(f) if is_f32_exact(*f))) =>
        {
            out.push(TAG_F32_ARRAY);
            put_len(items.len(), out);
            out.reserve(4 * items.len());
            for item in items {
                if let Value::Float(f) = item {
                    out.extend_from_slice(&(*f as f32).to_le_bytes());
                }
            }
        }
        Value::Array(items) => {
            out.push(TAG_ARRAY);
            put_len(items.len(), out);
            for item in items {
                encode_into(item, depth + 1, out)?;
            }
        }
        Value::Object(fields) => {
            out.push(TAG_OBJECT);
            put_len(fields.len(), out);
            for (key, val) in fields {
                put_str(key, out);
                encode_into(val, depth + 1, out)?;
            }
        }
    }
    Some(())
}

/// Decodes a whole body; `None` on any malformation (see the module docs).
pub(super) fn decode(bytes: &[u8]) -> Option<Value> {
    let mut reader = Reader { bytes, pos: 0 };
    let value = reader.value(1)?;
    (reader.pos == bytes.len()).then_some(value)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn byte(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn word(&mut self) -> Option<[u8; 8]> {
        self.take(8)?.try_into().ok()
    }

    /// Reads a length and checks that `len` items of at least `min_bytes`
    /// each fit in what remains of the body.
    fn len(&mut self, min_bytes: usize) -> Option<usize> {
        let len = usize::try_from(u64::from_le_bytes(self.word()?)).ok()?;
        (len.checked_mul(min_bytes)? <= self.remaining()).then_some(len)
    }

    fn string(&mut self) -> Option<String> {
        let len = self.len(1)?;
        std::str::from_utf8(self.take(len)?).ok().map(str::to_owned)
    }

    fn value(&mut self, depth: usize) -> Option<Value> {
        if depth > MAX_DEPTH {
            return None;
        }
        Some(match self.byte()? {
            TAG_NULL => Value::Null,
            TAG_FALSE => Value::Bool(false),
            TAG_TRUE => Value::Bool(true),
            TAG_INT => Value::Int(i64::from_le_bytes(self.word()?)),
            TAG_UINT => Value::UInt(u64::from_le_bytes(self.word()?)),
            TAG_FLOAT => Value::Float(f64::from_bits(u64::from_le_bytes(self.word()?))),
            TAG_STR => Value::Str(self.string()?),
            TAG_F32_ARRAY => {
                let len = self.len(4)?;
                let packed = self.take(4 * len)?;
                let float = |c: &[u8]| f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                let floats = packed.chunks_exact(4).map(|c| Value::Float(f64::from(float(c))));
                Value::Array(floats.collect())
            }
            TAG_ARRAY => {
                // Every element is at least its tag byte.
                let len = self.len(1)?;
                let mut items = Vec::new();
                for _ in 0..len {
                    items.push(self.value(depth + 1)?);
                }
                Value::Array(items)
            }
            TAG_OBJECT => {
                // Every field is at least a key length and a tag byte.
                let len = self.len(9)?;
                let mut fields = Vec::new();
                for _ in 0..len {
                    let key = self.string()?;
                    fields.push((key, self.value(depth + 1)?));
                }
                Value::Object(fields)
            }
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(value: &Value) -> Value {
        decode(&encode(value).expect("encodes")).expect("decodes")
    }

    #[test]
    fn every_node_kind_round_trips() {
        let value = Value::Object(vec![
            ("null".into(), Value::Null),
            ("flags".into(), Value::Array(vec![Value::Bool(true), Value::Bool(false)])),
            ("neg".into(), Value::Int(i64::MIN)),
            ("big".into(), Value::UInt(u64::MAX)),
            ("pi".into(), Value::Float(std::f64::consts::PI)),
            ("text".into(), Value::Str("naïve \u{1F600}\n".into())),
            ("empty".into(), Value::Array(Vec::new())),
            ("nested".into(), Value::Object(vec![("".into(), Value::Object(Vec::new()))])),
        ]);
        assert_eq!(round_trip(&value), value);
    }

    #[test]
    fn f32_arrays_pack_to_four_bytes_per_element_and_keep_every_bit() {
        let floats = [0.1f32, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::MIN_POSITIVE, 1e-45];
        let value = Value::Array(floats.iter().map(|&f| Value::Float(f64::from(f))).collect());
        let bytes = encode(&value).unwrap();
        assert_eq!(bytes[0], TAG_F32_ARRAY);
        assert_eq!(bytes.len(), 1 + 8 + 4 * floats.len());
        let Value::Array(back) = decode(&bytes).unwrap() else { panic!("array expected") };
        for (b, f) in back.iter().zip(floats) {
            let Value::Float(b) = b else { panic!("float expected") };
            assert_eq!((*b as f32).to_bits(), f.to_bits());
        }
        let nan = Value::Array(vec![Value::Float(f64::from(f32::NAN))]);
        let Value::Array(back) = round_trip(&nan) else { panic!("array expected") };
        assert!(matches!(back[0], Value::Float(f) if f.is_nan()));
    }

    #[test]
    fn arrays_that_would_lose_bits_as_f32_stay_generic() {
        let value = Value::Array(vec![Value::Float(0.1f64), Value::Float(1.0)]);
        assert_eq!(encode(&value).unwrap()[0], TAG_ARRAY);
        assert_eq!(round_trip(&value), value);
        let mixed = Value::Array(vec![Value::Float(1.0), Value::UInt(2)]);
        assert_eq!(encode(&mixed).unwrap()[0], TAG_ARRAY);
        assert_eq!(round_trip(&mixed), mixed);
    }

    #[test]
    fn nesting_past_the_cap_fails_both_ways() {
        let mut deep = Value::Null;
        for _ in 0..MAX_DEPTH {
            deep = Value::Array(vec![deep]);
        }
        assert!(encode(&deep).is_none(), "{} levels exceed the cap", MAX_DEPTH + 1);
        let Value::Array(mut inner) = deep else { unreachable!() };
        let at_cap = inner.pop().unwrap();
        assert_eq!(round_trip(&at_cap), at_cap);
    }
}
