//! The byte encoding of the binary span file: explicit encode/decode for
//! every record a `--trace-stream` run writes to disk (spans, step records,
//! the footer). [`Wire`] is that contract: `encode ∘ decode = id`,
//! byte-for-byte deterministic, with no dependence on host endianness,
//! pointer width, or allocator state.
//!
//! Conventions (normative description and the file layout:
//! docs/OBSERVABILITY.md, *Streaming sinks*):
//!
//! * all integers are **fixed-width little-endian**,
//! * floats travel as their IEEE-754 bit patterns (`to_bits`), so NaN
//!   payloads and signed zeros round-trip exactly — a recorded virtual
//!   clock reads back bit for bit,
//! * `Vec`/`String` are a `u64` length followed by the elements; arrays and
//!   tuples are their fields in order,
//! * there is no self-description: reader and writer agree on the type. The
//!   file as a whole is versioned by [`crate::SPAN_SCHEMA_VERSION`] and
//!   pinned by golden byte tests (`tests/wire_roundtrip.rs`,
//!   `tests/sink_stream.rs`).

use std::collections::HashSet;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// Decode-side failure. Encoding is infallible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated { needed: usize, available: usize },
    /// A discriminant or invariant check failed (bad enum tag, non-UTF-8
    /// string, out-of-range `usize`, ...).
    Invalid(&'static str),
    /// Decoding succeeded but left unread bytes (only reported by
    /// [`Wire::from_wire_bytes`], which requires exact consumption).
    Trailing { remaining: usize },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(f, "truncated wire data: needed {needed} bytes, {available} available")
            }
            WireError::Invalid(what) => write!(f, "invalid wire data: {what}"),
            WireError::Trailing { remaining } => {
                write!(f, "trailing wire data: {remaining} bytes unread")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Cursor over a byte buffer being decoded.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { needed: n, available: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u64` length prefix, checked against the host's `usize`.
    pub fn len_prefix(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::Invalid("length exceeds usize"))
    }
}

/// A value with an explicit byte representation in the span file.
///
/// Laws: `decode(encode(x)) == x` for every value, and `encode` is a pure
/// function of the value (no ambient state), so two runs recording the
/// same logical value write identical bytes.
pub trait Wire: Sized {
    /// Append this value's wire representation to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Read one value from the cursor.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Encode into a fresh buffer.
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Decode a value that must occupy the buffer exactly.
    fn from_wire_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::Trailing { remaining: r.remaining() });
        }
        Ok(v)
    }
}

/// Intern a decoded string as `&'static str`. Trace events hold
/// `&'static str` categories, names and argument keys; read back from a
/// span file the bytes arrive owned, and this leaks each *distinct* string
/// once to restore the static lifetime.
/// The set of such strings is a small fixed vocabulary, so the leak is
/// bounded.
pub fn intern(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(HashSet::new()));
    let mut set = pool.lock().unwrap();
    if let Some(&have) = set.get(s) {
        return have;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    set.insert(leaked);
    leaked
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(<$t>::from_le_bytes(
                    r.take(std::mem::size_of::<$t>())?.try_into().unwrap(),
                ))
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64, i8, i16, i32, i64);

impl Wire for f64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.to_bits().encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.f64()
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.len() as u64).to_le_bytes());
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.len_prefix()?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid("non-UTF-8 string"))
    }
}

// ---------------------------------------------------------------------------
// Composite impls
// ---------------------------------------------------------------------------

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for v in self {
            v.encode(buf);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.len_prefix()?;
        // Guard against hostile/corrupt length prefixes: never reserve more
        // slots than there are bytes left (zero-sized elements aside).
        let mut out = Vec::with_capacity(n.min(r.remaining().max(16)));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn encode(&self, buf: &mut Vec<u8>) {
        for v in self {
            v.encode(buf);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::decode(r)?);
        }
        <[T; N]>::try_from(out).map_err(|_| WireError::Invalid("array length"))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_wire_bytes();
        let back = T::from_wire_bytes(&bytes).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0xdeadu16);
        roundtrip(0xdead_beefu32);
        roundtrip(u64::MAX);
        roundtrip(-1i8);
        roundtrip(i16::MIN);
        roundtrip(i32::MIN);
        roundtrip(i64::MIN);
        roundtrip(std::f64::consts::PI);
        roundtrip(-0.0f64);
        roundtrip(String::from("héllo wörld"));
        roundtrip(String::new());
    }

    #[test]
    fn nan_bits_survive() {
        let weird = f64::from_bits(0x7ff8_dead_beef_cafe);
        let bytes = weird.to_wire_bytes();
        let back = f64::from_wire_bytes(&bytes).unwrap();
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn composites_roundtrip() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<f64>::new());
        roundtrip([1.0f64, -2.5, f64::INFINITY]);
        roundtrip((1u32, 2.0f64));
        roundtrip((String::from("x"), [7u64; 3]));
        roundtrip(vec![(1u64, vec![1.5f64, -0.0])]);
    }

    #[test]
    fn little_endian_on_the_wire() {
        assert_eq!(0x0102_0304u32.to_wire_bytes(), vec![4, 3, 2, 1]);
        assert_eq!(1u64.to_wire_bytes(), vec![1, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn truncated_and_trailing_are_errors() {
        let bytes = 7u64.to_wire_bytes();
        assert!(matches!(u64::from_wire_bytes(&bytes[..4]), Err(WireError::Truncated { .. })));
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(u64::from_wire_bytes(&long), Err(WireError::Trailing { remaining: 1 })));
    }

    #[test]
    fn bad_discriminants_are_errors() {
        use crate::trace::ArgVal;
        assert!(matches!(ArgVal::from_wire_bytes(&[9]), Err(WireError::Invalid(_))));
    }

    #[test]
    fn hostile_length_prefix_does_not_allocate() {
        // Length claims 2^60 elements but only 3 bytes follow.
        let mut bytes = (1u64 << 60).to_wire_bytes();
        bytes.extend_from_slice(&[1, 2, 3]);
        assert!(Vec::<u64>::from_wire_bytes(&bytes).is_err());
    }

    #[test]
    fn intern_returns_same_pointer() {
        let a = intern("flow-phase-test");
        let b = intern(&String::from("flow-phase-test"));
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "flow-phase-test");
    }
}
