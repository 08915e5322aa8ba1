//! The wire format: explicit, versioned encode/decode for every payload
//! that crosses a rank boundary.
//!
//! The in-process backend can hand a `Box<dyn Any>` straight across a
//! mailbox, but the moment ranks live in different OS processes (or on
//! different hosts) every message needs a byte representation. [`Wire`] is
//! that contract: `encode ∘ decode = id`, byte-for-byte deterministic, with
//! no dependence on host endianness, pointer width, or allocator state.
//!
//! Conventions (see docs/TRANSPORT.md for the normative description):
//!
//! * all integers are **fixed-width little-endian**; `usize` travels as
//!   `u64` and decode rejects values that do not fit the host,
//! * floats travel as their IEEE-754 bit patterns (`to_bits`), so NaN
//!   payloads and signed zeros round-trip exactly — virtual clocks are
//!   compared bitwise across transports and must not be disturbed,
//! * `Vec`/`String` are a `u64` length followed by the elements; `Option`
//!   and `Result` are a one-byte discriminant followed by the payload,
//! * there is no self-description: both ends must agree on the type. The
//!   transport layer guards this with [`wire_type_hash`], and the schema as
//!   a whole is pinned by [`WIRE_SCHEMA_VERSION`] plus a golden byte test
//!   (`tests/wire_roundtrip.rs`).

use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// Version of the wire schema spoken by this build. Bump whenever any
/// `Wire` impl or the frame protocol in [`crate::transport`] changes shape;
/// the golden byte test pins the encoding for the current version.
///
/// v2: `RankOutput` gained a trailing `host_time: [f64; NUM_PHASES]` field
/// (host wall-clock seconds per phase). v3: it gained per-step and
/// end-of-run allocation attribution. v4: one step record, one tally —
/// `StepRecord` is `step`, `clock`, then its four arrays (`time`, `counts`
/// over the whole `Counter` vocabulary, `allocs`, `alloc_bytes`) and is the
/// only per-step record `RankOutput` carries; the per-rank statistics keep
/// no message or collective tallies; `MetricsRegistry` is its counter array
/// and its histogram array, no names on the wire. v5: `RankOutput` drops the
/// u64 ring-eviction count after `steps` — the flight recorder keeps every
/// step. v6: one clock ledger — `RankOutput` carries the rank's phase
/// timers and final clock after `result` in place of the statistics record
/// (flops are `flops.*` counters now), and the counter array holds those
/// five more rows. Primitive encodings are unchanged throughout. Layouts:
/// docs/TRANSPORT.md.
pub const WIRE_SCHEMA_VERSION: u32 = 6;

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

    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
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

/// A value with an explicit byte representation, exchangeable across any
/// [`crate::transport::TransportConfig`] backend.
///
/// Laws: `decode(encode(x)) == x` for every value, and `encode` is a pure
/// function of the value (no ambient state), so two processes encoding the
/// same logical value produce identical bytes.
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

/// FNV-1a hash of the payload type's name: a cheap cross-process guard that
/// both ends of a message agree on `T`. Stable for a given binary (the
/// multi-process backend re-executes the *same* executable, so
/// `type_name` strings match exactly); **not** stable across compiler
/// versions, which is fine because parent and children are one build.
pub fn wire_type_hash<T: ?Sized>() -> u64 {
    let name = std::any::type_name::<T>();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Intern a decoded string as `&'static str`. Several observability types
/// (trace categories, metric names, error phases) hold `&'static str`
/// fields; after crossing a process boundary the bytes arrive owned, and
/// this leaks each *distinct* string once to restore the static lifetime.
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

impl Wire for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u64).encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        usize::try_from(r.u64()?).map_err(|_| WireError::Invalid("usize out of range"))
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("bool discriminant")),
        }
    }
}

impl Wire for f32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.to_bits().encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(f32::from_bits(r.u32()?))
    }
}

impl Wire for f64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.to_bits().encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.f64()
    }
}

impl Wire for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn decode(_r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(())
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

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(WireError::Invalid("Option discriminant")),
        }
    }
}

impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                buf.push(0);
                v.encode(buf);
            }
            Err(e) => {
                buf.push(1);
                e.encode(buf);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Ok(T::decode(r)?)),
            1 => Ok(Err(E::decode(r)?)),
            _ => Err(WireError::Invalid("Result discriminant")),
        }
    }
}

impl<T: Wire> Wire for Box<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Box::new(T::decode(r)?))
    }
}

/// A shared handle travels as the value it points at. On the in-process
/// fabric the handle itself is what moves, so a sender that keeps a clone
/// gets its buffer back once every receiver has dropped theirs.
impl<T: Wire> Wire for Arc<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Arc::new(T::decode(r)?))
    }
}

macro_rules! wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn encode(&self, buf: &mut Vec<u8>) {
                $(self.$idx.encode(buf);)+
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

wire_tuple!(A: 0, B: 1);
wire_tuple!(A: 0, B: 1, C: 2);
wire_tuple!(A: 0, B: 1, C: 2, D: 3);
wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

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
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(1.5f32);
        roundtrip(std::f64::consts::PI);
        roundtrip(-0.0f64);
        roundtrip(());
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
        roundtrip(Some(42u32));
        roundtrip(Option::<u32>::None);
        roundtrip(Ok::<u32, String>(7));
        roundtrip(Err::<u32, String>("boom".into()));
        roundtrip(Box::new(99u64));
        roundtrip(Arc::new(vec![3u32, 1, 2]));
        roundtrip((1u32, 2.0f64));
        roundtrip((1u32, 2.0f64, String::from("x")));
        roundtrip((1u8, 2u8, 3u8, 4u8));
        roundtrip((1u8, 2u8, 3u8, 4u8, 5.0f64));
        roundtrip(vec![(1usize, vec![Some(1.5f64), None])]);
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
        assert!(matches!(bool::from_wire_bytes(&[2]), Err(WireError::Invalid(_))));
        assert!(matches!(Option::<u8>::from_wire_bytes(&[9]), Err(WireError::Invalid(_))));
        assert!(matches!(Result::<u8, u8>::from_wire_bytes(&[9]), Err(WireError::Invalid(_))));
    }

    #[test]
    fn hostile_length_prefix_does_not_allocate() {
        // Length claims 2^60 elements but only 3 bytes follow.
        let mut bytes = (1u64 << 60).to_wire_bytes();
        bytes.extend_from_slice(&[1, 2, 3]);
        assert!(Vec::<u64>::from_wire_bytes(&bytes).is_err());
    }

    #[test]
    fn type_hash_distinguishes_types() {
        assert_ne!(wire_type_hash::<u64>(), wire_type_hash::<f64>());
        assert_ne!(wire_type_hash::<Vec<u8>>(), wire_type_hash::<Vec<u16>>());
        assert_eq!(wire_type_hash::<u64>(), wire_type_hash::<u64>());
    }

    #[test]
    fn intern_returns_same_pointer() {
        let a = intern("flow-phase-test");
        let b = intern(&String::from("flow-phase-test"));
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "flow-phase-test");
    }
}
