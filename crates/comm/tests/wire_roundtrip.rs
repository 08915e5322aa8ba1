//! Wire-format property tests (`decode ∘ encode = id` under randomized
//! inputs, hostile-byte rejection) and a golden byte test pinning the
//! primitive encodings the binary span file is built from. If the golden
//! test fails, the span format changed: bump `SPAN_SCHEMA_VERSION` and
//! document the migration in docs/OBSERVABILITY.md — never silently re-pin
//! the bytes.

use overset_comm::{Wire, WireError, SPAN_SCHEMA_VERSION};
use proptest::prelude::*;

fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
    let bytes = v.to_wire_bytes();
    let back = T::from_wire_bytes(&bytes).expect("decode of own encoding");
    assert_eq!(&back, v);
}

/// Build a string from raw code units, skipping invalid scalar values —
/// exercises multi-byte UTF-8 without needing a char strategy.
fn string_from(units: &[u32]) -> String {
    units.iter().filter_map(|&u| char::from_u32(u % 0x11_0000)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn integers_roundtrip(a in 0u64..u64::MAX, b in -(1i64 << 61)..(1i64 << 61)) {
        roundtrip(&a);
        roundtrip(&i64::MIN);
        roundtrip(&i64::MAX);
        roundtrip(&(a as u8));
        roundtrip(&(a as u16));
        roundtrip(&(a as u32));
        roundtrip(&b);
        roundtrip(&(b as i8));
        roundtrip(&(b as i32));
        roundtrip(&(a, b));
        roundtrip(&(a as u8, (a as u32, b as i16)));
    }

    /// Any f64 bit pattern — including NaNs with payload bits, both
    /// infinities and negative zero — survives bitwise.
    #[test]
    fn floats_roundtrip_bitwise(bits in 0u64..u64::MAX) {
        let x = f64::from_bits(bits);
        let bx = f64::from_wire_bytes(&x.to_wire_bytes()).unwrap();
        prop_assert_eq!(bx.to_bits(), bits);
    }

    #[test]
    fn containers_roundtrip(v in prop::collection::vec(0u64..u64::MAX, 0..40),
                            units in prop::collection::vec(0u32..0x11_0000, 0..24)) {
        roundtrip(&v);
        let s = string_from(&units);
        roundtrip(&s);
        roundtrip(&vec![(s, v), (String::new(), Vec::new())]);
    }

    #[test]
    fn arrays_roundtrip(v in prop::collection::vec(0u16..u16::MAX, 4)) {
        let a = [v[0], v[1], v[2], v[3]];
        roundtrip(&a);
        roundtrip(&vec![a, a]);
    }

    /// Arbitrary bytes never panic the decoder: they decode or error, and a
    /// successful decode re-encodes to the bytes it consumed.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..u8::MAX, 0..64)) {
        if let Ok(v) = Vec::<(u32, String)>::from_wire_bytes(&bytes) {
            prop_assert_eq!(v.to_wire_bytes(), bytes);
        }
        let _ = <(u64, Vec<f64>)>::from_wire_bytes(&bytes);
        let _ = String::from_wire_bytes(&bytes);
    }

    /// Trailing garbage after a valid value is always rejected.
    #[test]
    fn trailing_bytes_rejected(v in 0u64..u64::MAX, extra in 1usize..8) {
        let mut bytes = v.to_wire_bytes();
        bytes.extend(std::iter::repeat_n(0xAB, extra));
        prop_assert!(matches!(
            u64::from_wire_bytes(&bytes),
            Err(WireError::Trailing { .. })
        ));
    }

    /// Truncating a valid encoding anywhere is always an error, never a
    /// misread.
    #[test]
    fn truncations_rejected(v in prop::collection::vec(0u64..u64::MAX, 1..10),
                            cut in 0usize..1000) {
        let bytes = v.to_wire_bytes();
        let cut = cut % bytes.len();
        prop_assert!(Vec::<u64>::from_wire_bytes(&bytes[..cut]).is_err());
    }
}

// ---------------------------------------------------------------------------
// Golden bytes: the span file's primitives
// ---------------------------------------------------------------------------

/// The exact bytes of the primitive encodings the span file is built from —
/// unchanged since the first wire schema. These bytes are a *contract* (a
/// span directory is read back by another build of `repro analyze`);
/// changing any of them requires a `SPAN_SCHEMA_VERSION` bump.
#[test]
fn golden_bytes_pin_primitive_encodings() {
    assert_eq!(SPAN_SCHEMA_VERSION, 5, "schema bumped: re-pin the golden bytes below");

    // Little-endian fixed-width integers.
    assert_eq!(0x1122u16.to_wire_bytes(), [0x22, 0x11]);
    assert_eq!(0x11223344u32.to_wire_bytes(), [0x44, 0x33, 0x22, 0x11]);
    assert_eq!(
        0x1122334455667788u64.to_wire_bytes(),
        [0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11]
    );
    assert_eq!((-2i32).to_wire_bytes(), [0xFE, 0xFF, 0xFF, 0xFF]);

    // Floats as IEEE-754 bit patterns, little-endian.
    assert_eq!(1.0f64.to_wire_bytes(), [0, 0, 0, 0, 0, 0, 0xF0, 0x3F]);

    // Length-prefixed containers: u64 count, then elements.
    assert_eq!(vec![1u8, 2, 3].to_wire_bytes(), [3, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3]);
    assert_eq!(String::from("hi").to_wire_bytes(), [2, 0, 0, 0, 0, 0, 0, 0, b'h', b'i']);

    // Tuples and arrays: fields in order, no framing.
    assert_eq!((0x0Au8, 0x0Bu8).to_wire_bytes(), [0x0A, 0x0B]);
    assert_eq!([0x01u8, 0x02, 0x03].to_wire_bytes(), [1, 2, 3]);
}
