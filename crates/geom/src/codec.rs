//! A small little-endian binary codec for the pipeline's intermediate
//! state — the payload format of the supervisor's stage checkpoints.
//!
//! The rules are fixed and few, so every type's layout is its field order:
//!
//! - integers are little-endian at their declared width; `usize` travels
//!   as a `u64`;
//! - floats travel as their IEEE-754 bit pattern (`to_bits`), so NaN
//!   payloads, `-0.0` and infinities round-trip exactly;
//! - `bool` is one byte, `0` or `1`;
//! - enums are a `u8` tag followed by the variant's fields;
//! - `Option<T>` is a `u8` tag (`0` = `None`, `1` = `Some`) and then `T`;
//! - a `Vec<T>` or `String` is a `u64` element count followed by the
//!   elements.
//!
//! Decoding never trusts a length: a count is checked against the bytes
//! that remain (at [`Decode::MIN_ENCODED_LEN`] bytes per element) before
//! anything is allocated, so a corrupt or hostile prefix yields a typed
//! [`CodecError`] instead of a huge allocation or a panic.
//!
//! # Example
//!
//! ```
//! use drcshap_geom::codec::{decode_exact, CodecError, Decode, Encode, Reader};
//! use drcshap_geom::{GcellId, Rect};
//!
//! let mut bytes = Vec::new();
//! Rect::new(0, 0, 10, 20).encode(&mut bytes);
//! vec![GcellId::new(1, 2)].encode(&mut bytes);
//! let mut r = Reader::new(&bytes);
//! assert_eq!(Rect::decode(&mut r).unwrap(), Rect::new(0, 0, 10, 20));
//! let ids: Vec<GcellId> = decode_exact(r.rest()).unwrap();
//! assert_eq!(ids, vec![GcellId::new(1, 2)]);
//!
//! // A length prefix that promises more than the input holds is an error,
//! // not an allocation.
//! let absurd = u64::MAX.to_le_bytes();
//! assert!(matches!(decode_exact::<Vec<f64>>(&absurd), Err(CodecError::LengthTooLarge { .. })));
//! ```

/// Why a byte string does not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended `needed` bytes into a read with `remaining` left.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// A length prefix promises more elements than the remaining bytes
    /// could hold.
    LengthTooLarge {
        /// The decoded element count.
        len: u64,
        /// Bytes that were left.
        remaining: usize,
    },
    /// An enum, `bool` or `Option` tag outside its code space.
    BadTag {
        /// The type being decoded.
        what: &'static str,
        /// The tag byte found.
        tag: u8,
    },
    /// A leading format-version byte this build does not read.
    UnsupportedVersion {
        /// The version byte found.
        found: u8,
        /// The version this build reads.
        supported: u8,
    },
    /// Well-framed values that violate the type's invariant.
    Invalid(String),
    /// Bytes left over after the value was fully decoded.
    TrailingBytes {
        /// Bytes left over.
        count: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { needed, remaining } => {
                write!(f, "truncated: needed {needed} bytes, {remaining} left")
            }
            CodecError::LengthTooLarge { len, remaining } => {
                write!(f, "length prefix {len} exceeds the {remaining} bytes left")
            }
            CodecError::BadTag { what, tag } => write!(f, "bad {what} tag {tag:#04x}"),
            CodecError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported encoding version {found:#04x} (this build reads {supported})"
                )
            }
            CodecError::Invalid(detail) => write!(f, "invalid value: {detail}"),
            CodecError::TrailingBytes { count } => write!(f, "{count} trailing bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A bounds-checked cursor over encoded bytes.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }

    /// The unconsumed bytes.
    pub fn rest(&self) -> &'a [u8] {
        self.bytes
    }

    /// Consumes exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than `n` remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.bytes.len() {
            return Err(CodecError::Truncated { needed: n, remaining: self.bytes.len() });
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    /// Consumes exactly `N` bytes as an array.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than `N` remain.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// Reads a `u8` tag.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    pub fn tag(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a `u64` element count and checks that `count` elements of at
    /// least `min_len` bytes each fit in the remaining input.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the prefix itself is cut short;
    /// [`CodecError::LengthTooLarge`] when the elements cannot fit.
    pub fn len_prefix(&mut self, min_len: usize) -> Result<usize, CodecError> {
        let len = u64::decode(self)?;
        let remaining = self.remaining();
        usize::try_from(len)
            .ok()
            .filter(|&n| n.checked_mul(min_len).is_some_and(|bytes| bytes <= remaining))
            .ok_or(CodecError::LengthTooLarge { len, remaining })
    }

    /// Fails unless every byte was consumed.
    ///
    /// # Errors
    ///
    /// [`CodecError::TrailingBytes`] when input is left over.
    pub fn finish(&self) -> Result<(), CodecError> {
        match self.bytes.len() {
            0 => Ok(()),
            count => Err(CodecError::TrailingBytes { count }),
        }
    }
}

/// A type with a binary encoding (see the module docs for the rules).
pub trait Encode {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// A type that decodes from its [`Encode`] layout.
pub trait Decode: Sized {
    /// A lower bound on the encoded size of any value, used to reject a
    /// length prefix that promises more elements than the input can hold.
    const MIN_ENCODED_LEN: usize = 1;

    /// Decodes one value, advancing `r` past it.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] describing the first malformed byte.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Decodes a `T` that must span all of `bytes`.
///
/// # Errors
///
/// Any [`CodecError`] from `T::decode`, or [`CodecError::TrailingBytes`].
pub fn decode_exact<T: Decode>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Implements [`Encode`] and [`Decode`] for a struct as its fields in the
/// listed order. Every field must be listed, with its type:
///
/// ```
/// # use drcshap_geom::codec::{decode_exact, Encode};
/// struct Span { lo: u32, hi: u32 }
/// drcshap_geom::codec_struct!(Span { lo: u32, hi: u32 });
///
/// let mut bytes = Vec::new();
/// Span { lo: 1, hi: 2 }.encode(&mut bytes);
/// assert_eq!(bytes.len(), 8);
/// assert_eq!(decode_exact::<Span>(&bytes).unwrap().hi, 2);
/// ```
#[macro_export]
macro_rules! codec_struct {
    ($ty:ident { $($field:ident: $fty:ty),* $(,)? }) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::codec::Encode::encode(&self.$field, out);)*
            }
        }

        impl $crate::codec::Decode for $ty {
            const MIN_ENCODED_LEN: usize =
                0 $(+ <$fty as $crate::codec::Decode>::MIN_ENCODED_LEN)*;

            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok(Self { $($field: <$fty as $crate::codec::Decode>::decode(r)?,)* })
            }
        }
    };
}

/// Implements [`Encode`] and [`Decode`] for a fieldless enum as a `u8`
/// tag, with every variant's tag spelled out so the encoding cannot drift
/// when variants are reordered:
///
/// ```
/// # use drcshap_geom::codec::{decode_exact, CodecError, Encode};
/// #[derive(Debug, PartialEq)]
/// enum Side { Left, Right }
/// drcshap_geom::codec_enum!(Side { Left = 0, Right = 1 });
///
/// let mut bytes = Vec::new();
/// Side::Right.encode(&mut bytes);
/// assert_eq!(bytes, [1]);
/// assert!(matches!(decode_exact::<Side>(&[2]), Err(CodecError::BadTag { what: "Side", tag: 2 })));
/// ```
#[macro_export]
macro_rules! codec_enum {
    ($ty:ident { $($variant:ident = $tag:literal),* $(,)? }) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.push(match self {
                    $($ty::$variant => $tag,)*
                });
            }
        }

        impl $crate::codec::Decode for $ty {
            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                match r.tag()? {
                    $($tag => Ok($ty::$variant),)*
                    tag => Err($crate::codec::CodecError::BadTag { what: stringify!($ty), tag }),
                }
            }
        }
    };
}

macro_rules! int_codec {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }

        impl Decode for $t {
            const MIN_ENCODED_LEN: usize = std::mem::size_of::<$t>();

            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

int_codec!(u8, u32, u64, i64);

impl Encode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
}

impl Decode for usize {
    const MIN_ENCODED_LEN: usize = 8;

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| CodecError::Invalid(format!("{v} overflows usize")))
    }
}

macro_rules! float_codec {
    ($($t:ty => $bits:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                self.to_bits().encode(out);
            }
        }

        impl Decode for $t {
            const MIN_ENCODED_LEN: usize = std::mem::size_of::<$bits>();

            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(<$t>::from_bits(<$bits>::decode(r)?))
            }
        }
    )*};
}

float_codec!(f32 => u32, f64 => u64);

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.tag()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { what: "bool", tag }),
        }
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.tag()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(CodecError::BadTag { what: "Option", tag }),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for v in self {
            v.encode(out);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    const MIN_ENCODED_LEN: usize = 8;

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.len_prefix(T::MIN_ENCODED_LEN)?;
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Decode for String {
    const MIN_ENCODED_LEN: usize = 8;

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.len_prefix(1)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| CodecError::Invalid(e.to_string()))
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    const MIN_ENCODED_LEN: usize = A::MIN_ENCODED_LEN + B::MIN_ENCODED_LEN;

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{window_edges, GcellGrid, GcellId, Neighbor, Point, Rect, NEIGHBOR_ORDER};

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: &T) {
        let mut bytes = Vec::new();
        value.encode(&mut bytes);
        let back: T = decode_exact(&bytes).expect("round trip");
        assert_eq!(&back, value);
        let mut again = Vec::new();
        back.encode(&mut again);
        assert_eq!(again, bytes);
    }

    #[test]
    fn primitives_and_containers_round_trip() {
        round_trip(&0xdead_beef_u32);
        round_trip(&-7_i64);
        round_trip(&usize::MAX);
        round_trip(&true);
        round_trip(&Some(3u8));
        round_trip(&None::<u64>);
        round_trip(&String::from("fft_1 µm"));
        round_trip(&vec![vec![1u32, 2], vec![]]);
        round_trip(&Vec::<GcellId>::new());
        round_trip(&(1.5f64, -2.25f64));
    }

    #[test]
    fn floats_keep_their_exact_bits() {
        for v in [f64::NAN, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE, 0.1] {
            let mut bytes = Vec::new();
            v.encode(&mut bytes);
            assert_eq!(decode_exact::<f64>(&bytes).unwrap().to_bits(), v.to_bits());
        }
        let quiet_nan_payload = f32::from_bits(0x7fc0_1234);
        let mut bytes = Vec::new();
        quiet_nan_payload.encode(&mut bytes);
        assert_eq!(decode_exact::<f32>(&bytes).unwrap().to_bits(), 0x7fc0_1234);
    }

    #[test]
    fn geometry_round_trips() {
        let die = Rect::new(0, 0, 90_000, 60_000);
        round_trip(&GcellGrid::with_dims(die, 9, 6));
        round_trip(&Point::new(-5, 7));
        for n in NEIGHBOR_ORDER {
            round_trip(&n);
        }
        for e in window_edges() {
            round_trip(&e);
        }
    }

    #[test]
    fn absurd_length_prefix_is_rejected_before_allocating() {
        let mut bytes = Vec::new();
        u64::MAX.encode(&mut bytes);
        assert!(matches!(
            decode_exact::<Vec<f64>>(&bytes),
            Err(CodecError::LengthTooLarge { len: u64::MAX, remaining: 0 })
        ));
        // Three f64 promised, two present.
        let mut bytes = Vec::new();
        3u64.encode(&mut bytes);
        bytes.extend_from_slice(&[0; 16]);
        assert!(matches!(
            decode_exact::<Vec<f64>>(&bytes),
            Err(CodecError::LengthTooLarge { len: 3, remaining: 16 })
        ));
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        assert!(matches!(
            decode_exact::<u64>(&[1, 2, 3]),
            Err(CodecError::Truncated { needed: 8, remaining: 3 })
        ));
        assert!(matches!(
            decode_exact::<bool>(&[2]),
            Err(CodecError::BadTag { what: "bool", tag: 2 })
        ));
        assert!(matches!(
            decode_exact::<Neighbor>(&[9]),
            Err(CodecError::BadTag { what: "Neighbor", tag: 9 })
        ));
        assert!(matches!(decode_exact::<u8>(&[1, 2]), Err(CodecError::TrailingBytes { count: 1 })));
        let mut grid = Vec::new();
        GcellGrid::with_dims(Rect::new(0, 0, 100, 100), 2, 2).encode(&mut grid);
        let nx = grid.len() - 8;
        grid[nx..nx + 4].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(decode_exact::<GcellGrid>(&grid), Err(CodecError::Invalid(_))));
        let mut bad_utf8 = Vec::new();
        vec![0xffu8, 0xfe].encode(&mut bad_utf8);
        assert!(matches!(decode_exact::<String>(&bad_utf8), Err(CodecError::Invalid(_))));
    }
}
