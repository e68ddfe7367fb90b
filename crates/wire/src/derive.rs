//! Declared codecs: [`wire_enum!`](crate::wire_enum) and
//! [`wire_struct!`](crate::wire_struct) generate the [`Encode`](crate::Encode)
//! / [`Decode`](crate::Decode) pair of a type from one statement of its wire
//! layout, so the two directions cannot disagree on a tag or a field order.
//!
//! ```text
//! enum   := variant-tag:u8 field*    (the variant's fields, in listed order)
//! struct := field*                   (in listed order)
//! ```
//!
//! The macros cover codecs that are a plain field sequence. A decoder that
//! must re-check an invariant on untrusted input stays hand-written.

/// Implements [`Encode`](crate::Encode) and [`Decode`](crate::Decode) for an
/// enum from one entry per variant: its wire tag (a `u8` literal;
/// wire-stable and append-only), its name, and the fields of a struct or
/// tuple variant in wire order. Tuple-variant fields are named only to
/// bind them.
///
/// An unknown tag decodes to `WireError::BadTag { what: "<Type>", tag }`.
///
/// ```
/// use plwg_wire::{decode_frame, encode_frame, wire_enum};
///
/// #[derive(Debug, PartialEq)]
/// enum Msg {
///     Ping,
///     Put { key: u64, value: u64 },
///     Echo(u32),
/// }
///
/// wire_enum!(Msg {
///     0 => Ping,
///     1 => Put { key, value },
///     2 => Echo(n),
/// });
///
/// let f = encode_frame(9, &Msg::Put { key: 3, value: 4 });
/// assert_eq!(f.bytes(), [9, 1, 3, 4]);
/// assert_eq!(decode_frame(9, &f), Ok(Msg::Put { key: 3, value: 4 }));
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident {
        $($tag:literal => $var:ident
            $({ $($field:ident),+ $(,)? })?
            $(( $($elem:ident),+ $(,)? ))?
        ),+ $(,)?
    }) => {
        impl $crate::Encode for $ty {
            fn encode_into(&self, out: &mut ::std::vec::Vec<u8>) {
                match self {
                    $(Self::$var $({ $($field),+ })? $(( $($elem),+ ))? => {
                        out.push($tag);
                        $($($crate::Encode::encode_into($field, out);)+)?
                        $($($crate::Encode::encode_into($elem, out);)+)?
                    })+
                }
            }
        }

        impl $crate::Decode for $ty {
            fn decode_from(
                r: &mut $crate::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::WireError> {
                ::std::result::Result::Ok(match r.read_u8()? {
                    $($tag => {
                        $($(let $field = $crate::Decode::decode_from(r)?;)+)?
                        $($(let $elem = $crate::Decode::decode_from(r)?;)+)?
                        Self::$var $({ $($field),+ })? $(( $($elem),+ ))?
                    })+
                    tag => {
                        return ::std::result::Result::Err($crate::WireError::BadTag {
                            what: ::std::stringify!($ty),
                            tag: ::std::primitive::u64::from(tag),
                        })
                    }
                })
            }
        }
    };
}

/// Implements [`Encode`](crate::Encode) and [`Decode`](crate::Decode) for a
/// struct as its fields in the listed order — `wire_struct!(T { a, b })` —
/// or for a newtype as its one field — `wire_struct!(T(_))`.
///
/// ```
/// use plwg_wire::{wire_struct, Decode, Encode, Frame, Reader};
///
/// #[derive(Debug, PartialEq)]
/// struct Span { start: u64, len: u32 }
/// wire_struct!(Span { start, len });
///
/// let mut out = Vec::new();
/// Span { start: 5, len: 2 }.encode_into(&mut out);
/// assert_eq!(out, [5, 2]);
/// let f = Frame::from_vec(out);
/// assert_eq!(Span::decode_from(&mut Reader::new(&f)), Ok(Span { start: 5, len: 2 }));
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::Encode for $ty {
            fn encode_into(&self, out: &mut ::std::vec::Vec<u8>) {
                $($crate::Encode::encode_into(&self.$field, out);)+
            }
        }

        impl $crate::Decode for $ty {
            fn decode_from(
                r: &mut $crate::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::WireError> {
                $(let $field = $crate::Decode::decode_from(r)?;)+
                ::std::result::Result::Ok(Self { $($field),+ })
            }
        }
    };
    ($ty:ident(_)) => {
        impl $crate::Encode for $ty {
            fn encode_into(&self, out: &mut ::std::vec::Vec<u8>) {
                $crate::Encode::encode_into(&self.0, out);
            }
        }

        impl $crate::Decode for $ty {
            fn decode_from(
                r: &mut $crate::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::WireError> {
                $crate::Decode::decode_from(r).map(Self)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::{Decode, Encode, Frame, Reader, WireError};
    use std::fmt::Debug;

    #[derive(Debug, PartialEq)]
    enum Sample {
        Unit,
        Named { a: u64, b: bool },
        Tuple(u32, Frame),
    }

    // Fields listed out of declaration order, and a tag past 127 (one raw
    // byte, where a varint would take two).
    wire_enum!(Sample {
        0 => Unit,
        7 => Named { b, a },
        200 => Tuple(n, payload),
    });

    #[derive(Debug, PartialEq)]
    struct Pair {
        lo: u64,
        hi: u32,
    }

    wire_struct!(Pair { hi, lo });

    #[derive(Debug, PartialEq)]
    struct Wrapped(u64);

    wire_struct!(Wrapped(_));

    fn encoded(v: &impl Encode) -> Vec<u8> {
        let mut out = Vec::new();
        v.encode_into(&mut out);
        out
    }

    fn decoded<T: Decode>(bytes: &[u8]) -> Result<T, WireError> {
        let f = Frame::copy_from_slice(bytes);
        let mut r = Reader::new(&f);
        let v = T::decode_from(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// Asserts `v` encodes to exactly `bytes`, decodes back to itself, and
    /// that no strict prefix of `bytes` decodes.
    fn check<T: Encode + Decode + PartialEq + Debug>(v: T, bytes: &[u8]) {
        assert_eq!(encoded(&v), bytes, "{v:?}");
        assert_eq!(decoded::<T>(bytes), Ok(v));
        for cut in 0..bytes.len() {
            assert!(decoded::<T>(&bytes[..cut]).is_err(), "prefix {cut} decoded");
        }
    }

    #[test]
    fn enum_writes_tag_byte_then_listed_fields() {
        check(Sample::Unit, &[0]);
        check(Sample::Named { a: 300, b: true }, &[7, 1, 0xac, 0x02]);
        check(
            Sample::Tuple(5, Frame::from_vec(vec![9, 8])),
            &[200, 5, 2, 9, 8],
        );
    }

    #[test]
    fn struct_writes_listed_fields_and_newtype_its_field() {
        check(Pair { lo: 1, hi: 2 }, &[2, 1]);
        check(Wrapped(128), &[0x80, 0x01]);
    }

    #[test]
    fn unknown_enum_tag_is_named_after_the_type() {
        for tag in [1u8, 128, 255] {
            assert_eq!(
                decoded::<Sample>(&[tag]),
                Err(WireError::BadTag {
                    what: "Sample",
                    tag: u64::from(tag),
                })
            );
        }
    }
}
