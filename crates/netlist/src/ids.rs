//! Typed identifiers into the arenas of a [`crate::Netlist`] (C-NEWTYPE).

use serde::{Deserialize, Serialize};

macro_rules! arena_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Creates an identifier from a raw arena index.
            pub const fn from_index(index: usize) -> Self {
                Self(index as u32)
            }

            /// The raw arena index.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl drcshap_geom::codec::Encode for $name {
            fn encode(&self, out: &mut Vec<u8>) {
                drcshap_geom::codec::Encode::encode(&self.0, out);
            }
        }

        impl drcshap_geom::codec::Decode for $name {
            const MIN_ENCODED_LEN: usize = 4;

            fn decode(
                r: &mut drcshap_geom::codec::Reader<'_>,
            ) -> Result<Self, drcshap_geom::codec::CodecError> {
                <u32 as drcshap_geom::codec::Decode>::decode(r).map(Self)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}#{}", stringify!($name), self.0)
            }
        }
    };
}

arena_id!(
    /// Identifier of a standard cell.
    CellId
);
arena_id!(
    /// Identifier of a macro block.
    MacroId
);
arena_id!(
    /// Identifier of a pin.
    PinId
);
arena_id!(
    /// Identifier of a net.
    NetId
);
arena_id!(
    /// Identifier of a non-default routing rule (NDR).
    NdrId
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_index() {
        assert_eq!(CellId::from_index(42).index(), 42);
        assert_eq!(NetId::from_index(0).index(), 0);
    }

    #[test]
    fn ids_are_ordered_and_displayable() {
        assert!(PinId::from_index(1) < PinId::from_index(2));
        assert_eq!(MacroId::from_index(3).to_string(), "MacroId#3");
    }
}
