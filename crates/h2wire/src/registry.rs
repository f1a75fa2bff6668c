//! The one declaration behind each code space RFC 7540 registers.

/// Declares a registered code space — frame types, error codes, SETTINGS
/// identifiers — from one list of `Variant = wire value => "RFC name"`
/// rows. The enum gets an `Unknown(raw)` catch-all, because a frame must
/// carry a value the registry does not know through unchanged; it is
/// written first, which names the raw type, and declared last. From the
/// same rows come the wire value (the method named after `via`),
/// `From<raw>` and `rfc_name`. Both conversions are `match`es over the
/// literals, which compile to a table lookup or range check, not a scan.
macro_rules! registry {
    (
        $(#[$meta:meta])*
        pub enum $name:ident via $to:ident {
            $(#[$unknown_meta:meta])*
            Unknown($raw:ty),
            $(
                $(#[$variant_meta:meta])*
                $variant:ident = $value:literal => $rfc:literal,
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $(
                $(#[$variant_meta])*
                $variant,
            )*
            $(#[$unknown_meta])*
            Unknown($raw),
        }

        impl $name {
            /// The wire value.
            pub const fn $to(self) -> $raw {
                match self {
                    $($name::$variant => $value,)*
                    $name::Unknown(v) => v,
                }
            }

            /// The name RFC 7540 registers for this value; `None` for a
            /// value outside the registry.
            pub const fn rfc_name(self) -> Option<&'static str> {
                match self {
                    $($name::$variant => Some($rfc),)*
                    $name::Unknown(_) => None,
                }
            }
        }

        impl From<$raw> for $name {
            fn from(v: $raw) -> Self {
                match v {
                    $($value => $name::$variant,)*
                    other => $name::Unknown(other),
                }
            }
        }
    };
}

pub(crate) use registry;
