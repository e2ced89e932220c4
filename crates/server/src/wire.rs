//! The machinery behind [`crate::proto`]'s message schema: the [`Wire`]
//! trait, which gives each field type its JSON form once, and the two
//! `macro_rules!` generators the schema is written in.
//!
//! - `wire_requests!` takes one entry per request kind — its fields,
//!   their defaults and ranges, and its reply type — and generates the
//!   `Request` and `Response` enums, `Request::{parse, to_value, kind,
//!   KINDS}`, the cache-key document and `Response::parse`.
//! - `wire_replies!` takes one struct per entry — a typed reply, or a
//!   row of a diagnostic document — and generates the struct and its
//!   [`Wire`] impl; `wire_fields!` adds the impl to a struct defined in
//!   another crate.
//!
//! A JSON key is always the Rust field name. Keys are written in
//! declaration order, and the vendored [`Value`] keeps insertion order,
//! so the declaration order *is* the byte order on the wire.
//!
//! Absent fields: a request field with a default takes it, an
//! `Option` field is `None`, and any other absent field is an error
//! naming the key. Requests leave an absent optional out of the
//! document, so a client stays readable by servers that predate the
//! field; replies write it as `null`.

use motivo_core::RecordCodec;
use motivo_store::UrnId;
use serde_json::{json, Value};
use std::ops::RangeInclusive;

use crate::repl::protocol::{hex_decode, hex_encode};

/// The request discriminant's key.
pub const TYPE: &str = "type";

/// A type with a JSON wire form. Each field type's rules — what it
/// accepts, how it renders — live in its impl, whichever message carries
/// it; reply structs implement it through `wire_replies!`.
pub trait Wire: Sized {
    /// Decodes the value found under `key` (named in errors).
    fn decode(v: &Value, key: &str) -> Result<Self, String>;

    /// The JSON form.
    fn encode(&self) -> Value;

    /// Reads the field from its document; `None` when absent. `Option`
    /// reads an absent key as `Some(None)`, and types that flatten into
    /// the document ([`crate::ReplTarget`]) read it whole.
    fn read(doc: &Value, key: &str) -> Result<Option<Self>, String> {
        doc.get(key).map(|v| Self::decode(&v, key)).transpose()
    }

    /// Writes the field into a request document.
    fn write(&self, doc: &mut Value, key: &str) {
        doc.set(key, self.encode());
    }
}

/// Reads one field: its value when present (after the schema's range
/// check), else its schema default; an absent field without one is an
/// error.
pub fn field<T: Wire>(
    doc: &Value,
    key: &str,
    default: Option<T>,
    range: Option<RangeInclusive<u64>>,
) -> Result<T, String> {
    if let (Some(range), Some(v)) = (range, doc.get(key)) {
        check_range(&v, key, range)?;
    }
    T::read(doc, key)?
        .or(default)
        .ok_or_else(|| format!("`{key}` is required"))
}

/// A schema range bounds a number's value or an array's length. Values
/// of other shapes pass through to [`Wire::decode`], which names them.
fn check_range(v: &Value, key: &str, range: RangeInclusive<u64>) -> Result<(), String> {
    let (lo, hi) = (range.start(), range.end());
    match (v.as_u64(), v.as_array()) {
        (Some(n), _) if !range.contains(&n) => Err(format!("`{key}` must be in [{lo}, {hi}]")),
        (_, Some(items)) if !range.contains(&(items.len() as u64)) => Err(format!(
            "`{key}` holds {} entries, past the cap of {hi}",
            items.len()
        )),
        _ => Ok(()),
    }
}

/// JSON scalars: read by one accessor, written as themselves.
macro_rules! scalars {
    ($($ty:ty: $read:expr, $what:literal;)*) => {$(
        impl Wire for $ty {
            fn decode(v: &Value, key: &str) -> Result<$ty, String> {
                let read: fn(&Value) -> Option<$ty> = $read;
                read(v).ok_or_else(|| format!("`{key}` must be {}", $what))
            }

            fn encode(&self) -> Value {
                json!(self)
            }
        }
    )*};
}

scalars! {
    u64: Value::as_u64, "a non-negative integer";
    u32: |v| v.as_u64()?.try_into().ok(), "a non-negative integer that fits in 32 bits";
    usize: |v| v.as_u64()?.try_into().ok(), "a non-negative integer";
    f64: Value::as_f64, "a number";
    bool: Value::as_bool, "a boolean";
    String: |v| v.as_str().map(str::to_string), "a string";
}

/// Canonical graphlet codes: 128 bits do not survive a JSON number, so
/// they travel as `0x…` hex strings.
impl Wire for u128 {
    fn decode(v: &Value, key: &str) -> Result<u128, String> {
        v.as_str()
            .and_then(|s| s.strip_prefix("0x"))
            .and_then(|h| u128::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("`{key}` must be a 0x… hex string"))
    }

    fn encode(&self) -> Value {
        json!(format!("{self:#x}"))
    }
}

/// Raw documents: `Batch` sub-requests and the diagnostic payloads.
impl Wire for Value {
    fn decode(v: &Value, _key: &str) -> Result<Value, String> {
        Ok(v.clone())
    }

    fn encode(&self) -> Value {
        self.clone()
    }
}

/// Byte payloads travel as lowercase hex (see [`crate::repl::protocol`]).
impl Wire for Vec<u8> {
    fn decode(v: &Value, key: &str) -> Result<Vec<u8>, String> {
        hex_decode(&String::decode(v, key)?).map_err(|e| format!("`{key}`: {e}"))
    }

    fn encode(&self) -> Value {
        json!(hex_encode(self))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn decode(v: &Value, key: &str) -> Result<Vec<T>, String> {
        let items = v
            .as_array()
            .ok_or_else(|| format!("`{key}` must be an array"))?;
        let item = format!("{key}[]");
        items.iter().map(|i| T::decode(i, &item)).collect()
    }

    fn encode(&self) -> Value {
        json!(self.iter().map(Wire::encode).collect::<Vec<Value>>())
    }
}

impl<T: Wire> Wire for Option<T> {
    fn decode(v: &Value, key: &str) -> Result<Option<T>, String> {
        if v.is_null() {
            Ok(None)
        } else {
            T::decode(v, key).map(Some)
        }
    }

    fn encode(&self) -> Value {
        self.as_ref().map_or(json!(null), Wire::encode)
    }

    fn read(doc: &Value, key: &str) -> Result<Option<Option<T>>, String> {
        match doc.get(key) {
            Some(v) => Self::decode(&v, key).map(Some),
            None => Ok(Some(None)),
        }
    }

    fn write(&self, doc: &mut Value, key: &str) {
        if let Some(v) = self {
            v.write(doc, key);
        }
    }
}

/// An urn id, or its printed form `"urn-N"` as the CLI accepts it.
impl Wire for UrnId {
    fn decode(v: &Value, key: &str) -> Result<UrnId, String> {
        if let Some(n) = v.as_u64() {
            return Ok(UrnId(n));
        }
        v.as_str()
            .and_then(|s| s.strip_prefix("urn-").unwrap_or(s).parse().ok())
            .map(UrnId)
            .ok_or_else(|| format!("`{key}` must be an id number or \"urn-N\""))
    }

    fn encode(&self) -> Value {
        json!(self.0)
    }
}

/// A record codec, by name.
impl Wire for RecordCodec {
    fn decode(v: &Value, key: &str) -> Result<RecordCodec, String> {
        String::decode(v, key)?.parse()
    }

    fn encode(&self) -> Value {
        json!(self.to_string())
    }
}

/// Whether a request field belongs in the cache key: every field does,
/// except those marked `#[unkeyed]` because they cannot change the
/// payload.
macro_rules! keyed {
    () => {
        true
    };
    (unkeyed) => {
        false
    };
}

/// Generates the request and response types from one entry per request
/// kind:
///
/// ```text
/// /// docs
/// Kind { [#[unkeyed]] field: Type [= default] [; lo..=hi], … } => ReplyType,
/// ```
///
/// A kind without fields omits the braces. Entries must be listed in
/// ascending kind order: `Request::KINDS` is that list, and `Hello`
/// advertises it as is.
macro_rules! wire_requests {
    ($(
        $(#[$doc:meta])*
        $kind:ident $({
            $( $(#[$flag:ident])? $field:ident : $ty:ty $(= $default:expr)? $(; $range:expr)? ),* $(,)?
        })? => $reply:ty
    ),* $(,)?) => {
        /// A parsed request: one variant per kind of the schema in
        /// [`crate::proto`], each JSON key its field's name.
        #[derive(Clone, Debug, PartialEq)]
        pub enum Request {
            $( $(#[$doc])* $kind $({ $( $field: $ty ),* })?, )*
        }

        /// A typed success payload, decoded according to the *request*
        /// kind that produced it (payloads carry no discriminant of their
        /// own: the frame `id` pairs them with requests, and the request
        /// fixes the shape).
        #[derive(Clone, Debug, PartialEq)]
        pub enum Response {
            $(
                #[doc = concat!("The answer to a `", stringify!($kind), "` request.")]
                $kind($reply),
            )*
        }

        impl Request {
            /// Every request kind, ascending — what `Hello` advertises and
            /// what the per-kind metrics are keyed by.
            pub const KINDS: &'static [&'static str] = &[$(stringify!($kind)),*];

            /// Parses a request document (the caller extracts the echoed
            /// `"id"` itself, so parse failures can still carry it).
            pub fn parse(v: &serde_json::Value) -> Result<Request, String> {
                let ty = v
                    .get($crate::wire::TYPE)
                    .and_then(|t| t.as_str().map(str::to_string))
                    .ok_or_else(|| format!("request must carry a string `{}`", $crate::wire::TYPE))?;
                Ok(match ty.as_str() {
                    $( stringify!($kind) => Request::$kind $({ $(
                        $field: $crate::wire::field::<$ty>(
                            v,
                            stringify!($field),
                            None $(.or(Some($default)))?,
                            None $(.or(Some($range)))?,
                        )?,
                    )* })?, )*
                    other => return Err(format!("unknown request type `{other}`")),
                })
            }

            /// The request's kind name — the `"type"` it parsed from and
            /// the label its per-kind metrics hang off.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( Request::$kind { .. } => stringify!($kind), )*
                }
            }

            /// The canonical request document — what the typed client puts
            /// on the wire. Round-trips through [`Request::parse`].
            pub fn to_value(&self) -> serde_json::Value {
                self.document(false)
            }

            /// The canonical document, optionally without the `#[unkeyed]`
            /// fields (the cache-key form).
            fn document(&self, keyed_only: bool) -> serde_json::Value {
                let mut doc = serde_json::json!({});
                doc.set($crate::wire::TYPE, serde_json::json!(self.kind()));
                match self {
                    $( Request::$kind $({ $($field),* })? => {
                        $($(
                            if !keyed_only || keyed!($($flag)?) {
                                $crate::wire::Wire::write($field, &mut doc, stringify!($field));
                            }
                        )*)?
                    } )*
                }
                doc
            }
        }

        impl Response {
            /// Decodes a success payload for a request of `kind`
            /// ([`Request::kind`] of the request that earned it).
            pub fn parse(kind: &str, payload: &serde_json::Value) -> Result<Response, String> {
                match kind {
                    $( stringify!($kind) => {
                        <$reply as $crate::wire::Wire>::decode(payload, kind).map(Response::$kind)
                    } )*
                    other => Err(format!("unknown request kind `{other}`")),
                }
            }
        }
    };
}

/// Implements [`Wire`] for a struct from its field list: an object with
/// one key per field, in order. Used by `wire_replies!` and, for structs
/// defined in other crates, directly.
macro_rules! wire_fields {
    ($name:ident { $($field:ident : $ty:ty),* $(,)? }) => {
        impl $crate::wire::Wire for $name {
            fn decode(v: &serde_json::Value, _key: &str) -> Result<$name, String> {
                Ok($name {
                    $( $field: $crate::wire::field::<$ty>(v, stringify!($field), None, None)?, )*
                })
            }

            fn encode(&self) -> serde_json::Value {
                let mut doc = serde_json::json!({});
                $( doc.set(stringify!($field), $crate::wire::Wire::encode(&self.$field)); )*
                doc
            }
        }
    };
}

/// Generates structs with a wire form (typed replies, diagnostic rows)
/// and their [`Wire`] impls.
macro_rules! wire_replies {
    ($(
        $(#[$doc:meta])*
        pub struct $name:ident { $( $(#[$fdoc:meta])* pub $field:ident : $ty:ty ),* $(,)? }
    )*) => {
        $(
            $(#[$doc])*
            #[derive(Clone, Debug, PartialEq)]
            pub struct $name { $( $(#[$fdoc])* pub $field: $ty ),* }

            wire_fields!($name { $($field: $ty),* });
        )*
    };
}
