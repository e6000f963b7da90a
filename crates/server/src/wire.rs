//! The server's versioned wire format: a hand-rolled JSON value type and the
//! request/response structs layered on it.
//!
//! The build is offline (no serde), so this module carries a small
//! recursive-descent JSON parser and serializer.  Every request body and
//! every response carries a `"v"` field; requests whose version is not
//! [`WIRE_VERSION`] are rejected *before* any other field is interpreted, so
//! future format changes stay explicit.
//!
//! Floating-point fields that feed privacy accounting are also exposed as
//! exact IEEE-754 bit patterns (`*_bits` hex strings) in responses, so
//! clients — and the kill-and-restart oracle in the test suite — can compare
//! recovered budgets bit for bit rather than through decimal round-trips.

use std::fmt::Write as _;

/// The wire-format version this server speaks.
pub const WIRE_VERSION: u64 = 1;

/// Maximum JSON nesting depth accepted from the network.
const MAX_DEPTH: usize = 32;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, with insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a JSON document (must consume the full input).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    /// Serializes the value to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractional numbers and
    /// anything above 2⁵³, where `f64` stops being exact).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Builds a JSON object from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/∞; the server never emits them, but degrade
        // safely rather than producing an unparseable document.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Rust's shortest round-trip float formatting.
        let _ = write!(out, "{n}");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err("nesting too deep".to_string());
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at offset {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at offset {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "bad number".to_string())?;
    let n: f64 = text
        .parse()
        .map_err(|_| format!("invalid number at offset {start}"))?;
    if !n.is_finite() {
        return Err(format!("non-finite number at offset {start}"));
    }
    Ok(Json::Num(n))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        // Combine surrogate pairs when present; lone
                        // surrogates become the replacement character.
                        if (0xD800..0xDC00).contains(&code)
                            && bytes.get(*pos + 1) == Some(&b'\\')
                            && bytes.get(*pos + 2) == Some(&b'u')
                        {
                            let low = parse_hex4(bytes, *pos + 3)?;
                            if (0xDC00..0xE000).contains(&low) {
                                *pos += 6;
                                let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                out.push(char::from_u32(c).unwrap_or('\u{FFFD}'));
                            } else {
                                out.push('\u{FFFD}');
                            }
                        } else {
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character (input is a &str, so the
                // boundaries are valid).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| "bad utf-8 in string".to_string())?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes
        .get(at..at + 4)
        .ok_or_else(|| "truncated \\u escape".to_string())?;
    let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?;
    u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())
}

// ---------------------------------------------------------------------------
// Request structs
// ---------------------------------------------------------------------------

/// A request-level failure, mapped to an HTTP status plus a stable error
/// code in the response body.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiError {
    /// HTTP status to respond with.
    pub status: u16,
    /// Stable machine-readable error code.
    pub code: &'static str,
    /// Human-readable detail.  Never includes private data.
    pub detail: String,
}

impl ApiError {
    /// Builds an error.
    pub fn new(status: u16, code: &'static str, detail: impl Into<String>) -> Self {
        ApiError {
            status,
            code,
            detail: detail.into(),
        }
    }

    /// A 400 with the given code.
    pub fn bad_request(code: &'static str, detail: impl Into<String>) -> Self {
        ApiError::new(400, code, detail)
    }

    /// The error rendered as a response body.
    pub fn body(&self) -> Json {
        obj(vec![
            ("v", Json::Num(WIRE_VERSION as f64)),
            (
                "error",
                obj(vec![
                    ("code", Json::Str(self.code.to_string())),
                    ("detail", Json::Str(self.detail.clone())),
                ]),
            ),
        ])
    }
}

fn require_version(body: &Json) -> Result<(), ApiError> {
    match body.get("v").and_then(Json::as_u64) {
        Some(WIRE_VERSION) => Ok(()),
        Some(v) => Err(ApiError::bad_request(
            "unsupported_version",
            format!("wire version {v} is not supported (this server speaks v{WIRE_VERSION})"),
        )),
        None => Err(ApiError::bad_request(
            "missing_version",
            "request body must carry a numeric \"v\" field",
        )),
    }
}

fn str_field(body: &Json, name: &'static str) -> Result<String, ApiError> {
    body.get(name)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| ApiError::bad_request("missing_field", format!("missing string {name:?}")))
}

fn f64_field(body: &Json, name: &'static str) -> Result<f64, ApiError> {
    body.get(name)
        .and_then(Json::as_f64)
        .ok_or_else(|| ApiError::bad_request("missing_field", format!("missing number {name:?}")))
}

fn u64_field_or(body: &Json, name: &'static str, default: u64) -> Result<u64, ApiError> {
    match body.get(name) {
        None => Ok(default),
        Some(v) => v.as_u64().ok_or_else(|| {
            ApiError::bad_request(
                "bad_field",
                format!("{name:?} must be a non-negative integer"),
            )
        }),
    }
}

/// `POST /v1/tenant` — create a tenant with its total `(ε, δ)` grant.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTenantReq {
    /// Tenant name.
    pub tenant: String,
    /// Total ε grant.
    pub epsilon: f64,
    /// Total δ grant.
    pub delta: f64,
}

impl CreateTenantReq {
    /// Parses and version-checks a request body.
    pub fn from_json(body: &Json) -> Result<Self, ApiError> {
        require_version(body)?;
        Ok(CreateTenantReq {
            tenant: str_field(body, "tenant")?,
            epsilon: f64_field(body, "epsilon")?,
            delta: f64_field(body, "delta")?,
        })
    }
}

/// One relation of a dataset upload: attribute ids plus weighted tuples.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationSpec {
    /// Attribute ids (indices into the dataset's `domains` list).
    pub attrs: Vec<u16>,
    /// `(tuple, frequency)` pairs.
    pub tuples: Vec<(Vec<u64>, u64)>,
}

/// `POST /v1/dataset` — upload a private instance the server will serve
/// releases over.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateDatasetReq {
    /// Dataset name.
    pub name: String,
    /// Domain size per attribute; attribute ids are indices into this list.
    pub domains: Vec<u64>,
    /// The relations.
    pub relations: Vec<RelationSpec>,
}

/// Hard caps on dataset uploads (the body-size bound is the primary
/// defence; these keep the lattice enumeration in its supported
/// ranges).
pub const MAX_DATASET_ATTRS: usize = 64;
/// Maximum relations per dataset (the sub-join lattice is `2^m`).
pub const MAX_DATASET_RELATIONS: usize = 12;
/// Maximum distinct tuples per relation.
pub const MAX_RELATION_TUPLES: usize = 65_536;

impl CreateDatasetReq {
    /// Parses and version-checks a request body, enforcing the shape caps.
    pub fn from_json(body: &Json) -> Result<Self, ApiError> {
        require_version(body)?;
        let name = str_field(body, "name")?;
        let domains: Vec<u64> = body
            .get("domains")
            .and_then(Json::as_arr)
            .ok_or_else(|| ApiError::bad_request("missing_field", "missing array \"domains\""))?
            .iter()
            .map(|v| {
                v.as_u64()
                    .filter(|&d| d >= 1)
                    .ok_or_else(|| ApiError::bad_request("bad_field", "domain sizes must be >= 1"))
            })
            .collect::<Result<_, _>>()?;
        if domains.is_empty() || domains.len() > MAX_DATASET_ATTRS {
            return Err(ApiError::bad_request(
                "bad_field",
                format!("between 1 and {MAX_DATASET_ATTRS} attributes are supported"),
            ));
        }
        let rel_values = body
            .get("relations")
            .and_then(Json::as_arr)
            .ok_or_else(|| ApiError::bad_request("missing_field", "missing array \"relations\""))?;
        if rel_values.is_empty() || rel_values.len() > MAX_DATASET_RELATIONS {
            return Err(ApiError::bad_request(
                "bad_field",
                format!("between 1 and {MAX_DATASET_RELATIONS} relations are supported"),
            ));
        }
        let mut relations = Vec::with_capacity(rel_values.len());
        for rel in rel_values {
            let attrs: Vec<u16> = rel
                .get("attrs")
                .and_then(Json::as_arr)
                .ok_or_else(|| {
                    ApiError::bad_request("missing_field", "relation missing array \"attrs\"")
                })?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .filter(|&a| (a as usize) < domains.len())
                        .map(|a| a as u16)
                        .ok_or_else(|| {
                            ApiError::bad_request("bad_field", "attr ids must index \"domains\"")
                        })
                })
                .collect::<Result<_, _>>()?;
            let tuple_values = rel.get("tuples").and_then(Json::as_arr).ok_or_else(|| {
                ApiError::bad_request("missing_field", "relation missing array \"tuples\"")
            })?;
            if tuple_values.len() > MAX_RELATION_TUPLES {
                return Err(ApiError::bad_request(
                    "bad_field",
                    format!("at most {MAX_RELATION_TUPLES} tuples per relation"),
                ));
            }
            let mut tuples = Vec::with_capacity(tuple_values.len());
            for t in tuple_values {
                // Each tuple is [[values...], freq].
                let pair = t.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                    ApiError::bad_request("bad_field", "tuples must be [[values...], freq] pairs")
                })?;
                let values: Vec<u64> = pair[0]
                    .as_arr()
                    .ok_or_else(|| {
                        ApiError::bad_request("bad_field", "tuple values must be an array")
                    })?
                    .iter()
                    .map(|v| {
                        v.as_u64().ok_or_else(|| {
                            ApiError::bad_request("bad_field", "tuple values must be integers")
                        })
                    })
                    .collect::<Result<_, _>>()?;
                let freq = pair[1].as_u64().filter(|&f| f >= 1).ok_or_else(|| {
                    ApiError::bad_request("bad_field", "tuple frequency must be an integer >= 1")
                })?;
                tuples.push((values, freq));
            }
            relations.push(RelationSpec { attrs, tuples });
        }
        Ok(CreateDatasetReq {
            name,
            domains,
            relations,
        })
    }
}

/// One op of a dataset update batch.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateSpec {
    /// Relation index within the dataset.
    pub relation: usize,
    /// `true` for an insert, `false` for a delete.
    pub insert: bool,
    /// The tuple's attribute values.
    pub tuple: Vec<u64>,
    /// Multiplicity (copies inserted or retracted).
    pub count: u64,
}

/// `POST /v1/dataset/<name>/updates` — a batch of inserts/deletes applied
/// atomically to a served dataset between releases.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateDatasetReq {
    /// The ops, in order.  Semantics are *net* per `(relation, tuple)`.
    pub ops: Vec<UpdateSpec>,
}

/// Maximum ops per update batch (same defence role as the dataset caps).
pub const MAX_UPDATE_OPS: usize = 65_536;

impl UpdateDatasetReq {
    /// Parses and version-checks a request body.
    ///
    /// Body shape:
    /// `{"v":1,"updates":[{"relation":0,"op":"insert","tuple":[1,2],"count":3}, ...]}`
    /// (`count` defaults to 1).
    pub fn from_json(body: &Json) -> Result<Self, ApiError> {
        require_version(body)?;
        let op_values = body
            .get("updates")
            .and_then(Json::as_arr)
            .ok_or_else(|| ApiError::bad_request("missing_field", "missing array \"updates\""))?;
        if op_values.is_empty() || op_values.len() > MAX_UPDATE_OPS {
            return Err(ApiError::bad_request(
                "bad_field",
                format!("between 1 and {MAX_UPDATE_OPS} update ops are supported"),
            ));
        }
        let mut ops = Vec::with_capacity(op_values.len());
        for op in op_values {
            let relation = op.get("relation").and_then(Json::as_u64).ok_or_else(|| {
                ApiError::bad_request("bad_field", "each update needs an integer \"relation\"")
            })? as usize;
            let insert = match op.get("op").and_then(Json::as_str) {
                Some("insert") => true,
                Some("delete") => false,
                _ => {
                    return Err(ApiError::bad_request(
                        "bad_field",
                        "each update's \"op\" must be \"insert\" or \"delete\"",
                    ))
                }
            };
            let tuple: Vec<u64> = op
                .get("tuple")
                .and_then(Json::as_arr)
                .ok_or_else(|| {
                    ApiError::bad_request("bad_field", "each update needs an array \"tuple\"")
                })?
                .iter()
                .map(|v| {
                    v.as_u64().ok_or_else(|| {
                        ApiError::bad_request("bad_field", "tuple values must be integers")
                    })
                })
                .collect::<Result<_, _>>()?;
            let count = match op.get("count") {
                None => 1,
                Some(v) => v.as_u64().filter(|&c| c >= 1).ok_or_else(|| {
                    ApiError::bad_request("bad_field", "\"count\" must be an integer >= 1")
                })?,
            };
            ops.push(UpdateSpec {
                relation,
                insert,
                tuple,
                count,
            });
        }
        Ok(UpdateDatasetReq { ops })
    }
}

/// Maximum workload size a release request may ask for.
pub const MAX_WORKLOAD_SIZE: usize = 4096;

/// `POST /v1/release` — run a release mechanism against a dataset, charging
/// the tenant's budget.
#[derive(Debug, Clone, PartialEq)]
pub struct ReleaseReq {
    /// Paying tenant.
    pub tenant: String,
    /// Dataset to release over.
    pub dataset: String,
    /// Mechanism name (see the handler's registry of *sound* mechanisms).
    pub mechanism: String,
    /// ε to spend on this release.
    pub epsilon: f64,
    /// δ to spend on this release.
    pub delta: f64,
    /// RNG seed for the release (releases are byte-reproducible per seed).
    pub seed: u64,
    /// Number of random-sign workload queries to answer.
    pub workload_size: usize,
    /// Seed for workload generation.
    pub workload_seed: u64,
}

impl ReleaseReq {
    /// Parses and version-checks a request body.
    pub fn from_json(body: &Json) -> Result<Self, ApiError> {
        require_version(body)?;
        let workload_size = u64_field_or(body, "workload_size", 16)? as usize;
        if workload_size == 0 || workload_size > MAX_WORKLOAD_SIZE {
            return Err(ApiError::bad_request(
                "bad_field",
                format!("workload_size must be in 1..={MAX_WORKLOAD_SIZE}"),
            ));
        }
        Ok(ReleaseReq {
            tenant: str_field(body, "tenant")?,
            dataset: str_field(body, "dataset")?,
            mechanism: str_field(body, "mechanism")?,
            epsilon: f64_field(body, "epsilon")?,
            delta: f64_field(body, "delta")?,
            seed: u64_field_or(body, "seed", 0)?,
            workload_size,
            workload_seed: u64_field_or(body, "workload_seed", 0)?,
        })
    }
}

/// Upper bound on `POST /v1/debug/sleep` duration.
pub const MAX_SLEEP_MS: u64 = 10_000;

/// `POST /v1/debug/sleep` — hold a request open for a bounded duration
/// (exists so the SIGTERM-drain test can have a genuinely in-flight
/// request).
#[derive(Debug, Clone, PartialEq)]
pub struct SleepReq {
    /// Milliseconds to sleep before responding.
    pub ms: u64,
}

impl SleepReq {
    /// Parses and version-checks a request body.
    pub fn from_json(body: &Json) -> Result<Self, ApiError> {
        require_version(body)?;
        let ms = u64_field_or(body, "ms", 0)?;
        if ms > MAX_SLEEP_MS {
            return Err(ApiError::bad_request(
                "bad_field",
                format!("ms must be <= {MAX_SLEEP_MS}"),
            ));
        }
        Ok(SleepReq { ms })
    }
}

/// Renders an `f64` as its exact IEEE-754 bit pattern (16 lowercase hex
/// digits), the bit-exact twin of the decimal field it accompanies.
pub fn f64_bits_hex(value: f64) -> String {
    format!("{:016x}", value.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_documents() {
        let doc = r#"{"v":1,"name":"demo","nums":[1,2.5,-3e2],"nested":{"ok":true,"n":null},"s":"a\"b\\c\nd"}"#;
        let v = Json::parse(doc).unwrap();
        let back = Json::parse(&v.to_json()).unwrap();
        assert_eq!(v, back);
        assert_eq!(v.get("name").unwrap().as_str(), Some("demo"));
        assert_eq!(v.get("v").unwrap().as_u64(), Some(1));
        assert_eq!(
            v.get("nums").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2,]").is_err());
        assert!(Json::parse("123 456").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        // Nesting bomb.
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn numbers_roundtrip_shortest() {
        let v = Json::Num(0.30000000000000004);
        let back = Json::parse(&v.to_json()).unwrap();
        assert_eq!(
            back.as_f64().unwrap().to_bits(),
            (0.30000000000000004f64).to_bits()
        );
        assert_eq!(Json::Num(42.0).to_json(), "42");
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = Json::parse(r#""aé😀b""#).unwrap();
        assert_eq!(v.as_str(), Some("aé😀b"));
    }

    #[test]
    fn version_gate_rejects_other_versions() {
        let ok = Json::parse(r#"{"v":1,"tenant":"t","epsilon":1.0,"delta":0}"#).unwrap();
        assert!(CreateTenantReq::from_json(&ok).is_ok());
        let bad = Json::parse(r#"{"v":2,"tenant":"t","epsilon":1.0,"delta":0}"#).unwrap();
        let err = CreateTenantReq::from_json(&bad).unwrap_err();
        assert_eq!(err.code, "unsupported_version");
        let missing = Json::parse(r#"{"tenant":"t","epsilon":1.0,"delta":0}"#).unwrap();
        assert_eq!(
            CreateTenantReq::from_json(&missing).unwrap_err().code,
            "missing_version"
        );
    }

    #[test]
    fn dataset_request_parses_and_enforces_caps() {
        let doc = r#"{"v":1,"name":"d","domains":[8,8,8],
            "relations":[{"attrs":[0,1],"tuples":[[[1,2],1],[[3,4],2]]},
                         {"attrs":[1,2],"tuples":[[[2,5],1]]}]}"#;
        let req = CreateDatasetReq::from_json(&Json::parse(doc).unwrap()).unwrap();
        assert_eq!(req.relations.len(), 2);
        assert_eq!(req.relations[0].tuples[1], (vec![3, 4], 2));
        // Attr id out of range.
        let bad = r#"{"v":1,"name":"d","domains":[8],"relations":[{"attrs":[1],"tuples":[]}]}"#;
        assert!(CreateDatasetReq::from_json(&Json::parse(bad).unwrap()).is_err());
        // Zero frequency.
        let bad =
            r#"{"v":1,"name":"d","domains":[8],"relations":[{"attrs":[0],"tuples":[[[1],0]]}]}"#;
        assert!(CreateDatasetReq::from_json(&Json::parse(bad).unwrap()).is_err());
    }

    #[test]
    fn release_request_defaults_and_bounds() {
        let doc = r#"{"v":1,"tenant":"t","dataset":"d","mechanism":"two_table",
                      "epsilon":0.5,"delta":1e-7}"#;
        let req = ReleaseReq::from_json(&Json::parse(doc).unwrap()).unwrap();
        assert_eq!(req.workload_size, 16);
        assert_eq!(req.seed, 0);
        let doc = r#"{"v":1,"tenant":"t","dataset":"d","mechanism":"two_table",
                      "epsilon":0.5,"delta":1e-7,"workload_size":100000}"#;
        assert!(ReleaseReq::from_json(&Json::parse(doc).unwrap()).is_err());
    }
}
