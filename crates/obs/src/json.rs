//! Minimal hand-rolled JSON: string escaping for the emitting sinks and
//! a small recursive-descent parser for the trace analyzer (the crate is
//! dependency-free; there is no `serde`).

use std::collections::BTreeMap;

/// Escape a string into a quoted JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Push `items` between `open` and `close`, comma-separated, each
/// rendered by `item`.
pub(crate) fn push_joined<T>(
    out: &mut String,
    open: char,
    close: char,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    out.push(open);
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(close);
}

/// A parsed JSON value. Numbers are kept as `f64` — every number the
/// sinks emit (timestamps, counters, node ids) is well within the 2^53
/// exactly-representable range.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object. `BTreeMap` keeps key iteration deterministic.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as a `u64` (truncating), if this is a
    /// non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Look up a key, if this is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }
}

/// How deep arrays and objects may nest. A tracer line holds one object
/// inside another; a far deeper line is garbage, refused before its
/// recursion can exhaust the stack.
const MAX_DEPTH: usize = 64;

/// Parse one complete JSON document. Trailing non-whitespace input,
/// nesting past `MAX_DEPTH`, or any syntax error, yields `Err` with a
/// byte offset and message.
pub fn parse_json(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing input at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse the value at `pos`, inside `depth` arrays and objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nested deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
        Some(c) => Err(format!("unexpected byte {c:#04x} at {pos}", pos = *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .map(JsonValue::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        // Surrogate pairs are not produced by our own
                        // emitter (it only \u-escapes control bytes);
                        // map unpaired surrogates to the replacement
                        // character rather than erroring.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so the
                // bytes are valid UTF-8).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid utf-8")?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos, depth)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_strings_are_quoted() {
        assert_eq!(escape_json("abc"), "\"abc\"");
    }

    #[test]
    fn specials_are_escaped() {
        assert_eq!(escape_json("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(escape_json("x\ny\tz"), "\"x\\ny\\tz\"");
        assert_eq!(escape_json("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn unicode_passes_through() {
        assert_eq!(escape_json("π→∞"), "\"π→∞\"");
    }

    #[test]
    fn parser_reads_scalars() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse_json("42").unwrap(), JsonValue::Num(42.0));
        assert_eq!(parse_json("-3.5e2").unwrap(), JsonValue::Num(-350.0));
        assert_eq!(
            parse_json("\"hi\"").unwrap(),
            JsonValue::Str("hi".to_string())
        );
    }

    #[test]
    fn parser_reads_structures() {
        let v = parse_json(r#"{"type":"event","ts_us":12,"args":{"ok":true,"xs":[1,2]}}"#).unwrap();
        assert_eq!(v.get("type").and_then(JsonValue::as_str), Some("event"));
        assert_eq!(v.get("ts_us").and_then(JsonValue::as_u64), Some(12));
        let args = v.get("args").unwrap();
        assert_eq!(args.get("ok").and_then(JsonValue::as_bool), Some(true));
        let xs = JsonValue::Arr(vec![JsonValue::Num(1.0), JsonValue::Num(2.0)]);
        assert_eq!(args.get("xs"), Some(&xs));
        assert_eq!(parse_json("[]").unwrap(), JsonValue::Arr(vec![]));
        assert_eq!(parse_json("{}").unwrap(), JsonValue::Obj(BTreeMap::new()));
    }

    #[test]
    fn parser_round_trips_our_own_escaping() {
        for s in ["plain", "a\"b\\c", "x\ny\tz", "\u{1}", "π→∞"] {
            let parsed = parse_json(&escape_json(s)).unwrap();
            assert_eq!(parsed, JsonValue::Str(s.to_string()), "round trip {s:?}");
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "", "{", "[1,", "\"open", "tru", "1 2", "{\"a\":}", "{a:1}", "nan",
        ] {
            assert!(parse_json(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn nesting_is_refused_past_the_bound_not_by_the_stack() {
        let nest = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nest(MAX_DEPTH)).is_ok());
        let err = parse_json(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nested deeper than 64"), "{err}");
        // 30 000 unclosed objects: an error, not a stack overflow.
        let line = r#"{"a":"#.repeat(30_000);
        assert!(parse_json(&line).unwrap_err().contains("nested deeper"));
    }
}
