//! Minimal JSON for the wire types — the offline stand-in for
//! `serde_json` (the build environment still has no registry access;
//! `crates/compat/serde`'s derives are no-ops for the same reason).
//! Implements exactly what the HTTP front needs: a [`Json`] value
//! tree, a strict recursive-descent parser with depth and size limits,
//! and a writer whose `f64` formatting is shortest-round-trip — two
//! distinct finite bit patterns never serialize to the same string, so
//! comparing encoded plans compares the plans byte-for-byte.

use std::fmt;

/// Nesting depth past which [`Json::parse`] rejects the document
/// (stack-overflow guard for adversarial input).
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Objects keep their key order (`Vec`, not a
/// map), so encoding is deterministic — the property the wire-level
/// byte-identity gates rely on.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: what was expected, and the byte offset it failed
/// at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What the parser expected.
    pub expected: &'static str,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expected {} at byte {}", self.expected, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Convenience constructor for an object.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Parses `text` as one JSON document (trailing non-whitespace is
    /// an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("end of document"));
        }
        Ok(value)
    }

    /// Member lookup on an object (`None` on non-objects and missing
    /// keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one
    /// exactly (rejects fractions, negatives, and magnitudes of `2^53`
    /// and beyond — `2^53` itself is excluded because `2^53 + 1` on
    /// the wire rounds to it, so accepting it would silently corrupt
    /// unrepresentable input).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n < 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// [`Json::as_u64`], narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes into `out`. Non-finite numbers (which JSON cannot
    /// represent) serialize as `null`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_f64(*n, out),
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
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// `f64` → shortest round-trip decimal (Rust's `Display` guarantee);
/// non-finite → `null`.
fn write_f64(n: f64, out: &mut String) {
    if n.is_finite() {
        use fmt::Write;
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, expected: &'static str) -> JsonError {
        JsonError {
            expected,
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_literal(&mut self, literal: &'static str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(())
        } else {
            Err(self.err(literal))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("shallower nesting"));
        }
        match self.bytes.get(self.pos) {
            Some(b'n') => self.expect_literal("null").map(|()| Json::Null),
            Some(b't') => self.expect_literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.expect_literal("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("',' or ']'"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("':'"));
            }
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            if !self.eat(b',') {
                return Err(self.err("',' or '}'"));
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if !self.eat(b'"') {
            return Err(self.err("'\"'"));
        }
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("closing '\"'")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: require the low half.
                                self.expect_literal("\\u")?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("a low surrogate"));
                                }
                                let c = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(c).ok_or_else(|| self.err("a valid code point"))?
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| self.err("a valid code point"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("a valid escape")),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => return Err(self.err("no raw control characters")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so the
                    // encoding is already valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Reads exactly four hex digits, returning their value. Leaves
    /// `pos` after the digits.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("four hex digits"))?;
        let mut value = 0u32;
        for &d in digits {
            let v = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.err("a hex digit"))?;
            value = (value << 4) | v;
        }
        self.pos += 4;
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        // Integer part: "0" or [1-9][0-9]*.
        match self.bytes.get(self.pos) {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while let Some(b'0'..=b'9') = self.bytes.get(self.pos) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("a digit")),
        }
        if self.eat(b'.') {
            let mut any = false;
            while let Some(b'0'..=b'9') = self.bytes.get(self.pos) {
                self.pos += 1;
                any = true;
            }
            if !any {
                return Err(self.err("a fraction digit"));
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            let mut any = false;
            while let Some(b'0'..=b'9') = self.bytes.get(self.pos) {
                self.pos += 1;
                any = true;
            }
            if !any {
                return Err(self.err("an exponent digit"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
        // `f64` parsing overflows to ±∞ without error (`1e400`); JSON
        // has no infinities, so an overflowing literal is rejected too.
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => Err(JsonError {
                expected: "a representable number",
                offset: start,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(text: &str) -> String {
        Json::parse(text).expect(text).to_string()
    }

    #[test]
    fn scalars_round_trip() {
        assert_eq!(round_trip("null"), "null");
        assert_eq!(round_trip("true"), "true");
        assert_eq!(round_trip("false"), "false");
        assert_eq!(round_trip("0"), "0");
        assert_eq!(round_trip("-1.5"), "-1.5");
        assert_eq!(round_trip("1e3"), "1000");
        assert_eq!(round_trip("\"a\\n\\\"b\\\"\""), "\"a\\n\\\"b\\\"\"");
    }

    #[test]
    fn containers_keep_order() {
        assert_eq!(
            round_trip("{\"b\": 1, \"a\": [2, {\"c\": null}]}"),
            "{\"b\":1,\"a\":[2,{\"c\":null}]}"
        );
        assert_eq!(round_trip("[]"), "[]");
        assert_eq!(round_trip("{}"), "{}");
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for &x in &[0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e308, -0.0, 123.456e-7] {
            let mut out = String::new();
            write_f64(x, &mut out);
            let back: f64 = out.parse().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {out}");
        }
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            Json::parse("\"\\u00e9\\ud83d\\ude00\"").unwrap(),
            Json::Str("é😀".to_string())
        );
        assert!(Json::parse("\"\\ud83d\"").is_err(), "lone high surrogate");
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "01",
            "1.",
            "1e",
            "tru",
            "\"\u{01}\"",
            "nulll",
            "[1] 2",
            "1e400",
            "-1e400",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn depth_cap_rejects_adversarial_nesting() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(MAX_DEPTH / 2) + &"]".repeat(MAX_DEPTH / 2);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn accessors() {
        let v = Json::parse("{\"s\":\"x\",\"n\":3,\"b\":true,\"a\":[1],\"f\":1.5}").unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("n").and_then(Json::as_usize), Some(3));
        assert_eq!(v.get("f").and_then(Json::as_u64), None, "fractional");
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        // 2^53 is excluded: 2^53 + 1 rounds to it on the wire, so
        // accepting it would silently truncate unrepresentable input.
        assert_eq!(Json::Num(9_007_199_254_740_992.0).as_u64(), None);
        assert_eq!(
            Json::Num(9_007_199_254_740_991.0).as_u64(),
            Some(9_007_199_254_740_991)
        );
    }

    /// Equality with numbers compared bit for bit: `Json`'s own
    /// `PartialEq` compares `f64`s, under which `0.0 == -0.0`.
    fn same_bits(a: &Json, b: &Json) -> bool {
        match (a, b) {
            (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
            (Json::Arr(xs), Json::Arr(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_bits(x, y))
            }
            (Json::Obj(xs), Json::Obj(ys)) => {
                xs.len() == ys.len()
                    && xs
                        .iter()
                        .zip(ys)
                        .all(|((kx, x), (ky, y))| kx == ky && same_bits(x, y))
            }
            _ => a == b,
        }
    }

    /// Nesting the parser counts: a scalar or an empty container is 0,
    /// a container one more than its deepest member.
    fn depth(value: &Json) -> usize {
        match value {
            Json::Arr(items) => items.iter().map(|m| depth(m) + 1).max().unwrap_or(0),
            Json::Obj(fields) => fields.iter().map(|(_, m)| depth(m) + 1).max().unwrap_or(0),
            _ => 0,
        }
    }

    /// Finite extremes and awkward values for generated numbers.
    const FLOATS: &[f64] = &[
        0.0,
        -0.0,
        1.0,
        -1.5,
        0.1,
        1.0 / 3.0,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
        f64::EPSILON,
        9_007_199_254_740_993.0,
        1e300,
        -1e-300,
    ];

    /// Pieces of generated strings: every escape the writer emits,
    /// raw control characters, and multi-byte UTF-8.
    const STRINGS: &[&str] = &[
        "",
        "a",
        "key",
        "\"",
        "\\",
        "/",
        "\n\r\t",
        "\u{0}\u{1f}",
        "\u{7f}",
        "\u{8}\u{c}",
        "é→𝄞",
        "\u{2028}",
        "\\u0041",
    ];

    /// A value built from `ops`, one op per node. A container with
    /// members is allowed only while `room` (levels of nesting left
    /// under the parser's cap) is positive; op kind 7 nests single
    /// arrays down to the cap exactly.
    fn build(ops: &mut impl Iterator<Item = u64>, room: usize) -> Json {
        let op = ops.next().unwrap_or(0);
        let arg = op >> 3;
        match op % 8 {
            0 => Json::Null,
            1 => Json::Bool(arg % 2 == 1),
            2 => Json::Num(FLOATS[arg as usize % FLOATS.len()]),
            // Any bit pattern; non-finite ones lose their exponent and
            // become subnormals.
            3 => {
                let n = f64::from_bits(arg.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                Json::Num(if n.is_finite() {
                    n
                } else {
                    f64::from_bits(n.to_bits() & !(0x7ff << 52))
                })
            }
            4 => Json::Str(text(arg)),
            5 if room > 0 => Json::Arr((0..arg % 4).map(|_| build(ops, room - 1)).collect()),
            6 if room > 0 => Json::Obj(
                (0..arg % 4)
                    .map(|i| (text(arg >> (8 * i)), build(ops, room - 1)))
                    .collect(),
            ),
            7 => (0..room).fold(Json::Num(arg as f64), |inner, _| Json::Arr(vec![inner])),
            _ => Json::Arr(Vec::new()),
        }
    }

    /// A string of up to three [`STRINGS`] pieces and one arbitrary
    /// character, chosen by `bits`.
    fn text(bits: u64) -> String {
        let mut s: String = (0..bits % 4)
            .map(|i| STRINGS[(bits >> (4 * i + 2)) as usize % STRINGS.len()])
            .collect();
        s.extend(char::from_u32((bits >> 20) as u32 % 0x11_0000));
        s
    }

    /// Fragments the fuzz property strings together, so random input
    /// reaches into strings, escapes, numbers and nesting.
    const FUZZ_PIECES: &[&str] = &[
        "{", "}", "[", "]", "\"", "\\", "\\u", "d83d", "\\ude00", "00e9", ":", ",", "-", "0", "7",
        ".5", "e", "E+", "1e999", "true", "nul", " ", "\n", "é", "\u{1}",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary text, and every prefix of it, parses to a value or
        /// a typed error, never a panic; a value it parses to writes
        /// back to text that parses to the same value.
        #[test]
        fn arbitrary_text_never_panics_the_parser(
            raw in prop::collection::vec(0u8..=255, 0..96),
            pieces in prop::collection::vec(0usize..FUZZ_PIECES.len(), 0..48),
        ) {
            let mut input: String = pieces.iter().map(|&p| FUZZ_PIECES[p]).collect();
            input.push_str(&String::from_utf8_lossy(&raw));
            for (cut, _) in input.char_indices().chain([(input.len(), ' ')]) {
                if let Ok(value) = Json::parse(&input[..cut]) {
                    let back = Json::parse(&value.to_string())
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                    prop_assert!(same_bits(&value, &back), "{value} came back as {back}");
                }
            }
        }

        /// `parse(to_string(v)) == v` bit for bit on generated values
        /// (finite float extremes, every escape, nesting up to
        /// [`MAX_DEPTH`]), the text is a fixed point, and one more level
        /// of nesting is accepted exactly while it stays under the cap.
        #[test]
        fn generated_values_round_trip_bit_for_bit(
            ops in prop::collection::vec(0u64..u64::MAX, 1..64),
            room in 0usize..=MAX_DEPTH,
        ) {
            let value = build(&mut ops.into_iter(), room);
            let text = value.to_string();
            let back = Json::parse(&text).map_err(|e| TestCaseError::fail(format!("{e}: {text}")))?;
            prop_assert!(same_bits(&value, &back), "{text} came back as {back}");
            prop_assert_eq!(back.to_string(), text);
            let wrapped = Json::Arr(vec![value.clone()]).to_string();
            prop_assert_eq!(Json::parse(&wrapped).is_ok(), depth(&value) < MAX_DEPTH);
        }
    }
}
