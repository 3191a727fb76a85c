//! A minimal JSON reader for checking `graphlint --json` output.
//!
//! The workspace has no serde (external dependencies are vendored shims),
//! and the lint report schema is small and flat, so a recursive-descent
//! parser plus [`validate_lint_json`] is the whole story. The parser
//! accepts objects, arrays, strings, finite numbers, booleans and null —
//! no surrogate-pair decoding (`\uXXXX` is kept as the replacement
//! character for non-BMP halves; `nabbitc-lint` never writes any).

/// A JSON value. Object keys keep document order (a `Vec`, not a map).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a JSON document. Errors carry a byte offset and a short message.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so slicing
                    // at char boundaries is safe via the original text).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("bad number {text:?}")))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Validates one lint report document (`nabbitc_lint::LintReport::to_json`
/// output — also each element of `graphlint --json`'s array). Returns the
/// problems found; empty = valid.
///
/// Required shape:
/// * top-level `schema_version` and `workers` (numbers), `target` and
///   `coloring` (strings);
/// * a `counts` object with numeric `error`, `warn`, `info`;
/// * a `diagnostics` array (possibly empty) whose entries carry an
///   `NL`-prefixed `code` string, a `severity` in `error | warn | info`,
///   a `message` string, and numeric `nodes` / `colors` arrays;
/// * the `counts` tallies must equal the per-severity diagnostic counts
///   (a report whose summary disagrees with its findings is corrupt).
pub fn validate_lint_json(doc: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let need_num =
        |v: Option<&Json>, what: &str, problems: &mut Vec<String>| match v.and_then(Json::as_num) {
            Some(n) if n.is_finite() => Some(n),
            Some(_) => {
                problems.push(format!("{what} is not finite"));
                None
            }
            None => {
                problems.push(format!("{what} missing or not a number"));
                None
            }
        };

    need_num(doc.get("schema_version"), "schema_version", &mut problems);
    need_num(doc.get("workers"), "workers", &mut problems);
    for key in ["target", "coloring"] {
        if doc.get(key).and_then(Json::as_str).is_none() {
            problems.push(format!("{key} missing or not a string"));
        }
    }

    let mut declared = [None; 3]; // error, warn, info
    match doc.get("counts") {
        Some(counts) => {
            for (slot, sev) in ["error", "warn", "info"].into_iter().enumerate() {
                declared[slot] = need_num(counts.get(sev), &format!("counts.{sev}"), &mut problems);
            }
        }
        None => problems.push("counts missing".to_string()),
    }

    let diags = match doc.get("diagnostics").and_then(Json::as_arr) {
        Some(d) => d,
        None => {
            problems.push("diagnostics missing or not an array".to_string());
            return problems;
        }
    };
    let mut tallies = [0usize; 3];
    for (i, d) in diags.iter().enumerate() {
        let at = format!("diagnostics[{i}]");
        match d.get("code").and_then(Json::as_str) {
            Some(code) if code.starts_with("NL") => {}
            Some(code) => problems.push(format!("{at}.code {code:?} is not an NL code")),
            None => problems.push(format!("{at}.code missing or not a string")),
        }
        match d.get("severity").and_then(Json::as_str) {
            Some("error") => tallies[0] += 1,
            Some("warn") => tallies[1] += 1,
            Some("info") => tallies[2] += 1,
            Some(other) => problems.push(format!("{at}.severity {other:?} unknown")),
            None => problems.push(format!("{at}.severity missing or not a string")),
        }
        if d.get("message").and_then(Json::as_str).is_none() {
            problems.push(format!("{at}.message missing or not a string"));
        }
        for key in ["nodes", "colors"] {
            match d.get(key).and_then(Json::as_arr) {
                Some(items) => {
                    if items.iter().any(|v| v.as_num().is_none()) {
                        problems.push(format!("{at}.{key} has a non-numeric entry"));
                    }
                }
                None => problems.push(format!("{at}.{key} missing or not an array")),
            }
        }
    }
    for (slot, sev) in ["error", "warn", "info"].into_iter().enumerate() {
        if let Some(n) = declared[slot] {
            if n != tallies[slot] as f64 {
                problems.push(format!(
                    "counts.{sev} is {n} but diagnostics contain {}",
                    tallies[slot]
                ));
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_value_kind() {
        let doc = parse(
            r#"{"name": "heat \"2d\"\n", "n": 42, "half": 0.5, "neg": -3.25, "ok": true,
                "nothing": null, "list": [1, "two", []], "empty": {}}"#,
        )
        .expect("must parse");
        assert_eq!(
            doc.get("name").and_then(Json::as_str),
            Some("heat \"2d\"\n")
        );
        assert_eq!(doc.get("n").and_then(Json::as_num), Some(42.0));
        assert_eq!(doc.get("half").and_then(Json::as_num), Some(0.5));
        assert_eq!(doc.get("neg").and_then(Json::as_num), Some(-3.25));
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("nothing"), Some(&Json::Null));
        assert_eq!(
            doc.get("list").and_then(Json::as_arr),
            Some(&[Json::Num(1.0), Json::Str("two".into()), Json::Arr(vec![])][..])
        );
        assert_eq!(doc.get("empty"), Some(&Json::Obj(vec![])));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn parser_rejects_garbage_with_offsets() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1.2.3", "{} {}"] {
            let err = parse(bad).expect_err(bad);
            assert!(err.contains("json parse error at byte"), "{bad}: {err}");
        }
    }

    #[test]
    fn lint_validator_accepts_a_well_formed_report() {
        assert_eq!(validate_lint_json(&sample_lint_doc()), Vec::<String>::new());
    }

    #[test]
    fn lint_validator_names_missing_keys_and_bad_counts() {
        let empty = Json::Obj(vec![]);
        let problems = validate_lint_json(&empty);
        for needle in [
            "schema_version",
            "workers",
            "target",
            "coloring",
            "counts",
            "diagnostics",
        ] {
            assert!(problems.iter().any(|p| p.contains(needle)), "{problems:?}");
        }

        // A diagnostic with a non-NL code, an unknown severity, and a
        // declared count that disagrees with the tally all get named.
        let doc = parse(
            r#"{"schema_version": 1, "target": "sw", "coloring": "recursive-bisection",
                "workers": 20, "counts": {"error": 3, "warn": 0, "info": 0},
                "diagnostics": [{"code": "XX999", "severity": "fatal", "message": "m",
                                 "nodes": ["one"], "colors": []}]}"#,
        )
        .expect("sample parses");
        let problems = validate_lint_json(&doc);
        for needle in [
            "not an NL code",
            "severity \"fatal\" unknown",
            "non-numeric entry",
            "counts.error is 3",
        ] {
            assert!(problems.iter().any(|p| p.contains(needle)), "{problems:?}");
        }
    }

    fn sample_lint_doc() -> Json {
        parse(
            r#"{"schema_version": 1, "target": "sw", "coloring": "recursive-bisection",
                "workers": 20, "counts": {"error": 0, "warn": 1, "info": 0},
                "diagnostics": [{"code": "NL003", "severity": "warn",
                                 "message": "level 19 executes serially",
                                 "nodes": [19, 178], "colors": [19]}]}"#,
        )
        .expect("sample parses")
    }
}
