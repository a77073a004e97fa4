//! Machine-readable experiment output.
//!
//! Every table/ablation binary accepts `--json PATH`: alongside the
//! human-readable markdown tables it then writes one JSON document with
//! the same rows plus run metadata (binary name, thread count and
//! execution policy, total wall-clock), so `BENCH_*.json` trajectories
//! can accumulate across commits without scraping stdout.
//!
//! The writer is a deliberately tiny hand-rolled serializer (the
//! workspace has no registry access for serde); the document shape is:
//!
//! ```json
//! {
//!   "bin": "table1_spanners",
//!   "threads": 4,
//!   "policy": "parallel(4)",
//!   "wall_clock_s": 12.34,
//!   "meta": { "n": 2000, "seed": 20150625 },
//!   "tables": { "unweighted_k2": [ {"k": "2", "size": "9,641", ...}, ... ] }
//! }
//! ```

use crate::table::Table;
use psh_exec::ExecutionPolicy;
use std::path::PathBuf;
use std::time::Instant;

/// A JSON value (the subset the reports need).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null` — written for non-finite floats, read back verbatim.
    Null,
    Bool(bool),
    U64(u64),
    F64(f64),
    Str(String),
    Array(Vec<JsonValue>),
    Object(Vec<(String, JsonValue)>),
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::U64(v)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::U64(v as u64)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::F64(v)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

/// True when the bare flag `name` appears in the process arguments
/// (`--quick`, `--fresh-snapshot`, …) — the boolean companion to
/// [`parse_flag`].
pub fn has_flag(name: &str) -> bool {
    std::env::args().skip(1).any(|a| a == name)
}

/// Read `--name VALUE` / `--name=VALUE` from the process arguments —
/// the one argv scanner shared by every experiment binary.
pub fn parse_flag(name: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
        if let Some(v) = a.strip_prefix(name).and_then(|r| r.strip_prefix('=')) {
            return Some(v.to_string());
        }
    }
    None
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl JsonValue {
    /// Serialize into `out` (compact, no trailing newline).
    pub fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::U64(v) => out.push_str(&v.to_string()),
            JsonValue::F64(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v}"));
                } else {
                    out.push_str("null"); // JSON has no Infinity/NaN
                }
            }
            JsonValue::Str(s) => escape_into(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Serialize to a `String`.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    /// Parse a JSON document — the reader half that lets `bench-compare`
    /// diff committed `BENCH_*.json` baselines against fresh runs.
    /// Accepts exactly what [`JsonValue::write`] emits plus ordinary
    /// whitespace, signed/exponent numbers, and `\uXXXX` escapes
    /// (surrogate pairs included). Errors carry a byte offset.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.at));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload (`U64` widens losslessly for the magnitudes
    /// reports hold), if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::U64(v) => Some(*v as f64),
            JsonValue::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Recursive-descent state for [`JsonValue::parse`].
struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.at) == Some(&b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(v)
        } else {
            Err(self.err("unrecognized literal"))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.bytes.get(self.at) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(JsonValue::Array(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(JsonValue::Array(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(JsonValue::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    self.skip_ws();
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(JsonValue::Object(fields));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.at;
        while matches!(
            self.bytes.get(self.at),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii digits");
        if !text.contains(['.', 'e', 'E', '-', '+']) {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::U64(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::F64)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.at) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.bytes.get(self.at) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.at += 1;
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // surrogate pair: expect \uXXXX for the low half
                                if self.bytes[self.at..].starts_with(b"\\u") {
                                    self.at += 2;
                                    let lo = self.hex4()?;
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?,
                            );
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    // consume one UTF-8 character (input is a &str, so
                    // slicing at char boundaries is safe)
                    let rest = std::str::from_utf8(&self.bytes[self.at..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.at + 4;
        let digits = self
            .bytes
            .get(self.at..end)
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let v = u32::from_str_radix(digits, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.at = end;
        Ok(v)
    }
}

/// One binary's JSON report: run metadata plus every table it printed.
///
/// Construct with [`Report::from_args`]; call [`Report::push_table`]
/// right after printing each table and [`Report::finish`] at the end of
/// `main`. When `--json` was not passed everything is a no-op, so the
/// instrumentation costs nothing in the default human-readable mode.
#[derive(Debug)]
pub struct Report {
    bin: String,
    path: Option<PathBuf>,
    meta: Vec<(String, JsonValue)>,
    tables: Vec<(String, JsonValue)>,
    started: Instant,
}

impl Report {
    /// Build a report for binary `bin`, reading `--json PATH` from the
    /// process arguments.
    pub fn from_args(bin: &str) -> Report {
        Report::new(bin, parse_flag("--json").map(PathBuf::from))
    }

    /// [`Report::from_args`] for an experiment binary whose only flag is
    /// `--json PATH`: any other argument exits 1 naming it (see
    /// [`crate::serving::check_args`]). Call it first in `main`.
    pub fn from_json_flag(bin: &str) -> Report {
        crate::serving::check_args(bin, &["--json"], &[]);
        Report::from_args(bin)
    }

    /// Build a report with an explicit output path (`None` disables it).
    pub fn new(bin: &str, path: Option<PathBuf>) -> Report {
        Report {
            bin: bin.to_string(),
            path,
            meta: Vec::new(),
            tables: Vec::new(),
            started: Instant::now(),
        }
    }

    /// True when `--json` was requested.
    pub fn enabled(&self) -> bool {
        self.path.is_some()
    }

    /// Attach a metadata field (workload sizes, parameters, seeds, …).
    pub fn meta(&mut self, key: &str, value: impl Into<JsonValue>) -> &mut Self {
        if self.enabled() {
            self.meta.push((key.to_string(), value.into()));
        }
        self
    }

    /// Record a printed table under `label`: one JSON object per row,
    /// keyed by the table's column headers.
    pub fn push_table(&mut self, label: &str, table: &Table) -> &mut Self {
        if self.enabled() {
            let rows: Vec<JsonValue> = table
                .rows()
                .iter()
                .map(|row| {
                    JsonValue::Object(
                        table
                            .header()
                            .iter()
                            .zip(row)
                            .map(|(h, c)| (h.clone(), JsonValue::Str(c.clone())))
                            .collect(),
                    )
                })
                .collect();
            self.tables
                .push((label.to_string(), JsonValue::Array(rows)));
        }
        self
    }

    /// The document this report currently describes. The top-level
    /// `threads`/`policy` fields record the *process-default*
    /// [`ExecutionPolicy`] (what `PSH_THREADS` selected) — a binary that
    /// sweeps explicit policies (e.g. `benchsuite`) reports the swept
    /// policies per table row and in its own `meta` instead.
    pub fn to_value(&self) -> JsonValue {
        let policy = ExecutionPolicy::from_env();
        JsonValue::Object(vec![
            ("bin".into(), JsonValue::Str(self.bin.clone())),
            ("threads".into(), JsonValue::U64(policy.threads() as u64)),
            ("policy".into(), JsonValue::Str(policy.to_string())),
            (
                "wall_clock_s".into(),
                JsonValue::F64(self.started.elapsed().as_secs_f64()),
            ),
            ("meta".into(), JsonValue::Object(self.meta.clone())),
            ("tables".into(), JsonValue::Object(self.tables.clone())),
        ])
    }

    /// Write the report if `--json` was requested; prints the path so the
    /// run's artifacts are discoverable from the transcript.
    pub fn finish(self) {
        let Some(path) = &self.path else { return };
        let mut doc = self.to_value().to_json();
        doc.push('\n');
        match std::fs::write(path, doc) {
            Ok(()) => println!("\njson report written to {}", path.display()),
            Err(e) => eprintln!("\nfailed to write json report {}: {e}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_serialize_compactly() {
        let v = JsonValue::Object(vec![
            ("a".into(), JsonValue::U64(3)),
            (
                "b".into(),
                JsonValue::Array(vec![true.into(), "x\"y".into()]),
            ),
            ("c".into(), JsonValue::F64(1.5)),
            ("inf".into(), JsonValue::F64(f64::INFINITY)),
        ]);
        assert_eq!(
            v.to_json(),
            r#"{"a":3,"b":[true,"x\"y"],"c":1.5,"inf":null}"#
        );
    }

    #[test]
    fn parser_round_trips_what_the_writer_emits() {
        let v = JsonValue::Object(vec![
            ("bin".into(), "bench suite".into()),
            ("threads".into(), JsonValue::U64(4)),
            ("wall".into(), JsonValue::F64(12.375)),
            ("neg".into(), JsonValue::F64(-0.5)),
            ("inf".into(), JsonValue::F64(f64::INFINITY)),
            ("ok".into(), JsonValue::Bool(true)),
            (
                "rows".into(),
                JsonValue::Array(vec![
                    JsonValue::Object(vec![("qps".into(), "1,234".into())]),
                    JsonValue::Array(vec![]),
                    JsonValue::Object(vec![]),
                ]),
            ),
            ("esc".into(), "quote\" slash\\ tab\t nl\n".into()),
        ]);
        let parsed = JsonValue::parse(&v.to_json()).unwrap();
        // the one lossy cell: Infinity serializes as null
        let mut expect = v;
        if let JsonValue::Object(fields) = &mut expect {
            fields[4].1 = JsonValue::Null;
        }
        assert_eq!(parsed, expect);
    }

    #[test]
    fn parser_handles_foreign_json() {
        let parsed = JsonValue::parse(
            " { \"a\" : [ 1 , -2.5e3 , null ] , \"u\" : \"\\u00e9\\ud83d\\ude00\" } ",
        )
        .unwrap();
        assert_eq!(
            parsed.get("a").unwrap().as_array().unwrap(),
            &[JsonValue::U64(1), JsonValue::F64(-2500.0), JsonValue::Null]
        );
        assert_eq!(parsed.get("u").unwrap().as_str(), Some("é😀"));
        assert_eq!(
            parsed.get("a").unwrap().as_array().unwrap()[0].as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "{\"a\":1} trailing",
            "1.2.3",
            "\"\\u12\"",
            "\"\\ud800x\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn report_captures_tables_and_meta() {
        let mut t = Table::new(["alg", "size"]);
        t.row(["ours", "123"]);
        let mut r = Report::new("unit_test", Some(PathBuf::from("/dev/null")));
        r.meta("n", 100usize);
        r.push_table("main", &t);
        let doc = r.to_value().to_json();
        assert!(doc.contains(r#""bin":"unit_test""#));
        assert!(doc.contains(r#""n":100"#));
        assert!(doc.contains(r#""main":[{"alg":"ours","size":"123"}]"#));
        assert!(doc.contains(r#""threads":"#));
        r.finish();
    }

    #[test]
    fn disabled_report_is_a_noop() {
        let mut r = Report::new("unit_test", None);
        assert!(!r.enabled());
        r.meta("n", 1usize);
        let mut t = Table::new(["a"]);
        t.row(["1"]);
        r.push_table("t", &t);
        let doc = r.to_value().to_json();
        assert!(doc.contains(r#""tables":{}"#));
        r.finish();
    }
}
