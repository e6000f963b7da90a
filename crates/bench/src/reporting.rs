//! Plain-text / JSON reporting shared by the experiment binaries.
//!
//! JSON is emitted by a small hand-rolled writer (the build environment has
//! no crates.io access, so `serde_json` is unavailable); the format matches
//! what `serde_json` would produce for the same structures.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One row of an experiment's output: a label plus named numeric columns
/// (and optional named text columns, e.g. a chosen join order).
#[derive(Debug, Clone, Default)]
pub struct Row {
    /// Row label (e.g. the swept parameter value).
    pub label: String,
    /// Named numeric columns, in insertion order of the experiment.
    pub values: BTreeMap<String, f64>,
    /// Named text columns (serialized into the same JSON `values` object as
    /// strings; omitted from the plain-text table).
    pub texts: BTreeMap<String, String>,
}

impl Row {
    /// Creates a row with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        Row {
            label: label.into(),
            values: BTreeMap::new(),
            texts: BTreeMap::new(),
        }
    }

    /// Adds a named value (builder style).
    pub fn with(mut self, key: &str, value: f64) -> Self {
        self.values.insert(key.to_string(), value);
        self
    }

    /// Adds a named text column (builder style).
    pub fn with_text(mut self, key: &str, value: impl Into<String>) -> Self {
        self.texts.insert(key.to_string(), value.into());
        self
    }

    /// Serializes the row as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"label\":");
        json_escape_into(&mut out, &self.label);
        out.push_str(",\"values\":{");
        let mut first = true;
        for (k, v) in &self.values {
            if !first {
                out.push(',');
            }
            first = false;
            json_escape_into(&mut out, k);
            out.push(':');
            write_json_number(&mut out, *v);
        }
        for (k, v) in &self.texts {
            if !first {
                out.push(',');
            }
            first = false;
            json_escape_into(&mut out, k);
            out.push(':');
            json_escape_into(&mut out, v);
        }
        out.push_str("}}");
        out
    }
}

fn json_escape_into(out: &mut String, s: &str) {
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

fn write_json_number(out: &mut String, v: f64) {
    // JSON has no NaN/Infinity; fall back to null like serde_json does.
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Serializes rows as a pretty-printed JSON array (two-space indent).
pub fn rows_to_json_pretty(rows: &[Row]) -> String {
    if rows.is_empty() {
        return "[]".to_string();
    }
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&row.to_json());
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

/// Prints rows as an aligned plain-text table.
pub fn print_table(title: &str, rows: &[Row]) {
    println!("== {title} ==");
    if rows.is_empty() {
        println!("(no rows)");
        return;
    }
    let mut columns: Vec<String> = Vec::new();
    for row in rows {
        for key in row.values.keys() {
            if !columns.contains(key) {
                columns.push(key.clone());
            }
        }
    }
    print!("{:<16}", "case");
    for c in &columns {
        print!(" {c:>18}");
    }
    println!();
    for row in rows {
        print!("{:<16}", row.label);
        for c in &columns {
            match row.values.get(c) {
                Some(v) => print!(" {v:>18.3}"),
                None => print!(" {:>18}", "-"),
            }
        }
        println!();
    }
}

/// Standard CLI wrapper used by every experiment binary: `--json` emits the
/// rows as JSON, `--quick` is forwarded to the experiment to shrink the sweep.
pub fn run_cli(title: &str, run: impl Fn(bool) -> Vec<Row>) {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let quick = args.iter().any(|a| a == "--quick");
    let rows = run(quick);
    if json {
        println!("{}", rows_to_json_pretty(&rows));
    } else {
        print_table(title, &rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_builder_and_table_do_not_panic() {
        let rows = vec![
            Row::new("n=8").with("error", 1.5).with("bound", 3.0),
            Row::new("n=16").with("error", 2.5),
        ];
        print_table("smoke", &rows);
        print_table("empty", &[]);
        assert_eq!(rows[0].values.len(), 2);
    }

    #[test]
    fn rows_serialize_to_json() {
        let row = Row::new("x").with("v", 1.0);
        let s = row.to_json();
        assert!(s.contains("\"label\":\"x\""));
        assert!(s.contains("\"v\":1"));
        let pretty = rows_to_json_pretty(&[row]);
        assert!(pretty.starts_with("[\n"));
        assert!(pretty.ends_with(']'));
        assert_eq!(rows_to_json_pretty(&[]), "[]");
    }

    #[test]
    fn text_columns_serialize_as_json_strings() {
        let row = Row::new("planner")
            .with("speedup", 2.5)
            .with_text("order", "3>1>0>2");
        let s = row.to_json();
        assert!(s.contains("\"speedup\":2.5"));
        assert!(s.contains("\"order\":\"3>1>0>2\""));
        // Text-only rows still produce a well-formed values object.
        let only_text = Row::new("x").with_text("note", "n").to_json();
        assert!(only_text.contains("{\"note\":\"n\"}"));
    }

    #[test]
    fn json_escaping_handles_special_characters() {
        let row = Row::new("a\"b\\c\nd");
        let s = row.to_json();
        assert!(s.contains("a\\\"b\\\\c\\nd"));
        let mut bad = Row::new("inf");
        bad.values.insert("v".into(), f64::INFINITY);
        assert!(bad.to_json().contains("\"v\":null"));
    }
}
