//! Plain-text table rendering and JSON result persistence.

use crate::experiments::ExperimentResult;
use rkvc_tensor::json::{JsonValue, ToJson};
use std::fmt::Write as _;
use std::path::Path;

/// A renderable results table (one paper table, or one figure's series).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Convenience: appends a row of displayable cells.
    pub fn row(&mut self, cells: &[&dyn std::fmt::Display]) {
        self.push_row(cells.iter().map(|c| c.to_string()).collect());
    }
}

/// `strings` as a JSON array of strings.
pub(crate) fn str_array(strings: &[String]) -> JsonValue {
    JsonValue::Array(strings.iter().cloned().map(JsonValue::Str).collect())
}

impl ToJson for Table {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("title", JsonValue::Str(self.title.clone())),
            ("headers", str_array(&self.headers)),
            (
                "rows",
                JsonValue::Array(self.rows.iter().map(|r| str_array(r)).collect()),
            ),
        ])
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "## {}", self.title)?;
        let mut line = String::new();
        for (h, w) in self.headers.iter().zip(&widths) {
            let _ = write!(line, "| {h:w$} ");
        }
        writeln!(f, "{line}|")?;
        let mut sep = String::new();
        for w in &widths {
            let _ = write!(sep, "|{}", "-".repeat(w + 2));
        }
        writeln!(f, "{sep}|")?;
        for row in &self.rows {
            let mut line = String::new();
            for (cell, w) in row.iter().zip(&widths) {
                let _ = write!(line, "| {cell:w$} ");
            }
            writeln!(f, "{line}|")?;
        }
        Ok(())
    }
}

/// Formats a ratio as the paper does (`1.34x`).
pub(crate) fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}x")
}

/// Formats a fraction as a percentage (`21.3%`).
pub(crate) fn fmt_pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

/// Writes `bytes` to `path` unless the file already holds exactly those
/// bytes; returns whether it wrote. A missing, different or unreadable
/// file is written as [`std::fs::write`] does.
///
/// Replacing a file's contents on ext4 costs tens of milliseconds, by
/// truncate or by temp file + rename alike; reading and comparing costs
/// microseconds, and a deterministic run's outputs are almost always
/// unchanged (DESIGN.md, "Output writer").
///
/// # Errors
///
/// Returns the write's I/O error.
pub fn write_if_changed(path: impl AsRef<Path>, bytes: impl AsRef<[u8]>) -> std::io::Result<bool> {
    let (path, bytes) = (path.as_ref(), bytes.as_ref());
    if std::fs::read(path).is_ok_and(|old| old == bytes) {
        return Ok(false);
    }
    std::fs::write(path, bytes)?;
    Ok(true)
}

/// Serializes a result to pretty JSON under `results/<name>.json`,
/// creating the directory if needed. An unchanged file is left untouched
/// (see [`write_if_changed`]).
///
/// # Errors
///
/// Returns any I/O error.
pub fn save_json(
    dir: impl AsRef<Path>,
    name: &str,
    result: &ExperimentResult,
) -> std::io::Result<()> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let json = rkvc_tensor::json::to_string_pretty(result);
    write_if_changed(dir.join(format!("{name}.json")), json).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["algo", "speedup"]);
        t.push_row(vec!["fp16".into(), "1.00x".into()]);
        t.push_row(vec!["streaming-llm".into(), "1.34x".into()]);
        let s = t.to_string();
        assert!(s.contains("## Demo"));
        assert!(s.contains("| streaming-llm | 1.34x"));
        // Both data lines end with the same column edge.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ratio(1.344), "1.34x");
        assert_eq!(fmt_pct(0.213), "21.3%");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("X", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    /// A fresh directory per test (tests run on parallel threads).
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rkvc-report-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn identical_bytes_leave_the_file_untouched() {
        let dir = scratch_dir("same");
        let path = dir.join("out.json");
        assert!(write_if_changed(&path, b"[1]").unwrap(), "missing file");
        let mtime = |p: &Path| std::fs::metadata(p).unwrap().modified().unwrap();
        let past = mtime(&path) - Duration::from_secs(86_400);
        std::fs::File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_modified(past)
            .unwrap();
        assert!(!write_if_changed(&path, b"[1]").unwrap());
        assert_eq!(mtime(&path), past);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn changed_bytes_land_exactly() {
        let dir = scratch_dir("changed");
        let path = dir.join("out.json");
        std::fs::write(&path, b"0123456789").unwrap();
        for next in [&b"0123456789abcdef"[..], b"xyz", b"xyz\n", b""] {
            assert!(write_if_changed(&path, next).unwrap());
            assert_eq!(std::fs::read(&path).unwrap(), next);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_directory_path_is_an_error() {
        let dir = scratch_dir("dir");
        assert!(write_if_changed(&dir, b"bytes").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn saves_json() {
        let dir = std::env::temp_dir().join("rkvc_report_test");
        let mut table = Table::new("T", &["a", "b"]);
        table.push_row(vec!["1".into(), "x\"y".into()]);
        let result = ExperimentResult {
            id: "demo".into(),
            title: "Demo".into(),
            tables: vec![table],
            notes: vec!["n".into()],
        };
        save_json(&dir, "demo", &result).unwrap();
        let body = std::fs::read_to_string(dir.join("demo.json")).unwrap();
        let expected = r#"{
  "id": "demo",
  "title": "Demo",
  "tables": [
    {
      "title": "T",
      "headers": [
        "a",
        "b"
      ],
      "rows": [
        [
          "1",
          "x\"y"
        ]
      ]
    }
  ],
  "notes": [
    "n"
  ]
}"#;
        assert_eq!(body, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
