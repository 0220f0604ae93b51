//! Machine-readable benchmark reports (`BENCH_engine.json`).
//!
//! Several independent `harness = false` bench binaries contribute numbers
//! to one JSON file at the repository root, so the perf trajectory of the
//! simulation engine can be tracked across PRs without scraping stdout.
//! Each binary owns one *top-level section* (`"sim_replay"`, `"micro"`, …)
//! and replaces only its own section on write; sections written by other
//! binaries are preserved verbatim.
//!
//! The file format is plain JSON with one object per section, rendered by
//! the workspace's one JSON writer, `droplet::obs::json`. No JSON library
//! is vendored, so this module carries a minimal top-level splitter
//! (string- and nesting-aware) instead of a full parser.

use droplet::obs::json::quote;
use std::path::{Path, PathBuf};

/// Default report location: the workspace root, next to `EXPERIMENTS.md`.
/// Overridable via `DROPLET_BENCH_JSON` (useful under CI sandboxes).
pub fn default_report_path() -> PathBuf {
    if let Ok(p) = std::env::var("DROPLET_BENCH_JSON") {
        return PathBuf::from(p);
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json")
}

/// Replaces (or appends) the top-level `section` of the JSON report at
/// `path` with `value`, which must itself be a rendered JSON value.
/// Unparseable existing files are replaced wholesale rather than erroring:
/// a corrupt report should never fail a bench run.
pub fn write_section(path: &Path, section: &str, value: &str) -> std::io::Result<()> {
    let mut sections: Vec<(String, String)> = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| split_top_level(&s))
        .unwrap_or_default();
    match sections.iter_mut().find(|(k, _)| k == section) {
        Some((_, v)) => *v = value.to_string(),
        None => sections.push((section.to_string(), value.to_string())),
    }
    let body = sections
        .iter()
        .map(|(k, v)| format!("  {}: {v}", quote(k)))
        .collect::<Vec<_>>()
        .join(",\n");
    std::fs::write(path, format!("{{\n{body}\n}}\n"))
}

/// Splits `{"k1": v1, "k2": v2, ...}` into `[(k1, v1), ...]` where each `v`
/// is the raw JSON slice. Returns `None` on malformed input, including
/// stray closing brackets inside a value (`{"a": 1]}`). Public so
/// `droplet-bench-diff` can walk report files with the same parser that
/// writes them.
pub fn split_top_level(s: &str) -> Option<Vec<(String, String)>> {
    let s = s.trim();
    let inner = s.strip_prefix('{')?.strip_suffix('}')?;
    let mut out = Vec::new();
    let mut rest = inner.trim_start();
    while !rest.is_empty() {
        // Key.
        rest = rest.strip_prefix('"')?;
        let (key, after) = take_string_body(rest)?;
        rest = after.trim_start().strip_prefix(':')?.trim_start();
        // Value: scan to the next top-level ',' (or end of input).
        let mut depth = 0i32;
        let mut in_str = false;
        let mut escaped = false;
        let mut end = rest.len();
        for (i, c) in rest.char_indices() {
            if in_str {
                match c {
                    _ if escaped => escaped = false,
                    '\\' => escaped = true,
                    '"' => in_str = false,
                    _ => {}
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    // A stray closer (more `}`/`]` than openers) can never
                    // become well-formed again — reject immediately rather
                    // than letting the value round-trip corrupted.
                    if depth < 0 {
                        return None;
                    }
                }
                ',' if depth == 0 => {
                    end = i;
                    break;
                }
                _ => {}
            }
        }
        if depth > 0 || in_str {
            return None;
        }
        out.push((key, rest[..end].trim().to_string()));
        rest = rest[end..].strip_prefix(',').unwrap_or("").trim_start();
    }
    Some(out)
}

/// Consumes an already-opened JSON string, returning (unescaped body, rest
/// after the closing quote). Only `\"`, `\\` and `\n` are decoded; other
/// escapes pass through verbatim (report keys never contain them).
fn take_string_body(s: &str) -> Option<(String, &str)> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &s[i + 1..])),
            '\\' => match chars.next()?.1 {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                other => {
                    out.push('\\');
                    out.push(other);
                }
            },
            c => out.push(c),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use droplet::obs::json::object;

    #[test]
    fn split_round_trips_nested_values() {
        let src = r#"{"a": {"x": [1, 2, {"y": "s,t"}]}, "b": 3.5, "c": "q\"c"}"#;
        let parts = split_top_level(src).unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].0, "a");
        assert_eq!(parts[0].1, r#"{"x": [1, 2, {"y": "s,t"}]}"#);
        assert_eq!(parts[1], ("b".into(), "3.5".into()));
        assert_eq!(parts[2], ("c".into(), r#""q\"c""#.into()));
    }

    #[test]
    fn split_rejects_malformed() {
        assert!(split_top_level("not json").is_none());
        assert!(split_top_level(r#"{"a": {"#).is_none());
        assert!(split_top_level(r#"{"a": "unterminated}"#).is_none());
    }

    #[test]
    fn split_rejects_stray_closing_brackets() {
        // Negative depth used to be accepted: the stray `]` cancelled the
        // final `}` and the corrupted value round-tripped silently.
        assert!(split_top_level(r#"{"a": 1]}"#).is_none());
        assert!(split_top_level(r#"{"a": [1]], "b": 2}"#).is_none());
        assert!(split_top_level(r#"{"a": }}"#).is_none());
        // Brackets inside strings still don't count.
        assert!(split_top_level(r#"{"a": "]"}"#).is_some());
    }

    #[test]
    fn write_section_preserves_other_sections() {
        let dir = std::env::temp_dir().join(format!("droplet_bench_json_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let _ = std::fs::remove_file(&path);

        write_section(&path, "micro", r#"{"l2": 28.7}"#).unwrap();
        write_section(&path, "sim_replay", r#"{"baseline": 1.5}"#).unwrap();
        write_section(&path, "micro", r#"{"l2": 14.0}"#).unwrap();

        let parts = split_top_level(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], ("micro".into(), r#"{"l2": 14.0}"#.into()));
        assert_eq!(
            parts[1],
            ("sim_replay".into(), r#"{"baseline": 1.5}"#.into())
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn object_and_quote_render() {
        // Bench sections render through the shared writer; what it emits
        // must be what this module's splitter reads back.
        let o = object(&[
            ("a".to_string(), "1".into()),
            ("b\"c".to_string(), quote("v\n")),
        ]);
        assert_eq!(o, r#"{"a": 1, "b\"c": "v\n"}"#);
        let parts = split_top_level(&o).unwrap();
        assert_eq!(
            parts,
            vec![("a".into(), "1".into()), ("b\"c".into(), r#""v\n""#.into())]
        );
    }
}
