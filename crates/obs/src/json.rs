//! The workspace's one JSON writer.
//!
//! The workspace vendors no JSON library. Journals and manifests (here),
//! the bench reports (`droplet-bench::bench_json`) and the service's
//! response bodies (`droplet-serve`) all render through these functions:
//! hand-rendered objects with string-aware escaping. Parsing stays with
//! its two users, because they want different things: the bench crate
//! splits whole report files at nesting-aware top-level commas, while the
//! service parses flat experiment specs strictly and reports byte-offset
//! errors as HTTP 400 bodies.

/// Renders a JSON string literal, escaping `"`, `\` and every control
/// character (`\n`, `\t`, `\r` as short escapes, the rest as `\u00XX`).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a single-line object from key/value pairs whose values are
/// already JSON. Keys may be `&str` or `String`.
pub fn object<K: AsRef<str>>(pairs: &[(K, String)]) -> String {
    let body = pairs
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k.as_ref())))
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{{body}}}")
}

/// Renders an `f64` as a JSON number: finite values with six decimals,
/// non-finite values (which JSON cannot represent) as `0.0`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_and_quote_render() {
        let o = object(&[("a", "1".into()), ("b\"c", quote("v\n"))]);
        assert_eq!(o, r#"{"a": 1, "b\"c": "v\n"}"#);
        let owned = vec![("k".to_string(), quote("v")), ("n".to_string(), "3".into())];
        assert_eq!(object(&owned), r#"{"k": "v", "n": 3}"#);
        assert_eq!(object::<&str>(&[]), "{}");
    }

    #[test]
    fn quote_round_trips_specials() {
        assert_eq!(quote("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(quote("tab\there\rcr"), r#""tab\there\rcr""#);
        assert_eq!(quote("\u{1}\u{1f}"), r#""\u0001\u001f""#);
        assert_eq!(quote("ünï"), "\"ünï\"");
    }

    #[test]
    fn num_handles_non_finite() {
        assert_eq!(num(1.5), "1.500000");
        assert_eq!(num(f64::NAN), "0.0");
        assert_eq!(num(f64::INFINITY), "0.0");
    }
}
