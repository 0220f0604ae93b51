//! The reader for experiment-spec JSON bodies.
//!
//! Spec bodies are flat JSON objects whose values are scalars (strings,
//! numbers, booleans) or arrays of scalars — exactly the shape an
//! experiment spec needs — so the parser here handles that subset and
//! nothing more, keeping the workspace free of serialization dependencies.
//! JSON output is rendered by the workspace's one JSON writer,
//! `droplet::obs::json`.

/// A parsed spec value: one scalar, or an array of scalars.
///
/// Scalars are carried as their raw text (strings unescaped, numbers and
/// booleans verbatim) because every field parser in [`super`] validates
/// from `&str` anyway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecValue {
    /// A string, number, boolean, or null, as text.
    Scalar(String),
    /// An array of scalars, each as text.
    List(Vec<String>),
}

/// Parses a flat JSON object into `(key, value)` pairs in source order.
///
/// Returns a human-readable description of the first syntax error.
/// Nested objects are rejected — the spec format is flat by design.
pub fn parse_object(text: &str) -> Result<Vec<(String, SpecValue)>, String> {
    let mut p = Parser {
        chars: text.char_indices().peekable(),
        text,
    };
    p.skip_ws();
    p.expect('{')?;
    let mut pairs = Vec::new();
    p.skip_ws();
    if p.eat('}') {
        p.skip_ws();
        return p.at_end(pairs);
    }
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        p.expect(':')?;
        p.skip_ws();
        let value = p.value()?;
        pairs.push((key, value));
        p.skip_ws();
        if p.eat(',') {
            continue;
        }
        p.expect('}')?;
        p.skip_ws();
        return p.at_end(pairs);
    }
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    text: &'a str,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            self.chars.next();
        }
    }

    fn eat(&mut self, want: char) -> bool {
        if matches!(self.chars.peek(), Some((_, c)) if *c == want) {
            self.chars.next();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((i, c)) => Err(format!("expected '{want}' at byte {i}, found '{c}'")),
            None => Err(format!("expected '{want}', found end of input")),
        }
    }

    fn at_end<T>(&mut self, out: T) -> Result<T, String> {
        match self.chars.next() {
            None => Ok(out),
            Some((i, c)) => Err(format!("trailing content at byte {i}: '{c}'")),
        }
    }

    /// A quoted string, unescaping `\"`, `\\`, `\/`, `\n`, `\t`, `\r`.
    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                Some((_, '"')) => return Ok(out),
                Some((_, '\\')) => match self.chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((i, c)) => return Err(format!("bad escape '\\{c}' at byte {i}")),
                    None => return Err("unterminated escape".into()),
                },
                Some((_, c)) => out.push(c),
                None => return Err("unterminated string".into()),
            }
        }
    }

    /// A bare scalar token: number, boolean, or null, as raw text.
    fn bare(&mut self) -> Result<String, String> {
        let start = match self.chars.peek() {
            Some((i, _)) => *i,
            None => return Err("expected a value, found end of input".into()),
        };
        let mut end = start;
        while let Some((i, c)) = self.chars.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '+' | '.' | '_') {
                end = *i + c.len_utf8();
                self.chars.next();
            } else {
                break;
            }
        }
        if end == start {
            return Err(format!("expected a value at byte {start}"));
        }
        Ok(self.text[start..end].to_string())
    }

    fn scalar(&mut self) -> Result<String, String> {
        if matches!(self.chars.peek(), Some((_, '"'))) {
            self.string()
        } else {
            self.bare()
        }
    }

    fn value(&mut self) -> Result<SpecValue, String> {
        if self.eat('[') {
            let mut items = Vec::new();
            self.skip_ws();
            if self.eat(']') {
                return Ok(SpecValue::List(items));
            }
            loop {
                self.skip_ws();
                items.push(self.scalar()?);
                self.skip_ws();
                if self.eat(',') {
                    continue;
                }
                self.expect(']')?;
                return Ok(SpecValue::List(items));
            }
        }
        if matches!(self.chars.peek(), Some((_, '{'))) {
            return Err("nested objects are not valid in an experiment spec".into());
        }
        self.scalar().map(SpecValue::Scalar)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_spec_objects() {
        let pairs = parse_object(
            r#"{"algo": "pr", "budget": 30000, "stream": true,
                "prefetchers": ["none", "droplet"]}"#,
        )
        .unwrap();
        assert_eq!(pairs[0], ("algo".into(), SpecValue::Scalar("pr".into())));
        assert_eq!(
            pairs[1],
            ("budget".into(), SpecValue::Scalar("30000".into()))
        );
        assert_eq!(
            pairs[2],
            ("stream".into(), SpecValue::Scalar("true".into()))
        );
        assert_eq!(
            pairs[3],
            (
                "prefetchers".into(),
                SpecValue::List(vec!["none".into(), "droplet".into()])
            )
        );
    }

    #[test]
    fn parses_empty_object_and_escapes() {
        assert_eq!(parse_object("{}").unwrap(), vec![]);
        let pairs = parse_object(r#"{"a": "x\"y\\z"}"#).unwrap();
        assert_eq!(pairs[0].1, SpecValue::Scalar("x\"y\\z".into()));
    }

    #[test]
    fn rejects_malformed_bodies() {
        assert!(parse_object("").is_err());
        assert!(parse_object("[1,2]").is_err());
        assert!(parse_object(r#"{"a": 1"#).is_err());
        assert!(parse_object(r#"{"a": {"nested": 1}}"#).is_err());
        assert!(parse_object(r#"{"a": 1} trailing"#).is_err());
    }
}
