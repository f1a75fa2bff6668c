//! The one JSON writer behind every machine-readable artifact:
//! `OBS_campaign.json` ([`crate::render_json`]), `PUSH_campaign.json` and
//! `ABUSE_campaign.json`.
//!
//! Members come out in the order they are written, and the writer owns
//! the whole layout, so the three documents share it:
//!
//! * the document is an object with one member per line, each written
//!   `"key": value`; every nested member is written `"key":value`;
//! * nested objects and [`Object::array`]s stay on their parent's line;
//! * an [`Object::lines`] array puts each element on its own line, two
//!   spaces deeper than the line it opens on, and its closing `]` on a
//!   line of its own at that line's indent (empty, it is `[`, a line
//!   break and the indented `]`);
//! * every string, key or value, is escaped here and nowhere else.
//!
//! Numbers and booleans are written as the caller formats them.

use std::fmt::{self, Display, Write as _};

/// Renders one document: an object whose members `build` writes,
/// followed by a newline.
pub fn document(build: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::new();
    Object::nest(&mut out, ('{', '}'), 0, true, true, build);
    out.push('\n');
    out
}

/// One object being written, or the array an [`Array`] wraps.
pub struct Object<'a> {
    out: &'a mut String,
    /// No item written yet.
    empty: bool,
    /// Indent of the line the container opens on.
    indent: usize,
    /// Each item on its own line.
    lines: bool,
    /// The document itself, whose members are written `"key": value`.
    top: bool,
}

impl Object<'_> {
    /// Writes `brackets` around the items `build` writes.
    fn nest(
        out: &mut String,
        (open, close): (char, char),
        indent: usize,
        lines: bool,
        top: bool,
        build: impl FnOnce(&mut Object<'_>),
    ) {
        out.push(open);
        let mut nested = Object {
            out,
            empty: true,
            indent,
            lines,
            top,
        };
        build(&mut nested);
        if lines {
            nested.out.push('\n');
            pad(nested.out, indent);
        }
        nested.out.push(close);
    }

    /// Starts the next item, the member `key` if given; returns the
    /// indent of its line.
    fn item(&mut self, key: Option<&str>) -> usize {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        let mut indent = self.indent;
        if self.lines {
            indent += 2;
            self.out.push('\n');
            pad(self.out, indent);
        }
        if let Some(key) = key {
            string(self.out, key);
            self.out.push_str(if self.top { ": " } else { ":" });
        }
        indent
    }

    /// Writes `key` with `value` as an escaped string.
    pub fn str(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.item(Some(key));
        string(self.out, value);
        self
    }

    /// Writes `key` with `value` verbatim: a number or boolean.
    pub fn num(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.item(Some(key));
        let _ = write!(self.out, "{value}");
        self
    }

    /// Writes `key` with an object whose members `build` writes.
    pub fn object(&mut self, key: &str, build: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        let indent = self.item(Some(key));
        Object::nest(self.out, ('{', '}'), indent, false, false, build);
        self
    }

    /// Writes `key` with an array on this line.
    pub fn array(&mut self, key: &str, build: impl FnOnce(&mut Array<'_, '_>)) -> &mut Self {
        let indent = self.item(Some(key));
        Object::nest(self.out, ('[', ']'), indent, false, false, |a| {
            build(&mut Array(a));
        });
        self
    }

    /// Writes `key` with an array of one element per line.
    pub fn lines(&mut self, key: &str, build: impl FnOnce(&mut Array<'_, '_>)) -> &mut Self {
        let indent = self.item(Some(key));
        Object::nest(self.out, ('[', ']'), indent, true, false, |a| {
            build(&mut Array(a));
        });
        self
    }
}

/// One array being written; its elements are objects.
pub struct Array<'a, 'b>(&'b mut Object<'a>);

impl Array<'_, '_> {
    /// Appends an object whose members `build` writes.
    pub fn object(&mut self, build: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        let indent = self.0.item(None);
        Object::nest(self.0.out, ('{', '}'), indent, false, false, build);
        self
    }
}

fn pad(out: &mut String, indent: usize) {
    out.extend(std::iter::repeat_n(' ', indent));
}

/// Writes `value` as a quoted, escaped JSON string.
fn string(out: &mut String, value: impl Display) {
    out.push('"');
    let _ = write!(Escaped(out), "{value}");
    out.push('"');
}

/// Escapes what passes through it (RFC 8259 §7).
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for c in s.chars() {
            match c {
                '"' => self.0.push_str("\\\""),
                '\\' => self.0.push_str("\\\\"),
                '\n' => self.0.push_str("\\n"),
                '\t' => self.0.push_str("\\t"),
                '\r' => self.0.push_str("\\r"),
                c if u32::from(c) < 0x20 => write!(self.0, "\\u{:04x}", u32::from(c))?,
                c => self.0.push(c),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_level_members_are_spaced_and_nested_ones_are_not() {
        let doc = document(|d| {
            d.str("schema", "s-v1").num("n", 3).object("o", |o| {
                o.num("a", 1).num("b", format_args!("{:.3}", 0.5));
            });
        });
        assert_eq!(
            doc,
            "{\n  \"schema\": \"s-v1\",\n  \"n\": 3,\n  \"o\": {\"a\":1,\"b\":0.500}\n}\n"
        );
    }

    #[test]
    fn line_arrays_indent_from_the_line_they_open_on() {
        let doc = document(|d| {
            d.lines("empty", |_| {}).lines("rows", |a| {
                a.object(|o| {
                    o.str("k", "x").lines("inner", |a| {
                        a.object(|o| {
                            o.num("v", 1);
                        })
                        .object(|o| {
                            o.num("v", 2);
                        });
                    });
                });
                a.object(|o| {
                    o.array("flat", |a| {
                        a.object(|_| {}).object(|_| {});
                    });
                });
            });
        });
        assert_eq!(
            doc,
            "{\n  \"empty\": [\n  ],\n  \"rows\": [\n    {\"k\":\"x\",\"inner\":[\n      \
             {\"v\":1},\n      {\"v\":2}\n    ]},\n    {\"flat\":[{},{}]}\n  ]\n}\n"
        );
    }

    #[test]
    fn strings_and_keys_are_escaped() {
        let doc = document(|d| {
            d.str("q\"k", "a\\b\n\t\r\u{1}é");
        });
        assert_eq!(doc, "{\n  \"q\\\"k\": \"a\\\\b\\n\\t\\r\\u0001é\"\n}\n");
    }
}
