//! A minimal deterministic JSON writer.
//!
//! Observability output must be byte-identical across runs and thread
//! counts, so serialization is explicit: fields appear exactly in the
//! order they are pushed, floats use Rust's shortest-roundtrip
//! formatting, and there is no map iteration anywhere. (No `serde` in
//! the offline container — and none needed for write-only JSON.)
//!
//! This module started life inside `tpi-serve` (whose cached payloads
//! have the same byte-identity contract) and moved here so every crate
//! that renders metrics shares one writer.

use std::fmt::Write as _;

/// Builder for one JSON object; nests via [`JsonObject::field_object`].
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
    empty: bool,
}

impl JsonObject {
    /// Starts an object (`{`).
    pub fn new() -> Self {
        JsonObject { buf: String::from("{"), empty: true }
    }

    fn key(&mut self, key: &str) {
        if !self.empty {
            self.buf.push(',');
        }
        self.empty = false;
        self.buf.push('"');
        escape_into(key, &mut self.buf);
        self.buf.push_str("\":");
    }

    /// Adds a string field (escaped).
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.buf.push('"');
        escape_into(value, &mut self.buf);
        self.buf.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a float field; non-finite values become `null` (JSON has no
    /// NaN/Inf).
    pub fn field_f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.buf, "{value}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a boolean field.
    pub fn field_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a finished object as a nested field.
    pub fn field_object(&mut self, key: &str, value: JsonObject) -> &mut Self {
        self.key(key);
        self.buf.push_str(&value.finish());
        self
    }

    /// Adds a finished array as a nested field.
    pub fn field_array(&mut self, key: &str, value: JsonArray) -> &mut Self {
        self.key(key);
        self.buf.push_str(&value.finish());
        self
    }

    /// Adds already-rendered JSON verbatim as a nested field. The
    /// caller vouches that `json` is one complete JSON value; this is
    /// how a snapshot rendered elsewhere (for example the service
    /// metrics inside the netd metrics) is embedded without a parse →
    /// re-serialize round trip that could disturb byte stability.
    pub fn field_raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// Closes the object and returns its text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        JsonObject::new()
    }
}

/// Builder for one JSON array; elements appear in push order.
#[derive(Debug)]
pub struct JsonArray {
    buf: String,
    empty: bool,
}

impl JsonArray {
    /// Starts an array (`[`).
    pub fn new() -> Self {
        JsonArray { buf: String::from("["), empty: true }
    }

    fn sep(&mut self) {
        if !self.empty {
            self.buf.push(',');
        }
        self.empty = false;
    }

    /// Appends a finished object.
    pub fn push_object(&mut self, value: JsonObject) -> &mut Self {
        self.sep();
        self.buf.push_str(&value.finish());
        self
    }

    /// Appends a string (escaped).
    pub fn push_str(&mut self, value: &str) -> &mut Self {
        self.sep();
        self.buf.push('"');
        escape_into(value, &mut self.buf);
        self.buf.push('"');
        self
    }

    /// Appends an unsigned integer.
    pub fn push_u64(&mut self, value: u64) -> &mut Self {
        self.sep();
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Closes the array and returns its text.
    pub fn finish(mut self) -> String {
        self.buf.push(']');
        self.buf
    }
}

impl Default for JsonArray {
    fn default() -> Self {
        JsonArray::new()
    }
}

/// Escapes `s` per RFC 8259 into `out`.
fn escape_into(s: &str, out: &mut String) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_in_push_order() {
        let mut o = JsonObject::new();
        o.field_str("b", "x").field_u64("a", 7).field_bool("c", true);
        assert_eq!(o.finish(), r#"{"b":"x","a":7,"c":true}"#);
    }

    #[test]
    fn nested_and_escaped() {
        let mut inner = JsonObject::new();
        inner.field_f64("v", 1.5);
        let mut o = JsonObject::new();
        o.field_str("q", "say \"hi\"\n").field_object("in", inner);
        assert_eq!(o.finish(), r#"{"q":"say \"hi\"\n","in":{"v":1.5}}"#);
    }

    #[test]
    fn non_finite_floats_are_null() {
        let mut o = JsonObject::new();
        o.field_f64("x", f64::NAN).field_f64("y", f64::INFINITY);
        assert_eq!(o.finish(), r#"{"x":null,"y":null}"#);
    }

    #[test]
    fn empty_object() {
        assert_eq!(JsonObject::new().finish(), "{}");
    }

    #[test]
    fn arrays_nest_in_objects() {
        let mut a = JsonArray::new();
        let mut el = JsonObject::new();
        el.field_str("n", "x");
        a.push_object(el).push_u64(3).push_str("s");
        let mut o = JsonObject::new();
        o.field_array("items", a);
        assert_eq!(o.finish(), r#"{"items":[{"n":"x"},3,"s"]}"#);
    }

    #[test]
    fn empty_array() {
        assert_eq!(JsonArray::new().finish(), "[]");
    }
}
