//! A JSON value for the benchmark's output lines, rendered compactly.

use std::fmt::Write as _;

pub enum J {
    /// A measured number; `None` and non-finite values render `null`.
    Num(Option<f64>),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj<const N: usize>(fields: [(&str, J); N]) -> J {
        J::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    /// A metric as the result line carries it: `{"value", "unit"}`.
    pub fn metric(value: Option<f64>, unit: &str) -> J {
        J::obj([("value", J::Num(value)), ("unit", J::str(unit))])
    }

    pub fn line(&self) -> String {
        let mut out = String::new();
        self.render(&mut out);
        out
    }

    fn render(&self, out: &mut String) {
        match self {
            J::Num(Some(v)) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            J::Num(_) => out.push_str("null"),
            J::Int(v) => {
                let _ = write!(out, "{v}");
            }
            J::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            J::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if u32::from(c) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", u32::from(c));
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            J::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render(out);
                }
                out.push(']');
            }
            J::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    J::Str(k.clone()).render(out);
                    out.push(':');
                    v.render(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_json() {
        let v = J::obj([
            ("a", J::Num(Some(1.25))),
            ("b", J::Num(None)),
            ("c", J::Num(Some(f64::NAN))),
            ("d", J::Arr(vec![J::Int(3), J::Bool(true)])),
            ("e", J::str("q\"\\\n")),
        ]);
        assert_eq!(
            v.line(),
            r#"{"a":1.25,"b":null,"c":null,"d":[3,true],"e":"q\"\\\u000a"}"#
        );
    }
}
