//! Just enough JSON output for the result line and the run record.

use std::fmt;

pub enum J {
    N(f64),
    I(u64),
    B(bool),
    S(String),
    A(Vec<J>),
    O(Vec<(String, J)>),
}

impl J {
    pub fn s(v: &str) -> J {
        J::S(v.to_string())
    }
}

fn string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for J {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Shortest text that reads back as the same f64: every digit
            // measured is kept. JSON has no infinity or NaN.
            J::N(v) if v.is_finite() => write!(f, "{v}"),
            J::N(_) => f.write_str("null"),
            J::I(v) => write!(f, "{v}"),
            J::B(v) => write!(f, "{v}"),
            J::S(s) => string(f, s),
            J::A(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            J::O(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    string(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values() {
        let j = J::O(vec![
            ("a".into(), J::N(1.25)),
            ("b".into(), J::A(vec![J::I(2), J::B(true), J::N(f64::NAN)])),
            ("c\"".into(), J::s("x\ny")),
        ]);
        assert_eq!(j.to_string(), r#"{"a": 1.25, "b": [2, true, null], "c\"": "x\u000ay"}"#);
    }
}
