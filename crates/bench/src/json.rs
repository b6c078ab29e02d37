//! Minimal JSON writer for machine-readable experiment output.
//!
//! The figure binaries print aligned text for humans; downstream
//! plotting wants JSON. This is a tiny value tree covering exactly the
//! shapes the harness produces: objects, arrays, strings, numbers,
//! booleans. Strings and numbers go through the same escaper as the
//! metrics exporters, [`blameit_obs::json`].

use blameit_obs::json::{push_json_f64, push_json_str};

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Finite number (non-finite values serialize as `null`).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object builder.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds a field to an object (panics on non-objects).
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("field() on a non-object"),
        }
        self
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => push_json_f64(out, *x),
            Json::Str(s) => push_json_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}
impl From<bool> for Json {
    fn from(x: bool) -> Json {
        Json::Bool(x)
    }
}
impl From<&str> for Json {
    fn from(x: &str) -> Json {
        Json::Str(x.to_string())
    }
}
impl From<String> for Json {
    fn from(x: String) -> Json {
        Json::Str(x)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(xs: Vec<T>) -> Json {
        Json::Arr(xs.into_iter().map(Into::into).collect())
    }
}

/// A CDF as a JSON array of `[x, F(x)]` pairs.
pub fn cdf_json(points: &[(f64, f64)]) -> Json {
    Json::Arr(
        points
            .iter()
            .map(|(x, f)| Json::Arr(vec![Json::Num(*x), Json::Num(*f)]))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(3.25).to_string(), "3.25");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Str("a\"b\n".into()).to_string(), r#""a\"b\n""#);
    }

    #[test]
    fn structures() {
        let j = Json::obj()
            .field("experiment", "fig4a")
            .field("seed", 2019u64)
            .field("holds", true)
            .field("series", vec![1.0, 0.5]);
        assert_eq!(
            j.to_string(),
            r#"{"experiment":"fig4a","seed":2019,"holds":true,"series":[1,0.5]}"#
        );
    }

    #[test]
    fn cdf_pairs() {
        let j = cdf_json(&[(1.0, 0.25), (2.0, 1.0)]);
        assert_eq!(j.to_string(), "[[1,0.25],[2,1]]");
    }

    #[test]
    fn pinned_object_bytes() {
        let j = Json::obj()
            .field("ctl\u{1f}\"k", "tab\there")
            .field("nan", f64::NAN)
            .field("whole", 1e14)
            .field("big", 1e15)
            .field("frac", -0.5);
        assert_eq!(
            j.to_string(),
            r#"{"ctl\u001f\"k":"tab\there","nan":null,"whole":100000000000000,"big":1000000000000000,"frac":-0.5}"#
        );
    }

    #[test]
    fn control_chars_escaped() {
        let j = Json::Str("\u{1}".into());
        assert_eq!(j.to_string(), "\"\\u0001\"");
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn field_on_array_panics() {
        let _ = Json::Arr(vec![]).field("x", 1u64);
    }
}
