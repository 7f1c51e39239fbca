//! Offline stand-in for the subset of `serde_json` 1.x that coded-curtain
//! uses: `to_string`, `from_str` and `Error`, over the stand-in `serde`'s
//! [`Value`] tree. Output is compact JSON, as upstream.

use serde::{Deserialize, Serialize, Value};

pub use serde::Error;

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), &mut out)?;
    Ok(out)
}

pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser { s: s.as_bytes(), i: 0, depth: 0 };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing characters"));
    }
    T::from_value(&v)
}

fn render(v: &Value, out: &mut String) -> Result<(), Error> {
    use std::fmt::Write as _;
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => write!(out, "{n}").expect("write to String"),
        Value::I64(n) => write!(out, "{n}").expect("write to String"),
        Value::F64(x) if x.is_finite() => {
            let start = out.len();
            write!(out, "{x}").expect("write to String");
            if !out[start..].contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        Value::F64(_) => out.push_str("null"),
        Value::Str(s) => render_str(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, out)?;
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_str(k, out);
                out.push(':');
                render(item, out)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

fn render_str(s: &str, out: &mut String) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting beyond this is refused rather than recursed into.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> Error {
        Error(format!("{what} at byte {}", self.i))
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && matches!(self.s[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.ws();
        match self.s.get(self.i) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(|p| {
                let mut items = Vec::new();
                p.ws();
                if p.eat("]") {
                    return Ok(Value::Seq(items));
                }
                loop {
                    items.push(p.value()?);
                    p.ws();
                    if p.eat("]") {
                        return Ok(Value::Seq(items));
                    }
                    if !p.eat(",") {
                        return Err(p.err("expected `,` or `]`"));
                    }
                }
            }),
            Some(b'{') => self.nested(|p| {
                let mut entries = Vec::new();
                p.ws();
                if p.eat("}") {
                    return Ok(Value::Map(entries));
                }
                loop {
                    p.ws();
                    let k = p.string()?;
                    p.ws();
                    if !p.eat(":") {
                        return Err(p.err("expected `:`"));
                    }
                    entries.push((k, p.value()?));
                    p.ws();
                    if p.eat("}") {
                        return Ok(Value::Map(entries));
                    }
                    if !p.eat(",") {
                        return Err(p.err("expected `,` or `}`"));
                    }
                }
            }),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn nested(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<Value, Error>,
    ) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        self.i += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.i;
        while self.i < self.s.len()
            && matches!(self.s[self.i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII digits");
        if let Ok(n) = text.parse::<u64>() {
            Ok(Value::U64(n))
        } else if let Ok(n) = text.parse::<i64>() {
            Ok(Value::I64(n))
        } else {
            text.parse::<f64>().map(Value::F64).map_err(|_| self.err("malformed number"))
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(self.err("expected string"));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.s.get(self.i) else {
                return Err(self.err("unterminated string"));
            };
            self.i += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.s.get(self.i) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.i += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.i += 4;
                            out.extend_from_slice(code.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                b => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|_| self.err("invalid UTF-8 in string"))
    }
}
