//! Offline stand-in for `serde_derive`, written against `proc_macro` alone
//! (no syn/quote in the sandbox). Supports what coded-curtain derives on:
//! structs with named fields (honouring `#[serde(default)]`), newtype
//! structs, and enums whose variants are unit or newtype. Anything else is a
//! compile error rather than a silent mis-serialisation.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Shape {
    /// `(field name, has #[serde(default)])`
    Named(Vec<(String, bool)>),
    Newtype,
    /// `(variant name, carries one value)`
    Enum(Vec<(String, bool)>),
}

struct Input {
    name: String,
    shape: Shape,
}

fn is_punct(t: &TokenTree, c: char) -> bool {
    matches!(t, TokenTree::Punct(p) if p.as_char() == c)
}

/// Splits a field/variant list at top-level commas (`<..>` is not a token
/// group, so angle depth is tracked by hand).
fn split_commas(tokens: Vec<TokenTree>) -> Vec<Vec<TokenTree>> {
    let mut out = vec![Vec::new()];
    let mut depth = 0i32;
    for t in tokens {
        if is_punct(&t, '<') {
            depth += 1;
        } else if is_punct(&t, '>') {
            depth -= 1;
        } else if is_punct(&t, ',') && depth == 0 {
            out.push(Vec::new());
            continue;
        }
        out.last_mut().expect("starts non-empty").push(t);
    }
    out.retain(|item| !item.is_empty());
    out
}

/// Strips leading `#[..]` attributes and a `pub`/`pub(..)` visibility,
/// returning the rest and whether `#[serde(default)]` was among them.
fn strip_attrs_and_vis(item: &[TokenTree]) -> (&[TokenTree], bool) {
    let mut i = 0;
    let mut default = false;
    while i + 1 < item.len() && is_punct(&item[i], '#') {
        if let TokenTree::Group(g) = &item[i + 1] {
            let text = g.stream().to_string().replace(' ', "");
            if text.starts_with("serde(") {
                assert!(text == "serde(default)", "unsupported serde attribute: {text}");
                default = true;
            }
        }
        i += 2;
    }
    if matches!(&item[i], TokenTree::Ident(id) if id.to_string() == "pub") {
        i += 1;
        if matches!(&item[i], TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis) {
            i += 1;
        }
    }
    (&item[i..], default)
}

fn parse(input: TokenStream) -> Input {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let (rest, _) = strip_attrs_and_vis(&tokens);
    let kind = rest[0].to_string();
    let name = rest[1].to_string();
    assert!(!is_punct(&rest[2], '<'), "derive stand-in does not support generics on {name}");
    let TokenTree::Group(body) = &rest[2] else {
        panic!("derive stand-in: {name} has no body");
    };
    let items = split_commas(body.stream().into_iter().collect());
    let shape = match (kind.as_str(), body.delimiter()) {
        ("struct", Delimiter::Brace) => Shape::Named(
            items
                .iter()
                .map(|item| {
                    let (field, default) = strip_attrs_and_vis(item);
                    (field[0].to_string(), default)
                })
                .collect(),
        ),
        ("struct", Delimiter::Parenthesis) => {
            assert!(items.len() == 1, "derive stand-in: tuple struct {name} must be a newtype");
            Shape::Newtype
        }
        ("enum", Delimiter::Brace) => Shape::Enum(
            items
                .iter()
                .map(|item| {
                    let (variant, _) = strip_attrs_and_vis(item);
                    let carries = match variant.get(1) {
                        None => false,
                        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                            let inner = split_commas(g.stream().into_iter().collect());
                            assert!(
                                inner.len() == 1,
                                "derive stand-in: variant must be unit or newtype"
                            );
                            true
                        }
                        Some(other) => {
                            panic!("derive stand-in: unsupported variant syntax at {other}")
                        }
                    };
                    (variant[0].to_string(), carries)
                })
                .collect(),
        ),
        _ => panic!("derive stand-in: unsupported item {kind} {name}"),
    };
    Input { name, shape }
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let Input { name, shape } = parse(input);
    let body = match shape {
        Shape::Named(fields) => {
            let entries: String = fields
                .iter()
                .map(|(f, _)| {
                    format!("(\"{f}\".to_string(), ::serde::Serialize::to_value(&self.{f})),")
                })
                .collect();
            format!("::serde::Value::Map(vec![{entries}])")
        }
        Shape::Newtype => "::serde::Serialize::to_value(&self.0)".to_string(),
        Shape::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|(v, carries)| {
                    if *carries {
                        format!(
                            "{name}::{v}(inner) => ::serde::Value::Map(vec![(\"{v}\".to_string(), ::serde::Serialize::to_value(inner))]),"
                        )
                    } else {
                        format!("{name}::{v} => ::serde::Value::Str(\"{v}\".to_string()),")
                    }
                })
                .collect();
            format!("match self {{ {arms} }}")
        }
    };
    format!("impl ::serde::Serialize for {name} {{ fn to_value(&self) -> ::serde::Value {{ {body} }} }}")
        .parse()
        .expect("generated impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let Input { name, shape } = parse(input);
    let body = match shape {
        Shape::Named(fields) => {
            let inits: String = fields
                .iter()
                .map(|(f, default)| {
                    let missing = if *default {
                        "::core::default::Default::default()".to_string()
                    } else {
                        format!("return Err(::serde::Error(\"{name}: missing field `{f}`\".to_string()))")
                    };
                    format!(
                        "{f}: match ::serde::__field(map, \"{f}\") {{ Some(x) => ::serde::Deserialize::from_value(x)?, None => {missing} }},"
                    )
                })
                .collect();
            format!("let map = ::serde::__as_map(v, \"{name}\")?; Ok({name} {{ {inits} }})")
        }
        Shape::Newtype => format!("Ok({name}(::serde::Deserialize::from_value(v)?))"),
        Shape::Enum(variants) => {
            let unit_arms: String = variants
                .iter()
                .filter(|(_, carries)| !carries)
                .map(|(v, _)| format!("\"{v}\" => return Ok({name}::{v}),"))
                .collect();
            let newtype_arms: String = variants
                .iter()
                .filter(|(_, carries)| *carries)
                .map(|(v, _)| {
                    format!("\"{v}\" => return Ok({name}::{v}(::serde::Deserialize::from_value(inner)?)),")
                })
                .collect();
            format!(
                "match v {{
                    ::serde::Value::Str(s) => match s.as_str() {{ {unit_arms} _ => {{}} }},
                    ::serde::Value::Map(m) if m.len() == 1 => {{
                        let (tag, inner) = &m[0];
                        match tag.as_str() {{ {newtype_arms} _ => {{ let _ = inner; }} }}
                    }}
                    _ => {{}}
                }}
                Err(::serde::Error(format!(\"{name}: unknown variant {{v:?}}\")))"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{ fn from_value(v: &::serde::Value) -> Result<Self, ::serde::Error> {{ {body} }} }}"
    )
    .parse()
    .expect("generated impl parses")
}
