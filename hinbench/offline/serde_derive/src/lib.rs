//! Offline stand-in for `serde_derive`, written against `proc_macro` alone
//! (no `syn`/`quote`: the registry is unreachable where the benchmark builds).
//!
//! `#[derive(Serialize)]` covers what this repository declares: structs with
//! named fields, tuple and unit structs, and enums in serde's default
//! externally tagged form, with lifetime and type parameters. Recognised
//! attributes are `rename = "…"` (container, variant, field), `skip` /
//! `skip_serializing` and `skip_serializing_if = "path"` (field). Anything
//! else is a compile error rather than a silently different wire format.
//!
//! `#[derive(Deserialize)]` expands to nothing; see the `serde` stand-in.

use proc_macro::{Delimiter, Spacing, TokenStream, TokenTree};

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match expand(input) {
        Ok(code) => code.parse().expect("generated impl parses"),
        Err(msg) => format!("compile_error!({msg:?});")
            .parse()
            .expect("compile_error parses"),
    }
}

#[derive(Default)]
struct Attrs {
    rename: Option<String>,
    skip: bool,
    skip_if: Option<String>,
}

struct Field {
    /// Field name, or the position for tuple fields.
    member: String,
    attrs: Attrs,
}

enum Shape {
    Named(Vec<Field>),
    Tuple(Vec<Field>),
    Unit,
}

struct Variant {
    name: String,
    attrs: Attrs,
    shape: Shape,
}

type Tokens = std::iter::Peekable<std::vec::IntoIter<TokenTree>>;

fn tokens(stream: TokenStream) -> Tokens {
    stream.into_iter().collect::<Vec<_>>().into_iter().peekable()
}

fn is_punct(tt: Option<&TokenTree>, ch: char) -> bool {
    matches!(tt, Some(TokenTree::Punct(p)) if p.as_char() == ch)
}

fn is_ident(tt: Option<&TokenTree>, word: &str) -> bool {
    matches!(tt, Some(TokenTree::Ident(i)) if i.to_string() == word)
}

/// Consumes leading `#[...]` attributes, folding `#[serde(...)]` into `Attrs`.
fn take_attrs(it: &mut Tokens) -> Result<Attrs, String> {
    let mut attrs = Attrs::default();
    while is_punct(it.peek(), '#') {
        it.next();
        let Some(TokenTree::Group(group)) = it.next() else {
            return Err("expected [...] after #".into());
        };
        let mut inner = tokens(group.stream());
        if !is_ident(inner.peek(), "serde") {
            continue;
        }
        inner.next();
        let Some(TokenTree::Group(args)) = inner.next() else {
            return Err("expected #[serde(...)]".into());
        };
        parse_serde_args(tokens(args.stream()), &mut attrs)?;
    }
    Ok(attrs)
}

fn parse_serde_args(mut it: Tokens, attrs: &mut Attrs) -> Result<(), String> {
    while let Some(tt) = it.next() {
        let TokenTree::Ident(key) = tt else {
            return Err(format!("unexpected token `{tt}` in #[serde(...)]"));
        };
        let key = key.to_string();
        let value = if is_punct(it.peek(), '=') {
            it.next();
            match it.next() {
                Some(TokenTree::Literal(lit)) => {
                    let text = lit.to_string();
                    let inner = text
                        .strip_prefix('"')
                        .and_then(|t| t.strip_suffix('"'))
                        .ok_or_else(|| format!("#[serde({key} = ...)] needs a string literal"))?;
                    Some(inner.to_string())
                }
                _ => return Err(format!("#[serde({key} = ...)] needs a string literal")),
            }
        } else {
            None
        };
        match (key.as_str(), value) {
            ("rename", Some(v)) => attrs.rename = Some(v),
            ("skip" | "skip_serializing", None) => attrs.skip = true,
            ("skip_serializing_if", Some(v)) => attrs.skip_if = Some(v),
            // Only deserialization reads these.
            ("default" | "skip_deserializing", _) => {}
            (other, _) => {
                return Err(format!(
                    "the offline serde_derive stand-in does not support #[serde({other})]"
                ))
            }
        }
        if is_punct(it.peek(), ',') {
            it.next();
        }
    }
    Ok(())
}

fn skip_visibility(it: &mut Tokens) {
    if is_ident(it.peek(), "pub") {
        it.next();
        if matches!(it.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            it.next();
        }
    }
}

/// Consumes tokens up to (not including) a `,` outside every `<...>`, or the
/// end. Groups are single trees, so only angle brackets need counting; the
/// `>` of `->` is not a bracket.
fn skip_to_comma(it: &mut Tokens) {
    let mut depth = 0usize;
    let mut after_arrow_dash = false;
    while let Some(tt) = it.peek() {
        if let TokenTree::Punct(p) = tt {
            match p.as_char() {
                ',' if depth == 0 => return,
                '<' => depth += 1,
                '>' if !after_arrow_dash => depth = depth.saturating_sub(1),
                _ => {}
            }
            after_arrow_dash = p.as_char() == '-' && p.spacing() == Spacing::Joint;
        } else {
            after_arrow_dash = false;
        }
        it.next();
    }
}

fn named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let mut it = tokens(stream);
    let mut fields = Vec::new();
    while it.peek().is_some() {
        let attrs = take_attrs(&mut it)?;
        skip_visibility(&mut it);
        let Some(TokenTree::Ident(name)) = it.next() else {
            return Err("expected a field name".into());
        };
        if !is_punct(it.next().as_ref(), ':') {
            return Err(format!("expected `:` after field `{name}`"));
        }
        skip_to_comma(&mut it);
        it.next();
        fields.push(Field {
            member: name.to_string(),
            attrs,
        });
    }
    Ok(fields)
}

fn tuple_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let mut it = tokens(stream);
    let mut fields = Vec::new();
    while it.peek().is_some() {
        let attrs = take_attrs(&mut it)?;
        skip_visibility(&mut it);
        skip_to_comma(&mut it);
        it.next();
        fields.push(Field {
            member: fields.len().to_string(),
            attrs,
        });
    }
    Ok(fields)
}

fn variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let mut it = tokens(stream);
    let mut out = Vec::new();
    while it.peek().is_some() {
        let attrs = take_attrs(&mut it)?;
        let Some(TokenTree::Ident(name)) = it.next() else {
            return Err("expected a variant name".into());
        };
        let shape = match it.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let s = Shape::Tuple(tuple_fields(g.stream())?);
                it.next();
                s
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let s = Shape::Named(named_fields(g.stream())?);
                it.next();
                s
            }
            _ => Shape::Unit,
        };
        // An explicit discriminant, if any.
        skip_to_comma(&mut it);
        it.next();
        out.push(Variant {
            name: name.to_string(),
            attrs,
            shape,
        });
    }
    Ok(out)
}

/// Splits `<'a, T: Bound, const N: usize>` (already without the outer angle
/// brackets) into the text for `impl<...>` and for `Name<...>`, adding a
/// `Serialize` bound to every type parameter.
fn generics(params: Vec<TokenTree>) -> (String, String) {
    let mut decl = Vec::new();
    let mut names = Vec::new();
    let mut it = params.into_iter().peekable();
    while it.peek().is_some() {
        let mut param = Vec::new();
        let mut depth = 0usize;
        for tt in it.by_ref() {
            if let TokenTree::Punct(p) = &tt {
                match p.as_char() {
                    ',' if depth == 0 => break,
                    '<' => depth += 1,
                    '>' => depth = depth.saturating_sub(1),
                    _ => {}
                }
            }
            param.push(tt);
        }
        if param.is_empty() {
            continue;
        }
        // Drop a `= Default`.
        if let Some(eq) = param.iter().position(|t| is_punct(Some(t), '=')) {
            param.truncate(eq);
        }
        let text: String = param.iter().map(|t| t.to_string() + " ").collect();
        if is_punct(param.first(), '\'') {
            names.push(format!("'{}", param[1]));
            decl.push(text.replacen("' ", "'", 1));
        } else if is_ident(param.first(), "const") {
            names.push(param[1].to_string());
            decl.push(text);
        } else {
            names.push(param[0].to_string());
            let has_bounds = param.iter().any(|t| is_punct(Some(t), ':'));
            let joiner = if has_bounds { "+" } else { ":" };
            decl.push(format!("{text} {joiner} ::serde::Serialize"));
        }
    }
    if names.is_empty() {
        (String::new(), String::new())
    } else {
        (format!("<{}>", decl.join(", ")), format!("<{}>", names.join(", ")))
    }
}

fn key(name: &str, attrs: &Attrs) -> String {
    format!("{:?}", attrs.rename.as_deref().unwrap_or(name))
}

/// Statements that declare `__len` and then feed `fields` to `__state` through
/// `trait_name`. `access` turns a field into the expression holding `&value`.
fn named_body(fields: &[Field], trait_name: &str, access: &dyn Fn(&Field) -> String) -> String {
    let mut len = String::from("0usize");
    let mut body = String::new();
    for f in fields.iter().filter(|f| !f.attrs.skip) {
        let value = access(f);
        let k = key(&f.member, &f.attrs);
        let put = format!("::serde::ser::{trait_name}::serialize_field(&mut __state, {k}, {value})?;");
        match &f.attrs.skip_if {
            Some(pred) => {
                len += &format!(" + if {pred}({value}) {{ 0 }} else {{ 1 }}");
                body += &format!(
                    "if {pred}({value}) {{ ::serde::ser::{trait_name}::skip_field(&mut __state, {k})?; }} else {{ {put} }}\n"
                );
            }
            None => {
                len += " + 1";
                body += &put;
                body.push('\n');
            }
        }
    }
    format!("let __len = {len};\n@OPEN@\n{body}::serde::ser::{trait_name}::end(__state)")
}

fn expand(input: TokenStream) -> Result<String, String> {
    let mut it = tokens(input);
    let container = take_attrs(&mut it)?;
    if container.skip || container.skip_if.is_some() {
        return Err("skip attributes do not apply to a container".into());
    }
    skip_visibility(&mut it);
    let kind = match it.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        _ => return Err("expected `struct` or `enum`".into()),
    };
    let Some(TokenTree::Ident(name)) = it.next() else {
        return Err("expected a type name".into());
    };
    let name = name.to_string();
    let wire_name = key(&name, &container);

    let mut params = Vec::new();
    if is_punct(it.peek(), '<') {
        it.next();
        let mut depth = 1usize;
        for tt in it.by_ref() {
            if let TokenTree::Punct(p) = &tt {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            params.push(tt);
        }
    }
    let (impl_generics, ty_generics) = generics(params);

    // Whatever stands between the generics and the body (or, for tuple
    // structs, after the body) is the where clause.
    let mut where_clause = String::new();
    let mut body = None;
    for tt in it {
        match tt {
            TokenTree::Group(g)
                if body.is_none()
                    && matches!(g.delimiter(), Delimiter::Brace | Delimiter::Parenthesis) =>
            {
                body = Some(g)
            }
            TokenTree::Punct(p) if p.as_char() == ';' => {}
            other => {
                where_clause += &other.to_string();
                where_clause.push(' ');
            }
        }
    }

    let serialize_body = match (kind.as_str(), body) {
        ("struct", None) => {
            format!("::serde::ser::Serializer::serialize_unit_struct(__serializer, {wire_name})")
        }
        ("struct", Some(g)) if g.delimiter() == Delimiter::Brace => {
            let fields = named_fields(g.stream())?;
            named_body(&fields, "SerializeStruct", &|f| format!("&self.{}", f.member)).replace(
                "@OPEN@",
                &format!(
                    "let mut __state = ::serde::ser::Serializer::serialize_struct(__serializer, {wire_name}, __len)?;"
                ),
            )
        }
        ("struct", Some(g)) => {
            let fields = tuple_fields(g.stream())?;
            let live: Vec<&Field> = fields.iter().filter(|f| !f.attrs.skip).collect();
            if fields.len() == 1 && live.len() == 1 {
                format!(
                    "::serde::ser::Serializer::serialize_newtype_struct(__serializer, {wire_name}, &self.0)"
                )
            } else {
                let mut s = format!(
                    "let mut __state = ::serde::ser::Serializer::serialize_tuple_struct(__serializer, {wire_name}, {})?;\n",
                    live.len()
                );
                for f in live {
                    s += &format!(
                        "::serde::ser::SerializeTupleStruct::serialize_field(&mut __state, &self.{})?;\n",
                        f.member
                    );
                }
                s + "::serde::ser::SerializeTupleStruct::end(__state)"
            }
        }
        ("enum", Some(g)) if g.delimiter() == Delimiter::Brace => {
            let mut arms = String::new();
            for (index, v) in variants(g.stream())?.iter().enumerate() {
                let vname = &v.name;
                let vkey = key(vname, &v.attrs);
                let head = format!("{wire_name}, {index}u32, {vkey}");
                if v.attrs.skip {
                    arms += &format!(
                        "{name}::{vname} {{ .. }} => ::core::result::Result::Err(::serde::ser::Error::custom(\"variant {vname} is skipped\")),\n"
                    );
                    continue;
                }
                match &v.shape {
                    Shape::Unit => {
                        arms += &format!(
                            "{name}::{vname} => ::serde::ser::Serializer::serialize_unit_variant(__serializer, {head}),\n"
                        );
                    }
                    Shape::Tuple(fields) if fields.len() == 1 => {
                        arms += &format!(
                            "{name}::{vname}(__f0) => ::serde::ser::Serializer::serialize_newtype_variant(__serializer, {head}, __f0),\n"
                        );
                    }
                    Shape::Tuple(fields) => {
                        let binds: Vec<String> =
                            fields.iter().map(|f| format!("__f{}", f.member)).collect();
                        let mut s = format!(
                            "{name}::{vname}({}) => {{\nlet mut __state = ::serde::ser::Serializer::serialize_tuple_variant(__serializer, {head}, {})?;\n",
                            binds.join(", "),
                            fields.iter().filter(|f| !f.attrs.skip).count()
                        );
                        for f in fields.iter().filter(|f| !f.attrs.skip) {
                            s += &format!(
                                "::serde::ser::SerializeTupleVariant::serialize_field(&mut __state, __f{})?;\n",
                                f.member
                            );
                        }
                        arms += &(s + "::serde::ser::SerializeTupleVariant::end(__state)\n}\n");
                    }
                    Shape::Named(fields) => {
                        let binds: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                if f.attrs.skip {
                                    format!("{}: _", f.member)
                                } else {
                                    f.member.clone()
                                }
                            })
                            .collect();
                        let inner = named_body(fields, "SerializeStructVariant", &|f| {
                            f.member.clone()
                        })
                        .replace(
                            "@OPEN@",
                            &format!(
                                "let mut __state = ::serde::ser::Serializer::serialize_struct_variant(__serializer, {head}, __len)?;"
                            ),
                        );
                        arms += &format!(
                            "{name}::{vname} {{ {} }} => {{\n{inner}\n}}\n",
                            binds.join(", ")
                        );
                    }
                }
            }
            if arms.is_empty() {
                "match *self {}".to_string()
            } else {
                format!("match self {{\n{arms}}}")
            }
        }
        _ => return Err(format!("cannot derive Serialize for this {kind}")),
    };

    Ok(format!(
        "#[automatically_derived]\n\
         impl{impl_generics} ::serde::Serialize for {name}{ty_generics} {where_clause} {{\n\
         fn serialize<__S: ::serde::Serializer>(&self, __serializer: __S) -> ::core::result::Result<__S::Ok, __S::Error> {{\n\
         {serialize_body}\n}}\n}}"
    ))
}
