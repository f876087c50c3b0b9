//! Derive macros for the offline `serde` shim.
//!
//! Parses the item's token stream directly (no `syn`/`quote` available
//! offline) and generates `Serialize`/`Deserialize` impls that stream
//! through the shim's `Sink`/`Source` data model: a writer with static
//! key literals and a pull decoder that matches field names in one pass.
//! Supported shapes — which cover everything in this workspace — are
//! non-generic structs with named fields, tuple structs, and enums with
//! unit, tuple, and struct variants, using serde's externally-tagged enum
//! representation. The one field attribute is `#[serde(default)]`: a
//! missing field decodes as `Default::default()`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// A parsed `struct` or `enum` item.
enum Item {
    Struct {
        name: String,
        fields: Vec<Field>,
    },
    TupleStruct {
        name: String,
        arity: usize,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// A named field.
struct Field {
    name: String,
    /// The field's type, as source text.
    ty: String,
    /// `#[serde(default)]`: absent means `Default::default()`.
    default: bool,
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

fn is_punct(t: &TokenTree, c: char) -> bool {
    matches!(t, TokenTree::Punct(p) if p.as_char() == c)
}

fn is_ident(t: &TokenTree, s: &str) -> bool {
    matches!(t, TokenTree::Ident(i) if i.to_string() == s)
}

/// Whether an attribute body (the tokens inside `#[...]`) is
/// `serde(default)`. Any other `serde(...)` attribute is rejected.
fn is_serde_default(body: TokenStream) -> bool {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    match tokens.as_slice() {
        [TokenTree::Ident(i), TokenTree::Group(args)] if i.to_string() == "serde" => {
            let args = args.stream().to_string();
            assert!(
                args == "default",
                "serde_derive shim supports only #[serde(default)], got #[serde({args})]"
            );
            true
        }
        _ => false,
    }
}

/// Skip `#[...]` attributes (including expanded doc comments) and
/// visibility qualifiers starting at `i`; returns the next index and
/// whether one of the attributes was `#[serde(default)]`.
fn skip_attrs_and_vis(tokens: &[TokenTree], mut i: usize) -> (usize, bool) {
    let mut default = false;
    loop {
        if i < tokens.len() && is_punct(&tokens[i], '#') {
            i += 1; // '#'
            if let Some(TokenTree::Group(g)) = tokens.get(i) {
                default |= is_serde_default(g.stream());
                i += 1; // the [...] group
            }
            continue;
        }
        if i < tokens.len() && is_ident(&tokens[i], "pub") {
            i += 1;
            if i < tokens.len() {
                if let TokenTree::Group(g) = &tokens[i] {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1; // pub(crate) etc.
                    }
                }
            }
            continue;
        }
        return (i, default);
    }
}

/// Skip attributes and visibility where `#[serde(default)]` has no
/// meaning (items, variants, tuple fields).
fn skip_plain_attrs(tokens: &[TokenTree], i: usize) -> usize {
    let (i, default) = skip_attrs_and_vis(tokens, i);
    assert!(
        !default,
        "serde_derive: #[serde(default)] is supported on named fields only"
    );
    i
}

/// Skip a type expression until a `,` at angle-bracket depth zero (or end
/// of tokens); returns the index of the comma or `tokens.len()`.
fn skip_type(tokens: &[TokenTree], mut i: usize) -> usize {
    let mut angle: i32 = 0;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Parse `name: Type, ...` named-field lists.
fn parse_named_fields(group: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = group.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let (at, default) = skip_attrs_and_vis(&tokens, i);
        i = at;
        if i >= tokens.len() {
            break;
        }
        let TokenTree::Ident(name) = &tokens[i] else {
            panic!("serde_derive: expected field name, got {:?}", tokens[i]);
        };
        i += 1;
        assert!(
            is_punct(&tokens[i], ':'),
            "serde_derive: expected `:` after field name"
        );
        let end = skip_type(&tokens, i + 1);
        fields.push(Field {
            name: name.to_string(),
            ty: tokens[i + 1..end]
                .iter()
                .cloned()
                .collect::<TokenStream>()
                .to_string(),
            default,
        });
        i = end + 1; // past the comma (or end)
    }
    fields
}

/// Count the fields of a tuple struct/variant from its paren group.
fn count_tuple_fields(group: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = group.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut n = 0;
    let mut i = 0;
    while i < tokens.len() {
        i = skip_plain_attrs(&tokens, i);
        if i >= tokens.len() {
            break;
        }
        n += 1;
        i = skip_type(&tokens, i);
        i += 1;
    }
    n
}

fn parse_variants(group: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = group.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_plain_attrs(&tokens, i);
        if i >= tokens.len() {
            break;
        }
        let TokenTree::Ident(name) = &tokens[i] else {
            panic!("serde_derive: expected variant name, got {:?}", tokens[i]);
        };
        let name = name.to_string();
        i += 1;
        let kind = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantKind::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantKind::Struct(parse_named_fields(g.stream()))
            }
            _ => VariantKind::Unit,
        };
        variants.push(Variant { name, kind });
        if i < tokens.len() && is_punct(&tokens[i], ',') {
            i += 1;
        }
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_plain_attrs(&tokens, 0);
    let is_enum = if is_ident(&tokens[i], "struct") {
        false
    } else if is_ident(&tokens[i], "enum") {
        true
    } else {
        panic!(
            "serde_derive: expected `struct` or `enum`, got {:?}",
            tokens[i]
        );
    };
    i += 1;
    let TokenTree::Ident(name) = &tokens[i] else {
        panic!("serde_derive: expected type name");
    };
    let name = name.to_string();
    i += 1;
    if i < tokens.len() && is_punct(&tokens[i], '<') {
        panic!("serde_derive shim does not support generic types ({name})");
    }
    match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            if is_enum {
                Item::Enum {
                    name,
                    variants: parse_variants(g.stream()),
                }
            } else {
                Item::Struct {
                    name,
                    fields: parse_named_fields(g.stream()),
                }
            }
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis && !is_enum => {
            Item::TupleStruct {
                name,
                arity: count_tuple_fields(g.stream()),
            }
        }
        Some(other) => panic!("serde_derive: unsupported item body {other:?}"),
        None => Item::Struct {
            name,
            fields: Vec::new(),
        },
    }
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------
//
// Generated code names everything by absolute path and calls trait methods
// in UFCS form, so it needs no imports at the use site.

const OK: &str = "::std::result::Result::Ok";
const ERR: &str = "::std::result::Result::Err";
const SOME: &str = "::std::option::Option::Some";
const NONE: &str = "::std::option::Option::None";

/// Statements writing `values` (expressions of reference type) as an
/// array.
fn write_array(values: &[String]) -> String {
    let mut out = String::from("::serde::Sink::begin_array(__sink);");
    for v in values {
        out.push_str(&format!(
            "::serde::Sink::elem(__sink); ::serde::Serialize::serialize({v}, __sink);"
        ));
    }
    out.push_str("::serde::Sink::end_array(__sink);");
    out
}

/// Statements writing named members as an object; `access` turns a field
/// name into an expression of reference type.
fn write_object(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut out = String::from("::serde::Sink::begin_object(__sink);");
    for f in fields {
        out.push_str(&format!(
            "::serde::Sink::key(__sink, \"{}\"); ::serde::Serialize::serialize({}, __sink);",
            f.name,
            access(&f.name)
        ));
    }
    out.push_str("::serde::Sink::end_object(__sink);");
    out
}

fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => (name, write_object(fields, |f| format!("&self.{f}"))),
        Item::TupleStruct { name, arity: 1 } => (
            name,
            "::serde::Serialize::serialize(&self.0, __sink);".to_string(),
        ),
        Item::TupleStruct { name, arity } => {
            let values: Vec<String> = (0..*arity).map(|k| format!("&self.{k}")).collect();
            (name, write_array(&values))
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                let (pattern, inner) = match &v.kind {
                    VariantKind::Unit => {
                        arms.push_str(&format!(
                            "{name}::{vn} => ::serde::Sink::str(__sink, \"{vn}\"),"
                        ));
                        continue;
                    }
                    VariantKind::Tuple(1) => (
                        "(__f0)".to_string(),
                        "::serde::Serialize::serialize(__f0, __sink);".to_string(),
                    ),
                    VariantKind::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                        (format!("({})", binds.join(",")), write_array(&binds))
                    }
                    VariantKind::Struct(fields) => {
                        let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        (
                            format!("{{ {} }}", binds.join(",")),
                            write_object(fields, str::to_string),
                        )
                    }
                };
                arms.push_str(&format!(
                    "{name}::{vn} {pattern} => {{\
                         ::serde::Sink::begin_object(__sink);\
                         ::serde::Sink::key(__sink, \"{vn}\");\
                         {inner}\
                         ::serde::Sink::end_object(__sink);\
                     }}"
                ));
            }
            (name, format!("match self {{ {arms} }}"))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\
             fn serialize<__S: ::serde::Sink>(&self, __sink: &mut __S) {{ {body} }}\
         }}"
    )
}

/// An expression reading an array of `n` elements into `ctor(...)`.
fn read_tuple(ctor: &str, n: usize) -> String {
    let arity_error =
        format!("return {ERR}(::serde::DeError::custom(\"expected {n} elements for {ctor}\"))");
    let elems: Vec<String> = (0..n)
        .map(|_| {
            format!(
                "{{ if !::serde::Source::next_elem(__src)? {{ {arity_error} }}\
                    ::serde::Deserialize::deserialize(__src)? }}"
            )
        })
        .collect();
    format!(
        "{{ ::serde::Source::begin_array(__src)?;\
            let __value = {ctor}({});\
            if ::serde::Source::next_elem(__src)? {{ {arity_error} }}\
            __value }}",
        elems.join(",")
    )
}

/// An expression reading an object's members into `ctor { fields }`: the
/// first occurrence of a key wins, unknown keys are skipped, and a missing
/// field is an error unless it is `#[serde(default)]`.
fn read_fields(ctor: &str, fields: &[Field]) -> String {
    let names: Vec<String> = fields.iter().map(|f| format!("\"{}\"", f.name)).collect();
    let mut slots = String::new();
    let mut arms = String::new();
    let mut inits = String::new();
    for (k, f) in fields.iter().enumerate() {
        let (fname, ty) = (&f.name, &f.ty);
        slots.push_str(&format!(
            "let mut __f{k}: ::std::option::Option<{ty}> = {NONE};"
        ));
        arms.push_str(&format!(
            "{k} if __f{k}.is_none() => \
                 __f{k} = {SOME}(::serde::Deserialize::deserialize(__src)?),"
        ));
        let missing = if f.default {
            "::std::default::Default::default()".to_string()
        } else {
            format!("return {ERR}(::serde::DeError::missing_field(\"{fname}\"))")
        };
        inits.push_str(&format!(
            "{fname}: match __f{k} {{ {SOME}(__v) => __v, {NONE} => {missing} }},"
        ));
    }
    format!(
        "{{ const __FIELDS: &[&str] = &[{}];\
            ::serde::Source::begin_object(__src)?;\
            {slots}\
            let mut __seen = 0usize;\
            while let {SOME}(__i) = ::serde::Source::field(__src, __FIELDS, __seen)? {{\
                __seen += 1;\
                match __i {{ {arms} _ => ::serde::Source::skip(__src)?, }}\
            }}\
            {ctor} {{ {inits} }} }}",
        names.join(",")
    )
}

fn gen_deserialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => (name, format!("{OK}({})", read_fields(name, fields))),
        Item::TupleStruct { name, arity: 1 } => (
            name,
            format!("{OK}({name}(::serde::Deserialize::deserialize(__src)?))"),
        ),
        Item::TupleStruct { name, arity } => (name, format!("{OK}({})", read_tuple(name, *arity))),
        Item::Enum { name, variants } => (name, deserialize_enum(name, variants)),
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\
             fn deserialize<__R: ::serde::Source>(__src: &mut __R)\
                 -> ::std::result::Result<Self, ::serde::DeError> {{ {body} }}\
         }}"
    )
}

/// Externally tagged: a unit variant is its name as a string, any other
/// variant a single-key object mapping its name to its contents.
fn deserialize_enum(name: &str, variants: &[Variant]) -> String {
    let unknown = format!(
        "__other => return {ERR}(::serde::DeError::custom(\
             format!(\"unknown variant {{__other}} of {name}\"))),"
    );
    let mut out = String::new();
    let units: Vec<&str> = variants
        .iter()
        .filter(|v| matches!(v.kind, VariantKind::Unit))
        .map(|v| v.name.as_str())
        .collect();
    if !units.is_empty() {
        let arms: String = units
            .iter()
            .map(|vn| format!("\"{vn}\" => return {OK}({name}::{vn}),"))
            .collect();
        out.push_str(&format!(
            "if ::serde::Source::peek(__src)? == ::serde::Kind::Str {{\
                 match ::serde::Source::str(__src)? {{ {arms} {unknown} }}\
             }}"
        ));
    }
    let data: Vec<&Variant> = variants
        .iter()
        .filter(|v| !matches!(v.kind, VariantKind::Unit))
        .collect();
    if data.is_empty() {
        out.push_str(&format!(
            "{ERR}(::serde::DeError::custom(\"expected a variant name for enum {name}\"))"
        ));
        return out;
    }
    let single_key = format!(
        "return {ERR}(::serde::DeError::custom(\
             \"expected single-key tagged object for enum {name}\"))"
    );
    let mut tags = String::new();
    let mut reads = String::new();
    for (k, v) in data.iter().enumerate() {
        let vn = &v.name;
        tags.push_str(&format!("\"{vn}\" => {k}usize,"));
        let ctor = format!("{name}::{vn}");
        let read = match &v.kind {
            VariantKind::Tuple(1) => format!("{ctor}(::serde::Deserialize::deserialize(__src)?)"),
            VariantKind::Tuple(n) => read_tuple(&ctor, *n),
            VariantKind::Struct(fields) => read_fields(&ctor, fields),
            VariantKind::Unit => unreachable!("unit variants are filtered out"),
        };
        // The last arm is the catch-all, so the match is exhaustive.
        let pattern = if k + 1 == data.len() {
            "_".to_string()
        } else {
            k.to_string()
        };
        reads.push_str(&format!("{pattern} => {read},"));
    }
    out.push_str(&format!(
        "::serde::Source::begin_object(__src)?;\
         let __tag = match ::serde::Source::next_key(__src)? {{\
             {SOME}(__k) => match __k {{ {tags} {unknown} }},\
             {NONE} => {single_key},\
         }};\
         let __value = match __tag {{ {reads} }};\
         if ::serde::Source::next_key(__src)?.is_some() {{ {single_key} }}\
         {OK}(__value)"
    ));
    out
}

/// Derive the shim's `Serialize` for a struct or enum.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde_derive: generated invalid Serialize impl")
}

/// Derive the shim's `Deserialize` for a struct or enum.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde_derive: generated invalid Deserialize impl")
}
