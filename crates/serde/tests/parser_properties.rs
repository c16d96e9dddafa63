//! Property tests for the JSON reader and writer: exact string round
//! trips, canonical text as a fixed point, and the borrowed and owned
//! parses agreeing.

use proptest::prelude::*;
use proptest::TestRng;
use serde::json::{self, Value};

/// Characters weighted towards the ones the writer escapes or that take
/// more than one UTF-8 byte, plus any Unicode scalar value.
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        prop::sample::select(&[
            '"',
            '\\',
            '/',
            '\n',
            '\r',
            '\t',
            '\u{0}',
            '\u{8}',
            '\u{c}',
            '\u{1f}',
            '\u{7f}',
            'u',
            '\u{e9}',
            '\u{7ff}',
            '\u{800}',
            '\u{20ac}',
            '\u{ffff}',
            '\u{10000}',
            '\u{1f600}',
            '\u{10ffff}',
        ]),
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
        (0u32..0x11_0000)
            .prop_filter("a Unicode scalar value", |c| char::from_u32(*c).is_some())
            .prop_map(|c| char::from_u32(c).unwrap()),
    ]
}

fn any_string() -> impl Strategy<Value = String> {
    prop::collection::vec(any_char(), 0..40).prop_map(|cs| cs.into_iter().collect())
}

/// Arbitrary JSON value trees, nested at most `depth` containers deep.
struct AnyValue {
    depth: u32,
}

impl AnyValue {
    fn tree(&self, rng: &mut TestRng, depth: u32) -> Value<'static> {
        let kinds = if depth >= self.depth { 4 } else { 6 };
        match rng.next_u64() % kinds {
            0 => Value::Null,
            1 => Value::Bool(rng.next_u64() & 1 == 1),
            2 => {
                let text = match rng.next_u64() % 3 {
                    0 => json::to_string(&(rng.next_u64() as i64)),
                    1 => json::to_string(&f64::from_bits(rng.next_u64())),
                    _ => json::to_string(&(rng.next_f64() * 1e6 - 5e5)),
                };
                // Non-finite floats serialize as strings and stay strings.
                json::parse(&text).unwrap()
            }
            3 => Value::Str(any_string().sample(rng).into()),
            4 => {
                let n = rng.next_u64() % 5;
                Value::Arr((0..n).map(|_| self.tree(rng, depth + 1)).collect())
            }
            _ => {
                let n = rng.next_u64() % 5;
                Value::Obj(
                    (0..n)
                        .map(|_| (any_string().sample(rng).into(), self.tree(rng, depth + 1)))
                        .collect(),
                )
            }
        }
    }
}

impl Strategy for AnyValue {
    type Value = Value<'static>;
    fn sample(&self, rng: &mut TestRng) -> Value<'static> {
        self.tree(rng, 0)
    }
}

/// `text` with whitespace after every structural token outside strings,
/// so the parser meets whitespace everywhere it may occur.
fn spaced(text: &str) -> String {
    let mut out = String::with_capacity(text.len() * 2);
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        out.push(c);
        if in_string {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
        } else if c == '"' {
            in_string = true;
        } else if matches!(c, '{' | '[' | ',' | ':') {
            out.push_str(" \t\n");
        }
    }
    format!("\r\n{out} ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn strings_round_trip_exactly(s in any_string()) {
        let text = json::to_string(&s);
        let back: String = json::from_str(&text).unwrap();
        prop_assert_eq!(&back, &s);
        prop_assert_eq!(json::parse(&text).unwrap().as_str().unwrap(), s.as_str());
        let label: &'static str = json::from_str(&text).unwrap();
        prop_assert_eq!(label, s.as_str());
    }

    #[test]
    fn canonical_text_is_a_fixed_point(v in AnyValue { depth: 3 }) {
        let canonical = json::to_string(&v);
        let reparsed = json::parse(&canonical).unwrap();
        prop_assert_eq!(json::to_string(&reparsed), canonical.clone());
        prop_assert_eq!(&reparsed, &v);
        let respaced = json::parse(&spaced(&canonical)).unwrap();
        prop_assert_eq!(json::to_string(&respaced), canonical);
    }

    #[test]
    fn borrowed_and_owned_parses_agree(v in AnyValue { depth: 3 }, cut in 0usize..1000) {
        let text = spaced(&json::to_string(&v));
        prop_assert_eq!(
            json::parse_borrowed(&text).unwrap().into_owned(),
            json::parse(&text).unwrap()
        );
        // Truncated documents fail (or parse) identically on both paths.
        let mut end = cut.min(text.len());
        while !text.is_char_boundary(end) {
            end -= 1;
        }
        let prefix = &text[..end];
        prop_assert_eq!(json::parse_borrowed(prefix).map(Value::into_owned), json::parse(prefix));
    }
}
