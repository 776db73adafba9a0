//! Canonical JSON: byte-stable serialization for machine-diffable reports.
//!
//! The sweep harness's whole value is that a report is a *fingerprint*: the
//! same spec and seed must produce the same bytes on every rerun, at every
//! thread count, so CI can diff whole scenario matrices with `cmp`. That
//! requires a serialization with no degrees of freedom:
//!
//! * **Sorted keys** — every JSON object's keys are emitted in ascending
//!   byte order, regardless of struct field order or map insertion order.
//! * **Fixed float formatting** — a float renders as its shortest
//!   round-trip decimal (Rust's `{}` for `f64`), with integral values
//!   forced to one decimal place (`2.0`, never `2`) so a reparsed value
//!   re-serializes to the identical bytes. Non-finite values render as
//!   `null` (canonical JSON has no NaN/∞).
//! * **No whitespace** — compact, comma/colon separated.
//!
//! The round-trip stability property (serialize → parse → serialize is the
//! identity on bytes) is what the golden-file test pins down.
//!
//! Hashes over canonical bytes use 64-bit FNV-1a rendered as 16 hex
//! digits — dependency-free and stable across platforms.

use serde::{Serialize, Value};

/// Renders a value tree as canonical JSON (sorted keys, fixed float
/// formatting, no whitespace).
pub fn canonical(v: &Value) -> String {
    let mut out = String::new();
    write_canonical(v, &mut out);
    out
}

/// [`canonical`] over any `Serialize` type.
pub fn canonical_of<T: Serialize>(t: &T) -> String {
    canonical(&t.to_value())
}

/// [`canonical_of`] plus a trailing newline: the exact bytes of a
/// checked-in report file.
pub fn canonical_file<T: Serialize>(t: &T) -> String {
    let mut s = canonical_of(t);
    s.push('\n');
    s
}

/// 64-bit FNV-1a over a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A 64-bit hash as 16 lowercase hex digits.
pub fn hex16(h: u64) -> String {
    format!("{h:016x}")
}

/// The canonical hash of a serializable value: FNV-1a over its canonical
/// JSON bytes, as 16 hex digits.
pub fn hash_of<T: Serialize>(t: &T) -> String {
    hex16(fnv1a64(canonical_of(t).as_bytes()))
}

/// Canonical rendering of one `f64` (see the module docs for the rules).
pub fn fmt_f64(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    // Integral values gain a forced `.0` so they reparse as floats and
    // re-serialize identically; 2⁵³ bounds where `{:.1}` is still exact.
    if x == x.trunc() && x.abs() < 9_007_199_254_740_992.0 {
        format!("{x:.1}")
    } else {
        // Shortest round-trip decimal: `parse(fmt(x)) == x` exactly, so a
        // reparse cannot change the next serialization.
        format!("{x}")
    }
}

fn write_canonical(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => out.push_str(&fmt_f64(*x)),
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_canonical(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            // Sort key *references*; on duplicate keys the last entry wins
            // (matching object-update semantics), deterministically. The
            // stable sort keeps equal keys in insertion order, so the last
            // of each run is the last inserted.
            let mut sorted: Vec<&(String, Value)> = entries.iter().collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            let mut kept: Vec<&(String, Value)> = Vec::with_capacity(sorted.len());
            for e in sorted {
                match kept.last_mut() {
                    Some(last) if last.0 == e.0 => *last = e,
                    _ => kept.push(e),
                }
            }
            out.push('{');
            for (i, (k, item)) in kept.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_canonical(item, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_sort_and_floats_format_fixed() {
        let v = Value::Map(vec![
            ("zeta".into(), Value::F64(2.0)),
            ("alpha".into(), Value::F64(0.1)),
            (
                "mid".into(),
                Value::Seq(vec![Value::U64(3), Value::I64(-4)]),
            ),
        ]);
        assert_eq!(canonical(&v), r#"{"alpha":0.1,"mid":[3,-4],"zeta":2.0}"#);
    }

    #[test]
    fn serialize_parse_serialize_is_byte_identity() {
        // Exercise integral floats, shortest-repr fractions, negatives,
        // nested maps in unsorted order, and escapes.
        let v = Value::Map(vec![
            ("b".into(), Value::F64(1234.5678)),
            ("a".into(), Value::F64(-0.000125)),
            ("c".into(), Value::F64(42.0)),
            (
                "d".into(),
                Value::Map(vec![
                    ("y".into(), Value::Str("line\n\"q\"".into())),
                    ("x".into(), Value::Bool(true)),
                ]),
            ),
        ]);
        let first = canonical(&v);
        let reparsed: Value = serde_json::from_str(&first).expect("canonical JSON parses");
        assert_eq!(canonical(&reparsed), first);
    }

    #[test]
    fn float_formatting_is_idempotent_over_reparse() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -3.0,
            0.1,
            1.5,
            1e-7,
            123_456_789.25,
            f64::MAX,
            4_503_599_627_370_496.5,
        ] {
            let s = fmt_f64(x);
            let back: f64 = s.parse().expect("formatted float parses");
            assert_eq!(fmt_f64(back), s, "x={x}");
        }
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(2.0), "2.0");
        assert_eq!(fmt_f64(-7.0), "-7.0");
        assert_eq!(fmt_f64(0.5), "0.5");
    }

    #[test]
    fn hashes_are_stable_and_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        // The classic FNV-1a test vector.
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hex16(0xaf), "00000000000000af");
        let a = hash_of(&vec![1u64, 2, 3]);
        let b = hash_of(&vec![1u64, 2, 4]);
        assert_ne!(a, b);
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn duplicate_keys_resolve_deterministically() {
        let v = Value::Map(vec![
            ("k".into(), Value::U64(1)),
            ("k".into(), Value::U64(2)),
        ]);
        assert_eq!(canonical(&v), r#"{"k":2}"#);
    }
}
