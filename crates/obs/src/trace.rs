//! The JSONL trace format: serialization of an [`ObsBundle`] and a
//! minimal, dependency-free JSON parser for reading traces back.
//!
//! One JSON object per line. Floats are rendered with Rust's shortest
//! round-trip `Display`, so a parsed-and-reserialized trace is
//! byte-identical — the property the determinism tests lean on.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::record::{DecisionRecord, SpanRecord, TraceEvent};

/// A completed run's observability output: the event log in
/// `(stream, gof)` order (rounds appended last).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsBundle {
    /// All trace events. Empty when observation is off.
    pub events: Vec<TraceEvent>,
}

impl ObsBundle {
    /// The decision records in the bundle, in emission order.
    pub fn decisions(&self) -> impl Iterator<Item = &DecisionRecord> + '_ {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Decision(d) => Some(d.as_ref()),
            _ => None,
        })
    }

    /// The spans in the bundle, in emission order.
    pub fn spans(&self) -> impl Iterator<Item = &SpanRecord> + '_ {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Span(s) => Some(s),
            _ => None,
        })
    }

    /// Serialize the bundle as JSONL: a meta header, then every event.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"type\":\"meta\",\"version\":1,\"events\":{}}}",
            self.events.len()
        );
        for ev in &self.events {
            match ev {
                TraceEvent::Span(s) => {
                    let _ = writeln!(
                        out,
                        "{{\"type\":\"span\",\"stream\":{},\"gof\":{},\"kind\":{},\"label\":{},\"depth\":{},\"t0\":{},\"t1\":{}}}",
                        s.stream,
                        s.gof,
                        json_str(s.kind.name()),
                        json_str(s.label),
                        s.depth,
                        json_f64(s.t0),
                        json_f64(s.t1),
                    );
                }
                TraceEvent::Decision(d) => {
                    let _ = writeln!(out, "{}", decision_line(d));
                }
                TraceEvent::Round(r) => {
                    let members: Vec<String> = r.members.iter().map(|m| m.to_string()).collect();
                    let _ = writeln!(
                        out,
                        "{{\"type\":\"round\",\"idx\":{},\"threshold_ms\":{},\"members\":[{}]}}",
                        r.idx,
                        json_f64(r.threshold_ms),
                        members.join(","),
                    );
                }
            }
        }
        out
    }
}

fn decision_line(d: &DecisionRecord) -> String {
    let mut s = String::from("{\"type\":\"decision\"");
    let _ = write!(
        s,
        ",\"stream\":{},\"gof\":{},\"video\":{},\"start_frame\":{},\"t_ms\":{}",
        d.stream,
        d.gof,
        d.video_idx,
        d.start_frame,
        json_f64(d.t_ms)
    );
    let _ = write!(
        s,
        ",\"chosen_key\":{},\"prev_key\":{},\"switched\":{},\"frames\":{}",
        json_str(&d.chosen_key),
        json_str(&d.prev_key),
        d.switched,
        d.frames
    );
    let _ = write!(
        s,
        ",\"sched_ms\":{},\"switch_ms\":{},\"kernel_ms\":{},\"overhead_ms\":{},\"wasted_ms\":{},\"per_frame_ms\":{},\"slowdown\":{}",
        json_f64(d.sched_ms),
        json_f64(d.switch_ms),
        json_f64(d.kernel_ms),
        json_f64(d.overhead_ms),
        json_f64(d.wasted_ms),
        json_f64(d.per_frame_ms),
        json_f64(d.slowdown)
    );
    let degrades: Vec<String> = d.degrades.iter().map(|n| json_str(n)).collect();
    let _ = write!(
        s,
        ",\"faults\":{},\"degraded\":{},\"degrades\":[{}]",
        d.faults,
        d.degraded,
        degrades.join(",")
    );
    let e = &d.explain;
    let feats: Vec<String> = e
        .features
        .iter()
        .map(|f| {
            format!(
                "{{\"name\":{},\"ben\":{}}}",
                json_str(f.name),
                json_f64(f.ben as f64)
            )
        })
        .collect();
    let accs: Vec<String> = e.branch_acc.iter().map(|&a| json_f64(a as f64)).collect();
    let kms: Vec<String> = e.branch_kernel_ms.iter().map(|&k| json_f64(k)).collect();
    let _ = write!(
        s,
        ",\"explain\":{{\"slo_ms\":{},\"budget_ms\":{},\"features\":[{}],\"branch_acc\":[{}],\"branch_kernel_ms\":[{}],\"s0_ms\":{},\"s_heavy_ms\":{},\"switch_pred_ms\":{},\"amortized_ms\":{},\"slack_ms\":{},\"chosen\":{},\"feasible\":{},\"cost_only\":{}}}",
        json_f64(e.slo_ms),
        json_f64(e.budget_ms),
        feats.join(","),
        accs.join(","),
        kms.join(","),
        json_f64(e.s0_ms),
        json_f64(e.s_heavy_ms),
        json_f64(e.switch_pred_ms),
        json_f64(e.amortized_ms),
        json_f64(e.slack_ms),
        e.chosen,
        e.feasible,
        e.cost_only
    );
    s.push('}');
    s
}

/// Render an `f64` as a JSON number. Rust's `Display` is
/// shortest-round-trip, so parsing the output yields the same bits;
/// non-finite values (which JSON cannot carry) map to `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `Display` omits ".0" for integral floats; keep them numbers.
        s
    } else {
        "null".to_string()
    }
}

/// Escape a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value. Minimal by design: enough to read traces back,
/// nothing more.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null` (also produced for non-finite floats).
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Arr(Vec<Value>),
    /// JSON object with ordered keys.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a whole non-negative
    /// number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Parse one JSON document.
fn parse_json(src: &str) -> Result<Value, String> {
    let bytes = src.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing input at byte {pos}"));
    }
    Ok(v)
}

/// Parse a JSONL document: one JSON value per non-empty line.
pub fn parse_jsonl(src: &str) -> Result<Vec<Value>, String> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        out.push(v);
    }
    Ok(out)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("expected {lit:?} at byte {pos}", pos = *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|e| format!("bad number {text:?}: {e}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|e| format!("bad \\u escape: {e}"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".to_string()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Advance over one UTF-8 scalar.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let Some(c) = rest.chars().next() else {
                    return Err("unterminated string".to_string());
                };
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        let v = parse_value(b, pos)?;
        map.insert(key, v);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{DecisionExplain, FeatureBen, RoundRecord};
    use crate::sink::SpanKind;

    fn sample_bundle() -> ObsBundle {
        let events = vec![
            TraceEvent::Span(SpanRecord {
                stream: 1,
                gof: 0,
                kind: SpanKind::Detect,
                label: "",
                depth: 0,
                t0: 1.5,
                t1: 9.875,
            }),
            TraceEvent::Decision(Box::new(DecisionRecord {
                stream: 1,
                gof: 0,
                chosen_key: "r448g8-medianflow".to_string(),
                prev_key: String::new(),
                frames: 8,
                per_frame_ms: 7.25,
                slowdown: 1.0,
                explain: DecisionExplain {
                    slo_ms: 33.3,
                    budget_ms: 29.304,
                    features: vec![FeatureBen {
                        name: "Light",
                        ben: 0.5,
                    }],
                    branch_acc: vec![0.25, 0.5],
                    branch_kernel_ms: vec![4.0, 9.0],
                    feasible: true,
                    chosen: 1,
                    ..Default::default()
                },
                ..Default::default()
            })),
            TraceEvent::Round(RoundRecord {
                idx: 0,
                threshold_ms: 12.5,
                members: vec![0, 1],
            }),
        ];
        ObsBundle { events }
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let bundle = sample_bundle();
        let jsonl = bundle.to_jsonl();
        let values = parse_jsonl(&jsonl).expect("trace must parse");
        // meta + 3 events
        assert_eq!(values.len(), 4);
        assert_eq!(values[0].get("type").and_then(Value::as_str), Some("meta"));
        let span = &values[1];
        assert_eq!(span.get("kind").and_then(Value::as_str), Some("detect"));
        assert_eq!(span.get("t1").and_then(Value::as_f64), Some(9.875));
        let dec = &values[2];
        assert_eq!(
            dec.get("chosen_key").and_then(Value::as_str),
            Some("r448g8-medianflow")
        );
        let explain = dec.get("explain").expect("explain present");
        assert_eq!(
            explain
                .get("branch_acc")
                .and_then(Value::as_arr)
                .map(<[Value]>::len),
            Some(2)
        );
        let round = &values[3];
        assert_eq!(round.get("idx").and_then(Value::as_u64), Some(0));
    }

    #[test]
    fn serialization_is_deterministic() {
        let bundle = sample_bundle();
        assert_eq!(bundle.to_jsonl(), bundle.to_jsonl());
    }

    #[test]
    fn float_rendering_round_trips_bits() {
        for v in [0.0, 1.0, 33.3, 0.1 + 0.2, f64::MIN_POSITIVE, 1e300] {
            let s = json_f64(v);
            let back: f64 = s.parse().expect("parses");
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {s}");
        }
        assert_eq!(json_f64(f64::NAN), "null");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let lit = json_str(nasty);
        let mut pos = 0;
        let parsed = parse_string(lit.as_bytes(), &mut pos).expect("parses");
        assert_eq!(parsed, nasty);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,2").is_err());
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_jsonl("{\"ok\":true}\nnot json\n").is_err());
    }
}
