//! The event data model: one flat JSON object per recorded occurrence.
//!
//! Every event carries four reserved fields — `ev` (the kind), `step`,
//! `epoch`, and `t_ns` (monotonic nanoseconds since the recorder was
//! created) — plus any number of kind-specific fields. The JSONL sink
//! writes exactly one event per line, so a metrics file is greppable,
//! streamable, and parseable with the vendored `serde_json` stub.
//!
//! # Non-finite guard
//!
//! JSON has no NaN/±inf, and the vendored emitter would silently turn
//! them into `null` (which a strict schema check then rejects). Float
//! fields therefore pass through a guard: non-finite values are encoded
//! as the strings `"NaN"`, `"inf"`, and `"-inf"`, and
//! [`Event::f64_field`] decodes them back, so a diverged run's
//! `grad_norm: NaN` survives the round-trip instead of corrupting the
//! stream. `-0.0` round-trips bit-exactly (the stub emits `-0.0`).

use serde::Value;

/// Reserved key holding the event kind.
pub const KEY_KIND: &str = "ev";
/// Reserved key holding the optimizer-step stamp.
pub const KEY_STEP: &str = "step";
/// Reserved key holding the epoch stamp.
pub const KEY_EPOCH: &str = "epoch";
/// Reserved key holding monotonic nanoseconds since recorder start.
pub const KEY_T_NS: &str = "t_ns";

/// A dynamically typed event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (exact up to 2^53 in the JSON data model).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float; non-finite values are guarded as strings on the wire.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form string.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<f32> for FieldValue {
    fn from(v: f32) -> Self {
        FieldValue::F64(f64::from(v))
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl FieldValue {
    /// Render into the JSON data model, applying the non-finite guard.
    pub fn to_value(&self) -> Value {
        match self {
            FieldValue::U64(n) => Value::Num(*n as f64),
            FieldValue::I64(n) => Value::Num(*n as f64),
            FieldValue::F64(x) if x.is_nan() => Value::Str("NaN".to_string()),
            FieldValue::F64(x) if x.is_infinite() && *x > 0.0 => Value::Str("inf".to_string()),
            FieldValue::F64(x) if x.is_infinite() => Value::Str("-inf".to_string()),
            FieldValue::F64(x) => Value::Num(*x),
            FieldValue::Bool(b) => Value::Bool(*b),
            FieldValue::Str(s) => Value::Str(s.clone()),
        }
    }

    /// Interpret as a float, decoding the non-finite guard strings.
    fn as_f64(&self) -> Option<f64> {
        match self {
            FieldValue::U64(n) => Some(*n as f64),
            FieldValue::I64(n) => Some(*n as f64),
            FieldValue::F64(x) => Some(*x),
            FieldValue::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            FieldValue::Bool(_) => None,
        }
    }

    /// Interpret as an unsigned integer (floats with no fraction qualify).
    fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(n) => Some(*n),
            FieldValue::I64(n) => u64::try_from(*n).ok(),
            FieldValue::F64(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= 9.0e15 => Some(*x as u64),
            _ => None,
        }
    }
}

/// One recorded occurrence: kind + reserved stamps + flat fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event kind (`step`, `span`, `epoch`, `checkpoint_write`, ...).
    pub kind: String,
    /// Optimizer step the recorder was at when the event fired.
    pub step: u64,
    /// Epoch the recorder was at when the event fired.
    pub epoch: u64,
    /// Monotonic nanoseconds since the recorder was created.
    pub t_ns: u64,
    /// Kind-specific payload, insertion-ordered.
    pub fields: Vec<(String, FieldValue)>,
}

impl Event {
    /// Render into a flat JSON object (`{"ev":..,"step":..,...}`).
    pub fn to_value(&self) -> Value {
        let mut pairs: Vec<(String, Value)> = Vec::with_capacity(4 + self.fields.len());
        pairs.push((KEY_KIND.to_string(), Value::Str(self.kind.clone())));
        pairs.push((KEY_STEP.to_string(), Value::Num(self.step as f64)));
        pairs.push((KEY_EPOCH.to_string(), Value::Num(self.epoch as f64)));
        pairs.push((KEY_T_NS.to_string(), Value::Num(self.t_ns as f64)));
        for (k, v) in &self.fields {
            pairs.push((k.clone(), v.to_value()));
        }
        Value::Obj(pairs)
    }

    /// Rebuild (and schema-check) an event from a parsed JSON object.
    ///
    /// Schema: the value must be an object; `ev` must be a non-empty
    /// string; `step`, `epoch`, and `t_ns` must be non-negative
    /// integer-valued numbers. Every other key becomes a field; numbers
    /// collapse to [`FieldValue::F64`] (the JSON data model is `f64`).
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let Value::Obj(pairs) = v else {
            return Err("event is not a JSON object".to_string());
        };
        let mut kind = None;
        let mut step = None;
        let mut epoch = None;
        let mut t_ns = None;
        let mut fields = Vec::new();
        for (k, val) in pairs {
            match k.as_str() {
                KEY_KIND => match val {
                    Value::Str(s) if !s.is_empty() => kind = Some(s.clone()),
                    _ => return Err("`ev` must be a non-empty string".to_string()),
                },
                KEY_STEP | KEY_EPOCH | KEY_T_NS => {
                    let n = match val {
                        Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => *n as u64,
                        _ => return Err(format!("`{k}` must be a non-negative integer")),
                    };
                    match k.as_str() {
                        KEY_STEP => step = Some(n),
                        KEY_EPOCH => epoch = Some(n),
                        _ => t_ns = Some(n),
                    }
                }
                _ => {
                    let fv = match val {
                        Value::Num(n) => FieldValue::F64(*n),
                        Value::Bool(b) => FieldValue::Bool(*b),
                        Value::Str(s) => FieldValue::Str(s.clone()),
                        Value::Null => FieldValue::Str("null".to_string()),
                        _ => {
                            return Err(format!("field `{k}` holds a nested value (flat only)"));
                        }
                    };
                    fields.push((k.clone(), fv));
                }
            }
        }
        Ok(Event {
            kind: kind.ok_or("missing `ev` kind")?,
            step: step.ok_or("missing `step`")?,
            epoch: epoch.ok_or("missing `epoch`")?,
            t_ns: t_ns.ok_or("missing `t_ns`")?,
            fields,
        })
    }

    /// Look up a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Float field (decoding the non-finite guard strings).
    pub fn f64_field(&self, name: &str) -> Option<f64> {
        self.field(name).and_then(FieldValue::as_f64)
    }

    /// Unsigned-integer field.
    pub fn u64_field(&self, name: &str) -> Option<u64> {
        self.field(name).and_then(FieldValue::as_u64)
    }

    /// String field.
    pub fn str_field(&self, name: &str) -> Option<&str> {
        match self.field(name) {
            Some(FieldValue::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Boolean field.
    pub fn bool_field(&self, name: &str) -> Option<bool> {
        match self.field(name) {
            Some(FieldValue::Bool(b)) => Some(*b),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(fields: Vec<(&str, FieldValue)>) -> Event {
        Event {
            kind: "test".to_string(),
            step: 7,
            epoch: 2,
            t_ns: 123,
            fields: fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        }
    }

    #[test]
    fn reserved_fields_roundtrip() {
        let e = ev(vec![("loss", FieldValue::F64(1.5)), ("msg", FieldValue::Str("x".into()))]);
        let back = Event::from_value(&e.to_value()).expect("valid event");
        assert_eq!(back.kind, "test");
        assert_eq!((back.step, back.epoch, back.t_ns), (7, 2, 123));
        assert_eq!(back.f64_field("loss"), Some(1.5));
        assert_eq!(back.str_field("msg"), Some("x"));
    }

    #[test]
    fn non_finite_guard_roundtrips() {
        let e = ev(vec![
            ("nan", FieldValue::F64(f64::NAN)),
            ("pinf", FieldValue::F64(f64::INFINITY)),
            ("ninf", FieldValue::F64(f64::NEG_INFINITY)),
        ]);
        let back = Event::from_value(&e.to_value()).expect("valid event");
        assert!(back.f64_field("nan").expect("nan field").is_nan());
        assert_eq!(back.f64_field("pinf"), Some(f64::INFINITY));
        assert_eq!(back.f64_field("ninf"), Some(f64::NEG_INFINITY));
        // on the wire they are guard strings, not null
        match back.field("nan") {
            Some(FieldValue::Str(s)) => assert_eq!(s, "NaN"),
            other => panic!("expected guard string, got {other:?}"),
        }
    }

    #[test]
    fn negative_zero_survives() {
        let e = ev(vec![("z", FieldValue::F64(-0.0))]);
        let back = Event::from_value(&e.to_value()).expect("valid event");
        let z = back.f64_field("z").expect("z field");
        assert_eq!(z.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn schema_violations_are_rejected() {
        assert!(Event::from_value(&Value::Arr(vec![])).is_err());
        // missing kind
        let v = Value::Obj(vec![
            ("step".into(), Value::Num(0.0)),
            ("epoch".into(), Value::Num(0.0)),
            ("t_ns".into(), Value::Num(0.0)),
        ]);
        assert!(Event::from_value(&v).is_err());
        // negative step
        let v = Value::Obj(vec![
            ("ev".into(), Value::Str("x".into())),
            ("step".into(), Value::Num(-1.0)),
            ("epoch".into(), Value::Num(0.0)),
            ("t_ns".into(), Value::Num(0.0)),
        ]);
        assert!(Event::from_value(&v).is_err());
        // nested field
        let v = Value::Obj(vec![
            ("ev".into(), Value::Str("x".into())),
            ("step".into(), Value::Num(0.0)),
            ("epoch".into(), Value::Num(0.0)),
            ("t_ns".into(), Value::Num(0.0)),
            ("bad".into(), Value::Arr(vec![])),
        ]);
        assert!(Event::from_value(&v).is_err());
    }

    #[test]
    fn numeric_accessors_convert() {
        assert_eq!(FieldValue::U64(3).as_f64(), Some(3.0));
        assert_eq!(FieldValue::F64(3.0).as_u64(), Some(3));
        assert_eq!(FieldValue::F64(3.5).as_u64(), None);
        assert_eq!(FieldValue::F64(-1.0).as_u64(), None);
        assert_eq!(FieldValue::Str("not a number".into()).as_f64(), None);
    }
}
