//! A dependency-free JSON writer (the vendored `serde` is a marker stand-in
//! with no serializer) and the one reader the parent modes need: pulling a
//! metric's value back out of a child's result line.

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all the digits `f64` round-trips through; non-finite
/// values (which JSON cannot carry) become `null` and fail the reader.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`
pub fn metrics_object(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("{}: {{\"value\": {}, \"unit\": {}}}", quote(name), number(*value), quote(unit))
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        metrics_object(metrics)
    )
}

/// The number after `"key": ` in `text`, if any (first occurrence).
fn number_after(text: &str, key: &str) -> Option<f64> {
    let at = text.find(key)? + key.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The value of metric `name` in a result line written by [`result_line`].
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    number_after(line, &format!("{}: {{\"value\":", quote(name)))
}

/// A top-level boolean / integer field of a result line.
pub fn field_value(line: &str, field: &str) -> Option<String> {
    let key = format!("{}:", quote(field));
    let at = line.find(&key)? + key.len();
    let rest = line[at..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().to_string())
}
