//! The one schema of `REPRO.json`.
//!
//! A [`Record`] is an ordered list of `(name, class, value)` built where a
//! claim row is built.  The [`Class`] of a field is the whole gating policy: the
//! writer ([`write()`]), the table printer ([`print()`]) and the `--check`
//! comparator ([`crate::check`]) all read it from the record, so a field is
//! declared — name, meaning and whether CI pins it — exactly once, at the
//! call site that measures it.

use crate::json::Value;
use std::path::Path;

/// What the `--check` gate does with a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Identifies the record within its file; baseline records are matched
    /// to fresh ones on the key fields.
    Key,
    /// A function of the seeded, deterministic schedule, never of the host:
    /// must equal the committed baseline or the gate fails.
    Exact,
    /// Recorded for the reader, deliberately never compared.
    Info,
}

/// The value of one field.
#[derive(Debug, Clone, PartialEq)]
pub enum Datum {
    /// A counter; rendered as a JSON integer.
    Unsigned(u64),
    /// A flag.
    Bool(bool),
    /// A label.
    Text(String),
}

impl From<usize> for Datum {
    fn from(x: usize) -> Self {
        Datum::Unsigned(x as u64)
    }
}

impl From<u64> for Datum {
    fn from(x: u64) -> Self {
        Datum::Unsigned(x)
    }
}

impl From<bool> for Datum {
    fn from(b: bool) -> Self {
        Datum::Bool(b)
    }
}

impl From<&str> for Datum {
    fn from(s: &str) -> Self {
        Datum::Text(s.to_string())
    }
}

impl Datum {
    /// The value as it appears in the JSON file.
    fn json(&self) -> String {
        match self {
            Datum::Unsigned(x) => x.to_string(),
            Datum::Bool(b) => b.to_string(),
            Datum::Text(s) => format!("\"{s}\""),
        }
    }

    /// The value as a table cell or key part: the JSON form, labels unquoted.
    pub(crate) fn cell(&self) -> String {
        match self {
            Datum::Text(s) => s.clone(),
            other => other.json(),
        }
    }

    /// Whether a parsed baseline value holds the same thing (counters stay
    /// far below 2^53, so the `f64` the reader parsed them into is exact).
    pub(crate) fn equals(&self, baseline: &Value) -> bool {
        match (self, baseline) {
            (Datum::Unsigned(x), Value::Num(want)) => *x as f64 == *want,
            (Datum::Bool(b), Value::Bool(want)) => b == want,
            (Datum::Text(s), Value::Str(want)) => s == want,
            _ => false,
        }
    }
}

/// One named, classed value of a [`Record`].
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// The JSON key.
    pub name: String,
    /// How `--check` treats the field.
    pub class: Class,
    /// What was measured.
    pub value: Datum,
}

/// One measured configuration: the fields of one line of a file's
/// `"records"` array, in the order they are written.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    fields: Vec<Field>,
}

impl Record {
    /// An empty record.
    pub fn new() -> Self {
        Record::default()
    }

    fn with(mut self, name: &str, class: Class, value: Datum) -> Self {
        self.fields.push(Field { name: name.to_string(), class, value });
        self
    }

    /// Appends a [`Class::Key`] field.
    pub fn key(self, name: &str, value: impl Into<Datum>) -> Self {
        self.with(name, Class::Key, value.into())
    }

    /// Appends a [`Class::Exact`] field.
    pub fn exact(self, name: &str, value: impl Into<Datum>) -> Self {
        self.with(name, Class::Exact, value.into())
    }

    /// Appends a [`Class::Info`] field.
    pub fn info(self, name: &str, value: impl Into<Datum>) -> Self {
        self.with(name, Class::Info, value.into())
    }

    /// The fields in write order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// The value of the field called `name`.
    pub fn get(&self, name: &str) -> Option<&Datum> {
        self.fields.iter().find(|f| f.name == name).map(|f| &f.value)
    }

    /// The record's identity within its file: its key fields rendered
    /// `name=value`, joined by spaces.
    pub fn key_string(&self) -> String {
        join_key(
            self.fields
                .iter()
                .filter(|f| f.class == Class::Key)
                .map(|f| (&*f.name, f.value.cell())),
        )
    }
}

/// Renders `name=value` parts the way every key in a message is shown.
pub(crate) fn join_key<'a>(parts: impl Iterator<Item = (&'a str, String)>) -> String {
    let parts: Vec<String> = parts.map(|(name, value)| format!("{name}={value}")).collect();
    if parts.is_empty() {
        "<unkeyed>".to_string()
    } else {
        parts.join(" ")
    }
}

/// Workload description embedded in the header of each file.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The `"bench"` name.
    pub name: &'static str,
    /// Free-text description of sizes and shapes.
    pub detail: String,
    /// Items per run (claim rows for `REPRO.json`).
    pub items: usize,
    /// Unit of those items.
    pub throughput_unit: &'static str,
}

/// The lines of a file's `"records"` array, one record per line.
fn render_records(records: &[Record]) -> String {
    let mut out = String::new();
    for (i, r) in records.iter().enumerate() {
        let fields: Vec<String> =
            r.fields.iter().map(|f| format!("\"{}\": {}", f.name, f.value.json())).collect();
        let comma = if i + 1 < records.len() { "," } else { "" };
        out.push_str(&format!("    {{{}}}{comma}\n", fields.join(", ")));
    }
    out
}

/// Refuses a file the comparator could not check record by record: every
/// record must carry the first record's field names and classes, no two
/// records may agree on every key field (the second would be matched to the
/// first's baseline and never compared).
fn validate(records: &[Record]) -> Result<(), String> {
    fn schema(r: &Record) -> impl Iterator<Item = (&String, Class)> {
        r.fields.iter().map(|f| (&f.name, f.class))
    }
    let mut seen = std::collections::BTreeSet::new();
    for r in records {
        let key = r.key_string();
        if !schema(r).eq(schema(&records[0])) {
            return Err(format!("record [{key}] differs in schema from the file's first record"));
        }
        if !seen.insert(key.clone()) {
            return Err(format!("two records share the key [{key}]"));
        }
    }
    Ok(())
}

/// Writes one claims file: the header (bench name, workload, items, unit,
/// the host's thread count) and one line per record.
///
/// # Errors
///
/// Returns a message naming the offending key — before anything is written —
/// when two records share all key fields or a record's field names or
/// classes differ from the first record's, and the I/O error when the file
/// cannot be written.
pub fn write(path: &Path, workload: &Workload, records: &[Record]) -> Result<(), String> {
    validate(records).map_err(|e| format!("{}: {e}", path.display()))?;
    let out = format!(
        "{{\n  \"bench\": \"{}\",\n  \"workload\": \"{}\",\n  \"items_per_run\": {},\n  \
         \"throughput_unit\": \"{}\",\n  \"host_threads\": {},\n  \"records\": [\n{}  ]\n}}\n",
        workload.name,
        workload.detail,
        workload.items,
        workload.throughput_unit,
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1),
        render_records(records)
    );
    std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Prints the records as an aligned table, one column per field.
pub fn print(title: &str, records: &[Record]) {
    let Some(first) = records.first() else { return };
    let header: Vec<String> = first.fields.iter().map(|f| f.name.clone()).collect();
    let rows: Vec<Vec<String>> =
        records.iter().map(|r| r.fields.iter().map(|f| f.value.cell()).collect()).collect();
    let lines = || std::iter::once(&header).chain(&rows);
    let widths: Vec<usize> = (0..header.len())
        .map(|i| lines().map(|row| row[i].chars().count()).max().unwrap_or(0))
        .collect();
    println!("\n== {title} ==");
    for row in lines() {
        let cells: Vec<String> =
            row.iter().zip(&widths).map(|(cell, w)| format!("{cell:>w$}")).collect();
        println!("{}", cells.join("  "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(extra_key: bool) -> Vec<Record> {
        ["fp16", "int8"]
            .iter()
            .map(|&codec| {
                let r = Record::new().key("p", 4usize).key("c", 2usize);
                let r = if extra_key { r.key("codec", codec) } else { r.info("codec", codec) };
                r.exact("words_per_epoch", 4096usize).info("note", "")
            })
            .collect()
    }

    fn workload() -> Workload {
        Workload { name: "t", detail: "d".into(), items: 1, throughput_unit: "u" }
    }

    #[test]
    fn duplicate_key_fails_the_write_and_one_more_key_field_passes() {
        let dir = std::env::temp_dir().join(format!("dmbs_record_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dup.json");
        let err = write(&path, &workload(), &pair(false)).unwrap_err();
        assert!(err.contains("p=4 c=2"), "{err}");
        assert!(!path.exists(), "nothing may be written before the refusal");
        write(&path, &workload(), &pair(true)).unwrap();
        let doc = Value::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("records").unwrap().as_array().unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_record_off_the_first_records_schema_fails_the_write() {
        let mut records = pair(true);
        records[1] = records[1].clone().info("extra", 1usize);
        let err = validate(&records).unwrap_err();
        assert!(err.contains("codec=int8") && err.contains("schema"), "{err}");
        // Same names, one class changed: still refused.
        let mut records = pair(true);
        records[1] = Record::new()
            .key("p", 4usize)
            .key("c", 2usize)
            .key("codec", "int8")
            .info("words_per_epoch", 4096usize)
            .info("note", "");
        assert!(validate(&records).is_err());
    }

    /// Rebuilds the records of a committed file from its parsed values and
    /// the class of each field, and renders them back.
    fn rebuilt(doc: &Value, classes: &[(&str, Class)]) -> String {
        let records: Vec<Record> = doc
            .get("records")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|base| {
                let Value::Object(fields) = base else { panic!("record is not an object") };
                assert_eq!(fields.len(), classes.len());
                fields.iter().zip(classes).fold(
                    Record::new(),
                    |r, ((name, value), (want, class))| {
                        assert_eq!(name, want);
                        let datum = match (class, value) {
                            (Class::Key | Class::Exact, Value::Num(x)) => {
                                Datum::Unsigned(*x as u64)
                            }
                            (Class::Key | Class::Info, Value::Str(s)) => Datum::Text(s.clone()),
                            (Class::Exact, Value::Bool(b)) => Datum::Bool(*b),
                            other => panic!("{name}: unexpected {other:?}"),
                        };
                        r.with(name, *class, datum)
                    },
                )
            })
            .collect();
        validate(&records).unwrap();
        render_records(&records)
    }

    #[test]
    fn committed_baselines_render_back_byte_for_byte() {
        use Class::{Exact, Info, Key};
        let repro: &[(&str, Class)] = &[
            ("claim", Key),
            ("at", Key),
            ("paper", Info),
            ("lhs", Exact),
            ("relation", Info),
            ("rhs", Exact),
            ("holds", Exact),
            ("reason", Info),
        ];
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci/baseline/REPRO.json");
        let text = std::fs::read_to_string(path).unwrap();
        // The header is left out of the pin: `host_threads` is the running
        // host's.
        let (_, block) = text.split_once("  \"records\": [\n").unwrap();
        let block = block.strip_suffix("  ]\n}\n").unwrap();
        assert_eq!(rebuilt(&Value::parse(&text).unwrap(), repro), block);
    }
}
