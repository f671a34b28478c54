//! The shared report writer: one column spec renders the text table, the
//! CSV and the JSON rows, and every string goes through the one escaper.

use metrics::report::{json_escape, Table, Value};

/// The structural pin on the JSON writer: every value kind, every layout
/// rule (top-level fields and array elements one per line, deeper values
/// inline, empty containers closed in place) and every escape, as one exact
/// document.
#[test]
fn json_document_layout_and_escaping_are_exact() {
    let rows = [("a\"b\\c", 1.25), ("line\nbreak\ttab\r\u{1}é", f64::NAN)];
    let t = Table::of(
        "t",
        &rows,
        &[
            ("name", "name", |r| r.0.into()),
            ("ms", "millis", |r| Value::Float(r.1, 1)),
        ],
    );
    let doc = Value::obj([
        ("digest", "00ff".into()),
        ("ok", true.into()),
        ("n", 7u64.into()),
        ("none", None::<u64>.into()),
        ("nested", Value::obj([("k", Value::Arr(vec![1u64.into()]))])),
        ("empty", Value::Arr(vec![])),
        ("rows", t.json_rows()),
    ]);
    let want = concat!(
        "{\n",
        "  \"digest\": \"00ff\",\n",
        "  \"ok\": true,\n",
        "  \"n\": 7,\n",
        "  \"none\": null,\n",
        "  \"nested\": {\"k\": [1]},\n",
        "  \"empty\": [],\n",
        "  \"rows\": [\n",
        "    {\"name\": \"a\\\"b\\\\c\", \"millis\": 1.25},\n",
        "    {\"name\": \"line\\nbreak\\ttab\\r\\u0001é\", \"millis\": null}\n",
        "  ]\n",
        "}\n",
    );
    assert_eq!(doc.to_json(), want);
    // No raw control byte survives inside a string: the only ones in the
    // document are the layout newlines.
    assert!(doc.to_json().bytes().all(|b| b >= 0x20 || b == b'\n'));
    assert_eq!(json_escape("\u{1f}\u{20}"), "\\u001f ");
}

/// Text-only and JSON-only columns: the text renderings skip the columns
/// without a header, the JSON rows the ones without a key, and typed cells
/// print as `yes`/`no`, `-` and fixed-precision floats in text (JSON carries
/// the full float).
#[test]
fn one_column_spec_feeds_text_csv_and_json() {
    let t = Table::of(
        "",
        &[("a,b", 2.0_f64)],
        &[
            ("who", "label", |r| r.0.into()),
            ("ok", "ok", |_| false.into()),
            ("x", "", |r| Value::Float(r.1, 2)),
            ("", "bound", |_| Value::Null),
        ],
    );
    assert_eq!(t.to_csv(), "who,ok,x\n\"a,b\",no,2.00\n");
    assert_eq!(t.render(), "who  ok     x\n-------------\na,b  no  2.00\n");
    let rows = t.json_rows();
    assert_eq!(
        Value::obj([("r", rows)]).to_json(),
        "{\n  \"r\": [\n    {\"label\": \"a,b\", \"ok\": false, \"bound\": null}\n  ]\n}\n"
    );
    assert_eq!(Value::Null.to_string(), "-");
    assert_eq!(t.num_rows(), 1);
}
