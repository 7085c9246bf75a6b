//! The one record writer behind the JSONL format: [`crate::JsonlSink`]
//! puts its lines in a file and [`crate::FlightRecorder`] in its ring, so
//! a dump line is a `--trace-out` line by construction. The Chrome and
//! report sinks share the args renderer and the counter totals.

use crate::json::{escape_json, push_joined};
use crate::ArgValue;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `cat/name`: how a series is keyed.
pub(crate) fn key(cat: &str, name: &str) -> String {
    format!("{cat}/{name}")
}

/// Counter running totals by `cat/name`. A sink advances a total under
/// the lock it writes the counter's record under, so the totals of one
/// counter reach its output in increasing order.
#[derive(Default)]
pub(crate) struct Totals(pub(crate) BTreeMap<String, u64>);

impl Totals {
    /// Add `delta` to the counter `cat/name`; its new total.
    pub(crate) fn add(&mut self, cat: &str, name: &str, delta: u64) -> u64 {
        let total = self.0.entry(key(cat, name)).or_insert(0);
        *total += delta;
        *total
    }
}

/// An event's args as one JSON object.
pub(crate) fn args_object(args: &[(&str, ArgValue)]) -> String {
    let mut out = String::new();
    push_joined(&mut out, '{', '}', args, |out, (k, v)| {
        out.push_str(&escape_json(k));
        out.push(':');
        match v {
            ArgValue::U64(n) => out.push_str(&n.to_string()),
            ArgValue::Bool(b) => out.push_str(&b.to_string()),
            ArgValue::Str(s) => out.push_str(&escape_json(s)),
            ArgValue::List(items) => push_joined(out, '[', ']', items, |out, item| {
                out.push_str(&escape_json(item));
            }),
        }
    });
    out
}

/// Where [`Records`] puts a rendered line.
pub(crate) trait Lines {
    /// Keep one record's line (it has no newline of its own).
    fn put(&mut self, line: String);
}

/// The record writer: each observation becomes one JSON object in `out`.
/// Its owner keeps it behind one lock, so a counter's total and its
/// line's place in the output agree.
pub(crate) struct Records<L> {
    pub(crate) out: L,
    totals: Totals,
}

impl<L: Lines> Records<L> {
    pub(crate) fn new(out: L) -> Self {
        Records {
            out,
            totals: Totals::default(),
        }
    }

    pub(crate) fn span(&mut self, cat: &str, name: &str, track: u32, start_us: u64, dur_us: u64) {
        let mut line = head("span", cat, name);
        let _ = write!(
            line,
            ",\"track\":{track},\"ts_us\":{start_us},\"dur_us\":{dur_us}}}"
        );
        self.out.put(line);
    }

    pub(crate) fn event(
        &mut self,
        cat: &str,
        name: &str,
        track: u32,
        ts_us: u64,
        args: &[(&str, ArgValue)],
    ) {
        let args = args_object(args);
        let mut line = head("event", cat, name);
        let _ = write!(
            line,
            ",\"track\":{track},\"ts_us\":{ts_us},\"args\":{args}}}"
        );
        self.out.put(line);
    }

    pub(crate) fn counter(&mut self, cat: &str, name: &str, ts_us: u64, delta: u64) {
        let total = self.totals.add(cat, name, delta);
        let mut line = head("counter", cat, name);
        let _ = write!(
            line,
            ",\"ts_us\":{ts_us},\"delta\":{delta},\"total\":{total}}}"
        );
        self.out.put(line);
    }

    pub(crate) fn gauge(&mut self, cat: &str, name: &str, track: u32, ts_us: u64, value: u64) {
        let mut line = head("gauge", cat, name);
        let _ = write!(
            line,
            ",\"track\":{track},\"ts_us\":{ts_us},\"value\":{value}}}"
        );
        self.out.put(line);
    }

    pub(crate) fn histogram(&mut self, cat: &str, name: &str, value: u64) {
        let mut line = head("histogram", cat, name);
        let _ = write!(line, ",\"value\":{value}}}");
        self.out.put(line);
    }
}

/// A record's line up to its shape's own fields: every shape opens with
/// `type`, `cat` and `name`.
fn head(ty: &str, cat: &str, name: &str) -> String {
    let (cat, name) = (escape_json(cat), escape_json(name));
    format!("{{\"type\":\"{ty}\",\"cat\":{cat},\"name\":{name}")
}

/// A flight dump: a header naming why and how many records follow, then
/// one line per record.
pub(crate) fn dump<'a>(reason: &str, lines: impl ExactSizeIterator<Item = &'a str>) -> String {
    let mut out = format!(
        "{{\"type\":\"flight_dump\",\"reason\":{},\"records\":{}}}\n",
        escape_json(reason),
        lines.len()
    );
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_render_as_one_object() {
        let args = [
            ("n", ArgValue::U64(3)),
            ("ok", ArgValue::Bool(true)),
            ("s", ArgValue::Str("a\"b".into())),
            ("xs", ArgValue::List(vec!["x".into(), "y".into()])),
        ];
        assert_eq!(
            args_object(&args),
            r#"{"n":3,"ok":true,"s":"a\"b","xs":["x","y"]}"#
        );
        assert_eq!(args_object(&[]), "{}");
    }
}
