//! The one artifact pipeline behind every `BENCH_*.json`: the row
//! grammar the emitters print, the JSON writer, the JSON reader, and the
//! bound check that holds a re-run to the committed file. Nothing else
//! in the workspace knows any of the four.
//!
//! **Rows.** An emitter (a test, a harness binary) prints one line per
//! measurement: `MARKER: key=value key=value …`. A bare word, a repeated
//! key or an empty row is an error that quotes the line. Where a gate
//! has several kinds of row ([`Grammar::kinds`]) the first token — a bare
//! word (`KERNELS: cell name=…`) or the key of a `key=value` (`SERVE:
//! verdict=pass`) — selects the row's `kind` field.
//!
//! **Files.** Every artifact has the same shape, flat objects of
//! numbers, strings and booleans under exactly these keys in this order;
//! [`Artifact::render`] and [`Artifact::parse`] round-trip it:
//!
//! ```json
//! {
//!   "gate": "scale-check", "budget_secs": 300, "wall_secs": 50.7, "skipped": 1,
//!   "summary": {"max_executed_p": 100000},
//!   "rows": [{"label": "p10k", "ranks_per_sec": 30557, "peak_rss_kb": 94160}],
//!   "bounds": [{"row": "p10k", "field": "ranks_per_sec", "value": 30557,
//!               "baseline": 30557, "at": ">=", "factor": 0.5, "ok": true}]
//! }
//! ```

/// A field of a row: a token that reads as a finite number is one,
/// everything else is a string (booleans are written only by the
/// pipeline itself: `carried`, `ok`).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Num(f64),
    Str(String),
    Bool(bool),
}

impl Value {
    /// The one number-or-string JSON renderer.
    fn render(&self, out: &mut String) {
        match self {
            // Both forms are JSON and read back exactly; the exponent keeps
            // a fitted constant (alpha = 1.8e-7) legible.
            Value::Num(n) if *n != 0.0 && n.abs() < 1e-4 => out.push_str(&format!("{n:e}")),
            Value::Num(n) => out.push_str(&n.to_string()),
            Value::Bool(b) => out.push_str(&b.to_string()),
            Value::Str(s) => quote(s, out),
        }
    }
}

/// `text` as a JSON string; `\` escapes `"` and itself (a marker token
/// holds no whitespace, so nothing else needs one).
fn quote(text: &str, out: &mut String) {
    out.push('"');
    for c in text.chars() {
        if matches!(c, '"' | '\\') {
            out.push('\\');
        }
        out.push(c);
    }
    out.push('"');
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

/// One flat object, field order kept: a marker line, a summary, a bound
/// verdict.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row(pub Vec<(String, Value)>);

impl Row {
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The numeric field `key`, `None` when absent or not a number.
    pub fn num(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Value::Num(n)) => Some(*n),
            _ => None,
        }
    }

    /// The string field `key`, `""` when absent or not a string.
    pub fn str(&self, key: &str) -> &str {
        match self.get(key) {
            Some(Value::Str(s)) => s,
            _ => "",
        }
    }

    pub fn is(&self, key: &str) -> bool {
        self.get(key) == Some(&Value::Bool(true))
    }

    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Row {
        self.0.push((key.to_string(), value.into()));
        self
    }

    fn render(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.0.iter().enumerate() {
            out.push_str(if i == 0 { "" } else { ", " });
            quote(k, out);
            out.push_str(": ");
            v.render(out);
        }
        out.push('}');
    }
}

/// What a gate's emitters print: the marker that opens a row and, where
/// the gate has several kinds of row, `(first token, kind)` pairs.
#[derive(Debug, Clone, Copy)]
pub struct Grammar {
    pub marker: &'static str,
    pub kinds: &'static [(&'static str, &'static str)],
}

impl Grammar {
    /// Parse one output line: `Ok(None)` when it carries no marker (under
    /// `--nocapture` libtest's own prefix may share the line, so the
    /// marker is searched for anywhere; a gate whose figures are all
    /// derived has the empty marker and no rows), the row when it does,
    /// and an error quoting the line when the row is malformed.
    pub fn parse_line(&self, line: &str) -> Result<Option<Row>, String> {
        let Some(at) = line.find(self.marker).filter(|_| !self.marker.is_empty()) else {
            return Ok(None);
        };
        let bad = |why: String| format!("malformed {} row ({why}): `{}`", self.marker, line.trim());
        let mut row = Row::default();
        for (i, token) in line[at + self.marker.len()..].split_whitespace().enumerate() {
            let pair = token.split_once('=');
            let names_kind = i == 0 && !self.kinds.is_empty();
            if names_kind {
                let first = pair.map_or(token, |(key, _)| key);
                let kind = self.kinds.iter().find(|(word, _)| *word == first);
                let (_, kind) = kind.ok_or_else(|| bad(format!("unknown row kind `{first}`")))?;
                row = row.with("kind", *kind);
            }
            match pair {
                Some((key, _)) if key.is_empty() || row.get(key).is_some() => {
                    return Err(bad(format!("empty or repeated key in `{token}`")));
                }
                Some((key, text)) => match text.parse::<f64>() {
                    Ok(n) if n.is_finite() => row = row.with(key, n),
                    _ => row = row.with(key, text),
                },
                None if names_kind => {}
                None => return Err(bad(format!("token `{token}` is not key=value"))),
            }
        }
        if row.0.is_empty() {
            return Err(bad("no fields".to_string()));
        }
        Ok(Some(row))
    }
}

/// The top-level keys of every artifact, in file order: four scalars
/// (`skipped` counts the steps the budget or the memory did not reach),
/// the summary object and the two row lists.
const SCHEMA: [&str; 7] =
    ["gate", "budget_secs", "wall_secs", "skipped", "summary", "rows", "bounds"];

/// One `BENCH_*.json`, in memory; `head` holds the four scalars.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Artifact {
    pub head: Row,
    pub summary: Row,
    pub rows: Vec<Row>,
    pub bounds: Vec<Row>,
}

impl Artifact {
    /// The one JSON writer: header scalars, then one flat object per line.
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (key, value) in &self.head.0 {
            out.push_str(&format!("\n  \"{key}\": "));
            value.render(&mut out);
            out.push(',');
        }
        out.push_str("\n  \"summary\": ");
        self.summary.render(&mut out);
        for (key, list) in [("rows", &self.rows), ("bounds", &self.bounds)] {
            out.push_str(&format!(",\n  \"{key}\": ["));
            for (i, row) in list.iter().enumerate() {
                out.push_str(if i == 0 { "\n    " } else { ",\n    " });
                row.render(&mut out);
            }
            out.push_str(if list.is_empty() { "]" } else { "\n  ]" });
        }
        out.push_str("\n}\n");
        out
    }

    /// The one JSON reader: exactly what [`Artifact::render`] writes, in
    /// any spacing; anything else — an unknown, missing, repeated or
    /// misplaced key, a nested value — is an error.
    pub fn parse(text: &str) -> Result<Artifact, String> {
        let (mut reader, mut art) = (Reader(text), Artifact::default());
        for (i, key) in SCHEMA.into_iter().enumerate() {
            reader.expect(if i == 0 { '{' } else { ',' })?;
            let found = reader.string()?;
            if found != key {
                return Err(format!("expected key `{key}`, found `{found}`"));
            }
            reader.expect(':')?;
            match key {
                "summary" => art.summary = reader.row()?,
                "rows" => art.rows = reader.rows()?,
                "bounds" => art.bounds = reader.rows()?,
                _ => art.head.0.push((found, reader.scalar()?)),
            }
        }
        reader.expect('}')?;
        match reader.0.trim() {
            "" => Ok(art),
            trailing => Err(format!("trailing text after the artifact: `{trailing}`")),
        }
    }

    /// The object a bound's `row` names: `summary`, or the row whose
    /// `id_field` reads `id`.
    fn find(&self, id_field: &str, id: &str) -> Option<&Row> {
        if id == "summary" {
            return Some(&self.summary);
        }
        self.rows.iter().find(|r| r.str(id_field) == id)
    }

    /// The rows that carry `id` in `id_field`, marked `"carried": true`:
    /// what a skipped step hands from the committed file to the rewritten
    /// one, so a cell that did not run keeps its floor.
    pub fn carry(&self, id_field: &str, id: &str) -> Vec<Row> {
        let matching = self.rows.iter().filter(|r| !id.is_empty() && r.str(id_field) == id);
        let mark = |row: &Row| {
            if row.is("carried") {
                row.clone()
            } else {
                row.clone().with("carried", true)
            }
        };
        matching.map(mark).collect()
    }
}

/// A recursive-descent reader over the artifact's JSON subset.
struct Reader<'a>(&'a str);

impl Reader<'_> {
    fn eat(&mut self, c: char) -> bool {
        self.0 = self.0.trim_start();
        let rest = self.0.strip_prefix(c);
        self.0 = rest.unwrap_or(self.0);
        rest.is_some()
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.eat(c) {
            return Ok(());
        }
        Err(format!("expected `{c}` at `{}`", self.0.chars().take(24).collect::<String>()))
    }

    fn row(&mut self) -> Result<Row, String> {
        let mut row = Row::default();
        self.expect('{')?;
        while !self.eat('}') {
            if !row.0.is_empty() {
                self.expect(',')?;
            }
            let key = self.string()?;
            self.expect(':')?;
            if row.get(&key).is_some() {
                return Err(format!("repeated key `{key}`"));
            }
            row.0.push((key, self.scalar()?));
        }
        Ok(row)
    }

    fn rows(&mut self) -> Result<Vec<Row>, String> {
        let mut rows = Vec::new();
        self.expect('[')?;
        while !self.eat(']') {
            if !rows.is_empty() {
                self.expect(',')?;
            }
            rows.push(self.row()?);
        }
        Ok(rows)
    }

    /// A string as [`quote`] writes one.
    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let (mut out, mut escaped) = (String::new(), false);
        for (i, c) in self.0.char_indices() {
            match c {
                '"' if !escaped => {
                    self.0 = &self.0[i + 1..];
                    return Ok(out);
                }
                '\\' if !escaped => escaped = true,
                c => {
                    out.push(c);
                    escaped = false;
                }
            }
        }
        Err("unterminated string".to_string())
    }

    fn scalar(&mut self) -> Result<Value, String> {
        self.0 = self.0.trim_start();
        if self.0.starts_with('"') {
            return self.string().map(Value::Str);
        }
        let (word, rest) = self.0.split_at(self.0.find([',', '}', ']']).unwrap_or(self.0.len()));
        self.0 = rest;
        match (word.trim(), word.trim().parse::<f64>()) {
            ("true", _) => Ok(Value::Bool(true)),
            ("false", _) => Ok(Value::Bool(false)),
            (_, Ok(n)) if n.is_finite() => Ok(Value::Num(n)),
            (text, _) => Err(format!("expected a number, string or boolean, found `{text}`")),
        }
    }
}

/// Which side of `factor × committed` a re-run value must stay on, or
/// (a count that repeats run to run) that it must equal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum At {
    Least,
    Most,
    Equal,
}

impl At {
    pub fn symbol(self) -> &'static str {
        match self {
            At::Least => ">=",
            At::Most => "<=",
            At::Equal => "==",
        }
    }
}

/// One regression bound of a gate: `field` of `row` must be at least /
/// at most / exactly `factor ×` its value in the committed artifact. `row` is
/// `"summary"`, a row id, or `"*"` for every row with an id that the
/// re-run executed.
#[derive(Debug, Clone, Copy)]
pub struct Bound {
    pub row: &'static str,
    pub field: &'static str,
    pub at: At,
    pub factor: f64,
}

/// The one bound check. One verdict row per (bound, row) of `fresh` —
/// `row`, `field`, `value`, `baseline`, `at`, `factor`, `ok` — against
/// `committed`: a row or field the committed file lacks passes (nothing
/// to be held to), a bounded field absent from the re-run row **fails**,
/// and a carried row is not compared against itself.
pub fn check(
    bounds: &[Bound],
    id_field: &str,
    fresh: &Artifact,
    committed: Option<&Artifact>,
) -> Vec<Row> {
    let mut verdicts = Vec::new();
    for bound in bounds {
        let executed = fresh.rows.iter().filter(|r| !r.is("carried")).map(|r| r.str(id_field));
        let executed = executed.filter(|id| !id.is_empty());
        let ids: Vec<&str> = if bound.row == "*" { executed.collect() } else { vec![bound.row] };
        for id in ids {
            let read = |art: &Artifact| art.find(id_field, id).and_then(|r| r.num(bound.field));
            let (value, baseline) = (read(fresh), committed.and_then(read));
            let ok = match (value, baseline, bound.at) {
                (None, ..) => false,
                (Some(_), None, _) => true,
                (Some(v), Some(b), At::Least) => v >= bound.factor * b,
                (Some(v), Some(b), At::Most) => v <= bound.factor * b,
                (Some(v), Some(b), At::Equal) => v == bound.factor * b,
            };
            let mut verdict = Row::default().with("row", id).with("field", bound.field);
            for (key, n) in [("value", value), ("baseline", baseline)] {
                verdict.0.extend(n.map(|n| (key.to_string(), Value::Num(n))));
            }
            let verdict = verdict.with("at", bound.at.symbol()).with("factor", bound.factor);
            verdicts.push(verdict.with("ok", ok));
        }
    }
    verdicts
}

/// The one format a verdict is printed in — the `bench` table and every
/// failure message: gate, row, field, value, `factor × baseline`.
pub fn describe(gate: &str, verdict: &Row) -> String {
    let show = |key: &str| verdict.num(key).map_or_else(|| "absent".to_string(), |n| n.to_string());
    format!(
        "{gate:<13} row {:<14} {:<22} {:>12} {} {} x committed {:<12} {}",
        verdict.str("row"),
        verdict.str("field"),
        show("value"),
        verdict.str("at"),
        show("factor"),
        show("baseline"),
        if verdict.is("ok") { "ok" } else { "FAILED" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLAIN: Grammar = Grammar { marker: "SCALE:", kinds: &[] };
    const KINDS: Grammar =
        Grammar { marker: "K:", kinds: &[("cell", "cell"), ("verdict", "verdict")] };

    fn row(line: &str) -> Row {
        PLAIN.parse_line(line).expect("well-formed").expect("carries the marker")
    }

    fn head(gate: &str) -> Row {
        let head = Row::default().with("gate", gate).with("budget_secs", 300.0);
        head.with("wall_secs", 50.703).with("skipped", 1.0)
    }

    #[test]
    fn a_row_round_trips_with_numbers_staying_numbers_and_strings_strings() {
        // libtest's own prefix may share the line under --nocapture.
        let parsed = row("test x ... SCALE: label=p10k p=10000 secs=0.327 grid=25x20x20 \
                          exact=true alpha=1.8e-7 rss=inf note=a\"b\\c");
        assert_eq!(parsed.str("label"), "p10k");
        assert_eq!(parsed.num("p"), Some(10000.0));
        assert_eq!(parsed.num("secs"), Some(0.327));
        assert_eq!(parsed.num("alpha"), Some(1.8e-7));
        // Not JSON numbers, so strings: a grid, a boolean word, an infinity.
        assert_eq!(parsed.str("grid"), "25x20x20");
        assert_eq!(parsed.str("exact"), "true");
        assert_eq!(parsed.str("rss"), "inf");
        assert_eq!(PLAIN.parse_line("test x ... ok"), Ok(None));

        let art = Artifact {
            head: head("scale-check"),
            summary: Row::default().with("max_executed_p", 1e5),
            rows: vec![parsed.clone(), row("SCALE: label=p100k p=100000")],
            bounds: check(
                &[FLOOR],
                "label",
                &Artifact { rows: vec![parsed], ..Artifact::default() },
                None,
            ),
        };
        let text = art.render();
        assert_eq!(Artifact::parse(&text), Ok(art.clone()), "{text}");
        assert!(text.contains("\"p\": 10000, \"secs\": 0.327, \"grid\": \"25x20x20\""), "{text}");
        // So does an artifact without rows, and any spacing.
        let empty = Artifact { head: head("repo"), ..Artifact::default() };
        assert_eq!(Artifact::parse(&empty.render()), Ok(empty));
        let respaced = text.replace('\n', " ").replace(": ", " :  ");
        assert_eq!(Artifact::parse(&respaced), Ok(art));
    }

    #[test]
    fn malformed_rows_are_errors_that_quote_the_line() {
        for (line, why) in [
            ("SCALE: label=p10k oops p=3", "token `oops` is not key=value"),
            ("SCALE: label=p10k p=3 p=4", "repeated key in `p=4`"),
            ("SCALE: =3", "empty or repeated key"),
            ("SCALE:", "no fields"),
            ("SCALE: label p=3", "token `label` is not key=value"),
        ] {
            let err = PLAIN.parse_line(line).expect_err(line);
            assert!(err.contains(why) && err.contains(&format!("`{line}`")), "{err}");
        }
        let err = KINDS.parse_line("K: row name=a").expect_err("undeclared kind");
        assert!(err.contains("unknown row kind `row`") && err.contains("`K: row name=a`"), "{err}");
        // A bare word is a kind only in first place.
        assert!(KINDS.parse_line("K: cell name=a cell").is_err());
    }

    #[test]
    fn the_first_token_selects_the_kind_where_a_gate_declares_kinds() {
        let cell = KINDS.parse_line("K: cell name=cubic err_pct=1.5").expect("ok").expect("row");
        assert_eq!(
            (cell.str("kind"), cell.str("name"), cell.num("err_pct")),
            ("cell", "cubic", Some(1.5))
        );
        assert_eq!(cell.0.len(), 3);
        let verdict = KINDS.parse_line("K: verdict=pass").expect("ok").expect("row");
        assert_eq!((verdict.str("kind"), verdict.str("verdict")), ("verdict", "pass"));
    }

    #[test]
    fn a_file_off_the_schema_does_not_parse() {
        let good = Artifact { head: head("repo"), ..Artifact::default() }.render();
        for (from, to, why) in [
            ("\"skipped\": 1", "\"cells_skipped\": 1", "expected key `skipped`, found `cells_"),
            ("\"skipped\": 1,", "", "expected key `skipped`, found `summary`"),
            ("\"skipped\": 1,", "\"skipped\": 1, \"skipped\": 1,", "expected key `summary`"),
            ("\"skipped\": 1", "\"skipped\": [1]", "expected a number, string or boolean"),
            (
                "\"rows\": []",
                "\"rows\": [{\"a\": {\"b\": 1}}]",
                "expected a number, string or boolean",
            ),
            ("\"rows\": []", "\"rows\": [{\"a\": 1, \"a\": 2}]", "repeated key `a`"),
            ("\"summary\": {}", "\"summary\": {\"a\": nan}", "found `nan`"),
        ] {
            assert!(good.contains(from), "{good}");
            let err = Artifact::parse(&good.replace(from, to)).expect_err(to);
            assert!(err.contains(why), "{err}");
        }
        assert!(Artifact::parse(&format!("{good}{good}")).is_err());
    }

    const FLOOR: Bound = Bound { row: "*", field: "ranks_per_sec", at: At::Least, factor: 0.5 };
    const CEILING: Bound = Bound { row: "*", field: "peak_rss_kb", at: At::Most, factor: 1.25 };

    fn cells(rows: &[(&str, f64, f64)]) -> Artifact {
        let rows = rows.iter().map(|(label, rate, rss_kb)| {
            let row = Row::default().with("label", *label);
            row.with("ranks_per_sec", *rate).with("peak_rss_kb", *rss_kb)
        });
        Artifact { rows: rows.collect(), ..Artifact::default() }
    }

    fn failures(fresh: &Artifact, committed: &Artifact) -> Vec<String> {
        let verdicts = check(&[FLOOR, CEILING], "label", fresh, Some(committed));
        verdicts.iter().filter(|v| !v.is("ok")).map(|v| describe("scale-check", v)).collect()
    }

    #[test]
    fn scale_cells_are_held_to_a_rate_floor_and_an_rss_ceiling() {
        let committed = cells(&[("p1k-default", 3108.0, 325_580.0), ("p10k", 30_557.0, 94_160.0)]);
        // Half the rate and 1.25× the memory are still inside; a cell
        // with no committed row has nothing to be held to.
        let inside = cells(&[
            ("p1k-default", 1554.0, 406_975.0),
            ("p10k", 60_000.0, 1.0),
            ("new", 1.0, 9e9),
        ]);
        assert_eq!(failures(&inside, &committed), Vec::<String>::new());
        assert_eq!(check(&[FLOOR, CEILING], "label", &inside, Some(&committed)).len(), 6);
        // The parent's P = 1024 cell (501 004 kB) against this commit's row.
        let outside = cells(&[("p1k-default", 2463.0, 501_004.0), ("p10k", 15_000.0, 94_160.0)]);
        let failures = failures(&outside, &committed);
        assert_eq!(failures.len(), 2, "{failures:?}");
        for (failure, named) in failures.iter().zip([
            ["scale-check", "row p10k", "ranks_per_sec", "15000 >= 0.5 x committed 30557"],
            ["scale-check", "row p1k-default", "peak_rss_kb", "501004 <= 1.25 x committed 325580"],
        ]) {
            assert!(named.iter().all(|part| failure.contains(part)), "{failure}");
        }
    }

    #[test]
    fn an_equality_bound_fails_a_count_one_off_either_way() {
        const PICKS: Bound = Bound { row: "*", field: "picks", at: At::Equal, factor: 1.0 };
        let picks = |n: f64| Artifact {
            rows: vec![Row::default().with("label", "p10k").with("picks", n)],
            ..Artifact::default()
        };
        let verdict = |n: f64| check(&[PICKS], "label", &picks(n), Some(&picks(1_029_997.0)));
        assert!(verdict(1_029_997.0)[0].is("ok"));
        for off in [1_029_996.0, 1_029_998.0] {
            let failed = describe("scale-check", &verdict(off)[0]);
            assert!(failed.contains("== 1 x committed 1029997") && failed.ends_with("FAILED"));
        }
    }

    #[test]
    fn a_rerun_row_that_lacks_a_bounded_field_fails_its_bound() {
        let committed = cells(&[("p10k", 30_557.0, 94_160.0)]);
        let mut fresh = committed.clone();
        fresh.rows[0].0.retain(|(key, _)| key != "peak_rss_kb");
        let failures = failures(&fresh, &committed);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("peak_rss_kb") && failures[0].contains("absent"),
            "{failures:?}"
        );
        // So does a named row that the re-run did not print at all.
        let named = Bound { row: "derived", ..FLOOR };
        assert!(!check(&[named], "kind", &fresh, Some(&committed))[0].is("ok"));
    }

    #[test]
    fn a_skipped_cell_carries_its_committed_row_and_is_not_compared() {
        let committed = cells(&[("p10k", 30_557.0, 94_160.0), ("p100k", 2479.0, 5_013_604.0)]);
        let carried = committed.carry("label", "p100k");
        assert_eq!(carried.len(), 1);
        assert!(carried[0].is("carried") && carried[0].num("ranks_per_sec") == Some(2479.0));
        // Carrying a carried row marks it once; an unlabelled step carries nothing.
        let again =
            Artifact { rows: carried.clone(), ..Artifact::default() }.carry("label", "p100k");
        assert_eq!(again, carried);
        assert!(committed.carry("label", "").is_empty() && committed.carry("", "").is_empty());
        let mut fresh = cells(&[("p10k", 29_000.0, 94_000.0)]);
        fresh.rows.extend(carried);
        let verdicts = check(&[FLOOR, CEILING], "label", &fresh, Some(&committed));
        assert_eq!(verdicts.len(), 2, "only the executed cell is checked: {verdicts:?}");
        assert!(verdicts.iter().all(|v| v.str("row") == "p10k" && v.is("ok")));
    }
}
