//! Output: the human-readable metric lines (which the orchestrating
//! process parses back) and the JSON documents.

use crate::run::RunReport;

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `x` as a JSON number with all its digits (JSON has no NaN or
/// infinity: a ratio over a zero base is written as 0).
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` from `(name, value, unit)`.
pub fn metrics_json<'a>(metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let fields: Vec<String> = metrics
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(value),
                json_string(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The one JSON object a single-workload run prints as its last line.
pub fn result_line(report: &RunReport) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.checks.failed == 0,
        report.checks.attempted,
        report.checks.failed,
        metrics_json(report.metrics.iter().map(|m| (m.name, m.value, m.unit)))
    )
}

/// Print every metric by name with its unit, one `metric` line each,
/// followed by the `checks`, `iterations` (count and quartiles of the
/// iteration time) and `unresolved` lines.
pub fn print_lines(report: &RunReport) {
    for m in &report.metrics {
        println!("metric {} {} {}", m.name, json_number(m.value), m.unit);
    }
    println!("checks {} {}", report.checks.attempted, report.checks.failed);
    let (q1, q3) = crate::stats::quartiles(&report.run_samples);
    println!(
        "iterations {} q1 {} q3 {} s",
        report.run_samples.len(),
        json_number(q1),
        json_number(q3)
    );
    println!("unresolved {}", u8::from(report.unresolved));
    if report.unresolved {
        println!(
            "note: trace.cover_frac is outside [0.8, 1.2]: the ladder does not account for \
             the run, so the per-layer split above is unresolved, not a fact"
        );
    }
}

/// What the orchestrator reads back from one child run.
#[derive(Default)]
pub struct ParsedRun {
    /// `(name, value, unit)` in printed order.
    pub metrics: Vec<(String, f64, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub iterations: u64,
    pub unresolved: bool,
}

/// Parse the lines [`print_lines`] wrote.
pub fn parse_lines(stdout: &str) -> Result<ParsedRun, String> {
    let mut run = ParsedRun::default();
    let bad = |line: &str| format!("unparsable line from child run: {line:?}");
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["metric", name, value, unit] => {
                let value = value.parse().map_err(|_| bad(line))?;
                run.metrics.push(((*name).to_owned(), value, (*unit).to_owned()));
            }
            ["checks", attempted, failed] => {
                run.attempted = attempted.parse().map_err(|_| bad(line))?;
                run.failed = failed.parse().map_err(|_| bad(line))?;
            }
            ["iterations", n, ..] => run.iterations = n.parse().map_err(|_| bad(line))?,
            ["unresolved", flag] => run.unresolved = *flag == "1",
            _ => {}
        }
    }
    if run.metrics.is_empty() || run.attempted == 0 {
        return Err("child run printed no metrics".to_owned());
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_numbers_are_valid_json() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(f64::NAN), "0");
    }

    #[test]
    fn printed_lines_parse_back() {
        let text = "noise\nmetric run_s 0.25 s\nmetric gflops 3.5 GFLOP/s\nchecks 10 1\n\
                    iterations 4 q1 0.2 q3 0.3 s\nunresolved 1\n";
        let run = parse_lines(text).expect("parses");
        assert_eq!(run.metrics[1], ("gflops".to_owned(), 3.5, "GFLOP/s".to_owned()));
        assert_eq!((run.attempted, run.failed, run.iterations, run.unresolved), (10, 1, 4, true));
        assert!(parse_lines("nothing here").is_err());
    }
}
