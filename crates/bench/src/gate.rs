//! The benchmark-gate harness: the one place that knows the gate
//! interface and the `BENCH_*.json` baseline format.
//!
//! Every CI gate bin (`perf`, `train_scaling`, `loadgen`, `chaos`,
//! `fleet`) takes the same three flags, in `--flag value` or
//! `--flag=value` form:
//!
//! * `--smoke` — the reduced CI profile;
//! * `--out PATH` — write the report as one JSON document;
//! * `--check PATH` — gate the run against a committed baseline.
//!
//! A bin calls [`Gate::from_args`] before it measures anything, so an
//! unknown flag or an unreadable baseline fails at once. It then hands its
//! figure table to [`Gate::finish`]. Every [`Figure`] names the [`Rule`]
//! its key is checked by, so the table is the single source of each
//! tolerance.
//!
//! Exit codes: 0 when every gated key passes, 1 when one fails (a key the
//! baseline lacks counts as a failure), 2 on a usage error or an
//! unreadable or unwritable file.

use crate::timer::BenchResult;

/// How a figure is checked against the baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Written to the report, never checked.
    Record,
    /// Must equal the baseline value.
    Exact,
    /// Must lie within `rel × |baseline| + abs` of the baseline value.
    Close {
        /// Relative tolerance.
        rel: f64,
        /// Absolute tolerance.
        abs: f64,
    },
    /// Must not exceed this ceiling; the baseline is not read.
    AtMost(f64),
    /// Must not fall below this floor; the baseline is not read.
    AtLeast(f64),
    /// Must not exceed the baseline value times this factor.
    AtMostTimes(f64),
    /// Must not fall below the baseline value times this factor.
    AtLeastTimes(f64),
}

impl Rule {
    /// Holds `actual` to this rule, given the baseline's value for the key
    /// (if it has one). Both arms carry the bound in words.
    fn check(self, actual: f64, base: Option<f64>) -> Result<String, String> {
        let need = || base.ok_or_else(|| "missing from the baseline".to_string());
        let (pass, bound) = match self {
            Rule::Record => return Ok("recorded".to_string()),
            Rule::Exact => {
                let b = need()?;
                (actual == b, format!("exactly baseline {b}"))
            }
            Rule::Close { rel, abs } => {
                let b = need()?;
                let tol = rel * b.abs() + abs;
                (
                    (actual - b).abs() <= tol,
                    format!("within {tol:.2e} of baseline {b}"),
                )
            }
            Rule::AtMost(limit) => (actual <= limit, format!("ceiling {limit}")),
            Rule::AtLeast(limit) => (actual >= limit, format!("floor {limit}")),
            Rule::AtMostTimes(k) => {
                let b = need()?;
                (
                    actual <= b * k,
                    format!("ceiling {} = baseline {b} x {k}", sig6(b * k)),
                )
            }
            Rule::AtLeastTimes(k) => {
                let b = need()?;
                (
                    actual >= b * k,
                    format!("floor {} = baseline {b} x {k}", sig6(b * k)),
                )
            }
        };
        if pass {
            Ok(bound)
        } else {
            Err(bound)
        }
    }
}

/// `x` rounded to six significant digits, for printing a derived bound.
fn sig6(x: f64) -> f64 {
    format!("{x:.5e}").parse().unwrap_or(x)
}

/// How a figure's value is written, and so the precision it reads back at.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Format {
    Count,
    Fixed(usize),
    Sci(usize),
}

/// One `(key, value, rule)` row of a gate bin's figure table.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    key: String,
    value: f64,
    format: Format,
    rule: Rule,
}

impl Figure {
    /// A counter, written as an integer.
    pub fn count(key: impl Into<String>, value: u64, rule: Rule) -> Figure {
        Figure::new(key, value as f64, Format::Count, rule)
    }

    /// A float written with `decimals` digits after the point.
    pub fn fixed(key: impl Into<String>, value: f64, decimals: usize, rule: Rule) -> Figure {
        Figure::new(key, value, Format::Fixed(decimals), rule)
    }

    /// A float written in scientific notation with `digits` mantissa
    /// digits after the point.
    pub fn sci(key: impl Into<String>, value: f64, digits: usize, rule: Rule) -> Figure {
        Figure::new(key, value, Format::Sci(digits), rule)
    }

    fn new(key: impl Into<String>, value: f64, format: Format, rule: Rule) -> Figure {
        Figure {
            key: key.into(),
            value,
            format,
            rule,
        }
    }

    fn written(&self) -> String {
        match self.format {
            Format::Count => format!("{:.0}", self.value),
            Format::Fixed(d) => format!("{:.d$}", self.value),
            Format::Sci(d) => format!("{:.d$e}", self.value),
        }
    }
}

/// What a gate bin measured: its schema tag, its figure table (written in
/// order) and the optional timer entries.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The `schema` tag of the JSON document, e.g. `dnnperf-bench-5`.
    pub schema: &'static str,
    /// Every figure the report carries, gated or recorded.
    pub figures: Vec<Figure>,
    /// Timer summaries, written as the `entries` array when non-empty.
    pub entries: Vec<BenchResult>,
}

/// The cores this process may run on, as every report records them.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The parsed gate flags, with the `--check` baseline already read.
#[derive(Debug)]
pub struct Gate {
    /// `--smoke`: run the reduced CI profile.
    pub smoke: bool,
    out: Option<String>,
    /// The `--check` path and the baseline document read from it.
    baseline: Option<(String, String)>,
}

impl Gate {
    /// Parses this process's flags and reads the `--check` baseline. On an
    /// unknown flag, a flag missing its value or an unreadable baseline it
    /// prints the reason and exits 2, before the bin measures anything.
    pub fn from_args(bin: &str) -> Gate {
        parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{bin}: {e}");
            std::process::exit(2)
        })
    }

    /// The `profile` a report records: `smoke` or `full`.
    fn profile(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }

    /// Writes the report to the `--out` path, then checks it against the
    /// `--check` baseline: one line per gated key, exit 1 on any failure.
    pub fn finish(&self, report: &Report) {
        if let Some(path) = &self.out {
            if let Err(e) = std::fs::write(path, render(report, self.profile(), cores())) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            }
            println!("wrote {path}");
        }
        let Some((path, baseline)) = &self.baseline else {
            return;
        };
        let verdicts = check(&report.figures, baseline);
        let failed = verdicts.iter().filter(|v| v.is_err()).count();
        for verdict in &verdicts {
            match verdict {
                Ok(line) => println!("gate ok: {line}"),
                Err(line) => eprintln!("GATE FAIL: {line}"),
            }
        }
        if failed > 0 {
            eprintln!(
                "gate: {failed} of {} keys failed against {path}",
                verdicts.len()
            );
            std::process::exit(1);
        }
        println!("gate OK: {} gated keys pass against {path}", verdicts.len());
    }
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Gate, String> {
    let mut gate = Gate {
        smoke: false,
        out: None,
        baseline: None,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag.to_string(), Some(value.to_string())),
            None => (arg, None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| args.next())
                .ok_or_else(|| format!("{flag} needs a path"))
        };
        match flag.as_str() {
            "--smoke" if inline.is_none() => gate.smoke = true,
            "--out" => gate.out = Some(value()?),
            "--check" => {
                let path = value()?;
                let doc = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
                gate.baseline = Some((path, doc));
            }
            _ => {
                let arg = inline.map_or(flag.clone(), |v| format!("{flag}={v}"));
                return Err(format!(
                    "unknown flag {arg} (expected --smoke, --out PATH, --check PATH)"
                ));
            }
        }
    }
    Ok(gate)
}

/// The report as one JSON document: `schema`, `profile`, `cores`, the
/// figures in table order, then the `entries` array if there is one.
fn render(report: &Report, profile: &str, cores: usize) -> String {
    let mut lines = vec![
        format!("\"schema\": \"{}\"", report.schema),
        format!("\"profile\": \"{profile}\""),
        format!("\"cores\": {cores}"),
    ];
    lines.extend(
        report
            .figures
            .iter()
            .map(|f| format!("\"{}\": {}", f.key, f.written())),
    );
    if !report.entries.is_empty() {
        let rows: Vec<String> = report
            .entries
            .iter()
            .map(|e| format!("    {}", e.json_line()))
            .collect();
        lines.push(format!("\"entries\": [\n{}\n  ]", rows.join(",\n")));
    }
    format!("{{\n  {}\n}}\n", lines.join(",\n  "))
}

/// Holds every gated figure to its rule against the baseline document:
/// one verdict line per gated key, in table order.
fn check(figures: &[Figure], baseline: &str) -> Vec<Result<String, String>> {
    figures
        .iter()
        .filter(|f| f.rule != Rule::Record)
        .map(|f| {
            let line = |bound| format!("{} = {} ({bound})", f.key, f.written());
            f.rule
                .check(f.value, json_number(baseline, &f.key))
                .map(line)
                .map_err(line)
        })
        .collect()
}

/// Extracts the number following `"key":` from a flat JSON document —
/// how the gate reads its committed `BENCH_*.json` baseline. `None` when
/// the key is missing or its value is not a number.
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = &doc[at..];
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A step far below every bound in these tests, yet far above the
    /// rounding of the exactly representable values they use.
    const PAST: f64 = 1e-9;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn each_rule_passes_at_its_boundary_and_fails_past_it() {
        let cases = [
            // (rule, baseline, boundary value, direction past it)
            (Rule::Exact, 8.0, 8.0, 1.0),
            (Rule::Exact, 8.0, 8.0, -1.0),
            (
                Rule::Close {
                    rel: 0.25,
                    abs: 0.5,
                },
                8.0,
                10.5,
                1.0,
            ),
            (
                Rule::Close {
                    rel: 0.25,
                    abs: 0.5,
                },
                8.0,
                5.5,
                -1.0,
            ),
            (
                Rule::Close {
                    rel: 0.25,
                    abs: 0.0,
                },
                -8.0,
                -10.0,
                -1.0,
            ),
            (Rule::AtMost(2.0), 100.0, 2.0, 1.0),
            (Rule::AtLeast(5.0), 0.0, 5.0, -1.0),
            (Rule::AtMostTimes(2.0), 1.5, 3.0, 1.0),
            (Rule::AtLeastTimes(0.25), 8.0, 2.0, -1.0),
        ];
        for (rule, base, boundary, dir) in cases {
            assert!(
                rule.check(boundary, Some(base)).is_ok(),
                "{rule:?} must pass at {boundary} against {base}"
            );
            let past = boundary + dir * PAST;
            assert!(
                rule.check(past, Some(base)).is_err(),
                "{rule:?} must fail at {past} against {base}"
            );
        }
        assert!(Rule::Record.check(f64::MAX, Some(0.0)).is_ok());
        assert!(Rule::AtMost(1.0).check(f64::NAN, None).is_err());
    }

    #[test]
    fn a_missing_key_fails_every_baseline_rule() {
        let relative = [
            Rule::Exact,
            Rule::Close { rel: 1.0, abs: 1.0 },
            Rule::AtMostTimes(2.0),
            Rule::AtLeastTimes(0.5),
        ];
        for rule in relative {
            let err = rule.check(1.0, None).expect_err("missing key");
            assert!(err.contains("missing"), "{rule:?}: {err}");
        }
        // Absolute bounds and recorded keys never read the baseline.
        for rule in [Rule::AtMost(2.0), Rule::AtLeast(0.0), Rule::Record] {
            assert!(rule.check(1.0, None).is_ok(), "{rule:?}");
        }

        let figures = [
            Figure::count("present", 3, Rule::Exact),
            Figure::count("absent", 3, Rule::Exact),
            Figure::count("recorded", 3, Rule::Record),
        ];
        let verdicts = check(&figures, "{\n  \"present\": 3\n}\n");
        assert_eq!(verdicts.len(), 2, "recorded keys get no verdict line");
        assert!(verdicts[0].is_ok());
        let err = verdicts[1].as_ref().expect_err("absent key fails");
        assert!(err.starts_with("absent = 3"), "{err}");
    }

    #[test]
    fn flags_parse_in_both_forms_and_reject_the_rest() {
        let gate = parse(args(&["--smoke", "--out", "a.json"])).expect("parse");
        assert!(gate.smoke);
        assert_eq!(gate.out.as_deref(), Some("a.json"));
        assert_eq!(gate.profile(), "smoke");
        let gate = parse(args(&["--out=b.json"])).expect("parse");
        assert!(!gate.smoke && gate.baseline.is_none());
        assert_eq!(gate.out.as_deref(), Some("b.json"));
        assert_eq!(gate.profile(), "full");

        // --check reads its baseline while parsing, in either form.
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
        for v in [
            &["--check", manifest][..],
            &[&format!("--check={manifest}")],
        ] {
            let gate = parse(args(v)).expect("parse");
            let (path, doc) = gate.baseline.expect("baseline read");
            assert_eq!(path, manifest);
            assert!(doc.contains("dnnperf-bench"));
        }
        for v in [
            &["--check", "no-such-baseline.json"][..],
            &["--check=no-such-baseline.json"],
        ] {
            let err = parse(args(v)).expect_err("unreadable baseline");
            assert!(
                err.contains("cannot read baseline no-such-baseline.json"),
                "{err}"
            );
        }

        for bad in [
            &["--train-scaling"][..],
            &["--deadline-ms", "5"],
            &["--smoke=1"],
            &["--out"],
            &["--check"],
            &["smoke"],
        ] {
            assert!(parse(args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn the_writer_keeps_the_baseline_layout() {
        let report = Report {
            schema: "dnnperf-bench-x",
            figures: vec![
                Figure::count("n", 7, Rule::Exact),
                Figure::fixed("ms", 1.25, 1, Rule::Record),
            ],
            entries: Vec::new(),
        };
        assert_eq!(
            render(&report, "smoke", 2),
            "{\n  \"schema\": \"dnnperf-bench-x\",\n  \"profile\": \"smoke\",\n  \
             \"cores\": 2,\n  \"n\": 7,\n  \"ms\": 1.2\n}\n"
        );
        let entry = |name: &str| BenchResult {
            name: name.to_string(),
            iters: 3,
            median_ns: 2.0,
            p10_ns: 1.0,
            p90_ns: 3.0,
        };
        let report = Report {
            entries: vec![entry("a"), entry("b")],
            ..report
        };
        let doc = render(&report, "full", 1);
        assert!(doc.ends_with(&format!(
            "  \"ms\": 1.2,\n  \"entries\": [\n    {},\n    {}\n  ]\n}}\n",
            entry("a").json_line(),
            entry("b").json_line()
        )));
    }

    #[test]
    fn every_written_value_reads_back_at_its_precision() {
        let figures = [
            Figure::count("count", 21_837_190, Rule::Record),
            Figure::count("zero", 0, Rule::Record),
            Figure::count("big", (1 << 53) - 1, Rule::Record),
            Figure::fixed("fixed1", 130_491.84, 1, Rule::Record),
            Figure::fixed("fixed2", 15.5149, 2, Rule::Record),
            Figure::fixed("fixed3", 35.48312, 3, Rule::Record),
            Figure::fixed("fixed6", 0.966_101_694_9, 6, Rule::Record),
            Figure::fixed("negative", -0.25, 6, Rule::Record),
            Figure::sci("sci12", 1.457_547_244_165_3, 12, Rule::Record),
            Figure::sci("sci_small", 3.25e-7, 12, Rule::Record),
        ];
        let report = Report {
            schema: "s",
            figures: figures.to_vec(),
            entries: Vec::new(),
        };
        let doc = render(&report, "smoke", 4);
        assert_eq!(json_number(&doc, "cores"), Some(4.0));
        for f in &figures {
            let read = json_number(&doc, &f.key).unwrap_or_else(|| panic!("{} unreadable", f.key));
            let half_ulp = match f.format {
                Format::Count => 0.0,
                Format::Fixed(d) => 0.5 * 10f64.powi(-(d as i32)),
                Format::Sci(d) => 0.5 * 10f64.powi(f.value.abs().log10().floor() as i32 - d as i32),
            };
            assert!(
                (read - f.value).abs() <= half_ulp * (1.0 + 1e-9),
                "{}: wrote {}, read {read}",
                f.key,
                f.value
            );
            assert_eq!(
                read,
                f.written().parse::<f64>().expect("number"),
                "{}",
                f.key
            );
        }
    }

    #[test]
    fn json_number_reads_flat_baselines() {
        let doc =
            "{\n  \"schema\": \"x\",\n  \"p99_us\": 1.5e3,\n  \"delta\": -0.25,\n  \"tail\": 7}";
        assert_eq!(json_number(doc, "p99_us"), Some(1500.0));
        assert_eq!(json_number(doc, "delta"), Some(-0.25));
        // The last key is terminated by the closing brace, not a comma.
        assert_eq!(json_number(doc, "tail"), Some(7.0));
        assert_eq!(json_number(doc, "missing"), None);
        // A key that is only a suffix of another key does not match it.
        assert_eq!(json_number(doc, "us"), None);
        // A string value is not a number.
        assert_eq!(json_number(doc, "schema"), None);
        assert_eq!(json_number("{\"a\":-1E-6}", "a"), Some(-1e-6));
    }
}
