//! Pins the "Headline claims" table of `EXPERIMENTS.md` to
//! `repro_full.txt`, the archived full-scale output that CI
//! regenerates and diffs. Every row names its figure; each number in
//! its "Measured" cell must agree with the value `repro_full.txt`
//! prints for that figure, at the precision the document quotes. A
//! change that moves a full-scale number therefore fails here unless
//! `EXPERIMENTS.md` moves with it.

use std::fs;
use std::path::Path;

/// How a quoted number derives from a printed value `v`.
#[derive(Clone, Copy, Debug)]
enum Quote {
    /// `v` itself.
    Value,
    /// Reduction factor `1 / v` (the `1.54×` beside `0.65`).
    Factor,
    /// Change in percent, `(v − 1) · 100` (the `+0.7%` for `1.007`).
    Percent,
    /// `v · 1000` (a delay printed in ns, quoted in ps).
    Milli,
}

/// Where one quoted number comes from: the figure heading, the row
/// label, and the index of the value among the row's numbers.
type Source = (&'static str, &'static str, usize, Quote);

/// One entry per headline row, keyed by the row's `(Fig. N)` marker;
/// the sources are in the order the numbers appear in "Measured".
const HEADLINES: &[(&str, &[Source])] = &[
    ("(Fig. 1)", &[("Fig. 1", "Geomean", 0, Quote::Value)]),
    ("(Fig. 2)", &[("Fig. 2", "Average", 2, Quote::Value)]),
    (
        "(Fig. 16)",
        &[("Fig. 16", "Geomean", 6, Quote::Value), ("Fig. 16", "Geomean", 6, Quote::Factor)],
    ),
    (
        "(Fig. 19)",
        &[("Fig. 19", "Geomean", 0, Quote::Value), ("Fig. 19", "Geomean", 0, Quote::Percent)],
    ),
    ("(Fig. 20)", &[("Fig. 20", "Zero Skipped DESC", 0, Quote::Percent)]),
    ("(Fig. 30)", &[("Fig. 30", "Geomean", 0, Quote::Percent)]),
    (
        "(Fig. 24)",
        &[("Fig. 24", "Geomean", 0, Quote::Value), ("Fig. 24", "Geomean", 0, Quote::Factor)],
    ),
    ("(Fig. 23)", &[("Fig. 23", "Geomean", 0, Quote::Percent)]),
    (
        "(Fig. 29)",
        &[("Fig. 29", "Geomean", 3, Quote::Factor), ("Fig. 29", "Geomean", 3, Quote::Value)],
    ),
    (
        "(Fig. 17)",
        &[
            ("Fig. 17", "TX+RX", 0, Quote::Value),
            ("Fig. 17", "TX+RX", 1, Quote::Value),
            ("Fig. 17", "TX+RX", 2, Quote::Milli),
        ],
    ),
];

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The signed decimal numbers in `text`, in order, as strings with an
/// ASCII sign (`−` becomes `-`).
fn numbers(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if chars[i].is_ascii_digit() {
            let mut s = String::new();
            if i > 0 && matches!(chars[i - 1], '+' | '-' | '−') {
                s.push(if chars[i - 1] == '+' { '+' } else { '-' });
            }
            while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
                s.push(chars[i]);
                i += 1;
            }
            out.push(s.trim_end_matches('.').to_owned());
        } else {
            i += 1;
        }
    }
    out
}

/// The interval of true values that `s` is a rounding of.
fn interval(s: &str) -> (f64, f64) {
    let v: f64 = s.parse().unwrap_or_else(|_| panic!("not a number: {s}"));
    let decimals = s.split('.').nth(1).map_or(0, str::len);
    let half = 0.5 * 10f64.powi(-(decimals as i32));
    (v - half, v + half)
}

/// The numbers `repro_full.txt` prints on `row` of `figure`.
fn printed(repro: &str, figure: &str, row: &str) -> Vec<String> {
    let start = repro
        .find(&format!("== {figure}:"))
        .unwrap_or_else(|| panic!("repro_full.txt has no {figure} section"));
    let section = repro[start..].split("\n== ").next().unwrap_or_default();
    let line = section
        .lines()
        .find_map(|l| l.strip_prefix(row).filter(|rest| rest.starts_with(' ')))
        .unwrap_or_else(|| panic!("{figure} has no {row:?} row"));
    numbers(line)
}

/// Whether `quoted` is a rounding of `quote` applied to some value that
/// `shown` is a rounding of.
fn agrees(quoted: &str, shown: &str, quote: Quote) -> bool {
    let (lo, hi) = interval(shown);
    let f = |v: f64| match quote {
        Quote::Value => v,
        Quote::Factor => 1.0 / v,
        Quote::Percent => (v - 1.0) * 100.0,
        Quote::Milli => v * 1000.0,
    };
    let (a, b) = (f(lo), f(hi));
    let (q_lo, q_hi) = interval(quoted);
    // Strict overlap: intervals that only touch at a rounding boundary
    // are neighbouring values, not the same one.
    a.min(b).max(q_lo) < a.max(b).min(q_hi) - 1e-9
}

#[test]
fn headline_claims_quote_the_archived_full_scale_output() {
    let doc = read("EXPERIMENTS.md");
    let repro = read("repro_full.txt");
    let table = doc
        .split("## Headline claims")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("EXPERIMENTS.md has a Headline claims section");
    let rows: Vec<Vec<&str>> = table
        .lines()
        .filter(|l| l.starts_with('|') && !l.starts_with("|---") && !l.starts_with("| Claim"))
        .map(|l| l.split('|').map(str::trim).collect())
        .collect();
    assert_eq!(rows.len(), HEADLINES.len(), "every headline row needs a source here");

    let mut failures = Vec::new();
    for row in &rows {
        let (claim, measured) = (row[1], row[3]);
        let (_, sources) = HEADLINES
            .iter()
            .find(|(marker, _)| claim.contains(marker))
            .unwrap_or_else(|| panic!("no source for headline row {claim:?}"));
        let quoted = numbers(measured);
        assert_eq!(quoted.len(), sources.len(), "numbers in {claim:?} Measured cell {measured:?}");
        for (q, &(figure, label, index, quote)) in quoted.iter().zip(sources.iter()) {
            let values = printed(&repro, figure, label);
            let shown = values
                .get(index)
                .unwrap_or_else(|| panic!("{figure} {label:?} has no value #{index}: {values:?}"));
            if !agrees(q, shown, quote) {
                failures.push(format!(
                    "{claim}: EXPERIMENTS.md quotes {q}, repro_full.txt {figure} {label} \
                     prints {shown} ({quote:?})"
                ));
            }
        }
    }
    assert!(failures.is_empty(), "stale headline numbers:\n{}", failures.join("\n"));
}

#[test]
fn agreement_is_at_the_quoted_precision() {
    assert!(agrees("0.158", "0.158", Quote::Value));
    assert!(!agrees("0.159", "0.158", Quote::Value));
    assert!(agrees("0.56", "0.561", Quote::Value));
    assert!(!agrees("0.58", "0.561", Quote::Value));
    assert!(agrees("1.62", "0.62", Quote::Factor));
    assert!(!agrees("1.70", "0.62", Quote::Factor));
    assert!(agrees("+0.7", "1.007", Quote::Percent));
    assert!(agrees("-5.8", "0.942", Quote::Percent));
    assert!(!agrees("+5.8", "0.942", Quote::Percent));
    assert!(agrees("611", "0.611", Quote::Milli));
    assert_eq!(numbers("0.942 (−5.8%)"), ["0.942", "-5.8"]);
    assert_eq!(numbers("2249 µm² / 46.9 mW / 611 ps"), ["2249", "46.9", "611"]);
}
