//! CSV output and ASCII charts for experiment results.
//!
//! Everything here is label-driven: columns come from the sweep's
//! [`SweepOutcome::labels`](crate::SweepOutcome) (registry order), so a
//! newly registered approach shows up in CSVs, tables, and charts
//! without touching this module.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::experiment::SweepRow;

/// Renders sweep rows as CSV text (header + one row per point). The
/// rendering is a pure function of its inputs, which is what the
/// determinism tests compare byte-for-byte across thread counts.
pub fn csv_string(x_label: &str, labels: &[String], rows: &[SweepRow]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{x_label}");
    for label in labels {
        let _ = write!(out, ",{label}");
    }
    let _ = writeln!(out, ",sets");
    for r in rows {
        let _ = write!(out, "{:.3}", r.x);
        for v in &r.ratios {
            let _ = write!(out, ",{v:.4}");
        }
        let _ = writeln!(out, ",{}", r.sets);
    }
    out
}

/// Writes sweep rows as CSV (header + one row per point).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_csv(
    path: &Path,
    x_label: &str,
    labels: &[String],
    rows: &[SweepRow],
) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, csv_string(x_label, labels, rows))
}

/// Assigns one chart glyph per label: the uppercased first letter, the
/// lowercased one when that is taken, then a digit. For the standard
/// registry this reproduces the historical `P`/`W`/`N`/`n` glyphs.
fn chart_glyphs(labels: &[String]) -> Vec<char> {
    let mut used: Vec<char> = Vec::with_capacity(labels.len());
    for label in labels {
        let first = label.chars().next().unwrap_or('?');
        let g = [first.to_ascii_uppercase(), first.to_ascii_lowercase()]
            .into_iter()
            .find(|c| !used.contains(c))
            .unwrap_or_else(|| ('0'..='9').find(|c| !used.contains(c)).unwrap_or('?'));
        used.push(g);
    }
    used
}

/// Renders sweep rows as a fixed-height ASCII line chart, one glyph per
/// approach (see `chart_glyphs`; for the standard registry `P`
/// proposed, `W` WP, `N` NPS-carry, `n` NPS-classic); overlapping points
/// print the earlier-registered glyph.
pub fn ascii_chart(rows: &[SweepRow], labels: &[String], x_label: &str) -> String {
    const HEIGHT: usize = 12;
    let glyphs = chart_glyphs(labels);
    let width = rows.len();
    let mut grid = vec![vec![' '; width]; HEIGHT + 1];
    for (col, r) in rows.iter().enumerate() {
        // Draw later-registered glyphs first so earlier ones (the
        // proposed approach leads the standard registry) win collisions.
        for ai in (0..r.ratios.len().min(glyphs.len())).rev() {
            let v = r.ratios[ai].clamp(0.0, 1.0);
            let row = HEIGHT - (v * HEIGHT as f64).round() as usize;
            grid[row][col] = glyphs[ai];
        }
    }
    let mut out = String::new();
    for (i, line) in grid.iter().enumerate() {
        let y = 1.0 - i as f64 / HEIGHT as f64;
        let _ = writeln!(out, "{y:>5.2} |{}", line.iter().collect::<String>());
    }
    let _ = writeln!(out, "      +{}", "-".repeat(width));
    let xs: Vec<String> = rows.iter().map(|r| format!("{:.2}", r.x)).collect();
    let _ = writeln!(out, "      {x_label}: {}", xs.join(" "));
    let legend: Vec<String> = glyphs
        .iter()
        .zip(labels)
        .map(|(g, label)| format!("{g}={label}"))
        .collect();
    let _ = writeln!(out, "      {}", legend.join(" "));
    out
}

/// Formats rows as an aligned text table.
pub fn text_table(rows: &[SweepRow], labels: &[String], x_label: &str) -> String {
    let mut out = String::new();
    let _ = write!(out, "{x_label:>12}");
    for label in labels {
        let _ = write!(out, "{label:>12}");
    }
    let _ = writeln!(out);
    for r in rows {
        let _ = write!(out, "{:>12.3}", r.x);
        for v in &r.ratios {
            let _ = write!(out, "{v:>12.3}");
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels() -> Vec<String> {
        ["proposed", "wp", "nps", "nps-classic"]
            .map(String::from)
            .to_vec()
    }

    fn rows() -> Vec<SweepRow> {
        vec![
            SweepRow {
                x: 0.1,
                ratios: vec![1.0, 0.9, 0.8, 0.9],
                failures: vec![0; 4],
                sets: 10,
            },
            SweepRow {
                x: 0.2,
                ratios: vec![0.7, 0.4, 0.5, 0.6],
                failures: vec![0; 4],
                sets: 10,
            },
        ]
    }

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join("pmcs-bench-test");
        let path = dir.join("out.csv");
        write_csv(&path, "utilization", &labels(), &rows()).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("utilization,proposed,wp,nps,nps-classic,sets"));
        assert!(text.contains("0.100,1.0000,0.9000,0.8000,0.9000,10"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn glyphs_reproduce_the_historical_assignment() {
        assert_eq!(chart_glyphs(&labels()), ['P', 'W', 'N', 'n']);
        // A clashing fifth label degrades to a digit, never panics.
        let mut five = labels();
        five.push("np-extra".into());
        assert_eq!(chart_glyphs(&five), ['P', 'W', 'N', 'n', '0']);
    }

    #[test]
    fn chart_contains_glyphs_and_axis() {
        let chart = ascii_chart(&rows(), &labels(), "U");
        assert!(chart.contains('P'));
        assert!(chart.contains("U: 0.10 0.20"));
        assert!(chart.contains("1.00 |"));
        assert!(chart.contains("P=proposed"));
        assert!(chart.contains("n=nps-classic"));
    }

    #[test]
    fn table_is_aligned() {
        let t = text_table(&rows(), &labels(), "U");
        assert!(t.contains("proposed"));
        assert_eq!(t.lines().count(), 3);
    }

    #[test]
    fn a_fifth_column_needs_no_code_change() {
        let mut labels = labels();
        labels.push("wp-milp".into());
        let rows = vec![SweepRow {
            x: 0.1,
            ratios: vec![1.0, 0.9, 0.8, 0.9, 0.95],
            failures: vec![0; 5],
            sets: 10,
        }];
        let csv = csv_string("U", &labels, &rows);
        assert!(csv.starts_with("U,proposed,wp,nps,nps-classic,wp-milp,sets"));
        assert!(csv.contains("0.100,1.0000,0.9000,0.8000,0.9000,0.9500,10"));
        assert!(text_table(&rows, &labels, "U").contains("wp-milp"));
    }
}
