//! Shared harness utilities for the table/figure binaries.
//!
//! Every binary regenerates one table or figure of the paper. Scale and
//! input length default to values that finish in seconds and can be
//! raised to paper scale through environment variables:
//!
//! * `CAMA_SCALE` — benchmark size as a fraction of the published state
//!   count (default 0.1 for simulation-driven figures, 1.0 for static
//!   tables);
//! * `CAMA_INPUT_LEN` — simulated input bytes (default 16384; the paper
//!   uses 10 MB);
//! * `CAMA_SEED` — input-stream seed (default 1).

#![forbid(unsafe_code)]

use cama_arch::designs::DesignKind;
use cama_arch::report::{evaluate_with_plan, DesignReport};
use cama_core::Nfa;
use cama_encoding::EncodingPlan;
use cama_workloads::Benchmark;
use std::fmt::Write as _;

/// Reads a float environment override.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads an integer environment override.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The benchmark scale for static (non-simulation) tables.
pub fn static_scale() -> f64 {
    env_f64("CAMA_SCALE", 1.0)
}

/// The benchmark scale for simulation-driven figures.
pub fn sim_scale() -> f64 {
    env_f64("CAMA_SCALE", 0.1)
}

/// Simulated input length in bytes.
pub fn input_len() -> usize {
    env_usize("CAMA_INPUT_LEN", 16_384)
}

/// Input-stream seed.
pub fn seed() -> u64 {
    env_usize("CAMA_SEED", 1) as u64
}

/// A fixed-width text table writer for terminal-friendly reports.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |cells: &[String], out: &mut String| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = w);
            }
            out.push('\n');
        };
        write_row(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(row, &mut out);
        }
        out
    }
}

/// One benchmark prepared for evaluation: automaton, plan, input.
pub struct PreparedBenchmark {
    /// Which benchmark.
    pub benchmark: Benchmark,
    /// The generated automaton.
    pub nfa: Nfa,
    /// Its encoding plan.
    pub plan: EncodingPlan,
    /// The input stream.
    pub input: Vec<u8>,
}

/// Generates a benchmark at `scale` with an `input_len`-byte stream.
pub fn prepare(benchmark: Benchmark, scale: f64, input_len: usize) -> PreparedBenchmark {
    let nfa = benchmark.generate(scale);
    let plan = EncodingPlan::for_nfa(&nfa);
    let input = benchmark.input(&nfa, input_len, seed());
    PreparedBenchmark {
        benchmark,
        nfa,
        plan,
        input,
    }
}

/// Evaluates one design on a prepared benchmark.
pub fn evaluate_prepared(design: DesignKind, prepared: &PreparedBenchmark) -> DesignReport {
    let plan = design.is_cama().then_some(&prepared.plan);
    evaluate_with_plan(design, &prepared.nfa, &prepared.input, plan)
}

/// Formats a ratio like the paper quotes them (e.g. `2.10x`).
pub fn ratio(n: f64, d: f64) -> String {
    if d == 0.0 {
        "n/a".to_string()
    } else {
        format!("{:.2}x", n / d)
    }
}

/// Geometric mean of a non-empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(["name", "value"]);
        t.row(["a", "1"]).row(["longer", "22"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        TextTable::new(["a", "b"]).row(["only-one"]);
    }

    #[test]
    fn env_defaults() {
        assert_eq!(env_f64("CAMA_NO_SUCH_VAR", 0.5), 0.5);
        assert_eq!(env_usize("CAMA_NO_SUCH_VAR", 7), 7);
    }

    #[test]
    fn ratio_and_geomean() {
        assert_eq!(ratio(4.2, 2.0), "2.10x");
        assert_eq!(ratio(1.0, 0.0), "n/a");
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn prepare_small_benchmark() {
        let prepared = prepare(Benchmark::Bro217, 0.1, 256);
        assert_eq!(prepared.input.len(), 256);
        assert!(prepared.nfa.len() > 100);
        let report = evaluate_prepared(DesignKind::CamaE, &prepared);
        assert!(report.energy_per_byte_nj() > 0.0);
    }
}

pub mod tables;
