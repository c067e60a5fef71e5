//! `tea-loc` — the productivity report: per-port source-code metrics
//! for the eight golden ports, the reproduction's analogue of the
//! paper's programming-productivity comparison (§5: "the number of
//! lines required to express the same algorithm varies by over 2×
//! between models").
//!
//! ```text
//! cargo run -p tea-conformance --bin tea-loc
//! cargo run -p tea-conformance --bin tea-loc -- --check
//! ```
//!
//! For every port the tool counts, over the port's implementation file
//! and its model-runtime shim crate (the code a user of that model
//! would have to write and maintain):
//!
//! - **lines** — physical lines
//! - **code** — non-blank, non-comment, non-boilerplate lines
//! - **comments** — `//`, `///`, `//!` lines
//! - **boiler** — structural lines: lone delimiters, `use`/`mod`
//!   declarations and attributes; the syntax tax of the host language
//!   rather than the algorithm
//! - **unsafe** — `unsafe` occurrences outside comments, the
//!   escape-hatch count that portable models advertise minimising
//!
//! OpenMP 4.0 and OpenACC share the directive port (one source
//! expresses both models — itself a productivity observation), so their
//! rows are identical by construction. `--check` exits non-zero if any
//! port's source set is missing or empty, which is how CI pins the
//! report to the real tree.
//!
//! A second table totals the same tallies per workspace crate, over
//! every `.rs` file under the crate's `src/`, so a change that claims to
//! shrink (or grow) a crate is measured rather than asserted.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tea_core::tablefmt::Table;

/// Source-line tallies for one port.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct LocCounts {
    files: usize,
    lines: usize,
    code: usize,
    comments: usize,
    blank: usize,
    boilerplate: usize,
    unsafe_count: usize,
}

impl LocCounts {
    fn add(&mut self, other: &LocCounts) {
        self.files += other.files;
        self.lines += other.lines;
        self.code += other.code;
        self.comments += other.comments;
        self.blank += other.blank;
        self.boilerplate += other.boilerplate;
        self.unsafe_count += other.unsafe_count;
    }
}

/// Is this line pure structure rather than algorithm: a lone delimiter
/// (`}`, `});`, `],` …), a `use`/`mod` declaration, or an attribute?
fn is_boilerplate(trimmed: &str) -> bool {
    if trimmed.is_empty() {
        return false;
    }
    if trimmed
        .chars()
        .all(|c| matches!(c, '{' | '}' | '(' | ')' | '[' | ']' | ';' | ',' | ' '))
    {
        return true;
    }
    trimmed.starts_with("use ")
        || trimmed.starts_with("pub use ")
        || trimmed.starts_with("mod ")
        || trimmed.starts_with("pub mod ")
        || trimmed.starts_with("#[")
        || trimmed.starts_with("#![")
}

/// Classify one source file's text. `unsafe` is counted per occurrence
/// on code lines, so a line with two `unsafe` blocks counts twice.
fn classify(text: &str) -> LocCounts {
    let mut c = LocCounts {
        files: 1,
        ..LocCounts::default()
    };
    for raw in text.lines() {
        c.lines += 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            c.blank += 1;
        } else if trimmed.starts_with("//") {
            c.comments += 1;
        } else if is_boilerplate(trimmed) {
            c.boilerplate += 1;
        } else {
            c.code += 1;
            c.unsafe_count += trimmed.matches("unsafe").count();
        }
    }
    c
}

/// The crates/ directory, resolved from this crate's manifest so the
/// tool works from any working directory.
fn crates_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("conformance crate lives under crates/")
        .to_path_buf()
}

/// The source set of one port: its implementation module in the
/// tealeaf ports tree plus every file of its model-runtime shim crate.
fn port_sources(port: &str) -> Vec<PathBuf> {
    let root = crates_root();
    let port_file = |name: &str| root.join("tealeaf/src/ports").join(name);
    let shim = |krate: &str| -> Vec<PathBuf> {
        let dir = root.join(krate).join("src");
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .map(|e| e.path())
                    .filter(|p| p.extension().is_some_and(|x| x == "rs"))
                    .collect()
            })
            .unwrap_or_default();
        files.sort();
        files
    };
    let mut sources = match port {
        "serial" => vec![port_file("serial.rs")],
        "omp3-f90" => vec![port_file("omp3.rs")],
        // one directive port source expresses both models
        "omp4" | "openacc" => {
            let mut v = vec![port_file("directive.rs")];
            v.extend(shim("directive"));
            v
        }
        "kokkos" => {
            let mut v = vec![port_file("kokkos.rs")];
            v.extend(shim("kokkos"));
            v
        }
        "raja" => {
            let mut v = vec![port_file("raja.rs")];
            v.extend(shim("raja"));
            v
        }
        "opencl" => {
            let mut v = vec![port_file("opencl.rs")];
            v.extend(shim("opencl"));
            v
        }
        "cuda" => {
            let mut v = vec![port_file("cuda.rs")];
            v.extend(shim("cuda"));
            v
        }
        _ => Vec::new(),
    };
    sources.sort();
    sources
}

/// Tally one port's whole source set.
fn count_port(port: &str) -> Result<LocCounts, String> {
    let sources = port_sources(port);
    if sources.is_empty() {
        return Err(format!("no source set defined for port '{port}'"));
    }
    let mut total = LocCounts::default();
    for path in sources {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        total.add(&classify(&text));
    }
    if total.code == 0 {
        return Err(format!("port '{port}' counted zero code lines"));
    }
    Ok(total)
}

/// Every `.rs` file under `dir`, recursively, sorted.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(dir) = pending.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for path in entries.filter_map(|e| e.ok()).map(|e| e.path()) {
            if path.is_dir() {
                pending.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Tally every crate under `crates/` (its `src/` tree), sorted by name.
fn count_crates() -> Result<Vec<(String, LocCounts)>, String> {
    let mut crates = Vec::new();
    let entries = std::fs::read_dir(crates_root()).map_err(|e| format!("crates/: {e}"))?;
    for dir in entries.filter_map(|e| e.ok()).map(|e| e.path()) {
        let files = rust_files(&dir.join("src"));
        if files.is_empty() {
            continue;
        }
        let mut total = LocCounts::default();
        for path in files {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            total.add(&classify(&text));
        }
        let name = dir.file_name().unwrap_or_default().to_string_lossy();
        crates.push((name.into_owned(), total));
    }
    crates.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(crates)
}

/// Per-crate source-line totals, with a workspace total row.
fn crate_table() -> Result<Table, String> {
    let mut table = Table::new(
        "Crate source lines · every .rs file under crates/<name>/src",
        &[
            "crate", "files", "lines", "code", "comment", "blank", "boiler",
        ],
    );
    let crates = count_crates()?;
    if crates.is_empty() {
        return Err("no crate sources found".into());
    }
    let mut total = LocCounts::default();
    let mut row = |name: &str, c: &LocCounts| {
        table.row(&[
            name.to_string(),
            c.files.to_string(),
            c.lines.to_string(),
            c.code.to_string(),
            c.comments.to_string(),
            c.blank.to_string(),
            c.boilerplate.to_string(),
        ]);
    };
    for (name, c) in &crates {
        row(name, c);
        total.add(c);
    }
    row("total", &total);
    Ok(table)
}

fn productivity_table() -> Result<Table, String> {
    let mut table = Table::new(
        "Port productivity · code lines a user of each model maintains",
        &[
            "port",
            "files",
            "lines",
            "code",
            "comment",
            "boiler",
            "unsafe",
            "vs serial",
        ],
    );
    let serial_code = count_port("serial")?.code as f64;
    for model in tea_conformance::GOLDEN_PORTS {
        let port = tea_conformance::model_name(model);
        let c = count_port(port)?;
        table.row(&[
            port.to_string(),
            c.files.to_string(),
            c.lines.to_string(),
            c.code.to_string(),
            c.comments.to_string(),
            c.boilerplate.to_string(),
            c.unsafe_count.to_string(),
            format!("{:.2}×", c.code as f64 / serial_code),
        ]);
    }
    Ok(table)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let check = match argv.as_slice() {
        [] => false,
        [flag] if flag == "--check" => true,
        _ => {
            eprintln!("usage: tea-loc [--check]");
            return ExitCode::from(2);
        }
    };
    match productivity_table().and_then(|ports| Ok((ports, crate_table()?))) {
        Ok((ports, crates)) => {
            println!("{}", ports.render());
            println!("{}", crates.render());
            if check {
                eprintln!(
                    "tea-loc: all {} ports counted",
                    tea_conformance::GOLDEN_PORTS.len()
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tea-loc: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifier_separates_code_comments_blank_and_boilerplate() {
        let text = "\
//! doc header\n\
\n\
use std::fmt;\n\
#[derive(Debug)]\n\
pub struct S {\n\
    x: f64, // trailing comments stay code\n\
}\n\
fn f() {\n\
    let y = unsafe { *p };\n\
}\n";
        let c = classify(text);
        assert_eq!(c.files, 1);
        assert_eq!(c.lines, 10);
        assert_eq!(c.comments, 1, "only the doc header");
        assert_eq!(c.blank, 1);
        // use, derive attribute, two lone `}`
        assert_eq!(c.boilerplate, 4);
        assert_eq!(c.code, 4);
        assert_eq!(c.unsafe_count, 1);
        assert_eq!(
            c.code + c.comments + c.blank + c.boilerplate,
            c.lines,
            "every line lands in exactly one bucket"
        );
    }

    #[test]
    fn lone_delimiters_are_boilerplate_not_code() {
        for line in ["}", "});", "],", "} }", "(", ");"] {
            assert!(is_boilerplate(line), "{line}");
        }
        for line in ["} else {", "let x = 1;", "impl Foo {"] {
            assert!(!is_boilerplate(line), "{line}");
        }
    }

    #[test]
    fn every_golden_port_has_a_nonempty_source_set() {
        for model in tea_conformance::GOLDEN_PORTS {
            let port = tea_conformance::model_name(model);
            let c = count_port(port).expect(port);
            assert!(c.code > 0, "{port} counted no code");
            assert!(c.files >= 1, "{port} counted no files");
        }
    }

    #[test]
    fn directive_ports_share_one_source_set() {
        assert_eq!(port_sources("omp4"), port_sources("openacc"));
        assert_eq!(
            count_port("omp4").unwrap(),
            count_port("openacc").unwrap(),
            "one directive source expresses both models"
        );
    }

    #[test]
    fn shim_backed_ports_count_more_files_than_serial() {
        // the serial port is a single file; every model-runtime-backed
        // port drags its shim crate into the maintained-source count
        let serial = count_port("serial").unwrap();
        assert_eq!(serial.files, 1);
        for port in ["cuda", "kokkos", "raja", "opencl"] {
            let c = count_port(port).unwrap();
            assert!(c.files > 1, "{port} should include its shim crate");
        }
    }

    #[test]
    fn crate_totals_cover_the_ports_tree() {
        let crates = count_crates().expect("crates counted");
        let tealeaf = crates
            .iter()
            .find(|(name, _)| name == "tealeaf")
            .expect("tealeaf crate counted")
            .1;
        // The tealeaf crate's tree includes every port file.
        let serial = count_port("serial").unwrap();
        assert!(tealeaf.files > serial.files);
        assert!(tealeaf.lines > serial.lines);
        assert_eq!(
            tealeaf.code + tealeaf.comments + tealeaf.blank + tealeaf.boilerplate,
            tealeaf.lines
        );
        assert!(crate_table().unwrap().render().contains("total"));
    }

    #[test]
    fn unsafe_counts_skip_comments() {
        let c = classify("// unsafe in a comment\nlet x = 1;\n");
        assert_eq!(c.unsafe_count, 0);
    }
}
