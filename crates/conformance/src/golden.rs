//! The golden-run registry: committed bit-exact run summaries for the
//! deck × solver × port matrix, plus distributed-CG rows for the mpisim
//! rank matrix.
//!
//! Each registry line stores a run's iteration count, convergence flag
//! and the four `field_summary` integrals as raw `f64` bit patterns
//! (`0x…` hex, via [`tea_core::compare::hex_bits`]), so a comparison is
//! exact by construction — there is no tolerance anywhere. The committed
//! files live in `crates/conformance/goldens/` and are regenerated with
//! `cargo run -p tea-conformance --bin tea-golden -- --bless`.
//!
//! Because every port reduces with row-ordered partials, the same file
//! must verify under any `PARPOOL_THREADS` (CI checks 1, 2 and 4) and
//! any mpisim rank count — thread- or rank-dependent bits are a bug the
//! registry turns into a one-line diff.

use std::fmt::Write as _;
use std::path::PathBuf;

use tea_core::compare::hex_bits;
use tea_core::config::SolverKind;
use tea_core::summary::Summary;
use tealeaf::distributed::DistributedSpec;
use tealeaf::{run, Exec, RunSpec};

use crate::matrix::{
    deck_config, model_name, natural_device, GOLDEN_GRIDS, GOLDEN_PORTS, GOLDEN_RANKS,
    GOLDEN_SOLVERS,
};

/// One golden row: a (solver, port) run's bit-exact outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenEntry {
    /// Solver short name (`cg`, `chebyshev`, `ppcg`, `jacobi`).
    pub solver: String,
    /// Port command-line name, or `mpisim-<ranks>` for distributed rows.
    pub port: String,
    pub iterations: usize,
    pub converged: bool,
    /// `volume, mass, internal_energy, temperature` as raw bits.
    pub bits: [u64; 4],
}

impl GoldenEntry {
    fn from_run(
        solver: SolverKind,
        port: String,
        iterations: usize,
        converged: bool,
        s: Summary,
    ) -> Self {
        GoldenEntry {
            solver: solver.name().to_string(),
            port,
            iterations,
            converged,
            bits: [
                s.volume.to_bits(),
                s.mass.to_bits(),
                s.internal_energy.to_bits(),
                s.temperature.to_bits(),
            ],
        }
    }

    fn render(&self) -> String {
        format!(
            "{} {} {} {} {} {} {} {}",
            self.solver,
            self.port,
            self.iterations,
            self.converged,
            hex_bits(f64::from_bits(self.bits[0])),
            hex_bits(f64::from_bits(self.bits[1])),
            hex_bits(f64::from_bits(self.bits[2])),
            hex_bits(f64::from_bits(self.bits[3])),
        )
    }
}

/// Run the full matrix for one deck and return its golden rows:
/// every port × every solver, distributed CG at 1/2/4 ranks (strips),
/// then every solver on the 2-D tile grids with overlapped exchange.
pub fn compute_goldens(deck_name: &str, deck_text: &str) -> Vec<GoldenEntry> {
    let base = deck_config(deck_name, deck_text);
    let mut entries = Vec::new();
    for solver in GOLDEN_SOLVERS {
        let mut cfg = base.clone();
        cfg.solver = solver;
        for port in GOLDEN_PORTS {
            let report = run(&RunSpec::new(&cfg, Exec::port(port, &natural_device(port))))
                .map(|r| r.report)
                .unwrap_or_else(|e| panic!("{deck_name}/{solver}/{port:?}: {e}"));
            entries.push(GoldenEntry::from_run(
                solver,
                model_name(port).to_string(),
                report.total_iterations,
                report.converged,
                report.summary,
            ));
        }
    }
    let mut cfg = base.clone();
    cfg.solver = SolverKind::ConjugateGradient;
    for ranks in GOLDEN_RANKS {
        let report = run(&RunSpec::new(
            &cfg,
            Exec::Tiled(DistributedSpec::new(1, ranks)),
        ))
        .expect("a fault-free run cannot abort")
        .report;
        entries.push(GoldenEntry::from_run(
            SolverKind::ConjugateGradient,
            format!("mpisim-{ranks}"),
            report.total_iterations,
            report.converged,
            report.summary,
        ));
    }
    for solver in GOLDEN_SOLVERS {
        let mut cfg = base.clone();
        cfg.solver = solver;
        for (gx, gy) in GOLDEN_GRIDS {
            let report = run(&RunSpec::new(
                &cfg,
                Exec::Tiled(DistributedSpec::new(gx, gy)),
            ))
            .expect("a fault-free run cannot abort")
            .report;
            entries.push(GoldenEntry::from_run(
                solver,
                format!("mpisim-{gx}x{gy}"),
                report.total_iterations,
                report.converged,
                report.summary,
            ));
        }
    }
    entries
}

/// Serialize golden rows to the committed registry format.
pub fn render_registry(deck_name: &str, entries: &[GoldenEntry]) -> String {
    let mut out = String::new();
    writeln!(out, "# tea-conformance golden registry v1").unwrap();
    writeln!(out, "# deck: {deck_name}").unwrap();
    writeln!(
        out,
        "# solver port iterations converged volume mass internal_energy temperature (f64 bits)"
    )
    .unwrap();
    for e in entries {
        writeln!(out, "{}", e.render()).unwrap();
    }
    out
}

/// Parse a committed registry file back into rows.
pub fn parse_registry(text: &str) -> Result<Vec<GoldenEntry>, String> {
    let mut entries = Vec::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 8 {
            return Err(format!(
                "line {}: expected 8 fields, got {}",
                ln + 1,
                fields.len()
            ));
        }
        let parse_bits = |s: &str| -> Result<u64, String> {
            s.strip_prefix("0x")
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or_else(|| format!("line {}: bad bit pattern '{s}'", ln + 1))
        };
        entries.push(GoldenEntry {
            solver: fields[0].to_string(),
            port: fields[1].to_string(),
            iterations: fields[2]
                .parse()
                .map_err(|_| format!("line {}: bad iteration count", ln + 1))?,
            converged: fields[3]
                .parse()
                .map_err(|_| format!("line {}: bad converged flag", ln + 1))?,
            bits: [
                parse_bits(fields[4])?,
                parse_bits(fields[5])?,
                parse_bits(fields[6])?,
                parse_bits(fields[7])?,
            ],
        });
    }
    Ok(entries)
}

/// Compare a freshly computed matrix against a committed registry;
/// returns one message per mismatching, missing or extra row.
pub fn diff_registries(expected: &[GoldenEntry], actual: &[GoldenEntry]) -> Vec<String> {
    let mut problems = Vec::new();
    for e in expected {
        match actual
            .iter()
            .find(|a| a.solver == e.solver && a.port == e.port)
        {
            None => problems.push(format!("missing run {}:{}", e.solver, e.port)),
            Some(a) if a != e => problems.push(format!(
                "{}:{} drifted — golden ({}) vs run ({})",
                e.solver,
                e.port,
                e.render(),
                a.render()
            )),
            Some(_) => {}
        }
    }
    for a in actual {
        if !expected
            .iter()
            .any(|e| e.solver == a.solver && e.port == a.port)
        {
            problems.push(format!("unexpected extra run {}:{}", a.solver, a.port));
        }
    }
    problems
}

/// Directory the committed golden files live in.
pub fn goldens_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/goldens"))
}

/// Path of one deck's committed registry file.
pub fn golden_path(deck_name: &str) -> PathBuf {
    goldens_dir().join(format!("{deck_name}.golden"))
}

/// Verify one deck's committed registry against a fresh run of the full
/// matrix. `Err` carries one line per divergence.
pub fn check_deck(deck_name: &str, deck_text: &str) -> Result<usize, Vec<String>> {
    let path = golden_path(deck_name);
    let committed = std::fs::read_to_string(&path).map_err(|e| {
        vec![format!(
            "cannot read {}: {e} (run --bless first)",
            path.display()
        )]
    })?;
    let expected = parse_registry(&committed).map_err(|e| vec![e])?;
    let actual = compute_goldens(deck_name, deck_text);
    let problems = diff_registries(&expected, &actual);
    if problems.is_empty() {
        Ok(expected.len())
    } else {
        Err(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<GoldenEntry> {
        vec![
            GoldenEntry {
                solver: "cg".into(),
                port: "serial".into(),
                iterations: 42,
                converged: true,
                bits: [
                    1.0f64.to_bits(),
                    2.5f64.to_bits(),
                    (-0.0f64).to_bits(),
                    f64::MIN_POSITIVE.to_bits(),
                ],
            },
            GoldenEntry {
                solver: "cg".into(),
                port: "mpisim-4".into(),
                iterations: 42,
                converged: true,
                bits: [0, 1, 2, 3],
            },
        ]
    }

    #[test]
    fn registry_round_trips_bit_exactly() {
        let entries = sample();
        let text = render_registry("sample", &entries);
        let back = parse_registry(&text).unwrap();
        assert_eq!(back, entries);
    }

    #[test]
    fn diff_catches_drift_missing_and_extra() {
        let golden = sample();
        let mut drifted = sample();
        drifted[0].bits[3] ^= 1; // one ulp of temperature
        let problems = diff_registries(&golden, &drifted);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("drifted"), "{}", problems[0]);

        let problems = diff_registries(&golden, &golden[..1]);
        assert!(problems.iter().any(|p| p.contains("missing")));
        let problems = diff_registries(&golden[..1], &golden);
        assert!(problems.iter().any(|p| p.contains("extra")));
    }

    #[test]
    fn malformed_registry_rejected() {
        assert!(parse_registry("cg serial 1 true 0x0 0x0 0x0").is_err());
        assert!(parse_registry("cg serial one true 0x0 0x0 0x0 0x0").is_err());
        assert!(parse_registry("cg serial 1 true 0xZZ 0x0 0x0 0x0").is_err());
        assert!(parse_registry("# only comments\n\n").unwrap().is_empty());
    }
}
