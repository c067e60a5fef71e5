//! Reference fingerprints behind `solve_error_rate`.
//!
//! `reference.txt` records, once, the Serial port's result for every
//! (mesh, steps, solver) the workloads run — field-summary bits and the
//! iteration count — plus the simulated-seconds bits of every port row.
//! Every port row and every tiled row of a run is checked against it.
//!
//! Line format (`#` starts a comment):
//!
//! ```text
//! fingerprint <mesh> <steps> <solver> <iterations> <volume> <mass> <internal_energy> <temperature>
//! sim_seconds <mesh> <steps> <solver> <port> <seconds>
//! ```
//!
//! Floating-point values are written as the 16-hex-digit IEEE-754 bits.

use std::collections::BTreeMap;

use tea_core::summary::Summary;

/// (mesh side, steps, solver name).
pub type RunKey = (usize, usize, String);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub iterations: usize,
    pub summary: [u64; 4],
}

impl Fingerprint {
    pub fn new(iterations: usize, summary: &Summary) -> Self {
        Fingerprint {
            iterations,
            summary: [
                summary.volume.to_bits(),
                summary.mass.to_bits(),
                summary.internal_energy.to_bits(),
                summary.temperature.to_bits(),
            ],
        }
    }
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reference {
    pub fingerprints: BTreeMap<RunKey, Fingerprint>,
    /// Simulated-seconds bits per (run, port key).
    pub sim_seconds: BTreeMap<(RunKey, String), u64>,
}

fn hex(field: Option<&str>, line: usize) -> Result<u64, String> {
    let s = field.ok_or_else(|| format!("reference line {line}: missing field"))?;
    u64::from_str_radix(s, 16).map_err(|e| format!("reference line {line}: {s:?}: {e}"))
}

fn num(field: Option<&str>, line: usize) -> Result<usize, String> {
    let s = field.ok_or_else(|| format!("reference line {line}: missing field"))?;
    s.parse()
        .map_err(|e| format!("reference line {line}: {s:?}: {e}"))
}

impl Reference {
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut reference = Reference::default();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let body = raw.split('#').next().unwrap_or("").trim();
            if body.is_empty() {
                continue;
            }
            let mut f = body.split_whitespace();
            let kind = f.next().unwrap_or("");
            let mesh = num(f.next(), line)?;
            let steps = num(f.next(), line)?;
            let solver = f
                .next()
                .ok_or_else(|| format!("reference line {line}: missing solver"))?
                .to_string();
            let key = (mesh, steps, solver);
            match kind {
                "fingerprint" => {
                    let iterations = num(f.next(), line)?;
                    let mut summary = [0u64; 4];
                    for s in &mut summary {
                        *s = hex(f.next(), line)?;
                    }
                    reference.fingerprints.insert(
                        key,
                        Fingerprint {
                            iterations,
                            summary,
                        },
                    );
                }
                "sim_seconds" => {
                    let port = f
                        .next()
                        .ok_or_else(|| format!("reference line {line}: missing port"))?
                        .to_string();
                    reference
                        .sim_seconds
                        .insert((key, port), hex(f.next(), line)?);
                }
                other => return Err(format!("reference line {line}: unknown kind {other:?}")),
            }
            if f.next().is_some() {
                return Err(format!("reference line {line}: trailing fields"));
            }
        }
        Ok(reference)
    }

    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Serial reference fingerprints and per-port simulated seconds (IEEE-754 bits).\n\
             # Regenerate with: cargo run --release --manifest-path hostbench/Cargo.toml -- --record-reference hostbench/reference.txt\n",
        );
        for ((mesh, steps, solver), fp) in &self.fingerprints {
            let [a, b, c, d] = fp.summary;
            out.push_str(&format!(
                "fingerprint {mesh} {steps} {solver} {} {a:016x} {b:016x} {c:016x} {d:016x}\n",
                fp.iterations
            ));
        }
        for (((mesh, steps, solver), port), bits) in &self.sim_seconds {
            out.push_str(&format!(
                "sim_seconds {mesh} {steps} {solver} {port} {bits:016x}\n"
            ));
        }
        out
    }

    /// Why `found` differs from the recorded Serial result, if it does.
    pub fn check_fingerprint(&self, key: &RunKey, found: Fingerprint) -> Result<(), String> {
        match self.fingerprints.get(key) {
            None => Err(format!("no reference fingerprint for {key:?}")),
            Some(want) if want.iterations != found.iterations => Err(format!(
                "{key:?}: {} iterations, reference {}",
                found.iterations, want.iterations
            )),
            Some(want) if want.summary != found.summary => Err(format!(
                "{key:?}: field summary bits differ from the reference"
            )),
            Some(_) => Ok(()),
        }
    }

    /// Why `seconds` differs from the recorded simulated time, if it does.
    pub fn check_sim_seconds(&self, key: &RunKey, port: &str, seconds: f64) -> Result<(), String> {
        match self.sim_seconds.get(&(key.clone(), port.to_string())) {
            None => Err(format!(
                "no reference simulated seconds for {key:?} on {port}"
            )),
            Some(&bits) if bits != seconds.to_bits() => Err(format!(
                "{key:?} on {port}: simulated {seconds} s, reference {}",
                f64::from_bits(bits)
            )),
            Some(_) => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let mut r = Reference::default();
        let key = (16, 2, "cg".to_string());
        let summary = Summary {
            volume: 1.0,
            mass: 2.5,
            internal_energy: -3.0,
            temperature: 0.1,
        };
        r.fingerprints
            .insert(key.clone(), Fingerprint::new(42, &summary));
        r.sim_seconds
            .insert((key.clone(), "cuda".into()), 1.25f64.to_bits());
        let back = Reference::parse(&r.render()).unwrap();
        assert_eq!(back, r);
        assert!(back
            .check_fingerprint(&key, Fingerprint::new(42, &summary))
            .is_ok());
        assert!(back
            .check_fingerprint(&key, Fingerprint::new(43, &summary))
            .is_err());
        assert!(back.check_sim_seconds(&key, "cuda", 1.25).is_ok());
        assert!(back.check_sim_seconds(&key, "cuda", 1.5).is_err());
        assert!(back.check_sim_seconds(&key, "serial", 1.25).is_err());
    }

    #[test]
    fn malformed_lines_are_errors() {
        assert!(Reference::parse("fingerprint 16 2 cg 4 00 00 00\n").is_err());
        assert!(Reference::parse("bogus 16 2 cg\n").is_err());
        assert!(Reference::parse("sim_seconds 16 2 cg cuda zz\n").is_err());
    }
}
