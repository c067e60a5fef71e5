//! Self-test of the benchmark: a tiny-size pass of every workload must
//! print every metric `BENCHMARK.json` names, with its unit, and a wrong
//! reference fingerprint must show up as failed solves.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m
                .get(key)
                .unwrap_or_else(|| panic!("missing key {key:?} in {self:?}")),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            _ => panic!("not a number: {self:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => panic!("not an array: {self:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            _ => panic!("not an object: {self:?}"),
        }
    }
}

/// A small recursive-descent JSON parser (enough for the benchmark's
/// own files and output).
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input in {text:?}");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn lit(&mut self, word: &str, v: Json) -> Json {
        assert!(
            self.s[self.i..].starts_with(word.as_bytes()),
            "bad literal at byte {}",
            self.i
        );
        self.i += word.len();
        v
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k:?}");
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(a),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    let c = self.s[self.i];
                    self.i += 1;
                    match c {
                        b'"' => return Json::Str(out),
                        b'\\' => {
                            let e = self.s[self.i];
                            self.i += 1;
                            match e {
                                b'n' => out.push('\n'),
                                b't' => out.push('\t'),
                                b'u' => {
                                    let hex =
                                        std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                                    out.push(
                                        char::from_u32(u32::from_str_radix(hex, 16).unwrap())
                                            .unwrap(),
                                    );
                                    self.i += 4;
                                }
                                other => out.push(other as char),
                            }
                        }
                        _ => {
                            // copy one UTF-8 sequence verbatim
                            let start = self.i - 1;
                            while self.i < self.s.len() && (self.s[self.i] & 0xC0) == 0x80 {
                                self.i += 1;
                            }
                            out.push_str(std::str::from_utf8(&self.s[start..self.i]).unwrap());
                        }
                    }
                }
            }
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|e| panic!("bad number {text:?}: {e}")),
                )
            }
        }
    }
}

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Json {
    let path = manifest_dir().join("../BENCHMARK.json");
    Parser::parse(
        &std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())),
    )
}

/// Run a tiny pass and return the parsed result line.
fn run_tiny(workload: &str, trace: u8, extra: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_tea-hostbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
        ])
        .arg(trace.to_string())
        .args(["--scale", "tiny"])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Parser::parse(last);
    let keys: Vec<&String> = result.obj().keys().collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{last}"
    );
    result
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(bench: &Json, list: &str) -> BTreeMap<String, String> {
    bench
        .get(list)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let bench = benchmark_json();
    for wl in bench.get("workloads").arr() {
        let name = wl.get("name").str();
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let result = run_tiny(name, trace, &[]);
            assert_eq!(
                result.get("correct"),
                &Json::Bool(true),
                "{name} trace={trace}"
            );
            assert_eq!(result.get("failed").num(), 0.0, "{name} trace={trace}");
            assert!(result.get("attempted").num() >= 1.0, "{name} trace={trace}");
            let printed: BTreeMap<String, String> = result
                .get("metrics")
                .obj()
                .iter()
                .map(|(k, v)| {
                    assert!(v.get("value").num().is_finite(), "{name} {k}");
                    (k.clone(), v.get("unit").str().to_string())
                })
                .collect();
            assert_eq!(printed, declared(&bench, list), "{name} trace={trace}");
        }
    }
}

#[test]
fn wrong_reference_fingerprint_drives_the_error_rate_above_zero() {
    let good = std::fs::read_to_string(manifest_dir().join("reference.txt")).unwrap();
    let line = good
        .lines()
        .find(|l| l.starts_with("fingerprint 16 2 cg "))
        .expect("tiny small_sweep CG fingerprint");
    let mut fields: Vec<String> = line.split_whitespace().map(str::to_string).collect();
    let iterations: usize = fields[4].parse().unwrap();
    fields[4] = (iterations + 1).to_string();
    let bad = good.replace(line, &fields.join(" "));
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("wrong-reference.txt");
    std::fs::write(&path, bad).unwrap();
    let path = path.to_str().unwrap();

    let traced = run_tiny("small_sweep", 1, &["--reference", path]);
    assert_eq!(traced.get("correct"), &Json::Bool(false));
    assert!(traced.get("failed").num() > 0.0);
    let rate = traced
        .get("metrics")
        .get("solve_error_rate")
        .get("value")
        .num();
    assert!(rate > 0.0, "solve_error_rate = {rate}");

    let plain = run_tiny("small_sweep", 0, &["--reference", path]);
    assert_eq!(plain.get("correct"), &Json::Bool(false));
    assert!(plain.get("failed").num() > 0.0);
}

#[test]
fn unknown_workload_is_an_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_tea-hostbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
