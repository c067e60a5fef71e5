//! `tea-prof` — run one deck × port × solver with telemetry on and
//! print the trace or the per-kernel profile.
//!
//! ```text
//! cargo run -p tea-conformance --bin tea-prof -- --deck conf_tiny --model cuda
//! cargo run -p tea-conformance --bin tea-prof -- --model serial --format chrome > trace.json
//! cargo run -p tea-conformance --bin tea-prof -- --model cuda --diff kokkos --solver cg
//! ```
//!
//! `--format table` (default) prints the per-kernel profile — time,
//! bytes, achieved bandwidth and the fraction of the device's STREAM
//! triad ceiling, i.e. the paper's Figure 12 at kernel granularity.
//! `--format json` emits the span/event trace as JSONL; `--format
//! chrome` emits Chrome trace-event JSON for `chrome://tracing` or
//! Perfetto. `--top N` keeps the N hottest kernels. `--diff <model>`
//! runs a second port on the same deck and tables the per-kernel
//! simulated-seconds gap — on a CG run the reduction kernels dominate
//! that gap, which is the paper's central observation about why the
//! models diverge. `--validate` re-parses whatever was emitted and
//! fails loudly if the trace is malformed (used by CI).
//!
//! `--tuned` compares the committed autotuned launch configurations
//! against the generic per-device defaults: the deck runs twice — once
//! with `tl_autotune=off` (every kernel charged the default
//! work-group/team/tile/SIMD shape and its configuration-efficiency
//! penalty) and once with the tuning registry on — and the table/JSON
//! diffs per-kernel simulated seconds and joules. Exits 1 if the tuned
//! configuration regresses any kernel, which is the CI gate on the
//! registry's claim that tuned ≥ default everywhere.
//!
//! `--energy` switches every view to the simulated power model: the
//! table becomes the per-kernel energy budget (joules, share of the
//! total, average watts) with transfer/idle energy and joules-per-solve
//! as footer rows; `--diff` tables the per-kernel joules gap between two
//! ports; `--format json`/`chrome` emit the energy rows as JSONL records
//! and Chrome counter events. With `--validate` the per-kernel joules
//! are re-folded and checked **bit-exactly** against the report's
//! joules-per-solve — the accounting identity CI enforces.

use std::process::ExitCode;

use mpisim::KillSpec;
use tea_conformance::{
    builtin_deck, deck_config, fault_spec_for, model_name, natural_device, parse_model,
};
use tea_core::config::SolverKind;
use tea_core::tablefmt::{fmt_secs, Table};
use tea_telemetry::export::{energy_to_chrome_events, energy_to_jsonl, to_chrome, to_jsonl};
use tea_telemetry::{json, Record};
use tealeaf::distributed::DistributedSpec;
use tealeaf::{run, Exec, ModelId, Run, RunReport, RunSpec, TelemetrySink};

use simdev::{devices, DeviceSpec};

struct Options {
    deck: String,
    model: ModelId,
    solver: Option<SolverKind>,
    format: Format,
    top: usize,
    diff: Option<ModelId>,
    device: Option<DeviceSpec>,
    validate: bool,
    overlap: Option<(usize, usize)>,
    recovery: Option<(usize, usize)>,
    energy: bool,
    tuned: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Table,
    Json,
    Chrome,
}

const USAGE: &str =
    "usage: tea-prof [--deck <name>] [--model <port>] [--solver jacobi|cg|chebyshev|ppcg] \
     [--format table|json|chrome] [--top N] [--diff <port>] [--device cpu|gpu|knc] [--validate] \
     [--overlap GXxGY] [--recovery GXxGY] [--energy] [--tuned]";

fn parse_solver(name: &str) -> Option<SolverKind> {
    match name {
        "jacobi" => Some(SolverKind::Jacobi),
        "cg" => Some(SolverKind::ConjugateGradient),
        "chebyshev" => Some(SolverKind::Chebyshev),
        "ppcg" => Some(SolverKind::Ppcg),
        _ => None,
    }
}

fn parse_device(name: &str) -> Option<DeviceSpec> {
    match name {
        "cpu" => Some(devices::cpu_xeon_e5_2670_x2()),
        "gpu" => Some(devices::gpu_k20x()),
        "knc" => Some(devices::knc_xeon_phi()),
        _ => None,
    }
}

fn parse_args(argv: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        deck: "conf_tiny".to_string(),
        model: ModelId::Serial,
        solver: None,
        format: Format::Table,
        top: 0,
        diff: None,
        device: None,
        validate: false,
        overlap: None,
        recovery: None,
        energy: false,
        tuned: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--deck" => opts.deck = value("--deck")?,
            "--model" => {
                let v = value("--model")?;
                opts.model = parse_model(&v).ok_or_else(|| format!("unknown port '{v}'"))?;
            }
            "--solver" => {
                let v = value("--solver")?;
                opts.solver =
                    Some(parse_solver(&v).ok_or_else(|| format!("unknown solver '{v}'"))?);
            }
            "--format" => {
                opts.format = match value("--format")?.as_str() {
                    "table" => Format::Table,
                    "json" => Format::Json,
                    "chrome" => Format::Chrome,
                    v => return Err(format!("unknown format '{v}'")),
                }
            }
            "--top" => {
                let v = value("--top")?;
                opts.top = v.parse().map_err(|_| format!("bad --top value '{v}'"))?;
            }
            "--diff" => {
                let v = value("--diff")?;
                opts.diff = Some(parse_model(&v).ok_or_else(|| format!("unknown port '{v}'"))?);
            }
            "--device" => {
                let v = value("--device")?;
                opts.device =
                    Some(parse_device(&v).ok_or_else(|| format!("unknown device '{v}'"))?);
            }
            "--validate" => opts.validate = true,
            "--energy" => opts.energy = true,
            "--tuned" => opts.tuned = true,
            "--overlap" => {
                let v = value("--overlap")?;
                let grid = v
                    .split_once('x')
                    .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
                    .filter(|&(gx, gy)| gx >= 1 && gy >= 1)
                    .ok_or_else(|| format!("bad --overlap grid '{v}' (expected e.g. 2x2)"))?;
                opts.overlap = Some(grid);
            }
            "--recovery" => {
                let v = value("--recovery")?;
                let grid = v
                    .split_once('x')
                    .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
                    .filter(|&(gx, gy)| gx >= 1 && gy >= 1)
                    .ok_or_else(|| format!("bad --recovery grid '{v}' (expected e.g. 2x2)"))?;
                opts.recovery = Some(grid);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(opts)
}

/// Run one traced simulation, with the tuning registry forced on or off
/// when `autotune` says so, returning the report and its records.
fn run_traced(
    model: ModelId,
    device: &DeviceSpec,
    deck: &str,
    solver: Option<SolverKind>,
    autotune: Option<bool>,
) -> Result<(RunReport, Vec<Record>), String> {
    let text = builtin_deck(deck)
        .ok_or_else(|| format!("no builtin deck '{deck}' (try conf_tiny or conf_small)"))?;
    let mut cfg = deck_config(deck, text);
    cfg.solver = solver.unwrap_or(cfg.solver);
    cfg.tl_autotune = autotune.unwrap_or(cfg.tl_autotune);
    let (sink, collector) = TelemetrySink::collecting();
    let run = run(&RunSpec {
        sink,
        ..RunSpec::new(&cfg, Exec::port(model, device))
    })
    .map_err(|e| format!("{} cannot run on {}: {e}", model_name(model), device.name))?;
    Ok((run.report, collector.records()))
}

/// The `--tuned` mode: per-kernel untuned-vs-tuned diff of simulated
/// seconds and joules. Returns the rendered output and whether any
/// kernel regressed under the tuned configuration (tuned strictly slower
/// than untuned — the registry's invariant is tuned ≥ default
/// everywhere, so a regression means the committed registry is wrong).
fn tuned_report(opts: &Options, device: &DeviceSpec) -> Result<(String, bool), String> {
    let (untuned, _) = run_traced(opts.model, device, &opts.deck, opts.solver, Some(false))?;
    let (tuned, _) = run_traced(opts.model, device, &opts.deck, opts.solver, Some(true))?;
    let rows_u = untuned.kernel_rows();
    let rows_t = tuned.kernel_rows();
    let joules_u = untuned.kernel_joules();
    let joules_t = tuned.kernel_joules();
    let mut names: Vec<&str> = rows_u.iter().map(|(n, _)| *n).collect();
    for (n, _) in &rows_t {
        if !names.contains(n) {
            names.push(n);
        }
    }
    names.sort_unstable();
    let secs = |rows: &[(&str, tea_telemetry::KernelStats)], name: &str| {
        rows.iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s.seconds)
            .unwrap_or(0.0)
    };
    let jl = |rows: &[(&str, f64)], name: &str| {
        rows.iter()
            .find(|(n, _)| *n == name)
            .map(|(_, j)| *j)
            .unwrap_or(0.0)
    };
    let mut regressed = false;
    let mut rows: Vec<(String, f64, f64, f64, f64)> = Vec::new();
    for name in &names {
        let (su, st) = (secs(&rows_u, name), secs(&rows_t, name));
        let (ju, jt) = (jl(&joules_u, name), jl(&joules_t, name));
        // Strictly-slower with headroom for the run-jitter-free charge
        // path's last-bit wobble.
        if st > su * (1.0 + 1e-12) {
            regressed = true;
        }
        rows.push((name.to_string(), su, st, ju, jt));
    }
    let speedup = |u: f64, t: f64| if t > 0.0 { u / t } else { f64::INFINITY };
    let out = match opts.format {
        Format::Json | Format::Chrome => {
            let mut out = String::new();
            for (name, su, st, ju, jt) in &rows {
                out.push_str(&format!(
                    "{{\"kernel\":\"{name}\",\"untuned_s\":{su:e},\"tuned_s\":{st:e},\
                     \"untuned_j\":{ju:e},\"tuned_j\":{jt:e},\"speedup\":{:.4}}}\n",
                    speedup(*su, *st)
                ));
            }
            out.push_str(&format!(
                "{{\"kernel\":\"TOTAL\",\"untuned_s\":{:e},\"tuned_s\":{:e},\
                 \"untuned_j\":{:e},\"tuned_j\":{:e},\"speedup\":{:.4}}}\n",
                untuned.sim.seconds,
                tuned.sim.seconds,
                untuned.joules_per_solve(),
                tuned.joules_per_solve(),
                speedup(untuned.sim.seconds, tuned.sim.seconds)
            ));
            out
        }
        Format::Table => {
            let mut table = Table::new(
                &format!(
                    "untuned vs tuned · {} · {} · {} · {}×{}",
                    untuned.model.label(),
                    device.name,
                    untuned.solver.name(),
                    untuned.x_cells,
                    untuned.y_cells
                ),
                &[
                    "kernel",
                    "untuned",
                    "tuned",
                    "speedup",
                    "untuned J",
                    "tuned J",
                ],
            );
            for (name, su, st, ju, jt) in &rows {
                table.row(&[
                    name.clone(),
                    fmt_secs(*su),
                    fmt_secs(*st),
                    format!("{:.3}×", speedup(*su, *st)),
                    format!("{ju:.6}"),
                    format!("{jt:.6}"),
                ]);
            }
            table.row(&[
                "TOTAL".to_string(),
                fmt_secs(untuned.sim.seconds),
                fmt_secs(tuned.sim.seconds),
                format!("{:.3}×", speedup(untuned.sim.seconds, tuned.sim.seconds)),
                format!("{:.6}", untuned.joules_per_solve()),
                format!("{:.6}", tuned.joules_per_solve()),
            ]);
            table.render()
        }
    };
    Ok((out, regressed))
}

/// Check a JSONL trace: every line parses, every open span closes.
fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut open = std::collections::HashSet::new();
    let mut n = 0;
    for (lineno, line) in text.lines().enumerate() {
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let ev = doc
            .get("ev")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("line {}: missing \"ev\"", lineno + 1))?;
        match ev {
            "open" => {
                let id = doc.get("id").and_then(|v| v.as_f64()).unwrap_or(-1.0) as i64;
                open.insert(id);
            }
            "close" => {
                let id = doc.get("id").and_then(|v| v.as_f64()).unwrap_or(-1.0) as i64;
                if !open.remove(&id) {
                    return Err(format!("line {}: close without open (id {id})", lineno + 1));
                }
            }
            "span" | "event" => {}
            "energy" => {
                for field in ["kernel", "joules"] {
                    if doc.get(field).is_none() {
                        return Err(format!("line {}: energy row missing {field}", lineno + 1));
                    }
                }
            }
            "energy_total" => {
                if doc.get("total_joules").and_then(|v| v.as_f64()).is_none() {
                    return Err(format!("line {}: energy_total missing total", lineno + 1));
                }
            }
            other => return Err(format!("line {}: unknown ev '{other}'", lineno + 1)),
        }
        n += 1;
    }
    if !open.is_empty() {
        return Err(format!("{} span(s) never closed", open.len()));
    }
    Ok(n)
}

/// Check a Chrome trace: parses as one JSON document with a
/// `traceEvents` array whose entries all carry `ph` and `name`.
fn validate_chrome(text: &str) -> Result<usize, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("missing traceEvents array")?;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev.get("ph").and_then(|v| v.as_str());
        if !matches!(ph, Some("X") | Some("i") | Some("C")) {
            return Err(format!("event {i}: bad ph {ph:?}"));
        }
        if ev.get("name").and_then(|v| v.as_str()).is_none() {
            return Err(format!("event {i}: missing name"));
        }
    }
    Ok(events.len())
}

/// The `--overlap` mode: run each solver distributed on a tile grid and
/// table the overlap accounting — how much halo traffic the interior
/// passes hid — alongside rank-0's phase-span tallies from the logical
/// clock. Returns `Err` if a multi-rank grid records zero overlap for
/// any solver: the windows exist precisely to hide traffic, so an
/// all-zero column means the instrumentation (or the split) broke.
fn overlap_table(
    deck: &str,
    gx: usize,
    gy: usize,
    solver: Option<SolverKind>,
) -> Result<Table, String> {
    let text = builtin_deck(deck)
        .ok_or_else(|| format!("no builtin deck '{deck}' (try conf_tiny or conf_small)"))?;
    let solvers: Vec<SolverKind> = match solver {
        Some(s) => vec![s],
        None => vec![
            SolverKind::ConjugateGradient,
            SolverKind::Chebyshev,
            SolverKind::Ppcg,
            SolverKind::Jacobi,
        ],
    };
    let mut table = Table::new(
        &format!("Halo/compute overlap · deck {deck} · {gx}x{gy} tiles"),
        &[
            "solver",
            "iters",
            "windows",
            "interior",
            "boundary",
            "exchanged",
            "hidden",
            "overlap",
            "spans e/i/b",
        ],
    );
    for s in solvers {
        let mut cfg = deck_config(deck, text);
        cfg.solver = s;
        let (sink, collector) = TelemetrySink::collecting();
        let exec = Exec::Tiled(DistributedSpec::new(gx, gy));
        let run = run(&RunSpec {
            sink,
            ..RunSpec::new(&cfg, exec)
        })
        .map_err(|e| e.to_string())?;
        let (report, stats, records) = (run.report, run.overlap, collector.records());
        // rank 0's phase spans, tallied by category off the logical clock
        let (mut ne, mut ni, mut nb) = (0u64, 0u64, 0u64);
        for r in &records {
            if let Record::Complete { cat, .. } = r {
                match *cat {
                    "exchange" => ne += 1,
                    "interior" => ni += 1,
                    "boundary" => nb += 1,
                    _ => {}
                }
            }
        }
        if gx * gy > 1 {
            if stats.hidden_elements == 0 {
                return Err(format!(
                    "{}: {gx}x{gy} run hid no traffic — overlap accounting broke",
                    s.name()
                ));
            }
            if ni == 0 || ne == 0 {
                return Err(format!(
                    "{}: {gx}x{gy} run traced no interior/exchange spans",
                    s.name()
                ));
            }
        }
        table.row(&[
            s.name().to_string(),
            report.total_iterations.to_string(),
            stats.windows.to_string(),
            stats.interior_cells.to_string(),
            stats.boundary_cells.to_string(),
            stats.exchanged_elements.to_string(),
            stats.hidden_elements.to_string(),
            format!("{:.1}%", 100.0 * stats.overlap_efficiency()),
            format!("{ne}/{ni}/{nb}"),
        ]);
    }
    Ok(table)
}

/// The `--recovery` mode: run the deck's solver on a tile grid through
/// the self-healing distributed driver under a deterministic chaos row
/// (the deck's `tl_chaos_seed` drives the lossy schedule; multi-rank
/// grids also lose their highest rank once, transiently), then render
/// the recovery timeline — checkpoints taken, worlds lost, restarts and
/// re-tilings — from the telemetry stream, plus the counter summary.
/// `--format json` emits the same timeline as one JSON document.
fn recovery_report(
    deck: &str,
    gx: usize,
    gy: usize,
    solver: Option<SolverKind>,
    format: Format,
) -> Result<String, String> {
    let text = builtin_deck(deck)
        .ok_or_else(|| format!("no builtin deck '{deck}' (try conf_tiny or conf_small)"))?;
    let mut cfg = deck_config(deck, text);
    if let Some(s) = solver {
        cfg.solver = s;
    }
    let ranks = gx * gy;
    let mut spec = fault_spec_for(&cfg, 0);
    if ranks > 1 {
        spec.kill_rank = Some(KillSpec::transient(ranks - 1, 20 + cfg.tl_chaos_seed % 13));
    }
    let (sink, collector) = TelemetrySink::collecting();
    let chaos = Exec::Tiled(DistributedSpec {
        faults: Some(spec),
        ..DistributedSpec::new(gx, gy)
    });
    let Run {
        report,
        recovery: log,
        ..
    } = run(&RunSpec {
        sink,
        ..RunSpec::new(&cfg, chaos)
    })
    .map_err(|d| format!("unrecovered chaos run: {d}"))?;
    let records = collector.records();
    if log.checkpoints_taken == 0 {
        return Err(format!(
            "{gx}x{gy} run took no checkpoints — the rings never filled \
             (tl_checkpoint_interval {})",
            cfg.tl_checkpoint_interval
        ));
    }
    let timeline: Vec<(f64, &str)> = records
        .iter()
        .filter_map(|r| match r {
            Record::Instant { cat, name, t, .. } if *cat == "resilience" => {
                Some((*t, name.as_str()))
            }
            _ => None,
        })
        .collect();
    let summary = format!(
        "checkpoints {} · worlds lost {} · restarts {} · regrids {} · \
         replayed {} bytes · final grid {}x{} · {} iterations, converged {}",
        log.checkpoints_taken,
        log.ranks_lost,
        log.restarts,
        log.regrids,
        log.replayed_bytes,
        log.final_grid.0,
        log.final_grid.1,
        report.total_iterations,
        report.converged
    );
    match format {
        Format::Table => {
            let mut table = Table::new(
                &format!(
                    "Recovery timeline · deck {deck} · {gx}x{gy} tiles · {}",
                    cfg.solver.name()
                ),
                &["t", "event"],
            );
            for (t, name) in &timeline {
                table.row(&[format!("{t:.0}"), name.to_string()]);
            }
            for e in &log.events {
                table.row(&["·".to_string(), format!("driver: {e}")]);
            }
            Ok(format!("{}\n{summary}", table.render()))
        }
        Format::Json | Format::Chrome => {
            // One JSON document; chrome output makes no sense for a
            // timeline of instants, so both spellings emit JSON.
            let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
            let mut out = String::new();
            out.push_str(&format!(
                "{{\"deck\":\"{}\",\"grid\":\"{gx}x{gy}\",\"solver\":\"{}\",\
                 \"checkpoints\":{},\"ranks_lost\":{},\"restarts\":{},\"regrids\":{},\
                 \"replayed_bytes\":{},\"final_grid\":\"{}x{}\",\"timeline\":[",
                esc(deck),
                cfg.solver.name(),
                log.checkpoints_taken,
                log.ranks_lost,
                log.restarts,
                log.regrids,
                log.replayed_bytes,
                log.final_grid.0,
                log.final_grid.1,
            ));
            for (i, (t, name)) in timeline.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"t\":{t},\"event\":\"{}\"}}", esc(name)));
            }
            out.push_str("],\"events\":[");
            for (i, e) in log.events.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"step\":{},\"event\":\"{}\"}}",
                    e.step,
                    esc(&e.to_string())
                ));
            }
            out.push_str("]}");
            Ok(out)
        }
    }
}

/// Side-by-side per-kernel profile of two runs, widest simulated-time
/// gap first — the kernels that explain why the two models differ.
fn diff_table(a: &RunReport, b: &RunReport, top: usize) -> Table {
    let name_a = a.model.label();
    let name_b = b.model.label();
    let rows_a = a.kernel_rows();
    let rows_b = b.kernel_rows();
    let mut names: Vec<&str> = rows_a.iter().map(|(n, _)| *n).collect();
    for (n, _) in &rows_b {
        if !names.contains(n) {
            names.push(n);
        }
    }
    let seconds = |rows: &[(&str, tea_telemetry::KernelStats)], name: &str| {
        rows.iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s.seconds)
            .unwrap_or(0.0)
    };
    let mut gaps: Vec<(String, f64, f64)> = names
        .iter()
        .map(|n| (n.to_string(), seconds(&rows_a, n), seconds(&rows_b, n)))
        .collect();
    gaps.sort_by(|x, y| {
        let gx = (x.1 - x.2).abs();
        let gy = (y.1 - y.2).abs();
        gy.partial_cmp(&gx)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| x.0.cmp(&y.0))
    });
    if top > 0 {
        gaps.truncate(top);
    }
    let mut table = Table::new(
        &format!(
            "{name_a} vs {name_b} · {} · {}×{}",
            a.solver.name(),
            a.x_cells,
            a.y_cells
        ),
        &["kernel", name_a, name_b, "gap", "ratio"],
    );
    for (name, sa, sb) in gaps {
        let ratio = if sa > 0.0 { sb / sa } else { f64::INFINITY };
        table.row(&[
            name,
            fmt_secs(sa),
            fmt_secs(sb),
            fmt_secs(sb - sa),
            format!("{ratio:.2}×"),
        ]);
    }
    table
}

/// The accounting identity `--energy --validate` enforces: re-folding
/// the name-sorted per-kernel joules rows left to right, then adding
/// transfer and idle energy, must reproduce the report's joules-per-solve
/// **bit-exactly** — the same canonical fold, computed twice.
fn validate_energy_identity(report: &RunReport) -> Result<(), String> {
    let fold: f64 = report.kernel_joules().iter().map(|(_, j)| j).sum();
    let total = fold + report.sim.energy.transfer_joules + report.sim.energy.idle_joules;
    let headline = report.joules_per_solve();
    if total.to_bits() != headline.to_bits() {
        return Err(format!(
            "per-kernel joules fold ({total:e}, bits {:#x}) != joules-per-solve \
             ({headline:e}, bits {:#x})",
            total.to_bits(),
            headline.to_bits()
        ));
    }
    Ok(())
}

/// Side-by-side per-kernel energy budget of two runs, widest joules gap
/// first, with the run totals as a footer row.
fn energy_diff_table(a: &RunReport, b: &RunReport, top: usize) -> Table {
    let name_a = a.model.label();
    let name_b = b.model.label();
    let rows_a = a.kernel_joules();
    let rows_b = b.kernel_joules();
    let mut names: Vec<&str> = rows_a.iter().map(|(n, _)| *n).collect();
    for (n, _) in &rows_b {
        if !names.contains(n) {
            names.push(n);
        }
    }
    let joules = |rows: &[(&str, f64)], name: &str| {
        rows.iter()
            .find(|(n, _)| *n == name)
            .map(|(_, j)| *j)
            .unwrap_or(0.0)
    };
    let mut gaps: Vec<(String, f64, f64)> = names
        .iter()
        .map(|n| (n.to_string(), joules(&rows_a, n), joules(&rows_b, n)))
        .collect();
    gaps.sort_by(|x, y| {
        let gx = (x.1 - x.2).abs();
        let gy = (y.1 - y.2).abs();
        gy.partial_cmp(&gx)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| x.0.cmp(&y.0))
    });
    if top > 0 {
        gaps.truncate(top);
    }
    let mut table = Table::new(
        &format!(
            "{name_a} vs {name_b} · {} · {}×{} · energy",
            a.solver.name(),
            a.x_cells,
            a.y_cells
        ),
        &["kernel", name_a, name_b, "gap J", "ratio"],
    );
    let fmt_j = |j: f64| format!("{j:.6}");
    for (name, ja, jb) in gaps {
        let ratio = if ja > 0.0 { jb / ja } else { f64::INFINITY };
        table.row(&[
            name,
            fmt_j(ja),
            fmt_j(jb),
            fmt_j(jb - ja),
            format!("{ratio:.2}×"),
        ]);
    }
    table.row(&[
        "total".to_string(),
        fmt_j(a.joules_per_solve()),
        fmt_j(b.joules_per_solve()),
        fmt_j(b.joules_per_solve() - a.joules_per_solve()),
        format!(
            "{:.2}×",
            if a.joules_per_solve() > 0.0 {
                b.joules_per_solve() / a.joules_per_solve()
            } else {
                f64::INFINITY
            }
        ),
    ]);
    table
}

/// Render the `--energy` view of one report in the requested format.
fn energy_output(report: &RunReport, format: Format, top: usize) -> String {
    let rows = report.kernel_rows();
    let e = &report.sim.energy;
    match format {
        Format::Table => {
            let mut out = report.render_energy(top);
            out.push_str(&format!(
                "joules-per-solve: {:.6} J · avg {:.1} W · EDP {:.6} J·s\n\
                 wall partition: {:.6}s active, {:.6}s transfer, {:.6}s idle\n",
                report.joules_per_solve(),
                report.avg_watts(),
                report.energy_delay_product(),
                e.active_seconds,
                e.transfer_seconds,
                e.idle_seconds,
            ));
            out
        }
        Format::Json => energy_to_jsonl(
            &rows,
            e.transfer_joules,
            e.idle_joules,
            report.joules_per_solve(),
        ),
        Format::Chrome => {
            let events = energy_to_chrome_events(
                &rows,
                e.transfer_joules,
                e.idle_joules,
                report.joules_per_solve(),
            );
            format!("{{\"traceEvents\":[{}]}}\n", events.join(","))
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if let Some((gx, gy)) = opts.recovery {
        return match recovery_report(&opts.deck, gx, gy, opts.solver, opts.format) {
            Ok(out) => {
                println!("{out}");
                if opts.validate && opts.format != Format::Table {
                    if let Err(e) = json::parse(&out) {
                        eprintln!("recovery json INVALID: {e}");
                        return ExitCode::from(1);
                    }
                    eprintln!("recovery json validates");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(1)
            }
        };
    }

    if let Some((gx, gy)) = opts.overlap {
        return match overlap_table(&opts.deck, gx, gy, opts.solver) {
            Ok(table) => {
                println!("{}", table.render());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(1)
            }
        };
    }

    let device = opts
        .device
        .clone()
        .unwrap_or_else(|| natural_device(opts.model));

    if opts.tuned {
        return match tuned_report(&opts, &device) {
            Ok((out, regressed)) => {
                print!("{out}");
                if regressed {
                    eprintln!("tuned configuration REGRESSES at least one kernel");
                    ExitCode::from(1)
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }

    let (report, records) = match run_traced(opts.model, &device, &opts.deck, opts.solver, None) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    if opts.energy && opts.validate {
        match validate_energy_identity(&report) {
            Ok(()) => eprintln!(
                "energy identity validates: per-kernel joules fold to {:.6} J bit-exactly",
                report.joules_per_solve()
            ),
            Err(e) => {
                eprintln!("energy accounting INVALID: {e}");
                return ExitCode::from(1);
            }
        }
    }

    if let Some(other) = opts.diff {
        let other_device = opts.device.clone().unwrap_or_else(|| natural_device(other));
        let (other_report, _) =
            match run_traced(other, &other_device, &opts.deck, opts.solver, None) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
        if opts.energy {
            if opts.validate {
                if let Err(e) = validate_energy_identity(&other_report) {
                    eprintln!("energy accounting INVALID for diff target: {e}");
                    return ExitCode::from(1);
                }
            }
            println!(
                "{}",
                energy_diff_table(&report, &other_report, opts.top).render()
            );
        } else {
            println!("{}", diff_table(&report, &other_report, opts.top).render());
        }
        return ExitCode::SUCCESS;
    }

    if opts.energy {
        let out = energy_output(&report, opts.format, opts.top);
        if opts.validate {
            match opts.format {
                Format::Table => {}
                Format::Json => match validate_jsonl(&out) {
                    Ok(n) => eprintln!("energy jsonl validates: {n} records"),
                    Err(e) => {
                        eprintln!("energy jsonl INVALID: {e}");
                        return ExitCode::from(1);
                    }
                },
                Format::Chrome => match validate_chrome(&out) {
                    Ok(n) => eprintln!("energy chrome trace validates: {n} events"),
                    Err(e) => {
                        eprintln!("energy chrome trace INVALID: {e}");
                        return ExitCode::from(1);
                    }
                },
            }
        }
        print!("{out}");
        return ExitCode::SUCCESS;
    }

    match opts.format {
        Format::Table => {
            print!("{}", report.render_profile(&device, opts.top));
            println!("recovery: {}", report.recovery_summary());
            println!(
                "trace: {} records, {:.6} simulated seconds",
                records.len(),
                report.sim.seconds
            );
        }
        Format::Json => {
            let text = to_jsonl(&records);
            if opts.validate {
                match validate_jsonl(&text) {
                    Ok(n) => eprintln!("jsonl trace validates: {n} records"),
                    Err(e) => {
                        eprintln!("jsonl trace INVALID: {e}");
                        return ExitCode::from(1);
                    }
                }
            }
            print!("{text}");
        }
        Format::Chrome => {
            let text = to_chrome(&records);
            if opts.validate {
                match validate_chrome(&text) {
                    Ok(n) => eprintln!("chrome trace validates: {n} events"),
                    Err(e) => {
                        eprintln!("chrome trace INVALID: {e}");
                        return ExitCode::from(1);
                    }
                }
            }
            println!("{text}");
        }
    }
    ExitCode::SUCCESS
}
