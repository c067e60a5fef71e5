//! Host-clock benchmark of the TeaLeaf reproduction.
//!
//! ```sh
//! cargo run --release -q --manifest-path hostbench/Cargo.toml -- \
//!     --workload small_sweep --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs one named workload through the public run API for `--seconds`,
//! checks every solve against the reference fingerprints, and prints a
//! JSON record of the host and inputs followed by the result line
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones (tracing off); with `--trace 1` they
//! are the per-layer ones, and the run's host-time spans are written to
//! `hostbench/out/` with the `tea_telemetry` Chrome exporter.
//!
//! `--seed` fixes the order the cases of each pass run in; the inputs
//! (mesh, solver, ports) are the workload's own. `--scale tiny` runs the
//! same workloads at seconds-scale sizes (the self-test), `--reference`
//! replaces the compiled-in reference file, and `--record-reference
//! <path>` regenerates it.

mod host;
mod layers;
mod micro;
mod probe;
mod reference;
mod setup;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tea_telemetry::TelemetrySink;

use layers::{Micro, Row, ESTIMATES};
use probe::HostSpans;
use reference::Reference;
use stats::{quantile, ratio, SplitMix};
use workload::{Exec, Scale, Variant, Workload};

/// Passes (or rounds of passes, traced) run however short `--seconds`.
const MIN_ROUNDS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    reference: Option<PathBuf>,
    record_reference: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        reference: None,
        record_reference: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    other => return Err(format!("--scale takes full or tiny, not {other:?}")),
                }
            }
            "--reference" => args.reference = Some(PathBuf::from(value()?)),
            "--record-reference" => args.record_reference = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", tea_telemetry::export::escape_json(s))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_list(items: &[String]) -> String {
    format!(
        "[{}]",
        items
            .iter()
            .map(|s| json_str(s))
            .collect::<Vec<_>>()
            .join(",")
    )
}

/// Run passes of `variants` until `seconds` have elapsed (and at least
/// [`MIN_ROUNDS`] rounds ran). Returns the measured rows, attempted and
/// failed timestep solves, and the share of CPU time the hypervisor stole
/// meanwhile (what a co-tenant's load costs a shared host).
fn measure(
    wl: &Workload,
    setup: &setup::Setup,
    reference: &Reference,
    args: &Args,
    variants: &[Variant],
    spans: Option<&HostSpans>,
) -> (Vec<Row>, usize, usize, f64) {
    let mut rng = SplitMix::new(args.seed);
    let (mut rows, mut attempted, mut failed) = (Vec::new(), 0, 0);
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let ticks = host::cpu_ticks();
    let mut round = 0;
    while round < MIN_ROUNDS || start.elapsed() < budget {
        for &variant in variants {
            let mut cases = wl.cases();
            rng.shuffle(&mut cases);
            let pass_span = spans.map(|s| {
                let id = s.sink.open_span(
                    "pass",
                    format_args!("round {round} {variant:?}"),
                    s.at(Instant::now()),
                );
                (s, id)
            });
            for case in cases {
                // Host spans of every call are kept for the first traced
                // pass only, which bounds the trace's size.
                let case_spans = spans.filter(|_| round == 0 && variant == Variant::Traced);
                attempted += wl.steps;
                match workload::run_case(wl, &setup.problem, case, variant, reference, case_spans) {
                    Ok(sample) => rows.push(Row {
                        round,
                        case,
                        variant,
                        sample,
                    }),
                    Err(why) => {
                        failed += wl.steps;
                        eprintln!("solve failed: {why}");
                    }
                }
            }
            if let Some((s, id)) = pass_span {
                s.sink.close_span(id, s.at(Instant::now()));
            }
        }
        round += 1;
    }
    let (steal, total) = host::cpu_ticks();
    let steal_frac = ratio((steal - ticks.0) as f64, (total - ticks.1) as f64);
    (rows, attempted, failed, steal_frac)
}

fn micro_benchmarks(wl: &Workload, setup: &setup::Setup, rows: &[Row], scale: Scale) -> Micro {
    let message_elements = {
        let (messages, elements) = rows.iter().fold((0, 0), |(m, e), r| {
            (
                m + r.sample.exchange.total_messages(),
                e + r.sample.exchange.total_elements(),
            )
        });
        // halo-sized: the tiled runs' mean payload, else one mesh edge
        elements
            .checked_div(messages)
            .map_or(wl.mesh, |e| e as usize)
    };
    Micro {
        post_join_us: micro::post_join_us(parpool::global_static(), wl.mesh, scale),
        steal_post_join_us: micro::post_join_us(parpool::global_steal(), wl.mesh, scale),
        kernel_ns_per_cell: micro::kernel_bodies(wl.mesh, scale).ns_per_cell,
        triad_gbs: micro::triad_gbs(parpool::global_static(), scale),
        charge_ns: wl
            .ports()
            .iter()
            .map(|&p| (p.key, micro::charge_ns_per_launch(&setup.problem, p, scale)))
            .collect(),
        us_per_message: micro::us_per_message(message_elements, scale),
    }
}

fn host_record(wl: &Workload, args: &Args, rows: &[Row], extra: &[(String, String)]) -> String {
    let caches = host::caches();
    let llc = host::last_level_cache_bytes(&caches);
    let ws = wl.working_set_bytes();
    let by_workload: Vec<String> = workload::NAMES
        .iter()
        .filter_map(|&name| workload::workload(name, args.scale))
        .map(|w| format!("{}:{}", json_str(w.name), w.working_set_bytes()))
        .collect();
    let cache_list: Vec<String> = caches
        .iter()
        .map(|(level, kind, size)| format!("L{level} {kind} {size}"))
        .collect();
    let mut fields = vec![
        ("workload".to_string(), json_str(wl.name)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), json_num(args.seconds)),
        ("trace".into(), (args.trace as u8).to_string()),
        ("commit".into(), json_str(&host::commit())),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("cpu_model".into(), json_str(&host::cpu_model())),
        ("caches_as_reported".into(), json_list(&cache_list)),
        (
            "parpool_threads_env".into(),
            std::env::var("PARPOOL_THREADS").map_or("null".into(), |v| json_str(&v)),
        ),
        (
            "static_pool_threads".into(),
            parpool::Executor::threads(parpool::global_static()).to_string(),
        ),
        (
            "steal_pool_threads".into(),
            parpool::Executor::threads(parpool::global_steal()).to_string(),
        ),
        ("mesh".into(), format!("{}", wl.mesh)),
        ("steps".into(), wl.steps.to_string()),
        ("working_set_bytes_computed".into(), ws.to_string()),
        (
            "working_set_bytes_by_workload".into(),
            format!("{{{}}}", by_workload.join(",")),
        ),
        (
            "working_set_note".into(),
            json_str(&if ws <= llc {
                format!("computed working set fits the {llc}-byte last-level cache as reported, so by that figure it is cache-resident")
            } else {
                format!("computed working set exceeds the {llc}-byte last-level cache as reported")
            }),
        ),
        (
            "passes".into(),
            rows.iter()
                .map(|r| r.round + 1)
                .max()
                .unwrap_or(0)
                .to_string(),
        ),
        ("measured_cases".into(), rows.len().to_string()),
    ];
    fields.extend(extra.iter().cloned());
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{\"record\":{{{}}}}}", body.join(","))
}

/// End-to-end metrics over the untraced passes. Each case's host time is
/// read at its fast quartile over the passes (the time a quarter of its
/// solves beat), and the rates are those of one pass of every case at
/// those times. CPU time a shared host's hypervisor steals only ever
/// slows a solve, and on a 2-vCPU host it reached 29% of a run, in
/// bursts; reading each case at its fast quartile keeps a run steady
/// unless most of that case's solves are slowed. Also returns each
/// pass's rate, for the record.
fn end_to_end(rows: &[Row], setup: &setup::Setup) -> (Vec<layers::Metric>, Vec<f64>) {
    let mut by_case: BTreeMap<String, (Vec<f64>, f64, f64)> = BTreeMap::new();
    for r in rows {
        let key = format!(
            "{:?}/{}",
            r.case.solver,
            r.case.port.map_or("tiled", |p| p.key)
        );
        let entry = by_case.entry(key).or_default();
        entry.0.push(r.sample.wall_s);
        entry.1 = r.sample.timestep_solves as f64;
        entry.2 = r.sample.cell_iters;
    }
    let (wall, solves, cell_iters) =
        by_case
            .values()
            .fold((0.0, 0.0, 0.0), |(w, s, c), (walls, solves, cell_iters)| {
                (w + quantile(walls, 0.25), s + solves, c + cell_iters)
            });
    let passes = rows.iter().map(|r| r.round + 1).max().unwrap_or(0);
    let pass_rates: Vec<f64> = (0..passes)
        .map(|k| {
            let pass = rows.iter().filter(|r| r.round == k);
            let (s, w) = pass.fold((0.0, 0.0), |(s, w), r| {
                (s + r.sample.timestep_solves as f64, w + r.sample.wall_s)
            });
            ratio(s, w)
        })
        .collect();
    let metrics = vec![
        ("solves_per_s".into(), ratio(solves, wall), "1/s"),
        (
            "ns_per_cell_iter".into(),
            ratio(wall * 1e9, cell_iters),
            "ns",
        ),
        ("setup_s".into(), setup.total_s, "s"),
        ("peak_rss_mb".into(), host::peak_rss_mb(), "MB"),
    ];
    (metrics, pass_rates)
}

fn run(args: &Args) -> Result<String, String> {
    let wl = workload::workload(&args.workload, args.scale).ok_or_else(|| {
        format!(
            "unknown workload {:?}; expected one of {:?}",
            args.workload,
            workload::NAMES
        )
    })?;
    let reference = match &args.reference {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?
        }
        None => include_str!("../reference.txt").to_string(),
    };
    let reference = Reference::parse(&reference)?;
    let setup = setup::set_up(&wl, if args.scale == Scale::Full { 21 } else { 3 })?;

    let (rows, attempted, failed, metrics, extra) = if !args.trace {
        let (rows, attempted, failed, steal) =
            measure(&wl, &setup, &reference, args, &[Variant::Plain], None);
        let (metrics, rates) = end_to_end(&rows, &setup);
        let rates: Vec<String> = rates.iter().map(|&r| json_num(r)).collect();
        let extra = vec![
            ("host_steal_frac".to_string(), json_num(steal)),
            (
                "solves_per_s_by_pass".into(),
                format!("[{}]", rates.join(",")),
            ),
        ];
        (rows, attempted, failed, metrics, extra)
    } else {
        let (sink, collector) = TelemetrySink::collecting();
        let spans = HostSpans {
            sink,
            epoch: Instant::now(),
        };
        let mut variants = vec![Variant::Plain, Variant::Traced];
        if matches!(wl.exec, Exec::Tiled { .. }) {
            variants.push(Variant::SingleTile);
        }
        let (rows, attempted, failed, steal) =
            measure(&wl, &setup, &reference, args, &variants, Some(&spans));
        let t = Instant::now();
        let micro = micro_benchmarks(&wl, &setup, &rows, args.scale);
        spans.sink.complete_span(
            "bench",
            format_args!("microbenchmarks"),
            spans.at(t),
            spans.at(Instant::now()),
        );
        let metrics = layers::per_layer(
            &wl,
            &rows,
            &micro,
            &setup,
            ratio(failed as f64, attempted as f64),
        );
        let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
        let trace_path = out_dir.join(format!("trace-{}.json", wl.name));
        std::fs::create_dir_all(&out_dir)
            .and_then(|_| {
                std::fs::write(
                    &trace_path,
                    tea_telemetry::export::to_chrome(&collector.records()),
                )
            })
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        let estimates: Vec<String> = ESTIMATES.iter().map(|s| s.to_string()).collect();
        let array_bytes = (micro::triad_elements(args.scale) * 8) as u64;
        let llc = host::last_level_cache_bytes(&host::caches());
        let triad_note = format!(
            "three {array_bytes}-byte arrays beside a {}-byte computed working set; {} the {llc}-byte last-level cache as reported",
            wl.working_set_bytes(),
            if 3 * array_bytes <= llc { "together they fit" } else { "together they exceed" }
        );
        let extra = vec![
            ("host_steal_frac".to_string(), json_num(steal)),
            ("stream_triad_array_bytes".into(), array_bytes.to_string()),
            ("stream_triad_note".into(), json_str(&triad_note)),
            (
                "app_bytes_note".into(),
                json_str("kernel.host_gbs divides ClockSnapshot::app_bytes, computed from the kernel IR's array counts, not measured traffic"),
            ),
            ("host_trace".into(), json_str(&trace_path.display().to_string())),
            ("estimates".into(), json_list(&estimates)),
            ("not_exercised".into(), json_list(&layers::not_exercised(&wl))),
        ];
        (rows, attempted, failed, metrics, extra)
    };

    let mut out = host_record(&wl, args, &rows, &extra);
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    out.push_str(&format!(
        "\n{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(",")
    ));
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.record_reference {
        return match workload::record_reference().and_then(|r| {
            std::fs::write(path, r.render()).map_err(|e| format!("{}: {e}", path.display()))
        }) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("hostbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::FAILURE
        }
    }
}
