//! Disabled-sink overhead guard.
//!
//! The telemetry layer promises to be nearly free when nobody is
//! listening: with the default [`TelemetrySink::disabled`] every hook is
//! one `Option` check — no formatting, no allocation, no lock. This
//! bench holds that promise two ways:
//!
//! 1. **Micro**: the per-call cost of a disabled span pair and a
//!    disabled event, with an interpolated `format_args!` name that
//!    would allocate if the disabled path ever evaluated it. Guarded by
//!    a deliberately loose assertion (< 1 µs/op against a real cost of a
//!    few ns) so it trips on an accidental allocation or lock, not on a
//!    noisy CI machine.
//! 2. **Macro**: wall time of a full solve through the plain entry point
//!    (disabled hooks throughout driver, solvers, ports) versus the same
//!    solve with a live collector, reported as a percentage. The two
//!    reports must also stay bit-identical — telemetry is an observer.
//!
//! `cargo bench -p tea-bench --bench telemetry_overhead` for the full
//! measurement, `-- --test` for the quick CI smoke (same assertions,
//! fewer iterations).

use std::hint::black_box;
use std::time::Instant;

use simdev::devices;
use tea_bench::Scale;
use tea_core::config::SolverKind;
use tealeaf::{run, Exec, ModelId, RunReport, RunSpec, TelemetrySink};

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
    xs[xs.len() / 2]
}

/// Median ns per call of `f` over `batches` timed batches.
fn ns_per_op(batches: usize, ops: usize, mut f: impl FnMut()) -> f64 {
    let mut per = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t0 = Instant::now();
        for _ in 0..ops {
            f();
        }
        per.push(t0.elapsed().as_secs_f64() * 1e9 / ops as f64);
    }
    median(per)
}

fn summary_bits(report: &RunReport) -> [u64; 4] {
    [
        report.summary.volume.to_bits(),
        report.summary.mass.to_bits(),
        report.summary.internal_energy.to_bits(),
        report.summary.temperature.to_bits(),
    ]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    let (batches, ops, runs) = if quick {
        (5, 20_000, 3)
    } else {
        (15, 200_000, 7)
    };

    // -- micro: the disabled path must stay a bare Option check --------
    let disabled = TelemetrySink::disabled();
    let mut i = 0u64;
    let span_pair_ns = ns_per_op(batches, ops, || {
        i += 1;
        let id = disabled.open_span("bench", format_args!("iteration {i}"), black_box(1.5));
        disabled.close_span(black_box(id), black_box(2.5));
    });
    let event_ns = ns_per_op(batches, ops, || {
        i += 1;
        disabled.event("bench", format_args!("event {i}"), black_box(3.5));
    });

    // An enabled pair formats, allocates and locks; measured for the
    // ratio, not guarded — enabling a collector is an explicit opt-in.
    let (enabled, _collector) = TelemetrySink::collecting();
    let enabled_pair_ns = ns_per_op(batches, ops / 10, || {
        i += 1;
        let id = enabled.open_span("bench", format_args!("iteration {i}"), black_box(1.5));
        enabled.close_span(black_box(id), black_box(2.5));
    });

    println!("disabled span open/close : {span_pair_ns:8.1} ns/op");
    println!("disabled event           : {event_ns:8.1} ns/op");
    println!("enabled  span open/close : {enabled_pair_ns:8.1} ns/op");

    const CEILING_NS: f64 = 1_000.0;
    assert!(
        span_pair_ns < CEILING_NS && event_ns < CEILING_NS,
        "disabled telemetry hooks cost {span_pair_ns:.0}/{event_ns:.0} ns/op — \
         the disabled path must not format, allocate or lock"
    );

    // -- macro: a full solve with hooks disabled vs a live collector ---
    let scale = Scale::small();
    let cfg = scale.config(SolverKind::ConjugateGradient);
    let device = devices::cpu_xeon_e5_2670_x2();

    let mut plain_s = Vec::with_capacity(runs);
    let mut traced_s = Vec::with_capacity(runs);
    let mut plain_report = None;
    let mut traced_report = None;
    for _ in 0..runs {
        let t0 = Instant::now();
        let r = run(&RunSpec::new(&cfg, Exec::port(ModelId::Serial, &device)))
            .expect("plain run")
            .report;
        plain_s.push(t0.elapsed().as_secs_f64());
        plain_report = Some(r);

        let (sink, _collector) = TelemetrySink::collecting();
        let t0 = Instant::now();
        let r = run(&RunSpec {
            sink,
            ..RunSpec::new(&cfg, Exec::port(ModelId::Serial, &device))
        })
        .expect("traced run")
        .report;
        traced_s.push(t0.elapsed().as_secs_f64());
        traced_report = Some(r);
    }
    let (plain_report, traced_report) = (plain_report.unwrap(), traced_report.unwrap());
    assert_eq!(
        summary_bits(&plain_report),
        summary_bits(&traced_report),
        "telemetry perturbed the solve"
    );

    let (p, t) = (median(plain_s), median(traced_s));
    println!(
        "full solve {}x{} CG       : {:.1} ms disabled, {:.1} ms collecting ({:+.1}%)",
        cfg.x_cells,
        cfg.y_cells,
        p * 1e3,
        t * 1e3,
        (t / p - 1.0) * 100.0
    );
    println!("telemetry overhead guard: ok");
}
