//! Per-layer metrics of a traced run.
//!
//! Counts come from the counters the crates already expose
//! (`PoolMetrics`, `ClockSnapshot`, `ExchangeMetrics`, `OverlapStats`)
//! taken as deltas around each solve; times come from the timing wrapper
//! and from the microbenchmarks. A layer the workload does not touch
//! reports 0 and is listed in the record's `not_exercised`. Shares and
//! rates derived by subtracting one measured time from another are
//! estimates, listed in [`ESTIMATES`].

use std::collections::BTreeMap;

use tealeaf::tile::OverlapStats;

use crate::micro::KERNELS;
use crate::probe::CallStats;
use crate::setup::Setup;
use crate::stats::{median, ratio};
use crate::workload::{Case, Exec, Sample, Variant, Workload, SWEEP_PORTS};

/// One measured case of the run.
pub struct Row {
    pub round: usize,
    pub case: Case,
    pub variant: Variant,
    pub sample: Sample,
}

/// Microbenchmark results at the workload's sizes.
pub struct Micro {
    pub post_join_us: f64,
    pub steal_post_join_us: f64,
    pub kernel_ns_per_cell: [f64; 4],
    pub triad_gbs: f64,
    /// Host ns per `SimContext::launch`, per port key.
    pub charge_ns: BTreeMap<&'static str, f64>,
    pub us_per_message: f64,
}

/// Metrics derived by subtraction or from a modelled byte count.
pub const ESTIMATES: [&str; 6] = [
    "parpool.dispatch_share",
    "kernel.host_gbs",
    "kernel.stream_frac",
    "kernel.body_share",
    "simdev.charge_share",
    "mpisim.exchange_share",
];

pub type Metric = (String, f64, &'static str);

#[derive(Default)]
struct Totals {
    solves: f64,
    wall: f64,
    iterations: f64,
    regions: f64,
    steal_regions: f64,
    inline: f64,
    poster_parks: f64,
    worker_parks: f64,
    steals: f64,
    launches: f64,
    transfers: f64,
    app_bytes: f64,
    records: f64,
    messages: f64,
    elements: f64,
    overlap: OverlapStats,
}

fn totals<'a>(rows: impl Iterator<Item = &'a Row>) -> Totals {
    let mut t = Totals::default();
    for r in rows {
        let s = &r.sample;
        t.solves += s.timestep_solves as f64;
        t.wall += s.wall_s;
        t.iterations += s.iterations as f64;
        t.regions += (s.static_pool.regions + s.steal_pool.regions) as f64;
        t.steal_regions += s.steal_pool.regions as f64;
        t.inline += (s.static_pool.inline_runs + s.steal_pool.inline_runs) as f64;
        t.poster_parks += (s.static_pool.poster_parks + s.steal_pool.poster_parks) as f64;
        t.worker_parks +=
            (s.static_pool.total_worker_parks() + s.steal_pool.total_worker_parks()) as f64;
        t.steals += s.steal_pool.steals as f64;
        t.launches += s.launches as f64;
        t.transfers += s.transfers as f64;
        t.app_bytes += s.app_bytes as f64;
        t.records += s.records as f64;
        t.messages += s.exchange.total_messages() as f64;
        t.elements += s.exchange.total_elements() as f64;
        t.overlap.merge(&s.overlap);
    }
    t
}

fn tally<'a>(rows: impl Iterator<Item = &'a Row>) -> BTreeMap<&'static str, CallStats> {
    let mut out: BTreeMap<&'static str, CallStats> = BTreeMap::new();
    for r in rows {
        for (&name, s) in &r.sample.tally {
            let e = out.entry(name).or_default();
            e.calls += s.calls;
            e.ns += s.ns;
        }
    }
    out
}

fn calls_and_ns(t: &BTreeMap<&'static str, CallStats>) -> (f64, f64) {
    t.values().fold((0.0, 0.0), |(c, n), s| {
        (c + s.calls as f64, n + s.ns as f64)
    })
}

/// Every per-layer metric, in report order.
pub fn per_layer(
    wl: &Workload,
    rows: &[Row],
    micro: &Micro,
    setup: &Setup,
    error_rate: f64,
) -> Vec<Metric> {
    let of = |v: Variant| rows.iter().filter(move |r| r.variant == v);
    let plain = totals(of(Variant::Plain));
    let traced = totals(of(Variant::Traced));
    let single = totals(of(Variant::SingleTile));
    let traced_tally = tally(of(Variant::Traced));
    let port_rows = |key: &'static str, v: Variant| {
        rows.iter()
            .filter(move |r| r.variant == v && r.case.port.is_some_and(|p| p.key == key))
    };
    let mut m: Vec<Metric> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| m.push((name.to_string(), value, unit));

    // parpool
    let dispatch_s = |t: &Totals| {
        ((t.regions - t.steal_regions) * micro.post_join_us
            + t.steal_regions * micro.steal_post_join_us)
            * 1e-6
    };
    put(
        "parpool.regions_per_solve",
        ratio(plain.regions, plain.solves),
        "count",
    );
    put(
        "parpool.inline_frac",
        ratio(plain.inline, plain.regions + plain.inline),
        "frac",
    );
    put("parpool.post_join_us", micro.post_join_us, "us");
    put("parpool.steal_post_join_us", micro.steal_post_join_us, "us");
    put(
        "parpool.poster_parks_per_region",
        ratio(plain.poster_parks, plain.regions),
        "count",
    );
    put(
        "parpool.worker_parks_per_region",
        ratio(plain.worker_parks, plain.regions),
        "count",
    );
    put(
        "parpool.steals_per_region",
        ratio(plain.steals, plain.steal_regions),
        "count",
    );
    put(
        "parpool.dispatch_share",
        ratio(dispatch_s(&plain), plain.wall),
        "frac",
    );

    // kernel: body time = wrapper time − dispatch − simdev charging
    let charge_s = |v: Variant| -> f64 {
        wl.ports()
            .iter()
            .map(|p| {
                let launches: u64 = port_rows(p.key, v).map(|r| r.sample.launches).sum();
                launches as f64 * micro.charge_ns.get(p.key).copied().unwrap_or(0.0) * 1e-9
            })
            .sum()
    };
    let (_, traced_call_ns) = calls_and_ns(&traced_tally);
    let body_s = (traced_call_ns * 1e-9 - dispatch_s(&traced) - charge_s(Variant::Traced)).max(0.0);
    let host_gbs = ratio(traced.app_bytes, body_s) / 1e9;
    for (name, ns) in KERNELS.iter().zip(micro.kernel_ns_per_cell) {
        put(&format!("kernel.{name}.ns_per_cell"), ns, "ns");
    }
    put("kernel.stream_triad_gbs", micro.triad_gbs, "GB/s");
    put("kernel.host_gbs", host_gbs, "GB/s");
    put(
        "kernel.stream_frac",
        ratio(host_gbs, micro.triad_gbs),
        "frac",
    );
    put("kernel.body_share", ratio(body_s, traced.wall), "frac");

    // port: wrapper time per call, and against the Serial port
    let port_tally = |key: &'static str| tally(port_rows(key, Variant::Traced));
    let serial_tally = port_tally("serial");
    let serial_wall: f64 = port_rows("serial", Variant::Plain)
        .map(|r| r.sample.wall_s)
        .sum();
    let (mut extra_ns, mut extra_calls) = (0.0, 0.0);
    for spec in SWEEP_PORTS {
        let t = port_tally(spec.key);
        let (calls, ns) = calls_and_ns(&t);
        put(
            &format!("port.{}.ns_per_launch", spec.key),
            ratio(ns, calls),
            "ns",
        );
        let wall: f64 = port_rows(spec.key, Variant::Plain)
            .map(|r| r.sample.wall_s)
            .sum();
        put(
            &format!("port.{}.vs_serial", spec.key),
            ratio(wall, serial_wall),
            "ratio",
        );
        if spec.key == "serial" {
            continue;
        }
        for (name, s) in &t {
            if let Some(base) = serial_tally.get(name) {
                let base_ns = ratio(base.ns as f64, base.calls as f64);
                extra_ns += s.ns as f64 - s.calls as f64 * base_ns;
                extra_calls += s.calls as f64;
            }
        }
    }
    put(
        "port.abstraction_ns_per_launch",
        ratio(extra_ns, extra_calls),
        "ns",
    );

    // simdev
    let plain_charge_s = charge_s(Variant::Plain);
    put(
        "simdev.launches_per_solve",
        ratio(plain.launches, plain.solves),
        "count",
    );
    put(
        "simdev.transfers_per_solve",
        ratio(plain.transfers, plain.solves),
        "count",
    );
    put(
        "simdev.charge_ns_per_launch",
        ratio(plain_charge_s * 1e9, plain.launches),
        "ns",
    );
    put(
        "simdev.charge_share",
        ratio(plain_charge_s, plain.wall),
        "frac",
    );

    // halo (wrapper spans of `halo_update`)
    let halo = traced_tally.get("halo_update").copied().unwrap_or_default();
    put(
        "halo.updates_per_solve",
        ratio(halo.calls as f64, traced.solves),
        "count",
    );
    put(
        "halo.us_per_update",
        ratio(halo.ns as f64, halo.calls as f64) / 1e3,
        "us",
    );

    // solver
    put(
        "solver.iters_per_solve",
        ratio(plain.iterations, plain.solves),
        "count",
    );
    put(
        "solver.host_us_per_iter",
        ratio(plain.wall * 1e6, plain.iterations),
        "us",
    );

    // telemetry: traced pass against the untraced pass of the same round
    let pass_wall = |v: Variant, round: usize| -> f64 {
        rows.iter()
            .filter(|r| r.variant == v && r.round == round)
            .map(|r| r.sample.wall_s)
            .sum()
    };
    let rounds = rows.iter().map(|r| r.round + 1).max().unwrap_or(0);
    let overhead: Vec<f64> = (0..rounds)
        .map(|k| ratio(pass_wall(Variant::Traced, k), pass_wall(Variant::Plain, k)) - 1.0)
        .collect();
    put("telemetry.traced_overhead_frac", median(&overhead), "frac");
    put(
        "telemetry.spans_per_solve",
        ratio(traced.records, traced.solves),
        "count",
    );

    // mpisim and tile
    let ranks = match wl.exec {
        Exec::Tiled { tiles_x, tiles_y } => (tiles_x * tiles_y) as f64,
        Exec::Ports(_) => 1.0,
    };
    put(
        "mpisim.messages_per_iter",
        ratio(plain.messages, plain.iterations),
        "count",
    );
    put(
        "mpisim.elements_per_iter",
        ratio(plain.elements, plain.iterations),
        "count",
    );
    put("mpisim.us_per_message", micro.us_per_message, "us");
    put(
        "mpisim.exchange_share",
        ratio(
            plain.messages / ranks * micro.us_per_message * 1e-6,
            plain.wall,
        ),
        "frac",
    );
    put(
        "tile.overlap_hidden_frac",
        plain.overlap.overlap_efficiency(),
        "frac",
    );
    put(
        "tile.decomp_speedup",
        ratio(single.wall, plain.wall),
        "ratio",
    );

    // setup
    put("setup.problem_s", setup.problem_s, "s");
    put("setup.port_s", setup.port_s, "s");
    put("setup.pool_spawn_s", setup.pool_spawn_s, "s");

    put("solve_error_rate", error_rate, "frac");
    m
}

/// Names of the per-layer metrics the workload does not exercise (they
/// read 0 by construction).
pub fn not_exercised(wl: &Workload) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let ports = wl.ports();
    let has = |key: &str| ports.iter().any(|p| p.key == key);
    for spec in SWEEP_PORTS {
        if !has(spec.key) {
            out.push(format!("port.{}.ns_per_launch", spec.key));
        }
        if !has(spec.key) || !has("serial") {
            out.push(format!("port.{}.vs_serial", spec.key));
        }
    }
    if !has("serial") || ports.len() < 2 {
        out.push("port.abstraction_ns_per_launch".into());
    }
    if !has("opencl") {
        out.push("parpool.steals_per_region".into());
    }
    match wl.exec {
        Exec::Ports(_) => {
            for name in [
                "mpisim.messages_per_iter",
                "mpisim.elements_per_iter",
                "mpisim.exchange_share",
                "tile.overlap_hidden_frac",
                "tile.decomp_speedup",
            ] {
                out.push(name.into());
            }
        }
        Exec::Tiled { .. } => {
            for name in [
                "parpool.regions_per_solve",
                "parpool.inline_frac",
                "parpool.poster_parks_per_region",
                "parpool.worker_parks_per_region",
                "parpool.dispatch_share",
                "kernel.host_gbs",
                "kernel.stream_frac",
                "kernel.body_share",
                "simdev.launches_per_solve",
                "simdev.transfers_per_solve",
                "simdev.charge_ns_per_launch",
                "simdev.charge_share",
                "halo.updates_per_solve",
                "halo.us_per_update",
                "setup.port_s",
            ] {
                out.push(name.into());
            }
        }
    }
    out.sort();
    out.dedup();
    out
}
