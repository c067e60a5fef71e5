//! # tea-conformance
//!
//! Cross-port conformance harness for the TeaLeaf reproduction. The
//! paper's methodology rests on every port being *the same solver* —
//! "TeaLeaf's core solver logic and parameters were kept consistent
//! between ports" (§3) — which this repo strengthens to bit-identical
//! arithmetic. This crate is the machinery that keeps that claim honest:
//!
//! * [`diff`] — the differential executor. Any two ports run in
//!   lock-step through the real driver; after every kernel invocation
//!   their scalars and full field state are compared bit-for-bit, and
//!   the first mismatch is bisected to (kernel, invocation, solver
//!   iteration, field, cell index, ULP distance). CLI: `cargo run -p
//!   tea-conformance --bin tea-diff -- --ref serial --cand cuda`.
//! * [`golden`] — the committed golden-run registry: bit-exact run
//!   summaries for deck × solver × port (and mpisim rank counts),
//!   regenerated with `--bless`, byte-compared otherwise. CLI:
//!   `cargo run -p tea-conformance --bin tea-golden -- --check`.
//! * [`fuzz`] — the seeded schedule fuzzer: real row kernels under
//!   adversarially permuted `StaticPool`/`StealPool` schedules, with
//!   bit-identical reductions mandatory.
//! * [`faults`] — the mpisim fault matrix: every solver × tile grid over
//!   seeded lossy, corrupting, partitioned and rank-killing transports;
//!   recovered runs must be bit-identical with every restart on their
//!   timeline, unrecoverable ones must abort loudly, and a
//!   silently-wrong answer fails the matrix.
//!
//! Everything here is test infrastructure: nothing in this crate is on
//! any measured path, and the observation hooks it relies on
//! ([`tealeaf::TeaLeafPort::inspect_field`] /
//! [`tealeaf::TeaLeafPort::poke_field`]) charge nothing to the device
//! cost model, so a diffed run observes the same simulated cost stream
//! as a plain one.

pub mod diff;
pub mod faults;
pub mod fuzz;
pub mod golden;
pub mod matrix;

pub use diff::{
    diff_models, diff_ports, DiffOutcome, DivergenceReport, Lockstep, LockstepPort, Mismatch,
    Sabotage, SabotageMode, SabotagePlan, SabotagedPort,
};
pub use faults::{
    chaos_rows, fault_spec_for, kill_rows, lossy_rows, run_fault_matrix, FaultRow, FaultTally,
};
pub use fuzz::{run_schedule_fuzz, FuzzReport};
pub use golden::{check_deck, compute_goldens, GoldenEntry};
pub use matrix::{
    builtin_deck, builtin_decks, deck_config, model_name, natural_device, parse_model,
    GOLDEN_PORTS, GOLDEN_RANKS, GOLDEN_SOLVERS,
};
