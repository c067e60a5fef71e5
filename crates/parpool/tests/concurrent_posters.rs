//! Stress test for the process-wide pools under concurrent posters.
//!
//! `cargo test` runs test functions on parallel threads, and every port
//! that dispatches through `parpool::global_static()` or
//! `parpool::global_steal()` posts to the same pool from each of them. A
//! pool without a poster lock corrupts its region state under that load
//! (lost indices, a job or item count overwritten mid-region, hangs). Here eight threads post
//! ordered reductions to both global pools at once; every result must
//! stay bit-identical to the inline [`SerialExec`] fold.

use parpool::{global_static, global_steal, Executor, SerialExec};

const POSTERS: usize = 8;
const ROUNDS: usize = 50;

fn term(i: usize) -> f64 {
    ((i as f64) * 0.37).cos() * (i as f64 + 0.5)
}

fn term4(i: usize) -> [f64; 4] {
    let x = term(i);
    [x, 2.0 * x, -x, x * x]
}

#[test]
fn eight_posters_on_both_global_pools_match_serial_bits() {
    let sizes = [5usize, 97, 1_000, 4_096];
    let expect: Vec<(f64, [f64; 4])> = sizes
        .iter()
        .map(|&n| (SerialExec.run_sum(n, &term), SerialExec.run_sum4(n, &term4)))
        .collect();
    let pools: [&(dyn Executor + Sync); 2] = [global_static(), global_steal()];
    std::thread::scope(|scope| {
        for poster in 0..POSTERS {
            let expect = &expect;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Alternate pools and sizes so posters collide on both.
                    let pool = pools[(poster + round) % 2];
                    for (k, &n) in sizes.iter().enumerate() {
                        let sum = pool.run_sum(n, &term);
                        let sum4 = pool.run_sum4(n, &term4);
                        assert_eq!(sum.to_bits(), expect[k].0.to_bits(), "run_sum n={n}");
                        let bits = |v: [f64; 4]| v.map(f64::to_bits);
                        assert_eq!(bits(sum4), bits(expect[k].1), "run_sum4 n={n}");
                    }
                }
            });
        }
    });
}
