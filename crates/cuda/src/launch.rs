//! Kernel launches and manual reductions.

use std::ops::Range;

use parpool::Executor;
use simdev::{KernelProfile, KernelTraits, SimContext};

/// `<<<grid, block>>>` — a 1-D grid of 1-D thread blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    pub grid: usize,
    pub block: usize,
}

impl LaunchConfig {
    /// Cover `n` work items with blocks of `block` threads, rounding the
    /// grid up — the overspill threads must be guarded in the kernel.
    pub fn for_n(n: usize, block: usize) -> Self {
        assert!(block > 0);
        LaunchConfig {
            grid: n.div_ceil(block),
            block,
        }
    }

    /// Total threads launched (≥ the covered work items).
    pub fn threads(&self) -> usize {
        self.grid * self.block
    }
}

/// A CUDA stream: the execution handle kernels are launched into.
pub struct CudaStream<'a> {
    ctx: &'a SimContext,
    exec: &'a dyn Executor,
}

impl<'a> CudaStream<'a> {
    /// Create a stream over the device context.
    pub fn new(ctx: &'a SimContext, exec: &'a dyn Executor) -> Self {
        CudaStream { ctx, exec }
    }

    /// The simulated-device context.
    pub fn ctx(&self) -> &SimContext {
        self.ctx
    }
}

/// Launch `kernel(tid)` over every thread of `cfg`. The kernel body is
/// responsible for the overspill guard (`if tid >= n return`), exactly as
/// in CUDA C. A thin wrapper over [`launch_blocks`], so overspill threads
/// of the last block still run.
pub fn launch<F: Fn(usize) + Sync + ?Sized>(
    stream: &CudaStream<'_>,
    cfg: LaunchConfig,
    profile: &KernelProfile,
    kernel: &F,
) {
    launch_blocks(stream, cfg, profile, &|tids| tids.for_each(kernel));
}

/// Launch `cfg` one thread block at a time: `block(tids)` receives the
/// thread ids of each block, `b·block .. (b+1)·block`. The last block's
/// range runs past the work as far as the grid does, so a block body
/// guards its overspill once per block instead of once per thread. Each
/// block is one executor item; charges exactly what [`launch`] charges.
pub fn launch_blocks<F: Fn(Range<usize>) + Sync + ?Sized>(
    stream: &CudaStream<'_>,
    cfg: LaunchConfig,
    profile: &KernelProfile,
    block: &F,
) {
    stream.ctx.launch(profile);
    let size = cfg.block;
    stream
        .exec
        .run(cfg.grid, &|b| block(b * size..(b + 1) * size));
}

/// The hand-written CUDA reduction of §3.5: pass 1 computes one partial
/// per block (`block_partial(block_id)`), pass 2 reduces the partials on
/// the device. Charges two launches; partials join in block order so the
/// value is deterministic. A thin per-block wrapper over
/// [`launch_reduce_blocks`].
pub fn launch_reduce(
    stream: &CudaStream<'_>,
    cfg: LaunchConfig,
    profile: &KernelProfile,
    block_partial: &(dyn Fn(usize) -> f64 + Sync),
) -> f64 {
    launch_reduce_blocks(stream, cfg, profile, &|blocks, out| {
        for (o, b) in out.iter_mut().zip(blocks) {
            *o = block_partial(b);
        }
    })
}

/// [`launch_reduce`] with pass 1 run several thread blocks per executor
/// item ([`parpool::Executor::run_sum_blocks`]): `partials(blocks, out)`
/// writes the partials of thread blocks `blocks` into `out`. The partials
/// join in block order from `+0.0`; charges exactly what
/// [`launch_reduce`] charges.
pub fn launch_reduce_blocks(
    stream: &CudaStream<'_>,
    cfg: LaunchConfig,
    profile: &KernelProfile,
    partials: &(dyn Fn(Range<usize>, &mut [f64]) + Sync),
) -> f64 {
    stream.ctx.launch(profile);
    let value = stream.exec.run_sum_blocks(cfg.grid, partials);
    let final_profile = KernelProfile::new(
        "block_reduce_final",
        cfg.grid as u64,
        1,
        0,
        1,
        KernelTraits {
            streaming: true,
            reduction: true,
            ..KernelTraits::default()
        },
    );
    stream.ctx.launch(&final_profile);
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use parpool::SerialExec;
    use simdev::{devices, ModelProfile, SimContext};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn ctx() -> SimContext {
        SimContext::new(devices::gpu_k20x(), ModelProfile::ideal("CUDA"), vec![], 1)
    }

    #[test]
    fn config_rounds_grid_up() {
        let cfg = LaunchConfig::for_n(1000, 256);
        assert_eq!(cfg.grid, 4);
        assert_eq!(cfg.threads(), 1024);
        let exact = LaunchConfig::for_n(512, 256);
        assert_eq!(exact.threads(), 512);
    }

    #[test]
    fn overspill_threads_run_and_must_be_guarded() {
        let ctx = ctx();
        let stream = CudaStream::new(&ctx, &SerialExec);
        let n = 1000;
        let cfg = LaunchConfig::for_n(n, 256);
        let executed = AtomicUsize::new(0);
        let guarded = AtomicUsize::new(0);
        launch(
            &stream,
            cfg,
            &KernelProfile::streaming("k", n as u64, 1, 1, 1),
            &|tid| {
                executed.fetch_add(1, Ordering::Relaxed);
                if tid >= n {
                    return; // the overspill guard
                }
                guarded.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(executed.load(Ordering::Relaxed), 1024, "all threads run");
        assert_eq!(
            guarded.load(Ordering::Relaxed),
            1000,
            "guard trims overspill"
        );
    }

    #[test]
    fn last_block_hands_over_its_overspill_range() {
        let ctx = ctx();
        let stream = CudaStream::new(&ctx, &SerialExec);
        let cfg = LaunchConfig::for_n(1000, 256);
        let blocks = std::sync::Mutex::new(Vec::new());
        launch_blocks(
            &stream,
            cfg,
            &KernelProfile::streaming("k", 1000, 1, 1, 1),
            &|tids| blocks.lock().unwrap().push(tids),
        );
        assert_eq!(
            blocks.into_inner().unwrap(),
            vec![0..256, 256..512, 512..768, 768..1024],
            "one range per block, overspill included"
        );
        assert_eq!(ctx.clock.snapshot().kernels, 1);
    }

    #[test]
    fn block_reduce_two_launches_deterministic() {
        let ctx = ctx();
        let stream = CudaStream::new(&ctx, &SerialExec);
        let data: Vec<f64> = (0..1024).map(|x| (x as f64).sqrt()).collect();
        let cfg = LaunchConfig::for_n(data.len(), 128);
        let p = KernelProfile::reduction("dot", data.len() as u64, 1, 1);
        let sum = launch_reduce(&stream, cfg, &p, &|block| {
            let start = block * cfg.block;
            let end = (start + cfg.block).min(data.len());
            data[start..end].iter().sum()
        });
        // reference: per-block partials in block order
        let mut reference = 0.0;
        for block in 0..cfg.grid {
            let start = block * cfg.block;
            let end = (start + cfg.block).min(data.len());
            reference += data[start..end].iter().sum::<f64>();
        }
        assert_eq!(sum, reference);
        assert_eq!(ctx.clock.snapshot().kernels, 2);
    }

    #[test]
    fn pool_and_serial_agree() {
        let ctx = ctx();
        let pool = parpool::StaticPool::new(4);
        let s_pool = CudaStream::new(&ctx, &pool);
        let s_ser = CudaStream::new(&ctx, &SerialExec);
        let cfg = LaunchConfig::for_n(4096, 64);
        let p = KernelProfile::reduction("dot", 4096, 1, 1);
        let f = |b: usize| (b as f64 * 0.01).cos();
        let a = launch_reduce(&s_pool, cfg, &p, &f);
        let b = launch_reduce(&s_ser, cfg, &p, &f);
        assert_eq!(a, b);
    }
}
