//! Device environment, target-data regions and target regions.

use parpool::Executor;
use simdev::{KernelProfile, SimContext};

use crate::map::MapClause;

/// Which directive dialect a port speaks. Functionally identical (the
/// paper built its OpenACC port by "changing the directives but
/// maintaining the same data transitions", §3.2); kept for labelling and
/// for dialect-specific extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// OpenMP 4.0 `target` offloading.
    Omp4,
    /// OpenACC `kernels` / `parallel` offloading.
    OpenAcc,
}

impl Flavor {
    /// Dialect name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Flavor::Omp4 => "omp4",
            Flavor::OpenAcc => "openacc",
        }
    }
}

/// The directive runtime for one device.
pub struct DeviceEnv<'a> {
    ctx: &'a SimContext,
    exec: &'a dyn Executor,
    flavor: Flavor,
}

impl<'a> DeviceEnv<'a> {
    /// Bind an environment to a device context and host executor.
    pub fn new(ctx: &'a SimContext, exec: &'a dyn Executor, flavor: Flavor) -> Self {
        DeviceEnv { ctx, exec, flavor }
    }

    /// The simulated-device context.
    pub fn ctx(&self) -> &SimContext {
        self.ctx
    }

    /// The dialect.
    pub fn flavor(&self) -> Flavor {
        self.flavor
    }

    /// Open a structured `target data` / `acc data` region: entry
    /// transfers are charged now, exit transfers when the region drops.
    pub fn target_data(&'a self, maps: Vec<MapClause>) -> TargetData<'a> {
        for m in &maps {
            if m.copies_in() {
                self.ctx.transfer(m.bytes);
            }
        }
        TargetData { env: self, maps }
    }

    /// Unstructured `target enter data map(to:…)` (OpenMP 4.5 §3.1):
    /// transfer without a lexical scope.
    pub fn enter_data(&self, maps: &[MapClause]) {
        for m in maps {
            if m.copies_in() {
                self.ctx.transfer(m.bytes);
            }
        }
    }

    /// Unstructured `target exit data map(from:…)`.
    pub fn exit_data(&self, maps: &[MapClause]) {
        for m in maps {
            if m.copies_out() {
                self.ctx.transfer(m.bytes);
            }
        }
    }

    /// One offloaded parallel loop against *unstructured* mappings
    /// (`target enter data` style residency): `omp target teams distribute
    /// parallel for` / `acc kernels loop independent`.
    pub fn target_parallel_for(
        &self,
        profile: &KernelProfile,
        n: usize,
        f: &(dyn Fn(usize) + Sync),
    ) {
        self.ctx.launch(profile);
        self.exec.run(n, f);
    }

    /// Offloaded reduction loop against unstructured mappings.
    pub fn target_reduce(
        &self,
        profile: &KernelProfile,
        n: usize,
        f: &(dyn Fn(usize) -> f64 + Sync),
    ) -> f64 {
        self.target_reduce_blocks(profile, n, &|ids, out| {
            for (o, i) in out.iter_mut().zip(ids) {
                *o = f(i);
            }
        })
    }

    /// [`DeviceEnv::target_reduce`] one block of iterations at a time
    /// ([`parpool::Executor::run_sum_blocks`]): `f(ids, out)` writes the
    /// partials of iterations `ids` into `out`, and the partials join in
    /// iteration order from `+0.0`. Charges exactly what `target_reduce`
    /// charges.
    pub fn target_reduce_blocks(
        &self,
        profile: &KernelProfile,
        n: usize,
        f: &(dyn Fn(std::ops::Range<usize>, &mut [f64]) + Sync),
    ) -> f64 {
        self.ctx.launch(profile);
        self.exec.run_sum_blocks(n, f)
    }

    /// Offloaded multi-scalar reduction against unstructured mappings.
    pub fn target_reduce_many<const K: usize>(
        &self,
        profile: &KernelProfile,
        n: usize,
        f: &(dyn Fn(usize) -> [f64; K] + Sync),
    ) -> [f64; K] {
        self.ctx.launch(profile);
        parpool::run_sum_many(self.exec, n, f)
    }
}

/// A live `target data` scope holding arrays resident on the device.
pub struct TargetData<'a> {
    env: &'a DeviceEnv<'a>,
    maps: Vec<MapClause>,
}

impl TargetData<'_> {
    /// Is `name` mapped in this region? (`acc … present(name)`.)
    pub fn present(&self, name: &str) -> bool {
        self.maps.iter().any(|m| m.name == name)
    }

    /// `omp target update to(name)` — push the host copy to the device.
    ///
    /// # Panics
    /// Panics if `name` is not mapped (matching compiler behaviour).
    pub fn update_to(&self, name: &str) {
        self.env.ctx.transfer(self.mapped_bytes(name));
    }

    /// `omp target update from(name)` — pull the device copy to the host.
    pub fn update_from(&self, name: &str) {
        self.env.ctx.transfer(self.mapped_bytes(name));
    }

    fn mapped_bytes(&self, name: &str) -> u64 {
        self.maps
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("array '{name}' is not mapped in this target data region"))
            .bytes
    }

    /// One offloaded parallel loop: `omp target teams distribute parallel
    /// for` / `acc kernels loop independent`. Charges the launch (with the
    /// model's per-target overhead) and runs `f` over `0..n`.
    pub fn target_parallel_for(
        &self,
        profile: &KernelProfile,
        n: usize,
        f: &(dyn Fn(usize) + Sync),
    ) {
        self.env.target_parallel_for(profile, n, f);
    }

    /// An offloaded reduction loop: `… parallel for reduction(+:acc)`.
    /// Deterministic index-ordered join; the scalar result's readback is
    /// part of the model's reduction cost.
    pub fn target_reduce(
        &self,
        profile: &KernelProfile,
        n: usize,
        f: &(dyn Fn(usize) -> f64 + Sync),
    ) -> f64 {
        self.env.target_reduce(profile, n, f)
    }

    /// Multi-scalar reduction (`reduction(+:a,b,c,d)`).
    pub fn target_reduce_many<const K: usize>(
        &self,
        profile: &KernelProfile,
        n: usize,
        f: &(dyn Fn(usize) -> [f64; K] + Sync),
    ) -> [f64; K] {
        self.env.target_reduce_many(profile, n, f)
    }
}

impl Drop for TargetData<'_> {
    fn drop(&mut self) {
        for m in &self.maps {
            if m.copies_out() {
                self.env.ctx.transfer(m.bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::{MapClause, MapDir};
    use parpool::SerialExec;
    use simdev::{devices, ModelProfile};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn gpu_ctx() -> SimContext {
        SimContext::new(
            devices::gpu_k20x(),
            ModelProfile::ideal("OpenMP 4.0"),
            vec![],
            1,
        )
    }

    fn profile() -> KernelProfile {
        KernelProfile::streaming("target_kernel", 64, 1, 1, 1)
    }

    #[test]
    fn data_region_transfers_on_entry_and_exit() {
        let ctx = gpu_ctx();
        let env = DeviceEnv::new(&ctx, &SerialExec, Flavor::Omp4);
        {
            let _data = env.target_data(vec![
                MapClause::new("u", 1000, MapDir::ToFrom),
                MapClause::new("r", 1000, MapDir::Alloc),
                MapClause::new("density", 1000, MapDir::To),
            ]);
            // entry: u (tofrom) + density (to)
            assert_eq!(ctx.clock.snapshot().transfers, 2);
        }
        // exit: u (tofrom) only
        assert_eq!(ctx.clock.snapshot().transfers, 3);
        assert_eq!(ctx.clock.snapshot().transfer_bytes, 3000);
    }

    #[test]
    fn present_and_update() {
        let ctx = gpu_ctx();
        let env = DeviceEnv::new(&ctx, &SerialExec, Flavor::OpenAcc);
        let data = env.target_data(vec![MapClause::new("u", 4096, MapDir::Alloc)]);
        assert!(data.present("u"));
        assert!(!data.present("w"));
        data.update_to("u");
        data.update_from("u");
        assert_eq!(ctx.clock.snapshot().transfers, 2);
        assert_eq!(ctx.clock.snapshot().transfer_bytes, 8192);
    }

    #[test]
    #[should_panic]
    fn update_of_unmapped_array_panics() {
        let ctx = gpu_ctx();
        let env = DeviceEnv::new(&ctx, &SerialExec, Flavor::Omp4);
        let data = env.target_data(vec![]);
        data.update_to("ghost");
    }

    #[test]
    fn target_regions_execute_and_charge() {
        let ctx = gpu_ctx();
        let env = DeviceEnv::new(&ctx, &SerialExec, Flavor::Omp4);
        let data = env.target_data(vec![]);
        let count = AtomicUsize::new(0);
        data.target_parallel_for(&profile(), 64, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 64);
        assert_eq!(ctx.clock.snapshot().kernels, 1);
    }

    #[test]
    fn reductions_are_deterministic() {
        let ctx = gpu_ctx();
        let env = DeviceEnv::new(&ctx, &SerialExec, Flavor::Omp4);
        let pool = parpool::StaticPool::new(4);
        let env_par = DeviceEnv::new(&ctx, &pool, Flavor::Omp4);
        let data = env.target_data(vec![]);
        let data_par = env_par.target_data(vec![]);
        let f = |i: usize| ((i as f64) + 0.25).ln();
        let a = data.target_reduce(&profile(), 5000, &f);
        let b = data_par.target_reduce(&profile(), 5000, &f);
        assert_eq!(a, b);
    }

    #[test]
    fn multi_reduction() {
        let ctx = gpu_ctx();
        let env = DeviceEnv::new(&ctx, &SerialExec, Flavor::Omp4);
        let data = env.target_data(vec![]);
        let [s, c] = data.target_reduce_many(&profile(), 4, &|i| [i as f64, 1.0]);
        assert_eq!(s, 6.0);
        assert_eq!(c, 4.0);
    }

    #[test]
    fn unstructured_enter_exit() {
        let ctx = gpu_ctx();
        let env = DeviceEnv::new(&ctx, &SerialExec, Flavor::Omp4);
        env.enter_data(&[MapClause::new("u", 100, MapDir::To)]);
        env.exit_data(&[MapClause::new("u", 100, MapDir::From)]);
        assert_eq!(ctx.clock.snapshot().transfers, 2);
    }

    #[test]
    fn cpu_device_transfers_are_free() {
        let ctx = SimContext::new(
            devices::cpu_xeon_e5_2670_x2(),
            ModelProfile::ideal("OpenACC"),
            vec![],
            1,
        );
        let env = DeviceEnv::new(&ctx, &SerialExec, Flavor::OpenAcc);
        let _data = env.target_data(vec![MapClause::new("u", 1 << 30, MapDir::ToFrom)]);
        assert_eq!(
            ctx.clock.snapshot().seconds,
            0.0,
            "x86 OpenACC: no PCIe to cross"
        );
    }
}
