//! The shared compiled-kernel cache.
//!
//! Compiling a kernel (dependence graph, iterative modulo scheduling, unroll
//! search) dominates every sweep; the same `(kernel, machine, options)`
//! triple is requested by several experiments per `repro all` run. The cache
//! guarantees each distinct schedule is compiled **exactly once per
//! process**: concurrent requests for the same key block on the first
//! compiler invocation and share its result.
//!
//! It memoizes at two levels. A *set* entry, keyed by the full compile
//! options, holds the scheduler's pick among the offered unroll factors. A
//! *factor* entry, keyed by one unroll factor and the software-pipelining
//! flag, holds that factor's compile
//! ([`CompiledKernel::compile_factor`]). A set miss picks among factor
//! entries ([`CompiledKernel::pick`]), so every unroll set that offers a
//! factor reuses its schedule, and two sets that pick the same factor
//! share one `Arc<CompiledKernel>`.
//!
//! An optional **disk tier** ([`DiskTier`], attached with
//! [`KernelCache::attach_disk`]) makes warm lookups survive restarts: on a
//! memory miss the cache first tries to *rehydrate* a persisted
//! [`ScheduleRecipe`](stream_sched::ScheduleRecipe) and only runs the
//! scheduler when the disk misses too. Rehydration is validating
//! (`CompiledKernel::rehydrate` checks schedule legality against a fresh
//! dependence graph), so a corrupted, stale, or truncated entry degrades to
//! a recompute — never to a wrong schedule or a crash.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use stream_ir::Kernel;
use stream_machine::{Machine, MachineConfig};
use stream_sched::{CompileOptions, CompiledKernel, ScheduleError, ScheduleRecipe};
use stream_store::{DiskStore, Key};
use stream_trace::Counter;

/// Cache key: the kernel's identity (name plus a fingerprint of its exact
/// IR — kernels are rebuilt per machine, so the name alone is not enough),
/// the machine configuration, and the compile options.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    kernel: String,
    kernel_fingerprint: u64,
    machine: MachineConfig,
    opts: CompileOptions,
}

impl CacheKey {
    fn new(kernel: &Kernel, machine: &Machine, opts: &CompileOptions) -> Self {
        Self {
            kernel: kernel.name().to_string(),
            kernel_fingerprint: kernel.fingerprint(),
            machine: machine.config(),
            opts: opts.clone(),
        }
    }
}

/// Key of one unroll factor's compile: the kernel's identity, the machine
/// configuration, the factor, and whether software pipelining is on (the
/// only compile option a single factor's schedule depends on).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct FactorKey {
    kernel: String,
    kernel_fingerprint: u64,
    machine: MachineConfig,
    unroll: u32,
    software_pipelining: bool,
}

/// Version of the on-disk schedule payload. Bump whenever the key blob or
/// payload layout below changes; old entries land in a differently named
/// directory and are simply never read.
const SCHEDULE_FORMAT_VERSION: u32 = 4;

impl CacheKey {
    /// A stable byte serialization of the full key. Doubles as the payload
    /// prefix so a 128-bit hash collision reads back as a blob mismatch
    /// (⇒ miss), never as the wrong schedule.
    fn blob(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.kernel.len());
        let bytes = |out: &mut Vec<u8>, b: &[u8]| {
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        };
        bytes(&mut out, self.kernel.as_bytes());
        out.extend_from_slice(&self.kernel_fingerprint.to_le_bytes());
        out.extend_from_slice(&self.machine.shape.clusters.to_le_bytes());
        out.extend_from_slice(&self.machine.shape.alus_per_cluster.to_le_bytes());
        out.extend_from_slice(&self.machine.params_fingerprint.to_le_bytes());
        out.extend_from_slice(&(self.opts.unroll_factors.len() as u32).to_le_bytes());
        for &u in &self.opts.unroll_factors {
            out.extend_from_slice(&u.to_le_bytes());
        }
        out.push(u8::from(self.opts.software_pipelining));
        out
    }
}

/// The persistent tier under a [`KernelCache`]: compiled schedules, stored
/// as validated [`ScheduleRecipe`]s in a [`DiskStore`] so they survive
/// process restarts.
#[derive(Debug)]
pub struct DiskTier {
    store: DiskStore,
}

impl DiskTier {
    /// Opens (creating if needed) the schedule tier under `root`. Entries
    /// live in `root/schedules.v<N>/`; `N` is the payload format version,
    /// so incompatible layouts never share a directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: &Path) -> io::Result<Self> {
        Ok(Self {
            store: DiskStore::open(root, "schedules", SCHEDULE_FORMAT_VERSION)?,
        })
    }

    /// Total on-disk bytes held by this tier (see
    /// [`stream_store::DiskStore::bytes`]).
    pub fn bytes(&self) -> u64 {
        self.store.bytes()
    }

    /// The directory entries are stored in.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// Looks up `key` and rehydrates the stored recipe, validating it
    /// against a freshly built dependence graph for `(kernel, machine)`.
    /// Any failure — absent file, bad frame, blob mismatch, undecodable or
    /// illegal recipe — is a `None` (⇒ the caller compiles).
    fn load(
        &self,
        key: &CacheKey,
        kernel: &Kernel,
        machine: &Machine,
        opts: &CompileOptions,
    ) -> Option<CompiledKernel> {
        let blob = key.blob();
        let payload = self.store.get(Key::of(&blob))?;
        let blob_len = u32::from_le_bytes(payload.get(..4)?.try_into().ok()?) as usize;
        let rest = payload.get(4..)?;
        if rest.len() < blob_len || rest[..blob_len] != blob[..] {
            return None;
        }
        let recipe = ScheduleRecipe::decode(&rest[blob_len..])?;
        CompiledKernel::rehydrate(kernel, machine, opts, &recipe)
    }

    /// Persists the recipe for `compiled` under `key` (write-through after
    /// a compile). Best-effort: an I/O error only costs future warm starts.
    fn save(&self, key: &CacheKey, compiled: &CompiledKernel) {
        let blob = key.blob();
        let recipe = compiled.recipe().encode();
        let mut payload = Vec::with_capacity(4 + blob.len() + recipe.len());
        payload.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        payload.extend_from_slice(&blob);
        payload.extend_from_slice(&recipe);
        let _ = self.store.put(Key::of(&blob), &payload);
    }
}

type CacheSlot = Arc<OnceLock<Result<Arc<CompiledKernel>, ScheduleError>>>;
/// `None` inside the slot: the kernel does not unroll by the factor, or no
/// legal schedule fits.
type FactorSlot = Arc<OnceLock<Option<Arc<CompiledKernel>>>>;

thread_local! {
    static THREAD_COMPILES: Cell<u64> = const { Cell::new(0) };
}

/// Set compiles (lookups that ran the scheduler's pick rather than
/// hitting memory or disk) any [`KernelCache`] has performed on the
/// calling thread.
///
/// A caller that differences this around a piece of work counts exactly the
/// compiles that work ran itself: a compile of a key another thread was
/// already filling is counted once, on that thread, and compiles running
/// concurrently elsewhere are never attributed to this one.
pub fn thread_compiles() -> u64 {
    THREAD_COMPILES.with(Cell::get)
}

/// A thread-safe compiled-kernel cache.
///
/// Lookups return [`Arc<CompiledKernel>`] so cached schedules are shared,
/// not cloned. Failed compilations are cached too (the error is
/// deterministic for a given key). Global hit/miss counters are exact:
/// *misses* is the number of distinct keys compiled, *hits* is every other
/// lookup — both independent of thread scheduling.
///
/// Under the per-set entries sit memory-only per-factor entries (see the
/// module docs); only set entries are written to the disk tier.
#[derive(Debug, Default)]
pub struct KernelCache {
    map: Mutex<HashMap<CacheKey, CacheSlot>>,
    factors: Mutex<HashMap<FactorKey, FactorSlot>>,
    disk: OnceLock<DiskTier>,
    // Standalone trace counters: always exact (they are this cache's
    // statistics, not optional telemetry). The process-wide cache from
    // [`global_cache`] registers these very cells in the trace registry's
    // always-on tier, so exporters read them with no mirror writes;
    // per-instance caches (tests, embedders) stay unregistered.
    hits: Counter,
    misses: Counter,
    compiles: Counter,
    factor_compiles: Counter,
    disk_hits: Counter,
    disk_misses: Counter,
}

/// A snapshot of cache-wide counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from an already-compiled entry.
    pub hits: u64,
    /// Lookups that missed the memory tier (= distinct keys seen).
    pub misses: u64,
    /// Memory misses that actually ran the scheduler's pick (a miss served
    /// by the disk tier is not a compile; without a disk tier, `compiles ==
    /// misses`).
    pub compiles: u64,
    /// Distinct `(kernel, machine, unroll factor, software pipelining)`
    /// compiles run under the set compiles; each is run once per process.
    pub factor_compiles: u64,
    /// Memory misses rehydrated from the disk tier.
    pub disk_hits: u64,
    /// Memory misses the disk tier could not serve (absent, corrupt, or
    /// failed-to-rehydrate entries — all fall through to the compiler).
    pub disk_misses: u64,
    /// Set entries currently resident in memory.
    pub entries: usize,
}

impl KernelCache {
    /// Creates an empty cache. Most callers want [`global_cache`] instead so
    /// that every consumer in the process shares one cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compiles `kernel` for `machine` with `opts`, or returns the cached
    /// result of an identical earlier request.
    ///
    /// # Errors
    ///
    /// Returns (and caches) the [`ScheduleError`] if no legal schedule
    /// exists for the key.
    pub fn get_or_compile(
        &self,
        kernel: &Kernel,
        machine: &Machine,
        opts: &CompileOptions,
    ) -> Result<Arc<CompiledKernel>, ScheduleError> {
        self.get_or_compile_keyed(CacheKey::new(kernel, machine, opts), kernel, machine, opts)
    }

    fn get_or_compile_keyed(
        &self,
        key: CacheKey,
        kernel: &Kernel,
        machine: &Machine,
        opts: &CompileOptions,
    ) -> Result<Arc<CompiledKernel>, ScheduleError> {
        let slot: CacheSlot = {
            let mut map = self.map.lock().expect("kernel cache poisoned");
            Arc::clone(map.entry(key.clone()).or_default())
        };
        let mut missed_here = false;
        let result = slot.get_or_init(|| {
            missed_here = true;
            let mut cache_span = stream_trace::span("cache", "fill");
            cache_span.arg("kernel", kernel.name());
            if let Some(tier) = self.disk.get() {
                if let Some(warm) = tier.load(&key, kernel, machine, opts) {
                    self.disk_hits.incr();
                    cache_span.arg("tier", "disk");
                    return Ok(Arc::new(warm));
                }
                self.disk_misses.incr();
            }
            self.compiles.incr();
            THREAD_COMPILES.with(|n| n.set(n.get() + 1));
            cache_span.arg("tier", "compile");
            let compiled = {
                let mut compile_span = stream_trace::span("grid", "compile");
                compile_span.arg("kernel", kernel.name());
                let swp = opts.software_pipelining;
                let factors = opts
                    .unroll_factors
                    .iter()
                    .filter_map(|&u| self.factor(kernel, machine, u, swp));
                CompiledKernel::pick(kernel, machine, factors)
            };
            if let (Some(tier), Ok(c)) = (self.disk.get(), &compiled) {
                tier.save(&key, c);
            }
            compiled
        });
        if missed_here {
            self.misses.incr();
        } else {
            self.hits.incr();
        }
        result.clone()
    }

    /// The compile of `kernel` unrolled by `u` on `machine`, from its
    /// factor entry, compiling it on first use. `None` if the kernel does
    /// not unroll by `u` or no legal schedule fits.
    fn factor(
        &self,
        kernel: &Kernel,
        machine: &Machine,
        u: u32,
        software_pipelining: bool,
    ) -> Option<Arc<CompiledKernel>> {
        let key = FactorKey {
            kernel: kernel.name().to_string(),
            kernel_fingerprint: kernel.fingerprint(),
            machine: machine.config(),
            unroll: u,
            software_pipelining,
        };
        let slot: FactorSlot = {
            let mut map = self.factors.lock().expect("kernel cache poisoned");
            Arc::clone(map.entry(key).or_default())
        };
        slot.get_or_init(|| {
            self.factor_compiles.incr();
            CompiledKernel::compile_factor(kernel, machine, u, software_pipelining).map(Arc::new)
        })
        .clone()
    }

    /// Attaches a persistent tier: memory misses first try to rehydrate a
    /// stored recipe and only fall back to the scheduler when the disk
    /// misses too; fresh compiles are written through. At most one tier can
    /// be attached per cache — returns `false` (dropping `tier`) if one
    /// already is.
    pub fn attach_disk(&self, tier: DiskTier) -> bool {
        self.disk.set(tier).is_ok()
    }

    /// The attached disk tier, if any.
    pub fn disk(&self) -> Option<&DiskTier> {
        self.disk.get()
    }

    /// Current cache-wide counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            compiles: self.compiles.get(),
            factor_compiles: self.factor_compiles.get(),
            disk_hits: self.disk_hits.get(),
            disk_misses: self.disk_misses.get(),
            entries: self.map.lock().expect("kernel cache poisoned").len(),
        }
    }

    /// Opens a scope with its own deterministic counters (see
    /// [`CacheScope`]).
    pub fn scoped(&self) -> CacheScope<'_> {
        CacheScope {
            cache: self,
            seen: Mutex::new(HashSet::new()),
            lookups: Counter::new(),
        }
    }
}

/// The process-wide kernel cache: every consumer (the repro harness, the
/// application builders, benchmarks) compiles through this cache so a
/// schedule requested by several of them is compiled once.
///
/// The global cache's own counter cells are registered (once) in the
/// trace registry's always-on tier under `grid.cache.*` / `cache.*`, so
/// `/metrics` and the trace exporters report exact values with no mirror
/// writes on the lookup path and no dependence on the tracing flag.
pub fn global_cache() -> &'static KernelCache {
    static GLOBAL: OnceLock<KernelCache> = OnceLock::new();
    let cache = GLOBAL.get_or_init(KernelCache::new);
    static REGISTER: std::sync::Once = std::sync::Once::new();
    REGISTER.call_once(|| {
        stream_trace::register_counter("grid.cache.hit", &cache.hits);
        stream_trace::register_counter("grid.cache.miss", &cache.misses);
        stream_trace::register_counter("cache.compiles", &cache.compiles);
        stream_trace::register_counter("cache.factor_compiles", &cache.factor_compiles);
        stream_trace::register_counter("cache.disk_hit", &cache.disk_hits);
        stream_trace::register_counter("cache.disk_miss", &cache.disk_misses);
    });
    cache
}

/// Attaches a persistent tier rooted at `root` to the process-wide cache
/// (see [`KernelCache::attach_disk`]). Returns `false` if a tier was
/// already attached; `root` is created if absent.
///
/// # Errors
///
/// Propagates directory-creation failures.
pub fn attach_global_disk(root: &Path) -> io::Result<bool> {
    Ok(global_cache().attach_disk(DiskTier::open(root)?))
}

/// A consumer-local view of a [`KernelCache`] whose hit/miss counters are
/// **deterministic**: a lookup counts as a hit iff this scope has already
/// looked up the same key, regardless of which thread or which other scope
/// populated the shared cache first. This is what lets per-experiment cache
/// counters appear in rendered reports while `--jobs 1` and `--jobs N`
/// output stay byte-identical.
#[derive(Debug)]
pub struct CacheScope<'c> {
    cache: &'c KernelCache,
    seen: Mutex<HashSet<CacheKey>>,
    lookups: Counter,
}

/// Counters for one [`CacheScope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeCounters {
    /// Total lookups made through the scope.
    pub lookups: u64,
    /// Distinct schedules the scope needed (its logical compile count).
    pub compiles: u64,
    /// `lookups - compiles`: requests served without a (logical) compile.
    pub hits: u64,
}

impl CacheScope<'_> {
    /// Compiles through the underlying shared cache, recording the lookup
    /// in this scope's deterministic counters.
    ///
    /// # Errors
    ///
    /// As [`KernelCache::get_or_compile`].
    pub fn compile(
        &self,
        kernel: &Kernel,
        machine: &Machine,
        opts: &CompileOptions,
    ) -> Result<Arc<CompiledKernel>, ScheduleError> {
        let key = CacheKey::new(kernel, machine, opts);
        self.lookups.incr();
        self.seen
            .lock()
            .expect("cache scope poisoned")
            .insert(key.clone());
        self.cache.get_or_compile_keyed(key, kernel, machine, opts)
    }

    /// Compiles with default options.
    ///
    /// # Errors
    ///
    /// As [`KernelCache::get_or_compile`].
    pub fn compile_default(
        &self,
        kernel: &Kernel,
        machine: &Machine,
    ) -> Result<Arc<CompiledKernel>, ScheduleError> {
        self.compile(kernel, machine, &CompileOptions::default())
    }

    /// This scope's deterministic counters.
    pub fn counters(&self) -> ScopeCounters {
        let lookups = self.lookups.get();
        let compiles = self.seen.lock().expect("cache scope poisoned").len() as u64;
        ScopeCounters {
            lookups,
            compiles,
            hits: lookups - compiles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stream_ir::{KernelBuilder, Ty};
    use stream_kernels::KernelId;
    use stream_vlsi::Shape;

    fn toy_kernel(name: &str, muls: usize) -> Kernel {
        let mut b = KernelBuilder::new(name);
        let s = b.in_stream(Ty::F32);
        let out = b.out_stream(Ty::F32);
        let x = b.read(s);
        let mut acc = b.mul(x, x);
        for _ in 0..muls {
            acc = b.add(acc, x);
        }
        b.write(out, acc);
        b.finish().unwrap()
    }

    #[test]
    fn second_lookup_hits_and_shares_the_schedule() {
        let cache = KernelCache::new();
        let machine = Machine::baseline();
        let k = toy_kernel("t", 4);
        let opts = CompileOptions::new();
        let a = cache.get_or_compile(&k, &machine, &opts).unwrap();
        let b = cache.get_or_compile(&k, &machine, &opts).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_options_machine_and_ir_get_distinct_entries() {
        let cache = KernelCache::new();
        let m1 = Machine::baseline();
        let m2 = Machine::paper(Shape::new(16, 5));
        let k = toy_kernel("t", 4);
        let opts = CompileOptions::new();
        cache.get_or_compile(&k, &m1, &opts).unwrap();
        cache.get_or_compile(&k, &m2, &opts).unwrap();
        cache
            .get_or_compile(&k, &m1, &opts.clone().without_software_pipelining())
            .unwrap();
        // Same name, different IR: still a distinct entry.
        cache
            .get_or_compile(&toy_kernel("t", 5), &m1, &opts)
            .unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 4, 4));
    }

    #[test]
    fn cached_schedule_matches_a_fresh_compile() {
        let machine = Machine::paper(Shape::new(8, 10));
        let opts = CompileOptions::default();
        for id in KernelId::ALL {
            let kernel = id.build(&machine);
            let fresh = CompiledKernel::compile(&kernel, &machine, &opts).unwrap();
            let cache = KernelCache::new();
            cache.get_or_compile(&kernel, &machine, &opts).unwrap();
            let cached = cache.get_or_compile(&kernel, &machine, &opts).unwrap();
            assert_eq!(
                fresh.listing(&kernel, &machine),
                cached.listing(&kernel, &machine),
                "{id}"
            );
            assert_eq!(fresh.ii(), cached.ii(), "{id}");
            assert_eq!(fresh.unroll_factor(), cached.unroll_factor(), "{id}");
        }
    }

    #[test]
    fn scope_counters_are_independent_of_shared_state() {
        let cache = KernelCache::new();
        let machine = Machine::baseline();
        let k = toy_kernel("t", 4);
        let opts = CompileOptions::new();
        // Warm the shared cache through a first scope.
        let warm = cache.scoped();
        warm.compile(&k, &machine, &opts).unwrap();
        // A second scope still counts its first lookup as a compile.
        let scope = cache.scoped();
        scope.compile(&k, &machine, &opts).unwrap();
        scope.compile(&k, &machine, &opts).unwrap();
        let c = scope.counters();
        assert_eq!((c.lookups, c.compiles, c.hits), (2, 1, 1));
        // The shared cache compiled only once overall.
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn concurrent_lookups_compile_exactly_once() {
        let cache = KernelCache::new();
        let machine = Machine::baseline();
        let k = toy_kernel("t", 8);
        let opts = CompileOptions::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| cache.get_or_compile(&k, &machine, &opts).unwrap());
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn thread_compiles_counts_only_this_threads_scheduler_runs() {
        let cache = KernelCache::new();
        let machine = Machine::baseline();
        let before = thread_compiles();
        std::thread::scope(|s| {
            s.spawn(|| {
                cache
                    .get_or_compile(
                        &toy_kernel("elsewhere", 3),
                        &machine,
                        &CompileOptions::new(),
                    )
                    .unwrap()
            });
        });
        assert_eq!(thread_compiles(), before);
        let k = toy_kernel("here", 3);
        cache
            .get_or_compile(&k, &machine, &CompileOptions::new())
            .unwrap();
        cache
            .get_or_compile(&k, &machine, &CompileOptions::new())
            .unwrap();
        assert_eq!(thread_compiles(), before + 1);
    }

    /// A unique scratch directory (fresh per call, removed afterwards via
    /// the returned guard's drop).
    fn scratch(tag: &str) -> (std::path::PathBuf, impl Drop) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "stream-grid-cache-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        struct Cleanup(std::path::PathBuf);
        impl Drop for Cleanup {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
        (dir.clone(), Cleanup(dir))
    }

    fn disk_cache(root: &Path) -> KernelCache {
        let cache = KernelCache::new();
        assert!(cache.attach_disk(DiskTier::open(root).unwrap()));
        cache
    }

    #[test]
    fn warm_restart_skips_the_scheduler() {
        let (root, _guard) = scratch("warm");
        let machine = Machine::paper(Shape::new(8, 5));
        let k = toy_kernel("warm", 6);
        let opts = CompileOptions::new();

        // "Process one": cold — compiles and writes through.
        let cold = disk_cache(&root);
        let fresh = cold.get_or_compile(&k, &machine, &opts).unwrap();
        let s = cold.stats();
        assert_eq!((s.compiles, s.disk_hits, s.disk_misses), (1, 0, 1));

        // "Process two": a brand-new cache over the same directory
        // rehydrates — zero scheduler runs, identical schedule.
        let warm = disk_cache(&root);
        let rehydrated = warm.get_or_compile(&k, &machine, &opts).unwrap();
        let s = warm.stats();
        assert_eq!((s.compiles, s.disk_hits, s.disk_misses), (0, 1, 0));
        assert_eq!(
            rehydrated.listing(&k, &machine),
            fresh.listing(&k, &machine)
        );
        assert_eq!(rehydrated.ii(), fresh.ii());
        assert_eq!(rehydrated.unroll_factor(), fresh.unroll_factor());
    }

    #[test]
    fn disk_keys_distinguish_machine_and_options() {
        let (root, _guard) = scratch("keys");
        let k = toy_kernel("keys", 4);
        let opts = CompileOptions::new();
        let cold = disk_cache(&root);
        cold.get_or_compile(&k, &Machine::baseline(), &opts)
            .unwrap();

        // Different machine and different options must not rehydrate from
        // the baseline entry.
        let warm = disk_cache(&root);
        warm.get_or_compile(&k, &Machine::paper(Shape::new(16, 5)), &opts)
            .unwrap();
        warm.get_or_compile(
            &k,
            &Machine::baseline(),
            &opts.clone().without_software_pipelining(),
        )
        .unwrap();
        assert_eq!(warm.stats().disk_hits, 0);
        assert_eq!(warm.stats().compiles, 2);
    }

    #[test]
    fn corrupted_disk_entries_recompute_silently() {
        let (root, _guard) = scratch("corrupt");
        let machine = Machine::baseline();
        let k = toy_kernel("corrupt", 5);
        let opts = CompileOptions::new();
        let fresh = disk_cache(&root)
            .get_or_compile(&k, &machine, &opts)
            .unwrap();

        let tier_dir = DiskTier::open(&root).unwrap().dir().to_path_buf();
        let entry = std::fs::read_dir(&tier_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "entry"))
            .expect("write-through created an entry");

        // Flip a payload byte: the frame checksum catches it, the lookup
        // degrades to a recompute, and the healed entry serves the next
        // restart warm.
        let mut bytes = std::fs::read(&entry).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&entry, &bytes).unwrap();

        let recovered = disk_cache(&root);
        let recompiled = recovered.get_or_compile(&k, &machine, &opts).unwrap();
        let s = recovered.stats();
        assert_eq!((s.compiles, s.disk_hits, s.disk_misses), (1, 0, 1));
        assert_eq!(
            recompiled.listing(&k, &machine),
            fresh.listing(&k, &machine)
        );

        let healed = disk_cache(&root);
        healed.get_or_compile(&k, &machine, &opts).unwrap();
        assert_eq!(healed.stats().disk_hits, 1);

        // Truncation is likewise a silent miss.
        let entry = std::fs::read_dir(&tier_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "entry"))
            .unwrap();
        let bytes = std::fs::read(&entry).unwrap();
        std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();
        let truncated = disk_cache(&root);
        truncated.get_or_compile(&k, &machine, &opts).unwrap();
        assert_eq!(truncated.stats().compiles, 1);
    }

    #[test]
    fn valid_frame_with_illegal_recipe_recomputes() {
        let (root, _guard) = scratch("illegal");
        let machine = Machine::baseline();
        let k = toy_kernel("illegal", 5);
        let opts = CompileOptions::new();
        let cold = disk_cache(&root);
        cold.get_or_compile(&k, &machine, &opts).unwrap();

        // Forge a well-framed entry whose recipe schedules every op at
        // cycle 0 — structurally decodable, semantically illegal. The
        // validating rehydration must reject it and recompile.
        let key = CacheKey::new(&k, &machine, &opts);
        let blob = key.blob();
        let bogus = ScheduleRecipe {
            unroll: 1,
            ii: 1,
            times: vec![0; 64],
        };
        let mut payload = Vec::new();
        payload.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        payload.extend_from_slice(&blob);
        payload.extend_from_slice(&bogus.encode());
        let store = DiskStore::open(&root, "schedules", SCHEDULE_FORMAT_VERSION).unwrap();
        store.put(Key::of(&blob), &payload).unwrap();

        let poisoned = disk_cache(&root);
        poisoned.get_or_compile(&k, &machine, &opts).unwrap();
        let s = poisoned.stats();
        assert_eq!((s.compiles, s.disk_hits, s.disk_misses), (1, 0, 1));
    }

    /// The tuner's seven unroll-factor sets (`stream_tune::TuneSpace`'s
    /// default), over eight distinct factors.
    const TUNER_SETS: [&[u32]; 7] = [
        &[1, 2, 4, 8],
        &[1],
        &[1, 2],
        &[1, 2, 3],
        &[1, 2, 4],
        &[1, 2, 4, 6],
        &[1, 2, 4, 8, 12, 16],
    ];

    #[test]
    fn unroll_sets_share_factor_compiles_and_picks() {
        let cache = KernelCache::new();
        let machine = Machine::paper(Shape::new(8, 5));
        let kernel = KernelId::Convolve.build(&machine);
        let picks: Vec<Arc<CompiledKernel>> = TUNER_SETS
            .iter()
            .map(|set| {
                let opts = CompileOptions::new().unroll_factors(set.to_vec());
                let cached = cache.get_or_compile(&kernel, &machine, &opts).unwrap();
                let fresh = CompiledKernel::compile(&kernel, &machine, &opts).unwrap();
                assert_eq!(cached.recipe(), fresh.recipe(), "{set:?}");
                cached
            })
            .collect();
        let s = cache.stats();
        assert_eq!((s.factor_compiles, s.compiles), (8, 7));
        let mut distinct = 0;
        for (i, a) in picks.iter().enumerate() {
            let mut first = true;
            for b in &picks[..i] {
                let same = a.unroll_factor() == b.unroll_factor();
                assert_eq!(Arc::ptr_eq(a, b), same);
                first &= !same;
            }
            distinct += usize::from(first);
        }
        assert!(distinct < picks.len(), "no two sets picked alike");
    }

    #[test]
    fn the_no_swp_ablation_gets_factor_entries_of_its_own() {
        let cache = KernelCache::new();
        let machine = Machine::paper(Shape::new(16, 5));
        let kernel = KernelId::Update.build(&machine);
        let swp = cache
            .get_or_compile(&kernel, &machine, &CompileOptions::new())
            .unwrap();
        assert_eq!(cache.stats().factor_compiles, 4);
        let flat = cache
            .get_or_compile(
                &kernel,
                &machine,
                &CompileOptions::new().without_software_pipelining(),
            )
            .unwrap();
        // The flat schedule does not reuse the pipelined factor entries:
        // each factor is compiled again, with one stage.
        let s = cache.stats();
        assert_eq!((s.factor_compiles, s.compiles), (8, 2));
        assert_eq!(flat.stages(), 1);
        assert!(swp.stages() > 1);
    }

    #[test]
    fn concurrent_overlapping_sets_compile_each_factor_once() {
        let cache = KernelCache::new();
        let machine = Machine::baseline();
        let k = toy_kernel("t", 8);
        std::thread::scope(|s| {
            for t in 0..8 {
                let (cache, machine, k) = (&cache, &machine, &k);
                s.spawn(move || {
                    for set in TUNER_SETS.iter().cycle().skip(t).take(3) {
                        let opts = CompileOptions::new().unroll_factors(set.to_vec());
                        cache.get_or_compile(k, machine, &opts).unwrap();
                    }
                });
            }
        });
        // 8 threads × 3 consecutive sets cover all seven sets and all
        // eight factors.
        let s = cache.stats();
        assert_eq!((s.factor_compiles, s.compiles, s.misses), (8, 7, 7));
        assert_eq!(s.hits, 8 * 3 - 7);
    }

    #[test]
    fn rehydrated_kernels_keep_a_clean_verification_and_listing() {
        let (root, _guard) = scratch("verification");
        let machine = Machine::paper(Shape::new(8, 5));
        let kernel = KernelId::Fft.build(&machine);
        let opts = CompileOptions::new();
        disk_cache(&root)
            .get_or_compile(&kernel, &machine, &opts)
            .unwrap();
        let warm = disk_cache(&root);
        let rehydrated = warm.get_or_compile(&kernel, &machine, &opts).unwrap();
        let s = warm.stats();
        assert_eq!((s.disk_hits, s.compiles, s.factor_compiles), (1, 0, 0));
        let fresh = CompiledKernel::compile(&kernel, &machine, &opts).unwrap();
        assert!(!rehydrated.verification().has_errors());
        assert_eq!(rehydrated.verification(), fresh.verification());
        assert_eq!(
            rehydrated.listing(&kernel, &machine),
            fresh.listing(&kernel, &machine)
        );
    }
}
