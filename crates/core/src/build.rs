//! The build-up phase: the treelet-count dynamic program (§2.1, Eq. 1) with
//! motivo's optimizations — succinct check-and-merge, compact records with
//! greedy flushing, 0-rooting, biased coloring, and thread-level parallelism
//! with the edge-split refinement for the last high-degree vertices (§3.3).

use crate::error::BuildError;
use crate::urn::Urn;
use motivo_graph::{Coloring, Graph};
use motivo_obs::{Histogram, Obs};
use motivo_table::{CountTable, Level, Record, RecordBuilder, RecordCodec, StorageKind};
use motivo_treelet::{ColoredTreelet, Treelet, TreeletFamily};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How vertices are colored before the DP runs.
#[derive(Clone, Debug)]
pub enum ColoringSpec {
    /// Uniform over `{0, …, k−1}` (the default).
    Uniform,
    /// Biased coloring (§3.4): light colors with probability `lambda`.
    Biased {
        /// Probability of each light color; must lie in `(0, 1/k]`.
        lambda: f64,
    },
    /// An explicit per-vertex assignment (tests, spanning tables).
    Fixed(Vec<u8>),
}

/// Configuration of the build-up phase.
///
/// ```
/// use motivo_core::{build_urn, BuildConfig};
///
/// let cfg = BuildConfig::new(4).seed(7).threads(2);
/// let g = motivo_graph::generators::complete_graph(16);
/// let urn = build_urn(&g, &cfg).unwrap();
/// assert_eq!(urn.k(), 4);
/// assert!(urn.total_treelets() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct BuildConfig {
    /// Graphlet size `k ∈ [2, 16]`.
    pub k: u32,
    /// RNG seed for the coloring.
    pub seed: u64,
    /// Color distribution.
    pub coloring: ColoringSpec,
    /// Count-table backend: in memory, or block files under a directory
    /// with a per-level memtable budget (the out-of-core build).
    pub storage: StorageKind,
    /// Record representation every level is sealed under. The codec
    /// changes bytes, never counts: for a fixed seed, every estimator is
    /// bit-identical across codecs.
    pub codec: RecordCodec,
    /// Store size-k treelets only at their color-0 root (§3.2). On by
    /// default; disable only for the Fig. 4 ablation.
    pub zero_rooting: bool,
    /// Worker threads; `0` = all available cores.
    pub threads: usize,
    /// Degree above which a vertex's neighbor list is split across all
    /// workers instead of being handled by one (the "last remaining
    /// vertices" refinement, §3.3).
    pub hub_split_threshold: usize,
    /// Observability handle. Disabled by default; when attached, the
    /// build emits per-level spans and a codec-encode latency histogram.
    /// Pure side channel: never affects the table contents.
    pub obs: Obs,
}

impl BuildConfig {
    /// Defaults for graphlet size `k`.
    pub fn new(k: u32) -> BuildConfig {
        BuildConfig {
            k,
            seed: 0,
            coloring: ColoringSpec::Uniform,
            storage: StorageKind::Memory,
            codec: RecordCodec::Plain,
            zero_rooting: true,
            threads: 0,
            hub_split_threshold: 1 << 14,
            obs: Obs::none(),
        }
    }

    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> BuildConfig {
        self.seed = seed;
        self
    }

    /// Uses biased coloring with the given `λ`.
    pub fn biased(mut self, lambda: f64) -> BuildConfig {
        self.coloring = ColoringSpec::Biased { lambda };
        self
    }

    /// Selects the storage backend.
    pub fn storage(mut self, storage: StorageKind) -> BuildConfig {
        self.storage = storage;
        self
    }

    /// Bounds peak build memory: block storage under `dir` with a
    /// memtable budget of `bytes` per level (`0` = unbudgeted). The
    /// out-of-core path behind the CLI's `--build-mem-bytes`; the result
    /// is bit-identical to an unbudgeted in-memory build.
    pub fn build_mem_bytes(
        mut self,
        dir: impl Into<std::path::PathBuf>,
        bytes: usize,
    ) -> BuildConfig {
        self.storage = StorageKind::Block {
            dir: dir.into(),
            mem_budget: bytes,
        };
        self
    }

    /// Selects the record codec (succinct encoding = the paper's
    /// main-memory win; plain = the fixed-width layout).
    pub fn codec(mut self, codec: RecordCodec) -> BuildConfig {
        self.codec = codec;
        self
    }

    /// Enables/disables 0-rooting.
    pub fn zero_rooting(mut self, on: bool) -> BuildConfig {
        self.zero_rooting = on;
        self
    }

    /// Sets the number of worker threads (`0` = all cores).
    pub fn threads(mut self, threads: usize) -> BuildConfig {
        self.threads = threads;
        self
    }

    /// Attaches an observability handle.
    pub fn with_obs(mut self, obs: Obs) -> BuildConfig {
        self.obs = obs;
        self
    }

    fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        }
    }
}

/// Metrics of one build, reported by the experiments (§5.1, Figs. 2–4, 7).
#[derive(Clone, Debug, Default)]
pub struct BuildStats {
    /// Total wall-clock time of the DP.
    pub total: Duration,
    /// Wall-clock per treelet size `h = 2..=k`.
    pub per_level: Vec<Duration>,
    /// Number of check-and-merge operations performed (count pairs
    /// examined) — the Fig. 2 quantity.
    pub merge_ops: u64,
    /// Final count-table payload bytes.
    pub table_bytes: usize,
    /// Non-empty records stored.
    pub records: usize,
    /// Budget-triggered memtable spills across all levels (block storage
    /// only; 0 for unbudgeted or non-block builds).
    pub spill_runs: u64,
    /// High-water mark of any level's build memtable in bytes (block
    /// storage only).
    pub peak_mem_bytes: u64,
}

/// Runs the build-up phase and assembles the urn.
pub fn build_urn<'g>(g: &'g Graph, cfg: &BuildConfig) -> Result<Urn<'g>, BuildError> {
    let k = cfg.k;
    if !(2..=16).contains(&k) {
        return Err(BuildError::BadK(k));
    }
    if g.num_nodes() < k {
        return Err(BuildError::GraphTooSmall {
            n: g.num_nodes(),
            k,
        });
    }
    let coloring = match &cfg.coloring {
        ColoringSpec::Uniform => Coloring::uniform(g, k, cfg.seed),
        ColoringSpec::Biased { lambda } => {
            if !(*lambda > 0.0 && *lambda <= 1.0 / k as f64) {
                return Err(BuildError::BadLambda(*lambda));
            }
            Coloring::biased(g, k, *lambda, cfg.seed)
        }
        ColoringSpec::Fixed(colors) => {
            if colors.len() != g.num_nodes() as usize {
                return Err(BuildError::BadFixedColoring);
            }
            Coloring::fixed(colors.clone(), k)
        }
    };
    let (table, stats) = build_table(g, &coloring, cfg)?;
    Urn::assemble(g, coloring, table, stats)
}

/// The dynamic program proper: levels `1..=k`, bottom-up. Public so the
/// baseline and the benches can build raw tables without urn assembly.
pub fn build_table(
    g: &Graph,
    coloring: &Coloring,
    cfg: &BuildConfig,
) -> Result<(CountTable, BuildStats), BuildError> {
    let k = cfg.k;
    let n = g.num_nodes();
    let threads = cfg.resolved_threads();
    let family = TreeletFamily::new(k);
    let beta = beta_table(&family);
    let start = Instant::now();
    let _build_span = cfg.obs.span("build.table");
    let encode_hist = cfg.obs.histogram("build.encode");
    let mut per_level = Vec::with_capacity(k as usize - 1);
    let merge_ops = AtomicU64::new(0);

    // Level 1: one singleton record per vertex. Each level is sealed
    // before the next reads it: block builders merge their memtable and
    // spill runs into the level file here, written once.
    let mut levels: Vec<Level> = Vec::with_capacity(k as usize);
    let mut l1 = cfg.storage.create_level(1, n, cfg.codec)?;
    for v in 0..n {
        let ct = ColoredTreelet::new(
            Treelet::SINGLETON,
            motivo_treelet::ColorSet::single(coloring.color(v)),
        );
        l1.put(v, Record::from_counts_in(cfg.codec, vec![(ct.code(), 1)]))?;
    }
    levels.push(l1.seal()?);

    for h in 2..=k {
        let level_start = Instant::now();
        let _level_span = cfg.obs.span(format!("build.level{h}"));
        let mut level = cfg.storage.create_level(h, n, cfg.codec)?;
        // Vertices above the hub threshold are deferred to the edge-split
        // pass so no worker stalls on one giant adjacency list.
        let hubs: Vec<u32> = (0..n)
            .filter(|&v| g.degree(v) >= cfg.hub_split_threshold)
            .collect();
        let is_hub = |v: u32| g.degree(v) >= cfg.hub_split_threshold;
        let ctx = LevelCtx {
            g,
            coloring,
            levels: &levels,
            h,
            k,
            zero_rooting: cfg.zero_rooting,
            codec: cfg.codec,
            beta: &beta,
            merge_ops: &merge_ops,
            encode_hist: encode_hist.as_deref(),
        };

        // Worker and collector failures are captured and surfaced after
        // the scope: an I/O error fails the build instead of aborting the
        // process. The `failed` flag makes every worker stop claiming
        // vertices promptly after the first error — without it, the other
        // workers would grind through the whole level before the error
        // could be returned — while the channel keeps draining so no
        // sender blocks.
        let (tx, rx) = crossbeam::channel::bounded::<io::Result<(u32, Record)>>(4 * threads.max(1));
        let cursor = AtomicUsize::new(0);
        let failed = std::sync::atomic::AtomicBool::new(false);
        let mut failure: Option<io::Error> = None;
        crossbeam::thread::scope(|scope| {
            for _ in 0..threads {
                let tx = tx.clone();
                let ctx = &ctx;
                let cursor = &cursor;
                let is_hub = &is_hub;
                let failed = &failed;
                scope.spawn(move |_| loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let v = cursor.fetch_add(1, Ordering::Relaxed);
                    if v >= n as usize {
                        break;
                    }
                    let v = v as u32;
                    if is_hub(v) {
                        continue;
                    }
                    match ctx.process_vertex(v, None) {
                        Ok(rec) => {
                            if !rec.is_empty() {
                                tx.send(Ok((v, rec))).expect("collector alive");
                            }
                        }
                        Err(e) => {
                            failed.store(true, Ordering::Relaxed);
                            tx.send(Err(e)).expect("collector alive");
                            break;
                        }
                    }
                });
            }
            drop(tx);
            for msg in rx {
                match msg {
                    Ok((v, rec)) => {
                        if failure.is_none() {
                            if let Err(e) = level.put(v, rec) {
                                failed.store(true, Ordering::Relaxed);
                                failure = Some(e);
                            }
                        }
                    }
                    Err(e) => {
                        if failure.is_none() {
                            failure = Some(e);
                        }
                    }
                }
            }
        })
        .expect("build worker panicked");
        if let Some(e) = failure {
            return Err(BuildError::Io(e));
        }

        // Edge-split pass: each hub's adjacency list is chunked across all
        // workers; partial accumulators are merged, then β-divided once.
        for &v in &hubs {
            let rec = process_hub_vertex(&ctx, v, threads)?;
            level.put(v, rec)?;
        }

        levels.push(level.seal()?);
        per_level.push(level_start.elapsed());
    }

    let table = CountTable::from_levels(levels, cfg.codec);
    let stats = BuildStats {
        total: start.elapsed(),
        per_level,
        merge_ops: merge_ops.load(Ordering::Relaxed),
        table_bytes: table.byte_size(),
        records: table.record_count(),
        spill_runs: table.total_spill_runs(),
        peak_mem_bytes: table.peak_mem_bytes(),
    };
    Ok((table, stats))
}

/// Shared read-only context for one level's workers.
struct LevelCtx<'a> {
    g: &'a Graph,
    coloring: &'a Coloring,
    levels: &'a [Level],
    h: u32,
    k: u32,
    zero_rooting: bool,
    codec: RecordCodec,
    beta: &'a HashMap<u32, u128>,
    merge_ops: &'a AtomicU64,
    /// Codec-encode latency sink, when observability is attached.
    encode_hist: Option<&'a Histogram>,
}

impl LevelCtx<'_> {
    /// Computes the full record of `v` at size `h` (Eq. 1, forward form).
    /// When `neighbor_range` is given, only that slice of the adjacency
    /// list contributes (hub splitting) and the β division is skipped — the
    /// caller divides after merging partials.
    fn process_vertex(&self, v: u32, neighbor_range: Option<(usize, usize)>) -> io::Result<Record> {
        let pairs = self.accumulate(v, neighbor_range)?;
        Ok(match pairs {
            None => Record::default(),
            Some(builder) => {
                let mut pairs = builder.into_pairs();
                divide_beta(&mut pairs, self.beta);
                self.encode(pairs)
            }
        })
    }

    /// Seals accumulated pairs under the level codec, timing the encode
    /// when observability is attached.
    fn encode(&self, pairs: Vec<(u64, u128)>) -> Record {
        match self.encode_hist {
            Some(hist) => {
                let t = Instant::now();
                let rec = Record::from_counts_in(self.codec, pairs);
                hist.record_duration(t.elapsed());
                rec
            }
            None => Record::from_counts_in(self.codec, pairs),
        }
    }

    /// The accumulation half (no β division). `Ok(None)` when 0-rooting
    /// skips the vertex entirely; `Err` when a lower level's backing store
    /// fails.
    fn accumulate(
        &self,
        v: u32,
        neighbor_range: Option<(usize, usize)>,
    ) -> io::Result<Option<RecordBuilder>> {
        let h = self.h;
        if h == self.k && self.zero_rooting && self.coloring.color(v) != 0 {
            return Ok(None);
        }
        // Prefetch v's smaller records once; they are reused for every
        // neighbor.
        let mut v_pairs: Vec<Vec<(ColoredTreelet, u128)>> = Vec::with_capacity(h as usize - 1);
        for h1 in 1..h {
            v_pairs.push(self.levels[h1 as usize - 1].get(v)?.iter().collect());
        }
        let neighbors = self.g.neighbors(v);
        let neighbors = match neighbor_range {
            Some((lo, hi)) => &neighbors[lo..hi],
            None => neighbors,
        };
        let mut builder = RecordBuilder::new();
        let mut ops = 0u64;
        for &u in neighbors {
            for h1 in 1..h {
                let h2 = h - h1;
                let vp = &v_pairs[h1 as usize - 1];
                if vp.is_empty() {
                    continue;
                }
                let ru = self.levels[h2 as usize - 1].get(u)?;
                if ru.is_empty() {
                    continue;
                }
                for (ct2, c2) in ru.iter() {
                    for &(ct1, c1) in vp {
                        ops += 1;
                        // The check half: disjoint colors and canonical
                        // shape merge — a few bit operations (§3.1).
                        if ct1.colors().is_disjoint(ct2.colors())
                            && ct1.tree().can_merge(ct2.tree())
                        {
                            let merged = ColoredTreelet::new(
                                ct1.tree().merge_unchecked(ct2.tree()),
                                ct1.colors().union(ct2.colors()),
                            );
                            builder.add(
                                merged.code(),
                                c1.checked_mul(c2).expect("count overflows u128"),
                            );
                        }
                    }
                }
            }
        }
        self.merge_ops.fetch_add(ops, Ordering::Relaxed);
        Ok(Some(builder))
    }
}

/// Hub pass: split `v`'s adjacency list into `threads` chunks, accumulate
/// partials concurrently, merge, then β-divide once (§3.3).
fn process_hub_vertex(ctx: &LevelCtx<'_>, v: u32, threads: usize) -> io::Result<Record> {
    let deg = ctx.g.degree(v);
    let chunks = threads.max(1);
    let chunk = deg.div_ceil(chunks);
    let partials = crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..chunks {
            let lo = c * chunk;
            let hi = ((c + 1) * chunk).min(deg);
            if lo >= hi {
                continue;
            }
            handles.push(scope.spawn(move |_| ctx.accumulate(v, Some((lo, hi)))));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("hub worker panicked"))
            .collect::<Vec<_>>()
    })
    .expect("hub scope panicked");

    let mut merged: Option<RecordBuilder> = None;
    for p in partials {
        if let Some(p) = p? {
            match &mut merged {
                None => merged = Some(p),
                Some(m) => m.absorb(p),
            }
        }
    }
    Ok(match merged {
        None => Record::default(),
        Some(builder) => {
            let mut pairs = builder.into_pairs();
            divide_beta(&mut pairs, ctx.beta);
            ctx.encode(pairs)
        }
    })
}

/// Precomputed `β_T` for every shape in the family (sizes ≥ 2).
fn beta_table(family: &TreeletFamily) -> HashMap<u32, u128> {
    family
        .iter()
        .filter(|&(size, _, _)| size >= 2)
        .map(|(_, _, t)| (t.code(), t.beta() as u128))
        .collect()
}

/// Applies the `1/β_T` factor of Eq. 1; the accumulated sum is always an
/// exact multiple (each copy is produced exactly `β_T` times).
fn divide_beta(pairs: &mut [(u64, u128)], beta: &HashMap<u32, u128>) {
    for (code, count) in pairs.iter_mut() {
        let tree_code = (*code >> 16) as u32;
        let b = beta[&tree_code];
        debug_assert_eq!(*count % b, 0, "β must divide the accumulated count");
        *count /= b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use motivo_graph::generators;
    use motivo_graphlet::spanning::SmallCounts;
    use motivo_treelet::ColorSet;

    /// The engine must agree with the reference DP (graphlet crate) on any
    /// small graph, for every vertex and every colored treelet.
    fn assert_matches_reference(g: &Graph, colors: Vec<u8>, k: u32) {
        let n = g.num_nodes();
        let rows: Vec<u16> = {
            let verts: Vec<u32> = (0..n).collect();
            g.induced_rows(&verts)
        };
        let reference = SmallCounts::build(&rows, &colors, k);
        let cfg = BuildConfig {
            zero_rooting: false,
            threads: 2,
            ..BuildConfig::new(k)
        };
        let coloring = Coloring::fixed(colors, k);
        let (table, _) = build_table(g, &coloring, &cfg).unwrap();
        for v in 0..n {
            for h in 1..=k {
                let rec = table.get(h, v).unwrap();
                let got: Vec<(ColoredTreelet, u128)> = rec.iter().collect();
                let want: Vec<(ColoredTreelet, u128)> = reference.per_vertex[v as usize]
                    .iter()
                    .filter(|(ct, _)| ct.size() == h)
                    .map(|(&ct, &c)| (ct, c))
                    .collect();
                assert_eq!(got, want, "vertex {v} size {h}");
            }
        }
    }

    #[test]
    fn matches_reference_on_triangle() {
        let g = generators::complete_graph(3);
        assert_matches_reference(&g, vec![0, 1, 2], 3);
    }

    #[test]
    fn matches_reference_on_k4_and_paths() {
        assert_matches_reference(&generators::complete_graph(4), vec![0, 1, 2, 3], 4);
        assert_matches_reference(&generators::path_graph(6), vec![0, 1, 2, 0, 1, 2], 3);
        assert_matches_reference(&generators::cycle_graph(8), vec![0, 1, 2, 3, 0, 1, 2, 3], 4);
    }

    #[test]
    fn matches_reference_on_random_colorings() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(21);
        for trial in 0..5 {
            let g = generators::erdos_renyi(12, 22, trial);
            let k = rng.gen_range(3..=5);
            let colors: Vec<u8> = (0..g.num_nodes())
                .map(|_| rng.gen_range(0..k) as u8)
                .collect();
            assert_matches_reference(&g, colors, k);
        }
    }

    #[test]
    fn zero_rooting_keeps_only_color0_roots_at_level_k() {
        let g = generators::complete_graph(5);
        let colors = vec![0u8, 1, 2, 0, 1];
        let cfg = BuildConfig {
            threads: 1,
            ..BuildConfig::new(3)
        };
        let coloring = Coloring::fixed(colors.clone(), 3);
        let (table, _) = build_table(&g, &coloring, &cfg).unwrap();
        for v in 0..5 {
            let empty = table.get(3, v).unwrap().is_empty();
            if colors[v as usize] == 0 {
                assert!(!empty, "color-0 vertex {v} should have k-records");
            } else {
                assert!(
                    empty,
                    "vertex {v} with color {} must be skipped",
                    colors[v as usize]
                );
            }
        }
        // Lower levels keep all rootings.
        for v in 0..5 {
            assert!(!table.get(2, v).unwrap().is_empty() || g.degree(v) == 0);
        }
    }

    #[test]
    fn zero_rooted_total_counts_each_colorful_treelet_once() {
        // On K4 with a rainbow coloring every 4-subset is colorful; the
        // total over 0-rooted size-4 records must equal the number of
        // spanning trees of K4 times … no: it equals the number of colorful
        // 4-treelet copies, = 16 spanning trees of K4 (all 4 vertices, each
        // counted at its color-0 root exactly once).
        let g = generators::complete_graph(4);
        let coloring = Coloring::fixed(vec![0, 1, 2, 3], 4);
        let cfg = BuildConfig {
            threads: 1,
            ..BuildConfig::new(4)
        };
        let (table, _) = build_table(&g, &coloring, &cfg).unwrap();
        let total: u128 = (0..4).map(|v| table.get(4, v).unwrap().total()).sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn hub_split_agrees_with_plain_path() {
        let g = generators::star_heavy(200, 2, 0.9, 5);
        let coloring = Coloring::uniform(&g, 4, 3);
        let plain = BuildConfig {
            threads: 3,
            hub_split_threshold: usize::MAX,
            ..BuildConfig::new(4)
        };
        let split = BuildConfig {
            threads: 3,
            hub_split_threshold: 16,
            ..BuildConfig::new(4)
        };
        let (ta, _) = build_table(&g, &coloring, &plain).unwrap();
        let (tb, _) = build_table(&g, &coloring, &split).unwrap();
        for v in 0..g.num_nodes() {
            for h in 1..=4 {
                let a: Vec<_> = ta.get(h, v).unwrap().iter().collect();
                let b: Vec<_> = tb.get(h, v).unwrap().iter().collect();
                assert_eq!(a, b, "vertex {v} size {h}");
            }
        }
    }

    /// Block storage must agree record-for-record with the in-memory
    /// build on both codecs — the out-of-core acceptance bar — whether
    /// unbudgeted or under a tiny memtable budget that forces several
    /// spill + merge rounds per level.
    #[test]
    fn budgeted_block_storage_agrees_with_memory() {
        let g = generators::barabasi_albert(120, 3, 2);
        let coloring = Coloring::uniform(&g, 5, 1);
        // 4 KiB on a level holding tens of KiB: many spills.
        for (codec, budget) in [
            (RecordCodec::Plain, 0),
            (RecordCodec::Plain, 4 * 1024),
            (RecordCodec::Succinct, 4 * 1024),
        ] {
            let dir = std::env::temp_dir().join(format!("motivo-core-block-test-{codec}-{budget}"));
            std::fs::remove_dir_all(&dir).ok();
            let mem = BuildConfig {
                threads: 2,
                codec,
                ..BuildConfig::new(5)
            };
            let block = BuildConfig {
                threads: 2,
                codec,
                ..BuildConfig::new(5)
            }
            .build_mem_bytes(&dir, budget);
            let (ta, _) = build_table(&g, &coloring, &mem).unwrap();
            let (tb, sb) = build_table(&g, &coloring, &block).unwrap();
            if budget > 0 {
                assert!(
                    sb.spill_runs >= 2,
                    "{codec}: want ≥2 spill rounds, got {}",
                    sb.spill_runs
                );
                assert!(sb.peak_mem_bytes > 0 && sb.peak_mem_bytes <= 2 * budget as u64);
            }
            for v in 0..g.num_nodes() {
                for h in 1..=5 {
                    let a: Vec<_> = ta.get(h, v).unwrap().iter().collect();
                    let b: Vec<_> = tb.get(h, v).unwrap().iter().collect();
                    assert_eq!(a, b, "{codec}/{budget}: vertex {v} size {h}");
                }
            }
            assert_eq!(ta.record_count(), tb.record_count());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A write error fails the build with `BuildError::Io`, without a
    /// panic or a hang, and leaves no run file behind: at a level's seal
    /// (its `.new` file cannot be created), and in the collector while
    /// workers still run (a spill run cannot be created, so `put` fails).
    /// A directory planted at the file's path is the fault.
    #[test]
    fn level_write_errors_fail_the_build_cleanly() {
        let g = generators::barabasi_albert(120, 3, 2);
        for (budget, planted) in [(0, "level-3.mtvb.new"), (4 * 1024, "level-3.mtvb.run0")] {
            let dir = std::env::temp_dir().join(format!("motivo-core-write-error-{budget}"));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(dir.join(planted)).unwrap();
            let cfg = BuildConfig {
                threads: 2,
                ..BuildConfig::new(5)
            }
            .build_mem_bytes(&dir, budget);
            match build_urn(&g, &cfg) {
                Err(BuildError::Io(_)) => {}
                Err(e) => panic!("{planted}: want an I/O error, got {e}"),
                Ok(_) => panic!("{planted}: the build must fail"),
            }
            let runs: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.is_file() && p.to_string_lossy().contains(".run"))
                .collect();
            assert!(runs.is_empty(), "{planted}: runs left behind: {runs:?}");
            assert!(dir.join("level-2.mtvb").is_file() && !dir.join("level-3.mtvb").exists());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// An unbudgeted block build spills nothing and reports its history.
    #[test]
    fn unbudgeted_block_storage_has_no_spills() {
        let g = generators::barabasi_albert(80, 3, 5);
        let coloring = Coloring::uniform(&g, 4, 2);
        let dir = std::env::temp_dir().join("motivo-core-block-nospill");
        std::fs::remove_dir_all(&dir).ok();
        let cfg = BuildConfig {
            threads: 1,
            ..BuildConfig::new(4)
        }
        .build_mem_bytes(&dir, 0);
        let (table, stats) = build_table(&g, &coloring, &cfg).unwrap();
        assert_eq!(stats.spill_runs, 0);
        assert_eq!(table.total_spill_runs(), 0);
        assert!(stats.peak_mem_bytes > 0, "memtable peak still tracked");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The succinct codec must produce record-for-record identical counts:
    /// the codec changes bytes, never counts — while shrinking the table.
    #[test]
    fn succinct_codec_matches_plain_counts_and_shrinks() {
        let g = generators::barabasi_albert(150, 3, 9);
        let coloring = Coloring::uniform(&g, 5, 4);
        let plain_cfg = BuildConfig {
            threads: 2,
            ..BuildConfig::new(5)
        };
        let succ_cfg = BuildConfig {
            threads: 2,
            codec: RecordCodec::Succinct,
            ..BuildConfig::new(5)
        };
        let (tp, sp) = build_table(&g, &coloring, &plain_cfg).unwrap();
        let (ts, ss) = build_table(&g, &coloring, &succ_cfg).unwrap();
        assert_eq!(ts.codec(), RecordCodec::Succinct);
        for v in 0..g.num_nodes() {
            for h in 1..=5 {
                let a: Vec<_> = tp.get(h, v).unwrap().iter().collect();
                let b: Vec<_> = ts.get(h, v).unwrap().iter().collect();
                assert_eq!(a, b, "vertex {v} size {h}");
            }
        }
        assert_eq!(sp.records, ss.records);
        assert_eq!(sp.merge_ops, ss.merge_ops);
        // The acceptance bar: ≥ 40% smaller on a k=5 build.
        assert!(
            ss.table_bytes * 10 <= sp.table_bytes * 6,
            "succinct {} bytes vs plain {}",
            ss.table_bytes,
            sp.table_bytes
        );
    }

    #[test]
    fn merge_ops_counted() {
        let g = generators::complete_graph(6);
        let coloring = Coloring::uniform(&g, 4, 0);
        let cfg = BuildConfig {
            threads: 1,
            ..BuildConfig::new(4)
        };
        let (_, stats) = build_table(&g, &coloring, &cfg).unwrap();
        assert!(stats.merge_ops > 0);
        assert_eq!(stats.per_level.len(), 3);
    }

    #[test]
    fn singleton_level_counts_color() {
        let g = generators::path_graph(4);
        let coloring = Coloring::fixed(vec![2, 0, 1, 2], 3);
        let cfg = BuildConfig {
            threads: 1,
            ..BuildConfig::new(3)
        };
        let (table, _) = build_table(&g, &coloring, &cfg).unwrap();
        let rec = table.get(1, 0).unwrap();
        let (ct, c) = rec.iter().next().unwrap();
        assert_eq!(c, 1);
        assert_eq!(ct.colors(), ColorSet::single(2));
        assert_eq!(ct.tree(), Treelet::SINGLETON);
    }
}
