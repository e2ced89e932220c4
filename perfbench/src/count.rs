//! The counting phases: build, reopen, naive estimates and AGS, plus the
//! staged naive loop and the table probes of the traced run.

use crate::trace::Tracer;
use crate::workload::{stream, Spec, COLORING_SEED, K};
use motivo::core::parallel::{merge_tallies, shard_sizes, split_seed, NAIVE_SHARD_SAMPLES};
use motivo::core::{
    ags, build_urn, estimates_from_tally, load_urn, load_urn_external, naive_estimates, save_urn,
    AgsConfig, BuildConfig, BuildStats, SampleConfig, Sampler, SoaTally, Urn,
};
use motivo::graph::Graph;
use motivo::graphlet::{Graphlet, GraphletRegistry};
use motivo::table::Record;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

pub type Tally = HashMap<u128, u64>;

/// AGS epochs per call: three or four classes get covered, each switching
/// the shape, along the shape sequence that almost every sampling seed
/// follows under the workloads' fixed coloring.
pub const AGS_EPOCHS: u64 = 8;

/// Build configuration of the run's urn under the workload's fixed
/// coloring; `threads` 0 is every core, the CLI default.
pub fn build_config(spec: &Spec, threads: usize) -> BuildConfig {
    BuildConfig::new(K)
        .seed(COLORING_SEED)
        .codec(spec.codec)
        .threads(threads)
}

/// Builds the urn; a budgeted workload builds through block storage in
/// `scratch`, which the caller removes.
pub fn build<'g>(
    spec: &Spec,
    g: &'g Graph,
    cfg: BuildConfig,
    scratch: &Path,
) -> Result<Urn<'g>, String> {
    let cfg = match spec.build_mem_bytes {
        Some(bytes) => cfg.build_mem_bytes(scratch, bytes),
        None => cfg,
    };
    build_urn(g, &cfg).map_err(|e| format!("build_urn: {e}"))
}

/// One timed `build_urn` + `save_urn` into `dir`: returns both durations
/// and the build's own statistics.
pub fn build_and_save(
    spec: &Spec,
    g: &Graph,
    cfg: BuildConfig,
    dir: &Path,
    tracer: &Tracer,
    parent: u64,
) -> Result<(Duration, Duration, BuildStats), String> {
    let scratch = dir.with_extension("scratch");
    let span = tracer.begin("core.build", "build_urn", parent, 0);
    let urn = build(spec, g, cfg, &scratch)?;
    let built = span.end();
    let span = tracer.begin("core.persist", "save_urn", parent, 0);
    save_urn(&urn, dir).map_err(|e| format!("save_urn: {e}"))?;
    let saved = span.end();
    let stats = urn.build_stats().clone();
    drop(urn);
    std::fs::remove_dir_all(&scratch).ok();
    Ok((built, saved, stats))
}

/// Reopens the saved urn: preloaded into memory, or served from its block
/// files for a budgeted workload.
pub fn reopen<'g>(spec: &Spec, g: &'g Graph, dir: &Path) -> Result<Urn<'g>, String> {
    let urn = if spec.build_mem_bytes.is_some() {
        load_urn_external(g, dir)
    } else {
        load_urn(g, dir)
    };
    urn.map_err(|e| format!("reopen: {e}"))
}

pub fn naive_config(seed: u64, threads: usize) -> SampleConfig {
    SampleConfig::seeded(split_seed(seed, stream::NAIVE)).threads(threads)
}

/// One naive estimator call at the workload's sample count.
pub fn naive_call(urn: &Urn<'_>, spec: &Spec, seed: u64, threads: usize) -> Duration {
    let mut registry = GraphletRegistry::new(K as u8);
    let t = Instant::now();
    let est = naive_estimates(
        urn,
        &mut registry,
        spec.naive_samples,
        &naive_config(seed, threads),
    );
    black_box(est.total_count());
    t.elapsed()
}

/// Exact counts of one AGS call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AgsTotals {
    pub samples: u64,
    pub switches: u64,
    pub covered: u64,
    pub classes: u64,
    /// Σ over classes of min(occurrences, c̄): samples that counted
    /// toward covering a class.
    pub useful: u64,
}

/// AGS call number `n` of a run, with c̄ = 1000, a budget of
/// [`AGS_EPOCHS`] epochs and a seed of its own. The shapes AGS walks, and
/// so its cost per sample, depend on the seed; with new seeds for every
/// call, a median over calls drops one that walked cheaper or dearer
/// shapes than most.
pub fn ags_call(
    urn: &Urn<'_>,
    seed: u64,
    n: u64,
    threads: usize,
    tracer: &Tracer,
    parent: u64,
) -> (Duration, AgsTotals) {
    let base = AgsConfig::default();
    let cfg = AgsConfig {
        c_bar: 1000,
        max_samples: AGS_EPOCHS * base.epoch,
        sample: SampleConfig::seeded(split_seed(split_seed(seed, stream::AGS), n)).threads(threads),
        ..base
    };
    let mut registry = GraphletRegistry::new(K as u8);
    let span = tracer.begin("core.ags", "ags", parent, 0);
    let res = ags(urn, &mut registry, &cfg);
    let wall = span.end();
    let totals = AgsTotals {
        samples: res.estimates.samples,
        switches: res.switches,
        covered: res.covered as u64,
        classes: registry.len() as u64,
        useful: res
            .estimates
            .per_graphlet
            .iter()
            .map(|e| e.occurrences.min(cfg.c_bar))
            .sum(),
    };
    (wall, totals)
}

/// Samples of an output check's tallies: three shards, so a check at
/// every thread really runs shards in parallel.
pub const CHECK_SAMPLES: u64 = 3 * NAIVE_SHARD_SAMPLES;

/// The shard loop of `sample_tally`, re-run one stage at a time over each
/// whole shard so every stage gets its own span.
pub struct Staged {
    pub tally: Tally,
    pub samples: u64,
    pub sample: Duration,
    pub rows: Duration,
    pub from_rows: Duration,
    pub add: Duration,
    pub merge: Duration,
    pub sweeps: u64,
    /// Σ over shards of `SoaTally::distinct_raw`: canonicalizations run.
    pub distinct_raw: u64,
    /// Every distinct raw pattern seen, for the canonicalization probe.
    pub raw_patterns: Vec<Graphlet>,
}

impl Staged {
    pub fn total(&self) -> Duration {
        self.sample + self.rows + self.from_rows + self.add + self.merge
    }
}

pub fn staged_tally(
    urn: &Urn<'_>,
    samples: u64,
    cfg: &SampleConfig,
    tracer: &Tracer,
    parent: u64,
) -> Staged {
    let g = urn.graph();
    let k = urn.k() as usize;
    let sizes = shard_sizes(samples, NAIVE_SHARD_SAMPLES);
    let mut out = Staged {
        tally: Tally::new(),
        samples,
        sample: Duration::ZERO,
        rows: Duration::ZERO,
        from_rows: Duration::ZERO,
        add: Duration::ZERO,
        merge: Duration::ZERO,
        sweeps: 0,
        distinct_raw: 0,
        raw_patterns: Vec::new(),
    };
    let mut seen = HashSet::new();
    let mut tallies = Vec::with_capacity(sizes.len());
    let mut verts_all: Vec<u32> = Vec::new();
    let mut rows_all: Vec<u16> = Vec::new();
    let mut graphlets: Vec<Graphlet> = Vec::new();
    let mut verts: Vec<u32> = Vec::with_capacity(k);
    let mut rows: Vec<u16> = Vec::with_capacity(k);
    for (shard, &size) in sizes.iter().enumerate() {
        verts_all.clear();
        rows_all.clear();
        graphlets.clear();
        let t0 = Instant::now();
        let shard_cfg = SampleConfig {
            seed: split_seed(cfg.seed, shard as u64),
            ..cfg.clone()
        };
        let mut sampler = Sampler::new(urn, shard_cfg);
        for _ in 0..size {
            sampler.sample_copy_into(&mut verts);
            verts_all.extend_from_slice(&verts);
        }
        let t1 = Instant::now();
        for copy in verts_all.chunks_exact(k) {
            g.induced_rows_into(copy, &mut rows);
            rows_all.extend_from_slice(&rows);
        }
        let t2 = Instant::now();
        graphlets.extend(rows_all.chunks_exact(k).map(Graphlet::from_rows));
        let t3 = Instant::now();
        let mut soa = SoaTally::new(k as u8);
        for gl in &graphlets {
            soa.add(gl);
        }
        out.distinct_raw += soa.distinct_raw() as u64;
        tallies.push(soa.into_tally());
        let t4 = Instant::now();
        tracer.record("core.sample", "sample_copy_into", parent, t0, t1);
        tracer.record("graph.rows", "induced_rows_into", parent, t1, t2);
        tracer.record("graphlet", "from_rows", parent, t2, t3);
        tracer.record("core.tally", "add", parent, t3, t4);
        out.sample += t1 - t0;
        out.rows += t2 - t1;
        out.from_rows += t3 - t2;
        out.add += t4 - t3;
        out.sweeps += sampler.stats().1;
        for gl in &graphlets {
            if seen.insert(gl.bits()) {
                out.raw_patterns.push(*gl);
            }
        }
    }
    let span = tracer.begin("core.parallel", "merge_tallies", parent, 0);
    out.tally = merge_tallies(tallies);
    out.merge = span.end();
    out
}

/// Median of `reps` timings of `f`.
fn median_of(reps: usize, mut f: impl FnMut() -> Duration) -> Duration {
    let mut v: Vec<Duration> = (0..reps).map(|_| f()).collect();
    v.sort_unstable();
    v[reps / 2]
}

/// `estimates_from_tally` with a fresh registry, as a request pays it.
pub fn estimate_time(
    urn: &Urn<'_>,
    tally: &Tally,
    samples: u64,
    tracer: &Tracer,
    parent: u64,
) -> Duration {
    median_of(9, || {
        let mut registry = GraphletRegistry::new(K as u8);
        let span = tracer.begin("core.naive", "estimates_from_tally", parent, 0);
        let est = estimates_from_tally(urn, &mut registry, tally, samples, Duration::ZERO);
        black_box(est.total_count());
        span.end()
    })
}

/// Mean time to canonicalize one distinct raw pattern.
pub fn canon_time(patterns: &[Graphlet], tracer: &Tracer, parent: u64) -> Duration {
    const PASSES: u32 = 20;
    let span = tracer.begin("graphlet", "canonical", parent, 0);
    for _ in 0..PASSES {
        for p in patterns {
            black_box(p.canonical());
        }
    }
    span.end() / (PASSES * patterns.len().max(1) as u32)
}

/// Per-layer probes of the table beneath the reopened urn.
pub struct TableProbe {
    pub get_ns: f64,
    pub read_amplification: f64,
    pub decode_entries_per_s: f64,
    pub alias_draws_per_s: f64,
}

pub fn table_probe(
    urn: &Urn<'_>,
    urn_dir: &Path,
    seed: u64,
    tracer: &Tracer,
    parent: u64,
) -> Result<TableProbe, String> {
    const GETS: usize = 20_000;
    const ALIAS_DRAWS: usize = 1 << 20;
    let table = urn.table();
    let n = urn.graph().num_nodes();
    let mut rng = SmallRng::seed_from_u64(split_seed(seed, stream::PROBE));
    let verts: Vec<u32> = (0..GETS).map(|_| rng.gen_range(0..n)).collect();

    let mut returned = 0usize;
    let mut get_times = Vec::new();
    for _ in 0..3 {
        returned = 0;
        let span = tracer.begin("table", "CountTable::get", parent, 0);
        for &v in &verts {
            let rec = table
                .get(K, v)
                .map_err(|e| format!("CountTable::get: {e}"))?;
            returned += rec.encoded_len() * usize::from(!rec.is_empty());
        }
        get_times.push(span.end());
    }
    get_times.sort_unstable();
    let get_ns = get_times[1].as_nanos() as f64 / GETS as f64;

    // Every lookup in a block-backed level reads one whole block; memory
    // levels read none.
    let blocks = table.level(K).profile().blocks as u64;
    let read_amplification = if blocks == 0 || returned == 0 {
        0.0
    } else {
        let file = std::fs::metadata(urn_dir.join(format!("level-{K}.mtvb")))
            .map_err(|e| format!("level file: {e}"))?
            .len();
        // Footer (28 bytes) and one 20-byte index entry per block are not
        // block payload.
        let mean_block = (file.saturating_sub(28 + 20 * blocks)) as f64 / blocks as f64;
        GETS as f64 * mean_block / returned as f64
    };

    let mut records: Vec<Record> = Vec::new();
    for item in table.level(K).scan().take(GETS) {
        let (_, rec) = item.map_err(|e| format!("level scan: {e}"))?;
        records.push((*rec).clone());
    }
    let span = tracer.begin("table", "Record::iter_tree", parent, 0);
    let mut entries = 0usize;
    for rec in &records {
        for &shape in urn.shapes() {
            entries += black_box(rec.iter_tree(shape)).count();
        }
    }
    let decode = span.end();

    let alias = urn.root_alias();
    let mut buf = vec![0u32; 4096];
    let span = tracer.begin("table", "AliasTable::sample_many", parent, 0);
    for _ in 0..ALIAS_DRAWS / buf.len() {
        alias.sample_many(&mut rng, &mut buf);
        black_box(&buf);
    }
    let alias_time = span.end();

    Ok(TableProbe {
        get_ns,
        read_amplification,
        decode_entries_per_s: entries as f64 / decode.as_secs_f64(),
        alias_draws_per_s: ALIAS_DRAWS as f64 / alias_time.as_secs_f64(),
    })
}
