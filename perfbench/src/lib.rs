//! The motivo benchmark: one command runs a named workload from a seed,
//! drives the program only through the public APIs of its crates, checks
//! the outputs, and prints the end-to-end metrics — or, traced, the
//! per-layer metrics. See README.md for the workloads and metrics.

mod count;
mod serve;
mod stats;
mod trace;
pub mod workload;

use motivo::core::parallel::split_seed;
use motivo::core::sample_tally;
use motivo::graph::io as graph_io;
use motivo::obs::{Obs, Registry};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{stream, Scale, Spec};

/// Rounds of the untraced run, at the least.
const MIN_ROUNDS: u64 = 3;
/// A round repeats its build, naive and AGS calls until each phase has
/// lasted this long; every call is one value of its phase's median.
const MIN_PHASE: Duration = Duration::from_millis(400);
/// Shares of `--seconds` each round serves cold requests, cached repeats
/// and pipelined repeats for.
const COLD_SHARE: f64 = 0.08;
const HIT_SHARE: f64 = 0.02;
const PIPELINED_SHARE: f64 = 0.02;
/// The traced run's staged loop must sum to the untraced single-thread
/// `sample_tally` wall time within this factor either way, once that wall
/// time is long enough to measure.
const STAGE_SUM_TOLERANCE: f64 = 1.5;
const STAGE_SUM_MIN_WALL: Duration = Duration::from_millis(100);

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Directory the run works in (created, and removed at the end).
    pub work_root: PathBuf,
}

/// Operations attempted and failed. Checks are operations too.
#[derive(Default)]
pub(crate) struct Ops {
    attempted: AtomicU64,
    failed: AtomicU64,
    failures: Mutex<Vec<String>>,
}

impl Ops {
    fn fail(&self, n: u64, what: String) {
        self.failed.fetch_add(n, Ordering::Relaxed);
        self.failures
            .lock()
            .expect("failure list poisoned")
            .push(what);
    }

    /// Counts one operation; a failure is recorded and yields `None`.
    pub fn attempt<T>(&self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        r.map_err(|e| self.fail(1, format!("{what}: {e}"))).ok()
    }

    /// Counts one operation the run cannot go on without.
    pub fn must<T>(&self, what: &str, r: Result<T, String>) -> Result<T, String> {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        r.map_err(|e| {
            let msg = format!("{what}: {e}");
            self.fail(1, msg.clone());
            msg
        })
    }

    /// Counts `n` operations that succeeded.
    pub fn succeeded(&self, n: u64) {
        self.attempted.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one output check.
    pub fn check(&self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.fail(1, format!("check failed: {what}: {}", detail()));
        }
    }

    /// Counts a batch of requests.
    pub fn requests(&self, what: &str, ok: u64, failed: u64) {
        self.attempted.fetch_add(ok + failed, Ordering::Relaxed);
        if failed > 0 {
            self.fail(
                failed,
                format!("{what}: {failed} of {} requests failed", ok + failed),
            );
        }
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() {
                    m.value
                } else {
                    f64::MAX
                };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// A work directory removed when the run ends, however it ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(path: PathBuf) -> Result<WorkDir, String> {
        std::fs::remove_dir_all(&path).ok();
        std::fs::create_dir_all(&path).map_err(|e| format!("work dir {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }

    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Process resident-set high-water mark (`VmHWM`) in bytes.
fn peak_rss_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map(|kb| kb * 1024)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs one workload. `Err` means the run could not measure at all; a
/// failed operation or check is reported in the returned [`Report`].
pub fn run(opts: &Options) -> Result<Report, String> {
    let spec = workload::spec(&opts.workload, opts.scale).ok_or_else(|| {
        format!(
            "unknown workload `{}` (one of {:?})",
            opts.workload,
            workload::NAMES
        )
    })?;
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let id = RUNS.fetch_add(1, Ordering::Relaxed);
    let work = WorkDir::create(opts.work_root.join(format!(
        "run-{}-{}-{id}",
        spec.name,
        std::process::id()
    )))?;
    let ops = Ops::default();
    let mut m = Metrics::default();
    let mut notes = Vec::new();

    // Inputs: the run's graph, in the program's binary graph format.
    let graph = workload::make_graph(&spec, opts.seed);
    let graph_path = work.join("graph.mtvg");
    graph_io::save_binary(&graph, &graph_path).map_err(|e| format!("save graph: {e}"))?;
    notes.push(format!(
        "inputs: {} nodes, {} edges, max degree {}, graph fingerprint {:016x}",
        graph.num_nodes(),
        graph.num_edges(),
        graph.max_degree(),
        motivo::core::graph_fingerprint(&graph)
    ));
    let run = Run {
        spec: &spec,
        seed: opts.seed,
        window: opts.seconds,
        work: &work,
        graph_path: &graph_path,
        ops: &ops,
    };
    if opts.trace {
        let tracer = Tracer::new(true);
        run.traced(graph, &tracer, &mut m, &mut notes)?;
        for (layer, ms) in tracer.self_times_ms() {
            m.put(format!("self_ms.{layer}"), ms, "ms");
        }
        let spans_path = opts
            .work_root
            .join(format!("trace-{}-seed{}.jsonl", spec.name, opts.seed));
        tracer
            .write_jsonl(&spans_path)
            .map_err(|e| format!("write spans: {e}"))?;
        notes.push(format!(
            "{} spans written to {}",
            tracer.span_count(),
            spans_path.display()
        ));
    } else {
        run.measured(graph, &mut m, &mut notes)?;
        m.put("peak_rss_mb", peak_rss_bytes()? as f64 / 1e6, "MB");
    }

    let failures = ops.failures.into_inner().expect("failure list poisoned");
    Ok(Report {
        attempted: ops.attempted.into_inner(),
        failed: ops.failed.into_inner(),
        failures,
        metrics: m.0,
        notes,
    })
}

/// What every phase of one run shares.
struct Run<'a> {
    spec: &'a Spec,
    seed: u64,
    window: f64,
    work: &'a WorkDir,
    graph_path: &'a Path,
    ops: &'a Ops,
}

impl Run<'_> {
    fn urn_dir(&self) -> PathBuf {
        self.work.join("urn")
    }

    fn load_graph(
        &self,
        tracer: &Tracer,
        parent: u64,
    ) -> Result<(motivo::graph::Graph, Duration), String> {
        let span = tracer.begin("graph.io", "load_binary", parent, 0);
        let g = graph_io::load_binary(self.graph_path).map_err(|e| format!("load graph: {e}"))?;
        Ok((g, span.end()))
    }

    /// The untraced run: rounds of every timed phase until the window has
    /// passed. Interleaving spreads each phase's repetitions over the whole
    /// window, so a slow stretch of the host hits a few repetitions of
    /// every phase instead of all repetitions of one, and the medians
    /// drop it.
    fn measured(
        &self,
        graph: motivo::graph::Graph,
        m: &mut Metrics,
        notes: &mut Vec<String>,
    ) -> Result<(), String> {
        let (spec, seed, ops) = (self.spec, self.seed, self.ops);
        let off = Tracer::new(false);
        let urn_dir = self.urn_dir();
        let start = Instant::now();
        let (mut builds, mut setups, mut naive, mut ags) = (vec![], vec![], vec![], vec![]);
        let mut phases = [
            serve::PhaseRun::default(),
            serve::PhaseRun::default(),
            serve::PhaseRun::default(),
        ];
        let mut qps = vec![];
        let mut table_bytes = 0;
        let mut round = 0u64;
        while round < MIN_ROUNDS || start.elapsed().as_secs_f64() < self.window {
            // Build: build_urn + save_urn. The run's first urn is the one
            // every round reopens.
            repeat_phase(|| {
                let first = builds.is_empty();
                let dir = if first {
                    urn_dir.clone()
                } else {
                    self.work.join("urn-rep")
                };
                let cfg = count::build_config(spec, 0);
                let r = count::build_and_save(spec, &graph, cfg, &dir, &off, 0);
                let (built, saved, stats) = ops.must("build", r)?;
                builds.push((built + saved).as_secs_f64());
                if first {
                    table_bytes = stats.table_bytes;
                } else {
                    std::fs::remove_dir_all(&dir).ok();
                }
                Ok(())
            })?;

            // Set-up: graph load + urn reopen + store open + store build +
            // bind + warm-up.
            let t = Instant::now();
            let (g, _) = self.load_graph(&off, 0)?;
            let urn = count::reopen(spec, &g, &urn_dir)?;
            let (svc, _) = serve::set_up(spec, seed, &g, self.work.join("store"), &off, 0, ops)?;
            setups.push(t.elapsed().as_secs_f64());

            repeat_phase(|| {
                naive.push(count::naive_call(&urn, spec, seed, 0).as_secs_f64());
                ops.succeeded(1);
                Ok(())
            })?;
            repeat_phase(|| {
                let (wall, _) = count::ags_call(&urn, seed, ags.len() as u64, 0, &off, 0);
                ags.push(wall.as_secs_f64());
                ops.succeeded(1);
                Ok(())
            })?;

            let budget =
                |share: f64| serve::Until::Elapsed(Duration::from_secs_f64(self.window * share));
            let plan = [
                budget(COLD_SHARE),
                budget(HIT_SHARE),
                budget(PIPELINED_SHARE),
            ];
            let ([cold, hit, piped], _) = self.serve_round(&svc, round, plan, &off)?;
            qps.push(piped.ok as f64 / piped.wall);
            for (all, p) in phases.iter_mut().zip([cold, hit, piped]) {
                all.absorb(p);
            }
            drop(urn);
            svc.close();
            round += 1;
        }
        let [cold, hit, _] = &phases;
        notes.push(format!(
            "{round} rounds in {:.1} s",
            start.elapsed().as_secs_f64()
        ));
        self.note_latencies(&phases, notes);
        notes.push(format!(
            "per round: setup_s {setups:.3?}; hit_qps {qps:.0?}; per call: build_s {builds:.3?}; naive wall s {naive:.3?}; ags_s {ags:.3?}"
        ));

        m.put("setup_s", stats::median(&setups), "s");
        m.put("build_s", stats::median(&builds), "s");
        m.put(
            "naive_samples_per_s",
            spec.naive_samples as f64 / stats::median(&naive),
            "1/s",
        );
        m.put("ags_s", stats::median(&ags), "s");
        m.put("table_mb", table_bytes as f64 / 1e6, "MB");
        let (cold_l, hit_l) = (stats::latency(&cold.rtts), stats::latency(&hit.rtts));
        m.put("cold_p50_ms", cold_l.p50 * 1e3, "ms");
        m.put("cold_p90_ms", cold_l.p90 * 1e3, "ms");
        m.put("hit_p50_us", hit_l.p50 * 1e6, "us");
        m.put("hit_p90_us", hit_l.p90 * 1e6, "us");
        m.put("hit_qps", stats::median(&qps), "1/s");

        // Untimed output checks on the reopened urn.
        let urn = count::reopen(spec, &graph, &urn_dir)?;
        let (one, _) = sample_tally(&urn, count::CHECK_SAMPLES, &count::naive_config(seed, 1));
        let (all, _) = sample_tally(&urn, count::CHECK_SAMPLES, &count::naive_config(seed, 0));
        ops.check(
            "tally at 1 thread equals tally at every thread",
            one == all,
            || format!("{} vs {} distinct codes", one.len(), all.len()),
        );
        check_reopened_matches_memory(spec, seed, &urn, ops)
    }

    /// The traced run: one pass over every phase with spans, plus the
    /// single-thread runs behind the speedups and the per-layer probes.
    fn traced(
        &self,
        graph: motivo::graph::Graph,
        tracer: &Tracer,
        m: &mut Metrics,
        notes: &mut Vec<String>,
    ) -> Result<(), String> {
        let (spec, seed, ops) = (self.spec, self.seed, self.ops);
        let urn_dir = self.urn_dir();
        let phase = tracer.begin("bench", "build", 0, 0);
        traced_builds(spec, &graph, &urn_dir, tracer, phase.id(), ops, m)?;
        phase.end();
        drop(graph);

        let phase = tracer.begin("bench", "setup", 0, 0);
        let (g, load) = self.load_graph(tracer, phase.id())?;
        let span = tracer.begin("core.persist", "reopen", phase.id(), 0);
        let urn = count::reopen(spec, &g, &urn_dir)?;
        let reopen = span.end();
        let (svc, times) = serve::set_up(
            spec,
            seed,
            &g,
            self.work.join("store"),
            tracer,
            phase.id(),
            ops,
        )?;
        phase.end();
        m.put("graph.load_ms", load.as_secs_f64() * 1e3, "ms");
        m.put("persist.load_ms", reopen.as_secs_f64() * 1e3, "ms");
        m.put("store.open_ms", times.open.as_secs_f64() * 1e3, "ms");
        m.put("store.build_s", times.build.as_secs_f64(), "s");

        traced_estimators(spec, seed, &urn, &urn_dir, tracer, ops, m)?;
        check_reopened_matches_memory(spec, seed, &urn, ops)?;
        drop(urn);

        let plan = spec.traced_requests.map(serve::Until::Sent);
        let (phases, cold_sent) = self.serve_round(&svc, 0, plan, tracer)?;
        self.note_latencies(&phases, notes);
        // The server's own histograms split each phase's round trip into
        // queue wait, service, and the rest (reactor, proto, loopback,
        // client).
        let workers = std::thread::available_parallelism()
            .map_or(2, |n| n.get())
            .max(2) as f64;
        for (name, p) in ["cold", "hit", "pipelined"].iter().zip(&phases) {
            let mean = |(n, sum): (u64, u64)| sum as f64 / n.max(1) as f64 / 1e3;
            let (qw, sv) = (mean(p.queue_wait), mean(p.service));
            let overhead = p.mean_rtt() * 1e6 - qw - sv;
            ops.check(
                &format!("{name}: round trip = queue wait + service + overhead ≥ 0"),
                overhead >= 0.0,
                || format!("overhead {overhead:.2} µs"),
            );
            m.put(format!("server.{name}.queue_wait_mean_us"), qw, "us");
            m.put(format!("server.{name}.service_mean_us"), sv, "us");
            m.put(format!("server.{name}.overhead_mean_us"), overhead, "us");
            m.put(format!("server.{name}.busy"), p.busy as f64, "count");
            m.put(
                format!("server.{name}.utilization"),
                p.service.1 as f64 / 1e9 / (workers * p.wall),
                "ratio",
            );
        }
        let (hits, misses, coalesced) = ops.must("stats", serve::query_cache(&svc))?;
        m.put(
            "server.cache_hit_ratio",
            hits as f64 / (hits + misses + coalesced).max(1) as f64,
            "ratio",
        );
        m.put("server.coalesced", coalesced as f64, "count");
        serve_probes(&svc, &cold_sent, tracer, ops, m)?;
        svc.close();
        Ok(())
    }

    /// One round of serving: cold requests, cached repeats, pipelined
    /// repeats, with the byte-identity and cache-hit checks.
    fn serve_round(
        &self,
        svc: &serve::Service,
        round: u64,
        [cold_until, hit_until, piped_until]: [serve::Until; 3],
        tracer: &Tracer,
    ) -> Result<([serve::PhaseRun; 3], serve::ColdSent), String> {
        let ops = self.ops;
        let span = tracer.begin("bench", "cold", 0, 0);
        let (cold, cold_sent) = serve::cold_phase(
            svc,
            self.spec,
            self.seed,
            round,
            cold_until,
            tracer,
            span.id(),
        )?;
        span.end();
        let before = ops.must("stats", serve::query_cache(svc))?;
        let span = tracer.begin("bench", "hit", 0, 0);
        let hit = serve::hit_phase(svc, &cold_sent, hit_until, tracer, span.id())?;
        span.end();
        let span = tracer.begin("bench", "pipelined", 0, 0);
        let piped = serve::pipelined_phase(svc, &cold_sent, piped_until, tracer, span.id())?;
        span.end();
        let after = ops.must("stats", serve::query_cache(svc))?;

        for (name, p) in [("cold", &cold), ("hit", &hit), ("pipelined", &piped)] {
            ops.requests(&format!("{name} requests"), p.ok, p.failed);
        }
        let repeats = hit.ok + piped.ok;
        ops.check(
            "cached and pipelined payloads equal their cold payload",
            hit.mismatched + piped.mismatched == 0,
            || {
                format!(
                    "{} hit and {} pipelined payloads differ",
                    hit.mismatched, piped.mismatched
                )
            },
        );
        ops.check(
            "query_cache.hits equals the repeats sent",
            after.0 - before.0 == repeats,
            || format!("{} hits for {repeats} repeats", after.0 - before.0),
        );
        Ok(([cold, hit, piped], cold_sent))
    }

    fn note_latencies(&self, phases: &[serve::PhaseRun; 3], notes: &mut Vec<String>) {
        for (name, p) in ["cold", "hit", "pipelined"].iter().zip(phases) {
            let mut line = format!(
                "{name}: {} requests ({} failed, {} busy), mean round trip {:.1} µs",
                p.ok + p.failed,
                p.failed,
                p.busy,
                p.mean_rtt() * 1e6
            );
            if !p.rtts.is_empty() {
                let l = stats::latency(&p.rtts);
                line += &format!("; p50 {:.1} µs, p90 {:.1} µs; ", l.p50 * 1e6, l.p90 * 1e6);
                line += &match l.tail {
                    Some((pct, v, beyond)) => format!("p{pct} {:.1} µs ({beyond} beyond)", v * 1e6),
                    None => "no percentile above p90 has 10 samples beyond it".into(),
                };
            }
            notes.push(line);
        }
    }
}

/// Runs `call` once, then again until [`MIN_PHASE`] has passed since the
/// first began.
fn repeat_phase(mut call: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let start = Instant::now();
    loop {
        call()?;
        if start.elapsed() >= MIN_PHASE {
            return Ok(());
        }
    }
}

/// The traced run's builds: at every thread, at one thread, and at every
/// thread again (the first build of a process also pays for growing the
/// heap, so the faster of the two is the speedup's base), then one with
/// the build's observability registry attached, whose urn is kept.
#[allow(clippy::too_many_arguments)]
fn traced_builds(
    spec: &Spec,
    graph: &motivo::graph::Graph,
    urn_dir: &Path,
    tracer: &Tracer,
    parent: u64,
    ops: &Ops,
    m: &mut Metrics,
) -> Result<(), String> {
    let scratch = urn_dir.with_extension("speedup");
    let time_build = |threads: usize| -> Result<Duration, String> {
        let span = tracer.begin("core.build", "build_urn", parent, 0);
        let urn = count::build(spec, graph, count::build_config(spec, threads), &scratch);
        let wall = span.end();
        ops.must("build", urn.map(drop))?;
        std::fs::remove_dir_all(&scratch).ok();
        Ok(wall)
    };
    let first = time_build(0)?;
    let one = time_build(1)?;
    let all = time_build(0)?.min(first);
    let registry = Arc::new(Registry::new());
    let cfg = count::build_config(spec, 0).with_obs(Obs::enabled(registry.clone()));
    let r = count::build_and_save(spec, graph, cfg, urn_dir, tracer, parent);
    let (built, saved, stats) = ops.must("build", r)?;

    for (h, d) in (2..).zip(&stats.per_level) {
        m.put(format!("build.level{h}_s"), d.as_secs_f64(), "s");
    }
    m.put("build.merge_ops", stats.merge_ops as f64, "count");
    m.put("build.records", stats.records as f64, "count");
    let encode = registry.histogram("build.encode").snapshot();
    m.put("build.encode_mean_us", encode.mean() as f64 / 1e3, "us");
    m.put(
        "parallel.build_speedup",
        one.as_secs_f64() / all.as_secs_f64(),
        "x",
    );
    m.put("persist.save_ms", saved.as_secs_f64() * 1e3, "ms");
    m.put("table.spill_runs", stats.spill_runs as f64, "count");
    m.put(
        "table.peak_memtable_mb",
        stats.peak_mem_bytes as f64 / 1e6,
        "MB",
    );
    m.put(
        "trace.build_overhead",
        built.as_secs_f64() / all.as_secs_f64() - 1.0,
        "ratio",
    );
    Ok(())
}

/// The traced run's estimator layers: speedups, the staged naive loop,
/// AGS counts, and the table probes.
fn traced_estimators(
    spec: &Spec,
    seed: u64,
    urn: &motivo::core::Urn<'_>,
    urn_dir: &Path,
    tracer: &Tracer,
    ops: &Ops,
    m: &mut Metrics,
) -> Result<(), String> {
    let phase = tracer.begin("bench", "naive", 0, 0);
    let cfg1 = count::naive_config(seed, 1);
    let span = tracer.begin("core.naive", "sample_tally", phase.id(), 0);
    let (all, _) = sample_tally(urn, spec.naive_samples, &count::naive_config(seed, 0));
    let all_wall = span.end();
    // The single-thread run brackets the staged loop, so a slow stretch
    // of the host shifts both sides of the comparison alike.
    let time_one = || {
        let span = tracer.begin("core.naive", "sample_tally", phase.id(), 0);
        let (tally, _) = sample_tally(urn, spec.naive_samples, &cfg1);
        (tally, span.end())
    };
    let (one, before) = time_one();
    ops.check(
        "tally at 1 thread equals tally at every thread",
        one == all,
        || format!("{} vs {} distinct codes", one.len(), all.len()),
    );
    let staged = count::staged_tally(urn, spec.naive_samples, &cfg1, tracer, phase.id());
    let (_, after) = time_one();
    let one_wall = (before + after) / 2;
    ops.succeeded(4);
    ops.check(
        "staged loop reproduces sample_tally",
        staged.tally == one,
        || format!("{} vs {} distinct codes", staged.tally.len(), one.len()),
    );
    let ratio = staged.total().as_secs_f64() / one_wall.as_secs_f64();
    if one_wall >= STAGE_SUM_MIN_WALL {
        ops.check(
            "staged stage times sum to the sample_tally wall time",
            (1.0 / STAGE_SUM_TOLERANCE..=STAGE_SUM_TOLERANCE).contains(&ratio),
            || format!("ratio {ratio:.3}, tolerance ×{STAGE_SUM_TOLERANCE}"),
        );
    }
    let n = staged.samples as f64;
    m.put(
        "parallel.naive_speedup",
        one_wall.as_secs_f64() / all_wall.as_secs_f64(),
        "x",
    );
    m.put("naive.stage_sum_ratio", ratio, "ratio");
    m.put("sample.draw_ns", staged.sample.as_nanos() as f64 / n, "ns");
    m.put(
        "sample.sweeps_per_sample",
        staged.sweeps as f64 / n,
        "count",
    );
    m.put(
        "graph.induced_rows_ns",
        staged.rows.as_nanos() as f64 / n,
        "ns",
    );
    m.put(
        "graphlet.from_rows_ns",
        staged.from_rows.as_nanos() as f64 / n,
        "ns",
    );
    m.put("tally.add_ns", staged.add.as_nanos() as f64 / n, "ns");
    m.put("tally.distinct_raw", staged.distinct_raw as f64, "count");
    m.put(
        "parallel.merge_us",
        staged.merge.as_nanos() as f64 / 1e3,
        "us",
    );
    let canon = count::canon_time(&staged.raw_patterns, tracer, phase.id());
    m.put("graphlet.canon_us", canon.as_nanos() as f64 / 1e3, "us");
    let estimate = count::estimate_time(urn, &staged.tally, staged.samples, tracer, phase.id());
    m.put("naive.estimate_us", estimate.as_nanos() as f64 / 1e3, "us");
    phase.end();

    let phase = tracer.begin("bench", "ags", 0, 0);
    let (all, totals) = count::ags_call(urn, seed, 0, 0, tracer, phase.id());
    let (one, one_totals) = count::ags_call(urn, seed, 0, 1, tracer, phase.id());
    ops.succeeded(2);
    ops.check(
        "AGS at 1 thread equals AGS at every thread",
        totals == one_totals,
        || format!("{totals:?} vs {one_totals:?}"),
    );
    phase.end();
    m.put(
        "parallel.ags_speedup",
        one.as_secs_f64() / all.as_secs_f64(),
        "x",
    );
    m.put("ags.samples", totals.samples as f64, "count");
    m.put("ags.switches", totals.switches as f64, "count");
    m.put("ags.covered", totals.covered as f64, "count");
    m.put("ags.classes", totals.classes as f64, "count");
    m.put(
        "ags.useful_ratio",
        totals.useful as f64 / totals.samples as f64,
        "ratio",
    );
    m.put(
        "ags.samples_per_s",
        totals.samples as f64 / all.as_secs_f64(),
        "1/s",
    );

    let phase = tracer.begin("bench", "table", 0, 0);
    let probe = count::table_probe(urn, urn_dir, seed, tracer, phase.id())?;
    phase.end();
    m.put("table.get_ns", probe.get_ns, "ns");
    m.put(
        "table.read_amplification",
        probe.read_amplification,
        "ratio",
    );
    m.put(
        "table.decode_entries_per_s",
        probe.decode_entries_per_s,
        "1/s",
    );
    m.put("table.alias_draws_per_s", probe.alias_draws_per_s, "1/s");
    Ok(())
}

/// The reopened urn (block-backed for a budgeted workload) samples the
/// same tally as an in-memory build of the same coloring.
fn check_reopened_matches_memory(
    spec: &Spec,
    seed: u64,
    urn: &motivo::core::Urn<'_>,
    ops: &Ops,
) -> Result<(), String> {
    let memory_spec = Spec {
        build_mem_bytes: None,
        ..spec.clone()
    };
    let built = count::build(
        &memory_spec,
        urn.graph(),
        count::build_config(spec, 0),
        Path::new(""),
    );
    let memory = ops.must("in-memory build", built)?;
    let cfg = motivo::core::SampleConfig::seeded(split_seed(seed, stream::CHECK));
    let (want, _) = sample_tally(&memory, count::CHECK_SAMPLES, &cfg);
    let (got, _) = sample_tally(urn, count::CHECK_SAMPLES, &cfg);
    ops.check(
        "reopened urn samples the in-memory tally",
        want == got,
        || format!("{} vs {} distinct codes", got.len(), want.len()),
    );
    Ok(())
}

/// Per-layer probes of the store, the query cache and the wire protocol,
/// on the service's own urn and payloads.
fn serve_probes(
    svc: &serve::Service,
    cold_sent: &serve::ColdSent,
    tracer: &Tracer,
    ops: &Ops,
    m: &mut Metrics,
) -> Result<(), String> {
    use motivo::server::{QueryCache, Request, Response};
    let phase = tracer.begin("bench", "probes", 0, 0);
    let cache = svc.store.cache_stats();
    m.put("store.urn_cache_hits", cache.hits as f64, "count");
    m.put("store.urn_cache_misses", cache.misses as f64, "count");
    const GETS: u32 = 1000;
    let span = tracer.begin("store", "UrnStore::get", phase.id(), 0);
    for _ in 0..GETS {
        std::hint::black_box(
            svc.store
                .get(svc.urn)
                .map_err(|e| format!("store get: {e}"))?,
        );
    }
    m.put(
        "store.urn_get_us",
        span.end().as_nanos() as f64 / 1e3 / GETS as f64,
        "us",
    );

    let (body, payload) = cold_sent.first().ok_or("no cold request completed")?;
    const PARSES: u32 = 2000;
    let span = tracer.begin("server.proto", "Request::parse", phase.id(), 0);
    for _ in 0..PARSES {
        let v = serde_json::from_str(body).map_err(|e| format!("request json: {e}"))?;
        std::hint::black_box(Request::parse(&v)?);
    }
    m.put(
        "proto.request_parse_us",
        span.end().as_nanos() as f64 / 1e3 / PARSES as f64,
        "us",
    );
    let envelope = format!("{{\"id\":0,\"ok\":{payload}}}");
    let span = tracer.begin("server.proto", "Response::parse", phase.id(), 0);
    for _ in 0..PARSES {
        let v = serde_json::from_str(&envelope).map_err(|e| format!("response json: {e}"))?;
        let ok = v.get("ok").ok_or("envelope without ok")?;
        std::hint::black_box(Response::parse("NaiveEstimates", &ok)?);
    }
    m.put(
        "proto.response_parse_us",
        span.end().as_nanos() as f64 / 1e3 / PARSES as f64,
        "us",
    );

    // The same request computed in-process must serialize to the served
    // bytes; its serialization is the encode the server pays per miss.
    let request = serde_json::from_str(body).map_err(|e| format!("request json: {e}"))?;
    let Request::NaiveEstimates {
        seed: req_seed,
        samples,
        ..
    } = Request::parse(&request)?
    else {
        return Err("probe request is not NaiveEstimates".into());
    };
    let urn = svc
        .store
        .get(svc.urn)
        .map_err(|e| format!("store get: {e}"))?;
    let mut registry = motivo::graphlet::GraphletRegistry::new(workload::K as u8);
    let est = motivo::core::naive_estimates(
        urn.urn(),
        &mut registry,
        samples,
        &motivo::core::SampleConfig::seeded(req_seed),
    );
    let text = serde_json::to_string(&motivo::server::proto::estimates_json(&est, &registry))
        .map_err(|e| e.to_string())?;
    ops.check(
        "served payload equals the in-process payload",
        &text == payload,
        || format!("{} vs {} bytes", text.len(), payload.len()),
    );
    const ENCODES: u32 = 500;
    let span = tracer.begin("server.proto", "estimates_json", phase.id(), 0);
    for _ in 0..ENCODES {
        let v = motivo::server::proto::estimates_json(&est, &registry);
        std::hint::black_box(serde_json::to_string(&v).map_err(|e| e.to_string())?);
    }
    m.put(
        "proto.estimates_encode_us",
        span.end().as_nanos() as f64 / 1e3 / ENCODES as f64,
        "us",
    );

    let qc = QueryCache::new(1 << 20);
    qc.serve("probe", || Ok(payload.clone()))
        .0
        .map_err(|(_, e)| format!("query cache: {e}"))?;
    const SERVES: u32 = 100_000;
    let span = tracer.begin("server.cache", "QueryCache::serve", phase.id(), 0);
    for _ in 0..SERVES {
        let _ = std::hint::black_box(qc.serve("probe", || {
            Err((motivo::server::ErrorKind::Store, String::new()))
        }));
    }
    m.put(
        "cache.serve_hit_ns",
        span.end().as_nanos() as f64 / SERVES as f64,
        "ns",
    );
    phase.end();
    Ok(())
}
