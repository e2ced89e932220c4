//! Regenerates every table and figure of Motivo's §5 on the synthetic
//! suite (see DESIGN.md for the experiment index, EXPERIMENTS.md for
//! paper-vs-measured).
//!
//! ```sh
//! cargo run --release -p motivo-bench --bin experiments -- all
//! cargo run --release -p motivo-bench --bin experiments -- t2 f8 --quick
//! cargo run --release -p motivo-bench --bin experiments -- f7 --scale 2
//! ```

use cc_baseline::{cc_build, CcSampler};
use motivo_bench::checkmerge::{cc_checkmerge, succinct_checkmerge};
use motivo_bench::ground::ground_truth;
use motivo_bench::runs::{ags_run, errors_vs_truth, l1, naive_run};
use motivo_bench::{accuracy_suite, print_table, secs, Ctx};
use motivo_core::stats::{histogram, text_histogram};
use motivo_core::{build_urn, BuildConfig, SampleConfig, Sampler};
use motivo_graph::generators::{self, SuiteGraph};
use motivo_graph::Coloring;
use serde_json::json;
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ctx = Ctx::default();
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                ctx.scale = it.next().and_then(|s| s.parse().ok()).expect("--scale N");
            }
            "--quick" => ctx.quick = true,
            "--threads" => {
                ctx.threads = it.next().and_then(|s| s.parse().ok()).expect("--threads N");
            }
            "--out" => {
                ctx.out_dir = it.next().expect("--out DIR").into();
            }
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() {
        eprintln!(
            "usage: experiments <ids...|all> [--scale N] [--quick] [--threads N] [--out DIR]\n\
             ids: t1 t2 t3 t4 f2 f3 f4 f5 f6 f7 f8 f9 f10 l1 s1 ci"
        );
        std::process::exit(2);
    }
    let all = [
        "t1", "t2", "t3", "t4", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f10", "l1", "s1",
        "ci",
    ];
    let run: Vec<&str> = if ids.iter().any(|i| i == "all") {
        all.to_vec()
    } else {
        ids.iter().map(|s| s.as_str()).collect()
    };
    let started = Instant::now();
    for id in run {
        match id {
            "t1" => t1(&ctx),
            "t2" | "t3" | "f3" => t2_t3_f3(&ctx, id),
            "t4" => t4(&ctx),
            "f2" => f2(&ctx),
            "f4" => f4(&ctx),
            "f5" => f5(&ctx),
            "f6" => f6(&ctx),
            "f7" => f7(&ctx),
            "f8" | "f9" | "f10" | "l1" => accuracy_experiments(&ctx, id),
            "s1" => s1(&ctx),
            "ci" => ci(&ctx),
            other => eprintln!("unknown experiment id: {other}"),
        }
    }
    println!(
        "\nall requested experiments done in {:?}",
        started.elapsed()
    );
}

/// Table 1: the dataset suite standing in for the paper's graphs.
fn t1(ctx: &Ctx) {
    let suite = generators::suite(ctx.scale);
    let rows: Vec<Vec<String>> = suite
        .iter()
        .map(|s| {
            vec![
                s.name.to_string(),
                s.graph.num_nodes().to_string(),
                s.graph.num_edges().to_string(),
                s.graph.max_degree().to_string(),
                s.max_k.to_string(),
            ]
        })
        .collect();
    print_table(
        "T1: dataset suite (paper Table 1 substitute)",
        &["graph", "nodes", "edges", "maxdeg", "max k"],
        &rows,
    );
    ctx.save_json(
        "t1_datasets",
        &suite
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "nodes": s.graph.num_nodes(),
                    "edges": s.graph.num_edges(),
                    "max_degree": s.graph.max_degree(),
                    "max_k": s.max_k,
                })
            })
            .collect::<Vec<_>>(),
    );
}

fn cc_comparison_graphs(ctx: &Ctx) -> Vec<SuiteGraph> {
    // CC (single-threaded, pointer-based) caps the sizes we can afford.
    let mut suite = generators::suite(ctx.scale);
    suite.retain(|s| s.graph.num_edges() <= 40_000 * ctx.scale as usize);
    suite
}

fn cc_ks(ctx: &Ctx) -> Vec<u32> {
    if ctx.quick {
        vec![4]
    } else {
        vec![4, 5]
    }
}

/// §5.1 build-up speedup (t2), count-table size ratio (t3), and the Fig. 3
/// build time/memory comparison (f3) — one set of runs feeds all three.
fn t2_t3_f3(ctx: &Ctx, which: &str) {
    let suite = cc_comparison_graphs(ctx);
    let mut rows = Vec::new();
    let mut artifacts = Vec::new();
    for s in &suite {
        for &k in &cc_ks(ctx) {
            let coloring_seed = 7;
            let coloring = Coloring::uniform(&s.graph, k, coloring_seed);
            let cc_t0 = Instant::now();
            let cc = cc_build(&s.graph, &coloring, k);
            let cc_time = cc_t0.elapsed();
            let cfg = BuildConfig {
                threads: 1,
                ..BuildConfig::new(k)
            }
            .seed(coloring_seed);
            let urn = match build_urn(&s.graph, &cfg) {
                Ok(u) => u,
                Err(e) => {
                    println!("  {} k={k}: motivo build failed: {e}", s.name);
                    continue;
                }
            };
            let mt = urn.build_stats();
            // The same table sealed under the succinct codec: identical
            // counts, fewer bytes — the memory trajectory the JSON
            // artifacts track. Recoded from the built records, not rebuilt.
            let succinct_bytes = succinct_table_bytes(&urn);
            let speedup = cc_time.as_secs_f64() / mt.total.as_secs_f64();
            let size_ratio = cc.stats.table_bytes as f64 / mt.table_bytes as f64;
            let succinct_saving = 1.0 - succinct_bytes as f64 / mt.table_bytes as f64;
            rows.push(vec![
                s.name.to_string(),
                k.to_string(),
                secs(cc_time),
                secs(mt.total),
                format!("{speedup:.1}x"),
                format!("{:.1}", cc.stats.table_bytes as f64 / (1 << 20) as f64),
                format!("{:.1}", mt.table_bytes as f64 / (1 << 20) as f64),
                format!("{size_ratio:.1}x"),
                format!("{:.2}", succinct_bytes as f64 / (1 << 20) as f64),
                format!("{:.0}%", 100.0 * succinct_saving),
            ]);
            artifacts.push(json!({
                "graph": s.name, "k": k,
                "cc_seconds": cc_time.as_secs_f64(),
                "motivo_seconds": mt.total.as_secs_f64(),
                "speedup": speedup,
                "cc_bytes": cc.stats.table_bytes,
                "motivo_bytes": mt.table_bytes,
                "motivo_bytes_succinct": succinct_bytes,
                "succinct_saving": succinct_saving,
                "size_ratio": size_ratio,
            }));
        }
    }
    let title = match which {
        "t2" => "T2: build-up speedup, motivo vs CC (paper §5.1, 1 thread each)",
        "t3" => "T3: count-table size ratio, CC/motivo (paper §5.1)",
        _ => "F3: build time & memory, original (CC) vs succinct (motivo)",
    };
    print_table(
        title,
        &[
            "graph",
            "k",
            "CC s",
            "motivo s",
            "speedup",
            "CC MiB",
            "motivo MiB",
            "size ratio",
            "succ MiB",
            "succ saved",
        ],
        &rows,
    );
    ctx.save_json(&format!("{which}_build_comparison"), &artifacts);
}

/// §5.1 sampling-speed ratio: motivo samples/s vs CC samples/s.
fn t4(ctx: &Ctx) {
    let suite = cc_comparison_graphs(ctx);
    let mut rows = Vec::new();
    let mut artifacts = Vec::new();
    for s in &suite {
        for &k in &cc_ks(ctx) {
            let seed = 7;
            let coloring = Coloring::uniform(&s.graph, k, seed);
            let cc = cc_build(&s.graph, &coloring, k);
            if cc.total_rooted() == 0 {
                continue;
            }
            let cfg = BuildConfig {
                threads: 1,
                ..BuildConfig::new(k)
            }
            .seed(seed);
            let urn = match build_urn(&s.graph, &cfg) {
                Ok(u) => u,
                Err(_) => continue,
            };
            let rate_motivo = {
                let mut smp = Sampler::new(&urn, SampleConfig::seeded(3));
                timed_rate(|| {
                    smp.sample_copy();
                })
            };
            let rate_cc = {
                let mut smp = CcSampler::new(&cc, &s.graph, 3);
                timed_rate(|| {
                    smp.sample_copy();
                })
            };
            rows.push(vec![
                s.name.to_string(),
                k.to_string(),
                format!("{rate_cc:.0}"),
                format!("{rate_motivo:.0}"),
                format!("{:.1}x", rate_motivo / rate_cc),
            ]);
            artifacts.push(json!({
                "graph": s.name, "k": k,
                "cc_samples_per_s": rate_cc,
                "motivo_samples_per_s": rate_motivo,
                "ratio": rate_motivo / rate_cc,
            }));
        }
    }
    print_table(
        "T4: sampling speed, motivo vs CC (paper §5.1; samples/s, 1 thread)",
        &["graph", "k", "CC /s", "motivo /s", "ratio"],
        &rows,
    );
    ctx.save_json("t4_sampling_speed", &artifacts);
}

/// Encoded bytes the urn's count table would occupy under the succinct
/// codec, computed by recoding the already-built records — the codec never
/// changes counts, so a second build would only burn wall-clock.
fn succinct_table_bytes(urn: &motivo_core::Urn<'_>) -> u64 {
    let table = urn.table();
    let mut bytes = 0u64;
    for h in 1..=table.k() {
        for item in table.level(h).scan() {
            let (_, rec) = item.expect("in-memory table");
            bytes += rec.recode(motivo_core::RecordCodec::Succinct).byte_size() as u64;
        }
    }
    bytes
}

/// Process-wide resident-set high-water mark (`VmHWM`) in bytes, or 0
/// where `/proc` is unavailable. Monotone over the process lifetime, so
/// it only bounds a phase's peak if that phase runs before anything
/// memory-hungry.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Runs `f` repeatedly for ~1.5 s and returns calls per second.
fn timed_rate(mut f: impl FnMut()) -> f64 {
    let budget = Duration::from_millis(1500);
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < budget {
        for _ in 0..100 {
            f();
        }
        calls += 100;
    }
    calls as f64 / start.elapsed().as_secs_f64()
}

/// Fig. 2: time spent in check-and-merge, original vs succinct.
fn f2(ctx: &Ctx) {
    let suite = cc_comparison_graphs(ctx);
    let mut rows = Vec::new();
    let mut artifacts = Vec::new();
    for s in &suite {
        for &k in &cc_ks(ctx) {
            let coloring = Coloring::uniform(&s.graph, k, 5);
            let succ = succinct_checkmerge(&s.graph, &coloring, k);
            let cc = cc_checkmerge(&s.graph, &coloring, k);
            assert_eq!(succ.checksum, cc.checksum, "sides must do identical work");
            rows.push(vec![
                s.name.to_string(),
                k.to_string(),
                format!("{}", succ.ops),
                format!("{:.1}", cc.elapsed.as_secs_f64() * 1e3),
                format!("{:.1}", succ.elapsed.as_secs_f64() * 1e3),
                format!(
                    "{:.1}x",
                    cc.elapsed.as_secs_f64() / succ.elapsed.as_secs_f64()
                ),
            ]);
            artifacts.push(json!({
                "graph": s.name, "k": k, "ops": succ.ops,
                "original_ms": cc.elapsed.as_secs_f64() * 1e3,
                "succinct_ms": succ.elapsed.as_secs_f64() * 1e3,
            }));
        }
    }
    print_table(
        "F2: check-and-merge time, original (pointer) vs succinct",
        &["graph", "k", "ops", "original ms", "succinct ms", "speedup"],
        &rows,
    );
    ctx.save_json("f2_checkmerge", &artifacts);
}

/// Fig. 4: impact of 0-rooting on the build.
fn f4(ctx: &Ctx) {
    let suite = generators::suite(ctx.scale);
    let ks = if ctx.quick { vec![5] } else { vec![5, 6] };
    let mut rows = Vec::new();
    let mut artifacts = Vec::new();
    for s in &suite {
        for &k in &ks {
            if k > s.max_k {
                continue;
            }
            let time_for = |zero_rooting: bool| {
                let cfg = BuildConfig {
                    threads: ctx.threads,
                    zero_rooting,
                    ..BuildConfig::new(k)
                }
                .seed(9);
                build_urn(&s.graph, &cfg)
                    .map(|u| (u.build_stats().total, u.build_stats().table_bytes))
                    .ok()
            };
            let (Some((off, off_bytes)), Some((on, on_bytes))) = (time_for(false), time_for(true))
            else {
                continue;
            };
            rows.push(vec![
                s.name.to_string(),
                k.to_string(),
                secs(off),
                secs(on),
                format!(
                    "{:.0}%",
                    100.0 * (1.0 - on.as_secs_f64() / off.as_secs_f64())
                ),
                format!("{:.0}%", 100.0 * (1.0 - on_bytes as f64 / off_bytes as f64)),
            ]);
            artifacts.push(json!({
                "graph": s.name, "k": k,
                "original_s": off.as_secs_f64(), "zero_rooting_s": on.as_secs_f64(),
                "original_bytes": off_bytes, "zero_rooting_bytes": on_bytes,
            }));
        }
    }
    print_table(
        "F4: impact of 0-rooting on the build-up phase",
        &[
            "graph",
            "k",
            "original s",
            "0-rooted s",
            "time saved",
            "space saved",
        ],
        &rows,
    );
    ctx.save_json("f4_zero_rooting", &artifacts);
}

/// Fig. 5: impact of neighbor buffering on hub-heavy graphs.
fn f5(ctx: &Ctx) {
    let s = ctx.scale;
    let graphs = vec![
        ("hub-web", generators::star_heavy(3_000 * s, 3, 0.5, 3)),
        (
            "berkstan-like",
            generators::star_heavy(4_000 * s, 2, 0.9, 8),
        ),
        (
            "yelp-stars",
            generators::yelp_like(40 * s, 150, 60 * s as usize, 4),
        ),
    ];
    let k = 5;
    let mut rows = Vec::new();
    let mut artifacts = Vec::new();
    for (name, g) in &graphs {
        let cfg = BuildConfig {
            threads: ctx.threads,
            ..BuildConfig::new(k)
        }
        .seed(2);
        let urn = match build_urn(g, &cfg) {
            Ok(u) => u,
            Err(e) => {
                println!("  {name}: {e}");
                continue;
            }
        };
        let rate = |buffering: bool| {
            let sc = SampleConfig {
                seed: 4,
                buffering,
                buffer_threshold: 512,
                buffer_batch: 100,
                ..SampleConfig::default()
            };
            let mut smp = Sampler::new(&urn, sc);
            timed_rate(|| {
                smp.sample_copy();
            })
        };
        let (plain, buffered) = (rate(false), rate(true));
        rows.push(vec![
            name.to_string(),
            k.to_string(),
            format!("{plain:.0}"),
            format!("{buffered:.0}"),
            format!("{:.1}x", buffered / plain),
        ]);
        artifacts.push(json!({
            "graph": name, "k": k,
            "original_samples_per_s": plain,
            "buffered_samples_per_s": buffered,
        }));
    }
    print_table(
        "F5: impact of neighbor buffering (samples/s)",
        &["graph", "k", "original /s", "buffered /s", "speedup"],
        &rows,
    );
    ctx.save_json("f5_neighbor_buffering", &artifacts);
}

/// Fig. 6 (+ §3.4 impact): biased coloring — error distribution widening
/// and build shrink factors.
fn f6(ctx: &Ctx) {
    let g = generators::barabasi_albert(800 * ctx.scale, 3, 6);
    let ks = if ctx.quick { vec![5] } else { vec![5, 6] };
    let mut artifacts = Vec::new();
    for &k in &ks {
        let gt = ground_truth(&g, k, 100);
        let truth = &gt.counts;
        let lambda = 0.5 / k as f64;
        let mut series = Vec::new();
        for biased in [false, true] {
            // Per-graphlet errors averaged over a handful of colorings.
            let mut errs_all: Vec<f64> = Vec::new();
            let mut build_time = Duration::ZERO;
            let mut bytes = 0usize;
            let colorings = 5;
            for seed in 0..colorings {
                let mut cfg = BuildConfig {
                    threads: ctx.threads,
                    ..BuildConfig::new(k)
                }
                .seed(seed);
                if biased {
                    cfg = cfg.biased(lambda);
                }
                let urn = match build_urn(&g, &cfg) {
                    Ok(u) => u,
                    Err(_) => continue,
                };
                build_time += urn.build_stats().total;
                bytes = urn.build_stats().table_bytes;
                let run = naive_run(&urn, 100_000, ctx.threads, seed + 40);
                errs_all.extend(errors_vs_truth(&run.counts, truth).iter().map(|&(_, e)| e));
            }
            let h = histogram(errs_all.iter().copied(), -1.0, 1.0, 16);
            let label = if biased {
                format!("biased λ={lambda:.3}")
            } else {
                "uniform".into()
            };
            println!(
                "\nF6: k={k} {label} count-error distribution (truth: {} classes{})",
                truth.len(),
                if gt.exact { ", exact" } else { ", averaged" }
            );
            print!("{}", text_histogram(&h, -1.0, 1.0, 40));
            println!(
                "   build {:.2}s  table {:.1} MiB",
                build_time.as_secs_f64() / colorings as f64,
                bytes as f64 / (1 << 20) as f64
            );
            series.push(json!({
                "k": k, "biased": biased, "lambda": if biased { lambda } else { 1.0 / k as f64 },
                "histogram": h, "lo": -1.0, "hi": 1.0,
                "avg_build_s": build_time.as_secs_f64() / colorings as f64,
                "table_bytes": bytes,
            }));
        }
        artifacts.push(json!({ "k": k, "series": series }));
    }
    ctx.save_json("f6_biased_coloring", &artifacts);
}

/// Fig. 7: build time per million edges and table bits per node, vs k.
fn f7(ctx: &Ctx) {
    let suite = generators::suite(ctx.scale);
    let max_k = if ctx.quick { 5 } else { 6 };
    let mut rows = Vec::new();
    let mut artifacts = Vec::new();
    for s in &suite {
        for k in 4..=max_k.min(s.max_k) {
            let cfg = BuildConfig {
                threads: ctx.threads,
                ..BuildConfig::new(k)
            }
            .seed(3);
            let urn = match build_urn(&s.graph, &cfg) {
                Ok(u) => u,
                Err(_) => continue,
            };
            let st = urn.build_stats();
            let s_per_medge = st.total.as_secs_f64() / (s.graph.num_edges() as f64 / 1e6);
            let bits_per_node = st.table_bytes as f64 * 8.0 / s.graph.num_nodes() as f64;
            let succ_bits_per_node =
                succinct_table_bytes(&urn) as f64 * 8.0 / s.graph.num_nodes() as f64;
            rows.push(vec![
                s.name.to_string(),
                k.to_string(),
                format!("{s_per_medge:.2}"),
                format!("{bits_per_node:.0}"),
                format!("{succ_bits_per_node:.0}"),
            ]);
            artifacts.push(json!({
                "graph": s.name, "k": k,
                "seconds_per_million_edges": s_per_medge,
                "bits_per_node": bits_per_node,
                "bits_per_node_succinct": succ_bits_per_node,
            }));
        }
    }
    print_table(
        "F7: build-up cost scaling (seconds per M edges, table bits per node)",
        &["graph", "k", "s/Medge", "bits/node", "succ bits/node"],
        &rows,
    );
    ctx.save_json("f7_scaling", &artifacts);
}

/// Figs. 8–10 and the §5.2 ℓ1 table: accuracy of naive vs AGS against
/// ground truth, one shared set of runs.
fn accuracy_experiments(ctx: &Ctx, which: &str) {
    let suite = accuracy_suite(ctx.scale);
    let mut f9_rows = Vec::new();
    let mut f10_rows = Vec::new();
    let mut l1_rows = Vec::new();
    let mut artifacts = Vec::new();
    for s in &suite {
        for &k in &s.ks {
            if ctx.quick && k > 4 {
                continue;
            }
            let gt = ground_truth(&s.graph, k, 300);
            let truth = &gt.counts;
            let truth_freq = gt.frequencies();
            let budget = if k <= 4 { 120_000 } else { 250_000 };
            // The paper's protocol: average each estimator over several
            // colorings (it reports the average of 10 runs).
            let colorings = if ctx.quick { 4 } else { 8 };
            let naive = motivo_bench::runs::averaged_run(
                &s.graph,
                k,
                colorings,
                11,
                ctx.threads,
                |urn, seed| naive_run(urn, budget, ctx.threads, seed),
            );
            let agsr = motivo_bench::runs::averaged_run(
                &s.graph,
                k,
                colorings,
                11,
                ctx.threads,
                |urn, seed| ags_run(urn, budget, 1000, seed),
            );

            let errs_naive = errors_vs_truth(&naive.counts, truth);
            let errs_ags = errors_vs_truth(&agsr.counts, truth);
            if which == "f8" {
                for (label, errs) in [("naive", &errs_naive), ("AGS", &errs_ags)] {
                    let h = histogram(errs.iter().map(|&(_, e)| e), -1.0, 1.5, 20);
                    println!(
                        "\nF8: {} k={k} {label} count-error distribution ({} truth classes{})",
                        s.name,
                        truth.len(),
                        if gt.exact { ", exact" } else { ", averaged" }
                    );
                    print!("{}", text_histogram(&h, -1.0, 1.5, 40));
                    artifacts.push(json!({
                        "graph": s.name, "k": k, "estimator": label,
                        "histogram": h, "lo": -1.0, "hi": 1.5,
                    }));
                }
            }
            let within =
                |errs: &[(u128, f64)]| errs.iter().filter(|&&(_, e)| e.abs() <= 0.5).count();
            let (wn, wa) = (within(&errs_naive), within(&errs_ags));
            f9_rows.push(vec![
                s.name.to_string(),
                k.to_string(),
                truth.len().to_string(),
                wn.to_string(),
                wa.to_string(),
                format!("{:.2}", wn as f64 / truth.len() as f64),
                format!("{:.2}", wa as f64 / truth.len() as f64),
            ]);
            let (rn, ra) = (naive.rarest_frequency(10), agsr.rarest_frequency(10));
            f10_rows.push(vec![
                s.name.to_string(),
                k.to_string(),
                format!("{rn:.2e}"),
                format!("{ra:.2e}"),
            ]);
            let (l1n, l1a) = (
                l1(&naive.frequencies(), &truth_freq),
                l1(&agsr.frequencies(), &truth_freq),
            );
            l1_rows.push(vec![
                s.name.to_string(),
                k.to_string(),
                format!("{l1n:.4}"),
                format!("{l1a:.4}"),
            ]);
            if which != "f8" {
                artifacts.push(json!({
                    "graph": s.name, "k": k,
                    "classes": truth.len(),
                    "within50_naive": wn, "within50_ags": wa,
                    "rarest_naive": rn, "rarest_ags": ra,
                    "l1_naive": l1n, "l1_ags": l1a,
                }));
            }
        }
    }
    match which {
        "f9" => print_table(
            "F9: classes within ±50% of truth (absolute and fraction)",
            &[
                "graph",
                "k",
                "classes",
                "naive",
                "AGS",
                "naive frac",
                "AGS frac",
            ],
            &f9_rows,
        ),
        "f10" => print_table(
            "F10: frequency of the rarest class with ≥10 samples",
            &["graph", "k", "naive", "AGS"],
            &f10_rows,
        ),
        "l1" => print_table(
            "L1: ℓ1 error of the estimated graphlet distribution (§5.2)",
            &["graph", "k", "naive ℓ1", "AGS ℓ1"],
            &l1_rows,
        ),
        _ => {}
    }
    ctx.save_json(&format!("{which}_accuracy"), &artifacts);
}

/// S1: scaling of the parallel naive sampling engine — wall-clock and
/// speedup at 1/2/4/8 workers on the benchmark graph. Thanks to the
/// seed-split shard scheme the per-thread tallies are bit-identical, so
/// the rows measure pure scheduling, not different sample streams.
fn s1(ctx: &Ctx) {
    let g = generators::barabasi_albert(20_000 * ctx.scale, 4, 11);
    let k = 5;
    let samples = if ctx.quick { 50_000 } else { 200_000 } * ctx.scale as u64;
    let cfg = BuildConfig {
        threads: ctx.threads,
        ..BuildConfig::new(k)
    }
    .seed(3);
    let urn = build_urn(&g, &cfg).expect("build");
    let mut rows = Vec::new();
    let mut artifacts = Vec::new();
    let mut base_secs = 0.0;
    let mut baseline_tally = None;
    for threads in [1usize, 2, 4, 8] {
        let t0 = Instant::now();
        let (tally, _) =
            motivo_core::sample_tally(&urn, samples, &SampleConfig::seeded(1).threads(threads));
        let secs = t0.elapsed().as_secs_f64();
        match &baseline_tally {
            None => {
                base_secs = secs;
                baseline_tally = Some(tally);
            }
            Some(base) => assert_eq!(base, &tally, "seed-split determinism violated"),
        }
        rows.push(vec![
            threads.to_string(),
            format!("{secs:.3}"),
            format!("{:.0}", samples as f64 / secs),
            format!("{:.2}x", base_secs / secs),
        ]);
        artifacts.push(json!({
            "threads": threads, "samples": samples, "secs": secs,
            "speedup": base_secs / secs,
        }));
    }
    print_table(
        "S1: parallel naive sampling scaling (bit-identical tallies per row)",
        &["threads", "secs", "samples/s", "speedup"],
        &rows,
    );
    ctx.save_json("s1_scaling", &artifacts);
}

/// CI: the per-commit perf smoke run — a tiny graph, bounded to seconds,
/// asserting seed-split determinism (1/2/4 threads must tally
/// bit-identically) and recording the build-time, memory
/// (`bits_per_node_succinct` from the codec work), and serving-throughput
/// trajectory (`serve_qps`/`cache_hit_qps` over a loopback daemon) as
/// `BENCH_ci.json`. CI diffs that artifact against the committed
/// `BENCH_baseline.json` (`bench_gate`): deterministic fields — including
/// `tally_checksum` — must match exactly, timing fields within a generous
/// tolerance.
fn ci(ctx: &Ctx) {
    let g = generators::barabasi_albert(2_000 * ctx.scale, 3, 7);
    let k = 4;
    let samples = 50_000u64 * ctx.scale as u64;

    // Out-of-core gate. A deliberately tiny memtable budget forces the
    // build through the spill+merge path (≥ 2 runs asserted), and the
    // result must be record-identical to the unbudgeted in-memory build
    // below. This phase runs first so the process RSS high-water mark
    // (`VmHWM`) still reflects the budgeted build rather than the
    // in-memory table built afterwards.
    let oom_dir = std::env::temp_dir().join("motivo-bench-ci-oom");
    std::fs::remove_dir_all(&oom_dir).ok();
    std::fs::create_dir_all(&oom_dir).expect("oom scratch dir");
    let budgeted = build_urn(
        &g,
        &BuildConfig {
            threads: 1,
            ..BuildConfig::new(k)
        }
        .seed(3)
        .build_mem_bytes(&oom_dir, 32 * 1024),
    )
    .expect("budgeted ci build");
    let build_spill_runs = budgeted.build_stats().spill_runs;
    assert!(
        build_spill_runs >= 2,
        "budget too generous: only {build_spill_runs} spill runs"
    );
    let peak_rss_bytes_per_edge = peak_rss_bytes() as f64 / g.num_edges() as f64;

    let t0 = Instant::now();
    let urn = build_urn(
        &g,
        &BuildConfig {
            threads: ctx.threads,
            ..BuildConfig::new(k)
        }
        .seed(3),
    )
    .expect("ci build");
    let build_secs = t0.elapsed().as_secs_f64();
    let st = urn.build_stats();

    // The budgeted build must agree with the in-memory one entry for
    // entry — the spill/merge machinery may never change what is counted.
    for h in 1..=k {
        let (mem, blk) = (urn.table().level(h), budgeted.table().level(h));
        assert_eq!(
            mem.record_count(),
            blk.record_count(),
            "budgeted build record count diverged at level {h}"
        );
        for item in blk.scan() {
            let (v, rec) = item.expect("budgeted level scan");
            let reference = urn.table().get(h, v).expect("in-memory get");
            assert!(
                reference.iter().eq(rec.iter()),
                "budgeted build diverged at level {h} vertex {v}"
            );
        }
    }
    drop(budgeted);
    std::fs::remove_dir_all(&oom_dir).ok();

    // Determinism gate: the seed-split shard scheme must make the tally a
    // pure function of (samples, seed), independent of thread count.
    let mut baseline = None;
    let mut sample_secs = 0.0;
    for threads in [1usize, 2, 4] {
        let t0 = Instant::now();
        let (tally, _) =
            motivo_core::sample_tally(&urn, samples, &SampleConfig::seeded(1).threads(threads));
        match &baseline {
            None => {
                sample_secs = t0.elapsed().as_secs_f64();
                baseline = Some(tally);
            }
            Some(base) => assert_eq!(
                base, &tally,
                "seed-split determinism violated at {threads} threads"
            ),
        }
    }
    // A content fingerprint of the deterministic tally: CRC32 over the
    // (code, count) pairs ascending by code. Any sampling change that
    // alters a single count changes this checksum, and the perf gate
    // compares it exactly against the committed baseline.
    let tally_checksum = {
        let tally = baseline.as_ref().expect("tally recorded");
        let mut rows: Vec<(u128, u64)> = tally.iter().map(|(&c, &n)| (c, n)).collect();
        rows.sort_unstable_by_key(|&(c, _)| c);
        let mut crc = motivo_core::checksum::Crc32::new();
        for (code, count) in rows {
            crc.update(&code.to_le_bytes());
            crc.update(&count.to_le_bytes());
        }
        format!("{:08x}", crc.finish())
    };

    // Isolated kernel rates (shared with the `kernels` criterion bench)
    // so a block-decode or alias-walk regression cannot hide inside the
    // mixed `samples_per_sec` number.
    let decode_entries_per_sec = motivo_bench::kernels::decode_entries_per_sec();
    let alias_draws_per_sec = motivo_bench::kernels::alias_draws_per_sec();
    let serving = ci_serving_rates(&g, ctx);
    let repl = ci_replication(&g, ctx);
    let idle = ci_idle_concurrency(&g, ctx);

    let bits_per_node = st.table_bytes as f64 * 8.0 / g.num_nodes() as f64;
    let succinct_bytes = succinct_table_bytes(&urn);
    let bits_per_node_succinct = succinct_bytes as f64 * 8.0 / g.num_nodes() as f64;
    print_table(
        "CI: perf smoke (deterministic tallies asserted at 1/2/4 threads)",
        &["metric", "value"],
        &[
            vec!["build secs".into(), format!("{build_secs:.3}")],
            vec!["sample secs (1 thread)".into(), format!("{sample_secs:.3}")],
            vec![
                "samples/s".into(),
                format!("{:.0}", samples as f64 / sample_secs),
            ],
            vec!["bits/node plain".into(), format!("{bits_per_node:.0}")],
            vec![
                "bits/node succinct".into(),
                format!("{bits_per_node_succinct:.0}"),
            ],
            vec!["tally checksum".into(), tally_checksum.clone()],
            vec!["build spill runs".into(), format!("{build_spill_runs}")],
            vec![
                "peak RSS bytes/edge".into(),
                format!("{peak_rss_bytes_per_edge:.0}"),
            ],
            vec![
                "decode entries/s".into(),
                format!("{decode_entries_per_sec:.0}"),
            ],
            vec!["alias draws/s".into(), format!("{alias_draws_per_sec:.0}")],
            vec![
                "serve qps (cold)".into(),
                format!("{:.0}", serving.serve_qps),
            ],
            vec![
                "serve qps (cache hit)".into(),
                format!("{:.0}", serving.cache_hit_qps),
            ],
            vec![
                "serve p50/p99 (cold)".into(),
                format!("{}us / {}us", serving.serve_p50_us, serving.serve_p99_us),
            ],
            vec![
                "serve p50/p99 (cache hit)".into(),
                format!(
                    "{}us / {}us",
                    serving.cache_hit_p50_us, serving.cache_hit_p99_us
                ),
            ],
            vec![
                "replica catch-up secs (2 replicas)".into(),
                format!("{:.3}", repl.replica_catchup_secs),
            ],
            vec![
                "replicated read qps".into(),
                format!("{:.0}", repl.replicated_read_qps),
            ],
            vec![
                "idle conns held".into(),
                format!("{}", idle.idle_conns_held),
            ],
            vec![
                "concurrent active qps".into(),
                format!("{:.0}", idle.concurrent_active_qps),
            ],
        ],
    );
    ctx.save_json(
        "BENCH_ci",
        &json!({
            "graph_nodes": g.num_nodes(),
            "graph_edges": g.num_edges(),
            "k": k,
            "samples": samples,
            "build_secs": build_secs,
            "sample_secs": sample_secs,
            "samples_per_sec": samples as f64 / sample_secs,
            "table_bytes_plain": st.table_bytes,
            "table_bytes_succinct": succinct_bytes,
            "bits_per_node_plain": bits_per_node,
            "bits_per_node_succinct": bits_per_node_succinct,
            "tally_checksum": tally_checksum,
            "build_spill_runs": build_spill_runs,
            "peak_rss_bytes_per_edge": peak_rss_bytes_per_edge,
            "decode_entries_per_sec": decode_entries_per_sec,
            "alias_draws_per_sec": alias_draws_per_sec,
            "serve_qps": serving.serve_qps,
            "cache_hit_qps": serving.cache_hit_qps,
            "serve_p50_us": serving.serve_p50_us,
            "serve_p99_us": serving.serve_p99_us,
            "cache_hit_p50_us": serving.cache_hit_p50_us,
            "cache_hit_p99_us": serving.cache_hit_p99_us,
            "replica_catchup_secs": repl.replica_catchup_secs,
            "replicated_read_qps": repl.replicated_read_qps,
            "idle_conns_held": idle.idle_conns_held,
            "concurrent_active_qps": idle.concurrent_active_qps,
            "determinism": "ok",
        }),
    );
}

/// What the loopback serving phase measured: round-trip rates plus
/// client-observed latency quantiles (microseconds, from a
/// `motivo_obs::Histogram` per phase — the same estimator the server's
/// own metrics use, so baseline numbers stay comparable across layers).
struct CiServing {
    serve_qps: f64,
    cache_hit_qps: f64,
    serve_p50_us: u64,
    serve_p99_us: u64,
    cache_hit_p50_us: u64,
    cache_hit_p99_us: u64,
}

/// Serving throughput over a real loopback daemon: `serve_qps` drives
/// distinct-seed requests (every one a cache miss running the estimator),
/// `cache_hit_qps` repeats one seeded request (after warmup, every one a
/// cache replay) and reports the median rate over nine 64-request
/// windows, so one host stall slows one window and cannot set the value.
/// Single blocking client, so both numbers are
/// latency-bound round-trip rates — the trajectory metric the perf gate
/// watches, not a saturation benchmark. Per-request round trips are also
/// recorded into latency histograms, and their p50/p99 feed the gate's
/// quantile fields (noise-floored there, so only real tail blowups gate).
fn ci_serving_rates(g: &motivo_graph::Graph, ctx: &Ctx) -> CiServing {
    use motivo_obs::Histogram;
    use motivo_server::{Client, ServeOptions, Server};
    use motivo_store::UrnStore;
    use serde_json::Value;
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("motivo-bench-ci-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Arc::new(UrnStore::open(&dir).expect("open bench store"));
    let handle = store
        .build_or_get(
            g,
            &BuildConfig {
                threads: ctx.threads,
                ..BuildConfig::new(4)
            }
            .seed(3),
        )
        .expect("enqueue ci build");
    handle.wait().expect("ci store build");

    let opts = ServeOptions::builder()
        .workers(2)
        .queue_depth(64)
        .build()
        .expect("serve options");
    let server = Server::bind(store, "127.0.0.1:0", opts).expect("bind loopback server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let request = |client: &mut Client, seed: u64| {
        let ok = client
            .request(&json!({
                "type": "NaiveEstimates", "urn": 0, "samples": 2_000, "seed": seed,
            }))
            .expect("serve request");
        serde_json::to_string(&ok).expect("serialize")
    };

    // Warmup (load the urn, JIT the path) — and pin the hit-phase payload.
    let expected = request(&mut client, 1_000_000);

    let cold_hist = Histogram::new();
    let cold_rounds = 48u64;
    let t0 = Instant::now();
    for seed in 0..cold_rounds {
        let r0 = Instant::now();
        request(&mut client, seed);
        cold_hist.record_duration(r0.elapsed());
    }
    let serve_qps = cold_rounds as f64 / t0.elapsed().as_secs_f64();

    let hit_hist = Histogram::new();
    let (hit_windows, hit_window_len) = (9usize, 64u64);
    let mut window_qps = Vec::with_capacity(hit_windows);
    for _ in 0..hit_windows {
        let t0 = Instant::now();
        for _ in 0..hit_window_len {
            let r0 = Instant::now();
            let payload = request(&mut client, 1_000_000);
            hit_hist.record_duration(r0.elapsed());
            // A hard assert — CI runs this with --release, and a cache
            // replaying wrong bytes must fail the smoke job, not time it.
            assert_eq!(payload, expected, "cached replay diverged from cold bytes");
        }
        window_qps.push(hit_window_len as f64 / t0.elapsed().as_secs_f64());
    }
    window_qps.sort_by(f64::total_cmp);
    let cache_hit_qps = window_qps[hit_windows / 2];
    let hit_rounds = hit_windows as u64 * hit_window_len;

    // The hit phase must actually have hit: one miss for the warmup seed,
    // plus one per cold-phase seed.
    let stats = client
        .request(&json!({"type": "Stats"}))
        .expect("stats request");
    let hits = stats
        .get("query_cache")
        .and_then(|qc: Value| qc.get("hits"))
        .and_then(|h| h.as_u64())
        .expect("query_cache.hits in Stats");
    assert!(
        hits >= hit_rounds,
        "cache hit phase did not hit the cache ({hits} hits)"
    );

    client
        .request(&json!({"type": "Shutdown"}))
        .expect("shutdown");
    server.join();
    std::fs::remove_dir_all(&dir).ok();
    let (cold, hit) = (cold_hist.snapshot(), hit_hist.snapshot());
    CiServing {
        serve_qps,
        cache_hit_qps,
        serve_p50_us: cold.quantile(0.5) / 1_000,
        serve_p99_us: cold.quantile(0.99) / 1_000,
        cache_hit_p50_us: hit.quantile(0.5) / 1_000,
        cache_hit_p99_us: hit.quantile(0.99) / 1_000,
    }
}

/// What the replication phase measured.
struct CiReplication {
    replica_catchup_secs: f64,
    replicated_read_qps: f64,
}

/// Replicated serving over loopback: a leader plus two empty replicas.
/// `replica_catchup_secs` is the wall-clock for both replicas to
/// bootstrap the sealed urn off the leader and report caught-up;
/// `replicated_read_qps` then drives distinct-seed estimate reads
/// round-robin across the replicas, asserting every response is
/// byte-identical to the leader's for the same seed (the determinism
/// guarantee replication rests on). Single blocking client per server, so
/// the rate is a latency-bound round trip, comparable to `serve_qps`.
fn ci_replication(g: &motivo_graph::Graph, ctx: &Ctx) -> CiReplication {
    use motivo_server::{Client, ServeOptions, Server};
    use motivo_store::UrnStore;
    use std::sync::Arc;
    use std::time::Duration;

    let base = std::env::temp_dir().join(format!("motivo-bench-repl-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let leader_dir = base.join("leader");
    std::fs::create_dir_all(&leader_dir).expect("leader dir");
    let store = Arc::new(UrnStore::open(&leader_dir).expect("open leader store"));
    let handle = store
        .build_or_get(
            g,
            &BuildConfig {
                threads: ctx.threads,
                ..BuildConfig::new(4)
            }
            .seed(3),
        )
        .expect("enqueue leader build");
    handle.wait().expect("leader build");
    let opts = ServeOptions::builder()
        .workers(2)
        .queue_depth(64)
        .build()
        .expect("leader options");
    let leader = Server::bind(store, "127.0.0.1:0", opts).expect("bind leader");

    let spawn_replica = |i: usize| {
        let dir = base.join(format!("replica-{i}"));
        std::fs::create_dir_all(&dir).expect("replica dir");
        let store =
            Arc::new(UrnStore::open_replica(&dir, Default::default()).expect("open replica store"));
        let opts = ServeOptions::builder()
            .workers(2)
            .queue_depth(64)
            .replica_of(leader.addr().to_string())
            .repl_poll_ms(25)
            .build()
            .expect("replica options");
        Server::bind(store, "127.0.0.1:0", opts).expect("bind replica")
    };
    let replicas = [spawn_replica(0), spawn_replica(1)];

    // Catch-up: both replicas from empty to caught-up with the urn built,
    // observed through their own `ReplStatus`.
    let t0 = Instant::now();
    let mut clients: Vec<Client> = replicas
        .iter()
        .map(|r| Client::connect(r.addr()).expect("connect replica"))
        .collect();
    for client in &mut clients {
        loop {
            let status = client
                .request(&json!({"type": "ReplStatus"}))
                .expect("repl status");
            let caught = status
                .get("sync")
                .map(|s| {
                    s.get("connected").and_then(|v| v.as_bool()) == Some(true)
                        && s.get("caught_up").and_then(|v| v.as_bool()) == Some(true)
                })
                .unwrap_or(false);
            if caught {
                let urns = client
                    .request(&json!({"type": "ListUrns"}))
                    .expect("list urns");
                let built = urns
                    .get("urns")
                    .and_then(|u| u.as_array())
                    .map(|rows| {
                        rows.iter()
                            .filter(|r| {
                                r.get("status")
                                    .map(|s| s.as_str() == Some("built"))
                                    .unwrap_or(false)
                            })
                            .count()
                    })
                    .unwrap_or(0);
                if built == 1 {
                    break;
                }
            }
            assert!(
                t0.elapsed() < Duration::from_secs(120),
                "replica catch-up timed out"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let replica_catchup_secs = t0.elapsed().as_secs_f64();

    // Replicated reads: the leader's bytes are the reference; each seed's
    // response from a replica must match them exactly.
    let mut leader_client = Client::connect(leader.addr()).expect("connect leader");
    let request = |client: &mut Client, seed: u64| {
        let ok = client
            .request(&json!({
                "type": "NaiveEstimates", "urn": 0, "samples": 2_000, "seed": seed,
            }))
            .expect("replicated read");
        serde_json::to_string(&ok).expect("serialize")
    };
    let rounds = 48u64;
    let expected: Vec<String> = (0..rounds)
        .map(|s| request(&mut leader_client, s))
        .collect();
    let t0 = Instant::now();
    for seed in 0..rounds {
        let got = request(&mut clients[(seed % 2) as usize], seed);
        assert_eq!(
            got, expected[seed as usize],
            "replica bytes diverged from leader at seed {seed}"
        );
    }
    let replicated_read_qps = rounds as f64 / t0.elapsed().as_secs_f64();

    drop(clients);
    drop(leader_client);
    for r in replicas {
        // Replicas refuse a wire `Shutdown` (read-only); stop in-process.
        r.shutdown();
        r.join();
    }
    leader.shutdown();
    leader.join();
    std::fs::remove_dir_all(&base).ok();
    CiReplication {
        replica_catchup_secs,
        replicated_read_qps,
    }
}

/// What the idle/concurrency phase measured.
struct CiIdle {
    idle_conns_held: u64,
    concurrent_active_qps: f64,
}

/// The reactor's headline claim, measured: a loopback daemon on a fixed
/// two-worker pool holds 1000 idle connections while 4 concurrent
/// clients drive distinct-seed estimates (cache misses) through the
/// pool. `idle_conns_held` counts the idle set answering a ping after
/// the active phase — exact in the gate, because the event loop either
/// holds the full set or the architecture regressed.
/// `concurrent_active_qps` is the aggregate round-trip rate of the
/// active clients under that load, ratio-gated like the other rates.
fn ci_idle_concurrency(g: &motivo_graph::Graph, ctx: &Ctx) -> CiIdle {
    use motivo_server::{proto, Client, ServeOptions, Server};
    use motivo_store::UrnStore;
    use std::net::TcpStream;
    use std::sync::Arc;

    const IDLE_CONNS: usize = 1000;

    let dir = std::env::temp_dir().join(format!("motivo-bench-idle-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Arc::new(UrnStore::open(&dir).expect("open idle-phase store"));
    let handle = store
        .build_or_get(
            g,
            &BuildConfig {
                threads: ctx.threads,
                ..BuildConfig::new(4)
            }
            .seed(3),
        )
        .expect("enqueue idle-phase build");
    handle.wait().expect("idle-phase build");

    let opts = ServeOptions::builder()
        .workers(2)
        .queue_depth(64)
        .build()
        .expect("idle-phase options");
    let server = Server::bind(store, "127.0.0.1:0", opts).expect("bind idle-phase server");

    let mut idle: Vec<TcpStream> = (0..IDLE_CONNS)
        .map(|_| TcpStream::connect(server.addr()).expect("idle connect"))
        .collect();

    // Active phase: 4 clients, distinct seeds per request so every one
    // runs the estimator — the pool is the bottleneck, not the cache.
    let clients = 4u64;
    let rounds = 12u64;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let addr = server.addr();
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("active connect");
                    for i in 0..rounds {
                        client
                            .request(&json!({
                                "type": "NaiveEstimates", "urn": 0,
                                "samples": 2_000, "seed": c * 10_000 + i,
                            }))
                            .expect("active request");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("active client");
        }
    });
    let concurrent_active_qps = (clients * rounds) as f64 / t0.elapsed().as_secs_f64();

    // Every idle connection must still be held and answering.
    let mut idle_conns_held = 0u64;
    for conn in idle.iter_mut() {
        proto::write_frame(conn, br#"{"id":"live","type":"Ping"}"#).expect("idle ping");
        let frame = proto::read_frame(conn)
            .expect("idle read")
            .expect("pong on an idle connection");
        assert!(
            std::str::from_utf8(&frame)
                .expect("UTF-8 pong")
                .contains("\"pong\""),
            "idle connection answered something other than a pong"
        );
        idle_conns_held += 1;
    }
    assert_eq!(
        idle_conns_held, IDLE_CONNS as u64,
        "reactor dropped idle connections"
    );

    drop(idle);
    let mut client = Client::connect(server.addr()).expect("shutdown connect");
    client
        .request(&json!({"type": "Shutdown"}))
        .expect("shutdown");
    server.join();
    std::fs::remove_dir_all(&dir).ok();
    CiIdle {
        idle_conns_held,
        concurrent_active_qps,
    }
}
