//! The `motivo` command-line tool — build, sample, count, and serve
//! motifs from the shell, mirroring how the paper's C++ tool is driven.
//!
//! ```sh
//! motivo generate --model ba --nodes 10000 --param 4 --out g.mtvg
//! motivo info g.mtvg
//! motivo count g.mtvg -k 5 --samples 200000 --runs 10
//! motivo count g.mtvg -k 5 --ags --runs 10
//! motivo build g.mtvg -k 5 --table urn-dir        # persist the urn
//! motivo sample g.mtvg --table urn-dir --samples 100000
//! motivo exact g.mtvg -k 4
//! motivo convert edges.txt g.mtvg
//! motivo store build g.mtvg -k 5 --store repo     # managed repository
//! motivo store query urn-0 --store repo --samples 100000
//! motivo serve --store repo --addr 127.0.0.1:7070 --workers 4 --cache-bytes 67108864
//! motivo client 127.0.0.1:7070 '{"type":"ListUrns"}'
//! echo '[{"type":"Ping"},{"type":"Sample","urn":0,"samples":1000,"seed":1}]' \
//!   | motivo client 127.0.0.1:7070 - --batch
//! ```
//!
//! Every subcommand validates its flags: an unknown flag, a flag missing
//! its value, or an unparseable value is a one-line `error:` on stderr and
//! a nonzero exit, never a panic.

use motivo::core::{
    ags, ensemble, load_urn, naive_estimates, save_urn, AgsConfig, BuildConfig, EnsembleConfig,
    Estimator, SampleConfig,
};
use motivo::graph::{generators, io, Graph};
use motivo::graphlet::{name, GraphletRegistry};
use motivo::server::{Client, ServeOptions, Server};
use motivo::store::{BuildStatus, StoreQuery, UrnId, UrnStore};
use motivo::table::{CountTable, RecordCodec};
use std::process::exit;
use std::sync::Arc;

const USAGE: &str = "usage: motivo <generate|convert|info|exact|count|build|sample|store|table|serve|client|stats|promote|repl> [args]\n\
     \n\
     generate --model ba|er|hub|yelp|lollipop --nodes N [--param P] [--seed S] --out FILE\n\
     convert  <edges.txt> <out.mtvg>\n\
     info     <graph>\n\
     exact    <graph> -k K [--top N]\n\
     count    <graph> -k K [--samples N] [--ags] [--runs R] [--biased L]\n\
              [--threads T] [--seed S] [--top N] [--disk DIR] [--codec plain|succinct]\n\
              [--build-mem-bytes N]\n\
     build    <graph> -k K --table DIR [--seed S] [--biased L] [--threads T]\n\
              [--codec plain|succinct] [--build-mem-bytes N]\n\
     sample   <graph> --table DIR [--samples N] [--ags] [--seed S] [--threads T]\n\
              [--top N]\n\
     table    stats <dir>\n\
     store    build <graph> -k K --store DIR [--seed S] [--biased L] [--threads T]\n\
              [--codec plain|succinct] [--build-mem-bytes N]\n\
     store    list --store DIR\n\
     store    query <urn-id> --store DIR [--samples N] [--ags] [--seed S]\n\
              [--threads T] [--top N]\n\
     store    gc --store DIR\n\
     serve    --store DIR [--addr HOST:PORT] [--workers N] [--queue N]\n\
              [--cache-bytes N] [--snapshot-secs N]\n\
              [--replica-of HOST:PORT] [--poll-ms N]\n\
     client   <addr> <request-json|-> [--batch]\n\
     stats    <addr> [--raw]\n\
     promote  <addr>\n\
     repl     status <addr>";

fn main() {
    // Piping into `head` closes stdout early; die quietly instead of
    // panicking (std has no SIGPIPE story without libc).
    std::panic::set_hook(Box::new(|info| {
        let msg = info.to_string();
        if msg.contains("Broken pipe") {
            exit(0);
        }
        eprintln!("{msg}");
        exit(101);
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("exact") => cmd_exact(&args[1..]),
        Some("count") => cmd_count(&args[1..]),
        Some("build") => cmd_build(&args[1..]),
        Some("sample") => cmd_sample(&args[1..]),
        Some("store") => cmd_store(&args[1..]),
        Some("table") => cmd_table(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("promote") => cmd_promote(&args[1..]),
        Some("repl") => cmd_repl(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            exit(2);
        }
    };
    match run {
        Ok(()) => exit(0),
        Err(msg) => {
            eprintln!("error: {msg}");
            exit(1);
        }
    }
}

/// Tiny strict flag parser: positional args plus `--flag value` /
/// `--flag` pairs, validated against the subcommand's declared flags so a
/// typo is an error instead of a silently ignored knob.
struct Opts {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
}

impl Opts {
    fn parse(
        args: &[String],
        value_flags: &[&str],
        boolean_flags: &[&str],
    ) -> Result<Opts, String> {
        let mut positional = Vec::new();
        let mut flags = std::collections::HashMap::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let flag = a
                .strip_prefix("--")
                .or_else(|| a.strip_prefix('-').filter(|f| !f.is_empty()));
            match flag {
                Some(name) if boolean_flags.contains(&name) => {
                    flags.insert(name.to_string(), "true".into());
                }
                Some(name) if value_flags.contains(&name) => {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("flag {a} requires a value"))?;
                    flags.insert(name.to_string(), v.clone());
                }
                Some(_) => return Err(format!("unknown flag {a}")),
                None => positional.push(a.clone()),
            }
        }
        Ok(Opts { positional, flags })
    }

    /// A typed flag value; unparseable values are a hard error, absent
    /// flags are `None`.
    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.flags.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value for --{name}: `{v}`")),
        }
    }

    /// A typed flag value with a default.
    fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.get(name)?.unwrap_or(default))
    }

    fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }
}

fn load_graph(path: &str) -> Result<Graph, String> {
    let loaded = if path.ends_with(".mtvg") {
        io::load_binary(path)
    } else {
        io::load_edge_list(path)
    };
    loaded.map_err(|e| format!("cannot load graph {path}: {e}"))
}

/// Reads `--codec plain|succinct` (default plain).
fn parse_codec(o: &Opts) -> Result<RecordCodec, String> {
    match o.flags.get("codec") {
        None => Ok(RecordCodec::Plain),
        Some(s) => s.parse(),
    }
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, &["model", "nodes", "seed", "param", "out"], &[])?;
    let model: String = o.get_or("model", "ba".into())?;
    let n: u32 = o.get_or("nodes", 10_000)?;
    let seed: u64 = o.get_or("seed", 1)?;
    let param: u32 = o.get_or("param", 3)?;
    let out: String = o.get("out")?.ok_or("--out FILE required")?;
    let g = match model.as_str() {
        "ba" => generators::barabasi_albert(n, param, seed),
        "er" => generators::erdos_renyi(n, (n as usize) * param as usize, seed),
        "hub" => generators::star_heavy(n, param, 0.5, seed),
        "yelp" => generators::yelp_like(n / 100 + 1, param.max(10), n as usize / 50, seed),
        "lollipop" => generators::lollipop(n, param),
        other => return Err(format!("unknown model {other}")),
    };
    io::save_binary(&g, &out).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {} ({} nodes, {} edges)",
        out,
        g.num_nodes(),
        g.num_edges()
    );
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, &[], &[])?;
    let [input, output] = &o.positional[..] else {
        return Err("usage: convert <edges.txt> <out.mtvg>".into());
    };
    let g = io::load_edge_list(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    io::save_binary(&g, output).map_err(|e| format!("cannot write {output}: {e}"))?;
    println!(
        "wrote {} ({} nodes, {} edges)",
        output,
        g.num_nodes(),
        g.num_edges()
    );
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, &[], &[])?;
    let Some(path) = o.positional.first() else {
        return Err("usage: info <graph>".into());
    };
    let g = load_graph(path)?;
    if g.num_nodes() == 0 {
        return Err(format!("graph {path} has no nodes"));
    }
    let mut degs: Vec<usize> = (0..g.num_nodes()).map(|v| g.degree(v)).collect();
    degs.sort_unstable();
    let pct = |p: f64| degs[((degs.len() - 1) as f64 * p) as usize];
    println!("nodes        {}", g.num_nodes());
    println!("edges        {}", g.num_edges());
    println!(
        "avg degree   {:.2}",
        2.0 * g.num_edges() as f64 / g.num_nodes() as f64
    );
    println!("degree p50   {}", pct(0.50));
    println!("degree p90   {}", pct(0.90));
    println!("degree p99   {}", pct(0.99));
    println!("max degree   {}", g.max_degree());
    println!("connected    {}", g.is_connected());
    println!("csr bytes    {}", g.byte_size());
    Ok(())
}

fn cmd_exact(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, &["k", "top"], &[])?;
    let Some(path) = o.positional.first() else {
        return Err("usage: exact <graph> -k K [--top N]".into());
    };
    let k: u8 = o.get("k")?.ok_or("-k K required")?;
    let g = load_graph(path)?;
    let top: usize = o.get_or("top", 20)?;
    let t0 = std::time::Instant::now();
    let exact = motivo::exact::count_exact(&g, k);
    println!(
        "exact ESU enumeration: {} induced {k}-graphlets, {} classes, {:?}",
        exact.total,
        exact.num_classes(),
        t0.elapsed()
    );
    let mut rows: Vec<(u128, u64)> = exact.counts.iter().map(|(&c, &n)| (c, n)).collect();
    rows.sort_unstable_by_key(|&(_, n)| std::cmp::Reverse(n));
    for (code, count) in rows.into_iter().take(top) {
        let gl = motivo::graphlet::Graphlet::from_code(code).expect("valid code");
        println!(
            "{:>16}  {:>12}  ({:.4}%)",
            name(&gl),
            count,
            100.0 * count as f64 / exact.total as f64
        );
    }
    Ok(())
}

fn cmd_count(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(
        args,
        &[
            "k",
            "samples",
            "runs",
            "seed",
            "threads",
            "top",
            "biased",
            "disk",
            "codec",
            "build-mem-bytes",
        ],
        &["ags"],
    )?;
    let Some(path) = o.positional.first() else {
        return Err("usage: count <graph> -k K [--samples N] [--ags] [--runs R] ...".into());
    };
    let k: u32 = o.get("k")?.ok_or("-k K required")?;
    let g = load_graph(path)?;
    let samples: u64 = o.get_or("samples", 200_000)?;
    let runs: u64 = o.get_or("runs", 10)?;
    let seed: u64 = o.get_or("seed", 0)?;
    let threads: usize = o.get_or("threads", 0)?;
    let top: usize = o.get_or("top", 25)?;

    let mut build = BuildConfig::new(k);
    if let Some(lambda) = o.get::<f64>("biased")? {
        build = build.biased(lambda);
    }
    let mut scratch: Option<std::path::PathBuf> = None;
    let budget = o.get::<usize>("build-mem-bytes")?;
    let disk = o.flags.get("disk");
    if budget.is_some() || disk.is_some() {
        // On-disk builds go through the block backend; spill runs land
        // next to the final level files, in a scratch directory unless
        // `--disk` names one.
        let dir = match disk {
            Some(d) => std::path::PathBuf::from(d),
            None => {
                let d = std::env::temp_dir().join(format!("motivo-count-{}", std::process::id()));
                scratch = Some(d.clone());
                d
            }
        };
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        build = build.build_mem_bytes(
            dir,
            budget.unwrap_or(motivo::table::DEFAULT_BUILD_MEM_BYTES),
        );
    }
    build = build.codec(parse_codec(&o)?);
    let estimator = if o.has("ags") {
        Estimator::Ags(AgsConfig {
            max_samples: samples,
            ..AgsConfig::default()
        })
    } else {
        Estimator::Naive { samples }
    };
    let cfg = EnsembleConfig {
        runs,
        base_seed: seed,
        threads,
        estimator,
        build,
    };
    let mut registry = GraphletRegistry::new(k as u8);
    let res = ensemble(&g, &mut registry, &cfg).map_err(|e| e.to_string())?;
    println!(
        "{} runs ({} empty urns) · build {:.2}s · sampling {:.2}s · {} samples",
        res.effective_runs,
        res.empty_urns,
        res.build_time.as_secs_f64(),
        res.sample_time.as_secs_f64(),
        res.samples
    );
    println!(
        "estimated total {k}-graphlet copies: {:.3e}\n",
        res.total_count()
    );
    let header = format!(
        "{:>16}  {:>12}  {:>12}  {:>12}  {:>9}  runs seen",
        "graphlet", "mean", "p10", "p90", "freq"
    );
    println!("{header}");
    for c in res.classes.iter().take(top) {
        println!(
            "{:>16}  {:>12.4e}  {:>12.4e}  {:>12.4e}  {:>9.2e}  {}/{}",
            name(&registry.info(c.index).graphlet),
            c.mean,
            c.p10,
            c.p90,
            c.frequency,
            c.seen_in,
            res.effective_runs
        );
    }
    if res.classes.len() > top {
        println!("… and {} more classes", res.classes.len() - top);
    }
    if let Some(dir) = scratch {
        std::fs::remove_dir_all(&dir).ok();
    }
    Ok(())
}

fn cmd_build(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(
        args,
        &[
            "k",
            "table",
            "seed",
            "threads",
            "biased",
            "codec",
            "build-mem-bytes",
        ],
        &[],
    )?;
    let Some(path) = o.positional.first() else {
        return Err("usage: build <graph> -k K --table DIR [--seed S]".into());
    };
    let k: u32 = o.get("k")?.ok_or("-k K required")?;
    let table: String = o.get("table")?.ok_or("--table DIR required")?;
    let g = load_graph(path)?;
    let mut cfg = BuildConfig::new(k).seed(o.get_or("seed", 0)?);
    cfg.threads = o.get_or("threads", 0)?;
    if let Some(lambda) = o.get::<f64>("biased")? {
        cfg = cfg.biased(lambda);
    }
    cfg = cfg.codec(parse_codec(&o)?);
    if let Some(bytes) = o.get::<usize>("build-mem-bytes")? {
        // Block levels seal straight into `table`; save_urn then finds
        // them in place and adds only the metadata. An urn already there
        // stops reading as one first (save_urn writes `urn.meta` last), so
        // a failed build cannot leave new levels under the old metadata.
        let meta = std::path::Path::new(&table).join("urn.meta");
        match std::fs::remove_file(&meta) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("cannot replace {}: {e}", meta.display()));
            }
            _ => {}
        }
        cfg = cfg.build_mem_bytes(&table, bytes);
    }
    let urn = motivo::core::build_urn(&g, &cfg).map_err(|e| e.to_string())?;
    let st = urn.build_stats();
    println!(
        "built urn: {} colorful {k}-treelets, {:.2}s, {:.1} MiB table ({} codec)",
        urn.total_treelets(),
        st.total.as_secs_f64(),
        st.table_bytes as f64 / (1 << 20) as f64,
        cfg.codec
    );
    println!(
        "spill runs: {} · peak memtable: {} B",
        st.spill_runs, st.peak_mem_bytes
    );
    save_urn(&urn, &table).map_err(|e| format!("cannot persist urn: {e}"))?;
    println!("persisted to {table}");
    Ok(())
}

fn cmd_store(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("build") => cmd_store_build(&args[1..]),
        Some("list") => cmd_store_list(&args[1..]),
        Some("query") => cmd_store_query(&args[1..]),
        Some("gc") => cmd_store_gc(&args[1..]),
        _ => Err("usage: store <build|list|query|gc> --store DIR [args]".into()),
    }
}

fn open_store(o: &Opts) -> Result<UrnStore, String> {
    let Some(dir) = o.flags.get("store") else {
        return Err("--store DIR required".into());
    };
    UrnStore::open(dir).map_err(|e| format!("cannot open store {dir}: {e}"))
}

/// Accepts `urn-3` (as printed by `store list`) or bare `3`.
fn parse_urn_id(s: &str) -> Option<UrnId> {
    s.strip_prefix("urn-").unwrap_or(s).parse().ok().map(UrnId)
}

fn cmd_store_build(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(
        args,
        &[
            "k",
            "store",
            "seed",
            "threads",
            "biased",
            "codec",
            "build-mem-bytes",
        ],
        &[],
    )?;
    let Some(path) = o.positional.first() else {
        return Err("usage: store build <graph> -k K --store DIR [--seed S]".into());
    };
    let k: u32 = o.get("k")?.ok_or("-k K required")?;
    let g = load_graph(path)?;
    let store = open_store(&o)?;
    let mut cfg = BuildConfig::new(k).seed(o.get_or("seed", 0)?);
    cfg.threads = o.get_or("threads", 0)?;
    if let Some(lambda) = o.get::<f64>("biased")? {
        cfg = cfg.biased(lambda);
    }
    cfg = cfg.codec(parse_codec(&o)?);
    if let Some(bytes) = o.get::<usize>("build-mem-bytes")? {
        // The store worker rewrites the directory to the urn's own dir;
        // only the budget matters here.
        cfg = cfg.build_mem_bytes(std::path::PathBuf::new(), bytes);
    }
    let handle = store.build_or_get(&g, &cfg).map_err(|e| e.to_string())?;
    let already = handle.poll().is_some();
    let urn = handle.wait().map_err(|e| e.to_string())?;
    println!(
        "{} {}: {} colorful {k}-treelets, {:.1} MiB table",
        if already { "reused" } else { "built" },
        handle.id(),
        urn.urn().total_treelets(),
        urn.urn().table().byte_size() as f64 / (1 << 20) as f64
    );
    Ok(())
}

fn cmd_store_list(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, &["store"], &[])?;
    let store = open_store(&o)?;
    let urns = store.list();
    println!(
        "{:>8}  {:>2}  {:>10}  {:>8}  {:>8}  {:>12}  {:>16}",
        "urn", "k", "seed", "codec", "status", "bytes", "graph"
    );
    for m in &urns {
        println!(
            "{:>8}  {:>2}  {:>10}  {:>8}  {:>8}  {:>12}  {:>16x}",
            m.id.to_string(),
            m.key.k,
            m.key.seed,
            m.key.codec.to_string(),
            match m.status {
                BuildStatus::Pending => "pending",
                BuildStatus::Built => "built",
                BuildStatus::Failed => "failed",
            },
            m.table_bytes,
            m.key.fingerprint
        );
    }
    println!("{} urns, {} graphs", urns.len(), store.graphs().len());
    Ok(())
}

fn cmd_store_query(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(
        args,
        &["store", "samples", "seed", "threads", "top"],
        &["ags"],
    )?;
    let id = o
        .positional
        .first()
        .and_then(|s| parse_urn_id(s))
        .ok_or("usage: store query <urn-id> --store DIR [--samples N] [--ags]")?;
    let store = open_store(&o)?;
    let meta = store.meta(id).ok_or_else(|| format!("unknown urn {id}"))?;
    let samples: u64 = o.get_or("samples", 200_000)?;
    let seed: u64 = o.get_or("seed", 1)?;
    let threads: usize = o.get_or("threads", 0)?;
    let top: usize = o.get_or("top", 25)?;
    let query = StoreQuery::new(&store);
    let mut registry = GraphletRegistry::new(meta.key.k as u8);
    let est = if o.has("ags") {
        query
            .ags(
                id,
                &mut registry,
                &AgsConfig {
                    max_samples: samples,
                    sample: SampleConfig::seeded(seed).threads(threads),
                    ..AgsConfig::default()
                },
            )
            .map_err(|e| e.to_string())?
            .estimates
    } else {
        query
            .naive_estimates(
                id,
                &mut registry,
                samples,
                &SampleConfig::seeded(seed).threads(threads),
            )
            .map_err(|e| e.to_string())?
    };
    let qs = query.stats(id);
    println!(
        "{}: {} samples in {:?}, {} classes (cache {})",
        id,
        est.samples,
        est.elapsed,
        est.per_graphlet.len(),
        if qs.cache_hits > 0 { "hit" } else { "miss" }
    );
    let mut rows = est.per_graphlet.clone();
    rows.sort_by(|a, b| b.count.total_cmp(&a.count));
    println!(
        "{:>16}  {:>14}  {:>9}  {:>10}",
        "graphlet", "count", "freq", "samples"
    );
    for e in rows.iter().take(top) {
        println!(
            "{:>16}  {:>14.4e}  {:>9.2e}  {:>10}",
            name(&registry.info(e.index).graphlet),
            e.count,
            e.frequency,
            e.occurrences
        );
    }
    Ok(())
}

fn cmd_store_gc(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, &["store"], &[])?;
    let store = open_store(&o)?;
    let rec = store.recovery_report();
    if rec.interrupted_builds > 0 || rec.torn_journal_bytes > 0 {
        println!(
            "recovered: {} interrupted builds swept, {} torn journal bytes dropped",
            rec.interrupted_builds, rec.torn_journal_bytes
        );
    }
    let r = store.gc().map_err(|e| e.to_string())?;
    println!(
        "gc: {} orphan urn dirs, {} orphan graphs, {} journal bytes compacted",
        r.orphan_dirs_removed, r.orphan_graphs_removed, r.journal_bytes_compacted
    );
    Ok(())
}

fn cmd_table(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("stats") => cmd_table_stats(&args[1..]),
        _ => Err("usage: table stats <dir>".into()),
    }
}

/// Per-level record counts, encoded bytes, and the plain-vs-succinct
/// compression ratio of a persisted count table (a `--table`/urn dir).
fn cmd_table_stats(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, &[], &[])?;
    let Some(dir) = o.positional.first() else {
        return Err("usage: table stats <dir>".into());
    };
    let table = CountTable::open_dir(dir).map_err(|e| format!("cannot open table {dir}: {e}"))?;
    println!(
        "table {dir}: k={}, codec={}, {} records",
        table.k(),
        table.codec(),
        table.record_count()
    );
    println!(
        "{:>5}  {:>10}  {:>10}  {:>12}  {:>12}  {:>6}  {:>6}  {:>6}",
        "level", "records", "entries", "encoded B", "plain B", "ratio", "blocks", "spills"
    );
    let (mut entries_total, mut plain_total) = (0u64, 0u64);
    for h in 1..=table.k() {
        let level = table.level(h);
        let mut entries = 0u64;
        for item in level.scan() {
            let (_, rec) = item.map_err(|e| format!("level {h}: {e}"))?;
            entries += rec.len() as u64;
        }
        // The plain layout costs 24 bytes per entry plus a 4-byte length
        // prefix per stored record on disk.
        let plain = entries * 24 + level.record_count() as u64 * 4;
        entries_total += entries;
        plain_total += plain;
        let spills = table.spill_runs().get(h as usize - 1).copied().unwrap_or(0);
        println!(
            "{:>5}  {:>10}  {:>10}  {:>12}  {:>12}  {:>6.3}  {:>6}  {:>6}",
            h,
            level.record_count(),
            entries,
            level.byte_size(),
            plain,
            level.byte_size() as f64 / plain.max(1) as f64,
            level.profile().blocks,
            spills
        );
    }
    println!(
        "{:>5}  {:>10}  {:>10}  {:>12}  {:>12}  {:>6.3}",
        "total",
        table.record_count(),
        entries_total,
        table.byte_size(),
        plain_total,
        table.byte_size() as f64 / plain_total.max(1) as f64
    );
    println!(
        "build history: {} spill runs · peak memtable {} B",
        table.total_spill_runs(),
        table.peak_mem_bytes()
    );
    Ok(())
}

fn cmd_sample(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(
        args,
        &["table", "samples", "seed", "threads", "top"],
        &["ags"],
    )?;
    let Some(path) = o.positional.first() else {
        return Err("usage: sample <graph> --table DIR [--samples N] [--ags]".into());
    };
    let table: String = o.get("table")?.ok_or("--table DIR required")?;
    let g = load_graph(path)?;
    let urn = load_urn(&g, &table).map_err(|e| format!("cannot load urn: {e}"))?;
    let samples: u64 = o.get_or("samples", 200_000)?;
    let seed: u64 = o.get_or("seed", 1)?;
    let threads: usize = o.get_or("threads", 0)?;
    let top: usize = o.get_or("top", 25)?;
    let k = urn.k();
    let mut registry = GraphletRegistry::new(k as u8);
    let est = if o.has("ags") {
        ags(
            &urn,
            &mut registry,
            &AgsConfig {
                max_samples: samples,
                sample: SampleConfig::seeded(seed).threads(threads),
                ..AgsConfig::default()
            },
        )
        .estimates
    } else {
        naive_estimates(
            &urn,
            &mut registry,
            samples,
            &SampleConfig::seeded(seed).threads(threads),
        )
    };
    println!(
        "{} samples in {:?} ({:.0}/s), {} classes",
        est.samples,
        est.elapsed,
        est.sampling_rate(),
        est.per_graphlet.len()
    );
    let mut rows = est.per_graphlet.clone();
    rows.sort_by(|a, b| b.count.total_cmp(&a.count));
    println!(
        "{:>16}  {:>14}  {:>9}  {:>10}",
        "graphlet", "count", "freq", "samples"
    );
    for e in rows.iter().take(top) {
        println!(
            "{:>16}  {:>14.4e}  {:>9.2e}  {:>10}",
            name(&registry.info(e.index).graphlet),
            e.count,
            e.frequency,
            e.occurrences
        );
    }
    Ok(())
}

/// Runs the query daemon until a wire `Shutdown` request arrives. With
/// `--replica-of` the store opens read-only and the serve loop tails the
/// leader as a timer-driven sync session; the server then refuses
/// `Build` and wire `Shutdown` with a `ReadOnly` error until a `Promote`
/// request arrives.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(
        args,
        &[
            "store",
            "addr",
            "workers",
            "queue",
            "cache-bytes",
            "snapshot-secs",
            "replica-of",
            "poll-ms",
        ],
        &[],
    )?;
    let replica_of: Option<String> = o.get("replica-of")?;
    let store = if replica_of.is_some() {
        let dir = o.flags.get("store").ok_or("--store DIR required")?;
        UrnStore::open_replica(dir, Default::default())
            .map_err(|e| format!("cannot open replica store {dir}: {e}"))?
    } else {
        open_store(&o)?
    };
    let addr: String = o.get_or("addr", "127.0.0.1:7070".into())?;
    let mut builder = ServeOptions::builder()
        .workers(o.get_or("workers", 4)?)
        .queue_depth(o.get_or("queue", 0)?)
        .cache_bytes(o.get_or("cache-bytes", motivo::server::DEFAULT_CACHE_BYTES)?)
        .snapshot_secs(o.get_or("snapshot-secs", 0)?)
        .repl_poll_ms(o.get_or("poll-ms", 0)?);
    if let Some(leader) = replica_of {
        builder = builder.replica_of(leader);
    }
    let opts = builder.build()?;
    let server = Server::bind(Arc::new(store), addr.as_str(), opts)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    // Scripts and tests read this line to learn the ephemeral port.
    println!("listening on {}", server.addr());
    use std::io::Write;
    std::io::stdout().flush().ok();
    let report = server.join();
    println!(
        "served {} requests on {} connections ({} busy rejections)",
        report.requests, report.connections, report.busy_rejections
    );
    if let Some(path) = report.stats_path {
        println!("stats flushed to {}", path.display());
    }
    Ok(())
}

/// Sends one raw JSON request to a running daemon and pretty-prints the
/// response envelope; exits nonzero if the server answered an error.
/// `-` reads the request from stdin; `--batch` wraps a JSON array of
/// sub-requests into one `Batch` frame.
fn cmd_client(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, &[], &["batch"])?;
    let [addr, request] = &o.positional[..] else {
        return Err("usage: client <addr> <request-json|-> [--batch]".into());
    };
    let raw = if request == "-" {
        use std::io::Read;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("cannot read request from stdin: {e}"))?;
        buf
    } else {
        request.clone()
    };
    // Validate locally so typos fail with a parse message, not a server
    // roundtrip.
    let doc = serde_json::from_str(&raw).map_err(|e| format!("request is not valid JSON: {e}"))?;
    let request_text = if o.has("batch") {
        if doc.as_array().is_none() {
            return Err("--batch expects a JSON array of request documents".into());
        }
        serde_json::to_string(&serde_json::json!({"type": "Batch", "requests": doc}))
            .map_err(|e| e.to_string())?
    } else {
        raw
    };
    let mut client =
        Client::connect(addr.as_str()).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let envelope = client.send_raw(&request_text).map_err(|e| e.to_string())?;
    let parsed: serde_json::Value =
        serde_json::from_str(&envelope).map_err(|e| format!("malformed response: {e}"))?;
    println!(
        "{}",
        serde_json::to_string_pretty(&parsed).map_err(|e| e.to_string())?
    );
    if let Some(err) = parsed.get("error") {
        let kind = err
            .get("kind")
            .and_then(|k| k.as_str().map(str::to_string))
            .unwrap_or_else(|| "Unknown".into());
        let message = err
            .get("message")
            .and_then(|m| m.as_str().map(str::to_string))
            .unwrap_or_default();
        return Err(format!("server answered [{kind}]: {message}"));
    }
    Ok(())
}

/// Sends a `Metrics` request to a running daemon and pretty-prints the
/// per-request-kind table (count, qps, latency quantiles, errors).
/// `--raw` dumps the server's Prometheus-style text body instead.
fn cmd_stats(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, &[], &["raw"])?;
    let [addr] = &o.positional[..] else {
        return Err("usage: stats <addr> [--raw]".into());
    };
    let mut client =
        Client::connect(addr.as_str()).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let ok = client
        .metrics()
        .map_err(|e| format!("Metrics request failed: {e}"))?;
    let field =
        |v: &serde_json::Value, key: &str| v.get(key).and_then(|f| f.as_u64()).unwrap_or_default();
    if o.has("raw") {
        let text = ok
            .get("text")
            .and_then(|t| t.as_str().map(str::to_string))
            .ok_or("response carries no `text` body")?;
        print!("{text}");
        return Ok(());
    }
    let uptime = ok
        .get("uptime_secs")
        .and_then(|u| u.as_f64())
        .unwrap_or_default();
    println!("uptime: {uptime:.1}s");
    println!(
        "{:<16} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "kind", "count", "qps", "p50_us", "p90_us", "p99_us", "max_us", "errors"
    );
    let kinds = ok
        .get("kinds")
        .and_then(|k| k.as_array())
        .ok_or("response carries no `kinds` table")?;
    // Rows arrive sorted by kind name; re-sort by count descending so the
    // hottest request type tops the table.
    let mut rows = kinds;
    rows.sort_by_key(|r| std::cmp::Reverse(field(r, "count")));
    for row in &rows {
        let count = field(row, "count");
        let qps = if uptime > 0.0 {
            count as f64 / uptime
        } else {
            0.0
        };
        println!(
            "{:<16} {:>8} {:>9.2} {:>9} {:>9} {:>9} {:>9} {:>7}",
            row.get("kind")
                .and_then(|k| k.as_str().map(str::to_string))
                .unwrap_or_else(|| "?".into()),
            count,
            qps,
            field(row, "p50_us"),
            field(row, "p90_us"),
            field(row, "p99_us"),
            field(row, "max_us"),
            field(row, "errors"),
        );
    }
    for key in ["queue_wait", "service"] {
        if let Some(h) = ok.get(key) {
            println!(
                "{key}: count {} mean {}us p50 {}us p99 {}us max {}us",
                field(&h, "count"),
                field(&h, "mean_us"),
                field(&h, "p50_us"),
                field(&h, "p99_us"),
                field(&h, "max_us"),
            );
        }
    }
    Ok(())
}

/// Promotes a replica to leader: it starts accepting writes (and wire
/// `Shutdown`) and stops syncing from its old leader.
fn cmd_promote(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, &[], &[])?;
    let [addr] = &o.positional[..] else {
        return Err("usage: promote <addr>".into());
    };
    let mut client =
        Client::connect(addr.as_str()).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let reply = client
        .promote()
        .map_err(|e| format!("Promote request failed: {e}"))?;
    println!(
        "promoted {addr} to leader ({} interrupted builds swept)",
        reply.swept
    );
    Ok(())
}

/// Prints a server's replication status: its role and offsets, plus
/// per-replica lag on a leader or sync-session progress on a replica.
fn cmd_repl(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("status") => cmd_repl_status(&args[1..]),
        _ => Err("usage: repl status <addr>".into()),
    }
}

fn cmd_repl_status(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, &[], &[])?;
    let [addr] = &o.positional[..] else {
        return Err("usage: repl status <addr>".into());
    };
    let mut client =
        Client::connect(addr.as_str()).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let ok = client
        .repl_status()
        .map_err(|e| format!("ReplStatus request failed: {e}"))?;
    let field =
        |v: &serde_json::Value, key: &str| v.get(key).and_then(|f| f.as_u64()).unwrap_or_default();
    let role = ok
        .get("role")
        .and_then(|r| r.as_str().map(str::to_string))
        .unwrap_or_else(|| "?".into());
    println!(
        "{addr}: {role}, journal offset {}, log id {:#010x}",
        field(&ok, "offset"),
        field(&ok, "log_id")
    );
    if let Some(leader) = ok.get("leader").filter(|l| !l.is_null()) {
        println!("leader: {}", leader.as_str().unwrap_or("?"));
    }
    if role == "replica" {
        if let Some(sync) = ok.get("sync") {
            let flag = |key: &str| sync.get(key).and_then(|b| b.as_bool()).unwrap_or_default();
            println!(
                "sync: connected {} caught_up {} offset {}/{} · {} fetches, {} records, \
                 {} files, {} bootstraps",
                flag("connected"),
                flag("caught_up"),
                field(&sync, "offset"),
                field(&sync, "leader_len"),
                field(&sync, "fetches"),
                field(&sync, "records_applied"),
                field(&sync, "files_fetched"),
                field(&sync, "bootstraps"),
            );
            if let Some(err) = sync.get("last_error").filter(|e| !e.is_null()) {
                println!("last error: {}", err.as_str().unwrap_or("?"));
            }
        }
    }
    let replicas = ok
        .get("replicas")
        .and_then(|r| r.as_array())
        .unwrap_or_default();
    if !replicas.is_empty() {
        println!(
            "{:<24} {:>12} {:>10} {:>8} {:>8} {:>12}",
            "replica", "offset", "lag", "fetches", "files", "last_seen_ms"
        );
        for r in &replicas {
            println!(
                "{:<24} {:>12} {:>10} {:>8} {:>8} {:>12}",
                r.get("name")
                    .and_then(|n| n.as_str().map(str::to_string))
                    .unwrap_or_else(|| "?".into()),
                field(r, "offset"),
                field(r, "lag"),
                field(r, "fetches"),
                field(r, "files_served"),
                field(r, "last_seen_ms"),
            );
        }
    }
    Ok(())
}
