//! End-to-end tests of the `motivo` command-line tool: every subcommand,
//! driven through the real binary.

use std::path::PathBuf;
use std::process::Command;

fn motivo() -> Command {
    Command::new(env!("CARGO_BIN_EXE_motivo"))
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("motivo-cli-test-{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn motivo");
    assert!(
        out.status.success(),
        "command failed: {:?}\nstdout: {}\nstderr: {}",
        cmd,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn generate_info_convert_roundtrip() {
    let dir = workdir("gen");
    let g = dir.join("g.mtvg");
    let out = run(motivo()
        .args([
            "generate", "--model", "er", "--nodes", "500", "--param", "3", "--seed", "2",
        ])
        .arg("--out")
        .arg(&g));
    assert!(out.contains("500 nodes"), "{out}");
    let info = run(motivo().arg("info").arg(&g));
    assert!(info.contains("nodes        500"), "{info}");
    assert!(info.contains("edges        1500"), "{info}");

    // Text → binary conversion.
    let txt = dir.join("edges.txt");
    std::fs::write(&txt, "0 1\n1 2\n2 0\n# comment\n3 0\n").unwrap();
    let bin = dir.join("small.mtvg");
    run(motivo().arg("convert").arg(&txt).arg(&bin));
    let info = run(motivo().arg("info").arg(&bin));
    assert!(info.contains("nodes        4"), "{info}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exact_names_the_classes() {
    let dir = workdir("exact");
    let g = dir.join("k6.mtvg");
    run(motivo()
        .args([
            "generate", "--model", "lollipop", "--nodes", "10", "--param", "3",
        ])
        .arg("--out")
        .arg(&g));
    let out = run(motivo().arg("exact").arg(&g).args(["-k", "3"]));
    assert!(out.contains("triangle"), "{out}");
    assert!(out.contains("path-3"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn count_reports_ensemble_estimates() {
    let dir = workdir("count");
    let g = dir.join("g.mtvg");
    run(motivo()
        .args([
            "generate", "--model", "ba", "--nodes", "400", "--param", "3", "--seed", "7",
        ])
        .arg("--out")
        .arg(&g));
    let out = run(motivo().arg("count").arg(&g).args([
        "-k",
        "4",
        "--samples",
        "10000",
        "--runs",
        "3",
        "--top",
        "8",
    ]));
    assert!(out.contains("estimated total 4-graphlet copies"), "{out}");
    assert!(out.contains("star-4"), "{out}");
    assert!(out.contains("path-4"), "{out}");
    // AGS variant runs too.
    let out = run(motivo().arg("count").arg(&g).args([
        "-k",
        "4",
        "--samples",
        "10000",
        "--runs",
        "2",
        "--ags",
    ]));
    assert!(out.contains("graphlet"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `count --disk DIR` builds each run in a directory of its own, so at
/// the default thread count, where runs build concurrently, it prints the
/// in-memory estimates and leaves nothing behind in `DIR`.
#[test]
fn count_disk_matches_memory_at_default_threads() {
    let dir = workdir("count-disk");
    let g = dir.join("g.mtvg");
    run(motivo()
        .args([
            "generate", "--model", "ba", "--nodes", "1000", "--param", "3", "--seed", "7",
        ])
        .arg("--out")
        .arg(&g));
    let args = ["-k", "4", "--runs", "6", "--samples", "5000", "--seed", "1"];
    let mem = run(motivo().arg("count").arg(&g).args(args));
    let levels = dir.join("levels");
    let disk = run(motivo()
        .arg("count")
        .arg(&g)
        .args(args)
        .arg("--disk")
        .arg(&levels));
    // The first line reports wall-clock times.
    let estimates = |out: &str| out.lines().skip(1).collect::<Vec<_>>().join("\n");
    assert_eq!(estimates(&mem), estimates(&disk));
    assert!(estimates(&disk).contains("estimated total 4-graphlet copies"));
    let left: Vec<_> = std::fs::read_dir(&levels).unwrap().collect();
    assert!(left.is_empty(), "run directories left behind: {left:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn build_then_sample_from_persisted_urn() {
    let dir = workdir("persist");
    let g = dir.join("g.mtvg");
    run(motivo()
        .args([
            "generate", "--model", "ba", "--nodes", "300", "--param", "3", "--seed", "9",
        ])
        .arg("--out")
        .arg(&g));
    let urn = dir.join("urn");
    let out = run(motivo()
        .arg("build")
        .arg(&g)
        .args(["-k", "4", "--seed", "3", "--table"])
        .arg(&urn));
    assert!(out.contains("built urn"), "{out}");
    assert!(urn.join("table.meta").exists());
    assert!(urn.join("coloring.mtvc").exists());
    let out = run(motivo()
        .arg("sample")
        .arg(&g)
        .arg("--table")
        .arg(&urn)
        .args(["--samples", "20000", "--seed", "4"]));
    assert!(out.contains("samples"), "{out}");
    assert!(out.contains("star-4") || out.contains("path-4"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `build --codec succinct` persists a succinct table, `table stats`
/// reports its compression ratio, and `sample` serves from it
/// transparently.
#[test]
fn succinct_build_table_stats_and_sample() {
    let dir = workdir("codec");
    let g = dir.join("g.mtvg");
    run(motivo()
        .args([
            "generate", "--model", "ba", "--nodes", "400", "--param", "3", "--seed", "8",
        ])
        .arg("--out")
        .arg(&g));
    let plain = dir.join("urn-plain");
    let succ = dir.join("urn-succinct");
    for (codec, urn) in [("plain", &plain), ("succinct", &succ)] {
        let out = run(motivo()
            .arg("build")
            .arg(&g)
            .args(["-k", "5", "--seed", "3", "--codec", codec, "--table"])
            .arg(urn));
        assert!(out.contains(&format!("({codec} codec)")), "{out}");
    }

    // table stats reports the codec and a sub-60% ratio for succinct.
    let out = run(motivo().args(["table", "stats"]).arg(&succ));
    assert!(out.contains("codec=succinct"), "{out}");
    assert!(out.contains("ratio"), "{out}");
    let total_line = out
        .lines()
        .find(|l| l.trim_start().starts_with("total"))
        .expect("total row");
    let ratio: f64 = total_line
        .split_whitespace()
        .last()
        .unwrap()
        .parse()
        .unwrap();
    assert!(ratio <= 0.60, "succinct/plain ratio {ratio} above 60%");
    let out = run(motivo().args(["table", "stats"]).arg(&plain));
    assert!(out.contains("codec=plain"), "{out}");

    // Sampling from both persisted urns with one seed is identical output.
    let sample = |urn: &std::path::Path| {
        run(motivo()
            .arg("sample")
            .arg(&g)
            .arg("--table")
            .arg(urn)
            .args(["--samples", "20000", "--seed", "4", "--threads", "2"]))
    };
    let (sp, ss) = (sample(&plain), sample(&succ));
    // Strip the timing line (wall clock differs); the estimates must match.
    let tail = |s: &str| s.lines().skip(1).map(String::from).collect::<Vec<_>>();
    assert_eq!(tail(&sp), tail(&ss), "codec changed sampled estimates");
    // An invalid codec fails cleanly.
    let out = motivo()
        .arg("build")
        .arg(&g)
        .args(["-k", "4", "--codec", "bogus", "--table"])
        .arg(dir.join("x"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_build_list_query_gc_flow() {
    let dir = workdir("store");
    let g = dir.join("g.mtvg");
    run(motivo()
        .args([
            "generate", "--model", "ba", "--nodes", "250", "--param", "3", "--seed", "5",
        ])
        .arg("--out")
        .arg(&g));
    let repo = dir.join("repo");

    // First build creates urn-0; an identical request reuses it.
    let out = run(motivo()
        .args(["store", "build"])
        .arg(&g)
        .args(["-k", "4", "--seed", "2", "--store"])
        .arg(&repo));
    assert!(out.contains("built urn-0"), "{out}");
    assert!(repo.join("journal.log").exists());
    assert!(repo.join("urns/urn-0/table.meta").exists());
    let out = run(motivo()
        .args(["store", "build"])
        .arg(&g)
        .args(["-k", "4", "--seed", "2", "--store"])
        .arg(&repo));
    assert!(out.contains("reused urn-0"), "{out}");

    let out = run(motivo().args(["store", "list", "--store"]).arg(&repo));
    assert!(out.contains("urn-0"), "{out}");
    assert!(out.contains("built"), "{out}");
    assert!(out.contains("1 urns, 1 graphs"), "{out}");

    // Query without resupplying the graph: the store owns it.
    let out = run(motivo()
        .args(["store", "query", "urn-0", "--store"])
        .arg(&repo)
        .args(["--samples", "20000", "--seed", "3"]));
    assert!(out.contains("samples"), "{out}");
    assert!(out.contains("star-4") || out.contains("path-4"), "{out}");

    let out = run(motivo().args(["store", "gc", "--store"]).arg(&repo));
    assert!(out.contains("journal bytes compacted"), "{out}");
    assert!(repo.join("MANIFEST").exists());

    // Unknown urn fails cleanly.
    let out = motivo()
        .args(["store", "query", "urn-9", "--store"])
        .arg(&repo)
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = motivo().arg("bogus").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

/// Bad input — unknown flags, flags missing their value, unparseable
/// values, missing files, bad urn ids — exits 1 with a one-line `error:`
/// on stderr, never a panic with a backtrace.
#[test]
fn bad_input_exits_nonzero_with_one_line_error() {
    let dir = workdir("badinput");
    let g = dir.join("g.mtvg");
    run(motivo()
        .args([
            "generate", "--model", "er", "--nodes", "120", "--param", "2",
        ])
        .arg("--out")
        .arg(&g));

    let g_str = g.to_str().unwrap();
    let cases: Vec<(Vec<&str>, &str)> = vec![
        // Unknown flags are rejected, not silently ignored.
        (
            vec!["count", g_str, "-k", "4", "--bogus", "1"],
            "unknown flag --bogus",
        ),
        (vec!["generate", "--nodse", "100"], "unknown flag --nodse"),
        (
            vec!["serve", "--store", "x", "--loud"],
            "unknown flag --loud",
        ),
        // A value flag at the end of the line has no value.
        (vec!["count", g_str, "-k"], "requires a value"),
        // Unparseable values are an error, not a silent default.
        (
            vec!["count", g_str, "-k", "4", "--samples", "abc"],
            "invalid value for --samples",
        ),
        (
            vec!["generate", "--nodes", "many", "--out", "x.mtvg"],
            "invalid value for --nodes",
        ),
        (
            vec!["exact", g_str, "-k", "banana"],
            "invalid value for --k",
        ),
        // Missing files fail cleanly.
        (vec!["info", "no-such-graph.mtvg"], "cannot load graph"),
        (
            vec!["sample", "no-such.mtvg", "--table", "nope"],
            "cannot load graph",
        ),
        // Malformed client requests fail before any connection attempt.
        (vec!["client", "127.0.0.1:1", "{not json"], "not valid JSON"),
        // Bad urn ids and codecs.
        (vec!["store", "query", "urn-x"], "usage: store query"),
        (
            vec!["build", g_str, "-k", "4", "--codec", "zip", "--table", "t"],
            "unknown codec",
        ),
    ];
    for (args, needle) in cases {
        let out = motivo().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: stderr was {stderr:?}");
        assert!(
            !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
            "{args:?} panicked: {stderr:?}"
        );
        assert_eq!(
            stderr.lines().count(),
            1,
            "{args:?}: expected a one-line error, got {stderr:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `client -` reads the request from stdin; malformed input exits 1 with
/// a one-line error before any connection attempt (so no server needed).
#[test]
fn client_stdin_malformed_input_fails_cleanly() {
    use std::io::Write;
    use std::process::Stdio;
    let cases: Vec<(Vec<&str>, &str, &str)> = vec![
        // Bad JSON on stdin.
        (
            vec!["client", "127.0.0.1:1", "-"],
            "{not json",
            "not valid JSON",
        ),
        // Valid JSON, but --batch needs an array.
        (
            vec!["client", "127.0.0.1:1", "-", "--batch"],
            r#"{"type":"Ping"}"#,
            "expects a JSON array",
        ),
        // Empty stdin is not a request.
        (vec!["client", "127.0.0.1:1", "-"], "", "not valid JSON"),
    ];
    for (args, stdin, needle) in cases {
        let mut child = motivo()
            .args(&args)
            .stdin(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        child
            .stdin
            .take()
            .unwrap()
            .write_all(stdin.as_bytes())
            .unwrap();
        let out = child.wait_with_output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: stderr was {stderr:?}");
        assert_eq!(
            stderr.lines().count(),
            1,
            "{args:?}: expected a one-line error, got {stderr:?}"
        );
    }
}

#[test]
fn missing_required_flag_fails() {
    let dir = workdir("missing");
    let g = dir.join("g.mtvg");
    run(motivo()
        .args([
            "generate", "--model", "er", "--nodes", "100", "--param", "2",
        ])
        .arg("--out")
        .arg(&g));
    let out = motivo().arg("count").arg(&g).output().unwrap();
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

/// `motivo stats <addr>` renders the per-kind latency table from a live
/// daemon, and `--raw` dumps the Prometheus-style text body.
#[test]
fn stats_command_reports_per_kind_latencies() {
    use std::io::BufRead;

    let dir = workdir("stats");
    let g = dir.join("g.mtvg");
    run(motivo()
        .args([
            "generate", "--model", "ba", "--nodes", "200", "--param", "3", "--seed", "5",
        ])
        .arg("--out")
        .arg(&g));
    let store = dir.join("store");
    let mut build = motivo();
    build.args(["store", "build"]).arg(&g).args(["-k", "4"]);
    run(build.arg("--store").arg(&store));

    let mut serve = motivo()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .arg("--store")
        .arg(&store)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut lines = std::io::BufReader::new(serve.stdout.take().unwrap()).lines();
    let first = lines.next().expect("serve banner").unwrap();
    let addr = first
        .strip_prefix("listening on ")
        .expect(&first)
        .to_string();

    for seed in 0..3 {
        let req = format!(r#"{{"type":"Sample","urn":0,"samples":500,"seed":{seed}}}"#);
        run(motivo().args(["client", &addr, &req]));
    }
    let table = run(motivo().args(["stats", &addr]));
    assert!(table.contains("uptime:"), "{table}");
    assert!(table.contains("Sample"), "{table}");
    assert!(table.contains("p99_us"), "{table}");
    assert!(table.contains("service: count"), "{table}");
    let raw = run(motivo().args(["stats", &addr, "--raw"]));
    assert!(raw.contains("motivo_server_requests_sample 3"), "{raw}");
    assert!(raw.contains("# TYPE"), "{raw}");

    run(motivo().args(["client", &addr, r#"{"type":"Shutdown"}"#]));
    let status = serve.wait().expect("serve exits");
    assert!(status.success());
    std::fs::remove_dir_all(&dir).ok();
}

/// A rebuild that fails half-way through a table directory leaves no urn
/// there that loads: never new level files under the old `urn.meta`. A
/// directory planted where level 3 is sealed is the fault.
#[test]
fn failed_rebuild_leaves_no_loadable_stale_urn() {
    let dir = workdir("rebuild-fault");
    let g = dir.join("g.mtvg");
    run(motivo()
        .args([
            "generate", "--model", "ba", "--nodes", "300", "--param", "3", "--seed", "9",
        ])
        .arg("--out")
        .arg(&g));
    let table = dir.join("urn");
    let build = |seed: &str| {
        let mut cmd = motivo();
        cmd.arg("build").arg(&g).args(["-k", "4", "--seed", seed]);
        cmd.args(["--build-mem-bytes", "4096", "--table"])
            .arg(&table);
        cmd
    };
    let sample = || {
        let mut cmd = motivo();
        cmd.arg("sample").arg(&g).arg("--table").arg(&table);
        cmd.args(["--samples", "1000"]);
        cmd
    };
    run(&mut build("3"));
    run(&mut sample());
    std::fs::create_dir(table.join("level-3.mtvb.new")).unwrap();
    assert!(!build("4").output().unwrap().status.success());
    // Refused with a one-line error: a table mixing the two colorings
    // would load, and the sampler would panic on it.
    let out = sample().output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot load urn"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The out-of-core path end to end: a build under a tiny memtable budget
/// must report its spill rounds, leave no `*.new` or `*.run*` file in the
/// table directory it builds into, produce level files byte-identical to
/// the unbudgeted build, and `table stats` must surface the block counts
/// and build history.
#[test]
fn budgeted_build_matches_unbudgeted_byte_for_byte() {
    let dir = workdir("oom");
    let g = dir.join("g.mtvg");
    run(motivo()
        .args([
            "generate", "--model", "ba", "--nodes", "300", "--param", "3", "--seed", "9",
        ])
        .arg("--out")
        .arg(&g));
    let reference = dir.join("urn-ref");
    let budgeted = dir.join("urn-budget");
    let out = run(motivo()
        .arg("build")
        .arg(&g)
        .args(["-k", "4", "--seed", "3", "--codec", "succinct", "--table"])
        .arg(&reference));
    assert!(out.contains("spill runs: 0 "), "{out}");
    let out = run(motivo()
        .arg("build")
        .arg(&g)
        .args(["-k", "4", "--seed", "3", "--codec", "succinct"])
        .args(["--build-mem-bytes", "4096", "--table"])
        .arg(&budgeted));
    let spills: u64 = out
        .lines()
        .find_map(|l| l.strip_prefix("spill runs: "))
        .and_then(|rest| rest.split_whitespace().next())
        .expect("spill line")
        .parse()
        .expect("spill count");
    assert!(spills >= 2, "4 KiB budget must force ≥2 spills: {out}");
    // The same check as CI's oom-smoke job: sealing and saving leave no
    // temporary file behind.
    let leftovers: Vec<String> = std::fs::read_dir(&budgeted)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".new") || name.contains(".run"))
        .collect();
    assert!(leftovers.is_empty(), "temporary files left: {leftovers:?}");
    for h in 1..=4 {
        let a = std::fs::read(reference.join(format!("level-{h}.mtvb"))).unwrap();
        let b = std::fs::read(budgeted.join(format!("level-{h}.mtvb"))).unwrap();
        assert_eq!(a, b, "level {h} diverged between budgeted and unbudgeted");
    }
    let stats = run(motivo().args(["table", "stats"]).arg(&budgeted));
    assert!(stats.contains("blocks"), "{stats}");
    assert!(stats.contains("build history:"), "{stats}");
    let history = stats
        .lines()
        .find(|l| l.starts_with("build history:"))
        .unwrap()
        .to_string();
    assert!(
        history.contains(&format!("{spills} spill runs")),
        "{history} vs {spills}"
    );
}
