//! Golden wire bytes: literal request and response texts for a fixed
//! graph, build and seed set.
//!
//! The byte-identity tests in `inprocess.rs` compare the wire against
//! [`proto::estimates_json`] from the same build, so a marshalling change
//! that moved both sides at once would still pass them. These literals do
//! not move with the code: any change to a key, its order, a number's
//! rendering or a default shows up here as a diff.

use motivo_server::proto::{ReplTarget, Request};
use motivo_server::{Client, ServeOptions, Server};
use motivo_store::{UrnId, UrnStore};
use serde_json::json;
use std::sync::Arc;

/// `Hello`, answered inline; everything in it is static for a build.
const HELLO: &str = concat!(
    r#"{"id":1,"ok":{"server":"motivo 0.1.0","proto_version":1,"kinds":["#,
    r#""Ags","Batch","Build","Hello","ListUrns","Metrics","NaiveEstimates","Ping","Promote","#,
    r#""ReplFetch","ReplFile","ReplFiles","ReplManifest","ReplStatus","Sample","Shutdown","Stats"],"#,
    r#""features":["batch","pipelining","query_cache","replication"],"#,
    r#""max_frame":8388608,"max_batch":1024,"max_pipeline":128}}"#,
);

/// `Build` with `"wait": true` on a fresh store.
const BUILD: &str = r#"{"id":2,"ok":{"urn":"urn-0","status":"built"}}"#;

/// `ListUrns` after the build.
const LIST_URNS: &str = concat!(
    r#"{"id":3,"ok":{"urns":["#,
    r#"{"id":"urn-0","k":4,"seed":2,"codec":"plain","lambda":null,"status":"built","table_bytes":41660,"records":647,"fingerprint":"2cd8b21ec9622285"}],"graphs":1}}"#,
);

/// Seeded `NaiveEstimates`.
const NAIVE: &str = concat!(
    r#"{"id":4,"ok":{"k":4,"samples":3000,"total_count":87161.2154074074,"classes":["#,
    r#"{"graphlet":"path-4","occurrences":1291,"colorful":4130.339333333333,"count":44056.95288888889,"frequency":0.5054651048973865},"#,
    r#"{"graphlet":"4-cycle","occurrences":77,"colorful":61.58716666666667,"count":656.9297777777778,"frequency":0.0075369506346047175},"#,
    r#"{"graphlet":"star-4","occurrences":1067,"colorful":3413.688666666667,"count":36412.679111111116,"frequency":0.4177624066038044},"#,
    r#"{"graphlet":"paw","occurrences":511,"colorful":544.9531111111111,"count":5812.833185185184,"frequency":0.0666905934940781},"#,
    r#"{"graphlet":"diamond","occurrences":50,"colorful":19.995833333333334,"count":213.2888888888889,"frequency":0.0024470618943521812},"#,
    r#"{"graphlet":"4-clique","occurrences":4,"colorful":0.7998333333333333,"count":8.531555555555554,"frequency":0.00009788247577408724}]}}"#,
);

/// Seeded `Ags` with explicit knobs.
const AGS: &str = concat!(
    r#"{"id":5,"ok":{"estimates":{"k":4,"samples":3000,"total_count":87278.63673934116,"classes":["#,
    r#"{"graphlet":"star-4","occurrences":1260,"colorful":3554.88,"count":37918.72,"frequency":0.43445591517709853},"#,
    r#"{"graphlet":"paw","occurrences":543,"colorful":609.3489796499218,"count":6499.722449599166,"frequency":0.07447094377757842},"#,
    r#"{"graphlet":"diamond","occurrences":62,"colorful":26.73678515439863,"count":285.19237498025205,"frequency":0.0032676080382875706},"#,
    r#"{"graphlet":"4-clique","occurrences":5,"colorful":1.0780961755805898,"count":11.499692539526292,"frequency":0.00013175838864062784},"#,
    r#"{"graphlet":"path-4","occurrences":1051,"colorful":3916.726666666667,"count":41778.41777777778,"frequency":0.47867862444448567},"#,
    r#"{"graphlet":"4-cycle","occurrences":79,"colorful":73.60166666666667,"count":785.0844444444446,"frequency":0.008995150173909222}]},"switches":5,"covered":5,"shape_usage":[0,1500,1500,0]}}"#,
);

/// Seeded `Sample` (a canonical-code tally).
const SAMPLE: &str = concat!(
    r#"{"id":6,"ok":{"samples":600,"classes":["#,
    r#"{"code":"0x4000000000000000000000000000032","graphlet":"path-4","occurrences":263},"#,
    r#"{"code":"0x4000000000000000000000000000033","graphlet":"4-cycle","occurrences":14},"#,
    r#"{"code":"0x4000000000000000000000000000038","graphlet":"star-4","occurrences":206},"#,
    r#"{"code":"0x400000000000000000000000000003c","graphlet":"paw","occurrences":104},"#,
    r#"{"code":"0x400000000000000000000000000003e","graphlet":"diamond","occurrences":12},"#,
    r#"{"code":"0x400000000000000000000000000003f","graphlet":"4-clique","occurrences":1}]}}"#,
);

/// Sends one raw request and returns the response envelope text exactly
/// as the server framed it.
fn call(client: &mut Client, body: &str) -> String {
    client.send_raw(body).unwrap()
}

#[test]
fn served_payloads_match_golden_bytes() {
    let dir = std::env::temp_dir().join("motivo-server-test-golden");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let graph_path = dir.join("g.mtvg");
    let graph = motivo_graph::generators::barabasi_albert(200, 3, 5);
    motivo_graph::io::save_binary(&graph, &graph_path).unwrap();
    let store = Arc::new(UrnStore::open(dir.join("store")).unwrap());
    let opts = ServeOptions::builder().workers(2).build().unwrap();
    let server = Server::bind(store, "127.0.0.1:0", opts).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    assert_eq!(call(&mut client, r#"{"id":1,"type":"Hello"}"#), HELLO);
    let build = json!({
        "id": 2, "type": "Build", "graph": graph_path.to_str().unwrap(),
        "k": 4, "seed": 2, "wait": true,
    });
    assert_eq!(
        call(&mut client, &serde_json::to_string(&build).unwrap()),
        BUILD
    );
    assert_eq!(
        call(&mut client, r#"{"id":3,"type":"ListUrns"}"#),
        LIST_URNS
    );
    assert_eq!(
        call(
            &mut client,
            r#"{"id":4,"type":"NaiveEstimates","urn":0,"samples":3000,"seed":3}"#
        ),
        NAIVE
    );
    assert_eq!(
        call(
            &mut client,
            r#"{"id":5,"type":"Ags","urn":"urn-0","max_samples":3000,"c_bar":50,"epoch":500,"idle_limit":800,"seed":5,"threads":1}"#
        ),
        AGS
    );
    assert_eq!(
        call(
            &mut client,
            r#"{"id":6,"type":"Sample","urn":0,"samples":600,"seed":1}"#
        ),
        SAMPLE
    );

    client.shutdown().unwrap();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// The canonical request text of every variant: what the typed client
/// puts on the wire, and what the cache key is derived from.
#[test]
fn request_texts_match_golden_bytes() {
    let batch = serde_json::from_str(r#"{"type":"Batch","requests":[{"type":"Ping"}]}"#).unwrap();
    let batch = Request::parse(&batch).unwrap();
    let cases: Vec<(Request, &str)> = vec![
        (Request::Ping, r#"{"type":"Ping"}"#),
        (
            Request::Hello {
                proto_version: 1,
                features: vec!["batch".into()],
            },
            r#"{"type":"Hello","proto_version":1,"features":["batch"]}"#,
        ),
        (
            Request::Hello {
                proto_version: motivo_server::PROTO_VERSION,
                features: Vec::new(),
            },
            r#"{"type":"Hello","proto_version":1,"features":[]}"#,
        ),
        (Request::ListUrns, r#"{"type":"ListUrns"}"#),
        (
            Request::NaiveEstimates {
                urn: UrnId(3),
                samples: 500,
                seed: 7,
                threads: 2,
            },
            r#"{"type":"NaiveEstimates","urn":3,"samples":500,"seed":7,"threads":2}"#,
        ),
        (
            Request::Ags {
                urn: UrnId(1),
                max_samples: 1000,
                c_bar: None,
                epoch: None,
                idle_limit: None,
                seed: 0,
                threads: 0,
            },
            r#"{"type":"Ags","urn":1,"max_samples":1000,"seed":0,"threads":0}"#,
        ),
        (
            Request::Ags {
                urn: UrnId(1),
                max_samples: 1000,
                c_bar: Some(40),
                epoch: Some(64),
                idle_limit: Some(9),
                seed: 3,
                threads: 1,
            },
            r#"{"type":"Ags","urn":1,"max_samples":1000,"seed":3,"threads":1,"c_bar":40,"epoch":64,"idle_limit":9}"#,
        ),
        (
            Request::Sample {
                urn: UrnId(2),
                samples: 64,
                seed: 1,
                threads: 0,
            },
            r#"{"type":"Sample","urn":2,"samples":64,"seed":1,"threads":0}"#,
        ),
        (Request::Stats { urn: None }, r#"{"type":"Stats"}"#),
        (
            Request::Stats {
                urn: Some(UrnId(4)),
            },
            r#"{"type":"Stats","urn":4}"#,
        ),
        (Request::Metrics, r#"{"type":"Metrics"}"#),
        (
            Request::Build {
                graph: "g.mtvg".into(),
                k: 5,
                seed: 11,
                lambda: None,
                codec: motivo_core::RecordCodec::Plain,
                wait: false,
            },
            r#"{"type":"Build","graph":"g.mtvg","k":5,"seed":11,"codec":"plain","wait":false}"#,
        ),
        (
            Request::Build {
                graph: "g.txt".into(),
                k: 4,
                seed: 0,
                lambda: Some(0.5),
                codec: motivo_core::RecordCodec::Succinct,
                wait: true,
            },
            r#"{"type":"Build","graph":"g.txt","k":4,"seed":0,"codec":"succinct","wait":true,"lambda":0.5}"#,
        ),
        (batch, r#"{"type":"Batch","requests":[{"type":"Ping"}]}"#),
        (Request::Shutdown, r#"{"type":"Shutdown"}"#),
        (
            Request::ReplFetch {
                replica: "r1".into(),
                offset: 96,
                prefix_crc: 0xdead_beef,
                log_id: 42,
            },
            r#"{"type":"ReplFetch","replica":"r1","offset":96,"prefix_crc":3735928559,"log_id":42}"#,
        ),
        (Request::ReplManifest, r#"{"type":"ReplManifest"}"#),
        (
            Request::ReplFiles {
                target: ReplTarget::Urn(UrnId(1)),
                replica: None,
            },
            r#"{"type":"ReplFiles","urn":1}"#,
        ),
        (
            Request::ReplFiles {
                target: ReplTarget::Graph(0xabcd),
                replica: Some("r2".into()),
            },
            r#"{"type":"ReplFiles","graph":"000000000000abcd","replica":"r2"}"#,
        ),
        (
            Request::ReplFile {
                target: ReplTarget::Urn(UrnId(1)),
                name: "table.bin".into(),
                offset: 4096,
                replica: Some("r1".into()),
            },
            r#"{"type":"ReplFile","name":"table.bin","offset":4096,"urn":1,"replica":"r1"}"#,
        ),
        (Request::ReplStatus, r#"{"type":"ReplStatus"}"#),
        (Request::Promote, r#"{"type":"Promote"}"#),
    ];
    for (req, golden) in cases {
        let text = serde_json::to_string(&req.to_value()).unwrap();
        assert_eq!(text, golden, "{req:?}");
    }
}
