//! `dpsyn-serve` integration tests: the wire API end to end, admission
//! control, fault isolation, and — the heart of the matter — the
//! kill-and-restart matrix: the real binary is crashed at **every** ledger
//! failpoint mid-charge and restarted, and the recovered budgets must match
//! an *independent oracle replay* of the pre-restart ledger bytes bit for
//! bit.
//!
//! The oracle here deliberately re-implements record parsing and the
//! compensated accumulation from scratch (no `dpsyn_noise::ledger` calls),
//! so agreement is evidence about the protocol, not about one codebase
//! agreeing with itself.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dpsyn::server::{start, Json, ServerConfig};

// ---------------------------------------------------------------------------
// Wire helpers
// ---------------------------------------------------------------------------

/// One request over a fresh connection; `Err` when the server died mid-call
/// (expected at failpoints).
fn try_call(addr: &str, method: &str, path: &str, body: &str) -> std::io::Result<(u16, Json)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    // The body write may race an early error response (e.g. 413) — a write
    // failure is fine as long as a response can still be read.
    let _ = stream.write_all(body.as_bytes());
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status line"))?;
    let body = raw
        .split("\r\n\r\n")
        .nth(1)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no body"))?;
    let json =
        Json::parse(body).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    Ok((status, json))
}

/// Like [`try_call`] but the server is expected to be alive.
fn call(addr: &str, method: &str, path: &str, body: &str) -> (u16, Json) {
    try_call(addr, method, path, body).expect("server alive")
}

fn spent_bits(body: &Json) -> (String, String) {
    let spent = body
        .get("budget")
        .and_then(|b| b.get("spent"))
        .expect("budget.spent");
    (
        spent
            .get("epsilon_bits")
            .and_then(Json::as_str)
            .unwrap()
            .to_string(),
        spent
            .get("delta_bits")
            .and_then(Json::as_str)
            .unwrap()
            .to_string(),
    )
}

fn remaining_epsilon(body: &Json) -> f64 {
    body.get("budget")
        .and_then(|b| b.get("remaining"))
        .and_then(|r| r.get("epsilon"))
        .and_then(Json::as_f64)
        .expect("budget.remaining.epsilon")
}

const TENANT_BODY: &str = r#"{"v":1,"tenant":"acme","epsilon":1.0,"delta":1e-6}"#;
const DATASET_BODY: &str = r#"{"v":1,"name":"demo","domains":[8,8,8],
    "relations":[{"attrs":[0,1],"tuples":[[[1,2],3],[[4,2],1],[[5,6],2]]},
                 {"attrs":[1,2],"tuples":[[[2,7],2],[[6,0],1]]}]}"#;

fn release_body(epsilon: f64, delta: f64) -> String {
    format!(
        r#"{{"v":1,"tenant":"acme","dataset":"demo","mechanism":"two_table",
            "epsilon":{epsilon},"delta":{delta},"seed":7,"workload_size":16,"workload_seed":7}}"#
    )
}

// ---------------------------------------------------------------------------
// Child-process helpers (the real binary, for crash tests)
// ---------------------------------------------------------------------------

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpsyn-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Spawns the real `dpsyn_serve` binary against `data_dir`, optionally with
/// a failpoint armed, and waits for its `endpoint` file.
fn spawn_server(data_dir: &Path, failpoint: Option<&str>) -> (Child, String) {
    let endpoint = data_dir.join("endpoint");
    let _ = std::fs::remove_file(&endpoint);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dpsyn_serve"));
    cmd.env("DPSYN_DATA_DIR", data_dir)
        .env("DPSYN_ADDR", "127.0.0.1:0")
        .env_remove("DPSYN_FAILPOINT")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(site) = failpoint {
        cmd.env("DPSYN_FAILPOINT", site);
    }
    let child = cmd.spawn().expect("spawn dpsyn_serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&endpoint) {
            if !addr.is_empty() {
                break addr;
            }
        }
        assert!(
            Instant::now() < deadline,
            "server never wrote its endpoint file"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    (child, addr)
}

/// Waits (bounded) for a child to exit, returning its status.
fn wait_exit(child: &mut Child) -> std::process::ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        assert!(Instant::now() < deadline, "child did not exit in time");
        std::thread::sleep(Duration::from_millis(10));
    }
}

// ---------------------------------------------------------------------------
// The independent oracle
// ---------------------------------------------------------------------------

/// Neumaier-compensated sum, re-implemented here on purpose (see module
/// docs): must perform the same operations in the same order as the
/// server's accumulation to predict its results bit for bit.
#[derive(Clone, Copy, Default)]
struct OracleSum {
    sum: f64,
    compensation: f64,
}

impl OracleSum {
    fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.compensation += (self.sum - t) + x;
        } else {
            self.compensation += (x - t) + self.sum;
        }
        self.sum = t;
    }
    fn value(self) -> f64 {
        self.sum + self.compensation
    }
}

/// Replays raw ledger bytes by hand and returns the tenant's post-recovery
/// spend — committed charges in record order, then pending intents
/// (conservatively spent) in sequence order — as exact bit patterns.
///
/// Trailing bytes after the last newline, or an unparseable final line, are
/// a torn tail and dropped, mirroring the server's stated recovery policy.
fn oracle_spent_bits(bytes: &[u8], tenant: &str) -> (String, String) {
    let text_lines: Vec<&[u8]> = {
        let mut lines = Vec::new();
        let mut start = 0usize;
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'\n' {
                lines.push(&bytes[start..i]);
                start = i + 1;
            }
        }
        // Bytes after the final newline: torn tail, ignored.
        lines
    };
    let mut pending: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    let mut eps = OracleSum::default();
    let mut delta = OracleSum::default();
    let last = text_lines.len();
    for (idx, raw) in text_lines.iter().enumerate() {
        let parsed = std::str::from_utf8(raw).ok().and_then(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            // fields[0] is the CRC; the oracle checks shape, not checksums
            // (checksums are the server's concern — the oracle answers
            // "what spend do these bytes imply").
            match fields.as_slice() {
                ["G" | "I" | "C" | "A", ..] => None, // missing CRC prefix: malformed
                [_crc, "G", t, _e, _d] if *t == tenant => Some(("G", 0u64, 0.0, 0.0)),
                [_crc, "I", t, seq, e, d, _label] if *t == tenant => {
                    let seq = seq.parse().ok()?;
                    let e = f64::from_bits(u64::from_str_radix(e, 16).ok()?);
                    let d = f64::from_bits(u64::from_str_radix(d, 16).ok()?);
                    Some(("I", seq, e, d))
                }
                [_crc, "C", t, seq] if *t == tenant => Some(("C", seq.parse().ok()?, 0.0, 0.0)),
                [_crc, "A", t, seq] if *t == tenant => Some(("A", seq.parse().ok()?, 0.0, 0.0)),
                [_crc, "G" | "I" | "C" | "A", ..] => Some(("other", 0, 0.0, 0.0)),
                _ => None,
            }
        });
        match parsed {
            Some(("I", seq, e, d)) => {
                pending.insert(seq, (e, d));
            }
            Some(("C", seq, _, _)) => {
                if let Some((e, d)) = pending.remove(&seq) {
                    eps.add(e);
                    delta.add(d);
                }
            }
            Some(("A", seq, _, _)) => {
                pending.remove(&seq);
            }
            Some(_) => {}
            None if idx + 1 == last => {} // torn final line: dropped
            None => panic!("oracle: malformed non-final record {}", idx + 1),
        }
    }
    // Conservative resolution of whatever is still pending, in seq order.
    for (_, (e, d)) in pending {
        eps.add(e);
        delta.add(d);
    }
    (
        format!("{:016x}", eps.value().to_bits()),
        format!("{:016x}", delta.value().to_bits()),
    )
}

// ---------------------------------------------------------------------------
// In-process wire tests (fast: no child process)
// ---------------------------------------------------------------------------

#[test]
fn wire_end_to_end_admission_and_reproducibility() {
    let dir = temp_dir("e2e");
    let handle = start(ServerConfig::new(&dir)).unwrap();
    let addr = handle.addr.to_string();

    // Health before any state.
    let (status, body) = call(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(body.get("ok"), Some(&Json::Bool(true)));

    // Tenant + dataset.
    assert_eq!(call(&addr, "POST", "/v1/tenant", TENANT_BODY).0, 200);
    assert_eq!(call(&addr, "POST", "/v1/dataset", DATASET_BODY).0, 200);

    // Releases are reproducible: same seed, same answers, bit for bit.
    let (s1, r1) = call(&addr, "POST", "/v1/release", &release_body(0.3, 1e-7));
    let (s2, r2) = call(&addr, "POST", "/v1/release", &release_body(0.3, 1e-7));
    assert_eq!((s1, s2), (200, 200), "{r1:?} {r2:?}");
    assert_eq!(
        r1.get("result").and_then(|r| r.get("answers")),
        r2.get("result").and_then(|r| r.get("answers")),
        "same seed must answer identically"
    );

    // Admission control: the next 0.5 does not fit 1.0 - 0.6; the refusal
    // costs nothing (remaining unchanged, no pending charge).
    let before = call(&addr, "GET", "/v1/tenant/acme", "").1;
    let (status, body) = call(&addr, "POST", "/v1/release", &release_body(0.5, 1e-7));
    assert_eq!(status, 429, "{body:?}");
    assert_eq!(
        body.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("budget_exhausted")
    );
    let after = call(&addr, "GET", "/v1/tenant/acme", "").1;
    assert_eq!(
        spent_bits(&before),
        spent_bits(&after),
        "a 429 must cost nothing"
    );
    assert_eq!(remaining_epsilon(&after), remaining_epsilon(&before));

    // A fitting charge still goes through afterwards.
    let (status, _) = call(&addr, "POST", "/v1/release", &release_body(0.4, 1e-7));
    assert_eq!(status, 200);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A served release replies with what the library computes in process:
/// `Session::release` plus the context-free `SyntheticRelease::answer_all`
/// over the same data, seed and workload give the same answers, noisy
/// total and `Δ̃`.  The server answers from the query weights its release
/// just memoised; a second workload replaces them, and the first comes
/// back after it.
#[test]
fn served_releases_answer_like_the_library() {
    use dpsyn::noise::seeded_rng;
    use dpsyn::prelude::*;

    let dir = temp_dir("library");
    let handle = start(ServerConfig::new(&dir)).unwrap();
    let addr = handle.addr.to_string();
    let tenant = r#"{"v":1,"tenant":"lib","epsilon":100.0,"delta":1e-3}"#;
    assert_eq!(call(&addr, "POST", "/v1/tenant", tenant).0, 200);
    assert_eq!(call(&addr, "POST", "/v1/dataset", DATASET_BODY).0, 200);

    // DATASET_BODY, built as the server builds an upload.
    let schema = Schema::new((0..3).map(|i| Attribute::new(format!("a{i}"), 8)).collect());
    let query = JoinQuery::new(
        schema,
        vec![vec![AttrId(0), AttrId(1)], vec![AttrId(1), AttrId(2)]],
    )
    .unwrap();
    let mut instance = Instance::empty_for(&query).unwrap();
    for (rel, tuple, count) in [
        (0, [1, 2], 3),
        (0, [4, 2], 1),
        (0, [5, 6], 2),
        (1, [2, 7], 2),
        (1, [6, 0], 1),
    ] {
        instance
            .relation_mut(rel)
            .add(tuple.to_vec(), count)
            .unwrap();
    }
    let session = Session::sequential();
    let params = PrivacyParams::new(0.5, 1e-6).unwrap();
    let (seed, size) = (11, 16);

    for (name, mechanism) in [
        ("two_table", &TwoTable::default() as &dyn Mechanism),
        ("multi_table", &MultiTable::default()),
    ] {
        for workload_seed in [7, 8, 7] {
            let body = format!(
                r#"{{"v":1,"tenant":"lib","dataset":"demo","mechanism":"{name}",
                    "epsilon":0.5,"delta":1e-6,"seed":{seed},"workload_size":{size},
                    "workload_seed":{workload_seed}}}"#
            );
            let (status, reply) = call(&addr, "POST", "/v1/release", &body);
            assert_eq!(status, 200, "{reply:?}");
            let served = reply.get("result").expect("result");

            let workload =
                QueryFamily::random_sign(&query, size, &mut seeded_rng(workload_seed)).unwrap();
            let request = ReleaseRequest::new(&query, &instance, &workload, params).with_seed(seed);
            let release = session.release(mechanism, &request).unwrap();
            let answers = release.answer_all(&workload).unwrap();
            // Compared as wire text: the shortest round-trip form of each
            // number, so equal text means equal bits.
            let field = |key: &str| served.get(key).map(Json::to_json);
            let expected = Json::Arr(answers.values().iter().map(|&a| Json::Num(a)).collect());
            let label = format!("{name} workload_seed {workload_seed}");
            assert_eq!(field("answers"), Some(expected.to_json()), "{label}");
            assert_eq!(
                field("noisy_total"),
                Some(Json::Num(release.noisy_total()).to_json()),
                "{label}"
            );
            assert_eq!(
                field("delta_tilde"),
                Some(Json::Num(release.delta_tilde()).to_json()),
                "{label}"
            );
        }
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The streaming-updates route: a batch posted to a warm dataset drops its
/// warm slot, and a release over the updated dataset is byte-identical to
/// one over a freshly uploaded copy of the same data.
#[test]
fn wire_updates_drop_warm_state_and_preserve_release_bytes() {
    let dir = temp_dir("updates");
    let handle = start(ServerConfig::new(&dir)).unwrap();
    let addr = handle.addr.to_string();
    assert_eq!(call(&addr, "POST", "/v1/tenant", TENANT_BODY).0, 200);
    assert_eq!(call(&addr, "POST", "/v1/dataset", DATASET_BODY).0, 200);

    // Warm the dataset's context with one release.  `multi_table` is the
    // mechanism that memoises the boundary values and RS^β (via residual
    // sensitivity), so it leaves the warm slot the update drops.
    let release = |dataset: &str| {
        release_body(0.2, 1e-7)
            .replace("two_table", "multi_table")
            .replace("\"demo\"", &format!("{dataset:?}"))
    };
    assert_eq!(call(&addr, "POST", "/v1/release", &release("demo")).0, 200);
    let fp_before = call(&addr, "GET", "/v1/dataset/demo", "")
        .1
        .get("fingerprint")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    // A mixed batch: two inserts and a delete.
    let update_body = r#"{"v":1,"updates":[
        {"relation":0,"op":"insert","tuple":[3,2],"count":2},
        {"relation":1,"op":"delete","tuple":[6,0]},
        {"relation":1,"op":"insert","tuple":[2,5]}]}"#;
    let (status, body) = call(&addr, "POST", "/v1/dataset/demo/updates", update_body);
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(body.get("ops").and_then(Json::as_f64), Some(3.0));
    let maintenance = body.get("maintenance").expect("maintenance block");
    // The exact key set, in wire order: adding, dropping or renaming a
    // field is a wire change and must fail here.
    let Json::Obj(fields) = maintenance else {
        panic!("maintenance must be an object: {maintenance:?}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["warm", "relations_touched"]);
    assert_eq!(
        maintenance.get("warm"),
        Some(&Json::Bool(true)),
        "the released-over dataset must have a warm slot to drop"
    );
    assert_eq!(
        maintenance.get("relations_touched").and_then(Json::as_f64),
        Some(2.0)
    );
    assert_eq!(
        body.get("previous_fingerprint").and_then(Json::as_str),
        Some(fp_before.as_str())
    );
    let fp_after = body
        .get("fingerprint")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    assert_ne!(fp_after, fp_before);
    assert_eq!(
        call(&addr, "GET", "/v1/dataset/demo", "")
            .1
            .get("fingerprint")
            .and_then(Json::as_str),
        Some(fp_after.as_str())
    );

    // Release over the updated dataset...
    let (status, warm_release) = call(&addr, "POST", "/v1/release", &release("demo"));
    assert_eq!(status, 200);

    // ...and over a freshly uploaded copy of the *updated* contents.
    let fresh = r#"{"v":1,"name":"demo2","domains":[8,8,8],
        "relations":[{"attrs":[0,1],"tuples":[[[1,2],3],[[3,2],2],[[4,2],1],[[5,6],2]]},
                     {"attrs":[1,2],"tuples":[[[2,5],1],[[2,7],2]]}]}"#;
    assert_eq!(call(&addr, "POST", "/v1/dataset", fresh).0, 200);
    let (status, cold_release) = call(&addr, "POST", "/v1/release", &release("demo2"));
    assert_eq!(status, 200);
    assert_eq!(
        warm_release.get("result"),
        cold_release.get("result"),
        "an updated dataset must release the same bytes as a cold upload"
    );

    // Rejections: a delete that underflows, an unknown dataset, a wrong
    // method, an empty batch — none of them change the dataset.
    let underflow = r#"{"v":1,"updates":[{"relation":0,"op":"delete","tuple":[1,2],"count":9}]}"#;
    let (status, body) = call(&addr, "POST", "/v1/dataset/demo/updates", underflow);
    assert_eq!(status, 400, "{body:?}");
    assert_eq!(
        call(&addr, "POST", "/v1/dataset/nope/updates", update_body).0,
        404
    );
    assert_eq!(call(&addr, "GET", "/v1/dataset/demo/updates", "").0, 405);
    assert_eq!(
        call(
            &addr,
            "POST",
            "/v1/dataset/demo/updates",
            r#"{"v":1,"updates":[]}"#
        )
        .0,
        400
    );
    assert_eq!(
        call(&addr, "GET", "/v1/dataset/demo", "")
            .1
            .get("fingerprint")
            .and_then(Json::as_str),
        Some(fp_after.as_str()),
        "rejected updates must not change the dataset"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wire_rejects_bad_requests_cheaply() {
    let dir = temp_dir("reject");
    let handle = start(ServerConfig::new(&dir)).unwrap();
    let addr = handle.addr.to_string();
    assert_eq!(call(&addr, "POST", "/v1/tenant", TENANT_BODY).0, 200);
    assert_eq!(call(&addr, "POST", "/v1/dataset", DATASET_BODY).0, 200);

    // Version gate.
    let (status, body) = call(
        &addr,
        "POST",
        "/v1/tenant",
        r#"{"v":2,"tenant":"x","epsilon":1.0,"delta":0}"#,
    );
    assert_eq!(status, 400);
    assert_eq!(
        body.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("unsupported_version")
    );

    // The flawed strawmen must not be routable.
    let flawed = release_body(0.1, 1e-8).replace("two_table", "flawed_join_as_one");
    let (status, body) = call(&addr, "POST", "/v1/release", &flawed);
    assert_eq!(status, 400);
    assert_eq!(
        body.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("unknown_mechanism")
    );

    // Unknown tenant / dataset; malformed routes and methods.
    let ghost = release_body(0.1, 1e-8).replace("acme", "ghost");
    assert_eq!(call(&addr, "POST", "/v1/release", &ghost).0, 404);
    let nods = release_body(0.1, 1e-8).replace("demo", "nope");
    assert_eq!(call(&addr, "POST", "/v1/release", &nods).0, 404);
    assert_eq!(call(&addr, "GET", "/v1/unknown", "").0, 404);
    assert_eq!(call(&addr, "DELETE", "/v1/tenant", "").0, 405);
    assert_eq!(call(&addr, "POST", "/v1/tenant", "not json").0, 400);

    // Negative ε is rejected before any ledger write.
    let neg = release_body(-0.5, 1e-8);
    assert_eq!(call(&addr, "POST", "/v1/release", &neg).0, 400);

    // None of the rejections charged anything.
    let view = call(&addr, "GET", "/v1/tenant/acme", "").1;
    assert_eq!(remaining_epsilon(&view), 1.0);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wire_bounds_request_bodies() {
    let dir = temp_dir("bounds");
    let mut config = ServerConfig::new(&dir);
    config.max_body_bytes = 512;
    let handle = start(config).unwrap();
    let addr = handle.addr.to_string();

    let huge = format!(
        r#"{{"v":1,"tenant":"t","epsilon":1.0,"delta":0,"pad":"{}"}}"#,
        "x".repeat(4096)
    );
    let (status, _) = call(&addr, "POST", "/v1/tenant", &huge);
    assert_eq!(status, 413);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// The kill-and-restart failpoint matrix
// ---------------------------------------------------------------------------

/// Crash the real binary at every ledger failpoint mid-charge; recovered
/// budgets must match the independent oracle bit for bit, and each site's
/// conservative semantics must hold.
#[test]
fn killed_at_every_failpoint_recovers_to_oracle_state() {
    // (site, does the 0.3 charge survive the crash as spent?)
    let matrix = [
        ("ledger_pre_intent", false),
        ("ledger_mid_intent", false),
        ("ledger_post_intent", true),
        ("ledger_pre_commit", true),
        ("ledger_mid_commit", true),
        ("ledger_post_commit", true),
    ];
    for (site, charge_survives) in matrix {
        let dir = temp_dir(&format!("fp-{site}"));

        // Phase 1: a clean server; set up a tenant with one committed
        // charge so recovery has non-trivial prior state.
        let (mut child, addr) = spawn_server(&dir, None);
        assert_eq!(
            call(&addr, "POST", "/v1/tenant", TENANT_BODY).0,
            200,
            "{site}"
        );
        assert_eq!(
            call(&addr, "POST", "/v1/dataset", DATASET_BODY).0,
            200,
            "{site}"
        );
        let (status, _) = call(&addr, "POST", "/v1/release", &release_body(0.2, 1e-7));
        assert_eq!(status, 200, "{site}: setup release");
        child.kill().expect("kill setup server");
        let _ = child.wait();

        // Phase 2: restart with the failpoint armed; the next charge must
        // crash the process at the armed instant.
        let (mut child, addr) = spawn_server(&dir, Some(site));
        assert_eq!(
            call(&addr, "POST", "/v1/dataset", DATASET_BODY).0,
            200,
            "{site}"
        );
        let result = try_call(&addr, "POST", "/v1/release", &release_body(0.3, 1e-7));
        assert!(
            result.is_err(),
            "{site}: the armed server must die mid-request, got {result:?}"
        );
        let status = wait_exit(&mut child);
        assert!(!status.success(), "{site}: must have aborted");

        // The oracle reads the post-crash bytes and predicts recovery.
        let bytes = std::fs::read(dir.join("ledger.log")).expect("ledger exists");
        let (oracle_eps, oracle_delta) = oracle_spent_bits(&bytes, "acme");

        // Phase 3: clean restart; recovered spend must equal the oracle's
        // prediction exactly.
        let (mut child, addr) = spawn_server(&dir, None);
        let (status, view) = call(&addr, "GET", "/v1/tenant/acme", "");
        assert_eq!(status, 200, "{site}");
        let (got_eps, got_delta) = spent_bits(&view);
        assert_eq!(got_eps, oracle_eps, "{site}: recovered ε bits != oracle");
        assert_eq!(
            got_delta, oracle_delta,
            "{site}: recovered δ bits != oracle"
        );

        // Site semantics: before the intent is durable the charge vanishes;
        // from the moment it is durable it burns, conservatively.
        let spent_eps = view
            .get("budget")
            .and_then(|b| b.get("spent"))
            .and_then(|s| s.get("epsilon"))
            .and_then(Json::as_f64)
            .unwrap();
        let expected: f64 = if charge_survives { 0.2 + 0.3 } else { 0.2 };
        assert_eq!(
            spent_eps.to_bits(),
            expected.to_bits(),
            "{site}: conservative semantics (spent ε = {spent_eps}, expected {expected})"
        );

        // And the tenant can still spend exactly what genuinely remains.
        let probe = 1.0 - expected;
        let (status, _) = call(&addr, "POST", "/v1/dataset", DATASET_BODY);
        assert_eq!(status, 200, "{site}");
        let (status, _) = call(
            &addr,
            "POST",
            "/v1/release",
            &release_body(probe + 0.05, 1e-8),
        );
        assert_eq!(status, 429, "{site}: over-remaining must be refused");
        let (status, _) = call(&addr, "POST", "/v1/release", &release_body(probe, 1e-8));
        assert_eq!(status, 200, "{site}: exactly-remaining must fit");

        child.kill().expect("kill verify server");
        let _ = child.wait();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// SIGTERM drain
// ---------------------------------------------------------------------------

#[test]
#[cfg(unix)]
fn sigterm_drains_inflight_requests_before_exit() {
    let dir = temp_dir("drain");
    let (mut child, addr) = spawn_server(&dir, None);
    let pid = child.id();

    // A request that is genuinely in flight when the signal lands.
    let slow_addr = addr.clone();
    let slow = std::thread::spawn(move || {
        try_call(
            &slow_addr,
            "POST",
            "/v1/debug/sleep",
            r#"{"v":1,"ms":1500}"#,
        )
    });
    std::thread::sleep(Duration::from_millis(300));

    let status = Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(status.success());

    // The in-flight request completes despite the signal...
    let (status, body) = slow
        .join()
        .unwrap()
        .expect("in-flight request must complete");
    assert_eq!(status, 200);
    assert_eq!(body.get("slept_ms").and_then(Json::as_f64), Some(1500.0));

    // ...and the server then exits cleanly (drained, status 0).
    let exit = wait_exit(&mut child);
    assert!(exit.success(), "SIGTERM exit must be clean, got {exit:?}");

    // New connections are refused after drain.
    assert!(
        TcpStream::connect(&addr).is_err(),
        "listener must be closed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Recovery report surfaces in /healthz
// ---------------------------------------------------------------------------

#[test]
fn healthz_reports_recovery_counters() {
    let dir = temp_dir("health");

    // Crash the real binary mid-commit so recovery has work to do.
    let (mut child, addr) = spawn_server(&dir, Some("ledger_mid_commit"));
    assert_eq!(call(&addr, "POST", "/v1/tenant", TENANT_BODY).0, 200);
    assert_eq!(call(&addr, "POST", "/v1/dataset", DATASET_BODY).0, 200);
    let _ = try_call(&addr, "POST", "/v1/release", &release_body(0.25, 1e-7));
    assert!(!wait_exit(&mut child).success());

    let (mut child, addr) = spawn_server(&dir, None);
    let (status, body) = call(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let recovery = body.get("recovery").expect("recovery block");
    assert!(
        recovery
            .get("truncated_bytes")
            .and_then(Json::as_f64)
            .unwrap()
            > 0.0,
        "the torn commit must have been truncated: {recovery:?}"
    );
    assert_eq!(
        recovery.get("resolved_intents").and_then(Json::as_f64),
        Some(1.0),
        "the orphaned intent must have been conservatively committed"
    );
    child.kill().expect("kill");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
