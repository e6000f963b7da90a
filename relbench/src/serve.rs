//! `serve_mixed`: the release server in process on a temporary data dir
//! (fsync per ledger record), one tenant and one two-table dataset, driven
//! over HTTP by two closed-loop clients:
//!
//! * a reader posting releases, alternating `two_table` and `multi_table`;
//! * a writer alternating update batches with releases.
//!
//! Only the writer knows which version of the dataset each of its releases
//! saw, so its releases are the ones checked against an in-process
//! `Session::release` and scored for accuracy.  The traced run spends the
//! first half of the window untraced and the second half replaying each
//! writer operation on a second in-process `Store` (the mirror), so the
//! difference between the halves is the tracing overhead.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use dpsyn::core::SyntheticRelease;
use dpsyn::datagen::{random_two_table, update_stream, UpdateStreamConfig};
use dpsyn::noise::{seeded_rng, PrivacyParams};
use dpsyn::query::QueryFamily;
use dpsyn::relational::{apply_batch, Instance, JoinQuery, UpdateBatch, UpdateOp};
use dpsyn::server::handlers::{self, mechanism_by_name};
use dpsyn::server::store::LEDGER_FILE;
use dpsyn::server::wire::{CreateDatasetReq, UpdateDatasetReq};
use dpsyn::server::{start, Json, ServerConfig, ServerHandle, Store};
use dpsyn::{ReleaseRequest, Session};

use crate::library::RELEASE_SEEDS;
use crate::replay;
use crate::stats::{linf_rel, median, thread_count};
use crate::trace::Tracer;
use crate::{derive, Args, BoxResult, Outcome};

const TENANT: &str = "bench";
const DATASET: &str = "d";
const MECHANISMS: [&str; 2] = ["two_table", "multi_table"];
const DOMAIN: u64 = 16;
const TUPLES: usize = 400;
const QUERIES: usize = 16;
const EPSILON: f64 = 1.0;
const DELTA: f64 = 1e-9;
const SETUPS: usize = 7;
/// Writer releases scored for accuracy: the first ones, a fixed sequence.
const SCORED: usize = 8;
const EXEC_TIMEOUT: Duration = Duration::from_secs(30);

fn update_config() -> UpdateStreamConfig {
    // Two thirds deletes of one copy against inserts of 1-3 copies keep the
    // dataset near its initial size over a run.
    UpdateStreamConfig {
        batches: 1,
        batch_size: 16,
        delete_fraction: 2.0 / 3.0,
        theta: 1.0,
    }
}

/// One HTTP/1.1 request on its own connection (the server closes each).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> BoxResult<(u16, Json)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: relbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw)?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("response without a head")?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .ok_or("response without a status")?
        .parse()?;
    Ok((status, Json::parse(body)?))
}

fn dataset_body(query: &JoinQuery, instance: &Instance) -> BoxResult<String> {
    let domains = query
        .all_attrs()
        .iter()
        .map(|&a| query.schema().domain_size(a).map(|d| d.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let relations: Vec<String> = (0..instance.num_relations())
        .map(|i| {
            let r = instance.relation(i);
            let attrs: Vec<String> = r.attrs().iter().map(|a| a.0.to_string()).collect();
            let tuples: Vec<String> = r.iter().map(|(t, f)| format!("[{t:?},{f}]")).collect();
            format!(
                "{{\"attrs\":[{}],\"tuples\":[{}]}}",
                attrs.join(","),
                tuples.join(",")
            )
        })
        .collect();
    Ok(format!(
        "{{\"v\":1,\"name\":\"{DATASET}\",\"domains\":[{}],\"relations\":[{}]}}",
        domains.join(","),
        relations.join(",")
    ))
}

fn update_body(batch: &UpdateBatch) -> String {
    let ops: Vec<String> = batch
        .ops()
        .iter()
        .map(|op| {
            let (kind, relation, tuple, count) = match op {
                UpdateOp::Insert {
                    relation,
                    tuple,
                    count,
                } => ("insert", relation, tuple, count),
                UpdateOp::Delete {
                    relation,
                    tuple,
                    count,
                } => ("delete", relation, tuple, count),
            };
            format!("{{\"relation\":{relation},\"op\":\"{kind}\",\"tuple\":{tuple:?},\"count\":{count}}}")
        })
        .collect();
    format!("{{\"v\":1,\"updates\":[{}]}}", ops.join(","))
}

fn release_body(mechanism: &str, seed: u64, workload_seed: u64) -> String {
    format!(
        "{{\"v\":1,\"tenant\":\"{TENANT}\",\"dataset\":\"{DATASET}\",\"mechanism\":\"{mechanism}\",\
         \"epsilon\":{EPSILON:?},\"delta\":{DELTA:?},\"seed\":{seed},\"workload_size\":{QUERIES},\
         \"workload_seed\":{workload_seed}}}"
    )
}

fn tenant_body() -> &'static str {
    "{\"v\":1,\"tenant\":\"bench\",\"epsilon\":1e9,\"delta\":0.5}"
}

/// A release reply's `(answers, noisy_total, delta_tilde)`.
fn release_result(reply: &Json) -> Option<(Vec<f64>, f64, f64)> {
    let result = reply.get("result")?;
    let answers = result
        .get("answers")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect::<Option<Vec<f64>>>()?;
    Some((
        answers,
        result.get("noisy_total")?.as_f64()?,
        result.get("delta_tilde")?.as_f64()?,
    ))
}

struct Server {
    handle: ServerHandle,
    dir: PathBuf,
}

impl Server {
    fn stop(self) {
        self.handle.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Instance generation, server start, tenant and dataset upload, and a
/// warm-up release.
fn set_up(args: &Args, dir: PathBuf, workload_seed: u64) -> BoxResult<(Server, String)> {
    let (query, instance) = random_two_table(DOMAIN, TUPLES, &mut seeded_rng(derive(args.seed, 1)));
    let body = dataset_body(&query, &instance)?;
    let _ = std::fs::remove_dir_all(&dir);
    let handle = start(ServerConfig::new(&dir))?;
    let server = Server { handle, dir };
    let addr = server.handle.addr;
    for (path, body) in [
        ("/v1/tenant", tenant_body().to_string()),
        ("/v1/dataset", body.clone()),
        (
            "/v1/release",
            release_body(MECHANISMS[0], RELEASE_SEEDS[0], workload_seed),
        ),
    ] {
        let (status, reply) = http(addr, "POST", path, &body)?;
        if status != 200 {
            server.stop();
            return Err(
                format!("set-up POST {path} answered {status}: {}", reply.to_json()).into(),
            );
        }
    }
    Ok((server, body))
}

enum WriterOp {
    Update(UpdateBatch),
    Release {
        mechanism: &'static str,
        seed: u64,
        reply: (Vec<f64>, f64, f64),
    },
}

#[derive(Default)]
struct ClientLog {
    /// `(latency ms, traced phase)` per successful release.
    releases: Vec<(f64, bool)>,
    updates: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Releases that reached a mechanism (any reply past admission).
    charged: u64,
    errors: Vec<String>,
}

impl ClientLog {
    fn release(&mut self, ms: f64, traced: bool, status: u16) {
        self.attempted += 1;
        if matches!(status, 200 | 500 | 504) {
            self.charged += 1;
        }
        if status == 200 {
            self.releases.push((ms, traced));
        } else {
            self.failed += 1;
            self.errors.push(format!("release answered {status}"));
        }
    }
}

fn reader(
    addr: SocketAddr,
    deadline: Instant,
    trace_from: Option<Instant>,
    workload_seed: u64,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut n = 0usize;
    while Instant::now() < deadline {
        let body = release_body(
            MECHANISMS[n % 2],
            RELEASE_SEEDS[n % RELEASE_SEEDS.len()],
            workload_seed,
        );
        let traced = trace_from.is_some_and(|t| Instant::now() >= t);
        let t = Instant::now();
        match http(addr, "POST", "/v1/release", &body) {
            Ok((status, _)) => log.release(t.elapsed().as_secs_f64() * 1e3, traced, status),
            Err(e) => {
                log.attempted += 1;
                log.failed += 1;
                log.errors.push(e.to_string());
            }
        }
        n += 1;
    }
    log
}

/// The traced writer's in-process replays, recorded under each request's
/// round-trip span.
struct Mirror {
    store: Store,
    tracer: Tracer,
    handler_matches: bool,
    http_overhead_ms: Vec<f64>,
    coverage: Vec<f64>,
    maintained: (f64, f64),
}

impl Mirror {
    /// Applies an update the server acknowledged; traced under `root` when
    /// given (the mirror follows every update, traced or not).
    fn update(&mut self, root: Option<usize>, body: &str, reply: &Json) -> BoxResult<()> {
        let req = UpdateDatasetReq::from_json(&Json::parse(body)?).map_err(|e| e.detail)?;
        let store = &self.store;
        let apply =
            |tr: &mut Tracer| tr.span("relational.update", |_| store.update_dataset(DATASET, &req));
        let (dataset, _) = match root {
            Some(root) => self.tracer.under(root, apply),
            None => store.update_dataset(DATASET, &req),
        }
        .map_err(|e| e.detail)?;
        let fingerprint = format!("{:016x}", dataset.fingerprint);
        self.handler_matches &=
            reply.get("fingerprint").and_then(Json::as_str) == Some(&fingerprint);
        if root.is_some() {
            let maintenance = reply
                .get("maintenance")
                .ok_or("update reply without maintenance")?;
            let count = |k: &str| maintenance.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            self.maintained.0 += count("maintained_masks");
            self.maintained.1 += count("rebuilt_masks");
        }
        Ok(())
    }

    fn release(
        &mut self,
        root: usize,
        round_trip_ms: f64,
        mechanism: &str,
        seed: u64,
        workload_seed: u64,
        http_answers: &[f64],
    ) -> BoxResult<()> {
        let body = release_body(mechanism, seed, workload_seed);
        let t = Instant::now();
        let (status, reply) = handlers::release(&self.store, body.as_bytes(), EXEC_TIMEOUT);
        let handler = self
            .tracer
            .record("server.handler", t, Instant::now(), Some(root));
        let handler_ms = t.elapsed().as_secs_f64() * 1e3;
        self.http_overhead_ms.push(round_trip_ms - handler_ms);
        self.coverage.push(handler_ms / round_trip_ms);
        self.handler_matches &=
            status == 200 && release_result(&reply).is_some_and(|(a, _, _)| a == http_answers);

        // The handler's steps through the layers' public functions.
        let cost = PrivacyParams::new(EPSILON, DELTA)?;
        let dataset = self.store.dataset(DATASET).map_err(|e| e.detail)?;
        let label = format!("release:{mechanism}/{DATASET}");
        let store = &self.store;
        let answers = self.tracer.under(handler, |tr| -> BoxResult<Vec<f64>> {
            let (charge, _) = tr
                .span("server.charge", |_| {
                    store.begin_charge(TENANT, cost, &label)
                })
                .map_err(|e| e.detail)?;
            let family = tr.span("query.workload", |_| {
                QueryFamily::random_sign(&dataset.query, QUERIES, &mut seeded_rng(workload_seed))
            })?;
            let mut rng = seeded_rng(seed);
            let released = match mechanism {
                "two_table" => replay::two_table(
                    tr,
                    &dataset.query,
                    &dataset.instance,
                    &family,
                    cost,
                    &mut rng,
                )?,
                _ => replay::multi_table(
                    tr,
                    &dataset.ctx,
                    &dataset.query,
                    &dataset.instance,
                    &family,
                    cost,
                    &mut rng,
                )?,
            };
            let answers = tr.span("query.answer", |_| {
                released.histogram.answer_all(&dataset.query, &family)
            })?;
            tr.span("server.charge", |_| store.commit_charge(TENANT, charge))
                .map_err(|e| e.detail)?;
            Ok(answers)
        })?;
        self.handler_matches &= answers == http_answers;
        Ok(())
    }
}

#[allow(clippy::too_many_arguments)]
fn writer(
    addr: SocketAddr,
    deadline: Instant,
    trace_from: Option<Instant>,
    workload_seed: u64,
    query: &JoinQuery,
    initial: &Instance,
    update_seed: u64,
    mut mirror: Option<&mut Mirror>,
) -> BoxResult<(ClientLog, Vec<WriterOp>)> {
    let mut log = ClientLog::default();
    let mut ops = Vec::new();
    let mut live = initial.clone();
    let mut rng = seeded_rng(update_seed);
    let mut j = 0u64;
    while Instant::now() < deadline {
        let traced = trace_from.is_some_and(|t| Instant::now() >= t);
        if j.is_multiple_of(2) {
            let batch = update_stream(query, &live, update_config(), &mut rng).remove(0);
            apply_batch(query, &mut live, &batch)?;
            let body = update_body(&batch);
            let t0 = Instant::now();
            let result = http(
                addr,
                "POST",
                &format!("/v1/dataset/{DATASET}/updates"),
                &body,
            );
            let t1 = Instant::now();
            log.attempted += 1;
            match result {
                Ok((200, reply)) => {
                    log.updates.push((t1 - t0).as_secs_f64() * 1e3);
                    if let Some(m) = mirror.as_deref_mut() {
                        m.tracer.begin_request(j);
                        let root = traced.then(|| m.tracer.record("server.http", t0, t1, None));
                        m.update(root, &body, &reply)?;
                    }
                }
                Ok((status, reply)) => {
                    log.failed += 1;
                    log.errors
                        .push(format!("update answered {status}: {}", reply.to_json()));
                }
                Err(e) => {
                    log.failed += 1;
                    log.errors.push(e.to_string());
                }
            }
            ops.push(WriterOp::Update(batch));
        } else {
            let n = (j / 2) as usize;
            let mechanism = MECHANISMS[n % 2];
            let seed = RELEASE_SEEDS[n % RELEASE_SEEDS.len()];
            let t0 = Instant::now();
            let result = http(
                addr,
                "POST",
                "/v1/release",
                &release_body(mechanism, seed, workload_seed),
            );
            let t1 = Instant::now();
            let ms = (t1 - t0).as_secs_f64() * 1e3;
            match result {
                Ok((status, reply)) => {
                    log.release(ms, traced, status);
                    if let Some(parsed) = release_result(&reply) {
                        if let Some(m) = mirror.as_deref_mut().filter(|_| traced) {
                            m.tracer.begin_request(j);
                            let root = m.tracer.record("server.http", t0, t1, None);
                            m.release(root, ms, mechanism, seed, workload_seed, &parsed.0)?;
                        }
                        ops.push(WriterOp::Release {
                            mechanism,
                            seed,
                            reply: parsed,
                        });
                    }
                }
                Err(e) => {
                    log.attempted += 1;
                    log.failed += 1;
                    log.errors.push(e.to_string());
                }
            }
        }
        j += 1;
    }
    Ok((log, ops))
}

fn dir_for(args: &Args, tag: &str) -> PathBuf {
    args.out.join(format!("serve-{}-{tag}", std::process::id()))
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

pub fn run(args: &Args) -> BoxResult<Outcome> {
    let mut out = Outcome::default();
    // Wire integers are exact only below 2^53.
    let workload_seed = derive(args.seed, 2) >> 11;

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut live: Option<(Server, String)> = None;
    for k in 0..SETUPS {
        if let Some((server, _)) = live.take() {
            server.stop();
        }
        let t = Instant::now();
        live = Some(set_up(args, dir_for(args, &k.to_string()), workload_seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (server, dataset_body) = live.expect("at least one set-up");
    let addr = server.handle.addr;

    // The mirror store holds the benchmark's copy of the dataset as the
    // server builds it from the upload.
    let mirror_dir = dir_for(args, "mirror");
    let _ = std::fs::remove_dir_all(&mirror_dir);
    let store = Store::open(&mirror_dir)?;
    store
        .create_tenant(TENANT, PrivacyParams::new(1e9, 0.5)?)
        .map_err(|e| e.detail)?;
    let dataset = store
        .create_dataset(
            &CreateDatasetReq::from_json(&Json::parse(&dataset_body)?).map_err(|e| e.detail)?,
        )
        .map_err(|e| e.detail)?;
    let query = (*dataset.query).clone();
    let initial = (*dataset.instance).clone();
    let mut mirror = Mirror {
        store,
        tracer: Tracer::new(Instant::now()),
        handler_matches: true,
        http_overhead_ms: Vec::new(),
        coverage: Vec::new(),
        maintained: (0.0, 0.0),
    };

    let ledger = server.dir.join(LEDGER_FILE);
    let ledger_before = file_len(&ledger);
    let start = Instant::now();
    let deadline = start + args.seconds;
    let trace_from = args.trace.then(|| start + args.seconds / 2);
    let sampling = AtomicBool::new(args.trace);
    let threads_peak = AtomicUsize::new(thread_count());
    let (read_log, written) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            while sampling.load(Ordering::Relaxed) {
                threads_peak.fetch_max(thread_count(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let read = scope.spawn(|| reader(addr, deadline, trace_from, workload_seed));
        let update_seed = derive(args.seed, 3);
        let mirror_ref = args.trace.then_some(&mut mirror);
        let written = writer(
            addr,
            deadline,
            trace_from,
            workload_seed,
            &query,
            &initial,
            update_seed,
            mirror_ref,
        );
        let read_log = read.join().expect("reader thread panicked");
        sampling.store(false, Ordering::Relaxed);
        sampler.join().expect("sampler thread panicked");
        (read_log, written)
    });
    let elapsed = start.elapsed().as_secs_f64();
    let (write_log, ops) = written?;
    let ledger_bytes = file_len(&ledger) - ledger_before;

    // Committed charges: the warm-up release plus every release that
    // reached a mechanism.
    let (status, tenant) = http(addr, "GET", &format!("/v1/tenant/{TENANT}"), "")?;
    let committed = tenant
        .get("budget")
        .and_then(|b| b.get("committed"))
        .and_then(Json::as_u64);
    let charged = 1 + read_log.charged + write_log.charged;
    out.check(
        "committed_charges_equal_mechanism_releases",
        status == 200 && committed == Some(charged),
    );
    server.stop();

    // Each writer release against an in-process release over the
    // benchmark's own copy of the dataset at that point.
    let session = Session::with_threads(args.threads);
    let family = QueryFamily::random_sign(&query, QUERIES, &mut seeded_rng(workload_seed))?;
    let cost = PrivacyParams::new(EPSILON, DELTA)?;
    let mut instance = initial.clone();
    let mut writer_matches = true;
    let mut well_formed = true;
    let mut errors = Vec::new();
    for op in &ops {
        match op {
            WriterOp::Update(batch) => {
                session.apply_updates(&query, &mut instance, batch)?;
            }
            WriterOp::Release {
                mechanism,
                seed,
                reply,
            } => {
                let m = mechanism_by_name(mechanism).ok_or("unserved mechanism")?;
                let request =
                    ReleaseRequest::new(&query, &instance, &family, cost).with_seed(*seed);
                let r: SyntheticRelease = session.release(m.as_ref(), &request)?;
                let answers = r.answer_all(&family)?;
                writer_matches &= answers.values() == reply.0.as_slice()
                    && r.noisy_total() == reply.1
                    && r.delta_tilde() == reply.2;
                well_formed &= crate::library::well_formed(&r);
                if errors.len() < SCORED {
                    let truth = session.answer_truth(&query, &instance, &family)?;
                    let count = session.join_size(&query, &instance)? as f64;
                    errors.push(linf_rel(answers.values(), truth.values(), count));
                }
            }
        }
    }
    let writer_releases = ops
        .iter()
        .filter(|o| matches!(o, WriterOp::Release { .. }))
        .count();
    out.check(
        "writer_releases_equal_session_release",
        writer_matches && writer_releases >= SCORED,
    );
    out.check("histograms_nonnegative_with_noisy_total_mass", well_formed);

    out.attempted = read_log.attempted + write_log.attempted;
    out.failed = read_log.failed + write_log.failed;
    for e in read_log.errors.iter().chain(&write_log.errors).take(5) {
        out.notes.push(format!("error: {e}"));
    }
    let releases: Vec<(f64, bool)> = read_log
        .releases
        .iter()
        .chain(&write_log.releases)
        .copied()
        .collect();
    let all_ms: Vec<f64> = releases.iter().map(|r| r.0).collect();

    if args.trace {
        out.check("handler_replay_matches_http", mirror.handler_matches);
        let ctx = &mirror.store.dataset(DATASET).map_err(|e| e.detail)?.ctx;
        let (hits, misses) = ctx.cache_stats();
        let phase = |traced: bool| -> Vec<f64> {
            releases
                .iter()
                .filter(|r| r.1 == traced)
                .map(|r| r.0)
                .collect()
        };
        let (untraced, traced) = (median(&phase(false)), median(&phase(true)));
        let (maintained, rebuilt) = mirror.maintained;
        let mut m = BTreeMap::new();
        m.insert(
            "relational.lattice_bytes",
            ctx.cached_subjoin_bytes() as f64,
        );
        m.insert(
            "relational.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        m.insert(
            "relational.maintained_ratio",
            maintained / (maintained + rebuilt).max(1.0),
        );
        m.insert("server.http_overhead_ms", median(&mirror.http_overhead_ms));
        m.insert(
            "server.ledger_bytes_per_release",
            ledger_bytes as f64 / all_ms.len().max(1) as f64,
        );
        m.insert(
            "server.threads_peak",
            threads_peak.load(Ordering::Relaxed) as f64,
        );
        m.insert("trace.coverage", median(&mirror.coverage));
        m.insert("trace.overhead_pct", 100.0 * (traced / untraced - 1.0));
        m.insert("trace.release_ms_p50", traced);
        m.insert("trace.untraced_ms_p50", untraced);
        crate::layers::report(&mut out, &mirror.tracer, "server.http", m);
        let path = args
            .out
            .join(format!("trace-serve_mixed-{}.jsonl", args.seed));
        mirror.tracer.write(&path)?;
        out.notes
            .push(format!("spans written to {}", path.display()));
    } else {
        out.notes.push(format!(
            "update_ms_p50: {} ms; update_ms_min: {} ms ({} updates)",
            median(&write_log.updates),
            crate::stats::min(&write_log.updates).unwrap_or(f64::NAN),
            write_log.updates.len()
        ));
        crate::report_end_to_end(&mut out, &setup_s, &all_ms, elapsed, &errors)?;
    }
    drop(mirror);
    let _ = std::fs::remove_dir_all(&mirror_dir);
    Ok(out)
}
