//! Request handlers: admission control, the two-phase charge around each
//! release, and per-request fault isolation.
//!
//! The release path is the privacy-critical sequence:
//!
//! 1. validate the request (mechanism name, workload size) — *free*;
//! 2. [`Store::begin_charge`]: admission check + durable intent — the
//!    budget is reserved before any private data is touched;
//! 3. build the workload (data-independent; a failure here aborts the
//!    intent and **refunds**, because no randomness or data was consumed);
//! 4. run the mechanism inside [`run_isolated`] — its own thread, under
//!    `catch_unwind`, with a deadline;
//! 5. resolve: success commits and answers the workload on the released
//!    histogram; a mechanism error, panic or timeout **also commits** (the
//!    conservative resolution — the mechanism may have consumed randomness
//!    derived from private data) and answers 5xx.
//!
//! Only the four *sound* mechanisms are exposed.  The deliberately flawed
//! Section 3.1 strawmen exist in `dpsyn-core` for experiments, but a
//! multi-tenant server handing out releases with broken sensitivity would
//! be a privacy bug by construction, so they are not routable.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use dpsyn_core::{
    HierarchicalRelease, Mechanism, MultiTable, SyntheticRelease, TwoTable, UniformizedTwoTable,
};
use dpsyn_noise::{seeded_rng, PrivacyParams};
use dpsyn_query::QueryFamily;

use crate::store::{BudgetView, Store};
use crate::wire::{
    f64_bits_hex, obj, ApiError, CreateDatasetReq, CreateTenantReq, Json, ReleaseReq, SleepReq,
    UpdateDatasetReq, WIRE_VERSION,
};

/// The names of the mechanisms the server will route (sound ones only).
pub const SERVED_MECHANISMS: [&str; 4] = [
    "two_table",
    "multi_table",
    "uniformized_two_table",
    "hierarchical",
];

/// Builds the named mechanism, or `None` for unknown/unserved names.
///
/// Construction is deliberately deferred to the execution thread (the
/// boxed trait object is not `Send`); this function is the *name check*
/// used for validation before any budget is reserved.
pub fn mechanism_by_name(name: &str) -> Option<Box<dyn Mechanism>> {
    match name {
        "two_table" => Some(Box::new(TwoTable::default())),
        "multi_table" => Some(Box::new(MultiTable::default())),
        "uniformized_two_table" => Some(Box::new(UniformizedTwoTable::default())),
        "hierarchical" => Some(Box::new(HierarchicalRelease::default())),
        _ => None,
    }
}

/// The outcome of an isolated execution.
#[derive(Debug)]
pub enum ExecOutcome<T> {
    /// The closure returned.
    Done(T),
    /// The closure panicked; the payload's message when extractable.
    Panicked(String),
    /// The deadline passed with the closure still running.  Its thread is
    /// detached (threads cannot be safely killed); the result is discarded
    /// if it ever arrives.
    TimedOut,
}

/// Runs `f` on its own thread under `catch_unwind` with a deadline.
///
/// This is the server's fault-isolation boundary: a panic or hang inside
/// one request must never take down the process or other tenants'
/// requests.
pub fn run_isolated<T, F>(timeout: Duration, f: F) -> ExecOutcome<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = mpsc::sync_channel(1);
    std::thread::spawn(move || {
        let result = catch_unwind(AssertUnwindSafe(f));
        // The receiver may be gone (timeout); that is fine.
        let _ = tx.send(result);
    });
    match rx.recv_timeout(timeout) {
        Ok(Ok(value)) => ExecOutcome::Done(value),
        Ok(Err(payload)) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            ExecOutcome::Panicked(msg)
        }
        Err(_) => ExecOutcome::TimedOut,
    }
}

/// A handler's result: HTTP status plus a JSON body.
pub type Reply = (u16, Json);

fn ok(body: Json) -> Reply {
    (200, body)
}

fn err_reply(e: ApiError) -> Reply {
    (e.status, e.body())
}

fn budget_json(view: &BudgetView) -> Json {
    obj(vec![
        (
            "grant",
            obj(vec![
                ("epsilon", Json::Num(view.grant.epsilon())),
                ("delta", Json::Num(view.grant.delta())),
            ]),
        ),
        (
            "spent",
            obj(vec![
                ("epsilon", Json::Num(view.spent.0)),
                ("delta", Json::Num(view.spent.1)),
                ("epsilon_bits", Json::Str(f64_bits_hex(view.spent.0))),
                ("delta_bits", Json::Str(f64_bits_hex(view.spent.1))),
            ]),
        ),
        (
            "remaining",
            obj(vec![
                ("epsilon", Json::Num(view.remaining.0)),
                ("delta", Json::Num(view.remaining.1)),
                ("epsilon_bits", Json::Str(f64_bits_hex(view.remaining.0))),
                ("delta_bits", Json::Str(f64_bits_hex(view.remaining.1))),
            ]),
        ),
        ("committed", Json::Num(view.committed as f64)),
        ("aborted", Json::Num(view.aborted as f64)),
        ("pending", Json::Num(view.pending as f64)),
    ])
}

fn parse_body(body: &[u8]) -> Result<Json, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::bad_request("bad_body", "body is not UTF-8"))?;
    Json::parse(text).map_err(|e| ApiError::bad_request("bad_json", e))
}

/// `GET /healthz`.
pub fn health(store: &Store) -> Reply {
    let recovery = store.recovery();
    ok(obj(vec![
        ("v", Json::Num(WIRE_VERSION as f64)),
        ("ok", Json::Bool(true)),
        ("tenants", Json::Num(store.tenant_count() as f64)),
        ("datasets", Json::Num(store.dataset_names().len() as f64)),
        (
            "recovery",
            obj(vec![
                ("records", Json::Num(recovery.records as f64)),
                (
                    "truncated_bytes",
                    Json::Num(recovery.truncated_bytes as f64),
                ),
                (
                    "resolved_intents",
                    Json::Num(recovery.resolved_intents as f64),
                ),
            ]),
        ),
    ]))
}

/// `POST /v1/tenant`.
pub fn create_tenant(store: &Store, body: &[u8]) -> Reply {
    let run = || -> Result<Reply, ApiError> {
        let req = CreateTenantReq::from_json(&parse_body(body)?)?;
        let grant = PrivacyParams::new(req.epsilon, req.delta)
            .map_err(|e| ApiError::bad_request("bad_params", e.to_string()))?;
        let view = store.create_tenant(&req.tenant, grant)?;
        Ok(ok(obj(vec![
            ("v", Json::Num(WIRE_VERSION as f64)),
            ("tenant", Json::Str(req.tenant)),
            ("budget", budget_json(&view)),
        ])))
    };
    run().unwrap_or_else(err_reply)
}

/// `GET /v1/tenant/<name>`.
pub fn get_tenant(store: &Store, name: &str) -> Reply {
    match store.tenant_budget(name) {
        Ok(view) => ok(obj(vec![
            ("v", Json::Num(WIRE_VERSION as f64)),
            ("tenant", Json::Str(name.to_string())),
            ("budget", budget_json(&view)),
        ])),
        Err(e) => err_reply(e),
    }
}

/// `POST /v1/dataset`.
pub fn create_dataset(store: &Store, body: &[u8]) -> Reply {
    let run = || -> Result<Reply, ApiError> {
        let req = CreateDatasetReq::from_json(&parse_body(body)?)?;
        let dataset = store.create_dataset(&req)?;
        Ok(ok(obj(vec![
            ("v", Json::Num(WIRE_VERSION as f64)),
            ("dataset", Json::Str(dataset.name.clone())),
            ("relations", Json::Num(dataset.query.num_relations() as f64)),
            (
                "fingerprint",
                Json::Str(format!("{:016x}", dataset.fingerprint)),
            ),
        ])))
    };
    run().unwrap_or_else(err_reply)
}

/// `POST /v1/dataset/<name>/updates` — apply an insert/delete batch to a
/// served dataset (see `dpsyn_relational::stream`).  The reply's
/// `maintenance.warm` says whether the dataset's warm cache slot was
/// dropped; the next release rebuilds it for the updated data.  Touches no
/// budget: the tenant is charged when it *releases* over the updated data,
/// not when it writes.
pub fn update_dataset(store: &Store, name: &str, body: &[u8]) -> Reply {
    let run = || -> Result<Reply, ApiError> {
        let req = UpdateDatasetReq::from_json(&parse_body(body)?)?;
        let (dataset, report) = store.update_dataset(name, &req)?;
        Ok(ok(obj(vec![
            ("v", Json::Num(WIRE_VERSION as f64)),
            ("dataset", Json::Str(dataset.name.clone())),
            ("ops", Json::Num(report.ops as f64)),
            (
                "fingerprint",
                Json::Str(format!("{:016x}", dataset.fingerprint)),
            ),
            (
                "previous_fingerprint",
                Json::Str(format!("{:016x}", report.old_fingerprint)),
            ),
            (
                "maintenance",
                obj(vec![
                    ("warm", Json::Bool(report.warm)),
                    (
                        "relations_touched",
                        Json::Num(report.relations_touched as f64),
                    ),
                ]),
            ),
        ])))
    };
    run().unwrap_or_else(err_reply)
}

/// `GET /v1/dataset/<name>`.
///
/// `cache` reports the dataset context's cumulative cache and memo reads
/// ([`dpsyn_relational::ExecContext::cache_stats`]); a served release
/// counts its answer's query-weight read among them.
pub fn get_dataset(store: &Store, name: &str) -> Reply {
    match store.dataset(name) {
        Ok(dataset) => {
            let (hits, misses) = dataset.ctx.cache_stats();
            ok(obj(vec![
                ("v", Json::Num(WIRE_VERSION as f64)),
                ("dataset", Json::Str(dataset.name.clone())),
                ("relations", Json::Num(dataset.query.num_relations() as f64)),
                (
                    "fingerprint",
                    Json::Str(format!("{:016x}", dataset.fingerprint)),
                ),
                (
                    "cache",
                    obj(vec![
                        ("hits", Json::Num(hits as f64)),
                        ("misses", Json::Num(misses as f64)),
                    ]),
                ),
            ]))
        }
        Err(e) => err_reply(e),
    }
}

/// `POST /v1/release` — the privacy-critical path (see the module docs for
/// the charge protocol).
///
/// The reply answers the workload with
/// [`SyntheticRelease::answer_all_in`] over the dataset's context: the
/// mechanism's PMW runs have just memoised the workload's query weights
/// there for the same layout, so the answers read them rather than
/// rebuilding them, and equal the context-free
/// [`SyntheticRelease::answer_all`] bit for bit.  That read is one more
/// hit in the dataset's cache counters.
pub fn release(store: &Store, body: &[u8], exec_timeout: Duration) -> Reply {
    let req = match parse_body(body).and_then(|v| ReleaseReq::from_json(&v)) {
        Ok(req) => req,
        Err(e) => return err_reply(e),
    };
    // Free validation first: nothing below may run for a request that could
    // never succeed.
    if mechanism_by_name(&req.mechanism).is_none() {
        return err_reply(ApiError::bad_request(
            "unknown_mechanism",
            format!(
                "mechanism {:?} is not served (available: {})",
                req.mechanism,
                SERVED_MECHANISMS.join(", ")
            ),
        ));
    }
    let cost = match PrivacyParams::new(req.epsilon, req.delta) {
        Ok(cost) => cost,
        Err(e) => return err_reply(ApiError::bad_request("bad_params", e.to_string())),
    };
    let dataset = match store.dataset(&req.dataset) {
        Ok(d) => d,
        Err(e) => return err_reply(e),
    };

    // Admission + durable intent: the point of no return for the budget.
    let label = format!("release:{}/{}", req.mechanism, req.dataset);
    let (seq, _) = match store.begin_charge(&req.tenant, cost, &label) {
        Ok(r) => r,
        Err(e) => return err_reply(e),
    };

    // Workload generation is data-independent (query shape + public seed),
    // so a failure here provably consumed nothing private: refund.
    let mut wl_rng = seeded_rng(req.workload_seed);
    let family = match QueryFamily::random_sign(&dataset.query, req.workload_size, &mut wl_rng) {
        Ok(f) => f,
        Err(e) => {
            let refund = store.abort_charge(&req.tenant, seq);
            let mut reply = ApiError::bad_request("bad_workload", e.to_string());
            if let Err(abort_err) = refund {
                // The refund itself failed (wedged ledger): surface that —
                // the budget stays conservatively reserved.
                reply = abort_err;
            }
            return err_reply(reply);
        }
    };

    // The mechanism runs isolated: own thread, catch_unwind, deadline.
    let mechanism_name = req.mechanism.clone();
    let seed = req.seed;
    let outcome: ExecOutcome<Result<(SyntheticRelease, Vec<f64>), String>> =
        run_isolated(exec_timeout, move || {
            let mechanism =
                mechanism_by_name(&mechanism_name).expect("name validated before charge");
            let mut rng = seeded_rng(seed);
            let release = mechanism
                .release(
                    &dataset.ctx,
                    &dataset.query,
                    &dataset.instance,
                    &family,
                    cost,
                    &mut rng,
                )
                .map_err(|e| e.to_string())?;
            let answers = release
                .answer_all_in(&dataset.ctx, &family)
                .map(|a| a.values().to_vec())
                .map_err(|e| e.to_string())?;
            Ok((release, answers))
        });

    // Anything after the mechanism ran (or may have run) commits: the
    // randomness consumed is a function of private data, so the budget is
    // spent whether or not an answer exists.
    let (status, result_json) = match outcome {
        ExecOutcome::Done(Ok((release, answers))) => (
            200,
            obj(vec![
                ("mechanism", Json::Str(req.mechanism.clone())),
                ("noisy_total", Json::Num(release.noisy_total())),
                ("delta_tilde", Json::Num(release.delta_tilde())),
                (
                    "answers",
                    Json::Arr(answers.into_iter().map(Json::Num).collect()),
                ),
            ]),
        ),
        ExecOutcome::Done(Err(detail)) => (
            500,
            obj(vec![
                ("code", Json::Str("mechanism_error".to_string())),
                ("detail", Json::Str(detail)),
            ]),
        ),
        ExecOutcome::Panicked(detail) => (
            500,
            obj(vec![
                ("code", Json::Str("mechanism_panic".to_string())),
                ("detail", Json::Str(detail)),
            ]),
        ),
        ExecOutcome::TimedOut => (
            504,
            obj(vec![
                ("code", Json::Str("mechanism_timeout".to_string())),
                (
                    "detail",
                    Json::Str(format!(
                        "release exceeded the {}ms execution deadline; its budget is spent",
                        exec_timeout.as_millis()
                    )),
                ),
            ]),
        ),
    };
    let view = match store.commit_charge(&req.tenant, seq) {
        Ok(view) => view,
        Err(e) => return err_reply(e),
    };
    let mut fields = vec![
        ("v", Json::Num(WIRE_VERSION as f64)),
        ("tenant", Json::Str(req.tenant)),
        ("charge_seq", Json::Num(seq as f64)),
        ("budget", budget_json(&view)),
    ];
    if status == 200 {
        fields.push(("result", result_json));
    } else {
        fields.push(("error", result_json));
    }
    (status, obj(fields))
}

/// `POST /v1/debug/sleep` — holds the request open so tests can observe
/// drain behaviour.  Touches no budget and no data.
pub fn debug_sleep(body: &[u8]) -> Reply {
    let run = || -> Result<Reply, ApiError> {
        let req = SleepReq::from_json(&parse_body(body)?)?;
        std::thread::sleep(Duration::from_millis(req.ms));
        Ok(ok(obj(vec![
            ("v", Json::Num(WIRE_VERSION as f64)),
            ("slept_ms", Json::Num(req.ms as f64)),
        ])))
    };
    run().unwrap_or_else(err_reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_isolated_returns_values() {
        match run_isolated(Duration::from_secs(5), || 41 + 1) {
            ExecOutcome::Done(42) => {}
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn run_isolated_contains_panics() {
        match run_isolated(Duration::from_secs(5), || -> u32 { panic!("boom {}", 7) }) {
            ExecOutcome::Panicked(msg) => assert!(msg.contains("boom 7")),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn run_isolated_enforces_deadline() {
        match run_isolated(Duration::from_millis(50), || {
            std::thread::sleep(Duration::from_secs(10));
            0u32
        }) {
            ExecOutcome::TimedOut => {}
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn only_sound_mechanisms_are_served() {
        for name in SERVED_MECHANISMS {
            assert!(mechanism_by_name(name).is_some(), "{name} must be served");
        }
        // The Section 3.1 strawmen exist in dpsyn-core but must not be
        // routable here.
        assert!(mechanism_by_name("flawed_join_as_one").is_none());
        assert!(mechanism_by_name("flawed_pad_after").is_none());
        assert!(mechanism_by_name("").is_none());
    }
}
