//! The server's durable state: the budget ledger file, tenants, datasets,
//! and the pool of per-instance execution contexts.
//!
//! **Durability protocol.**  Every mutation of budget state is one
//! append-only record in `<data_dir>/ledger.log` (format:
//! [`dpsyn_noise::ledger`]), written and `fsync`'d *before* the in-memory
//! state changes and before any response is sent.  A charge is two records:
//! an [`LedgerRecord::Intent`] durable **before** the mechanism touches
//! data, and a [`LedgerRecord::Commit`] (or, for failures known to precede
//! any data access, an [`LedgerRecord::Abort`]) after.  A crash between the
//! two leaves a pending intent; [`Store::open`] resolves it conservatively
//! by appending a `Commit` during recovery — the mechanism may have
//! consumed randomness, so the budget must count as gone.
//!
//! Recovery appends the resolution commits in sequence order on top of the
//! replayed commits, which performs *exactly* the same compensated
//! additions in the same order as the live path's conservative
//! [`TenantLedgerState::spent`] — recovered remaining budgets match what an
//! independent oracle computes from the pre-crash bytes **bit for bit**.
//!
//! Datasets and contexts are in-memory only: the private instance is
//! re-uploaded after a restart (re-uploading data costs nothing; losing a
//! budget charge is a privacy violation).  An I/O error while appending
//! wedges the store — all further budget mutations answer `503` — because
//! continuing to charge against a ledger that no longer persists would
//! silently degrade to the non-durable accountant.

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use dpsyn_noise::ledger::{valid_label, valid_tenant, LedgerRecord, LedgerReplay};
use dpsyn_noise::{PrivacyParams, TenantLedgerState};
use dpsyn_relational::{
    instance_fingerprint, AttrId, Attribute, ExecContext, Instance, JoinQuery, Schema, UpdateBatch,
    UpdateReport,
};

use crate::failpoint;
use crate::wire::{ApiError, CreateDatasetReq, UpdateDatasetReq};

/// Name of the ledger file inside the data directory.
pub const LEDGER_FILE: &str = "ledger.log";

/// What [`Store::open`] found and did during ledger recovery.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Valid records replayed.
    pub records: usize,
    /// Bytes truncated as a torn final record (0 when the tail was clean).
    pub truncated_bytes: u64,
    /// Pending intents conservatively committed during recovery.
    pub resolved_intents: usize,
}

/// An uploaded dataset: the query/instance pair plus its fingerprinted
/// execution context (shared by every release over this dataset, so its
/// full join and memoised release values stay warm across requests).
#[derive(Debug)]
pub struct Dataset {
    /// Dataset name.
    pub name: String,
    /// The join query implied by the uploaded relation attribute lists.
    pub query: Arc<JoinQuery>,
    /// The private instance.
    pub instance: Arc<Instance>,
    /// Structural fingerprint of the `(query, instance)` pair.
    pub fingerprint: u64,
    /// The execution context serving this dataset's releases.
    pub ctx: Arc<ExecContext>,
}

/// A tenant's budget position, for embedding in responses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetView {
    /// The tenant's total grant.
    pub grant: PrivacyParams,
    /// Conservative spend (committed plus pending).
    pub spent: (f64, f64),
    /// Conservative remaining budget, clamped at zero.
    pub remaining: (f64, f64),
    /// Committed charge count.
    pub committed: u64,
    /// Aborted charge count.
    pub aborted: u64,
    /// Pending (unresolved) charge count.
    pub pending: usize,
}

fn view_of(state: &TenantLedgerState) -> BudgetView {
    BudgetView {
        grant: state.grant(),
        spent: state.spent(),
        remaining: state.remaining(),
        committed: state.committed_count(),
        aborted: state.aborted_count(),
        pending: state.pending().len(),
    }
}

struct StoreInner {
    ledger: File,
    tenants: BTreeMap<String, TenantLedgerState>,
    datasets: BTreeMap<String, Arc<Dataset>>,
    contexts: HashMap<u64, Arc<ExecContext>>,
    /// Set when a ledger append failed at the I/O layer; all further budget
    /// mutations are refused (503) — an unpersisted charge would be a
    /// silent privacy leak after the next crash.
    wedged: bool,
}

/// The server's state store.  All methods are `&self`; one mutex guards the
/// ledger file and the in-memory maps together, so record order in the file
/// always matches application order in memory.
pub struct Store {
    data_dir: PathBuf,
    inner: Mutex<StoreInner>,
    recovery: RecoveryReport,
}

impl Store {
    /// Opens (creating if necessary) the ledger under `data_dir`, replays
    /// it, truncates a torn tail, and conservatively commits any pending
    /// intents.  Fails on real (non-tail) corruption.
    pub fn open(data_dir: impl Into<PathBuf>) -> Result<Store, String> {
        let data_dir = data_dir.into();
        std::fs::create_dir_all(&data_dir)
            .map_err(|e| format!("cannot create data dir {}: {e}", data_dir.display()))?;
        let path = data_dir.join(LEDGER_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| format!("cannot open ledger {}: {e}", path.display()))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| format!("cannot read ledger: {e}"))?;

        let replay = LedgerReplay::replay(&bytes)
            .map_err(|e| format!("refusing to start: {e} (ledger {})", path.display()))?;
        let mut report = RecoveryReport {
            records: replay.records,
            truncated_bytes: (bytes.len() - replay.valid_len) as u64,
            resolved_intents: 0,
        };
        if replay.torn_tail {
            file.set_len(replay.valid_len as u64)
                .map_err(|e| format!("cannot truncate torn ledger tail: {e}"))?;
            file.sync_data()
                .map_err(|e| format!("cannot sync ledger: {e}"))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| format!("cannot seek ledger: {e}"))?;

        // Conservative resolution: commit every pending intent, in tenant
        // then sequence order (both BTreeMaps, so the order — and therefore
        // the compensated sums — is deterministic and matches the replay's
        // own `spent()` accumulation order).
        let mut tenants = replay.tenants;
        for (tenant, state) in tenants.iter_mut() {
            let pending: Vec<u64> = state.pending().keys().copied().collect();
            for seq in pending {
                let record = LedgerRecord::Commit {
                    tenant: tenant.clone(),
                    seq,
                };
                append_record(&mut file, &record, None)
                    .map_err(|e| format!("cannot resolve pending intent: {e}"))?;
                state
                    .commit(seq)
                    .map_err(|e| format!("recovery commit failed: {e}"))?;
                report.resolved_intents += 1;
            }
        }

        Ok(Store {
            data_dir,
            inner: Mutex::new(StoreInner {
                ledger: file,
                tenants,
                datasets: BTreeMap::new(),
                contexts: HashMap::new(),
                wedged: false,
            }),
            recovery: report,
        })
    }

    /// What recovery found when this store was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The data directory this store persists into.
    pub fn data_dir(&self) -> &PathBuf {
        &self.data_dir
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        // A poisoned store mutex means a panic while the ledger file and
        // maps were mid-update; recovering the guard could expose state the
        // ledger does not back.  The process-level answer is restart +
        // replay, which is exactly what the ledger is for.
        self.inner.lock().unwrap_or_else(|_| {
            eprintln!("dpsyn-serve: store mutex poisoned — aborting for ledger replay");
            std::process::abort()
        })
    }

    /// Creates a tenant with its total grant.  Durable before it returns.
    pub fn create_tenant(
        &self,
        tenant: &str,
        grant: PrivacyParams,
    ) -> Result<BudgetView, ApiError> {
        if !valid_tenant(tenant) {
            return Err(ApiError::bad_request(
                "bad_tenant",
                "tenant names are 1-64 chars of [A-Za-z0-9_-]",
            ));
        }
        let mut inner = self.lock();
        check_wedged(&inner)?;
        if inner.tenants.contains_key(tenant) {
            return Err(ApiError::new(409, "tenant_exists", "tenant already exists"));
        }
        let record = LedgerRecord::Grant {
            tenant: tenant.to_string(),
            grant,
        };
        write_or_wedge(&mut inner, &record, None)?;
        let state = TenantLedgerState::new(grant);
        let view = view_of(&state);
        inner.tenants.insert(tenant.to_string(), state);
        Ok(view)
    }

    /// The tenant's current budget position.
    pub fn tenant_budget(&self, tenant: &str) -> Result<BudgetView, ApiError> {
        let inner = self.lock();
        inner
            .tenants
            .get(tenant)
            .map(view_of)
            .ok_or_else(|| ApiError::new(404, "unknown_tenant", "no such tenant"))
    }

    /// Admission control + phase one of a charge: checks the cost against
    /// the tenant's conservative remaining budget and, if admitted, makes
    /// the intent durable.  Returns the charge's sequence number.
    ///
    /// Nothing private has been touched when this returns an error, so
    /// rejections have zero privacy cost.
    pub fn begin_charge(
        &self,
        tenant: &str,
        cost: PrivacyParams,
        label: &str,
    ) -> Result<(u64, BudgetView), ApiError> {
        debug_assert!(valid_label(label), "internal labels are always valid");
        let mut inner = self.lock();
        check_wedged(&inner)?;
        let state = inner
            .tenants
            .get(tenant)
            .ok_or_else(|| ApiError::new(404, "unknown_tenant", "no such tenant"))?;
        if !state.admits(cost) {
            let (rem_eps, rem_delta) = state.remaining();
            return Err(ApiError::new(
                429,
                "budget_exhausted",
                format!(
                    "charge (ε={}, δ={}) exceeds remaining budget (ε={rem_eps}, δ={rem_delta})",
                    cost.epsilon(),
                    cost.delta()
                ),
            ));
        }
        let seq = state.next_seq();
        let record = LedgerRecord::Intent {
            tenant: tenant.to_string(),
            seq,
            cost,
            label: label.to_string(),
        };
        write_or_wedge(
            &mut inner,
            &record,
            Some([
                "ledger_pre_intent",
                "ledger_mid_intent",
                "ledger_post_intent",
            ]),
        )?;
        let state = inner.tenants.get_mut(tenant).expect("checked above");
        state
            .begin_intent(seq, cost)
            .map_err(|e| ApiError::new(500, "ledger_protocol", e.to_string()))?;
        Ok((seq, view_of(state)))
    }

    /// Phase two, success: the charge is spent for good.
    pub fn commit_charge(&self, tenant: &str, seq: u64) -> Result<BudgetView, ApiError> {
        self.resolve(tenant, seq, true)
    }

    /// Phase two, safe failure: the charge is released.  Callers must only
    /// use this when the mechanism is known not to have touched data or
    /// randomness.
    pub fn abort_charge(&self, tenant: &str, seq: u64) -> Result<BudgetView, ApiError> {
        self.resolve(tenant, seq, false)
    }

    fn resolve(&self, tenant: &str, seq: u64, commit: bool) -> Result<BudgetView, ApiError> {
        let mut inner = self.lock();
        check_wedged(&inner)?;
        if !inner.tenants.contains_key(tenant) {
            return Err(ApiError::new(404, "unknown_tenant", "no such tenant"));
        }
        let (record, failpoints) = if commit {
            (
                LedgerRecord::Commit {
                    tenant: tenant.to_string(),
                    seq,
                },
                Some([
                    "ledger_pre_commit",
                    "ledger_mid_commit",
                    "ledger_post_commit",
                ]),
            )
        } else {
            (
                LedgerRecord::Abort {
                    tenant: tenant.to_string(),
                    seq,
                },
                None,
            )
        };
        write_or_wedge(&mut inner, &record, failpoints)?;
        let state = inner.tenants.get_mut(tenant).expect("checked above");
        let result = if commit {
            state.commit(seq)
        } else {
            state.abort(seq)
        };
        result.map_err(|e| ApiError::new(500, "ledger_protocol", e.to_string()))?;
        Ok(view_of(state))
    }

    /// Uploads a dataset, building its query, instance, fingerprint and
    /// execution context.  In-memory only (datasets are re-uploaded after a
    /// restart); involves no budget, so it never touches the ledger.
    pub fn create_dataset(&self, req: &CreateDatasetReq) -> Result<Arc<Dataset>, ApiError> {
        if !valid_tenant(&req.name) {
            return Err(ApiError::bad_request(
                "bad_dataset",
                "dataset names are 1-64 chars of [A-Za-z0-9_-]",
            ));
        }
        let attrs: Vec<Attribute> = req
            .domains
            .iter()
            .enumerate()
            .map(|(i, &dom)| Attribute::new(format!("a{i}"), dom))
            .collect();
        let schema = Schema::new(attrs);
        let rel_attrs: Vec<Vec<AttrId>> = req
            .relations
            .iter()
            .map(|r| r.attrs.iter().map(|&a| AttrId(a)).collect())
            .collect();
        let query = JoinQuery::new(schema, rel_attrs)
            .map_err(|e| ApiError::bad_request("bad_query", e.to_string()))?;
        let mut instance = Instance::empty_for(&query)
            .map_err(|e| ApiError::bad_request("bad_query", e.to_string()))?;
        for (i, rel) in req.relations.iter().enumerate() {
            for (tuple, freq) in &rel.tuples {
                instance
                    .relation_mut(i)
                    .add(tuple.clone(), *freq)
                    .map_err(|e| ApiError::bad_request("bad_tuple", e.to_string()))?;
            }
        }
        instance
            .validate(&query)
            .map_err(|e| ApiError::bad_request("bad_instance", e.to_string()))?;

        let fingerprint = instance_fingerprint(&query, &instance);
        let mut inner = self.lock();
        if inner.datasets.contains_key(&req.name) {
            return Err(ApiError::new(
                409,
                "dataset_exists",
                "dataset already exists",
            ));
        }
        let ctx = inner
            .contexts
            .entry(fingerprint)
            .or_insert_with(|| Arc::new(ExecContext::default()))
            .clone();
        let dataset = Arc::new(Dataset {
            name: req.name.clone(),
            query: Arc::new(query),
            instance: Arc::new(instance),
            fingerprint,
            ctx,
        });
        inner.datasets.insert(req.name.clone(), dataset.clone());
        Ok(dataset)
    }

    /// Applies an update batch to a served dataset
    /// (`ExecContext::apply_updates`: the dataset context drops the old
    /// instance's warm slot, and the next release rebuilds it under the
    /// updated instance's fingerprint).
    ///
    /// Like uploads, updates are in-memory only and never touch the ledger.
    /// The batch is applied outside the store lock; the swap-in is
    /// optimistic — if another request changed the dataset meanwhile, this
    /// one answers `409` and the client retries against the new state.
    pub fn update_dataset(
        &self,
        name: &str,
        req: &UpdateDatasetReq,
    ) -> Result<(Arc<Dataset>, UpdateReport), ApiError> {
        let ds = self.dataset(name)?;
        let mut batch = UpdateBatch::new();
        for op in &req.ops {
            if op.relation >= ds.query.num_relations() {
                return Err(ApiError::bad_request(
                    "bad_field",
                    format!(
                        "relation {} out of range (dataset has {})",
                        op.relation,
                        ds.query.num_relations()
                    ),
                ));
            }
            if op.insert {
                batch.insert(op.relation, op.tuple.clone(), op.count);
            } else {
                batch.delete(op.relation, op.tuple.clone(), op.count);
            }
        }
        let mut instance = (*ds.instance).clone();
        let report = ds
            .ctx
            .apply_updates(&ds.query, &mut instance, &batch)
            .map_err(|e| ApiError::bad_request("bad_update", e.to_string()))?;

        let mut inner = self.lock();
        match inner.datasets.get(name) {
            Some(current) if current.fingerprint == report.old_fingerprint => {}
            Some(_) => {
                return Err(ApiError::new(
                    409,
                    "dataset_conflict",
                    "dataset was modified concurrently; retry against the new state",
                ))
            }
            None => return Err(ApiError::new(404, "unknown_dataset", "no such dataset")),
        }
        let updated = Arc::new(Dataset {
            name: ds.name.clone(),
            query: ds.query.clone(),
            instance: Arc::new(instance),
            fingerprint: report.new_fingerprint,
            ctx: ds.ctx.clone(),
        });
        inner.datasets.insert(name.to_string(), updated.clone());
        // Re-key the context pool: future uploads with the updated content
        // share this (still-warm) context; the old fingerprint's entry is
        // dropped once no dataset serves it any more.
        inner
            .contexts
            .entry(report.new_fingerprint)
            .or_insert_with(|| updated.ctx.clone());
        let old_fp = report.old_fingerprint;
        if old_fp != report.new_fingerprint
            && !inner.datasets.values().any(|d| d.fingerprint == old_fp)
        {
            inner.contexts.remove(&old_fp);
        }
        Ok((updated, report))
    }

    /// Looks up a dataset by name.
    pub fn dataset(&self, name: &str) -> Result<Arc<Dataset>, ApiError> {
        self.lock()
            .datasets
            .get(name)
            .cloned()
            .ok_or_else(|| ApiError::new(404, "unknown_dataset", "no such dataset"))
    }

    /// Names of the datasets currently loaded.
    pub fn dataset_names(&self) -> Vec<String> {
        self.lock().datasets.keys().cloned().collect()
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.lock().tenants.len()
    }
}

fn check_wedged(inner: &StoreInner) -> Result<(), ApiError> {
    if inner.wedged {
        Err(ApiError::new(
            503,
            "ledger_wedged",
            "a previous ledger write failed; budget mutations are disabled until restart",
        ))
    } else {
        Ok(())
    }
}

fn write_or_wedge(
    inner: &mut StoreInner,
    record: &LedgerRecord,
    failpoints: Option<[&str; 3]>,
) -> Result<(), ApiError> {
    append_record(&mut inner.ledger, record, failpoints).map_err(|e| {
        inner.wedged = true;
        ApiError::new(503, "ledger_io", format!("ledger append failed: {e}"))
    })
}

/// Appends one record and fsyncs, hitting the `[pre, mid, post]` failpoints
/// when armed.  The `mid` site writes *half* the record and fsyncs before
/// crashing — the canonical torn write that recovery must truncate.
fn append_record(
    file: &mut File,
    record: &LedgerRecord,
    failpoints: Option<[&str; 3]>,
) -> std::io::Result<()> {
    let line = record.encode();
    let bytes = line.as_bytes();
    if let Some([pre, mid, post]) = failpoints {
        failpoint::maybe_crash(pre);
        if failpoint::should_fail(mid) {
            file.write_all(&bytes[..bytes.len() / 2])?;
            file.sync_data()?;
            failpoint::crash(mid);
        }
        file.write_all(bytes)?;
        file.sync_data()?;
        failpoint::maybe_crash(post);
    } else {
        file.write_all(bytes)?;
        file.sync_data()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(eps: f64, delta: f64) -> PrivacyParams {
        PrivacyParams::new(eps, delta).unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dpsyn-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn charges_survive_reopen_bit_exactly() {
        let dir = temp_dir("reopen");
        let spent_before;
        {
            let store = Store::open(&dir).unwrap();
            store.create_tenant("acme", params(1.0, 1e-6)).unwrap();
            for _ in 0..10 {
                let (seq, _) = store
                    .begin_charge("acme", params(0.07, 1e-8), "release:two_table/d")
                    .unwrap();
                store.commit_charge("acme", seq).unwrap();
            }
            spent_before = store.tenant_budget("acme").unwrap().spent;
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.recovery().resolved_intents, 0);
        assert_eq!(store.recovery().truncated_bytes, 0);
        let after = store.tenant_budget("acme").unwrap();
        assert_eq!(after.spent.0.to_bits(), spent_before.0.to_bits());
        assert_eq!(after.spent.1.to_bits(), spent_before.1.to_bits());
        assert_eq!(after.committed, 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pending_intent_is_conservatively_committed_on_reopen() {
        let dir = temp_dir("pending");
        {
            let store = Store::open(&dir).unwrap();
            store.create_tenant("t", params(1.0, 0.0)).unwrap();
            // Intent without resolution: simulates a crash mid-charge.
            store
                .begin_charge("t", params(0.4, 0.0), "release:x/y")
                .unwrap();
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.recovery().resolved_intents, 1);
        let view = store.tenant_budget("t").unwrap();
        assert_eq!(view.spent.0.to_bits(), 0.4f64.to_bits());
        assert_eq!(view.committed, 1);
        assert_eq!(view.pending, 0);
        // And the resolution itself is durable: a third open sees a clean
        // ledger with nothing left to resolve.
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.recovery().resolved_intents, 0);
        assert_eq!(
            store.tenant_budget("t").unwrap().spent.0.to_bits(),
            0.4f64.to_bits()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = temp_dir("torn");
        {
            let store = Store::open(&dir).unwrap();
            store.create_tenant("t", params(1.0, 0.0)).unwrap();
            let (seq, _) = store.begin_charge("t", params(0.25, 0.0), "a").unwrap();
            store.commit_charge("t", seq).unwrap();
        }
        // Tear the file mid-record.
        let path = dir.join(LEDGER_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let store = Store::open(&dir).unwrap();
        assert!(store.recovery().truncated_bytes > 0);
        // The torn record was the commit; its intent is now pending and
        // recovery resolved it conservatively — the spend is unchanged.
        assert_eq!(store.recovery().resolved_intents, 1);
        let view = store.tenant_budget("t").unwrap();
        assert_eq!(view.spent.0.to_bits(), 0.25f64.to_bits());
        // The file on disk is now clean: reopen finds no tear.
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.recovery().truncated_bytes, 0);
        assert_eq!(
            store.tenant_budget("t").unwrap().spent.0.to_bits(),
            0.25f64.to_bits()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admission_rejects_before_any_side_effect() {
        let dir = temp_dir("admission");
        let store = Store::open(&dir).unwrap();
        store.create_tenant("t", params(0.5, 0.0)).unwrap();
        let ledger_len = std::fs::metadata(dir.join(LEDGER_FILE)).unwrap().len();
        let err = store
            .begin_charge("t", params(0.6, 0.0), "too-big")
            .unwrap_err();
        assert_eq!(err.status, 429);
        assert_eq!(err.code, "budget_exhausted");
        // No intent was written for the rejected charge.
        assert_eq!(
            std::fs::metadata(dir.join(LEDGER_FILE)).unwrap().len(),
            ledger_len
        );
        // An admitted charge then aborts cleanly, releasing the budget.
        let (seq, _) = store.begin_charge("t", params(0.5, 0.0), "ok").unwrap();
        let view = store.abort_charge("t", seq).unwrap();
        assert_eq!(view.spent.0, 0.0);
        assert_eq!(view.aborted, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_tenant_and_unknown_lookups() {
        let dir = temp_dir("dup");
        let store = Store::open(&dir).unwrap();
        store.create_tenant("t", params(1.0, 0.0)).unwrap();
        assert_eq!(
            store
                .create_tenant("t", params(1.0, 0.0))
                .unwrap_err()
                .status,
            409
        );
        assert_eq!(
            store
                .create_tenant("bad name", params(1.0, 0.0))
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(store.tenant_budget("nope").unwrap_err().status, 404);
        assert_eq!(
            store
                .begin_charge("nope", params(0.1, 0.0), "x")
                .unwrap_err()
                .status,
            404
        );
        assert_eq!(store.dataset("nope").unwrap_err().status, 404);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn datasets_share_contexts_by_fingerprint() {
        let dir = temp_dir("ds");
        let store = Store::open(&dir).unwrap();
        let req = CreateDatasetReq {
            name: "d1".to_string(),
            domains: vec![4, 4],
            relations: vec![
                crate::wire::RelationSpec {
                    attrs: vec![0, 1],
                    tuples: vec![(vec![0, 1], 2), (vec![1, 1], 1)],
                },
                crate::wire::RelationSpec {
                    attrs: vec![1],
                    tuples: vec![(vec![1], 3)],
                },
            ],
        };
        let d1 = store.create_dataset(&req).unwrap();
        assert_eq!(store.create_dataset(&req).unwrap_err().status, 409);
        let mut req2 = req.clone();
        req2.name = "d2".to_string();
        let d2 = store.create_dataset(&req2).unwrap();
        // Identical (query, instance) → same fingerprint → same context.
        assert_eq!(d1.fingerprint, d2.fingerprint);
        assert!(Arc::ptr_eq(&d1.ctx, &d2.ctx));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
