//! The SAE deployment: DO → (SP, TE) → client.
//!
//! Under SAE the service provider runs a *conventional* DBMS — a heap file
//! holding the outsourced records plus a plain B⁺-Tree — and returns only the
//! query result. All authentication work is outsourced to the trusted entity,
//! which keeps one `(id, key, digest)` tuple per record in an XB-Tree and
//! answers each verification request with the 20-byte token
//! `VT = ⊕ h(r)` over the records qualifying the query. The client hashes the
//! records it received from the SP, XORs the digests and compares against the
//! VT (§II).

use crate::metrics::{QueryMetrics, StorageBreakdown};
use crate::tamper::TamperStrategy;
use sae_btree::BPlusTree;
use sae_crypto::{Digest, HashAlgorithm, DIGEST_LEN};
use sae_storage::{
    CostModel, HeapFile, MemPager, PageId, RecordBlock, RecordId, SharedPageStore, StorageError,
    StorageResult, TreeMeta,
};
use sae_workload::{Dataset, RangeQuery, Record, RecordKey, TeTuple};
use sae_xbtree::{TupleStore, XbTree};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Reads the `(id, key)` header of an encoded record in place, without
/// copying the payload. Returns `None` when `bytes` is too short to hold a
/// header — callers map that to their own corruption/verification error.
pub(crate) fn record_header(bytes: &[u8]) -> Option<(u64, u32)> {
    let id = bytes.get(0..8)?.try_into().ok()?;
    let key = bytes.get(8..12)?.try_into().ok()?;
    Some((u64::from_le_bytes(id), u32::from_le_bytes(key)))
}

/// The service provider under SAE: a conventional DBMS with no authentication
/// structures whatsoever.
pub struct SaeServiceProvider {
    store: SharedPageStore,
    heap: HeapFile,
    index: BPlusTree,
    /// Maps a record's logical id to its position in the heap file.
    directory: HashMap<u64, RecordId>,
}

impl SaeServiceProvider {
    /// Ingests the outsourced dataset: the records are stored key-clustered in
    /// a heap file and indexed by a bulk-loaded B⁺-Tree whose values are heap
    /// positions.
    pub fn build(store: SharedPageStore, dataset: &Dataset) -> StorageResult<Self> {
        let sorted = dataset.sorted_by_key();
        let mut heap = HeapFile::create(store.clone(), dataset.spec.record_size)?;
        let encoded: Vec<Vec<u8>> = sorted.iter().map(|r| r.encode()).collect();
        heap.append_batch(encoded.iter().map(|e| e.as_slice()))?;

        let mut directory = HashMap::with_capacity(sorted.len());
        let entries: Vec<(u32, u64)> = sorted
            .iter()
            .enumerate()
            .map(|(pos, r)| {
                directory.insert(r.id, RecordId(pos as u64));
                (r.key, pos as u64)
            })
            .collect();
        let index = BPlusTree::bulk_load(store.clone(), &entries)?;
        Ok(SaeServiceProvider {
            store,
            heap,
            index,
            directory,
        })
    }

    /// Reopens a service provider from its persisted state: the B⁺-Tree is
    /// reopened from its manifest meta, the heap file from its recovered
    /// page table, and the id directory is rebuilt by walking the *index*
    /// (never the original dataset) — tombstoned heap slots are not indexed,
    /// so they stay dead. A record id reachable from two index positions is
    /// reported as corruption.
    pub fn open(
        store: SharedPageStore,
        record_len: usize,
        heap_record_count: u64,
        heap_pages: Vec<PageId>,
        index_meta: TreeMeta,
    ) -> StorageResult<Self> {
        let index = BPlusTree::open(store.clone(), index_meta)?;
        let heap = HeapFile::open(store.clone(), record_len, heap_record_count, heap_pages)?;
        let positions = index.range_record_ids(&RangeQuery::new(0, RecordKey::MAX))?;
        if positions.len() as u64 != index.len() {
            return Err(StorageError::Corrupted(format!(
                "recovered index claims {} entries but a full scan found {}",
                index.len(),
                positions.len()
            )));
        }
        let mut directory = HashMap::with_capacity(positions.len());
        heap.for_each_at(&positions, |pos, bytes| {
            let Some((id, _)) = record_header(bytes) else {
                return Err(StorageError::Corrupted(format!(
                    "heap slot {pos} too short to hold a record header"
                )));
            };
            if directory.insert(id, RecordId(pos)).is_some() {
                return Err(StorageError::Corrupted(format!(
                    "record id {id} is reachable from two index positions in the recovered \
                     deployment"
                )));
            }
            Ok(())
        })?;
        Ok(SaeServiceProvider {
            store,
            heap,
            index,
            directory,
        })
    }

    /// Answers a range query: index traversal, then retrieval of the matching
    /// records from the dataset file. Returns the encoded records in key
    /// order, packed into one block: each heap page's run of records is
    /// copied once, straight from the page.
    pub fn query(&self, q: &RangeQuery) -> StorageResult<RecordBlock> {
        let positions = self.index.range_record_ids(q)?;
        let record_len = self.heap.record_len();
        let mut out = RecordBlock::with_capacity(positions.len(), positions.len() * record_len);
        // The heap is key-clustered for the initial load, so contiguous runs
        // can be fetched page-by-page; updates may break contiguity, in which
        // case records are fetched individually.
        let mut i = 0;
        while i < positions.len() {
            let mut run = 1;
            while i + run < positions.len() && positions[i + run] == positions[i] + run as u64 {
                run += 1;
            }
            self.heap
                .read_range_into(RecordId(positions[i]), run as u64, &mut out)?;
            i += run;
        }
        Ok(out)
    }

    /// Applies an insertion coming from the data owner.
    ///
    /// Duplicate ids are rejected: silently overwriting the directory entry
    /// would leave the old heap slot reachable through the index while the
    /// directory points elsewhere, silently corrupting later deletions.
    pub fn insert(&mut self, record: &Record) -> StorageResult<()> {
        if self.directory.contains_key(&record.id) {
            return Err(StorageError::DuplicateRecordId(record.id));
        }
        let pos = self.heap.append(&record.encode())?;
        self.directory.insert(record.id, pos);
        self.index.insert(record.key, pos.0)
    }

    /// Applies a deletion coming from the data owner. The heap slot is left in
    /// place (tombstoned by removing it from the index and directory).
    pub fn delete(&mut self, id: u64, key: u32) -> StorageResult<bool> {
        Ok(self.take(id, key)?.is_some())
    }

    /// Removes a record from the directory and index, returning its heap
    /// position so the caller can roll the deletion back with
    /// [`SaeServiceProvider::restore`]. Returns `Ok(None)` when the record is
    /// unknown (nothing changed).
    pub fn take(&mut self, id: u64, key: u32) -> StorageResult<Option<RecordId>> {
        let Some(pos) = self.directory.remove(&id) else {
            return Ok(None);
        };
        match self.index.delete(key, pos.0) {
            Ok(true) => Ok(Some(pos)),
            // The directory and the index disagreed (or the index errored):
            // undo the directory removal so the SP stays self-consistent.
            Ok(false) => {
                self.directory.insert(id, pos);
                Err(StorageError::Desync(format!(
                    "SP directory maps record {id} to heap slot {} but the index has no entry \
                     for key {key}",
                    pos.0
                )))
            }
            Err(e) => {
                self.directory.insert(id, pos);
                Err(e)
            }
        }
    }

    /// Undoes a [`SaeServiceProvider::take`]: re-links the (still present)
    /// heap slot into the directory and index.
    pub fn restore(&mut self, id: u64, key: u32, pos: RecordId) -> StorageResult<()> {
        self.directory.insert(id, pos);
        self.index.insert(key, pos.0)
    }

    /// The fixed encoded record length of the outsourced dataset.
    pub fn record_len(&self) -> usize {
        self.heap.record_len()
    }

    /// The shared page store (for I/O accounting).
    pub fn store(&self) -> &SharedPageStore {
        &self.store
    }

    /// The B⁺-Tree index (exposed for experiments/ablations).
    pub fn index(&self) -> &BPlusTree {
        &self.index
    }

    /// The heap file holding the outsourced records (exposed so durable
    /// deployments can persist its geometry).
    pub fn heap(&self) -> &HeapFile {
        &self.heap
    }

    /// The ids of every live record this SP serves.
    pub fn record_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.directory.keys().copied()
    }

    /// Storage consumed by the dataset file.
    pub fn dataset_bytes(&self) -> u64 {
        self.heap.storage_bytes()
    }

    /// Storage consumed by the index.
    pub fn index_bytes(&self) -> u64 {
        self.index.storage_bytes()
    }
}

/// How the trusted entity computes verification tokens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TeMode {
    /// Use the XB-Tree (the paper's design).
    XbTree,
    /// Sequentially scan the tuple set (the baseline of ablation E5).
    SequentialScan,
}

/// The trusted entity: reduced tuples plus the XB-Tree.
pub struct TrustedEntity {
    store: SharedPageStore,
    tree: XbTree,
    scan: Option<TupleStore>,
    mode: TeMode,
    alg: HashAlgorithm,
}

impl TrustedEntity {
    /// Ingests the reduced tuples `T` derived from the outsourced dataset.
    pub fn build(
        store: SharedPageStore,
        dataset: &Dataset,
        alg: HashAlgorithm,
        mode: TeMode,
    ) -> StorageResult<Self> {
        let mut tuples: Vec<TeTuple> = dataset.iter().map(|r| r.te_tuple(alg)).collect();
        tuples.sort_by_key(|t| (t.key, t.id));
        let tree = XbTree::bulk_load(store.clone(), &tuples)?;
        let scan = match mode {
            TeMode::SequentialScan => Some(TupleStore::build(store.clone(), &tuples)?),
            TeMode::XbTree => None,
        };
        Ok(TrustedEntity {
            store,
            tree,
            scan,
            mode,
            alg,
        })
    }

    /// Reopens a trusted entity from its persisted XB-Tree root and checks
    /// the tree's recomputed total XOR against the digest published in the
    /// manifest at the last commit. Any divergence — a tampered page, a
    /// file substituted wholesale, a root pointing at stale pages — fails
    /// here with a typed error before the TE ever issues a token.
    pub fn open(
        store: SharedPageStore,
        meta: TreeMeta,
        alg: HashAlgorithm,
        published: Digest,
    ) -> StorageResult<Self> {
        let tree = XbTree::open(store.clone(), meta)?;
        let actual = tree.total_xor()?;
        if actual != published {
            return Err(StorageError::Corrupted(format!(
                "trusted entity digest mismatch: the reopened XB-Tree folds to {} but the \
                 manifest published {}",
                actual.to_hex(),
                published.to_hex()
            )));
        }
        Ok(TrustedEntity {
            store,
            tree,
            scan: None,
            mode: TeMode::XbTree,
            alg,
        })
    }

    /// Produces the verification token for a query.
    pub fn generate_vt(&self, q: &RangeQuery) -> StorageResult<Digest> {
        match (self.mode, &self.scan) {
            (TeMode::SequentialScan, Some(scan)) => scan.generate_vt_scan(q),
            _ => self.tree.generate_vt(q),
        }
    }

    /// Applies an insertion coming from the data owner.
    pub fn insert(&mut self, record: &Record) -> StorageResult<()> {
        self.tree.insert(record.te_tuple(self.alg))
    }

    /// Applies a deletion coming from the data owner.
    pub fn delete(&mut self, id: u64, key: u32) -> StorageResult<bool> {
        self.tree.delete(key, id)
    }

    /// Removes the tuple for `(id, key)`, returning it so the caller can roll
    /// the deletion back with [`TrustedEntity::restore`]. `Ok(None)` when the
    /// TE holds no such tuple.
    pub fn take(&mut self, id: u64, key: u32) -> StorageResult<Option<TeTuple>> {
        Ok(self
            .tree
            .take(key, id)?
            .map(|digest| TeTuple { id, key, digest }))
    }

    /// Undoes a [`TrustedEntity::take`] by re-inserting the removed tuple.
    pub fn restore(&mut self, tuple: TeTuple) -> StorageResult<()> {
        self.tree.insert(tuple)
    }

    /// The shared page store (for I/O accounting).
    pub fn store(&self) -> &SharedPageStore {
        &self.store
    }

    /// The XB-Tree (exposed for experiments/ablations).
    pub fn tree(&self) -> &XbTree {
        &self.tree
    }

    /// Storage consumed by the TE (XB-Tree, plus the flat tuple set when the
    /// sequential-scan mode keeps one).
    pub fn storage_bytes(&self) -> u64 {
        self.tree.storage_bytes() + self.scan.as_ref().map_or(0, TupleStore::storage_bytes)
    }
}

/// Why the SAE client rejected a claimed result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SaeVerifyError {
    /// A result record could not be decoded as a record of the outsourced
    /// relation.
    BadRecordEncoding,
    /// A record's encoded length does not match the dataset's record format.
    WrongRecordLength {
        /// The fixed length the data owner published.
        expected: usize,
        /// The length of the offending record.
        actual: usize,
    },
    /// Two result records share a record id. Ids are unique in the outsourced
    /// relation, so a duplicate is always fabricated — and an even number of
    /// copies would cancel out of a bare XOR fold (`h(r) ⊕ h(r) = 0`).
    DuplicateRecordId(u64),
    /// A result record's key falls outside `[q.lower, q.upper]`.
    KeyOutOfRange,
    /// Result records are not sorted by key.
    NotSorted,
    /// The XOR of the record digests does not equal the verification token.
    TokenMismatch,
}

impl std::fmt::Display for SaeVerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SaeVerifyError::BadRecordEncoding => write!(f, "result record failed to decode"),
            SaeVerifyError::WrongRecordLength { expected, actual } => write!(
                f,
                "record length mismatch: expected {expected} bytes, got {actual}"
            ),
            SaeVerifyError::DuplicateRecordId(id) => {
                write!(f, "record id {id} appears more than once in the result")
            }
            SaeVerifyError::KeyOutOfRange => write!(f, "result record outside the query range"),
            SaeVerifyError::NotSorted => write!(f, "result records not sorted by key"),
            SaeVerifyError::TokenMismatch => {
                write!(f, "digest XOR does not match the verification token")
            }
        }
    }
}

impl std::error::Error for SaeVerifyError {}

/// The SAE client-side verification.
///
/// The TE's token is the XOR of the digests of the records qualifying the
/// query, so before comparing against it the client must enforce the result
/// structure that makes the XOR fold sound: the outsourced relation has unique
/// record ids, the SP returns records in key order within `[q.lower,
/// q.upper]`, and every record uses the fixed encoded length the data owner
/// published. Without those checks an SP that injects the same fabricated
/// record an even number of times passes a bare XOR comparison, because
/// `h(r) ⊕ h(r) = 0`.
pub struct SaeClient {
    alg: HashAlgorithm,
    /// The fixed encoded record length of the outsourced relation, when the
    /// client knows it (published by the data owner alongside the schema).
    record_len: Option<usize>,
}

impl SaeClient {
    /// Creates a client using the system-wide hash algorithm. The record
    /// length check degrades to "all records equally long" until
    /// [`SaeClient::with_record_len`] supplies the published format.
    pub fn new(alg: HashAlgorithm) -> Self {
        SaeClient {
            alg,
            record_len: None,
        }
    }

    /// Creates a client that also knows the published fixed record length.
    pub fn with_record_len(alg: HashAlgorithm, record_len: usize) -> Self {
        SaeClient {
            alg,
            record_len: Some(record_len),
        }
    }

    /// The hash algorithm this client folds digests with — part of the
    /// published deployment parameters a remote client must be configured
    /// with (see `sae-net`).
    pub fn algorithm(&self) -> HashAlgorithm {
        self.alg
    }

    /// The published fixed record length, when known.
    pub fn record_len(&self) -> Option<usize> {
        self.record_len
    }

    /// Verifies a claimed result against a verification token. Returns
    /// `(accepted, wall-clock milliseconds spent)`.
    pub fn verify(&self, q: &RangeQuery, result_records: &RecordBlock, vt: &Digest) -> (bool, f64) {
        let (outcome, ms) = self.verify_detailed(q, result_records, vt);
        (outcome.is_ok(), ms)
    }

    /// Verifies a claimed result, reporting *why* a tampered result was
    /// rejected. Returns the verdict and the wall-clock milliseconds spent.
    pub fn verify_detailed(
        &self,
        q: &RangeQuery,
        result_records: &RecordBlock,
        vt: &Digest,
    ) -> (Result<(), SaeVerifyError>, f64) {
        let start = Instant::now();
        let outcome = self.check(q, result_records, vt);
        (outcome, start.elapsed().as_secs_f64() * 1000.0)
    }

    fn check(
        &self,
        q: &RangeQuery,
        result_records: &RecordBlock,
        vt: &Digest,
    ) -> Result<(), SaeVerifyError> {
        // ---- 1. Structural checks: the result must look like a contiguous
        // slice of the outsourced relation before the XOR fold means anything.
        let expected_len = self
            .record_len
            .or_else(|| result_records.first().map(<[u8]>::len));
        let mut seen_ids = HashSet::with_capacity(result_records.len());
        let mut prev_key: Option<u32> = None;
        for bytes in result_records {
            if let Some(expected) = expected_len {
                if bytes.len() != expected {
                    return Err(SaeVerifyError::WrongRecordLength {
                        expected,
                        actual: bytes.len(),
                    });
                }
            }
            // Read the id/key header in place: verification is on the
            // client's hot path (Fig. 7) and a full `Record::decode` would
            // copy the payload just to look at the first 12 bytes.
            let Some((id, key)) = record_header(bytes) else {
                return Err(SaeVerifyError::BadRecordEncoding);
            };
            if !seen_ids.insert(id) {
                return Err(SaeVerifyError::DuplicateRecordId(id));
            }
            if !q.contains(key) {
                return Err(SaeVerifyError::KeyOutOfRange);
            }
            if prev_key.is_some_and(|p| p > key) {
                return Err(SaeVerifyError::NotSorted);
            }
            prev_key = Some(key);
        }

        // ---- 2. The cryptographic check: XOR the digests, compare with VT.
        let digest = self
            .alg
            .fold_packed(result_records.as_bytes(), result_records.ends());
        if digest == *vt {
            Ok(())
        } else {
            Err(SaeVerifyError::TokenMismatch)
        }
    }
}

/// Everything a query run produces under SAE.
#[derive(Clone, Debug)]
pub struct SaeQueryOutcome {
    /// The (possibly tampered) result the SP returned, encoded records.
    pub records: RecordBlock,
    /// The verification token from the TE.
    pub vt: Digest,
    /// Cost accounting for this query.
    pub metrics: QueryMetrics,
}

/// The paper's single SP/TE pair as a sequential reference model, over
/// in-memory or explicit (e.g. file-backed) page stores. The figures drive
/// it one query at a time and the tests compare against it; the concurrent
/// and durable engine is [`crate::sharded::ShardedSaeEngine`].
pub struct SaeSystem {
    sp: SaeServiceProvider,
    te: TrustedEntity,
    client: SaeClient,
    alg: HashAlgorithm,
    cost_model: CostModel,
}

impl SaeSystem {
    /// Builds a deployment on fresh in-memory stores (one per party).
    pub fn build_in_memory(dataset: &Dataset, alg: HashAlgorithm) -> StorageResult<Self> {
        Self::build(
            MemPager::new_shared(),
            MemPager::new_shared(),
            dataset,
            alg,
            CostModel::paper(),
            TeMode::XbTree,
        )
    }

    /// Builds a deployment on explicit page stores.
    pub fn build(
        sp_store: SharedPageStore,
        te_store: SharedPageStore,
        dataset: &Dataset,
        alg: HashAlgorithm,
        cost_model: CostModel,
        te_mode: TeMode,
    ) -> StorageResult<Self> {
        let sp = SaeServiceProvider::build(sp_store, dataset)?;
        let te = TrustedEntity::build(te_store, dataset, alg, te_mode)?;
        Ok(SaeSystem {
            sp,
            te,
            client: SaeClient::with_record_len(alg, dataset.spec.record_size),
            alg,
            cost_model,
        })
    }

    /// The hash algorithm shared by all parties.
    pub fn hash_algorithm(&self) -> HashAlgorithm {
        self.alg
    }

    /// Access to the SP (for experiments).
    pub fn sp(&self) -> &SaeServiceProvider {
        &self.sp
    }

    /// Access to the TE (for experiments).
    pub fn te(&self) -> &TrustedEntity {
        &self.te
    }

    /// Mutable access to the SP (for experiments and fault injection).
    pub fn sp_mut(&mut self) -> &mut SaeServiceProvider {
        &mut self.sp
    }

    /// Mutable access to the TE (for experiments and fault injection).
    pub fn te_mut(&mut self) -> &mut TrustedEntity {
        &mut self.te
    }

    /// The cost model charged for node accesses.
    pub fn cost_model(&self) -> CostModel {
        self.cost_model
    }

    /// Runs one query honestly and verifies it.
    pub fn query(&self, q: &RangeQuery) -> StorageResult<SaeQueryOutcome> {
        self.query_with_tamper(q, TamperStrategy::Honest, 0)
    }

    /// Runs one query with the SP applying the given tampering strategy before
    /// returning the result.
    pub fn query_with_tamper(
        &self,
        q: &RangeQuery,
        tamper: TamperStrategy,
        seed: u64,
    ) -> StorageResult<SaeQueryOutcome> {
        // --- Service provider: compute the result.
        let sp_before = self.sp.store().stats().snapshot();
        let honest = self.sp.query(q)?;
        let sp_delta = self.sp.store().stats().snapshot().delta_since(&sp_before);

        let records = tamper.apply_block(honest, q, seed, self.sp.record_len());

        // --- Trusted entity: compute the token (independent of the SP).
        let te_before = self.te.store().stats().snapshot();
        let vt = self.te.generate_vt(q)?;
        let te_delta = self.te.store().stats().snapshot().delta_since(&te_before);

        // --- Client: verify.
        let (verified, client_ms) = self.client.verify(q, &records, &vt);

        Ok(SaeQueryOutcome {
            metrics: QueryMetrics {
                result_cardinality: records.len() as u64,
                sp_node_accesses: sp_delta.node_accesses(),
                sp_charged_ms: self.cost_model.charge_ms(&sp_delta),
                te_node_accesses: te_delta.node_accesses(),
                te_charged_ms: self.cost_model.charge_ms(&te_delta),
                auth_bytes: DIGEST_LEN as u64,
                client_verify_ms: client_ms,
                verified,
            },
            records,
            vt,
        })
    }

    /// Propagates an insertion from the data owner to both the SP and the TE.
    /// If the TE insertion fails after the SP accepted the record, the SP
    /// insertion is rolled back so the parties never diverge.
    pub fn insert_record(&mut self, record: &Record) -> StorageResult<()> {
        insert_into_parties(&mut self.sp, &mut self.te, record)
    }

    /// Propagates a deletion from the data owner to both the SP and the TE.
    ///
    /// The parties must agree: if exactly one of them holds the record, the
    /// successful removal is rolled back and [`StorageError::Desync`] is
    /// returned instead of leaving the deployment silently diverged (which
    /// would make every later query covering the key fail verification).
    pub fn delete_record(&mut self, id: u64, key: u32) -> StorageResult<bool> {
        delete_from_parties(&mut self.sp, &mut self.te, id, key)
    }

    /// Per-party storage consumption (Fig. 8).
    pub fn storage_breakdown(&self) -> StorageBreakdown {
        StorageBreakdown {
            sp_dataset_bytes: self.sp.dataset_bytes(),
            sp_index_bytes: self.sp.index_bytes(),
            te_bytes: self.te.storage_bytes(),
        }
    }
}

/// Inserts a record into both parties; a TE failure rolls the SP insertion
/// back (tombstoning the fresh heap slot) so the parties never diverge.
/// Shared between [`SaeSystem::insert_record`] and the concurrent engine.
pub(crate) fn insert_into_parties(
    sp: &mut SaeServiceProvider,
    te: &mut TrustedEntity,
    record: &Record,
) -> StorageResult<()> {
    sp.insert(record)?;
    if let Err(e) = te.insert(record) {
        sp.take(record.id, record.key)?;
        return Err(e);
    }
    Ok(())
}

/// Deletes `(id, key)` from both parties with rollback on disagreement.
/// Shared between [`SaeSystem::delete_record`] and the concurrent engine,
/// which holds the parties behind independent locks. Returns whether the
/// record existed.
pub(crate) fn delete_from_parties(
    sp: &mut SaeServiceProvider,
    te: &mut TrustedEntity,
    id: u64,
    key: u32,
) -> StorageResult<bool> {
    let sp_pos = sp.take(id, key)?;
    let te_tuple = match te.take(id, key) {
        Ok(tuple) => tuple,
        Err(e) => {
            // A TE *storage error* (not a disagreement) must also undo the SP
            // removal, or the error path itself would desynchronize the
            // parties.
            if let Some(pos) = sp_pos {
                sp.restore(id, key, pos)?;
            }
            return Err(e);
        }
    };
    match (sp_pos, te_tuple) {
        (Some(_), Some(_)) => Ok(true),
        (None, None) => Ok(false),
        (Some(pos), None) => {
            sp.restore(id, key, pos)?;
            Err(StorageError::Desync(format!(
                "delete({id}, {key}): the SP held the record but the TE had no tuple; \
                 the SP removal was rolled back"
            )))
        }
        (None, Some(tuple)) => {
            te.restore(tuple)?;
            Err(StorageError::Desync(format!(
                "delete({id}, {key}): the TE held a tuple but the SP had no record; \
                 the TE removal was rolled back"
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sae_workload::{DatasetSpec, KeyDistribution, RECORD_HEADER_LEN};

    fn block(records: &[Vec<u8>]) -> RecordBlock {
        records.iter().collect()
    }

    fn small_dataset(n: usize) -> Dataset {
        DatasetSpec {
            cardinality: n,
            distribution: KeyDistribution::Uniform { domain: 50_000 },
            record_size: 200,
            seed: 21,
        }
        .generate()
    }

    #[test]
    fn honest_queries_verify_and_match_the_oracle() {
        let ds = small_dataset(4_000);
        let system = SaeSystem::build_in_memory(&ds, HashAlgorithm::Sha1).unwrap();
        for (lo, hi) in [
            (0u32, 50_000u32),
            (10_000, 12_000),
            (49_000, 50_000),
            (7, 7),
        ] {
            let q = RangeQuery::new(lo, hi);
            let outcome = system.query(&q).unwrap();
            assert!(outcome.metrics.verified, "query [{lo}, {hi}]");
            assert_eq!(
                outcome.records.len(),
                ds.query_cardinality(&q),
                "query [{lo}, {hi}]"
            );
            // Every returned record decodes and satisfies the query.
            for bytes in &outcome.records {
                let r = Record::decode(bytes).unwrap();
                assert!(q.contains(r.key));
            }
            assert_eq!(outcome.metrics.auth_bytes, 20);
        }
    }

    #[test]
    fn tampered_results_are_rejected() {
        let ds = small_dataset(3_000);
        let system = SaeSystem::build_in_memory(&ds, HashAlgorithm::Sha1).unwrap();
        let q = RangeQuery::new(20_000, 24_000);
        assert!(ds.query_cardinality(&q) > 5);

        for strategy in [
            TamperStrategy::DropRecords { count: 1 },
            TamperStrategy::InjectRecords { count: 1 },
            TamperStrategy::ModifyRecords { count: 1 },
            TamperStrategy::SubstituteResult { count: 10 },
            TamperStrategy::DuplicatePair { count: 1 },
            TamperStrategy::DuplicateExisting { count: 1 },
        ] {
            let outcome = system.query_with_tamper(&q, strategy, 99).unwrap();
            assert!(!outcome.metrics.verified, "{strategy:?} went undetected");
        }
    }

    /// Regression for the XOR duplicate-injection soundness hole: a bare XOR
    /// fold of the digests *accepts* a result with even-multiplicity
    /// duplicates (`h(r) ⊕ h(r) = 0`), so the demonstration below would have
    /// passed the old `SaeClient::verify`. The structural checks must reject
    /// it.
    #[test]
    fn duplicate_injection_cancels_the_xor_fold_but_is_rejected() {
        let ds = small_dataset(3_000);
        let system = SaeSystem::build_in_memory(&ds, HashAlgorithm::Sha1).unwrap();
        let q = RangeQuery::new(20_000, 24_000);

        for strategy in [
            TamperStrategy::DuplicatePair { count: 2 },
            TamperStrategy::DuplicateExisting { count: 1 },
        ] {
            let outcome = system.query_with_tamper(&q, strategy, 7).unwrap();
            // The tampered result really differs from the honest one...
            assert!(
                outcome.records.len() > ds.query_cardinality(&q),
                "{strategy:?}"
            );
            // ...yet its bare XOR fold still equals the TE's token: the old
            // fold-only client accepted exactly this result.
            let mut acc = Digest::ZERO;
            for r in &outcome.records {
                acc ^= HashAlgorithm::Sha1.hash(r);
            }
            assert_eq!(acc, outcome.vt, "{strategy:?} no longer cancels");
            // The structural client rejects it.
            assert!(!outcome.metrics.verified, "{strategy:?} went undetected");
            let client = SaeClient::with_record_len(HashAlgorithm::Sha1, 200);
            let (verdict, _) = client.verify_detailed(&q, &outcome.records, &outcome.vt);
            assert!(
                matches!(verdict, Err(SaeVerifyError::DuplicateRecordId(_))),
                "{strategy:?}: {verdict:?}"
            );
        }
    }

    #[test]
    fn client_rejects_malformed_result_structures() {
        let alg = HashAlgorithm::Sha1;
        let client = SaeClient::with_record_len(alg, 64);
        let q = RangeQuery::new(100, 200);
        let a = Record::with_size(1, 120, 64);
        let b = Record::with_size(2, 150, 64);
        let vt_of = |records: &[&Record]| {
            let mut acc = Digest::ZERO;
            for r in records {
                acc ^= r.digest(alg);
            }
            acc
        };

        // Honest baseline accepts.
        let vt = vt_of(&[&a, &b]);
        let (ok, _) = client.verify(&q, &block(&[a.encode(), b.encode()]), &vt);
        assert!(ok);

        // Wrong record length (the fabricated record cancels itself, so only
        // the length check can catch it).
        let bogus = Record::with_size(99, 150, 32);
        let with_pair = vec![a.encode(), bogus.encode(), bogus.encode(), b.encode()];
        let (verdict, _) = client.verify_detailed(&q, &block(&with_pair), &vt_of(&[&a, &b]));
        assert!(matches!(
            verdict,
            Err(SaeVerifyError::WrongRecordLength { expected: 64, .. })
        ));

        // Key outside the query range.
        let outside = Record::with_size(3, 500, 64);
        let (verdict, _) = client.verify_detailed(
            &q,
            &block(&[a.encode(), outside.encode()]),
            &vt_of(&[&a, &outside]),
        );
        assert_eq!(verdict, Err(SaeVerifyError::KeyOutOfRange));

        // Unsorted keys.
        let (verdict, _) =
            client.verify_detailed(&q, &block(&[b.encode(), a.encode()]), &vt_of(&[&a, &b]));
        assert_eq!(verdict, Err(SaeVerifyError::NotSorted));

        // Undecodable record (too short for the header) with a matching
        // record-length-free client.
        let free_client = SaeClient::new(alg);
        let stub = vec![0u8; 4];
        let mut acc = Digest::ZERO;
        acc ^= alg.hash(&stub);
        let (verdict, _) = free_client.verify_detailed(&q, &block(&[stub]), &acc);
        assert_eq!(verdict, Err(SaeVerifyError::BadRecordEncoding));

        // Plain token mismatch still reported.
        let (verdict, _) = client.verify_detailed(&q, &block(&[a.encode()]), &vt_of(&[&a, &b]));
        assert_eq!(verdict, Err(SaeVerifyError::TokenMismatch));
    }

    /// Every record of an answer is folded, wherever it falls: a lone one, a
    /// whole group of equal-length records hashed together, or the remainder
    /// after the last whole group.
    #[test]
    fn a_flipped_payload_byte_in_any_record_is_rejected() {
        let alg = HashAlgorithm::Sha1;
        let client = SaeClient::with_record_len(alg, 500);
        let q = RangeQuery::new(0, 1_000);
        for n in 1..=40u32 {
            let records: Vec<Vec<u8>> = (1..=n)
                .map(|i| Record::with_size(u64::from(i), i * 10, 500).encode())
                .collect();
            let mut vt = Digest::ZERO;
            for r in &records {
                vt ^= alg.hash(r);
            }
            let (verdict, _) = client.verify_detailed(&q, &block(&records), &vt);
            assert_eq!(verdict, Ok(()), "{n} records");

            for i in 0..records.len() {
                let mut tampered = records.clone();
                tampered[i][RECORD_HEADER_LEN + i * 7] ^= 0x01;
                let (verdict, _) = client.verify_detailed(&q, &block(&tampered), &vt);
                assert_eq!(
                    verdict,
                    Err(SaeVerifyError::TokenMismatch),
                    "{n} records, record {i} flipped"
                );
            }
        }
    }

    #[test]
    fn duplicate_insert_is_rejected_without_corrupting_the_sp() {
        let ds = small_dataset(500);
        let mut system = SaeSystem::build_in_memory(&ds, HashAlgorithm::Sha1).unwrap();
        let existing = ds.records[0].clone();
        let clash = Record::with_size(existing.id, 49_999, 200);
        assert!(matches!(
            system.insert_record(&clash),
            Err(StorageError::DuplicateRecordId(_))
        ));
        // The original record is still served and verifiable.
        let q = RangeQuery::new(existing.key, existing.key);
        let outcome = system.query(&q).unwrap();
        assert!(outcome.metrics.verified);
        assert!(outcome
            .records
            .iter()
            .any(|r| Record::decode(r).unwrap().id == existing.id));
    }

    #[test]
    fn one_sided_deletes_roll_back_and_report_desync() {
        let ds = small_dataset(1_000);
        let mut system = SaeSystem::build_in_memory(&ds, HashAlgorithm::Sha1).unwrap();
        let victim = ds.records[7].clone();

        // Diverge the parties: the TE loses the tuple, the SP keeps the record.
        assert!(system.te_mut().delete(victim.id, victim.key).unwrap());
        let err = system.delete_record(victim.id, victim.key).unwrap_err();
        assert!(matches!(err, StorageError::Desync(_)), "{err}");
        // The SP removal was rolled back: the record is still queryable.
        let q = RangeQuery::new(victim.key, victim.key);
        let outcome = system.query(&q).unwrap();
        assert!(outcome
            .records
            .iter()
            .any(|r| Record::decode(r).unwrap().id == victim.id));

        // The mirrored direction: the SP loses the record, the TE keeps it.
        let victim2 = ds.records[13].clone();
        assert!(system.sp_mut().delete(victim2.id, victim2.key).unwrap());
        let err = system.delete_record(victim2.id, victim2.key).unwrap_err();
        assert!(matches!(err, StorageError::Desync(_)), "{err}");
        // The TE rollback keeps its tuple: the honest token still covers the
        // record, so the (now incomplete) SP result fails verification — the
        // divergence is *detected*, not silently accepted.
        let q2 = RangeQuery::new(victim2.key, victim2.key);
        let outcome = system.query(&q2).unwrap();
        assert!(!outcome.metrics.verified);
    }

    #[test]
    fn empty_results_verify_with_zero_token() {
        let ds = small_dataset(500);
        let system = SaeSystem::build_in_memory(&ds, HashAlgorithm::Sha1).unwrap();
        let q = RangeQuery::new(60_000, 70_000); // outside the key domain
        let outcome = system.query(&q).unwrap();
        assert!(outcome.records.is_empty());
        assert_eq!(outcome.vt, Digest::ZERO);
        assert!(outcome.metrics.verified);
    }

    #[test]
    fn te_cost_is_much_smaller_than_sp_cost() {
        let ds = small_dataset(5_000);
        let system = SaeSystem::build_in_memory(&ds, HashAlgorithm::Sha1).unwrap();
        let q = RangeQuery::new(0, 25_000); // half the domain
        let outcome = system.query(&q).unwrap();
        assert!(outcome.metrics.sp_node_accesses > 5 * outcome.metrics.te_node_accesses);
        assert!(outcome.metrics.sp_charged_ms > outcome.metrics.te_charged_ms);
    }

    #[test]
    fn updates_propagate_to_both_parties() {
        let ds = small_dataset(1_000);
        let mut system = SaeSystem::build_in_memory(&ds, HashAlgorithm::Sha1).unwrap();

        // Insert a fresh record and query for it.
        let new_record = Record::with_size(1_000_000, 123, 200);
        system.insert_record(&new_record).unwrap();
        let q = RangeQuery::new(123, 123);
        let outcome = system.query(&q).unwrap();
        assert!(outcome.metrics.verified);
        assert!(outcome
            .records
            .iter()
            .any(|r| Record::decode(r).unwrap().id == 1_000_000));

        // Delete it again.
        assert!(system.delete_record(1_000_000, 123).unwrap());
        let outcome = system.query(&q).unwrap();
        assert!(outcome.metrics.verified);
        assert!(!outcome
            .records
            .iter()
            .any(|r| Record::decode(r).unwrap().id == 1_000_000));

        // Deleting a non-existent record reports false.
        assert!(!system.delete_record(1_000_000, 123).unwrap());
    }

    #[test]
    fn sequential_scan_mode_yields_the_same_tokens_at_higher_cost() {
        let ds = small_dataset(3_000);
        let tree_mode = SaeSystem::build_in_memory(&ds, HashAlgorithm::Sha1).unwrap();
        let scan_mode = SaeSystem::build(
            MemPager::new_shared(),
            MemPager::new_shared(),
            &ds,
            HashAlgorithm::Sha1,
            CostModel::paper(),
            TeMode::SequentialScan,
        )
        .unwrap();
        let q = RangeQuery::new(1_000, 2_000);
        let a = tree_mode.query(&q).unwrap();
        let b = scan_mode.query(&q).unwrap();
        assert_eq!(a.vt, b.vt);
        assert!(a.metrics.verified && b.metrics.verified);
        assert!(b.metrics.te_node_accesses > a.metrics.te_node_accesses);
    }

    #[test]
    fn storage_breakdown_matches_figure_8_shape() {
        let ds = small_dataset(4_000);
        let system = SaeSystem::build_in_memory(&ds, HashAlgorithm::Sha1).unwrap();
        let s = system.storage_breakdown();
        // The SP's storage is dominated by the dataset; the TE is a fraction.
        assert!(s.sp_dataset_bytes > s.sp_index_bytes);
        assert!(s.te_bytes < s.sp_total_bytes() / 2);
        assert!(s.te_bytes > 0);
    }

    /// Reopen rebuilds the id directory from the heap records the index
    /// reaches; a heap slot too short for a record header is corruption.
    #[test]
    fn reopen_refuses_heap_slots_too_short_for_a_record_header() {
        let store = MemPager::new_shared();
        let mut heap = HeapFile::create(store.clone(), 8).unwrap();
        for i in 0..20u64 {
            heap.append(&i.to_le_bytes()).unwrap();
        }
        let entries: Vec<(u32, u64)> = (0..20u32).map(|i| (i, u64::from(i))).collect();
        let index = BPlusTree::bulk_load(store.clone(), &entries).unwrap();
        let opened = SaeServiceProvider::open(store, 8, 20, heap.pages().to_vec(), index.meta());
        match opened {
            Err(StorageError::Corrupted(msg)) => assert!(msg.contains("too short"), "{msg}"),
            Err(other) => panic!("expected Corrupted, got {other:?}"),
            Ok(_) => panic!("8-byte heap slots were accepted as records"),
        }
    }
}
