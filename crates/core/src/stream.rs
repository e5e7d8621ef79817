//! Out-of-core (streamed) Two-Face execution for paper-scale matrices.
//!
//! The paper's evaluation matrices hold 143M–3.6B nonzeros; the resident
//! pipeline materializes the full COO operand (24 B per nonzero) *and* every
//! rank's Figure-6 structures at once, which caps the synthetic suite far
//! below paper scale on one host. This module executes the same simulation
//! without ever holding the full matrix:
//!
//! 1. **Spill** — drain a chunked [`TripletSource`] and route each raw draw
//!    to a per-rank shard file (row blocks partition the stream), holding
//!    only one chunk plus one write buffer per rank.
//! 2. **Normalize + profile** — per rank, load the raw shard, apply
//!    [`normalize_triplets`] in place (the one normalization path in the
//!    workspace, so per-shard normalization concatenates to exactly the
//!    resident matrix; a counting sort over the shard's contiguous rows),
//!    profile its stripes, and write the normalized shard back. The
//!    normalized shard is the rank's row-major sync store.
//! 3. **Plan** — classify from the per-rank profiles through the planner
//!    the resident [`prepare_plan`](crate::prepare_plan) runs: the
//!    sync-buffer budget from each rank's operand bytes, then
//!    [`PartitionPlan::build_from_profiles`](twoface_partition::PartitionPlan::build_from_profiles).
//! 4. **Route** — per rank, stream the normalized shard once in bounded
//!    chunks and route each entry by its stripe's class, under the rule
//!    [`RankMatrices`](crate::RankMatrices) are built by: asynchronous
//!    entries are bucketed by stripe and written to a per-rank store file
//!    (per stripe, ascending: its entries, then its `UniqueColIDs`);
//!    synchronous and local entries stay in the shard and are only counted
//!    (their number, their non-empty row panels, and the shard's row-aligned
//!    read chunks).
//! 5. **Execute** — run the resident Two-Face rank body over a store
//!    source: each rank reads its async stripes from its store, one stripe
//!    at a time, then its sync entries from its normalized shard, one
//!    row-aligned chunk at a time, dropping the async entries as it decodes.
//!    Peak memory is the dense operands plus a few panels of sparse entries
//!    per rank.
//!
//! Every file is back-to-back fixed-width little-endian records — 16-byte
//! compact entries (`u32` rank-local row, `u32` global column, `f64` value)
//! in the shards and the stores, and 4-byte column ids in the stores — and
//! every pass moves them in bulk: one encoder buffer per file written a
//! chunk at a time, and a decoder that turns a reader's whole buffer into
//! records at once. A shard whose length is not a whole number of records
//! is a typed [`RunError::Io`] naming the rank and the file. A matrix
//! dimension past the `u32` small-index limit is a [`RunError::Shape`]
//! before any file is written.
//!
//! The correctness contract is *bit-identity*: at any scale where the
//! resident path also fits, the streamed run's output `C`, simulated
//! seconds, per-lane breakdowns, and communication volumes equal the
//! resident [`run_algorithm`](crate::run_algorithm)'s exactly. Both paths
//! execute the same rank body, so this holds by construction; the
//! differential suite in `tests/streamed_pipeline.rs` checks it.

use crate::algo::twoface::{planned_memory_extra, twoface_rank, StripeSource};
use crate::config::TwoFaceConfig;
use crate::error::{RankError, RunError};
use crate::format::{AsyncMatrix, AsyncStripe, Route, Routes};
use crate::kernels::{par_sync_panels, BlockRows};
use crate::pool::{resolve_workers, Pool};
use crate::runner::{
    generated_b_block, harvest, memory_gate, plan_from_profiles, resolve_observability,
    stack_blocks, ExecOpts, ExecutionReport, NNZ_BYTES,
};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use twoface_matrix::gen::TripletSource;
use twoface_matrix::{fits_small_index, normalize_triplets, Scalar, SmallTriplet, SCALAR_BYTES};
use twoface_net::{
    Cluster, CostModel, Lane, MetricsRegistry, Observability, OpEvent, OpKind, PhaseClass,
};
use twoface_partition::{
    ClassifierKind, ModelCoefficients, NodeProfile, OneDimLayout, PartitionPlan, StripeClass,
};

/// Raw spill chunk cap in entries when no budget narrows it further.
pub const DEFAULT_STREAM_CHUNK_NNZ: usize = twoface_matrix::gen::DEFAULT_CHUNK_NNZ;

/// Sync-lane compute chunk in entries (16 B each): the "few panels" of
/// row-major nonzeros materialized at a time per rank during the final
/// compute phase.
const SYNC_CHUNK_ENTRIES: usize = 1 << 18;

/// Bytes of one serialized compact entry (`u32` row, `u32` col, `f64` val).
const SMALL_ENTRY_BYTES: usize = 16;

/// Host bytes per entry of one shard that the build passes charge, a bound
/// on both: pass 2's counting sort holds at most 36 (the 16-byte entry, an
/// 8-byte key, its 8-byte value and a 4-byte row count), pass 4 at most 20
/// (an async entry and its column id) plus one read chunk.
const BUILD_BYTES_PER_NNZ: usize = 60;

/// Bytes moved per read or write call on the shard files, and the capacity
/// of each record writer's buffer.
const IO_CHUNK_BYTES: usize = 1 << 16;

/// Entries pass 4 decodes and routes at a time.
const ROUTE_CHUNK_ENTRIES: usize = IO_CHUNK_BYTES / SMALL_ENTRY_BYTES;

/// Options controlling one [`run_twoface_streamed`] call. Mirrors the
/// subset of [`RunOptions`](crate::RunOptions) the streamed pipeline
/// supports; plan construction uses exactly the resident defaulting rules,
/// which is what makes the two paths produce identical plans.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Whether to perform the floating-point work (structural operations
    /// and cost accounting always run).
    pub compute_values: bool,
    /// Table-2 runtime knobs.
    pub config: TwoFaceConfig,
    /// Plan coefficients; `None` derives them from the effective cost model,
    /// as the resident runner does.
    pub coefficients: Option<ModelCoefficients>,
    /// Stripe classifier for plan construction.
    pub classifier: ClassifierKind,
    /// Real execution workers (`None` resolves `TWOFACE_THREADS`, then the
    /// host parallelism).
    pub workers: Option<usize>,
    /// Host memory budget in bytes for the whole streamed run (dense
    /// operands, per-rank transients, spill buffers). `None` disables the
    /// gate; `Some` fails up front with [`RunError::HostBudgetExceeded`]
    /// when even the out-of-core working set cannot fit, and narrows the
    /// spill chunk size to stay inside the budget.
    pub memory_budget: Option<usize>,
    /// Directory for the spill and store files; defaults to
    /// [`std::env::temp_dir`]. The run creates (and removes on completion)
    /// a uniquely named subdirectory.
    pub spill_dir: Option<PathBuf>,
    /// Raw generation chunk cap in entries.
    pub chunk_nnz: usize,
    /// Per-operation event recording, exactly as
    /// [`RunOptions::observability`](crate::RunOptions::observability) — and
    /// additionally the streamed pipeline's own telemetry: one
    /// [`OpKind::HostPass`] span per pass, [`OpKind::Spill`] events for every
    /// shard and store file written or read (with byte counts), and
    /// [`OpKind::Gauge`] samples of the host-memory high-water estimate and
    /// remaining budget headroom. Pipeline events ride on rank 0's stream
    /// (the driver lives on the simulating host) as instants at simulated
    /// time zero, so they never perturb the simulated clocks: the run stays
    /// bit-identical with telemetry on or off. The `TWOFACE_TRACE` /
    /// `TWOFACE_PROFILE` environment knobs promote and export this exactly
    /// as they do for the resident runner.
    pub observability: Observability,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            compute_values: true,
            config: TwoFaceConfig::default(),
            coefficients: None,
            classifier: ClassifierKind::Greedy,
            workers: None,
            memory_budget: None,
            spill_dir: None,
            chunk_nnz: DEFAULT_STREAM_CHUNK_NNZ,
            observability: Observability::off(),
        }
    }
}

/// The result of one streamed run: the standard report plus the streaming
/// pipeline's own accounting.
#[derive(Debug)]
pub struct StreamedRun {
    /// The execution report; bit-identical (output, simulated seconds,
    /// breakdowns, volumes) to the resident path at overlap scales.
    pub report: ExecutionReport,
    /// Nonzeros after duplicate summing (the resident matrix's `nnz()`).
    pub realized_nnz: usize,
    /// Total bytes written to spill and store files.
    pub spilled_bytes: usize,
    /// Largest per-rank shard materialized during normalization, in bytes —
    /// the dominant transient of the preprocessing passes.
    pub peak_shard_bytes: usize,
    /// The estimated host working set the budget gate checked, in bytes.
    pub estimated_host_bytes: usize,
}

/// Monotonically increasing suffix so concurrent runs in one process never
/// collide on a spill directory.
static SPILL_DIRS: AtomicU64 = AtomicU64::new(0);

/// Owns the run's spill directory; removal is best-effort on drop so early
/// error returns clean up too.
struct SpillDir(PathBuf);

impl SpillDir {
    fn create(base: Option<&PathBuf>) -> Result<SpillDir, RunError> {
        let n = SPILL_DIRS.fetch_add(1, Ordering::Relaxed);
        let dir = base
            .cloned()
            .unwrap_or_else(std::env::temp_dir)
            .join(format!("twoface-stream-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| RunError::Io {
            context: format!("creating spill directory {}: {e}", dir.display()),
        })?;
        Ok(SpillDir(dir))
    }

    fn path(&self, name: String) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn io_err(context: &str, e: std::io::Error) -> RunError {
    RunError::Io { context: format!("{context}: {e}") }
}

/// Driver-side telemetry for the streamed passes, which run before (and
/// around) the simulated cluster. Everything here is host bookkeeping:
/// events are instants at simulated time zero (real pass durations ride in
/// [`OpEvent::wall_nanos`] when wall stamping is on), so the simulated
/// clocks — and therefore every gated result field — are untouched whether
/// telemetry is on or off.
///
/// Event encoding, since [`OpEvent`] carries no label string:
/// * [`OpKind::HostPass`]: one per pass, `peers = [pass_number]` (1-based,
///   matching the module docs), `elements` = the pass's dominant count.
/// * [`OpKind::Spill`]: one per shard/store file, `peers = [rank]`,
///   `elements` = bytes on disk; `initiator` distinguishes writes (`true`)
///   from reads (`false`).
/// * [`OpKind::Gauge`]: host high-water estimate (`initiator = true`) and
///   budget headroom (`initiator = false`), `elements` = bytes.
struct PipelineTelemetry {
    enabled: bool,
    wall: bool,
    events: Vec<OpEvent>,
    metrics: MetricsRegistry,
}

impl PipelineTelemetry {
    fn new(observability: &Observability) -> PipelineTelemetry {
        PipelineTelemetry {
            enabled: observability.enabled(),
            wall: observability.wall_time,
            events: Vec::new(),
            metrics: MetricsRegistry::new(),
        }
    }

    fn push(
        &mut self,
        kind: OpKind,
        elements: u64,
        peers: Vec<usize>,
        initiator: bool,
        wall_nanos: Option<u64>,
    ) {
        self.events.push(OpEvent {
            seq: self.events.len() as u64,
            kind,
            lane: Lane::Sync,
            class: PhaseClass::Other,
            start_seconds: 0.0,
            end_seconds: 0.0,
            elements,
            peers,
            initiator,
            fault: None,
            wall_nanos,
        });
    }

    /// Closes pass `number` (1-based): a [`OpKind::HostPass`] span with the
    /// real duration since `started` when wall stamping is on.
    fn pass(&mut self, number: usize, elements: u64, started: Instant) {
        if !self.enabled {
            return;
        }
        let wall = self.wall.then(|| started.elapsed().as_nanos() as u64);
        self.push(OpKind::HostPass, elements, vec![number], true, wall);
        self.metrics.inc("stream.passes", 1);
    }

    /// Records `bytes` written to rank `rank`'s shard or store file.
    fn spill_write(&mut self, rank: usize, bytes: u64) {
        if !self.enabled {
            return;
        }
        self.push(OpKind::Spill, bytes, vec![rank], true, None);
        self.metrics.inc("stream.spill_bytes_written", bytes);
        self.metrics.inc("stream.shards_written", 1);
    }

    /// Records `bytes` read back from rank `rank`'s shard or store file.
    fn spill_read(&mut self, rank: usize, bytes: u64) {
        if !self.enabled {
            return;
        }
        self.push(OpKind::Spill, bytes, vec![rank], false, None);
        self.metrics.inc("stream.spill_bytes_read", bytes);
        self.metrics.inc("stream.shards_read", 1);
    }

    /// Samples the host-memory high-water estimate and, under a declared
    /// budget, the remaining headroom.
    fn gauge(&mut self, estimated_host_bytes: u64, budget: Option<u64>) {
        if !self.enabled {
            return;
        }
        self.push(OpKind::Gauge, estimated_host_bytes, Vec::new(), true, None);
        self.metrics.inc("stream.host_bytes_high_water", estimated_host_bytes);
        if let Some(budget) = budget {
            let headroom = budget.saturating_sub(estimated_host_bytes);
            self.push(OpKind::Gauge, headroom, Vec::new(), false, None);
            self.metrics.observe("stream.budget_headroom_bytes", headroom);
        }
    }

    /// Appends the driver events to rank 0's `stream` (renumbered to
    /// continue its sequence) and returns the pipeline metrics for merging.
    fn attach(self, stream: &mut Vec<OpEvent>) -> MetricsRegistry {
        let base = stream.last().map_or(0, |e| e.seq + 1);
        for (i, mut event) in self.events.into_iter().enumerate() {
            event.seq = base + i as u64;
            stream.push(event);
        }
        self.metrics
    }
}

/// Size on disk of a just-written spill file; falls back to `accounted`
/// when the platform cannot stat it.
fn disk_bytes(path: &Path, accounted: usize) -> u64 {
    std::fs::metadata(path).map_or(accounted as u64, |m| m.len())
}

/// A fixed-width little-endian spill record. Shard and store files are
/// nothing but back-to-back records, and every pass moves them in bulk:
/// [`RecordWriter`] encodes into one buffer and writes it a chunk at a
/// time, and [`read_records`] decodes straight out of a reader's buffer.
trait Record: Sized {
    /// Encoded width in bytes.
    const BYTES: usize;
    /// Encodes into exactly [`Record::BYTES`] bytes.
    fn encode(&self, out: &mut [u8]);
    /// Decodes one record from exactly [`Record::BYTES`] bytes.
    fn decode(bytes: &[u8]) -> Self;
}

/// The `N` bytes at `at` in a record being decoded.
fn field<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    bytes[at..at + N].try_into().expect("the record holds the field")
}

/// Shard and store entries: `u32` row, `u32` col, `f64` value.
impl Record for SmallTriplet {
    const BYTES: usize = SMALL_ENTRY_BYTES;

    fn encode(&self, out: &mut [u8]) {
        out[..4].copy_from_slice(&self.row.to_le_bytes());
        out[4..8].copy_from_slice(&self.col.to_le_bytes());
        out[8..].copy_from_slice(&self.val.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> SmallTriplet {
        let (row, col) = (u32::from_le_bytes(field(bytes, 0)), u32::from_le_bytes(field(bytes, 4)));
        SmallTriplet { row, col, val: f64::from_le_bytes(field(bytes, 8)) }
    }
}

/// Store unique-column ids.
impl Record for u32 {
    const BYTES: usize = 4;

    fn encode(&self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> u32 {
        u32::from_le_bytes(field(bytes, 0))
    }
}

/// Writes records to a file through one [`IO_CHUNK_BYTES`] buffer, so the
/// file sees one `write` per chunk rather than one per record.
struct RecordWriter {
    file: File,
    buf: Box<[u8]>,
    /// The bytes of `buf` in use.
    len: usize,
}

impl RecordWriter {
    fn create(path: &Path) -> io::Result<RecordWriter> {
        let buf = vec![0; IO_CHUNK_BYTES].into_boxed_slice();
        Ok(RecordWriter { file: File::create(path)?, buf, len: 0 })
    }

    fn push<R: Record>(&mut self, record: &R) -> io::Result<()> {
        self.extend(std::slice::from_ref(record))
    }

    /// Encodes as many records as the buffer has room for at a time.
    fn extend<R: Record>(&mut self, mut records: &[R]) -> io::Result<()> {
        while !records.is_empty() {
            if self.len + R::BYTES > self.buf.len() {
                self.flush()?;
            }
            let room = (self.buf.len() - self.len) / R::BYTES;
            let (now, later) = records.split_at(room.min(records.len()));
            let out = &mut self.buf[self.len..self.len + now.len() * R::BYTES];
            for (record, out) in now.iter().zip(out.chunks_exact_mut(R::BYTES)) {
                record.encode(out);
            }
            self.len += now.len() * R::BYTES;
            records = later;
        }
        Ok(())
    }

    /// Writes what is buffered.
    fn flush(&mut self) -> io::Result<()> {
        self.file.write_all(&self.buf[..self.len])?;
        self.len = 0;
        Ok(())
    }

    /// Writes what is still buffered.
    fn finish(mut self) -> io::Result<()> {
        self.flush()
    }
}

/// Decodes the next `count` records of `input` and appends those `keep`
/// accepts to `out`, decoding every whole record in the reader's buffer at
/// once; only a record split across two refills is copied out on its own.
fn read_records<R: Record>(
    input: &mut impl BufRead,
    count: usize,
    out: &mut Vec<R>,
    keep: impl Fn(&R) -> bool,
) -> io::Result<()> {
    let mut left = count;
    while left > 0 {
        let buf = input.fill_buf()?;
        let whole = (buf.len() / R::BYTES).min(left);
        if whole > 0 {
            let records = buf[..whole * R::BYTES].chunks_exact(R::BYTES).map(R::decode);
            out.extend(records.filter(|record| keep(record)));
            input.consume(whole * R::BYTES);
            left -= whole;
        } else {
            // A split record, or the input's end: `read_exact` refills
            // across the split, or reports the end as an error. No record
            // is wider than an entry.
            let mut record = [0u8; SMALL_ENTRY_BYTES];
            let record = &mut record[..R::BYTES];
            input.read_exact(record)?;
            let record = R::decode(record);
            if keep(&record) {
                out.push(record);
            }
            left -= 1;
        }
    }
    Ok(())
}

/// Rank `rank`'s shard file at `path`, opened for reading.
struct ShardReader {
    input: BufReader<File>,
    /// Whole records in the file.
    records: usize,
    /// "rank {rank} reading shard {path}", what every error names.
    context: String,
}

impl ShardReader {
    /// Opens the shard. A file whose length is not a whole number of
    /// records is a typed error naming the rank and the file, never a
    /// silently dropped partial record.
    fn open(rank: usize, path: &Path) -> Result<ShardReader, RunError> {
        let context = format!("rank {rank} reading shard {}", path.display());
        let file = File::open(path).map_err(|e| io_err(&context, e))?;
        let len = file.metadata().map_err(|e| io_err(&context, e))?.len();
        let records = whole_records(len, &context)?;
        Ok(ShardReader { input: BufReader::with_capacity(IO_CHUNK_BYTES, file), records, context })
    }

    /// Appends the next `count` entries to `out`.
    fn read(&mut self, count: usize, out: &mut Vec<SmallTriplet>) -> Result<(), RunError> {
        read_records(&mut self.input, count, out, |_| true).map_err(|e| io_err(&self.context, e))
    }
}

/// The number of entries in `len` bytes of shard, or the typed error for a
/// partial record.
fn whole_records(len: u64, context: &str) -> Result<usize, RunError> {
    let width = SmallTriplet::BYTES as u64;
    if !len.is_multiple_of(width) {
        return Err(RunError::Io {
            context: format!(
                "{context}: {len} bytes is not a whole number of {width}-byte records"
            ),
        });
    }
    Ok((len / width) as usize)
}

/// Writes `records` to a new file at `path`.
fn write_records<R: Record>(path: &Path, records: &[R]) -> io::Result<()> {
    let mut out = RecordWriter::create(path)?;
    out.extend(records)?;
    out.finish()
}

/// Per-stripe store metadata kept in memory while entries live on disk.
struct StripeMeta {
    stripe: usize,
    nnz: usize,
    unique: usize,
}

/// One rank's spilled structures — its async stripes in a store file, its
/// sync entries in its normalized shard — plus the metadata the executor
/// and the cost charges need without touching either file.
struct RankStore {
    path: PathBuf,
    stripes: Vec<StripeMeta>,
    /// The normalized shard, which holds the sync entries among the rest.
    shard: PathBuf,
    /// The rank's classification, which tells the sync entries apart.
    routes: Routes,
    sync_nnz: usize,
    /// The shard's read chunks, from its start.
    sync_chunks: Vec<ReadChunk>,
    nonempty_panels: usize,
}

/// A run of a normalized shard's records that holds [`SYNC_CHUNK_ENTRIES`]
/// sync entries plus the rest of the last one's row; the last run ends at
/// the last sync entry.
#[derive(Debug, Clone, Copy)]
struct ReadChunk {
    records: usize,
    /// The sync entries among them.
    sync: usize,
}

impl RankStore {
    /// The bytes of the store file.
    fn store_bytes(&self) -> usize {
        self.stripes.iter().map(|m| m.nnz * SMALL_ENTRY_BYTES + m.unique * 4).sum()
    }

    /// The shard bytes pass 5 reads for the sync entries.
    fn sync_read_bytes(&self) -> usize {
        self.sync_chunks.iter().map(|c| c.records).sum::<usize>() * SMALL_ENTRY_BYTES
    }
}

/// The sync entries of one rank's shard, counted as pass 4 streams it.
struct SyncCount {
    panel_height: usize,
    nnz: usize,
    nonempty_panels: usize,
    last_panel: Option<usize>,
    last_row: u32,
    /// Finished read chunks.
    chunks: Vec<ReadChunk>,
    /// The first record of the open chunk, and its sync entries so far.
    chunk_start: usize,
    chunk_nnz: usize,
    /// One past the last sync record seen.
    end: usize,
}

impl SyncCount {
    fn new(panel_height: usize) -> SyncCount {
        SyncCount {
            panel_height,
            nnz: 0,
            nonempty_panels: 0,
            last_panel: None,
            last_row: 0,
            chunks: Vec::new(),
            chunk_start: 0,
            chunk_nnz: 0,
            end: 0,
        }
    }

    /// Counts the sync entry at record `position` of the row-major shard,
    /// in rank-local row `row`. A full chunk closes before the first sync
    /// entry of a later row, so no chunk splits a row's sync entries.
    fn push(&mut self, position: usize, row: u32) {
        if self.chunk_nnz >= SYNC_CHUNK_ENTRIES && row != self.last_row {
            self.close(position);
        }
        let panel = row as usize / self.panel_height;
        if self.last_panel != Some(panel) {
            self.nonempty_panels += 1;
            self.last_panel = Some(panel);
        }
        self.chunk_nnz += 1;
        self.nnz += 1;
        self.last_row = row;
        self.end = position + 1;
    }

    /// Closes the open chunk before record `position`.
    fn close(&mut self, position: usize) {
        let chunk = ReadChunk { records: position - self.chunk_start, sync: self.chunk_nnz };
        self.chunks.push(chunk);
        (self.chunk_start, self.chunk_nnz) = (position, 0);
    }

    /// The read chunks, the last closed at the last sync entry.
    fn chunks(mut self) -> Vec<ReadChunk> {
        if self.chunk_nnz > 0 {
            self.close(self.end);
        }
        self.chunks
    }
}

/// Pass 4 for rank `rank`: streams its normalized shard at `shard` —
/// `nnz` entries, row-major, rank-local rows — once in bounded chunks and
/// routes each entry by its stripe's class under `plan`. Async entries go
/// to their stripe's bucket, and the buckets are written to a store file at
/// `path` in execution order: per async stripe (ascending) its row-major
/// entries then its unique columns. Sync and local entries stay in the
/// shard and are only counted.
fn build_store(
    rank: usize,
    shard: PathBuf,
    nnz: usize,
    path: PathBuf,
    plan: &PartitionPlan,
    panel_height: usize,
) -> Result<RankStore, RunError> {
    let mut reader = ShardReader::open(rank, &shard)?;
    if reader.records != nnz {
        return Err(RunError::Io {
            context: format!(
                "{}: {} records, but pass 2 wrote {nnz}",
                reader.context, reader.records
            ),
        });
    }
    let layout = plan.layout();
    let rows = layout.row_range(rank);
    let routes = Routes::new(plan, rank);
    let mut buckets = vec![Vec::new(); routes.async_stripes().len()];
    let mut sync = SyncCount::new(panel_height);
    let mut chunk = Vec::with_capacity(ROUTE_CHUNK_ENTRIES.min(nnz));
    let mut position = 0;
    while position < nnz {
        chunk.clear();
        reader.read(ROUTE_CHUNK_ENTRIES.min(nnz - position), &mut chunk)?;
        for t in &chunk {
            let stripe = layout.stripe_of_col(t.col as usize);
            match routes.of(stripe) {
                Route::SyncLocal => sync.push(position, t.row),
                Route::Async(bucket) => buckets[bucket].push(*t),
                Route::Unclassified => {
                    let (row, col) = (rows.start + t.row as usize, t.col as usize);
                    let error = RankError::Unclassified { stripe, row, col };
                    return Err(error.into_run_error(rank, Vec::new()));
                }
            }
            position += 1;
        }
    }
    // The shard is row-major, so every bucket already is.
    let asynchronous = AsyncMatrix::from_buckets(routes.async_stripes(), buckets);
    let write = || -> io::Result<()> {
        let mut out = RecordWriter::create(&path)?;
        for stripe in asynchronous.stripes() {
            out.extend(&stripe.entries)?;
            out.extend(&stripe.unique_cols)?;
        }
        out.finish()
    };
    write().map_err(|e| io_err(&format!("writing store {}", path.display()), e))?;
    let stripes = asynchronous
        .stripes()
        .iter()
        .map(|s| StripeMeta { stripe: s.stripe, nnz: s.nnz(), unique: s.unique_cols.len() })
        .collect();
    let store = RankStore {
        path,
        stripes,
        shard,
        routes,
        sync_nnz: sync.nnz,
        nonempty_panels: sync.nonempty_panels,
        sync_chunks: sync.chunks(),
    };
    Ok(store)
}

/// Executes Two-Face out of core on a chunked triplet source.
///
/// The dense operand is the deterministically generated `B` of
/// [`Problem::with_generated_b`](crate::Problem::with_generated_b), staged
/// per rank without materializing the full matrix — which is also what
/// makes the differential contract checkable: at overlap scales, build the
/// resident problem from the same source with the same seed and the outputs
/// are bit-identical.
///
/// # Errors
///
/// * [`RunError::InvalidConfig`] when `options.config` has a zero field
///   ([`TwoFaceConfig::check`]), before any spill file is written;
/// * [`RunError::Shape`] for infeasible layouts, dimensions past the `u32`
///   small-index limit (both before any spill file is written) or
///   out-of-bounds draws;
/// * [`RunError::HostBudgetExceeded`] when even the out-of-core working set
///   exceeds [`StreamOptions::memory_budget`];
/// * [`RunError::OutOfMemory`] under the same *simulated* per-node gate as
///   the resident path;
/// * [`RunError::Io`] when spill or store files cannot be written or read
///   back (naming the rank and the file for shard and store reads).
pub fn run_twoface_streamed(
    source: &mut dyn TripletSource,
    k: usize,
    p: usize,
    stripe_width: usize,
    cost: &CostModel,
    options: &StreamOptions,
) -> Result<StreamedRun, RunError> {
    // Before pass 1 writes a spill file.
    options.config.check()?;
    let rows = source.rows();
    let cols = source.cols();
    if p == 0 || stripe_width == 0 || p > rows.max(1) || p > cols.max(1) {
        return Err(RunError::Shape {
            context: format!(
                "cannot lay out a {rows}x{cols} matrix over {p} nodes with stripe width \
                 {stripe_width}"
            ),
        });
    }
    if !fits_small_index(rows, cols) {
        return Err(RunError::Shape {
            context: format!(
                "a {rows}x{cols} matrix exceeds the u32 small-index limit of the spill records \
                 and the compact rank structures"
            ),
        });
    }
    let layout = OneDimLayout::new(rows, cols, p, stripe_width);
    let effective = options.config.effective_cost(cost);
    let coefficients = options.coefficients.unwrap_or_else(|| ModelCoefficients::from(&effective));
    let workers = resolve_workers(options.workers);
    let spill = SpillDir::create(options.spill_dir.as_ref())?;
    let mut spilled_bytes = 0usize;
    let resolved = resolve_observability(&options.observability);
    let mut telemetry = PipelineTelemetry::new(&resolved.observability);
    let mut pass_started = Instant::now();

    // --- Pass 1: route raw draws to per-rank shard files. ---
    // One chunk plus the write buffers is all that's resident.
    let chunk_nnz = match options.memory_budget {
        Some(budget) => options.chunk_nnz.min((budget / 8 / NNZ_BYTES).max(1 << 14)),
        None => options.chunk_nnz,
    };
    let raw_paths: Vec<PathBuf> = (0..p).map(|r| spill.path(format!("raw.{r}"))).collect();
    let row_starts: Vec<usize> = (0..p).map(|r| layout.row_range(r).start).collect();
    {
        let mut writers: Vec<RecordWriter> = raw_paths
            .iter()
            .map(|path| {
                RecordWriter::create(path)
                    .map_err(|e| io_err(&format!("creating shard {}", path.display()), e))
            })
            .collect::<Result<_, _>>()?;
        let mut chunk = Vec::new();
        loop {
            chunk.clear();
            if source.next_chunk(chunk_nnz, &mut chunk) == 0 {
                break;
            }
            for t in &chunk {
                if t.row >= rows || t.col >= cols {
                    return Err(RunError::Shape {
                        context: format!(
                            "source drew ({}, {}) outside {rows}x{cols}",
                            t.row, t.col
                        ),
                    });
                }
                let rank = layout.owner_of_row(t.row);
                let entry = SmallTriplet::new(t.row - row_starts[rank], t.col, t.val);
                writers[rank].push(&entry).map_err(|e| io_err("spilling raw shard", e))?;
            }
            spilled_bytes += chunk.len() * SMALL_ENTRY_BYTES;
        }
        for w in writers {
            w.finish().map_err(|e| io_err("flushing raw shard", e))?;
        }
    }
    if telemetry.enabled {
        for (rank, path) in raw_paths.iter().enumerate() {
            telemetry.spill_write(rank, disk_bytes(path, 0));
        }
    }
    telemetry.pass(1, (spilled_bytes / SMALL_ENTRY_BYTES) as u64, pass_started);

    // --- Pass 2: normalize + profile per rank, one shard at a time. ---
    // Shards partition the draw stream by row and `normalize_triplets` puts
    // entries in stable (row, col) order with in-order duplicate summing, so
    // the concatenation of normalized shards is exactly the resident matrix
    // (rebasing a shard's rows keeps their order). Its transient (at most
    // 20 B per entry beyond the 16 B shard) keeps this pass inside the build
    // term of the host estimate below.
    let mut profiles: Vec<NodeProfile> = Vec::with_capacity(p);
    let mut nnz_by_rank: Vec<usize> = Vec::with_capacity(p);
    let mut peak_shard_bytes = 0usize;
    let norm_paths: Vec<PathBuf> = (0..p).map(|r| spill.path(format!("norm.{r}"))).collect();
    pass_started = Instant::now();
    for rank in 0..p {
        let mut reader = ShardReader::open(rank, &raw_paths[rank])?;
        let mut shard = Vec::with_capacity(reader.records);
        reader.read(reader.records, &mut shard)?;
        drop(reader);
        let raw_bytes = shard.len() * SMALL_ENTRY_BYTES;
        telemetry.spill_read(rank, raw_bytes as u64);
        peak_shard_bytes = peak_shard_bytes.max(raw_bytes);
        normalize_triplets(&mut shard);
        profiles.push(NodeProfile::build_from_rows(&shard, &layout, rank));
        nnz_by_rank.push(shard.len());
        write_records(&norm_paths[rank], &shard)
            .map_err(|e| io_err("spilling normalized shard", e))?;
        spilled_bytes += shard.len() * SMALL_ENTRY_BYTES;
        if telemetry.enabled {
            let written = disk_bytes(&norm_paths[rank], shard.len() * SMALL_ENTRY_BYTES);
            telemetry.spill_write(rank, written);
        }
        let _ = std::fs::remove_file(&raw_paths[rank]);
    }
    let realized_nnz: usize = nnz_by_rank.iter().sum();
    telemetry.pass(2, realized_nnz as u64, pass_started);

    // --- Pass 3: classify from profiles, with the resident budget rule. ---
    pass_started = Instant::now();
    let (plan, operands) = plan_from_profiles(
        profiles,
        layout.clone(),
        k,
        &coefficients,
        effective.memory_per_node,
        options.classifier,
    );
    let plan = Arc::new(plan);
    let required_sim = memory_gate(
        &operands,
        |rank| planned_memory_extra(&plan, k, rank),
        effective.memory_per_node,
    )?;

    // Host working-set estimate: the worst of the build passes (one shard
    // plus what is built from it) and the execute pass (dense operands plus
    // every rank's bounded transients).
    let build_peak = nnz_by_rank.iter().max().map_or(0, |&nnz| nnz * BUILD_BYTES_PER_NNZ);
    let dense_bytes = (rows + cols) * k * SCALAR_BYTES;
    let exec_transients: usize = (0..p)
        .map(|rank| {
            let mut max_seg = 0usize;
            let mut max_fetch = 0usize;
            for &(stripe, class) in &plan.classification(rank).classes {
                if class == StripeClass::Async {
                    if let Some(s) = plan.profile(rank).stripe(stripe) {
                        max_seg = max_seg.max(s.nnz * SMALL_ENTRY_BYTES + s.rows_needed() * 4);
                        max_fetch = max_fetch.max(s.rows_needed() * k * SCALAR_BYTES);
                    }
                }
            }
            max_seg + 2 * max_fetch + SYNC_CHUNK_ENTRIES * SMALL_ENTRY_BYTES
        })
        .sum();
    let estimated_host_bytes =
        build_peak.max(dense_bytes + exec_transients) + chunk_nnz * NNZ_BYTES;
    if let Some(budget) = options.memory_budget {
        if estimated_host_bytes > budget {
            return Err(RunError::HostBudgetExceeded { required: estimated_host_bytes, budget });
        }
    }
    telemetry.gauge(estimated_host_bytes as u64, options.memory_budget.map(|b| b as u64));
    telemetry.pass(3, layout.num_stripes() as u64, pass_started);

    // --- Pass 4: route each shard once; store the async stripes. ---
    pass_started = Instant::now();
    let mut stores: Vec<RankStore> = Vec::with_capacity(p);
    let mut store_bytes = 0u64;
    for rank in 0..p {
        let store = build_store(
            rank,
            norm_paths[rank].clone(),
            nnz_by_rank[rank],
            spill.path(format!("store.{rank}")),
            &plan,
            options.config.row_panel_height,
        )?;
        telemetry.spill_read(rank, (nnz_by_rank[rank] * SMALL_ENTRY_BYTES) as u64);
        let bytes = store.store_bytes();
        spilled_bytes += bytes;
        if telemetry.enabled {
            let written = disk_bytes(&store.path, bytes);
            store_bytes += written;
            telemetry.spill_write(rank, written);
        }
        stores.push(store);
    }
    telemetry.pass(4, store_bytes, pass_started);

    // --- Pass 5: execute the resident rank body over each rank's store. ---
    pass_started = Instant::now();
    let b_blocks: Vec<Arc<Vec<f64>>> =
        (0..p).map(|rank| Arc::new(generated_b_block(layout.col_range(rank), k))).collect();
    let exec = ExecOpts {
        k,
        compute: options.compute_values,
        panel_height: options.config.row_panel_height,
        workers,
    };
    // The executors read the stores and shards back inside the rank
    // threads; charge those reads up front, before they start (structural runs
    // skip the sync entries, so only the async stripes are charged without
    // compute).
    if telemetry.enabled {
        for (rank, store) in stores.iter().enumerate() {
            let sync_bytes = if exec.compute { store.sync_read_bytes() } else { 0 };
            telemetry.spill_read(rank, (store.store_bytes() + sync_bytes) as u64);
        }
    }
    // Open every file before the cluster starts, so a vanished spill file
    // fails the run up front instead of inside a rank thread.
    let open = |rank: usize, what: &str, path: &Path| {
        File::open(path)
            .map_err(|e| io_err(&format!("rank {rank} opening {what} {}", path.display()), e))
    };
    let files: Vec<(File, File)> = stores
        .iter()
        .enumerate()
        .map(|(rank, store)| {
            Ok((open(rank, "store", &store.path)?, open(rank, "shard", &store.shard)?))
        })
        .collect::<Result<_, RunError>>()?;
    let cluster = Cluster::new(p, effective);
    cluster.set_observability(resolved.observability.clone());
    let mut outputs = cluster.run(|ctx| {
        let rank = ctx.rank();
        let (store_file, shard_file) = &files[rank];
        let source = StoreSource::new(rank, &stores[rank], &layout, store_file, shard_file);
        twoface_rank(ctx, |_, _, _| Ok(source), &plan, &b_blocks[rank], &options.config, &exec)
    });
    telemetry.pass(5, realized_nnz as u64, pass_started);

    let pipeline_metrics = telemetry.attach(&mut outputs[0].events);
    let (blocks, mut report) = harvest(outputs, &resolved)?;
    report.metrics.merge(&pipeline_metrics);
    let report = ExecutionReport {
        algorithm: "TwoFace (streamed)".to_string(),
        k,
        memory_peak_bytes: required_sim,
        output: exec.compute.then(|| stack_blocks(rows, k, &blocks)),
        ..report
    };
    drop(spill);
    Ok(StreamedRun { report, realized_nnz, spilled_bytes, peak_shard_bytes, estimated_host_bytes })
}

/// [`StripeSource`] over one rank's spilled structures: its store file's
/// async stripes in ascending order, then its normalized shard's sync
/// entries, each file read front to back into one reused entry buffer, so
/// at most one stripe or one sync chunk of the rank's nonzeros is resident
/// at a time. Records decode straight out of the readers' default-sized
/// buffers, and the shard's async entries are dropped as they decode, so a
/// rank adds no staging buffer sized to what it reads.
struct StoreSource<'a> {
    rank: usize,
    store: &'a RankStore,
    layout: &'a OneDimLayout,
    store_reader: BufReader<&'a File>,
    shard_reader: BufReader<&'a File>,
    /// The async stripe being visited; its entries then hold each sync
    /// chunk in turn.
    stripe: AsyncStripe,
}

impl<'a> StoreSource<'a> {
    fn new(
        rank: usize,
        store: &'a RankStore,
        layout: &'a OneDimLayout,
        store_file: &'a File,
        shard_file: &'a File,
    ) -> StoreSource<'a> {
        StoreSource {
            rank,
            store,
            layout,
            store_reader: BufReader::new(store_file),
            shard_reader: BufReader::new(shard_file),
            stripe: AsyncStripe::default(),
        }
    }

    /// Visits the sync/local entries row-major, in chunks that never split
    /// a row.
    fn for_each_sync_chunk(
        &mut self,
        mut visit: impl FnMut(&[SmallTriplet]),
    ) -> Result<(), RankError> {
        let (rank, store, layout) = (self.rank, self.store, self.layout);
        let any_async = !store.routes.async_stripes().is_empty();
        let is_sync = |t: &SmallTriplet| {
            !any_async
                || !matches!(store.routes.of(layout.stripe_of_col(t.col as usize)), Route::Async(_))
        };
        for chunk in &store.sync_chunks {
            let entries = &mut self.stripe.entries;
            entries.clear();
            entries.reserve(chunk.sync);
            read_records(&mut self.shard_reader, chunk.records, entries, is_sync).map_err(|e| {
                RankError::Io(format!("rank {rank} reading shard {}: {e}", store.shard.display()))
            })?;
            visit(entries);
        }
        Ok(())
    }
}

impl StripeSource for StoreSource<'_> {
    type Error = RankError;

    fn for_each_async(
        &mut self,
        mut visit: impl FnMut(&AsyncStripe) -> Result<(), RankError>,
    ) -> Result<(), RankError> {
        let (rank, store, stripe) = (self.rank, self.store, &mut self.stripe);
        let read_error =
            |e| RankError::Io(format!("rank {rank} reading store {}: {e}", store.path.display()));
        for meta in &store.stripes {
            stripe.stripe = meta.stripe;
            stripe.entries.clear();
            stripe.entries.reserve(meta.nnz);
            read_records(&mut self.store_reader, meta.nnz, &mut stripe.entries, |_| true)
                .map_err(read_error)?;
            stripe.unique_cols.clear();
            stripe.unique_cols.reserve(meta.unique);
            read_records(&mut self.store_reader, meta.unique, &mut stripe.unique_cols, |_| true)
                .map_err(read_error)?;
            visit(stripe)?;
        }
        Ok(())
    }

    fn sync_counts(&self) -> (usize, usize) {
        (self.store.sync_nnz, self.store.nonempty_panels)
    }

    /// Chunks never split a row, so each fans out over row-aligned spans
    /// with the same per-row accumulation order as one pass over every
    /// entry.
    fn sync_compute(
        &mut self,
        pool: &Pool,
        rows: &BlockRows<'_>,
        c_local: &mut [Scalar],
        k: usize,
    ) -> Result<(), RankError> {
        self.for_each_sync_chunk(|chunk| {
            par_sync_panels(pool, chunk, rows, c_local, k);
        })
    }
}

/// The process's peak resident set size (`VmHWM`) in bytes, read from
/// `/proc/self/status`. Returns `None` on platforms or kernels that don't
/// expose it. Note the counter is a process-lifetime high-water mark: to
/// attribute a peak to one phase, measure the cheap phase first.
pub fn peak_rss_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::RankMatrices;
    use twoface_matrix::gen::{erdos_renyi, ErdosChunks};
    use twoface_matrix::{CooMatrix, Triplet};

    /// Writes rank `rank`'s shard of `a` in rank-local rows to `path`, as
    /// pass 2 leaves it, and returns its entry count.
    fn write_shard(a: &CooMatrix, layout: &OneDimLayout, rank: usize, path: &Path) -> usize {
        let rows = layout.row_range(rank);
        let shard: Vec<SmallTriplet> = a
            .triplets()
            .iter()
            .filter(|t| rows.contains(&t.row))
            .map(|t| SmallTriplet::new(t.row - rows.start, t.col, t.val))
            .collect();
        write_records(path, &shard).unwrap();
        shard.len()
    }

    /// Pass 4 over rank `rank`'s shard of `a` under `plan`, in `spill`.
    fn store_of(
        a: &CooMatrix,
        plan: &PartitionPlan,
        rank: usize,
        panel_height: usize,
        spill: &SpillDir,
    ) -> RankStore {
        let shard = spill.path(format!("norm.{rank}"));
        let nnz = write_shard(a, plan.layout(), rank, &shard);
        let store = spill.path(format!("store.{rank}"));
        build_store(rank, shard, nnz, store, plan, panel_height).unwrap()
    }

    #[test]
    fn records_roundtrip_across_buffer_refills() {
        // More bytes than one writer chunk, read back through a buffer that
        // no record width divides, so records straddle its refills.
        let small: Vec<SmallTriplet> =
            (0..5000).map(|i| SmallTriplet::new(42 + i, 99 * i, 0.25 + i as f64)).collect();
        let cols: Vec<u32> = (0..50).map(|i| u32::MAX - i).collect();
        assert!(small.len() * SmallTriplet::BYTES > IO_CHUNK_BYTES);
        let spill = SpillDir::create(None).unwrap();
        let path = spill.path("records".to_string());
        let mut out = RecordWriter::create(&path).unwrap();
        out.extend(&small).unwrap();
        out.extend(&cols).unwrap();
        out.extend(&small).unwrap();
        out.finish().unwrap();
        let file = File::open(&path).unwrap();
        assert_eq!(file.metadata().unwrap().len(), 2 * 5000 * 16 + 50 * 4);
        let mut reader = BufReader::with_capacity(1000, file);
        let (mut s, mut c, mut kept) = (Vec::new(), Vec::new(), Vec::new());
        read_records(&mut reader, small.len(), &mut s, |_| true).unwrap();
        read_records(&mut reader, cols.len(), &mut c, |_| true).unwrap();
        // Dropping records as they decode, split ones included.
        let even = |t: &SmallTriplet| t.row.is_multiple_of(2);
        read_records(&mut reader, small.len(), &mut kept, even).unwrap();
        let evens: Vec<SmallTriplet> = small.iter().copied().filter(even).collect();
        assert_eq!((s, c, kept), (small, cols, evens));
        let err = read_records(&mut reader, 1, &mut Vec::<u32>::new(), |_| true).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn partial_shard_record_is_a_typed_error_naming_the_rank_and_file() {
        let records = [SmallTriplet::new(1, 2, 3.0), SmallTriplet::new(4, 5, -6.0)];
        let spill = SpillDir::create(None).unwrap();
        let path = spill.path("raw.3".to_string());
        write_records(&path, &records).unwrap();
        let mut reader = ShardReader::open(3, &path).unwrap();
        let mut whole = Vec::new();
        reader.read(reader.records, &mut whole).unwrap();
        assert_eq!(whole, records);
        let bytes = records.len() * SmallTriplet::BYTES;
        for len in [bytes + 1, bytes - 1] {
            File::options().write(true).open(&path).unwrap().set_len(len as u64).unwrap();
            match ShardReader::open(3, &path).map(|reader| reader.records) {
                Err(RunError::Io { context }) => {
                    assert!(context.contains("rank 3"), "{context}");
                    assert!(context.contains("raw.3"), "{context}");
                    assert!(context.contains(&format!("{len} bytes")), "{context}");
                }
                other => panic!("{len} bytes: expected an I/O error, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_store_is_a_typed_read_error() {
        // Rank 1's remote stripes are async and its own column block is
        // sync, so it reads both files.
        let a = erdos_renyi(64, 64, 600, 5);
        let layout = OneDimLayout::new(64, 64, 4, 4);
        let plan = PartitionPlan::build_uniform(&a, layout, 8, StripeClass::Async);
        for truncate_store in [true, false] {
            let spill = SpillDir::create(None).unwrap();
            let store = store_of(&a, &plan, 1, 4, &spill);
            assert!(!store.stripes.is_empty() && store.sync_nnz > 0, "rank 1 reads both files");
            let (path, len) = if truncate_store {
                (&store.path, store.store_bytes() / 2)
            } else {
                (&store.shard, store.sync_read_bytes() / 2)
            };
            File::options().write(true).open(path).unwrap().set_len(len as u64).unwrap();
            let (store_file, shard_file) =
                (File::open(&store.path).unwrap(), File::open(&store.shard).unwrap());
            let mut source = StoreSource::new(1, &store, plan.layout(), &store_file, &shard_file);
            let err = source
                .for_each_async(|_| Ok(()))
                .and_then(|()| source.for_each_sync_chunk(|_| {}))
                .expect_err("half the file is gone");
            match err.into_run_error(1, Vec::new()) {
                RunError::Io { context } => {
                    assert!(context.contains("rank 1"), "{context}");
                    assert!(context.contains(&path.display().to_string()), "{context}");
                }
                other => panic!("expected an I/O error, got {other:?}"),
            }
        }
    }

    #[test]
    fn sync_chunks_cover_the_entries_without_splitting_rows() {
        // Rank 0 of two holds every nonzero — five sync ones per row, so the
        // chunk cap falls mid-row, and two in the other rank's async
        // stripes, which the reads drop — and enough for several chunks.
        let n = 2 * (SYNC_CHUNK_ENTRIES / 5 + 1000);
        let layout = OneDimLayout::new(n, n, 2, 64);
        let (rows, half) = (layout.row_range(0), layout.col_range(0).len());
        let triplets: Vec<(usize, usize, f64)> = rows
            .flat_map(|r| {
                let sync = (0..5).map(move |j| (r, (r + 3 * j) % half, 1.0 + j as f64));
                sync.chain((0..2).map(move |j| (r, half + (r + 5 * j) % half, -1.0)))
            })
            .collect();
        let a = CooMatrix::from_triplets(n, n, triplets).unwrap();
        let plan = PartitionPlan::build_uniform(&a, layout, 8, StripeClass::Async);
        let matrices = RankMatrices::build(&a, &plan, 0, 32).unwrap();
        let spill = SpillDir::create(None).unwrap();
        let store = store_of(&a, &plan, 0, 32, &spill);
        let sync = &matrices.sync_local;
        assert_eq!(
            (store.sync_nnz, store.nonempty_panels),
            (sync.nnz(), sync.num_nonempty_panels())
        );
        let (store_file, shard_file) =
            (File::open(&store.path).unwrap(), File::open(&store.shard).unwrap());
        let mut source = StoreSource::new(0, &store, plan.layout(), &store_file, &shard_file);
        let mut stripes: Vec<AsyncStripe> = Vec::new();
        source
            .for_each_async(|stripe| {
                stripes.push(stripe.clone());
                Ok(())
            })
            .unwrap();
        assert_eq!(stripes, matrices.asynchronous.stripes());
        let mut chunks: Vec<Vec<SmallTriplet>> = Vec::new();
        source.for_each_sync_chunk(|chunk| chunks.push(chunk.to_vec())).unwrap();
        assert!(chunks.len() > 1, "the fixture spans several chunks");
        for pair in chunks.windows(2) {
            assert_ne!(pair[0].last().unwrap().row, pair[1][0].row, "a row straddles two chunks");
        }
        assert_eq!(chunks.concat(), sync.entries());
    }

    #[test]
    fn all_sync_plan_spills_one_record_per_draw_and_per_nonzero() {
        // Async transfers cost a second each, so every stripe is sync and
        // pass 4 writes empty stores: only the raw and normalized shards
        // reach the disk, at 16 bytes an entry.
        let all_sync = ModelCoefficients {
            beta_sync: 1e-15,
            alpha_sync: 1e-15,
            beta_async: 1.0,
            alpha_async: 1.0,
            gamma_async: 1.0,
            kappa_async: 1.0,
        };
        let draws = 20_000;
        let run = run_twoface_streamed(
            &mut ErdosChunks::new(1024, 1024, draws, 5),
            8,
            4,
            32,
            &CostModel::delta_scaled(),
            &StreamOptions { coefficients: Some(all_sync), ..Default::default() },
        )
        .unwrap();
        assert!(run.realized_nnz < draws, "the draws repeat coordinates");
        assert_eq!(run.spilled_bytes, 16 * (draws + run.realized_nnz));
    }

    #[test]
    fn normalization_is_bitwise_equal_at_both_entry_widths() {
        // Duplicate-heavy draws whose sums depend on their order: forty
        // rows, thirty columns, values of very different magnitudes. Rows
        // a thousand apart span more than the entry count, which takes the
        // comparison-sort path; adjacent rows take the counting sort.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut draw = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        let draws: Vec<(u64, u64, f64)> = (0..5000)
            .map(|_| (draw(40), draw(30), [1e16, -1e16, 1.0, 0.1][draw(4) as usize]))
            .collect();
        for (path, row_stride) in [("counting sort", 1), ("comparison sort", 1000)] {
            let wide: Vec<Triplet> = draws
                .iter()
                .map(|&(r, c, v)| Triplet::new(r as usize * row_stride, c as usize, v))
                .collect();
            let mut small: Vec<SmallTriplet> =
                wide.iter().map(|&t| SmallTriplet::try_from(t).unwrap()).collect();
            let mut wide = wide;
            normalize_triplets(&mut wide);
            normalize_triplets(&mut small);
            assert!(wide.len() < 40 * 30 + 1, "{path}: duplicates are summed");
            let wide: Vec<_> = wide.iter().map(|t| (t.row, t.col, t.val.to_bits())).collect();
            let small: Vec<_> =
                small.iter().map(|t| (t.row as usize, t.col as usize, t.val.to_bits())).collect();
            assert_eq!(wide, small, "{path}");
        }
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(bytes) = peak_rss_bytes() {
            assert!(bytes > 0);
        }
    }

    #[test]
    fn infeasible_budget_is_rejected_up_front() {
        let mut source = ErdosChunks::new(512, 512, 4000, 9);
        let err = run_twoface_streamed(
            &mut source,
            8,
            4,
            32,
            &CostModel::delta(),
            &StreamOptions { memory_budget: Some(1), ..Default::default() },
        )
        .unwrap_err();
        assert!(matches!(err, RunError::HostBudgetExceeded { .. }), "got {err:?}");
    }

    #[test]
    fn degenerate_layout_is_a_shape_error() {
        let mut source = ErdosChunks::new(4, 4, 10, 1);
        let err = run_twoface_streamed(
            &mut source,
            8,
            16,
            2,
            &CostModel::delta(),
            &StreamOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RunError::Shape { .. }));
    }
}
