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
//!    [`normalize_triplets`] (the one normalization path in the workspace,
//!    so per-shard normalization concatenates to exactly the resident
//!    matrix; a counting sort over the shard's contiguous rows), profile its
//!    stripes, and spill the normalized shard back.
//! 3. **Plan** — classify from the per-rank profiles through the planner
//!    the resident [`prepare_plan`](crate::prepare_plan) runs: the
//!    sync-buffer budget from each rank's operand bytes, then
//!    [`PartitionPlan::build_from_profiles`](twoface_partition::PartitionPlan::build_from_profiles).
//! 4. **Build + store** — per rank, build the compact [`RankMatrices`]
//!    from the normalized shard ([`RankMatrices::build_from_rows`]) and
//!    serialize them to a per-rank store file: async stripes first
//!    (ascending), sync entries last — the order execution consumes them,
//!    so reads are purely sequential.
//! 5. **Execute** — run the resident Two-Face rank body over a store
//!    source: each rank reads its store front to back into one reused
//!    buffer, one async stripe or one row-aligned sync chunk at a time, so
//!    peak memory is the dense operands plus a few panels of sparse
//!    entries per rank.
//!
//! Every file is back-to-back fixed-width little-endian records — 24-byte
//! wide triplets in the shards, 16-byte compact entries and 4-byte column
//! ids in the stores — and every pass moves them in bulk: one encoder
//! buffer per file written a chunk at a time, and a decoder that turns a
//! reader's whole buffer into records at once. A shard whose length is not
//! a whole number of records is a typed [`RunError::Io`] naming the rank
//! and the file.
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
use crate::format::{AsyncStripe, RankMatrices};
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
use twoface_matrix::{normalize_triplets, Scalar, SmallTriplet, Triplet, SCALAR_BYTES};
use twoface_net::{
    Cluster, CostModel, Lane, MetricsRegistry, Observability, OpEvent, OpKind, PhaseClass,
};
use twoface_partition::{
    ClassifierKind, ModelCoefficients, NodeProfile, OneDimLayout, StripeClass,
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
/// on both: pass 2's counting sort holds at most 56 (the 24-byte triplet, an
/// 8-byte key and a 24-byte gathered entry), pass 4 at most 44 (the
/// triplet, its compact entry and a 4-byte column id).
const BUILD_BYTES_PER_NNZ: usize = 60;

/// Bytes moved per read or write call on the shard files, and the capacity
/// of each record writer's buffer.
const IO_CHUNK_BYTES: usize = 1 << 16;

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
    /// Appends the encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one record from exactly [`Record::BYTES`] bytes.
    fn decode(bytes: &[u8]) -> Self;
}

/// The `N` bytes at `at` in a record being decoded.
fn field<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    bytes[at..at + N].try_into().expect("the record holds the field")
}

/// Raw and normalized shards: `u64` row, `u64` col, `f64` value.
impl Record for Triplet {
    const BYTES: usize = NNZ_BYTES;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.row as u64).to_le_bytes());
        out.extend_from_slice(&(self.col as u64).to_le_bytes());
        out.extend_from_slice(&self.val.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> Triplet {
        let row = u64::from_le_bytes(field(bytes, 0)) as usize;
        let col = u64::from_le_bytes(field(bytes, 8)) as usize;
        Triplet::new(row, col, f64::from_le_bytes(field(bytes, 16)))
    }
}

/// Store entries: `u32` row, `u32` col, `f64` value.
impl Record for SmallTriplet {
    const BYTES: usize = SMALL_ENTRY_BYTES;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.row.to_le_bytes());
        out.extend_from_slice(&self.col.to_le_bytes());
        out.extend_from_slice(&self.val.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> SmallTriplet {
        let (row, col) = (u32::from_le_bytes(field(bytes, 0)), u32::from_le_bytes(field(bytes, 4)));
        SmallTriplet { row, col, val: f64::from_le_bytes(field(bytes, 8)) }
    }
}

/// Store unique-column ids.
impl Record for u32 {
    const BYTES: usize = 4;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> u32 {
        u32::from_le_bytes(field(bytes, 0))
    }
}

/// Writes records to a file through one [`IO_CHUNK_BYTES`] buffer, so the
/// file sees one `write` per chunk rather than one per record.
struct RecordWriter {
    file: File,
    buf: Vec<u8>,
}

impl RecordWriter {
    fn create(path: &Path) -> io::Result<RecordWriter> {
        Ok(RecordWriter { file: File::create(path)?, buf: Vec::with_capacity(IO_CHUNK_BYTES) })
    }

    fn push<R: Record>(&mut self, record: &R) -> io::Result<()> {
        if self.buf.len() + R::BYTES > IO_CHUNK_BYTES {
            self.file.write_all(&self.buf)?;
            self.buf.clear();
        }
        record.encode(&mut self.buf);
        Ok(())
    }

    fn extend<R: Record>(&mut self, records: &[R]) -> io::Result<()> {
        records.iter().try_for_each(|record| self.push(record))
    }

    /// Writes what is still buffered.
    fn finish(mut self) -> io::Result<()> {
        self.file.write_all(&self.buf)
    }
}

/// Appends `count` records from `input` to `out`, decoding every whole
/// record in the reader's buffer at once; only a record split across two
/// refills is copied out on its own.
fn read_records<R: Record>(
    input: &mut impl BufRead,
    count: usize,
    out: &mut Vec<R>,
) -> io::Result<()> {
    out.reserve(count);
    let mut left = count;
    while left > 0 {
        let buf = input.fill_buf()?;
        let whole = (buf.len() / R::BYTES).min(left);
        if whole > 0 {
            out.extend(buf[..whole * R::BYTES].chunks_exact(R::BYTES).map(R::decode));
            input.consume(whole * R::BYTES);
            left -= whole;
        } else {
            // A split record, or the input's end: `read_exact` refills
            // across the split, or reports the end as an error. No record
            // is wider than a triplet.
            let mut record = [0u8; NNZ_BYTES];
            let record = &mut record[..R::BYTES];
            input.read_exact(record)?;
            out.push(R::decode(record));
            left -= 1;
        }
    }
    Ok(())
}

/// Reads rank `rank`'s whole shard file at `path`. A file whose length is
/// not a whole number of records is a typed error naming the rank and the
/// file, never a silently dropped partial record.
fn read_shard(rank: usize, path: &Path) -> Result<Vec<Triplet>, RunError> {
    let context = format!("rank {rank} reading shard {}", path.display());
    let file = File::open(path).map_err(|e| io_err(&context, e))?;
    let len = file.metadata().map_err(|e| io_err(&context, e))?.len();
    decode_shard(BufReader::with_capacity(IO_CHUNK_BYTES, file), len, &context)
}

/// Decodes the `len` bytes of `input` as whole shard records.
fn decode_shard(
    mut input: impl BufRead,
    len: u64,
    context: &str,
) -> Result<Vec<Triplet>, RunError> {
    let width = Triplet::BYTES as u64;
    if !len.is_multiple_of(width) {
        return Err(RunError::Io {
            context: format!(
                "{context}: {len} bytes is not a whole number of {width}-byte records"
            ),
        });
    }
    let mut shard = Vec::new();
    read_records(&mut input, (len / width) as usize, &mut shard).map_err(|e| io_err(context, e))?;
    Ok(shard)
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

/// One rank's serialized compact structures plus the metadata the executor
/// and the cost charges need without touching the file.
struct RankStore {
    path: PathBuf,
    stripes: Vec<StripeMeta>,
    sync_nnz: usize,
    /// The sync entries' read chunks, in entries: [`SYNC_CHUNK_ENTRIES`]
    /// each, plus the rest of the chunk's last row.
    sync_chunks: Vec<usize>,
    nonempty_panels: usize,
}

/// Serializes one rank's built structures in execution order: per async
/// stripe (ascending) its row-major entries then its unique columns, then
/// the sync/local entries (row-major). Returns the store handle and the
/// bytes written.
fn write_store(path: PathBuf, matrices: &RankMatrices) -> Result<(RankStore, usize), RunError> {
    let write = || -> io::Result<()> {
        let mut out = RecordWriter::create(&path)?;
        for stripe in matrices.asynchronous.stripes() {
            out.extend(&stripe.entries)?;
            out.extend(&stripe.unique_cols)?;
        }
        out.extend(matrices.sync_local.entries())?;
        out.finish()
    };
    write().map_err(|e| io_err(&format!("writing store {}", path.display()), e))?;
    let stripes: Vec<StripeMeta> = matrices
        .asynchronous
        .stripes()
        .iter()
        .map(|s| StripeMeta { stripe: s.stripe, nnz: s.nnz(), unique: s.unique_cols.len() })
        .collect();
    let sync = matrices.sync_local.entries();
    let bytes = stripes.iter().map(|m| m.nnz * SMALL_ENTRY_BYTES + m.unique * 4).sum::<usize>()
        + sync.len() * SMALL_ENTRY_BYTES;
    let mut sync_chunks = Vec::new();
    let mut start = 0;
    while start < sync.len() {
        let mut end = (start + SYNC_CHUNK_ENTRIES).min(sync.len());
        while end < sync.len() && sync[end].row == sync[end - 1].row {
            end += 1;
        }
        sync_chunks.push(end - start);
        start = end;
    }
    let store = RankStore {
        path,
        stripes,
        sync_nnz: sync.len(),
        sync_chunks,
        nonempty_panels: matrices.sync_local.num_nonempty_panels(),
    };
    Ok((store, bytes))
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
/// * [`RunError::Shape`] for infeasible layouts or out-of-bounds draws;
/// * [`RunError::HostBudgetExceeded`] when even the out-of-core working set
///   exceeds [`StreamOptions::memory_budget`];
/// * [`RunError::OutOfMemory`] under the same *simulated* per-node gate as
///   the resident path;
/// * [`RunError::Io`] when spill or store files cannot be written or read
///   back (naming the rank and the file for store reads).
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
    {
        let mut writers: Vec<RecordWriter> = raw_paths
            .iter()
            .map(|path| {
                RecordWriter::create(path)
                    .map_err(|e| io_err(&format!("creating shard {}", path.display()), e))
            })
            .collect::<Result<_, _>>()?;
        let mut chunk: Vec<Triplet> = Vec::new();
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
                writers[layout.owner_of_row(t.row)]
                    .push(t)
                    .map_err(|e| io_err("spilling raw shard", e))?;
            }
            spilled_bytes += chunk.len() * NNZ_BYTES;
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
    telemetry.pass(1, (spilled_bytes / NNZ_BYTES) as u64, pass_started);

    // --- Pass 2: normalize + profile per rank, one shard at a time. ---
    // Shards partition the draw stream by row and `normalize_triplets` puts
    // entries in stable (row, col) order with in-order duplicate summing, so
    // the concatenation of normalized shards is exactly the resident matrix.
    // Its transient (at most 32 B per entry beyond the 24 B shard) keeps
    // this pass inside the build term of the host estimate below.
    let mut profiles: Vec<NodeProfile> = Vec::with_capacity(p);
    let mut nnz_by_rank: Vec<usize> = Vec::with_capacity(p);
    let mut peak_shard_bytes = 0usize;
    let norm_paths: Vec<PathBuf> = (0..p).map(|r| spill.path(format!("norm.{r}"))).collect();
    pass_started = Instant::now();
    for rank in 0..p {
        let mut shard = read_shard(rank, &raw_paths[rank])?;
        telemetry.spill_read(rank, (shard.len() * NNZ_BYTES) as u64);
        peak_shard_bytes = peak_shard_bytes.max(shard.len() * NNZ_BYTES);
        normalize_triplets(&mut shard);
        profiles.push(NodeProfile::build_from_rows(&shard, &layout, rank));
        nnz_by_rank.push(shard.len());
        write_records(&norm_paths[rank], &shard)
            .map_err(|e| io_err("spilling normalized shard", e))?;
        spilled_bytes += shard.len() * NNZ_BYTES;
        if telemetry.enabled {
            let written = disk_bytes(&norm_paths[rank], shard.len() * NNZ_BYTES);
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
        workers,
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

    // --- Pass 4: build compact structures per rank, serialize, drop. ---
    pass_started = Instant::now();
    let mut stores: Vec<RankStore> = Vec::with_capacity(p);
    let mut store_bytes = 0u64;
    for rank in 0..p {
        telemetry.spill_read(rank, (nnz_by_rank[rank] * NNZ_BYTES) as u64);
        let shard = read_shard(rank, &norm_paths[rank])?;
        if shard.len() != nnz_by_rank[rank] {
            return Err(RunError::Io {
                context: format!(
                    "rank {rank} reading shard {}: {} records, but pass 2 wrote {}",
                    norm_paths[rank].display(),
                    shard.len(),
                    nnz_by_rank[rank]
                ),
            });
        }
        let matrices =
            RankMatrices::build_from_rows(&shard, &plan, rank, options.config.row_panel_height)?;
        drop(shard);
        let (store, bytes) = write_store(spill.path(format!("store.{rank}")), &matrices)?;
        spilled_bytes += bytes;
        if telemetry.enabled {
            let written = disk_bytes(&store.path, bytes);
            store_bytes += written;
            telemetry.spill_write(rank, written);
        }
        stores.push(store);
        let _ = std::fs::remove_file(&norm_paths[rank]);
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
    // The executors read the stores back inside the rank threads; charge
    // those reads up front at the driver (structural runs skip the sync
    // entries, so only the async portion is charged without compute).
    if telemetry.enabled {
        for (rank, store) in stores.iter().enumerate() {
            let async_bytes: usize =
                store.stripes.iter().map(|m| m.nnz * SMALL_ENTRY_BYTES + m.unique * 4).sum();
            let sync_bytes = if exec.compute { store.sync_nnz * SMALL_ENTRY_BYTES } else { 0 };
            telemetry.spill_read(rank, (async_bytes + sync_bytes) as u64);
        }
    }
    // Open every store before the cluster starts, so a vanished spill file
    // fails the run up front instead of inside a rank thread.
    let files: Vec<File> = stores
        .iter()
        .enumerate()
        .map(|(rank, store)| {
            File::open(&store.path).map_err(|e| {
                io_err(&format!("rank {rank} opening store {}", store.path.display()), e)
            })
        })
        .collect::<Result<_, _>>()?;
    let cluster = Cluster::new(p, effective);
    cluster.set_observability(resolved.observability.clone());
    let mut outputs = cluster.run(|ctx| {
        let rank = ctx.rank();
        let source = StoreSource::new(rank, &stores[rank], &files[rank]);
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

/// [`StripeSource`] over one rank's store file, read front to back — async
/// stripes in ascending order, then the sync entries — into one reused
/// entry buffer, so at most one stripe or one sync chunk of the rank's
/// nonzeros is resident at a time. Records decode straight out of the
/// reader's default-sized buffer, so a rank adds no staging buffer sized to
/// what it reads.
struct StoreSource<'a> {
    rank: usize,
    store: &'a RankStore,
    reader: BufReader<&'a File>,
    /// The async stripe being visited; its entries then hold each sync
    /// chunk in turn.
    stripe: AsyncStripe,
}

impl<'a> StoreSource<'a> {
    fn new(rank: usize, store: &'a RankStore, file: &'a File) -> StoreSource<'a> {
        StoreSource { rank, store, reader: BufReader::new(file), stripe: AsyncStripe::default() }
    }

    /// Visits the sync/local entries row-major, in chunks that never split
    /// a row.
    fn for_each_sync_chunk(
        &mut self,
        mut visit: impl FnMut(&[SmallTriplet]),
    ) -> Result<(), RankError> {
        let (rank, store) = (self.rank, self.store);
        for &len in &store.sync_chunks {
            let entries = &mut self.stripe.entries;
            entries.clear();
            read_records(&mut self.reader, len, entries).map_err(|e| store.read_error(rank, e))?;
            visit(entries);
        }
        Ok(())
    }
}

impl RankStore {
    /// A failed read of rank `rank`'s store as the typed error naming both.
    fn read_error(&self, rank: usize, e: io::Error) -> RankError {
        RankError::Io(format!("rank {rank} reading store {}: {e}", self.path.display()))
    }
}

impl StripeSource for StoreSource<'_> {
    type Error = RankError;

    fn for_each_async(
        &mut self,
        mut visit: impl FnMut(&AsyncStripe) -> Result<(), RankError>,
    ) -> Result<(), RankError> {
        let (rank, store, stripe) = (self.rank, self.store, &mut self.stripe);
        for meta in &store.stripes {
            stripe.stripe = meta.stripe;
            stripe.entries.clear();
            read_records(&mut self.reader, meta.nnz, &mut stripe.entries)
                .map_err(|e| store.read_error(rank, e))?;
            stripe.unique_cols.clear();
            read_records(&mut self.reader, meta.unique, &mut stripe.unique_cols)
                .map_err(|e| store.read_error(rank, e))?;
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
    use twoface_matrix::gen::ErdosChunks;
    use twoface_partition::PartitionPlan;

    #[test]
    fn wide_and_small_roundtrip() {
        // More bytes than one writer chunk, read back through a buffer that
        // no record width divides, so records straddle its refills.
        let wide: Vec<Triplet> =
            (0..4000).map(|i| Triplet::new(123_456_789_012 + i, 7 * i, -1.5 * i as f64)).collect();
        let small: Vec<SmallTriplet> =
            (0..300).map(|i| SmallTriplet::new(42 + i, 99 * i, 0.25 + i as f64)).collect();
        let cols: Vec<u32> = (0..50).map(|i| u32::MAX - i).collect();
        assert!(wide.len() * Triplet::BYTES > IO_CHUNK_BYTES);
        let spill = SpillDir::create(None).unwrap();
        let path = spill.path("records".to_string());
        let mut out = RecordWriter::create(&path).unwrap();
        out.extend(&wide).unwrap();
        out.extend(&small).unwrap();
        out.extend(&cols).unwrap();
        out.finish().unwrap();
        let file = File::open(&path).unwrap();
        assert_eq!(file.metadata().unwrap().len(), 4000 * 24 + 300 * 16 + 50 * 4);
        let mut reader = BufReader::with_capacity(1000, file);
        let (mut w, mut s, mut c) = (Vec::new(), Vec::new(), Vec::new());
        read_records(&mut reader, wide.len(), &mut w).unwrap();
        read_records(&mut reader, small.len(), &mut s).unwrap();
        read_records(&mut reader, cols.len(), &mut c).unwrap();
        assert_eq!((w, s, c), (wide, small, cols));
        let err = read_records(&mut reader, 1, &mut Vec::<u32>::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn partial_shard_record_is_a_typed_error_naming_the_rank_and_file() {
        let records = [Triplet::new(1, 2, 3.0), Triplet::new(4, 5, -6.0)];
        let mut bytes = Vec::new();
        records.iter().for_each(|t| t.encode(&mut bytes));
        let context = "rank 3 reading shard raw.3";
        let whole = decode_shard(bytes.as_slice(), bytes.len() as u64, context).unwrap();
        assert_eq!(whole, records);
        for len in [bytes.len() + 1, bytes.len() - 1] {
            let mut input = bytes.clone();
            input.resize(len, 0);
            match decode_shard(input.as_slice(), len as u64, context) {
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
        let a = twoface_matrix::gen::erdos_renyi(64, 64, 600, 5);
        let plan = PartitionPlan::build_uniform(
            &a,
            OneDimLayout::new(64, 64, 4, 4),
            8,
            StripeClass::Async,
        );
        let matrices = RankMatrices::build(&a, &plan, 1, 4).unwrap();
        let spill = SpillDir::create(None).unwrap();
        let (store, bytes) = write_store(spill.path("store.1".to_string()), &matrices).unwrap();
        File::options().write(true).open(&store.path).unwrap().set_len(bytes as u64 / 2).unwrap();
        let file = File::open(&store.path).unwrap();
        let mut source = StoreSource::new(1, &store, &file);
        let err = source
            .for_each_async(|_| Ok(()))
            .and_then(|()| source.for_each_sync_chunk(|_| {}))
            .expect_err("half the store is gone");
        match err.into_run_error(1, Vec::new()) {
            RunError::Io { context } => {
                assert!(context.contains("rank 1"), "{context}");
                assert!(context.contains(&store.path.display().to_string()), "{context}");
            }
            other => panic!("expected an I/O error, got {other:?}"),
        }
    }

    #[test]
    fn sync_chunks_cover_the_entries_without_splitting_rows() {
        // One rank holds every nonzero — seven per row, so the chunk cap
        // falls mid-row — and enough of them for more than one chunk.
        let rows = SYNC_CHUNK_ENTRIES / 7 + 1000;
        let triplets: Vec<(usize, usize, f64)> =
            (0..rows).flat_map(|r| (0..7).map(move |j| (r, (r + 3 * j) % rows, 1.0))).collect();
        let a = twoface_matrix::CooMatrix::from_triplets(rows, rows, triplets).unwrap();
        let layout = OneDimLayout::new(rows, rows, 1, 64);
        let plan = PartitionPlan::build_uniform(&a, layout, 8, StripeClass::Sync);
        let matrices = RankMatrices::build(&a, &plan, 0, 32).unwrap();
        let spill = SpillDir::create(None).unwrap();
        let (store, _) = write_store(spill.path("store.0".to_string()), &matrices).unwrap();
        let file = File::open(&store.path).unwrap();
        let mut chunks: Vec<Vec<SmallTriplet>> = Vec::new();
        StoreSource::new(0, &store, &file)
            .for_each_sync_chunk(|chunk| chunks.push(chunk.to_vec()))
            .unwrap();
        assert!(chunks.len() > 1, "the fixture spans several chunks");
        for pair in chunks.windows(2) {
            assert_ne!(pair[0].last().unwrap().row, pair[1][0].row, "a row straddles two chunks");
        }
        assert_eq!(chunks.concat(), matrices.sync_local.entries());
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
