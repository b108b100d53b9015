//! The `FTSPMTRC` binary access-trace format: writer, streaming reader,
//! and the content-addressed trace id.
//!
//! ## Layout
//!
//! A trace file is a 10-byte header — the [`MAGIC`] `FTSPMTRC` plus a
//! little-endian u16 [`VERSION`] — followed by *chunks*, each framed by
//! the crash journal's frame codec ([`ftspm_harness::journal::Framer`]
//! / [`ftspm_harness::journal::deframe`]): `len: u32 LE | crc: u32 LE |
//! payload`, with the IEEE CRC32 taken over the payload. Chunk 0 is the
//! *header chunk* (program shape, initial-memory snapshot, replay
//! checksum, op count); every later chunk carries a run of op records,
//! so readers stream chunk by chunk instead of slurping one giant
//! record.
//!
//! Op records are varint-encoded (LEB128) with *cycle deltas*: each
//! record stores a tag byte, the cycle distance from the previous op,
//! and the tag's operands. Initial-memory snapshots are sparse
//! (index-delta + value pairs over the zero-initialised DRAM image), so
//! a kernel with a large mostly-zero matrix stays compact.
//!
//! ## Torn tails
//!
//! The reader tolerates torn tails with the journal's semantics (it is
//! the same deframer): complete, CRC-valid chunks decode; a trailing
//! partial chunk is dropped and reported as [`Tail::Torn`]; a CRC
//! mismatch on a *complete* chunk is [`TraceError::Corrupt`] (real
//! corruption, not a torn write, which can only shorten the tail). A
//! tail torn before the header chunk completed leaves nothing to replay
//! and decodes to [`TraceError::Truncated`].

pub use ftspm_harness::journal::Tail;
use ftspm_harness::journal::{deframe, DecodeError, Framer};
use ftspm_sim::{BlockId, BlockKind, Program};

/// Leading magic: identifies a byte stream as an FTSPM access trace.
pub const MAGIC: [u8; 8] = *b"FTSPMTRC";

/// Format version, bumped on any incompatible layout change.
pub const VERSION: u16 = 1;

/// Cap on declared code bytes: the replay pipeline's ideal profiling
/// regions are 256 KiB per side, and profiling maps *everything*, so a
/// trace whose program cannot fit would only ever fail later.
pub const MAX_CODE_BYTES: u32 = 256 * 1024;

/// Cap on declared data bytes (stack included); same rationale as
/// [`MAX_CODE_BYTES`].
pub const MAX_DATA_BYTES: u32 = 256 * 1024;

/// Cap on declared program blocks.
pub const MAX_BLOCKS: usize = 64;

/// Cap on total op records in one trace.
pub const MAX_OPS: u64 = 4_000_000;

/// Cap on a single `Execute` record's instruction count — bounds how
/// much simulation one record can order.
pub const MAX_EXECUTE_COUNT: u32 = 1 << 16;

/// Target payload size per op chunk (the writer flushes past this).
const CHUNK_TARGET_BYTES: usize = 32 * 1024;

/// One replayable CPU operation (the value-free mirror of
/// `ftspm_sim::CpuOp`: read values are *recomputed* at replay, not
/// stored, which is what makes the replay-checksum comparison
/// meaningful).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Call into code block `block`.
    Call {
        /// Callee block index.
        block: BlockId,
    },
    /// Return from the current frame.
    Ret,
    /// Fetch `count` straight-line instructions.
    Execute {
        /// Instructions fetched.
        count: u32,
    },
    /// Word load; the loaded value feeds the replay checksum.
    Read {
        /// Source block.
        block: BlockId,
        /// Byte offset of the word.
        offset: u32,
    },
    /// Word store of `value`.
    Write {
        /// Destination block.
        block: BlockId,
        /// Byte offset of the word.
        offset: u32,
        /// Stored value.
        value: u32,
    },
    /// Frame-relative stack load; feeds the replay checksum.
    StackRead {
        /// Frame-relative byte offset.
        offset: u32,
    },
    /// Frame-relative stack store.
    StackWrite {
        /// Frame-relative byte offset.
        offset: u32,
        /// Stored value.
        value: u32,
    },
}

/// A trace op stamped with the machine cycle at which it was issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Issue cycle (nondecreasing across a trace).
    pub cycle: u64,
    /// The operation.
    pub op: TraceOp,
}

/// Sparse initial-memory snapshot of one data block: `(word index,
/// value)` pairs in increasing index order, zeros omitted (DRAM is
/// zero-initialised).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockInit {
    /// The data block.
    pub block: BlockId,
    /// Nonzero words, by increasing word index.
    pub words: Vec<(u32, u32)>,
}

/// A decoded (or recorded) access trace: everything needed to replay
/// the source workload's exact memory event stream on a fresh machine.
///
/// The ops stay resident in their canonical wire form (the op-record
/// encoding of the format, about 5 bytes per op) rather than as 32-byte
/// [`TraceRecord`]s; [`Trace::records`] reads them back. Canonical
/// bytes are equal exactly when the records are, so the derived
/// equality is record equality.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The recorded workload's name (reported by replays).
    pub name: String,
    /// The program shape, rebuilt block-for-block.
    pub program: Program,
    /// Sparse initial-memory snapshots, one per data block with any
    /// nonzero words.
    pub init: Vec<BlockInit>,
    /// The replay checksum: an FNV fold over every value the recorded
    /// run's loads observed, in op order. A replay recomputes it.
    pub expected_checksum: u64,
    /// Declared op count; [`Trace::decoded_ops`] equals this unless
    /// the tail was torn.
    pub op_count: u64,
    /// The ops, in issue order (a clean prefix when torn).
    pub(crate) ops: OpStream,
}

/// Why a byte stream failed to decode as a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The stream does not start with [`MAGIC`] + [`VERSION`].
    BadHeader,
    /// The tail tore before the header chunk completed: nothing
    /// replayable survives.
    Truncated,
    /// A complete chunk's CRC does not match its payload — corruption,
    /// not a torn write.
    Corrupt {
        /// Zero-based index of the corrupt chunk.
        chunk: usize,
    },
    /// The chunks decoded but their contents violate the format or its
    /// caps; the message names the violation.
    Malformed(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadHeader => write!(f, "not an FTSPM trace (bad magic or version)"),
            Self::Truncated => write!(f, "trace truncated before the header chunk completed"),
            Self::Corrupt { chunk } => write!(f, "chunk {chunk} failed its CRC check"),
            Self::Malformed(msg) => write!(f, "malformed trace: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

fn malformed(msg: impl Into<String>) -> TraceError {
    TraceError::Malformed(msg.into())
}

// ---------------------------------------------------------------------
// Varints (LEB128).

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    let mut v: u64 = 0;
    for shift in 0..10 {
        let byte = *bytes
            .get(*pos)
            .ok_or_else(|| malformed("varint runs off the chunk end"))?;
        *pos += 1;
        let payload = u64::from(byte & 0x7F);
        if shift == 9 && payload > 1 {
            return Err(malformed("varint overflows u64"));
        }
        v |= payload << (shift * 7);
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(malformed("varint longer than 10 bytes"))
}

fn get_u32(bytes: &[u8], pos: &mut usize, what: &str) -> Result<u32, TraceError> {
    u32::try_from(get_varint(bytes, pos)?).map_err(|_| malformed(format!("{what} exceeds u32")))
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn get_str(bytes: &[u8], pos: &mut usize, what: &str) -> Result<String, TraceError> {
    let len = get_varint(bytes, pos)? as usize;
    if len > 64 {
        return Err(malformed(format!("{what} name longer than 64 bytes")));
    }
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| malformed(format!("{what} name runs off the chunk end")))?;
    let s = std::str::from_utf8(&bytes[*pos..end])
        .map_err(|_| malformed(format!("{what} name is not UTF-8")))?
        .to_string();
    *pos = end;
    Ok(s)
}

// ---------------------------------------------------------------------
// Chunk framing: the journal's frame codec under the trace header.

fn header() -> [u8; 10] {
    let mut header = [0u8; 10];
    header[..8].copy_from_slice(&MAGIC);
    header[8..].copy_from_slice(&VERSION.to_le_bytes());
    header
}

impl From<DecodeError> for TraceError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Corrupt { index } => Self::Corrupt { chunk: index },
            // `BadHeader`, the codec's other failure (its error type is
            // non-exhaustive, so it is matched by wildcard).
            _ => Self::BadHeader,
        }
    }
}

// ---------------------------------------------------------------------
// Header chunk.

fn encode_header(t: &Trace) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    put_str(&mut buf, &t.name);
    put_str(&mut buf, t.program.name());
    put_varint(&mut buf, t.program.len() as u64);
    for (_, spec) in t.program.iter() {
        buf.push(match spec.kind() {
            BlockKind::Code => 1,
            BlockKind::Data => 0,
        });
        put_str(&mut buf, spec.name());
        put_varint(&mut buf, u64::from(spec.size_bytes()));
        put_varint(&mut buf, u64::from(spec.frame_bytes()));
    }
    put_varint(
        &mut buf,
        t.program.stack_block().map_or(0, |b| b.index() as u64 + 1),
    );
    put_varint(&mut buf, t.init.len() as u64);
    for init in &t.init {
        put_varint(&mut buf, init.block.index() as u64);
        put_varint(&mut buf, init.words.len() as u64);
        let mut prev = 0u32;
        for &(idx, value) in &init.words {
            put_varint(&mut buf, u64::from(idx - prev));
            put_varint(&mut buf, u64::from(value));
            prev = idx + 1;
        }
    }
    buf.extend_from_slice(&t.expected_checksum.to_le_bytes());
    put_varint(&mut buf, t.op_count);
    buf
}

struct Header {
    name: String,
    program: Program,
    init: Vec<BlockInit>,
    expected_checksum: u64,
    op_count: u64,
}

fn decode_header(bytes: &[u8]) -> Result<Header, TraceError> {
    let pos = &mut 0usize;
    let name = get_str(bytes, pos, "workload")?;
    let program_name = get_str(bytes, pos, "program")?;
    let block_count = get_varint(bytes, pos)? as usize;
    if block_count == 0 || block_count > MAX_BLOCKS {
        return Err(malformed(format!("block count must be 1..={MAX_BLOCKS}")));
    }
    struct RawBlock {
        kind: BlockKind,
        name: String,
        size_bytes: u32,
        frame_bytes: u32,
    }
    let mut raw = Vec::with_capacity(block_count);
    let (mut code_bytes, mut data_bytes) = (0u64, 0u64);
    for _ in 0..block_count {
        let kind = match bytes.get(*pos) {
            Some(0) => BlockKind::Data,
            Some(1) => BlockKind::Code,
            _ => return Err(malformed("bad block kind tag")),
        };
        *pos += 1;
        let block_name = get_str(bytes, pos, "block")?;
        let size_bytes = get_u32(bytes, pos, "block size")?;
        let frame_bytes = get_u32(bytes, pos, "frame size")?;
        if size_bytes == 0 || size_bytes % 4 != 0 {
            return Err(malformed("block sizes must be nonzero multiples of 4"));
        }
        if frame_bytes % 4 != 0 || (kind == BlockKind::Data && frame_bytes != 0) {
            return Err(malformed("bad frame size"));
        }
        if block_name.is_empty() || raw.iter().any(|b: &RawBlock| b.name == block_name) {
            return Err(malformed("block names must be unique and non-empty"));
        }
        match kind {
            BlockKind::Code => code_bytes += u64::from(size_bytes),
            BlockKind::Data => data_bytes += u64::from(size_bytes),
        }
        raw.push(RawBlock {
            kind,
            name: block_name,
            size_bytes,
            frame_bytes,
        });
    }
    if code_bytes > u64::from(MAX_CODE_BYTES) || data_bytes > u64::from(MAX_DATA_BYTES) {
        return Err(malformed(format!(
            "program exceeds the replayable footprint \
             ({MAX_CODE_BYTES} code / {MAX_DATA_BYTES} data bytes)"
        )));
    }
    let stack = match get_varint(bytes, pos)? {
        0 => None,
        idx_plus_one => {
            let idx = (idx_plus_one - 1) as usize;
            let spec = raw.get(idx).ok_or_else(|| malformed("stack index"))?;
            if spec.kind != BlockKind::Data || spec.name != "Stack" {
                return Err(malformed(
                    "stack block must be a data block named \"Stack\"",
                ));
            }
            Some(idx)
        }
    };
    // Rebuild through the builder so derived fields (spill words, DRAM
    // bases) match the original construction exactly. Everything the
    // builder asserts has been validated above.
    let mut b = Program::builder(program_name);
    for (idx, spec) in raw.iter().enumerate() {
        match spec.kind {
            BlockKind::Code => {
                b.code(spec.name.clone(), spec.size_bytes, spec.frame_bytes);
            }
            BlockKind::Data if stack == Some(idx) => {
                b.stack(spec.size_bytes);
            }
            BlockKind::Data => {
                b.data(spec.name.clone(), spec.size_bytes);
            }
        }
    }
    let program = b.build();
    let init_blocks = get_varint(bytes, pos)? as usize;
    if init_blocks > block_count {
        return Err(malformed("more init snapshots than blocks"));
    }
    let mut init = Vec::with_capacity(init_blocks);
    for _ in 0..init_blocks {
        let block_idx = get_varint(bytes, pos)? as usize;
        if block_idx >= block_count || raw[block_idx].kind != BlockKind::Data {
            return Err(malformed("init snapshot targets a non-data block"));
        }
        let words_in_block = raw[block_idx].size_bytes / 4;
        let pairs = get_varint(bytes, pos)? as usize;
        if pairs > words_in_block as usize {
            return Err(malformed("init snapshot larger than its block"));
        }
        let mut words = Vec::with_capacity(pairs);
        let mut next = 0u32;
        for _ in 0..pairs {
            let delta = get_u32(bytes, pos, "init index delta")?;
            let idx = next
                .checked_add(delta)
                .filter(|&i| i < words_in_block)
                .ok_or_else(|| malformed("init word index out of bounds"))?;
            let value = get_u32(bytes, pos, "init value")?;
            words.push((idx, value));
            next = idx + 1;
        }
        init.push(BlockInit {
            block: BlockId::new(block_idx),
            words,
        });
    }
    let checksum_end = pos
        .checked_add(8)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| malformed("header chunk ends before the checksum"))?;
    let expected_checksum =
        u64::from_le_bytes(bytes[*pos..checksum_end].try_into().expect("8 bytes"));
    *pos = checksum_end;
    let op_count = get_varint(bytes, pos)?;
    if op_count > MAX_OPS {
        return Err(malformed(format!("op count exceeds {MAX_OPS}")));
    }
    if *pos != bytes.len() {
        return Err(malformed("trailing bytes in the header chunk"));
    }
    Ok(Header {
        name,
        program,
        init,
        expected_checksum,
        op_count,
    })
}

// ---------------------------------------------------------------------
// Op records.

const TAG_CALL: u8 = 0;
const TAG_RET: u8 = 1;
const TAG_EXECUTE: u8 = 2;
const TAG_READ: u8 = 3;
const TAG_WRITE: u8 = 4;
const TAG_STACK_READ: u8 = 5;
const TAG_STACK_WRITE: u8 = 6;

fn encode_record(buf: &mut Vec<u8>, rec: &TraceRecord, prev_cycle: u64) {
    let delta = rec.cycle - prev_cycle;
    match rec.op {
        TraceOp::Call { block } => {
            buf.push(TAG_CALL);
            put_varint(buf, delta);
            put_varint(buf, block.index() as u64);
        }
        TraceOp::Ret => {
            buf.push(TAG_RET);
            put_varint(buf, delta);
        }
        TraceOp::Execute { count } => {
            buf.push(TAG_EXECUTE);
            put_varint(buf, delta);
            put_varint(buf, u64::from(count));
        }
        TraceOp::Read { block, offset } => {
            buf.push(TAG_READ);
            put_varint(buf, delta);
            put_varint(buf, block.index() as u64);
            put_varint(buf, u64::from(offset));
        }
        TraceOp::Write {
            block,
            offset,
            value,
        } => {
            buf.push(TAG_WRITE);
            put_varint(buf, delta);
            put_varint(buf, block.index() as u64);
            put_varint(buf, u64::from(offset));
            put_varint(buf, u64::from(value));
        }
        TraceOp::StackRead { offset } => {
            buf.push(TAG_STACK_READ);
            put_varint(buf, delta);
            put_varint(buf, u64::from(offset));
        }
        TraceOp::StackWrite { offset, value } => {
            buf.push(TAG_STACK_WRITE);
            put_varint(buf, delta);
            put_varint(buf, u64::from(offset));
            put_varint(buf, u64::from(value));
        }
    }
}

/// A validated op sequence in its canonical encoding: the exact bytes
/// [`encode_record`] writes, record after record, with cycle deltas
/// taken from the previous record. Only [`OpStream::push`] appends, so
/// the bytes always read back without error.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct OpStream {
    bytes: Vec<u8>,
    /// Records in `bytes`.
    len: u64,
    /// Cycle of the last record (0 when empty).
    last_cycle: u64,
    /// Where [`Trace::encode`] cuts the stream into op chunks: after
    /// the first record that brings the open chunk to
    /// `CHUNK_TARGET_BYTES`.
    cuts: Vec<usize>,
}

impl OpStream {
    fn with_capacity(bytes: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(bytes),
            ..Self::default()
        }
    }

    /// Appends one record. Cycles must be nondecreasing.
    pub(crate) fn push(&mut self, rec: &TraceRecord) {
        encode_record(&mut self.bytes, rec, self.last_cycle);
        self.len += 1;
        self.last_cycle = rec.cycle;
        let chunk_start = self.cuts.last().copied().unwrap_or(0);
        if self.bytes.len() - chunk_start >= CHUNK_TARGET_BYTES {
            self.cuts.push(self.bytes.len());
        }
    }

    /// Records held.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Releases spare capacity, so the stream holds only its bytes.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
    }
}

/// The infallible cursor over an [`OpStream`]: the stream was validated
/// (or written) record by record, so every read lands on a whole record.
struct Records<'a> {
    bytes: &'a [u8],
    pos: usize,
    cycle: u64,
}

impl Records<'_> {
    fn varint(&mut self) -> u64 {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let byte = self.bytes[self.pos];
            self.pos += 1;
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return v;
            }
            shift += 7;
        }
    }

    /// A varint the stream wrote from a `u32`.
    fn word(&mut self) -> u32 {
        self.varint() as u32
    }

    fn block(&mut self) -> BlockId {
        BlockId::new(self.varint() as usize)
    }
}

impl Iterator for Records<'_> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        let &tag = self.bytes.get(self.pos)?;
        self.pos += 1;
        self.cycle += self.varint();
        let op = match tag {
            TAG_CALL => TraceOp::Call {
                block: self.block(),
            },
            TAG_RET => TraceOp::Ret,
            TAG_EXECUTE => TraceOp::Execute { count: self.word() },
            TAG_READ => TraceOp::Read {
                block: self.block(),
                offset: self.word(),
            },
            TAG_WRITE => TraceOp::Write {
                block: self.block(),
                offset: self.word(),
                value: self.word(),
            },
            TAG_STACK_READ => TraceOp::StackRead {
                offset: self.word(),
            },
            TAG_STACK_WRITE => TraceOp::StackWrite {
                offset: self.word(),
                value: self.word(),
            },
            other => unreachable!("the op stream holds only validated tags, not {other}"),
        };
        Some(TraceRecord {
            cycle: self.cycle,
            op,
        })
    }
}

fn decode_block_ref(
    bytes: &[u8],
    pos: &mut usize,
    program: &Program,
) -> Result<BlockId, TraceError> {
    let idx = get_varint(bytes, pos)? as usize;
    if idx >= program.len() {
        return Err(malformed("op references a block out of range"));
    }
    Ok(BlockId::new(idx))
}

fn check_word(program: &Program, block: BlockId, offset: u32) -> Result<(), TraceError> {
    let size = program.block(block).size_bytes();
    if !offset.is_multiple_of(4) || offset >= size {
        return Err(malformed("op offset is unaligned or out of bounds"));
    }
    Ok(())
}

/// Validates one op chunk and appends its records to `out` in
/// canonical form (a padded varint upload re-encodes minimally).
fn decode_ops(chunk: &[u8], program: &Program, out: &mut OpStream) -> Result<(), TraceError> {
    let pos = &mut 0usize;
    while *pos < chunk.len() {
        let tag = chunk[*pos];
        *pos += 1;
        let delta = get_varint(chunk, pos)?;
        let cycle = out
            .last_cycle
            .checked_add(delta)
            .ok_or_else(|| malformed("cycle counter overflows"))?;
        let op = match tag {
            TAG_CALL => {
                let block = decode_block_ref(chunk, pos, program)?;
                if program.block(block).kind() != BlockKind::Code {
                    return Err(malformed("call target is not a code block"));
                }
                TraceOp::Call { block }
            }
            TAG_RET => TraceOp::Ret,
            TAG_EXECUTE => {
                let count = get_u32(chunk, pos, "execute count")?;
                if count == 0 || count > MAX_EXECUTE_COUNT {
                    return Err(malformed(format!(
                        "execute count must be 1..={MAX_EXECUTE_COUNT}"
                    )));
                }
                TraceOp::Execute { count }
            }
            TAG_READ => {
                let block = decode_block_ref(chunk, pos, program)?;
                let offset = get_u32(chunk, pos, "offset")?;
                check_word(program, block, offset)?;
                TraceOp::Read { block, offset }
            }
            TAG_WRITE => {
                let block = decode_block_ref(chunk, pos, program)?;
                let offset = get_u32(chunk, pos, "offset")?;
                check_word(program, block, offset)?;
                let value = get_u32(chunk, pos, "value")?;
                TraceOp::Write {
                    block,
                    offset,
                    value,
                }
            }
            TAG_STACK_READ => {
                let offset = get_u32(chunk, pos, "offset")?;
                TraceOp::StackRead { offset }
            }
            TAG_STACK_WRITE => {
                let offset = get_u32(chunk, pos, "offset")?;
                let value = get_u32(chunk, pos, "value")?;
                TraceOp::StackWrite { offset, value }
            }
            other => return Err(malformed(format!("unknown op tag {other}"))),
        };
        out.push(&TraceRecord { cycle, op });
        if out.len > MAX_OPS {
            return Err(malformed(format!("more than {MAX_OPS} ops")));
        }
    }
    Ok(())
}

impl Trace {
    /// Serialises the trace to its on-disk/on-wire byte form. Encoding
    /// is deterministic: equal traces produce equal bytes (and thus
    /// equal [`TraceId`]s).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let header_chunk = encode_header(self);
        let ops = &self.ops.bytes;
        let frames = 2 + self.ops.cuts.len();
        let mut out = Framer::new(&header(), header_chunk.len() + ops.len() + 8 * frames);
        out.push(&header_chunk);
        // The resident stream already is the canonical record run, so
        // each op chunk is a slice of it, cut where `push` marked.
        let mut start = 0;
        for end in self.ops.cuts.iter().copied().chain([ops.len()]) {
            if end > start {
                out.push(&ops[start..end]);
                start = end;
            }
        }
        out.finish()
    }

    /// Decodes a trace, streaming chunk by chunk and tolerating a torn
    /// tail: complete chunks replay, the partial tail is dropped and
    /// reported as [`Tail::Torn`] ([`Trace::records`] is then a clean
    /// prefix of the declared `op_count`).
    ///
    /// The ops are validated and kept in their canonical encoding, in a
    /// buffer sized from the op chunks' payload length (never from the
    /// declared `op_count`, which is outside input).
    ///
    /// # Errors
    ///
    /// [`TraceError::BadHeader`] for foreign bytes,
    /// [`TraceError::Truncated`] when the header chunk never completed,
    /// [`TraceError::Corrupt`] on a complete chunk failing its CRC, and
    /// [`TraceError::Malformed`] for contents violating the format or
    /// its caps. Never panics, whatever the input.
    pub fn decode(bytes: &[u8]) -> Result<(Self, Tail), TraceError> {
        let (chunks, tail) = deframe(&header(), bytes)?;
        let Some((header_chunk, op_chunks)) = chunks.split_first() else {
            return Err(TraceError::Truncated);
        };
        let header = decode_header(header_chunk)?;
        // Canonical varints are minimal, so the stream never outgrows
        // the payload it was decoded from.
        let mut ops = OpStream::with_capacity(op_chunks.iter().map(|c| c.len()).sum());
        for chunk in op_chunks {
            decode_ops(chunk, &header.program, &mut ops)?;
        }
        let decoded = ops.len;
        if decoded > header.op_count {
            return Err(malformed(format!(
                "header declares {} ops, stream carries {decoded}",
                header.op_count
            )));
        }
        // A byte-level cut exactly on a chunk boundary looks clean to
        // the framing layer; the declared op count catches it. Missing
        // ops are a torn tail, not damage — same crash signature.
        let tail = if decoded < header.op_count {
            Tail::Torn
        } else {
            tail
        };
        Ok((
            Self {
                name: header.name,
                program: header.program,
                init: header.init,
                expected_checksum: header.expected_checksum,
                op_count: header.op_count,
                ops,
            },
            tail,
        ))
    }

    /// The ops, in issue order (a clean prefix of the declared
    /// `op_count` when the tail was torn), read from the resident
    /// canonical stream.
    pub fn records(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        Records {
            bytes: &self.ops.bytes,
            pos: 0,
            cycle: 0,
        }
    }

    /// Ops actually held: `op_count` unless the tail was torn.
    #[must_use]
    pub fn decoded_ops(&self) -> u64 {
        self.ops.len
    }

    /// Heap bytes the resident op stream occupies (its capacity): the
    /// op chunks' payload length for a decode, the canonical length for
    /// a recording.
    #[must_use]
    pub fn op_stream_bytes(&self) -> usize {
        self.ops.bytes.capacity()
    }

    /// Cycle of the last op held, if any.
    pub(crate) fn last_cycle(&self) -> Option<u64> {
        (self.ops.len > 0).then_some(self.ops.last_cycle)
    }

    /// Whether every declared op survived (always true for
    /// [`Tail::Clean`] decodes).
    #[must_use]
    pub fn complete(&self) -> bool {
        self.ops.len == self.op_count
    }
}

// ---------------------------------------------------------------------
// Content-addressed trace ids.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A content-addressed trace id: two independent FNV-1a-64 streams over
/// the encoded trace bytes, rendered as 32 hex chars. The same idiom as
/// the serve result cache's key — and the reason resubmitting the same
/// trace is idempotent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId {
    hi: u64,
    lo: u64,
}

impl TraceId {
    /// Hashes encoded trace bytes into their id.
    #[must_use]
    pub fn of(bytes: &[u8]) -> Self {
        let mut hi = FNV_OFFSET;
        let mut lo = FNV_OFFSET.wrapping_mul(FNV_PRIME) ^ 0x5bd1_e995;
        for &b in bytes {
            hi = (hi ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            lo = (lo ^ u64::from(b.rotate_left(3))).wrapping_mul(FNV_PRIME);
        }
        Self { hi, lo }
    }

    /// The 32-char lowercase hex form (the wire id).
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parses the 32-char hex form back into an id.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Self { hi, lo })
    }

    /// One 64-bit fold of the id — a deterministic seed for fitted
    /// workloads.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.hi ^ self.lo.rotate_left(32)
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}
