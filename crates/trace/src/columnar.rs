//! The columnar on-disk trace format (`DRPLCOL1`).
//!
//! Perf-scale traces hold millions of [`MemOp`]s; storing them row-wise
//! (12 B/op) wastes both disk and — worse — decode bandwidth, because every
//! field of every op is touched even when a consumer only streams blocks.
//! This module stores each field as its own column, compressed with the
//! cheapest transform that fits its distribution:
//!
//! - **addresses** — zig-zag varint deltas (graph traversals are bursty, so
//!   consecutive ops are usually a few cache lines apart);
//! - **access kinds** and **data types** — run-length encoded byte pairs
//!   (traces are long runs of loads over one region);
//! - **producer distances** — plain varints with `0` meaning "no producer"
//!   (most distances are tiny: the paper's short load→load chains);
//! - **pre-compute counts** — plain varints.
//!
//! Ops are grouped into blocks of [`BLOCK_OPS`]; each block restarts the
//! address delta chain and records its own column section lengths, so any
//! block decodes independently of the rest of the file. A fixed header
//! carries a format version and an FNV-1a content digest over the logical
//! op stream, and a block directory maps block index → file offset. The
//! whole layout is position-independent: a reader may operate directly on
//! an `mmap`ed byte slice (see [`crate::mmap`]) and decode only the blocks
//! a replay actually reaches.
//!
//! Every decode path is total: corrupt or truncated input yields a typed
//! [`ColumnarError`], never a panic.
//!
//! # Example
//!
//! ```
//! use droplet_trace::columnar::{decode, encode};
//! use droplet_trace::{AccessKind, DataType, MemOp, OpId, VirtAddr};
//!
//! let ops: Vec<MemOp> = (0..100)
//!     .map(|i| {
//!         MemOp::new(
//!             VirtAddr::new(0x1000 + i * 64),
//!             AccessKind::Load,
//!             DataType::Structure,
//!             (i > 0).then(|| OpId(i - 1)),
//!             OpId(i),
//!             2,
//!         )
//!     })
//!     .collect();
//! let bytes = encode(&ops);
//! assert_eq!(decode(&bytes).unwrap(), ops);
//! ```

use crate::addr::VirtAddr;
use crate::op::{AccessKind, DataType, MemOp};

/// File magic: "DRPLCOL1".
pub const MAGIC: [u8; 8] = *b"DRPLCOL1";

/// Current (only) format version.
pub const FORMAT_VERSION: u32 = 1;

/// Ops per block. Blocks restart the address delta chain, so this bounds
/// both random-access decode cost and the damage radius of a corrupt block.
pub const BLOCK_OPS: usize = 32_768;

/// Fixed header size in bytes (before the block directory).
pub const HEADER_BYTES: usize = 40;

/// A typed decode failure. Every variant identifies what the reader was
/// parsing when the input ran out or contradicted itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnarError {
    /// The first eight bytes are not [`MAGIC`].
    BadMagic,
    /// The header's version field is not [`FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The input ended before the named structure was complete.
    Truncated(&'static str),
    /// A structurally impossible value (with what made it impossible).
    Corrupt(&'static str),
    /// The decoded stream's FNV-1a digest disagrees with the header.
    DigestMismatch {
        /// Digest recorded in the header.
        stored: u64,
        /// Digest of the ops actually decoded.
        computed: u64,
    },
    /// The artifact could not be read at all (missing file, permissions).
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for ColumnarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColumnarError::BadMagic => write!(f, "not a DRPLCOL1 trace (bad magic)"),
            ColumnarError::UnsupportedVersion(v) => {
                write!(f, "unsupported columnar trace version {v}")
            }
            ColumnarError::Truncated(what) => write!(f, "truncated columnar trace: {what}"),
            ColumnarError::Corrupt(what) => write!(f, "corrupt columnar trace: {what}"),
            ColumnarError::DigestMismatch { stored, computed } => write!(
                f,
                "columnar trace digest mismatch: header {stored:#018x}, decoded {computed:#018x}"
            ),
            ColumnarError::Io(kind) => write!(f, "columnar trace unreadable: {kind}"),
        }
    }
}

impl std::error::Error for ColumnarError {}

// --- primitive encoders -------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize, what: &'static str) -> Result<u64, ColumnarError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*pos).ok_or(ColumnarError::Truncated(what))?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return Err(ColumnarError::Corrupt("varint overflows u64"));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(ColumnarError::Corrupt("varint longer than 10 bytes"));
        }
    }
}

/// Order-preserving signed→unsigned fold: small magnitudes stay small.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(bytes: &[u8], pos: usize, what: &'static str) -> Result<u32, ColumnarError> {
    let s = bytes
        .get(pos..pos + 4)
        .ok_or(ColumnarError::Truncated(what))?;
    Ok(u32::from_le_bytes(s.try_into().expect("4-byte slice")))
}

fn get_u64(bytes: &[u8], pos: usize, what: &'static str) -> Result<u64, ColumnarError> {
    let s = bytes
        .get(pos..pos + 8)
        .ok_or(ColumnarError::Truncated(what))?;
    Ok(u64::from_le_bytes(s.try_into().expect("8-byte slice")))
}

// --- content digest -----------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

const fn kind_byte(k: AccessKind) -> u8 {
    match k {
        AccessKind::Load => 0,
        AccessKind::Store => 1,
    }
}

const fn dtype_byte(d: DataType) -> u8 {
    d.index() as u8
}

fn kind_of_byte(b: u8) -> Result<AccessKind, ColumnarError> {
    match b {
        0 => Ok(AccessKind::Load),
        1 => Ok(AccessKind::Store),
        _ => Err(ColumnarError::Corrupt("access kind byte not 0/1")),
    }
}

fn dtype_of_byte(b: u8) -> Result<DataType, ColumnarError> {
    match b {
        0 => Ok(DataType::Structure),
        1 => Ok(DataType::Property),
        2 => Ok(DataType::Intermediate),
        _ => Err(ColumnarError::Corrupt("data type byte not 0/1/2")),
    }
}

/// Folds one op into the FNV-1a content digest.
fn digest_op(h: u64, op: &MemOp) -> u64 {
    let h = fnv1a(h, &op.addr().raw().to_le_bytes());
    let h = fnv1a(h, &[kind_byte(op.kind()), dtype_byte(op.dtype())]);
    let h = fnv1a(h, &op.producer_back_or_zero().to_le_bytes());
    fnv1a(h, &op.pre_compute().to_le_bytes())
}

/// FNV-1a digest of the logical op stream: the value stored in the header
/// and the value a replay-parity test compares across storage formats.
pub fn content_digest(ops: &[MemOp]) -> u64 {
    ops.iter().fold(FNV_OFFSET, digest_op)
}

// --- encode -------------------------------------------------------------

/// Extends the RLE run `(value, length)` with `v`, first appending the run
/// as a `(value byte, varint run length)` pair to `out` when `v` ends it.
fn rle_push(out: &mut Vec<u8>, run: &mut (u8, u64), v: u8) {
    if run.0 != v {
        out.push(run.0);
        put_varint(out, run.1);
        *run = (v, 0);
    }
    run.1 += 1;
}

/// Encodes `ops` into a self-describing columnar byte stream.
///
/// One pass over the ops appends all five columns of each block and folds
/// each op into the content digest, so the digest's serial multiply chain
/// overlaps the column work; the digest is patched into the header last.
pub fn encode(ops: &[MemOp]) -> Vec<u8> {
    let block_count = ops.len().div_ceil(BLOCK_OPS);
    let mut out = Vec::with_capacity(HEADER_BYTES + block_count * 8 + ops.len() * 3);
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u32(&mut out, BLOCK_OPS as u32);
    put_u64(&mut out, ops.len() as u64);
    let digest_at = out.len();
    put_u64(&mut out, 0);
    put_u64(&mut out, block_count as u64);
    debug_assert_eq!(out.len(), HEADER_BYTES);

    // Directory placeholder, patched as blocks land.
    let dir_at = out.len();
    out.resize(dir_at + block_count * 8, 0);

    let mut digest = FNV_OFFSET;
    let mut cols: [Vec<u8>; 5] = Default::default();
    for (b, block) in ops.chunks(BLOCK_OPS).enumerate() {
        let offset = out.len() as u64;
        out[dir_at + b * 8..dir_at + b * 8 + 8].copy_from_slice(&offset.to_le_bytes());

        cols.iter_mut().for_each(Vec::clear);
        let [addrs, kinds, dtypes, producers, pres] = &mut cols;
        let mut kind_run = (kind_byte(block[0].kind()), 0);
        let mut dtype_run = (dtype_byte(block[0].dtype()), 0);
        let mut prev = 0i64;
        for (i, op) in block.iter().enumerate() {
            digest = digest_op(digest, op);
            // Addresses: absolute varint, then zig-zag deltas.
            let a = op.addr().raw() as i64;
            let delta = zigzag(a.wrapping_sub(prev));
            put_varint(addrs, if i == 0 { a as u64 } else { delta });
            prev = a;
            rle_push(kinds, &mut kind_run, kind_byte(op.kind()));
            rle_push(dtypes, &mut dtype_run, dtype_byte(op.dtype()));
            put_varint(producers, u64::from(op.producer_back_or_zero()));
            put_varint(pres, u64::from(op.pre_compute()));
        }
        for (col, (v, n)) in [(kinds, kind_run), (dtypes, dtype_run)] {
            col.push(v);
            put_varint(col, n);
        }

        put_u32(&mut out, block.len() as u32);
        for col in &cols {
            put_u32(&mut out, col.len() as u32);
        }
        for col in &cols {
            out.extend_from_slice(col);
        }
    }
    out[digest_at..digest_at + 8].copy_from_slice(&digest.to_le_bytes());
    out
}

// --- decode -------------------------------------------------------------

/// A validated view over an encoded byte stream (owned or `mmap`ed): the
/// header is parsed and bounds-checked once, then individual blocks decode
/// on demand without touching the rest of the file.
pub struct ColumnarReader<'a> {
    bytes: &'a [u8],
    op_count: u64,
    digest: u64,
    block_offsets: Vec<u64>,
}

impl<'a> ColumnarReader<'a> {
    /// Parses and validates the header + block directory of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Result<Self, ColumnarError> {
        if bytes.len() < 8 || bytes[..8] != MAGIC {
            return Err(if bytes.len() < 8 {
                ColumnarError::Truncated("header magic")
            } else {
                ColumnarError::BadMagic
            });
        }
        let version = get_u32(bytes, 8, "header version")?;
        if version != FORMAT_VERSION {
            return Err(ColumnarError::UnsupportedVersion(version));
        }
        let block_ops = get_u32(bytes, 12, "header block size")?;
        if block_ops as usize != BLOCK_OPS {
            return Err(ColumnarError::Corrupt("unexpected block size"));
        }
        let op_count = get_u64(bytes, 16, "header op count")?;
        let digest = get_u64(bytes, 24, "header digest")?;
        let block_count = get_u64(bytes, 32, "header block count")?;
        if block_count != op_count.div_ceil(BLOCK_OPS as u64) {
            return Err(ColumnarError::Corrupt(
                "block count disagrees with op count",
            ));
        }
        let dir_end = HEADER_BYTES as u64 + block_count * 8;
        if (bytes.len() as u64) < dir_end {
            return Err(ColumnarError::Truncated("block directory"));
        }
        // Every op stores at least one byte each of address, producer and
        // pre-compute, so a count past a third of the file is forged; this
        // bounds what `decode` pre-allocates from the header.
        if op_count > bytes.len() as u64 / 3 {
            return Err(ColumnarError::Corrupt("op count exceeds file length"));
        }
        let mut block_offsets = Vec::with_capacity(block_count as usize);
        for b in 0..block_count as usize {
            let off = get_u64(bytes, HEADER_BYTES + b * 8, "block directory entry")?;
            if off < dir_end || off >= bytes.len() as u64 {
                return Err(ColumnarError::Corrupt("block offset outside file"));
            }
            block_offsets.push(off);
        }
        Ok(ColumnarReader {
            bytes,
            op_count,
            digest,
            block_offsets,
        })
    }

    /// Total ops in the file.
    pub fn op_count(&self) -> u64 {
        self.op_count
    }

    /// The header's content digest (see [`content_digest`]).
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.block_offsets.len()
    }

    /// The block directory: block index → file offset. Cheap to copy out,
    /// so a streaming source can cache it and decode blocks without
    /// re-validating the header each time.
    pub fn block_offsets(&self) -> &[u64] {
        &self.block_offsets
    }

    /// Decodes block `b` into `out` (cleared first). Only this block's
    /// bytes are touched.
    pub fn decode_block(&self, b: usize, out: &mut Vec<MemOp>) -> Result<(), ColumnarError> {
        out.clear();
        let Some(&off) = self.block_offsets.get(b) else {
            return Err(ColumnarError::Corrupt("block index out of range"));
        };
        decode_block_at(self.bytes, off, block_len(self.op_count, b), out)
    }
}

/// Ops in block `b` of an `op_count`-op trace (full blocks except possibly
/// the last).
pub(crate) fn block_len(op_count: u64, b: usize) -> usize {
    (op_count - b as u64 * BLOCK_OPS as u64).min(BLOCK_OPS as u64) as usize
}

/// Reads the next `(value byte, varint run length)` pair of an RLE column
/// whose block has `left` ops still to cover; `what` names the column and
/// its run-length field in errors.
fn next_run<T>(
    col: &[u8],
    pos: &mut usize,
    left: usize,
    what: [&'static str; 2],
    parse: fn(u8) -> Result<T, ColumnarError>,
) -> Result<(T, u64), ColumnarError> {
    let &v = col.get(*pos).ok_or(ColumnarError::Truncated(what[0]))?;
    *pos += 1;
    let run = get_varint(col, pos, what[1])?;
    if run == 0 || run > left as u64 {
        return Err(ColumnarError::Corrupt(what[1]));
    }
    Ok((parse(v)?, run))
}

/// Appends the block at byte offset `off` (from a validated directory) to
/// `out`, expecting `expected_n` ops: one loop walks the five column
/// sections in lockstep and writes each [`MemOp`] directly. Shared by
/// [`ColumnarReader::decode_block`], [`decode`] and the streaming
/// [`crate::source::ColumnarSource`], which caches the directory instead of
/// re-validating the header per block. On error, `out` may hold a prefix
/// of the block.
pub(crate) fn decode_block_at(
    bytes: &[u8],
    off: u64,
    expected_n: usize,
    out: &mut Vec<MemOp>,
) -> Result<(), ColumnarError> {
    let off = off as usize;
    let n = get_u32(bytes, off, "block op count")? as usize;
    if n != expected_n {
        return Err(ColumnarError::Corrupt(
            "block op count disagrees with header",
        ));
    }
    let mut sizes = [0usize; 5];
    for (i, s) in sizes.iter_mut().enumerate() {
        *s = get_u32(bytes, off + 4 + i * 4, "block section sizes")? as usize;
    }
    let mut sections: [&[u8]; 5] = [&[]; 5];
    let mut cursor = off + 4 + 5 * 4;
    for (section, size) in sections.iter_mut().zip(sizes) {
        let end = cursor
            .checked_add(size)
            .ok_or(ColumnarError::Corrupt("section size overflow"))?;
        *section = bytes
            .get(cursor..end)
            .ok_or(ColumnarError::Truncated("block sections"))?;
        cursor = end;
    }
    let [addr_col, kind_col, dtype_col, prod_col, pre_col] = sections;

    let mut pos = [0usize; 5];
    let (mut kind, mut kinds_left) = (AccessKind::Load, 0u64);
    let (mut dtype, mut dtypes_left) = (DataType::Structure, 0u64);
    let mut prev = 0i64;
    out.reserve(n);
    for i in 0..n {
        let v = get_varint(addr_col, &mut pos[0], "address column")?;
        let a = if i == 0 {
            v as i64
        } else {
            prev.wrapping_add(unzigzag(v))
        };
        // A delta below zero wraps to at least 2^63, past the limit too.
        if a as u64 >= MemOp::ADDR_LIMIT {
            return Err(ColumnarError::Corrupt("address outside the 44-bit range"));
        }
        prev = a;
        if kinds_left == 0 {
            let what = ["kind column", "kind run length"];
            (kind, kinds_left) = next_run(kind_col, &mut pos[1], n - i, what, kind_of_byte)?;
        }
        kinds_left -= 1;
        if dtypes_left == 0 {
            let what = ["dtype column", "dtype run length"];
            (dtype, dtypes_left) = next_run(dtype_col, &mut pos[2], n - i, what, dtype_of_byte)?;
        }
        dtypes_left -= 1;
        let producer = get_varint(prod_col, &mut pos[3], "producer column")?;
        if producer >= u64::from(u32::MAX) {
            return Err(ColumnarError::Corrupt("producer distance overflows u32"));
        }
        let pre = get_varint(pre_col, &mut pos[4], "pre-compute column")?;
        if pre > u64::from(u16::MAX) {
            return Err(ColumnarError::Corrupt("pre-compute overflows u16"));
        }
        out.push(MemOp::from_columns(
            VirtAddr::new(a as u64),
            kind,
            dtype,
            producer as u32,
            pre as u16,
        ));
    }
    Ok(())
}

/// Decodes a whole encoded stream back into ops, verifying the content
/// digest. The block-at-a-time path ([`ColumnarReader::decode_block`])
/// skips the digest pass; replay-parity tests cover it instead.
pub fn decode(bytes: &[u8]) -> Result<Vec<MemOp>, ColumnarError> {
    let reader = ColumnarReader::new(bytes)?;
    let mut ops = Vec::with_capacity(reader.op_count() as usize);
    for (b, &off) in reader.block_offsets().iter().enumerate() {
        decode_block_at(bytes, off, block_len(reader.op_count(), b), &mut ops)?;
    }
    let computed = content_digest(&ops);
    if computed != reader.digest() {
        return Err(ColumnarError::DigestMismatch {
            stored: reader.digest(),
            computed,
        });
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpId;

    fn mixed_ops(n: u64) -> Vec<MemOp> {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let addr = 0x1_0000 + (x % (1 << 22));
                let kind = if x & 0x10 == 0 {
                    AccessKind::Load
                } else {
                    AccessKind::Store
                };
                let dtype = DataType::ALL[(x % 3) as usize];
                let producer = (i > 0 && x & 0x60 == 0).then(|| OpId(i - 1 - (x % i.min(20))));
                MemOp::new(
                    VirtAddr::new(addr),
                    kind,
                    dtype,
                    producer,
                    OpId(i),
                    (x % 7) as u16,
                )
            })
            .collect()
    }

    #[test]
    fn roundtrip_is_bit_exact_across_block_boundaries() {
        for n in [0u64, 1, 7, BLOCK_OPS as u64, BLOCK_OPS as u64 + 3, 70_000] {
            let ops = mixed_ops(n);
            let bytes = encode(&ops);
            assert_eq!(decode(&bytes).unwrap(), ops, "n={n}");
        }
    }

    #[test]
    fn compresses_sequential_traces() {
        let ops: Vec<MemOp> = (0..50_000u64)
            .map(|i| {
                MemOp::new(
                    VirtAddr::new(0x1000 + i * 64),
                    AccessKind::Load,
                    DataType::Structure,
                    None,
                    OpId(i),
                    1,
                )
            })
            .collect();
        let bytes = encode(&ops);
        // A fixed 16 B/op row, so the bound does not move with `MemOp`'s
        // in-memory layout.
        let raw = ops.len() * 16;
        assert!(
            bytes.len() * 3 < raw,
            "sequential trace should compress >3x: {} vs {raw}",
            bytes.len()
        );
        assert_eq!(decode(&bytes).unwrap(), ops);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = encode(&mixed_ops(10));
        bytes[0] ^= 0xff;
        assert_eq!(decode(&bytes).unwrap_err(), ColumnarError::BadMagic);
    }

    #[test]
    fn unsupported_version_is_typed() {
        let mut bytes = encode(&mixed_ops(10));
        bytes[8] = 99;
        assert_eq!(
            decode(&bytes).unwrap_err(),
            ColumnarError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn truncations_never_panic() {
        let bytes = encode(&mixed_ops(40_000));
        // Every prefix either decodes to an error or (at full length) the ops.
        for cut in [
            0,
            4,
            9,
            20,
            HEADER_BYTES,
            HEADER_BYTES + 4,
            bytes.len() / 2,
            bytes.len() - 1,
        ] {
            let err = decode(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn digest_mismatch_detected_on_payload_corruption() {
        let ops = mixed_ops(1000);
        let mut bytes = encode(&ops);
        // Flip a low bit deep in the payload (an address delta byte).
        let at = bytes.len() - 9;
        bytes[at] ^= 0x01;
        match decode(&bytes) {
            Err(_) => {}
            Ok(decoded) => assert_ne!(decoded, ops, "corruption silently ignored"),
        }
    }

    #[test]
    fn corrupt_header_fields_are_typed() {
        let ops = mixed_ops(100);
        let mut bytes = encode(&ops);
        bytes[32] = 7; // block count lie
        assert!(matches!(
            decode(&bytes).unwrap_err(),
            ColumnarError::Corrupt(_)
        ));
    }

    /// A 1 MiB artifact whose header claims 2^31 ops (48 GiB decoded) and
    /// whose directory agrees with that claim: only the bound on op count
    /// by file length stops `decode` from pre-allocating for it.
    #[test]
    fn forged_op_count_is_rejected_before_allocating() {
        let mut bytes = encode(&mixed_ops(10));
        bytes.resize(1 << 20, 0);
        let op_count = 1u64 << 31;
        let blocks = op_count.div_ceil(BLOCK_OPS as u64);
        bytes[16..24].copy_from_slice(&op_count.to_le_bytes());
        bytes[32..40].copy_from_slice(&blocks.to_le_bytes());
        let dir_end = HEADER_BYTES as u64 + blocks * 8;
        for entry in bytes[HEADER_BYTES..dir_end as usize].chunks_exact_mut(8) {
            entry.copy_from_slice(&dir_end.to_le_bytes());
        }
        let forged = ColumnarError::Corrupt("op count exceeds file length");
        assert_eq!(ColumnarReader::new(&bytes).err(), Some(forged.clone()));
        assert_eq!(decode(&bytes).unwrap_err(), forged);
    }

    /// A forged delta that carries the address past 2^44 is a typed error,
    /// not a panic in `MemOp`'s packing.
    #[test]
    fn address_past_the_limit_is_corrupt() {
        let top = MemOp::ADDR_LIMIT - 1;
        let op = |i: u64, a: u64| {
            MemOp::new(
                VirtAddr::new(a),
                AccessKind::Load,
                DataType::Property,
                None,
                OpId(i),
                0,
            )
        };
        let mut bytes = encode(&[op(0, top), op(1, top - 1)]);
        // The first block's address section: a 7-byte absolute varint, then
        // the one-byte zig-zag delta -1 (0x01); +1 zig-zags to 0x02.
        let addr_col = HEADER_BYTES + 8 + 4 + 5 * 4;
        assert_eq!(bytes[addr_col + 7], zigzag(-1) as u8);
        bytes[addr_col + 7] = zigzag(1) as u8;
        assert_eq!(
            decode(&bytes).unwrap_err(),
            ColumnarError::Corrupt("address outside the 44-bit range")
        );
    }

    #[test]
    fn content_digest_distinguishes_every_field() {
        let base = mixed_ops(50);
        let d0 = content_digest(&base);
        let mut addr = base.clone();
        addr[10] = MemOp::new(
            VirtAddr::new(addr[10].addr().raw() + 64),
            addr[10].kind(),
            addr[10].dtype(),
            None,
            OpId(10),
            addr[10].pre_compute(),
        );
        assert_ne!(content_digest(&addr), d0);
    }
}
