//! The replay-side trace abstraction: where ops come from.
//!
//! The core engine consumes ops in program order but does not care whether
//! they live in a `Vec` (a freshly built trace) or in a columnar artifact
//! on disk. [`TraceSource`] is that seam: `next_block(pos, max)` returns a
//! borrowed run of consecutive ops starting at `pos`, letting replay loops
//! stream a trace block-by-block without ever materializing all of it.
//!
//! Two implementations:
//! - [`SliceSource`] — zero-cost view over in-memory ops;
//! - [`ColumnarSource`] — block-at-a-time decoder over an encoded byte
//!   stream (typically an `mmap`ed file, see [`crate::mmap::MappedFile`]),
//!   holding exactly one decoded block at a time.

use crate::columnar::{block_len, decode_block_at, ColumnarError, ColumnarReader, BLOCK_OPS};
use crate::mmap::MappedFile;
use crate::op::MemOp;
use std::path::Path;

/// A positional supplier of trace ops.
pub trait TraceSource {
    /// Total ops in the trace.
    fn op_count(&self) -> u64;

    /// The block cursor: the run of consecutive ops from `pos` to the end
    /// of the source's natural block holding it — the longest run it can
    /// serve without re-decoding — clipped to `max`. For [`SliceSource`]
    /// that is the whole remaining trace, for [`ColumnarSource`] the rest
    /// of the decoded [`BLOCK_OPS`]-op block. Returns an empty slice
    /// exactly when `pos >= op_count()`, otherwise at least one op, so
    /// callers loop until empty.
    fn next_block(&mut self, pos: u64, max: usize) -> &[MemOp];
}

/// In-memory ops as a [`TraceSource`]; `next_block` is a bounds-checked
/// subslice, nothing is copied.
pub struct SliceSource<'a> {
    ops: &'a [MemOp],
}

impl<'a> SliceSource<'a> {
    /// Wraps `ops`.
    pub fn new(ops: &'a [MemOp]) -> Self {
        SliceSource { ops }
    }
}

impl TraceSource for SliceSource<'_> {
    fn op_count(&self) -> u64 {
        self.ops.len() as u64
    }

    fn next_block(&mut self, pos: u64, max: usize) -> &[MemOp] {
        let start = (pos as usize).min(self.ops.len());
        let end = start.saturating_add(max).min(self.ops.len());
        &self.ops[start..end]
    }
}

/// Streams a columnar artifact, decoding one block at a time. The backing
/// bytes stay wherever they are (owned buffer or mapped file); resident
/// decoded state is a single [`BLOCK_OPS`]-op buffer regardless of trace
/// length.
pub struct ColumnarSource<B: AsRef<[u8]>> {
    bytes: B,
    op_count: u64,
    digest: u64,
    /// Block directory copied out of the validated header, so per-block
    /// decodes skip re-parsing (and re-allocating) the directory.
    block_offsets: Vec<u64>,
    /// Decoded ops of `cur_block` (`usize::MAX` = nothing decoded yet).
    buf: Vec<MemOp>,
    cur_block: usize,
}

impl<B: AsRef<[u8]>> ColumnarSource<B> {
    /// Validates the header of `bytes` and prepares streaming.
    pub fn new(bytes: B) -> Result<Self, ColumnarError> {
        let reader = ColumnarReader::new(bytes.as_ref())?;
        let (op_count, digest) = (reader.op_count(), reader.digest());
        let block_offsets = reader.block_offsets().to_vec();
        Ok(ColumnarSource {
            bytes,
            op_count,
            digest,
            block_offsets,
            buf: Vec::new(),
            cur_block: usize::MAX,
        })
    }

    /// The artifact's stored content digest.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The backing byte store (e.g. to ask a [`MappedFile`] whether the
    /// mapping is live or the owned fallback engaged).
    pub fn backing(&self) -> &B {
        &self.bytes
    }

    /// Decodes the block holding `pos`, propagating typed errors. The
    /// header was validated in `new` and its directory cached, so this
    /// touches only the block's own bytes.
    fn load_block(&mut self, block: usize) -> Result<(), ColumnarError> {
        let Some(&off) = self.block_offsets.get(block) else {
            return Err(ColumnarError::Corrupt("block index out of range"));
        };
        self.buf.clear();
        self.cur_block = usize::MAX;
        let expected = block_len(self.op_count, block);
        decode_block_at(self.bytes.as_ref(), off, expected, &mut self.buf)?;
        self.cur_block = block;
        Ok(())
    }
}

impl<B: AsRef<[u8]>> TraceSource for ColumnarSource<B> {
    fn op_count(&self) -> u64 {
        self.op_count
    }

    /// # Panics
    ///
    /// Panics if the block holding `pos` fails to decode: construction
    /// validates only the header, and no caller can continue a replay from
    /// a bad block. A caller replaying an artifact it did not just write
    /// checks every block first with [`crate::columnar::decode`], as
    /// `droplet-sim trace load` does.
    fn next_block(&mut self, pos: u64, max: usize) -> &[MemOp] {
        if pos >= self.op_count {
            return &[];
        }
        let block = (pos / BLOCK_OPS as u64) as usize;
        if block != self.cur_block {
            self.load_block(block)
                .unwrap_or_else(|e| panic!("columnar trace block {block} unreadable: {e}"));
        }
        let within = (pos % BLOCK_OPS as u64) as usize;
        let end = within.saturating_add(max).min(self.buf.len());
        &self.buf[within..end]
    }
}

/// Opens `path` as a mapped columnar trace source. A file that cannot be
/// read at all fails with [`ColumnarError::Io`].
pub fn open_columnar(path: &Path) -> Result<ColumnarSource<MappedFile>, ColumnarError> {
    let mapped = MappedFile::open(path).map_err(|e| ColumnarError::Io(e.kind()))?;
    ColumnarSource::new(mapped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::VirtAddr;
    use crate::columnar::encode;
    use crate::op::{AccessKind, DataType, OpId};

    fn ops(n: u64) -> Vec<MemOp> {
        (0..n)
            .map(|i| {
                MemOp::new(
                    VirtAddr::new(0x2000 + (i * 37 % 4096) * 64),
                    if i % 5 == 0 {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    },
                    DataType::ALL[(i % 3) as usize],
                    (i % 4 == 1).then(|| OpId(i - 1)),
                    OpId(i),
                    (i % 3) as u16,
                )
            })
            .collect()
    }

    fn drain(src: &mut impl TraceSource, chunk: usize) -> Vec<MemOp> {
        let mut all = Vec::new();
        let mut pos = 0u64;
        loop {
            let run = src.next_block(pos, chunk);
            if run.is_empty() {
                break;
            }
            pos += run.len() as u64;
            all.extend_from_slice(run);
        }
        all
    }

    #[test]
    fn slice_source_is_identity() {
        let o = ops(1000);
        let mut src = SliceSource::new(&o);
        assert_eq!(src.op_count(), 1000);
        assert_eq!(drain(&mut src, 64), o);
        assert!(src.next_block(1000, 8).is_empty());
    }

    #[test]
    fn columnar_source_streams_across_blocks() {
        let o = ops(BLOCK_OPS as u64 * 2 + 17);
        let bytes = encode(&o);
        let mut src = ColumnarSource::new(bytes.as_slice()).unwrap();
        assert_eq!(src.op_count(), o.len() as u64);
        // Odd chunk size exercises intra-block and cross-block reads.
        assert_eq!(drain(&mut src, 1000), o);
    }

    #[test]
    fn columnar_source_random_access() {
        let o = ops(BLOCK_OPS as u64 + 100);
        let bytes = encode(&o);
        let mut src = ColumnarSource::new(bytes.as_slice()).unwrap();
        // Jump straight into the second block.
        let run = src.next_block(BLOCK_OPS as u64 + 5, 10);
        assert_eq!(run, &o[BLOCK_OPS + 5..BLOCK_OPS + 15]);
        // And back into the first.
        let run = src.next_block(3, 4);
        assert_eq!(run, &o[3..7]);
    }

    #[test]
    fn missing_artifact_is_an_io_error() {
        let path = std::env::temp_dir().join(format!(
            "droplet-missing-{}/no-such-trace.dcol",
            std::process::id()
        ));
        assert_eq!(
            open_columnar(&path).err(),
            Some(ColumnarError::Io(std::io::ErrorKind::NotFound))
        );
    }

    #[test]
    fn corrupt_artifact_is_rejected_at_open() {
        let mut bytes = encode(&ops(10));
        bytes[9] = 0xee; // version field
        assert!(ColumnarSource::new(bytes.as_slice()).is_err());
    }
}
