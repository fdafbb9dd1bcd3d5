//! Chunk-per-record snapshot files.
//!
//! A snapshot file (`snap-<gen>.dat`) is a sequence of framed records —
//! the same `[len][crc][payload]` framing as the WAL — each persisting
//! one copy-on-write unit of the engine state:
//!
//! * a **header** record: the graph's label table, the index's `k` and
//!   mode (full / interest-aware with its interest set), and the three
//!   chunk counts;
//! * one record per graph **topology chunk** (its label faces,
//!   serialised row-major; [`cpqx_graph::Graph::from_chunk_parts`]
//!   rebuilds the faces on load);
//! * one record per vertex-**name chunk**;
//! * one record per index **class chunk**, whose payload is exactly
//!   [`cpqx_core::CpqxIndex::save_class_chunk`]'s output (so its
//!   per-class layout — and validation — is the `cpqx-core` serializer,
//!   not a second format).
//!
//! Because the persisted unit *is* the copy-on-write unit, an
//! incremental snapshot writes only records for chunks whose `Arc`
//! changed since the previous generation and points the manifest at the
//! previous generation's records for the rest.

use crate::crc32;
use crate::manifest::ChunkLoc;
use crate::recover::RecoverError;
use cpqx_core::serialize::ClassRecord;
use cpqx_core::CpqxIndex;
use cpqx_graph::{Graph, LabelSeq, VertexId, MAX_SEQ_LEN};
use std::collections::BTreeSet;
use std::fs::File;
use std::io::{self, Read, Seek, Write};
use std::path::{Path, PathBuf};

/// Record kinds (first payload byte).
const KIND_HEADER: u8 = 0;
const KIND_TOPOLOGY: u8 = 1;
const KIND_NAMES: u8 = 2;
const KIND_CLASSES: u8 = 3;

/// Bound on a single snapshot record payload (a corrupt length prefix
/// must not become an allocation request).
const MAX_RECORD: u32 = 256 * 1024 * 1024;

/// `dir/snap-<gen>.dat`.
pub(crate) fn snap_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("snap-{gen}.dat"))
}

/// Appends framed records to a new generation's snapshot file.
pub(crate) struct SnapshotWriter {
    file: File,
    gen: u64,
    offset: u64,
}

impl SnapshotWriter {
    /// Creates `snap-<gen>.dat` (truncating a leftover from an earlier
    /// crashed checkpoint of the same generation, which no manifest can
    /// reference).
    pub(crate) fn create(dir: &Path, gen: u64) -> io::Result<SnapshotWriter> {
        Ok(SnapshotWriter { file: File::create(snap_path(dir, gen))?, gen, offset: 0 })
    }

    /// Appends one framed record, returning where it landed.
    pub(crate) fn write_record(&mut self, payload: &[u8]) -> io::Result<ChunkLoc> {
        let loc = ChunkLoc { gen: self.gen, offset: self.offset };
        self.file.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.file.write_all(&crc32(payload).to_le_bytes())?;
        self.file.write_all(payload)?;
        self.offset += 8 + payload.len() as u64;
        Ok(loc)
    }

    /// Forces the file to stable storage (must happen before the
    /// manifest referencing its records installs).
    pub(crate) fn finish(self) -> io::Result<()> {
        self.file.sync_all()
    }
}

/// Reads and checksum-verifies the record at `loc`.
pub(crate) fn read_record(dir: &Path, loc: ChunkLoc) -> Result<Vec<u8>, RecoverError> {
    let path = snap_path(dir, loc.gen);
    let corrupt = |what: &str| RecoverError::Corrupt {
        file: path.display().to_string(),
        what: format!("{what} (record at offset {})", loc.offset),
    };
    let mut f = File::open(&path)?;
    f.seek(io::SeekFrom::Start(loc.offset))?;
    let mut header = [0u8; 8];
    f.read_exact(&mut header).map_err(|_| corrupt("truncated record framing"))?;
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
    let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len > MAX_RECORD {
        return Err(corrupt("record length out of range"));
    }
    let mut payload = vec![0u8; len as usize];
    f.read_exact(&mut payload).map_err(|_| corrupt("truncated record payload"))?;
    if crc32(&payload) != crc {
        return Err(corrupt("record checksum mismatch"));
    }
    Ok(payload)
}

// ------------------------------------------------------ payload codecs --

struct Cur<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let s = self.buf.get(self.at..self.at + n).ok_or("truncated snapshot record")?;
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn count(&mut self) -> Result<usize, String> {
        // Any count prefixes at least one byte per element; a count
        // larger than the bytes left is self-inconsistent.
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.at {
            return Err("self-inconsistent count in snapshot record".into());
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, String> {
        let n = self.count()?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| "non-UTF-8 string".into())
    }

    fn kind(&mut self, expected: u8) -> Result<(), String> {
        let k = self.u8()?;
        if k != expected {
            return Err(format!("record kind {k}, expected {expected}"));
        }
        Ok(())
    }

    fn done(self) -> Result<(), String> {
        if self.at != self.buf.len() {
            return Err("trailing bytes in snapshot record".into());
        }
        Ok(())
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_seq(out: &mut Vec<u8>, s: &LabelSeq) {
    out.push(s.len() as u8);
    for l in s.iter() {
        out.extend_from_slice(&l.0.to_le_bytes());
    }
}

fn get_seq(c: &mut Cur<'_>) -> Result<LabelSeq, String> {
    let n = c.u8()? as usize;
    if n > MAX_SEQ_LEN {
        return Err("interest sequence too long".into());
    }
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        labels.push(cpqx_graph::ExtLabel(c.u16()?));
    }
    Ok(LabelSeq::from_slice(&labels))
}

/// The decoded header record.
pub(crate) struct Header {
    pub(crate) k: usize,
    pub(crate) interests: Option<BTreeSet<LabelSeq>>,
    pub(crate) label_names: Vec<String>,
    pub(crate) topo_chunks: usize,
    pub(crate) name_chunks: usize,
    pub(crate) class_chunks: usize,
}

/// Encodes the header record for the state `(graph, index)`.
pub(crate) fn encode_header(graph: &Graph, index: &CpqxIndex) -> Vec<u8> {
    let mut out = vec![KIND_HEADER];
    out.extend_from_slice(&(index.k() as u32).to_le_bytes());
    match index.interests() {
        None => out.push(0),
        Some(lq) => {
            out.push(1);
            out.extend_from_slice(&(lq.len() as u32).to_le_bytes());
            for s in lq {
                put_seq(&mut out, s);
            }
        }
    }
    let labels = graph.label_names();
    out.extend_from_slice(&(labels.len() as u32).to_le_bytes());
    for name in labels {
        put_str(&mut out, name);
    }
    out.extend_from_slice(&(graph.topology_chunk_count() as u32).to_le_bytes());
    out.extend_from_slice(&(graph.name_chunk_count() as u32).to_le_bytes());
    out.extend_from_slice(&(index.class_chunk_count() as u32).to_le_bytes());
    out
}

/// Decodes a header record.
pub(crate) fn decode_header(payload: &[u8]) -> Result<Header, String> {
    let mut c = Cur::new(payload);
    c.kind(KIND_HEADER)?;
    let k = c.u32()? as usize;
    let interests = match c.u8()? {
        0 => None,
        1 => {
            let n = c.count()?;
            let mut lq = BTreeSet::new();
            for _ in 0..n {
                lq.insert(get_seq(&mut c)?);
            }
            Some(lq)
        }
        _ => return Err("bad mode byte in snapshot header".into()),
    };
    let nl = c.count()?;
    let label_names = (0..nl).map(|_| c.str()).collect::<Result<Vec<_>, _>>()?;
    let h = Header {
        k,
        interests,
        label_names,
        topo_chunks: c.u32()? as usize,
        name_chunks: c.u32()? as usize,
        class_chunks: c.u32()? as usize,
    };
    c.done()?;
    Ok(h)
}

/// Encodes topology chunk `i` of `graph`: the row-major serialisation
/// of its label faces (per vertex row, its `(ext label, target)` entries
/// in label-then-target order). Pair counts are derived state, rebuilt
/// on load.
pub(crate) fn encode_topology_chunk(graph: &Graph, i: usize) -> Vec<u8> {
    let chunk = graph.topology_chunk(i);
    let mut out = vec![KIND_TOPOLOGY];
    out.extend_from_slice(&(i as u32).to_le_bytes());
    out.extend_from_slice(&chunk.start().to_le_bytes());
    out.extend_from_slice(&chunk.rows().to_le_bytes());
    for r in 0..chunk.rows() as usize {
        out.extend_from_slice(&(chunk.row_degree(r) as u32).to_le_bytes());
        for (ext, tgt) in chunk.row(r) {
            out.extend_from_slice(&ext.0.to_le_bytes());
            out.extend_from_slice(&tgt.to_le_bytes());
        }
    }
    out
}

/// Decodes a topology chunk record into
/// `(chunk index, start vertex, adjacency rows)`.
pub(crate) type TopologyChunk = (usize, VertexId, Vec<Vec<(u16, VertexId)>>);

/// Decodes a topology chunk record (see [`encode_topology_chunk`]).
pub(crate) fn decode_topology_chunk(payload: &[u8]) -> Result<TopologyChunk, String> {
    let mut c = Cur::new(payload);
    c.kind(KIND_TOPOLOGY)?;
    let i = c.u32()? as usize;
    let start = c.u32()?;
    let nrows = c.count()?;
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let n = c.count()?;
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            let ext = c.u16()?;
            let tgt = c.u32()?;
            row.push((ext, tgt));
        }
        rows.push(row);
    }
    c.done()?;
    Ok((i, start, rows))
}

/// Encodes vertex-name chunk `i` of `graph`.
pub(crate) fn encode_name_chunk(graph: &Graph, i: usize) -> Vec<u8> {
    let names = graph.name_chunk(i);
    let mut out = vec![KIND_NAMES];
    out.extend_from_slice(&(i as u32).to_le_bytes());
    out.extend_from_slice(&(names.len() as u32).to_le_bytes());
    for name in names {
        put_str(&mut out, name);
    }
    out
}

/// Decodes a name chunk record into `(chunk index, names)`.
pub(crate) fn decode_name_chunk(payload: &[u8]) -> Result<(usize, Vec<String>), String> {
    let mut c = Cur::new(payload);
    c.kind(KIND_NAMES)?;
    let i = c.u32()? as usize;
    let n = c.count()?;
    let names = (0..n).map(|_| c.str()).collect::<Result<Vec<_>, _>>()?;
    c.done()?;
    Ok((i, names))
}

/// Encodes index class chunk `i`: the record body past the kind byte
/// and chunk index is exactly [`CpqxIndex::save_class_chunk`]'s output.
pub(crate) fn encode_class_chunk(index: &CpqxIndex, i: usize) -> Vec<u8> {
    let mut out = vec![KIND_CLASSES];
    out.extend_from_slice(&(i as u32).to_le_bytes());
    index.save_class_chunk(i, &mut out).expect("writing to a Vec cannot fail");
    out
}

/// Decodes a class chunk record into `(chunk index, class records)`,
/// delegating per-class validation to the `cpqx-core` serializer.
pub(crate) fn decode_class_chunk(
    k: usize,
    payload: &[u8],
) -> Result<(usize, Vec<ClassRecord>), String> {
    let mut c = Cur::new(payload);
    c.kind(KIND_CLASSES)?;
    let i = c.u32()? as usize;
    let body = &payload[c.at..];
    let records = CpqxIndex::load_class_chunk(k, body).map_err(|e| e.to_string())?;
    Ok((i, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpqx_graph::generate::gex;

    #[test]
    fn payload_codecs_roundtrip() {
        let g = gex();
        let idx = CpqxIndex::build(&g, 2);
        let h = decode_header(&encode_header(&g, &idx)).unwrap();
        assert_eq!(h.k, 2);
        assert_eq!(h.interests, None);
        assert_eq!(h.label_names, g.label_names());
        assert_eq!(h.topo_chunks, g.topology_chunk_count());
        assert_eq!(h.name_chunks, g.name_chunk_count());
        assert_eq!(h.class_chunks, idx.class_chunk_count());

        for i in 0..g.topology_chunk_count() {
            let (ci, start, rows) = decode_topology_chunk(&encode_topology_chunk(&g, i)).unwrap();
            assert_eq!((ci, start), (i, g.topology_chunk(i).start()));
            for (off, row) in rows.iter().enumerate() {
                let want: Vec<_> = g.adjacency(start + off as u32).map(|(l, t)| (l.0, t)).collect();
                assert_eq!(*row, want);
            }
        }
        for i in 0..g.name_chunk_count() {
            let (ci, names) = decode_name_chunk(&encode_name_chunk(&g, i)).unwrap();
            assert_eq!(ci, i);
            assert_eq!(names, g.name_chunk(i));
        }
        let mut chunks = Vec::new();
        for i in 0..idx.class_chunk_count() {
            let (ci, records) = decode_class_chunk(2, &encode_class_chunk(&idx, i)).unwrap();
            assert_eq!(ci, i);
            chunks.push(records);
        }
        let rebuilt = CpqxIndex::from_class_records(2, None, chunks).unwrap();
        assert_eq!(rebuilt.class_chunk_count(), idx.class_chunk_count());
    }

    /// TOPOLOGY records of a 2-label graph in two chunks — vertices
    /// 0..3 and 3..5, with a self-loop on 2 and vertex 4 isolated — as
    /// format version 1 writes them.
    const GOLDEN_TOPOLOGY: [&str; 2] = [
        "0100000000000000000300000003000000000001000000020002000000030003000000020000000000\
         0200000001000000000004000000000002000000010001000000010002000000030000000000",
        "010100000003000000020000000100000002000000000000000000",
    ];

    #[test]
    fn topology_record_bytes_are_pinned() {
        let mut b = cpqx_graph::GraphBuilder::new();
        b.ensure_vertices(5);
        let (f, g) = (b.label("f"), b.label("g"));
        for (v, u, l) in [(0, 1, f), (1, 2, f), (0, 2, g), (2, 2, f), (3, 0, g)] {
            b.add_edge(v, u, l);
        }
        let graph = b.build_with_chunk_weight(6);
        assert_eq!(graph.topology_chunk_count(), GOLDEN_TOPOLOGY.len());
        let mut topo = Vec::new();
        for (i, golden) in GOLDEN_TOPOLOGY.iter().enumerate() {
            let bytes: Vec<u8> = (0..golden.len())
                .step_by(2)
                .map(|at| u8::from_str_radix(&golden[at..at + 2], 16).unwrap())
                .collect();
            assert_eq!(encode_topology_chunk(&graph, i), bytes, "chunk {i} encoding");
            let (ci, start, rows) = decode_topology_chunk(&bytes).unwrap();
            assert_eq!(ci, i);
            topo.push((start, rows));
        }
        let names = (0..2).map(|i| graph.name_chunk(i).to_vec()).collect();
        let back = Graph::from_chunk_parts(graph.label_names().to_vec(), topo, names).unwrap();
        for i in 0..GOLDEN_TOPOLOGY.len() {
            assert_eq!(encode_topology_chunk(&back, i), encode_topology_chunk(&graph, i));
        }
        assert_eq!(back.edge_count(), 5);
        assert!(back.has_edge(2, 2, f.inv()) && back.ext_degree(4) == 0);
    }

    #[test]
    fn record_io_verifies_checksums() {
        let dir = std::env::temp_dir().join(format!("cpqx-snaprec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut w = SnapshotWriter::create(&dir, 3).unwrap();
        let a = w.write_record(b"first record").unwrap();
        let b = w.write_record(b"second record, longer").unwrap();
        w.finish().unwrap();
        assert_eq!(read_record(&dir, a).unwrap(), b"first record");
        assert_eq!(read_record(&dir, b).unwrap(), b"second record, longer");

        // Flip a payload byte of the second record: its read fails, the
        // first record is unaffected.
        let path = snap_path(&dir, 3);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = b.offset as usize + 8;
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_record(&dir, b), Err(RecoverError::Corrupt { .. })));
        assert_eq!(read_record(&dir, a).unwrap(), b"first record");

        // A dangling location past the end of the file.
        let past = ChunkLoc { gen: 3, offset: bytes.len() as u64 + 100 };
        assert!(read_record(&dir, past).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
