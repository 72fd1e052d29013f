//! Hand-rolled binary model-file format.
//!
//! ML.Net "models are exported as compressed files containing several
//! directories, one per pipeline operator, where each directory stores
//! operator parameters in either binary or plain text files" (paper §2).
//! We reproduce the same layout: a [`ModelFileWriter`] emits a flat byte
//! image made of named *sections* (one per operator) each holding named
//! *entries* (parameter blobs). Per-section XXH64 checksums are stored in
//! the header — they are exactly the "checksum of the serialized version of
//! the objects" the Object Store uses for parameter dedup (paper §4.1.3).
//!
//! The codec is deliberately hand-rolled rather than `serde`-derived so that
//! the *cold-start cost* of the black-box baseline (decode every parameter
//! blob, per container) is transparent, real work.

use crate::error::{DataError, Result};
use crate::hash::Xxh64;

/// Magic bytes identifying a model file.
pub const MAGIC: &[u8; 8] = b"PRTZL2\0\0";

/// Magic of the retired format whose section checksums were FNV-1a; such
/// an image is rejected by name rather than as "not a model file".
const MAGIC_V1: &[u8; 8] = b"PRTZL1\0\0";

/// Primitive little-endian emitters shared by the codec and the operators.
pub mod wire {
    /// Appends a `u32` in little-endian order.
    pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` in little-endian order.
    pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` bit pattern in little-endian order.
    pub fn put_f32(buf: &mut Vec<u8>, v: f32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(buf: &mut Vec<u8>, s: &str) {
        put_u32(buf, s.len() as u32);
        buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed `f32` slice.
    pub fn put_f32s(buf: &mut Vec<u8>, xs: &[f32]) {
        put_u32(buf, xs.len() as u32);
        for &x in xs {
            put_f32(buf, x);
        }
    }

    /// Appends a length-prefixed `u32` slice.
    pub fn put_u32s(buf: &mut Vec<u8>, xs: &[u32]) {
        put_u32(buf, xs.len() as u32);
        for &x in xs {
            put_u32(buf, x);
        }
    }
}

/// A bounds-checked little-endian reader over a byte image.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Creates a cursor at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(DataError::Codec(format!(
                "truncated input: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a single byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads an `f32`.
    pub fn f32(&mut self) -> Result<f32> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a length-prefixed UTF-8 string, borrowing the input bytes.
    ///
    /// The zero-copy variant of [`Self::str`]: wire-to-columnar ingest
    /// packs the borrowed bytes straight into a [`crate::ColumnBatch`]
    /// without an intermediate `String`.
    pub fn str_ref(&mut self) -> Result<&'a str> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map_err(|e| DataError::Codec(format!("invalid UTF-8 in string: {e}")))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        self.str_ref().map(str::to_owned)
    }

    /// Reads a length-prefixed `f32` vector.
    pub fn f32s(&mut self) -> Result<Vec<f32>> {
        let len = self.u32()? as usize;
        Ok(le_f32s(self.words(len)?).collect())
    }

    /// Reads a length-prefixed `u32` vector.
    pub fn u32s(&mut self) -> Result<Vec<u32>> {
        let len = self.u32()? as usize;
        Ok(le_u32s(self.words(len)?).collect())
    }

    /// The bytes of `n` little-endian 4-byte words, taken with one bounds
    /// check — the bulk form of `n` calls to [`Self::f32`] or [`Self::u32`],
    /// decoded by [`le_f32s`] / [`le_u32s`]. The claim is checked before
    /// anything is taken.
    pub fn words(&mut self, n: usize) -> Result<&'a [u8]> {
        self.check_claim(n, 4)?;
        self.take(n * 4)
    }

    /// Reads a length-prefixed raw byte blob.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u64()? as usize;
        self.take(len)
    }

    // Rejects length prefixes that claim more data than the input holds,
    // before `Vec::with_capacity` can be asked for absurd amounts.
    pub(crate) fn check_claim(&self, len: usize, elem: usize) -> Result<()> {
        if len.saturating_mul(elem) > self.remaining() {
            return Err(DataError::Codec(format!(
                "length prefix {len} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// The `f32`s of little-endian words ([`Cursor::words`]).
pub fn le_f32s(words: &[u8]) -> impl Iterator<Item = f32> + '_ {
    words.as_chunks().0.iter().map(|&w| f32::from_le_bytes(w))
}

/// The `u32`s of little-endian words ([`Cursor::words`]).
pub fn le_u32s(words: &[u8]) -> impl Iterator<Item = u32> + '_ {
    words.as_chunks().0.iter().map(|&w| u32::from_le_bytes(w))
}

/// One operator "directory" inside a model file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Operator-directory name, e.g. `"op3.WordNgram"`.
    pub name: String,
    /// The entries' dedup checksum ([`section_checksum`]); in a section
    /// returned by [`read_model_file`], verified against the payload.
    pub checksum: u64,
    /// Named parameter blobs.
    pub entries: Vec<(String, Vec<u8>)>,
}

impl Section {
    /// Looks up an entry payload by name.
    pub fn entry(&self, name: &str) -> Result<&[u8]> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
            .ok_or_else(|| DataError::Codec(format!("missing entry `{name}` in `{}`", self.name)))
    }

    /// Total payload bytes across entries.
    pub fn payload_bytes(&self) -> usize {
        self.entries.iter().map(|(_, b)| b.len()).sum()
    }
}

/// Computes the dedup checksum of a serialized parameter payload: XXH64
/// over the concatenation of every entry's `u32` name length, name and
/// payload, fed to the hasher in place rather than concatenated into one
/// buffer first. The section name and the payload length prefixes are not
/// covered.
pub fn section_checksum(entries: &[(String, Vec<u8>)]) -> u64 {
    let mut h = Xxh64::new();
    for (name, bytes) in entries {
        hash_entry(&mut h, name.as_bytes(), bytes);
    }
    h.finish()
}

// One entry's share of `section_checksum`, shared with `read_model_file`,
// which hashes the raw name bytes before decoding them.
fn hash_entry(h: &mut Xxh64, name: &[u8], payload: &[u8]) {
    h.write(&(name.len() as u32).to_le_bytes());
    h.write(name);
    h.write(payload);
}

/// Builder that serializes sections into a model-file byte image.
#[derive(Debug, Default)]
pub struct ModelFileWriter {
    sections: Vec<Section>,
}

impl ModelFileWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ModelFileWriter::default()
    }

    /// Adds a section with the given entries; the checksum is computed here.
    pub fn add_section(&mut self, name: impl Into<String>, entries: Vec<(String, Vec<u8>)>) {
        let checksum = section_checksum(&entries);
        self.sections.push(Section {
            name: name.into(),
            checksum,
            entries,
        });
    }

    /// Number of sections added so far.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// True if no sections were added.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Serializes all sections into a single byte image.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        wire::put_u32(&mut out, self.sections.len() as u32);
        for s in &self.sections {
            wire::put_str(&mut out, &s.name);
            wire::put_u64(&mut out, s.checksum);
            wire::put_u32(&mut out, s.entries.len() as u32);
            for (name, bytes) in &s.entries {
                wire::put_str(&mut out, name);
                wire::put_u64(&mut out, bytes.len() as u64);
                out.extend_from_slice(bytes);
            }
        }
        out
    }
}

/// Parses a model-file byte image into sections.
///
/// Verifies the magic and every section checksum; a corrupted file is
/// reported as [`DataError::Codec`] rather than yielding garbage parameters.
/// A section's entries are hashed straight from the image and copied out
/// only once the checksum matches, so any damage to an entry name or
/// payload reads as a checksum mismatch.
pub fn read_model_file(image: &[u8]) -> Result<Vec<Section>> {
    let mut cur = Cursor::new(image);
    let magic = cur.take(MAGIC.len())?;
    if magic == MAGIC_V1 {
        return Err(DataError::Codec(
            "model file format PRTZL1 (FNV-1a section checksums) is no longer read; \
             re-export the model as PRTZL2"
                .into(),
        ));
    }
    if magic != MAGIC {
        return Err(DataError::Codec("bad magic; not a model file".into()));
    }
    let n_sections = cur.u32()? as usize;
    let mut sections = Vec::with_capacity(n_sections.min(1024));
    let mut raw = Vec::new();
    for _ in 0..n_sections {
        let name = cur.str()?;
        let checksum = cur.u64()?;
        let n_entries = cur.u32()? as usize;
        raw.clear();
        let mut h = Xxh64::new();
        for _ in 0..n_entries {
            let name_len = cur.u32()? as usize;
            let ename = cur.take(name_len)?;
            let payload = cur.bytes()?;
            hash_entry(&mut h, ename, payload);
            raw.push((ename, payload));
        }
        let expect = h.finish();
        if expect != checksum {
            return Err(DataError::Codec(format!(
                "checksum mismatch in section `{name}`: stored {checksum:#x}, computed {expect:#x}"
            )));
        }
        let entries = raw
            .iter()
            .map(|&(ename, payload)| {
                let ename = std::str::from_utf8(ename)
                    .map_err(|e| DataError::Codec(format!("invalid UTF-8 in entry name: {e}")))?;
                Ok((ename.to_owned(), payload.to_vec()))
            })
            .collect::<Result<Vec<_>>>()?;
        sections.push(Section {
            name,
            checksum,
            entries,
        });
    }
    Ok(sections)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_image() -> Vec<u8> {
        let mut w = ModelFileWriter::new();
        let mut weights = Vec::new();
        wire::put_f32s(&mut weights, &[0.5, -1.25, 3.0]);
        w.add_section(
            "op0.LinearModel",
            vec![("weights".into(), weights), ("bias".into(), vec![1, 2, 3])],
        );
        w.add_section("op1.Tokenizer", vec![("delims".into(), b" ,.".to_vec())]);
        w.finish()
    }

    #[test]
    fn round_trip() {
        let image = sample_image();
        let sections = read_model_file(&image).unwrap();
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0].name, "op0.LinearModel");
        let mut cur = Cursor::new(sections[0].entry("weights").unwrap());
        assert_eq!(cur.f32s().unwrap(), vec![0.5, -1.25, 3.0]);
        assert_eq!(sections[1].entry("delims").unwrap(), b" ,.");
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut image = sample_image();
        // Flip a payload byte (past the header region).
        let n = image.len();
        image[n - 1] ^= 0xff;
        let err = read_model_file(&image).unwrap_err();
        assert!(matches!(err, DataError::Codec(m) if m.contains("checksum")));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut image = sample_image();
        image[0] = b'X';
        assert!(matches!(
            read_model_file(&image),
            Err(DataError::Codec(m)) if m.contains("magic")
        ));
    }

    #[test]
    fn retired_format_rejected_by_name() {
        let mut image = sample_image();
        image[..MAGIC.len()].copy_from_slice(MAGIC_V1);
        assert!(matches!(
            read_model_file(&image),
            Err(DataError::Codec(m)) if m.contains("PRTZL1")
        ));
    }

    #[test]
    fn truncated_input_rejected() {
        let image = sample_image();
        for cut in [0, 4, 9, image.len() / 2, image.len() - 1] {
            assert!(
                read_model_file(&image[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn identical_params_share_checksum() {
        let entries = vec![("w".to_string(), vec![1u8, 2, 3])];
        let a = section_checksum(&entries);
        let b = section_checksum(&entries.clone());
        assert_eq!(a, b);
        let c = section_checksum(&[("w".to_string(), vec![1u8, 2, 4])]);
        assert_ne!(a, c);
    }

    #[test]
    fn streamed_checksum_matches_concatenated_definition() {
        // The image format's definition: XXH64 over the concatenation of
        // every entry's `put_str(name)` and payload.
        fn concatenated(entries: &[(String, Vec<u8>)]) -> u64 {
            let mut all = Vec::new();
            for (name, bytes) in entries {
                wire::put_str(&mut all, name);
                all.extend_from_slice(bytes);
            }
            crate::hash::xxh64(&all)
        }
        let mut weights = Vec::new();
        wire::put_f32s(&mut weights, &[0.5, -1.25, 3.0, f32::MIN_POSITIVE]);
        let cases: Vec<Vec<(String, Vec<u8>)>> = vec![
            vec![],
            vec![("".into(), vec![])],
            vec![("w".into(), vec![1, 2, 3])],
            vec![
                ("weights".into(), weights),
                ("bias".into(), vec![1, 2, 3, 4]),
                ("kind".into(), vec![]),
                ("keys".into(), (0..=255u8).cycle().take(3000).collect()),
            ],
        ];
        for entries in &cases {
            assert_eq!(section_checksum(entries), concatenated(entries));
        }
        // Entry boundaries are part of the hash: moving a byte from one
        // payload to the next changes it.
        let a = [("a".into(), vec![1u8, 2]), ("b".into(), vec![3u8])];
        let b = [("a".into(), vec![1u8]), ("b".into(), vec![2u8, 3])];
        assert_ne!(section_checksum(&a), section_checksum(&b));
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        // A section count of u32::MAX over a tiny buffer must fail cleanly.
        let mut image = Vec::new();
        image.extend_from_slice(MAGIC);
        wire::put_u32(&mut image, u32::MAX);
        assert!(read_model_file(&image).is_err());

        // An f32s length prefix claiming more than the buffer holds.
        let mut blob = Vec::new();
        wire::put_u32(&mut blob, 1_000_000);
        blob.extend_from_slice(&[0u8; 8]);
        assert!(Cursor::new(&blob).f32s().is_err());
        assert!(Cursor::new(&blob).u32s().is_err());
    }

    #[test]
    fn word_arrays_round_trip() {
        let mut blob = Vec::new();
        wire::put_u32s(&mut blob, &[0, 1, u32::MAX, 0x0102_0304]);
        wire::put_f32s(&mut blob, &[f32::NAN, -0.0, f32::MIN_POSITIVE]);
        wire::put_u32s(&mut blob, &[]);
        let mut cur = Cursor::new(&blob);
        assert_eq!(cur.u32s().unwrap(), vec![0, 1, u32::MAX, 0x0102_0304]);
        let bits: Vec<u32> = cur.f32s().unwrap().iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            bits,
            vec![
                f32::NAN.to_bits(),
                (-0.0f32).to_bits(),
                f32::MIN_POSITIVE.to_bits()
            ]
        );
        assert_eq!(cur.u32s().unwrap(), Vec::<u32>::new());
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn empty_model_file_round_trips() {
        let image = ModelFileWriter::new().finish();
        assert_eq!(read_model_file(&image).unwrap(), vec![]);
    }

    #[test]
    fn section_payload_bytes() {
        let image = sample_image();
        let sections = read_model_file(&image).unwrap();
        assert_eq!(sections[1].payload_bytes(), 3);
        assert!(sections[0].payload_bytes() > 3);
    }
}
