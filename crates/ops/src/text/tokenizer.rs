//! Tokenizer: splits text into token spans.
//!
//! The SA pipeline's first featurizer: "Tokenizer extracts tokens (e.g.,
//! words) from the input string" (paper Figure 1). The output is a list of
//! byte spans into the input text, not owned strings — downstream n-gram
//! featurizers hash the spans in place, keeping the prediction path
//! allocation-free (paper §3, end-to-end optimization (1)).

use crate::annotations::Annotations;
use crate::params::{ChecksumMemo, ParamBlob};
use pretzel_data::serde_bin::{wire, Cursor, Section};
use pretzel_data::vector::Span;
use pretzel_data::{ColRef, ColumnBatch, DataError, Result, Vector};

/// Multiplier that moves bit 0 of byte `k` of a word onto bit `56 + k`:
/// byte `k` times the term `2^(7(7−k)+7)` lands there, and every other
/// pair of terms lands on a bit of its own below bit 56 or past bit 63,
/// so no carry reaches the top byte.
const GATHER: u64 = 0x0102_0408_1020_4080;

/// Tokenizer parameters: the delimiter byte set.
#[derive(Debug, Clone)]
pub struct TokenizerParams {
    /// Delimiter bytes, sorted and deduplicated (serialized form).
    pub delims: Vec<u8>,
    // Derived 256-entry lookup table; rebuilt on deserialization.
    table: [bool; 256],
    memo: ChecksumMemo,
}

impl PartialEq for TokenizerParams {
    fn eq(&self, other: &Self) -> bool {
        self.delims == other.delims
    }
}

impl Eq for TokenizerParams {}

impl TokenizerParams {
    /// Creates a tokenizer splitting on the given delimiter bytes.
    pub fn new(delims: impl IntoIterator<Item = u8>) -> Self {
        let mut d: Vec<u8> = delims.into_iter().collect();
        d.sort_unstable();
        d.dedup();
        let mut table = [false; 256];
        for &b in &d {
            table[b as usize] = true;
        }
        TokenizerParams {
            delims: d,
            table,
            memo: ChecksumMemo::default(),
        }
    }

    /// The default word tokenizer: whitespace and common punctuation.
    ///
    /// All 250 SA pipelines share one Tokenize configuration (paper
    /// Figure 3), which is what makes this object fully shareable.
    pub fn whitespace_punct() -> Self {
        TokenizerParams::new(*b" \t\r\n.,;:!?()[]\"'")
    }

    /// Operator annotations: memory-bound featurizer, fusible.
    pub fn annotations(&self) -> Annotations {
        Annotations::featurizer()
    }

    /// True if byte `b` is a delimiter.
    #[inline]
    pub fn is_delim(&self, b: u8) -> bool {
        self.table[b as usize]
    }

    /// Tokenizes `text` into spans appended to `out`.
    ///
    /// `out` must be a `Tokens` buffer; it is cleared first.
    pub fn apply(&self, text: &str, out: &mut Vector) -> Result<()> {
        let spans = match out {
            Vector::Tokens(t) => t,
            other => {
                return Err(DataError::mismatch(
                    "tokenizer",
                    "TokenList output",
                    other.column_type(),
                ))
            }
        };
        spans.clear();
        self.tokenize_append(text, spans);
        Ok(())
    }

    /// The delimiter bitmask of up to 64 bytes: bit `i` is set iff
    /// `chunk[i]` is a delimiter. Bits past a short chunk's end are set,
    /// so the end of the text closes an open token like a delimiter.
    ///
    /// Eight bytes at a time: their table entries, 0 or 1, make the bytes
    /// of one word, and one multiply by [`GATHER`] collects the eight
    /// flags into its top byte — no per-byte variable shift.
    #[inline]
    pub(crate) fn delim_mask(&self, chunk: &[u8]) -> u64 {
        let mut mask = if chunk.len() < 64 {
            u64::MAX << chunk.len()
        } else {
            0
        };
        let mut words = chunk.chunks_exact(8);
        for (j, word) in (&mut words).enumerate() {
            let flags =
                u64::from_le_bytes(std::array::from_fn(|k| u8::from(self.is_delim(word[k]))));
            mask |= (flags.wrapping_mul(GATHER) >> 56) << (8 * j);
        }
        let tail = chunk.len() & !7;
        for (i, &b) in words.remainder().iter().enumerate() {
            mask |= u64::from(self.is_delim(b)) << (tail + i);
        }
        mask
    }

    /// The core span scan, appending to `spans` — shared by the per-record
    /// and the columnar batch kernel so both emit identical spans.
    ///
    /// Bytes are classified 64 at a time into a delimiter bitmask, whose
    /// edges [`SpanWalk`] turns into spans.
    fn tokenize_append(&self, text: &str, spans: &mut Vec<Span>) {
        let bytes = text.as_bytes();
        let mut walk = SpanWalk::new();
        let mut push = |s, e| spans.push(Span::new(s, e));
        for (word, chunk) in bytes.chunks(64).enumerate() {
            walk.chunk(word * 64, self.delim_mask(chunk), &mut push);
        }
        walk.finish(bytes.len(), push);
    }

    /// Batch kernel: tokenizes every text row into one packed token batch.
    /// Spans stay relative to each row's own text, so downstream batch
    /// featurizers slice rows zero-copy exactly like the per-record path.
    pub fn eval_batch(&self, input: &ColumnBatch, out: &mut ColumnBatch) -> Result<()> {
        if !matches!(
            input,
            ColumnBatch::Text { .. } | ColumnBatch::TextSpans { .. }
        ) {
            return Err(DataError::mismatch(
                "tokenizer",
                "Text",
                input.column_type(),
            ));
        }
        out.reset();
        for r in 0..input.rows() {
            let ColRef::Text(text) = input.row(r) else {
                unreachable!("text batch rows are text");
            };
            out.push_tokens_with(|spans| self.tokenize_append(text, spans))?;
        }
        Ok(())
    }
}

/// Turns the delimiter bitmasks of a text's consecutive 64-byte chunks
/// into token spans. A mask's transitions (`m ^ (m << 1)`) are
/// alternately a token's first byte and the delimiter that ends it, so
/// the walk branches once per token edge, not once per byte.
pub(crate) struct SpanWalk {
    /// First byte of the open token.
    start: Option<u32>,
    /// Delimiter state of the byte before the next chunk; the text starts
    /// as if behind a delimiter.
    prev: u64,
}

impl SpanWalk {
    pub(crate) fn new() -> Self {
        SpanWalk {
            start: None,
            prev: 1,
        }
    }

    /// Emits `token(start, end)` for every token the chunk at byte `base`
    /// with delimiter mask `mask` closes.
    #[inline(always)]
    pub(crate) fn chunk(&mut self, base: usize, mask: u64, mut token: impl FnMut(u32, u32)) {
        let mut edges = mask ^ ((mask << 1) | self.prev);
        self.prev = mask >> 63;
        while edges != 0 {
            let at = base as u32 + edges.trailing_zeros();
            edges &= edges - 1;
            match self.start.take() {
                Some(s) => token(s, at),
                None => self.start = Some(at),
            }
        }
    }

    /// Closes the token still open at the end of a `len`-byte text — only
    /// a text that ends on a 64-byte boundary inside a token has one.
    #[inline(always)]
    pub(crate) fn finish(self, len: usize, mut token: impl FnMut(u32, u32)) {
        if let Some(s) = self.start {
            token(s, len as u32);
        }
    }
}

impl ParamBlob for TokenizerParams {
    const KIND: &'static str = "Tokenizer";

    fn to_entries(&self) -> Vec<(String, Vec<u8>)> {
        let mut cfg = Vec::new();
        wire::put_u32(&mut cfg, self.delims.len() as u32);
        cfg.extend_from_slice(&self.delims);
        vec![("delims".into(), cfg)]
    }

    fn from_entries(section: &Section) -> Result<Self> {
        let blob = section.entry("delims")?;
        let mut cur = Cursor::new(blob);
        let n = cur.u32()? as usize;
        if blob.len() < 4 + n {
            return Err(DataError::Codec("truncated tokenizer delims".into()));
        }
        Ok(TokenizerParams::new(blob[4..4 + n].iter().copied()))
    }

    fn heap_bytes(&self) -> usize {
        self.delims.capacity() + std::mem::size_of::<[bool; 256]>()
    }

    fn checksum_memo(&self) -> &ChecksumMemo {
        &self.memo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_data::ColumnType;

    fn tokens_of(p: &TokenizerParams, text: &str) -> Vec<String> {
        let mut out = Vector::with_type(ColumnType::TokenList);
        p.apply(text, &mut out).unwrap();
        out.as_tokens()
            .unwrap()
            .iter()
            .map(|s| s.slice(text).to_string())
            .collect()
    }

    #[test]
    fn splits_on_whitespace_and_punct() {
        let p = TokenizerParams::whitespace_punct();
        assert_eq!(
            tokens_of(&p, "This is a nice product."),
            vec!["This", "is", "a", "nice", "product"]
        );
    }

    #[test]
    fn handles_leading_trailing_and_repeated_delims() {
        let p = TokenizerParams::whitespace_punct();
        assert_eq!(tokens_of(&p, "  hello,,  world  "), vec!["hello", "world"]);
        assert_eq!(tokens_of(&p, ""), Vec::<String>::new());
        assert_eq!(tokens_of(&p, " ., "), Vec::<String>::new());
    }

    /// The span scan, one branch per byte.
    fn reference_spans(p: &TokenizerParams, text: &str) -> Vec<Span> {
        let (mut spans, mut start) = (Vec::new(), None);
        for (i, &b) in text.as_bytes().iter().enumerate() {
            if !p.is_delim(b) {
                start.get_or_insert(i as u32);
            } else if let Some(s) = start.take() {
                spans.push(Span::new(s, i as u32));
            }
        }
        spans.extend(start.map(|s| Span::new(s, text.len() as u32)));
        spans
    }

    #[test]
    fn bitmask_scan_emits_the_spans_of_the_byte_scan() {
        // Lengths 0..=200 cross the 64-byte mask words (and any 16/32-byte
        // lane under them); the shapes put delimiters on the first and
        // last byte, in runs, and nowhere at all.
        const LETTERS: &[char] = &['a', 'Z', '7', '-', 'é', 'ÿ', '日', '€'];
        const DELIMS: &[char] = &[' ', ',', '.', '\n', '\''];
        let p = TokenizerParams::whitespace_punct();
        let mut state = 0x70c3u64;
        let mut below = |n: usize| {
            state = pretzel_data::hash::splitmix64(state);
            (state % n as u64) as usize
        };
        for chars in 0..=200usize {
            for shape in 0..6 {
                let delim_in = [4, 4, 4, 2, 12, usize::MAX][shape];
                let mut text: String = (0..chars)
                    .map(|_| {
                        if delim_in != usize::MAX && below(delim_in) == 0 {
                            DELIMS[below(DELIMS.len())]
                        } else {
                            LETTERS[below(LETTERS.len())]
                        }
                    })
                    .collect();
                if shape == 1 {
                    text.insert(0, ' ');
                }
                if shape == 2 {
                    text.push('.');
                }
                let mut out = Vector::with_type(ColumnType::TokenList);
                p.apply(&text, &mut out).unwrap();
                assert_eq!(
                    out.as_tokens().unwrap(),
                    &reference_spans(&p, &text)[..],
                    "chars={chars} shape={shape} text={text:?}"
                );
            }
        }
    }

    #[test]
    fn single_token_without_delims() {
        let p = TokenizerParams::whitespace_punct();
        assert_eq!(tokens_of(&p, "word"), vec!["word"]);
    }

    #[test]
    fn spans_reference_original_text() {
        let p = TokenizerParams::whitespace_punct();
        let text = "ab cd";
        let mut out = Vector::with_type(ColumnType::TokenList);
        p.apply(text, &mut out).unwrap();
        let spans = out.as_tokens().unwrap();
        assert_eq!(spans[0], Span::new(0, 2));
        assert_eq!(spans[1], Span::new(3, 5));
    }

    #[test]
    fn delims_are_sorted_and_deduped() {
        let p = TokenizerParams::new(*b"ba ab");
        assert_eq!(p.delims, vec![b' ', b'a', b'b']);
    }

    #[test]
    fn round_trip_through_section() {
        let p = TokenizerParams::whitespace_punct();
        let section = Section {
            name: "op1.Tokenizer".into(),
            checksum: 0,
            entries: p.to_entries(),
        };
        let q = TokenizerParams::from_entries(&section).unwrap();
        assert_eq!(p, q);
        assert_eq!(p.checksum(), q.checksum());
        assert_eq!(tokens_of(&q, "a b"), vec!["a", "b"]);
    }

    #[test]
    fn wrong_buffer_variant_is_error() {
        let p = TokenizerParams::whitespace_punct();
        let mut out = Vector::with_type(ColumnType::Text);
        assert!(p.apply("x", &mut out).is_err());
    }
}
