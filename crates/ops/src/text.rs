//! Text featurizers: CSV parsing, tokenization, n-grams, feature hashing,
//! and the fused text step that runs a whole text plan in one pass.

pub mod csv;
pub mod fused;
pub mod hashing;
pub mod ngram;
pub mod tokenizer;
