//! Shared machinery for operator parameters.
//!
//! Parameters are the shareable half of an operator: immutable, checksummed
//! and serializable into one model-file section (paper §2: "each directory
//! stores operator parameters"). The checksum of the serialized form is the
//! Object Store's dedup key (paper §4.1.3). It is computed at most once per
//! parameter object — or never, when the object was decoded from a
//! model-file section whose verified checksum seeds it — and read from a
//! [`ChecksumMemo`] afterwards, so interning, retaining, releasing and
//! signing a resident object never re-serializes it.

use pretzel_data::serde_bin::{section_checksum, Section};
use pretzel_data::Result;
use std::sync::OnceLock;

/// A parameter object's dedup checksum, filled at most once.
///
/// Every [`ParamBlob`] type embeds one. It is invisible to the object's
/// identity: it compares equal to every other memo, and a clone starts
/// empty, so a clone edited through its `pub` fields before its first
/// [`ParamBlob::checksum`] can never report the original's value.
#[derive(Default)]
pub struct ChecksumMemo(OnceLock<u64>);

impl ChecksumMemo {
    /// Records `checksum` as the value the object's serialized form hashes
    /// to, unless one was already recorded. The caller vouches for it:
    /// [`crate::Op::from_section`] passes the section checksum
    /// `read_model_file` has just verified.
    pub(crate) fn seed(&self, checksum: u64) {
        let _ = self.0.set(checksum);
    }
}

impl Clone for ChecksumMemo {
    fn clone(&self) -> Self {
        ChecksumMemo::default()
    }
}

impl PartialEq for ChecksumMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for ChecksumMemo {}

impl std::fmt::Debug for ChecksumMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ChecksumMemo")
    }
}

/// A parameter object that can round-trip through a model-file section.
pub trait ParamBlob: Sized {
    /// Operator-kind tag stored in the section name (e.g. `"WordNgram"`).
    const KIND: &'static str;

    /// Serializes the logical fields (derived lookup structures excluded).
    fn to_entries(&self) -> Vec<(String, Vec<u8>)>;

    /// Reconstructs the parameters (rebuilding derived lookup structures).
    fn from_entries(section: &Section) -> Result<Self>;

    /// Heap bytes held by this parameter object, including derived
    /// structures; used by the memory experiments.
    fn heap_bytes(&self) -> usize;

    /// The object's checksum memo.
    fn checksum_memo(&self) -> &ChecksumMemo;

    /// Dedup checksum over the serialized form: serialized and hashed on
    /// the first call (unless seeded), a memo read on every later one.
    ///
    /// Debug builds re-serialize on every call and assert the memo still
    /// matches, so a parameter object mutated after its checksum was taken
    /// — or seeded with a checksum its serialized form does not have —
    /// fails loudly. That check's allocations are not metered (see
    /// [`pretzel_data::alloc_meter::unmetered`]), so allocation budgets
    /// read the same in debug and release builds.
    fn checksum(&self) -> u64 {
        let sum = *self
            .checksum_memo()
            .0
            .get_or_init(|| section_checksum(&self.to_entries()));
        #[cfg(debug_assertions)]
        pretzel_data::alloc_meter::unmetered(|| {
            debug_assert_eq!(
                sum,
                section_checksum(&self.to_entries()),
                "{} checksum memo is stale",
                Self::KIND
            )
        });
        sum
    }
}
