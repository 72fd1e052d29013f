//! Allocation budget of a redeploy next to resident parameters,
//! process-wide.
//!
//! Every parameter object is checksummed at most once, and one decoded
//! from an image is keyed by its verified section checksum, so deploying a
//! further version of a model whose dictionaries are resident costs the
//! image's verified read plus decoding the new weights — and undeploying
//! it serializes nothing. Before checksums were memoised a redeploy
//! re-serialized the resident dictionaries some 26 times (≈ 11× the image
//! in allocations) and an undeploy 5 more. Single test on purpose, like
//! `tests/deploy_budget.rs`: the counting allocator is process-wide.

use pretzel_core::lifecycle::DeployOptions;
use pretzel_core::runtime::{Runtime, RuntimeConfig};
use pretzel_data::alloc_meter::{self, CountingAlloc};
use pretzel_workload::churn::{self, ChurnConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const VERSIONS: usize = 4;
const UNDEPLOY_BUDGET: usize = 16 << 10;

#[test]
fn redeploy_next_to_resident_dictionaries_allocates_about_one_image() {
    // `churn_mixed`'s dictionary sizes, one alias slot.
    let w = churn::build(&ChurnConfig {
        n_slots: 1,
        n_versions: VERSIONS,
        char_entries: 20_000,
        word_entries: 5_000,
        vocab_size: 8_000,
        ..ChurnConfig::default()
    });
    let rt = Runtime::new(RuntimeConfig {
        n_executors: 2,
        ..RuntimeConfig::default()
    });
    // Version 0 decodes the dictionaries and provisions the shape's pools.
    let mut live = rt.deploy(w.image(0, 0), DeployOptions::default()).unwrap();
    let resident = rt.object_store().len();
    for version in 1..VERSIONS {
        let image = w.image(0, version);
        let before = alloc_meter::allocated_bytes();
        let id = rt.deploy(image, DeployOptions::default()).unwrap();
        let deployed = alloc_meter::allocated_bytes() - before;

        let before = alloc_meter::allocated_bytes();
        rt.undeploy(live).unwrap();
        let undeployed = alloc_meter::allocated_bytes() - before;
        live = id;

        assert_eq!(
            rt.object_store().len(),
            resident,
            "version {version}: the dictionaries stayed shared"
        );
        assert!(
            deployed <= 2 * image.len(),
            "deploying version {version} allocated {deployed} B for a {} B image",
            image.len()
        );
        assert!(
            undeployed <= UNDEPLOY_BUDGET,
            "undeploying version {} allocated {undeployed} B",
            version - 1
        );
    }
    assert_eq!(rt.pool_outstanding(), 0);
}
