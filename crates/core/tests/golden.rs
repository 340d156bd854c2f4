//! Golden-file test for the IGKW model's serialized bytes.
//!
//! IGKW transfers each kernel's per-GPU KW fit across GPUs, so any drift in
//! per-GPU classification (grouping order, chunked reductions, admission
//! rules) shows up here as a byte difference in `IgkwModel::to_text()`.
//! A pinned training set is collected, IGKW is trained on it, and the text
//! is compared byte-for-byte against the checked-in golden file.
//!
//! To regenerate the golden file after an *intentional* model change:
//!
//! ```text
//! DNNPERF_UPDATE_GOLDEN=1 cargo test -p dnnperf-core --test golden
//! ```
//!
//! and commit the updated file under `tests/golden/`.

use dnnperf_core::IgkwModel;
use dnnperf_data::collect::collect;
use dnnperf_dnn::zoo;
use dnnperf_gpu::GpuSpec;
use std::path::{Path, PathBuf};

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("igkw.txt")
}

fn trained_igkw_text() -> String {
    let nets = [
        zoo::resnet::resnet18(),
        zoo::resnet::resnet50(),
        zoo::vgg::vgg11(),
        zoo::mobilenet::mobilenet_v2(1.0, 1.0),
    ];
    let gpus: Vec<GpuSpec> = ["A100", "A40", "GTX 1080 Ti"]
        .into_iter()
        .map(|g| GpuSpec::by_name(g).expect("known GPU"))
        .collect();
    let ds = collect(&nets, &gpus, &[64]);
    IgkwModel::train(&ds, &gpus).expect("train IGKW").to_text()
}

#[test]
fn igkw_text_matches_golden_file_byte_for_byte() {
    let text = trained_igkw_text();
    let path = golden_path();
    if std::env::var_os("DNNPERF_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &text).expect("update golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file igkw.txt ({e}); run with DNNPERF_UPDATE_GOLDEN=1 to create")
    });
    assert!(
        text == expected,
        "IGKW text drifted from tests/golden/igkw.txt ({} vs {} bytes); if the \
         model change is intentional, regenerate with DNNPERF_UPDATE_GOLDEN=1",
        text.len(),
        expected.len()
    );
}
