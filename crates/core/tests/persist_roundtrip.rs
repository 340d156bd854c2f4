//! Persistence integration tests: every trained model round-trips through
//! the text format exactly, and malformed inputs fail cleanly (no panics).

use dnnperf_core::{E2eModel, IgkwModel, KwModel, LwModel, PersistError, Predictor};
use dnnperf_data::collect::collect;
use dnnperf_data::Dataset;
use dnnperf_gpu::GpuSpec;
use dnnperf_testkit::prelude::*;

fn dataset() -> Dataset {
    let nets = [
        dnnperf_dnn::zoo::resnet::resnet18(),
        dnnperf_dnn::zoo::resnet::resnet50(),
        dnnperf_dnn::zoo::vgg::vgg11(),
        dnnperf_dnn::zoo::densenet::densenet121(),
        dnnperf_dnn::zoo::mobilenet::mobilenet_v2(1.0, 1.0),
    ];
    let gpus = [
        GpuSpec::by_name("A100").unwrap(),
        GpuSpec::by_name("V100").unwrap(),
    ];
    collect(&nets, &gpus, &[32])
}

#[test]
fn e2e_round_trips_exactly() {
    let ds = dataset();
    let m = E2eModel::train(&ds, "A100").unwrap();
    assert_eq!(E2eModel::from_text(&m.to_text()).unwrap(), m);
}

#[test]
fn lw_round_trips_exactly() {
    let ds = dataset();
    let m = LwModel::train(&ds, "A100").unwrap();
    assert_eq!(LwModel::from_text(&m.to_text()).unwrap(), m);
}

#[test]
fn kw_round_trips_exactly_and_predicts_identically() {
    let ds = dataset();
    let m = KwModel::train(&ds, "A100").unwrap();
    let text = m.to_text();
    let back = KwModel::from_text(&text).unwrap();
    assert_eq!(back, m);
    let net = dnnperf_dnn::zoo::resnet::resnet34();
    assert_eq!(
        m.predict_network(&net, 64).unwrap(),
        back.predict_network(&net, 64).unwrap()
    );
    // Serialization is deterministic.
    assert_eq!(text, back.to_text());
}

#[test]
fn igkw_round_trips_exactly_and_predicts_identically() {
    let ds = dataset();
    let gpus = [
        GpuSpec::by_name("A100").unwrap(),
        GpuSpec::by_name("V100").unwrap(),
    ];
    let m = IgkwModel::train(&ds, &gpus).unwrap();
    let back = IgkwModel::from_text(&m.to_text()).unwrap();
    assert_eq!(back, m);
    let titan = GpuSpec::by_name("TITAN RTX").unwrap();
    let net = dnnperf_dnn::zoo::resnet::resnet34();
    assert_eq!(
        m.predict_network_on(&net, 64, &titan).unwrap(),
        back.predict_network_on(&net, 64, &titan).unwrap()
    );
}

#[test]
fn gpu_names_with_spaces_survive() {
    let nets = [dnnperf_dnn::zoo::resnet::resnet18()];
    let gpus = [GpuSpec::by_name("GTX 1080 Ti").unwrap()];
    let ds = collect(&nets, &gpus, &[16, 32]);
    let m = E2eModel::train(&ds, "GTX 1080 Ti").unwrap();
    let back = E2eModel::from_text(&m.to_text()).unwrap();
    assert_eq!(back.gpu(), "GTX 1080 Ti");
}

#[test]
fn wrong_kind_is_rejected() {
    let ds = dataset();
    let e2e = E2eModel::train(&ds, "A100").unwrap();
    let err = KwModel::from_text(&e2e.to_text()).unwrap_err();
    assert!(
        matches!(err, PersistError::WrongKind { expected: "kw", .. }),
        "{err}"
    );
}

#[test]
fn malformed_inputs_error_instead_of_panicking() {
    for text in [
        "",
        "garbage",
        "dnnperf-model v1 kw\n",
        "dnnperf-model v1 kw\ngpu A100\nmap not_a_number\n",
        "dnnperf-model v999 e2e\n",
        "dnnperf-model v1 e2e\ngpu A100\nfit 1.0 2.0\n", // too few fit fields
        "dnnperf-model v1 lw\ngpu A100\nfallback 1 2 3 4\ntypes 5\n", // truncated
        "dnnperf-model v1 igkw\nmetric warp_speed\n",
    ] {
        assert!(E2eModel::from_text(text).is_err() || text.contains(" e2e"));
        assert!(KwModel::from_text(text).is_err());
        assert!(LwModel::from_text(text).is_err() || text.contains(" lw"));
        assert!(IgkwModel::from_text(text).is_err());
    }
    // And the genuinely truncated variants error for their own kind too.
    assert!(E2eModel::from_text("dnnperf-model v1 e2e\ngpu A100\nfit 1.0 2.0\n").is_err());
    assert!(
        LwModel::from_text("dnnperf-model v1 lw\ngpu A100\nfallback 1 2 3 4\ntypes 5\n").is_err()
    );
}

/// Replaces the one line starting with `keyword ` in a model file.
fn with_line(text: &str, keyword: &str, line: &str) -> String {
    let prefix = format!("{keyword} ");
    assert_eq!(text.lines().filter(|l| l.starts_with(&prefix)).count(), 1);
    text.lines()
        .map(|l| if l.starts_with(&prefix) { line } else { l })
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn hostile_counts_are_typed_errors_not_allocations() {
    // Counts read from a model file must size nothing: honoring either
    // of these would mean one allocation of tens of terabytes.
    let ds = dataset();
    let kw = KwModel::train(&ds, "A100").unwrap().to_text();
    let hostile = with_line(&kw, "clustering", "clustering 1099511627776 0");
    let err = KwModel::from_text(&hostile).unwrap_err();
    assert!(
        matches!(
            err,
            PersistError::Parse { .. } | PersistError::UnexpectedEof
        ),
        "{err}"
    );

    let gpus = [
        GpuSpec::by_name("A100").unwrap(),
        GpuSpec::by_name("V100").unwrap(),
    ];
    let igkw = IgkwModel::train(&ds, &gpus).unwrap().to_text();
    let hostile = with_line(&igkw, "traingpus", "traingpus 1099511627776");
    let err = IgkwModel::from_text(&hostile).unwrap_err();
    assert!(
        matches!(
            err,
            PersistError::Parse { .. } | PersistError::UnexpectedEof
        ),
        "{err}"
    );
}

#[test]
fn model_files_are_human_readable() {
    let ds = dataset();
    let m = KwModel::train(&ds, "A100").unwrap();
    let text = m.to_text();
    assert!(text.starts_with("dnnperf-model v1 kw\n"));
    assert!(text.contains("gpu A100"));
    assert!(text.contains("map "));
    assert!(text.contains("clustering "));
    // Every line is valid UTF-8 ASCII-ish text with a keyword.
    for line in text.lines() {
        assert!(line.split_whitespace().next().is_some());
    }
}

/// One valid file of each model kind, trained once per test binary.
fn model_files() -> &'static [String; 4] {
    static FILES: std::sync::OnceLock<[String; 4]> = std::sync::OnceLock::new();
    FILES.get_or_init(|| {
        let nets = [
            dnnperf_dnn::zoo::resnet::resnet18(),
            dnnperf_dnn::zoo::vgg::vgg11(),
        ];
        let gpus = [
            GpuSpec::by_name("A100").unwrap(),
            GpuSpec::by_name("V100").unwrap(),
        ];
        let ds = collect(&nets, &gpus, &[8, 32]);
        [
            E2eModel::train(&ds, "A100").unwrap().to_text(),
            LwModel::train(&ds, "A100").unwrap().to_text(),
            KwModel::train(&ds, "A100").unwrap().to_text(),
            IgkwModel::train(&ds, &gpus).unwrap().to_text(),
        ]
    })
}

/// Reads `text` with every model reader. Each must return, never panic,
/// and a model it accepts must write a file it reads back unchanged.
fn read_with_every_reader(text: &str) -> [bool; 4] {
    fn check<M>(
        text: &str,
        read: fn(&str) -> Result<M, PersistError>,
        write: fn(&M) -> String,
    ) -> bool {
        match read(text) {
            Ok(m) => {
                let written = write(&m);
                let again = read(&written).expect("a written model reads back");
                assert_eq!(write(&again), written);
                true
            }
            Err(_) => false,
        }
    }
    [
        check(text, E2eModel::from_text, E2eModel::to_text),
        check(text, LwModel::from_text, LwModel::to_text),
        check(text, KwModel::from_text, KwModel::to_text),
        check(text, IgkwModel::from_text, IgkwModel::to_text),
    ]
}

/// Tokens a mutation writes over a field: hostile counts, non-numbers and
/// numeric edge cases.
const HOSTILE: [&str; 10] = [
    "",
    "-1",
    "NaN",
    "inf",
    "0",
    "1e308",
    "1099511627776",
    "18446744073709551616",
    "x",
    "sig",
];

/// Applies one `(op, at, pick)` edit to a model file's lines.
fn mutate(lines: &mut Vec<String>, (op, at, pick): (usize, usize, usize)) {
    if lines.is_empty() {
        return;
    }
    let i = at % lines.len();
    match op {
        0 => {
            lines.remove(i);
        }
        1 => {
            let l = lines[i].clone();
            lines.insert(i, l);
        }
        2 => {
            let j = pick % lines.len();
            lines.swap(i, j);
        }
        3 => {
            // Overwrite one whitespace-separated field.
            let mut fields: Vec<&str> = lines[i].split(' ').collect();
            let f = pick % fields.len();
            fields[f] = HOSTILE[pick % HOSTILE.len()];
            lines[i] = fields.join(" ");
        }
        _ => {
            // Cut the line at a character boundary.
            let cut = lines[i]
                .char_indices()
                .map(|(b, _)| b)
                .nth(pick % lines[i].len().max(1))
                .unwrap_or(0);
            lines[i].truncate(cut);
        }
    }
}

props! {
    #[test]
    fn readers_reject_arbitrary_bytes(bytes in vec(0u64..256, 0..600), header in any_bool(), kind in 0usize..4) {
        let mut raw: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        if header {
            // Past the header check, into the body readers.
            let kinds = ["e2e", "lw", "kw", "igkw"];
            let mut text = format!("dnnperf-model v1 {}\n", kinds[kind]).into_bytes();
            text.append(&mut raw);
            raw = text;
        }
        let text = String::from_utf8_lossy(&raw);
        prop_assert_eq!(read_with_every_reader(&text), [false; 4]);
    }

    #[test]
    fn readers_survive_mutated_model_files(
        kind in 0usize..4,
        edits in vec((0usize..5, 0usize..1 << 20, 0usize..1 << 20), 1..5),
    ) {
        let mut lines: Vec<String> = model_files()[kind].lines().map(String::from).collect();
        for edit in edits {
            mutate(&mut lines, edit);
        }
        let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
        // Only a file of the model's own kind can be accepted.
        let accepted = read_with_every_reader(&text);
        for (k, ok) in accepted.iter().enumerate() {
            prop_assert!(!ok || k == kind, "kind {} file read as kind {}", kind, k);
        }
    }
}
