//! Pinned structural fingerprints. Plan-cache shard placement and the
//! committed serving and chaos bench counters depend on these values, so
//! any change to the hash must show up here first.

use dnnperf_dnn::zoo;

#[test]
fn fingerprints_match_pinned_values() {
    let transformer = zoo::transformer_zoo()
        .into_iter()
        .find(|n| n.name() == "TextCls-L12-H768-A12-S128")
        .expect("BERT-base @ 128 is in the transformer zoo");
    let pins = [
        (zoo::resnet::resnet50(), 0xb89c_e175_c3b4_6037_u64),
        (zoo::densenet::densenet201(), 0x3eda_21ab_5adb_3794),
        (zoo::vgg::vgg11(), 0x23ae_659e_defd_86f1),
        (transformer, 0x0cec_1883_95c6_45f7),
    ];
    for (net, want) in &pins {
        assert_eq!(net.fingerprint(), *want, "{}", net.name());
        // The memoized second call agrees with the first.
        assert_eq!(net.fingerprint(), *want, "{}", net.name());
    }
}
