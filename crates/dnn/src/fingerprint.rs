//! Structural fingerprints of networks: the hash behind
//! [`Network::fingerprint`] and every compiled-plan cache key.
//!
//! The fingerprint is a pure function of a network's name and layer
//! structure, so two networks built the same way always fingerprint
//! equal. [`Network`] memoizes it on first use: a network is immutable
//! once built, so the cached value can never go stale, and a warm
//! lookup costs one atomic load instead of a walk over every layer.

use crate::graph::Network;
use crate::layer::{ActivationFn, Layer, LayerKind, PoolKind};
use crate::shape::TensorShape;

/// FNV-1a 64-bit offset basis: the initial state of every fingerprint.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Byte-wise FNV-1a: folds `bytes` into the running hash `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds one u64 field into the running hash with a single
/// multiply-rotate round (xxHash-style) instead of the byte-wise FNV
/// loop: hashing a few dozen scalar fields per layer must stay in the
/// nanoseconds even on the first, unmemoized call. Sequential,
/// position-dependent mixing keeps field order significant.
fn fnv1a_u64(h: u64, v: u64) -> u64 {
    const M1: u64 = 0x9e37_79b1_85eb_ca87;
    const M2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    (h ^ v.wrapping_mul(M1)).rotate_left(31).wrapping_mul(M2)
}

/// Length-prefixed string hashing: without the prefix, adjacent
/// variable-length fields are ambiguous (`"ab" + "c"` hashes like
/// `"a" + "bc"`), which is exactly the kind of structural near-miss a
/// cache key must distinguish.
fn fnv1a_str(h: u64, s: &str) -> u64 {
    fnv1a(fnv1a_u64(h, s.len() as u64), s.as_bytes())
}

fn fnv1a_shape(h: u64, s: &TensorShape) -> u64 {
    match *s {
        TensorShape::FeatureMap { c, h: fh, w } => {
            let x = fnv1a_u64(h, 1);
            let x = fnv1a_u64(x, c as u64);
            let x = fnv1a_u64(x, fh as u64);
            fnv1a_u64(x, w as u64)
        }
        TensorShape::Features { d } => fnv1a_u64(fnv1a_u64(h, 2), d as u64),
        TensorShape::Tokens { len, d } => {
            let x = fnv1a_u64(h, 3);
            let x = fnv1a_u64(x, len as u64);
            fnv1a_u64(x, d as u64)
        }
    }
}

/// Hashes a layer's *full* structural identity: a kind discriminant, every
/// kind parameter, and the complete input/output shape dimensions.
///
/// This is deliberately finer than the four derived values a compiled plan
/// prices today (`tag`, input elems, FLOPs, output elems): hashing only
/// derived quantities invites collisions between genuinely different
/// layers whose derivations happen to coincide — max vs average pooling,
/// a `1x9` vs a `9x1` convolution, ReLU vs ReLU6 — and a cache key must
/// stay collision-free under *every* quantity compilation may ever read,
/// not just the ones it reads today. Over-distinguishing merely costs a
/// recompile; under-distinguishing serves the wrong plan.
fn fnv1a_layer(h: u64, l: &Layer) -> u64 {
    let h = match l.kind {
        LayerKind::Conv2d(c) => {
            let x = fnv1a_u64(h, 1);
            let x = fnv1a_u64(x, c.in_ch as u64);
            let x = fnv1a_u64(x, c.out_ch as u64);
            let x = fnv1a_u64(x, c.kh as u64);
            let x = fnv1a_u64(x, c.kw as u64);
            let x = fnv1a_u64(x, c.stride as u64);
            let x = fnv1a_u64(x, c.padding as u64);
            fnv1a_u64(x, c.groups as u64)
        }
        LayerKind::Linear(f) => {
            let x = fnv1a_u64(h, 2);
            let x = fnv1a_u64(x, f.in_features as u64);
            fnv1a_u64(x, f.out_features as u64)
        }
        LayerKind::Pool2d(p) => {
            let x = fnv1a_u64(h, 3);
            let x = fnv1a_u64(x, matches!(p.kind, PoolKind::Max) as u64);
            let x = fnv1a_u64(x, p.k as u64);
            let x = fnv1a_u64(x, p.stride as u64);
            fnv1a_u64(x, p.padding as u64)
        }
        LayerKind::GlobalAvgPool => fnv1a_u64(h, 4),
        LayerKind::BatchNorm => fnv1a_u64(h, 5),
        LayerKind::LayerNorm => fnv1a_u64(h, 6),
        LayerKind::Activation(f) => {
            let tag = match f {
                ActivationFn::Relu => 1u64,
                ActivationFn::Relu6 => 2,
                ActivationFn::Gelu => 3,
                ActivationFn::Sigmoid => 4,
            };
            fnv1a_u64(fnv1a_u64(h, 7), tag)
        }
        LayerKind::Add => fnv1a_u64(h, 8),
        LayerKind::Concat { parts } => fnv1a_u64(fnv1a_u64(h, 9), parts as u64),
        LayerKind::Softmax => fnv1a_u64(h, 10),
        LayerKind::Embedding(e) => {
            let x = fnv1a_u64(h, 11);
            let x = fnv1a_u64(x, e.vocab as u64);
            fnv1a_u64(x, e.dim as u64)
        }
        LayerKind::MatMul(m) => {
            let x = fnv1a_u64(h, 12);
            let x = fnv1a_u64(x, m.heads as u64);
            let x = fnv1a_u64(x, m.m as u64);
            let x = fnv1a_u64(x, m.k as u64);
            fnv1a_u64(x, m.n as u64)
        }
        LayerKind::Flatten => fnv1a_u64(h, 13),
        LayerKind::ChannelShuffle { groups } => fnv1a_u64(fnv1a_u64(h, 14), groups as u64),
    };
    fnv1a_shape(fnv1a_shape(h, &l.input), &l.output)
}

/// FNV-1a fingerprint of a network's predictive structure: its name plus
/// every layer's full structural identity (kind discriminant, all kind
/// parameters, and complete input/output shape dimensions), with
/// length-prefixed fields so record boundaries are unambiguous.
///
/// Two networks built the same way always fingerprint equal (structure,
/// not object identity), and the hash covers a strict superset of
/// everything a compiled prediction plan reads — the layer type tag, the
/// driver features (input elems / FLOPs / output elems) and the mapping
/// signature are all derived from the hashed fields — so distinct
/// same-name networks can never alias in a plan cache keyed on it.
///
/// This is the uncached computation; callers go through the memo in
/// [`Network::fingerprint`].
pub(crate) fn network_fingerprint(net: &Network) -> u64 {
    let mut h = fnv1a_str(FNV_OFFSET, net.name());
    h = fnv1a_u64(h, net.layers().len() as u64);
    for l in net.layers() {
        h = fnv1a_layer(h, l);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate as dnnperf_dnn;

    #[test]
    fn fingerprint_tracks_structure_not_identity() {
        let a = dnnperf_dnn::zoo::resnet::resnet18();
        let b = dnnperf_dnn::zoo::resnet::resnet18();
        let c = dnnperf_dnn::zoo::resnet::resnet34();
        assert_eq!(network_fingerprint(&a), network_fingerprint(&b));
        assert_ne!(network_fingerprint(&a), network_fingerprint(&c));

        // Same structure under a different name is a different network.
        let mut renamed = dnnperf_dnn::zoo::resnet::resnet18();
        renamed = dnnperf_dnn::Network::from_parts(
            "NotResNet-18",
            renamed.family(),
            renamed.input_shape(),
            renamed.layers().to_vec(),
        );
        assert_ne!(network_fingerprint(&a), network_fingerprint(&renamed));
    }

    /// Wraps one layer in a single-layer network under a fixed name, so
    /// any fingerprint difference comes from the layer alone.
    fn single(layer: dnnperf_dnn::Layer) -> Network {
        let input = layer.input;
        Network::from_parts("probe", dnnperf_dnn::Family::Vgg, input, vec![layer])
    }

    /// The derived quantities the pre-fix fingerprint hashed per layer.
    fn legacy_fields(net: &Network) -> Vec<(&'static str, u64, u64, u64)> {
        net.layers()
            .iter()
            .map(|l| {
                (
                    l.type_tag(),
                    l.input.elems() as u64,
                    dnnperf_dnn::flops::layer_flops(l),
                    l.output.elems() as u64,
                )
            })
            .collect()
    }

    /// Adversarial near-miss pairs: distinct same-name networks whose
    /// layers agree on every field the old hash covered — type tag, input
    /// elems, FLOPs, output elems — yet differ structurally. Each pair
    /// collided under the old `(tag, in, flops, out)` fingerprint; the
    /// structural fingerprint must split them.
    #[test]
    fn fingerprint_splits_adversarial_near_misses() {
        use dnnperf_dnn::{
            ActivationFn, Conv2d, Layer, LayerKind, MatMul, Pool2d, PoolKind, TensorShape,
        };
        let fm = TensorShape::chw;
        let pairs: Vec<(&str, Network, Network)> = vec![
            (
                "max vs avg pooling",
                single(
                    Layer::apply(
                        LayerKind::Pool2d(Pool2d {
                            kind: PoolKind::Max,
                            k: 2,
                            stride: 2,
                            padding: 0,
                        }),
                        fm(16, 8, 8),
                    )
                    .unwrap(),
                ),
                single(
                    Layer::apply(
                        LayerKind::Pool2d(Pool2d {
                            kind: PoolKind::Avg,
                            k: 2,
                            stride: 2,
                            padding: 0,
                        }),
                        fm(16, 8, 8),
                    )
                    .unwrap(),
                ),
            ),
            (
                "1x9 vs 9x1 convolution",
                single(
                    Layer::apply(
                        LayerKind::Conv2d(Conv2d {
                            in_ch: 8,
                            out_ch: 8,
                            kh: 1,
                            kw: 9,
                            stride: 1,
                            padding: 4,
                            groups: 1,
                        }),
                        fm(8, 9, 9),
                    )
                    .unwrap(),
                ),
                single(
                    Layer::apply(
                        LayerKind::Conv2d(Conv2d {
                            in_ch: 8,
                            out_ch: 8,
                            kh: 9,
                            kw: 1,
                            stride: 1,
                            padding: 4,
                            groups: 1,
                        }),
                        fm(8, 9, 9),
                    )
                    .unwrap(),
                ),
            ),
            (
                "relu vs relu6",
                single(
                    Layer::apply(LayerKind::Activation(ActivationFn::Relu), fm(16, 8, 8)).unwrap(),
                ),
                single(
                    Layer::apply(LayerKind::Activation(ActivationFn::Relu6), fm(16, 8, 8)).unwrap(),
                ),
            ),
            (
                "feature-map vs flat-vector input",
                single(
                    Layer::apply(LayerKind::Activation(ActivationFn::Relu), fm(64, 8, 8)).unwrap(),
                ),
                single(
                    Layer::apply(
                        LayerKind::Activation(ActivationFn::Relu),
                        TensorShape::features(64 * 8 * 8),
                    )
                    .unwrap(),
                ),
            ),
            (
                "channel shuffle group count",
                single(
                    Layer::apply(LayerKind::ChannelShuffle { groups: 2 }, fm(16, 4, 4)).unwrap(),
                ),
                single(
                    Layer::apply(LayerKind::ChannelShuffle { groups: 4 }, fm(16, 4, 4)).unwrap(),
                ),
            ),
            (
                "matmul head split",
                single(
                    Layer::apply(
                        LayerKind::MatMul(MatMul {
                            heads: 2,
                            m: 16,
                            k: 8,
                            n: 8,
                        }),
                        TensorShape::tokens(16, 32),
                    )
                    .unwrap(),
                ),
                single(
                    Layer::apply(
                        LayerKind::MatMul(MatMul {
                            heads: 4,
                            m: 16,
                            k: 8,
                            n: 4,
                        }),
                        TensorShape::tokens(16, 32),
                    )
                    .unwrap(),
                ),
            ),
        ];
        for (what, a, b) in &pairs {
            assert_ne!(a, b, "{what}: pair must be structurally distinct");
            assert_eq!(
                legacy_fields(a),
                legacy_fields(b),
                "{what}: not adversarial — the old hash already split it"
            );
            assert_ne!(
                network_fingerprint(a),
                network_fingerprint(b),
                "{what}: structural fingerprint collision"
            );
        }
    }
}
