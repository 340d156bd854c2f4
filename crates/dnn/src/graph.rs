//! The [`Network`] container: an ordered list of shape-resolved layers.
//!
//! The IR is a flat execution sequence rather than a general dataflow graph:
//! execution time only depends on *which kernels run with which shapes*, so a
//! linearised schedule (what the PyTorch Profiler trace in the paper's
//! Figure 2 shows) is the right abstraction level. Non-chain edges (residual
//! adds, concatenations, downsample paths) appear as layers with explicitly
//! recorded shapes.

use crate::flops::{layer_bytes, layer_flops, layer_params};
use crate::layer::Layer;
use crate::shape::TensorShape;
use std::fmt;
use std::sync::OnceLock;

/// The structural family a network belongs to (used for plotting Figure 4 and
/// for zoo bookkeeping; never consulted by the predictors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    /// Residual networks.
    ResNet,
    /// VGG-style plain convolutional stacks.
    Vgg,
    /// Densely connected networks.
    DenseNet,
    /// MobileNetV2-style inverted residual networks.
    MobileNet,
    /// ShuffleNet v1 networks.
    ShuffleNet,
    /// SqueezeNet fire-module networks.
    SqueezeNet,
    /// AlexNet-style early CNNs.
    AlexNet,
    /// GoogLeNet / Inception-style branch-and-concat networks.
    Inception,
    /// Encoder-only text-classification transformers.
    Transformer,
    /// Anything hand-built.
    Custom,
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Family::ResNet => "resnet",
            Family::Vgg => "vgg",
            Family::DenseNet => "densenet",
            Family::MobileNet => "mobilenet",
            Family::ShuffleNet => "shufflenet",
            Family::SqueezeNet => "squeezenet",
            Family::AlexNet => "alexnet",
            Family::Inception => "inception",
            Family::Transformer => "transformer",
            Family::Custom => "custom",
        };
        f.write_str(s)
    }
}

/// A complete inference workload: named, family-tagged, shape-resolved.
///
/// Immutable once built: every accessor takes `&self`, so the structural
/// [`Network::fingerprint`] is computed at most once and memoized.
#[derive(Clone)]
pub struct Network {
    name: String,
    family: Family,
    input: TensorShape,
    layers: Vec<Layer>,
    /// Lazily computed [`Network::fingerprint`]; a cache, not part of
    /// the network's identity (equality and `Debug` ignore it).
    fingerprint: OnceLock<u64>,
}

impl PartialEq for Network {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.family == other.family
            && self.input == other.input
            && self.layers == other.layers
    }
}

impl Eq for Network {}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("name", &self.name)
            .field("family", &self.family)
            .field("input", &self.input)
            .field("layers", &self.layers)
            .finish()
    }
}

impl Network {
    /// Assembles a network from parts. Most users should go through
    /// [`crate::NetworkBuilder`] or the [`crate::zoo`] constructors instead.
    pub fn from_parts(
        name: impl Into<String>,
        family: Family,
        input: TensorShape,
        layers: Vec<Layer>,
    ) -> Self {
        Network {
            name: name.into(),
            family,
            input,
            layers,
            fingerprint: OnceLock::new(),
        }
    }

    /// The network's display name, e.g. `"ResNet-50"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The structural family.
    pub fn family(&self) -> Family {
        self.family
    }

    /// The per-sample input shape (e.g. `3x224x224`).
    pub fn input_shape(&self) -> TensorShape {
        self.input
    }

    /// The layers in execution order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Structural fingerprint: a hash of the name and every layer's full
    /// structure (see [`crate::fingerprint`]). Two networks built the
    /// same way fingerprint equal. Computed on first call and memoized,
    /// so repeat calls (every plan-cache lookup) cost one atomic load.
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| crate::fingerprint::network_fingerprint(self))
    }

    /// Total theoretical FLOPs per sample (sum over layers).
    ///
    /// # Examples
    ///
    /// ```
    /// let net = dnnperf_dnn::zoo::vgg::vgg16();
    /// assert!(net.total_flops() > 10_000_000_000); // VGG-16 ~ 15.5 GFLOPs
    /// ```
    pub fn total_flops(&self) -> u64 {
        self.layers.iter().map(layer_flops).sum()
    }

    /// Total theoretical memory traffic per sample in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.layers.iter().map(layer_bytes).sum()
    }

    /// Total learned parameter count.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(layer_params).sum()
    }

    /// Total parameter bytes (FP32), i.e. the model weight footprint.
    pub fn param_bytes(&self) -> u64 {
        self.total_params() * crate::flops::BYTES_PER_ELEM
    }

    /// Peak activation footprint per sample in bytes: the largest
    /// input + output working set over all layers. A coarse but monotone
    /// estimator used for out-of-memory screening.
    pub fn peak_activation_bytes(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| (l.input.elems() + l.output.elems()) as u64 * crate::flops::BYTES_PER_ELEM)
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} layers, {:.2} GFLOPs)",
            self.name,
            self.layers.len(),
            self.total_flops() as f64 / 1e9
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Conv2d, LayerKind};

    fn tiny() -> Network {
        let input = TensorShape::chw(3, 8, 8);
        let l1 = Layer::apply(LayerKind::Conv2d(Conv2d::square(3, 4, 3, 1, 1)), input).unwrap();
        let l2 = Layer::apply(LayerKind::BatchNorm, l1.output).unwrap();
        Network::from_parts("Tiny", Family::Custom, input, vec![l1, l2])
    }

    #[test]
    fn totals_are_sums() {
        let n = tiny();
        let f: u64 = n.layers().iter().map(crate::flops::layer_flops).sum();
        assert_eq!(n.total_flops(), f);
        assert_eq!(n.num_layers(), 2);
    }

    #[test]
    fn peak_activation_positive() {
        assert!(tiny().peak_activation_bytes() > 0);
    }

    #[test]
    fn display_mentions_name_and_layers() {
        let s = tiny().to_string();
        assert!(s.contains("Tiny") && s.contains("2 layers"));
    }

    #[test]
    fn fingerprint_is_memoized_and_clones_carry_the_memo() {
        let n = tiny();
        assert_eq!(n.fingerprint.get(), None, "from_parts must not hash");
        let fp = n.fingerprint();
        assert_eq!(n.fingerprint.get(), Some(&fp));
        assert_eq!(fp, crate::fingerprint::network_fingerprint(&n));
        let c = n.clone();
        assert_eq!(c.fingerprint.get(), Some(&fp));
        assert_eq!(c.fingerprint(), fp);
    }

    #[test]
    fn equality_ignores_memo_state() {
        let warm = tiny();
        warm.fingerprint();
        let cold = tiny();
        assert!(warm.fingerprint.get().is_some() && cold.fingerprint.get().is_none());
        assert_eq!(warm, cold);
        assert_eq!(cold, warm);
    }

    #[test]
    fn debug_omits_the_memo() {
        let n = tiny();
        let before = format!("{n:?}");
        n.fingerprint();
        let after = format!("{n:?}");
        assert_eq!(before, after);
        assert!(!after.contains("fingerprint"), "{after}");
        assert!(after.starts_with("Network { name: \"Tiny\", family: Custom"));
    }

    #[test]
    fn racing_first_calls_agree() {
        let n = crate::zoo::densenet::densenet121();
        let want = crate::fingerprint::network_fingerprint(&n);
        let barrier = std::sync::Barrier::new(8);
        let got: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        n.fingerprint()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(got, vec![want; 8]);
        assert_eq!(n.fingerprint.get(), Some(&want));
    }
}
