"""Neural-network layers and models on the system's operator set.

Provides affine/conv/pool/activation layers, an MLP scorer (EN2DE), an
autoencoder with dropout (HDROP), and AlexNet/VGG16/ResNet18-style CNN
feature extractors (TLVIS, Fig. 9(b)).  Architectures follow the paper's
layer inventory at reduced width so simulation stays fast; the memory
allocation *patterns* (varying conv kernel sizes across models) are
preserved because they drive eviction injection and recycling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.session import Session
from repro.runtime.handles import MatrixHandle


# ----------------------------------------------------------------- layers

def affine(sess: Session, X: MatrixHandle, W: MatrixHandle,
           b: MatrixHandle) -> MatrixHandle:
    """Fully-connected layer ``X W + b``."""
    return X @ W + b


def init_weights(sess: Session, rows: int, cols: int,
                 seed: int) -> MatrixHandle:
    """Xavier-style initialization (deterministic by seed)."""
    bound = (6.0 / (rows + cols)) ** 0.5
    return sess.rand(rows, cols, min=-bound, max=bound, seed=seed)


# ------------------------------------------------------------- MLP scorer

@dataclass
class MlpModel:
    """A pre-trained feed-forward scorer (EN2DE translation model)."""

    weights: list[MatrixHandle]
    biases: list[MatrixHandle]

    @classmethod
    def pretrained(cls, sess: Session, layer_dims: list[int],
                   seed: int = 31) -> "MlpModel":
        weights, biases = [], []
        for i in range(len(layer_dims) - 1):
            weights.append(
                init_weights(sess, layer_dims[i], layer_dims[i + 1],
                             seed + 2 * i)
            )
            biases.append(sess.fill(1, layer_dims[i + 1], 0.01))
        return cls(weights, biases)

    def forward(self, sess: Session, X: MatrixHandle) -> MatrixHandle:
        """ReLU MLP with a softmax head (four FC layers in EN2DE)."""
        h = X
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = affine(sess, h, W, b).relu()
        return affine(sess, h, self.weights[-1], self.biases[-1]).softmax()


# ------------------------------------------------------------ autoencoder

@dataclass
class Autoencoder:
    """Two-hidden-layer autoencoder with a dropout layer (HDROP)."""

    w_enc1: MatrixHandle
    w_enc2: MatrixHandle
    w_dec1: MatrixHandle
    w_dec2: MatrixHandle

    @classmethod
    def init(cls, sess: Session, num_features: int, h1: int = 500,
             h2: int = 2, seed: int = 5) -> "Autoencoder":
        return cls(
            init_weights(sess, num_features, h1, seed),
            init_weights(sess, h1, h2, seed + 1),
            init_weights(sess, h2, h1, seed + 2),
            init_weights(sess, h1, num_features, seed + 3),
        )

    def forward(self, sess: Session, X: MatrixHandle, dropout_rate: float,
                dropout_seed: int) -> MatrixHandle:
        """Encode -> dropout -> decode; returns the reconstruction."""
        h1 = (X @ self.w_enc1).sigmoid()
        h1 = h1.dropout(dropout_rate, dropout_seed)
        code = (h1 @ self.w_enc2).sigmoid()
        d1 = (code @ self.w_dec1).sigmoid()
        return d1 @ self.w_dec2

    def loss(self, sess: Session, X: MatrixHandle,
             reconstruction: MatrixHandle) -> MatrixHandle:
        return ((X - reconstruction) ^ 2.0).mean()

    def step(self, sess: Session, X: MatrixHandle, dropout_rate: float,
             dropout_seed: int, lr: float = 0.01) -> MatrixHandle:
        """One (approximate) training step on the decoder output layer.

        The reproduction trains only the last layer in closed gradient
        form — sufficient to exercise the batch-wise forward pipeline
        that HDROP's reuse targets, with identical operator structure.
        """
        h1 = (X @ self.w_enc1).sigmoid().dropout(dropout_rate, dropout_seed)
        code = (h1 @ self.w_enc2).sigmoid()
        d1 = (code @ self.w_dec1).sigmoid()
        recon = d1 @ self.w_dec2
        grad = (d1.t() @ (recon - X)) * (2.0 / float(X.nrow))
        self.w_dec2 = (self.w_dec2 - grad * lr).evaluate()
        return self.loss(sess, X, recon)


# --------------------------------------------------------- CNN extractors

@dataclass
class ConvSpec:
    """One convolution layer: output channels + kernel edge."""

    out_channels: int
    kernel: int
    stride: int = 1
    pad: int = 0


@dataclass
class CnnModel:
    """A frozen, pre-trained CNN feature extractor."""

    name: str
    convs: list[ConvSpec]
    fc_dims: list[int]
    input_channels: int
    input_hw: int
    filters: list[MatrixHandle] = field(default_factory=list)
    fcs: list[MatrixHandle] = field(default_factory=list)

    def build(self, sess: Session, seed: int = 17) -> "CnnModel":
        """Materialize pre-trained weights (deterministic by seed)."""
        c = self.input_channels
        hw = self.input_hw
        self.filters = []
        for i, spec in enumerate(self.convs):
            self.filters.append(init_weights(
                sess, spec.out_channels, c * spec.kernel * spec.kernel,
                seed + i,
            ))
            hw = (hw + 2 * spec.pad - spec.kernel) // spec.stride + 1
            c = spec.out_channels
        flat = c * hw * hw
        self.fcs = []
        dims = [flat] + self.fc_dims
        for i in range(len(dims) - 1):
            self.fcs.append(init_weights(sess, dims[i], dims[i + 1],
                                         seed + 100 + i))
        return self

    def extract_features(self, sess: Session, images: MatrixHandle,
                         upto_fc: int | None = None) -> MatrixHandle:
        """Forward through frozen conv layers (+ optional FC prefix).

        ``upto_fc`` selects how many FC layers to include — practitioners
        compare model-layer pairs for transfer learning (paper §6.3).
        """
        h = images
        c = self.input_channels
        hw = self.input_hw
        for spec, F in zip(self.convs, self.filters):
            shape = {"N": images.nrow, "C": c, "H": hw, "W": hw,
                     "K": spec.out_channels, "R": spec.kernel,
                     "S": spec.kernel, "stride": spec.stride,
                     "pad": spec.pad}
            h = sess.conv2d(h, F, shape).relu()
            hw = (hw + 2 * spec.pad - spec.kernel) // spec.stride + 1
            c = spec.out_channels
        count = len(self.fcs) if upto_fc is None else upto_fc
        for W in self.fcs[:count]:
            h = (h @ W).relu()
        return h

    def score(self, sess: Session, images: MatrixHandle) -> MatrixHandle:
        """Class probabilities (full forward + softmax head)."""
        return self.extract_features(sess, images).softmax()


def alexnet(input_hw: int = 32, channels: int = 3) -> CnnModel:
    """AlexNet-style extractor: 2 convs (64, 128 channels) + 2 FC."""
    return CnnModel("alexnet", [
        ConvSpec(16, 5, stride=2, pad=2),
        ConvSpec(32, 3, stride=2, pad=1),
    ], [128, 64], channels, input_hw)


def vgg16(input_hw: int = 32, channels: int = 3) -> CnnModel:
    """VGG-style extractor: 3 convs (64, 192, 256 channels) + 2 FC."""
    return CnnModel("vgg16", [
        ConvSpec(16, 3, stride=1, pad=1),
        ConvSpec(32, 3, stride=2, pad=1),
        ConvSpec(48, 3, stride=2, pad=1),
    ], [160, 64], channels, input_hw)


def resnet18(input_hw: int = 32, channels: int = 3) -> CnnModel:
    """ResNet-style extractor: 4 stages of 3x3 convs + 1 FC."""
    return CnnModel("resnet18", [
        ConvSpec(16, 7, stride=2, pad=3),
        ConvSpec(24, 3, stride=2, pad=1),
        ConvSpec(32, 3, stride=2, pad=1),
        ConvSpec(48, 3, stride=2, pad=1),
    ], [64], channels, input_hw)
