"""What the benchmark drives: synthetic nuclei, a two-level model and one step.

Everything here calls the library only through its public functions. The
workload seed reaches the library only as generated images and labels; the
model's initial weights come from the fixed ``MODEL_SEED``.
"""

from __future__ import annotations

import numpy as np

from causalseg import blocks, cim, dac, losses
from causalseg import tensor as T
from causalseg.seeding import generator
from causalseg.tensor import Tensor

MODEL_SEED = 7
CIM_SEED = 0          # chooses the pooled channels in ``extract_feature_vars``
WIDTHS = (8, 16)      # level 1 and level 2; the deepest width equals CimConfig().m_features
DECODER_OUT = 8       # channels of the full-resolution decoder output
PATCH, HEADS = 2, 4   # bottleneck transformer
LR = 0.2              # plain SGD
LOSS_CFG = losses.LossConfig()
SIMAM_CFG = blocks.SimamConfig()

# Stain colours are (R, G, B) in [0, 1]. ``contrast`` pulls the nucleus colour
# towards the background; ``noise`` is the std of additive Gaussian noise and
# ``blur`` the std (pixels) of the Gaussian blur applied before the noise.
DOMAINS = {
    "train": dict(nucleus=(0.35, 0.20, 0.55), background=(0.92, 0.72, 0.82),
                  contrast=1.0, noise=0.04, blur=0.6),
    "shift": dict(nucleus=(0.45, 0.30, 0.40), background=(0.86, 0.80, 0.68),
                  contrast=0.75, noise=0.07, blur=1.1),
}
BLOBS_PER_1024PX = (3, 6)   # nuclei per 32x32 area, drawn uniformly
RADIUS_PX = (2.5, 5.0)      # semi-major axis; the minor axis is 0.6-1.0 of it


# ---------------------------------------------------------------------------
# synthetic data


def _gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur over the last two axes, reflecting at the edges."""
    r = max(1, int(np.ceil(3 * sigma)))
    taps = np.exp(-0.5 * (np.arange(-r, r + 1) / sigma) ** 2)
    taps /= taps.sum()
    for axis in (-2, -1):
        pad = [(0, 0)] * img.ndim
        pad[axis] = (r, r)
        padded = np.pad(img, pad, mode="reflect")
        size = img.shape[axis]
        img = sum(t * np.take(padded, np.arange(i, i + size), axis=axis) for i, t in enumerate(taps))
    return img


def make_images(seed: int, tag: int, count: int, size: int, domain: str):
    """``count`` stained nucleus images (count, 3, size, size) and binary masks (count, size, size)."""
    d = DOMAINS[domain]
    rng = generator(seed, tag)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    area = (size / 32) ** 2
    masks = np.zeros((count, size, size))
    for i in range(count):
        k = int(rng.integers(BLOBS_PER_1024PX[0], BLOBS_PER_1024PX[1] + 1) * area)
        cy, cx = rng.uniform(0, size, (2, k))
        a = rng.uniform(*RADIUS_PX, k)
        b = a * rng.uniform(0.6, 1.0, k)
        ang = rng.uniform(0, np.pi, k)
        dy, dx = yy[None] - cy[:, None, None], xx[None] - cx[:, None, None]
        u = (dx * np.cos(ang)[:, None, None] + dy * np.sin(ang)[:, None, None]) / a[:, None, None]
        v = (-dx * np.sin(ang)[:, None, None] + dy * np.cos(ang)[:, None, None]) / b[:, None, None]
        masks[i] = np.any(u * u + v * v <= 1.0, axis=0)
    bg = np.asarray(d["background"])[None, :, None, None]
    nuc = bg + d["contrast"] * (np.asarray(d["nucleus"])[None, :, None, None] - bg)
    texture = 1.0 + 0.12 * _gaussian_blur(rng.standard_normal((count, 1, size, size)), 2.0)
    chroma = 1.0 + 0.08 * rng.standard_normal((count, 1, size, size))
    m = masks[:, None]
    img = (bg * texture) * (1.0 - m) + (nuc * chroma) * m
    img = _gaussian_blur(img, d["blur"]) + d["noise"] * rng.standard_normal(img.shape)
    return (img - 0.6) / 0.25, masks.astype(np.int64)


# ---------------------------------------------------------------------------
# model


class Model:
    """Two encoder levels (cnn_down || mbconv -> dac_fuse), a transformer
    bottleneck, two skip decoders and a 1x1 conv + softmax head."""

    def __init__(self, size: int):
        rng = generator(MODEL_SEED, 0)
        c1, c2 = WIDTHS
        self.down = [blocks.make_cnn_down_params(rng, 3, c1), blocks.make_cnn_down_params(rng, c1, c2)]
        self.mb = [blocks.make_mbconv_params(rng, 3, c1, 2), blocks.make_mbconv_params(rng, c1, c2, 2)]
        self.dac = [dac.make_dac_layer(rng, c1, c1, c1, 0), dac.make_dac_layer(rng, c2, c2, c2, 1)]
        self.tf = blocks.make_transformer_params(rng, c2, size // 4, PATCH, HEADS)
        self.dec = [blocks.make_decoder_params(rng, c2, c1, c1), blocks.make_decoder_params(rng, c1, 3, DECODER_OUT)]
        bound = DECODER_OUT ** -0.5
        self.head = {"kernel": Tensor(rng.uniform(-bound, bound, (2, DECODER_OUT, 1, 1)), requires_grad=True),
                     "bias": Tensor(np.zeros(2), requires_grad=True)}

    def params(self) -> list[Tensor]:
        out = []
        for bp in (*self.down, *self.mb, self.tf, *self.dec):
            out.extend(bp.tensors().values())
        for layer in self.dac:
            out.extend(layer.tensors().values())
        out.extend(self.head.values())
        return out

    def state(self) -> list[np.ndarray]:
        return [p.data.copy() for p in self.params()]

    def load(self, state: list[np.ndarray]) -> None:
        for p, a in zip(self.params(), state):
            p.data = a.copy()

    def forward(self, x: Tensor, tr):
        """Class probabilities (N, 2, H, W) and the bottleneck features (N, 16, H/4, W/4)."""
        skips, h = [x], x
        for lvl in range(2):
            f1 = tr.layer("blocks.cnn_down", blocks.cnn_down, h, self.down[lvl])
            f2 = tr.layer("blocks.mbconv", blocks.mbconv, h, self.mb[lvl], 2)
            h = tr.layer("dac.dac_fuse", dac.dac_fuse, f1, f2, self.dac[lvl], SIMAM_CFG)
            skips.append(h)
        deep = tr.layer("blocks.transformer_block", blocks.transformer_block, h, self.tf, PATCH, HEADS)
        h = deep
        for lvl in range(2):
            h = tr.layer("blocks.decoder_block", blocks.decoder_block, h, skips[1 - lvl], self.dec[lvl])
        logits = blocks.add_bias(T.conv2d(h, self.head["kernel"]), self.head["bias"])
        return T.softmax(logits, axis=1), deep


# ---------------------------------------------------------------------------
# step and evaluation


def step_loss(probs: Tensor, y: np.ndarray, weights: cim.SampleWeights) -> Tensor:
    ce = losses.ce_per_sample(probs, y)
    return losses.total_loss(cim.cim_loss(ce, weights), losses.dice_loss(probs, y, LOSS_CFG),
                             losses.focal_loss(probs, y, LOSS_CFG), LOSS_CFG)


def cim_weights(deep: Tensor, tr):
    """CIM on the bottleneck features: (pooled feature matrix, learned SampleWeights)."""
    cfg = cim.CimConfig()
    with tr.span("cim.extract"):
        feats = cim.extract_feature_vars(deep, cfg, CIM_SEED)
    with tr.span("cim.learn_weights"):
        weights = cim.learn_weights(feats, cfg)
    return feats, weights


def train_step(model: Model, x: np.ndarray, y: np.ndarray, use_cim: bool, tr, update: bool = True):
    """Forward, CIM reweighting (or uniform weights), loss, backward, SGD.

    Returns (loss value, SampleWeights, pooled features or None, bottleneck features).
    """
    feats = None
    with T.Tape() as tape:
        probs, deep = model.forward(Tensor(x), tr)
        if use_cim:
            feats, weights = cim_weights(deep, tr)
        else:
            weights = cim.SampleWeights.uniform(x.shape[0])
        with tr.span("losses.loss", tape):
            loss = step_loss(probs, y, weights)
    tr.count("tensor.step_nodes", len(tape))
    with tr.span("tensor.backward"):
        grads = T.backward(loss, tape)
    if update:
        for p in model.params():
            p.data -= LR * grads[p]
    for p in model.params():
        p.zero_grad()
    return loss.item(), weights, feats, deep


def predict(model: Model, x: np.ndarray, tr) -> tuple[np.ndarray, np.ndarray]:
    """Tape-free forward; returns (nucleus probability map, binary mask)."""
    probs, _ = model.forward(Tensor(x), tr)
    p_fg = probs.data[:, 1]
    return p_fg, (p_fg > 0.5).astype(np.int64)


def eval_batch(model: Model, x: np.ndarray, y: np.ndarray, tr):
    """Segment one batch; returns (nucleus probabilities, mask, mIoU %, DSC %)."""
    p_fg, pred = predict(model, x, tr)
    with tr.span("losses.metrics"):
        m, d = losses.miou(pred, y), losses.dsc(pred, y)
    return p_fg, pred, m, d
