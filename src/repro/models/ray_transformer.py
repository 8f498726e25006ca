"""Ray transformer (paper Sec. 2.2, Step 4) — the baseline Gen-NeRF removes.

IBRNet-style density estimation: the density features of all samples on
one ray attend to each other, letting the network reason about occlusion
and multi-view consistency along the ray before predicting densities.
The paper's profiling (Sec. 2.3) shows this module is wildly inefficient
on GPUs (44.1% of DNN latency at 13.8% of DNN FLOPs), which motivates
the Ray-Mixer replacement.

The projections and attention weights route through the fused
``nn.functional`` ops (``linear``, ``softmax`` / ``masked_softmax``),
so each training step builds one graph node per projection and per
softmax instead of a chain of elementwise nodes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import nn
from ..nn import Tensor


class RayTransformer(nn.Module):
    """Self-attention over the point axis followed by a density head.

    ``qk_dim`` deliberately projects attention into a narrow space — the
    paper-scale workload model assumes a slim transformer whose FLOPs
    are a small fraction of the per-point MLP (Sec. 2.3's 13.8%).
    """

    def __init__(self, density_feature_dim: int, qk_dim: int = 4,
                 heads: int = 1, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.density_feature_dim = density_feature_dim
        self.qk_dim = qk_dim
        self.heads = heads
        self.query = nn.Linear(density_feature_dim, qk_dim * heads, rng=rng)
        self.key = nn.Linear(density_feature_dim, qk_dim * heads, rng=rng)
        self.value = nn.Linear(density_feature_dim, qk_dim * heads, rng=rng)
        self.out = nn.Linear(qk_dim * heads, density_feature_dim, rng=rng)
        self.norm = nn.LayerNorm(density_feature_dim)
        self.head = nn.Linear(density_feature_dim, 1, rng=rng)

    def forward(self, density_features: Tensor,
                mask: Optional[np.ndarray] = None) -> Tensor:
        """(R, P, D) density features -> (R, P) density logits."""
        x = nn.as_tensor(density_features)
        rays, points, _ = x.shape
        heads, dim = self.heads, self.qk_dim

        def split(t: Tensor) -> Tensor:
            return t.reshape(rays, points, heads, dim).transpose((0, 2, 1, 3))

        normed = self.norm(x)
        q, k, v = split(self.query(normed)), split(self.key(normed)), \
            split(self.value(normed))
        scores = (q @ k.transpose((0, 1, 3, 2))) * (1.0 / np.sqrt(dim))
        if mask is not None:
            attend = np.broadcast_to(mask[:, None, None, :],
                                     (rays, heads, points, points))
            weights = nn.functional.masked_softmax(scores, attend, axis=-1)
        else:
            weights = nn.functional.softmax(scores, axis=-1)
        mixed = (weights @ v).transpose((0, 2, 1, 3)).reshape(
            rays, points, heads * dim)
        fused = x + self.out(mixed)
        return self.head(fused).squeeze(-1)

    def flops(self, rays: int, points: int) -> int:
        proj = 4 * 2 * rays * points * self.density_feature_dim \
            * self.qk_dim * self.heads
        attn = 2 * 2 * rays * self.heads * points * points * self.qk_dim
        head = 2 * rays * points * self.density_feature_dim
        return proj + attn + head

    def gemm_shapes(self, points: int):
        """(rows per ray, K, N) of the projections and the head (the
        attention products are per-ray matmuls)."""
        d, width = self.density_feature_dim, self.qk_dim * self.heads
        return [(points, d, width)] * 3 + [(points, width, d), (points, d, 1)]


class PointwiseDensityHead(nn.Module):
    """No cross-point module: a per-point linear density head.

    This is Table 2's "- ray transformer" ablation row — the variant the
    paper shows suffers a large PSNR drop from erroneous densities.
    """

    def __init__(self, density_feature_dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.density_feature_dim = density_feature_dim
        self.head = nn.Linear(density_feature_dim, 1, rng=rng)

    def forward(self, density_features: Tensor,
                mask: Optional[np.ndarray] = None) -> Tensor:
        del mask  # pointwise: padding handled downstream by compositing
        return self.head(nn.as_tensor(density_features)).squeeze(-1)

    def flops(self, rays: int, points: int) -> int:
        return 2 * rays * points * self.density_feature_dim

    def gemm_shapes(self, points: int):
        """(rows per ray, K, N) of the head."""
        return [(points, self.density_feature_dim, 1)]
