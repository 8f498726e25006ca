"""Ray-Mixer (paper Sec. 3.3, Eqs. 4-5) — Gen-NeRF's attention-free
replacement for the ray transformer.

For density features f_sigma in R^(N x D) along one ray:

    Eq. 4:  F[:, i] = f[:, i] + phi(W1 f[:, i])   for i = 1..D
    Eq. 5:  sigma_j = W3 (F[j, :] + phi(W2 F[j, :]))   for j = 1..N

W1 mixes information *across the points of a ray* (token mixing, an
N_max x N_max FC), W2 mixes *across feature channels* per point, and W3
projects to a density logit.  All three are plain FC layers, so the
accelerator can run them on the same systolic arrays as the NeRF MLP —
this workload homogeneity is the whole point (Sec. 3.3).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import nn
from ..nn import Tensor


class RayMixer(nn.Module):
    """MLP-Mixer-style density module with a fixed point capacity N_max.

    The token-mixing weight W1 is (N_max, N_max); shorter rays are padded
    (mask False) and padded features are zeroed before mixing so they
    inject nothing into valid points.
    """

    def __init__(self, density_feature_dim: int, n_max: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.density_feature_dim = density_feature_dim
        self.n_max = n_max
        self.token_mix = nn.Linear(n_max, n_max, rng=rng)        # W1
        self.channel_mix = nn.Linear(density_feature_dim,
                                     density_feature_dim, rng=rng)  # W2
        self.head = nn.Linear(density_feature_dim, 1, rng=rng)   # W3

    def forward(self, density_features: Tensor,
                mask: Optional[np.ndarray] = None) -> Tensor:
        """(R, P, D) density features -> (R, P) density logits.

        ``P`` must equal ``n_max``; use padding + mask for shorter rays.
        """
        x = nn.as_tensor(density_features)
        rays, points, channels = x.shape
        if points != self.n_max:
            raise ValueError(f"RayMixer built for N_max={self.n_max} "
                             f"received {points} points; pad the ray")
        if mask is not None:
            x = x * Tensor(np.asarray(mask, dtype=np.float32)[..., None])

        # Eq. 4 — token mixing along the point axis, per channel.
        columns = x.transpose((0, 2, 1))                  # (R, D, N)
        mixed = nn.functional.elu(self.token_mix(columns))
        fused = (columns + mixed).transpose((0, 2, 1))    # residual, (R, N, D)

        # Eq. 5 — channel mixing per point, then projection to a logit.
        refined = fused + nn.functional.elu(self.channel_mix(fused))
        return self.head(refined).squeeze(-1)

    def flops(self, rays: int, points: int) -> int:
        """FLOPs for ``rays`` rays; ``points`` kept for interface parity
        (the mixer always computes at its built-in N_max)."""
        del points
        n, d = self.n_max, self.density_feature_dim
        token = 2 * rays * d * n * n
        channel = 2 * rays * n * d * d
        head = 2 * rays * n * d
        return token + channel + head

    def gemm_shapes(self, points: int):
        """(rows per ray, K, N) of W1, W2 and W3; like :meth:`flops`,
        at the built-in N_max."""
        del points
        n, d = self.n_max, self.density_feature_dim
        return [(d, n, n), (n, d, d), (n, d, 1)]
