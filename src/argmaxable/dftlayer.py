"""Truncated-DFT weight matrices, slack columns, and bias initialization.

The spectral layer replaces a learned n x d output matrix with a fixed
n x (2k+1) matrix whose rows sample the first k Fourier frequency pairs
on the circle: row i (1-based) evaluates the constant plus cos and sin of
k' * t_i for k' = 1..k, with t_i = 2*pi*(i-1)/n.  Its columns are
orthonormal, every maximal minor is strictly positive, and as a result
the feasible sign vectors are exactly the low-alternation family, which
contains every assignment with at most k active labels.

Appending s seeded random slack columns preserves every feasible sign
vector (set the slack coordinates to zero) while fattening the feasible
regions.  Logits can be evaluated either by a plain matrix product or
through an inverse FFT on the zero-padded coefficient vector; the two
paths agree to rounding and the FFT path never materializes the matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import Provenance, WeightMatrix

__all__ = [
    "DftSpec",
    "build_dft_matrix",
    "dft_entry_error_bound",
    "augment_slack",
    "build_layer",
    "logits_direct",
    "logits_fft",
    "bias_init",
    "DATASET_PRESETS",
]

# Dataset-scale (n, k) pairs used in the experiments this layer targets:
# clinical coding (MIMIC-III), semantic indexing (BioASQ task A), and
# image tagging (OpenImages v6).  Documented presets, not defaults.
DATASET_PRESETS: dict[str, tuple[int, int]] = {
    "mimic3": (8921, 80),
    "bioasq": (20000, 50),
    "openimages": (8933, 50),
}


@dataclass(frozen=True)
class DftSpec:
    """Shape of a spectral layer: n labels, k frequency pairs, s slack
    columns initialized from ``seed``.  Requires 2k+1 <= n and k >= 1
    (the construction needs at least one sin/cos pair; the DC-only case
    is degenerate)."""

    n: int
    k: int
    s: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if 2 * self.k + 1 > self.n:
            raise ValueError(
                f"need 2k+1 <= n, got 2*{self.k}+1 = {2 * self.k + 1} > n = {self.n}"
            )
        if self.s < 0:
            raise ValueError("s must be >= 0")

    @property
    def total_columns(self) -> int:
        return 2 * self.k + 1 + self.s


def build_dft_matrix(n: int, k: int) -> WeightMatrix:
    """The n x (2k+1) truncated-DFT matrix.

    Column 0 is constantly 1/sqrt(n); columns 2k'-1 and 2k' (0-based) are
    sqrt(2/n)*cos(k' t_i) and sqrt(2/n)*sin(k' t_i) for k' = 1..k, with
    t_i = 2*pi*(i-1)/n.  Columns are orthonormal and every row has norm
    sqrt((2k+1)/n).
    """
    DftSpec(n=n, k=k)  # shares the 2k+1 <= n, k >= 1 validation
    t = 2.0 * np.pi * np.arange(n) / n
    cols = np.empty((n, 2 * k + 1), dtype=np.float64)
    cols[:, 0] = 1.0 / math.sqrt(n)
    amp = math.sqrt(2.0 / n)
    for freq in range(1, k + 1):
        cols[:, 2 * freq - 1] = amp * np.cos(freq * t)
        cols[:, 2 * freq] = amp * np.sin(freq * t)
    return WeightMatrix(cols, provenance=Provenance(kind="dft", k=k))


def dft_entry_error_bound(n: int, k: int) -> float:
    """Bound on |build_dft_matrix(n, k) - exact DFT| for every entry.

    In units of u = 2**-53: computing t_i costs at most 3 roundings and
    the product with a frequency k' <= k one more, so the argument is off
    by less than 4u * 2*pi*k; cos and sin are 1-Lipschitz.  What remains
    is the sin/cos evaluation (up to 4 ulp of a value below 1) and the
    roundings in ``amp`` and the final product (about 2.5u of amp).  The
    constant column is off by at most 2u of 1/sqrt(n) < amp.  Hence
    amp * u * (8*pi*k + 8) with amp = sqrt(2/n).
    """
    return math.sqrt(2.0 / n) * 2.0**-53 * (8.0 * math.pi * k + 8.0)


def slack_block(n: int, s: int, seed: int) -> np.ndarray:
    """The n x s slack block: seeded iid Gaussian entries scaled by
    1/sqrt(n), so slack rows are on the scale of the spectral rows."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, s)) / math.sqrt(n)


def augment_slack(w: WeightMatrix, s: int, seed: int) -> WeightMatrix:
    """Append s seeded random slack columns: returns [W S].

    The original columns are byte-identical in the result; s = 0 returns
    ``w`` itself.  Any sign vector feasible for W stays feasible for
    [W S] (zero the slack coordinates), whatever S is.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    if s == 0:
        return w
    block = slack_block(w.n, s, seed)
    entries = np.hstack([w.entries, block])
    provenance = Provenance(
        kind="dft+slack", k=w.provenance.k, s=s, seed=seed
    ) if w.provenance.kind == "dft" else Provenance(
        kind="random", seed=seed
    )
    return WeightMatrix(entries, provenance=provenance)


def build_layer(spec: DftSpec) -> WeightMatrix:
    """Materialize the full n x (2k+1+s) layer matrix for a spec."""
    return augment_slack(build_dft_matrix(spec.n, spec.k), spec.s, spec.seed)


def logits_direct(w: WeightMatrix, x: np.ndarray) -> np.ndarray:
    """z = W x by plain matrix-vector product."""
    vec = np.asarray(x, dtype=np.float64)
    if vec.shape != (w.d,):
        raise ValueError(f"x must have shape ({w.d},), got {vec.shape}")
    return w.entries @ vec


def logits_fft(
    spec: DftSpec, slack: Optional[np.ndarray], x: np.ndarray
) -> np.ndarray:
    """Logits via the inverse FFT, never materializing the DFT block.

    The first 2k+1 entries of x are packed into k+1 complex coefficients:
    the DC term x_0 / sqrt(n) and, for frequency k' = 1..k, the
    coefficient sqrt(2/n) * (x_{2k'-1} - i x_{2k'}), matching the cos/sin
    column normalization.  Zero-padding to length n and taking the real
    part of the inverse transform (times n) reproduces the direct product
    because every retained frequency sits strictly below n/2.  The slack
    contribution S @ x_slack is added densely.
    """
    vec = np.asarray(x, dtype=np.float64)
    if vec.shape != (spec.total_columns,):
        raise ValueError(
            f"x must have shape ({spec.total_columns},), got {vec.shape}"
        )
    n, k, s = spec.n, spec.k, spec.s
    if s > 0:
        if slack is None:
            slack = slack_block(n, s, spec.seed)
        slack = np.asarray(slack, dtype=np.float64)
        if slack.shape != (n, s):
            raise ValueError(
                f"slack block must have shape ({n}, {s}), got {slack.shape}"
            )
    coeffs = np.zeros(n, dtype=np.complex128)
    coeffs[0] = vec[0] / math.sqrt(n)
    cos_part = vec[1 : 2 * k + 1 : 2]
    sin_part = vec[2 : 2 * k + 2 : 2]
    coeffs[1 : k + 1] = math.sqrt(2.0 / n) * (cos_part - 1j * sin_part)
    z = n * np.fft.ifft(coeffs).real
    if s > 0:
        z = z + slack @ vec[2 * k + 1 :]
    return z


def bias_init(n: int, k: int) -> np.ndarray:
    """Input-space bias that makes every sigmoid output start at k/n.

    Returns the (2k+1)-vector with first entry sqrt(n) * log(k / (n-k))
    and zeros elsewhere: the constant column 1/sqrt(n) turns that entry
    into a uniform logit of log-odds(k/n) on every label.  Requires
    0 < k < n.
    """
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    vec = np.zeros(2 * k + 1, dtype=np.float64)
    vec[0] = math.sqrt(n) * math.log(k / (n - k))
    return vec
