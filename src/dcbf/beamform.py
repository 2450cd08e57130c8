"""Beamformer construction and application.

Three constructions are provided: a spatiotemporal MMSE receive beamformer
with diagonal loading (covariance from the training window or from
interference-plus-noise-only data), a per-node transmit matched filter
(time-reversed channel estimate at unit norm), and narrowband transmit
nulling weights via a regularized rank-one-update solve.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .core import ComplexSignal

__all__ = [
    "DelayMatrix",
    "Beamformer",
    "build_delay_matrix",
    "mmse_rx_beamformer",
    "apply_rx_beamformer",
    "stmf_beamformer",
    "tx_null_beamformer",
]


@dataclass(frozen=True)
class DelayMatrix:
    """Toeplitz-structured window matrix: row r is the T_z-sample window
    right-shifted by r with zero fill, so w^H @ data runs the filter w over
    the window as a convolution."""

    data: np.ndarray  # (t_w, t_z + t_w - 1)
    node_id: str
    tau_hat: int
    t_z: int
    t_w: int


def build_delay_matrix(
    z: ComplexSignal | np.ndarray,
    tau_hat: int,
    t_z: int,
    t_w: int,
    node_id: str = "",
) -> DelayMatrix:
    """Entry (r, c) = z[tau_hat + c - r] when 0 <= c - r < t_z, else 0."""
    zs = z.samples if isinstance(z, ComplexSignal) else np.asarray(z)
    if t_w < 1 or t_z < 1:
        raise ValueError("t_w and t_z must be >= 1")
    window = zs[tau_hat : tau_hat + t_z]
    if len(window) != t_z:
        raise ValueError("window [tau_hat, tau_hat + t_z) not inside signal")
    cols = t_z + t_w - 1
    data = np.zeros((t_w, cols), dtype=np.complex128)
    for r in range(t_w):
        data[r, r : r + t_z] = window
    return DelayMatrix(data=data, node_id=node_id, tau_hat=tau_hat, t_z=t_z, t_w=t_w)


@dataclass
class Beamformer:
    """Per-node complex weights plus construction metadata.

    For MMSE_RX and STMF, weights has shape (n_nodes, t_w); for TX_NULL it
    is a length-N vector of scalars. output_delay is the common filter
    delay the construction introduces (training-row padding for MMSE,
    causality shift for STMF); consumers shift segment windows by it.
    """

    weights: np.ndarray
    method: str  # MMSE_RX | STMF | TX_NULL
    delta: float = 0.0
    node_ids: tuple[str, ...] = ()
    output_delay: int = 0
    solve_residual: float = 0.0

    def node_weights(self, i: int) -> np.ndarray:
        return np.atleast_1d(self.weights[i])

    def to_json(self) -> str:
        w = np.atleast_2d(self.weights)
        return json.dumps(
            {
                "method": self.method,
                "delta": self.delta,
                "output_delay": self.output_delay,
                "node_ids": list(self.node_ids),
                "weights": [[[float(c.real), float(c.imag)] for c in row] for row in w],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Beamformer":
        obj = json.loads(text)
        w = np.array(
            [[complex(re, im) for re, im in row] for row in obj["weights"]],
            dtype=np.complex128,
        )
        if obj["method"] == "TX_NULL":
            w = w.ravel()
        return cls(
            weights=w,
            method=obj["method"],
            delta=obj["delta"],
            node_ids=tuple(obj["node_ids"]),
            output_delay=obj["output_delay"],
        )


def _pad_training_row(s_train: np.ndarray, t_w: int) -> np.ndarray:
    """Zero-pad the training samples to t_z + t_w - 1: floor(t_w/2) zeros in
    front (centering the filter energy), the remainder trailing."""
    t_z = len(s_train)
    lead = t_w // 2
    row = np.zeros(t_z + t_w - 1, dtype=np.complex128)
    row[lead : lead + t_z] = s_train
    return row


def mmse_rx_beamformer(
    delay_mats: list[DelayMatrix],
    s_train: np.ndarray | ComplexSignal,
    delta: float | None = None,
    cov_source: str = "full",
    cov_mats: list[DelayMatrix] | None = None,
    eps: float = 1e-3,
) -> Beamformer:
    """Solve (C + delta*I) w = Z s_bar^H for the stacked spatiotemporal filter.

    C is Z Z^H of the stacked training-window delay matrices (cov_source
    "full"), or of separately supplied interference-plus-noise-only windows
    (cov_source "interference_only" with cov_mats, e.g. look-through data).
    delta defaults to eps * trace(C) / dim. The system is solved by Cholesky
    factorization with one step of iterative refinement, never by explicit
    inversion; the achieved relative residual is recorded on the result.
    """
    if not delay_mats:
        raise ValueError("need at least one delay matrix")
    t_w = delay_mats[0].t_w
    if any(dm.t_w != t_w for dm in delay_mats):
        raise ValueError("all delay matrices must share t_w")
    z = np.vstack([dm.data for dm in delay_mats])
    if cov_source == "full":
        c_src = z
    elif cov_source == "interference_only":
        if not cov_mats:
            raise ValueError("interference_only needs cov_mats (look-through windows)")
        if len(cov_mats) != len(delay_mats) or any(dm.t_w != t_w for dm in cov_mats):
            raise ValueError("cov_mats must match delay_mats in node count and t_w")
        c_src = np.vstack([dm.data for dm in cov_mats])
    else:
        raise ValueError(f"unknown cov_source {cov_source!r}")

    cov = c_src @ c_src.conj().T
    dim = cov.shape[0]
    if delta is None:
        delta = eps * float(np.trace(cov).real) / dim
    if delta < 0:
        raise ValueError("delta must be >= 0")

    strain = s_train.samples if isinstance(s_train, ComplexSignal) else np.asarray(s_train)
    s_bar = _pad_training_row(strain, t_w)
    if len(s_bar) != z.shape[1]:
        raise ValueError(
            f"training row length {len(strain)} inconsistent with window length "
            f"{z.shape[1] - t_w + 1}"
        )
    b = z @ np.conj(s_bar)

    a = cov + delta * np.eye(dim)
    try:
        factor = cho_factor(a)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "covariance + delta*I is numerically singular; use delta > 0"
        ) from exc
    w = cho_solve(factor, b)
    w = w + cho_solve(factor, b - a @ w)  # one refinement step
    b_norm = np.linalg.norm(b)
    resid = float(np.linalg.norm(a @ w - b) / b_norm) if b_norm > 0 else 0.0

    n_nodes = len(delay_mats)
    return Beamformer(
        weights=w.reshape(n_nodes, t_w),
        method="MMSE_RX",
        delta=float(delta),
        node_ids=tuple(dm.node_id for dm in delay_mats),
        output_delay=t_w // 2,
        solve_residual=resid,
    )


def apply_rx_beamformer(
    bf: Beamformer,
    z_all: list[ComplexSignal | np.ndarray],
    tau_hat: int | list[int] = 0,
    length: int | None = None,
) -> ComplexSignal:
    """Filter-and-sum: x[t] = sum_n (w_n^* * z_n)[t], nodes aligned at their
    tau_hat. Output sample c corresponds to window position c, so trained
    content appears shifted by bf.output_delay."""
    if bf.method not in ("MMSE_RX",):
        raise ValueError(f"apply_rx_beamformer needs an MMSE_RX beamformer, got {bf.method}")
    n = len(z_all)
    if np.atleast_2d(bf.weights).shape[0] != n:
        raise ValueError("node count mismatch between beamformer and signals")
    taus = [tau_hat] * n if isinstance(tau_hat, (int, np.integer)) else list(tau_hat)
    fs = None
    arrays = []
    for sig in z_all:
        if isinstance(sig, ComplexSignal):
            fs = sig.sample_rate_hz
            arrays.append(sig.samples)
        else:
            arrays.append(np.asarray(sig))
    if length is None:
        length = min(len(a) - t for a, t in zip(arrays, taus))
    out = np.zeros(length, dtype=np.complex128)
    for i, (arr, tau) in enumerate(zip(arrays, taus)):
        seg = arr[tau : tau + length]
        out[: len(seg)] += np.convolve(seg, np.conj(bf.node_weights(i)), mode="full")[:length]
    return ComplexSignal(out, fs or 1.0)


def stmf_beamformer(h_est: np.ndarray) -> np.ndarray:
    """Per-node transmit matched filter: the time-reversed channel estimate
    at unit l2 norm. The conjugate is applied at predistortion time, and all
    nodes share the implied (T_h - 1)-sample causality delay."""
    h = np.atleast_1d(np.asarray(h_est, dtype=np.complex128))
    norm = np.linalg.norm(h)
    if norm == 0:
        raise ValueError("zero-norm channel estimate")
    return h[::-1] / norm


def tx_null_beamformer(h_b: np.ndarray, h_c: np.ndarray, delta: float) -> np.ndarray:
    """Narrowband nulling weights w = (h_c h_c^H + delta*I)^{-1} h_b.

    Computed with the rank-one update (Sherman-Morrison) identity, then
    scaled so sum |w_n|^2 = N (unit average per-node transmit power, making
    SNR-gain comparisons against single-node monitor slots power-fair).
    """
    if delta <= 0:
        raise ValueError("delta must be > 0 (the rank-1 covariance is singular)")
    hb = np.atleast_1d(np.asarray(h_b, dtype=np.complex128))
    hc = np.atleast_1d(np.asarray(h_c, dtype=np.complex128))
    if hb.shape != hc.shape:
        raise ValueError("h_b and h_c must have the same length")
    n = len(hb)
    w = (hb - hc * (np.vdot(hc, hb) / (delta + np.vdot(hc, hc).real))) / delta
    norm = np.linalg.norm(w)
    if norm == 0:
        raise ValueError("degenerate geometry: h_b lies entirely in the nulled direction")
    return w * (np.sqrt(n) / norm)
