"""Beamformer construction and application.

Three constructions are provided: a spatiotemporal MMSE receive beamformer
with diagonal loading (covariance from the training window or from
interference-plus-noise-only data), a per-node transmit matched filter
(time-reversed channel estimate at unit norm), and narrowband transmit
nulling weights via a regularized rank-one-update solve.

A receive cycle's beamformers over its n nodes form one (n + 1, n, t_w)
weights array: row b < n is node b's single-node filter, zero off node b,
and row n the all-node one. mmse_rx_beamformers builds it from one Gram
matrix of the stacked node windows (their lagged cross-correlations),
solving each single-node filter on a diagonal block and the all-node one on
the whole, and rx_output_powers measures every row's segment powers in one
filtering pass per node, shifted by the MMSE output delay t_w // 2 (where
_pad_training_row puts the training row), plus its white-noise gain as a
quadratic form. The delay-matrix functions (build_delay_matrix,
mmse_rx_beamformer, apply_rx_beamformer) are the direct forms of the same
computations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import ComplexSignal, Segment, _conv_matrix

__all__ = [
    "DelayMatrix",
    "Beamformer",
    "build_delay_matrix",
    "mmse_rx_beamformer",
    "mmse_rx_beamformers",
    "apply_rx_beamformer",
    "rx_output_powers",
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
    t_w: int


def build_delay_matrix(
    z: ComplexSignal,
    tau_hat: int,
    t_z: int,
    t_w: int,
    node_id: str = "",
) -> DelayMatrix:
    """Entry (r, c) = z[tau_hat + c - r] when 0 <= c - r < t_z, else 0."""
    if t_w < 1 or t_z < 1:
        raise ValueError("t_w and t_z must be >= 1")
    window = z.samples[tau_hat : tau_hat + t_z]
    if len(window) != t_z:
        raise ValueError("window [tau_hat, tau_hat + t_z) not inside signal")
    data = _conv_matrix(window, t_w).T
    return DelayMatrix(data=data, node_id=node_id, t_w=t_w)


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
    s_train: np.ndarray,
    delta: float | None = None,
    eps: float = 1e-3,
) -> Beamformer:
    """Solve (C + delta*I) w = Z s_bar^H for the stacked spatiotemporal filter.

    C is Z Z^H of the stacked training-window delay matrices Z.
    delta defaults to eps * trace(C) / dim. The system is solved by one
    np.linalg.solve with one step of iterative refinement, never by explicit
    inversion; the achieved relative residual is recorded on the result.
    """
    if not delay_mats:
        raise ValueError("need at least one delay matrix")
    t_w = delay_mats[0].t_w
    if any(dm.t_w != t_w for dm in delay_mats):
        raise ValueError("all delay matrices must share t_w")
    z = np.vstack([dm.data for dm in delay_mats])
    s_bar = _pad_training_row(s_train, t_w)
    if len(s_bar) != z.shape[1]:
        raise ValueError(
            f"training row length {len(s_train)} inconsistent with window length "
            f"{z.shape[1] - t_w + 1}"
        )
    w, deltas, resids = _mmse_solve((z @ z.conj().T)[None], (z @ np.conj(s_bar))[None], delta, eps)
    return Beamformer(
        weights=w[0].reshape(len(delay_mats), t_w),
        method="MMSE_RX",
        delta=float(deltas[0]),
        node_ids=tuple(dm.node_id for dm in delay_mats),
        output_delay=t_w // 2,
        solve_residual=float(resids[0]),
    )


def _mmse_solve(cov: np.ndarray, b: np.ndarray, delta: float | None, eps: float):
    """Solve (cov[k] + delta_k*I) w[k] = b[k] for a stack of k systems of one
    size: one np.linalg.solve on the stack and one step of iterative
    refinement, the same call on the residual, never explicit inversion.
    delta_k is delta, or eps * trace(cov[k]) / dim when delta is None.
    Returns (w, the delta_k, each achieved relative residual)."""
    if not (np.isfinite(cov).all() and np.isfinite(b).all()):
        raise ValueError("the covariance and the cross-vector must be finite")
    dim = cov.shape[-1]
    if delta is None:
        deltas = eps * np.trace(cov, axis1=-2, axis2=-1).real / dim
    else:
        deltas = np.full(len(cov), float(delta))
    if np.any(deltas < 0):
        raise ValueError("delta must be >= 0")
    a = cov.copy()
    diag = np.arange(dim)
    a[:, diag, diag] += deltas[:, None]
    try:
        if np.any(np.linalg.cond(a[deltas == 0]) > 1e12):  # solve raises only on an exact zero pivot
            raise np.linalg.LinAlgError("numerically singular")
        w = np.linalg.solve(a, b[..., None])[..., 0]
        w = w + np.linalg.solve(a, (b - _matvec(a, w))[..., None])[..., 0]  # one refinement step
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "covariance + delta*I is numerically singular; use delta > 0"
        ) from exc
    b_norm = np.linalg.norm(b, axis=-1)
    r_norm = np.linalg.norm(_matvec(a, w) - b, axis=-1)
    resid = np.divide(r_norm, b_norm, out=np.zeros_like(r_norm), where=b_norm > 0)
    return w, deltas, resid


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m[k] @ v[k] for every k."""
    return (m @ v[..., None])[..., 0]


def _windows(z: np.ndarray, taus: np.ndarray, offset: int, length: int) -> np.ndarray:
    """Row i is z[i, taus[i] + offset : taus[i] + offset + length]."""
    starts = taus + offset
    if np.any(starts < 0) or np.any(starts + length > z.shape[1]):
        raise ValueError(f"window [{offset}, {offset + length}) past a lag not inside the signals")
    return np.array([row[s : s + length] for row, s in zip(z, starts)])


def _lagged_products(a: np.ndarray, b: np.ndarray, lags) -> np.ndarray:
    """out[k, i, j] = sum_t a[i, t] * conj(b[j, t + lags[k]]) over the t where
    both rows hold samples (rows of equal length): zero once |lags[k]| reaches
    the row length."""
    n = a.shape[1]
    out = np.empty((len(lags), len(a), len(b)), dtype=np.complex128)
    for k, m in enumerate(lags):
        overlap = max(n - abs(m), 0)
        for i, ai in enumerate(a[:, max(0, -m) :][:, :overlap]):
            for j, bj in enumerate(b[:, max(0, m) :][:, :overlap]):
                out[k, i, j] = np.vdot(bj, ai)
    return out


def mmse_rx_beamformers(
    z: np.ndarray,
    taus,
    s_train: np.ndarray,
    t_w: int,
    cov_window: tuple[int, int] | None = None,
    eps: float = 1e-3,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every node's single-node MMSE receive filter, then the all-node one, as
    (weights, deltas, residuals) over the n rows of z: weights[b] for b < n
    holds node b's filter at [b, b] and zeros elsewhere, weights[n] the
    all-node filter, and deltas and residuals follow the rows of weights.

    Node i's training window is z[i, taus[i] : taus[i] + len(s_train)] and its
    covariance window starts cov_window = (offset, length) after taus[i], or
    is the training window when cov_window is None. Each row solves
    mmse_rx_beamformer's system with the default delta, C taken over the
    covariance windows (with no cov_window, the row is mmse_rx_beamformer's),
    but no delay matrix is built: the stacked covariance Z Z^H is
    block-Toeplitz, entry ((i, r), (j, s)) being the cross-correlation of
    windows i and j at lag r - s, and the cross-vector Z s_bar^H holds the
    training windows' correlations with the training row. The single-node
    systems are the diagonal blocks of the all-node one.
    """
    z = np.atleast_2d(z)
    taus = np.asarray(taus, dtype=np.int64)
    n = z.shape[0]
    if t_w < 1:
        raise ValueError("t_w must be >= 1")
    if len(taus) != n:
        raise ValueError("need one lag per signal")
    s = np.asarray(s_train, dtype=np.complex128)
    train = _windows(z, taus, 0, len(s))
    cov_src = train if cov_window is None else _windows(z, taus, *cov_window)

    r = _lagged_products(cov_src, cov_src, range(t_w))
    r = np.concatenate([r[:0:-1].conj().transpose(0, 2, 1), r])  # lags 1 - t_w .. t_w - 1: R[-m] = R[m]^H
    lag = np.subtract.outer(np.arange(t_w), np.arange(t_w)) + t_w - 1
    cov = r[lag].transpose(2, 0, 3, 1).reshape(n * t_w, n * t_w)  # [(i, r), (j, s)] = R[r - s][i, j]
    # s_bar puts the training row t_w // 2 samples into the padded window
    b = _lagged_products(train, s[None, :], np.arange(t_w) - t_w // 2)[:, :, 0].T.ravel()

    # node i's system is diagonal block i of the mesh one; the n of them solve as one stack
    nodes = np.arange(n)
    weights = np.zeros((n + 1, n, t_w), dtype=np.complex128)
    w, deltas, resids = _mmse_solve(cov.reshape(n, t_w, n, t_w)[nodes, :, nodes], b.reshape(n, t_w), None, eps)
    weights[nodes, nodes] = w
    w, mesh_delta, mesh_resid = _mmse_solve(cov[None], b[None], None, eps)
    weights[n] = w.reshape(n, t_w)
    return weights, np.append(deltas, mesh_delta), np.append(resids, mesh_resid)


def apply_rx_beamformer(
    bf: Beamformer,
    z_all: list[np.ndarray],
    tau_hat: int | list[int] = 0,
    length: int | None = None,
) -> np.ndarray:
    """Filter-and-sum: x[t] = sum_n (w_n^* * z_n)[t], nodes aligned at their
    tau_hat. Output sample c corresponds to window position c, so trained
    content appears shifted by bf.output_delay."""
    if bf.method not in ("MMSE_RX",):
        raise ValueError(f"apply_rx_beamformer needs an MMSE_RX beamformer, got {bf.method}")
    n = len(z_all)
    weights = np.atleast_2d(bf.weights)
    if weights.shape[0] != n:
        raise ValueError("node count mismatch between beamformer and signals")
    taus = [tau_hat] * n if isinstance(tau_hat, (int, np.integer)) else list(tau_hat)
    if length is None:
        length = min(len(z) - t for z, t in zip(z_all, taus))
    out = np.zeros(length, dtype=np.complex128)
    for i, (z, tau) in enumerate(zip(z_all, taus)):
        seg = z[tau : tau + length]
        out[: len(seg)] += np.convolve(seg, np.conj(weights[i]), mode="full")[:length]
    return out


# Output samples per block of the segment-power pass: long enough to amortize
# the per-block calls, short enough that a block's outputs stay in cache.
_POWER_BLOCK = 4096


def rx_output_powers(
    weights: np.ndarray,
    z: np.ndarray,
    taus,
    segments: tuple[Segment, ...],
    noise_gram: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Segment powers and white-noise gains of the receive filters weights[b],
    each of shape (n_nodes, t_w), over the same node signals (row i of z
    aligned at taus[i]), as mmse_rx_beamformers returns them.

    powers[b, k] is what metrics.segment_power reads from the filter-and-sum
    output of weights[b] (apply_rx_beamformer) over segments[k] shifted by
    the MMSE output delay t_w // 2, samples before a node's tau counting as
    zero. Each node's contribution to every output is one product with a
    strided (t_w, samples) view of its signal over the segments only,
    accumulated in blocks. gains[b] is sum_n w_n^H P w_n for the (t_w, t_w)
    noise_gram P: with P = G^H G for G the convolution matrix of the receive
    pulse, it is the output power of unit white antenna noise.
    """
    z = np.atleast_2d(z)
    n, n_samples = z.shape
    if len(taus) != n or weights.shape[1] != n:
        raise ValueError("need one lag and one weights column per signal")
    t_w = weights.shape[2]
    shift = t_w // 2
    gains = np.einsum("bnk,kl,bnl->b", weights.conj(), noise_gram, weights).real
    # row m of a node's view at output sample c holds z[tau + c - (t_w - 1) + m],
    # the sample that tap t_w - 1 - m weighs
    taps = weights.conj()[:, :, ::-1]

    powers = np.zeros((len(weights), len(segments)))
    for k, seg in enumerate(segments):
        start, stop = seg.offset + shift, seg.offset + shift + seg.length
        if start < 0 or max(taus) + stop > n_samples:
            raise ValueError(f"segment {seg.name!r} [{start}, {stop}) outside the signals")
        views = []
        for i, tau in enumerate(taus):
            lo = tau + start - (t_w - 1)
            x = z[i, max(lo, tau) : tau + stop]
            if lo < tau:  # the filter reaches back before tau: zero fill
                x = np.concatenate([np.zeros(tau - lo, dtype=z.dtype), x])
            views.append(np.lib.stride_tricks.sliding_window_view(x, t_w).T)
        for c in range(0, seg.length, _POWER_BLOCK):
            y = sum(taps[:, i] @ v[:, c : c + _POWER_BLOCK] for i, v in enumerate(views))
            powers[:, k] += np.sum(y.real**2 + y.imag**2, axis=1)
        powers[:, k] /= seg.length
    return powers, gains


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
