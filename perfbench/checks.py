"""Output checks computed apart from the program.

Only numpy and the standard library are used here; nothing is imported
from kronlift.  Each check returns a list of problems, empty when the
output passes.  The lift, the spectra and the autoencoder forward pass are
recomputed from the input CSV with different code (a per-column
np.kron, SVDs in place of eigensolvers, a plain sigmoid).

Tolerances, fixed before measuring, from float64 round-off:
  - LES_RTOL: eigvalsh against squared singular values, plus the floor
    clamp of the dim - N' structural zeros (each under 1e-10 in LES);
  - MSR_RTOL: an eigh-based PSD root against an SVD-based one, carried
    through a non-normal eigenproblem, whose eigenvalue moduli move by far
    more than the input perturbation;
  - EIG_ATOL: eigenvalues of a symmetric matrix, relative to the largest;
  - RMSE_RTOL: a sigmoid written as 1/(1+exp(-z)) against the program's
    branch-stable form.
"""

from __future__ import annotations

import hashlib
import json
from functools import reduce
from pathlib import Path

import numpy as np

LES_RTOL = 1e-8
MSR_RTOL = 1e-6
EIG_ATOL = 1e-9
RMSE_RTOL = 1e-9
EIGENVALUE_FLOOR = 1e-12  # the LES floor, part of the LES definition
SPIKE_RATIO = 5.0  # acceptance target c6a


def read_matrix(path: Path) -> tuple[int, np.ndarray]:
    """(t0, channels x samples) from the CSV layout of kronlift synth."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return int(rows[0, 0]), rows[:, 1:].T


def lift_columns(X: np.ndarray, k: int, n: int) -> np.ndarray:
    """Kronecker lift of each column, unit norm, one np.kron per column."""
    out = np.empty((n**k, X.shape[1]))
    for j, col in enumerate(X.T):
        segs = [s / np.linalg.norm(s) for s in col.reshape(k, n)]
        out[:, j] = reduce(np.kron, segs)
    return out


def window(t0: int, X: np.ndarray, t: int, width: int, k: int, n: int,
           residual: bool) -> np.ndarray:
    """Lifted (sqrt-dim scaled) window of width columns ending at time t."""
    j = t - t0
    if residual:
        cols = X[:, j - width + 1:j + 1] - X[:, j - width:j]
    else:
        cols = X[:, j - width + 1:j + 1]
    return lift_columns(cols, k, n) * np.sqrt(n**k)


def covariance_spectrum(W: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of W W^T / N' from the singular values of W."""
    dim, n_cols = W.shape
    s = np.linalg.svd(W, compute_uv=False)
    lam = np.zeros(dim)
    lam[: s.size] = s**2 / n_cols
    return np.sort(lam)


def les_entropy(lam: np.ndarray) -> float:
    lam = np.clip(lam, EIGENVALUE_FLOOR, None)
    return float(-np.sum(lam * np.log(lam)))


def haar(p: int, seed: tuple) -> np.ndarray:
    """Ginibre-QR Haar unitary keyed by (seed, t), phases fixed by diag(R)."""
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)))
    q, r = np.linalg.qr(g / np.sqrt(2.0))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def msr_of_window(W: np.ndarray, seed: tuple) -> float:
    """Mean spectral radius of the ring matrix, in rows <= columns form."""
    A = W if W.shape[0] <= W.shape[1] else W.T
    p, q = A.shape
    Z = (A - A.mean(axis=1, keepdims=True)) / A.std(axis=1, keepdims=True)
    U, s, _ = np.linalg.svd(Z, full_matrices=False)
    root = (U * s) @ U.T  # PSD square root of Z Z^T
    Xu = root @ haar(p, seed)
    Xu = Xu / np.sqrt(q * Xu.var(axis=1))[:, None]
    return float(np.mean(np.abs(np.linalg.eigvals(Xu))))


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_manifest(out: Path, inputs: dict[str, Path]) -> list[str]:
    """(f) every sha256 in manifest.json matches its file."""
    try:
        doc = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{out.name}: no readable manifest ({exc})"]
    if not doc.get("outputs"):
        return [f"{out.name}: manifest lists no outputs"]
    listed = [(name, out / name, want)
              for name, want in doc["outputs"].items()]
    problems = []
    for name, want in doc.get("inputs", {}).items():
        if name in inputs:
            listed.append((name, inputs[name], want))
        else:
            problems.append(f"{out.name}: unexpected manifest input {name}")
    for name, path, want in listed:
        try:
            got = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError as exc:
            problems.append(f"{out.name}: {name} unreadable ({exc})")
            continue
        if got != want:
            problems.append(f"{out.name}: sha256 of {name} differs")
    return problems


def check_detect_rmt(out: Path, data: tuple, w, det: dict, k: int,
                     n: int) -> list[str]:
    """(a) LES, (b) MSR of the sampled windows, (d) alarms at the onset."""
    problems = []
    t0, X = data
    header, rows = read_csv(out / "curves.csv")
    if header != ["t", "les_raw", "les_norm", "msr_raw", "msr_norm"]:
        return [f"curves.csv header {header}"]
    by_t = {int(r[0]): r for r in rows}
    width = int(det["window_width"])
    residual = bool(det["use_residual"])
    for t in w.check_times:
        if t not in by_t:
            problems.append(f"curves.csv has no window t={t}")
            continue
        W = window(t0, X, t, width, k, n, residual)
        les_ref = les_entropy(covariance_spectrum(W))
        if not _close(by_t[t][1], les_ref, LES_RTOL):
            problems.append(f"LES at t={t}: {by_t[t][1]!r} vs SVD {les_ref!r}")
        msr_ref = msr_of_window(W, (int(det["seed"]), t))
        if not _close(by_t[t][3], msr_ref, MSR_RTOL):
            problems.append(f"MSR at t={t}: {by_t[t][3]!r} vs {msr_ref!r}")

    alarms = [json.loads(line) for line in
              (out / "alarms.jsonl").read_text(encoding="utf-8").splitlines()]
    lo, hi = w.alarm_window
    for kind in w.alarm_kinds:
        first = min((a["t"] for a in alarms
                     if a["indicator"] == kind and a["t"] >= lo), default=None)
        if first is None or first > hi:
            problems.append(f"first {kind} alarm from t={lo} on is at {first}, "
                            f"not in [{lo}, {hi}]")
    return problems


def check_esd(out: Path, data: tuple, t: int, width: int, k: int, n: int,
              residual: bool) -> list[str]:
    """(c) histogram against the SVD spectrum; ring size min(dim, N')."""
    t0, X = data
    W = window(t0, X, t, width, k, n, residual)
    lam = covariance_spectrum(W)
    _, hist = read_csv(out / "histogram.csv")
    hist = hist.ravel()
    problems = []
    if hist.size != lam.size:
        return [f"histogram has {hist.size} eigenvalues, dim is {lam.size}"]
    err = np.max(np.abs(np.sort(hist) - lam))
    if err > EIG_ATOL * lam[-1]:
        problems.append(f"histogram eigenvalues off by {err:.3e} "
                        f"(largest {lam[-1]:.3e})")
    _, ring = read_csv(out / "ring_scatter.csv")
    if ring.shape[0] != min(W.shape):
        problems.append(f"ring scatter has {ring.shape[0]} points, "
                        f"expected min(dim, N') = {min(W.shape)}")
    return problems


def _sigmoid(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def sae_scores(model_path: Path, data: tuple, k: int, n: int,
               first_t: int) -> np.ndarray:
    """Per-sample RMSE from t = first_t on, from model.json alone."""
    doc = json.loads(model_path.read_text(encoding="utf-8"))
    t0, X = data
    L = lift_columns(X[:, first_t - t0:], k, n)
    sc = doc["scaler"]
    lo = np.asarray(sc["lo"])
    span = np.asarray(sc["span"])
    flagged = np.asarray(sc["flagged"], dtype=bool)
    S = (L - lo[:, None]) / np.where(flagged, 1.0, span)[:, None]
    S[flagged, :] = 0.5
    a = S.T
    for Wl, bl in zip(doc["weights"], doc["biases"]):
        a = _sigmoid(a @ np.asarray(Wl) + np.asarray(bl))
    return np.sqrt(np.mean((a - S.T) ** 2, axis=1))


def check_sae_train(out: Path, data: tuple, k: int, n: int,
                    train_span: tuple, onset: int) -> list[str]:
    """(e) rmse.csv from model.json; spike at onset >= 5x the median."""
    problems = []
    _, rows = read_csv(out / "rmse.csv")
    times, rmse = rows[:, 0].astype(int), rows[:, 1]
    if times[0] != train_span[1] + 1:
        problems.append(f"rmse.csv starts at t={times[0]}")
    ref = sae_scores(out / "model.json", data, k, n, int(times[0]))
    if ref.shape != rmse.shape or not np.allclose(rmse, ref, rtol=RMSE_RTOL,
                                                  atol=0.0):
        problems.append("rmse.csv differs from the forward pass of model.json")
    pre = rmse[(times > train_span[1]) & (times < onset)]
    post = rmse[(times >= onset) & (times < onset + 20)]
    ratio = float(np.max(post) / np.median(pre))
    if not ratio >= SPIKE_RATIO:
        problems.append(f"onset spike {ratio:.2f}x the pre-onset median")
    return problems


def check_sae_score(out: Path, train_out: Path) -> list[str]:
    """(e) checkpoint scoring equals the training run's scores."""
    got = (out / "rmse.csv").read_bytes()
    if got != (train_out / "rmse.csv").read_bytes():
        return ["checkpoint scores differ from the training run's scores"]
    return []


def same_outputs(a: Path, b: Path) -> list[str]:
    """Every output file listed in a's manifest is byte-identical in b."""
    doc = json.loads((a / "manifest.json").read_text(encoding="utf-8"))
    problems = []
    for name in doc["outputs"]:
        try:
            if (a / name).read_bytes() != (b / name).read_bytes():
                problems.append(f"traced {b.name}/{name} differs")
        except OSError as exc:
            problems.append(f"traced {b.name}/{name}: {exc}")
    return problems
