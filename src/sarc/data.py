"""Dataset loading: LIBSVM text files and a synthetic logistic generator."""

from __future__ import annotations

import math
import re

import numpy as np
import scipy.sparse as sp

from .problems import Dataset, check_integer

_TOKEN = re.compile(r"\S+")


class LibsvmFormatError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _finite_float(text: str, what: str, line: int, column: int) -> float:
    """The float a label or value token spells; raises at its position when
    it is malformed or not finite (nan, inf, or an overflow like 1e400)."""
    try:
        v = float(text)
    except ValueError:
        raise LibsvmFormatError(line, column, f"bad {what} {text!r}") from None
    if not math.isfinite(v):
        raise LibsvmFormatError(line, column, f"non-finite {what} {text!r}")
    return v


def parse_libsvm(path: str, n_features: int | None = None) -> Dataset:
    """Parse 'label idx:val idx:val ...' lines into a sparse Dataset.

    Indices are 1-based in the file and 0-based in memory, in any order but
    at most once per line. d is the largest index seen unless `n_features`
    overrides it. Labels are kept as-is when already in {-1,+1}; otherwise
    the common encodings 0 -> -1 and 2 -> -1 are applied (1 stays +1), and
    anything else is rejected. A malformed or non-finite token raises
    LibsvmFormatError at its line and column.
    """
    labels: list[float] = []
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    max_idx = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = _TOKEN.finditer(line)
            first = next(tokens, None)
            if first is None:
                continue
            label = _finite_float(first.group(), "label", lineno, first.start() + 1)
            row = len(labels)
            labels.append(label)
            seen: set[int] = set()
            for m in tokens:
                tok = m.group()
                col0 = m.start() + 1
                idx_s, sep, val_s = tok.partition(":")
                if not sep:
                    raise LibsvmFormatError(lineno, col0, f"expected idx:val, got {tok!r}")
                try:
                    idx = int(idx_s)
                except ValueError:
                    raise LibsvmFormatError(lineno, col0, f"bad index {idx_s!r}") from None
                if idx < 1:
                    raise LibsvmFormatError(lineno, col0, "indices are 1-based")
                if idx in seen:
                    raise LibsvmFormatError(lineno, col0, f"repeated index {idx}")
                seen.add(idx)
                val = _finite_float(val_s, "value", lineno, col0 + len(idx_s) + 1)
                rows.append(row)
                cols.append(idx - 1)
                vals.append(val)
                max_idx = max(max_idx, idx)
    if not labels:
        raise LibsvmFormatError(0, 0, "empty file")
    if n_features is not None:
        if max_idx > n_features:
            raise ValueError(f"index {max_idx} exceeds n_features={n_features}")
        d = n_features
    else:
        d = max(max_idx, 1)

    b = np.array(labels)
    present = np.unique(b)
    if not np.all(np.isin(present, (-1.0, 1.0))):
        mapped = {0.0: -1.0, 2.0: -1.0, 1.0: 1.0, -1.0: -1.0}
        unknown = [v for v in present if v not in mapped]
        if unknown:
            raise ValueError(f"cannot map labels {unknown} to {{-1,+1}}")
        b = np.array([mapped[v] for v in b])

    A = sp.csr_matrix(
        (np.array(vals), (np.array(rows), np.array(cols))), shape=(len(labels), d)
    )
    return Dataset(A, b)


def synth_logistic(
    n: int, d: int, seed: int, skew: float, scale: float = 1.0
) -> Dataset:
    """Gaussian rows with one row scaled by `skew`, labels from a planted
    parameter with 10% flips. Counter-based stream, so a fixed seed gives a
    byte-identical dataset.

    `scale` sets the base row magnitude; small values keep the per-component
    curvature bounds small, which makes the concentration sample sizes bite
    below n at desk scale.
    """
    for name, value in (("n", n), ("d", d), ("seed", seed)):
        check_integer(name, value)
    if n < 1 or d < 1:
        raise ValueError("need n, d >= 1")
    if not 0 <= seed < 2**128:  # the width of a Philox key
        side = ">= 0" if seed < 0 else "< 2**128"
        raise ValueError(f"seed must be {side}, got {seed}")
    for name, value in (("skew", skew), ("scale", scale)):
        if not 0.0 < value < math.inf:  # nan fails too
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    rng = np.random.default_rng(np.random.Philox(key=seed))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
        A = rng.standard_normal((n, d))
        A *= scale  # IEEE products commute: the bits of scale * A, without a copy
        A[0] *= skew
        w = rng.standard_normal(d) / np.sqrt(d)
        margins = A @ w
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(margins))):
        raise ValueError(f"skew={skew} and scale={scale} overflow the data")
    b = np.where(margins >= 0.0, 1.0, -1.0)
    flips = rng.random(n) < 0.1
    b[flips] *= -1.0
    return Dataset.from_dense(A, b)
