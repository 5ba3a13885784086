"""Independent reference solution of the torque equation dX/dt = W(t) x X.

The benchmark checks every final state the program reports against this
reference.  It shares no code with the package: the pulse shapes, the
integration window and the per-system field table are restated here from
the physics (README table), and the propagation is a product of exact
midpoint rotations on a grid ``REFINE`` times finer than the program's,
composed with numpy in chunks.  At B0 = 40 it agrees with an adaptive
solution at rtol 1e-12 to about 3e-9, far below the program's own error
(rk4 at 4096 steps is about 1.5e-5 off there).
"""

from __future__ import annotations

import numpy as np

#: W(t) = (cx * p(t), 0, cz * s(t)) per system, with the default couplings.
W_FACTORS = {
    "quantum": (0.5, 0.5),
    "lorentz": (1.0, -1.0),
    "magnetization": (1.0, -1.0),
    "coriolis": (2.0, -2.0),
}

#: Reference grid refinement over the program's grid.
REFINE = 16

#: Window half-padding in pulse widths around the outermost pulse center.
WINDOW_PAD = 6.0

_CHUNK = 4096


def window(tau, width=1.0):
    """Integration window of a delay-``tau`` schedule: p at -tau/2, s at +tau/2."""
    half = abs(tau) / 2.0
    return (-half - WINDOW_PAD * width, half + WINDOW_PAD * width)


def _rotations(w, h):
    """(n, 3, 3) Rodrigues matrices rotating about each row of ``w`` by |w| h."""
    wn = np.linalg.norm(w, axis=1)
    k = w / np.where(wn > 0.0, wn, 1.0)[:, None]
    ang = wn * h
    kx = np.zeros((w.shape[0], 3, 3))
    kx[:, 0, 1], kx[:, 0, 2] = -k[:, 2], k[:, 1]
    kx[:, 1, 0], kx[:, 1, 2] = k[:, 2], -k[:, 0]
    kx[:, 2, 0], kx[:, 2, 1] = -k[:, 1], k[:, 0]
    return (
        np.eye(3)
        + np.sin(ang)[:, None, None] * kx
        + (1.0 - np.cos(ang))[:, None, None] * (kx @ kx)
    )


def _compose(mats):
    """Product mats[n-1] @ ... @ mats[0] by pairwise reduction."""
    while mats.shape[0] > 1:
        if mats.shape[0] % 2:
            tail = mats[-1] @ mats[-2]
            mats = np.concatenate([mats[:-2], tail[None]])
            continue
        mats = mats[1::2] @ mats[0::2]
    return mats[0]


def final_state(system, b0, tau, x0=(0.0, 0.0, 1.0), steps=4096, width=1.0, span=None):
    """Final state after driving ``x0`` with the delay-``tau`` Gaussian pair.

    Both pulses have peak ``b0`` and the given width; ``span`` overrides the
    integration window (the amplitude scan keeps one shared window).
    """
    cx, cz = W_FACTORS[system]
    lo, hi = window(tau, width) if span is None else span
    n = steps * REFINE
    h = (hi - lo) / n
    total = np.eye(3)
    for start in range(0, n, _CHUNK):
        t = lo + (np.arange(start, min(start + _CHUNK, n)) + 0.5) * h
        w = np.zeros((t.size, 3))
        w[:, 0] = cx * b0 * np.exp(-(((t + tau / 2.0) / width) ** 2))
        w[:, 2] = cz * b0 * np.exp(-(((t - tau / 2.0) / width) ** 2))
        total = _compose(_rotations(w, h)) @ total
    return total @ np.asarray(x0, dtype=float)
