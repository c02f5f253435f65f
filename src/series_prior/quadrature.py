"""Composite Simpson rules aligned to breakpoints.

Spline integrands are piecewise polynomials; a Simpson grid that straddles
knots loses orders of accuracy (and for order-1 splines, which jump at the
knots, never converges past O(h)). The panels here are aligned to a given
breakpoint sequence, which makes Simpson exact for piecewise cubics.
"""

from __future__ import annotations

import numpy as np


def simpson_panel_rule(breakpoints, total_points=10_000):
    """Points and weights of a breakpoint-aligned composite Simpson rule.

    Each interval between consecutive breakpoints is subdivided into an even
    number of panels, with the panel budget spread proportionally to interval
    length so that roughly ``total_points`` evaluations are used overall.

    Returns (points, weights) with integral(f) ~= weights @ f(points).
    """
    bp = np.unique(np.asarray(breakpoints, dtype=float))
    if bp.size < 2:
        raise ValueError("need at least two distinct breakpoints")
    lengths = np.diff(bp)
    span = bp[-1] - bp[0]
    pts = []
    wts = []
    for a, length in zip(bp[:-1], lengths):
        m = int(np.ceil(total_points * length / span / 2)) * 2
        m = max(m, 2)
        x = a + length * np.arange(m + 1) / m
        b = a + length
        # Integrands may jump at breakpoints (evaluation assigns a breakpoint
        # to the interval on its right); take the left limit at the panel end.
        x[-1] = np.nextafter(b, a)
        h = length / m
        w = np.full(m + 1, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        pts.append(x)
        wts.append(w * (h / 3.0))
    return np.concatenate(pts), np.concatenate(wts)

