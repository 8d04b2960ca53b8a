"""Deterministic SVG line charts (log-scale error axis), no plotting deps."""

from __future__ import annotations

import math

import numpy as np

WIDTH, HEIGHT = 840, 520
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 36, 52
FLOOR = 1e-16

PALETTE = {
    "optimal": "#1f77b4",
    "truncated": "#d62728",
    "projected": "#2ca02c",
}
FALLBACK_COLORS = ["#9467bd", "#8c564b", "#e377c2", "#7f7f7f"]


def _color(name: str, i: int) -> str:
    return PALETTE.get(name, FALLBACK_COLORS[i % len(FALLBACK_COLORS)])


def _escape(text: str) -> str:  # as xml.sax.saxutils.escape, which imports urllib.request
    text = text.translate(dict.fromkeys([*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20)], "\ufffd"))  # not XML 1.0
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks_int(lo: int, hi: int, target: int = 8) -> list[int]:
    span = max(hi - lo, 1)
    step = max(1, int(round(span / target)))
    ticks = list(range(lo, hi + 1, step))
    if ticks[-1] != hi:
        ticks.append(hi)
    return ticks


def error_chart(ks: np.ndarray, series: dict[str, np.ndarray], title: str = "") -> str:
    """SVG line chart of normalised errors versus k, one polyline per method.

    NaN cells break the line, and text is escaped.  Output is byte-deterministic
    for identical inputs (fixed canvas, two-decimal coordinates).
    """
    ks = np.asarray(ks, dtype=float)
    finite = [v[np.isfinite(v)] for v in series.values()]
    allv = np.concatenate([v for v in finite if v.size] or [np.array([1.0])])
    allv = np.clip(allv, FLOOR, None)
    lo_exp = math.floor(math.log10(float(np.min(allv))))
    hi_exp = math.ceil(math.log10(float(np.max(allv))))
    if hi_exp <= lo_exp:
        hi_exp = lo_exp + 1
    x0, x1 = float(np.min(ks)), float(np.max(ks))
    if x1 <= x0:
        x1 = x0 + 1.0
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(k: float) -> float:
        return MARGIN_L + plot_w * (k - x0) / (x1 - x0)

    def sy(v: float) -> float:
        e = math.log10(max(v, FLOOR))
        return MARGIN_T + plot_h * (hi_exp - e) / (hi_exp - lo_exp)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.2f}" y="20" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15">{_escape(title)}</text>',
    ]
    # Axes frame
    out.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>'
    )
    # y ticks: one per decade (thinned if crowded)
    decades = list(range(lo_exp, hi_exp + 1))
    dec_step = max(1, len(decades) // 10)
    for e in decades[::dec_step]:
        y = sy(10.0**e)
        out.append(
            f'<line x1="{MARGIN_L}" y1="{y:.2f}" x2="{WIDTH - MARGIN_R}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{MARGIN_L - 6}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{e:d}</text>'
        )
    for k in _ticks_int(int(x0), int(x1)):
        x = sx(k)
        out.append(
            f'<line x1="{x:.2f}" y1="{HEIGHT - MARGIN_B}" x2="{x:.2f}" '
            f'y2="{HEIGHT - MARGIN_B + 5}" stroke="#444444" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{k:d}</text>'
        )
    out.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.2f}" y="{HEIGHT - 12}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">rank bound k</text>'
    )
    out.append(
        f'<text x="16" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {(MARGIN_T + HEIGHT - MARGIN_B) / 2:.2f})">'
        f"normalized error</text>"
    )
    # Series
    for i, (name, vals) in enumerate(series.items()):
        color = _color(name, i)
        segments: list[list[str]] = [[]]
        for k, v in zip(ks, np.asarray(vals, dtype=float)):
            if np.isfinite(v):
                segments[-1].append(f"{sx(k):.2f},{sy(max(v, FLOOR)):.2f}")
            elif segments[-1]:
                segments.append([])
        for seg in segments:
            if len(seg) >= 2:
                out.append(
                    f'<polyline points="{" ".join(seg)}" fill="none" stroke="{color}" '
                    f'stroke-width="1.8"/>'
                )
            elif len(seg) == 1:
                x, y = seg[0].split(",")
                out.append(f'<circle cx="{x}" cy="{y}" r="2.5" fill="{color}"/>')
        ly = MARGIN_T + 16 + 16 * i
        lx = WIDTH - MARGIN_R - 150
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 26}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        out.append(
            f'<text x="{lx + 32}" y="{ly}" font-family="sans-serif" font-size="12">{_escape(name)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
