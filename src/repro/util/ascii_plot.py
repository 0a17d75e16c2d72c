"""ASCII line plots for experiment "figures".

The paper reproduction runs offline with no plotting stack, so each figure
is rendered as a terminal scatter/line chart.  The charts are intentionally
coarse — their job is to make scaling shapes (linear vs. logarithmic growth,
crossovers) visible in CI logs, not to be publication graphics.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

_MARKERS = "ox+*#@%&"


def line_plot(
    series: "Mapping[str, tuple[Sequence[float], Sequence[float]]]",
    *,
    width: int = 64,
    height: int = 18,
    title: "str | None" = None,
    logx: bool = False,
    logy: bool = False,
) -> str:
    """Render one or more ``name -> (xs, ys)`` series on a shared canvas.

    Each series gets a distinct marker; a legend line maps markers to names.
    ``logx``/``logy`` plot the data on logarithmic axes (data must then be
    strictly positive).
    """
    if not series:
        raise ValueError("line_plot needs at least one series")
    if width < 8 or height < 4:
        raise ValueError("canvas too small; need width >= 8 and height >= 4")

    transformed: dict[str, tuple[list[float], list[float]]] = {}
    for name, (xs, ys) in series.items():
        if len(xs) != len(ys):
            raise ValueError(f"series {name!r} has mismatched x/y lengths")
        if len(xs) == 0:
            raise ValueError(f"series {name!r} is empty")
        txs = [_axis_value(x, logx, name, "x") for x in xs]
        tys = [_axis_value(y, logy, name, "y") for y in ys]
        transformed[name] = (txs, tys)

    all_x = [x for xs, _ in transformed.values() for x in xs]
    all_y = [y for _, ys in transformed.values() for y in ys]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    canvas = [[" "] * width for _ in range(height)]
    for index, (name, (xs, ys)) in enumerate(transformed.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        for x, y in zip(xs, ys):
            col = int(round((x - x_lo) / x_span * (width - 1)))
            row = int(round((y - y_lo) / y_span * (height - 1)))
            canvas[height - 1 - row][col] = marker

    lines = []
    if title:
        lines.append(title)
    y_top = _axis_label(y_hi, logy)
    y_bot = _axis_label(y_lo, logy)
    label_width = max(len(y_top), len(y_bot))
    for i, row in enumerate(canvas):
        if i == 0:
            prefix = y_top.rjust(label_width)
        elif i == height - 1:
            prefix = y_bot.rjust(label_width)
        else:
            prefix = " " * label_width
        lines.append(f"{prefix} |{''.join(row)}")
    lines.append(" " * label_width + " +" + "-" * width)
    x_left = _axis_label(x_lo, logx)
    x_right = _axis_label(x_hi, logx)
    gap = max(1, width - len(x_left) - len(x_right))
    lines.append(" " * (label_width + 2) + x_left + " " * gap + x_right)
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {name}" for i, name in enumerate(transformed)
    )
    lines.append("legend: " + legend)
    return "\n".join(lines)


def _axis_value(value: float, log: bool, name: str, axis: str) -> float:
    if log:
        if value <= 0:
            raise ValueError(
                f"series {name!r} has non-positive {axis} value {value} on a log axis"
            )
        return math.log10(value)
    return float(value)


def _axis_label(value: float, log: bool) -> str:
    if log:
        return f"{10 ** value:.3g}"
    return f"{value:.3g}"
