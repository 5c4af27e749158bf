"""Static report rendering: overlaid ROC curves as SVG plus a Markdown summary.

The SVG is built by hand so that output is byte-deterministic; RAG
curves are drawn blue, whole-text curves red. ``write_csv`` writes every
CSV the CLI writes (ROC points, cost and time tables); ``read_roc_csv`` reads ROC points.
"""

from __future__ import annotations

from pathlib import Path

WIDTH, HEIGHT = 640, 520
MARGIN_LEFT, MARGIN_RIGHT = 70, 30
MARGIN_TOP, MARGIN_BOTTOM = 40, 60

COLOR_RAG = "#1f77b4"
COLOR_LONG = "#d62728"
ROC_HEADER = "fpr,tpr"


def _x(fpr: float) -> float:
    return MARGIN_LEFT + fpr * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)


def _y(tpr: float) -> float:
    return HEIGHT - MARGIN_BOTTOM - tpr * (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)


def render_roc_svg(curves: list[tuple[str, str, list[tuple[float, float]]]], title: str = "ROC comparison") -> str:
    """Render (label, color, points) curves into one SVG document."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
    ]
    # axes box and gridlines
    for tick in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        x, y = _x(tick), _y(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_y(0):.1f}" x2="{x:.1f}" y2="{_y(1):.1f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{_x(0):.1f}" y1="{y:.1f}" x2="{_x(1):.1f}" y2="{y:.1f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_y(0) + 20:.1f}" text-anchor="middle" font-size="12">{tick:.1f}</text>'
        )
        parts.append(
            f'<text x="{_x(0) - 8:.1f}" y="{y + 4:.1f}" text-anchor="end" font-size="12">{tick:.1f}</text>'
        )
    parts.append(
        f'<rect x="{_x(0):.1f}" y="{_y(1):.1f}" width="{_x(1) - _x(0):.1f}" '
        f'height="{_y(0) - _y(1):.1f}" fill="none" stroke="black" stroke-width="1"/>'
    )
    # chance diagonal
    parts.append(
        f'<line x1="{_x(0):.1f}" y1="{_y(0):.1f}" x2="{_x(1):.1f}" y2="{_y(1):.1f}" '
        f'stroke="#999999" stroke-width="1" stroke-dasharray="6,4"/>'
    )
    # curves
    for label, color, points in curves:
        coords = " ".join(f"{_x(fpr):.2f},{_y(tpr):.2f}" for fpr, tpr in points)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
    # legend
    for i, (label, color, _) in enumerate(curves):
        ly = MARGIN_TOP + 18 + i * 20
        lx = MARGIN_LEFT + 16
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 28}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 36}" y="{ly}" font-size="13">{label}</text>')
    # axis labels
    parts.append(
        f'<text x="{(_x(0) + _x(1)) / 2:.1f}" y="{HEIGHT - 16}" text-anchor="middle" '
        f'font-size="14">False positive rate</text>'
    )
    parts.append(
        f'<text x="20" y="{(_y(0) + _y(1)) / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 20 {(_y(0) + _y(1)) / 2:.1f})">True positive rate</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_markdown(
    rows: list[dict],
    delong: dict | None = None,
    title: str = "Classification report",
) -> str:
    """Summary table in Markdown; one row per evaluated mode."""
    lines = [
        f"# {title}",
        "",
        "| Mode | Patients | AUROC | Precision | Recall | F1 | PR AUC |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for row in rows:
        lines.append(
            "| {mode} | {patients} | {auroc:.4f} | {precision:.4f} | {recall:.4f} "
            "| {f1:.4f} | {pr_auc:.4f} |".format(**row)
        )
    if delong is not None:
        lines += [
            "",
            "## Paired AUC comparison (DeLong)",
            "",
            f"- AUC difference: {delong['auc_a'] - delong['auc_b']:+.6f}",
            f"- Variance of difference: {delong['variance_of_difference']:.6g}",
            f"- z statistic: {delong['z_statistic']:.4f}",
            f"- p value: {delong['p_value']:.4f}",
        ]
    return "\n".join(lines) + "\n"


def write_csv(path: str | Path, header: str, rows) -> None:
    """``header``, then one line per row of comma-joined ``repr`` values: exact for a float, as ``str`` for an int."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")


def read_roc_csv(path: str | Path) -> list[tuple[float, float]]:
    """Read ROC points written with ``ROC_HEADER``; a missing header or a rate outside [0, 1] is a ``ValueError``."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if lines[:1] != [ROC_HEADER]:
        raise ValueError(f"first line must be the header {ROC_HEADER!r}, got {lines[:1]}")
    points = []
    for line in filter(str.strip, lines[1:]):
        fpr, tpr = map(float, line.split(","))
        if not (0 <= fpr <= 1 and 0 <= tpr <= 1):  # false for nan too
            raise ValueError(f"rates must lie in [0, 1], got {line!r}")
        points.append((fpr, tpr))
    return points
