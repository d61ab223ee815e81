#!/usr/bin/env python3
"""Plot the paper's figures from `ech-bench` output.

Usage:
    cargo run -p ech-bench --release -- --only fig7_selective_reintegration > fig7.txt
    python3 tools/plot_figures.py fig7 fig7.txt fig7.png

    cargo run -p ech-cli --release -- three-phase --mode selective > curve.csv
    python3 tools/plot_figures.py csv curve.csv curve.png

Requires matplotlib. The experiments themselves have no plotting
dependencies; this script is an optional convenience for turning their
aligned-column / CSV output into PNGs shaped like the paper's figures.
"""

import sys


def parse_aligned_table(lines):
    """Parse the harness' aligned-column output: first data row is the
    header; rows end at the first blank line."""
    rows = []
    header = None
    for line in lines:
        stripped = line.strip()
        if not stripped:
            if header:
                break
            continue
        if stripped.startswith(("=", "#")) or ":" in stripped and header is None:
            continue
        cells = stripped.split()
        if header is None:
            header = cells
            continue
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            break
    return header, rows


def parse_csv(lines):
    header = None
    rows = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            continue
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            continue
    return header, rows


def main():
    if len(sys.argv) != 4:
        print(__doc__)
        sys.exit(2)
    kind, src, dst = sys.argv[1:]
    with open(src) as f:
        lines = f.readlines()

    if kind == "csv":
        header, rows = parse_csv(lines)
    else:
        header, rows = parse_aligned_table(lines)
    if not rows:
        print("no data rows found in", src)
        sys.exit(1)

    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    xs = [r[0] for r in rows]
    fig, ax = plt.subplots(figsize=(7, 4))
    for col in range(1, len(header)):
        ys = [r[col] if col < len(r) else float("nan") for r in rows]
        ax.plot(xs, ys, label=header[col])
    ax.set_xlabel(header[0])
    ax.legend()
    ax.grid(True, alpha=0.3)
    fig.tight_layout()
    fig.savefig(dst, dpi=150)
    print("wrote", dst)


if __name__ == "__main__":
    main()
