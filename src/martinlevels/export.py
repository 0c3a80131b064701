"""Deterministic JSON/CSV/SVG writers.

JSON is emitted with sorted keys and no timestamps, so identical inputs give
byte-identical files; all writes are atomic (write to a sibling temp file,
then rename).  SVG embeds a tool version string and is excluded from
byte-level determinism checks.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str

TOOL_VERSION = "martinlevels 0.1.0"


def _atomic_write(path, text, mode="w", newline=None):
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, mode, newline=newline) as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def canonical_json(obj):
    """The bytes of ``json.dumps(obj, sort_keys=True, indent=2, allow_nan=True)``
    plus a newline, for objects with str keys only (any other key raises
    TypeError).  Lists of floats and lists of float pairs are written with
    one join each."""
    return _encode(obj, "\n") + "\n"


def _all_float(items):
    return all(issubclass(k, float) for k in set(map(type, items)))


def _float_list(items, inner):
    """Body of a nonempty list of floats or of float pairs at the line prefix
    ``inner``, or None for any other list."""
    if _all_float(items):
        text = ("," + inner).join(map(float.__repr__, items))
    elif (all(issubclass(k, (list, tuple)) for k in set(map(type, items)))
          and set(map(len, items)) == {2}):
        flat = list(chain.from_iterable(items))
        if not _all_float(flat):
            return None
        pair = inner + "  "
        reprs = map(float.__repr__, flat)
        text = ("[" + pair + (inner + "]," + inner + "[" + pair).join(
            map(("," + pair).join, zip(reprs, reprs))) + inner + "]")
    else:
        return None
    return None if "n" in text else text        # NaN and the infinities: element by element


def _encode(obj, indent):
    """JSON text of obj whose first line follows the line prefix ``indent``."""
    inner = indent + "  "
    if isinstance(obj, (list, tuple)) and obj:
        body = _float_list(obj, inner)
        if body is None:
            body = ("," + inner).join([_encode(v, inner) for v in obj])
        return "[" + inner + body + indent + "]"
    if isinstance(obj, dict) and obj:
        if not all(isinstance(k, str) for k in obj):
            raise TypeError(f"JSON keys must be str, got {sorted({type(k).__name__ for k in obj})}")
        return ("{" + inner + ("," + inner).join([_json_str(k) + ": " + _encode(obj[k], inner)
                                                  for k in sorted(obj)]) + indent + "}")
    return json.dumps(obj)                  # scalars and empty containers


def write_json(path, obj):
    _atomic_write(path, canonical_json(obj))


def write_csv(path, header, rows):
    """A header of plain names and rows of numbers, comma separated with CRLF
    line ends, in the bytes the csv module writes for them (floats by their
    repr, which is their str)."""
    lines = chain([header], rows)
    _atomic_write(path, "\r\n".join([",".join(map(str, row)) for row in lines]) + "\r\n",
                  newline="")


def _svg_path(points, sx, sy, tx, ty):
    """``M x y L x y ...`` of the (n, 2) points mapped to the canvas, 3 decimals."""
    xs = (sx * points[:, 0] + tx).tolist()
    ys = (ty - sy * points[:, 1]).tolist()
    return "M " + " L ".join(map("%.3f %.3f".__mod__, zip(xs, ys)))


def write_svg_levels(path, curves, window, title="level sets"):
    """Overlay of level polylines inside the window, 640 pixels wide, one color per level."""
    (x0, y0), (x1, y1) = window.lower, window.upper
    aspect = (y1 - y0) / (x1 - x0)
    width, height = 640, max(64, int(640 * aspect))
    sx = width / (x1 - x0)
    sy = height / (y1 - y0)
    tx, ty = -sx * x0, height + sy * y0
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]
    levels = sorted({float(c.level) for c in curves})
    color_of = {lv: palette[i % len(palette)] for i, lv in enumerate(levels)}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<!-- {TOOL_VERSION} -->",
        f"<title>{title}</title>",
        f'<metadata>{{"levels": {sorted(levels)}, "window": [[{x0}, {y0}], [{x1}, {y1}]]}}</metadata>',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # axes through the origin when visible
    if x0 < 0.0 < x1:
        parts.append(f'<line x1="{tx:.1f}" y1="0" x2="{tx:.1f}" y2="{height}" stroke="#ccc"/>')
    if y0 < 0.0 < y1:
        parts.append(f'<line x1="0" y1="{ty:.1f}" x2="{width}" y2="{ty:.1f}" stroke="#ccc"/>')
    for c in curves:
        if len(c.vertices) < 2:
            continue
        d = _svg_path(c.vertices, sx, sy, tx, ty)
        if c.closed:
            d += " Z"
        parts.append(f'<path d="{d}" fill="none" stroke="{color_of[float(c.level)]}" '
                     f'stroke-width="1.2"><title>c={c.level:g}</title></path>')
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts) + "\n")
