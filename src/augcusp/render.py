"""SVG rendering of circle packings and horoball diagrams.

Faces are drawn from a packing's centre and radius arrays.  A packing keeps
its two white lines horizontal, so a white of radius inf is the line
y = center.imag and a shaded circle of radius inf the line x = center.real.
"""

from __future__ import annotations

import math

from .geometry import maximal_cusp
from .packing import CirclePacking

# After .geometry and .packing on purpose: without cached bytecode every
# module is compiled at import, and compiling them after numpy is loaded adds
# their compile peak to numpy's memory, about 2 MB more peak RSS.
import numpy as np

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" viewBox="{vb}" '
    'width="640" height="480">\n'
    '<rect x="{x0}" y="{y0}" width="{w}" height="{h}" fill="white"/>\n'
    '<g transform="scale(1,-1)">\n'
)
_FOOTER = "</g>\n</svg>\n"
_WHITE = 'stroke="#1f77b4" fill="none" stroke-width="0.02"'
_DISK = 'stroke="#d62728" fill="none" stroke-width="0.012"'


def _bounds(packing: CirclePacking):
    z = np.concatenate((packing.center, packing.disks[0]))
    r = np.concatenate((packing.radius, packing.disks[1]))
    z, r = z[np.isfinite(r)], r[np.isfinite(r)]
    x0 = float(np.min(z.real - r, initial=0.0))
    x1 = float(np.max(z.real + r, initial=0.0))
    y0 = float(np.min(z.imag - r, initial=0.0))
    y1 = float(np.max(z.imag + r, initial=0.0))
    pad = 0.2 * max(x1 - x0, y1 - y0, 1.0)
    return x0 - pad, y0 - pad, x1 + pad, y1 + pad


def _svg(packing: CirclePacking, disk_style: str, after: list[str]) -> str:
    """Header, the white and shaded faces, then the elements of `after`."""
    x0, y0, x1, y1 = _bounds(packing)
    out = [
        _HEADER.format(
            vb=f"{x0:.3f} {-y1:.3f} {x1 - x0:.3f} {y1 - y0:.3f}",
            x0=x0,
            y0=-y1,
            w=x1 - x0,
            h=y1 - y0,
        )
    ]
    faces = (
        (packing.center, packing.radius, _WHITE, False),
        (*packing.disks, disk_style, True),
    )
    for center, radius, style, vertical in faces:
        for z, r in zip(center.tolist(), radius.tolist()):
            if math.isfinite(r):
                out.append(f'<circle cx="{z.real:.5f}" cy="{z.imag:.5f}" r="{r:.5f}" {style}/>\n')
                continue
            xa, ya, xb, yb = (z.real, y0, z.real, y1) if vertical else (x0, z.imag, x1, z.imag)
            out.append(f'<line x1="{xa:.5f}" y1="{ya:.5f}" x2="{xb:.5f}" y2="{yb:.5f}" {style}/>\n')
    out += after
    out.append(_FOOTER)
    return "".join(out)


def packing_svg(packing: CirclePacking) -> str:
    """Circles, lines and tangency points of a solved packing."""
    points = packing.points
    dots = [
        f'<circle cx="{z.real:.5f}" cy="{z.imag:.5f}" r="0.015" fill="#2ca02c"/>\n'
        for z in points[~np.isnan(points)].tolist()
    ]
    return _svg(packing, _DISK + ' stroke-dasharray="0.05,0.03"', dots)


def horoball_svg(frame: CirclePacking) -> str:
    """The maximal cusp's horoballs (as circles sized by diameter) over the
    face traces of a cusp frame."""
    balls = [
        f'<circle cx="{p.real:.5f}" cy="{p.imag + diam / 2:.5f}" r="{diam / 2:.5f}" '
        'fill="#9467bd" fill-opacity="0.45"/>\n'
        for p, diam in maximal_cusp(frame)[2]
    ]
    return _svg(frame, _DISK, balls)
