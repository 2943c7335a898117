"""The HLS color wheel for complex edge weights (paper Fig. 7(b)).

The complex phase of an edge weight is encoded as the hue on an HLS color
wheel (0 rad -> red, pi/2 -> chartreuse, pi -> cyan, 3pi/2 -> violet), while
the magnitude is reflected in the thickness of the drawn line.  This is the
paper's alternative to cluttered explicit weight labels.
"""

from __future__ import annotations

import colorsys
import functools
import math

from repro.dd.complex_table import phase_of


def hls_wheel_color(angle: float, lightness: float = 0.5, saturation: float = 1.0) -> str:
    """Hex color for a phase ``angle`` (radians) on the HLS wheel."""
    hue = (angle / (2.0 * math.pi)) % 1.0
    red, green, blue = colorsys.hls_to_rgb(hue, lightness, saturation)
    return "#{:02x}{:02x}{:02x}".format(
        round(red * 255), round(green * 255), round(blue * 255)
    )


def phase_to_color(weight: complex) -> str:
    """Hex color encoding the complex phase of ``weight``."""
    return hls_wheel_color(phase_of(weight))


def weight_to_width(
    weight: complex, minimum: float = 0.5, maximum: float = 4.0
) -> float:
    """Stroke width encoding the magnitude of ``weight``.

    Magnitudes are clipped to [0, 1] (amplitudes of normalized states);
    the mapping is linear between ``minimum`` and ``maximum``.
    """
    magnitude = min(abs(weight), 1.0)
    return minimum + (maximum - minimum) * magnitude


@functools.lru_cache(maxsize=4096)
def pretty_complex(value: complex, digits: int = 4) -> str:
    """Human-readable rendering of a complex weight.

    Recognizes the values ubiquitous in quantum circuits (integers, simple
    fractions and ``1/sqrt(2)^k``) and falls back to rounded ``a+bi``.
    Pure in ``(value, digits)``, so a diagram's few distinct labels are
    formatted once across every frame that draws them.
    """
    real, imag = value.real, value.imag
    if abs(imag) < 1e-12:
        return _pretty_real(real, digits)
    if abs(real) < 1e-12:
        rendered = _pretty_real(imag, digits)
        if rendered == "1":
            return "i"
        if rendered == "-1":
            return "-i"
        return f"{rendered}i"
    magnitude = abs(value)
    angle = math.degrees(phase_of(value))
    if abs(magnitude - 1.0) < 1e-9:
        return f"e^(i{angle:.0f}\N{DEGREE SIGN})"
    return (
        f"{_pretty_real(real, digits)}"
        f"{'+' if imag >= 0 else '-'}{_pretty_real(abs(imag), digits)}i"
    )


def _pretty_real(value: float, digits: int) -> str:
    if abs(value - round(value)) < 1e-12:
        return str(int(round(value)))
    sign = "-" if value < 0 else ""
    magnitude = abs(value)
    sqrt2 = math.sqrt(2.0)
    for power in (1, 2, 3, 4):
        if abs(magnitude - 1.0 / sqrt2**power) < 1e-9:
            if power == 1:
                return f"{sign}1/\N{SQUARE ROOT}2"
            if power % 2 == 0:
                return f"{sign}1/{2 ** (power // 2)}"
            return f"{sign}1/{2 ** (power // 2)}\N{SQUARE ROOT}2"
    for denominator in (2, 3, 4, 8):
        if abs(magnitude - 1.0 / denominator) < 1e-9:
            return f"{sign}1/{denominator}"
    return f"{value:.{digits}g}"
