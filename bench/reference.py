"""The frozen reference loop that every end-to-end timing is divided by.

It uses only the standard library and shares no code with geomprod, so a
change to the package never changes it. It does the kinds of work the
workloads do: a Python call per term returning a (sign, value) tuple, math
calls, an exact binomial, list appends and a compensated sum, like the
estimator's inner loop; and float formatting, splitting and parsing, like
CSV, argument and JSON handling. A slowdown of the shared host then hits the
loop and the measured op alike and cancels in their ratio. A loop of plain
float arithmetic without calls tracked the estimator about ten times worse
(see README.md).

Do not edit this file: any change rescales every reported timing and
breaks comparison with earlier results.
"""

import math

_N = 2500


def _term(x: float, n: int, m: int) -> tuple[int, float]:
    return 1, math.log1p(0.5 * math.sin(x)) * math.comb(n - 1, m - 1)


def reference_loop() -> float:
    """One reference unit of work; returns a value so nothing is skipped."""
    terms = []
    rows = []
    sign = 1
    for i in range(1, _N + 1):
        s, v = _term(i / _N, i % 40 + 4, i % 4 + 1)
        if s < 0:
            sign = -sign
        terms.append(v)
        if i % 4 == 0:
            a, b = f"{i / _N!r},{v!r}".split(",")
            rows.append((float(a), float(b)))
    rows.sort(key=lambda row: row[1])
    return math.fsum(terms) * sign + rows[0][0]
