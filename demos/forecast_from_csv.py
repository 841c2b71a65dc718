"""Forecast a sampled signal without knowing its analytic form.

We synthesize a CSV of 1 + sin(t)/2 sampled uniformly on [0, 4], then
forecast the value at t = 3 using only interpolated samples taken at
earlier geometric time points.
"""

import math
import tempfile
from pathlib import Path

from geomprod import GmpConfig, IndexSet, coverage_check, forecast, read_signal

lines = ["t,value"] + [
    f"{0.05 * i},{1 + 0.5 * math.sin(0.05 * i)}" for i in range(81)
]
with tempfile.TemporaryDirectory() as tmp:
    csv_path = Path(tmp) / "signal.csv"
    csv_path.write_text("\n".join(lines), encoding="utf-8")
    print("wrote", csv_path)
    sig = read_signal(csv_path, mode="none")

cfg = GmpConfig(r=2.0, n_max=40, base=IndexSet.of(1, 2, 3, 4))

horizon = 3.0
report = coverage_check(sig, cfg, horizon)
print(f"coverage: largest required sample t = {report.max_required:.3f}, "
      f"data extends to t = {report.domain_end:.1f} -> ok={report.ok}")

result = forecast(sig, horizon, cfg)
truth = 1 + 0.5 * math.sin(horizon)
print(f"forecast at t={horizon}: {result.raw_value:.6f}")
print(f"true value:            {truth:.6f}")
print(f"abs error:             {abs(result.raw_value - truth):.2e}")
print(f"({result.normalized.factor_count} weighted sample factors multiplied)")
