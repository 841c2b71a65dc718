"""Command-line interface.

Subcommands: estimate, component, euler, sweep, count-factors, forecast.
Exit codes: 0 success, 2 usage error, 3 domain error (non-positive or zero
sample, coverage failure, normalization failure, floating-point overflow),
4 I/O error. `run` returns the code; only --help leaves it by SystemExit(0).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import asdict

from . import combinatorics, core, oracle, signal, sweeps
from .combinatorics import IndexSet
from .errors import GeomprodError, SignalFormatError


class UsageError(ValueError):
    """The command line does not parse; exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises UsageError where argparse would print
    usage and exit, so run() reports it like any other bad value, and that
    reads a separate negative number in exponent form (-1e-05) as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        raise UsageError(message)


def parse_ratio(text: str) -> float:
    """A decimal ratio, or 'sqrt:N' for an exact-intent square root."""
    if text.startswith("sqrt:"):
        arg = float(text[len("sqrt:"):])
        return math.sqrt(arg)
    return float(text)


def parse_finite(text: str) -> float:
    """A finite decimal; argparse names the flag when this rejects a value."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def parse_normalize(text: str) -> tuple[str, float | None, float | None]:
    """'divide_by_first', 'none', or 'affine:A,B' with A and B finite."""
    if text in ("divide_by_first", "none"):
        return text, None, None
    mode, _, params = text.partition(":")
    if mode != "affine" or params.count(",") != 1:
        raise argparse.ArgumentTypeError(
            f"must be divide_by_first, none or affine:A,B, got {text!r}")
    a, b = map(parse_finite, params.split(","))
    return mode, a, b


def parse_base(text: str) -> IndexSet:
    try:
        elements = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"base must be comma-separated integers, got {text!r}") from None
    return IndexSet(tuple(sorted(elements)))


def parse_function(text: str) -> oracle.BuiltinFunction:
    """'one', 'cos', 'half_sin_shifted', 'exp_scaled:C' or 'monomial_exp:C,K',
    with C finite and K a positive integer. Any other text, an unknown name
    included, raises argparse.ArgumentTypeError naming these forms."""
    name, _, args = text.partition(":")
    if text in ("one", "cos", "half_sin_shifted"):
        return oracle.BuiltinFunction(text)
    try:
        if name == "exp_scaled":
            return oracle.exp_scaled(float(args))
        if name == "monomial_exp":
            c_str, k_str = args.split(",")
            return oracle.monomial_exp(float(c_str), int(k_str))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        "must be one, cos, half_sin_shifted, exp_scaled:C or monomial_exp:C,K "
        f"with C finite and K a positive integer, got {text!r}")


def _coupling(args) -> tuple[str, int]:
    """The truncation flag given: ('fixed_n_max', N) or ('fixed_cutoff', K)."""
    if args.n_max is not None:
        return "fixed_n_max", args.n_max
    if args.cutoff is not None:
        return "fixed_cutoff", args.cutoff
    raise ValueError("one of --n-max or --cutoff is required")


def _config(args) -> core.GmpConfig:
    """The config named by --r, --n-max or --cutoff, --base and --parity."""
    n_max = core.coupled_n_max(*_coupling(args), args.r, args.base)
    return core.GmpConfig(r=args.r, n_max=n_max, base=args.base, parity=args.parity)


def _config_dict(cfg: core.GmpConfig) -> dict:
    return {
        "r": cfg.r,
        "n_max": cfg.n_max,
        "base": list(cfg.base.elements),
        "parity": cfg.parity,
    }


def _estimate_dict(est: core.Estimate) -> dict:
    return {
        "value": est.value,
        "log_value": est.log_value,
        "sign": est.sign,
        "x": est.x,
        "factor_count": est.factor_count,
        "config": _config_dict(est.config),
    }


def _emit(text: str, args) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finite(obj):
    """obj with every non-finite float, at any depth, replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite(val) for key, val in obj.items()}
    if isinstance(obj, list):
        return [_finite(val) for val in obj]
    return obj


def _dumps(obj, **kwargs) -> str:
    """JSON text in which a non-finite float is null, never NaN or Infinity."""
    return json.dumps(_finite(obj), allow_nan=False, **kwargs)


def _emit_record(record: dict, args) -> None:
    if args.format == "csv":
        keys, values = zip(*_flatten(record))
        _emit(",".join(keys) + "\n" + ",".join(map(sweeps._fmt, values)) + "\n", args)
    else:
        _emit(_dumps(record, indent=2, sort_keys=True) + "\n", args)


def _flatten(record: dict, prefix: str = ""):
    """(dotted key, value) for every leaf of record, keys sorted at each level."""
    for key, val in sorted(record.items()):
        if isinstance(val, dict):
            yield from _flatten(val, prefix + key + ".")
        else:
            yield prefix + key, val


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--cutoff", type=int, default=None,
                   help="set n_max = ceil(ln K / ln r) instead of --n-max")
    p.add_argument("--base", required=True, type=parse_base)
    p.add_argument("--parity", choices=("all", "even"), default="all")


def _add_estimator_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--function", required=True, type=parse_function)
    p.add_argument("--x", required=True, type=parse_finite)
    p.add_argument("--r", required=True, type=parse_ratio)
    _add_config_flags(p)


def _add_output_flags(p: argparse.ArgumentParser, default_format: str = "json") -> None:
    p.add_argument("--output", default=None, help="write to PATH instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), default=default_format)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The geomprod parser, built once per process; parse_args leaves it
    unchanged, so every run() shares it."""
    parser = _Parser(
        prog="geomprod",
        description="Extrapolation via weighted products over geometric sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate a builtin function at x")
    _add_estimator_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("component", help="estimate one series component exp(c_k x^k)")
    _add_estimator_flags(p)
    p.add_argument("--k", required=True, type=int)
    _add_output_flags(p)

    p = sub.add_parser("euler", help="bisection cosine product vs sin(x)/x")
    p.add_argument("--x", required=True, type=parse_finite)
    p.add_argument("--n", required=True, type=int)
    _add_output_flags(p)

    p = sub.add_parser("sweep", help="error table over an x grid and r schedule")
    p.add_argument("--function", required=True, type=parse_function)
    p.add_argument("--grid", required=True,
                   help="START:STOP:STEP for the x grid")
    p.add_argument("--schedule", default=None,
                   help="comma-separated ratios; default 1+2^-t, t=1..8")
    _add_config_flags(p)
    _add_output_flags(p, default_format="csv")

    p = sub.add_parser("count-factors", help="multiplicity-weighted factor total")
    p.add_argument("--base", required=True, type=parse_base)
    p.add_argument("--n-max", required=True, type=int)
    p.add_argument("--parity", choices=("all", "even"), default="all")
    _add_output_flags(p, default_format="csv")

    p = sub.add_parser("forecast", help="forecast a sampled signal from CSV")
    p.add_argument("--csv", required=True, dest="csv_path")
    p.add_argument("--normalize", default="divide_by_first", type=parse_normalize,
                   help="divide_by_first | none | affine:A,B")
    p.add_argument("--x", required=True, type=parse_finite)
    p.add_argument("--r", required=True, type=parse_ratio)
    _add_config_flags(p)
    _add_output_flags(p)

    return parser


def _cmd_estimate(args) -> int:
    est = core.estimate(args.function, args.x, _config(args))
    _emit_record(_estimate_dict(est), args)
    return 0


def _cmd_component(args) -> int:
    est = core.component_estimate(args.function, args.k, args.x, _config(args))
    record = _estimate_dict(est)
    record["k"] = args.k
    _emit_record(record, args)
    return 0


def _cmd_euler(args) -> int:
    product = oracle.euler_partial_product(args.x, args.n)
    reference = oracle.sinc(args.x)
    _emit_record(
        {
            "x": args.x,
            "n": args.n,
            "product": product,
            "sinc": reference,
            "abs_error": abs(product - reference),
        },
        args,
    )
    return 0


def _parse_grid(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be START:STOP:STEP, got {text!r}")
    return float(parts[0]), float(parts[1]), float(parts[2])


def _cmd_sweep(args) -> int:
    if args.schedule is not None:
        schedule = tuple(parse_ratio(tok) for tok in args.schedule.split(","))
    else:
        schedule = sweeps.DEFAULT_SCHEDULE
    coupling, value = _coupling(args)
    spec = sweeps.SweepSpec(
        function=args.function,
        grid=_parse_grid(args.grid),
        schedule=schedule,
        coupling=coupling,
        coupling_value=value,
        base=args.base,
        parity=args.parity,
    )
    rows = sweeps.grid_eval(spec)
    if args.format == "json":
        _emit(_dumps([asdict(row) for row in rows], indent=2) + "\n", args)
    else:
        _emit(sweeps.rows_to_csv(rows), args)
    return 0


def _cmd_count_factors(args) -> int:
    core.check_parity(args.parity, args.base)
    count = combinatorics.factor_count(args.base, args.n_max)
    if args.format == "json":
        _emit(_dumps({"base": list(args.base.elements), "n_max": args.n_max,
                      "factor_count": count}) + "\n", args)
    else:
        _emit(f"{count}\n", args)
    return 0


def _cmd_forecast(args) -> int:
    mode, a, b = args.normalize
    raw = signal.load_csv(args.csv_path)
    sig = signal.normalize(raw, mode=mode, a=a, b=b)
    result = signal.forecast(sig, args.x, _config(args))
    _emit_record(
        {
            "normalized": _estimate_dict(result.normalized),
            "raw_value": result.raw_value,
            "coverage": asdict(result.coverage),
        },
        args,
    )
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "component": _cmd_component,
    "euler": _cmd_euler,
    "sweep": _cmd_sweep,
    "count-factors": _cmd_count_factors,
    "forecast": _cmd_forecast,
}


def _wants_json(argv: list[str], args) -> bool:
    """Whether the error record goes to stdout as JSON: the parsed --format,
    or, when argv did not parse, a literal `--format json` in it."""
    if args is not None:
        return args.format == "json"
    return "--format=json" in argv or any(
        flag == "--format" and value == "json" for flag, value in zip(argv, argv[1:])
    )


def _report_error(exc: Exception, as_json: bool) -> None:
    reason = f"error: {type(exc).__name__}: {exc}".replace("\n", " ")
    print(reason, file=sys.stderr)
    if as_json:
        print(_dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = None
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (SignalFormatError, OSError) as e:
        _report_error(e, _wants_json(argv, args))
        return 4
    except (GeomprodError, OverflowError) as e:
        _report_error(e, _wants_json(argv, args))
        return 3
    except ValueError as e:
        _report_error(e, _wants_json(argv, args))
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
