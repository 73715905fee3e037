"""Command-line front end: coverage curves, rate tables, optimal-m reports,
and Monte Carlo validation runs, emitted as CSV/JSON for plotting.

Exit codes: 0 success, 1 validation gate failed, 2 invalid configuration or
arguments, 3 numeric failure, 4 I/O failure.  The network parameters ``nt``,
``nr``, ``alpha``, ``sigma2``, ``lam`` and ``m`` may also come from
``--config FILE`` (``key=value`` lines with the flags' names): the file wins
over the defaults and explicit flags win over the file.  Every file written
via ``--out`` gets a ``<out>.manifest.json`` sidecar, a JSON object with the
keys ``command``, ``parameters``, ``version``, ``seed`` (null for analytic
runs), ``wall_time_s`` and ``outputs`` (the file's path and sha256).  Two
runs whose manifests agree up to ``wall_time_s`` wrote identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .errors import ConfigError, NumericError, SizeGuardError
from .geometry import NetworkConfig, _noise_scale
from .montecarlo import simulate_sinr
from .pzf import _feasible_m_range, argmin_mean_inverse_sinr, optimal_m
from .rate import rate_profile, sinr_ccdf

__all__ = ["main"]


def _fmt(x: float) -> str:
    """Stable float formatting for CSV/JSON text output."""
    return f"{float(x):.12g}"


def _write_output(text: str, args: argparse.Namespace, argv: list[str], seed: int | None,
                  started: float) -> None:
    """Write ``text`` to stdout, or to ``--out`` with its manifest sidecar."""
    if args.out is None:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    with open(args.out, "wb") as fh:
        fh.write(data)
    manifest = {
        "command": argv,
        "parameters": {k: v for k, v in vars(args).items() if k != "func"},
        "version": __version__,
        "seed": seed,
        "wall_time_s": round(time.perf_counter() - started, 3),
        "outputs": [{"path": args.out, "sha256": hashlib.sha256(data).hexdigest()}],
    }
    with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# --------------------------------------------------------------------------
# Argument plumbing

# The network parameters, as flags and as config-file keys:
# (name, type, default, help).  Defaults lose to the file, the file to flags.
_NETWORK = (
    ("nt", int, None, "transmit antennas / streams per BS"),
    ("nr", int, None, "receive antennas per user"),
    ("alpha", float, 4.0, "path-loss exponent"),
    ("sigma2", float, 0.0, "noise power"),
    ("lam", float, 1.0, "BS density per unit area"),
    ("m", int, None, "PZF cancellation order: null the m-1 nearest interferers "
                     "(default: optimal-split rule)"),
)


def _read_config_file(path: str) -> dict:
    kinds = {name: kind for name, kind, _, _ in _NETWORK}
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip().lower(), value.strip()
            if not sep or not key or not value:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            if key not in kinds:
                raise ConfigError(
                    f"{path}:{lineno}: unknown key {key!r} "
                    f"(known: {', '.join(sorted(kinds))})"
                )
            try:
                values[key] = kinds[key](value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def _resolve_network(args: argparse.Namespace) -> tuple[NetworkConfig, int | None]:
    """Merge flags over an optional config file over the defaults."""
    values = {name: default for name, _, default, _ in _NETWORK}
    if args.config:
        values.update(_read_config_file(args.config))
    values.update((name, getattr(args, name)) for name in values
                  if getattr(args, name) is not None)
    if values["nt"] is None or values["nr"] is None:
        raise ConfigError("--nt and --nr are required (as flags or config-file keys)")
    config = NetworkConfig(lam=values["lam"], alpha=values["alpha"], sigma2=values["sigma2"],
                           n_t=values["nt"], n_r=values["nr"])
    return config, values["m"]


# Most thresholds one --zdb grid may hold.
_MAX_GRID_POINTS = 10_000


def _parse_zdb_range(spec: str) -> list[tuple[float, float]]:
    """Inclusive dB grid START:STOP:STEP as (dB, linear) threshold pairs;
    START > STOP yields an empty grid, and more than 10000 points raise
    ConfigError."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"z-range must be START:STOP:STEP in dB, got {spec!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"z-range must be numeric, got {spec!r}") from exc
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConfigError(f"z-range must be finite, got {spec!r}")
    if step <= 0.0:
        raise ConfigError(f"z-range step must be positive, got {step!r}")
    # Counted before it is built: an unbounded grid would allocate until it dies.
    span = (stop - start) / step + 1e-9
    if span >= _MAX_GRID_POINTS:
        raise ConfigError(f"z-range {spec!r} has more than {_MAX_GRID_POINTS} thresholds")
    count = math.floor(span) + 1
    grid_db = [start + k * step for k in range(max(0, count))]
    try:
        return [(z_db, 10.0 ** (z_db / 10.0)) for z_db in grid_db]
    except OverflowError as exc:
        raise ConfigError(f"z-range {spec!r} has thresholds beyond the float range") from exc


def _parse_float_list(spec: str, flag: str) -> list[float]:
    try:
        values = [float(p) for p in spec.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated numbers, got {spec!r}") from exc
    if not values:
        raise ConfigError(f"{flag} must list at least one value")
    return values


def _parse_int_list(spec: str, flag: str) -> list[int]:
    values = _parse_float_list(spec, flag)
    # False for nan and inf too.
    if not all(v.is_integer() for v in values):
        raise ConfigError(f"{flag} expects integers, got {spec!r}")
    return [int(v) for v in values]


def _int_or_list(spec: str) -> int | list[int]:
    """``rate --nt``: one int, as the other commands take it, or several,
    comma-separated, as a list."""
    values = [int(p) for p in spec.split(",")]
    return values[0] if len(values) == 1 else values


def _merge_range_values(argv: list[str]) -> list[str]:
    # Let `--zdb -5:20:1` work even though the value starts with a dash.
    merged: list[str] = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token == "--zdb" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            merged.append(f"--zdb={argv[i + 1]}")
            skip = True
        else:
            merged.append(token)
    return merged


# --------------------------------------------------------------------------
# Subcommands

def _coverage_estimate(samples, z: float) -> tuple[float, float]:
    """Monte Carlo coverage P[SINR > z] from SINR samples, and its standard
    error (inf for a single sample)."""
    hits = (samples > z).astype(float)
    n = hits.size
    se = float(hits.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return float(hits.mean()), se


def cmd_coverage(args: argparse.Namespace) -> tuple[str, int | None, None]:
    config, m = _resolve_network(args)
    # Built for both methods, so an order the receiver cannot take fails
    # even on an empty grid.
    ccdf = sinr_ccdf(config, args.rx, m=m)
    grid = _parse_zdb_range(args.zdb)
    header = ["z_db", "z_linear", "coverage", "method", "ci_halfwidth"]
    rows: list[list[str]] = []
    if args.method == "analytic":
        values = ccdf(np.array([z for _, z in grid]))
        for (z_db, z), value in zip(grid, values):
            rows.append([_fmt(z_db), _fmt(z), _fmt(value), "analytic", ""])
    elif grid:
        samples = simulate_sinr(
            config, args.rx, args.trials, args.seed, m=m, threads=args.threads,
        )[args.rx]
        for z_db, z in grid:
            mc, se = _coverage_estimate(samples, z)
            rows.append([_fmt(z_db), _fmt(z), _fmt(mc), "mc", _fmt(1.96 * se)])
    return _csv_text(header, rows), args.seed if args.method == "mc" else None, None


def _quantile_label(q: float) -> str:
    """Column name of a quantile level: its percentage to six significant
    digits, the integer part padded to two (q05, q07, q12.5, q80)."""
    whole, dot, frac = f"{100.0 * q:g}".partition(".")
    return f"q{whole:0>2}{dot}{frac}"


def cmd_rate(args: argparse.Namespace) -> tuple[str, None, None]:
    # --nt may be a list here: one profile per n_t, each with the other
    # parameters as resolved for a single run.
    n_ts = args.nt if isinstance(args.nt, list) else [args.nt]
    quantiles = _parse_float_list(args.quantiles, "--quantiles")
    labels = [_quantile_label(q) for q in quantiles]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"--quantiles {args.quantiles!r} gives two levels one column name")
    payloads, rows = [], []
    for n_t in n_ts:
        config, m = _resolve_network(argparse.Namespace(**{**vars(args), "nt": n_t}))
        profile = rate_profile(config, args.rx, args.scheme, m=m, quantiles=quantiles,
                               convention=args.convention)
        qvals = {label: profile.quantiles[q] for label, q in zip(labels, quantiles)}
        payloads.append({"mean_rate": profile.mean_rate, **qvals, "scheme": args.scheme,
                         "receiver": args.rx, "n_t": config.n_t, "n_r": config.n_r,
                         "m": profile.m})
        rows.append([args.scheme, args.rx, str(config.n_t), str(config.n_r),
                     "" if profile.m is None else str(profile.m), _fmt(profile.mean_rate),
                     *(_fmt(v) for v in qvals.values())])
    if args.format == "json":
        # One object for one n_t, a list of them for several.
        text = json.dumps(payloads[0] if len(payloads) == 1 else payloads, indent=2)
        return text + "\n", None, None
    header = ["scheme", "receiver", "n_t", "n_r", "m", "mean_rate", *labels]
    return _csv_text(header, rows), None, None


def cmd_optimal_m(args: argparse.Namespace) -> tuple[str, None, None]:
    n_ts = _parse_int_list(args.nt, "--nt")
    n_rs = _parse_int_list(args.nr, "--nr")
    alphas = _parse_float_list(args.alpha, "--alpha")
    sigma2s = _parse_float_list(args.sigma2, "--sigma2")
    header = ["n_t", "n_r", "alpha", "sigma2", "m_star", "m_argmin", "status", "m_rate"]
    rows: list[list[str]] = []
    for n_t in n_ts:
        for n_r in n_rs:
            for alpha in alphas:
                for sigma2 in sigma2s:
                    config = NetworkConfig(
                        lam=args.lam, alpha=alpha, sigma2=sigma2, n_t=n_t, n_r=n_r,
                    )
                    prefix = [str(n_t), str(n_r), _fmt(alpha), _fmt(sigma2)]
                    # An overflowing noise scale is an input error, not an infeasible split.
                    _noise_scale(config)
                    try:
                        m_star = optimal_m(config)
                        m_argmin = argmin_mean_inverse_sinr(config)
                    except ConfigError:
                        rows.append(prefix + ["", "", "infeasible", ""])
                        continue
                    rows.append(prefix + [
                        str(m_star),
                        "|".join(str(v) for v in m_argmin),
                        "ok",
                        _rate_argmax(config),
                    ])
    return _csv_text(header, rows), None, None


def _rate_argmax(config: NetworkConfig) -> str:
    """The split m with delta >= 1 of the largest PZF mean rate, or "" where
    one of those splits has no rate: the law's size guard excludes it, or
    its rate integral fails (at zero noise from alpha about 51, where the
    tail of the m = 1 law above the largest float x may hold more than
    1e-12 of the mean)."""
    try:
        rates = [rate_profile(config, "pzf", "sm", m=m, quantiles=()).mean_rate
                 for m in range(1, _feasible_m_range(config) + 1)]
    except (SizeGuardError, NumericError):
        return ""
    return str(1 + int(np.argmax(rates)))


def cmd_validate(args: argparse.Namespace) -> tuple[str, int, str | None]:
    config, m = _resolve_network(args)
    receivers = ("pzf", "mmse") if args.rx == "both" else (args.rx,)
    grid = _parse_zdb_range(args.zdb)
    if not grid:
        raise ConfigError("validation needs a nonempty z-range")
    if args.trials < 2:
        raise ConfigError("validation needs at least 2 trials: one has no standard error")

    sinr = simulate_sinr(
        config, receivers, args.trials, args.seed, m=m, threads=args.threads,
    )
    header = ["receiver", "z_db", "z_linear", "analytic", "mc", "std_error", "z_score"]
    rows: list[list[str]] = []
    worst = 0.0
    for receiver in receivers:
        ccdf = sinr_ccdf(config, receiver, m=m if receiver == "pzf" else None)
        samples = sinr[receiver]
        for (z_db, z), exact in zip(grid, ccdf(np.array([z for _, z in grid]))):
            mc, se = _coverage_estimate(samples, z)
            if se > 0.0:
                score = (mc - exact) / se
            else:
                score = 0.0 if mc == exact else math.inf
            worst = max(worst, abs(score))
            rows.append([
                receiver, _fmt(z_db), _fmt(z), _fmt(exact), _fmt(mc),
                _fmt(se), _fmt(score),
            ])
    failure = f"validation FAILED: worst |z-score| = {worst:.2f} > 4" if worst > 4.0 else None
    return _csv_text(header, rows), args.seed, failure


# --------------------------------------------------------------------------
# Parser

def _add_network_flags(parser: argparse.ArgumentParser, nt_list: bool = False) -> None:
    # No flag default: an absent flag leaves the value to the file or the table.
    for name, kind, default, text in _NETWORK:
        if name == "nt" and nt_list:
            kind, text = _int_or_list, f"{text}, or a comma-separated list, one row each"
        parser.add_argument(f"--{name}", type=kind,
                            help=text if default is None else f"{text} (default {default:g})")
    parser.add_argument("--config", metavar="FILE",
                        help="key=value parameter file; flags override it")
    parser.add_argument("--out", metavar="PATH",
                        help="output file (default stdout); also writes PATH.manifest.json")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _add_mc_flags(parser: argparse.ArgumentParser, default_trials: int) -> None:
    parser.add_argument("--trials", type=int, default=default_trials,
                        help="Monte Carlo trials (default %(default)s)")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed (default %(default)s)")
    parser.add_argument("--threads", type=_positive_int, default=None,
                        help="worker processes, capped at the number of 512-trial chunks "
                             "(default: the available cores, at most 10, where processes "
                             "start by fork, else 1); results are bit-identical for every "
                             "value")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellmimo",
        description="Coverage and rate for open-loop MIMO cellular downlinks "
                    "under a Poisson network model (PZF and MMSE receivers).",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    cov = sub.add_parser(
        "coverage", help="coverage probability P[SINR > z] over a dB grid",
    )
    _add_network_flags(cov)
    cov.add_argument("--rx", choices=("pzf", "mmse"), required=True,
                     help="receiver type")
    cov.add_argument("--zdb", required=True, metavar="START:STOP:STEP",
                     help="inclusive threshold grid in dB, e.g. -5:20:1")
    cov.add_argument("--method", choices=("analytic", "mc"), default="analytic",
                     help="evaluation method (default %(default)s)")
    _add_mc_flags(cov, default_trials=20000)
    cov.set_defaults(func=cmd_coverage)

    rate_p = sub.add_parser(
        "rate", help="mean sum rate and rate quantiles for one configuration",
    )
    _add_network_flags(rate_p, nt_list=True)
    rate_p.add_argument("--rx", choices=("pzf", "mmse"), required=True,
                        help="receiver type")
    rate_p.add_argument("--scheme", choices=("sm", "sst"), default="sm",
                        help="spatial multiplexing or single-stream (default %(default)s)")
    rate_p.add_argument("--quantiles", default="0.05,0.8",
                        help="comma-separated quantile levels (default %(default)s)")
    rate_p.add_argument("--convention", choices=("calibrated", "per-stream"),
                        default="calibrated",
                        help="rate-quantile scaling convention (default %(default)s)")
    rate_p.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default %(default)s)")
    rate_p.set_defaults(func=cmd_rate)

    opt = sub.add_parser(
        "optimal-m", help="optimal PZF cancellation order over a parameter sweep",
    )
    opt.add_argument("--nt", required=True,
                     help="comma-separated transmit antenna counts")
    opt.add_argument("--nr", required=True,
                     help="comma-separated receive antenna counts")
    opt.add_argument("--alpha", default="4",
                     help="comma-separated path-loss exponents (default %(default)s)")
    opt.add_argument("--sigma2", default="0",
                     help="comma-separated noise powers (default %(default)s)")
    opt.add_argument("--lam", type=float, default=1.0,
                     help="BS density (default %(default)s)")
    opt.add_argument("--out", metavar="PATH",
                     help="output file (default stdout); also writes PATH.manifest.json")
    opt.set_defaults(func=cmd_optimal_m)

    val = sub.add_parser(
        "validate", help="Monte Carlo versus analytic coverage with z-scores",
    )
    _add_network_flags(val)
    val.add_argument("--rx", choices=("pzf", "mmse", "both"), default="both",
                     help="receiver(s) to validate (default %(default)s)")
    val.add_argument("--zdb", default="0:10:5", metavar="START:STOP:STEP",
                     help="threshold grid in dB (default %(default)s)")
    _add_mc_flags(val, default_trials=20000)
    val.set_defaults(func=cmd_validate)

    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = _merge_range_values(list(sys.argv[1:]) if argv is None else list(argv))
    args = _PARSER.parse_args(argv)
    started = time.perf_counter()
    try:
        text, seed, failure = args.func(args)
        _write_output(text, args, argv, seed, started)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    if failure is not None:
        print(failure, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
