"""The benchmark's workloads: which ``cellmimo`` commands one pass runs.

Every operation is one invocation of the ``cellmimo`` command line, given as
the argv list that ``cellmimo.cli.main`` receives.  The benchmark seed picks
two things only:

* a sub-step offset (0, 0.25, 0.5 or 0.75 dB) of each analytic dB grid.  The
  number of grid points never depends on the seed, so the work per pass
  stays the same from seed to seed;
* the Monte Carlo ``--seed`` of each simulation, taken from a pool of
  ``MC_SEED_POOL`` seed sets.  Every set in the pool passes the |z| <= 4 gate
  of ``validate``.  A fresh seed could trip that gate by chance: each score
  exceeds 4 with probability 6e-5 and a run makes 30 of them, so about one
  run in 500 would fail with no defect to show for it.

The README anchor points are run in every pass of the zero-noise workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

OFFSETS_DB = (0.0, 0.25, 0.5, 0.75)
MC_SEED_POOL = 32
GRID_START_DB = -5.0
GRID_SPAN_DB = 25.0

# Monte Carlo sizes: a few 512-trial chunks per call keep a pass near three
# seconds on a 2-core machine while still exercising the chunk contract.
PAIRED_TRIALS = 1024
PZF_ONLY_TRIALS = 2048
MC_GRID_DB = (0.0, 5.0, 10.0)
MC_ZDB = "0:10:5"


@dataclass(frozen=True)
class Curve:
    """An analytic coverage curve over a shifted -5..20 dB grid."""

    name: str
    argv: tuple[str, ...]
    step_db: float
    # Name of the zero-noise curve this noisy curve must stay under.
    counterpart: str | None = None


@dataclass(frozen=True)
class Rate:
    """A ``rate`` profile in JSON: mean rate plus the 5 % and 80 % quantiles."""

    name: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Anchor:
    """A README anchor: one command and the values the README prints."""

    name: str
    argv: tuple[str, ...]
    expected: dict[str, float]
    # Half a unit in the last digit the README prints for each value.
    printed_half_unit: float


@dataclass(frozen=True)
class McRun:
    """A Monte Carlo command: ``validate`` (paired) or an MC coverage curve."""

    name: str
    argv: tuple[str, ...]
    trials: int


def _args(text: str) -> tuple[str, ...]:
    return tuple(text.split())


ZERO_NOISE_CURVES = (
    Curve("pzf_1x4_m2_a3", _args("coverage --rx pzf --nt 1 --nr 4 --m 2 --alpha 3"), 1.0),
    Curve("pzf_2x8_m2_a3", _args("coverage --rx pzf --nt 2 --nr 8 --m 2 --alpha 3"), 1.0),
    Curve("pzf_1x12_m2_a3", _args("coverage --rx pzf --nt 1 --nr 12 --m 2 --alpha 3"), 1.0),
    # The only input that reaches the mpmath branch of hyp2f1_negz
    # (2/alpha within 0.05 of an integer, z > 24); 0.1-0.5 s per point.
    Curve("pzf_1x4_m2_a2.05", _args("coverage --rx pzf --nt 1 --nr 4 --m 2 --alpha 2.05"), 5.0),
    Curve("mmse_4x4", _args("coverage --rx mmse --nt 4 --nr 4"), 1.0),
    Curve("mmse_4x16", _args("coverage --rx mmse --nt 4 --nr 16"), 1.0),
)

ZERO_NOISE_RATES = (
    Rate("mmse_sst_1x4", _args("rate --rx mmse --nt 1 --nr 4 --scheme sst --format json")),
    Rate("mmse_sm_2x4", _args("rate --rx mmse --nt 2 --nr 4 --scheme sm --format json")),
    Rate("pzf_sst_1x4_m2", _args("rate --rx pzf --nt 1 --nr 4 --m 2 --scheme sst --format json")),
    Rate("pzf_sst_1x8_m4", _args("rate --rx pzf --nt 1 --nr 8 --m 4 --scheme sst --format json")),
)

README_ANCHORS = (
    Anchor("anchor_pzf_1x4_m2_0db",
           _args("coverage --rx pzf --nt 1 --nr 4 --m 2 --alpha 4 --zdb 0:0:1"),
           {"coverage": 0.919708433446}, 5e-13),
    Anchor("anchor_mmse_4x4_0db",
           _args("coverage --rx mmse --nt 4 --nr 4 --alpha 4 --zdb 0:0:1"),
           {"coverage": 0.503619330892}, 5e-13),
)

# The README rate anchors ride on rate profiles the workload runs anyway.
README_RATE_ANCHORS = {
    "mmse_sst_1x4": ({"mean_rate": 4.8659, "q05": 1.1233, "q80": 7.1151}, 5e-5),
    "pzf_sst_1x4_m2": ({"mean_rate": 4.26918}, 5e-6),
}

NOISY_CURVES = (
    # Nested-quad route of the noisy PZF law; about 80 ms per point.  The
    # adaptive quad's work depends on z, so a finer grid would make the work
    # per pass depend more on the seed's offset.
    Curve("pzf_1x4_m2_s1", _args("coverage --rx pzf --nt 1 --nr 4 --m 2 --sigma2 1"), 5.0,
          counterpart="pzf_1x4_m2_s0"),
    Curve("mmse_2x4_s1", _args("coverage --rx mmse --nt 2 --nr 4 --sigma2 1"), 1.0,
          counterpart="mmse_2x4_s0"),
)

# Zero-noise counterparts of the noisy curves.  They are evaluated once per
# run for the dominance check and are not part of the timed pass.
COUNTERPARTS = (
    Curve("pzf_1x4_m2_s0", _args("coverage --rx pzf --nt 1 --nr 4 --m 2"), 5.0),
    Curve("mmse_2x4_s0", _args("coverage --rx mmse --nt 2 --nr 4"), 1.0),
)

NOISY_RATES = (
    Rate("mmse_sst_1x4_s1", _args("rate --rx mmse --nt 1 --nr 4 --scheme sst --sigma2 1 --format json")),
    Rate("mmse_sm_2x4_s1", _args("rate --rx mmse --nt 2 --nr 4 --scheme sm --sigma2 1 --format json")),
    Rate("pzf_sm_2x4_m1_s1",
         _args("rate --rx pzf --nt 2 --nr 4 --m 1 --scheme sm --sigma2 1 --format json")),
    Rate("pzf_sst_1x2_m1_s1",
         _args("rate --rx pzf --nt 1 --nr 2 --m 1 --scheme sst --sigma2 1 --format json")),
)

PAIRED_RUNS = (
    McRun("validate_2x4", _args("validate --rx both --nt 2 --nr 4"), PAIRED_TRIALS),
    McRun("validate_2x5_m2", _args("validate --rx both --nt 2 --nr 5 --m 2"), PAIRED_TRIALS),
    McRun("validate_1x4_m2_a3.5",
          _args("validate --rx both --nt 1 --nr 4 --m 2 --alpha 3.5"), PAIRED_TRIALS),
    McRun("validate_2x4_s1", _args("validate --rx both --nt 2 --nr 4 --sigma2 1"), PAIRED_TRIALS),
)

PZF_ONLY_RUNS = (
    McRun("mc_pzf_1x4_m2", _args("coverage --method mc --rx pzf --nt 1 --nr 4 --m 2"),
          PZF_ONLY_TRIALS),
    McRun("mc_pzf_2x5_m2", _args("coverage --method mc --rx pzf --nt 2 --nr 5 --m 2"),
          PZF_ONLY_TRIALS),
)

# Single-point commands whose cold first call, with the import, is the
# set-up time of each workload: one per law the workload uses.
COLD_CALLS = {
    "analytic_zero_noise": (
        _args("coverage --rx pzf --nt 1 --nr 4 --m 2 --alpha 3 --zdb 0:0:1"),
        _args("coverage --rx pzf --nt 1 --nr 4 --m 2 --alpha 2.05 --zdb 20:20:1"),
        _args("coverage --rx mmse --nt 4 --nr 4 --zdb 0:0:1"),
    ),
    "analytic_noisy": (
        _args("coverage --rx pzf --nt 1 --nr 4 --m 2 --sigma2 1 --zdb 0:0:1"),
        _args("coverage --rx mmse --nt 2 --nr 4 --sigma2 1 --zdb 0:0:1"),
    ),
    "mc_paired": (
        _args("validate --rx both --nt 2 --nr 4 --zdb 0:0:1 --trials 512 --seed 0"),
    ),
    "mc_pzf": (
        _args("coverage --method mc --rx pzf --nt 1 --nr 4 --m 2 --zdb 0:0:1 --trials 512 --seed 0"),
    ),
}

WORKLOADS = ("analytic_zero_noise", "analytic_noisy", "mc_paired", "mc_pzf")


@dataclass(frozen=True)
class Op:
    """One command of a pass, with everything its checks need."""

    name: str
    kind: str  # "curve", "rate", "anchor", "validate" or "mc_curve"
    argv: tuple[str, ...]
    spec: Curve | Rate | Anchor | McRun
    grid_db: tuple[float, ...] = ()
    trials: int = 0


def grid(step_db: float, offset_db: float) -> tuple[float, ...]:
    """The shifted grid -5+offset, ..., 20+offset in steps of ``step_db``."""
    count = int(round(GRID_SPAN_DB / step_db)) + 1
    return tuple(GRID_START_DB + offset_db + k * step_db for k in range(count))


def zdb_flag(points: tuple[float, ...], step_db: float) -> str:
    return f"--zdb={points[0]!r}:{points[-1]!r}:{step_db!r}"


def curve_op(curve: Curve, offset_db: float) -> Op:
    points = grid(curve.step_db, offset_db)
    return Op(curve.name, "curve", curve.argv + (zdb_flag(points, curve.step_db),),
              curve, grid_db=points)


def mc_seed(seed: int, index: int) -> int:
    """MC ``--seed`` of the index-th simulation of a workload."""
    return (seed % MC_SEED_POOL) * 16 + index


def mc_op(run: McRun, seed: int) -> Op:
    kind = "validate" if run.argv[0] == "validate" else "mc_curve"
    extra = ["--trials", str(run.trials), "--seed", str(seed)]
    if kind == "mc_curve":
        extra.append(f"--zdb={MC_ZDB}")
    return Op(run.name, kind, run.argv + tuple(extra), run,
              grid_db=MC_GRID_DB if kind == "mc_curve" else (), trials=run.trials)


def build(workload: str, seed: int) -> tuple[list[Op], list[Op]]:
    """The timed ops of one pass and the untimed ops the checks need."""
    rng = random.Random(seed)
    if workload == "analytic_zero_noise":
        ops = [Op(a.name, "anchor", a.argv, a) for a in README_ANCHORS]
        ops += [curve_op(c, rng.choice(OFFSETS_DB)) for c in ZERO_NOISE_CURVES]
        ops += [Op(r.name, "rate", r.argv, r) for r in ZERO_NOISE_RATES]
        return ops, []
    if workload == "analytic_noisy":
        offsets = {c.name: rng.choice(OFFSETS_DB) for c in NOISY_CURVES}
        ops = [curve_op(c, offsets[c.name]) for c in NOISY_CURVES]
        ops += [Op(r.name, "rate", r.argv, r) for r in NOISY_RATES]
        by_name = {c.name: c for c in COUNTERPARTS}
        extra = [curve_op(by_name[c.counterpart], offsets[c.name]) for c in NOISY_CURVES]
        return ops, extra
    if workload == "mc_paired":
        return [mc_op(r, mc_seed(seed, i)) for i, r in enumerate(PAIRED_RUNS)], []
    if workload == "mc_pzf":
        ops = [mc_op(r, mc_seed(seed, i)) for i, r in enumerate(PZF_ONLY_RUNS)]
        # The analytic law at the same thresholds, for the |z| <= 4 gate.
        extra = [Op(r.name + "_analytic", "curve",
                    tuple(a for a in r.argv if a not in ("--method", "mc")) + (f"--zdb={MC_ZDB}",),
                    r, grid_db=MC_GRID_DB)
                 for r in PZF_ONLY_RUNS]
        return ops, extra
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
