"""Workload definitions: the CLI jobs each workload runs and how a seed
picks their parameters.

Every job is one ``closurelab.cli.main(argv)`` call.  Seed 0 runs the CLI
defaults (no ``--params``, the shipped plugin), so its reports can be checked
byte for byte against ``expected.json``.  Any other seed draws each job's
rational parameters from a small pool of values inside the family's validity
range.  Job cost depends on the parameters, so the pools hold values at
which each job's time stayed within about 10% of its time at the defaults;
the seeds then vary the inputs without making one seed's pass much heavier
than another's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# Entry 0 of every pool is the CLI default (closurelab.cli.DEFAULT_PARAMS).
PARAM_POOLS = {
    "L": [{"g": "7/3"}, {"g": "5/2"}, {"g": "9/4"}],
    "J": [{"g": "2", "h": "3"}, {"g": "5/2", "h": "7/2"},
          {"g": "13/4", "h": "9/4"}],
    "W": [{"a1": "2", "a2": "5/2", "a3": "3", "a4": "7/2"},
          {"a1": "5/2", "a2": "3", "a3": "7/2", "a4": "4"},
          {"a1": "3", "a2": "7/2", "a3": "4", "a4": "9/2"}],
    "AW": [{"a1": "1/4", "a2": "1/5", "a3": "1/10", "a4": "1/10", "q": "4/9"},
           {"a1": "1/5", "a2": "1/4", "a3": "1/10", "a4": "1/10", "q": "4/9"},
           {"a1": "1/4", "a2": "1/5", "a3": "1/10", "a4": "1/8", "q": "4/9"}],
}

# Plugin files carry their parameters; entry 0 is the shipped plugin.  The
# other files are written by bench/record.py.
PLUGIN_POOLS = {
    "L2I": [("plugins/laguerre_2I.json", {"g": "7/2"}),
            ("bench/inputs/laguerre_2I_g7_3.json", {"g": "7/3"}),
            ("bench/inputs/laguerre_2I_g13_4.json", {"g": "13/4"})],
}


def _vc(fam, D, *extra):
    return ["verify-closure", "--family", fam, "--D", D, *extra]


# name -> (parameter pool key or None for fixed parameters, argv)
WORKLOADS = {
    "closure-sampled": [
        ("closure-L1I-eta2", "L", _vc("L", "1I", "--Y", "eta^2")),
        ("closure-J1I-eta", "J", _vc("J", "1I", "--Y", "eta")),
        ("closure-L2I-plugin", "L2I", _vc("L", "2I")),
        ("closure-L1II", "L", _vc("L", "1II")),
        ("closure-J1II", "J", _vc("J", "1II")),
    ],
    "closure-symbolic": [
        ("symbolic-J1I", None, _vc("J", "1I", "--mode", "symbolic")),
        ("symbolic-L1II", None, _vc("L", "1II", "--mode", "symbolic")),
    ],
    "ladder-spectral": [
        ("heisenberg-J1II", "J", ["heisenberg", "--family", "J", "--D", "1II"]),
        ("heisenberg-L1I", "L", ["heisenberg", "--family", "L", "--D", "1I"]),
        ("heisenberg-L1II-eta", "L",
         ["heisenberg", "--family", "L", "--D", "1II", "--Y", "eta"]),
        ("recurrence-J1I", "J",
         ["recurrence", "--family", "J", "--D", "1I", "--n-max", "12"]),
        ("recurrence-L1I-eta", "L",
         ["recurrence", "--family", "L", "--D", "1I", "--Y", "eta",
          "--n-max", "12"]),
        ("spectrum-W1I", "W", ["spectrum", "--family", "W", "--D", "1I",
                               "--n-max", "12"]),
        ("spectrum-AW1I", "AW", ["spectrum", "--family", "AW", "--D", "1I",
                                 "--n-max", "12"]),
    ],
}


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    params: str        # "k=v ..." as drawn, for the log
    height: int        # max(|p|, q) over the job's rational parameters

    def reference_key(self) -> tuple[str, str, str] | None:
        """(family, D, Y) of the stored reference row a verify-closure
        report is compared against; None for other commands."""
        if self.argv[0] != "verify-closure":
            return None
        opt = {flag: self.argv[i + 1] for i, flag in enumerate(self.argv)
               if flag in ("--family", "--D", "--Y")}
        return opt["--family"], opt["--D"], opt.get("--Y", "1")


def height(params: dict[str, str]) -> int:
    vals = [Fraction(v) for v in params.values()]
    return max(max(abs(v.numerator), v.denominator) for v in vals)


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The workload's jobs with parameters drawn from ``seed``."""
    rng = random.Random(seed)
    jobs = []
    for name, pool_key, argv in WORKLOADS[workload]:
        argv = list(argv)
        params: dict[str, str] = {}
        if pool_key in PLUGIN_POOLS:
            pool = PLUGIN_POOLS[pool_key]
            path, params = pool[rng.randrange(len(pool)) if seed else 0]
            argv += ["--plugin", path]
        elif pool_key is not None:
            pool = PARAM_POOLS[pool_key]
            idx = rng.randrange(len(pool)) if seed else 0
            params = pool[idx]
            if idx:
                argv += ["--params", *(f"{k}={v}" for k, v in params.items())]
        jobs.append(Job(name, tuple(argv + ["--json"]),
                        " ".join(f"{k}={v}" for k, v in params.items()),
                        height(params) if params else 0))
    return jobs
