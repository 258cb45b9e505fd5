"""CSV / text emission for experiment and bound outputs.

All CSVs are RFC-4180 with a leading header row and "\n" line endings;
floats are serialized with 17 significant digits so that runs are
byte-reproducible.  A row of numbers is written through a %-template
that formats as ``fmt`` does (``_Templates``); any other row goes through
``fmt`` and the csv module.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


class _Templates(dict):
    """The %-template of a row, keyed by the tuple of its cells' types:
    "%d" per int or NumPy integer and "%.17g" per float or NumPy float, or
    None where a cell is neither (bools, and subclasses of int or float,
    which may print otherwise, are not)."""

    def __missing__(self, types):
        specs = []
        for t in types:
            if t is float or issubclass(t, np.floating):
                specs.append("%.17g")
            elif t is int or issubclass(t, np.integer):
                specs.append("%d")
            else:
                self[types] = None
                return None
        self[types] = template = ",".join(specs) + "\n"
        return template


def write_csv(path, header, rows):
    templates = _Templates()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            row = tuple(row)
            template = templates[tuple(map(type, row))]
            if template is None:
                writer.writerow([fmt(v) for v in row])
            else:
                fh.write(template % row)


def write_bound_csv(report, path):
    rows = zip(report.n, report.log_term_geo, report.log_term_ratio,
               report.log_total, report.total_clipped, report.applies)
    write_csv(path, ["n", "log_term_geo", "log_term_ratio", "log_total",
                     "total_clipped", "applies"], rows)


def write_bound_summary(report, path):
    def enc(v):
        if isinstance(v, (np.floating, float)):
            return float(v)
        if hasattr(v, "interval") or hasattr(v, "states"):  # LDSet
            return {"interval": v.interval, "states": v.states,
                    "eps_minus": v.eps_minus, "eps_plus": v.eps_plus}
        return v

    summary = {"rho": float(report.rho),
               "inputs": {k: enc(v) for k, v in report.inputs.items()}}
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, default=str)
        fh.write("\n")


def write_trajectory_csv(traj, path):
    rows = [(k, traj.hidden[k], traj.obs[k]) for k in range(len(traj.obs))]
    write_csv(path, ["step", "x", "y"], rows)


def write_filter_trace_csv(records, path):
    write_csv(path, ["n", "tv", "logZ_nu", "logZ_nuprime"], records)


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
