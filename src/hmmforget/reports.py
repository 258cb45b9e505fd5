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


def write_steps_csv(path, columns):
    """A per-step table: a row per step n of a record's ``columns`` (name ->
    array, broadcast along n); a batch's (a record per row) gets rep first
    and its records' rows one record after another."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in columns.values()))
    header = ["n", *columns]
    cols = [np.arange(shape[-1]), *columns.values()]
    if len(shape) == 2:
        header.insert(0, "rep")
        cols.insert(0, np.arange(shape[0])[:, None])
    # Python scalars format through the templates faster than NumPy's
    write_csv(path, header, zip(*(np.broadcast_to(c, shape).ravel().tolist() for c in cols)))


def write_bound_csv(report, path):
    names = ("log_term_geo", "log_term_ratio", "log_total", "total_clipped", "applies")
    write_steps_csv(path, {name: getattr(report, name) for name in names})


def write_trace_csv(tv, logZ_nu, logZ_nu_prime, path):
    """The two filters' TV and log-normalizers at each step: ``filter_trace.csv``
    of a record, ``tv_curves.csv`` of a batch."""
    write_steps_csv(path, {"tv": tv, "logZ_nu": logZ_nu, "logZ_nuprime": logZ_nu_prime})


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


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
