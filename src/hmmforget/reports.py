"""CSV / text emission for experiment and bound outputs.

All CSVs are RFC-4180 with a leading header row and "\n" line endings;
floats are serialized with 17 significant digits so that runs are
byte-reproducible.
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


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


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
