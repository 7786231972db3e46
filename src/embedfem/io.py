"""Result writers: CSV, legacy-VTK ASCII, and the run summary."""

from __future__ import annotations

import json

import numpy as np


def write_solution_csv(path, mesh, x, n_eq=2):
    with open(path, "w") as fh:
        fh.write("nodeId,x,y,psi,T\n")
        for node in range(mesh.num_nodes):
            cx, cy = (float(c) for c in mesh.coords[node])
            psi = float(x[node * n_eq])
            temp = float(x[node * n_eq + 1])
            fh.write(f"{node},{cx!r},{cy!r},{psi!r},{temp!r}\n")


def write_vtk(path, mesh, point_fields):
    """Legacy ASCII unstructured-grid file with named point scalars."""
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("embedfem solution\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.num_nodes} double\n")
        for cx, cy in mesh.coords:
            fh.write(f"{float(cx)!r} {float(cy)!r} 0.0\n")
        fh.write(f"CELLS {mesh.num_elems} {mesh.num_elems * 5}\n")
        for conn in mesh.connectivity:
            fh.write(f"4 {conn[0]} {conn[1]} {conn[2]} {conn[3]}\n")
        fh.write(f"CELL_TYPES {mesh.num_elems}\n")
        fh.write("\n".join(["9"] * mesh.num_elems) + "\n")
        fh.write(f"CELL_DATA {mesh.num_elems}\n")
        fh.write("SCALARS region int 1\nLOOKUP_TABLE default\n")
        fh.write("\n".join(str(int(r)) for r in mesh.region_of) + "\n")
        fh.write(f"POINT_DATA {mesh.num_nodes}\n")
        for name, values in point_fields.items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            fh.write("\n".join(repr(float(v)) for v in values) + "\n")


def write_table_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                              else str(v) for v in row) + "\n")


def write_summary(path, summary):
    """Machine-readable run summary; deterministic byte-for-byte."""
    with open(path, "w") as fh:
        json.dump(_plain(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj
