"""Time per row and bytes per row of the trajectory CSV writer and reader.

    PYTHONPATH=src python scripts/csv_io_table.py [--rows 65536 262144 1048576] [--repeats 5]
        [--analyze-rows 1048576 4194304 16777216]

Three walks, each at the given row counts (positions x_0..x_{rows-1}): srw
p = 0.7 on Z (d = 1, the shape of the `csv-roundtrip` benchmark), the same
path shifted by 2^62 (19-digit coordinates, the reader's widest fields) and
`spiral2d` (d = 2).  Each cell runs in a fresh Python process: it draws the
path once, then times `write_trajectory_csv` from `walk_from_path` (its
block pass included) to a file and `read_trajectory_csv` back, the best of
`repeats` each, with the minor page faults (`ru_minflt`) per call of each,
and reads its peak RSS (ru_maxrss) after the timings.  Only then does it
check that the file is byte for byte the `str(int)` rows and that the reader
gives the path back.  Prints a Markdown table.

A second table times `rangewalk analyze --in` (`run_command`, after the
imports) on the srw p = 0.7 CSV at each of `--analyze-rows` (default:
`--rows`), one fresh Python process a row count, with that process's peak
RSS: the parse, the stored steps and the report on top of the interpreter
and its imports.  Its CSV is written from the generated stream, so that no
process holds the path or the text.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

import numpy as np

from rangewalk import make_walk, walk_from_path
from rangewalk.cli import read_trajectory_csv, run_command, write_trajectory_csv

# name: (generator config, shift added to every coordinate)
WALKS = {
    "srw p=0.7 (d = 1)": ({"gen": "srw", "p": 0.7, "seed": 1}, 0),
    "srw p=0.7 from 2^62 (d = 1)": ({"gen": "srw", "p": 0.7, "seed": 1}, 2**62),
    "`spiral2d` (d = 2)": ({"gen": "spiral2d"}, 0),
}


def str_int_rows(path: np.ndarray) -> str:
    """The reference CSV: each row joined from `str(int)` of its entries."""
    d = 1 if path.ndim == 1 else path.shape[1]
    lines = ["n," + ",".join(f"x{i + 1}" for i in range(d))]
    rows = path.reshape(len(path), d).tolist()
    lines += [",".join(str(int(v)) for v in [n, *row]) for n, row in enumerate(rows)]
    return "\n".join(lines) + "\n"


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def cell(walk: str, rows: int, repeats: int) -> dict:
    horizon = rows - 1
    config, shift = WALKS[walk]
    path = make_walk({**config, "steps": max(horizon, 1)}).path_array(horizon) + shift
    best_write = best_read = float("inf")
    write_faults = read_faults = 0
    with tempfile.TemporaryDirectory() as tmp:
        csv = os.path.join(tmp, "t.csv")
        for _ in range(repeats):
            stream = walk_from_path(path)
            with open(csv, "w", newline="\n") as fh:
                before, t = minor_faults(), time.perf_counter()
                write_trajectory_csv(stream, horizon, fh)
                best_write = min(best_write, time.perf_counter() - t)
                write_faults += minor_faults() - before
            with open(csv, "r") as fh:
                before, t = minor_faults(), time.perf_counter()
                back = read_trajectory_csv(fh)
                best_read = min(best_read, time.perf_counter() - t)
                read_faults += minor_faults() - before
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        with open(csv, "r", newline="") as fh:
            text = fh.read()
    if text != str_int_rows(path):
        raise SystemExit(f"{walk}, {rows} rows: the CSV is not the str(int) rows")
    if not np.array_equal(back, path):
        raise SystemExit(f"{walk}, {rows} rows: the reader did not give the path back")
    return {
        "write_ns": best_write / rows * 1e9,
        "read_ns": best_read / rows * 1e9,
        "write_faults": write_faults / repeats,
        "read_faults": read_faults / repeats,
        "bytes_per_row": len(text.encode("ascii")) / rows,
        "rss_mb": rss_mb,
    }


def analyze_cell(csv: str) -> dict:
    """`analyze --in csv` in this process: its exit code, time and peak RSS."""
    t = time.perf_counter()
    code = run_command(["analyze", "--in", csv, "--out", os.devnull])
    wall = time.perf_counter() - t
    return {"code": code, "wall_s": wall, "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def analyze_table(rows_list: list) -> None:
    config, _ = WALKS["srw p=0.7 (d = 1)"]
    print("\n| rows | `analyze --in` of srw p=0.7 (d = 1) | peak RSS |")
    print("|---|---|---|")
    for rows in rows_list:
        with tempfile.TemporaryDirectory() as tmp:
            csv = os.path.join(tmp, "t.csv")
            with open(csv, "w", newline="\n") as fh:
                write_trajectory_csv(make_walk({**config, "steps": max(rows - 1, 1)}), rows - 1, fh)
            argv = [sys.executable, __file__, "--analyze-cell", csv]
            res = json.loads(subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True).stdout)
        if res["code"] != 0:
            raise SystemExit(f"analyze --in of {rows} rows exited {res['code']}")
        print(f"| {rows} | {res['wall_s']:.3f} s | {res['rss_mb']:.0f} MB |")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, nargs="+", default=[1 << 16, 1 << 18, 1 << 20])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--analyze-rows", type=int, nargs="+", help="row counts of the analyze --in table")
    parser.add_argument("--cell", nargs=2, metavar=("WALK", "ROWS"), help=argparse.SUPPRESS)
    parser.add_argument("--analyze-cell", metavar="CSV", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.cell:
        print(json.dumps(cell(args.cell[0], int(args.cell[1]), args.repeats)))
        return
    if args.analyze_cell:
        print(json.dumps(analyze_cell(args.analyze_cell)))
        return
    print("| walk | rows | write ns/row | read ns/row | faults per write | faults per read | bytes/row | peak RSS |")
    print("|---|---|---|---|---|---|---|---|")
    for walk in WALKS:
        for rows in args.rows:
            argv = [sys.executable, __file__, "--repeats", str(args.repeats), "--cell", walk, str(rows)]
            res = json.loads(subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True).stdout)
            print(f"| {walk} | {rows} | {res['write_ns']:.0f} | {res['read_ns']:.0f} | "
                  f"{res['write_faults']:.0f} | {res['read_faults']:.0f} | "
                  f"{res['bytes_per_row']:.2f} | {res['rss_mb']:.0f} MB |")
    analyze_table(args.analyze_rows or args.rows)


if __name__ == "__main__":
    main()
