"""Command-line front end: generate walks, analyze them, run Monte Carlo, verify.

Exit codes: 0 success, 1 a verified property or tolerance check failed,
2 usage, I/O or limit error (a coordinate beyond int64, the set-mode point
cap).  Trajectories travel as CSV (`n,x1[,x2,...]`), analysis reports as
JSON lines, experiment reports as a single JSON document.  CSV rows are
streamed both ways, CHUNK_BYTES of text at a time: spelled in numpy, byte for
byte as `str(int)`, and read back in numpy while every field is an optional
sign and at most 19 ASCII digits; a chunk with another spelling that `int()`
accepts (`1_000`, Unicode digits, padding whitespace, 20 or more digits) is
read line by line, and the next chunk goes back to numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import contextmanager
from typing import Iterator, Optional, TextIO

import numpy as np

from .analysis import MemoryGuardError, analyze_stream, arith_checkpoints, dyadic_checkpoints
from .core import WalkStream, _StepPass, _stored_walk
from .experiments import METRICS, TrialSpec, compare, run_trials
from .generators import is_stochastic, make_walk
from .suites import SUITES, run_suite


class CsvFormatError(ValueError):
    """A trajectory CSV failed to parse; the message carries the line number."""


# ---------------------------------------------------------------------------
# Trajectory CSV
# ---------------------------------------------------------------------------


# The reader reads this many characters at a time, and the writer spells this
# many bytes of its int64 table at a time, so that their arrays (a few 8-byte
# entries a field), bytes and strings stay small enough for the heap to reuse:
# a freshly mapped page costs a fault.
CHUNK_BYTES = 1 << 16


def write_trajectory_csv(stream: WalkStream, horizon: int, fh: TextIO) -> None:
    """Write x_0..x_horizon as `n,x1[,...]` rows with LF endings.

    Each block is cut into pieces of at most CHUNK_BYTES of int64 table; a
    piece is copied beside its `n` column into one table of that size that
    the write reuses, then spelled (`_ascii_rows`) and written.  A piece's
    text takes at most 21 bytes an entry (19 digits, sign, separator), and
    its table, work arrays and text stay small enough for the heap to reuse.
    """
    d = stream.d
    fh.write("n," + ",".join(f"x{i + 1}" for i in range(d)) + "\n")
    step = max(1, CHUNK_BYTES // (8 * (d + 1)))  # table rows a piece
    table, ramp = np.empty((step, d + 1), dtype=np.int64), np.arange(step)
    n = 0
    for block, _ in stream._checked_blocks(horizon):
        block = block.reshape(len(block), d)  # the next block overwrites it
        for start in range(0, len(block), step):
            rows = table[: min(step, len(block) - start)]
            np.add(ramp[: len(rows)], n + start, out=rows[:, 0])
            rows[:, 1:] = block[start : start + step]
            fh.write(_ascii_rows(rows))
        n += len(block)


def _ascii_rows(table: np.ndarray) -> str:
    """An int64 table as `,`-separated rows ending in LF, each entry as `str(int)` spells it.

    A (width, entries) uint8 buffer holds the sign, one digit of |v| a row and
    the separator; leading zeros and the sign of v >= 0 stay 0 bytes, dropped
    at the end.  |v| is cut into uint32 pieces of 9 digits (two uint64
    divisions by 10^9 at most), and each digit is one uint32 division pass.
    A piece below a nonzero one carries 10^9, so its leading zeros show."""
    values = table.ravel()
    mag = np.abs(values).view(np.uint64)  # abs leaves -2^63 as is: 2^63 as uint64
    width = len(str(int(mag.max()))) + 2
    buf = np.empty((width, values.size), dtype=np.uint8)
    np.multiply(values < 0, np.uint8(ord("-")), out=buf[0])
    buf[-1] = ord(",")
    buf[-1, table.shape[1] - 1 :: table.shape[1]] = ord("\n")
    pieces = [mag]  # lowest first
    for _ in range((width - 3) // 9):
        rest = pieces[-1] // np.uint64(10**9)
        pieces[-1] = pieces[-1] - rest * np.uint64(10**9) + np.uint64(10**9) * (rest != 0)
        pieces.append(rest)
    (quot, rem), shown = np.empty((2, values.size), np.uint32), np.empty(values.size, bool)
    for place in range(width - 2, 0, -1):
        if (width - 2 - place) % 9 == 0:
            mag = pieces.pop(0).astype(np.uint32)
        row = buf[place]
        np.floor_divide(mag, 10, out=quot)
        np.multiply(quot, 10, out=rem)
        np.subtract(mag, rem, out=rem)
        np.copyto(row, rem, casting="unsafe")
        row += ord("0")
        if place < width - 2:  # the units digit always shows
            np.not_equal(mag, 0, out=shown)
            row *= shown
        mag, quot = quot, mag
    return buf.tobytes(order="F").translate(None, b"\0").decode("ascii")


# Bytes kept before a chunk in the parse buffer: a 19-digit field that opens
# the chunk takes its top digits from the 8 bytes 24 to 17 before its end.
_PAD = 24
# _DIGIT_MASKS[k] keeps the low nibble (an ASCII digit's value) of the last
# min(k, 8) bytes of an 8-byte little-endian load: the last digits of a field.
_DIGIT_MASKS = np.array(
    [0x0F0F0F0F0F0F0F0F << 8 * (8 - min(k, 8)) & (2**64 - 1) for k in range(20)], dtype=np.uint64
)


def read_trajectory_csv(fh: TextIO) -> np.ndarray:
    """Parse a trajectory CSV into one int64 array, (N,) for d = 1 else (N, d);
    malformed rows report their line number (see `_csv_chunks`).

    Each chunk is copied once, into the result: sized from the file's length
    when `fh` has a file number (a row takes at least 2(d + 1) bytes; the
    rows it never fills are never touched), grown by doubling otherwise, and
    trimmed in place at the end.
    """
    d = _csv_header(fh)
    try:
        cap = os.fstat(fh.fileno()).st_size // (2 * (d + 1))
    except OSError:  # no file behind `fh` (io.StringIO)
        cap = 0
    out, rows = np.empty((cap, d), dtype=np.int64), 0
    for coords in _csv_chunks(fh, d):
        if rows + len(coords) > len(out):
            out.resize((max(rows + len(coords), 2 * len(out)), d), refcheck=False)  # no view is alive
        out[rows : rows + len(coords)] = coords
        rows += len(coords)
    out.resize((rows, d), refcheck=False)
    return out[:, 0] if d == 1 else out


def _csv_header(fh: TextIO) -> int:
    """Read the header line `n,x1[,...]`; returns d."""
    header = fh.readline()
    if not header:
        raise CsvFormatError("line 1: empty file, expected header n,x1[,...]")
    cols = header.strip().split(",")
    if len(cols) < 2 or cols[0] != "n" or cols[1:] != [f"x{i + 1}" for i in range(len(cols) - 1)]:
        raise CsvFormatError(f"line 1: bad header {header.strip()!r}, expected n,x1[,...]")
    return len(cols) - 1


def _csv_chunks(fh: TextIO, d: int) -> Iterator[np.ndarray]:
    """Yield the coordinates of the data rows after the header, a (k, d)
    int64 array a chunk; malformed rows report their line number.

    The rows are read CHUNK_BYTES characters at a time; the start of a line
    that a read cuts off opens the next chunk.  Each chunk of whole lines is
    parsed in numpy (`_ChunkParser`).  A chunk it does not accept (a CR that
    `fh` did not translate, other whitespace, `_`, non-ASCII digits, a value
    beyond int64, a wrong field count or step index) goes to the line loop
    alone, from its own line and step index, and the next chunk goes back to
    numpy.  The loop accepts what `int()` accepts and raises the first
    error with its line.  A value beyond int64 ends the yields and is raised
    after the last chunk, so that an error on a later line comes first.
    """
    parser, line, rows = _ChunkParser(d), 2, 0
    tail, overflow = [], None  # the reads since the last LF; a value beyond int64
    while True:
        text = fh.read(CHUNK_BYTES)
        cut = text.rfind("\n") + 1
        if text and not cut:
            tail.append(text)
            continue
        chunk, tail = "".join(tail) + text[:cut], [text[cut:]]
        parsed = parser.parse(chunk, rows)
        if parsed is None:
            coords, lines = _parse_rows_loop(chunk, d, line, rows), chunk.count("\n")
            try:
                coords = np.asarray(coords, dtype=np.int64).reshape(-1, d)
            except OverflowError as exc:
                overflow = overflow or exc
        else:
            coords, lines = parsed  # without the `n` column
        rows, line = rows + len(coords), line + lines
        if overflow is None:
            yield coords
        if not text:
            break
    if overflow is not None:
        raise overflow
    if not rows:
        raise CsvFormatError("line 2: no data rows")


class _ChunkParser:
    """The numpy parser of one file's chunks, with the buffers it reuses.

    A row is d + 1 fields separated by `,` and ended by LF; a field is an
    optional sign and 1-19 ASCII digits.  LF-only lines are skipped, and a
    chunk with no final LF (the file's last) gets one, as the loop does.

    Each chunk is copied behind an LF that stands for the end of the row
    before it.  One `flatnonzero` finds the separators; every other byte
    must be a digit or a sign opening its field.  A field's last 8 digits
    are one 8-byte load that ends at its separator (`_digits8`); a wider
    field adds one or two loads further back, scaled by 10^8 or 10^16, in
    uint64, which holds 19 digits exactly.
    """

    def __init__(self, d: int):
        self.d, self.buf = d, np.empty(0, dtype=np.uint8)

    def parse(self, chunk: str, rows: int) -> Optional[tuple]:
        """(coordinates of `chunk`'s rows, its LFs), or None to use the loop.

        `chunk` is whole lines after `rows` rows.  The coordinates are a
        (k, d) int64 view of the chunk's values, `n` column included.  A
        value beyond int64 or an `n` column other than `rows`, `rows + 1`,
        ... returns None.
        """
        if not chunk.isascii():
            return None
        raw = chunk.encode("ascii")
        if self.buf.size < _PAD + len(raw) + 1:  # room for a read and a line start
            self.buf = np.zeros(_PAD + 2 * max(len(raw), CHUNK_BYTES) + 1, dtype=np.uint8)
            self.buf[_PAD - 1] = ord("\n")
            # loads[i]: the 8 bytes before b[i] below, as a little-endian uint64;
            # gathers from an aligned copy, `words`, run several times faster.
            self.loads = np.ndarray(self.buf.size - _PAD + 1, "<u8", self.buf, _PAD - 9, (1,))
            self.words = np.empty(self.loads.size, dtype=np.uint64)
        d, open_end = self.d, not raw.endswith(b"\n")
        b = self.buf[_PAD - 1 : _PAD + len(raw) + open_end]
        b[1 : len(raw) + 1] = np.frombuffer(raw, dtype=np.uint8)
        b[-1] = ord("\n")
        seps = np.flatnonzero((b == ord(",")) | (b == ord("\n")))
        lf = b[seps] == ord("\n")
        lines = np.count_nonzero(lf) - 1 - open_end
        ends, row_end = seps[1:], lf[1:]  # the separator after each field
        width = np.diff(seps) - 1
        if not width.all():  # drop the empty fields that are LF-only lines
            keep = (width != 0) | ~(lf[1:] & lf[:-1])
            ends, row_end, width = ends[keep], row_end[keep], width[keep]
        k = ends.size // (d + 1)
        if ends.size % (d + 1) or np.count_nonzero(row_end) != k or not row_end[d :: d + 1].all():
            return None
        if k == 0:
            return np.empty((0, d), dtype=np.int64), lines
        first = b[ends - width]
        neg = first == ord("-")
        signed = neg | (first == ord("+"))
        if np.count_nonzero(b - ord("0") < 10) + seps.size + np.count_nonzero(signed) != b.size:
            return None
        ndig = width - signed
        top = ndig.max()
        if ndig.min() < 1 or top > 19:
            return None
        words = self.words[: b.size]
        np.copyto(words, self.loads[: b.size])
        value = _digits8(words, ends, ndig)
        for place in (8, 16):
            if top > place:
                wide = np.flatnonzero(ndig > place)
                value[wide] += _digits8(words, ends[wide] - place, ndig[wide] - place) * np.uint64(10**place)
        if top == 19 and np.any(value > neg + np.uint64(2**63 - 1)):  # int64 holds -2^63 .. 2^63 - 1
            return None
        np.negative(value, out=value, where=neg)
        table = value.view(np.int64).reshape(k, d + 1)
        if not np.array_equal(table[:, 0], np.arange(rows, rows + k)):
            return None
        return table[:, 1:], lines


def _digits8(words: np.ndarray, last: np.ndarray, ndig: np.ndarray) -> np.ndarray:
    """The value, as uint64, of the min(ndig, 8) digits just before each `last`.

    `np.take(words, last)` loads the 8 bytes before each `last`; the mask
    keeps the digits' values and zeroes the bytes before them.  Three
    multiply-shift steps then join neighbouring digits into 2-, 4- and
    8-digit values.
    """
    v = np.take(words, last)
    v &= _DIGIT_MASKS[ndig]
    v *= np.uint64(10 << 8 | 1)
    v >>= np.uint64(8)
    v &= np.uint64(0x00FF00FF00FF00FF)
    v *= np.uint64(100 << 16 | 1)
    v >>= np.uint64(16)
    v &= np.uint64(0x0000FFFF0000FFFF)
    v *= np.uint64(10000 << 32 | 1)
    v >>= np.uint64(32)
    return v


def _parse_rows_loop(text: str, d: int, start_line: int = 2, start_n: int = 0) -> list:
    """Line-by-line parse of data rows; the reference parser.

    `text` is whole lines of the file from line `start_line` on, after
    `start_n` rows.  Returns each row's coordinates as Python ints.
    """
    rows = []
    expected_n = start_n
    for lineno, raw in enumerate(text.split("\n"), start=start_line):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != d + 1:
            raise CsvFormatError(
                f"line {lineno}: expected {d + 1} fields, got {len(parts)}"
            )
        try:
            values = [int(v) for v in parts]
        except ValueError:
            raise CsvFormatError(f"line {lineno}: non-integer field in {line!r}")
        if values[0] != expected_n:
            raise CsvFormatError(
                f"line {lineno}: step index {values[0]}, expected {expected_n}"
            )
        expected_n += 1
        rows.append(values[1:])
    return rows


# ---------------------------------------------------------------------------
# Flag handling
# ---------------------------------------------------------------------------


def _add_generator_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--gen",
        choices=["srw", "ergodic", "birth-death", "zigzag", "tau-tent", "spiral2d", "linear-drift"],
        help="walk generator",
    )
    sp.add_argument("--p", type=float, help="up-step probability for srw")
    sp.add_argument("--ell", type=float, help="target limsup speed for zigzag, in (0,1)")
    sp.add_argument(
        "--preset",
        help="birth-death preset (symmetric|lazy:<a>|reflected) or ergodic chain "
        "(switch:<a>,<b>|iid:<p>)",
    )
    sp.add_argument("--pattern", help="comma-separated steps for linear-drift")
    sp.add_argument("--tau-rule", dest="tau_rule", help="squares or geometric:<c>")
    sp.add_argument("--m", type=int, help="declared increment bound")
    sp.add_argument("--seed", type=int, help="64-bit seed")


def _build_config(args, require_seed: bool = True) -> dict:
    """Flat generator-config record from flags, with flag-named validation."""
    gen = args.gen
    if gen is None:
        raise ValueError("--gen is required")
    steps = args.steps
    if steps is None or steps < 1:
        raise ValueError("--steps must be >= 1")
    cfg = {"gen": gen, "steps": int(steps)}
    if require_seed and is_stochastic(cfg) and args.seed is None:
        raise ValueError(f"--seed is required for --gen {gen}")
    if gen == "srw":
        if args.p is None or not (0.0 <= args.p <= 1.0):
            raise ValueError("--p must lie in [0, 1]")
        cfg["p"] = args.p
    elif gen == "zigzag":
        if args.ell is None or not (0.0 < args.ell < 1.0):
            raise ValueError("--ell must lie in (0, 1)")
        cfg["ell"] = args.ell
    elif gen in ("ergodic", "birth-death"):
        if not args.preset:
            raise ValueError(f"--preset is required for --gen {gen}")
        cfg["preset"] = args.preset
    elif gen == "tau-tent":
        if not args.tau_rule:
            raise ValueError("--tau-rule is required for --gen tau-tent")
        cfg["tau_rule"] = args.tau_rule
    elif gen == "linear-drift":
        if not args.pattern:
            raise ValueError("--pattern is required for --gen linear-drift")
        cfg["pattern"] = [int(v) for v in args.pattern.split(",")]
        cfg["m"] = args.m if args.m is not None else max(abs(v) for v in cfg["pattern"])
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def _parse_checkpoints(spec: Optional[str], horizon: int) -> np.ndarray:
    if spec is None or spec == "dyadic":
        return dyadic_checkpoints(horizon)
    if spec.startswith("arith:"):
        return arith_checkpoints(horizon, int(spec.split(":", 1)[1]))
    raise ValueError("--checkpoints must be dyadic or arith:<k>")


@contextmanager
def _open_out(path: Optional[str]) -> Iterator[TextIO]:
    """The file at `path`, written with LF endings and closed after, or stdout."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="\n") as fh:
            yield fh


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    cfg = _build_config(args)
    stream = make_walk(cfg)
    with _open_out(args.out) as fh:
        write_trajectory_csv(stream, cfg["steps"], fh)
    return 0


def cmd_analyze(args) -> int:
    if args.infile is None and args.gen is None:
        raise ValueError("analyze needs --in or an inline --gen configuration")
    if args.infile is not None:  # parsed straight into narrow steps, whose errors wait for the flags
        with open(args.infile, "r") as fh:
            d = _csv_header(fh)
            scan = _StepPass(d, args.m, keep=True)
            for coords in _csv_chunks(fh, d):
                scan.feed(coords)
        horizon = scan.rows - 1
        if args.steps is not None and args.steps != horizon:
            raise ValueError(f"--steps {args.steps} conflicts with the CSV's horizon {horizon}")
        args.steps = horizon
    stream = make_walk(_build_config(args)) if args.gen is not None else None
    if stream is not None and args.m is not None and args.m != stream.m:
        raise ValueError(f"--m {args.m} conflicts with the generator's m={stream.m}")
    horizon = args.steps
    if args.infile is not None:  # with --gen, the generator's config describes the CSV
        meta = None if stream is None else stream.metadata
        stream = _stored_walk(scan, args.m, "csv", meta)
    checkpoints = _parse_checkpoints(args.checkpoints, horizon)
    with _open_out(args.out) as fh:  # before the run, so a bad path costs no run
        report = analyze_stream(stream, horizon, checkpoints=checkpoints)
        if args.plot_data:
            for row in report.rows:
                n = row["n"]
                for series in ("x_over_n", "M_over_n", "r_over_n"):
                    fh.write(f"{n}\t{row[series]}\t{series}\n")
        else:
            for line in report.jsonl_lines():
                fh.write(line + "\n")
    return 1 if any(row["violations"] for row in report.rows) else 0


def cmd_mc(args) -> int:
    if args.seed is None:
        raise ValueError("--seed is required for mc")
    master = args.seed
    args.seed = None  # the master seed is not part of the generator config
    cfg = _build_config(args, require_seed=False)
    metrics = tuple(args.metric.split(",")) if args.metric else ("range_speed", "walk_speed")
    for name in metrics:
        if name not in METRICS:
            raise ValueError(f"--metric {name!r} unknown; choose from {METRICS}")
    spec = TrialSpec(
        config=cfg,
        horizon=cfg["steps"],
        metrics=metrics,
        trials=args.trials if args.trials is not None else 1,
        master_seed=master,
    )
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    with _open_out(args.out) as fh:  # before the trials, so a bad path costs no run
        report = run_trials(spec, workers=workers)
        doc = report.to_json_doc()
        failed = False
        has_theory = any(agg.theory is not None for agg in report.per_metric.values())
        if has_theory:
            verdicts = compare(report, args.tol)
            doc["tol"] = args.tol
            doc["verdicts"] = verdicts
            failed = not all(v["pass"] for v in verdicts.values())
        text = json.dumps(doc, indent=2)
        fh.write(text + "\n")
    if args.json and args.out:
        print(text)
    if not args.json:
        for name, agg in report.per_metric.items():
            line = f"{name}: mean={agg.mean:.6g} stddev={agg.stddev:.6g} ci95={agg.ci95:.6g}"
            if agg.theory is not None:
                line += f" theory={agg.theory:.6g} delta={agg.delta:.6g}"
            print(line, file=sys.stderr)
        if has_theory:
            for name, v in doc["verdicts"].items():
                print(
                    f"{'PASS' if v['pass'] else 'FAIL'} {name} (delta {v['delta']:.6g}, tol {args.tol})",
                    file=sys.stderr,
                )
    return 1 if failed else 0


def cmd_verify(args) -> int:
    results = run_suite(
        args.suite,
        paths=args.paths,
        length=args.len,
        m_values=args.m,
        seed=args.seed,
        trials=args.trials,
        steps=args.steps,
    )
    ok = True
    for res in results:
        ok &= res.passed
        print(f"{'PASS' if res.passed else 'FAIL'}: {res.name} ({res.detail})")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangewalk",
        description="Integer-lattice walks, range statistics, and verification runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a trajectory CSV")
    _add_generator_flags(g)
    g.add_argument("--steps", type=int, help="horizon (number of steps)")
    g.add_argument("--out", help="output CSV path (default stdout)")
    g.set_defaults(func=cmd_generate)

    a = sub.add_parser("analyze", help="analyze a CSV or an inline generator run")
    _add_generator_flags(a)
    a.add_argument("--in", dest="infile", help="trajectory CSV to read")
    a.add_argument("--steps", type=int, help="horizon for inline generation")
    a.add_argument("--checkpoints", help="dyadic (default) or arith:<k>")
    a.add_argument("--out", help="output path (default stdout)")
    a.add_argument(
        "--plot-data",
        action="store_true",
        help="emit plot-ready TSV (n, value, series) instead of JSONL",
    )
    a.set_defaults(func=cmd_analyze)

    m = sub.add_parser("mc", help="run Monte Carlo trials and compare to theory")
    _add_generator_flags(m)
    m.add_argument("--steps", type=int, help="horizon per trial")
    m.add_argument("--trials", type=int, help="number of independent trials")
    m.add_argument("--metric", help="comma list from " + ",".join(METRICS))
    m.add_argument("--tol", type=float, default=0.02, help="theory tolerance (default 0.02)")
    m.add_argument("--workers", type=int, help="thread-pool width (default: all cores)")
    m.add_argument("--out", help="write the JSON report here")
    m.add_argument("--json", action="store_true", help="print the JSON report to stdout")
    m.set_defaults(func=cmd_mc)

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("--suite", required=True, choices=list(SUITES))
    v.add_argument("--paths", type=int, help="number of random paths")
    v.add_argument("--len", type=int, help="length of each random path")
    v.add_argument("--m", type=int, help="increment bound for random paths")
    v.add_argument("--seed", type=int, help="suite seed")
    v.add_argument("--trials", type=int, help="Monte Carlo trials (oracle-range)")
    v.add_argument("--steps", type=int, help="horizon for generator-based suites")
    v.set_defaults(func=cmd_verify)
    return parser


#: The process's one parser, built on first use: building costs about 1.5 ms
#: a call, and parsing leaves the parser as it was.
_parser = functools.cache(build_parser)


def run_command(argv=None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError, OverflowError, MemoryGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
