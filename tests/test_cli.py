"""CLI surface: flags, exit codes, file formats, report round trips."""

import contextlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rangewalk import core
from rangewalk.analysis import RangeTracker, analyze_stream
from rangewalk.cli import (
    CsvFormatError,
    read_trajectory_csv,
    run_command,
    write_trajectory_csv,
)
from rangewalk import cli
from rangewalk.core import WalkMetadata, WalkStream, walk_from_path
from rangewalk.suites import SUITES
from rangewalk.generators import gen_spiral2d, gen_zigzag, make_walk


def run(argv):
    return run_command(argv)


def _parse_rows_loop(text, d):
    """The line loop on a whole body: the reference parse, an int64 array or an error."""
    rows = cli._parse_rows_loop(text, d)
    if not rows:
        raise CsvFormatError("line 2: no data rows")
    return np.asarray(rows, dtype=np.int64).reshape(-1, d)


def _row_by_row_csv(stream, horizon):
    """Reference writer: one formatted line per position."""
    lines = ["n," + ",".join(f"x{i + 1}" for i in range(stream.d)) + "\n"]
    for n, x in enumerate(stream.path_array(horizon).tolist()):
        lines.append(f"{n}," + (str(x) if stream.d == 1 else ",".join(map(str, x))) + "\n")
    return "".join(lines)


_INT64_EDGES = [2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 10**18, -(10**19)]
_BLANKS = ["", " ", "\t", "\r", "\x0c", "\x1c", "\x85", "\xa0"]
_ODD_CHARS = "\t\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0_\u0663"
_UNICODE_DIGITS = str.maketrans("0123456789", "".join(chr(0x660 + i) for i in range(10)))


@st.composite
def _csv_bodies(draw):
    """Data rows for d = 1..3: well formed and plainly spelled, or with now
    and then a spelling or a fault the parsers may disagree on, or with one
    odd character inserted anywhere."""
    d = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(["plain", "messy", "one char"]))
    rare = lambda: mode == "messy" and draw(st.sampled_from([False] * 7 + [True]))  # noqa: E731

    def field(value):
        text = str(value)
        style = draw(st.sampled_from(["plus", "zeros", "underscore", "unicode"])) if rare() else ""
        if style == "plus" and value >= 0:
            text = "+" + text
        elif style == "zeros":
            text = text.replace("-", "-00") if value < 0 else "00" + text
        elif style == "underscore" and abs(value) >= 10:
            text = text[:-1] + "_" + text[-1]
        elif style == "unicode":
            text = text.translate(_UNICODE_DIGITS)
        if rare():
            text = draw(st.sampled_from(_BLANKS)) + text + draw(st.sampled_from(_BLANKS))
        return text

    width = d + (draw(st.sampled_from([-1, 1])) if rare() else 0)
    lines = []
    for n in range(draw(st.integers(0, 6))):
        if rare():
            lines.append("".join(draw(st.lists(st.sampled_from(_BLANKS), max_size=3))))
        index = draw(st.integers(-1, 7)) if rare() else n
        coords = [draw(st.sampled_from(_INT64_EDGES) if rare() else st.integers(-50, 50)) for _ in range(width)]
        sep = draw(st.sampled_from([" ", "\x1c", ", "])) if rare() else ","
        lines.append(sep.join(field(v) for v in [index] + coords))
    eol = draw(st.sampled_from(["\r\n", "\r", "\x85"])) if rare() else "\n"
    body = eol.join(lines) + draw(st.sampled_from(["", eol]))
    if mode == "one char":
        at = draw(st.integers(0, len(body)))
        body = body[:at] + draw(st.sampled_from(_ODD_CHARS)) + body[at:]
    noise = st.text(alphabet="0123456789+-,\n" + _ODD_CHARS, max_size=30)
    return d, draw(noise) if rare() else body


# Every decimal width from 1 to 19 digits at both of its ends, both signs,
# and the uint32 edge, where a block's magnitudes switch dtype.
_WIDTH_EDGES = [0, 2**63 - 1, -(2**63)] + [
    s * v for k in range(1, 19) for v in (10**k - 1, 10**k) for s in (1, -1)
] + [2**32 - 1, 2**32, -(2**32 - 1), -(2**32)]


def _bridge(a, b):
    """The points after `a` up to `b`, with midpoints put in where a step would not fit in int64."""
    if all(-(2**63) <= y - x < 2**63 for x, y in zip(a, b)):
        return [b]
    mid = [(x + y) // 2 for x, y in zip(a, b)]
    return _bridge(a, mid) + _bridge(mid, b)


@st.composite
def _edge_paths(draw):
    """(d, rows) for d = 1..3: width edges mixed with small values, so that
    digit counts differ within a block; one row is horizon 0."""
    d = draw(st.integers(1, 3))
    value = st.one_of(st.sampled_from(_WIDTH_EDGES), st.integers(-50, 50))
    points = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=1, max_size=12))
    rows = points[:1]
    for point in points[1:]:
        rows += _bridge(rows[-1], point)
    return d, rows


def _outcome(parse):
    try:
        arr = parse()
    except (CsvFormatError, OverflowError) as exc:
        return type(exc), str(exc)
    return arr.dtype, arr.shape, arr.tolist()


def _check_against_loop(d, body):
    """`read_trajectory_csv` gives what `_parse_rows_loop` gives, array or
    error; a body the loop reads that is spelled in the numpy parser's bytes,
    at most 19 digits a field, is read without the loop."""
    header = "n," + ",".join(f"x{i + 1}" for i in range(d)) + "\n"

    def reference():
        arr = _parse_rows_loop(body, d)
        return arr[:, 0] if d == 1 else arr

    expected = _outcome(reference)
    assert _outcome(lambda: read_trajectory_csv(io.StringIO(header + body))) == expected
    fields = re.split("[,\n]", body)
    if isinstance(expected[0], np.dtype) and set(body) <= set("0123456789+-,\n"):
        if max(len(f.lstrip("+-")) for f in fields) <= 19:
            assert cli._ChunkParser(d).parse(body, 0) is not None


def _no_loop(*args):
    raise AssertionError("the line loop ran")


@st.composite
def _planted_bodies(draw):
    """(d, body, planted): data rows of d = 1..3 spelled as the writer spells
    them, some after LF-only lines, with one row the loop refuses planted at a
    random line when `planted`: a wrong field count, a field that is not an
    integer, or a wrong step index."""
    d = draw(st.integers(1, 3))
    coord = st.integers(-(2**63), 2**63 - 1) | st.integers(-50, 50)
    rows = [[n, *draw(st.lists(coord, min_size=d, max_size=d))] for n in range(draw(st.integers(1, 40)))]
    planted = draw(st.booleans())
    if planted:
        at = draw(st.integers(0, len(rows) - 1))
        fault = draw(st.sampled_from(["count", "field", "index"]))
        if fault == "count":
            rows[at] = rows[at][:-1] if draw(st.booleans()) else rows[at] + [0]
        elif fault == "field":
            rows[at][draw(st.integers(0, d))] = draw(st.sampled_from(["", "x", "1.5", "--1", "1e3", "0x1"]))
        else:
            rows[at][0] = draw(st.sampled_from([-1, at + 1, at + 7]))
    lines = []
    for row in rows:
        lines += [""] * draw(st.sampled_from([0, 0, 0, 1, 2]))
        lines.append(",".join(map(str, row)))
    return d, "\n".join(lines) + draw(st.sampled_from(["", "\n"])), planted


class _RecordedReads(io.StringIO):
    """A text handle that records the size asked of every `read`."""

    def __init__(self, text):
        super().__init__(text)
        self.sizes = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)


class TestTrajectoryCsv:
    def test_write_read_roundtrip_1d(self):
        stream, _ = gen_zigzag(0.5, 20)
        buf = io.StringIO()
        write_trajectory_csv(stream, 20, buf)
        text = buf.getvalue()
        assert text.startswith("n,x1\n0,0\n1,1\n")
        assert "\r" not in text
        arr = read_trajectory_csv(io.StringIO(text))
        stream2, _ = gen_zigzag(0.5, 20)
        assert np.array_equal(arr, stream2.path_array(20))

    def test_write_read_roundtrip_2d(self):
        buf = io.StringIO()
        write_trajectory_csv(gen_spiral2d(9), 9, buf)
        assert buf.getvalue().splitlines()[0] == "n,x1,x2"
        arr = read_trajectory_csv(io.StringIO(buf.getvalue()))
        assert arr.shape == (10, 2)
        assert arr[1].tolist() == [1, 0]

    def test_bad_header(self):
        with pytest.raises(CsvFormatError, match="line 1"):
            read_trajectory_csv(io.StringIO("t,x\n0,0\n"))

    def test_non_integer_field_reports_line(self):
        with pytest.raises(CsvFormatError, match="line 3"):
            read_trajectory_csv(io.StringIO("n,x1\n0,0\n1,oops\n"))

    def test_wrong_index_reports_line(self):
        with pytest.raises(CsvFormatError, match="line 4"):
            read_trajectory_csv(io.StringIO("n,x1\n0,0\n1,1\n5,2\n"))

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(CsvFormatError, match="line 2"):
            read_trajectory_csv(io.StringIO("n,x1\n0,0,7\n"))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_block_writer_matches_row_by_row(self, d):
        # Three blocks of 2^16 positions; coordinates within 2^21 of +-2^63.
        horizon = 2**17 + 5
        steps = np.random.default_rng(d).integers(-3, 4, size=(horizon, d))
        edge = 2**63 - 2**21
        start = np.array([edge, -edge, 7][:d], dtype=np.int64)
        path = np.vstack([start, start + np.cumsum(steps, axis=0)])
        path = path[:, 0] if d == 1 else path
        buf = io.StringIO()
        write_trajectory_csv(walk_from_path(path), horizon, buf)
        assert buf.getvalue() == _row_by_row_csv(walk_from_path(path), horizon)

    @settings(deadline=None)
    @given(_edge_paths())
    @example((1, [[-(2**63)]]))
    @example((3, [[0, 2**63 - 1, -(2**63)]]))
    def test_writer_spells_each_entry_as_str_int(self, case):
        d, rows = case
        path = np.array(rows, dtype=np.int64)
        buf = io.StringIO()
        write_trajectory_csv(walk_from_path(path[:, 0] if d == 1 else path), len(rows) - 1, buf)
        lines = ["n," + ",".join(f"x{i + 1}" for i in range(d))]
        lines += [",".join(str(int(v)) for v in [n, *row]) for n, row in enumerate(rows)]
        assert buf.getvalue() == "\n".join(lines) + "\n"

    @settings(deadline=None)
    @given(_edge_paths(), st.integers(1, 9), st.integers(2, 5))
    @example((3, [[0, 2**63 - 1, -(2**63)], [1, 2**63 - 1, -(2**63)]]), 1, 2)
    def test_writer_pieces_match_row_by_row(self, case, piece, block):
        # Pieces of `piece` rows and blocks of `block` positions: each block
        # must be spelled before the next overwrites it.
        d, rows = case
        path = np.array(rows, dtype=np.int64)
        path = path[:, 0] if d == 1 else path
        horizon = len(rows) - 1
        expected = _row_by_row_csv(walk_from_path(path), horizon)
        buf = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "CHUNK_BYTES", piece * 8 * (d + 1))  # int64 rows of n, x1..xd
            mp.setattr(WalkStream._checked_blocks, "__defaults__", (block,))
            write_trajectory_csv(walk_from_path(path), horizon, buf)
        assert buf.getvalue() == expected

    @settings(deadline=None)
    @given(_edge_paths(), st.sampled_from([cli.CHUNK_BYTES]) | st.integers(1, 64))
    @example((1, [[-(2**63)], [1 - 2**63]]), 1)
    @example((3, [[0, 2**63 - 1, -(2**63)]]), 3)
    def test_reader_reads_the_writer_rows_back(self, case, chunk):
        d, rows = case
        path = np.array(rows, dtype=np.int64)
        path = path[:, 0] if d == 1 else path
        buf = io.StringIO()
        write_trajectory_csv(walk_from_path(path), len(rows) - 1, buf)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "CHUNK_BYTES", chunk)
            mp.setattr(cli, "_parse_rows_loop", _no_loop)
            back = read_trajectory_csv(io.StringIO(buf.getvalue()))
        assert back.dtype == np.int64 and back.tolist() == path.tolist()

    def test_reader_asks_at_most_a_chunk_a_read(self, monkeypatch):
        # About 8 chunks of 19-digit coordinates, all on the numpy path.
        steps = np.random.default_rng(0).integers(-1, 2, size=20_000)
        path = 2**62 + np.concatenate([[0], np.cumsum(steps)])
        buf = io.StringIO()
        write_trajectory_csv(walk_from_path(path), len(steps), buf)
        fh = _RecordedReads(buf.getvalue())
        monkeypatch.setattr(cli, "_parse_rows_loop", _no_loop)
        assert read_trajectory_csv(fh).tolist() == path.tolist()
        assert len(fh.sizes) > len(buf.getvalue()) // cli.CHUNK_BYTES >= 7
        assert all(isinstance(size, int) and 0 < size <= cli.CHUNK_BYTES for size in fh.sizes), fh.sizes

    @settings(max_examples=300, deadline=None)
    @given(_planted_bodies(), st.integers(1, 64))
    @example((1, "0,1\n1,2\n2\n", True), 4)
    @example((2, "0,1,2\n\n\n1,x,3\n", True), 6)
    def test_streamed_reader_fails_as_the_loop_on_the_whole_text(self, case, chunk):
        # Chunks of 1-64 bytes: the planted row is in a later chunk than the
        # rows before it, and its line number counts the lines of theirs.
        d, body, planted = case
        header = "n," + ",".join(f"x{i + 1}" for i in range(d)) + "\n"
        if planted:
            with pytest.raises(CsvFormatError) as want:
                _parse_rows_loop(body, d)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "CHUNK_BYTES", chunk)
            if planted:
                with pytest.raises(CsvFormatError) as got:
                    read_trajectory_csv(io.StringIO(header + body))
                assert str(got.value) == str(want.value)
            else:
                mp.setattr(cli, "_parse_rows_loop", _no_loop)
                back = read_trajectory_csv(io.StringIO(header + body))
        if not planted:
            expected = _parse_rows_loop(body, d)
            assert back.tolist() == (expected[:, 0] if d == 1 else expected).tolist()

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("spaced", [False, True])
    def test_a_file_reads_as_its_text(self, tmp_path, monkeypatch, d, spaced):
        # Rows of one-digit fields are the fewest bytes a row the result is
        # sized for; a spaced row sends its chunk to the loop.
        rows = [[k] + [k % 3 - 1] * d for k in range(10)]
        if spaced:
            rows[7][1] = " 5"
        body = "".join(",".join(map(str, row)) + "\n" for row in rows)
        text = "n," + ",".join(f"x{i + 1}" for i in range(d)) + "\n" + body
        csv = tmp_path / "t.csv"
        csv.write_text(text, newline="\n")
        monkeypatch.setattr(cli, "CHUNK_BYTES", 8)
        with open(csv, "r") as fh:
            back = read_trajectory_csv(fh)
        expected = _parse_rows_loop(body, d)
        assert back.shape == ((10,) if d == 1 else (10, d)) and back.dtype == np.int64
        assert back.tolist() == (expected[:, 0] if d == 1 else expected).tolist()
        assert read_trajectory_csv(io.StringIO(text)).tolist() == back.tolist()

    @pytest.mark.parametrize("body", ["\n0,1\n1,2\n", "0,1\n\n1,2\n", "0,1\n1,2\n\n", "0,1\n1,2"])
    def test_blank_lines_and_no_final_lf_stay_off_the_loop(self, body, monkeypatch):
        monkeypatch.setattr(cli, "_parse_rows_loop", _no_loop)
        assert read_trajectory_csv(io.StringIO("n,x1\n" + body)).tolist() == [1, 2]

    @pytest.mark.parametrize(
        "field", [str(2**63), str(-(2**63) - 1), str(10**19), str(-(10**19)), "0" * 19 + "1", "9" * 20]
    )
    def test_fields_past_int64_or_19_digits_go_to_the_loop(self, field, tmp_path, capsys):
        body = f"0,{field}\n1,0\n"
        assert cli._ChunkParser(1).parse(body, 0) is None
        _check_against_loop(1, body)
        if -(2**63) <= int(field) < 2**63:
            return
        csv = tmp_path / "t.csv"
        csv.write_text("n,x1\n" + body)
        assert run(["analyze", "--in", str(csv)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @settings(max_examples=500, deadline=None)
    @given(_csv_bodies())
    def test_reader_agrees_with_line_loop(self, case):
        _check_against_loop(*case)

    @settings(max_examples=300, deadline=None)
    @given(_csv_bodies(), st.integers(1, 64))
    @example((1, "0,+0\n"), 1)
    @example((1, "0,-0\n"), 2)
    @example((1, "0,-" + "0" * 19 + "\n"), 3)
    @example((1, "0,-\n"), 1)
    @example((1, "0,+\n"), 5)
    @example((1, "0,1-2\n"), 4)
    @example((1, ",,\n"), 1)
    @example((1, "0,+-1\n"), 2)
    @example((2, "+0,-0,+0\n\n1,2,3"), 1)
    @example((1, f"0,{2**63}\n1,0\n2,0,0\n"), 22)  # the later line's error wins over the overflow
    def test_reader_agrees_with_line_loop_at_chunk_edges(self, case, chunk):
        # Chunks of 1-64 bytes, so that nearly every line opens a chunk.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "CHUNK_BYTES", chunk)
            _check_against_loop(*case)

    @pytest.mark.parametrize("d", [1, 2])
    def test_the_loop_reads_only_the_chunk_numpy_refuses(self, d, monkeypatch):
        # One spaced row among 200: the loop parses its chunk alone, and the
        # chunks after it go back to numpy.
        rows = [[n] + [n % 5 - 2] * d for n in range(200)]
        rows[100][1] = " 7"
        lines = [",".join(map(str, row)) + "\n" for row in rows]
        header = "n," + ",".join(f"x{i + 1}" for i in range(d)) + "\n"
        texts, loop = [], cli._parse_rows_loop

        def recorded_loop(text, *args):
            texts.append(text)
            return loop(text, *args)

        monkeypatch.setattr(cli, "_parse_rows_loop", recorded_loop)
        monkeypatch.setattr(cli, "CHUNK_BYTES", 64)
        back = read_trajectory_csv(io.StringIO(header + "".join(lines)))
        assert len(texts) == 1 and " 7" in texts[0]
        assert len(texts[0]) <= cli.CHUNK_BYTES + max(map(len, lines))  # a chunk and the line cut before it
        expected = _parse_rows_loop("".join(lines), d)
        assert back.tolist() == (expected[:, 0] if d == 1 else expected).tolist()


class TestGenerate:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["generate", "--gen", "zigzag", "--ell", "0.5", "--steps", "20", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,x1"
        assert len(lines) == 22
        assert lines[-1] == "20,2"

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["generate", "--gen", "srw", "--p", "1.5", "--steps", "5", "--seed", "1"], "--p"),
            (["generate", "--steps", "5"], "--gen"),
            (["generate", "--gen", "srw", "--p", "0.5", "--steps", "5"], "--seed"),
            (["generate", "--gen", "zigzag", "--ell", "1.5", "--steps", "5"], "--ell"),
            (["generate", "--gen", "birth-death", "--steps", "5", "--seed", "1"], "--preset"),
            (["generate", "--gen", "tau-tent", "--steps", "5"], "--tau-rule"),
            (["generate", "--gen", "linear-drift", "--steps", "5"], "--pattern"),
            (["analyze", "--gen", "spiral2d", "--steps", "5", "--checkpoints", "every"], "--checkpoints"),
            (["mc", "--gen", "srw", "--p", "0.5", "--steps", "5", "--seed", "1", "--metric", "speed"], "--metric"),
            (["analyze", "--gen", "srw", "--p", "0.5", "--steps", "5", "--seed", "1", "--m", "2"], "--m"),
            (["analyze", "--in", "{csv}", "--gen", "zigzag", "--ell", "0.5", "--m", "2"], "--m"),
        ],
        ids=["p", "gen", "seed", "ell", "preset", "tau-rule", "pattern", "checkpoints", "metric",
             "m-inline", "m-csv"],
    )
    def test_flag_validation_names_the_flag(self, argv, flag, tmp_path, capsys):
        csv = tmp_path / "t.csv"
        assert run(["generate", "--gen", "zigzag", "--ell", "0.5", "--steps", "8", "--out", str(csv)]) == 0
        assert run([str(csv) if a == "{csv}" else a for a in argv]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == "" and len(err) == 1 and err[0].startswith("error: "), err
        assert re.search(re.escape(flag) + r"\b(?!-)", err[0]), err

    @pytest.mark.parametrize(
        "flags,last,params",
        [
            (["--gen", "tau-tent", "--tau-rule", "geometric:3"], "18,0", {"tau_rule": "geometric", "steps": 18, "c": 3.0}),
            (["--gen", "linear-drift", "--pattern", "2,-1,1"], "18,12", {"m": 2, "pattern": [2, -1, 1], "steps": 18}),
        ],
        ids=["tau-tent", "linear-drift"],
    )
    def test_deterministic_flags_build_their_config(self, flags, last, params, capsys):
        assert run(["generate", *flags, "--steps", "18"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == last
        assert run(["analyze", *flags, "--steps", "18"]) == 0
        prov = json.loads(capsys.readouterr().out.splitlines()[-1])["provenance"]
        assert prov["params"] == params and prov["m"] == params.get("m", 1)

    def test_steps_required(self, capsys):
        assert run(["generate", "--gen", "srw", "--p", "0.5", "--seed", "1"]) == 2
        assert "--steps" in capsys.readouterr().err

    def test_unknown_flag_is_an_error(self, capsys):
        assert run(["generate", "--gen", "srw", "--p", ".5", "--steps", "5", "--frobnicate"]) == 2


class TestAnalyze:
    def test_malformed_ergodic_preset_names_the_form(self, capsys):
        argv = ["analyze", "--gen", "ergodic", "--preset", "switch:0.1", "--steps", "10"]
        assert run(argv + ["--seed", "1"]) == 2
        assert "switch:<a>,<b> or iid:<p>" in capsys.readouterr().err

    @pytest.mark.parametrize("preset", ["switch:nan,0.3", "switch:0.1,inf", "switch:-inf,0.3", "iid:nan"])
    def test_non_finite_chain_preset_is_a_usage_error(self, preset, capsys):
        argv = ["analyze", "--gen", "ergodic", "--preset", preset, "--steps", "10", "--seed", "1"]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: transition entries must lie in [0, 1]\n"

    def test_failed_stationary_solve_is_a_usage_error(self, monkeypatch, capsys):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        argv = ["mc", "--gen", "ergodic", "--preset", "switch:0.1,0.3", "--steps", "10", "--seed", "1"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: stationary distribution: the direct solve misses")

    def test_spec_example_last_tau(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        run(["generate", "--gen", "zigzag", "--ell", "0.5", "--steps", "20", "--out", str(out)])
        assert run(["analyze", "--in", str(out), "--m", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        final_row = json.loads(lines[-3])
        assert final_row["last_tau"] == 18
        assert final_row["tau_count"] == 4

    def test_roundtrip_is_byte_identical(self, tmp_path):
        csv_path = tmp_path / "t.csv"
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(["generate", "--gen", "srw", "--p", "0.6", "--steps", "500", "--seed", "5", "--out", str(csv_path)])
        assert run([
            "analyze", "--in", str(csv_path),
            "--gen", "srw", "--p", "0.6", "--steps", "500", "--seed", "5",
            "--out", str(a),
        ]) == 0
        assert run([
            "analyze", "--gen", "srw", "--p", "0.6", "--steps", "500", "--seed", "5",
            "--out", str(b),
        ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_a_violation_exits_1(self, tmp_path, monkeypatch):
        # A source that claims m = 1 and jumps by 3 at step 50.
        class Jump:
            def __init__(self):
                self._done = 0

            def take(self, k):
                out = np.zeros(k, dtype=np.int64)
                if self._done < 50 <= self._done + k:
                    out[49 - self._done] = 3
                self._done += k
                return out

        liar = WalkStream(WalkMetadata("liar", {}, None, m=1, d=1), Jump)
        monkeypatch.setattr(cli, "make_walk", lambda cfg: liar)
        out = tmp_path / "r.jsonl"
        argv = ["analyze", "--gen", "srw", "--p", "0.5", "--steps", "100", "--seed", "1"]
        assert run(argv + ["--out", str(out)]) == 1
        checks = [v["check"] for line in out.read_text().splitlines()[:-2]
                  for v in json.loads(line)["violations"]]
        assert checks == ["increment_bound", "maximal_range", "range_sandwich_1d"]

    def test_report_embeds_config_and_seed(self, tmp_path):
        out = tmp_path / "r.jsonl"
        run(["analyze", "--gen", "srw", "--p", "0.6", "--steps", "100", "--seed", "5", "--out", str(out)])
        prov = json.loads(out.read_text().splitlines()[-1])["provenance"]
        assert prov["seed"] == 5
        assert prov["params"]["p"] == 0.6

    def test_plot_data_tsv(self, capsys):
        assert run(["analyze", "--gen", "zigzag", "--ell", "0.5", "--steps", "16", "--plot-data"]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.strip().splitlines()]
        assert all(len(r) == 3 for r in rows)
        series = {r[2] for r in rows}
        assert series == {"x_over_n", "M_over_n", "r_over_n"}

    def test_checkpoints_arith(self, capsys):
        assert run(["analyze", "--gen", "zigzag", "--ell", "0.5", "--steps", "12",
                    "--checkpoints", "arith:4"]) == 0
        ns = [json.loads(l)["n"] for l in capsys.readouterr().out.strip().splitlines()[:-2]]
        assert ns == [4, 8, 12]

    def test_violating_csv_is_an_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("n,x1\n0,0\n1,1\n2,6\n")
        assert run(["analyze", "--in", str(bad), "--m", "1"]) == 2
        assert "step 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows",
        [
            "0,9223372036854775808\n",  # 2^63 does not fit in int64
            "0,9223372036854775807\n1,-9223372036854775808\n",  # a wrapped step
        ],
    )
    def test_coordinate_overflow_is_a_limit_error(self, tmp_path, capsys, rows):
        bad = tmp_path / "big.csv"
        bad.write_text("n,x1\n" + rows)
        assert run(["analyze", "--in", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_set_mode_cap_is_a_limit_error(self, monkeypatch, capsys):
        # Lower the default point cap so the spiral's 10^3 new points exceed it.
        monkeypatch.setattr(RangeTracker.__init__, "__defaults__", (1, 100))
        assert run(["analyze", "--gen", "spiral2d", "--steps", "1000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cap of 100" in err

    @pytest.mark.parametrize("gen", [[], ["--gen", "srw", "--p", "0.5", "--seed", "1"]], ids=["csv", "gen"])
    def test_steps_other_than_the_csv_horizon_is_a_usage_error(self, gen, tmp_path, capsys):
        csv = tmp_path / "x.csv"
        assert run(["generate", "--gen", "srw", "--p", "0.5", "--seed", "1", "--steps", "3", "--out", str(csv)]) == 0
        assert run(["analyze", "--in", str(csv), *gen, "--steps", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: --steps 2 conflicts with the CSV's horizon 3\n"
        assert run(["analyze", "--in", str(csv), *gen, "--steps", "3"]) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[-2])["summary"]["horizon"] == 3

    def test_missing_input(self, capsys):
        assert run(["analyze", "--in", "/nonexistent/file.csv", "--m", "1"]) == 2

    def test_needs_source(self, capsys):
        assert run(["analyze", "--steps", "10"]) == 2


def _analyze_from_array(argv):
    """`analyze --in` as it ran on the whole file as one int64 array: the
    reference for the parse that feeds the step pass chunk by chunk.
    Returns (exit code, stdout, stderr)."""
    args = cli._parser().parse_args(argv)
    try:
        with open(args.infile, "r") as fh:
            arr = read_trajectory_csv(fh)
        horizon = arr.shape[0] - 1
        if args.steps is not None and args.steps != horizon:
            raise ValueError(f"--steps {args.steps} conflicts with the CSV's horizon {horizon}")
        args.steps = horizon
        stream = make_walk(cli._build_config(args)) if args.gen is not None else None
        if stream is not None and args.m is not None and args.m != stream.m:
            raise ValueError(f"--m {args.m} conflicts with the generator's m={stream.m}")
        meta = None if stream is None else stream.metadata
        walk = walk_from_path(arr, m=args.m, name="csv", metadata=meta)
        report = analyze_stream(walk, horizon, checkpoints=cli._parse_checkpoints(args.checkpoints, horizon))
    except (ValueError, OverflowError) as exc:
        return 2, "", f"error: {exc}\n"
    code = 1 if any(row["violations"] for row in report.rows) else 0
    return code, "".join(line + "\n" for line in report.jsonl_lines()), ""


# Flags for `analyze --in`: an inferred m, a declared one, and generator
# metadata, whose m is known only after the parse.
_ANALYZE_FLAGS = [
    [],
    ["--m", "2"],
    ["--m", "1"],
    ["--gen", "linear-drift", "--pattern", "1"],
    ["--gen", "linear-drift", "--pattern", "1", "--m", "3"],
    ["--gen", "spiral2d"],
    ["--gen", "spiral2d", "--m", "3"],
    ["--steps", "1"],
]


@st.composite
def _analyze_cases(draw):
    """(text, flags): a CSV of d = 1..3 from `_planted_bodies` (full-range
    coordinates, so steps beyond int64 are common), at times with a line the
    numpy parser refuses, a value beyond int64, CRLF or CR endings."""
    d, body, _ = draw(_planted_bodies())
    lines = body.split("\n")
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines) - 1))
        if draw(st.booleans()):
            lines[at] = " " + lines[at]  # the loop reads the line; numpy refuses its chunk
        elif lines[at]:
            lines[at] = re.sub("[^,]*$", str(draw(st.sampled_from([2**63, -(2**63) - 1]))), lines[at])
    eol = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    header = "n," + ",".join(f"x{i + 1}" for i in range(d))
    return eol.join([header] + lines), draw(st.sampled_from(_ANALYZE_FLAGS))


class TestAnalyzeFromNarrowSteps:
    """`analyze --in` parses into the step pass, with no int64 array of the
    path: reports, exit codes and every error, in the same precedence, are
    those of `walk_from_path(read_trajectory_csv(...))`."""

    @staticmethod
    def _check(csv, flags):
        argv = ["analyze", "--in", str(csv), *flags]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert (code, out.getvalue(), err.getvalue()) == _analyze_from_array(argv)
        return code, err.getvalue()

    @settings(max_examples=150, deadline=None)
    @given(_analyze_cases(), st.integers(1, 64) | st.just(cli.CHUNK_BYTES), st.integers(2, 9))
    @example(("n,x1\n0,5", []), 1, 2)  # one row: horizon 0
    @example(("n,x1\n0,5", ["--gen", "linear-drift", "--pattern", "1"]), 3, 2)
    @example(("n,x1\n0,0\n1,3\n2,x", ["--m", "1"]), 4, 2)  # a bad field beats an earlier violation
    @example(("n,x1\n0,9223372036854775807\n1,-1\n2,x\n", []), 2, 2)  # ... and an earlier step overflow
    @example(("n,x1\n0,9223372036854775807\n1,-1\n", ["--steps", "2"]), 5, 2)  # a flag beats the overflow
    @example(("n,x1\n0,9223372036854775807\n1,-1\n2,9223372036854775808\n", []), 64, 2)  # ... and a value
    @example(("n,x1\n0,9223372036854775807\n1,-1\n", ["--gen", "spiral2d"]), 64, 2)  # over a d mismatch
    @example(("n,x1,x2\n0,0,0\n1,1,1\n2,9,9\n", ["--gen", "spiral2d"]), 64, 2)  # violation at step 0
    @example(("n,x1\n0,0\n1,1\n", ["--gen", "spiral2d"]), 64, 2)  # d mismatch
    def test_matches_the_whole_array_reference(self, tmp_path_factory, case, chunk, step_chunk):
        text, flags = case
        csv = tmp_path_factory.mktemp("csv") / "t.csv"
        csv.write_text(text, newline="")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "CHUNK_BYTES", chunk)
            mp.setattr(core, "STEP_CHUNK", step_chunk)
            self._check(csv, flags)

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_walks_under_every_flag(self, tmp_path, monkeypatch, d, eol):
        # 3000 rows of unit steps along an axis, or none, with one step of 2
        # at step 2000; a spaced line in the middle that the loop reads alone;
        # 256-byte chunks, and 7-step chunks in the pass and in the search for
        # the long step that the generator's m (1) makes a violation.
        rng = np.random.Generator(np.random.PCG64(d))
        steps = np.zeros((2999, d), dtype=np.int64)
        steps[np.arange(2999), rng.integers(0, d, 2999)] = rng.integers(-1, 2, 2999)
        steps[2000] = [2] + [0] * (d - 1)
        path = np.vstack([np.zeros((1, d), dtype=np.int64), np.cumsum(steps, axis=0)])
        buf = io.StringIO()
        write_trajectory_csv(walk_from_path(path[:, 0] if d == 1 else path), 2999, buf)
        lines = buf.getvalue().split("\n")
        lines[1500] = " " + lines[1500]
        csv = tmp_path / "t.csv"
        csv.write_text(eol.join(lines), newline="")
        monkeypatch.setattr(cli, "CHUNK_BYTES", 256)
        monkeypatch.setattr(core, "STEP_CHUNK", 7)
        outcomes = [self._check(csv, flags) for flags in _ANALYZE_FLAGS]
        violation = (2, "error: stored path violates declared increment bound m=1 at step 2000\n")
        mismatch = [(2, f"error: metadata declares d={k} but the path has d={d}\n") for k in (1, 2)]
        conflict = (2, "error: --m 3 conflicts with the generator's m=1\n")
        assert outcomes[:3] == [(0, ""), (0, ""), violation]
        assert outcomes[3:5] == [violation, (0, "")] if d == 1 else [mismatch[0]] * 2
        assert outcomes[5:7] == [violation if d == 2 else mismatch[1], conflict]
        assert outcomes[7] == (2, "error: --steps 1 conflicts with the CSV's horizon 2999\n")

    def test_peak_memory_is_about_a_byte_a_row(self, tmp_path):
        # 2^18 unit steps: the stored steps take 1 B a row.  An int64 array
        # of the path would take 8 B a row, 2 MiB alone.
        rows = 1 << 18
        csv = tmp_path / "u.csv"
        argv = ["analyze", "--in", str(csv), "--out", os.devnull]
        assert run(["generate", "--gen", "srw", "--p", "0.5", "--seed", "3",
                    "--steps", str(rows - 1), "--out", str(csv)]) == 0
        assert run(argv) == 0  # caches and lazy imports, once
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows + 3 * 2**20, peak


class TestMc:
    def test_json_report_with_verdicts(self, capsys):
        assert run([
            "mc", "--gen", "srw", "--p", "0.7", "--steps", "20000",
            "--trials", "50", "--seed", "42", "--json", "--workers", "2",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["spec"]["trials"] == 50
        assert doc["per_metric"]["range_speed"]["theory"] == pytest.approx(0.4)
        assert doc["verdicts"]["range_speed"]["pass"]
        assert doc["verdicts"]["cross_range_walk"]["pass"]
        assert doc["tol"] == 0.02

    def test_failing_tolerance_exits_one(self, capsys):
        assert run([
            "mc", "--gen", "srw", "--p", "0.7", "--steps", "1000",
            "--trials", "10", "--seed", "1", "--tol", "1e-12", "--json",
        ]) == 1

    def test_workers_do_not_change_the_report(self, capsys):
        argv = ["mc", "--gen", "srw", "--p", "0.6", "--steps", "3000",
                "--trials", "20", "--seed", "9", "--json"]
        assert run(argv + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert run(argv + ["--workers", "4"]) == 0
        pooled = capsys.readouterr().out
        assert serial == pooled

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_a_usage_error(self, workers, capsys):
        assert run([
            "mc", "--gen", "srw", "--p", "0.5", "--steps", "10", "--trials", "2",
            "--seed", "1", "--workers", workers,
        ]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "workers" in err[0]

    def test_metric_selection(self, capsys):
        assert run([
            "mc", "--gen", "birth-death", "--preset", "symmetric", "--steps", "1000",
            "--trials", "5", "--seed", "3", "--metric", "max_speed,no_return", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["per_metric"]) == {"max_speed", "no_return"}
        assert "verdicts" not in doc  # no theory for birth-death

    def test_seed_required(self, capsys):
        assert run(["mc", "--gen", "srw", "--p", "0.5", "--steps", "10", "--trials", "2"]) == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 5)])
    def test_master_seed_outside_uint64_is_a_usage_error(self, seed, capsys):
        # mix_seed masks the master seed: 2^64 would rerun seed 0's trials.
        assert run([
            "mc", "--gen", "srw", "--p", "0.5", "--steps", "10", "--trials", "50", "--seed", seed,
        ]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: seed must be an unsigned 64-bit integer"]

    def test_report_written_to_file(self, tmp_path):
        out = tmp_path / "mc.json"
        assert run([
            "mc", "--gen", "srw", "--p", "1.0", "--steps", "100",
            "--trials", "2", "--seed", "1", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["per_metric"]["range_speed"]["mean"] == pytest.approx(1.01)


# Small sizes for each verify suite (under 0.1 s each), and the number of properties it reports.
SUITE_RUNS = {
    "maximal-range": (["--paths", "20", "--len", "200"], 6),
    "sandwich": (["--paths", "50", "--len", "100"], 2),
    "excursion": (["--paths", "20", "--steps", "2000"], 3),
    "zigzag-exact": (["--steps", "100000"], 4),
    "spiral-distinct": (["--steps", "2000"], 3),
    "oracle-range": (["--trials", "20000"], 3),
}


class TestVerify:
    def test_spec_example_invocation(self, capsys):
        assert run([
            "verify", "--suite", "maximal-range",
            "--paths", "100", "--len", "200", "--m", "3", "--seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    @pytest.mark.parametrize("name", list(SUITES))
    def test_every_suite_prints_per_property_lines(self, name, capsys):
        flags, properties = SUITE_RUNS[name]
        assert run(["verify", "--suite", name, *flags]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == properties
        assert all(line.startswith("PASS: ") for line in lines)

    def test_sandwich_fails_on_corrupted_set_counts(self, monkeypatch, capsys):
        # 3 r + 7 > 2 M + 1 whenever r <= 2 M + 1, so every path breaks the sandwich.
        update = RangeTracker.update
        monkeypatch.setattr(RangeTracker, "update", lambda self, block: 3 * update(self, block) + 7)
        assert run(["verify", "--suite", "sandwich", "--paths", "50", "--len", "100"]) == 1
        assert capsys.readouterr().out.splitlines()[0] == (
            "FAIL: sandwich M+1 <= r <= 2M+1 on random m=1 paths "
            "(50 paths of length 100, 50 violations)"
        )

    def test_unknown_suite_is_usage_error(self, capsys):
        assert run(["verify", "--suite", "nonsense"]) == 2

    def test_spiral_at_zero_steps_is_an_input_error(self, capsys):
        # ||x_n||/n has no value at n = 0.
        assert run(["verify", "--suite", "spiral-distinct", "--steps", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: spiral-distinct needs steps >= 1 for its ||x_n||/n ratio\n"

    @pytest.mark.parametrize("paths", ["0", "-3"])
    @pytest.mark.parametrize("name", ["maximal-range", "sandwich", "excursion"])
    def test_fewer_than_one_path_is_an_input_error(self, name, paths, capsys):
        assert run(["verify", "--suite", name, "--paths", paths]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {name} needs paths >= 1\n"

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_excursion_seed_outside_uint64_is_a_usage_error(self, seed, capsys):
        # mix_seed masks the seed: -1 would rerun the paths of seed 2^64 - 1.
        assert run(["verify", "--suite", "excursion", "--paths", "2", "--steps", "100", "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: seed must be an unsigned 64-bit integer\n"

    @pytest.mark.parametrize("name", list(SUITES))
    def test_each_suite_gets_only_its_options(self, name, monkeypatch, capsys):
        fn, takes = SUITES[name]
        assert set(takes) <= set(inspect.signature(fn).parameters)
        received = []

        def record(**options):
            received.append(options)
            return []

        monkeypatch.setitem(SUITES, name, (record, takes))
        flags = {"--paths": "3", "--len": "4", "--m": "5", "--seed": "6",
                 "--trials": "7", "--steps": "8"}
        argv = ["verify", "--suite", name] + [v for kv in flags.items() for v in kv]
        assert run(argv) == 0
        values = {"paths": 3, "length": 4, "m_values": 5, "seed": 6, "trials": 7, "steps": 8}
        assert received == [{k: values[k] for k in takes}]
        # Options left unset are not passed at all.
        received.clear()
        assert run(["verify", "--suite", name]) == 0
        assert received == [{}]


class TestTopLevel:
    def test_unknown_subcommand(self):
        assert run(["explode"]) == 2

    @pytest.mark.parametrize("command", ["generate", "analyze", "mc"])
    def test_empty_out_is_an_io_error(self, command, capsys):
        argv = [command, "--gen", "srw", "--p", "0.5", "--seed", "1", "--steps", "10"]
        argv += ["--trials", "2", "--workers", "1"] if command == "mc" else []
        assert run(argv + ["--out", ""]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == "" and len(err) == 1 and err[0].startswith("error:")

    def test_no_subcommand(self):
        assert run([]) == 2

    @pytest.mark.parametrize("command, work", [("analyze", "analyze_stream"), ("mc", "run_trials")])
    def test_unwritable_out_fails_before_the_run(self, command, work, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError(f"{work} ran before --out was opened")

        monkeypatch.setattr(cli, work, never)
        argv = [command, "--gen", "srw", "--p", "0.5", "--seed", "1", "--steps", "10"]
        argv += ["--trials", "2", "--workers", "1"] if command == "mc" else []
        assert run(argv + ["--out", str(tmp_path / "no-such-dir" / "x.json")]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == "" and len(err) == 1 and err[0].startswith("error:")

    def test_one_parser_per_process_matches_fresh_processes(self, tmp_path, capsys):
        # Flags that one call sets must not leak into the next call's defaults.
        flags = ["--gen", "srw", "--p", "0.7", "--steps", "300", "--seed", "1"]
        mc = ["mc", "--steps", "200", "--trials", "20", "--seed", "3", "--workers", "1"]
        calls = [
            ["analyze", *flags, "--checkpoints", "arith:7", "--plot-data"],
            ["analyze", *flags],
            [*mc, "--gen", "ergodic", "--preset", "switch:0.1,0.3", "--metric", "range_speed", "--json"],
            [*mc, "--gen", "srw", "--p", "0.6"],
            ["generate", "--gen", "zigzag", "--ell", "0.5", "--steps", "40"],
        ]
        in_process = []
        for argv in calls:
            code = run(argv)
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        fresh = [
            subprocess.run([sys.executable, "-m", "rangewalk.cli", *argv], capture_output=True, text=True)
            for argv in calls
        ]
        assert in_process == [(p.returncode, p.stdout, p.stderr) for p in fresh]
