"""Synthetic generation, .tns parsing, factor CSVs, and trace persistence."""

import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcpd import data as gdata
from gcpd.data import (SyntheticSpec, generate, planted_factors, read_factors,
                       read_tns, sample_tensor, trace_header, write_factors, write_tns,
                       write_trace_csv, write_trace_json)
from gcpd.errors import ConfigError, DataError, GcpdError, ParseError
from gcpd.solver import IterationTrace, TraceRecord
from gcpd.tensors import DenseTensor, KruskalModel, SparseTensorCOO
from gcpd.verify import read_trace_csv


class TestGenerate:
    def test_deterministic_per_seed(self):
        spec = SyntheticSpec(shape=(5, 4, 3), rank=2, distribution="poisson", seed=9)
        t1, m1 = generate(spec)
        t2, m2 = generate(spec)
        assert np.array_equal(t1.values, t2.values)
        for a, b in zip(m1.factors, m2.factors):
            assert np.array_equal(a, b)

    def test_factors_in_half_open_interval(self):
        spec = SyntheticSpec(shape=(30, 20, 10), rank=4, distribution="gamma",
                             a_max=0.5, seed=1)
        model = planted_factors(spec, np.random.default_rng(1))
        for a in model.factors:
            assert a.min() > 0.0
            assert a.max() <= 0.5

    def test_bernoulli_zero_model_gives_zero_tensor(self):
        model = KruskalModel([np.zeros((3, 2)) for _ in range(3)])
        out = sample_tensor(model, "bernoulli-odds", np.random.default_rng(0))
        assert np.array_equal(out.values, np.zeros((3, 3, 3)))

    @staticmethod
    def _constant_model(value, copies=100_000):
        # Rank-1 model whose dense tensor is `copies` iid-sampled cells.
        return KruskalModel([np.full((copies, 1), value), np.ones((1, 1))])

    def test_poisson_monte_carlo_mean(self):
        mean = 2.7
        draws = sample_tensor(self._constant_model(mean), "poisson",
                              np.random.default_rng(3)).values
        se = math.sqrt(mean / draws.size)
        assert abs(draws.mean() - mean) <= 4 * se

    def test_gamma_monte_carlo_mean(self):
        mean = 1.4
        draws = sample_tensor(self._constant_model(mean), "gamma",
                              np.random.default_rng(4)).values
        se = mean / math.sqrt(draws.size)  # exponential: std = mean
        assert abs(draws.mean() - mean) <= 4 * se

    def test_bernoulli_monte_carlo_odds(self):
        m = 0.8
        p = m / (1.0 + m)
        draws = sample_tensor(self._constant_model(m), "bernoulli-odds",
                              np.random.default_rng(5)).values
        se = math.sqrt(p * (1 - p) / draws.size)
        assert abs(draws.mean() - p) <= 4 * se

    def test_unknown_distribution(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(shape=(2, 2), rank=1, distribution="cauchy")


class TestTnsFormat:
    def test_single_entry(self, tmp_path):
        p = tmp_path / "one.tns"
        p.write_text("1 1 1 3.0\n")
        t = read_tns(p, shape=(2, 2, 2))
        assert t.nnz == 1
        assert t.to_dense().values[0, 0, 0] == 3.0

    def test_zero_index_rejected(self, tmp_path):
        p = tmp_path / "bad.tns"
        p.write_text("0 1 1 3.0\n")
        with pytest.raises(ParseError, match="1-based"):
            read_tns(p, shape=(2, 2, 2))

    def test_out_of_declared_bounds(self, tmp_path):
        p = tmp_path / "oob.tns"
        p.write_text("3 1 1 1.0\n")
        with pytest.raises(ParseError, match="declared shape"):
            read_tns(p, shape=(2, 2, 2))

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "mal.tns"
        p.write_text("1 1 1 1.0\n1 1 oops 2.0\n")
        with pytest.raises(ParseError, match="mal.tns:2"):
            read_tns(p, shape=(2, 2, 2))

    def test_round_trip_random_tensor(self, tmp_path):
        rng = np.random.default_rng(6)
        idx = np.array([[i, j, k] for i in range(5) for j in range(4)
                        for k in range(3)])
        keep = rng.random(len(idx)) < 0.6
        idx = idx[keep][:50]
        values = rng.standard_normal(len(idx)) * 10
        sp = SparseTensorCOO((5, 4, 3), idx, values)
        path = tmp_path / "rt.tns"
        write_tns(sp, path)
        back = read_tns(path)
        assert back.shape.dims == (5, 4, 3)
        assert np.array_equal(back._linear, sp._linear)
        assert np.array_equal(back.values, sp.values)

    def test_dense_round_trip_through_sparse(self, tmp_path):
        rng = np.random.default_rng(7)
        dense = DenseTensor(rng.gamma(1.0, 0.5, size=(4, 3, 2)))
        path = tmp_path / "dense.tns"
        write_tns(dense, path)
        back = read_tns(path)
        assert np.array_equal(back.to_dense().values, dense.values)

    def test_shape_header_preserves_empty_slices(self, tmp_path):
        sp = SparseTensorCOO((4, 4, 4), [[0, 0, 0]], [1.0])
        path = tmp_path / "hdr.tns"
        write_tns(sp, path)
        assert read_tns(path).shape.dims == (4, 4, 4)

    @pytest.mark.parametrize("chunk", [6, None])
    @pytest.mark.parametrize("manifest", [None, {"seed": 3, "shape": [6, 5, 4]}])
    def test_writes_the_per_line_form(self, tmp_path, monkeypatch, manifest, chunk):
        if chunk:   # 79 entries: 13 full chunks and one of a single entry
            monkeypatch.setattr(gdata, "BLOCK_ENTRIES", chunk)
        # One entry per write, as the writer used to run: the reference form.
        def per_line(path, dims, indices, values):
            with path.open("w") as fh:
                fh.write("# shape: " + " ".join(str(d) for d in dims) + "\n")
                if manifest:
                    fh.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
                for idx, v in zip(indices, values):
                    fh.write(" ".join(str(int(i) + 1) for i in idx) + f" {v:.17g}\n")

        rng = np.random.default_rng(8)
        values = rng.standard_normal((6, 5, 4)) * 10.0 ** rng.integers(-300, 300, (6, 5, 4))
        values[rng.random(values.shape) < 0.4] = 0.0
        dense = DenseTensor(values)
        flat = values.ravel(order="F")
        nz = np.flatnonzero(flat)
        at = np.column_stack(np.unravel_index(nz, (6, 5, 4), order="F"))
        sparse = SparseTensorCOO((6, 5, 4), at, -flat[nz] / 3)
        for tensor, indices, entries in (
                (dense, at, flat[nz]),
                (sparse, at, sparse.values),
                (SparseTensorCOO((3, 2), np.zeros((0, 2)), []), np.zeros((0, 2)), [])):
            got, want = tmp_path / "got.tns", tmp_path / "want.tns"
            write_tns(tensor, got, manifest)
            per_line(want, tensor.dims, indices, entries)
            assert got.read_bytes() == want.read_bytes()

    def test_headerless_file_infers_shape(self, tmp_path):
        # External FROSTT-style files carry no shape header.
        p = tmp_path / "ext.tns"
        p.write_text("# a comment\n2 1 4 1.5\n1 3 2 2.5\n")
        t = read_tns(p)
        assert t.shape.dims == (2, 3, 4)
        assert t.nnz == 2


# Fault kinds planted by `_tns_case`; each one makes both readers raise.
FAULTS = ("field-count", "non-numeric", "fractional-index", "zero-index",
          "beyond-shape", "malformed-header", "trailing-comment", "mode-count",
          "empty", "beyond-late-header")


# Whitespace to `str.isspace` beside space and tab: no-break and em spaces,
# next-line, a file separator, vertical tab and form feed.
UNICODE_SPACES = ["\u00a0", "\u2003", "\u0085", "\u001c", "\v", "\f", " \u00a0\t"]


def _tns_case(data, fault=None):
    """(text, shape argument) of a generated .tns file with `fault` planted.

    Valid files mix comment and blank lines among the entries, CRLF endings,
    leading, trailing and repeated whitespace (ASCII, and characters beyond it
    that `str.isspace` accepts but "\n" line splitting does not break at), a
    missing final newline, header-less and header-only files, and the
    `shape=` argument.
    """
    draw = data.draw
    order = draw(st.integers(2, 4))
    dims = draw(st.lists(st.integers(1 if fault is None else 2, 4),
                         min_size=order, max_size=order))
    total = math.prod(dims)
    min_nnz = {"field-count": 2, "empty": 0}.get(fault, 1 if fault else 0)
    nnz = 0 if fault == "empty" else draw(st.integers(min_nnz, min(total, 8)))
    linear = draw(st.lists(st.integers(0, total - 1), min_size=nnz, max_size=nnz,
                           unique=True))
    entries = [[str(i + 1) for i in np.unravel_index(j, dims, order="F")]
               + [draw(st.sampled_from(["1", "-2.5", "0.125", "3e-7", "1E3", "+4.",
                                        ".5", repr(draw(st.floats(-1e6, 1e6)))]))]
               for j in linear]
    header_dims = list(dims)
    header = (draw(st.booleans()) if fault is None
              else fault in ("beyond-shape", "malformed-header", "mode-count",
                             "beyond-late-header"))
    # `shape=` overrides every header, so it is left out where it would mask
    # the planted fault.
    masks = fault in ("malformed-header", "mode-count", "empty", "beyond-late-header")
    shape_arg = tuple(dims) if not masks and draw(st.booleans()) else None
    row = draw(st.integers(1 if fault == "field-count" else 0, max(nnz - 1, 0)))
    if fault == "field-count":
        entries[row] = entries[row][1:] if draw(st.booleans()) else ["1"] + entries[row]
    elif fault == "non-numeric":
        col = draw(st.integers(0, order))
        # Python's int() and float() take '_' separators and non-ASCII digits;
        # the grammar does not.
        tokens = ["x", "1a", "--1", "1e", "0x1", "nan?", "1_0", "\uff11", "\u0663"]
        if col < order:
            tokens.append(str(2 ** 63))   # beyond int64, though a fine value
        entries[row][col] = draw(st.sampled_from(tokens))
    elif fault == "fractional-index":
        entries[row][draw(st.integers(0, order - 1))] = draw(
            st.sampled_from(["1.5", "2.0", "1e0"]))
    elif fault == "zero-index":
        entries[row][draw(st.integers(0, order - 1))] = "0"
    elif fault in ("beyond-shape", "beyond-late-header"):
        col = draw(st.integers(0, order - 1))
        entries[row][col] = str(dims[col] + draw(st.integers(1, 3)))
    elif fault == "mode-count":
        header_dims = header_dims[:-1] if draw(st.booleans()) else header_dims + [2]
    ws = st.sampled_from([" ", "  ", "\t", " \t "] + UNICODE_SPACES)
    pad = st.sampled_from(["", " ", "\t", "  "] + UNICODE_SPACES)
    lines = [draw(pad) + draw(ws).join(e) + draw(pad) for e in entries]
    if fault == "trailing-comment":
        lines[row] += draw(st.sampled_from([" # note", "#", "\t# shape: 9 9"]))
    fillers = draw(st.lists(st.sampled_from(
        ["", "   ", "\t", "# a comment", "  # indented", "#", "# manifest: {\"a\": 1}"]),
        max_size=4))
    for filler in fillers:
        lines.insert(draw(st.integers(0, len(lines))), filler)
    if header:
        sep = draw(st.sampled_from(["# shape: ", "#shape:", "##  shape:  "]))
        text = sep + " ".join(map(str, header_dims))
        if fault == "malformed-header":
            text = sep + draw(st.sampled_from(["2 x 3", "2.5 3", "3,4", "1 2 three",
                                               "3 0 3", "2 -1 2"]))
        # On top, as write_tns puts it; in a valid file sometimes below the
        # entries, where it bounds only the entries after it.
        at = 0 if fault else draw(st.sampled_from([0, 0, len(lines)]))
        if fault == "beyond-late-header":
            # Anywhere below the faulty entry, which it then leaves unbounded.
            entry_lines = [i for i, line in enumerate(lines)
                           if line.strip() and not line.strip().startswith("#")]
            at = draw(st.integers(entry_lines[row] + 1, len(lines)))
        lines.insert(at, text)
        if at == 0 and draw(st.booleans()):
            # The first header wins; later ones, even malformed, are comments.
            lines.insert(draw(st.integers(1, len(lines))),
                         draw(st.sampled_from(["# shape: 9 9 9 9 9", "# shape: x"])))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = ending.join(lines) + (ending if draw(st.booleans()) else "")
    return text, shape_arg


def _outcome(reader, path, shape):
    """What a reader makes of a file: the tensor bytes, or the error raised
    (a ParseError by its line, other errors by message)."""
    try:
        t = reader(path, shape=shape)
    except ParseError as exc:
        return ("ParseError", exc.line)
    except GcpdError as exc:
        return (type(exc).__name__, str(exc))
    return ("tensor", t.dims, t._linear.tobytes(), t.values.tobytes())


def _read_per_line(path, shape=None):
    """The per-line reader of `gcpd.data` alone, on the text `read_tns` reads."""
    declared = tuple(shape) if shape is not None else None
    return gdata._read_lines(Path(path).read_text(), declared, path)


def _outcomes(text, shape, *readers):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.tns"
        path.write_bytes(text.encode())
        return tuple(_outcome(reader, path, shape) for reader in readers)


def _both_readers(text, shape):
    return _outcomes(text, shape, read_tns, _read_per_line)


class TestVectorizedTnsReader:
    """`read_tns` against its per-line reader alone."""

    @staticmethod
    def _valid_file_matches(data):
        text, shape = _tns_case(data)
        got, want = _both_readers(text, shape)
        assert got == want
        if got[0] == "tensor" and got[2]:
            # A valid file with entries never leaves the one-pass path.
            with mock.patch.object(gdata, "_read_lines",
                                   side_effect=AssertionError("per-line reader")):
                assert _outcomes(text, shape, read_tns) == (got,)

    @staticmethod
    def _faulty_file_fails_alike(data, fault):
        got, want = _both_readers(*_tns_case(data, fault))
        assert want[0] == "ParseError"
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_valid_files_match_per_line_reader(self, data):
        self._valid_file_matches(data)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.sampled_from(FAULTS))
    def test_faulty_files_fail_on_the_same_line(self, data, fault):
        self._faulty_file_fails_alike(data, fault)

    # Chunks of 2-3 rows put comment lines, blank lines and faults on either
    # side of chunk boundaries.
    @pytest.mark.parametrize("chunk", [2, 3])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_valid_files_match_across_chunks(self, chunk, data):
        with mock.patch.object(gdata, "BLOCK_ENTRIES", chunk):
            self._valid_file_matches(data)

    @pytest.mark.parametrize("chunk", [2, 3])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), fault=st.sampled_from(FAULTS))
    def test_faulty_files_fail_on_the_same_line_across_chunks(self, chunk, data, fault):
        with mock.patch.object(gdata, "BLOCK_ENTRIES", chunk):
            self._faulty_file_fails_alike(data, fault)

    @pytest.mark.parametrize("fault,line_text", [
        ("non-numeric", "1 2 x 1.0"), ("beyond-shape", "1 9 1 1.0"),
        ("field-count", "1 2 1"), ("trailing-comment", "1 2 1 1.0 # late")])
    def test_fault_in_a_late_chunk(self, tmp_path, fault, line_text):
        # Three full chunks and part of a fourth, which holds the fault.
        entries = 3 * gdata.BLOCK_ENTRIES + 100
        lines = ["# shape: 4 4 %d" % entries] + [
            f"{1 + k % 4} {1 + k // 4 % 4} {1 + k // 16} {k}.5" for k in range(entries)]
        at = 3 * gdata.BLOCK_ENTRIES + 50
        lines[at] = line_text
        p = tmp_path / "late.tns"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_tns(p)
        assert err.value.line == at + 1

    @pytest.mark.parametrize("text,line", [
        ("1 1 1 1.0 # trailing\n", 1),
        ("# shape: 2 2 2\n1 1 1 1.0\n1 1 2 2.0#c\n", 3),
        ("1 1 1 1.0\n\n1 1 2 x\n1 1 0 1.0\n", 3),
        ("1 1 0 1.0\n1 1 x 1.0\n", 1),
        ("# shape: 2 2\n1 1 1 1.0\n", None),
        ("", None),
        ("\n# only a comment\n", None),
        ("1 2\n", 1),
        ("1 1 1 1_0\n", 1),
        ("# shape: 2 2 2\n1 1 99999999999999999999 1.0\n", 2),
        ("3 1 1.0\n# shape: 2 2\n1 1 1.0\n", 1),
        ("# shape: 3 0 3\n1 1 1 1.0\n", 1),
        ("1 1 1 1.0\n# shape: 3 -1 3\n", 2),
    ])
    def test_fault_lines(self, tmp_path, text, line):
        p = tmp_path / "f.tns"
        p.write_text(text)
        with pytest.raises(ParseError) as err:
            read_tns(p)
        assert err.value.line == line

    def test_header_below_entries_bounds_only_later_entries(self, tmp_path):
        p = tmp_path / "late.tns"
        p.write_text("3 1 1.0\n# shape: 2 2\n1 3 1.0\n")
        with pytest.raises(ParseError) as err:
            read_tns(p)
        assert err.value.line == 3

    # Every place a shape can come from: a header on top or below the entries
    # (folded chunk by chunk), `shape=` (also over a header), or none (the
    # largest index per mode, known only after the last row).
    PLACEMENTS = {
        "top-header": ("# shape: 4 3 5\n{entries}", None),
        "late-header": ("{entries}# shape: 4 3 5\n", None),
        "mid-header": ("{head}# shape: 4 3 5\n{tail}", None),
        "shape-argument": ("{entries}", (4, 3, 5)),
        "shape-argument-over-header": ("# shape: 9 9 9\n{entries}", (4, 3, 5)),
        "headerless": ("# a comment\n{entries}", None),
    }

    @pytest.mark.parametrize("chunk", [2, 3, gdata.BLOCK_ENTRIES])
    @pytest.mark.parametrize("placement", sorted(PLACEMENTS))
    def test_every_shape_placement_keeps_the_one_pass_read(self, placement, chunk):
        rng = np.random.default_rng(3)
        linear = rng.choice(60, 17, replace=False)
        linear[0] = 59   # the largest index of every mode, for the inferred shape
        rows = [" ".join(str(i + 1) for i in np.unravel_index(j, (4, 3, 5), order="F"))
                + f" {v!r}\n" for j, v in zip(linear, rng.standard_normal(17).tolist())]
        template, shape = self.PLACEMENTS[placement]
        text = template.format(entries="".join(rows), head="".join(rows[:7]),
                               tail="".join(rows[7:]))
        got, want = _both_readers(text, shape)
        assert got == want and got[:2] == ("tensor", (4, 3, 5))
        with mock.patch.object(gdata, "BLOCK_ENTRIES", chunk), \
                mock.patch.object(gdata, "_read_lines",
                                  side_effect=AssertionError("per-line reader")):
            assert _outcomes(text, shape, read_tns) == (got,)

    @pytest.mark.parametrize("chunk", [2, gdata.BLOCK_ENTRIES])
    def test_headerless_index_beyond_int32_is_read(self, tmp_path, chunk):
        # The held block widens to int64 when a later chunk holds an index
        # int32 cannot, and the tensor gets int64 ids for its 6e9 positions.
        text = "1 1 1 2.5\n2 1 1 -1\n%d 1 2 1.5\n1 1 2 4\n" % (3 * 10 ** 9)
        got, want = _both_readers(text, None)
        assert got == want and got[:2] == ("tensor", (3 * 10 ** 9, 1, 2))
        path = tmp_path / "wide.tns"
        path.write_text(text)
        with mock.patch.object(gdata, "BLOCK_ENTRIES", chunk), \
                mock.patch.object(gdata, "_read_lines",
                                  side_effect=AssertionError("per-line reader")):
            tensor = read_tns(path)
        assert tensor._linear.dtype == np.int64
        assert tensor._linear.tolist() == [0, 1, 3 * 10 ** 9, 2 * 3 * 10 ** 9 - 1]
        assert tensor.values.tolist() == [2.5, -1.0, 4.0, 1.5]

    @pytest.mark.parametrize("index", [-(2 ** 32) + 2, -(2 ** 31) - 1, 2 ** 32 + 2])
    def test_headerless_index_is_never_wrapped(self, index):
        # Indices an int32 cast would wrap to 2, or to 2^31 - 1, both valid
        # indices: a fault below 1, or a mode of 2^32 + 2 positions.
        text = "1 1 1 2.5\n%d 1 1 1.5\n" % index
        got, want = _both_readers(text, None)
        assert got == want
        if index < 1:
            assert got == ("ParseError", 2)
        else:
            assert got[:2] == ("tensor", (2 ** 32 + 2, 1, 1))

    BIG = "10000000, 10000000, 10000000"

    @pytest.mark.parametrize("text,shape,dims", [
        ("# shape: 10000000 10000000 10000000\n1 1 1 2.5\n", None, BIG),
        ("1 1 1 2.5\n2 2 2 1\n# shape: 10000000 10000000 10000000\n", None, BIG),
        ("1 1 1 2.5\n", (10_000_000,) * 3, BIG),
        ("10000000 10000000 10000000 2.5\n1 1 1 1\n", None, BIG),
        ("# shape: 10000000000000000000 2 2\n1 1 1 2.5\n", None, "10000000000000000000, 2, 2"),
    ])
    def test_shape_beyond_int64_linear_ids_is_never_folded(self, tmp_path, text, shape, dims):
        # The one-pass read gives up on such a shape, and the tensor built
        # from the per-line reader's entries raises.
        p = tmp_path / "big.tns"
        p.write_text(text)
        with mock.patch.object(gdata, "_read_lines", wraps=gdata._read_lines) as lines:
            with pytest.raises(DataError, match=rf"shape \({dims}\)"):
                read_tns(p, shape=shape)
        assert lines.called

    def test_shape_of_int64_max_positions_folds_its_last_position(self, tmp_path):
        # 2^63 - 1 positions: the last id is 2^63 - 2, and no partial id of
        # the fold overflows on the way there.
        dims = (7, 7, 73, 127, 337, 92737, 649657)
        p = tmp_path / "edge.tns"
        p.write_text("# shape: %s\n%s 1.5\n1 1 1 1 1 1 1 2.5\n"
                     % (" ".join(map(str, dims)), " ".join(map(str, dims))))
        with mock.patch.object(gdata, "_read_lines",
                               side_effect=AssertionError("per-line reader")):
            tensor = read_tns(p)
        assert tensor._linear.tolist() == [0, 2 ** 63 - 2]
        assert tensor.values.tolist() == [2.5, 1.5]

    @pytest.mark.parametrize("shape,distribution", [
        ((60, 50, 40), "gamma"), ((256, 200, 100), "poisson"),
        ((80, 60, 50), "bernoulli-odds")])
    def test_benchmark_shaped_files(self, tmp_path, shape, distribution):
        tensor, _ = generate(SyntheticSpec(shape=shape, rank=3,
                                           distribution=distribution, seed=7))
        path = tmp_path / "bench.tns"
        write_tns(tensor, path)
        got = _outcome(read_tns, path, None)
        assert got[0] == "tensor" and got[1] == shape
        assert got == _outcome(_read_per_line, path, None)


def _fiber_slots(shape):
    """Sum over the modes of J_n + 1: the length of every mode's starts."""
    return sum(shape.fiber_count(mode) + 1 for mode in range(shape.order))


def _traced_peak(call):
    """(result, tracemalloc peak in bytes) of `call()`."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _read_indexed(path):
    """A read of `path` with every mode's fiber index built."""
    back = read_tns(path)
    for mode in range(back.shape.order):
        back.fiber_index(mode)
    return back


MEMORY_CASES = [((30, 20, 10), "gamma"), ((64, 50, 25), "poisson"),
                ((20, 15, 10, 8), "gaussian")]


class TestTnsMemory:
    @pytest.mark.parametrize("shape,distribution", MEMORY_CASES)
    def test_read_holds_about_one_copy_of_the_entries(self, tmp_path, shape, distribution):
        # The bytes, the parsed block and the tensor's own arrays, its fiber
        # index built; a read that copies the text into a StringIO peaks at
        # 2.2-2.9x. The bound is 1.6x what a tensor held when it kept an int64
        # (nnz, N) index block and linear ids, values, and an int64 order and
        # starts per mode.
        tensor, _ = generate(SyntheticSpec(shape=shape, rank=3,
                                           distribution=distribution, seed=7))
        path = tmp_path / "m.tns"
        write_tns(tensor, path)
        _read_indexed(path)
        back, peak = _traced_peak(lambda: _read_indexed(path))
        n, fibers = back.shape.order, _fiber_slots(back.shape)
        assert peak <= 1.6 * ((16 * n + 16) * back.nnz + 8 * fibers)

    @pytest.mark.parametrize("shape,distribution", MEMORY_CASES)
    def test_read_holds_linear_ids_values_and_an_int32_index(self, tmp_path, shape,
                                                            distribution):
        # Linear ids and values at 8 bytes an entry, an int32 order for every
        # mode but mode 0, and int32 starts: no (nnz, N) block is kept.
        tensor, _ = generate(SyntheticSpec(shape=shape, rank=3,
                                           distribution=distribution, seed=7))
        path = tmp_path / "m.tns"
        write_tns(tensor, path)
        _read_indexed(path)
        tracemalloc.start()
        try:
            back = _read_indexed(path)
            arrays = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        finally:
            tracemalloc.stop()
        held = sum(trace.size for trace in arrays.traces)
        n = back.shape.order
        assert held <= (16 + 4 * (n - 1)) * back.nnz + 4 * _fiber_slots(back.shape)

    def test_read_peaks_at_the_bytes_and_one_copy_of_the_entries(self, tmp_path):
        # The parse writes each chunk straight into the arrays the tensor is
        # built from; one `np.loadtxt` block beside them, and copies out of
        # it, peak at 1.6x. The bound is 1.2x what a tensor held when it kept
        # an int64 (nnz, N) index block, values and linear ids.
        tensor, _ = generate(SyntheticSpec(shape=(60, 50, 40), rank=3,
                                           distribution="gamma", seed=7))
        path = tmp_path / "m.tns"
        write_tns(tensor, path)
        read_tns(path)
        back, peak = _traced_peak(lambda: read_tns(path))
        entry_bytes = 8 * back.shape.order + 16
        assert peak <= path.stat().st_size + 1.2 * entry_bytes * back.nnz
        assert back._fibers == [None] * 3

    @pytest.mark.parametrize("placement", ["top-header", "late-header", "shape-argument"])
    def test_read_under_a_declared_shape_holds_no_index_block(self, tmp_path, placement):
        # Each chunk is folded into linear ids as it is parsed, so beside the
        # bytes the read holds the ids and values (16 bytes an entry) and one
        # chunk; an (nnz, N) int64 block beside them peaks at 2.3x.
        tensor, _ = generate(SyntheticSpec(shape=(60, 50, 40), rank=3,
                                           distribution="gamma", seed=7))
        path = tmp_path / "m.tns"
        write_tns(tensor, path)
        header, entries = path.read_bytes().split(b"\n", 1)
        shape = None
        if placement == "late-header":
            path.write_bytes(entries + header + b"\n")
        elif placement == "shape-argument":
            path.write_bytes(entries)
            shape = (60, 50, 40)
        read_tns(path, shape=shape)
        back, peak = _traced_peak(lambda: read_tns(path, shape=shape))
        assert back.dims == (60, 50, 40)
        assert peak <= path.stat().st_size + 1.2 * 16 * back.nnz

    def test_headerless_read_holds_an_int32_index_block(self, tmp_path):
        # With no declared shape the indices wait for the last row as an
        # (nnz, N) block, int32 while they fit: beside the bytes the read holds
        # the values, the block and, once the shape is known, the int32 ids,
        # (8 + 4N + 4) bytes an entry, and one piece of text. An int64 block
        # peaks at 1.5x that.
        tensor, _ = generate(SyntheticSpec(shape=(60, 50, 40), rank=3,
                                           distribution="gamma", seed=7))
        path = tmp_path / "m.tns"
        write_tns(tensor, path)
        path.write_bytes(path.read_bytes().split(b"\n", 1)[1])
        read_tns(path)
        back, peak = _traced_peak(lambda: read_tns(path))
        assert back.dims == (60, 50, 40) and back._linear.dtype == np.int32
        assert peak <= path.stat().st_size + 1.2 * (8 + 4 * 3 + 4) * back.nnz

    @pytest.mark.parametrize("shape,bound", [((30, 20, 10), 2.6), ((20, 15, 10, 8), 1.55)])
    def test_small_file_read_peaks_at_one_piece_beside_the_entries(self, tmp_path, shape,
                                                                   bound):
        # Beyond the bytes, in units of the 12 bytes an entry the tensor keeps:
        # on a file of few chunks, the piece of text parsed at a time (its str
        # lines and its parsed rows) is most of the rest. Measured 2.33 and
        # 1.36; 4.39 and 3.29 when each `np.loadtxt` call parsed
        # `BLOCK_ENTRIES` rows from a file object.
        tensor, _ = generate(SyntheticSpec(shape=shape, rank=3, distribution="gamma",
                                           seed=7))
        path = tmp_path / "m.tns"
        write_tns(tensor, path)
        read_tns(path)
        back, peak = _traced_peak(lambda: read_tns(path))
        assert back.nnz == math.prod(shape)
        assert peak <= path.stat().st_size + bound * 12 * back.nnz

    def test_dense_write_copies_no_whole_tensor(self, tmp_path):
        # A whole-tensor search for nonzeros peaks at about 1.8x its bytes.
        tensor, _ = generate(SyntheticSpec(shape=(80, 60, 50), rank=3,
                                           distribution="bernoulli-odds", seed=7))
        _, peak = _traced_peak(lambda: write_tns(tensor, tmp_path / "w.tns"))
        assert peak <= 0.25 * tensor.values.nbytes


class TestTnsEncoding:
    ENTRIES = "# shape: 3 2 2\n1 1 1 1.5\n3 2 1 -2\n2 1 2 4e-3\n"

    def _read(self, tmp_path, raw):
        path = tmp_path / "e.tns"
        path.write_bytes(raw)
        with mock.patch.object(gdata, "_read_lines",
                               side_effect=AssertionError("per-line reader")):
            return read_tns(path)

    @pytest.mark.parametrize("text", [
        "# caf\u00e9 \u2603\n" + ENTRIES, ENTRIES + "# d\u00e9j\u00e0 vu\n",
        ENTRIES.replace("\n", "\r"), ENTRIES.replace("\n", "\r\n"),
        ENTRIES.replace("\n", "\r", 2),
        "# shape: 3 2 2\r\n1 1 1 1.5\r3 2 1 -2\n2 1 2 4e-3\r\n"])
    def test_comments_and_line_ends_keep_the_one_pass_read(self, tmp_path, text):
        want = self._read(tmp_path, self.ENTRIES.encode())
        got = self._read(tmp_path, text.encode())
        assert got.dims == want.dims == (3, 2, 2)
        assert np.array_equal(got._linear, want._linear)
        assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("raw", [b"\xff\xfe" + ENTRIES.encode(),
                                     ENTRIES.encode() + b"# \xc3(\n",
                                     ENTRIES.encode().replace(b"1.5", b"1.5\x80")])
    def test_text_that_is_not_utf8_is_rejected(self, tmp_path, raw):
        path = tmp_path / "bad.tns"
        path.write_bytes(raw)
        with pytest.raises(UnicodeDecodeError):
            read_tns(path)

    def test_non_ascii_whitespace_in_entries_is_read(self, tmp_path):
        # Without the per-line reader: `np.loadtxt` splits str lines at any
        # whitespace `str.split` takes.
        got = self._read(tmp_path, self.ENTRIES.replace("1 1 1", "1\u00a01 1").encode())
        assert np.array_equal(got.values, [1.5, -2.0, 4e-3])


class TestFactorFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        model = KruskalModel([rng.random((d, 3)) for d in (4, 3, 5)])
        prefix = tmp_path / "model"
        write_factors(model, prefix, manifest={"note": "test"})
        back = read_factors(prefix)
        assert back.rank == 3
        for a, b in zip(back.factors, model.factors):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("dims", [(4, 3, 5), (4, 4, 4)])
    def test_rank_one_round_trip(self, tmp_path, dims):
        # One column a file reads back as an (I_n, 1) matrix, not as a row.
        rng = np.random.default_rng(9)
        model = KruskalModel([rng.random((d, 1)) for d in dims])
        prefix = tmp_path / "model"
        write_factors(model, prefix)
        back = read_factors(prefix)
        assert back.rank == 1 and back.shape.dims == dims
        for a, b in zip(back.factors, model.factors):
            assert np.array_equal(a, b)

    def test_missing_files(self, tmp_path):
        with pytest.raises(DataError):
            read_factors(tmp_path / "nope")


def make_trace(n_records, with_mse=True):
    records = []
    for k in range(n_records):
        records.append(TraceRecord(
            iteration=k * 10, seconds=0.25 * k, nre=1.0 / (k + 1),
            mse_mean=0.5 / (k + 1) if with_mse else None,
            mse_modes=(0.4 / (k + 1), 0.6 / (k + 1), 0.5 / (k + 1)) if with_mse else None,
            lyapunov=None, gamma=0.01 * k, gamma_modes=(0.005 * k, 0.003 * k, 0.002 * k)))
    return IterationTrace(records=records, manifest={"config_hash": "abc", "seed": 3})


class TestTraces:
    def test_empty_trace_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_trace_csv(IterationTrace(), path, n_modes=3)
        header, rows, manifest = read_trace_csv(path)
        assert header == trace_header(3)
        assert rows == [] and manifest is None

    def test_single_record_row_order(self, tmp_path):
        path = tmp_path / "one.csv"
        write_trace_csv(make_trace(1), path, n_modes=3)
        header, rows, manifest = read_trace_csv(path)
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert row["iteration"] == "0"
        assert float(row["nre"]) == 1.0
        assert float(row["mse_mode_2"]) == 0.6
        assert manifest == {"config_hash": "abc", "seed": 3}

    def test_csv_json_field_agreement(self, tmp_path):
        trace = make_trace(4)
        csv_path = tmp_path / "t.csv"
        json_path = tmp_path / "t.json"
        write_trace_csv(trace, csv_path, n_modes=3)
        write_trace_json(trace, json_path, n_modes=3)
        header, rows, _ = read_trace_csv(csv_path)
        payload = json.loads(json_path.read_text())
        assert payload["manifest"] == trace.manifest
        assert len(payload["records"]) == len(rows)
        for row_cells, rec in zip(rows, payload["records"]):
            row = dict(zip(header, row_cells))
            assert int(row["iteration"]) == rec["iteration"]
            assert float(row["seconds"]) == rec["seconds"]
            assert float(row["nre"]) == rec["nre"]
            assert float(row["mse_mean"]) == rec["mse_mean"]
            for n in range(3):
                assert float(row[f"mse_mode_{n + 1}"]) == rec["mse_modes"][n]
            assert row["lyapunov"] == ""
            assert rec["lyapunov"] is None
            assert float(row["gamma_k"]) == rec["gamma_k"]

    def test_none_fields_are_empty_cells(self, tmp_path):
        path = tmp_path / "nomse.csv"
        write_trace_csv(make_trace(2, with_mse=False), path, n_modes=3)
        header, rows, _ = read_trace_csv(path)
        row = dict(zip(header, rows[0]))
        assert row["mse_mean"] == "" and row["mse_mode_1"] == ""
