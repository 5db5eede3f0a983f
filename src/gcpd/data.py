"""Planted-model synthetic generators, .tns sparse-text ingestion, and trace files.

The .tns text format, exactly as `read_tns` accepts it:

* The file is UTF-8 text. Lines end in LF, CRLF or CR. Whitespace is any
  character `str.isspace` accepts; empty and whitespace-only lines are
  skipped.
* A comment line has '#' as its first non-whitespace character. A '#'
  anywhere else, such as a trailing comment after an entry, is an error.
* The first comment line of the form "# shape: I_1 ... I_N" (one or more
  '#', then sizes as integers of at least 1) declares the mode sizes, unless
  `shape=` is given; later ones are plain comments. A malformed first one is
  an error, and so is a `shape=` with a size below 1.
* An entry line is N >= 2 indices and one real value, separated by
  whitespace. An index is an ASCII decimal integer (optional sign) within
  int64; the value is an ASCII decimal or exponent-notation real, or inf/nan
  (which the tensor then rejects), with no '_' digit separators. Every entry
  line has the field count of the first one.
* Indices are 1-based, and every index lies within the declared shape. An
  entry above a late shape header is checked against it only after every
  other check has passed. The declared shape has the entries' number of
  modes.
  Without a declared shape, mode sizes are the largest index per mode; a
  file with neither a shape nor entries is rejected.

`read_tns` reads a file once, as bytes, and parses it in one of two ways. A
well-formed file becomes a tensor in one pass of `np.loadtxt` over those
bytes, `CHUNK` rows per call, each chunk written straight into the index and
value arrays the tensor keeps, which are then checked as arrays. So a read
peaks at the file's bytes plus about one copy of the entries (0.9x the
tensor's arrays above the bytes on a 60x50x40 gamma file), and the tensor
builds a mode's fiber index only when that mode's fibers are first read. Any
doubt sends the same text, decoded, to the per-line reader, the one
authority on faults, which raises a `ParseError` naming the first faulty
line. Only faulty files pay for the second, line-by-line parse.

Files written here carry the shape header, so reads recover the declared
shape even when trailing slices are empty.

Trace CSV columns (fixed): iteration, seconds, nre, mse_mean,
mse_mode_1..mse_mode_N, lyapunov, gamma_k. Empty cells mean "not recorded".
The JSON format mirrors the record structure and embeds the run manifest.
"""

from __future__ import annotations

import csv
import io
import json
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .solver import IterationTrace, TraceRecord
from .tensors import DenseTensor, KruskalModel, SparseTensorCOO, TensorShape

DISTRIBUTIONS = ("gamma", "poisson", "bernoulli-odds", "gaussian")

_INDEX_TOKEN = re.compile(r"[+-]?[0-9]+")
_INT64 = np.iinfo(np.int64)
_WRITE_CHUNK = 1 << 16   # .tns entries formatted per write
CHUNK = 1 << 13          # .tns entry rows parsed per `np.loadtxt` call


@dataclass(frozen=True)
class SyntheticSpec:
    """Planted-model recipe: factor sizes, rank, entry distribution, seed."""

    shape: tuple[int, ...]
    rank: int
    distribution: str
    a_max: float = 0.5
    noise_sigma: float = 0.1   # gaussian only
    seed: int = 0

    def __post_init__(self):
        TensorShape(self.shape)
        object.__setattr__(self, "shape", tuple(int(d) for d in self.shape))
        if self.distribution not in DISTRIBUTIONS:
            raise ConfigError(
                f"unknown distribution {self.distribution!r}; choose from {DISTRIBUTIONS}")
        if not self.a_max > 0:
            raise ConfigError("a_max must be positive")
        if self.rank < 1:
            raise ConfigError("rank must be >= 1")


def planted_factors(spec: SyntheticSpec, rng: np.random.Generator) -> KruskalModel:
    """Factor entries i.i.d. uniform on (0, a_max]."""
    return KruskalModel([spec.a_max * (1.0 - rng.random((d, spec.rank)))
                         for d in spec.shape])


def sample_tensor(model: KruskalModel, distribution: str,
                  rng: np.random.Generator, noise_sigma: float = 0.1) -> DenseTensor:
    """Sample each entry independently with mean/odds set by the model entry.

    gamma uses shape 1 and scale m (mean m; the shape parameter is a modeling
    choice recorded in run manifests), poisson uses mean m, bernoulli-odds uses
    success probability m/(1+m), gaussian adds N(0, noise_sigma^2) noise.
    """
    m = model.to_dense().values
    if np.any(m < 0) and distribution != "gaussian":
        raise ConfigError(f"{distribution} sampling needs a nonnegative model")
    if distribution == "gamma":
        values = rng.gamma(shape=1.0, scale=m)
    elif distribution == "poisson":
        values = rng.poisson(lam=m).astype(np.float64)
    elif distribution == "bernoulli-odds":
        values = (rng.random(m.shape) < m / (1.0 + m)).astype(np.float64)
    elif distribution == "gaussian":
        values = m + noise_sigma * rng.standard_normal(m.shape)
    else:
        raise ConfigError(f"unknown distribution {distribution!r}")
    return DenseTensor(values)


def generate(spec: SyntheticSpec) -> tuple[DenseTensor, KruskalModel]:
    """Planted factors plus one observed tensor; deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    model = planted_factors(spec, rng)
    tensor = sample_tensor(model, spec.distribution, rng, spec.noise_sigma)
    return tensor, model


def write_tns(tensor, path, manifest: dict | None = None):
    """Write nonzero entries as 1-based '.tns' lines with a shape header."""
    path = Path(path)
    if not isinstance(tensor, (DenseTensor, SparseTensorCOO)):
        raise DataError(f"cannot write {type(tensor).__name__} as .tns")
    line = "%d " * len(tensor.dims) + "%s\n"
    with path.open("w") as fh:
        fh.write("# shape: " + " ".join(str(d) for d in tensor.dims) + "\n")
        if manifest:
            fh.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
        # Formatted and written a block of entries at a time, so the text held
        # in memory stays a few MiB whatever the entry count.
        for indices, values in _entry_blocks(tensor):
            columns = (indices + 1).T.tolist()
            value_text = [format(v, ".17g") for v in values.tolist()]
            fh.write("".join([line % entry for entry in zip(*columns, value_text)]))


def _entry_blocks(tensor):
    """(0-based indices, values) of the nonzero entries in linear order, at
    most `_WRITE_CHUNK` at a time. A dense tensor is searched one last-mode
    slab at a time, so no copy of the whole tensor is made."""
    if isinstance(tensor, SparseTensorCOO):
        for lo in range(0, tensor.nnz, _WRITE_CHUNK):
            yield tensor.indices[lo:lo + _WRITE_CHUNK], tensor.values[lo:lo + _WRITE_CHUNK]
        return
    *lead, last = tensor.dims
    for k in range(last):
        flat = tensor.values[..., k].ravel(order="F")
        nz = np.flatnonzero(flat)
        for lo in range(0, nz.size, _WRITE_CHUNK):
            at = nz[lo:lo + _WRITE_CHUNK]
            yield (np.column_stack(np.unravel_index(at, lead, order="F")
                                   + (np.full(at.size, k),)), flat[at])


def read_tns(path, shape=None) -> SparseTensorCOO:
    """Parse a .tns file; indices are 1-based on disk.

    `shape` (or the first '# shape:' header) declares mode sizes; otherwise
    they are inferred as the largest index seen per mode. The file is read
    once, as bytes, and must be UTF-8 text. A well-formed file becomes a
    tensor in one chunked `np.loadtxt` pass over those bytes; at any doubt
    they are decoded for the per-line reader, which alone decides which line
    is at fault and raises the `ParseError`. So a faulty file is parsed again
    line by line up to its fault, and a valid one never is.
    """
    declared = tuple(int(d) for d in shape) if shape is not None else None
    if declared is not None and min(declared, default=1) < 1:
        raise DataError(f"declared shape {declared} has a mode size below 1")
    path = Path(path)
    buf = path.read_bytes()
    if not buf.isascii():
        buf.decode()   # UnicodeDecodeError unless the text is UTF-8
    if b"\r" in buf and buf.count(b"\r") != buf.count(b"\r\n"):
        # Lines ending in a bare CR, which `np.loadtxt` does not split.
        buf = buf.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    parsed = _read_well_formed(buf, declared)
    if parsed is None:
        return _read_lines(buf.decode(), declared, path)
    del buf   # freed before the tensor's own arrays are built
    return SparseTensorCOO(*parsed)


def _read_well_formed(buf, declared):
    """(shape, 0-based indices, values) of a well-formed .tns file given as
    bytes with LF or CRLF line ends, or None at any doubt: a '#' after data, a
    malformed first shape header, no entry line or a first one with fewer
    than three fields, a line `np.loadtxt` rejects, an index below 1 or
    outside the declared shape (wherever the header sits), or a shape with
    another number of modes than the entries."""
    # Visit only the lines holding a '#': the comment lines, header included.
    pos = buf.find(b"#")
    while pos >= 0:
        start = buf.rfind(b"\n", 0, pos) + 1
        end = buf.find(b"\n", pos)
        end = len(buf) if end < 0 else end
        line = buf[start:end].strip()
        if not line.startswith(b"#"):
            return None
        if declared is None:
            try:
                declared = _header_shape(line.decode())
            except ValueError:
                return None
        pos = buf.find(b"#", end)
    # `np.loadtxt` starts at the first entry line, and looks for comments only
    # when one follows it.
    stream = io.BytesIO(buf)
    for first in stream:
        fields = first.decode().split()
        if fields and not fields[0].startswith("#"):
            break
    else:
        return None
    if len(fields) < 3:
        return None
    order = len(fields) - 1
    stream.seek(stream.tell() - len(first))
    comments = "#" if buf.rfind(b"#") > stream.tell() else None
    # Each `CHUNK` rows go straight into arrays sized for one entry per line
    # left, then trimmed to the rows read, which the tensor keeps. `max_rows`
    # leaves the stream just past the rows it read.
    lines = buf.count(b"\n", stream.tell()) + 1
    idx = np.empty((lines, order), dtype=np.int64)
    values = np.empty(lines)
    dtype = [("i", np.int64, (order,)), ("v", np.float64)]
    n = 0
    with warnings.catch_warnings():
        # A blank or comment line in a chunk, or no rows left after a full
        # last chunk: neither is a fault.
        warnings.filterwarnings("ignore", "Input line [0-9]+ contained no data",
                                UserWarning)
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        while n < lines:
            rows = min(CHUNK, lines - n)
            try:
                chunk = np.loadtxt(stream, comments=comments, ndmin=1,
                                   dtype=dtype, max_rows=rows)
            except ValueError:
                return None
            idx[n:n + chunk.size] = chunk["i"]
            values[n:n + chunk.size] = chunk["v"]
            n += chunk.size
            if chunk.size < rows:
                break
    idx.resize((n, order), refcheck=False)
    values.resize(n, refcheck=False)
    largest = idx.max(axis=0).tolist()
    if declared is None:
        declared = tuple(largest)
    if (len(declared) != order or idx.min() < 1
            or any(m > d for m, d in zip(largest, declared))):
        return None
    idx -= 1
    return declared, idx, values


def _read_lines(text, declared, path) -> SparseTensorCOO:
    """The per-line reader: `text` parsed one line at a time, raising a
    `ParseError` on the first faulty line. It defines which line is at fault,
    and it gives the same tensor as the one-pass path on every file that
    path accepts."""
    indices = []
    values = []
    unbounded = []   # lines of the leading entries read before any shape
    order = None
    for lineno, line in enumerate(io.StringIO(text), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if declared is None:
                try:
                    declared = _header_shape(stripped)
                except ValueError:
                    raise ParseError("malformed shape header", path, lineno) from None
            continue
        if "#" in stripped:
            raise ParseError(
                "'#' after data on an entry line; comments must start their line",
                path, lineno)
        fields = stripped.split()
        if order is None:
            if len(fields) < 3:
                raise ParseError(
                    f"need at least 2 indices and a value, got {len(fields)} fields",
                    path, lineno)
            order = len(fields) - 1
        if len(fields) != order + 1:
            raise ParseError(
                f"expected {order + 1} fields, got {len(fields)}", path, lineno)
        if not (all(map(_is_index, fields[:-1])) and _is_real(fields[-1])):
            raise ParseError(f"malformed entry line {stripped!r}", path, lineno)
        idx = [int(f) for f in fields[:-1]]
        if min(idx) < 1:
            raise ParseError(f"indices are 1-based; got {idx}", path, lineno)
        if declared is None:
            unbounded.append(lineno)
        elif any(i > d for i, d in zip(idx, declared)):
            raise ParseError(f"index {idx} outside declared shape {declared}",
                             path, lineno)
        indices.append(idx)
        values.append(float(fields[-1]))
    if order is None and declared is None:
        raise ParseError("file declares no shape and has no entries", path)
    if declared is None:
        declared = tuple(max(column) for column in zip(*indices))
    if order is not None and len(declared) != order:
        raise ParseError(
            f"entries have {order} indices but shape has {len(declared)} modes", path)
    for lineno, idx in zip(unbounded, indices):
        # A header below some entries bounds only the entries after it, yet
        # the tensor must still hold every entry.
        if any(i > d for i, d in zip(idx, declared)):
            raise ParseError(f"index {idx} outside the shape {declared} "
                             "declared below it", path, lineno)
    indices = np.array(indices, dtype=np.int64).reshape(len(values), len(declared))
    return SparseTensorCOO(declared, indices - 1, np.array(values))


def _header_shape(comment: str):
    """The sizes a '# shape:' comment declares, or None for another comment;
    ValueError when they are not integers of at least 1."""
    body = comment.lstrip("#").strip()
    if not body.startswith("shape:"):
        return None
    dims = tuple(int(t) for t in body[len("shape:"):].split())
    if min(dims, default=1) < 1:
        raise ValueError(f"mode size below 1 in {dims}")
    return dims


def _is_index(token: str) -> bool:
    return (_INDEX_TOKEN.fullmatch(token) is not None
            and _INT64.min <= int(token) <= _INT64.max)


def _is_real(token: str) -> bool:
    if not token.isascii() or "_" in token:
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


def write_factors(model: KruskalModel, prefix, manifest: dict | None = None) -> list[Path]:
    """One CSV per mode: <prefix>.factor<n>.csv holding the (I_n, R) matrix."""
    prefix = Path(prefix)
    header = "manifest: " + json.dumps(manifest, sort_keys=True) if manifest else ""
    paths = []
    for n, a in enumerate(model.factors):
        p = prefix.with_name(prefix.name + f".factor{n}.csv")
        np.savetxt(p, a, delimiter=",", fmt="%.17g", header=header)
        paths.append(p)
    return paths


def read_factors(prefix, order: int | None = None) -> KruskalModel:
    """Read the factor CSVs written by :func:`write_factors`."""
    prefix = Path(prefix)
    factors = []
    n = 0
    while True:
        p = prefix.with_name(prefix.name + f".factor{n}.csv")
        if not p.exists():
            break
        try:
            factors.append(np.atleast_2d(np.loadtxt(p, delimiter=",")))
        except ValueError as exc:   # not numbers, or not UTF-8 text
            raise DataError(f"{p} is not a factor CSV: {exc}") from None
        n += 1
        if order is not None and n == order:
            break
    if not factors:
        raise DataError(f"no factor files found at {prefix}.factor*.csv")
    if order is not None and len(factors) != order:
        raise DataError(f"expected {order} factor files, found {len(factors)}")
    return KruskalModel(factors)


def _num(x) -> str:
    return "" if x is None else f"{x:.17g}"


def trace_header(n_modes: int) -> list[str]:
    return (["iteration", "seconds", "nre", "mse_mean"]
            + [f"mse_mode_{n + 1}" for n in range(n_modes)]
            + ["lyapunov", "gamma_k"])


def _record_row(rec: TraceRecord, n_modes: int) -> list[str]:
    mse_modes = rec.mse_modes if rec.mse_modes is not None else [None] * n_modes
    return ([str(rec.iteration), _num(rec.seconds), _num(rec.nre), _num(rec.mse_mean)]
            + [_num(v) for v in mse_modes]
            + [_num(rec.lyapunov), _num(rec.gamma)])


def write_trace_csv(trace: IterationTrace, path, n_modes: int):
    path = Path(path)
    with path.open("w", newline="") as fh:
        if trace.manifest:
            fh.write("# manifest: " + json.dumps(trace.manifest, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(trace_header(n_modes))
        for rec in trace.records:
            writer.writerow(_record_row(rec, n_modes))


def read_trace_csv(path) -> tuple[list[str], list[list[str]], dict | None]:
    """(header, rows, embedded manifest or None) from a trace CSV."""
    path = Path(path)
    manifest = None
    rows = []
    header = None
    with path.open(newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.startswith("manifest:"):
                    manifest = json.loads(body[len("manifest:"):])
                continue
            cells = next(csv.reader([line]))
            if header is None:
                header = cells
            else:
                rows.append(cells)
    if header is None:
        raise ParseError("trace CSV has no header row", path)
    return header, rows, manifest


def write_trace_json(trace: IterationTrace, path, n_modes: int):
    path = Path(path)
    records = []
    for rec in trace.records:
        records.append({
            "iteration": rec.iteration,
            "seconds": rec.seconds,
            "nre": rec.nre,
            "mse_mean": rec.mse_mean,
            "mse_modes": list(rec.mse_modes) if rec.mse_modes is not None else None,
            "lyapunov": rec.lyapunov,
            "gamma_k": rec.gamma,
            "gamma_modes": list(rec.gamma_modes) if rec.gamma_modes is not None else None,
        })
    payload = {
        "manifest": trace.manifest,
        "n_modes": n_modes,
        "records": records,
        "eta_history": trace.eta_history,
    }
    with path.open("w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_trace(trace: IterationTrace, path, n_modes: int, fmt: str = "csv"):
    if fmt == "csv":
        write_trace_csv(trace, path, n_modes)
    elif fmt == "json":
        write_trace_json(trace, path, n_modes)
    else:
        raise ConfigError(f"unknown trace format {fmt!r}; use csv or json")
