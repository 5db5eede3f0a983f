"""Command-line driver: synthesize, decompose, compare, verify.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
A line-oriented key=value config file (--config) supplies defaults for any
flag of its command; explicit flags win, and a key no flag of the command
sets is a usage error. A flag left unset takes the default of the dataclass
field it fills (`SolverConfig`, `LossSpec`, `RegularizerSpec`,
`SyntheticSpec`). Every output embeds the fully resolved run manifest,
and `decompose --manifest saved.json` replays a run from one.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
from pathlib import Path

from . import data as gdata
from . import verify as gverify
from .bregman import GENERATOR_KINDS, REGULARIZER_KINDS, GeneratorSpec, RegularizerSpec
from .errors import ConfigError, DataError, DivergenceError, GcpdError
from .estimators import ESTIMATOR_KINDS
from .losses import DESK_SCALE, LossSpec
from .losses import KINDS as LOSS_KINDS
from .solver import SolverConfig, run


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_config_file(path) -> dict:
    """Line-oriented key=value pairs; '#' starts a comment."""
    out = {}
    p = Path(path)
    if not p.exists():
        raise DataError(f"config file not found: {p}")
    try:
        text = p.read_text()
    except UnicodeDecodeError as exc:
        raise DataError(f"{p} is not UTF-8 text: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataError(f"{p}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _fill(args, config_values: dict):
    """Apply config-file values where flags were not given; flags win. A key
    is the `dest` of one of the command's own flags, cast as that flag
    casts its value."""
    for key, value in config_values.items():
        flag = args.config_flags.get(key)
        if flag is None:
            raise UsageError(f"unknown config key {key!r} for {args.command}")
        if getattr(args, key) is None:
            try:
                value = _bool(value) if flag.nargs == 0 else flag.type(value)
            except ValueError:
                raise UsageError(f"bad value {value!r} for config key {key!r}") from None
            if flag.choices is not None and value not in flag.choices:
                raise UsageError(f"config key {key!r} must be one of {flag.choices}")
            setattr(args, key, value)


def _bool(text) -> bool:
    if isinstance(text, bool):
        return text
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"expected a boolean, got {text!r}")


def _shape(text) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in str(text).replace("x", ",").split(",") if t)
    except ValueError:
        raise UsageError(f"bad shape {text!r}; use e.g. 20,15,20")


def _build_parser() -> _Parser:
    parser = _Parser(prog="gcpd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    syn = sub.add_parser("synthesize", help="generate a planted-model tensor")
    syn.add_argument("--shape", type=_shape, default=None)
    syn.add_argument("--rank", type=int, default=None)
    syn.add_argument("--dist", type=str, default=None,
                     choices=list(gdata.DISTRIBUTIONS))
    syn.add_argument("--seed", type=int, default=None)
    syn.add_argument("--amax", type=float, default=None)
    syn.add_argument("--sigma", type=float, default=None)
    syn.add_argument("--out", type=str, default=None,
                     help="output prefix: writes <out>.tns and <out>.factor<n>.csv")
    syn.add_argument("--config", type=str, default=None)

    dec = sub.add_parser("decompose", help="fit a generalized CP model")
    _add_solver_flags(dec)
    dec.add_argument("--manifest", type=str, default=None,
                     help="replay a saved run manifest (other solver flags ignored)")

    cmp_ = sub.add_parser("compare", help="method-by-seed grid on one instance")
    _add_solver_flags(cmp_, include_outputs=False)
    cmp_.add_argument("--methods", type=str, default=None,
                      help="comma list like inertial-saga,plain-sgd")
    cmp_.add_argument("--seeds", type=int, default=None, help="number of seeds")
    cmp_.add_argument("--threshold", type=float, default=None,
                      help="stop metric threshold for iterations-to-threshold")
    cmp_.add_argument("--metric", type=str, default=None, choices=["nre", "mse"])
    cmp_.add_argument("--out", type=str, default=None, help="summary CSV path")

    ver = sub.add_parser("verify", help="run the oracle check suites")
    ver.add_argument("--quick", action="store_true")
    for p in (syn, dec, cmp_):
        p.set_defaults(config_flags={a.dest: a for a in p._actions if a.option_strings
                                     and a.dest not in ("help", "config")})
    return parser


def _add_solver_flags(p, include_outputs=True):
    p.add_argument("--input", type=str, default=None, help=".tns tensor path")
    p.add_argument("--shape", type=_shape, default=None,
                   help="declared shape when the file has no shape header")
    p.add_argument("--loss", type=str, default=None, choices=list(LOSS_KINDS))
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--generator", type=str, default=None, choices=list(GENERATOR_KINDS))
    p.add_argument("--regularizer", type=str, default=None,
                   choices=list(REGULARIZER_KINDS))
    p.add_argument("--reg-weight", type=float, default=None)
    p.add_argument("--estimator", type=str, default=None, choices=list(ESTIMATOR_KINDS))
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--c1", type=float, default=None)
    p.add_argument("--c2", type=float, default=None)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--p", type=int, default=None, help="sarah restart period")
    p.add_argument("--eval-every", type=int, default=None)
    p.add_argument("--eval-samples", type=int, default=None,
                   help="sampled objective size (required above desk scale)")
    p.add_argument("--init-max", type=float, default=None,
                   help="initial factor entries are uniform on (0, init-max]")
    p.add_argument("--max-step", type=float, default=None,
                   help="per-coordinate cap on |eta*grad|; 'inf' disables")
    p.add_argument("--truth", type=str, default=None,
                   help="planted factor prefix for MSE reporting")
    p.add_argument("--diagnostics", action="store_const", const=True, default=None)
    p.add_argument("--lyapunov", action="store_const", const=True, default=None)
    p.add_argument("--no-timing", action="store_const", const=True, default=None,
                   dest="no_timing")
    p.add_argument("--config", type=str, default=None)
    if include_outputs:
        p.add_argument("--trace", type=str, default=None, help="trace output path")
        p.add_argument("--trace-format", type=str, default=None,
                       choices=["csv", "json"], dest="trace_format")
        p.add_argument("--model-out", type=str, default=None, dest="model_out")


def _given(args, *same, **fields) -> dict:
    """Keyword arguments {field: flag value} for the flags that were set, so every
    unset one keeps its dataclass default; `same` names fields named as their flag."""
    fields.update((name, name) for name in same)
    return {field: getattr(args, flag) for field, flag in fields.items()
            if getattr(args, flag) is not None}


def _solver_config_from_args(args) -> SolverConfig:
    for flag in ("loss", "rank"):
        if getattr(args, flag) is None:
            raise UsageError(f"--{flag} is required")
    if args.reg_weight is not None and args.regularizer is None:
        raise UsageError("--reg-weight needs --regularizer")
    return SolverConfig(
        rank=args.rank,
        loss=LossSpec(args.loss, **_given(args, epsilon="epsilon")),
        generator=GeneratorSpec(args.generator) if args.generator else None,
        regularizer=(RegularizerSpec(args.regularizer, **_given(args, weight="reg_weight"))
                     if args.regularizer else None),
        record_timing=not args.no_timing,
        **_given(args, "estimator", "batch", "eta", "c1", "c2", "tol", "seed", "eval_every",
                 "eval_samples", "init_max", "max_step", "diagnostics", "lyapunov",
                 sarah_p="p", max_iters="iters"),
    )


def _load_tensor(path, shape):
    if path is None:
        raise UsageError("--input is required")
    try:
        tensor = gdata.read_tns(path, shape=shape)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from None
    # Small tensors are densified once: exact objectives and vectorized fibers.
    if tensor.shape.total <= DESK_SCALE:
        return tensor.to_dense()
    return tensor


def cmd_synthesize(args) -> int:
    for flag in ("shape", "rank", "dist", "out"):
        if getattr(args, flag) is None:
            raise UsageError(f"--{flag} is required")
    spec = gdata.SyntheticSpec(
        shape=args.shape, rank=args.rank, distribution=args.dist,
        **_given(args, "seed", a_max="amax", noise_sigma="sigma"))
    tensor, model = gdata.generate(spec)
    manifest = {
        "command": "synthesize",
        "synthetic": dataclasses.asdict(spec),
        "gamma_shape_parameter": 1.0,
        "outputs": {"tensor": str(args.out) + ".tns",
                    "factors": str(args.out) + ".factor<n>.csv"},
    }
    gdata.write_tns(tensor, str(args.out) + ".tns", manifest=manifest)
    gdata.write_factors(model, args.out, manifest=manifest)
    print(json.dumps(manifest, sort_keys=True, indent=1))
    return 0


def cmd_decompose(args) -> int:
    if args.manifest:
        try:
            saved = json.loads(Path(args.manifest).read_text())
        except ValueError as exc:   # not JSON, or not text
            raise DataError(f"{args.manifest} is not a JSON file: {exc}") from None
        parts = ("config", "input", "outputs")
        if not (isinstance(saved, dict) and all(isinstance(saved.get(k), dict) for k in parts)
                and "path" in saved["input"]):
            raise DataError(f"{args.manifest} is not a run manifest: needs {parts} and input.path")
        config = SolverConfig.from_dict(saved["config"])
        input_path = saved["input"]["path"]
        shape = tuple(saved["input"]["shape"]) if saved["input"].get("shape") else None
        truth_path = saved.get("truth")
        trace_path = args.trace or saved["outputs"].get("trace")
        trace_format = args.trace_format or saved["outputs"].get("trace_format", "csv")
        model_out = args.model_out or saved["outputs"].get("model")
    else:
        config = _solver_config_from_args(args)
        input_path = args.input
        shape = args.shape
        truth_path = args.truth
        trace_path = args.trace
        trace_format = args.trace_format or "csv"
        model_out = args.model_out

    tensor = _load_tensor(input_path, shape)
    truth = (gdata.read_factors(truth_path, order=tensor.shape.order)
             if truth_path else None)
    trace, model = run(config, tensor, truth=truth)
    manifest = trace.manifest
    manifest.update({
        "command": "decompose",
        "input": {"path": str(input_path), "shape": list(tensor.shape.dims)},
        "truth": str(truth_path) if truth_path else None,
        "outputs": {"trace": str(trace_path) if trace_path else None,
                    "trace_format": trace_format,
                    "model": str(model_out) if model_out else None},
    })
    if trace_path:
        gdata.write_trace(trace, trace_path, tensor.shape.order, fmt=trace_format)
    if model_out:
        gdata.write_factors(model, model_out, manifest=manifest)
        Path(str(model_out) + ".manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    first, last = trace.records[0], trace.records[-1]
    print(json.dumps(manifest, sort_keys=True, indent=1))
    print(f"iterations: {last.iteration}  nre: {first.nre:.6g} -> {last.nre:.6g}"
          + (f"  mse: {last.mse_mean:.3g}" if last.mse_mean is not None else ""))
    return 0


def _parse_methods(text) -> list[tuple[str, str]]:
    methods = []
    for token in str(text).split(","):
        token = token.strip()
        if not token:
            continue
        head, _, estimator = token.partition("-")
        if head not in ("inertial", "plain") or estimator not in ESTIMATOR_KINDS:
            raise UsageError(f"bad method {token!r}; use {{inertial|plain}}-"
                             f"{{{'|'.join(ESTIMATOR_KINDS)}}}")
        methods.append((head, estimator))
    if not methods:
        raise UsageError("--methods must name at least one method")
    return methods


def iterations_to_threshold(trace, threshold: float, metric: str = "nre"):
    """First evaluated iteration at or below the threshold, or None."""
    for rec in trace.records:
        value = rec.nre if metric == "nre" else rec.mse_mean
        if value is not None and value <= threshold:
            return rec.iteration
    return None


def cmd_compare(args) -> int:
    for flag in ("methods", "threshold"):
        if getattr(args, flag) is None:
            raise UsageError(f"--{flag} is required")
    methods = _parse_methods(args.methods)
    n_seeds = args.seeds if args.seeds is not None else 5
    metric = args.metric or "nre"
    base = _solver_config_from_args(args)
    tensor = _load_tensor(args.input, args.shape)
    truth = (gdata.read_factors(args.truth, order=tensor.shape.order)
             if args.truth else None)
    if metric == "mse" and truth is None:
        raise UsageError("--metric mse needs --truth")

    rows = []
    for head, estimator in methods:
        iters = []
        finals_nre = []
        finals_mse = []
        for s in range(n_seeds):
            plain = {} if head == "inertial" else {"c1": 0.0, "c2": 0.0}
            # --p is the sarah restart period; the other methods run without it.
            config = dataclasses.replace(
                base, estimator=estimator, seed=base.seed + s,
                sarah_p=base.sarah_p if estimator == "sarah" else None, **plain)
            trace, _ = run(config, tensor, truth=truth)
            hit = iterations_to_threshold(trace, args.threshold, metric)
            iters.append(hit if hit is not None else float("inf"))
            finals_nre.append(trace.records[-1].nre)
            if trace.records[-1].mse_mean is not None:
                finals_mse.append(trace.records[-1].mse_mean)
        med = statistics.median(iters)
        rows.append({
            "method": f"{head}-{estimator}",
            "seeds": n_seeds,
            "median_iters_to_threshold": "budget" if med == float("inf") else int(med),
            "final_nre_median": statistics.median(finals_nre),
            "final_mse_median": (statistics.median(finals_mse)
                                 if finals_mse else None),
        })

    lines = ["method,seeds,median_iters_to_threshold,final_nre_median,final_mse_median"]
    for row in rows:
        mse_cell = "" if row["final_mse_median"] is None else f"{row['final_mse_median']:.17g}"
        lines.append(f"{row['method']},{row['seeds']},{row['median_iters_to_threshold']},"
                     f"{row['final_nre_median']:.17g},{mse_cell}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


def cmd_verify(args) -> int:
    results = gverify.run_all(quick=args.quick)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 3


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            _fill(args, _read_config_file(args.config))
        if args.command == "synthesize":
            return cmd_synthesize(args)
        if args.command == "decompose":
            return cmd_decompose(args)
        if args.command == "compare":
            return cmd_compare(args)
        if args.command == "verify":
            return cmd_verify(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (GcpdError, OSError) as exc:   # OSError: an input that cannot be read
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
