"""Command-line front end.

Subcommands:

* ``generate`` -- sample a mass-chain benchmark onto a frequency grid and
  write it as a CSV sample file.
* ``fit`` -- fit a sample file with a prescribed relative degree (AAA or
  vector-fitting backend), write a JSON report and a JSON model file.
* ``identify`` -- run the degree-identification sweep and report the
  winning degree with the full candidate table.
* ``eval`` -- evaluate a saved model over a frequency sweep and write a
  CSV with the value and the evaluation branch used.

Exit codes: 0 on success, 2 on usage or input errors, 3 when a fit did not
converge or the identification failed.
"""

import argparse
import json
import operator
import sys
import time
from importlib import resources

import numpy as np

from . import __version__
from .asymptotic import (DEFAULT_ORDER, AsymptoticModel, PiecewiseModel, classify_degree,
                         eval_piecewise, make_piecewise)
from .benchmarks import load_samples, mass_chain_samples, sample_grid, save_samples
from .core import BarycentricModel, GeneralBarycentricModel
from .errors import BarydegError
from .identify import DEFAULT_MAX_ABS_DEGREE, aaa_backend, identify, vf_backend

REPORT_SCHEMA_VERSION = "1"
MODEL_SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3


def report_schema():
    """The JSON schema shipped with the package, as a dict."""
    text = resources.files("barydeg").joinpath("schema/report-v1.json").read_text()
    return json.loads(text)


def _json_safe(obj):
    """Recursively replace non-finite floats by "inf"/"-inf"/"nan" strings."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if np.isfinite(f):
            return f
        if np.isnan(f):
            return "nan"
        return "inf" if f > 0 else "-inf"
    return obj


def _complex_pairs(values):
    return [[float(v.real), float(v.imag)] for v in np.asarray(values, dtype=complex)]


def _pairs_to_complex(pairs):
    return np.array([complex(re, im) for re, im in pairs])


def model_to_json(pm):
    """Serialize a piecewise model losslessly (raw coefficients, no poles)."""
    bary = pm.bary
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "supports": _complex_pairs(bary.supports),
        "asymptotic": {
            "mu": pm.asym.mu,
            "nu": pm.asym.nu,
            "rdeg": pm.asym.rdeg,
            "order": pm.asym.order,
            "scale": pm.asym.scale,
            "num_moments_scaled": _complex_pairs(pm.asym.num_moments_scaled),
            "den_moments_scaled": _complex_pairs(pm.asym.den_moments_scaled),
        },
        "cutoff": pm.cutoff,
        "train_T": pm.train_T,
        "train_eps": pm.train_eps,
    }
    if isinstance(bary, GeneralBarycentricModel):
        doc["kind"] = "general"
        doc["num_weights"] = _complex_pairs(bary.num_weights)
        doc["den_weights"] = _complex_pairs(bary.den_weights)
    else:
        doc["kind"] = "interpolatory"
        doc["support_values"] = _complex_pairs(bary.support_values)
        doc["weights"] = _complex_pairs(bary.weights)
    return doc


def _entry(doc, key, convert):
    """``convert(doc[key])``; a missing or malformed entry raises ValueError naming it."""
    if key not in doc:
        raise ValueError(f"model file has no {key!r} entry")
    try:
        return convert(doc[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model file entry {key!r} is invalid: {exc}") from None


def model_from_json(doc):
    """Rebuild a piecewise model written by :func:`model_to_json`.

    Raises ``ValueError`` naming the entry when one is missing or malformed,
    or when the stored ``rdeg`` or ``order`` disagrees with the defects and
    moment arrays that define it.
    """
    if not isinstance(doc, dict):
        raise ValueError("model file must hold a JSON object")
    supports = _entry(doc, "supports", _pairs_to_complex)
    kind = _entry(doc, "kind", str)
    if kind == "general":
        bary = GeneralBarycentricModel(
            supports,
            _entry(doc, "num_weights", _pairs_to_complex),
            _entry(doc, "den_weights", _pairs_to_complex),
        )
    elif kind == "interpolatory":
        bary = BarycentricModel(
            supports,
            _entry(doc, "support_values", _pairs_to_complex),
            _entry(doc, "weights", _pairs_to_complex),
        )
    else:
        raise ValueError(f"model file entry 'kind' is invalid: {kind!r}")
    a = _entry(doc, "asymptotic", dict)
    asym = AsymptoticModel(
        mu=_entry(a, "mu", operator.index), nu=_entry(a, "nu", operator.index),
        scale=_entry(a, "scale", float),
        num_moments_scaled=_entry(a, "num_moments_scaled", _pairs_to_complex),
        den_moments_scaled=_entry(a, "den_moments_scaled", _pairs_to_complex),
    )
    stored = (_entry(a, "rdeg", operator.index), _entry(a, "order", operator.index))
    if stored != (asym.rdeg, asym.order):
        raise ValueError(
            f"model file gives rdeg={stored[0]}, order={stored[1]}, but its moments "
            f"define rdeg={asym.rdeg}, order={asym.order}"
        )
    return PiecewiseModel(bary=bary, asym=asym, cutoff=_entry(doc, "cutoff", float),
                          train_T=_entry(doc, "train_T", float),
                          train_eps=_entry(doc, "train_eps", float))


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_safe(doc), fh, indent=2)
        fh.write("\n")


def _base_report(command, args_echo, config):
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "package_version": __version__,
        "command": command,
        "argv": args_echo,
        "config": config,
        "timing_ms": None,
    }


def _fit_summary(report, signature, pm, piecewise_error):
    return {
        "terms": report.terms,
        "effective_degree": report.effective_degree,
        "linf_rel_error": report.linf_rel_error,
        "l2_rel_error": report.l2_rel_error,
        "converged": report.converged,
        "constraint_residual": report.constraint_residual,
        "leading_sum_magnitudes": list(report.leading_sum_magnitudes),
        "classified_rdeg": None if signature is None else signature.rdeg,
        "classified_mu": None if signature is None else signature.mu,
        "classified_nu": None if signature is None else signature.nu,
        "cutoff": None if pm is None else pm.cutoff,
        "train_T": None if pm is None else pm.train_T,
        "train_eps": None if pm is None else pm.train_eps,
        "piecewise_error": piecewise_error,
    }


def cmd_generate(args):
    samples = mass_chain_samples(args.chain, forward=not args.inverted, omega_min=args.wmin,
                                 omega_max=args.wmax, count=args.count, spacing=args.spacing,
                                 noise=args.noise, seed=args.seed)
    save_samples(samples, args.output)
    expected = 2 * args.chain if args.inverted else -2 * args.chain
    kind = "inverted" if args.inverted else "forward"
    print(f"wrote {args.count} samples of the {kind} {args.chain}-mass chain to {args.output}")
    print(f"expected relative degree: {expected:+d}")
    return EXIT_OK


def _load_input(path):
    try:
        return load_samples(path)
    except FileNotFoundError:
        raise BarydegError(f"input file not found: {path}") from None


def _backend(args):
    make = aaa_backend if args.backend == "aaa" else vf_backend
    return make(tol=args.tol, max_terms=args.max_terms)


def cmd_fit(args):
    samples = _load_input(args.input)
    t0 = time.perf_counter()
    model, rep = _backend(args)(samples, args.degree)
    signature = pm = piecewise_error = None
    try:
        signature = classify_degree(model)
        pm = make_piecewise(model, samples, args.order)
    except BarydegError as exc:
        piecewise_error = str(exc)
    elapsed = (time.perf_counter() - t0) * 1e3

    doc = _base_report("fit", _echo(args), {
        "input": args.input, "backend": args.backend, "tol": args.tol,
        "degree": args.degree, "order": args.order, "max_terms": args.max_terms,
    })
    doc["result"] = _fit_summary(rep, signature, pm, piecewise_error)
    doc["timing_ms"] = elapsed
    _write_json(args.report, doc)
    if args.model_out and pm is not None:
        _write_json(args.model_out, model_to_json(pm))
    if piecewise_error is not None:
        print(f"no piecewise model: {piecewise_error}", file=sys.stderr)
    print(f"fit: {rep.terms} terms, linf={rep.linf_rel_error:.3e}, "
          f"converged={rep.converged}; report -> {args.report}")
    return EXIT_OK if rep.converged else EXIT_NOT_CONVERGED


def cmd_identify(args):
    samples = _load_input(args.input)
    t0 = time.perf_counter()
    result = identify(samples, _backend(args), max_abs_degree=args.max_abs_degree, order=args.order)
    elapsed = (time.perf_counter() - t0) * 1e3

    doc = _base_report("identify", _echo(args), {
        "input": args.input, "backend": args.backend, "tol": args.tol,
        "max_abs_degree": args.max_abs_degree, "order": args.order,
        "max_terms": args.max_terms,
    })
    doc["result"] = {
        "identified": result.converged,
        "best_degree": result.best_degree,
        "best_terms": result.best.terms,
        "best_linf_rel_error": result.best.linf_rel_error,
        "cutoff": None if result.piecewise is None else result.piecewise.cutoff,
    }
    doc["candidates"] = [
        {"degree": c.degree, "terms": c.terms, "linf_rel_error": c.linf_rel_error,
         "converged": c.converged}
        for c in result.candidates
    ]
    doc["timing_ms"] = elapsed
    _write_json(args.report, doc)
    if args.model_out and result.piecewise is not None:
        _write_json(args.model_out, model_to_json(result.piecewise))
    if not result.converged:
        print(f"identification failed: no candidate converged; report -> {args.report}")
        return EXIT_NOT_CONVERGED
    print(f"identified relative degree {result.best_degree:+d} "
          f"({result.best.terms} terms); report -> {args.report}")
    return EXIT_OK


def cmd_eval(args):
    with open(args.model) as fh:
        pm = model_from_json(json.load(fh))
    grid = sample_grid(args.wmin, args.wmax, args.count, args.spacing)
    near = pm.near(grid)
    values = eval_piecewise(pm, grid)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write("s_abs,r_re,r_im,r_abs,branch\n")
        for s, v, n in zip(grid, values, near):
            branch = "bary" if n else "asym"
            fh.write(f"{abs(s):.17g},{v.real:.17g},{v.imag:.17g},{abs(v):.17g},{branch}\n")
    print(f"wrote {args.count} evaluations to {args.output}")
    return EXIT_OK


def _echo(args):
    return {k: v for k, v in vars(args).items() if k != "func"}


def build_parser():
    p = argparse.ArgumentParser(
        prog="barydeg",
        description="Rational approximation of frequency-response data with "
                    "prescribed or identified relative degree.")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample a mass-chain benchmark to CSV")
    g.add_argument("--chain", type=int, required=True, help="number of masses (>= 2)")
    kind = g.add_mutually_exclusive_group()
    kind.add_argument("--forward", dest="inverted", action="store_false",
                      help="force-to-position map (default)")
    kind.add_argument("--inverted", dest="inverted", action="store_true",
                      help="position-to-force map")
    g.set_defaults(inverted=False)
    g.add_argument("--wmin", type=float, required=True)
    g.add_argument("--wmax", type=float, required=True)
    g.add_argument("--count", type=int, default=200)
    g.add_argument("--spacing", choices=["log", "linear"], default="log")
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--output", "-o", required=True)
    g.set_defaults(func=cmd_generate)

    f = sub.add_parser("fit", help="fit a sample file with a prescribed degree")
    f.add_argument("input")
    f.add_argument("--backend", choices=["aaa", "vf"], default="aaa")
    f.add_argument("--tol", type=float, default=1e-6)
    f.add_argument("--degree", type=int, default=0)
    f.add_argument("--order", type=int, default=DEFAULT_ORDER, help="asymptotic truncation order")
    f.add_argument("--max-terms", type=int, default=None)
    f.add_argument("--report", "-o", required=True)
    f.add_argument("--model-out", default=None)
    f.set_defaults(func=cmd_fit)

    i = sub.add_parser("identify", help="identify the relative degree from data")
    i.add_argument("input")
    i.add_argument("--backend", choices=["aaa", "vf"], default="aaa")
    i.add_argument("--tol", type=float, default=1e-6)
    i.add_argument("--max-abs-degree", type=int, default=DEFAULT_MAX_ABS_DEGREE)
    i.add_argument("--order", type=int, default=DEFAULT_ORDER)
    i.add_argument("--max-terms", type=int, default=None)
    i.add_argument("--report", "-o", required=True)
    i.add_argument("--model-out", default=None)
    i.set_defaults(func=cmd_identify)

    e = sub.add_parser("eval", help="evaluate a saved model over a sweep")
    e.add_argument("--model", required=True)
    e.add_argument("--wmin", type=float, required=True)
    e.add_argument("--wmax", type=float, required=True)
    e.add_argument("--count", type=int, default=200)
    e.add_argument("--spacing", choices=["log", "linear"], default="log")
    e.add_argument("--output", "-o", required=True)
    e.set_defaults(func=cmd_eval)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help/--version
        return exc.code if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except (BarydegError, ValueError, OSError, ZeroDivisionError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
