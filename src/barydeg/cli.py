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

``fit`` and ``identify`` share one argument set (the sample file,
``--backend``, ``--tol``, ``--max-terms``, ``--report/-o`` and
``--model-out``) and one report writer.  A report's ``argv`` echoes every
argument; its ``config`` is ``argv`` without ``command`` and the two output
paths.  ``generate`` and ``eval`` share ``--wmin/--wmax/--count/--spacing``.
A model file loads only if it is what ``model_to_json`` writes for the fit it holds.

Exit codes: 0 on success, 2 on usage or input errors (a package error, a
``ValueError`` such as a point beyond the double range, or an ``OSError``),
3 when a fit did not converge or the identification failed.
"""

import argparse
import dataclasses
import json
import sys
import time
from importlib import resources

import numpy as np

from . import __version__
from .aaa import DEFAULT_TOL as AAA_TOL
from .asymptotic import PiecewiseModel, eval_piecewise, make_piecewise
from .benchmarks import load_samples, mass_chain_samples, sample_grid, save_samples
from .core import BarycentricModel, GeneralBarycentricModel, _field_names
from .errors import BarydegError
from .identify import DEFAULT_MAX_ABS_DEGREE, CandidateRecord, aaa_backend, identify, vf_backend
from .util import write_rows
from .vf import DEFAULT_TOL as VF_TOL

REPORT_SCHEMA_VERSION = "1"
MODEL_SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3


def report_schema():
    """The JSON schema shipped with the package, as a dict."""
    text = resources.files("barydeg").joinpath("schema/report-v1.json").read_text(encoding="utf-8")
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


# A model file's ``kind`` and the class it names; the file stores the
# class's fields after ``supports`` under their own names.
MODEL_KINDS = {"interpolatory": BarycentricModel, "general": GeneralBarycentricModel}
_MISSING = object()


def model_to_json(pm):
    """Serialize a piecewise model: its fit, losslessly, and what the fit derives, for readers."""
    bary, asym = pm.bary, pm.asym
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "supports": _complex_pairs(bary.supports),
        "asymptotic": {
            "mu": asym.mu,
            "nu": asym.nu,
            "rdeg": asym.rdeg,
            "order": asym.order,
            "scale": asym.scale,
            "num_moments_scaled": _complex_pairs(asym.num_moments_scaled),
            "den_moments_scaled": _complex_pairs(asym.den_moments_scaled),
        },
        "cutoff": pm.cutoff,
        "train_T": pm.train_T,
        "train_eps": pm.train_eps,
        "kind": next(kind for kind, cls in MODEL_KINDS.items() if type(bary) is cls),
        **{name: _complex_pairs(getattr(bary, name)) for name in _field_names(type(bary))[1:]},
    }


def _entry(doc, key, convert=lambda value: value):
    """``convert(doc[key])``; a missing or malformed entry raises ValueError naming it."""
    if key not in doc:
        raise ValueError(f"model file has no {key!r} entry")
    try:
        return convert(doc[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model file entry {key!r} is invalid: {exc}") from None


def _same(have, want):
    """``have == want``, entry by entry, with no bool standing in for a number."""
    if isinstance(have, list) and isinstance(want, list):
        return len(have) == len(want) and all(map(_same, have, want))
    return isinstance(have, bool) == isinstance(want, bool) and have == want


def model_from_json(doc):
    """Rebuild a piecewise model written by :func:`model_to_json`.

    Built from ``kind``, the coefficient fields, ``train_T`` and ``train_eps``;
    the file loads only if it is ``model_to_json`` of that fit, value for value
    (``1`` passes for ``1.0``, ``"1.0"`` and ``true`` do not).  Otherwise
    ``ValueError`` names ``schema_version``, an entry the model cannot be built
    from, or the first missing, changed or unknown entry
    (``asymptotic.<name>`` if nested).
    """
    if not isinstance(doc, dict):
        raise ValueError("model file must hold a JSON object")
    version = _entry(doc, "schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ValueError(f"model file entry 'schema_version' is {version!r}, "
                         f"not {MODEL_SCHEMA_VERSION!r}")
    supports = _entry(doc, "supports", _pairs_to_complex)
    kind = _entry(doc, "kind", str)
    if kind not in MODEL_KINDS:
        raise ValueError(f"model file entry 'kind' is invalid: {kind!r}")
    cls = MODEL_KINDS[kind]
    bary = cls(supports, *(_entry(doc, name, _pairs_to_complex) for name in _field_names(cls)[1:]))
    pm = PiecewiseModel(bary=bary, train_T=_entry(doc, "train_T", float),
                        train_eps=_entry(doc, "train_eps", float))
    written = model_to_json(pm)
    # nested entries first; a stored "asymptotic" object that passes equals the written one
    for prefix, stored, entries in (("asymptotic.", doc.get("asymptotic"), written["asymptotic"]),
                                    ("", doc, written)):
        for key in {**entries, **stored} if isinstance(stored, dict) else ():
            have, want = stored.get(key, _MISSING), entries.get(key, _MISSING)
            if not _same(have, want):
                raise ValueError(f"model file entry {prefix + key!r} is " + (
                    "missing" if have is _MISSING else "unknown" if want is _MISSING
                    else "not the value its fit gives"))
    return pm


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_safe(doc), fh, indent=2)
        fh.write("\n")


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
    # made before the input is read, so bad settings fail without reading it;
    # the default tol is the backend's, set on args so the report shows it
    if args.tol is None:
        args.tol = AAA_TOL if args.backend == "aaa" else VF_TOL
    make = aaa_backend if args.backend == "aaa" else vf_backend
    return make(tol=args.tol, max_terms=args.max_terms)


def _write_run(args, t0, pm, **sections):
    """Write a ``fit``/``identify`` report and, when asked for, the model file of ``pm``."""
    argv = {k: v for k, v in vars(args).items() if k != "func"}
    _write_json(args.report, {
        "schema_version": REPORT_SCHEMA_VERSION,
        "package_version": __version__,
        "command": args.command,
        "argv": argv,
        "config": {k: v for k, v in argv.items() if k not in ("command", "report", "model_out")},
        "timing_ms": (time.perf_counter() - t0) * 1e3,
        **sections,
    })
    if args.model_out and pm is None:
        print(f"no model file written to {args.model_out}: no piecewise model", file=sys.stderr)
    elif args.model_out:
        _write_json(args.model_out, model_to_json(pm))


def cmd_fit(args):
    backend, samples = _backend(args), _load_input(args.input)
    t0 = time.perf_counter()
    model, rep = backend(samples, args.degree)
    pm = piecewise_error = None
    try:
        pm = make_piecewise(model, samples)
    except BarydegError as exc:
        piecewise_error = str(exc)
        print(f"no piecewise model: {piecewise_error}", file=sys.stderr)
    _write_run(args, t0, pm, result={
        **dataclasses.asdict(rep),
        **{f"classified_{k}": getattr(pm and pm.asym, k, None) for k in ("rdeg", "mu", "nu")},
        **{k: getattr(pm, k, None) for k in ("cutoff", "train_T", "train_eps")},
        "piecewise_error": piecewise_error,
    })
    print(f"fit: {rep.terms} terms, linf={rep.linf_rel_error:.3e}, "
          f"converged={rep.converged}; report -> {args.report}")
    return EXIT_OK if rep.converged else EXIT_NOT_CONVERGED


def cmd_identify(args):
    backend, samples = _backend(args), _load_input(args.input)
    t0 = time.perf_counter()
    result = identify(samples, backend, max_abs_degree=args.max_abs_degree)
    _write_run(args, t0, result.piecewise, result={
        "identified": result.converged,
        "best_degree": result.best_degree,
        "best_terms": result.best.terms,
        "best_linf_rel_error": result.best.linf_rel_error,
        "cutoff": getattr(result.piecewise, "cutoff", None),
    }, candidates=[
        {k: getattr(c, k) for k in _field_names(CandidateRecord) if k != "model"}
        for c in result.candidates
    ])
    if not result.converged:
        print(f"identification failed: no candidate converged; report -> {args.report}")
        return EXIT_NOT_CONVERGED
    print(f"identified relative degree {result.best_degree:+d} "
          f"({result.best.terms} terms); report -> {args.report}")
    return EXIT_OK


def cmd_eval(args):
    with open(args.model, encoding="utf-8") as fh:
        pm = model_from_json(json.load(fh))
    grid = sample_grid(args.wmin, args.wmax, args.count, args.spacing)
    values = eval_piecewise(pm, grid)
    labels = np.where(pm.near(grid), "bary", "asym")
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write("s_abs,r_re,r_im,r_abs,branch\n")
        write_rows(fh, "%.17g,%.17g,%.17g,%.17g,%s\n",
                   (np.abs(grid), values.real, values.imag, np.abs(values), labels))
    print(f"wrote {args.count} evaluations to {args.output}")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="barydeg",
        description="Rational approximation of frequency-response data with "
                    "prescribed or identified relative degree.")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--wmin", type=float, required=True)
    sweep.add_argument("--wmax", type=float, required=True)
    sweep.add_argument("--count", type=int, default=200)
    sweep.add_argument("--spacing", choices=["log", "linear"], default="log")

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("input")
    run.add_argument("--backend", choices=["aaa", "vf"], default="aaa")
    run.add_argument("--tol", type=float, help=f"default: {AAA_TOL:g} for aaa, {VF_TOL:g} for vf")
    run.add_argument("--max-terms", type=int, default=None)
    run.add_argument("--report", "-o", required=True)
    run.add_argument("--model-out", default=None)

    g = sub.add_parser("generate", parents=[sweep], help="sample a mass-chain benchmark to CSV")
    g.add_argument("--chain", type=int, required=True, help="number of masses (>= 2)")
    kind = g.add_mutually_exclusive_group()
    kind.add_argument("--forward", dest="inverted", action="store_false",
                      help="force-to-position map (default)")
    kind.add_argument("--inverted", dest="inverted", action="store_true",
                      help="position-to-force map")
    g.set_defaults(inverted=False)
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--output", "-o", required=True)
    g.set_defaults(func=cmd_generate)

    f = sub.add_parser("fit", parents=[run], help="fit a sample file with a prescribed degree")
    f.add_argument("--degree", type=int, default=0)
    f.set_defaults(func=cmd_fit)

    i = sub.add_parser("identify", parents=[run], help="identify the relative degree from data")
    i.add_argument("--max-abs-degree", type=int, default=DEFAULT_MAX_ABS_DEGREE)
    i.set_defaults(func=cmd_identify)

    e = sub.add_parser("eval", parents=[sweep], help="evaluate a saved model over a sweep")
    e.add_argument("--model", required=True)
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
    except (BarydegError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
