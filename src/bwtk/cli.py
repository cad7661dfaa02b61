"""Command-line front end.

Every subcommand prints one TSV record per measure/parameter combination,
columns measure, params..., value. Floats are fixed-point at --precision
digits; --output json wraps the same field strings into a JSON document so
both encodings carry byte-identical numerics. Exit codes: 0 success, 1
usage or input error, 2 computation error (such as a zero denominator).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import kernels, oracle, suffix
from .errors import ComputationError, InputError
from .params import WeightSpec, ZScoreParams
from .suffix import BwtIndex, PairIndex, build_bwt
from .text import Sequence, load_input, map_alphabet

_KERNEL_KINDS = (
    "kmer",
    "substring",
    "weighted",
    "d2s",
    "d2star",
    "markov",
    "maw-jaccard",
    "maw-cosine",
)


def _fmt_float(v: float, precision: int) -> str:
    return f"{v:.{precision}f}"


def _emit(records, output: str) -> None:
    """Write the records, (measure, params, value) tuples of strings read once, as they come."""
    out = sys.stdout
    if output == "tsv":
        for measure, params, value in records:
            out.write("\t".join([measure, *params, value]) + "\n")
        return
    # values are spliced in verbatim so JSON numerics match TSV exactly
    out.write('{"records":[')
    for i, (measure, params, value) in enumerate(records):
        params = ",".join(json.dumps(p) for p in params)
        out.write(
            f'{"," if i else ""}{{"measure":{json.dumps(measure)},"params":[{params}],'
            f'"value":{value}}}'
        )
    out.write("]}\n")


def _load(args, *paths: str) -> list[Sequence]:
    """One sequence per file, all mapped through one alphabet."""
    alphabet = _alphabet_bytes(args.alphabet)
    loaded = [load_input(path, args.format) for path in paths]
    for path, records in zip(paths, loaded):
        if len(records) != 1:
            raise InputError(
                f"{path}: expected exactly one sequence, found {len(records)}"
            )
    # one shared alphabet across the inputs keeps symbol spaces aligned
    return map_alphabet([rec for records in loaded for rec in records], alphabet)


def _alphabet_bytes(arg: str | None) -> bytes | None:
    if arg is None:
        return None
    try:
        return arg.encode("ascii")
    except UnicodeEncodeError:
        raise InputError("--alphabet must be ASCII") from None


def _parse_floats(arg: str | None, what: str) -> tuple[float, ...] | None:
    """Comma-separated floats; None when the flag was not given."""
    if arg is None:
        return None
    try:
        return tuple(float(tok) for tok in arg.split(","))
    except ValueError:
        raise InputError(f"cannot parse {what} {arg!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="bwtk", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(
        dest="command",
        required=True,
        metavar="{complexity,kernel,profile,entropy,maw,kl,calibrate,index}",
    )

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("auto", "fasta", "raw"), default="auto")
    common.add_argument("--alphabet", help="explicit alphabet, symbol order fixed")
    common.add_argument("--output", choices=("tsv", "json"), default="tsv")
    common.add_argument("--precision", type=int, default=12)

    p = sub.add_parser("complexity", parents=[common], help="distinct factor counts")
    p.add_argument("--kind", choices=("kmer", "substring"), required=True)
    p.add_argument("-k", type=int, help="factor length (kind kmer)")
    p.add_argument("input")

    p = sub.add_parser("kernel", parents=[common], help="pairwise similarity")
    p.add_argument(
        "--kind",
        required=True,
        help="comma list over {" + ",".join(_KERNEL_KINDS) + "}",
    )
    p.add_argument("-k", type=int, help="k-mer length (kmer, d2s, d2star)")
    p.add_argument("--k2", type=int, help="upper k for a kmer kernel sweep")
    p.add_argument("--weights", choices=("uniform", "exponential", "band", "charscore"),
                   default="uniform")
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--kmin", type=int, default=1)
    p.add_argument("--kmax", type=int, default=1)
    p.add_argument("--scores", help="comma floats, one per alphabet symbol")
    p.add_argument("--q", help="comma probabilities, one per symbol (d2s, d2star)")
    p.add_argument("--g", choices=("unit", "exact"), default="unit")
    p.add_argument("input1")
    p.add_argument("input2")

    p = sub.add_parser("profile", parents=[common], help="k-mer frequency profile")
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--f1", type=int, required=True)
    p.add_argument("--f2", type=int, required=True)
    p.add_argument("input")

    p = sub.add_parser("entropy", parents=[common], help="empirical entropies")
    p.add_argument("--k1", type=int, default=0)
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("input")

    p = sub.add_parser("maw", parents=[common], help="minimal absent words")
    p.add_argument("--kind", choices=("count", "list"), default="count")
    p.add_argument("input")

    p = sub.add_parser("kl", parents=[common], help="k-mer KL divergences")
    p.add_argument("--k1", type=int, default=2)
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("input")

    p = sub.add_parser("calibrate", parents=[common], help="k range calibration")
    p.add_argument("--kind", choices=("kmin", "kmax"), required=True)
    p.add_argument("--tau", type=float, default=0.25)
    p.add_argument("--kcap", type=int, default=16)
    p.add_argument("input")

    p = sub.add_parser("index", parents=[common], help="build or inspect an index")
    p.add_argument("action", choices=("build", "dump"))
    p.add_argument("input")
    p.add_argument("-o", "--out", help="output path (build)")

    # undocumented: brute-force reference values for small inputs
    p = sub.add_parser("oracle", parents=[common])
    p.add_argument(
        "--measure",
        choices=("kmer-complexity", "substring-complexity", "maw-count", "entropy", "kl"),
        required=True,
    )
    p.add_argument("-k", type=int, default=2)
    p.add_argument("input")

    return top


def _run_complexity(args):
    [s] = _load(args, args.input)
    ix = build_bwt(s)
    if args.kind == "kmer":
        if args.k is None:
            raise InputError("complexity --kind kmer requires -k")
        return [("kmer", [str(args.k)], str(kernels.kmer_complexity(ix, args.k)))]
    return [("substring", [], str(kernels.substring_complexity(ix)))]


def _kernel_fold(pair: PairIndex, kind: str, args) -> kernels.Fold:
    """The fold of one --kind; raises what running that kind alone raises."""
    if kind in ("kmer", "d2s", "d2star") and args.k is None:
        raise InputError(f"kernel --kind {kind} requires -k")
    if kind == "kmer":
        if args.k2 is not None:
            return kernels.kmer_kernel_range.fold(pair, args.k, args.k2)
        return kernels.kmer_kernel.fold(pair, args.k)
    if kind == "substring":
        return kernels.substring_kernel.fold(pair)
    if kind == "weighted":
        spec = WeightSpec(
            kind=args.weights,
            epsilon=args.epsilon,
            kmin=args.kmin,
            kmax=args.kmax,
            scores=_parse_floats(args.scores, "scores"),
        )
        return kernels.weighted_substring_kernel.fold(pair, spec)
    if kind in ("d2s", "d2star"):
        q = _parse_floats(args.q, "probabilities")
        if q is None:
            q = tuple(1.0 / pair.letters for _ in range(pair.letters))
        fn = kernels.d2s_distance if kind == "d2s" else kernels.d2star_distance
        return fn.fold(pair, args.k, q)
    if kind == "markov":
        return kernels.markov_kernel.fold(pair, ZScoreParams(g_mode=args.g))
    if kind == "maw-jaccard":
        return kernels.maw_jaccard.fold(pair)
    return kernels.maw_cosine.fold(pair)


def _kernel_records(kind: str, args, value):
    prec = args.precision
    if kind == "kmer" and args.k2 is not None:
        return [("kmer", [str(k)], _fmt_float(value[k], prec)) for k in sorted(value)]
    params = {"kmer": [str(args.k)], "weighted": [args.weights], "d2s": [str(args.k)],
              "d2star": [str(args.k)], "markov": [args.g]}.get(kind, [])
    return [(kind, params, _fmt_float(value, prec))]


def _run_kernel(args):
    kinds = [tok.strip() for tok in args.kind.split(",") if tok.strip()]
    if not kinds:
        raise InputError("no kernel kind given")
    for kind in kinds:
        if kind not in _KERNEL_KINDS:
            raise InputError(f"unknown kernel kind {kind!r}")
    s1, s2 = _load(args, args.input1, args.input2)
    # one index of T1 $ T2 #; the symbol arrays are not needed past the build
    pair = PairIndex(s1.array, s2.array, s1.sigma)
    del s1, s2
    # every kind is a fold over one pass of the pair's index
    values = kernels.run_folds(pair, [(_kernel_fold, kind, args) for kind in kinds])
    return [rec for kind, v in zip(kinds, values) for rec in _kernel_records(kind, args, v)]


def _check_bounds(**bounds: int) -> None:
    """Refuse a length or frequency past the longest text an index holds."""
    for flag, value in bounds.items():
        if value > suffix._MAX_N:
            raise InputError(
                f"--{flag} {value} is past the longest text an index holds"
                f" ({suffix._MAX_N} symbols)"
            )


def _run_profile(args):
    """The k, f, count rows, made as they are written."""
    _check_bounds(k2=args.k2, f2=args.f2)
    [s] = _load(args, args.input)
    prof = kernels.kmer_profile(build_bwt(s), args.k1, args.k2, args.f1, args.f2)
    return (
        ("profile", [str(k), str(f)], str(prof.cell(k, f)))
        for k in range(args.k1, args.k2 + 1)
        for f in range(args.f1, args.f2 + 1)
    )


def _run_per_k(args):
    """entropy and kl: one value per k in [k1..k2], made as it is written."""
    [s] = _load(args, args.input)
    if args.command == "entropy":
        values = kernels.entropy_range(build_bwt(s), args.k1, args.k2)
    else:
        values = kernels.kl_divergence_range(build_bwt(s), args.k1, args.k2)
    return (
        (args.command, [str(args.k1 + i)], _fmt_float(v, args.precision))
        for i, v in enumerate(values)
    )


def _run_maw(args):
    [s] = _load(args, args.input)
    ix = build_bwt(s)
    if args.kind == "count":
        return [("maw-count", [], str(kernels.maw_count(ix)))]
    # _load maps every input through an alphabet, which decodes the words
    decode = s.alphabet.decode
    return [
        ("maw", [], decode(list(w)).decode("ascii", "replace"))
        for w in kernels.maw_words(ix)
    ]


def _run_calibrate(args):
    [s] = _load(args, args.input)
    ix = build_bwt(s)
    if args.kind == "kmin":
        return [("kmin", [], str(kernels.calibrate_kmin(ix, args.kcap)))]
    return [("kmax", [], str(kernels.calibrate_kmax(ix, args.tau, args.kcap)))]


def _run_index(args):
    if args.action == "build":
        if args.out is None:
            raise InputError("index build requires -o OUT")
        [s] = _load(args, args.input)
        ix = build_bwt(s)
        ix.dump(args.out)
        return [("index", [str(ix.n)], str(ix.sigma))]
    ix = BwtIndex.load(args.input)
    return [("index", [str(ix.n)], str(ix.sigma))]


def _run_oracle(args):
    [s] = _load(args, args.input)
    prec = args.precision
    if args.measure == "kmer-complexity":
        return [("kmer", [str(args.k)], str(oracle.oracle_kmer_complexity(s, args.k)))]
    if args.measure == "substring-complexity":
        return [("substring", [], str(oracle.oracle_substring_complexity(s)))]
    if args.measure == "maw-count":
        return [("maw-count", [], str(oracle.oracle_maw_count(s)))]
    if args.measure == "entropy":
        return [("entropy", [str(args.k)], _fmt_float(oracle.oracle_entropy(s, args.k), prec))]
    return [("kl", [str(args.k)], _fmt_float(oracle.oracle_kl(s, args.k), prec))]


_RUNNERS = {
    "complexity": _run_complexity,
    "kernel": _run_kernel,
    "profile": _run_profile,
    "entropy": _run_per_k,
    "maw": _run_maw,
    "kl": _run_per_k,
    "calibrate": _run_calibrate,
    "index": _run_index,
    "oracle": _run_oracle,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on a usage error; the contract wants 1
        return 1 if exc.code == 2 else int(exc.code or 0)
    if args.precision < 0 or args.precision > 17:
        print("bwtk: error: --precision must be in [0..17]", file=sys.stderr)
        return 1
    try:
        records = _RUNNERS[args.command](args)
    except (InputError, ComputationError) as exc:
        print(f"bwtk: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ComputationError) else 1
    _emit(records, args.output)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
