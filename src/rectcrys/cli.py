"""Command-line interface: JSON in, JSON out.

Subcommands mirror the library modules.  Tableaux, crystal elements, and
polynomials use the repo-wide JSON formats; every exhaustive verification
suite takes explicit enumeration bounds.  Exit status is 0 on success, 1 on a
verification failure, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Sequence

from .errors import RectcrysError

if TYPE_CHECKING:
    from .crystal import CrystalElement, RectSequence
    from .laurent import LaurentPolynomial

# Each handler imports the modules it uses, so that a request compiles and
# loads only what its subcommand needs.


def _require(args, *names) -> None:
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise ValueError(f"missing required flags: {', '.join(missing)}")


def _parse_partition(text: str) -> tuple[int, ...]:
    from .tableaux import partition

    if not text.strip():
        return ()
    return partition(int(x) for x in text.split(","))


def _check_n(n: int) -> int:
    if n < 2:
        raise ValueError(f"--n must be at least 2, got {n}")
    return n


def _parse_mu(text: str, n: int) -> tuple[int, ...]:
    """--mu for the Demazure side: a partition of --n."""
    mu = _parse_partition(text)
    if sum(mu) != n:
        raise ValueError(f"--mu must be a partition of {n}, got {text!r}")
    return mu


def _parse_rects(text: str) -> RectSequence:
    from .crystal import RectSequence

    rects = []
    for block in text.split(","):
        eta, _, mu = block.strip().partition("x")
        rects.append((int(eta), int(mu)))
    return RectSequence(rects)


def _parse_perm(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _read_json(stream) -> dict:
    data = json.load(stream)
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    return data


def _check_pos(pos: int, b: CrystalElement) -> int:
    """An adjacent pair of tensor positions (pos, pos + 1) of b."""
    if not 1 <= pos <= b.seq.m - 1:
        raise ValueError(f"--pos must be in 1..{b.seq.m - 1}, got {pos}")
    return pos


def _emit(data) -> None:
    json.dump(data, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _element_from_stdin(args) -> CrystalElement:
    from .crystal import CrystalElement

    return CrystalElement.from_json(_read_json(args.infile))


def _maybe_element(result: CrystalElement | None) -> None:
    _emit(None if result is None else result.to_json())


# ---------------------------------------------------------------------------
# Subcommand handlers.

def _cmd_tableau(args) -> int:
    from .tableaux import Tableau, antinormal, column_insert, json_ints, key

    if args.op in ("insert", "antinormal"):
        word = json_ints(_read_json(args.infile)["word"], "word")
        if any(x < 1 for x in word):
            raise ValueError(f"letters must be >= 1, got {word}")
        _emit((column_insert if args.op == "insert" else antinormal)(word).to_json())
    elif args.op == "word":
        t = Tableau.from_json(_read_json(args.infile))
        _emit({"word": list(t.word())})
    elif args.op == "key":
        _require(args, "gamma")
        _emit(key([int(x) for x in args.gamma.split(",")]).to_json())
    return 0


def _cmd_crystal(args) -> int:
    from .affine import e0, f0
    from .crystal import e, f, reflection

    b = _element_from_stdin(args)
    if not 0 <= args.color <= b.seq.n - 1:
        raise ValueError(f"--color must be in 0..{b.seq.n - 1}, got {args.color}")
    if args.op == "e":
        _maybe_element(e(b, args.color) if args.color else e0(b))
    elif args.op == "f":
        _maybe_element(f(b, args.color) if args.color else f0(b))
    else:
        if args.color == 0:
            raise ValueError(f"reflection needs a classical color, --color in 1..{b.seq.n - 1}, got 0")
        _maybe_element(reflection(b, args.color))
    return 0


def _cmd_rsk(args) -> int:
    from .crystal import RectSequence
    from .rsk import TableauPair, lrt_tableaux, rsk_inverse, rsk_pair
    from .tableaux import Tableau, json_ints

    if args.op == "pair":
        b = _element_from_stdin(args)
        pair = rsk_pair(b)
        _emit({"p": pair.p.to_json(), "q": pair.q.to_json()})
    elif args.op == "inverse":
        data = _read_json(args.infile)
        seq = RectSequence(json_ints(data["rects"], "rects", 2))
        pair = TableauPair(
            Tableau.from_json(data["p"], n=seq.n),
            Tableau.from_json(data["q"], n=seq.n),
        )
        _emit(rsk_inverse(pair, seq).to_json())
    elif args.op == "lrt":
        _require(args, "shape", "rects")
        seq = _parse_rects(args.rects)
        for t in lrt_tableaux(_parse_partition(args.shape), seq):
            _emit(t.to_json())
    return 0


def _cmd_affine(args) -> int:
    from .affine import chi, e0, f0, pair_promote, promote, promote_inverse
    from .rsk import rsk_pair
    from .tableaux import json_ints

    if args.op == "chi":
        _require(args, "rects")
        data = _read_json(args.infile)
        seq = _parse_rects(args.rects)
        _emit({"word": list(chi(tuple(json_ints(data["word"], "word")), seq))})
        return 0
    b = _element_from_stdin(args)
    if args.op == "promote":
        _emit(promote(b).to_json())
    elif args.op == "promote-inverse":
        _emit(promote_inverse(b).to_json())
    elif args.op == "e0":
        _maybe_element(e0(b))
    elif args.op == "f0":
        _maybe_element(f0(b))
    elif args.op == "trace":
        pair, trace = pair_promote(rsk_pair(b), b.seq)
        _emit(
            {
                "p": pair.p.to_json(),
                "q": pair.q.to_json(),
                "trace": trace.to_json(),
            }
        )
    return 0


def _cmd_rmatrix(args) -> int:
    from .rmatrix import sigma_compose, sigma_swap

    b = _element_from_stdin(args)
    if args.op == "swap":
        _emit(sigma_swap(b, _check_pos(args.pos, b)).to_json())
    else:
        _require(args, "perm")
        _emit(sigma_compose(b, _parse_perm(args.perm)).to_json())
    return 0


def _cmd_energy(args) -> int:
    from .crystal import CrystalElement, RectSequence
    from .energy import classical_charge, energy_terms, local_H, total_energy
    from .tableaux import Tableau

    if args.op == "charge":
        t = Tableau.from_json(_read_json(args.infile))
        _emit({"charge": classical_charge(t)})
        return 0
    b = _element_from_stdin(args)
    if args.op == "total":
        _emit(
            {
                "energy": total_energy(b),
                "terms": [list(t) for t in energy_terms(b)],
            }
        )
    else:
        pos = _check_pos(args.pos, b)
        sub = CrystalElement._raw(
            RectSequence(b.seq.rects[pos - 1 : pos + 1]), b.factors[pos - 1 : pos + 1]
        )
        _emit({"energy": local_H(sub)})
    return 0


def _cached(args, seq, lam, compute) -> LaurentPolynomial:
    """The polynomial of (lam, seq) from the disk cache, or ``compute()``
    stored there on a miss; with --no-cache, ``compute()`` alone."""
    if args.no_cache:
        return compute()
    from .cache import PolynomialCache, cache_key

    cache = PolynomialCache(directory=args.cache_dir)
    key_ = cache_key(seq.n, lam, seq.rects)
    poly = cache.get(key_)
    if poly is None:
        poly = compute()
        cache.put(key_, poly)
    return poly


def _cmd_kpoly(args) -> int:
    if args.op in ("compute", "kostka"):
        if args.op == "compute":
            _require(args, "shape", "rects")
            lam = _parse_partition(args.shape)
            seq = _parse_rects(args.rects)
        else:
            from .kpoly import kostka_sequence

            _require(args, "mu")
            if getattr(args, "lambda") is None:
                raise ValueError("missing required flags: --lambda")
            lam = _parse_partition(getattr(args, "lambda"))
            seq = kostka_sequence(_parse_partition(args.mu))

        def compute():
            # a compute cache hit never loads kpoly
            from .kpoly import _one_shape_k_polynomial

            return _one_shape_k_polynomial(lam, seq)

        _emit(_cached(args, seq, lam, compute).to_json())
    elif args.op == "character":
        from .kpoly import graded_character

        _require(args, "rects")
        _emit(graded_character(_parse_rects(args.rects)).to_json())
    else:  # monotone
        from .kpoly import monotonicity_check

        _require(args, "shape", "rects")
        rep = monotonicity_check(
            _parse_partition(args.shape),
            _parse_rects(args.rects),
            args.k,
            args.m,
            position=args.position,
        )
        _emit(rep.to_json())
        return 0 if rep.holds else 1
    return 0


def _cmd_demazure(args) -> int:
    from .demazure import demazure_character

    n = _check_n(args.n)
    gc = demazure_character(args.level, _parse_mu(args.mu, n), n)
    _emit(gc.to_json())
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    suites = sorted(verify.SUITES) + ["all", "main-theorem"]
    if args.suite not in suites:
        raise ValueError(f"unknown suite {args.suite!r}; suites: {', '.join(suites)}")
    jobs = args.jobs
    _check_n(args.n)
    if args.suite == "main-theorem":
        mu = _parse_mu(args.mu, args.n) if args.mu else None
        reports = [verify.verify_main_theorem(args.n, args.level, mu, jobs=jobs)]
    elif args.suite == "all":
        reports = verify.verify_all(args.n, args.max_cells, jobs=jobs)
    else:
        reports = [verify.SUITES[args.suite](args.n, args.max_cells, jobs=jobs)]
    ok = all(r.ok for r in reports)
    _emit([r.to_json() for r in reports])
    if not ok:
        first = next(r.failures[0] for r in reports if not r.ok)
        print(json.dumps(first, sort_keys=True, default=str), file=sys.stderr)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser.

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rectcrys",
        description="crystal combinatorics of tensor products of rectangles",
    )
    parser.add_argument(
        "--infile",
        type=argparse.FileType("r"),
        default=sys.stdin,
        help="JSON input (default: stdin)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tableau", help="insertion, reading words, keys")
    p.add_argument("op", choices=["insert", "antinormal", "word", "key"])
    p.add_argument("--gamma", help="content for the key tableau, e.g. 2,0,1")
    p.set_defaults(func=_cmd_tableau)

    p = sub.add_parser("crystal", help="classical and affine operators")
    p.add_argument("op", choices=["e", "f", "r"])
    p.add_argument("--color", type=int, required=True, help="0..n-1")
    p.set_defaults(func=_cmd_crystal)

    p = sub.add_parser("rsk", help="tableau pairs and LR enumeration")
    p.add_argument("op", choices=["pair", "inverse", "lrt"])
    p.add_argument("--shape", help="partition, e.g. 3,2")
    p.add_argument("--rects", help="rectangles as ETAxMU, e.g. 2x2,3x3")
    p.set_defaults(func=_cmd_rsk)

    p = sub.add_parser("affine", help="promotion, zero operators, cyclage")
    p.add_argument(
        "op", choices=["promote", "promote-inverse", "e0", "f0", "chi", "trace"]
    )
    p.add_argument("--rects", help="rectangles for chi")
    p.set_defaults(func=_cmd_affine)

    p = sub.add_parser("rmatrix", help="rectangle switches")
    p.add_argument("op", choices=["swap", "compose"])
    p.add_argument("--pos", type=int, default=1)
    p.add_argument("--perm", help="one-line permutation, e.g. 3,1,2")
    p.set_defaults(func=_cmd_rmatrix)

    p = sub.add_parser("energy", help="energy statistics and charge")
    p.add_argument("op", choices=["total", "local", "charge"])
    p.add_argument("--pos", type=int, default=1)
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("kpoly", help="Kostka polynomials and characters")
    p.add_argument("op", choices=["compute", "kostka", "character", "monotone"])
    p.add_argument("--shape", help="partition lambda")
    p.add_argument("--rects", help="rectangles as ETAxMU")
    p.add_argument("--lambda", help="partition for the Kostka case")
    p.add_argument("--mu", help="partition for the Kostka case")
    p.add_argument("--k", type=int, default=0, help="added rectangle width")
    p.add_argument("--m", type=int, default=0, help="added rectangle height")
    p.add_argument("--position", type=int, default=0)
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=_cmd_kpoly)

    p = sub.add_parser("demazure", help="affine Demazure characters")
    p.add_argument("op", choices=["char"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--mu", required=True)
    p.set_defaults(func=_cmd_demazure)

    p = sub.add_parser("verify", help="exhaustive verification suites")
    p.add_argument("suite", help="a suite name, all, or main-theorem")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-cells", type=int, default=None)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--mu", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        if args.suite != "main-theorem":
            if args.max_cells is None:
                parser.error("--max-cells is required for exhaustive suites")
            if args.max_cells < 1:
                parser.error(f"--max-cells must be at least 1, got {args.max_cells}")
        if args.jobs < 1:
            parser.error(f"--jobs must be at least 1, got {args.jobs}")
    try:
        return args.func(args)
    except RectcrysError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
