"""Command line front end.

Every subcommand takes explicit flags (no config files or environment
variables) and emits either canonical JSON (default) or a short text
rendering.  Exit codes: 0 success, 1 usage error, 2 domain error (bad
indices, failed preconditions, malformed input data), 3 selftest failure,
4 internal check failed (a bug, never bad input).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

# Only core and errors, which nearly every command needs, load here; each
# _cmd_* imports the rest of what it runs when it starts.
from .core import CoeffVector, Element, GroupDescriptor, json_int_rows, verify_crystallographic
from .errors import DomainError, VerificationError, check

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_SELFTEST = 3
EXIT_VERIFY = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit with code 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_group_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--surface",
        choices=["torus", "orientable", "sphere", "nonorientable"],
        default="torus",
    )
    parser.add_argument("--n", type=int, required=True, help="strand count")
    parser.add_argument("--genus", type=int, help="surface genus (not used for the sphere)")
    parser.add_argument("--format", choices=["json", "text"], default="json")


def _group_from_args(args: argparse.Namespace) -> GroupDescriptor:
    surface = args.surface
    if surface == "torus":
        if args.genus not in (None, 1):
            raise DomainError("--surface torus fixes --genus 1")
        return GroupDescriptor.torus(args.n)
    if surface == "sphere":
        if args.genus is not None:
            raise DomainError("the sphere takes no --genus")
        return GroupDescriptor.sphere(args.n)
    if args.genus is None:
        raise DomainError(f"--surface {surface} requires --genus")
    if surface == "orientable":
        return GroupDescriptor.orientable(args.n, args.genus)
    return GroupDescriptor.nonorientable(args.n, args.genus)


def _load_json(text: str, what: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed JSON for {what}: {exc}") from exc


def _load_element(group: GroupDescriptor, text: str) -> Element:
    return _element_from_obj(group, _load_json(text, "element"))


def _element_from_obj(group: GroupDescriptor, obj: Any) -> Element:
    if not isinstance(obj, dict):
        raise DomainError("bad element encoding: expected a JSON object")
    try:
        return Element.from_json_obj(group, obj)
    except DomainError:  # the sphere's refusal, not a fault of the encoding
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"bad element encoding: {exc}") from exc


def _load_coeffs(text: str | None) -> CoeffVector | None:
    if text is None:
        return None
    obj = _load_json(text, "coefficient matrix")
    try:  # the shape is checked where the lift becomes an Element
        return CoeffVector(json_int_rows(obj, "coefficient matrix"))
    except ValueError as exc:
        raise DomainError(f"bad coefficient matrix: {exc}") from exc


def _emit(args: argparse.Namespace, obj: Any, text: str | None = None) -> None:
    if args.format == "json":
        print(json.dumps(obj))
    else:
        print(text if text is not None else json.dumps(obj, indent=2))


def _element_out(args: argparse.Namespace, element: Element) -> None:
    _emit(args, element.to_json_obj(), str(element) if element.group.is_orientable else None)


def _cmd_normalize(args: argparse.Namespace) -> int:
    from . import words

    group = _group_from_args(args)
    # the sphere raises in words.normalize, which has no handle generators there
    _element_out(args, words.normalize(group, words.parse(group, args.word)))
    return EXIT_OK


def _cmd_mul(args: argparse.Namespace) -> int:
    group = _group_from_args(args)
    x = _load_element(group, args.x)
    y = _load_element(group, args.y)
    _element_out(args, x * y)
    return EXIT_OK


def _cmd_inv(args: argparse.Namespace) -> int:
    group = _group_from_args(args)
    _element_out(args, _load_element(group, args.x).inverse())
    return EXIT_OK


def _cmd_pow(args: argparse.Namespace) -> int:
    group = _group_from_args(args)
    _element_out(args, _load_element(group, args.x) ** args.k)
    return EXIT_OK


def _cmd_order(args: argparse.Namespace) -> int:
    from . import torsion

    group = _group_from_args(args)
    result = torsion.checked_order(_load_element(group, args.x))
    _emit(
        args,
        {"finite": result.is_finite, "order": result.value},
        f"order: {result.value if result.is_finite else 'infinite'}",
    )
    return EXIT_OK


def _cmd_conjugacy(args: argparse.Namespace) -> int:
    from . import torsion

    group = _group_from_args(args)
    witness = torsion.conjugacy_test(_load_element(group, args.x), _load_element(group, args.y))
    _emit(
        args,
        {"conjugate": witness is not None, "witness": witness.to_json_obj() if witness else None},
        "conjugate" if witness is not None else "not conjugate",
    )
    return EXIT_OK


def _cmd_subgroup_conjugator(args: argparse.Namespace) -> int:
    from . import torsion

    group = _group_from_args(args)
    arr = _load_json(args.images, "image list")
    if not isinstance(arr, list):
        raise DomainError("--images must be a JSON array of elements")
    images = [_element_from_obj(group, obj) for obj in arr]
    _element_out(args, torsion.symmetric_copy_conjugator(group, images))
    return EXIT_OK


def _cmd_frobenius(args: argparse.Namespace) -> int:
    from . import torsion

    if args.action == "torsion":
        group = GroupDescriptor.orientable(args.p, args.genus)
        v = torsion.frobenius_torsion_element(
            group,
            args.p,
            args.l,
            _load_coeffs(args.lift1),
            _load_coeffs(args.lift2),
        )
        result = torsion.checked_order(v)
        _emit(args, {"element": v.to_json_obj(), "order": result.value})
        return EXIT_OK
    if args.blocks is None:
        embedding = torsion.FrobeniusEmbedding.zero(args.genus)
    else:
        arr = _load_json(args.blocks, "parameter blocks")
        try:
            embedding = torsion.FrobeniusEmbedding(args.genus, json_int_rows(arr, "parameter blocks"))
        except ValueError as exc:
            raise DomainError(f"bad parameter blocks: {exc}") from exc
    if args.action == "embed":
        v1, v2 = torsion.frobenius_embed(embedding)
        _emit(args, {"v1": v1.to_json_obj(), "v2": v2.to_json_obj()})
    else:  # conjugator
        _element_out(args, torsion.frobenius_conjugator(embedding))
    return EXIT_OK


def _cmd_bieberbach(args: argparse.Namespace) -> int:
    from .bieberbach import make_bieberbach

    desc = make_bieberbach(args.n, args.genus)
    if args.action == "info":
        _emit(
            args,
            {
                "n": desc.n,
                "g": desc.genus,
                "dimension": desc.dimension,
                "holonomy_order": desc.n,
                "generator": desc.generator.to_json_obj(),
                "num_generators": desc.dimension + 1,  # the generator and 2ng lattice generators
                "centre_rank": 2 * desc.genus,
            },
        )
    elif args.action == "membership":
        if args.x is None:
            raise DomainError("membership requires --x ELEMENT_JSON")
        element = _load_element(desc.group, args.x)
        _emit(args, desc.checked_membership(element).to_json_obj())
    elif args.action == "holonomy":
        _emit(args, {"n": desc.n, "g": desc.genus, "matrix": desc.holonomy_matrix().to_json_obj()})
    elif args.action == "centre":
        basis = desc.centre()
        _emit(args, {"rank": len(basis), "basis": [z.to_json_obj() for z in basis]})
    else:  # torsion-scan
        _emit(args, desc.torsion_scan(args.bound).to_json_obj())
    return EXIT_OK


def _cmd_invariants(args: argparse.Namespace) -> int:
    from .bieberbach import make_bieberbach
    from .invariants import CyclicRep, invariant_report

    desc = make_bieberbach(args.n, args.genus)
    rep = CyclicRep(desc.holonomy_matrix(), desc.n)
    report = invariant_report(rep)
    check(sum([(-1) ** k * b for k, b in enumerate(report["betti"])]) == 0,
          "a flat manifold must have Euler characteristic 0")
    _emit(args, report)
    return EXIT_OK


def _cmd_verdict(args: argparse.Namespace) -> int:
    group = _group_from_args(args)
    _emit(args, verify_crystallographic(group).to_json_obj())
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest

    return EXIT_OK if run_selftest(sys.stdout) else EXIT_SELFTEST


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="surfbraid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="rewrite a braid word to normal form")
    _add_group_flags(p)
    p.add_argument("word")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("mul", help="multiply two elements (JSON encodings)")
    _add_group_flags(p)
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("inv", help="invert an element")
    _add_group_flags(p)
    p.add_argument("x")
    p.set_defaults(func=_cmd_inv)

    p = sub.add_parser("pow", help="raise an element to an integer power")
    _add_group_flags(p)
    p.add_argument("x")
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_pow)

    p = sub.add_parser("order", help="order of an element (finite or infinite)")
    _add_group_flags(p)
    p.add_argument("x")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("conjugacy", help="decide conjugacy of two elements")
    _add_group_flags(p)
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=_cmd_conjugacy)

    p = sub.add_parser(
        "subgroup-conjugator",
        help="conjugator taking the canonical symmetric-group copy to the given one",
    )
    _add_group_flags(p)
    p.add_argument("--images", required=True, help="JSON array of n-1 involution images")
    p.set_defaults(func=_cmd_subgroup_conjugator)

    p = sub.add_parser("frobenius", help="order-10 Frobenius subgroup tools (n = 5)")
    p.add_argument("action", choices=["embed", "conjugator", "torsion"])
    p.add_argument("--genus", type=int, default=1)
    p.add_argument("--blocks", help="JSON 2g x 4 parameter blocks")
    p.add_argument("--p", type=int, default=5, help="odd prime >= 5 (torsion action)")
    p.add_argument("--l", type=int, help="multiplier of order (p-1)/2 mod p")
    p.add_argument("--lift1", help="JSON coefficient matrix for the p-cycle lift")
    p.add_argument("--lift2", help="JSON coefficient matrix for the involution lift")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_frobenius)

    p = sub.add_parser("bieberbach", help="the cyclic-holonomy torsion-free subgroup")
    p.add_argument("action", choices=["info", "membership", "holonomy", "centre", "torsion-scan"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--x", help="element JSON (membership)")
    p.add_argument("--bound", type=int, default=1, help="coordinate bound (torsion-scan)")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_bieberbach)

    p = sub.add_parser("invariants", help="flat-manifold invariants of the subgroup")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("verdict", help="is the quotient crystallographic?")
    _add_group_flags(p)
    p.set_defaults(func=_cmd_verdict)

    p = sub.add_parser("selftest", help="run the built-in property suites")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Outputs such as the holonomy order n! of `verdict` may run past the
    # 4300-digit limit on int-to-str conversion of recent CPython releases.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # DomainError and input-validation ValueErrors
        print(f"surfbraid: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except VerificationError as exc:
        print(f"surfbraid: internal check failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
