"""Command-line front end.

Every verdict of the library is exposed as a subcommand over a JSON
config file, with text and canonical-JSON output. Exit codes: 0 success,
2 malformed input, 3 violated mathematical hypothesis, 64 unknown
subcommand, 70 broken internal invariant.

Each subcommand imports its compute modules in its own handler, and the
config parser is imported only when a config is given, so a one-shot
process loads only what its subcommand runs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from typing import TYPE_CHECKING, Any, Callable, TextIO

from .errors import HypothesisViolation, InternalError, MukaikitError, ValidationError
from .serialize import (
    SCHEMA_VERSION,
    canonical_dumps,
    coords_to_json,
    digit_limit_error,
    matrix_to_json,
    mukai_to_json,
    rational_to_json,
)

if TYPE_CHECKING:
    from .config import Config
    from .walls import Wall

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_HYPOTHESIS = 3
EXIT_UNKNOWN_COMMAND = 64
EXIT_INTERNAL = 70


def _require(value, name: str):
    if value is None:
        raise ValidationError(f"config: section {name!r} is required for this subcommand")
    return value


def _wall_json(w: Wall) -> dict[str, Any]:
    return {
        "d": coords_to_json(w.d.coords),
        "d_square": rational_to_json(w.d_square),
    }


def _cmd_pairing(cfg: Config, args) -> dict[str, Any]:
    from .mukai import discriminant, mukai_square

    v = _require(cfg.mukai, "mukai")
    sq = mukai_square(v)
    out: dict[str, Any] = {
        "mukai": mukai_to_json(v),
        "square": rational_to_json(sq),
        "integral": v.is_integral,
    }
    if v.v0 != 0:
        out["discriminant"] = rational_to_json(discriminant(v))
    return out


def _cmd_type(cfg: Config, args) -> dict[str, Any]:
    from .mukai import topological_type

    v = _require(cfg.mukai, "mukai")
    tau = topological_type(v)
    return {
        "r": tau.r,
        "c1": coords_to_json(tau.c1.coords),
        "c2": tau.c2,
    }


def _cmd_walls(cfg: Config, args) -> dict[str, Any]:
    from .exactlin import mat_vec
    from .walls import wall_bound, walls_through_class

    v = _require(cfg.mukai, "mukai")
    omega = _require(cfg.omega, "omega")
    found = walls_through_class(cfg.model, v, omega)
    out: dict[str, Any] = {
        "bound": rational_to_json(wall_bound(v)),
        "count": len(found),
        "walls": [_wall_json(w) for w in found],
    }
    if cfg.model.ns.rank == 2:
        # Coefficient pairs (a, b) of the wall lines a x1 + b x2 = 0 in the
        # NS plane, ready for external plotting.
        out["lines"] = [coords_to_json(mat_vec(cfg.model.ns.gram, w.d.num)) for w in found]
    return out


def _cmd_generic(cfg: Config, args) -> dict[str, Any]:
    from .walls import wall_bound, wall_set_is_empty, walls_through_class

    v = _require(cfg.mukai, "mukai")
    omega = _require(cfg.omega, "omega")
    found = walls_through_class(cfg.model, v, omega)
    bound = wall_bound(v)
    out = {
        "generic": not found,
        "walls": [_wall_json(w) for w in found],
        "bound": rational_to_json(bound),
    }
    empty = wall_set_is_empty(cfg.model, v)
    if empty is not None:
        out["wall_set_empty"] = empty
    if empty:
        out["note"] = "generic for every polarization: the wall set is empty"
    return out


def _cmd_chamber(cfg: Config, args) -> dict[str, Any]:
    from .walls import same_chamber

    v = _require(cfg.mukai, "mukai")
    omega = _require(cfg.omega, "omega")
    omega_prime = _require(cfg.omega_prime, "omega_prime")
    same = same_chamber(cfg.model, v, omega, omega_prime)
    return {"same_chamber": same}


def _cmd_crossings(cfg: Config, args) -> dict[str, Any]:
    from .walls import Segment, walls_crossing_segment

    v = _require(cfg.mukai, "mukai")
    omega = _require(cfg.omega, "omega")
    omega_prime = _require(cfg.omega_prime, "omega_prime")
    seg = Segment(omega, omega_prime)
    found = walls_crossing_segment(cfg.model, v, seg)
    return {
        "count": len(found),
        "crossings": [
            {**_wall_json(c.wall), "t": rational_to_json(c.t)} for c in found
        ],
    }


def _cmd_twist(cfg: Config, args) -> dict[str, Any]:
    from .mukai import mukai_square
    from .twisted import TwistedSheafData, ch_B, ch_E, delta_E, v_E, w_xi

    v = _require(cfg.mukai, "mukai")
    e = _require(cfg.twist, "twist")
    if v.v0.denominator != 1 or v.v0 < 1:
        raise HypothesisViolation("twist subcommand needs integer rank >= 1")
    f = TwistedSheafData(int(v.v0), v.v1, v.v2)
    che = ch_E(f, e)
    ve = v_E(f, e)
    out: dict[str, Any] = {
        "ch_E": mukai_to_json(che),
        "v_E": mukai_to_json(ve),
        "v_E_square": rational_to_json(mukai_square(ve)),
        "delta_E": rational_to_json(delta_E(f, e)),
    }
    if v.is_integral:
        from .moduli import transfer_image_of_v

        w = transfer_image_of_v(v)
        back = w_xi(w, v.v1, int(v.v0))
        out["self_twist_w"] = mukai_to_json(w)
        out["w_xi"] = mukai_to_json(back)
        out["w_xi_roundtrip_ok"] = back == v
    if e.b_field is not None:
        out["ch_B"] = mukai_to_json(ch_B(che, e))
    return out


def _cmd_report(cfg: Config, args) -> dict[str, Any]:
    from .moduli import moduli_report

    v = _require(cfg.mukai, "mukai")
    omega = _require(cfg.omega, "omega")
    rep = moduli_report(cfg.model, v, omega)
    return {
        "valid": rep.valid,
        "reasons": list(rep.reasons),
        "square": rational_to_json(rep.mukai_square),
        "dim": rep.dim,
        "n": rep.n,
        "deformation_class": rep.deformation_class,
        "b2": rep.b2,
        "rigid": rep.rigid,
        "generic": rep.genericity,
        "projective_surface": rep.projective_surface,
        "projective_moduli": rep.projective_moduli,
        "notes": list(rep.interpretation_notes),
    }


def _cmd_h2(cfg: Config, args) -> dict[str, Any]:
    from .moduli import EmbeddedMukaiVector, h2_lattice, standard_ns_embedding

    v = _require(cfg.mukai, "mukai")
    emb = cfg.embedding if cfg.embedding is not None else standard_ns_embedding(cfg.model.ns)
    embedded = EmbeddedMukaiVector.from_algebraic(v, emb)
    res = h2_lattice(embedded)
    return {
        "square": rational_to_json(embedded.square()),
        "rank": res.lattice.rank,
        "signature": list(res.signature),
        "discriminant_group": list(res.discriminant),
        "quotient_by_v": res.quotient_by_v,
        "gram": matrix_to_json(res.lattice.gram),
    }


def _cmd_projective(cfg: Config, args) -> dict[str, Any]:
    from .moduli import projectivity_check

    v = _require(cfg.mukai, "mukai")
    check = projectivity_check(cfg.model, v)
    lhs, rhs = check.isotropy_identity
    return {
        "projective_moduli": check.projective_moduli,
        "projective_surface": check.surface_projective,
        "verdicts_agree": check.projective_moduli == check.surface_projective,
        "signature": list(check.signature),
        "gram": matrix_to_json(check.gram),
        "twisted_isotropy_square": rational_to_json(lhs),
        "expected_isotropy_square": rational_to_json(rhs),
    }


def _cmd_exists(cfg: Config | None, args) -> dict[str, Any]:
    if args.r is not None or args.d is not None or args.g is not None:
        if None in (args.r, args.d, args.g):
            raise ValidationError("exists: provide all of --r, --d, --g or none")
        triple = (args.r, args.d, args.g)
    elif cfg is not None and cfg.existence is not None:
        triple = cfg.existence
    else:
        raise ValidationError("exists: needs --r/--d/--g or an 'existence' config section")
    from .moduli import bundle_existence_check

    verdict = bundle_existence_check(*triple)
    out: dict[str, Any] = {
        "r": verdict.r,
        "d": verdict.d,
        "g": verdict.g,
        "accepted": verdict.accepted,
        "failures": list(verdict.failures),
    }
    if verdict.accepted:
        assert verdict.irreducibility is not None
        out.update(
            {
                "xi_square": verdict.xi_square,
                "delta": rational_to_json(verdict.delta),
                "c2": verdict.c2,
                "mukai": mukai_to_json(verdict.mukai),
                "dim": verdict.dim,
                "irreducible": verdict.irreducibility.irreducible,
            }
        )
        if verdict.irreducibility.min_lower_bound is not None:
            out["irreducibility_lower_bound"] = rational_to_json(
                verdict.irreducibility.min_lower_bound
            )
        if verdict.irreducibility.witness is not None:
            out["closest_decomposition"] = list(verdict.irreducibility.witness)
    return out


_COMMANDS: dict[str, tuple[Callable, bool]] = {
    # name -> (handler, requires config)
    "pairing": (_cmd_pairing, True),
    "type": (_cmd_type, True),
    "walls": (_cmd_walls, True),
    "generic": (_cmd_generic, True),
    "chamber": (_cmd_chamber, True),
    "crossings": (_cmd_crossings, True),
    "twist": (_cmd_twist, True),
    "report": (_cmd_report, True),
    "h2": (_cmd_h2, True),
    "projective": (_cmd_projective, True),
    "exists": (_cmd_exists, False),
}


def _render_text(payload: dict[str, Any], stream: TextIO, indent: str = "") -> None:
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            stream.write(f"{indent}{key}:\n")
            _render_text(value, stream, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            stream.write(f"{indent}{key}:\n")
            for item in value:
                stream.write(f"{indent}  -\n")
                _render_text(item, stream, indent + "    ")
        else:
            stream.write(f"{indent}{key}: {value}\n")


def _render(command: str, result: dict[str, Any], fmt: str) -> str:
    """The whole output, built before any of it is written."""
    try:
        if fmt == "json":
            return canonical_dumps(
                {"schema_version": SCHEMA_VERSION, "command": command, "result": result}
            )
        out = io.StringIO()
        out.write(f"command: {command}\n")
        _render_text(result, out)
        return out.getvalue()
    except ValueError:  # str() of a raw int over the interpreter's digit limit
        raise digit_limit_error() from None


def _build_parser(command: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=f"mukaikit {command}")
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    if command == "exists":
        parser.add_argument("--r", type=int, default=None)
        parser.add_argument("--d", type=int, default=None)
        parser.add_argument("--g", type=int, default=None)
    return parser


def run(argv: list[str], stdout: TextIO | None = None, stderr: TextIO | None = None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    if not argv or argv[0] in ("-h", "--help"):
        stderr.write(
            "usage: mukaikit <subcommand> [--config PATH] [--format {text,json}]\n"
            f"subcommands: {', '.join(sorted(_COMMANDS))}\n"
        )
        return EXIT_OK if argv else EXIT_UNKNOWN_COMMAND
    command, rest = argv[0], argv[1:]
    if command not in _COMMANDS:
        stderr.write(f"mukaikit: unknown subcommand {command!r}\n")
        stderr.write(f"subcommands: {', '.join(sorted(_COMMANDS))}\n")
        return EXIT_UNKNOWN_COMMAND
    handler, needs_config = _COMMANDS[command]
    parser = _build_parser(command)
    try:
        # argparse prints help to sys.stdout and usage errors to sys.stderr.
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = parser.parse_args(rest)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    try:
        if args.config is not None:
            from .config import load_config

            cfg = load_config(args.config)
        elif needs_config:
            raise ValidationError(f"{command}: --config is required")
        else:
            cfg = None
        text = _render(command, handler(cfg, args), args.format)
    except ValidationError as exc:
        stderr.write(f"mukaikit {command}: invalid input: {exc}\n")
        return EXIT_VALIDATION
    except HypothesisViolation as exc:
        stderr.write(f"mukaikit {command}: hypothesis violated: {exc}\n")
        return EXIT_HYPOTHESIS
    except InternalError as exc:
        stderr.write(f"internal error: mukaikit {command}: {exc}\n")
        return EXIT_INTERNAL
    except MukaikitError as exc:
        stderr.write(f"mukaikit {command}: {exc}\n")
        return EXIT_VALIDATION
    stdout.write(text)
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))
