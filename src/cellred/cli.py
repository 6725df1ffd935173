"""Command-line front end.

Subcommands: ``cellred audit``, ``cellred sl3`` and ``cellred tables dump``,
with the options of ``_USAGE``, read by one table, ``_COMMANDS``, as argparse
read them: ``--opt VALUE``, ``--opt=VALUE``, ``-o PATH`` and any unique prefix
of a long option (``--ty``, ``--orb``).  ``--type`` and ``--p`` collect every
value, other options keep the last; ``--p`` takes ASCII digits only.  ``-h``
or ``--help`` anywhere prints the usage to stdout and exits 0.

Output is deterministic for fixed flags: no timestamps, stable ordering.
Reports are written atomically when an output path is given, with mode 0666
less the umask, as a plain ``open`` would create them.  Exit status is 0 iff
every executed check passed (skips allowed), 1 if a check failed, 2 on usage
errors (the message goes to stderr, after the usage if the command line is
bad), and 3 on an internal failure reported in place of a traceback: for
``audit``, a row records a check that crashed or a context stage it read
that raised, such as a type whose data could not be loaded; for ``sl3``, a
prime's entry is ``{"p", "ok": false, "error": "<stage>: <Class>:
<message>"}``, naming the sl3lab stage that raised, and the other primes are
reported as usual; for ``tables dump``, a data file that fails its checks
prints ``cellred: <label>`` on stderr and nothing on stdout, and so does any
other failure, as ``cellred: internal error: <Class>: <message>``.  A data
file that cannot be read (missing, not UTF-8, not JSON) fails the checks of
its header.  A reader that closes stdout early ends the command with status
141 (128 + SIGPIPE) and nothing on stderr.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import re
import sys
import tempfile
import types

# no command does floating-point linear algebra, so numpy starts no BLAS pool
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import audit, sl3lab, weylmod
from .rootdata import ALL_TYPES, CartanType, UnsupportedType
from .uniptables import DataIntegrityFailure

# the import's objects live as long as the process: a collection over them
# would otherwise land in whichever command first allocates enough
gc.freeze()

DEFAULT_PRIMES = (2, 3, 5, 7, 11)


class UnwritableOutput(ValueError):
    """The ``-o`` path cannot be written, e.g. its directory is missing."""


def _write_output(payload, path: str | None) -> None:
    """Text (the markdown audit) as it is, anything else as indented JSON and
    a newline, written in blocks as it is encoded, to stdout or atomically
    to ``path``."""
    if path is None:
        _write_to(sys.stdout, payload)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    umask = os.umask(0)
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cellred-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            _write_to(fh, payload)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates the file as 0600
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # a missing directory, a directory as path, ...
            raise UnwritableOutput(f"cannot write {path}: {exc.strerror}") from exc
        raise


def _write_to(fh, payload) -> None:
    if isinstance(payload, str):
        fh.write(payload)
        return
    chunks = json.JSONEncoder(indent=2).iterencode(payload)  # json.dumps's text, in pieces
    while block := "".join(itertools.islice(chunks, 8192)):
        fh.write(block)
    fh.write("\n")


def _cmd_audit(args) -> int:
    types = ALL_TYPES
    if args.type and not args.all:
        types = tuple(CartanType.parse(t) for t in args.type)
    reports = audit.run_all(types)
    if args.format == "md":
        payload = audit.reports_to_markdown(reports)
    else:  # one report is an object, several a list
        payload = [r.to_dict() for r in reports]
        payload = payload[0] if len(payload) == 1 else payload
    _write_output(payload, args.output)
    if any(r.internal_error for r in reports):
        return 3
    return 1 if any(r.failed for r in reports) else 0


class _StageFailure(Exception):
    """An sl3lab stage raised; the message is ``<stage>: <Class>: <message>``."""


def _sl3_stage(name: str, arg):
    """``sl3lab.<name>(arg)``, with any failure re-raised as a _StageFailure
    that names the stage; every ``--p`` passed ``sl3lab.check_p`` before."""
    try:
        return getattr(sl3lab, name)(arg)
    except Exception as exc:
        raise _StageFailure(f"{name}: {type(exc).__name__}: {exc}") from exc


def _sl3_entry(p: int, orbits: bool) -> dict:
    space = _sl3_stage("build_incidence", p)
    rep = _sl3_stage("kernel_analysis", space)
    want = p * (p + 1) // 2
    entry = {
        "p": p,
        "lines": space.n_points,
        "planes": space.n_points,
        "dim_f1": rep.dim_f1,
        "kernel": {  # tau' is tau, so each fact of tau' is written from tau's
            "dim_ker_tau": rep.dim_ker_tau,
            "dim_ker_tau_prime": rep.dim_ker_tau,
            "expected_dim": want,
            "ker_tau_eq_im_tau_prime": rep.ker_tau_eq_im_tau_prime,
            "ker_tau_prime_eq_im_tau": rep.ker_tau_eq_im_tau_prime,
        },
        "equivariance_sample_ok": _sl3_stage("equivariance_spot_check", space),
    }
    entry_ok = (
        rep.dim_ker_tau == want
        and rep.ker_tau_eq_im_tau_prime
        and entry["equivariance_sample_ok"]
    )
    if orbits:
        if p < 5:
            entry["orbits"] = None
            entry["orbits_note"] = "principal-series check needs p >= 5"
        else:
            ps = _sl3_stage("principal_series_check", p)
            totals = ps.dims.sum(axis=1)
            entry["orbits"] = [  # each residue is its own lift
                {"rep": m[0], "lifts": m, "dims": d, "total": t,
                 "expected": ps.expected, "ok": t == ps.expected}
                for m, d, t in zip(ps.members.tolist(), ps.dims.tolist(), totals.tolist())
            ]
            entry_ok = entry_ok and bool((totals == ps.expected).all())
    entry["ok"] = entry_ok
    return entry


def _cmd_sl3(args) -> int:
    primes = tuple(args.p) if args.p else DEFAULT_PRIMES
    for p in primes:  # a usage error on any prime, before the first is built
        sl3lab.check_p(p)
    results = []
    for p in primes:
        try:
            results.append(_sl3_entry(p, args.orbits))
        except _StageFailure as exc:
            results.append({"p": p, "ok": False, "error": str(exc)})
    _write_output({"results": results}, args.output)
    if any("error" in entry for entry in results):
        return 3
    return 0 if all(entry["ok"] for entry in results) else 1


def _dump_klpoly(ctx: audit.TypeContext) -> dict:
    g = ctx.group
    w, y, _, coeffs = ctx.kl.p_terms  # in (w, y) index order; rows padded with zeros
    entries = [
        {"y": g.word(yi), "w": g.word(wi), "coeffs": {str(i): c for i, c in enumerate(row) if c}}
        for wi, yi, row in zip(w.tolist(), y.tolist(), coeffs.tolist())
    ]
    return {"type": ctx.ct.name, "what": "klpoly", "entries": entries}


def _dump_cells(ctx: audit.TypeContext) -> dict:
    g, cells = ctx.group, ctx.cells

    def words(cell):
        return [g.word(i) for i in cell]

    return {
        "type": ctx.ct.name,
        "what": "cells",
        "left_cells": [words(c) for c in cells.left_cells],
        "right_cells": [words(c) for c in cells.right_cells],
        "two_sided_cells": [
            {"a": a, "members": words(c)}
            for c, a in zip(cells.two_sided_cells, cells.a_value)
        ],
    }


def _dump_gamma(ctx: audit.TypeContext) -> dict:
    g = ctx.group
    entries = [
        {"x": g.word(x), "y": g.word(y), "z": g.word(z), "value": int(value)}
        for x, y, z, value in zip(*ctx.gamma)
    ]
    return {"type": ctx.ct.name, "what": "gamma", "entries": entries}


def _dump_cwe(ctx: audit.TypeContext) -> dict:
    g = ctx.group
    return {
        "type": ctx.ct.name,
        "what": "cwe",
        "labels": list(ctx.leading.labels),
        "rows": {g.word(w): row for w, row in ctx.leading.alpha.items() if row},
    }


def _dump_delta(ctx: audit.TypeContext) -> dict:
    words, rows = ctx.tables.words, {}
    for w, pi in ctx.deltas.items():
        partner, sign = ctx.duality.pairs.get(w, (None, 0))
        rows[words[w]] = {
            "pi": pi.render(),
            "c": pi.lowest_degree(),
            "partner": words.get(partner),
            "sign": "+" if sign > 0 else ("-" if sign < 0 else None),
        }
    return {"type": ctx.ct.name, "what": "delta", "rows": rows}


_DUMPERS = {
    "klpoly": _dump_klpoly,
    "cells": _dump_cells,
    "gamma": _dump_gamma,
    "cwe": _dump_cwe,
    "delta": _dump_delta,
}


def _cmd_tables(args) -> int:
    ct = CartanType.parse(args.type)
    try:
        payload = _DUMPERS[args.what](audit.get_context(ct))
    except _USAGE_ERRORS:
        raise
    except DataIntegrityFailure as exc:  # labelled with its file and table
        print(f"cellred: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"cellred: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    _write_output(payload, args.output)
    return 0


_USAGE = f"""\
usage: cellred audit [--type T]... [--all] [--format json|md] [-o PATH]
       cellred sl3 [--p P]... [--orbits] [--format json] [-o PATH]
       cellred tables dump --what {"|".join(_DUMPERS)} --type T [-o PATH]
T is a Cartan type (default: all six), P a prime (default: 2 3 5 7 11)
"""


def _decimal(text: str) -> int:  # not int, which also reads '٧', '1_3', ' 7' and '+5'
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)  # which raises ValueError past the interpreter's digit limit


# command -> (function, options, required options); every command also takes
# -o/--output PATH.  An option is a switch (True), a tuple of choices or a
# converter, in a list if it collects every value; else the last value wins.
_COMMANDS = {
    "audit": (_cmd_audit, {"--type": [str], "--all": True, "--format": ("json", "md")}, ()),
    "sl3": (_cmd_sl3, {"--p": [_decimal], "--orbits": True, "--format": ("json",)}, ()),
    "tables dump": (_cmd_tables, {"--what": tuple(_DUMPERS), "--type": str}, ("--what", "--type")),
}


def _usage_error(message: str):
    sys.stderr.write(f"{_USAGE}cellred: error: {message}\n")
    raise SystemExit(2)


def _parse(argv: list[str]):
    """The ``_cmd_*`` function and its arguments for ``argv``, read as argparse
    read them; ``-h`` or ``--help`` anywhere prints the usage and exits 0."""
    if any(a == "-h" or len(a) > 2 and "--help".startswith(a) for a in argv):
        sys.stdout.write(_USAGE)
        raise SystemExit(0)
    name = " ".join(argv[:2] if argv[:1] == ["tables"] else argv[:1])
    if name not in _COMMANDS:
        _usage_error(f"expected a command (audit, sl3, tables dump), got {name!r}")
    func, opts, required = _COMMANDS[name]
    opts = {**opts, "--output": str}
    args = {o[2:]: False if k is True else None for o, k in opts.items()}
    rest = iter(argv[len(name.split()):])
    for arg in rest:
        if arg[:2] == "-o":  # -o PATH, -oPATH, -o=PATH
            arg = "--output" + (arg[2:] and "=" + arg[2:].removeprefix("="))
        opt, eq, value = arg.partition("=")
        # a long option, or a unique prefix of one (sl3's --o is ambiguous)
        matches = [opt] if opt in opts else [o for o in opts if len(opt) > 2 and o.startswith(opt)]
        if len(matches) != 1:
            _usage_error(f"{arg!r} matches {' and '.join(matches) or 'no option'}")
        opt, kind = matches[0], opts[matches[0]]
        if kind is True:  # a switch takes no value
            args[opt[2:]] = not eq or _usage_error(f"{opt} takes no value, got {value!r}")
            continue
        if not eq:  # the next argument, unless it reads as an option, as in argparse
            value = next(rest, None)
            if value is None or value[:1] == "-" != value and " " not in value \
                    and not re.fullmatch(r"-\d+|-\d*\.\d+", value):
                _usage_error(f"{opt} expects one value")
        convert = kind[0] if type(kind) is list else kind
        try:  # a tuple of choices takes only its own
            value = convert(value) if callable(convert) else convert[convert.index(value)]
        except ValueError:
            _usage_error(f"{opt}: invalid value {value!r}")
        args[opt[2:]] = (args[opt[2:]] or []) + [value] if type(kind) is list else value
    if any(args[o[2:]] is None for o in required):
        _usage_error(f"{' and '.join(required)} are required")
    return func, types.SimpleNamespace(**args)


# raised only by flag values a command cannot serve
_USAGE_ERRORS = (
    UnsupportedType, sl3lab.NotPrime, sl3lab.TooLarge, weylmod.MissingMwData,
    UnwritableOutput,
)


def main(argv: list[str] | None = None) -> int:
    func, args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        code = func(args)
        sys.stdout.flush()
        return code
    except _USAGE_ERRORS as exc:
        print(f"cellred: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: the interpreter's final flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
