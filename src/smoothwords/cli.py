"""Command-line interface over the whole calculus.

Each process runs one command, so start-up counts, and with bytecode
writing off every module it imports is compiled again.  Only ``core`` and
``errors`` load at the top; each branch of :func:`run` imports the modules its
command runs: ``calculus`` for ``derive``, ``rho`` and ``chain``; ``powers``
for ``lift`` and ``kolakoski``; ``dsigma`` for ``dsigma``; ``powers`` with
``calculus``, ``dsigma`` and ``search`` for ``power-decomp``; ``census`` with
``search`` for ``enumerate``, ``scan-powers`` and ``gamma``; ``concat`` with
``dsigma`` and ``search`` for ``certify-concat``, with or without
``--explore``.  ``delta``, ``closure`` and ``--help`` load none of them.

:func:`run` renders the word commands itself.  The reports render
themselves: each record (``CensusReport``, ``ConcatCertificate``,
``DsigmaTable``, ``PowerDecomposition``) has ``to_json()`` and
``text_lines()``, ``CensusReport`` also ``csv_lines()``, and one emitter
(:func:`_emit_report`) writes them in batches.  JSON asks a record inside a
document (a ``PowerWitness``) for its ``to_json()`` only as it is written.

Every command and flag is declared once, in the flag table (``_COMMANDS``).
:func:`parse_config` reads a well-formed command line straight from it; only
``--help``, a usage error or another spelling (``--flag=value``, an
abbreviated flag) imports ``argparse``, whose parser :func:`build_parser`
makes from the same table.  Both paths give a namespace with the same
attributes: :func:`run` takes it with ``alphabet`` already parsed, and reads
each option under its own flag name (``args.format``, ``args.L``).

Exit codes: 0 = success (findings such as census witnesses are data, not
errors), 1 = a certified identity failed (certification violation), 2 =
usage error, 3 = a ``--jobs`` worker process died (killed, for example by
the out-of-memory killer) before it sent its results, 141 = stdout was
closed early (128 + SIGPIPE, as a shell reports a process killed by
SIGPIPE).  JSON output carries a top-level schema_version field "1".

On exit :func:`main` has the interpreter freeze its heap (``gc.freeze`` as an
``atexit`` hook), so the shutdown collection skips a heap the OS is about to
reclaim; nothing is frozen while a command runs, and forked ``--jobs``
children, which leave through ``os._exit``, never run the hook.
"""

from __future__ import annotations

import atexit
import gc
import itertools
import os
import sys
import types

from .core import Alphabet, Word, closure, delta, word_from_text, word_to_csv, word_to_text
from .errors import CertificationError

SCHEMA_VERSION = "1"
# Exit status when stdout is closed before the output is written.
EXIT_BROKEN_PIPE = 141
# Exit status when a forked --jobs worker dies without sending its results.
EXIT_WORKER_DIED = 3

# JSON chunks, or lines of text, joined into one write by _write_batched.
_JSON_BATCH = 1024
_LINE_BATCH = 256

# Commands whose reports can render as CSV.
_CSV_COMMANDS = {"scan-powers", "gamma", "enumerate"}


def _flag(*option_strings, **spec):
    """One flag of the table: its option strings and the keyword arguments of
    ``ArgumentParser.add_argument`` (``dest`` always, ``type`` when not str)."""
    return option_strings, spec


# Every command and flag, declared once: build_parser makes argparse's parser
# of this table, _parse_plain reads a well-formed command line by it.  Each
# command takes the _COMMON flags first, then its own.
_COMMON = (
    _flag("--alphabet", dest="alphabet", required=True, metavar="a,b",
          help="two-letter alphabet, e.g. 1,2"),
    _flag("--format", dest="format", choices=("text", "json", "csv"), default="text",
          help="output format"),
    _flag("--jobs", dest="jobs", type=int, default=1,
          help="parallel workers for scans (default 1), at most one "
               "per CPU and per task; never changes the output"),
)
_WORD = _flag("--word", "-w", dest="word", required=True, help="input word text")
_BOUND = _flag("-L", dest="L", type=int, default=None,
               help="base-length bound (default 60 for squares, else 30)")
_COMMANDS = {
    "delta": ("run-length word", (_WORD,)),
    "closure": ("pad boundary runs longer than a up to b", (_WORD,)),
    "derive": ("derivative: run lengths, short boundary runs dropped", (_WORD,)),
    "rho": ("derivative of the closure", (_WORD,)),
    "chain": ("full derivative chain with smoothness verdict", (_WORD,)),
    "lift": ("apply delta_inv repeatedly", (
        _WORD,
        _flag("--alpha", dest="alpha", type=int, required=True, help="starting letter"),
        _flag("-k", dest="k", type=int, default=1, help="lift depth (default 1)"))),
    "enumerate": ("all smooth words of one length", (
        _flag("-n", dest="n", type=int, required=True, help="word length"),)),
    "kolakoski": ("prefix of the run-length self-generating word", (
        _flag("--alpha", dest="alpha", type=int, required=True, help="first letter"),
        _flag("-n", dest="n", type=int, required=True, help="prefix length"))),
    "dsigma": ("the middle-word table", ()),
    "certify-concat": ("exhaustively certify the concatenation splitting", (
        _flag("-L", dest="L", type=int, default=8,
              help="length bound for u and v (default 8)"),
        _flag("--explore", dest="explore", type=int, default=None, metavar="XLEN",
              help="scan all smooth x up to this length instead of the table; "
                   "middles are reported, not asserted"))),
    "power-decomp": ("middle words at every derivative level of u^n", (
        _flag("--word", "-w", dest="word", required=True, help="base word"),
        _flag("-n", dest="n", type=int, required=True, help="exponent (>= 2)"))),
    "scan-powers": ("scan smooth bases for smooth powers", (
        _flag("-n", dest="n", type=int, required=True, help="exponent (>= 2)"), _BOUND)),
    "gamma": ("count distinct smooth power words u^n with |u| <= L", (
        _flag("-n", dest="n", type=int, required=True, help="exponent (>= 1)"), _BOUND)),
}


def build_parser():
    """argparse's parser of the flag table: it writes --help, usage and error
    texts, and reads every command line that _parse_plain declines."""
    import argparse  # only --help and usage errors pay for it

    top = argparse.ArgumentParser(
        prog="smoothwords",
        description="Run-length calculus over two-letter integer alphabets.")
    sub = top.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option_strings, spec in _COMMON + flags:
            p.add_argument(*option_strings, **spec)
    return top


def _parse_plain(argv):
    """The namespace argparse would make of a well-formed ``argv``, or None.

    Well-formed is the command's exact name, then flags of that command by
    exact option string, each given once and followed by one value that does
    not start with "-", every int value read by ``int()``, every choice valid
    and every required flag present.  Any other argv (help, ``--flag=value``,
    abbreviations, negative numbers, repeats, stray tokens) is left to
    argparse, which reads it as always or writes its usage error.
    """
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    flags = _COMMON + _COMMANDS[argv[0]][1]
    by_option = {option: spec for option_strings, spec in flags for option in option_strings}
    values = {"command": argv[0]}
    for option, text in zip(argv[1::2], argv[2::2]):
        spec = by_option.get(option)
        if spec is None or spec["dest"] in values or text.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(text)
        except ValueError:
            return None
        if value not in spec.get("choices", (value,)):
            return None
        values[spec["dest"]] = value
    for _, spec in flags:
        if spec["dest"] not in values:
            if spec.get("required"):
                return None
            values[spec["dest"]] = spec.get("default")
    return types.SimpleNamespace(**values)


def parse_config(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    args.alphabet = Alphabet.parse(args.alphabet)
    return args


def _print_json(args, payload: dict) -> None:
    import json  # only JSON output pays for the import

    doc = {"schema_version": SCHEMA_VERSION, "command": args.command, **payload}
    encoder = json.JSONEncoder(indent=2, default=lambda record: record.to_json())
    _write_batched(encoder.iterencode(doc), _JSON_BATCH)
    sys.stdout.write("\n")


def _write_batched(pieces, size: int) -> None:
    """Write the strings of the iterator ``pieces``, ``size`` to a write: one
    string of the whole output would double the peak memory of a large
    report, one write per piece is slow."""
    write = sys.stdout.write
    while batch := "".join(itertools.islice(pieces, size)):
        write(batch)


def _emit_word(args, result: Word) -> int:
    if args.format == "json":
        _print_json(args, {
            "alphabet": str(args.alphabet),
            "word": args.word,
            "result": word_to_text(result),
        })
    else:
        print(word_to_text(result))
    return 0


def _emit_report(args, report) -> int:
    """Write a report record in the chosen format: its ``to_json()``
    document, or its ``csv_lines()`` or ``text_lines()`` in batches."""
    if args.format == "json":
        _print_json(args, report.to_json())
    elif args.format == "csv":
        _write_batched(report.csv_lines(), _LINE_BATCH)
    else:
        _write_batched(report.text_lines(), _LINE_BATCH)
    return 0


def run(args) -> int:
    """Dispatch one parsed command; returns the process exit status."""
    ab = args.alphabet
    fmt = args.format
    if fmt == "csv" and args.command not in _CSV_COMMANDS:
        print(f"error: csv output is not defined for {args.command!r}", file=sys.stderr)
        return 2

    if args.command == "delta":
        return _emit_word(args, delta(word_from_text(args.word)))
    if args.command == "closure":
        return _emit_word(args, closure(word_from_text(args.word), ab))
    if args.command == "derive":
        from .calculus import derivative
        return _emit_word(args, derivative(word_from_text(args.word), ab))
    if args.command == "rho":
        from .calculus import rho
        return _emit_word(args, rho(word_from_text(args.word), ab))
    if args.command == "lift":
        from .powers import lift
        return _emit_word(args, lift(word_from_text(args.word), args.alpha, args.k, ab))

    if args.command == "chain":
        from .calculus import chain_text, smooth_chain
        if fmt == "json":
            chain = smooth_chain(word_from_text(args.word), ab)
            _print_json(args, {"alphabet": str(ab), **chain.to_json()})
        else:
            # One line per write: each level is written before the next is derived.
            _write_batched(chain_text(word_from_text(args.word), ab), 1)
        return 0

    if args.command == "enumerate":
        from .census import enumerate_smooth
        words = enumerate_smooth(ab, args.n)
        if fmt == "json":
            _print_json(args, {"alphabet": str(ab), "length": args.n,
                               "count": len(words),
                               "words": [word_to_text(w) for w in words]})
        elif fmt == "csv":
            _write_batched(itertools.chain(
                ("word\n",), (f"{word_to_csv(w)}\n" for w in words)), _LINE_BATCH)
        else:
            _write_batched((f"{word_to_text(w)}\n" for w in words), _LINE_BATCH)
        return 0

    if args.command == "kolakoski":
        from .powers import kolakoski_prefix
        w = kolakoski_prefix(ab, args.alpha, args.n)
        if fmt == "json":
            _print_json(args, {"alphabet": str(ab), "first": args.alpha,
                               "length": args.n, "word": word_to_text(w)})
        else:
            print(word_to_text(w))
        return 0

    if args.command == "dsigma":
        from .dsigma import dsigma_table
        return _emit_report(args, dsigma_table(ab))
    if args.command == "power-decomp":
        from .powers import power_decomposition
        return _emit_report(args, power_decomposition(word_from_text(args.word), args.n, ab))
    if args.command == "certify-concat":
        from .concat import certify_concat
        cert = certify_concat(ab, args.L, jobs=args.jobs, explore=args.explore)
        _emit_report(args, cert)
        # Only the table is asserted: explore mode reports its middles.
        return 1 if args.explore is None and cert.violations else 0

    # scan-powers or gamma: the flag table has no other command.
    from .census import gamma, scan_powers
    bound = args.L if args.L is not None else 60 if args.n == 2 else 30
    if args.command == "gamma":
        return _emit_report(args, gamma(ab, args.n, bound, jobs=args.jobs)[1])
    return _emit_report(args, scan_powers(ab, args.n, bound, jobs=args.jobs))


def main(argv=None) -> int:
    # At interpreter exit, move the heap to the collector's permanent
    # generation: finalization then frees the modules without the final
    # collection's walk over every object.  Unregistering first keeps one
    # hook however often main is called in one process.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:
        code = run(parse_config(argv))
        # Flush inside the try so a closed pipe surfaces here, not at exit.
        sys.stdout.flush()
        return code
    except SystemExit as exc:  # argparse: 2 on usage error, 0 on --help
        code = exc.code if exc.code is not None else 0
        return code if isinstance(code, int) else 2
    except BrokenPipeError:
        # Recipe from the signal module docs: Python flushes stdout again at
        # exit, so point it at devnull to keep that flush from failing too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except CertificationError as exc:
        print(f"certification violation: {exc}", file=sys.stderr)
        return 1
    except ChildProcessError as exc:
        # search.map_tasks: a forked share exited without sending its results.
        print(f"error: a --jobs worker process died ({exc})", file=sys.stderr)
        return EXIT_WORKER_DIED
    except ValueError as exc:
        # A WordParseError carries the position of the offending character.
        position = getattr(exc, "position", None)
        pos = f" at position {position}" if position is not None else ""
        print(f"error: {exc}{pos}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
