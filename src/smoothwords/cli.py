"""Command-line interface over the whole calculus.

Exit codes: 0 = success (findings such as census witnesses are data, not
errors), 1 = a certified identity failed (certification violation), 2 =
usage error, 141 = stdout was closed early (128 + SIGPIPE, as a shell
reports a process killed by SIGPIPE).  JSON output carries a top-level
schema_version field "1".
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NamedTuple

from .calculus import derivative, rho, smooth_chain
from .census import enumerate_smooth, gamma, kolakoski_prefix, lift, scan_powers
from .concat import certify_concat, dsigma_table, power_decomposition
from .core import Alphabet, Word, closure, delta, word_from_text, word_to_text
from .errors import CertificationError, WordParseError

SCHEMA_VERSION = "1"
# Exit status when stdout is closed before the output is written.
EXIT_BROKEN_PIPE = 141

# Commands whose reports can render as CSV.
_CSV_COMMANDS = {"scan-powers", "gamma", "enumerate"}


class CliConfig(NamedTuple):
    alphabet: Alphabet
    command: str
    fmt: str
    jobs: int
    word: str | None = None
    n: int | None = None
    bound: int | None = None
    k: int = 1
    alpha: int | None = None
    explore: int | None = None


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alphabet", required=True, metavar="a,b",
                        help="two-letter alphabet, e.g. 1,2")
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format")
    common.add_argument("--jobs", type=int, default=1,
                        help="parallel workers for scans (default 1); "
                             "never changes the output")
    return common


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="smoothwords",
        description="Run-length calculus over two-letter integer alphabets.")
    sub = top.add_subparsers(dest="command", required=True, metavar="command")
    common = _common_flags()

    def word_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("--word", "-w", required=True, help="input word text")
        return p

    word_command("delta", "run-length word")
    word_command("closure", "pad boundary runs longer than a up to b")
    word_command("derive", "derivative: run lengths, short boundary runs dropped")
    word_command("rho", "derivative of the closure")
    word_command("chain", "full derivative chain with smoothness verdict")

    p = word_command("lift", "apply delta_inv repeatedly")
    p.add_argument("--alpha", type=int, required=True, help="starting letter")
    p.add_argument("-k", type=int, default=1, help="lift depth (default 1)")

    p = sub.add_parser("enumerate", parents=[common], help="all smooth words of one length")
    p.add_argument("-n", type=int, required=True, help="word length")

    p = sub.add_parser("kolakoski", parents=[common],
                       help="prefix of the run-length self-generating word")
    p.add_argument("--alpha", type=int, required=True, help="first letter")
    p.add_argument("-n", type=int, required=True, help="prefix length")

    sub.add_parser("dsigma", parents=[common], help="the middle-word table")

    p = sub.add_parser("certify-concat", parents=[common],
                       help="exhaustively certify the concatenation splitting")
    p.add_argument("-L", type=int, default=8, help="length bound for u and v (default 8)")
    p.add_argument("--explore", type=int, default=None, metavar="XLEN",
                   help="scan all smooth x up to this length instead of the table; "
                        "middles are reported, not asserted")

    p = sub.add_parser("power-decomp", parents=[common],
                       help="middle words at every derivative level of u^n")
    p.add_argument("--word", "-w", required=True, help="base word")
    p.add_argument("-n", type=int, required=True, help="exponent (>= 2)")

    p = sub.add_parser("scan-powers", parents=[common], help="scan smooth bases for smooth powers")
    p.add_argument("-n", type=int, required=True, help="exponent (>= 2)")
    p.add_argument("-L", type=int, default=None,
                   help="base-length bound (default 60 for squares, else 30)")

    p = sub.add_parser("gamma", parents=[common],
                       help="count distinct smooth power words u^n with |u| <= L")
    p.add_argument("-n", type=int, required=True, help="exponent (>= 1)")
    p.add_argument("-L", type=int, default=None,
                   help="base-length bound (default 60 for squares, else 30)")

    return top


def parse_config(argv=None) -> CliConfig:
    args = build_parser().parse_args(argv)
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    bound = getattr(args, "L", None)
    n = getattr(args, "n", None)
    if bound is None and args.command in ("scan-powers", "gamma"):
        bound = 60 if n == 2 else 30
    return CliConfig(
        alphabet=Alphabet.parse(args.alphabet),
        command=args.command,
        fmt=args.format,
        jobs=args.jobs,
        word=getattr(args, "word", None),
        n=n,
        bound=bound,
        k=getattr(args, "k", 1),
        alpha=getattr(args, "alpha", None),
        explore=getattr(args, "explore", None),
    )


def _print_json(config: CliConfig, payload: dict) -> None:
    import json  # only JSON output pays for the import

    doc = {"schema_version": SCHEMA_VERSION, "command": config.command}
    doc.update(payload)
    print(json.dumps(doc, indent=2))


def _emit_word(config: CliConfig, result: Word) -> int:
    if config.fmt == "json":
        _print_json(config, {
            "alphabet": str(config.alphabet),
            "word": config.word,
            "result": word_to_text(result),
        })
    else:
        print(word_to_text(result))
    return 0


def run(config: CliConfig) -> int:
    """Dispatch one parsed command; returns the process exit status."""
    ab = config.alphabet
    fmt = config.fmt
    if fmt == "csv" and config.command not in _CSV_COMMANDS:
        print(f"error: csv output is not defined for {config.command!r}", file=sys.stderr)
        return 2

    if config.command == "delta":
        return _emit_word(config, delta(word_from_text(config.word)))
    if config.command == "closure":
        return _emit_word(config, closure(word_from_text(config.word), ab))
    if config.command == "derive":
        return _emit_word(config, derivative(word_from_text(config.word), ab))
    if config.command == "rho":
        return _emit_word(config, rho(word_from_text(config.word), ab))
    if config.command == "lift":
        return _emit_word(config, lift(word_from_text(config.word),
                                       config.alpha, config.k, ab))

    if config.command == "chain":
        chain = smooth_chain(word_from_text(config.word), ab)
        if fmt == "json":
            _print_json(config, {"alphabet": str(ab), **chain.to_json()})
        else:
            for i, level in enumerate(chain.levels):
                print(f"level {i}: {word_to_text(level)}")
            print(f"verdict: {chain.verdict}")
            if chain.failure is not None:
                print(f"failure: level {chain.failure.level} ({chain.failure.reason})")
        return 0

    if config.command == "enumerate":
        words = enumerate_smooth(ab, config.n)
        if fmt == "json":
            _print_json(config, {"alphabet": str(ab), "length": config.n,
                                 "count": len(words),
                                 "words": [word_to_text(w) for w in words]})
        elif fmt == "csv":
            print("word")
            for w in words:
                print(word_to_text(w))
        else:
            for w in words:
                print(word_to_text(w))
        return 0

    if config.command == "kolakoski":
        w = kolakoski_prefix(ab, config.alpha, config.n)
        if fmt == "json":
            _print_json(config, {"alphabet": str(ab), "first": config.alpha,
                                 "length": config.n, "word": word_to_text(w)})
        else:
            print(word_to_text(w))
        return 0

    if config.command == "dsigma":
        table = dsigma_table(ab)
        if fmt == "json":
            _print_json(config, table.to_json())
        else:
            for w in table.sorted_words:
                print(word_to_text(w))
        return 0

    if config.command == "certify-concat":
        cert = certify_concat(ab, config.bound, jobs=config.jobs,
                              explore=config.explore)
        if fmt == "json":
            _print_json(config, cert.to_json())
        else:
            print(f"alphabet {ab}  bound {cert.bound}  x from {cert.x_source}")
            print(f"{cert.tested_triples} smooth triples tested, "
                  f"{len(cert.violations)} violations")
            print("middle set: " + " ".join(word_to_text(w) or "eps"
                                            for w in cert.middle_set))
            for v in cert.violations:
                print(f"violation: u={word_to_text(v.u)} x={word_to_text(v.x)} "
                      f"v={word_to_text(v.v)} ({v.reason})")
        if config.explore is None and cert.violations:
            return 1
        return 0

    if config.command == "power-decomp":
        decomp = power_decomposition(word_from_text(config.word), config.n, ab)
        if fmt == "json":
            _print_json(config, decomp.to_json())
        else:
            print(f"base {word_to_text(decomp.base)}  exponent {decomp.exponent}")
            for j, w in decomp.levels:
                print(f"level {j}: witness {word_to_text(w) or 'eps'}")
        return 0

    if config.command in ("scan-powers", "gamma"):
        if config.command == "gamma":
            count, report = gamma(ab, config.n, config.bound, jobs=config.jobs)
        else:
            report = scan_powers(ab, config.n, config.bound, jobs=config.jobs)
            count = report.gamma
        if fmt == "json":
            _print_json(config, report.to_json())
        elif fmt == "csv":
            sys.stdout.write(report.to_csv())
        else:
            print(f"alphabet {ab}  exponent {report.exponent}  bound {report.bound}")
            print(f"{len(report.witnesses)} witnesses")
            print(f"gamma={count} stable={str(report.stable).lower()}")
            print(f"note: {report.note}")
            for w in report.witnesses:
                print(f"witness: base={word_to_text(w.base)} "
                      f"power={word_to_text(w.power)} "
                      f"primitive={word_to_text(w.primitive_base)}")
        return 0

    print(f"error: unknown command {config.command!r}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except SystemExit as exc:  # argparse: 2 on usage error, 0 on --help
        code = exc.code if exc.code is not None else 0
        return code if isinstance(code, int) else 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        code = run(config)
        # Flush inside the try so a closed pipe surfaces here, not at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Recipe from the signal module docs: Python flushes stdout again at
        # exit, so point it at devnull to keep that flush from failing too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except CertificationError as exc:
        print(f"certification violation: {exc}", file=sys.stderr)
        return 1
    except WordParseError as exc:
        pos = f" at position {exc.position}" if exc.position is not None else ""
        print(f"error: {exc}{pos}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
