"""Tracing shim: run one smoothwords command with its layers timed.

    python3 bench/shim.py TRACE.json smoothwords-args...

It imports ``smoothwords.cli`` (timing the import), wraps public functions
of each layer, calls ``smoothwords.cli.main(args)`` and, when that returns,
writes what it recorded to TRACE.json.  Coarse calls get spans (name, start,
end, parent, extra facts); hot calls (push/pop, is_smooth_fast,
fast_derivative, word_to_text, word_from_text) get an aggregated count,
time and number of True results.  Names that one module imported from
another are patched too, so every call site sees the wrapper.  A name that
no longer exists is listed as absent instead of failing the run.

Work inside ``--jobs`` pool workers is not recorded: forked workers inherit
the wrappers but exit without writing.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns as now

# (module, attribute path) of coarse calls.
SPANS = [
    ("cli", "run"),
    ("search", "SmoothEnumerator.up_to"),
    ("cache", "EnumerationCache.load_range"),
    ("cache", "EnumerationCache.store_range"),
    ("census", "scan_powers"),
    ("census", "gamma"),
    ("census", "enumerate_smooth"),
    ("census", "lift"),
    ("census", "kolakoski_prefix"),
    ("concat", "certify_concat"),
    ("concat", "power_decomposition"),
    ("concat", "dsigma_table"),
    ("calculus", "smooth_chain"),
    ("calculus", "rho"),
    ("calculus", "derivative"),
    ("core", "closure"),
    ("core", "delta"),
]
HOT = [
    ("search", "ChainState.push"),
    ("search", "ChainState.pop"),
    ("search", "is_smooth_fast"),
    ("search", "fast_derivative"),
    ("core", "word_to_text"),
    ("core", "word_from_text"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, facts]
        self.stack: list[int] = []
        self.hot: dict[str, list[int]] = {}  # name -> [calls, ns, True results]
        self.absent: list[str] = []
        self.computed: dict = {}  # (enumerator id, a, b) -> longest length enumerated

    def span(self, name, fn, facts=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            record = [name, now(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = now()
                stack.pop()
            if facts is not None:
                record[4] = facts(args, kwargs, result)
            return result
        return wrapper

    def hot_call(self, name, fn):
        stat = self.hot.setdefault(name, [0, 0, 0])

        def wrapper(*args, **kwargs):
            start = now()
            result = fn(*args, **kwargs)
            stat[1] += now() - start
            stat[0] += 1
            if result is True:
                stat[2] += 1
            return result
        return wrapper

    # Extra facts recorded on some spans.
    def up_to_facts(self, args, kwargs, result):
        enumerator, ab, n = args[0], args[1], args[2]
        key = (id(enumerator), ab.a, ab.b)
        if n <= self.computed.get(key, -1):
            return {"words": 0}  # served from the in-memory memo
        self.computed[key] = len(result) - 1
        return {"words": sum(map(len, result)) - 1}

    @staticmethod
    def load_facts(args, kwargs, result):
        return {"hit": result is not None}

    @staticmethod
    def scan_facts(args, kwargs, result):
        return {"jobs": kwargs.get("jobs", args[3] if len(args) > 3 else 1),
                "witnesses": len(result.witnesses)}

    @staticmethod
    def certify_facts(args, kwargs, result):
        return {"tested": result.tested_triples}

    def install(self, package) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        facts = {"SmoothEnumerator.up_to": self.up_to_facts,
                 "EnumerationCache.load_range": self.load_facts,
                 "scan_powers": self.scan_facts,
                 "certify_concat": self.certify_facts}
        for layer, path, make in ([(m, p, "span") for m, p in SPANS]
                                  + [(m, p, "hot") for m, p in HOT]):
            name = f"{layer}.{path.split('.')[-1]}"
            owner = sys.modules.get(f"{package.__name__}.{layer}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapped = (self.span(name, original, facts.get(path)) if make == "span"
                       else self.hot_call(name, original))
            if outer:
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def dump(self, path: str, import_ns: int) -> None:
        with open(path, "w") as handle:
            json.dump({"import_ns": import_ns, "spans": self.spans, "hot": self.hot,
                       "absent": self.absent}, handle)


def main() -> int:
    trace_path, args = sys.argv[1], sys.argv[2:]
    start = now()
    import smoothwords
    import smoothwords.cli
    import_ns = now() - start
    tracer = Tracer()
    tracer.install(smoothwords)
    try:
        return smoothwords.cli.main(args)
    finally:
        sys.stdout.flush()
        tracer.dump(trace_path, import_ns)


if __name__ == "__main__":
    sys.exit(main())
