"""Regenerate reference.json, the oracle's facts for the full-size workloads.

    python3 bench/make_reference.py

Everything in the file is computed by ``oracle.py`` alone, which imports
nothing from smoothwords; nothing is copied from the program's output.
Takes about two minutes on a 2-core machine.
"""

import json

import oracle
import workloads


def main() -> None:
    problems = oracle.self_check()
    if problems:
        raise SystemExit("oracle self-check failed: " + "; ".join(problems))
    refs = workloads.References(live=True)
    for name in ("census", "sweep", "concat"):
        workloads.WORKLOADS[name](False, refs, 0)
    text = json.dumps(dict(sorted(refs.table.items())), separators=(",", ":"))
    workloads.REFERENCE_FILE.write_text(text.replace('],"', '],\n"') + "\n")
    print(f"wrote {len(refs.table)} entries to {workloads.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
