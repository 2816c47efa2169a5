"""Print the frontier CSV of a fixed instance set, for comparing Python versions.

Runs without pytest or any other third-party package::

    PYTHONPATH=src python3.10 scripts/frontier_smoke.py > a.txt
    PYTHONPATH=src python3.11 scripts/frontier_smoke.py > b.txt
    diff a.txt b.txt

Every generator profile is solved at two sizes, each instance after a
round trip through its JSON text; the output must be byte-identical on
every supported Python.
"""

from batchfront import pareto_front
from batchfront.fileio import emit_instance, parse_instance
from batchfront.generate import PROFILES, gen_random

SIZES = (9, 40)


def main() -> None:
    for profile in PROFILES:
        for n in SIZES:
            instance = parse_instance(emit_instance(gen_random(n, 1, profile)))
            print(f"# {profile} n={n}")
            print(pareto_front(instance).to_csv(), end="")


if __name__ == "__main__":
    main()
