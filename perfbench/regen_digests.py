"""Rewrite ``digests.json``: the default seed's expected outputs.

    PYTHONPATH=src python3 perfbench/regen_digests.py

The file holds, for seed 7, each figure's row digest and each fleet
lane's event digest.  Regenerate it only when a change is meant to alter
the program's results or the workload sizes, and say why in the change.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict

import figures
import fleet
from measure import DIGESTS

DEFAULT_SEED = 7


def main() -> int:
    payload: dict = {"seed": DEFAULT_SEED}
    for module in (figures, fleet):
        prepared = module.prepare(DEFAULT_SEED, module.Size())
        result = module.run_pass(prepared)
        digests = module.digests(result)
        _, failed = module.failures(prepared, result, digests)
        if failed:
            print(f"{module.NAME}: {failed} failed operations; digests "
                  f"not written", file=sys.stderr)
            return 1
        payload[module.NAME] = {"size": asdict(module.Size()),
                                "digests": digests}
    DIGESTS.write_text(json.dumps(payload, indent=1) + "\n",
                       encoding="utf-8")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
