"""Record reference.json: the checked outputs of every op whose values the
benchmark compares, at both sizes.

    python3 perfbench/make_reference.py

Run it only on the commit whose outputs are the reference (the seed commit
the benchmark was defined on); running it on a later commit would turn that
commit's behaviour, right or wrong, into the expectation.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402


def main() -> None:
    out = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for size in wl.SIZES:
            refs = {}
            for op in wl.reference_ops(size, Path(tmp)):
                observed = op.observe(op.call())
                refs[op.ref_key] = {k: observed[k] for k in op.ref_fields + op.ref_values}
                print(size, op.ref_key, file=sys.stderr)
            out[size] = refs
    (HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
