"""Byte pins for the audit and abc outputs.

Each case holds the SHA-256 of the command's ``result`` payload (compact
JSON, keys in emitted order) and of its ``--out`` body with the metadata
comment line removed.  A refactor of the audit code must leave every digest
unchanged; a deliberate output change updates them together with its reason.
The digests were recorded with numpy 2.4 on x86-64: the prefix audits sum
``np.log`` values, so another platform's libm may move the last digits.
"""

import hashlib
import json

import pytest

from factprod.cli import main


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


CASES = [
    (
        ["audit", "--check", "window", "--m1-max", "300", "--k1", "3:30"],
        "7d7b7fa1ded949309b9f74da30c97e70001425061696eba015f6c3cb6a78dcdd",
        "839ad036e5000e4cc7aa708ed6cf9fd6ea868df677ab738cea6ee896a1c4b349",
    ),
    (
        ["audit", "--check", "theta", "--nu-max", "20000"],
        "48df68fa77097417423e0d301542e18b19ad015b3dac0a3777a2d54cf9e632d7",
        "93ffb0e246a127194aca69796fc284b16d4839a554268edc03ee777a159aa606",
    ),
    (
        ["audit", "--check", "mertens", "--nu-max", "20000.5"],
        "827280255d260d211fdf3693be0fab0d656aa5a689f0563fe4e9b5974dea5bc5",
        "0cd670328fd15a41e243b27d492c9b95638ef679e6410c1ae71a1e0c345fe023",
    ),
    (
        ["audit", "--check", "stirling", "--n-max", "3000"],
        "d1262d195e5d9515d99d2a2dc795557f08408a6b4d1fff504a788c794d630b60",
        "bff5742abdb8e676a3e69446f271807a7ef4b8b9dc4828bddb974d7132c86fa8",
    ),
    (
        ["audit", "--check", "erdos", "--x", "2:500", "--k", "5:40"],
        "69e9a7bb04b2dcc1a4630a09cbd7eef8c65eaeeb4ba8e82dcb70e03230e30ba8",
        "49b1b1c2174d30e64dc6f70c0e8919f839eab44ee7f2092522cc1e5708312942",
    ),
    (
        ["audit", "--check", "chain", "--equation", "14,5,2=16"],
        "d89e0ae1f34b6e327c6ec7c6314f2e0d669180f520298550178f722ff07bd39f",
        "63587a2efe999e2f92c5159d0df912bf6b3a8057619c3b6699620650c6495b37",
    ),
    (
        ["abc", "--m1", "8", "--k1", "3", "--a2", "6"],
        "1ad2afa91ec5048f14bec1b799a919baae54b6d0f9a320aa24e0e467945a9a7a",
        None,
    ),
    (
        ["abc", "--m1", "100", "--k1", "20"],
        "d03a5d476300bc9caf4bd306992a8e139ba38348165796970374fc0339d145c4",
        None,
    ),
    (
        ["verify", "14,5,2=16", "--audit-window"],
        "b642231f5c8055cfe14be532780f048e0dc129e2a2f2307e657a5831ef2aabf1",
        None,
    ),
]


@pytest.mark.parametrize("argv,result_sha,out_sha", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_output_digest(capsys, tmp_path, argv, result_sha, out_sha):
    out_path = tmp_path / "out.csv"
    extra = ["--out", str(out_path)] if out_sha is not None else []
    main([*argv, *extra])
    result = json.loads(capsys.readouterr().out)["result"]
    assert _sha(json.dumps(result, separators=(",", ":"))) == result_sha
    if out_sha is not None:
        meta_line, body = out_path.read_text().split("\n", 1)
        assert meta_line.startswith("# ")
        assert _sha(body) == out_sha
