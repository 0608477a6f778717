"""Frozen outputs of the identity suite, the Hessian report and the
obstruction cases.

The identity and Hessian digests were captured from the Perm/Scalar
generator-rule product and the projective-matrix closure, before both
kernels moved to integer tables; the obstruction, resultant and skl3
digests were captured from the four hand-written case functions, before
they moved onto one shared case pipeline; the analyze digests were
captured before every tensor slot action moved onto one slot-local action;
the verify, builtin and conjugated dj(3) digests were captured before the
Frobenius identities became one matrix equality each.  Every refactor must
keep these bytes.  `--timings` writes only to stderr, so stdout keeps them
with it too.
"""

import hashlib
import json

import pytest

from heckesym.cli import main
from heckesym.regular3 import conjugacy_classes, hessian_group

STDOUT_SHA256 = {
    ("identities", "--n", "1"): "c90662c5a9de6cf15f8bb81f5ef5e7c21deda91bca45df947999ab8346d5269f",
    ("identities", "--n", "2"): "4093c3a6feb9e3f5aff562d03c110adfcd8ecd8c877d4af77f682d11f2eeede3",
    ("identities", "--n", "3"): "eace9c40fe6878a11e702e93997fcf25c076cc16623ebb0f99f2ea9d2f0853c4",
    ("identities", "--n", "4"): "958c9165a7e1e270f4121bd68b3a1bc44f0004a4d579d82f5ff0cddb9f00293a",
    ("identities", "--n", "5"): "28ccc4020daa6a389ac2c69b7793c3b43344b6329bb7301be73eb0a1cc28f3a5",
    ("hessian",): "7242ebb04c23c2e40475aed262584d54d7500f4cb1325bf16a5d99ddf00d8a61",
    ("hessian", "--report"): "2153ce78d9433436d13a4ff676e9aab2da67095a75ff9c955c2e54a99e318477",
    ("obstruct", "--case", "1"): "2f1dd3e6a1f81986ec1efe43225f4d2011617b6058a4bf328503e30329d3890d",
    ("obstruct", "--case", "2"): "aaef3f3e92978fa80f0448259a15b6545980a80b25e864341e47cab03e71d4b3",
    ("obstruct", "--case", "3"): "e3217097bd174d73b586d92479ee63862e494d41c291289d19b7d6dcb6abbefe",
    ("obstruct", "--case", "4"): "fc3a288f234f817c153b7c0e7cf66e053ff33b25cc60061cf13b95dc4ee66d4c",
    ("resultant", "--case1"): "1109c750519cd531f4c759c95df5c1ca8579389da2be368664734ba61a7bc865",
    ("obstruct", "--case", "1", "--params", "1,2,3"): "e8e170abbe80f8e11dbbb5c9544158651109726b46e00bf769f8813ee9ab194a",
    ("obstruct", "--case", "3", "--params", "1,1,2"): "fdb72d1436536eeee974b5d06a29c73073dee0f354397ff9d4b43017456b8d5a",
    ("skl3", "--a", "1", "--b", "2", "--c", "3", "--check", "tensors"): "44ee640815b473be4dd1c80e94bf9e9714248617f420a379af2e84ceae92fa7f",
    ("analyze", "--builtin", "dj", "--dim", "2"): "aa8aa8d2aa284d789b5dad05735886bdcc9b298491419670960d76f69291eeb1",
    ("analyze", "--builtin", "dj", "--dim", "3"): "5dd46b5a39f88d102723c3ee760765f3776354bde79cc9afb3f9d1385a981df9",
    ("analyze", "--builtin", "flip", "--dim", "2"): "06115bfe7785a7ab61d710fe90e57ca38c1ecf45d36ac90cadd0aebbe33f3f74",
    ("analyze", "--builtin", "flip", "--dim", "3"): "cdd3d037edc289bd2fc4de8352191a51050ecc35a438636265449e1cf567b2d9",
    ("analyze", "--builtin", "dj", "--dim", "2", "--field", "cyclotomic", "--order", "3", "--q", "e"): "b3296a161a80bd124c92cd6065f802cfc0ad2f073b7982c0267e5658d225f584",
    ("analyze", "--builtin", "dj", "--dim", "3", "--field", "rational", "--q", "2"): "762a0b82aae2fb875ec520674236f4802a78be482796de2b01e8b3cf3c7191e9",
    ("verify", "--builtin", "dj", "--dim", "3"): "05d6505c2a7e33607922fd878c6fa5b647bf3242bfda9cf8b22a1456f988e9bc",
    ("builtin", "--builtin", "dj", "--dim", "2"): "fe577a9bc6a7d5eeec53a3ad105fbb21b694026f684033bbf4ba071557de43f4",
}

# dj(2) conjugated by tau = [[2, 1], [1, 1]], as `builtin` and `conjugate` emit it
DENSE_CONJUGATE = {
    "dim": 2,
    "field": {"kind": "ratfunc_q", "order": 1},
    "q": "q",
    "matrix": [
        ["q", "2*q - 2", "(-2)*q + 2", "0"],
        ["0", "2*q - 2", "-q + 2", "0"],
        ["0", "2*q - 1", "-q + 1", "0"],
        ["0", "q - 1", "-q + 1", "q"],
    ],
}
DENSE_CONJUGATE_SHA256 = "87af05bc49217d5a1e75e07ef3d40867280669018497dcc08bb81226a546c60c"
DENSE_CONJUGATE_VERIFY_SHA256 = "513aaf6bf402a321014084f94b8d05c2f3a199a8dccb1e60237068c0e5f3e4fa"

# dj(3) over Q with q = 2, conjugated by the non-symmetric unimodular
# tau = [[1, 2, 0], [0, 1, 1], [1, 0, -1]], as `conjugate` and `to_json_dict` emit it
DJ3_CONJUGATE = {
    "dim": 3,
    "field": {"kind": "rational", "order": 1},
    "q": "2",
    "matrix": [
        ["2", "-2", "-2", "2", "0", "0", "2", "0", "0"],
        ["0", "1", "0", "1", "0", "0", "0", "0", "0"],
        ["0", "-2", "-1", "2", "0", "0", "3", "0", "0"],
        ["0", "2", "0", "0", "0", "0", "0", "0", "0"],
        ["0", "1", "0", "-1", "2", "1", "0", "-1", "0"],
        ["0", "-1", "0", "1", "0", "-1", "0", "3", "0"],
        ["0", "-2", "0", "2", "0", "0", "2", "0", "0"],
        ["0", "-1", "0", "1", "0", "0", "0", "2", "0"],
        ["0", "0", "-1", "0", "0", "2", "1", "-2", "2"],
    ],
}
DJ3_CONJUGATE_SHA256 = "cffc49716c0365e4f709e2ca7a79280268262254112b07b5af1d26fd0659c14a"

# sha256 of json.dumps([g.to_rows() for g in hessian_group()])
GROUP_ROWS_SHA256 = "9f1d8b9b46a5aa35da39efa5066b53e18d111ccf17aef003e222042f10cb4ff0"
# sha256 of json.dumps of the classes as lists of indices into hessian_group()
CLASSES_SHA256 = "2433bbfa52c4ce33814fc8fb74ee8670faf2b159289741a9e52d9e18b0c28000"
CLASS_SIZES = [1, 9, 8, 12, 12, 24, 24, 54, 36, 36]


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", sorted(STDOUT_SHA256), ids=" ".join)
def test_stdout_digest(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out) == STDOUT_SHA256[argv]


def _document_stdout(capsys, tmp_path, command, doc):
    path = tmp_path / "conj.json"
    path.write_text(json.dumps(doc))
    code = main([command, str(path)])
    assert code == 0
    return capsys.readouterr().out


def test_analyze_dense_conjugate_digest(capsys, tmp_path):
    assert _sha256(_document_stdout(capsys, tmp_path, "analyze", DENSE_CONJUGATE)) == DENSE_CONJUGATE_SHA256


def test_verify_dense_conjugate_digest(capsys, tmp_path):
    assert _sha256(_document_stdout(capsys, tmp_path, "verify", DENSE_CONJUGATE)) == DENSE_CONJUGATE_VERIFY_SHA256


def test_analyze_dj3_conjugate_digest(capsys, tmp_path):
    # the Frobenius suite with a non-diagonal theta and psi and constant scalars
    assert _sha256(_document_stdout(capsys, tmp_path, "analyze", DJ3_CONJUGATE)) == DJ3_CONJUGATE_SHA256


def test_group_elements_and_class_order():
    group = hessian_group()
    assert _sha256(json.dumps([g.to_rows() for g in group])) == GROUP_ROWS_SHA256
    assert group[0].to_rows() == [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]]
    index = {g: i for i, g in enumerate(group)}
    classes = [[index[g] for g in cls] for cls in conjugacy_classes(group)]
    assert [len(cls) for cls in classes] == CLASS_SIZES
    assert _sha256(json.dumps(classes)) == CLASSES_SHA256
