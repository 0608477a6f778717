"""Frozen outputs of the identity suite, the Hessian report and the
obstruction cases.

The identity and Hessian digests were captured from the Perm/Scalar
generator-rule product and the projective-matrix closure, before both
kernels moved to integer tables; the obstruction, resultant and skl3
digests were captured from the four hand-written case functions, before
they moved onto one shared case pipeline; the analyze digests were
captured before every tensor slot action moved onto one slot-local action;
the verify, builtin and conjugated dj(3) digests were captured before the
Frobenius identities became one matrix equality each; the dense cyclotomic
dj(3) and non-integral dj(2) conjugate digests were captured before the
constant-field slot actions moved onto packed integers; the dj(2) and dj(3)
digests at q = -1 and the dj(3) digest at q = i were captured before f was
read off one action of y_n under R^t; the failing verify report of a
perturbed dj(2), with its witnesses and exit code 1, was captured before the
square-commutes identity moved onto the slot action; the identity digest at
n = 6 was captured before Hecke products moved onto packed integers and the
basis-left checks onto one walk; the case-1 digest at the non-integral
triple (1/2, 3, -2) was captured before integral polynomial coefficients
became ints; the seeded dense conjugates of dj(3) at q = 2 and of dj(2) over
Q(zeta_3), whose theta, psi and t have non-integral entries, were captured
before integral Scalar entries became ints; the rank-2 bilinear-form
symmetry at q = -1 was captured before the pairings were read off one row
of a transposed action.  Every refactor must
keep these bytes.  `--timings` writes only to stderr, so stdout keeps them
with it too.
"""

import hashlib
import json

import pytest

from heckesym.cli import main
from heckesym.exactnum import FieldSpec
from heckesym.linalg import MatrixF
from heckesym.regular3 import conjugacy_classes, hessian_group
from heckesym.symmetry import dj_standard

STDOUT_SHA256 = {
    ("identities", "--n", "1"): "c90662c5a9de6cf15f8bb81f5ef5e7c21deda91bca45df947999ab8346d5269f",
    ("identities", "--n", "2"): "4093c3a6feb9e3f5aff562d03c110adfcd8ecd8c877d4af77f682d11f2eeede3",
    ("identities", "--n", "3"): "eace9c40fe6878a11e702e93997fcf25c076cc16623ebb0f99f2ea9d2f0853c4",
    ("identities", "--n", "4"): "958c9165a7e1e270f4121bd68b3a1bc44f0004a4d579d82f5ff0cddb9f00293a",
    ("identities", "--n", "5"): "28ccc4020daa6a389ac2c69b7793c3b43344b6329bb7301be73eb0a1cc28f3a5",
    ("identities", "--n", "6"): "8d596db062858afdcdb83814e9f4c186844a7682ac9efce125ca283041d688d8",
    ("hessian",): "7242ebb04c23c2e40475aed262584d54d7500f4cb1325bf16a5d99ddf00d8a61",
    ("hessian", "--report"): "2153ce78d9433436d13a4ff676e9aab2da67095a75ff9c955c2e54a99e318477",
    ("obstruct", "--case", "1"): "2f1dd3e6a1f81986ec1efe43225f4d2011617b6058a4bf328503e30329d3890d",
    ("obstruct", "--case", "2"): "aaef3f3e92978fa80f0448259a15b6545980a80b25e864341e47cab03e71d4b3",
    ("obstruct", "--case", "3"): "e3217097bd174d73b586d92479ee63862e494d41c291289d19b7d6dcb6abbefe",
    ("obstruct", "--case", "4"): "fc3a288f234f817c153b7c0e7cf66e053ff33b25cc60061cf13b95dc4ee66d4c",
    ("resultant", "--case1"): "1109c750519cd531f4c759c95df5c1ca8579389da2be368664734ba61a7bc865",
    ("obstruct", "--case", "1", "--params", "1,2,3"): "e8e170abbe80f8e11dbbb5c9544158651109726b46e00bf769f8813ee9ab194a",
    ("obstruct", "--case", "1", "--params=1/2,3,-2"): "cf13cde2c0eb09edea417c66b49c241b2c0720c162f9b6031a7a0a04de92c469",
    ("obstruct", "--case", "3", "--params", "1,1,2"): "fdb72d1436536eeee974b5d06a29c73073dee0f354397ff9d4b43017456b8d5a",
    ("skl3", "--a", "1", "--b", "2", "--c", "3", "--check", "tensors"): "44ee640815b473be4dd1c80e94bf9e9714248617f420a379af2e84ceae92fa7f",
    ("analyze", "--builtin", "dj", "--dim", "2"): "aa8aa8d2aa284d789b5dad05735886bdcc9b298491419670960d76f69291eeb1",
    ("analyze", "--builtin", "dj", "--dim", "3"): "5dd46b5a39f88d102723c3ee760765f3776354bde79cc9afb3f9d1385a981df9",
    ("analyze", "--builtin", "flip", "--dim", "2"): "06115bfe7785a7ab61d710fe90e57ca38c1ecf45d36ac90cadd0aebbe33f3f74",
    ("analyze", "--builtin", "flip", "--dim", "3"): "cdd3d037edc289bd2fc4de8352191a51050ecc35a438636265449e1cf567b2d9",
    ("analyze", "--builtin", "dj", "--dim", "2", "--field", "cyclotomic", "--order", "3", "--q", "e"): "b3296a161a80bd124c92cd6065f802cfc0ad2f073b7982c0267e5658d225f584",
    ("analyze", "--builtin", "dj", "--dim", "3", "--field", "rational", "--q", "2"): "762a0b82aae2fb875ec520674236f4802a78be482796de2b01e8b3cf3c7191e9",
    ("analyze", "--builtin", "dj", "--dim", "2", "--field", "rational", "--q", "-1"): "d6830986457e6717f318b2ce4ee5059001a849b5057a97e429242327c7c9b2f6",
    ("analyze", "--builtin", "dj", "--dim", "3", "--field", "rational", "--q", "-1"): "c0e2f7c77923ddebc2b5369885c8294b452c0207293c8437f07d2e673e7df3c1",
    ("analyze", "--builtin", "dj", "--dim", "3", "--field", "cyclotomic", "--order", "4", "--q", "e"): "2e0a2af75711a53f0c93d2725a5d1fa49452c62c50bfaa516b69fafc7c549b01",
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

# dj(3) over Q(zeta_3) with q = e, conjugated by the dense tau =
# [[1, e, 1 + e], [-1, 1, e], [e, -1, 1]] (det 4 + 3e), as `to_json_dict` emits it
DJ3_CYC3_CONJUGATE = {
    "dim": 3,
    "field": {"kind": "cyclotomic", "order": 3},
    "q": "e",
    "matrix": [
        ["e", "-5/13 + 2/13*e", "-12/13 - 3/13*e", "5/13 - 2/13*e", "0", "-2/13 - 7/13*e", "12/13 + 3/13*e", "2/13 + 7/13*e", "0"],
        ["0", "-3/13 + 9/13*e", "5/13 - 2/13*e", "3/13 + 4/13*e", "0", "-5/13 + 2/13*e", "-5/13 + 2/13*e", "5/13 - 2/13*e", "0"],
        ["0", "5/13 - 2/13*e", "-12/13 - 3/13*e", "-5/13 + 2/13*e", "0", "5/13 - 2/13*e", "12/13 + 16/13*e", "-5/13 + 2/13*e", "0"],
        ["0", "10/13 + 9/13*e", "5/13 - 2/13*e", "-10/13 + 4/13*e", "0", "-5/13 + 2/13*e", "-5/13 + 2/13*e", "5/13 - 2/13*e", "0"],
        ["0", "10/13 - 4/13*e", "-7/13 - 5/13*e", "-10/13 + 4/13*e", "e", "3/13 - 9/13*e", "7/13 + 5/13*e", "-3/13 + 9/13*e", "0"],
        ["0", "-7/13 - 5/13*e", "7/13 + 5/13*e", "7/13 + 5/13*e", "0", "-10/13 + 4/13*e", "-7/13 - 5/13*e", "10/13 + 9/13*e", "0"],
        ["0", "5/13 - 2/13*e", "1/13 - 3/13*e", "-5/13 + 2/13*e", "0", "5/13 - 2/13*e", "-1/13 + 16/13*e", "-5/13 + 2/13*e", "0"],
        ["0", "-7/13 - 5/13*e", "7/13 + 5/13*e", "7/13 + 5/13*e", "0", "3/13 + 4/13*e", "-7/13 - 5/13*e", "-3/13 + 9/13*e", "0"],
        ["0", "7/13 + 5/13*e", "-4/13 - 14/13*e", "-7/13 - 5/13*e", "0", "-5/13 + 2/13*e", "4/13 + 14/13*e", "5/13 - 2/13*e", "e"],
    ],
}
DJ3_CYC3_CONJUGATE_ANALYZE_SHA256 = "2b172ef4997367ad0647562ee10d99179d98f67c0fd5688b63c884437ab9b93a"

# dj(2) over Q with q = 2, conjugated by tau = [[2, 1], [1, 3/2]] (det 2), so that
# R has non-integral entries
DJ2_HALF_CONJUGATE = {
    "dim": 2,
    "field": {"kind": "rational", "order": 1},
    "q": "2",
    "matrix": [
        ["2", "1", "-1", "0"],
        ["0", "3/2", "1/2", "0"],
        ["0", "5/2", "-1/2", "0"],
        ["0", "3/4", "-3/4", "2"],
    ],
}
DJ2_HALF_CONJUGATE_SHA256 = {
    "verify": "c1dae4cefbee34e5e3cb1fd515c4933cbc08359d89f210dd7993daa2b78e8118",
    "analyze": "ca87c1c563d2df4a7a8a830f09efb93b79ff3b1053666d7166d711d244d8a870",
}

# dense conjugates drawn as the benchmark draws them (entries of tau in -2, -1, 1, 2 and
# det tau = +-1): R is integral, but theta, psi and t have non-integral entries
SEEDED_CONJUGATES = {
    "dj3-q2": (3, ("rational", 1, 2), [[-2, 1, -1], [2, -1, 2], [-1, 1, 2]]),
    "dj2-cyc3": (2, ("cyclotomic", 3, "e"), [[1, -1], [-1, 2]]),
}
SEEDED_CONJUGATE_ANALYZE_SHA256 = {
    "dj3-q2": "05e3b0c530cb40f738e8438c4f7c1c4cb973912f4b7e9d78a691aaedd35372f4",
    "dj2-cyc3": "b35bdd26a730cfc2b2f6d8bba3d2292102e4cbae74fcfbb16ece949fb3444c71",
}

# the rank-2 symmetry R = s^2 Id - s E of the bilinear form B = [[1, -1, 0], [2, 1, 0], [0, 0, 1]], E = vec(B^-1) vec(B)^t,
# at s = zeta_4 (q = -1, tr(B^t B^-1) = 0 = s + 1/s), as `to_json_dict` emits it: R is not semisimple, and this is
# not dj, so the pairings' q = -1 membership check runs on it
BILINEAR_Q_MINUS_ONE = {
    "dim": 3,
    "field": {"kind": "cyclotomic", "order": 4},
    "q": "-1",
    "matrix": [
        ["-1 - 1/3*e", "1/3*e", "0", "-2/3*e", "-1/3*e", "0", "0", "0", "-1/3*e"],
        ["-1/3*e", "-1 + 1/3*e", "0", "-2/3*e", "-1/3*e", "0", "0", "0", "-1/3*e"],
        ["0", "0", "-1", "0", "0", "0", "0", "0", "0"],
        ["2/3*e", "-2/3*e", "0", "-1 + 4/3*e", "2/3*e", "0", "0", "0", "2/3*e"],
        ["-1/3*e", "1/3*e", "0", "-2/3*e", "-1 - 1/3*e", "0", "0", "0", "-1/3*e"],
        ["0", "0", "0", "0", "0", "-1", "0", "0", "0"],
        ["0", "0", "0", "0", "0", "0", "-1", "0", "0"],
        ["0", "0", "0", "0", "0", "0", "0", "-1", "0"],
        ["-e", "e", "0", "-2*e", "-e", "0", "0", "0", "-1 - e"],
    ],
}
BILINEAR_Q_MINUS_ONE_ANALYZE_SHA256 = "f365e5690993bb86c15e60b4ef85136511a2b0625c9ba55b35187c4e57d11ec7"

# dj(2) with entry (0, 3) of R set to 1, as test_cli's test_verify_perturbed_matrix
# builds it: verify exits 1 and names the failing entries
PERTURBED_DJ2 = {
    "dim": 2,
    "field": {"kind": "ratfunc_q", "order": 1},
    "q": "q",
    "matrix": [["q", "0", "0", "1"], ["0", "q - 1", "1", "0"], ["0", "q", "0", "0"], ["0", "0", "0", "q"]],
}
PERTURBED_DJ2_VERIFY_SHA256 = "cb6a3523f8b59da0e703ea4f4c1a0c41ac2d8bea38a4ebf8098ae5aa0f709f68"

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


def test_analyze_dense_cyclotomic_conjugate_digest(capsys, tmp_path):
    out = _document_stdout(capsys, tmp_path, "analyze", DJ3_CYC3_CONJUGATE)
    assert _sha256(out) == DJ3_CYC3_CONJUGATE_ANALYZE_SHA256


@pytest.mark.parametrize("command", sorted(DJ2_HALF_CONJUGATE_SHA256))
def test_non_integral_conjugate_digest(capsys, tmp_path, command):
    out = _document_stdout(capsys, tmp_path, command, DJ2_HALF_CONJUGATE)
    assert _sha256(out) == DJ2_HALF_CONJUGATE_SHA256[command]


@pytest.mark.parametrize("name", sorted(SEEDED_CONJUGATES))
def test_seeded_conjugate_analyze_digest(capsys, tmp_path, name):
    N, (kind, order, qval), tau = SEEDED_CONJUGATES[name]
    field = FieldSpec(kind, order)
    field = field.with_q(field.e() if qval == "e" else field.scalar(qval))
    doc = dj_standard(N, field).conjugate(MatrixF.from_rows([[field.scalar(x) for x in row] for row in tau], field)).to_json_dict()
    out = _document_stdout(capsys, tmp_path, "analyze", doc)
    assert "/" in "".join(json.loads(out)["t"])
    assert _sha256(out) == SEEDED_CONJUGATE_ANALYZE_SHA256[name]


def test_bilinear_form_at_minus_one_digest(capsys, tmp_path):
    out = _document_stdout(capsys, tmp_path, "analyze", BILINEAR_Q_MINUS_ONE)
    doc = json.loads(out)
    assert (doc["dim"], doc["field"], doc["n"], doc["dims"]) == (3, {"kind": "cyclotomic", "order": 4}, 2, [1, 3, 1, 0])
    assert doc["f"] is not None and doc["ok"]
    assert _sha256(out) == BILINEAR_Q_MINUS_ONE_ANALYZE_SHA256


def test_failing_verify_digest(capsys, tmp_path):
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(PERTURBED_DJ2))
    code = main(["verify", str(path)])
    assert code == 1
    assert _sha256(capsys.readouterr().out) == PERTURBED_DJ2_VERIFY_SHA256


def test_group_elements_and_class_order():
    group = hessian_group()
    assert _sha256(json.dumps([g.to_rows() for g in group])) == GROUP_ROWS_SHA256
    assert group[0].to_rows() == [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]]
    index = {g: i for i, g in enumerate(group)}
    classes = [[index[g] for g in cls] for cls in conjugacy_classes(group)]
    assert [len(cls) for cls in classes] == CLASS_SIZES
    assert _sha256(json.dumps(classes)) == CLASSES_SHA256
