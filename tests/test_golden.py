"""Frozen outputs of the identity suite, the Hessian report and the
obstruction cases.

The identity and Hessian digests were captured from the Perm/Scalar
generator-rule product and the projective-matrix closure, before both
kernels moved to integer tables; the obstruction, resultant and skl3
digests were captured from the four hand-written case functions, before
they moved onto one shared case pipeline.  Every refactor must keep these
bytes.  `--timings` output
is excluded because it carries wall-clock fields.
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
}

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


def test_group_elements_and_class_order():
    group = hessian_group()
    assert _sha256(json.dumps([g.to_rows() for g in group])) == GROUP_ROWS_SHA256
    assert group[0].to_rows() == [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]]
    index = {g: i for i, g in enumerate(group)}
    classes = [[index[g] for g in cls] for cls in conjugacy_classes(group)]
    assert [len(cls) for cls in classes] == CLASS_SIZES
    assert _sha256(json.dumps(classes)) == CLASSES_SHA256
