import pathlib

import numpy as np
import pytest

from switchcert.certify import SwitchedSystem
from switchcert.poly import parse_expression

REPO = pathlib.Path(__file__).resolve().parents[1]
SYSTEMS = REPO / "systems"

# reference certificate data reported for the bundled example systems
V_AFFINE_PAIR = ("436.8*x1^4 + 929.2*x1^3*x2 + 963.1*x1^2*x2^2 "
                 "+ 519.2*x1*x2^3 + 168.1*x2^4")
V_AFFINE_TRIPLE = ("8.7957*x1^4 + 1.8977*x1^3*x2 + 17.4811*x1^2*x2^2 "
                   "- 1.5706*x1*x2^3 + 9.3477*x2^4")
V_LINEAR_PAIR_DEG12 = (
    "1326.8*x1^12 + 3997.0355*x1^11*x2 + 13366*x1^10*x2^2 + 22545*x1^9*x2^3 "
    "+ 24318*x1^8*x2^4 + 17999*x1^7*x2^5 + 10097*x1^6*x2^6 + 4333.6*x1^5*x2^7 "
    "+ 1379.2*x1^4*x2^8 + 304.99*x1^3*x2^9 + 44.607*x1^2*x2^10 "
    "+ 3.9466*x1*x2^11 + 0.1836*x2^12")

GAMMA_AFFINE_PAIR = 8725.0
BETA_AFFINE_PAIR = 3.3
GAMMA_AFFINE_TRIPLE = 38.43
BETA_AFFINE_TRIPLE = 2.0


def encode_posed(program):
    """encode with every monomial taken as invariant: the SDP as posed,
    one row per monomial of each identity's support."""
    from switchcert import sosprog
    n = program.identities[0].dimension
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sosprog, "invariant_parities",
                      lambda program: tuple(1 << k for k in reversed(range(n))))
        return sosprog.encode(program)


def gram_bases(encoding):
    """The Gram basis of each block of an encoding, by block index."""
    bases = {block: encoding.unknown_bases[name]
             for name, block in encoding.unknown_blocks.items()}
    bases.update({block: encoding.identity_bases[name]
                  for name, block in encoding.identity_blocks.items()})
    return bases


def same_row(a, j, b, k):
    """Row j of SdpProblem a equals row k of SdpProblem b."""
    if a.rhs[j] != b.rhs[k] or len(a.entries[j]) != len(b.entries[k]) \
            or not all(np.array_equal(x, y) for x, y in
                       zip(a.free_rows[j], b.free_rows[k])):
        return False
    return all(ea.block == eb.block and np.array_equal(ea.rows, eb.rows)
               and np.array_equal(ea.cols, eb.cols)
               and np.array_equal(ea.vals, eb.vals)
               for ea, eb in zip(a.entries[j], b.entries[k]))


def linear_pair_matrices(b):
    return [np.array([[0.0, 1.0], [-0.1, -2.0]]),
            np.array([[0.0, 1.0], [-float(b), -2.0]])]


@pytest.fixture(scope="session")
def systems_dir():
    return SYSTEMS


@pytest.fixture(scope="session")
def affine_pair():
    return SwitchedSystem.from_affine(
        linear_pair_matrices(2.0), [None, np.array([1.0, 1.0])])


@pytest.fixture(scope="session")
def affine_triple():
    A = np.array([[-1.0, -1.0], [1.0, -1.0]])
    offsets = [np.array([1.0, 1.0]), np.array([-1.0, 1.0]),
               np.array([1.0, -1.0])]
    return SwitchedSystem.from_affine([A, A, A], offsets)


@pytest.fixture(scope="session")
def affine_pair_plus_third(affine_pair):
    """The affine pair and a third subsystem x2, -0.1*x1 - 2*x2 + 1."""
    third = SwitchedSystem.from_affine(linear_pair_matrices(0.1)[:1],
                                       [np.array([0.0, 1.0])])
    return SwitchedSystem(2, affine_pair.fields + third.fields)


@pytest.fixture(scope="session")
def affine_pair_certificate(affine_pair):
    """The certificate of escalate on the affine pair at beta = 3.3."""
    from switchcert.certify import CertificationQuery, escalate
    return escalate(affine_pair, CertificationQuery(
        ell=2, delta=1.0, degree=4, beta=3.3)).certificate


@pytest.fixture(scope="session")
def cubic_3d_pair():
    from switchcert.cli import load_system
    return load_system(str(SYSTEMS / "cubic_3d_pair.sys"))


@pytest.fixture(scope="session")
def vdp_pair():
    from switchcert.cli import load_system
    return load_system(str(SYSTEMS / "vdp_relay_pair.sys"))


@pytest.fixture(scope="session")
def published_v_affine_pair():
    return parse_expression(V_AFFINE_PAIR, 2)


@pytest.fixture(scope="session")
def published_v_affine_triple():
    return parse_expression(V_AFFINE_TRIPLE, 2)


@pytest.fixture(scope="session")
def published_v_linear_pair():
    return parse_expression(V_LINEAR_PAIR_DEG12, 2)
