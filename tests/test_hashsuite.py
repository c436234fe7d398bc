import hashlib

import pytest

from conftest import mat, unit_element
from lgpk.bitstrings import BitStr
from lgpk.errors import EncodingError, ParameterError
from lgpk.hashsuite import (
    DOMAIN_H1,
    DOMAIN_H2,
    DOMAIN_H3,
    h1,
    h2,
    h3,
    xof_bits,
)
from lgpk.matfield import GroupElement, ParameterSet

CFG = ParameterSet(kappa1=8, n=2, p=251, kappa2=64, kappa3=8, kappa4=8, msg_len=128)
P255 = 2**255 - 19


def test_config_validation():
    with pytest.raises(ParameterError):
        ParameterSet(kappa1=8, n=2, p=251, kappa2=0, kappa3=8, kappa4=8, msg_len=128)


def test_output_lengths():
    sigma = BitStr.from_int(0, CFG.kappa2)
    m = BitStr.from_int(0, CFG.msg_len)
    r_s, r_t = h1(CFG, sigma, m)
    assert r_s < 2**CFG.kappa3 and r_t < 2**CFG.kappa4
    assert h2(CFG, unit_element(2, 7)).nbits == CFG.kappa2
    assert h3(CFG, sigma).nbits == CFG.msg_len


def test_determinism():
    sigma = BitStr.from_int(12345, 64)
    m = BitStr.from_int(99, 128)
    assert h1(CFG, sigma, m) == h1(CFG, sigma, m)
    assert h3(CFG, sigma) == h3(CFG, sigma)


def test_h1_rejects_wrong_lengths():
    with pytest.raises(EncodingError):
        h1(CFG, BitStr.from_int(0, 63), BitStr.from_int(0, 128))
    with pytest.raises(EncodingError):
        h1(CFG, BitStr.from_int(0, 64), BitStr.from_int(0, 127))
    with pytest.raises(EncodingError):
        h3(CFG, BitStr.from_int(0, 65))


def test_h1_split_reassembles_to_joint_stream():
    cfg = ParameterSet(kappa1=11, n=2, p=2039, kappa2=64, kappa3=5, kappa4=11, msg_len=32)
    sigma = BitStr.from_int(7, 64)
    m = BitStr.from_int(3, 32)
    r_s, r_t = h1(cfg, sigma, m)
    joint = xof_bits(DOMAIN_H1, sigma.data + m.data, 16)
    assert r_s | r_t << cfg.kappa3 == joint.to_int()


def test_h1_kat_pinned():
    # reference XOF oracle (raw hashlib) run once; values frozen
    cfg = ParameterSet(kappa1=255, n=2, p=P255, kappa2=128, kappa3=128, kappa4=128, msg_len=128)
    sigma = BitStr.from_int(0, 128)
    m = BitStr.from_int(0, 128)
    r_s, r_t = h1(cfg, sigma, m)
    r_s_bytes, r_t_bytes = r_s.to_bytes(16, "little"), r_t.to_bytes(16, "little")
    assert r_s_bytes.hex() == "e9231d84e03125dc53f9d38b55c60a68"
    assert r_t_bytes.hex() == "38d9c198005272c5569dedab70456559"
    oracle = hashlib.shake_256(bytes([0x01, 0x01]) + bytes(32)).digest(32)
    assert r_s_bytes + r_t_bytes == oracle


def test_h2_kat_pinned():
    g = unit_element(2, 7)
    assert h2(CFG, g).hex() == "61d862e0296c2ade"


def test_h3_kat_pinned():
    out = h3(CFG, BitStr.from_int(0, 64))
    assert out.hex() == "1b317b3b2769067e57e57712828be4e2"
    oracle = hashlib.shake_256(bytes([0x03, 0x01]) + bytes(8)).digest(16)
    assert out.data == oracle


def test_domain_separation():
    assert len({DOMAIN_H1, DOMAIN_H2, DOMAIN_H3}) == 3
    payload = b"same payload"
    outs = {xof_bits(d, payload, 64).hex() for d in (DOMAIN_H1, DOMAIN_H2, DOMAIN_H3)}
    assert len(outs) == 3


def test_h2_depends_only_on_matrix_value():
    a = GroupElement(2, 7, ((1, 2), (0, 1)))
    b = mat([[8, 9], [7, 8]], 7, GroupElement)  # same residues
    assert a == b
    assert h2(CFG, a) == h2(CFG, b)


def test_h2_sensitive_to_single_entry():
    a = GroupElement(2, 7, ((1, 2), (0, 1)))
    b = GroupElement(2, 7, ((1, 3), (0, 1)))
    assert h2(CFG, a) != h2(CFG, b)


def test_xof_masks_tail_bits():
    out = xof_bits(DOMAIN_H3, b"x", 13)
    assert out.nbits == 13 and out.to_int() < 1 << 13
