"""Golden CLI output: the sha256 of stdout and the exit code of `mpp` queries
on ex52 (also with a rational marking), the double star, grids from 2x3 to
4x5, a non-tame chain, a chain whose every O_t is a point and a poset whose
covector search meets empty partial cells, pinned so that a
refactor of how the family's objects are derived cannot change an answer
unnoticed.

Each query runs `cli.main` in-process.  For `subdivision --off` the hash of
the OFF file is pinned too.  After an intended output change, the new
tuples to pin are in the failure messages.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import pytest

from mpp import cli
from mpp.jsonio import poset_to_json
from mpp.poset import MarkedPoset

from conftest import (make_double_star, make_ex52, make_ex52_rational, make_grid,
                      make_marked_interior)


def make_constant_interval() -> MarkedPoset:
    """a < p < b < t with lambda(a) = lambda(b): not tame."""
    return MarkedPoset(("a", "p", "b", "t"),
                       frozenset([("a", "p"), ("p", "b"), ("b", "t")]),
                       {"a": 1, "b": 1, "t": 2})


def make_point() -> MarkedPoset:
    """a < p < b with lambda(a) = lambda(b): every O_t is the point x_p = 2."""
    return MarkedPoset(("a", "p", "b"), frozenset([("a", "p"), ("p", "b")]),
                       {"a": 2, "b": 2})


POSETS = {"ex52": make_ex52, "dstar": make_double_star, "grid2x3": lambda: make_grid(2, 3),
          "nontame": make_constant_interval, "grid2x4": lambda: make_grid(2, 4),
          "ex52q": make_ex52_rational, "point": make_point,
          "interior": make_marked_interior, "grid3x3": lambda: make_grid(3, 3),
          "grid3x4": lambda: make_grid(3, 4), "grid3x5": lambda: make_grid(3, 5),
          "grid4x4": lambda: make_grid(4, 4), "grid4x5": lambda: make_grid(4, 5)}

# per poset: interior t, a face point of it (the degeneration target), and two
# partitions with C of the first inside C of the second
INPUTS = {
    "ex52": {"t": {"p": "1/3", "q": "1/2", "r": "2/3"},
             "face": {"p": "1", "q": "1/2", "r": "0"},
             "part_a": {"C": ["p"], "O": ["q", "r"]},
             "part_b": {"C": ["p", "r"], "O": ["q"]}},
    "dstar": {"t": {"c1": "1/4", "c2": "1/2", "q": "2/3", "d1": "1/3", "d2": "3/4"},
              "face": {"c1": "1/4", "c2": "0", "q": "1", "d1": "1/3", "d2": "3/4"},
              "part_a": {"C": ["c1", "c2", "d1"], "O": ["d2", "q"]},
              "part_b": {"C": ["c1", "c2", "d1", "d2"], "O": ["q"]}},
    "grid2x3": {"t": {"x01": "1/2", "x02": "1/3", "x10": "3/4", "x11": "2/3"},
                "face": {"x01": "0", "x02": "1/3", "x10": "1", "x11": "2/3"},
                "part_a": {"C": ["x11"], "O": ["x01", "x02", "x10"]},
                "part_b": {"C": ["x01", "x11"], "O": ["x02", "x10"]}},
    "nontame": {"t": {"p": "1/2"}},
    "grid2x4": {"t": {"x01": "1/2", "x02": "2/7", "x03": "3/5", "x10": "1/3",
                      "x11": "4/7", "x12": "2/5"},
                "face": {"x01": "0", "x02": "2/7", "x03": "1", "x10": "1/3",
                         "x11": "0", "x12": "2/5"}},
    "ex52q": {"t": {"p": "2/7", "q": "3/5", "r": "4/7"},
              "face": {"p": "2/7", "q": "1", "r": "0"}},
    "point": {"t": {"p": "1/2"}},
    "interior": {},
    "grid3x3": {},
    # vertex denominators differ, so the common denominator of the vertices
    # is not the first entry of every DD ray
    "grid3x4": {"t": {"x01": "1/2", "x02": "1/3", "x03": "2/5", "x10": "3/7",
                      "x11": "1/4", "x12": "2/3", "x13": "4/5", "x20": "5/7",
                      "x21": "3/4", "x22": "1/6"}},
    "grid3x5": {"t": {"x01": "1/2", "x02": "1/3", "x03": "2/5", "x04": "5/8",
                      "x10": "3/7", "x11": "1/4", "x12": "2/3", "x13": "4/5",
                      "x14": "1/9", "x20": "5/7", "x21": "3/4", "x22": "1/6",
                      "x23": "7/8"}},
    "grid4x4": {},
    "grid4x5": {"t": {"x01": "1/2", "x02": "1/3", "x03": "2/5", "x04": "5/8",
                      "x10": "3/7", "x11": "1/4", "x12": "2/3", "x13": "4/5",
                      "x14": "1/9", "x20": "5/7", "x21": "3/4", "x22": "1/6",
                      "x23": "7/8", "x24": "2/9", "x30": "3/5", "x31": "6/7",
                      "x32": "1/8", "x33": "4/9"}},
}

# mode -> argv after the poset path; {t}, {face}, {part_a}, {part_b}, {off}
# stand for files written per poset
MODES = {
    "hrep": ["hrep"],
    "hrep-t": ["hrep", "--t", "{t}"],
    "hrep-t-projected": ["hrep", "--t", "{t}", "--projected"],
    "hrep-partition": ["hrep", "--partition", "{part_a}"],
    "hrep-partition-projected": ["hrep", "--partition", "{part_b}", "--projected"],
    "hrep-irredundant": ["hrep", "--t", "generic", "--irredundant"],
    "hrep-irredundant-t0": ["hrep", "--irredundant"],
    "hrep-irredundant-partition": ["hrep", "--partition", "{part_a}", "--irredundant"],
    "hrep-irredundant-projected": ["hrep", "--t", "{t}", "--projected", "--irredundant"],
    "vertices-dd": ["vertices", "--t", "{t}"],
    "vertices-dd-partition": ["vertices", "--partition", "{part_a}"],
    "vertices-generic": ["vertices", "--t", "generic"],
    "vertices-tropical": ["vertices", "--t", "generic", "--method", "tropical"],
    "fvector": ["fvector", "--t", "generic"],
    "fvector-t0": ["fvector"],
    "fvector-partition": ["fvector", "--partition", "{part_a}"],
    "ehrhart": ["ehrhart", "--partition", "{part_a}"],
    "lattice-points": ["lattice-points", "--partition", "{part_b}"],
    "lattice-points-t0": ["lattice-points"],
    "lattice-points-t": ["lattice-points", "--t", "{t}"],
    "ehrhart-t0": ["ehrhart"],
    "ehrhart-dilations": ["ehrhart", "--dilations", "5"],
    "subdivision": ["subdivision"],
    "subdivision-off": ["subdivision", "--off", "{off}"],
    "degenerate": ["degenerate", "--from-t", "{t}", "--to-t", "{face}"],
    "sweep-ehrhart": ["sweep", "--check", "ehrhart"],
    "sweep-types": ["sweep", "--check", "types"],
    "sweep-domination": ["sweep", "--check", "domination"],
    "sweep-tame": ["sweep", "--check", "tame"],
    "sweep-hibi-li": ["sweep", "--check", "hibi-li"],
    "sweep-conjecture5": ["sweep", "--check", "conjecture5"],
    "tame": ["tame"],
    "hibi-li": ["hibi-li", "--part-a", "{part_a}", "--part-b", "{part_b}"],
}

# (poset, mode) -> (sha256 of stdout, exit code, sha256 of the OFF file or None),
# recorded before the one-pass H-rep builder.  The double star's Ehrhart sweep
# (4 s) is left out; ex52 and grid2x3 cover that mode.
GOLDEN = {
    ('ex52', 'hrep'):
        ('f99dc22296a931cd4569c93bfa140c5eb103cf907ab0bd25bf5438bec6246647', 0, None),
    ('ex52', 'hrep-t-projected'):
        ('dddb199cf56e46e8eb798a5ac3ac7e46736f8007fab545a0784e5ce865bc2ee7', 0, None),
    ('ex52', 'hrep-partition'):
        ('d4033f2bd800e1155034dd71f193607cbea25692a28423037ec2568379b7c907', 0, None),
    ('ex52', 'hrep-partition-projected'):
        ('c6a4d75984f1f3e8c6e6368faf6be12c948a557f1aa0c8923caba4d77aa54467', 0, None),
    ('ex52', 'hrep-irredundant'):
        ('e9985b7b21830a2844b59a81e829d20938245e2ff010c1857af278d6cd027b3c', 0, None),
    ('ex52', 'vertices-dd'):
        ('8ef87e3a6a56362e10025d74707eb0e92a39401334a8eff75ae388f878ea3675', 0, None),
    ('ex52', 'vertices-dd-partition'):
        ('2f958e76ae9acff7d7063a5791c352a765dd391ceb1dd350e768ffc3c3438b90', 0, None),
    ('ex52', 'vertices-tropical'):
        ('bc934e5b55435621391eb412a744a6b6cddcfe1444d5e3d15dc5cd0d123e0b73', 0, None),
    ('ex52', 'fvector'):
        ('49ecdb4476fcef58f18dd76f34647ce3b98bb450b6690beb1d117fa3cbefeba5', 0, None),
    ('ex52', 'ehrhart'):
        ('f837cc247181e0502bcdfdc82378d1d793485778adfb397160dec76686011cb6', 0, None),
    ('ex52', 'lattice-points'):
        ('3477743461a6e56c81e083a72fc4bd25e222f496cbd7c94e2e1489a0fb5f90aa', 0, None),
    ('ex52', 'subdivision'):
        ('7818e06a7a225e623ee83e0d64e1e164b5bc2046121d634d6027a321a13f0920', 0, None),
    ('ex52', 'subdivision-off'):
        ('7818e06a7a225e623ee83e0d64e1e164b5bc2046121d634d6027a321a13f0920', 0, 'a401645d7c15cbb586537c8403e3f449d77a3eb9bf54dccefd69f72206499a90'),
    ('ex52', 'degenerate'):
        ('53110c16ea213ae9d75425ab23a745bb16cb0fdd1defa1382fbbae5ac3b1529e', 0, None),
    ('ex52', 'sweep-ehrhart'):
        ('f6b4c4657d734fab44cdc28bbc1bb89545f828598105e6cb29f2b89668e0e95c', 0, None),
    ('ex52', 'sweep-types'):
        ('10e6d107b52cbc74f969598faf900206887b91dd2271237526d1dada3d9456f7', 0, None),
    ('ex52', 'sweep-domination'):
        ('bb591e601823a93a1c3f0c157ed7ca7155fa1f04b74c934adfa921595d53f464', 0, None),
    ('ex52', 'sweep-tame'):
        ('45b0f56a649a624e0898a4f568225ba7c76eb1fd59bb5b282545f5424a3dcae9', 0, None),
    ('ex52', 'sweep-hibi-li'):
        ('a40c0f90a815871e55fd0c9ea6c260d36594844320ebcfb87678384836a0cc8e', 0, None),
    ('ex52', 'sweep-conjecture5'):
        ('d8a1bdc5871fa197506a52c7a1fc8ac1d2c6ba6bc417dbeda0988062802c1497', 0, None),
    ('ex52', 'tame'):
        ('46277c5793529c4157dbded7ee2ed974e0adc5cf1a29ae2aad1ada3fedf71b3b', 0, None),
    ('ex52', 'hibi-li'):
        ('176eb2f15d04affe70f2ec1331fa472412d40102280c57675d9cc9c02adb971e', 0, None),
    ('dstar', 'hrep'):
        ('1660e7ede42431d28ab0c877cb5402d8ded93970fb477e929e4476e0c8673ba4', 0, None),
    ('dstar', 'hrep-t-projected'):
        ('804719dfc00bcedf95b59b06653e4106e5935a260b73ffca5244b023281b1842', 0, None),
    ('dstar', 'hrep-partition'):
        ('b1135b6897accb3f4e04e68dcfcbe952a0b01aabfa4e01798fbc98387c3c713c', 0, None),
    ('dstar', 'hrep-partition-projected'):
        ('d80e425249008d546331d5557d746b59f1ae1f0a6d2c7b4fc2d17c17508c0a7d', 0, None),
    ('dstar', 'hrep-irredundant'):
        ('fc7f540aadfd400a212e320cf1d382d110257289b76ed69bcd9f564a31944430', 0, None),
    ('dstar', 'vertices-dd'):
        ('a2c13b7cc09c1c96299f12a2e124ec04a12d9cac425e5cc8f93f35552060d4d4', 0, None),
    ('dstar', 'vertices-dd-partition'):
        ('0206fdf8b0d0d229c5aea8f45880dd59feceb4ba5c24b33f5ff2ec85b7827aff', 0, None),
    ('dstar', 'vertices-tropical'):
        ('e6ca9fce7164707a3fc4938ef745aee1da0a1bb8643a28368868a1e1a991d1d2', 0, None),
    ('dstar', 'fvector'):
        ('2d8263fe416269ad6f5dda5e2cbea84a4e84b5f9e16fdc940ff9a5f874304fd1', 0, None),
    ('dstar', 'ehrhart'):
        ('c05236f7c5c79c52ead6be67e0ced9576f7b7a56a2cea77b90acd8064f936c0e', 0, None),
    ('dstar', 'lattice-points'):
        ('5d7c51f577882fffb92daafb7eaeea49e86c9c1e9c5cf0bfada903fa1d21b058', 0, None),
    ('dstar', 'subdivision'):
        ('2d610779200b81a096783440bd0162ba3a0aa19b1a9b1d951c67bad85f228820', 0, None),
    ('dstar', 'subdivision-off'):
        ('6eb7ddedf4cc509437cf41a0e769f29ee95cb4404847d765d9224c8ced767589', 2, None),
    ('dstar', 'degenerate'):
        ('39adb9ded1eb228d0e59d55e1991773dcb9097a233c98c22e7f707e79122d7f2', 0, None),
    ('dstar', 'sweep-types'):
        ('19d56a516a787cf50470a548ec4c56ebb426a4025fd2cd1ad910b664a9c720b6', 0, None),
    ('dstar', 'sweep-domination'):
        ('de81ac6892a6dece8bb7dc346306576372c3dd5637a53691b63a604441d45225', 0, None),
    ('dstar', 'sweep-tame'):
        ('45b0f56a649a624e0898a4f568225ba7c76eb1fd59bb5b282545f5424a3dcae9', 0, None),
    ('dstar', 'sweep-hibi-li'):
        ('e8e68fb190b0e7718421992ecb30232dc605bab4db72c7b8c22620a6ab82cb1e', 0, None),
    ('dstar', 'sweep-conjecture5'):
        ('6f750dba2da39891a52850b1267f8443699b9f601bb35e42e74132f291ab5981', 0, None),
    ('dstar', 'tame'):
        ('46277c5793529c4157dbded7ee2ed974e0adc5cf1a29ae2aad1ada3fedf71b3b', 0, None),
    ('dstar', 'hibi-li'):
        ('ad0a4d3683af9da294eb44ba85ecc736ef8c83fb078fc1765a7f3a60cef15be3', 0, None),
    ('grid2x3', 'hrep'):
        ('a8e79ab492c8b8a70bd2de9c6c113d84734c1e408ab10ef5709150220423d652', 0, None),
    ('grid2x3', 'hrep-t-projected'):
        ('751bc139087f83a137bf77bcee95d6a174a036918a76d0179da3031c4ddecd3a', 0, None),
    ('grid2x3', 'hrep-partition'):
        ('a96223717600dc5919582eba8194c4e8f51f312292f48f48f94215f378e1d543', 0, None),
    ('grid2x3', 'hrep-partition-projected'):
        ('703e3943c57bd08832967d61345ee7f65e2df8a5394c97b6080ad5d1f0a35629', 0, None),
    ('grid2x3', 'hrep-irredundant'):
        ('e633c1b154bf08b09ea8ff33cfb4373fa33713c208bde33aaaf33e991ad5ff8d', 0, None),
    ('grid2x3', 'vertices-dd'):
        ('9d0062da86d02aae1b291fa2b1792228c6abf4080d173d6d6777ecc058c3e9c5', 0, None),
    ('grid2x3', 'vertices-dd-partition'):
        ('48d93223e9228f9989320b4df06515af879715bd2dbac48f8a6fc4b0b04a95ca', 0, None),
    ('grid2x3', 'vertices-tropical'):
        ('9a89240afd548824536ae0711e2016af026a22daec93addc185fbfc1575f72e6', 0, None),
    ('grid2x3', 'fvector'):
        ('3c4752a2acdbc35af24c0049d3357f2d4ea5555b05eeb04b9537c2d13e93d7ce', 0, None),
    ('grid2x3', 'ehrhart'):
        ('6cecf405f4ad24a1df46b8d05624c1f426a609f0b017dbca58b27f9f4105bf0e', 0, None),
    ('grid2x3', 'lattice-points'):
        ('b31724388378c594d36fec995378751ef41d0483ddb9c6d96d7dd62fecdedebf', 0, None),
    ('grid2x3', 'subdivision'):
        ('8641e63038c01880ef9a7520808d74c9d1a6c56284ed06cca5400f9534c37a28', 0, None),
    ('grid2x3', 'subdivision-off'):
        ('6eb7ddedf4cc509437cf41a0e769f29ee95cb4404847d765d9224c8ced767589', 2, None),
    ('grid2x3', 'degenerate'):
        ('6ff6b6990e208b43709ae439767db495a75fb0d3988bccb65930ce924e239909', 0, None),
    ('grid2x3', 'sweep-ehrhart'):
        ('d685e7a3bab09383daeb89bb9c7ea8b0f7418b9a671ef2a72ddd60eb24659a21', 0, None),
    ('grid2x3', 'sweep-types'):
        ('fc451f3ee3c658e25977fb1d6bacd15222850c491c0551c472342e3be9debbc4', 0, None),
    ('grid2x3', 'sweep-domination'):
        ('25f92f4734582b1bb63daa9a988f70c3e8b7f8018b66aa3d3491b85a485b691f', 0, None),
    ('grid2x3', 'sweep-tame'):
        ('45b0f56a649a624e0898a4f568225ba7c76eb1fd59bb5b282545f5424a3dcae9', 0, None),
    ('grid2x3', 'sweep-hibi-li'):
        ('d6bae973652931a1c65a1cdbb5d656b10d751d707b421f30efd0f87da12313ac', 0, None),
    ('grid2x3', 'sweep-conjecture5'):
        ('60b2ad83992e23722acc7bc72404e02436ac441887a750fa423f4576f7800865', 0, None),
    ('grid2x3', 'tame'):
        ('46277c5793529c4157dbded7ee2ed974e0adc5cf1a29ae2aad1ada3fedf71b3b', 0, None),
    ('grid2x3', 'hibi-li'):
        ('4e45b38e510006b4a6b7555d540fffc3d153c17e47368c41dc8c22033bceb263', 0, None),
    # recorded before redundancy and tameness moved from the LP to DD incidences
    ('ex52', 'hrep-irredundant-t0'):
        ('0635cbfd68a488ae2493636291c8c75d6c6030d80b0d4a985794e55b8dd94d6f', 0, None),
    ('ex52', 'hrep-irredundant-partition'):
        ('d4033f2bd800e1155034dd71f193607cbea25692a28423037ec2568379b7c907', 0, None),
    ('ex52', 'hrep-irredundant-projected'):
        ('dddb199cf56e46e8eb798a5ac3ac7e46736f8007fab545a0784e5ce865bc2ee7', 0, None),
    ('dstar', 'hrep-irredundant-t0'):
        ('32863f0cea30088b6b0445d659fde42c68c60a0b9748980e4e08ea1178c21971', 0, None),
    ('dstar', 'hrep-irredundant-partition'):
        ('b1135b6897accb3f4e04e68dcfcbe952a0b01aabfa4e01798fbc98387c3c713c', 0, None),
    ('dstar', 'hrep-irredundant-projected'):
        ('804719dfc00bcedf95b59b06653e4106e5935a260b73ffca5244b023281b1842', 0, None),
    ('grid2x3', 'hrep-irredundant-t0'):
        ('925dba912481732975277334af94693927196f951d8d13c8e698ee841668bb59', 0, None),
    ('grid2x3', 'hrep-irredundant-partition'):
        ('a96223717600dc5919582eba8194c4e8f51f312292f48f48f94215f378e1d543', 0, None),
    ('grid2x3', 'hrep-irredundant-projected'):
        ('751bc139087f83a137bf77bcee95d6a174a036918a76d0179da3031c4ddecd3a', 0, None),
    ('nontame', 'tame'):
        ('52611cdb2666e4ab5bfcaa1fe453a8d5c117f9e39057cee43e950a659bd0ecec', 0, None),
    ('nontame', 'sweep-tame'):
        ('4ae2ad29da941d6426d7c201bf2d52519411c6d0567c07709697d03e94dd39bd', 0, None),
    ('nontame', 'sweep-hibi-li'):
        ('836cb057daa1eb78ec965d8db0864496c33f827afe71520d1896b174f13d2140', 0, None),
    ('nontame', 'hrep-irredundant-t0'):
        ('22727d4c8ed76901e17813daa6df33abe6211d9720a708ff4f3e7051f518cdf7', 0, None),
    ('nontame', 'hrep-irredundant-projected'):
        ('817f24b40bddb801fc5b969493ea1caeb1661bbc93bddc6823d6387e9b2d75ae', 0, None),
    # recorded before the degeneration layer moved to integers; ex52q is ex52
    # with a rational marking and t mixing sevenths and fifths
    ('grid2x4', 'degenerate'):
        ('ed7cab480cf0e62119ff1e812732fe61ae88b60579f1da94c1897e8c1c2c472e', 0, None),
    ('grid2x4', 'sweep-types'):
        ('7018c73d554997bcb0718f7dd5535bb52f614a1b08e21fee64cdeb2a70989f3c', 0, None),
    ('ex52q', 'degenerate'):
        ('f735ce52c3b873ba82c065b874a813a4168859d524fe454388922e48bdbb1b04', 0, None),
    # recorded before f-vectors and type sweeps moved to the counting walk;
    # every O_t of the point poset is a single point
    ('ex52', 'fvector-t0'):
        ('9c23c15f988d84cddfeb8bdf040cc5833f966729499862fa38a19606ce2d57dc', 0, None),
    ('ex52', 'fvector-partition'):
        ('cbc5695e0e6798dfe3482dc5fef597b511ff33f3911dd07c4aae5d1b26717761', 0, None),
    ('dstar', 'fvector-t0'):
        ('a49f789c9dc621c8cf587d168b7aafe531ef2535007a74113702714f678afbd2', 0, None),
    ('dstar', 'fvector-partition'):
        ('9fa2ad73b9c81d2a1357908a4bf683c1e7a01cbbdc300e3ea085679874237cca', 0, None),
    ('grid2x3', 'fvector-t0'):
        ('379deaee04ac3dfb5eb881b64e3b9b5888b0f82c4559993a0310ea7039702f0c', 0, None),
    ('grid2x3', 'fvector-partition'):
        ('8654c7d198b03f6623f5a5dad9e26001e2d635bd955659d5f370dec5f350abbb', 0, None),
    ('point', 'fvector-t0'):
        ('865d2c16a1cfe655831cd72f6bb83fd8b83b51fd3e204de8df4bcd48dd6d4b89', 0, None),
    ('point', 'fvector'):
        ('8d33a15da896308fa407e02eb0a103844521f38a57bdda8c3442ced4e757560e', 0, None),
    ('point', 'sweep-types'):
        ('06671f39801d2fc82fa607c31458c05b83d62f93805dd445e601ecbba886742e', 0, None),
    ('point', 'sweep-hibi-li'):
        ('836cb057daa1eb78ec965d8db0864496c33f827afe71520d1896b174f13d2140', 0, None),
    # recorded before lattice points were counted on integer rows with pinned
    # coordinates folded: grid2x4 at t=0 pins its first and last coordinates,
    # ex52 at interior t has rational box bounds, ex52q pins its marked
    # coordinates at non-integers (no point; ehrhart exits 3), and every
    # coordinate of the point poset is pinned
    ('grid2x4', 'lattice-points-t0'):
        ('41d315b9c6a80e6fe923a3d22085fa3925265d81ccfbec502bd4f8ac24725a93', 0, None),
    ('ex52', 'lattice-points-t'):
        ('9280d67d4e497c08f6881ad791e23746c777211b9f9913a3f0bde2fb55847459', 0, None),
    ('ex52q', 'lattice-points-t0'):
        ('2441296a4ac4f58c4c2c23755d709b7c7187440e13c1dab8dd8db33ef5915b18', 0, None),
    ('ex52q', 'lattice-points-t'):
        ('8907d7ce4609af2c9548a7f3f89fdd09afb479dc7c9d82c7ced696c6a6322fc1', 0, None),
    # re-pinned when the error's non-integral vertex became rational strings:
    # "(0, 1/2, 3/4, ...)" instead of "(Fraction(0, 1), Fraction(1, 2), ...)"
    ('ex52q', 'ehrhart-t0'):
        ('a72c365359e7a8233c689ecf920044a9cda615baa3dedd5a8ec2c17aec708553', 3, None),
    ('point', 'lattice-points-t0'):
        ('409ceeb32a733cba6e73e25619433e506c9007efdf98993e547c4a562f40d03b', 0, None),
    ('point', 'ehrhart-t0'):
        ('b0dca235935f915c8f6d6934fae4afd6fc70ba5e736e5260a91739c0e7460f61', 0, None),
    ('ex52', 'ehrhart-dilations'):
        ('d07326ab226f49d48db440bff3164549b3693fe5c9602105f4a20de465abe7f1', 0, None),
    # recorded when O_0 came to be counted over the order ideals, which
    # answers where the box-gated enumeration refused; every count was
    # checked against the multichain count of bench/oracles.py
    ('grid3x3', 'ehrhart-t0'):
        ('e6f3fd1a8aeb5342b35c07571185b93b98d764812afc7214ce00d595e3239cbe', 0, None),
    ('grid4x4', 'ehrhart-t0'):
        ('0fb2ee61f0ebb59b90f2373796dcfeb7762aad3f5e4e2be6f0c10ad05687f568', 0, None),
    # recorded before the covector search was pruned by double description
    # instead of the simplex; no other golden poset has an empty partial cell
    ('interior', 'subdivision'):
        ('5ee11448e6dca4d4492bf3b5c33952ba5bd68f74eb860a619209cf616fab3ef1', 0, None),
    ('interior', 'vertices-tropical'):
        ('222cb19d00837d6c8bd183ab74b4b540c05296454fffae9635557e46346400d2', 0, None),
    # recorded before the V-representation moved to integer rows over one
    # common denominator: vertex order, cell order and the subdivision's
    # cell keys all change representation (grid2x4 'degenerate' above covers
    # the face maps)
    ('grid3x3', 'subdivision'):
        ('c0fa2d423923d1021ebe15ea79578eef2c3790ef9257b751d877dc51339aad0c', 0, None),
    ('grid3x3', 'vertices-tropical'):
        ('e9f291d71458185405e212355f4653d21ae22486a7a7118c37f54ddcc7962e50', 0, None),
    ('grid3x4', 'vertices-dd'):
        ('519daf9046481fce361074341310d966e59d4c4b104967b8788c18902e467588', 0, None),
    # recorded before the H-rep rows were built as integer rows: a rational
    # marking (ex52q) in the full space, at interior t and irredundant, and
    # grid3x4 at a t with denominators 2 to 7
    ('ex52q', 'hrep'):
        ('06480f4d1c1959f0b51018f4dc6d2a75c8972e6ea06b737f0b062fa30afeb6ab', 0, None),
    ('ex52q', 'hrep-t'):
        ('1e6a316a59ab596a62923780d98bf08c13cdb1063afe14c1c226847699dfb362', 0, None),
    ('ex52q', 'hrep-t-projected'):
        ('1e2a6838035cf6b2846f9a1bb5eab5a3a8430bc2bc687e038d0642af53924fe0', 0, None),
    ('ex52q', 'hrep-irredundant'):
        ('aed70970954920429fc358b1900830ffe25645ccd0288496e772eecf602621e9', 0, None),
    ('grid3x4', 'hrep-t'):
        ('5eb630dd124addcfa7fa7fd94af4d2453f90ae0dd652d9f030ea330be972da61', 0, None),
    ('grid3x4', 'hrep-t-projected'):
        ('ec012bd2024b36513c0e9e5c95f7420f2afbb9858a2092bb0da78a2ae6e7acf2', 0, None),
    # recorded before double description inserted the widest rows first:
    # vertices at generic t on grid4x4 and at interior t on grid3x5 and
    # grid4x5.  In lexicographic order DD on grid4x5 had not finished after
    # 15 minutes, so its hash was recorded with the vertex set taken from
    # the transferred tropical-subdivision vertices (tropical._transferred),
    # which reproduce the grid3x4 and grid3x5 hashes
    ('grid4x4', 'vertices-generic'):
        ('055f9b25071e860934d4bee1f81c26711b50dfe6855323aef4c4c6fec4c54fc0', 0, None),
    ('grid3x5', 'vertices-dd'):
        ('b37bb4a0968dccfd5f3cc07a13ea7e2c1b29a1f6dee199dcfc0de9ce29436410', 0, None),
    ('grid4x5', 'vertices-dd'):
        ('c6556ad84a98163b9c7ce932ac2b291453fde6689c645c20de13c321f258a588', 0, None),
    # recorded before the types sweep kept one sample per distinct H-rep for
    # all its hypercube faces; grid3x3 is the golden poset whose faces share
    # the most samples
    ('grid3x3', 'sweep-types'):
        ('bc1daac773da49364be359165759fe5fa8c36f4064fe812f1ca9c1002f993001', 0, None),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_golden(poset_key: str, mode: str, tmp_path) -> tuple[str, int, str | None]:
    files = {"poset": poset_to_json(POSETS[poset_key]())}
    for name, value in INPUTS[poset_key].items():
        files[name] = {"t": value} if name in ("t", "face") else value
    paths = {}
    for name, data in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    paths["off"] = str(tmp_path / "out.off")
    argv = [MODES[mode][0], paths["poset"]] + [a.format(**paths) for a in MODES[mode][1:]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    off = None
    if os.path.exists(paths["off"]):
        with open(paths["off"], "rb") as fh:
            off = _sha(fh.read())
    return _sha(out.getvalue().encode()), code, off


CASES = list(GOLDEN)


@pytest.mark.parametrize("poset_key,mode", CASES, ids=[f"{p}-{m}" for p, m in CASES])
def test_golden_cli_output(poset_key, mode, tmp_path):
    assert run_golden(poset_key, mode, tmp_path) == GOLDEN[(poset_key, mode)]
