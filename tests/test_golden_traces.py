"""Golden trace digests: performance work must not move a single trace byte.

Each case runs one engine configuration on a small fixed system with a trace
file and compares the file's SHA-256 with a digest recorded before the hot
path was optimized. The trace holds every round record, every solve event
and the final basis, so an equal digest means the same run. A change that
means to alter behaviour must say so and re-record the digests; a speed-up
never may.
"""

import hashlib
import itertools
import random

import pytest

from midgb import BenchSpec, EngineConfig, PolyRing, gen_system, groebner_basis


def planted_mq(n, seed):
    """n quadratic GF(2) equations in n variables with a planted zero."""
    rng = random.Random(seed)
    ring = PolyRing(2, [f"x{i}" for i in range(1, n + 1)], "grevlex")
    point = [rng.randrange(2) for _ in range(n)]
    polys = []
    for _ in range(n):
        pairs, value = [], 0
        for i in range(n):
            for j in range(i, n):  # j == i is the linear term x_i
                if rng.randrange(2):
                    mono = [0] * n
                    mono[i] += 1
                    if j != i:
                        mono[j] += 1
                    pairs.append((tuple(mono), 1))
                    value ^= point[i] & point[j]
        pairs.append(((0,) * n, value))
        polys.append(ring.poly(pairs))
    return ring, polys


SYSTEMS = {
    "mq6-0": lambda: planted_mq(6, 0),
    "mq6-1": lambda: planted_mq(6, 1),
    "mq6-2": lambda: planted_mq(6, 2),
    "eco5-gf3": lambda: gen_system(BenchSpec("eco", 5, 3)),
    "cyclic5-gf3": lambda: gen_system(BenchSpec("cyclic", 5, 3)),
}

CONFIGS = list(
    itertools.product(("f4", "buchberger", "incremental"), ("grevlex", "lex"), (True, False))
)

# (system, engine, order, middle_solving) -> SHA-256 of the trace file
GOLDEN = {
    ("cyclic5-gf3", "f4", "grevlex", True):
        "2db46e8456e3b900047de688aade8013202e3bcc6595439837b9dc45aa3dbe34",
    ("cyclic5-gf3", "f4", "grevlex", False):
        "7c1cbb32626a94eeee5d549bc106ec02cc818187af817bd19303aeac270e6a62",
    ("cyclic5-gf3", "f4", "lex", True):
        "a6c0ad787cab1854f4e2efdf3c313a96f188a4f1d87c6b5bdf8f54613bdb66fc",
    ("cyclic5-gf3", "f4", "lex", False):
        "accd3ac0f8308e88dd13ca610ea37a08d77327d49b9df5b6f5b5e153028106dd",
    ("cyclic5-gf3", "buchberger", "grevlex", True):
        "f1fa41e4793100df4a6a254e3026a144e8e2d44985a2f2b1c097c5678f99655d",
    ("cyclic5-gf3", "buchberger", "grevlex", False):
        "468a7043538aab8018bbd60f5b6facff3dd46c0e5db7dc9f26f433f620789f43",
    ("cyclic5-gf3", "buchberger", "lex", True):
        "d152571bc4348dba11c53cf36c16ae16f7a8d4c22c0dac83b33378a05371c67b",
    ("cyclic5-gf3", "buchberger", "lex", False):
        "8c4f434967577cf86b6b5b82b86793659d66b9763aef0eae6e08b51ba608056b",
    ("cyclic5-gf3", "incremental", "grevlex", True):
        "be2cd3319c289fc4e4a2ab640b5a401dc8877358f2dbab7e321dde2c81fd4576",
    ("cyclic5-gf3", "incremental", "grevlex", False):
        "2a0dc30838332611f80eaf89b3705958bdba9eb084b80427110c2fdde0680a8f",
    ("cyclic5-gf3", "incremental", "lex", True):
        "f00107c91d6f421e329dba23f5164a714749681fe2b3bc1fcd812055823daf3e",
    ("cyclic5-gf3", "incremental", "lex", False):
        "e72f7d9c8f7b4579b873290b22ad7ddfd6b8dcd678da82512f774ae556bed428",
    ("eco5-gf3", "f4", "grevlex", True):
        "8d706cc41e34511b24485e4d650f3457de20583bdeb75428e742b9159f3556c6",
    ("eco5-gf3", "f4", "grevlex", False):
        "6d808f9274e18066e4c406024a4a1576ce84474ecddd39b31056742853fd2a1a",
    ("eco5-gf3", "f4", "lex", True):
        "16931e6ab5d6c3502de509d7d6331df56f1f9de770d7db4967c3efc0007fa68b",
    ("eco5-gf3", "f4", "lex", False):
        "91aabb3db49e57fa7fcf6202f7fa537abb824a6616a7ece4a9dd1d5ab5260f7f",
    ("eco5-gf3", "buchberger", "grevlex", True):
        "840536f01d0f1b44facf4b5463d71acc2f31a400e5a76ffbfbe4d21f128b9d8f",
    ("eco5-gf3", "buchberger", "grevlex", False):
        "f7235afea612ea79891edca6b606dbb3e141f54f9c7c6dde752f0f160ffde00f",
    ("eco5-gf3", "buchberger", "lex", True):
        "82cfba9fb1698c73e366dba5e281e27a435972f2702ad8b4647b0bba9890cdd5",
    ("eco5-gf3", "buchberger", "lex", False):
        "ec8f9af799cf8ded9c7b5cb421739cddcf347b5dd609f81eef889fc1f8ad5807",
    ("eco5-gf3", "incremental", "grevlex", True):
        "86de19ecfa3499d892e1ca80a89e893f5523f30e6569a9c2fe7b681e067ffd54",
    ("eco5-gf3", "incremental", "grevlex", False):
        "ee57cef231fa7819845104f2da0903d990bcff64845eb3656ebf0676886bae78",
    ("eco5-gf3", "incremental", "lex", True):
        "762903451ee13fd5ffef0c2b827b7532e52f3f35d0fbf8270de589bad56b8555",
    ("eco5-gf3", "incremental", "lex", False):
        "dbeecaafffd33069cfe3145f57ac93083bcdb59cb2868678c0b12478b0adff44",
    ("mq6-0", "f4", "grevlex", True):
        "a531500525fcfb81f2ca92eff9ca319637a8e3d29bdd38170a5e4400c2e77825",
    ("mq6-0", "f4", "grevlex", False):
        "9bfa6847ce852a03f057c0f276fb5e5c15a3be2b2be56e7681e36eb1c0eba3cf",
    ("mq6-0", "f4", "lex", True):
        "8772f15617af03d73d88852d5edb031125723b43adede8f945d6a01c0c2922f7",
    ("mq6-0", "f4", "lex", False):
        "b0f560892c4f2eefa250405a263244deabcb8a3c2d63d687ee25b556d85aad2c",
    ("mq6-0", "buchberger", "grevlex", True):
        "18d4af90997e6322401cd4fa8c1e7d1ec369d307ed11e10daa7c6ad477c59dda",
    ("mq6-0", "buchberger", "grevlex", False):
        "50b026e8a76b4b8524e8bff85de5c87b9d13c3124e80d34ccfaed8610f6d14b7",
    ("mq6-0", "buchberger", "lex", True):
        "a4becdcb11c120febf8a1b799867888de937f15b2909044e94cf0af6e211b5a7",
    ("mq6-0", "buchberger", "lex", False):
        "71a02f9879ac10fba52ed2525c240cd35b4752bb0d7b8a55f9fd6b8429322f9f",
    ("mq6-0", "incremental", "grevlex", True):
        "395307a660acd52b1c1f9ed23691c871e69f17d0a1ea9953ed5b41f455147459",
    ("mq6-0", "incremental", "grevlex", False):
        "7e9a0f82b68a5d5b1e07dcf9cf4b418f3afb947ac5903ff9abdc9ffab4ec0da3",
    ("mq6-0", "incremental", "lex", True):
        "0712687aa3f5ee58fa623fa147cfd8a5346da64ba58d19b486321e9cc2bb1f5b",
    ("mq6-0", "incremental", "lex", False):
        "2a2d5ea63e7ee87686f8b5877110057625d67ff12720571a288b16804b2d8416",
    ("mq6-1", "f4", "grevlex", True):
        "13fe45853ca8092196657b8849717edf6e29173b33b37a9adce69b22691b5bac",
    ("mq6-1", "f4", "grevlex", False):
        "4056e7223d3aa84016171eec8145542ca7d06b14a384ae01b3c3b0b6851b2c6f",
    ("mq6-1", "f4", "lex", True):
        "4d9b3fc08ac2697b2c2a2da20eaccc9d89bff6f66a0b668dc514872792c68bce",
    ("mq6-1", "f4", "lex", False):
        "1cdf32addcea64657a6b7464e295f6531cb352744f25ae88fd706cfa610203fa",
    ("mq6-1", "buchberger", "grevlex", True):
        "f85c37576a2f445b04d7ff99839259bd2bbe96c6ea171b7e775b7042f23ec449",
    ("mq6-1", "buchberger", "grevlex", False):
        "124b515453dfe886684f19a26e5800ceda792a907f7388affbd9623f19e21e9c",
    ("mq6-1", "buchberger", "lex", True):
        "ce55c789cc3e3741a248dc894d4a363359ebafd6789669a6503c9ca50c63a52c",
    ("mq6-1", "buchberger", "lex", False):
        "38eb19f5ae82e08e64a292560d095998f19adfb83731464dade716a9db2cd8f4",
    ("mq6-1", "incremental", "grevlex", True):
        "1f15f8db19a987762c292be1877bc1146ab9fd87ff29d0c86c7ebb69d2c2c010",
    ("mq6-1", "incremental", "grevlex", False):
        "45e4a80ecc8e147b5962d0e080e374da6b7f81e415a4dcf4c053de92153817a3",
    ("mq6-1", "incremental", "lex", True):
        "7cfdafd6e260f9a947776c7101778e2ebffcb608892883bd3fa9b788596996d9",
    ("mq6-1", "incremental", "lex", False):
        "2f5ce3ddb72589d17381cf82365ef2f4fdc9b5efff2fcf38b08a68540e31a616",
    ("mq6-2", "f4", "grevlex", True):
        "8a05fef7a5d1cce56a9d75b8f438f32a769ef533a85a90cf6bd66904d1090162",
    ("mq6-2", "f4", "grevlex", False):
        "4b3ae9cc7c9bae34396d5136bcdd54c4bcf4f08e48a3297a9d7819aa8e2e7c23",
    ("mq6-2", "f4", "lex", True):
        "700fba4ba9b89e4aabbfad4e63c7a46a1e56994f5b1c63eb53b156c74ba53f03",
    ("mq6-2", "f4", "lex", False):
        "a6e9a49ec63e36860ec63ddb8f39b2382332ea14c470332031a97b755efb16d8",
    ("mq6-2", "buchberger", "grevlex", True):
        "9812a394be16c662eef0474c46c4db9f901467f4c6f414d3c3d40ff986c45d27",
    ("mq6-2", "buchberger", "grevlex", False):
        "235d0580ec14e2cf9c711b5cbcb5fc8f8dd19591de866b961d17856d3125d87b",
    ("mq6-2", "buchberger", "lex", True):
        "c379f24cf63877c1ac94d9bd4485c2d1f211723842584c0b67fc9c6863d8ecbb",
    ("mq6-2", "buchberger", "lex", False):
        "1d5d6be7c87d0cdd4ce0a7a306b40649f243c51cdc50c258944a9f4d65e35623",
    ("mq6-2", "incremental", "grevlex", True):
        "ed1af78d0640fb39b8aa2a6e178c6afacd93a09100ce87871e6e468b2679ae42",
    ("mq6-2", "incremental", "grevlex", False):
        "776916c41582ad0ba139d4735451b8a8ff3eb37e8f7104de764673f438fd135e",
    ("mq6-2", "incremental", "lex", True):
        "18522e17e63b5d49c3309efda81ef8e95fb2450f0d140f25251a377333e1ef32",
    ("mq6-2", "incremental", "lex", False):
        "2d17d0e55b8f101769b8a16615e9690e6795f13fba705e9410d36d295235bed8",
}


def trace_digest(label, engine, order, middle_solving, path):
    ring, polys = SYSTEMS[label]()
    if order != ring.order:
        ring2 = PolyRing(ring.q, ring.names, order)
        polys = [ring2.poly((ring.exponents(m), c) for m, c in p.terms) for p in polys]
        ring = ring2
    config = EngineConfig(
        ring=ring, engine=engine, middle_solving=middle_solving, trace_path=path
    )
    groebner_basis(polys, config)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("label", sorted(SYSTEMS))
def test_trace_digests_match_golden(label, tmp_path):
    wrong = []
    for engine, order, ms in CONFIGS:
        got = trace_digest(label, engine, order, ms, tmp_path / "run.trace")
        if got != GOLDEN[(label, engine, order, ms)]:
            wrong.append((engine, order, ms))
    assert not wrong, f"{label}: trace digest changed for {wrong}"
