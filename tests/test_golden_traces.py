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
from midgb.bench import random_system


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


def random3(q, seed):
    """Three random cubics in three variables over GF(q)."""
    ring = PolyRing(q, ["x1", "x2", "x3"], "grevlex")
    return ring, random_system(ring, 3, 3, random.Random(seed))


SYSTEMS = {
    "mq6-0": lambda: planted_mq(6, 0),
    "mq6-1": lambda: planted_mq(6, 1),
    "mq6-2": lambda: planted_mq(6, 2),
    "eco5-gf3": lambda: gen_system(BenchSpec("eco", 5, 3)),
    "cyclic5-gf3": lambda: gen_system(BenchSpec("cyclic", 5, 3)),
}

# Systems run again under the input-preparation options, which the
# incremental engine applies itself. MQ is left out: with field equations
# off, mq6-0 alone takes over 20 s on f4/lex.
PREPARED_SYSTEMS = {
    "eco5-gf3": SYSTEMS["eco5-gf3"],
    "rand3-gf5": lambda: random3(5, 6),
    "rand3-gf7": lambda: random3(7, 7),
}

PREPARATIONS = {
    "no-field-eqs": {"adjoin_field_eqs": False},
    "reversed": {"reverse_inputs": True},
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


# (system, preparation, engine, order, middle_solving) -> SHA-256
GOLDEN_PREPARED = {
    ("eco5-gf3", "no-field-eqs", "f4", "grevlex", True):
        "95942de4c0c50fef2dfc89a57642d5dad4cb4a8eee6ab26559576a4e43ad803a",
    ("eco5-gf3", "no-field-eqs", "f4", "grevlex", False):
        "8493c4896a89d8ac98b14c40247359f9a3f8da3b19ff203a5d312d659647475f",
    ("eco5-gf3", "no-field-eqs", "f4", "lex", True):
        "2119f5c46ac5bbe9e7b952367495af5812025c48a3dbba65da1e5d739efc5eb7",
    ("eco5-gf3", "no-field-eqs", "f4", "lex", False):
        "d8370210165e14d83c984947867e715a49664637ea92c6b9b5ce61cf5ef916d0",
    ("eco5-gf3", "no-field-eqs", "buchberger", "grevlex", True):
        "324d7afd3e20896daf04163ed75e95720831adac78429f7340b8fec5ef0a4a12",
    ("eco5-gf3", "no-field-eqs", "buchberger", "grevlex", False):
        "9115ee1f913c3b5b779277d1c9874cf0464eb00a615fabc1c8fe9c2db49fe5af",
    ("eco5-gf3", "no-field-eqs", "buchberger", "lex", True):
        "53f8ac74770c14594126c34b5c7b23daa41c27092ba0a48cfcb548e9011882a3",
    ("eco5-gf3", "no-field-eqs", "buchberger", "lex", False):
        "92f5cf94cd773b1ed9a1342242a248340052b20e6006aa67253a542fb1f41160",
    ("eco5-gf3", "no-field-eqs", "incremental", "grevlex", True):
        "7701a5ce5c8f185a461c957987106d2fba5d86e983dbc68e4850f650f8bfb694",
    ("eco5-gf3", "no-field-eqs", "incremental", "grevlex", False):
        "2e8fb9d21e92ac4af95d472f78b73fe7d46f59cf3658c73beb5d499ad2e53717",
    ("eco5-gf3", "no-field-eqs", "incremental", "lex", True):
        "55becbb57d35dded8ac1d9c2371b8262f7815353eaf2b2c7fb72d5c4a0b5b2fc",
    ("eco5-gf3", "no-field-eqs", "incremental", "lex", False):
        "755a5ade4f941cc772151f9096e2f77f3ccd78ba4df1cf13d828d2712df295cc",
    ("eco5-gf3", "reversed", "f4", "grevlex", True):
        "11d0e983be4ea5ce8bb25a76f10cb16d4967d966d8e1d0727728de710d9eb919",
    ("eco5-gf3", "reversed", "f4", "grevlex", False):
        "d42f4db46310ccfde9f869ba9aa9fa1fef4803b19b35f51e16705e1ab281a754",
    ("eco5-gf3", "reversed", "f4", "lex", True):
        "d85c8e2f83db7f9450215c7c7b49bc0e441a652f07ab8357e7e05e1d66d8733f",
    ("eco5-gf3", "reversed", "f4", "lex", False):
        "7c042e96619a174baee4a60fc9dca5aab754de9164ff634018cfd6752662e9d8",
    ("eco5-gf3", "reversed", "buchberger", "grevlex", True):
        "e1524817b2e0e777cbdf3c94c51d69b2dad4d5edc3b51b246b519fc355c75391",
    ("eco5-gf3", "reversed", "buchberger", "grevlex", False):
        "8cfd0c3688143723d406e2d0cb01113c50ba579803608e05b96a0de1549dfe53",
    ("eco5-gf3", "reversed", "buchberger", "lex", True):
        "3ff96b2429b2ee37325c37a2218bb3f61d3ae67ac1ce2e86ff6cfd90b718601e",
    ("eco5-gf3", "reversed", "buchberger", "lex", False):
        "dceb10926336e13becfe25a69d5ea5007fd9b640aa93da555fa548fac3ac5472",
    ("eco5-gf3", "reversed", "incremental", "grevlex", True):
        "18e6fc3cf7e11c44a97006ca87e4f405dd63978a2255172977c79797975279cb",
    ("eco5-gf3", "reversed", "incremental", "grevlex", False):
        "75dc5919263f7d8a4b91a15cdac9823574f722f92ec43f09de018907c8228d78",
    ("eco5-gf3", "reversed", "incremental", "lex", True):
        "43328b9b25b00349eddb7d83956c2720e5dcd7124b5a3fe60828cbf01b3e9b2c",
    ("eco5-gf3", "reversed", "incremental", "lex", False):
        "089e0faf702427ca3f6489d74a9d50c9067230b353f5376eb3340978b661039b",
    ("rand3-gf5", "no-field-eqs", "f4", "grevlex", True):
        "757b30664f1542a269cf5d08255b25f01b23a67881a968391720d838a3cea817",
    ("rand3-gf5", "no-field-eqs", "f4", "grevlex", False):
        "0cdde082be69f381b26cd7781df1a65efbfa1f4f269918949b608d7dbc375664",
    ("rand3-gf5", "no-field-eqs", "f4", "lex", True):
        "e37984522258387b19ce92c0bb71f273d3963755234ccdaac79759e170c5fe97",
    ("rand3-gf5", "no-field-eqs", "f4", "lex", False):
        "823c9c2165a198859a865855acacbe3abe052fe716a0eb3893e5365de2ba985d",
    ("rand3-gf5", "no-field-eqs", "buchberger", "grevlex", True):
        "806a0020d866268f293b6c8aa1bb6fc9c91228ab7a993c9c612247f42e7dd037",
    ("rand3-gf5", "no-field-eqs", "buchberger", "grevlex", False):
        "51b954c38f8488d50556a0c99b9bc25ead9c63f048d47e5199a052a567fe041c",
    ("rand3-gf5", "no-field-eqs", "buchberger", "lex", True):
        "611c4d2b19f7cfe04152900c47083e37351861627db27b212b7046584963a1b4",
    ("rand3-gf5", "no-field-eqs", "buchberger", "lex", False):
        "0f2fd030c6c097d0f2b57719b6b1f11ecda42be08b3408b51b9ae015e034c036",
    ("rand3-gf5", "no-field-eqs", "incremental", "grevlex", True):
        "8c60e5e03fb5e7baedfe16b86c283f664368e1eb128b85fd5d196af1a4f3c76c",
    ("rand3-gf5", "no-field-eqs", "incremental", "grevlex", False):
        "2dce4ac4b1aaba6f987f739e211998a10cd6aa1cebb74e70ab16b9b6e84f3a33",
    ("rand3-gf5", "no-field-eqs", "incremental", "lex", True):
        "ba7b270e7022afcb4a1e6009c5d10f31100dd061fdc22808c1460597494bd585",
    ("rand3-gf5", "no-field-eqs", "incremental", "lex", False):
        "2d05bd74437c3b2bed9618ad35e14b766807cd50d45359bd5eb632aac44583b6",
    ("rand3-gf5", "reversed", "f4", "grevlex", True):
        "16b3984aee22c830afe771383cbc73abb85c2b78ccbe0a8942c23a3cc9552ed2",
    ("rand3-gf5", "reversed", "f4", "grevlex", False):
        "190cfdfbdd94d782cbf5ff853411016a2f6d6be39ab3553602a6a12349ec90da",
    ("rand3-gf5", "reversed", "f4", "lex", True):
        "d22be50963ea75141364a5fab8fe3ba304b588fd7e4f629e5ab311204f2cf2af",
    ("rand3-gf5", "reversed", "f4", "lex", False):
        "d2999ffac8653083582d6a8fa8c0dd68d3539aa1d7f6704921d1df13e9ae0876",
    ("rand3-gf5", "reversed", "buchberger", "grevlex", True):
        "5df47b546770b6fa8088d3b58ad5d69fbb3435f3d59693f6903776e66ea1b0a5",
    ("rand3-gf5", "reversed", "buchberger", "grevlex", False):
        "df4ee6dffa99abf5c3f11ddbe1d11471aa9466698ee706fb066ffb9a81f713cd",
    ("rand3-gf5", "reversed", "buchberger", "lex", True):
        "8b17a95d679fc297c0e69d9a71e39fe1d9b51f3b585539fa744c0932415e5577",
    ("rand3-gf5", "reversed", "buchberger", "lex", False):
        "86d5e43086a1c433dad294bba91796a8a84cd2e9c110dce03ff3fc2c1ef1606f",
    ("rand3-gf5", "reversed", "incremental", "grevlex", True):
        "b602221da3cdd16079388284a78caffded41c6056b6d6b6dbdc0d90a180d436f",
    ("rand3-gf5", "reversed", "incremental", "grevlex", False):
        "a2e1fcd0c0eef2cfd105ca008ec1fea54b60754dc18b21e39d695b638945ed90",
    ("rand3-gf5", "reversed", "incremental", "lex", True):
        "aeb0afb710bbe15055c69e0b7a2146b77070f9bafab888df916832edd203523e",
    ("rand3-gf5", "reversed", "incremental", "lex", False):
        "25e10b28045df59e148bb3d746e3a6410b51adc9901d9a5e24f8e83d6320e4e4",
    ("rand3-gf7", "no-field-eqs", "f4", "grevlex", True):
        "ab5cf8303edc183c84be124785312e1ae7085e417862e1bd001e50051c028231",
    ("rand3-gf7", "no-field-eqs", "f4", "grevlex", False):
        "0134f0ba67c056b80f7f77ae026cbe78a54897a86d63e9c364dc0a42602f48dd",
    ("rand3-gf7", "no-field-eqs", "f4", "lex", True):
        "d34f5252c0c219181bc7c2e51cb9f54ae30ddaf7f74d8634dc74b5a832a718f1",
    ("rand3-gf7", "no-field-eqs", "f4", "lex", False):
        "9c565b207be8e3cf79ba56213c51c2b72ad53bfad99b96524538f8d9212aad85",
    ("rand3-gf7", "no-field-eqs", "buchberger", "grevlex", True):
        "84fe36f9e5d6eb86ede3ce0a41bf2bd93a8f7c0207b374b0dc41d070dfd23462",
    ("rand3-gf7", "no-field-eqs", "buchberger", "grevlex", False):
        "f6281bda430e6517c2f06ef4f96d168b5949f7b7cd99ebb8c20d59a84ea10a4a",
    ("rand3-gf7", "no-field-eqs", "buchberger", "lex", True):
        "648d2eea57a3950bd95b4105e7ba8634ad7d38ed9d7f3811dbd53ddc183a372f",
    ("rand3-gf7", "no-field-eqs", "buchberger", "lex", False):
        "926a7cbe0a8d80ecc097e606378e52df467873305205703ed5fda20ad13e668e",
    ("rand3-gf7", "no-field-eqs", "incremental", "grevlex", True):
        "89d7bf1db5bd49a5208feec300effb569ec4280f736ce57f5737b504a6d592be",
    ("rand3-gf7", "no-field-eqs", "incremental", "grevlex", False):
        "9033e88f576f3cdc67f3da48374c7280e5f1a18414e7bfd42c63715f4d6b82bf",
    ("rand3-gf7", "no-field-eqs", "incremental", "lex", True):
        "857be5fe8eed055f45169599de5e317d4e2ed611423d26b7d3beacc004771fa4",
    ("rand3-gf7", "no-field-eqs", "incremental", "lex", False):
        "dfde1a0a3b00d5b68e9b7466c28a86b8bc68d2510f99ea571e540a7a9f61dd97",
    ("rand3-gf7", "reversed", "f4", "grevlex", True):
        "3416d94279a34b9a84a3de088d2cc5482ca63cd2a198ef5d64fdc06db199e9a9",
    ("rand3-gf7", "reversed", "f4", "grevlex", False):
        "7fbdfbc17f06e0fb59f2903c2bac1fb80d3ca7706539069ff4c5fc132750a52a",
    ("rand3-gf7", "reversed", "f4", "lex", True):
        "e7d338ead6bd11dd2bdf22043ff9ad34ad66213a090d1877d01371a6d22bb6d4",
    ("rand3-gf7", "reversed", "f4", "lex", False):
        "75299b299018c7ce040621c860dcba907bcd55df6b9fe172f3bffbcc882bb242",
    ("rand3-gf7", "reversed", "buchberger", "grevlex", True):
        "b52c391e5104ca2eefffbfd95262fb267dfb96721e614b51d1cc7691e1995eaa",
    ("rand3-gf7", "reversed", "buchberger", "grevlex", False):
        "a2e8a9aac92804fa52af9ba88a8610990a4f598e30a51a58b4163026af8bc5f0",
    ("rand3-gf7", "reversed", "buchberger", "lex", True):
        "137e3c66590838f3393f27546e5f1625d80ab9db22003f228901e022e7cf4dd5",
    ("rand3-gf7", "reversed", "buchberger", "lex", False):
        "5783cca96be68c634aa04b7fddff3d333ae86828abdaeb5aeef0c4d375336ee5",
    ("rand3-gf7", "reversed", "incremental", "grevlex", True):
        "97fc873fcf00416ad83125859433abda0ceb8543c77c200e6242bf7a8f8ef969",
    ("rand3-gf7", "reversed", "incremental", "grevlex", False):
        "bb78ba35d1dfe0a40a46e73e498e64375546c1992977cc0269569a5a502e439f",
    ("rand3-gf7", "reversed", "incremental", "lex", True):
        "499c36468519d73cf5d21d122a2dd7f70704de977fe2ba798925b708dc9c61c1",
    ("rand3-gf7", "reversed", "incremental", "lex", False):
        "ae7153237f69ddc6dc860b1a5260f637f67f11dd6a4ecb418de99494c579dec4",
}

def trace_digest(system, engine, order, middle_solving, path, **options):
    ring, polys = system()
    if order != ring.order:
        ring2 = PolyRing(ring.q, ring.names, order)
        polys = [ring2.poly((ring.exponents(m), c) for m, c in p.terms) for p in polys]
        ring = ring2
    config = EngineConfig(
        ring=ring,
        engine=engine,
        middle_solving=middle_solving,
        trace_path=path,
        **options,
    )
    groebner_basis(polys, config)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("label", sorted(SYSTEMS))
def test_trace_digests_match_golden(label, tmp_path):
    wrong = []
    for engine, order, ms in CONFIGS:
        got = trace_digest(SYSTEMS[label], engine, order, ms, tmp_path / "run.trace")
        if got != GOLDEN[(label, engine, order, ms)]:
            wrong.append((engine, order, ms))
    assert not wrong, f"{label}: trace digest changed for {wrong}"


@pytest.mark.parametrize("label", sorted(PREPARED_SYSTEMS))
@pytest.mark.parametrize("preparation", sorted(PREPARATIONS))
def test_prepared_input_digests_match_golden(label, preparation, tmp_path):
    wrong = []
    for engine, order, ms in CONFIGS:
        got = trace_digest(
            PREPARED_SYSTEMS[label], engine, order, ms, tmp_path / "run.trace",
            **PREPARATIONS[preparation],
        )
        if got != GOLDEN_PREPARED[(label, preparation, engine, order, ms)]:
            wrong.append((engine, order, ms))
    assert not wrong, f"{label}, {preparation}: trace digest changed for {wrong}"


def test_split_elimination_equals_full_rref(split_checked, tmp_path):
    """The golden systems' F4 matrices, in f4 and incremental runs, reduce to
    the full RREF's rows that the basis cannot reach."""
    cases = [(system, {}) for system in SYSTEMS.values()]
    cases += [
        (system, options)
        for system in PREPARED_SYSTEMS.values()
        for options in PREPARATIONS.values()
    ]
    for system, options in cases:
        for engine, order, ms in CONFIGS:
            if engine != "buchberger":
                trace_digest(system, engine, order, ms, tmp_path / "run.trace", **options)
    assert 2 in split_checked and max(split_checked) > 2
