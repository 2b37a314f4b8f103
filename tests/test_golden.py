"""Frozen stdout and exit status of the CLI across commits.

Each case runs ``cli.main`` in-process from a fixed working directory (the
``verify`` report names its input file) and compares the sha256 of stdout
and the exit status with the values frozen in ``GOLDEN``. A refactor that
changes any report, including the ``--cap 5`` refusals, fails here.

Every boolean key these reports print is a verdict that a named fault can
make false, with exit 1; ``KEY_FAULTS`` lists them.
"""

import contextlib
import functools
import hashlib
import io
import json
import operator

import pytest

from corpus import corpus_documents, medial_universe_document
from trinities import cli, fkt, hypertrees, trees

GRAPH_COMMANDS = ("census", "magic", "hypertrees", "configs", "classify", "verify", "dual")
UNIVERSE_COMMANDS = ("states", "clock", "correspond", "dual")
UNIVERSES = ("curl", "hopf", "figure_eight")
CAPS = (None, 5)
# medial universes of corpus graphs, starred at the graph's first dart, with
# the commands frozen for each; their clock graphs have up to 529 arcs
MEDIAL_UNIVERSES = {
    "medial_ladder3": (("ladder", 3), ("states", "clock")),
    "medial_grid2": (("grid", 2), ("states", "clock")),
    "medial_ladder4": (("ladder", 4), ("states", "clock")),
    "medial_theta3": (("theta", 3), ("states", "clock", "correspond")),
    "medial_even_cycle3": (("even_cycle", 3), ("states", "clock", "correspond")),
}
MEDIAL_CAP = 4**13  # the state search space of ladder 4's 13 crossings


def cases():
    """(key, argv) for every frozen invocation; files are named after the instance."""
    out = []
    for name in corpus_documents():
        for command in GRAPH_COMMANDS:
            for cap in CAPS:
                argv = (["--cap", str(cap)] if cap else []) + [command, "--graph", f"{name}.json"]
                out.append((" ".join(argv), argv))
    for name in UNIVERSES:
        for command in UNIVERSE_COMMANDS:
            argv = [command, "--universe", f"{name}.json"]
            out.append((" ".join(argv), argv))
    for name, (_spec, commands) in MEDIAL_UNIVERSES.items():
        for command in commands:
            argv = ["--cap", str(MEDIAL_CAP), command, "--universe", f"{name}.json"]
            out.append((" ".join(argv), argv))
    return out


CASES = cases()


def write_inputs(directory):
    for name, doc in corpus_documents().items():
        (directory / f"{name}.json").write_text(json.dumps(doc))
    for name in UNIVERSES:
        doc = fkt.BUILTIN_UNIVERSES[name]()
        (directory / f"{name}.json").write_text(json.dumps(doc))
    for name, ((family, size), _commands) in MEDIAL_UNIVERSES.items():
        doc = cli.generate_corpus(family, size)
        medial = medial_universe_document(doc, doc["edges"][0]["darts"][0])
        (directory / f"{name}.json").write_text(json.dumps(medial))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue(), code


def digest(argv):
    out, code = run(argv)
    return hashlib.sha256(out.encode()).hexdigest(), code


GOLDEN = {
    "census --graph path1.json": ("4855db6402dbbaacd497b77d1310dc67a986af768eec71ba1727df86d40afd33", 0),
    "--cap 5 census --graph path1.json": ("4855db6402dbbaacd497b77d1310dc67a986af768eec71ba1727df86d40afd33", 0),
    "magic --graph path1.json": ("1ca8e6b6d61aa8ebcb2b2e1c855add46c4aeeca25b74be6b3d93fb712fe945df", 0),
    "--cap 5 magic --graph path1.json": ("1ca8e6b6d61aa8ebcb2b2e1c855add46c4aeeca25b74be6b3d93fb712fe945df", 0),
    "hypertrees --graph path1.json": ("ac87832b5ddc909ae88db1b0f5f679d20e0bcec2e21c5f86b1b393467101aee8", 0),
    "--cap 5 hypertrees --graph path1.json": ("ac87832b5ddc909ae88db1b0f5f679d20e0bcec2e21c5f86b1b393467101aee8", 0),
    "configs --graph path1.json": ("ccbc19bcf650d30f25912281df071f1b24f7ef4aa9417778f67ba945aeb6678c", 0),
    "--cap 5 configs --graph path1.json": ("ccbc19bcf650d30f25912281df071f1b24f7ef4aa9417778f67ba945aeb6678c", 0),
    "classify --graph path1.json": ("37f34acf79a8ee5cf889bbc33765a84bd03cb07b808a203ed758d5aa8c517a80", 0),
    "--cap 5 classify --graph path1.json": ("37f34acf79a8ee5cf889bbc33765a84bd03cb07b808a203ed758d5aa8c517a80", 0),
    "verify --graph path1.json": ("fc552abb1c09ec152e6bcaf5bda5eeb48e2f3d3f485203bccfead8ff7e0abebb", 0),
    "--cap 5 verify --graph path1.json": ("fc552abb1c09ec152e6bcaf5bda5eeb48e2f3d3f485203bccfead8ff7e0abebb", 0),
    "dual --graph path1.json": ("8646b5993a47d787bab9059f2a593a88118fe27c91e23e11c2d1346fd2b15ab3", 0),
    "--cap 5 dual --graph path1.json": ("8646b5993a47d787bab9059f2a593a88118fe27c91e23e11c2d1346fd2b15ab3", 0),
    "census --graph path2.json": ("4253fbd6331694643add4c9a2844b515c861afe6e3302de5b827bccb799aff6b", 0),
    "--cap 5 census --graph path2.json": ("4253fbd6331694643add4c9a2844b515c861afe6e3302de5b827bccb799aff6b", 0),
    "magic --graph path2.json": ("1ca8e6b6d61aa8ebcb2b2e1c855add46c4aeeca25b74be6b3d93fb712fe945df", 0),
    "--cap 5 magic --graph path2.json": ("1ca8e6b6d61aa8ebcb2b2e1c855add46c4aeeca25b74be6b3d93fb712fe945df", 0),
    "hypertrees --graph path2.json": ("f5bb3257ba5f97ce9866f3ff935aa2d6521d3e502e6407f34fd1049e16f0554b", 0),
    "--cap 5 hypertrees --graph path2.json": ("f5bb3257ba5f97ce9866f3ff935aa2d6521d3e502e6407f34fd1049e16f0554b", 0),
    "configs --graph path2.json": ("fd38bc3b5b79931d23852e96ea63fe35b56228769f20f8139ea0c73ddb8bc07e", 0),
    "--cap 5 configs --graph path2.json": ("fd38bc3b5b79931d23852e96ea63fe35b56228769f20f8139ea0c73ddb8bc07e", 0),
    "classify --graph path2.json": ("d06f0d5308c491255807979010d9d13416da8a27dd888be08efd0265ad450940", 0),
    "--cap 5 classify --graph path2.json": ("d06f0d5308c491255807979010d9d13416da8a27dd888be08efd0265ad450940", 0),
    "verify --graph path2.json": ("f7a65266a1cea898af287905ef60f0a51edeabfa2d9843a572fb0bf3e68a8ada", 0),
    "--cap 5 verify --graph path2.json": ("f7a65266a1cea898af287905ef60f0a51edeabfa2d9843a572fb0bf3e68a8ada", 0),
    "dual --graph path2.json": ("75cc768c6d4c173b815224dc0022686d501f62349caedea774d5365e1833766b", 0),
    "--cap 5 dual --graph path2.json": ("75cc768c6d4c173b815224dc0022686d501f62349caedea774d5365e1833766b", 0),
    "census --graph cycle4.json": ("09d17cb9b98437f87d041e9cd81cdfc4e85d5d8aac5f1d4d9892560b76b26786", 0),
    "--cap 5 census --graph cycle4.json": ("09d17cb9b98437f87d041e9cd81cdfc4e85d5d8aac5f1d4d9892560b76b26786", 0),
    "magic --graph cycle4.json": ("1c95e79752d6dd19ce7b2f4867386774f15c33b408ec0fac3c30fd029b994137", 0),
    "--cap 5 magic --graph cycle4.json": ("1c95e79752d6dd19ce7b2f4867386774f15c33b408ec0fac3c30fd029b994137", 0),
    "hypertrees --graph cycle4.json": ("f3c13470e61a49ab8073eed4757a494151b23d7c1cfe4c8ddebf19afb9c1cd7e", 0),
    "--cap 5 hypertrees --graph cycle4.json": ("f3c13470e61a49ab8073eed4757a494151b23d7c1cfe4c8ddebf19afb9c1cd7e", 0),
    "configs --graph cycle4.json": ("ad070106f4368c5465ebdb67496f93160fa1efc7af53a2c521cece15c69f4651", 0),
    "--cap 5 configs --graph cycle4.json": ("ad070106f4368c5465ebdb67496f93160fa1efc7af53a2c521cece15c69f4651", 0),
    "classify --graph cycle4.json": ("8c219cf118d02f08d3230e5aa8b27f90f225c2eb2aabf96b15a692da35a94c87", 0),
    "--cap 5 classify --graph cycle4.json": ("8c219cf118d02f08d3230e5aa8b27f90f225c2eb2aabf96b15a692da35a94c87", 0),
    "verify --graph cycle4.json": ("f48461c3bf27ab81c38ccd76de0912538f2da48d439c24b1c0d33f3e496cd44e", 0),
    "--cap 5 verify --graph cycle4.json": ("f48461c3bf27ab81c38ccd76de0912538f2da48d439c24b1c0d33f3e496cd44e", 0),
    "dual --graph cycle4.json": ("75047139a68bd26e372d42b5faf76ddd3ecdb0ce922609ddc50b22e23c3d09ff", 0),
    "--cap 5 dual --graph cycle4.json": ("75047139a68bd26e372d42b5faf76ddd3ecdb0ce922609ddc50b22e23c3d09ff", 0),
    "census --graph cycle6.json": ("2b012b7126274d67a6666052386c04fc30c2f835b9db0134ee85fdf16aed481e", 0),
    "--cap 5 census --graph cycle6.json": ("2b012b7126274d67a6666052386c04fc30c2f835b9db0134ee85fdf16aed481e", 0),
    "magic --graph cycle6.json": ("cb2b18c7720c2e7055fb194e6adc79814f9466556abe3b073c6023b919ae0ba3", 0),
    "--cap 5 magic --graph cycle6.json": ("2c3dc3039664470b5846feedf465fdcc7480b3fa7de07d90aa51fb93ced6d3dd", 0),
    "hypertrees --graph cycle6.json": ("af16424349f9a898d19e919f1ed537de5df4c807b3bd3bbef1059393b48193f9", 0),
    "--cap 5 hypertrees --graph cycle6.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "configs --graph cycle6.json": ("0070447881a7d2f63f94b84f7ef4e6efd60d2099cd545316e92e471333f3610c", 0),
    "--cap 5 configs --graph cycle6.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "classify --graph cycle6.json": ("eb8a061b042501b2ec9fff90d9c4eab89f4b269cbbf82c3e5feeb348048715b9", 0),
    "--cap 5 classify --graph cycle6.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "verify --graph cycle6.json": ("b8929fb97fdc04b6d78ff12cf8418132ad479516cb270f28997976626542f9e8", 0),
    "--cap 5 verify --graph cycle6.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "dual --graph cycle6.json": ("24cfd88ffcf694279a1dc9564aa6fad0497b1c6faa15c6440868b9881af1fc1e", 0),
    "--cap 5 dual --graph cycle6.json": ("24cfd88ffcf694279a1dc9564aa6fad0497b1c6faa15c6440868b9881af1fc1e", 0),
    "census --graph theta3.json": ("59173f3d8c74f63b3a99da3593fdf9ba9d9294cf613b4bd2c97b74048ccb8ef3", 0),
    "--cap 5 census --graph theta3.json": ("59173f3d8c74f63b3a99da3593fdf9ba9d9294cf613b4bd2c97b74048ccb8ef3", 0),
    "magic --graph theta3.json": ("cb2b18c7720c2e7055fb194e6adc79814f9466556abe3b073c6023b919ae0ba3", 0),
    "--cap 5 magic --graph theta3.json": ("2c3dc3039664470b5846feedf465fdcc7480b3fa7de07d90aa51fb93ced6d3dd", 0),
    "hypertrees --graph theta3.json": ("bca7d3054cfcb645aa00dfa26225bbf9c063f717511e7fcd995513d15e198943", 0),
    "--cap 5 hypertrees --graph theta3.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "configs --graph theta3.json": ("ccd1717feccdbbe01e2422cafe2b05b754fc28b993ee64e430a3653beebb3633", 0),
    "--cap 5 configs --graph theta3.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "classify --graph theta3.json": ("1387295e5ca3fa0868c0ab85fce2fc1594a9860e857d079d59c5451b158bddc6", 0),
    "--cap 5 classify --graph theta3.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "verify --graph theta3.json": ("23e35bbf229471a6473cd20022d8f9af77964d2449ed6b4cc42369806be0c575", 0),
    "--cap 5 verify --graph theta3.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "dual --graph theta3.json": ("c5adce1b01d079444da5da6c6e0431522d0a1ac3dd88df928062ae5d9bb78bfb", 0),
    "--cap 5 dual --graph theta3.json": ("c5adce1b01d079444da5da6c6e0431522d0a1ac3dd88df928062ae5d9bb78bfb", 0),
    "census --graph ladder3.json": ("c5470005ae5ad290cc707ca888b6a83b32ead68d39187a40afee833210ee690f", 0),
    "--cap 5 census --graph ladder3.json": ("c5470005ae5ad290cc707ca888b6a83b32ead68d39187a40afee833210ee690f", 0),
    "magic --graph ladder3.json": ("e397fb610d763832bafe107ff6684a4e777813f868b191c4385a698191012d6f", 0),
    "--cap 5 magic --graph ladder3.json": ("48dd741193a7a7b7f92645f0b77b4a8075829830c2a8de7e18eb6240c599c304", 0),
    "hypertrees --graph ladder3.json": ("90beba86cf95af54cf660f3836c1ff9bf5662dd1483d823f54c145d96ca295d9", 0),
    "--cap 5 hypertrees --graph ladder3.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "configs --graph ladder3.json": ("58634fdf318953ccb51503356f20bb93100ffeb932367d29bb07925789a6c94f", 0),
    "--cap 5 configs --graph ladder3.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "classify --graph ladder3.json": ("6f193fbe17ca9562e6c538a30de99748d2a6fd3fc04b6b4dbc405bb23d2671a3", 0),
    "--cap 5 classify --graph ladder3.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "verify --graph ladder3.json": ("d47dca35a2f839682cd81b397de4c30a61b67341a067d9b76344a06cf373ee9d", 0),
    "--cap 5 verify --graph ladder3.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "dual --graph ladder3.json": ("4d8f4be0e0a788ef609c3555c6fb30c41294b0ea8ecc66c1faf3d135ecf435a1", 0),
    "--cap 5 dual --graph ladder3.json": ("4d8f4be0e0a788ef609c3555c6fb30c41294b0ea8ecc66c1faf3d135ecf435a1", 0),
    "census --graph grid2.json": ("207faa649d1920e8fdb7b541feeb62623d8f4bf1fd5e812db2d2ef1b6c69217a", 0),
    "--cap 5 census --graph grid2.json": ("207faa649d1920e8fdb7b541feeb62623d8f4bf1fd5e812db2d2ef1b6c69217a", 0),
    "magic --graph grid2.json": ("0c8061d70ae90d9aeaef553815dbacbd653c48d02741d95aa52ba8cd51d14a86", 0),
    "--cap 5 magic --graph grid2.json": ("613a9c94f23074ecfa9e506f0bd341fa30804b3b3ee2162a6bf323862a0f1734", 0),
    "hypertrees --graph grid2.json": ("2b5795544a3afc34db2f950ea43461cb91d515a6313da420f6312e59cacb495e", 0),
    "--cap 5 hypertrees --graph grid2.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "configs --graph grid2.json": ("4f65f378374144e3013c480610db012a8a058ac04ff830b9ed2325426cc7548a", 0),
    "--cap 5 configs --graph grid2.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "classify --graph grid2.json": ("4c6920454514366785ddbe4618d64cd6f9188407cda2d6a25a02612dc381623f", 0),
    "--cap 5 classify --graph grid2.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "verify --graph grid2.json": ("2c7606322504e7e7b8471c972bd13df52f2368f06d42356d94738af28e6704c9", 0),
    "--cap 5 verify --graph grid2.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "dual --graph grid2.json": ("43cdac0cdb554aeeba691a9503ffbcca3d13b24f57568ac4f343d042657d021b", 0),
    "--cap 5 dual --graph grid2.json": ("43cdac0cdb554aeeba691a9503ffbcca3d13b24f57568ac4f343d042657d021b", 0),
    "census --graph running11.json": ("55993c6d39e05a624dd491f99c5174d0146c160b80b73ee0d4179513764cdb10", 0),
    "--cap 5 census --graph running11.json": ("55993c6d39e05a624dd491f99c5174d0146c160b80b73ee0d4179513764cdb10", 0),
    "magic --graph running11.json": ("4417114048e86b28fb47badb22a491f9189ec3d9bd67afb012abfaf51ab2a1a7", 0),
    "--cap 5 magic --graph running11.json": ("affbb5a2604a37e94b5dafda3efeedf8ba758aa651c98b938ff8095c9499e0fd", 0),
    "hypertrees --graph running11.json": ("4c919b2ef8cccfb181c836e402405f1a1ad278d3ccb3287cbc3eebef01b01600", 0),
    "--cap 5 hypertrees --graph running11.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "configs --graph running11.json": ("bc97a67b9afc35269f0181e091fbd69e7fbe3c0ea1ccb1b69daae7e5d1069e96", 0),
    "--cap 5 configs --graph running11.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "classify --graph running11.json": ("b4ae34e4f0f71007adefc3a0897fd3dc1468c0cecc090803c41da6f715956eac", 0),
    "--cap 5 classify --graph running11.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "verify --graph running11.json": ("b673ba5ad28b528ac0297876e71157924be212c5ab23833fbb7378511021e558", 0),
    "--cap 5 verify --graph running11.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "dual --graph running11.json": ("07e40c1b067a227a5417bd481d9fa5a97a7a8fdc4e3f53ebd8896b495ca5e974", 0),
    "--cap 5 dual --graph running11.json": ("07e40c1b067a227a5417bd481d9fa5a97a7a8fdc4e3f53ebd8896b495ca5e974", 0),
    "states --universe curl.json": ("b9f363a186d8083c1a62c43d5aee7f6ba85c1fd95bee8f4e662a1af7a61d3073", 0),
    "clock --universe curl.json": ("548a60ff44e32a4123e1fe1a576a3a2bfb9f342e75985d0979ca73969e433510", 0),
    "correspond --universe curl.json": ("6bb0fe8bd4ac520b8102f8f7e548c048304d950584af77fc2c0fc66a8812de27", 0),
    "dual --universe curl.json": ("f16a9c30d69d70f45a29b01d3c83658ef0f85c4fa53fb17bef39360f88bf08c2", 0),
    "states --universe hopf.json": ("7010bfebeeaed62608839d77d286bc01476dafc724da3b09a978e4432b7ead4e", 0),
    "clock --universe hopf.json": ("e8cb42ee2dbea8ee4cd4de15eade6e10e1871e1a15072a587e2e24283cbe48bf", 0),
    "correspond --universe hopf.json": ("66f44d667cc78d15dcbb611d0935fa36ba558590fd8a60e9ba086578e7d2338e", 0),
    "dual --universe hopf.json": ("cfe7ff526f2dc9b824ca9be418e9b63a76028b0484dc44fa1adb39cd886cda84", 0),
    "states --universe figure_eight.json": ("93e7c9533a98e4497c2c339b5d10b5d8edebf2222b7c7f7dfb72aa81117a2e9c", 0),
    "clock --universe figure_eight.json": ("ef708fde818a816a6c9277ea32ae1efb45696b1071472a842bd5dce4ec3dae1e", 0),
    "correspond --universe figure_eight.json": ("85ee632fe2e170b387f111f11bdb3124727cf6e6814cc767fb644daff4f5b078", 0),
    "dual --universe figure_eight.json": ("80901b80d521f1b3699b8d806008bc2259d42b1df213127bac3bc75acd279dce", 0),
    "--cap 67108864 states --universe medial_ladder3.json": ("6df7b913d58b904e0091ac470d8b8b7c6793b34ba5dab7f7509a11f59e42fdf6", 0),
    "--cap 67108864 clock --universe medial_ladder3.json": ("87368449ac80ae4a2b00a817845bed24a70d4c55f072250b3f7e6b42d1f04e25", 0),
    "--cap 67108864 states --universe medial_grid2.json": ("228c9d214053c4962f000f1ffbb79a1375b6dbcf7b4130a28c4aa9b97ae57a13", 0),
    "--cap 67108864 clock --universe medial_grid2.json": ("15cbedebba4cc017b48298aba9e54f9315de6966bd5bc0019ebbb2eaf15875f9", 0),
    "--cap 67108864 states --universe medial_ladder4.json": ("ed8720d396b61f641a24bae1d22a51fc43c00a63811fd376270edef39a29a8ba", 0),
    "--cap 67108864 clock --universe medial_ladder4.json": ("c8dd7dd4964f9c469fb94e3209fae6c3a1a6b9fffd3ac7c5a249a537b2e9293d", 0),
    "--cap 67108864 states --universe medial_theta3.json": ("12fe5faa1a1181a0a05e340e06d004e020e00c2fe4df9aef5f3c83d9d6e73d9d", 0),
    "--cap 67108864 clock --universe medial_theta3.json": ("c9b1bc68e35c23323be402d7f67cdd62022b7c197f79b6fd7b178b0b765a8c5f", 0),
    "--cap 67108864 correspond --universe medial_theta3.json": ("7c9ac06ab778a4e74c6731ed9053e9b2545f9a870e30b650b04cd82a07966a09", 0),
    "--cap 67108864 states --universe medial_even_cycle3.json": ("a225547e065672fd63d0722f4be23dfba4c19380cc404095c77a2f724f512ed4", 0),
    "--cap 67108864 clock --universe medial_even_cycle3.json": ("c3197d5ad1be5cb1948921dd4bcecba130cb2f7a1fac0cb12092dd18db9cd5a1", 0),
    "--cap 67108864 correspond --universe medial_even_cycle3.json": ("cf3b21adc8316e3276e9074eb75040d8fd91fa8ffcddd2e09a61b45de8d4e431", 0),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(directory)
    return directory


def test_golden_table_covers_every_case():
    assert sorted(GOLDEN) == sorted(key for key, _argv in CASES)


@pytest.mark.parametrize("key, argv", CASES, ids=[key for key, _argv in CASES])
def test_stdout_and_exit_status_are_frozen(inputs, monkeypatch, key, argv):
    monkeypatch.chdir(inputs)
    assert digest(argv) == GOLDEN[key]


# -- every boolean key can come out false --------------------------------------------

_real_count_arborescences = trees.count_arborescences
_real_determinant = trees.bareiss_determinant
_real_search = fkt._search


def _a_clock_move_reversed(universe, cap):
    # the first move also runs back from its target: a two-cycle; on a
    # universe without a memo cut, such as the figure-eight, each block of
    # the search is one state and all its moves are the block's
    found = list(_real_search(universe, cap))
    head, moves = next((h, m) for h, m, _leaves in found if m)
    return [(h, m + (-moves[0],) if h == head + moves[0] else m, leaves) for h, m, leaves in found]


def _no_clock_moves(universe, cap):
    return [(h, (), tuple((low, ()) for low, _tail in leaves)) for h, _m, leaves in _real_search(universe, cap)]


# named faults, each a monkeypatch (owner, name, replacement) in the style of
# MODEL_FAILURE_CASES in tests/test_cli.py
FAULTS = {
    "an arborescence too many": (
        trees, "count_arborescences", lambda dual, root: _real_count_arborescences(dual, root) + 1
    ),
    "every determinant one too large": (
        trees, "bareiss_determinant", lambda rows: _real_determinant(rows) + 1
    ),
    "no planar dual translate": (hypertrees, "translate_offset", lambda set_a, set_b: None),
    "a clock move reversed": (fkt, "_search", _a_clock_move_reversed),
    "no clock moves": (fkt, "_search", _no_clock_moves),
}

# each boolean key of the golden reports, as (command, dotted path), with the
# fault that makes it false on the four-cycle or the figure-eight universe
KEY_FAULTS = {
    ("magic", "agree"): "an arborescence too many",
    ("verify", "pass"): "an arborescence too many",
    ("verify", "stages.magic.agree"): "an arborescence too many",
    ("verify", "stages.magic.ok"): "an arborescence too many",
    ("verify", "stages.hypertrees.planar_dual_translates"): "no planar dual translate",
    ("verify", "stages.hypertrees.ok"): "no planar dual translate",
    ("verify", "stages.classification.matches_magic"): "every determinant one too large",
    ("verify", "stages.classification.ok"): "every determinant one too large",
    ("clock", "acyclic"): "a clock move reversed",
    ("clock", "ok"): "a clock move reversed",
    ("clock", "weakly_connected"): "no clock moves",
    ("clock", "unique_source"): "no clock moves",
    ("clock", "unique_sink"): "no clock moves",
}

# always true, since states_vs_configurations raises MappingFailure first;
# kept while perfbench's check_report reads them (ROADMAP item 6)
CONSTANT_KEYS = {("correspond", "bijective"), ("correspond", "ok")}


def boolean_paths(doc, path=""):
    """Dotted paths of the booleans in a JSON document; list items add "[]"."""
    if isinstance(doc, bool):
        yield path
    elif isinstance(doc, dict):
        for key, value in doc.items():
            yield from boolean_paths(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for value in doc:
            yield from boolean_paths(value, path + "[]")


def test_every_boolean_key_has_a_fault_that_makes_it_false(inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    found = set()
    for _key, argv in CASES:
        out, _code = run(argv)
        if out:
            command = argv[-3]
            found.update((command, path) for path in boolean_paths(json.loads(out)))
    assert sorted(found - CONSTANT_KEYS - KEY_FAULTS.keys()) == [], "keys with no fault case"
    assert sorted((KEY_FAULTS.keys() | CONSTANT_KEYS) - found) == [], "listed keys never printed"
    for (command, path), fault in KEY_FAULTS.items():
        owner, name, replacement = FAULTS[fault]
        option = ["--universe", "figure_eight.json"] if command == "clock" else ["--graph", "cycle4.json"]
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, replacement)
            out, code = run([command, *option])
        assert code == 1, (command, path, fault)
        doc = json.loads(out)
        assert functools.reduce(operator.getitem, path.split("."), doc) is False, (command, path, fault)
