"""Frozen stdout and exit status of the CLI across commits.

Each case runs ``cli.main`` in-process from a fixed working directory (the
``verify`` report names its input file) and compares the sha256 of stdout
and the exit status with the values frozen in ``GOLDEN``. A refactor that
changes any report, including the ``--cap 5`` refusals, fails here.
"""

import contextlib
import hashlib
import io
import json

import pytest

from corpus import corpus_documents, medial_universe_document
from trinities import cli, fkt

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
        (doc,) = cli.generate_corpus(family, size)
        medial = medial_universe_document(doc, doc["edges"][0]["darts"][0])
        (directory / f"{name}.json").write_text(json.dumps(medial))


def digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


GOLDEN = {
    "census --graph path1.json": ("de45fe46dd43a1b7421d472b6312387f98fba170b4301ed75623df8f3aa8ea61", 0),
    "--cap 5 census --graph path1.json": ("de45fe46dd43a1b7421d472b6312387f98fba170b4301ed75623df8f3aa8ea61", 0),
    "magic --graph path1.json": ("1ca8e6b6d61aa8ebcb2b2e1c855add46c4aeeca25b74be6b3d93fb712fe945df", 0),
    "--cap 5 magic --graph path1.json": ("1ca8e6b6d61aa8ebcb2b2e1c855add46c4aeeca25b74be6b3d93fb712fe945df", 0),
    "hypertrees --graph path1.json": ("ac87832b5ddc909ae88db1b0f5f679d20e0bcec2e21c5f86b1b393467101aee8", 0),
    "--cap 5 hypertrees --graph path1.json": ("ac87832b5ddc909ae88db1b0f5f679d20e0bcec2e21c5f86b1b393467101aee8", 0),
    "configs --graph path1.json": ("4165554f72eee71ceab92bb3cf1b9cb719367b535f0cb47d1745c59e47b3e4d8", 0),
    "--cap 5 configs --graph path1.json": ("4165554f72eee71ceab92bb3cf1b9cb719367b535f0cb47d1745c59e47b3e4d8", 0),
    "classify --graph path1.json": ("6ac6dbc3ab5398df2fcf969dfd7d5c95ef2c3adbd28b6c0d0fc20d48b6e9b365", 0),
    "--cap 5 classify --graph path1.json": ("6ac6dbc3ab5398df2fcf969dfd7d5c95ef2c3adbd28b6c0d0fc20d48b6e9b365", 0),
    "verify --graph path1.json": ("fe779c895a74cc4ccbbd4dba035a5cdb3469e58fbb69a5fdd47d35c7f640e1d0", 0),
    "--cap 5 verify --graph path1.json": ("fe779c895a74cc4ccbbd4dba035a5cdb3469e58fbb69a5fdd47d35c7f640e1d0", 0),
    "dual --graph path1.json": ("8646b5993a47d787bab9059f2a593a88118fe27c91e23e11c2d1346fd2b15ab3", 0),
    "--cap 5 dual --graph path1.json": ("8646b5993a47d787bab9059f2a593a88118fe27c91e23e11c2d1346fd2b15ab3", 0),
    "census --graph path2.json": ("6e6ef135edc5fd1e770e011567e083760fc702e07e83d6ddc87533980df951de", 0),
    "--cap 5 census --graph path2.json": ("6e6ef135edc5fd1e770e011567e083760fc702e07e83d6ddc87533980df951de", 0),
    "magic --graph path2.json": ("1ca8e6b6d61aa8ebcb2b2e1c855add46c4aeeca25b74be6b3d93fb712fe945df", 0),
    "--cap 5 magic --graph path2.json": ("1ca8e6b6d61aa8ebcb2b2e1c855add46c4aeeca25b74be6b3d93fb712fe945df", 0),
    "hypertrees --graph path2.json": ("f5bb3257ba5f97ce9866f3ff935aa2d6521d3e502e6407f34fd1049e16f0554b", 0),
    "--cap 5 hypertrees --graph path2.json": ("f5bb3257ba5f97ce9866f3ff935aa2d6521d3e502e6407f34fd1049e16f0554b", 0),
    "configs --graph path2.json": ("fb8bf5c6f6b3d3dc3c98f1179201c4c0964893f88a1359ac3404f9433abdbf87", 0),
    "--cap 5 configs --graph path2.json": ("fb8bf5c6f6b3d3dc3c98f1179201c4c0964893f88a1359ac3404f9433abdbf87", 0),
    "classify --graph path2.json": ("347189c894f99aa1043668c26b4d1cd91a5bc538a05022a1542ee06f73672a29", 0),
    "--cap 5 classify --graph path2.json": ("347189c894f99aa1043668c26b4d1cd91a5bc538a05022a1542ee06f73672a29", 0),
    "verify --graph path2.json": ("7feadac4550f46d8120714f6588489826ecc97a4289ff3d205a6175c131ec16d", 0),
    "--cap 5 verify --graph path2.json": ("7feadac4550f46d8120714f6588489826ecc97a4289ff3d205a6175c131ec16d", 0),
    "dual --graph path2.json": ("75cc768c6d4c173b815224dc0022686d501f62349caedea774d5365e1833766b", 0),
    "--cap 5 dual --graph path2.json": ("75cc768c6d4c173b815224dc0022686d501f62349caedea774d5365e1833766b", 0),
    "census --graph cycle4.json": ("70a8653af7ccb5d0eed11c7e5fb8c3f786689d515e0ac193f6e1b76d49e4defd", 0),
    "--cap 5 census --graph cycle4.json": ("70a8653af7ccb5d0eed11c7e5fb8c3f786689d515e0ac193f6e1b76d49e4defd", 0),
    "magic --graph cycle4.json": ("1c95e79752d6dd19ce7b2f4867386774f15c33b408ec0fac3c30fd029b994137", 0),
    "--cap 5 magic --graph cycle4.json": ("1c95e79752d6dd19ce7b2f4867386774f15c33b408ec0fac3c30fd029b994137", 0),
    "hypertrees --graph cycle4.json": ("f3c13470e61a49ab8073eed4757a494151b23d7c1cfe4c8ddebf19afb9c1cd7e", 0),
    "--cap 5 hypertrees --graph cycle4.json": ("f3c13470e61a49ab8073eed4757a494151b23d7c1cfe4c8ddebf19afb9c1cd7e", 0),
    "configs --graph cycle4.json": ("1e1e1e2d23997a06fc0fcb695b5c81d65944d7564244e68b35e3db37142d8da7", 0),
    "--cap 5 configs --graph cycle4.json": ("1e1e1e2d23997a06fc0fcb695b5c81d65944d7564244e68b35e3db37142d8da7", 0),
    "classify --graph cycle4.json": ("03eacb5517b81a9dc170b7643a128adf0a2687b4cd04bb5bd987edae23f681dd", 0),
    "--cap 5 classify --graph cycle4.json": ("03eacb5517b81a9dc170b7643a128adf0a2687b4cd04bb5bd987edae23f681dd", 0),
    "verify --graph cycle4.json": ("fdb1e55c3736904ad332c97d206bf62030534a22af123f97ff55c9e06cb33b5b", 0),
    "--cap 5 verify --graph cycle4.json": ("fdb1e55c3736904ad332c97d206bf62030534a22af123f97ff55c9e06cb33b5b", 0),
    "dual --graph cycle4.json": ("75047139a68bd26e372d42b5faf76ddd3ecdb0ce922609ddc50b22e23c3d09ff", 0),
    "--cap 5 dual --graph cycle4.json": ("75047139a68bd26e372d42b5faf76ddd3ecdb0ce922609ddc50b22e23c3d09ff", 0),
    "census --graph cycle6.json": ("e9f9b5b0e97230bac4ffe35f4ff94b73db9a68234c796333a5eec7814d51b188", 0),
    "--cap 5 census --graph cycle6.json": ("e9f9b5b0e97230bac4ffe35f4ff94b73db9a68234c796333a5eec7814d51b188", 0),
    "magic --graph cycle6.json": ("cb2b18c7720c2e7055fb194e6adc79814f9466556abe3b073c6023b919ae0ba3", 0),
    "--cap 5 magic --graph cycle6.json": ("2c3dc3039664470b5846feedf465fdcc7480b3fa7de07d90aa51fb93ced6d3dd", 0),
    "hypertrees --graph cycle6.json": ("af16424349f9a898d19e919f1ed537de5df4c807b3bd3bbef1059393b48193f9", 0),
    "--cap 5 hypertrees --graph cycle6.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "configs --graph cycle6.json": ("7b13ac088ce6a08a45ead20a95dc77eb7a80471f9563f5ef953a56a8abadbaef", 0),
    "--cap 5 configs --graph cycle6.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "classify --graph cycle6.json": ("70e802ce20c224dd7d626837d8435d06184d7c46312d3b997e83427bf31ab59b", 0),
    "--cap 5 classify --graph cycle6.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "verify --graph cycle6.json": ("55598c0b8070eea16fbe36462c72166bcd3a2230b2bdea35f8ff355a1512738d", 0),
    "--cap 5 verify --graph cycle6.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "dual --graph cycle6.json": ("24cfd88ffcf694279a1dc9564aa6fad0497b1c6faa15c6440868b9881af1fc1e", 0),
    "--cap 5 dual --graph cycle6.json": ("24cfd88ffcf694279a1dc9564aa6fad0497b1c6faa15c6440868b9881af1fc1e", 0),
    "census --graph theta3.json": ("0fceb6559b03e45fedc92bf947c2aeae4b9cf2b5787f64384d8f3a27c2b177c9", 0),
    "--cap 5 census --graph theta3.json": ("0fceb6559b03e45fedc92bf947c2aeae4b9cf2b5787f64384d8f3a27c2b177c9", 0),
    "magic --graph theta3.json": ("cb2b18c7720c2e7055fb194e6adc79814f9466556abe3b073c6023b919ae0ba3", 0),
    "--cap 5 magic --graph theta3.json": ("2c3dc3039664470b5846feedf465fdcc7480b3fa7de07d90aa51fb93ced6d3dd", 0),
    "hypertrees --graph theta3.json": ("bca7d3054cfcb645aa00dfa26225bbf9c063f717511e7fcd995513d15e198943", 0),
    "--cap 5 hypertrees --graph theta3.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "configs --graph theta3.json": ("53ff4416640833c25482a40dda3bd16c1714bed1523b0a1754d5d3b9ae67d700", 0),
    "--cap 5 configs --graph theta3.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "classify --graph theta3.json": ("3f9155e3ef5f4dd5edca8b25c1251163ac989a72261e38dd7b587657cf178fcf", 0),
    "--cap 5 classify --graph theta3.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "verify --graph theta3.json": ("42fc5ec894eba56525bed85cce75a8449de6e28699af507d6eb745a60df0d9cc", 0),
    "--cap 5 verify --graph theta3.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "dual --graph theta3.json": ("c5adce1b01d079444da5da6c6e0431522d0a1ac3dd88df928062ae5d9bb78bfb", 0),
    "--cap 5 dual --graph theta3.json": ("c5adce1b01d079444da5da6c6e0431522d0a1ac3dd88df928062ae5d9bb78bfb", 0),
    "census --graph ladder3.json": ("484eedab4d2d14127ac4b79824273e3ab0b08a5aa13f76f636002f60561ff323", 0),
    "--cap 5 census --graph ladder3.json": ("484eedab4d2d14127ac4b79824273e3ab0b08a5aa13f76f636002f60561ff323", 0),
    "magic --graph ladder3.json": ("e397fb610d763832bafe107ff6684a4e777813f868b191c4385a698191012d6f", 0),
    "--cap 5 magic --graph ladder3.json": ("48dd741193a7a7b7f92645f0b77b4a8075829830c2a8de7e18eb6240c599c304", 0),
    "hypertrees --graph ladder3.json": ("90beba86cf95af54cf660f3836c1ff9bf5662dd1483d823f54c145d96ca295d9", 0),
    "--cap 5 hypertrees --graph ladder3.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "configs --graph ladder3.json": ("6f3e1b30d755b0e3eeecb79551c013a4386effa53b38c1b5a4683d26ef9e634b", 0),
    "--cap 5 configs --graph ladder3.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "classify --graph ladder3.json": ("7222299103ced251bd40613c56d4a4d4316e8676964e19db2296bc2a8fdecc6b", 0),
    "--cap 5 classify --graph ladder3.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "verify --graph ladder3.json": ("83b1e94ed762644dd771f20a0dac070f3f56ec9208e8dcaed313b5d7c8012f16", 0),
    "--cap 5 verify --graph ladder3.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "dual --graph ladder3.json": ("4d8f4be0e0a788ef609c3555c6fb30c41294b0ea8ecc66c1faf3d135ecf435a1", 0),
    "--cap 5 dual --graph ladder3.json": ("4d8f4be0e0a788ef609c3555c6fb30c41294b0ea8ecc66c1faf3d135ecf435a1", 0),
    "census --graph grid2.json": ("582a63cc82bde63d576beeebbe390e57c828204305d6bb4eb4c293cfa98a5c31", 0),
    "--cap 5 census --graph grid2.json": ("582a63cc82bde63d576beeebbe390e57c828204305d6bb4eb4c293cfa98a5c31", 0),
    "magic --graph grid2.json": ("0c8061d70ae90d9aeaef553815dbacbd653c48d02741d95aa52ba8cd51d14a86", 0),
    "--cap 5 magic --graph grid2.json": ("613a9c94f23074ecfa9e506f0bd341fa30804b3b3ee2162a6bf323862a0f1734", 0),
    "hypertrees --graph grid2.json": ("2b5795544a3afc34db2f950ea43461cb91d515a6313da420f6312e59cacb495e", 0),
    "--cap 5 hypertrees --graph grid2.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "configs --graph grid2.json": ("e9ed24db0f16f9cde9d8caba9178c029e750795ac835686a09f1aad025f44110", 0),
    "--cap 5 configs --graph grid2.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "classify --graph grid2.json": ("6d45fbba57b84fe10bb300154142165aefba83a12ed828001805e04089275976", 0),
    "--cap 5 classify --graph grid2.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "verify --graph grid2.json": ("14411d80171c8f45574c2c5f81981fa09c9898ddd27f5f7d1adb406c59119bbe", 0),
    "--cap 5 verify --graph grid2.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "dual --graph grid2.json": ("43cdac0cdb554aeeba691a9503ffbcca3d13b24f57568ac4f343d042657d021b", 0),
    "--cap 5 dual --graph grid2.json": ("43cdac0cdb554aeeba691a9503ffbcca3d13b24f57568ac4f343d042657d021b", 0),
    "census --graph running11.json": ("7df54c83f26a3144749194111b800929eeb2cf40c9542e7e984b3f1c47166ee5", 0),
    "--cap 5 census --graph running11.json": ("7df54c83f26a3144749194111b800929eeb2cf40c9542e7e984b3f1c47166ee5", 0),
    "magic --graph running11.json": ("4417114048e86b28fb47badb22a491f9189ec3d9bd67afb012abfaf51ab2a1a7", 0),
    "--cap 5 magic --graph running11.json": ("affbb5a2604a37e94b5dafda3efeedf8ba758aa651c98b938ff8095c9499e0fd", 0),
    "hypertrees --graph running11.json": ("4c919b2ef8cccfb181c836e402405f1a1ad278d3ccb3287cbc3eebef01b01600", 0),
    "--cap 5 hypertrees --graph running11.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "configs --graph running11.json": ("41cc93f068952f816dd5ef13a656ef74a4a4b5a257c457b934be1ba75ac6877b", 0),
    "--cap 5 configs --graph running11.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "classify --graph running11.json": ("14a59a5c38d70f7f6a5c2ca5d872290e639d1a00763188b45b6c52bfba290122", 0),
    "--cap 5 classify --graph running11.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "verify --graph running11.json": ("b21f2360c19851b8b20479bf5964b53938df47269d9d00c57f9cb1799f811a50", 0),
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
