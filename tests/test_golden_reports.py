"""Golden reports: the exact bytes of small reports, pinned by sha256.

Each config runs in a few seconds at most.  The hashes were taken from the
reports before intersection enumeration and stabilization were merged into
one shell-by-shell walk; any change to the records (witness and sign),
their order or the filling scans shows up here as a changed digest.
The K2 word aBABAb has seven self records; its digests were taken
before the coset-key search moved from Words to letter tuples.  The filling
run at scc_word_bound 4 and the verify run with a filling column were taken
before the walk stopped testing for a shared geodesic separately and before
the self key read one search and its inverses.  The trace-id run was taken
before the Fricke memo keyed each lookup on the text of its cyclic normal
form.  The pairs json digests were re-pinned when self-intersection
records came from the exact engine: the report lost its
`stabilized_at_bound` key, and nothing else in it changed.  Every json
digest was re-pinned when the bracket tasks moved onto the exact engine
and the `word_bound` config field was dropped: each is the digest of the
earlier report with `config.word_bound` deleted, dumped again with
sort_keys=True and indent=2.  No text or csv digest changed, and
bracket-self-pants-k2, pinned at bound 8 before, keeps its records.
The trace-id run at n_range [1, 500] prints Fricke polynomials of degree
501, the largest the CLI accepts; its digests were taken before the
polynomials moved onto packed exponent keys and the recursion onto word
text.
"""

import hashlib

import pytest

from lenequiv.reports import TRACE_N_MAX, RunConfig, emit, run

PANTS = {"genus": 0, "boundary_components": 3}
TORUS = {"genus": 1, "boundary_components": 1}


def config(surface, task, words, **extra):
    return dict(surface=surface, task=task, words=words, seeds=[0, 1], **extra)


CONFIGS = {
    "bracket-pants": config(PANTS, "bracket", {"alpha": "ab", "beta": "aabb"}),
    "bracket-torus": config(TORUS, "bracket", {"alpha": "aab", "beta": "abb"}),
    "bracket-self-pants": config(PANTS, "bracket-self", {"alpha": "aabab"}),
    "bracket-self-torus": config(TORUS, "bracket-self", {"alpha": "aabb"}),
    "bracket-self-pants-k2": config(PANTS, "bracket-self", {"alpha": "aBABAb"}),
    "pairs-pants": config(PANTS, "pairs", {"alpha": "aabab"}, n_range=[1, 6]),
    "pairs-torus": config(TORUS, "pairs", {"alpha": "aabaB"}, n_range=[1, 6]),
    "filling-pants": config(PANTS, "filling", {"w": "aabb"}, scc_word_bound=2),
    "filling-pants-scc4": config(PANTS, "filling", {"w": "aabb"}, scc_word_bound=4),
    "filling-torus": config(TORUS, "filling", {"w": "aabaB"}, scc_word_bound=2),
    "verify-pants": config(PANTS, "verify", {"alpha": "ab"}, n_range=[1, 3]),
    "verify-pants-scc3": config(PANTS, "verify", {"alpha": "ab"}, n_range=[1, 3], scc_word_bound=3),
    "verify-general-pants": config(
        PANTS, "verify", {"alpha": "ab", "beta": "aab", "g": "a", "h": "b"}, n_range=[2, 4]
    ),
    "trace-id-torus": config(TORUS, "trace-id", {}, n_range=[1, 60]),
    "trace-id-torus-n500": config(TORUS, "trace-id", {}, n_range=[1, TRACE_N_MAX]),
}

GOLDEN = {
    "bracket-pants": {
        "json": "1c3162663e59cc271937d773479ba5cc587c587ad7e021f7dd05480d982fdfdf",
        "text": "57bbad4b78bd64b44a7c294bcedb5fbcbd1f4813602df820ecd114f6c0561eaf",
        "csv": "2aff54e4015e81b12fb823d242d5d767834fb518a2cd0ece84e202916064bd30",
    },
    "bracket-torus": {
        "json": "e60c6b49dc4667c701af19fc7d228936df70e5cf99a9242f518e4d0ce1f200ab",
        "text": "7b45875abe10908e8d84bf19ab164c42307b17d8d780135b7995a7ece7743f5f",
        "csv": "8929e799ad9d5c45f5aa2fe099e5da552331e08eacfd6408257a9633a69e713a",
    },
    "bracket-self-pants": {
        "json": "88ffd20176f1c83b8938d63d758e86b67fc7ad785ee1b34fd32cedcc903a992f",
        "text": "56145b4da0a7a3eeee8131953d0ad5ddca60f0665d713df14fccff9974cb7715",
        "csv": "26febeb66c7ac8c653e04767b4394858b88a76042101719de570fb1fec05f3fa",
    },
    "bracket-self-torus": {
        "json": "809bf9b37411d6601e7b0ab76f2dcc26f1057507d8849a8ffc8c2cf78ba29fb1",
        "text": "b24018d543ff81d8e5f945bb15012d2a38b3123c6613fd3d89f9ddac1020f734",
        "csv": "26febeb66c7ac8c653e04767b4394858b88a76042101719de570fb1fec05f3fa",
    },
    "bracket-self-pants-k2": {
        "json": "03eb743b26d4127ab4c668791d0d327926dcf773c61bb9d062c634b07c03469c",
        "text": "03c695d2a7e4e60c16c3fa03f2023e50eff596dc78776dd9d5e1b666d3bd3b53",
        "csv": "26febeb66c7ac8c653e04767b4394858b88a76042101719de570fb1fec05f3fa",
    },
    "pairs-pants": {
        "json": "18e2291778148ae521fd74e276db2855f33145a20ff271fa6181f29bb0aeb81e",
        "text": "f134ecc9228f625381a27b07f523ac01d39beb0c744421585029a09841b054a9",
        "csv": "1a6db549408944733e7870d1ce0a7679a073bd00d269196456dbe070f60823ba",
    },
    "pairs-torus": {
        "json": "aed17a79d007f0cbfe3c02e0f3c84cc69b657ab9d8806f6c98693e993d499687",
        "text": "da677d0b7b983ad2d0effcf53458ca45137eb19135e901a65244a506b10582fb",
        "csv": "1a6db549408944733e7870d1ce0a7679a073bd00d269196456dbe070f60823ba",
    },
    "filling-pants": {
        "json": "1825eee8707f9b29d2756cc867eb012b5563dceeea96b235f4fa0bc1f75bb8d7",
        "text": "4f4ff69f24568cd71d2d23bf34d6dfbfa1f9850166414bae646a5c494c5d9265",
        "csv": "3c35a38e759bf84ecc715f1b2ffaac2eecdd612162d1a6b42917740a69656ff0",
    },
    "filling-pants-scc4": {
        "json": "e8a7260491a291b42e601b54e653e595de357b0782099e28eda5bbdc8b2dd6c6",
        "text": "832842d05984ebcfffc2481a75e6c7f2109d0b295d0279ddc8d4279368a350fb",
        "csv": "3c35a38e759bf84ecc715f1b2ffaac2eecdd612162d1a6b42917740a69656ff0",
    },
    "filling-torus": {
        "json": "867bc5663cb06d8bc987b5fa11d85f28a3b6c207ec8f1c4f98c3ed25a7199588",
        "text": "2e20b2fad71e6286f85fd7d0b868af0f09cdad38aa21fa442b526ff6e1241f0b",
        "csv": "04febe48bf5cc47ef65174a2de04a35718aedc3e733ca5e0506ad778e78d37ec",
    },
    "verify-pants": {
        "json": "220631bc1014c92e8505a3adb99a0bfc5b7c7f9ade3b3ce74f424f278623c01a",
        "text": "0b1e827e3ad6c70ee346b94d012a1b4c8c5c91699ff5cb06d755970daf23add6",
        "csv": "9f75f9c733cc525f29738b6c0453dacb5b309043143ffc42b0d78b3621395c4a",
    },
    "verify-pants-scc3": {
        "json": "c6211dc5c7b3316d82c217bf2592b38689c7dcec1bc4661d8a708d75f16b78cf",
        "text": "f9a60850ff1e87a05e01127041a630f4c77a11c1960d35d1bdae5f5fedc1ccbd",
        "csv": "eef250cbeaa115c87aa735c85bc607d2cf2f4e074a05867319ccca7f148e171a",
    },
    "verify-general-pants": {
        "json": "a4b8be0ab8ca04aa95d09d32939803f8912a033e30436af8aa02679d7e80589c",
        "text": "20339112843020adbc20c61b72cd2a4c9bafed0d53720d820816bda01f567376",
        "csv": "b8299390328db6c04cf4b4c05a4f1ba0660a366ebb5eb15d2b65740d790a5a9b",
    },
    "trace-id-torus": {
        "json": "b90052956bc122d3ee89626ebc65a69eaf794cd14b275110b1c020bb5d9a7df1",
        "text": "8c4e68eed5723fda061dbe14f4210cb3984a67efea1c5c5395f9e3c2aaf9a857",
        "csv": "b8330b97e5a7b97b78d9984ed3e80eb5ed6cc366fb7213f3039b45569cefe1d2",
    },
    "trace-id-torus-n500": {
        "json": "f1e807d4cd3f6e322c5efd89803cf8c62e6892b28b418611632a172390ca79c9",
        "text": "88e0b5ca38ee1a23e78685fc4019268fe5947ccbf3d3d87acf8575c41c8ca628",
        "csv": "811680e21770090a46309e61068d755f080220019d88fc5cf225958d33a66d7f",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_bytes_match_golden_digest(name):
    report = run(RunConfig.from_dict(CONFIGS[name]))
    digests = {fmt: hashlib.sha256(emit(report, fmt)).hexdigest() for fmt in GOLDEN[name]}
    assert digests == GOLDEN[name]
