"""Golden reports: the exact bytes of small reports, pinned by sha256.

Each config runs in a few seconds at most.  The hashes were taken from the
reports before intersection enumeration and stabilization were merged into
one shell-by-shell walk; any change to enumeration order, first-found lifts,
stabilization bounds or filling scans shows up here as a changed digest.
The K2 word aBABAb has many self records at bound 8; its digests were taken
before the coset-key search moved from Words to letter tuples.  The filling
run at scc_word_bound 4 and the verify run with a filling column were taken
before the walk stopped testing for a shared geodesic separately and before
the self key read one search and its inverses.  The trace-id run was taken
before the Fricke memo keyed each lookup on the text of its cyclic normal
form.  The pairs json digests were re-pinned when self-intersection
records came from the exact engine: the report lost its
`stabilized_at_bound` key, and nothing else in it changed.
"""

import hashlib

import pytest

from lenequiv.reports import RunConfig, emit, run

PANTS = {"genus": 0, "boundary_components": 3}
TORUS = {"genus": 1, "boundary_components": 1}


def config(surface, task, words, **extra):
    return dict(surface=surface, task=task, words=words, seeds=[0, 1], **extra)


CONFIGS = {
    "bracket-pants": config(PANTS, "bracket", {"alpha": "ab", "beta": "aabb"}),
    "bracket-torus": config(TORUS, "bracket", {"alpha": "aab", "beta": "abb"}),
    "bracket-self-pants": config(PANTS, "bracket-self", {"alpha": "aabab"}),
    "bracket-self-torus": config(TORUS, "bracket-self", {"alpha": "aabb"}),
    "bracket-self-pants-k2": config(PANTS, "bracket-self", {"alpha": "aBABAb"}, word_bound=8),
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
}

GOLDEN = {
    "bracket-pants": {
        "json": "16a11fcd7836d6213322905baeb2f5dc99e4aade8274cb1a3a754429a0dbd202",
        "text": "57bbad4b78bd64b44a7c294bcedb5fbcbd1f4813602df820ecd114f6c0561eaf",
        "csv": "2aff54e4015e81b12fb823d242d5d767834fb518a2cd0ece84e202916064bd30",
    },
    "bracket-torus": {
        "json": "1d5c1e52b899adb8c2a5fb4b03bc1f17b2e2a3601bc81662d768f12fe5f3e9b0",
        "text": "7b45875abe10908e8d84bf19ab164c42307b17d8d780135b7995a7ece7743f5f",
        "csv": "8929e799ad9d5c45f5aa2fe099e5da552331e08eacfd6408257a9633a69e713a",
    },
    "bracket-self-pants": {
        "json": "5d24354b0d3463068c13472bc2fbb1153f8ab7cc0316608adc317d2fc712bc75",
        "text": "56145b4da0a7a3eeee8131953d0ad5ddca60f0665d713df14fccff9974cb7715",
        "csv": "26febeb66c7ac8c653e04767b4394858b88a76042101719de570fb1fec05f3fa",
    },
    "bracket-self-torus": {
        "json": "86dfb25c29bc5f0a3339b2ad5fb66f662668abb5052b8f468967e18266df189e",
        "text": "b24018d543ff81d8e5f945bb15012d2a38b3123c6613fd3d89f9ddac1020f734",
        "csv": "26febeb66c7ac8c653e04767b4394858b88a76042101719de570fb1fec05f3fa",
    },
    "bracket-self-pants-k2": {
        "json": "f41f096f783b8bbb3b37050375ac1153556de44b7569812451150e49004fc97c",
        "text": "03c695d2a7e4e60c16c3fa03f2023e50eff596dc78776dd9d5e1b666d3bd3b53",
        "csv": "26febeb66c7ac8c653e04767b4394858b88a76042101719de570fb1fec05f3fa",
    },
    "pairs-pants": {
        "json": "1408be91fd59d77e9704e2226affb78d28e3ce411585d251eefa1c381c7251ed",
        "text": "f134ecc9228f625381a27b07f523ac01d39beb0c744421585029a09841b054a9",
        "csv": "1a6db549408944733e7870d1ce0a7679a073bd00d269196456dbe070f60823ba",
    },
    "pairs-torus": {
        "json": "244ce659415106aaf9b366501b3cf0d67984ea9275c0ed282dfd4743d71c9af9",
        "text": "da677d0b7b983ad2d0effcf53458ca45137eb19135e901a65244a506b10582fb",
        "csv": "1a6db549408944733e7870d1ce0a7679a073bd00d269196456dbe070f60823ba",
    },
    "filling-pants": {
        "json": "3604a7bdc6c6ea4dad6210b88c18b98d427dd11a188c4deb180a48293c54a19d",
        "text": "4f4ff69f24568cd71d2d23bf34d6dfbfa1f9850166414bae646a5c494c5d9265",
        "csv": "3c35a38e759bf84ecc715f1b2ffaac2eecdd612162d1a6b42917740a69656ff0",
    },
    "filling-pants-scc4": {
        "json": "8ecb93c8d4bf99d0673c54d00110e0ebb10b4d2da1044027e3de564d18a07414",
        "text": "832842d05984ebcfffc2481a75e6c7f2109d0b295d0279ddc8d4279368a350fb",
        "csv": "3c35a38e759bf84ecc715f1b2ffaac2eecdd612162d1a6b42917740a69656ff0",
    },
    "filling-torus": {
        "json": "3e0ace944b94467836be6c8b43452dab2ff6752d928801bbd0dc1e1aeaf32895",
        "text": "2e20b2fad71e6286f85fd7d0b868af0f09cdad38aa21fa442b526ff6e1241f0b",
        "csv": "04febe48bf5cc47ef65174a2de04a35718aedc3e733ca5e0506ad778e78d37ec",
    },
    "verify-pants": {
        "json": "1354b48ec3b74e02dcbaf94710ab56b0ac685ccf604c87aa839d4a9872340f5c",
        "text": "0b1e827e3ad6c70ee346b94d012a1b4c8c5c91699ff5cb06d755970daf23add6",
        "csv": "9f75f9c733cc525f29738b6c0453dacb5b309043143ffc42b0d78b3621395c4a",
    },
    "verify-pants-scc3": {
        "json": "75aafafc574bd2742e0fb6f94f44b472987317a5da8ac7c0694a6735d4e6646a",
        "text": "f9a60850ff1e87a05e01127041a630f4c77a11c1960d35d1bdae5f5fedc1ccbd",
        "csv": "eef250cbeaa115c87aa735c85bc607d2cf2f4e074a05867319ccca7f148e171a",
    },
    "verify-general-pants": {
        "json": "d885470df18acd26ec2bdc97724c5fc65e7fafff0ffb762c3d2f460cc1ee126c",
        "text": "20339112843020adbc20c61b72cd2a4c9bafed0d53720d820816bda01f567376",
        "csv": "b8299390328db6c04cf4b4c05a4f1ba0660a366ebb5eb15d2b65740d790a5a9b",
    },
    "trace-id-torus": {
        "json": "22cfbac56c83b5b9c077d26edf61ddd77e7ac1aae9a112da73956c8032a51fb0",
        "text": "8c4e68eed5723fda061dbe14f4210cb3984a67efea1c5c5395f9e3c2aaf9a857",
        "csv": "b8330b97e5a7b97b78d9984ed3e80eb5ed6cc366fb7213f3039b45569cefe1d2",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_bytes_match_golden_digest(name):
    report = run(RunConfig.from_dict(CONFIGS[name]))
    digests = {fmt: hashlib.sha256(emit(report, fmt)).hexdigest() for fmt in GOLDEN[name]}
    assert digests == GOLDEN[name]
