"""Pinned report digests: the SHA-256 of `canonical_json` for one small
operation per registered claim and per space kind, so any change to a
report's counts, witnesses, details, notes or flags shows as a new digest.
Both kernels and generic scans are covered, numbered spaces at one and two
jobs, and construction grids with families that fail to build."""

import hashlib

import pytest

from shadowlab.claims import CLAIMS
from shadowlab.spaces import SPACE_KINDS, BudgetExceeded
from shadowlab.verifier import verify

# (claim, space, params, jobs, sha256 of the report's canonical_json)
DIGESTS = [
    ("shadow-colex-lower", "all-families:n=4,k=2", {}, 1,
     "bd375d9b26c7a20d95543587c79403ae32b40383a85c068c41a31108eff86578"),
    ("shadow-colex-lower", "constructions-grid:k=2..3,n=4..6,name=KK_xy,x=3..5,y=2..3", {}, 1,
     "12b45895c3dbe0ee526432f73b5b5c1b39f81eeecbb2e35ee431987eaa5d204a"),
    ("shadow-real-lower", "all-families:n=4,k=2", {}, 1,
     "e28c95e5a245fc9b575b00d2c3ba96ccb015f6f9532573276ef01b5886d33ff2"),
    ("shadow-real-lower", "all-shifted-families:n=6,k=3", {}, 1,
     "d26af3fc8cc270200698cd14ade5707db10be6c9de7be109aca36102445c587e"),
    ("shadow-real-lower", "random-sample:count=40,n=5,seed=7", {}, 1,
     "6d055fff881f3e8b0821b51be95ea6ac491e19bc76f059ccc24a06689947e4c8"),
    ("shadow-real-lower", "constructions-grid:n=3..4,name=params", {}, 1,
     "493c8b7382368f757e59128a829cc5a8d5c3a42db045e3997aaa3336e2f52200"),
    ("cross-unbalanced-size", "all-cross-pairs:a=2,b=2,n=4", {}, 1,
     "e29125c5b04bfef847007dbd29058524ae7f4be5d5546a2e76ada5b8901c9243"),
    ("cross-shadow-size", "all-cross-pairs:a=2,b=2,n=4", {}, 1,
     "b183ec3a92a7e4b8042ccd3c1295ffb4bd5096514f6b22fdca86b013c4b0e325"),
    ("cross-lex-segments", "all-cross-pairs:a=2,b=2,n=4", {}, 1,
     "0f3605b59e0181f5d0b1c22a24f240a3b60118e77612803aabfa5fef6f94e9e1"),
    ("shifted-correlation", "all-shifted-families:n=5,k=2", {}, 1,
     "cac2db35f80123d91716897c569e6b7367dbeafff7a35b57f8a9c8bf9dc4ccbe"),
    ("compression-shadow-monotone", "random-sample:count=60,k=3,n=6,seed=3", {}, 1,
     "da9613e50113f1edc8129dc917629bceadc7fce570bc125fd8015ba8046724fa"),
    ("compression-shadow-monotone", "constructions-grid:k=2..3,n=4..6,name=lex_seg,t=1..6", {}, 1,
     "5183d81fd8241149758fcf098e8467e90a16da847b56845193e0029ae5dd3da4"),
    ("cross-shift-preserves", "all-cross-pairs:a=2,b=2,n=4", {}, 1,
     "a8e42aed917598453cc5e6189ff4b4ccb32523056fa0c35da7c5bc37ae6fe8d0"),
    ("cross-diversity-stability", "all-cross-pairs:a=2,b=2,n=5", {"u": 3, "v": 3}, 1,
     "6392e2f43b4170fcf571e7269df448207891635bf383085a7ee552cb3339d4d7"),
    # every pair sits at both size thresholds: 0 checked, 184,756 skipped
    ("cross-diversity-stability", "all-cross-pairs:a=3,b=3,n=6", {"u": 3, "v": 3}, 1,
     "7e55c02cd87ef40ecb7fb2161a940bd7c2912faf1753ed99ac228d0c0bbd31d1"),
    ("restriction-boost", "all-shifted-families:n=6,k=3", {"r": 2, "t": 1}, 1,
     "5c03195de77f2611aa93cecc07cf1914e40931cb543daee6922af4c6ce6aa98e"),
    ("restriction-boost", "all-families:n=4,k=2", {"r": 2, "t": 1}, 1,
     "770905883cbb914a07aabbbc486ee0f056b81ffd554126733384179ea1b72f2f"),
    ("shadow-diversity-stability", "constructions-grid:k=3..4,n=5..7,name=KK_xy,x=1..4,y=2..4", {}, 1,
     "74165d141fbaf058f3e6e36f8630551135211faf5f6594ecaff9d7e98ee52a21"),
    ("ratio-monotone", "constructions-grid:m=6..10,name=params,s=2..4,t=2..4", {}, 1,
     "19eb4d80ee54075a586ff3813702b8d413eb858653200d2a9f31611ab3c39ce5"),
    ("graph-avoidance", "all-graphs:n=5", {}, 1,
     "351c281bc29fbc6a71574136fed10e3fd23705d1574933aded73516a87b42386"),
    # the benchmark's kernels pass: both shadow claims on the (6,3) level and
    # graph-avoidance on all-graphs(n) for n = 2..7 (n = 5 just above)
    ("shadow-colex-lower", "all-families:n=6,k=3", {}, 1,
     "65344ad7044fb3996901cb3a489f5ba5de878a456df841a8f1e814f1f9ec21a1"),
    ("shadow-real-lower", "all-families:n=6,k=3", {}, 1,
     "8c15f4ea3d17cf3ebbe211e2c0a58e045904c39a25b02cacb93dc1c96a761fd9"),
    ("graph-avoidance", "all-graphs:n=2", {}, 1,
     "37ec5646c865ca4e1682ebd4fa313fdc6babeec6dab0374486562cf2349389ab"),
    ("graph-avoidance", "all-graphs:n=3", {}, 1,
     "72cd9fef13f21fe1a7720017b27c7100512414bd634d97882d558cf7bdaa9243"),
    ("graph-avoidance", "all-graphs:n=4", {}, 1,
     "deb36ec78b5ae55a8c72da770df5022f79bc95f1dc83314803ce06ed637047a5"),
    ("graph-avoidance", "all-graphs:n=6", {}, 1,
     "d49cdd681332672eb78667335b8ae141b29ec0e4bcfa8c87f9841de5c8e2353c"),
    ("graph-avoidance", "all-graphs:n=7", {}, 1,
     "4d64d0c7275ccc98865eab5062a63b1653e38ebf58d0ccdc6313f293282aeaf8"),
    ("rwise-diversity", "all-shifted-families:n=6,k=4", {"r": 2, "t": 2}, 1,
     "0af7e7540312a6634efc1a4f14797d80b1d25715ee67a35f05063720edd42c25"),
    ("rwise-diversity", "random-sample:count=200,k=2,n=5,seed=1", {"r": 2, "t": 1}, 1,
     "d221966ea1d5b8e34f0e9c1f6bbff8dc0026103efa2be2fd1ab73576826de3bf"),
    ("rwise-diversity", "constructions-grid:k=3..4,n=6..8,name=rwise_example,r=2..3,t=1..2", {}, 1,
     "8e772ccab74d7a956dc2817929e3383cecd264feea348e3dbd198df5adc83698"),
    ("matching-diversity-max", "all-families:n=5,k=2", {"s": 2}, 1,
     "5494d21fc3e2f40fd59d884e1afdaa9eb6c42f60f22b1aa626a170306e4ad24c"),
    ("shift-preserves", "all-families:n=4,k=2", {}, 1,
     "c76cbb0db7a3883c56078a81ab7d59da5c38014b002d03ab1aa814146aeed9aa"),
    ("shift-degree-diversity", "random-sample:count=30,n=5,seed=2", {}, 1,
     "b9854219e9eb5db340fd194418665b9c42f55091b9362a494bfaa3223be0b18f"),
    ("shifted-structure", "all-families:n=5,k=3", {}, 1,
     "2c5e00ed1f455f84a097c40add8b9725ccc976edb550d04eb532d69e69af66c8"),
    ("shifted-structure", "all-families:n=5,k=3", {}, 2,
     "2c5e00ed1f455f84a097c40add8b9725ccc976edb550d04eb532d69e69af66c8"),
    ("intersecting-diversity-size", "all-shifted-families:n=7,k=3", {}, 1,
     "98491126d60672d3e8aae686ac9dacd5bcc527a964b3ca5835738088a2a9e4c9"),
    ("intersecting-diversity-size", "constructions-grid:k=3,n=7..8,name=L_uv,u=3..4,v=2..3", {}, 1,
     "f7be6e130a9ad9e99e3d4d881819ac95a7b58411f33ca8570c622cf3a5f4521d"),
    ("t-intersecting-max", "all-up-sets:n=4", {"t": 2}, 1,
     "9813aed0e080293b9cc0f53f0f049ee64b6c02117cf3885d3ee685a7b53e9b33"),
    ("complement-duality", "random-sample:count=60,n=6,seed=9", {}, 1,
     "47f85b8f6ed10f46d8eca7a86e5611bc4dac73cce243759f047dd0e93c0fd6be"),
    ("influence-identity", "all-up-sets:n=4", {}, 1,
     "134e62c5c344f09465e7ea4ea53528e675e74417c2e91c8fd4324b881ea916b4"),
    ("kalai-properties", "constructions-grid:n=3..9,name=kalai_circle", {}, 1,
     "045428cd8bcb9ab2e66e95773b569004e40873d1d0a6600fdcf1ef7aa880a75f"),
    ("t-intersecting-diversity", "constructions-grid:n=4..8,name=katona_t,t=1..3", {}, 1,
     "29c79ea711e7ac08a8dbb37c63f4fc775a456e4783fef7b3e0f2d8b31fdfc02b"),
]


@pytest.mark.parametrize(
    "claim,space,params,jobs,digest", DIGESTS,
    ids=[f"{c}@{s}#{j}" for c, s, _, j, _ in DIGESTS],
)
def test_report_digest(claim, space, params, jobs, digest):
    rep = verify(claim, space, params=params or None, jobs=jobs)
    assert hashlib.sha256(rep.canonical_json().encode()).hexdigest() == digest


def test_matrix_covers_every_claim_and_space_kind():
    assert {claim for claim, *_ in DIGESTS} == set(CLAIMS)
    assert {space.partition(":")[0] for _, space, *_ in DIGESTS} == set(SPACE_KINDS)


def test_budget_refusal_message():
    with pytest.raises(BudgetExceeded) as exc:
        verify("shifted-structure", "all-shifted-families:n=9,k=4", budget=1000)
    assert str(exc.value) == "all-shifted-families:k=4,n=9 exceeded the budget of 1000 instances"
