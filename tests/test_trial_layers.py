"""Pinned outputs of the layers under a Monte Carlo trial.

`test_golden` pins whole validation reports; these pin the RNG streams
and the adversaries' query sequences on their own, so a change that
alters either fails here, naming the layer, as well as there.
"""

import hashlib
from fractions import Fraction

import pytest

from ubhl.cases.registry import DEFAULT_PARAMS
from ubhl.cases.adversaries import mwsv_menu, sv_menu
from ubhl.dp.queries import Database, eval_query
from ubhl.semantics.rng import TrialRng

DRAWS = {
    "u64": lambda r: r.u64(),
    "uniform": lambda r: r.uniform(),
    "unif_int": lambda r: r.unif_int(0, 16),
    "bernoulli": lambda r: "01"[r.bernoulli(Fraction(3, 7))],
    "laplace_offset": lambda r: r.laplace_offset(0.25),
}

# (seed, trial) -> draw -> the first 12 values of a fresh stream
# (bernoulli as a string of 0s and 1s)
STREAMS = {
    (1, 0): {
        "u64": [9530515833190667643, 2398097474341873895, 2225671598149676461,
                6666666718581759548, 9715069434273114276, 17090903473692551949,
                811781176899585072, 15993805922824687911, 4700307980999255279,
                7821778521469859679, 4615277904973250813, 45663709402941807],
        "uniform": [0.5166502985626409, 0.13000112457567303, 0.12065389909765811,
                    0.36140072697615755, 0.5266549693243215, 0.9264997337958759,
                    0.04400674577886843, 0.8670259563919027, 0.2548042062175173,
                    0.42401946328390383, 0.2501947165598173, 0.0024754346469207933],
        "unif_int": [10, 3, 11, 4, 13, 13, 2, 0, 4, 14, 9, 16],
        "bernoulli": "011100101111",
        "laplace_offset": [0, -5, -6, -1, 0, 8, -10, 5, -3, -1, -3, -21],
    },
    (7, 3): {
        "u64": [265746903999456093, 14310913898118701910, 2811515199200450203,
                6804353844010722349, 17160438738369562189, 11188317182565762121,
                12214326199525915747, 15121700072234397487, 7971423252498252050,
                14396440621650423903, 610522743915141551, 2394667412913281305],
        "uniform": [0.014406168532375307, 0.7757961969296647, 0.1524125443474571,
                    0.36886476100182586, 0.9302692480472343, 0.6065198897897348,
                    0.6621399500486306, 0.819749003499537, 0.4321317204080035,
                    0.7804326099025978, 0.033096504265230364, 0.1298151805730411],
        "unif_int": [4, 7, 7, 12, 1, 9, 5, 1, 16, 11, 11, 5],
        "bernoulli": "101100000011",
        "laplace_offset": [-14, 3, -5, -1, 8, 1, 2, 4, -1, 3, -11, -5],
    },
    (2**40 + 5, 123456): {
        "u64": [6370391370579948021, 2255796062335565057, 3504932299357119128,
                2407370286507220453, 12135482776419024710, 6265023855463726914,
                8683553169375565129, 16308375076755220377, 8790031565602255721,
                2389898230814737009, 4736417018185655049, 15086124825125584264],
        "uniform": [0.34533960817828446, 0.12228694957342323, 0.1900027606688801,
                    0.1305038047304089, 0.6578658395176963, 0.3396276237383641,
                    0.4707363605565187, 0.8840787843963231, 0.4765085659821062,
                    0.12955664269343004, 0.25676168104571007, 0.8178204654894329],
        "unif_int": [5, 0, 13, 0, 6, 13, 1, 11, 3, 3, 10, 2],
        "bernoulli": "111101000110",
        "laplace_offset": [-1, -6, -4, -5, 1, -2, 0, 6, 0, -5, -3, 4],
    },
}


@pytest.mark.parametrize("draw", sorted(DRAWS))
@pytest.mark.parametrize("seed,trial", sorted(STREAMS))
def test_rng_stream_is_pinned(seed, trial, draw):
    rng = TrialRng(seed, trial)
    values = [DRAWS[draw](rng) for _ in range(12)]
    want = STREAMS[seed, trial][draw]
    assert (values if isinstance(want, list) else "".join(values)) == want


def _query_log(case: str, name: str, strategy) -> str:
    """The first 20 queries `strategy` asks at seed 1, each with its
    value on the case database and the external store after it, as
    reprs, so a changed type shows as well as a changed value. The sv
    adversary is told whether the last answer reached the threshold;
    the mwsv one gets the last answer and a rotated copy of the database
    as the synthetic one, so its heaviest bucket moves."""
    params = DEFAULT_PARAMS[case]
    d = Database(tuple(Fraction(c) for c in params["counts"]))
    rng, ext, answer, lines = TrialRng(1, 0), {}, Fraction(0), []
    for k in range(20):
        if case == "sv":
            args = (answer >= Fraction(str(params["threshold"])),)
        else:
            shift = k % len(d.counts)
            args = (answer, Database(d.counts[shift:] + d.counts[:shift]))
        ext, q = strategy.respond(ext, args, rng)
        answer = eval_query(q, d)
        lines.append(f"{name} {k} {q!r} {answer!r} {sorted(ext.items())!r}")
    return "\n".join(lines)


def _menus():
    sv = DEFAULT_PARAMS["sv"]
    sv_counts = tuple(Fraction(c) for c in sv["counts"])
    return {"sv": sv_menu(sv["universe"], sv_counts),
            "mwsv": mwsv_menu(DEFAULT_PARAMS["mwsv"]["universe"])}


ADVERSARY_DIGESTS = {
    ("sv", "fixed"): "dade3ea366072a9a3efad4e853420d103686a5b5474a3b83ce0e46f2c6687e51",
    ("sv", "random"): "50287a518f9c853628d2a8e1bb59af0330252043c322b2e0fa76dd3237e30607",
    ("sv", "adaptive"): "0d6015b6cf317332e65df9b1acf3da55cbf25dc338559a956ee657ae1ae16171",
    ("mwsv", "fixed"): "bd076d31d8c782e4936148e9b4786c0e8fbf3ecded1fb0a5bf2097c9368c0508",
    ("mwsv", "random"): "21f0b156315faf70be9ed8038fa9a2831396e14e8ec091d76567f8599d6c7335",
    ("mwsv", "adaptive"): "9ac9b3d21bb49e371eb4ccd01509a74e219088aae5795e2381839328c0033d24",
}


@pytest.mark.parametrize("case,name", sorted(ADVERSARY_DIGESTS))
def test_adversary_queries_are_pinned(case, name):
    log = _query_log(case, name, _menus()[case][name])
    assert hashlib.sha256(log.encode()).hexdigest() == ADVERSARY_DIGESTS[case, name]
