"""Byte-identity of exact enumeration.

Each digest is the SHA-256 of `denote_exact`'s support, in insertion
order, one `repr(memory)` and mass per line, then the residual. The
order is part of the output: `ubhl exact` sorts rows by mass with a
stable sort, so ties keep the order in which memories were first
reached. The digests were recorded from the tree-walking exact
evaluator; a new enumeration core must reach the same memories in the
same order with the same masses and residual. The bad events' masses
are pinned the same way, as the digest of the exact `Fraction` that
`SubDist.prob_upper` returns.
"""

import hashlib
from fractions import Fraction

import pytest

from ubhl import cli
from ubhl.cases import build_case
from ubhl.lang.ast import Call, LValue, NumLit
from ubhl.lang.parser import parse_expr, parse_program
from ubhl.lang.typecheck import typecheck
from ubhl.semantics.commands import AdversaryStrategy
from ubhl.semantics.evalexpr import eval_in_memory
from ubhl.semantics.exact import Budget, denote_exact, initial_memory

from test_cli import CASES

MAIN = Call(LValue("res"), "main", NumLit(Fraction(0)))

SOURCES = {
    "lap": "var x : real;\nproc main(w) {\n  x <$ lap(3/2, 2);\n} return 0",
    "bern": "var b : bool;\nproc main(w) {\n  b <$ bern(5/16);\n} return 0",
    "unifint": "var u : int;\nproc main(w) {\n  u <$ unifint(-7, 56);\n} return 0",
    "call": """
var x : int;
var y : int;
var t : int;
proc twice(v) { t <$ unifint(0, 1); t <- t + v + v; } return t
proc main(w) {
  x <$ unifint(0, 2);
  y <- twice(x);
  if (y > 2) { x <- twice(y); }
} return y
""",
    "ext": """
var i : int;
var x : int;
var y : int;
extern adv(int) : int;
proc main(w) {
  i <- 0;
  while (i < 3) {
    x <$ unifint(0, 1);
    y <@ adv(x);
    i <- i + 1;
  }
} return y
""",
    "error": """
var i : int;
var x : int;
var y : real;
proc main(w) {
  i <- 0;
  while (i < 3) {
    x <$ unifint(0, 3);
    if (x == 0) { y <- 1 / (x - x); }
    if (x == 1) { i <- 5; } else { i <- i + 1; }
  }
} return i
""",
    "overrun": """
var i : int;
var j : int;
var b : bool;
proc main(w) {
  b <- true;
  while (b) {
    j <- 0;
    while (j < i) { j <- j + 1; }
    b <$ bern(2/3);
    i <- i + 1;
  }
} return i
""",
}


class RunningTotal(AdversaryStrategy):
    """A deterministic adversary: answers the running total of its
    arguments, kept in the external store."""

    def respond(self, ext, args, rng):
        seen = ext.get("seen", 0) + args[0]
        return dict(ext, seen=seen), seen


def enumerate_case(name):
    if name.startswith("rnm-"):
        size = int(name[4:])
        qscore, radius = {2: ([1, 3], 24), 3: ([0, 2, 3], 8)}[size]
        case = build_case("rnm", {"size": size, "eps": 1.0, "beta": 0.2, "qscore": qscore})
        program = parse_program(case.source)
        typecheck(program)
        return denote_exact(program, MAIN, initial_memory(program, case.overrides),
                            Budget(laplace_radius=radius))
    program = parse_program(SOURCES[name])
    typecheck(program)
    if name == "ext":
        return denote_exact(program, MAIN, initial_memory(program),
                            adversaries={"adv": RunningTotal()}, ext={"seen": 0})
    if name == "overrun":
        return denote_exact(program, program.procs["main"].body, initial_memory(program),
                            Budget(max_loop_iters=4))
    return denote_exact(program, MAIN, initial_memory(program), Budget(laplace_radius=200))


def digest(dist) -> str:
    lines = [f"{m!r}\t{w}" for m, w in dist.support.items()]
    lines.append(f"residual\t{dist.residual}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


GOLDEN = {
    "rnm-2":
        "ccea7b95aa59c5c75019dc4d3d550c1cf9ed064f147764d620804f090ba2c40a",
    "rnm-3":
        "fca07fc537365b94c41e14976a62fe799aad3367bddee408ab54587c1212bdb4",
    "lap":
        "3dd52437504f39e7af2944b3cafe0e0491123663e9c3dd12890a97a33e85fc53",
    "bern":
        "f49809ec25dde8cf1c34b086683e47b6f16ca8a9e28510d7e8b8ccbf0d5239e1",
    "unifint":
        "303eb4a1084dac64c6d478e1f42af632caf4fc4ab1376329816e333de4d90dc1",
    "call":
        "8706fda3d71c2bb0353420eab9d8f070e42fd5020022a7b827ecf8d1ade26529",
    "ext":
        "7ca1951533b8c6c2555dc0abb6a64d7c84797959bafb269ff60ccd1a442e1408",
    "error":
        "29a780023f47a5ebce0b02dd991f66b3dd0a88f33bcab52440a90cf8084872b2",
    "overrun":
        "a71389a6c6719a38b7d8fec734ea88a7c74ad7ba9b1d57997fc5d083381f6f95",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_exact_support_is_byte_identical(name):
    assert digest(enumerate_case(name)) == GOLDEN[name]


# `ubhl exact` stdout of each program in SOURCES, with --limit 100
CLI_GOLDEN = {
    "call": "0b4048e9b29234ab2f1f76cee96cd27c1b1a4cd7cb96441b1c50bd80a1a78104",
    "error": "4d9a4e803312750419a50eb98f6ef14f449b66c79fabad73ae47c05e95cf871e",
    "overrun": "46539e8fe2e7accc726c9fd603bda84fddd747e0f426216f8fb670c5f97bf98c",
}
RNM_PROGRAM = str(CASES / "rnm" / "program.ubhl")


def test_exact_cli_output_is_byte_identical(capsys):
    assert cli.main(["exact", RNM_PROGRAM]) == 0
    assert capsys.readouterr().out == (
        "support: 1 memories, residual 0.000e+00\n"
        '  1  {"R": [], "best": 0, "eps": 0.0, "flag": true, "noisy": {}, "qscore": {},'
        ' "r": 0, "rstar": 0, "w": 0}\n')


@pytest.mark.parametrize("name,flags", [("call", []), ("error", []),
                                        ("overrun", ["--loop-budget", "4"])])
def test_exact_cli_ties_keep_insertion_order(name, flags, tmp_path, capsys):
    program = tmp_path / f"{name}.ubhl"
    program.write_text(SOURCES[name])
    assert cli.main(["exact", str(program), "--limit", "100", *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_GOLDEN[name]



# `SubDist.prob_upper` of the bad event, its mass plus the residual, on
# the rnm case (its own bad event and logical environment) and on the
# bench's single-site events: the SHA-256 of `str(Fraction)`.
BAD_EVENTS = {"lap": "abs(x - (2)) > 3", "bern": "b == true", "unifint": "u < 9"}
UPPER_GOLDEN = {
    "bern":
        "f331957a62292c73355411dfc69ba9518d25d6b986d2013b277dc725a0ddf748",
    "lap":
        "492b127981468bd64d4b90026414c48fc8af481da80bfafec36aba95eb24ebcb",
    "rnm-2":
        "415df0b00ea0259d55892e38a08160a89bdff8172f341222b0ec1511a1606c97",
    "rnm-3":
        "d106ee5f3aa8886db9fcbc5c83c8fbb0ae47cdd7259679a295c635b37c6813da",
    "unifint":
        "f70b94aeb67de2a5eb4bd8c2ea85128f13776cb545a661abe422b378a6cf3099",
}


def bad_event_upper(name):
    dist = enumerate_case(name)
    if name.startswith("rnm-"):
        size = int(name[4:])
        qscore = {2: [1, 3], 3: [0, 2, 3]}[size]
        case = build_case("rnm", {"size": size, "eps": 1.0, "beta": 0.2, "qscore": qscore})
        bad, env = case.bad_event, case.logical_env
    else:
        bad, env = parse_expr(BAD_EVENTS[name]), {}
    return dist, dist.prob_upper(lambda m: bool(eval_in_memory(bad, m, env)))


@pytest.mark.parametrize("name", sorted(UPPER_GOLDEN))
def test_bad_event_mass_is_exact(name):
    dist, upper = bad_event_upper(name)
    assert hashlib.sha256(str(upper).encode()).hexdigest() == UPPER_GOLDEN[name]
    if name.startswith("rnm-"):
        # the theorem's bad event holds on no enumerated memory
        assert upper == dist.residual


def test_one_event_over_two_distributions():
    """One event object asked in turn over two distributions on which
    it has different masses: nothing one answer leaves behind changes
    the other."""
    bad = parse_expr("u < 9")
    program = parse_program("var u : int;\nproc main(w) {\n  u <$ unifint(0, 15);\n} return 0")
    typecheck(program)
    wide, narrow = enumerate_case("unifint"), denote_exact(program, MAIN, initial_memory(program))
    for _ in range(2):
        assert wide.prob_upper(lambda m: bool(eval_in_memory(bad, m))) == Fraction(1, 4)
        assert narrow.prob_upper(lambda m: bool(eval_in_memory(bad, m))) == Fraction(9, 16)
