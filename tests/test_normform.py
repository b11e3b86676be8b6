"""The normal-form caches look terms up by structure."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import ubhl
from ubhl.assertions import normform
from ubhl.assertions.normform import canon_assertion
from ubhl.lang.parser import parse_expr

SRC = str(Path(ubhl.__file__).resolve().parent.parent)

TEXT = "forall j in 0 .. n_cache - 1 . a_cache[j] + 2 * k_cache <= log(7 / m_cache)"


def _sizes():
    return (len(normform._TERM_CACHE), len(normform._STRUCT_CACHE),
            len(normform._ASSERT_CACHE))


def test_reparsed_assertion_hits_the_cache():
    term = parse_expr(TEXT)
    first = canon_assertion(term)
    before = _sizes()
    # parse_expr shares parses of one string; respacing gives a new tree
    again = parse_expr(TEXT.replace(" ", "  "))
    assert again == term and again is not term
    assert canon_assertion(again) is first
    assert _sizes() == before


def test_kept_hash_is_not_pickled():
    term = parse_expr(TEXT)
    here = hash(term)
    data = pickle.dumps(term)
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    code = (
        "import pickle, sys\n"
        "from ubhl.lang.parser import parse_expr\n"
        "term = pickle.loads(sys.stdin.buffer.read())\n"
        f"fresh = parse_expr({TEXT!r})\n"
        "assert term == fresh\n"
        "assert hash(term) == hash(fresh), (hash(term), hash(fresh))\n"
        "print(hash(fresh))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], input=data, env=env,
                         capture_output=True, timeout=60)
    assert out.returncode == 0, out.stderr.decode()
    # the child's string hashes differ, so a pickled hash would be stale
    assert int(out.stdout) != here
