"""Wire documents fuzzed through the CLI verbs in process.

Whatever the document, `cli.main` returns 0, 1 or 2 and nothing escapes it,
no RuntimeWarning is raised and no NaN is printed.  Power-log documents keep
beta/alpha at most 4, so no head settles late (a head that settles near the
scan cap is built whole), plus the exponents 1e6 and 1e300, whose powers
overflow; magnitudes reach 1.7e308.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from calderon import cli

VERBS = (
    ["rearrange"],
    *(["norm", "--space", s] for s in ("weak_l1", "m1inf", "llog", "sum", "lp:2", "lorentz:log1p")),
    ["calderon"],
    ["calderon", "--min-kernel"],
    ["hilbert", "--method", "fast"],
    ["hilbert", "--method", "naive"],
    ["optrange", "fnorm"],
    ["optrange", "member-weakl1"],
)

magnitudes = st.one_of(
    st.floats(min_value=-1.7e308, max_value=1.7e308, allow_nan=False, allow_infinity=False),
    st.sampled_from([1e308, -1e308, 1.7e308, 1e-308, 5e-324]),
)
finite_docs = st.fixed_dictionaries({
    "kind": st.just("finite"),
    "domain": st.sampled_from(["half_line", "line"]),
    "offset": st.integers(min_value=-8, max_value=8),
    "values": st.lists(magnitudes, max_size=12),
})
exponents = st.one_of(st.floats(min_value=0.05, max_value=4.0), st.sampled_from([1e6, 1e300]))


@st.composite
def power_log_docs(draw):
    alpha = draw(exponents)
    beta = draw(st.one_of(st.floats(min_value=0.0, max_value=4.0), st.sampled_from([1e6, 1e300])))
    beta = min(beta, 4.0 * alpha)  # beta/alpha <= 4: no late-settling head
    return {"kind": "power_log", "alpha": alpha, "beta": beta, "scale": draw(magnitudes)}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(doc=st.one_of(finite_docs, power_log_docs()), verb=st.sampled_from(VERBS),
       window=st.integers(min_value=1, max_value=1024))
def test_no_wire_document_escapes_a_verb_warns_or_prints_nan(doc, verb, window):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(json.dumps(doc))
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = cli.main(verb + ["--window", str(window), "--in", str(path)])
    assert code in (0, 1, 2), stderr.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], [str(w.message) for w in caught]
    assert "NaN" not in stdout.getvalue()
