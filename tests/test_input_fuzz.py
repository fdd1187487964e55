"""Malformed vertex files fail cleanly: `analyze` on any text or JSON file
exits 0, or exits 1 with an `error:` line and no traceback.

Coordinates stay within ±3 and points within three coordinates, so a file
that happens to describe a polytope is analyzed in milliseconds.
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from polynorm.cli import EXIT_INPUT, EXIT_OK, main

coordinates = st.integers(-3, 3)
garbage_tokens = st.sampled_from(
    ("x", "1.5", "-", "--", "1e3", "0x1", "nan", "True", "+2", "3/2", "٣", "#", "[1]"))
text_tokens = st.one_of(coordinates.map(str), garbage_tokens, st.text(max_size=3))

# rows of one to three coordinates, a shared width or mixed widths
text_lines = st.lists(st.lists(text_tokens, min_size=0, max_size=3).map(" ".join),
                      max_size=8)
int_rows = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.lists(coordinates, min_size=d, max_size=d), max_size=8))
text_files = st.one_of(
    int_rows.map(lambda rows: "\n".join(" ".join(map(str, r)) for r in rows)),
    text_lines.map("\n".join),
    st.text(max_size=40),
)

json_scalars = st.one_of(coordinates, st.floats(-3, 3), st.booleans(), st.none(),
                         st.text(max_size=3))
json_values = st.recursive(json_scalars, lambda inner: st.lists(inner, max_size=3),
                           max_leaves=12)
json_rows = st.one_of(
    int_rows,
    st.lists(st.lists(json_values, max_size=3), max_size=8),
    json_values,
)
json_documents = st.one_of(
    st.fixed_dictionaries({"vertices": json_rows},
                          optional={"name": st.one_of(st.text(max_size=5), json_scalars)}),
    json_values,
)
json_files = st.one_of(
    json_documents.map(json.dumps),
    st.text(max_size=40),
)

vertex_files = st.one_of(
    st.tuples(st.just(".txt"), text_files),
    st.tuples(st.just(".json"), json_files),
    st.tuples(st.sampled_from((".txt", ".json")), st.just("")),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(vertex_files)
def test_analyze_exits_cleanly_on_any_vertex_file(tmp_path, capsys, case):
    suffix, content = case
    path = tmp_path / f"input{suffix}"
    path.write_text(content)
    code = main(["analyze", str(path)])
    captured = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_INPUT), (content, captured.err)
    assert "Traceback" not in captured.err
    if code == EXIT_INPUT:
        assert captured.out == ""
        assert captured.err.startswith("error: "), captured.err
        assert captured.err.count("\n") == 1
