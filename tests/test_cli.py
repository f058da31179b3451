import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mukaikit import cli
from mukaikit.cli import run
from mukaikit.errors import MukaikitError


PROJECTIVE_CONFIG = {
    "surface": {
        "ns_gram": [[2, 0], [0, -2]],
        "reference_positive": [1, 0],
    },
    "mukai": {"r": 2, "xi": [1, 0], "a": 0},
    "omega": {"ns": [1, "1/4"], "t": []},
    "omega_prime": {"ns": [1, "-1/4"], "t": []},
    "twist": {"s": 2, "b": 0, "b_field": [0, "1/2"]},
}

NONPROJECTIVE_CONFIG = {
    "surface": {
        "ns_gram": [[-10]],
        "t11_gram": [[2]],
        "reference_positive": [0, 1],
    },
    "mukai": {"r": 2, "xi": [1], "a": -3},
    "omega": {"ns": [1], "t": [3]},
    "omega_prime": {"ns": [-1], "t": [3]},
    "existence": {"r": 2, "d": 0, "g": -4},
}

# Embeddings of NS into U^3 (+) E8(-1)^2 that skip summands: h2 computes on
# the Mukai summands up to the one that holds v, and appends the rest.
E8_ROOT_CONFIG = {  # <-2> onto the first basis root of the first E8(-1)
    **NONPROJECTIVE_CONFIG,
    "surface": {"ns_gram": [[-2]], "t11_gram": [[2]], "reference_positive": [0, 1]},
    "mukai": {"r": 2, "xi": [1], "a": -1},
    "embedding": [[0] * 6 + [1] + [0] * 15],
}
THIRD_U_CONFIG = {  # <-10> as (1, -5) on the third U
    **NONPROJECTIVE_CONFIG,
    "embedding": [[0] * 4 + [1, -5] + [0] * 16],
}

# T parts with denominators other than those of the NS parts, so the segment
# set-up scales the transcendental block.
RATIONAL_T_CONFIG = {
    "surface": {"ns_gram": [[-2, 0], [0, -6]], "t11_gram": [[2]],
                "reference_positive": [0, 0, 1]},
    "mukai": {"r": 3, "xi": [1, 1], "a": -2},
    "omega": {"ns": ["1/3", "-2/5"], "t": ["7/4"]},
    "omega_prime": {"ns": ["-5/7", "1/2"], "t": ["9/5"]},
}

# The paper's non-projective case: omega has NS part 0, so walls_through_class
# hands the kernel a zero row and omega-perp in NS is the whole of NS.
ZERO_NS_OMEGA_CONFIG = {
    **RATIONAL_T_CONFIG,
    "omega": {"ns": [0, 0], "t": [1]},
    "omega_prime": {"ns": ["1/3", "-2/5"], "t": ["7/4"]},
}

USAGE = (
    "usage: mukaikit <subcommand> [--config PATH] [--format {text,json}]\n"
    "subcommands: chamber, crossings, exists, generic, h2, pairing, projective, report, twist,"
    " type, walls\n"
)
WALLS_USAGE = "usage: mukaikit walls [-h] [--config CONFIG] [--format {text,json}]"


@pytest.fixture
def projective_cfg(tmp_path):
    path = tmp_path / "projective.json"
    path.write_text(json.dumps(PROJECTIVE_CONFIG))
    return str(path)


@pytest.fixture
def nonprojective_cfg(tmp_path):
    path = tmp_path / "nonprojective.json"
    path.write_text(json.dumps(NONPROJECTIVE_CONFIG))
    return str(path)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestSubcommands:
    def test_report_json_fields(self, projective_cfg):
        code, out, err = invoke(["report", "--config", projective_cfg, "--format", "json"])
        assert code == 0, err
        payload = json.loads(out)
        assert payload["schema_version"] == "1"
        result = payload["result"]
        assert result["dim"] == 4
        assert result["n"] == 2
        assert result["b2"] == 23
        assert result["projective_moduli"] is True

    def test_exists_accept(self):
        code, out, _ = invoke(["exists", "--r", "2", "--d", "0", "--g", "-4", "--format", "json"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["accepted"] is True
        assert result["delta"] == "3/4"
        assert result["c2"] == -1
        assert result["irreducible"] is True
        assert result["irreducibility_lower_bound"] == "5/4"

    def test_exists_reject(self):
        code, out, _ = invoke(["exists", "--r", "2", "--d", "4", "--g", "-4", "--format", "json"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["accepted"] is False and result["failures"]

    def test_generic_empty_wall_set(self, nonprojective_cfg, tmp_path):
        cfg = json.loads((tmp_path / "nonprojective.json").read_text())
        cfg["mukai"] = {"r": 2, "xi": [1], "a": -2}
        path = tmp_path / "rigid.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = invoke(["generic", "--config", str(path), "--format", "json"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["generic"] is True
        assert result["wall_set_empty"] is True
        assert "empty" in result["note"]

    def test_generic_nonempty_wall_set(self, nonprojective_cfg):
        code, out, _ = invoke(["generic", "--config", nonprojective_cfg, "--format", "json"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["generic"] is True
        assert result["wall_set_empty"] is False
        assert "note" not in result

    def test_walls_emits_plot_lines_on_rank2(self, projective_cfg, tmp_path):
        cfg = dict(PROJECTIVE_CONFIG)
        cfg["mukai"] = {"r": 2, "xi": [1, 1], "a": 0}
        cfg["omega"] = {"ns": [1, 0], "t": []}
        path = tmp_path / "onwall.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = invoke(["walls", "--config", str(path), "--format", "json"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["count"] == 1
        assert result["walls"][0]["d"] == ["0", "1"]
        assert result["lines"] == [["0", "-2"]]

    def test_crossings(self, projective_cfg, tmp_path):
        cfg = dict(PROJECTIVE_CONFIG)
        cfg["mukai"] = {"r": 2, "xi": [1, 1], "a": 0}
        path = tmp_path / "cross.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = invoke(["crossings", "--config", str(path), "--format", "json"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["count"] == 1
        assert result["crossings"][0]["t"] == "1/2"

    def test_chamber(self, projective_cfg, tmp_path):
        cfg = dict(PROJECTIVE_CONFIG)
        cfg["mukai"] = {"r": 2, "xi": [1, 1], "a": 0}
        path = tmp_path / "chamber.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = invoke(["chamber", "--config", str(path), "--format", "json"])
        assert code == 0
        assert json.loads(out)["result"]["same_chamber"] is False

    def test_crossings_and_chamber_with_rational_t_parts(self, tmp_path):
        path = tmp_path / "rational_t.json"
        path.write_text(json.dumps(RATIONAL_T_CONFIG))
        code, out, err = invoke(["crossings", "--config", str(path), "--format", "json"])
        assert code == 0, err
        result = json.loads(out)["result"]
        assert result["count"] == 13
        assert result["crossings"][0] == {"d": ["4", "1"], "d_square": "-38", "t": "28/313"}
        code, out, err = invoke(["chamber", "--config", str(path), "--format", "json"])
        assert code == 0, err
        assert json.loads(out)["result"]["same_chamber"] is False

    def test_walls_through_an_omega_with_zero_ns_part(self, tmp_path):
        path = tmp_path / "zero_ns_omega.json"
        path.write_text(json.dumps(ZERO_NS_OMEGA_CONFIG))
        code, out, err = invoke(["walls", "--config", str(path), "--format", "json"])
        assert code == 0, err
        result = json.loads(out)["result"]
        assert (result["bound"], result["count"]) == ("99/2", 14)
        assert result["walls"][0] == {"d": ["1", "0"], "d_square": "-2"}
        code, out, err = invoke(["generic", "--config", str(path), "--format", "json"])
        assert code == 0, err
        assert json.loads(out)["result"]["generic"] is False
        code, _, err = invoke(["chamber", "--config", str(path), "--format", "json"])
        assert code == 3
        assert "segment start point lies on a wall D=(1, 0) with D^2=-2" in err

    def test_twist_roundtrip(self, projective_cfg):
        code, out, _ = invoke(["twist", "--config", projective_cfg, "--format", "json"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["w_xi_roundtrip_ok"] is True
        assert "ch_B" in result

    def test_h2(self, nonprojective_cfg):
        code, out, _ = invoke(["h2", "--config", nonprojective_cfg, "--format", "json"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["rank"] == 23
        assert result["signature"] == [3, 0, 20]
        assert result["discriminant_group"] == [2]

    def test_h2_with_explicit_embedding(self, tmp_path):
        cfg = json.loads(json.dumps(NONPROJECTIVE_CONFIG))
        cfg["embedding"] = [[1, -5] + [0] * 20]
        path = tmp_path / "embedded.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = invoke(["h2", "--config", str(path), "--format", "json"])
        assert code == 0
        assert json.loads(out)["result"]["signature"] == [3, 0, 20]

    @pytest.mark.parametrize("cfg", [E8_ROOT_CONFIG, THIRD_U_CONFIG], ids=["e8-root", "third-u"])
    def test_h2_with_an_embedding_that_skips_summands(self, tmp_path, cfg):
        path = tmp_path / "skipping.json"
        path.write_text(json.dumps(cfg))
        code, out, err = invoke(["h2", "--config", str(path), "--format", "json"])
        assert code == 0, err
        result = json.loads(out)["result"]
        assert result["rank"] == 23
        assert result["signature"] == [3, 0, 20]
        assert result["discriminant_group"] == [2]

    def test_h2_rejects_bad_embedding(self, tmp_path):
        cfg = json.loads(json.dumps(NONPROJECTIVE_CONFIG))
        cfg["embedding"] = [[1, 0] + [0] * 20]  # square 0, not -10
        path = tmp_path / "bad_embed.json"
        path.write_text(json.dumps(cfg))
        code, _, err = invoke(["h2", "--config", str(path)])
        assert code == 2
        assert "intersection form" in err

    @pytest.mark.parametrize("r, a, expected", [
        (2, -1, (23, [3, 0, 20], [4], False)),  # v = (2, 0, -1), v^2 = 4
        (1, 0, (22, [3, 0, 19], [], True)),  # v = (1, 0, 0), v^2 = 0
    ])
    def test_h2_on_ns_zero(self, tmp_path, r, a, expected):
        # A generic non-projective K3 has NS = 0; xi = 0 embeds as 22 zeros.
        cfg = {"surface": {"ns_gram": [], "t11_gram": [[2]], "reference_positive": [1]},
               "mukai": {"r": r, "xi": [], "a": a}}
        path = tmp_path / "ns0.json"
        path.write_text(json.dumps(cfg))
        code, out, err = invoke(["h2", "--config", str(path), "--format", "json"])
        assert code == 0, err
        result = json.loads(out)["result"]
        got = (result["rank"], result["signature"], result["discriminant_group"],
               result["quotient_by_v"])
        assert got == expected
        assert result["square"] == str(-2 * r * a)

    def test_projective_witness(self, nonprojective_cfg):
        code, out, _ = invoke(["projective", "--config", nonprojective_cfg, "--format", "json"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["projective_moduli"] is False
        assert result["projective_surface"] is False
        assert result["verdicts_agree"] is True
        assert result["twisted_isotropy_square"] == "-32"

    def test_pairing_and_type(self, nonprojective_cfg):
        code, out, _ = invoke(["pairing", "--config", nonprojective_cfg, "--format", "json"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["square"] == "2" and result["discriminant"] == "5/4"
        code, out, _ = invoke(["type", "--config", nonprojective_cfg, "--format", "json"])
        assert code == 0
        assert json.loads(out)["result"]["c2"] == 0

    def test_text_format(self, nonprojective_cfg):
        code, out, _ = invoke(["report", "--config", nonprojective_cfg])
        assert code == 0
        assert "dim: 4" in out


class TestExitCodes:
    def test_unknown_subcommand(self):
        code, _, err = invoke(["frobnicate"])
        assert code == 64
        assert "unknown subcommand" in err

    def test_missing_config(self):
        code, _, err = invoke(["report"])
        assert code == 2
        assert "required" in err

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"surface": {"ns_gram": [[2, 0]]}}')
        code, _, err = invoke(["report", "--config", str(path)])
        assert code == 2

    def test_field_precise_message(self, tmp_path):
        cfg = dict(NONPROJECTIVE_CONFIG)
        cfg = json.loads(json.dumps(cfg))
        cfg["omega"] = {"ns": [1, 2], "t": [3]}
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps(cfg))
        code, _, err = invoke(["report", "--config", str(path)])
        assert code == 2
        assert "omega.ns" in err

    def test_float_rejected(self, tmp_path):
        cfg = json.loads(json.dumps(NONPROJECTIVE_CONFIG))
        cfg["omega"] = {"ns": [0.5], "t": [3]}
        path = tmp_path / "float.json"
        path.write_text(json.dumps(cfg))
        code, _, err = invoke(["report", "--config", str(path)])
        assert code == 2
        assert "float" in err

    def test_hypothesis_violation_exit_3(self, tmp_path):
        # Non-generic segment endpoint: crossing query must fail with 3.
        cfg = json.loads(json.dumps(PROJECTIVE_CONFIG))
        cfg["mukai"] = {"r": 2, "xi": [1, 1], "a": 0}
        cfg["omega"] = {"ns": [1, 0], "t": []}
        path = tmp_path / "onwall.json"
        path.write_text(json.dumps(cfg))
        code, _, err = invoke(["crossings", "--config", str(path)])
        assert code == 3
        assert "wall" in err

    def test_on_wall_message_names_the_wall(self, tmp_path):
        cfg = json.loads(json.dumps(PROJECTIVE_CONFIG))
        cfg["mukai"] = {"r": 2, "xi": [1, 1], "a": 0}
        cfg["omega"] = {"ns": [1, 0], "t": []}
        path = tmp_path / "onwall.json"
        path.write_text(json.dumps(cfg))
        code, out, err = invoke(["crossings", "--config", str(path), "--format", "json"])
        assert (code, out) == (3, "")
        assert "segment start point lies on a wall D=(0, 1) with D^2=-2" in err

    def test_non_polarization_message_states_the_value(self, tmp_path):
        cfg = json.loads(json.dumps(PROJECTIVE_CONFIG))
        cfg["omega_prime"] = {"ns": [1, 2], "t": []}
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(cfg))
        code, out, err = invoke(["crossings", "--config", str(path), "--format", "json"])
        assert (code, out) == (3, "")
        assert "segment end point is not a polarization (omega'^2=-6 <= 0)" in err

    @pytest.mark.parametrize("command", ["walls", "generic", "chamber", "crossings"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_non_integral_rank_has_no_wall_set(self, tmp_path, command, fmt):
        cfg = json.loads(json.dumps(PROJECTIVE_CONFIG))
        cfg["mukai"] = {"r": "3/2", "xi": [1, 0], "a": 0}
        path = tmp_path / "half.json"
        path.write_text(json.dumps(cfg))
        code, out, err = invoke([command, "--config", str(path), "--format", fmt])
        assert (code, out) == (3, "")
        assert err == (f"mukaikit {command}: hypothesis violated: "
                       "wall sets are defined for integral positive rank\n")

    def test_twisting_sheaf_of_rank_zero(self, tmp_path):
        # TwistData's own HypothesisViolation is reported as invalid input.
        cfg = {**PROJECTIVE_CONFIG, "twist": {"s": 0, "b": 0}}
        path = tmp_path / "rank0.json"
        path.write_text(json.dumps(cfg))
        code, out, err = invoke(["twist", "--config", str(path)])
        assert (code, out) == (2, "")
        assert err == "mukaikit twist: invalid input: twist: twisting sheaf must have rank >= 1\n"

    def test_exists_needs_arguments(self):
        code, _, err = invoke(["exists"])
        assert code == 2

    def test_curve_classes_not_a_list(self, tmp_path):
        cfg = json.loads(json.dumps(PROJECTIVE_CONFIG))
        cfg["surface"]["curve_classes"] = 5
        path = tmp_path / "curves.json"
        path.write_text(json.dumps(cfg))
        code, out, err = invoke(["report", "--config", str(path), "--format", "json"])
        assert (code, out) == (2, "")
        assert "surface.curve_classes: expected a list" in err

    def test_config_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        # A Latin-1 e-acute inside a string value: one byte 0xe9, not UTF-8.
        path.write_bytes(b'{"surface": {"label": "caf\xe9"}}')
        code, out, err = invoke(["report", "--config", str(path), "--format", "json"])
        assert (code, out) == (2, "")
        assert f"{path} is not valid UTF-8" in err

    def test_config_nested_too_deeply(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"surface": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = invoke(["report", "--config", str(path), "--format", "json"])
        assert (code, out) == (2, "")
        assert f"JSON in {path} is nested too deeply" in err

    @pytest.mark.parametrize("value", ["1e5000", "1e10000000", "1.5", "1_000", " 1/2", "1/0"])
    def test_rational_string_must_be_p_or_p_over_q(self, tmp_path, value):
        # Fraction alone takes decimals and exponents; "1e10000000" would
        # take seconds to build and then fail to serialize.
        cfg = json.loads(json.dumps(NONPROJECTIVE_CONFIG))
        cfg["omega"]["t"] = [value]
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps(cfg))
        code, out, err = invoke(["report", "--config", str(path), "--format", "json"])
        assert (code, out) == (2, "")
        assert f"omega.t[0]: {value!r} is not a rational 'p/q' string" in err

    def test_integer_literal_over_the_digit_limit(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"surface": {"ns_gram": [[' + "1" * 5000 + "]]}}")
        code, out, err = invoke(["report", "--config", str(path), "--format", "json"])
        assert (code, out) == (2, "")
        assert f"config: invalid JSON in {path}" in err

    @pytest.mark.parametrize("command", ["pairing", "type"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_result_over_the_digit_limit(self, tmp_path, command, fmt):
        # A 3,001-digit xi reads fine, but v^2 and c2 have about 6,000 digits:
        # pairing prints them as rational strings, type prints c2 as a raw int.
        cfg = json.loads(json.dumps(PROJECTIVE_CONFIG))
        cfg["mukai"]["xi"] = [int("1" * 3001), 0]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg))
        code, out, err = invoke([command, "--config", str(path), "--format", fmt])
        assert (code, out) == (2, "")
        assert "a result has a number over the 4300-digit limit for integer output" in err

    def test_no_arguments_prints_usage(self):
        code, out, err = invoke([])
        assert (code, out) == (64, "")
        assert err == USAGE
        for flag in ("-h", "--help"):
            assert invoke([flag]) == (0, "", USAGE)

    def test_subcommand_help_exits_0_on_the_given_stdout(self):
        for flag in ("-h", "--help"):
            code, out, err = invoke(["walls", flag])
            assert (code, err) == (0, "")
            assert out.startswith(f"{WALLS_USAGE}\n\noptions:\n")
            assert "--config CONFIG       path to a JSON config file\n" in out

    def test_usage_error_on_the_given_stderr(self):
        code, out, err = invoke(["walls", "--bogus"])
        assert (code, out) == (2, "")
        assert err == f"{WALLS_USAGE}\nmukaikit walls: error: unrecognized arguments: --bogus\n"

    @pytest.mark.parametrize("base, edits, message", [
        # The README's example.
        ("nonprojective", {("omega", "ns"): [1, 2]}, "omega.ns: expected length 1, got 2"),
        ("projective", {("surface", "curve_classes"): [[1, 0], [1]]},
         "surface.curve_classes[1]: expected length 2, got 1"),
        ("projective", {("surface", "reference_positive"): [1]},
         "surface.reference_positive: expected length 2 (NS rank + transcendental rank), got 1"),
        ("projective", {("mukai", "xi"): [1, 0, 0]}, "mukai.xi: expected length 2, got 3"),
        ("projective", {("omega", "t"): [1]}, "omega.t: expected length 0, got 1"),
        ("projective", {("omega_prime", "ns"): [1]}, "omega_prime.ns: expected length 2, got 1"),
        ("projective", {("omega_prime", "t"): [1]}, "omega_prime.t: expected length 0, got 1"),
        ("projective", {("twist", "b_field"): [0]}, "twist.b_field: expected length 2, got 1"),
        # Both parts of a class are parsed before either length is checked,
        # and ns is checked before t.
        ("nonprojective", {("omega", "ns"): [1, 2], ("omega", "t"): [3, 4]},
         "omega.ns: expected length 1, got 2"),
        ("nonprojective", {("omega", "ns"): [1, 2], ("omega", "t"): [0.5]},
         "omega.t[0]: floats are not accepted; use 'p/q' strings"),
        # A section's lengths are checked before the next section is read.
        ("projective", {("mukai", "xi"): [1], ("omega", "ns"): [1]},
         "mukai.xi: expected length 2, got 1"),
    ])
    def test_length_messages(self, tmp_path, base, edits, message):
        cfg = json.loads(json.dumps(PROJECTIVE_CONFIG if base == "projective"
                                    else NONPROJECTIVE_CONFIG))
        for (section, key), value in edits.items():
            cfg[section][key] = value
        path = tmp_path / "length.json"
        path.write_text(json.dumps(cfg))
        code, out, err = invoke(["report", "--config", str(path), "--format", "json"])
        assert (code, out) == (2, "")
        assert err == f"mukaikit report: invalid input: {message}\n"


# -- config errors: exit 2, the message on stderr, nothing on stdout ---------------

NO_SURFACE_CONFIG = {k: v for k, v in PROJECTIVE_CONFIG.items() if k != "surface"}
NO_NS_GRAM_CONFIG = {**PROJECTIVE_CONFIG, "surface": {"reference_positive": [1, 0]}}
NO_REFERENCE_CONFIG = {**PROJECTIVE_CONFIG, "surface": {"ns_gram": [[2, 0], [0, -2]]}}
NO_RANK_CONFIG = {**PROJECTIVE_CONFIG, "mukai": {"xi": [1, 0], "a": 0}}
RAGGED_GRAM_CONFIG = {
    **PROJECTIVE_CONFIG,
    "surface": {"ns_gram": [[2, 0], [0]], "reference_positive": [1, 0]},
}
MUKAI_LIST_CONFIG = {**PROJECTIVE_CONFIG, "mukai": [2, [1, 0], 0]}
DEGENERATE_T11_CONFIG = {
    **NONPROJECTIVE_CONFIG,
    "surface": {"ns_gram": [[-10]], "t11_gram": [[0]], "reference_positive": [0, 1]},
}


@pytest.mark.parametrize("cfg, message", [
    (NO_SURFACE_CONFIG, "surface: section is required"),
    (NO_NS_GRAM_CONFIG, "surface.ns_gram: field is required"),
    (NO_REFERENCE_CONFIG, "surface.reference_positive: field is required"),
    (NO_RANK_CONFIG, "mukai.r: field is required"),
    (RAGGED_GRAM_CONFIG, "surface.ns_gram: rows have inconsistent lengths"),
    (MUKAI_LIST_CONFIG, "mukai: expected an object"),
    (DEGENERATE_T11_CONFIG, "surface: transcendental block must be nondegenerate"),
])
def test_config_error_exits_2(tmp_path, cfg, message):
    code, out, err = invoke(["report", "--config", _write(tmp_path, "bad", cfg)])
    assert (code, out, err) == (2, "", f"mukaikit report: invalid input: {message}\n")


def test_unreadable_config_exits_2(tmp_path):
    path = tmp_path / "missing.json"
    code, out, err = invoke(["report", "--config", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"mukaikit report: invalid input: config: cannot read {path}: ")


def test_exists_with_some_of_its_flags_exits_2():
    code, out, err = invoke(["exists", "--r", "2"])
    assert (code, out, err) == (
        2, "", "mukaikit exists: invalid input: exists: provide all of --r, --d, --g or none\n")


def test_bare_library_error_exits_2(monkeypatch):
    def handler(cfg, args):
        raise MukaikitError("no verdict")

    monkeypatch.setitem(cli._COMMANDS, "exists", (handler, False))
    assert invoke(["exists"]) == (2, "", "mukaikit exists: no verdict\n")


class TestDeterminism:
    def test_json_roundtrip_byte_identical(self, projective_cfg):
        _, out, _ = invoke(["report", "--config", projective_cfg, "--format", "json"])
        reparsed = json.dumps(json.loads(out), sort_keys=True, indent=2, ensure_ascii=True) + "\n"
        assert reparsed == out

    def test_bad_threads_rejected(self, projective_cfg):
        code, _, err = invoke(["walls", "--config", projective_cfg, "--threads", "0"])
        assert code == 2


def test_module_entrypoint_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mukaikit", "exists", "--r", "2", "--d", "0", "--g", "-4",
         "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["accepted"] is True


# -- start-up: what a one-shot child imports, and that it prints the same bytes --

WALLS_CONFIG = {  # PROJECTIVE_CONFIG with one wall and no twist section
    **{k: v for k, v in PROJECTIVE_CONFIG.items() if k != "twist"},
    "mukai": {"r": 2, "xi": [1, 1], "a": 0},
}
ON_WALL_CONFIG = {**WALLS_CONFIG, "omega": {"ns": [1, 0], "t": []}}
FLOAT_CONFIG = {**WALLS_CONFIG, "omega": {"ns": [1, 0.25], "t": []}}

# Standard-library modules no start-up path may load: ``dataclasses`` brings
# in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and each child compiles them.
_NEVER_LOADED = ("dataclasses", "inspect")
_REPORT_MODULES = (
    "import io, sys\n"
    "import mukaikit.cli\n"
    "code = mukaikit.cli.run(sys.argv[1:], stdout=io.StringIO(), stderr=io.StringIO())\n"
    "print(code, *sorted(m for m in sys.modules if m.split('.')[0] == 'mukaikit'))\n"
    f"print(*sorted(m for m in {_NEVER_LOADED!r} if m in sys.modules))\n"
)


def _write(tmp_path, name, cfg) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _loaded_by_child(argv) -> tuple[int, set[str]]:
    """Exit code of ``cli.run(argv)`` in a fresh interpreter, and the
    ``mukaikit`` modules that interpreter has loaded when it returns.

    Asserts on the way that none of ``_NEVER_LOADED`` was loaded."""
    proc = subprocess.run([sys.executable, "-c", _REPORT_MODULES, *argv],
                          capture_output=True, text=True, check=True)
    ours, never = proc.stdout.split("\n")[:2]
    assert never == ""
    code, *modules = ours.split()
    return int(code), {m.removeprefix("mukaikit.") for m in modules}


class TestDispatchImports:
    def test_unknown_subcommand_loads_only_the_front_end(self):
        code, loaded = _loaded_by_child(["frobnicate"])
        assert code == 64
        assert loaded == {"mukaikit", "cli", "errors", "serialize"}

    @pytest.mark.parametrize("case", ["malformed_config", "float_in_config", "partial_flags"])
    def test_validation_errors_load_no_search(self, tmp_path, case):
        (tmp_path / "bad.json").write_text("{not json")
        argv = {
            "malformed_config": ["walls", "--config", str(tmp_path / "bad.json")],
            "float_in_config": ["walls", "--config", _write(tmp_path, "float", FLOAT_CONFIG)],
            "partial_flags": ["exists", "--r", "2"],
        }[case]
        code, loaded = _loaded_by_child(argv)
        assert code == 2
        assert not loaded & {"walls", "shortvec", "moduli"}

    def test_exists_from_flags_loads_no_search_and_no_config(self):
        code, loaded = _loaded_by_child(["exists", "--r", "2", "--d", "0", "--g", "-4"])
        assert code == 0
        assert "moduli" in loaded
        assert not loaded & {"walls", "shortvec", "config"}

    @pytest.mark.parametrize("command, absent", [
        ("pairing", {"walls", "shortvec", "moduli", "twisted"}),
        ("type", {"walls", "shortvec", "moduli", "twisted"}),
        ("walls", {"moduli", "twisted"}),
        ("crossings", {"moduli", "twisted"}),
        ("h2", {"walls", "shortvec"}),
        ("projective", {"walls", "shortvec"}),
    ])
    def test_subcommand_loads_only_what_it_runs(self, tmp_path, command, absent):
        cfg = NONPROJECTIVE_CONFIG if command in ("pairing", "type", "h2", "projective") \
            else WALLS_CONFIG
        code, loaded = _loaded_by_child([command, "--config", _write(tmp_path, command, cfg)])
        assert code == 0
        assert not loaded & absent

    @pytest.mark.parametrize("command", ["generic", "chamber", "twist", "report", "exists"])
    def test_no_subcommand_loads_dataclasses(self, tmp_path, command):
        # _loaded_by_child asserts that dataclasses and inspect stay unloaded; the
        # tests above run the other subcommands.
        cfg = _write(tmp_path, command, _subcommand_config(command))
        code, loaded = _loaded_by_child([command, "--config", cfg])
        assert code == 0
        assert "cli" in loaded


def _subcommand_config(command: str) -> dict:
    if command == "twist":
        return PROJECTIVE_CONFIG
    if command in ("walls", "generic", "chamber", "crossings"):
        return WALLS_CONFIG
    return NONPROJECTIVE_CONFIG


# case -> (exit code, argv without --config, config)
CHILD_CASES = {
    f"{command}-{fmt}": (0, [command, "--format", fmt], _subcommand_config(command))
    for command in ("pairing", "type", "walls", "generic", "chamber", "crossings", "twist",
                    "report", "h2", "projective", "exists")
    for fmt in ("text", "json")
}
CHILD_CASES.update({
    "float-in-config": (2, ["walls"], FLOAT_CONFIG),
    "endpoint-on-wall": (3, ["crossings"], ON_WALL_CONFIG),
    "unknown-subcommand": (64, ["frobnicate"], WALLS_CONFIG),
    "subcommand-help": (0, ["walls", "--help"], WALLS_CONFIG),
    "usage-error": (2, ["walls", "--bogus"], WALLS_CONFIG),
})


@pytest.mark.parametrize("case", CHILD_CASES)
def test_child_matches_in_process(tmp_path, case):
    # This process has every exported module loaded; the child loads only
    # what its subcommand runs. Output that depended on import order (a
    # warning printed once per process, a registration done at import)
    # would differ between the two.
    import mukaikit

    for name in mukaikit.__all__:
        getattr(mukaikit, name)
    expected, head, cfg = CHILD_CASES[case]
    argv = [*head, "--config", _write(tmp_path, "case", cfg)]
    child = subprocess.run([sys.executable, "-m", "mukaikit", *argv],
                           capture_output=True, text=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code == expected
    assert (child.returncode, child.stdout, child.stderr) == (code, out.getvalue(), err.getvalue())


# -- valid-model fuzz: every subcommand on configs that pass validation -------------

ALL_COMMANDS = ("pairing", "type", "walls", "generic", "chamber", "crossings", "twist",
                "report", "h2", "projective", "exists")
_SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@st.composite
def valid_configs(draw):
    """A config that parses: a diagonal even NS of rank 0-3 with at most one
    positive square, an optional T11 block (forced, positive, when NS has
    none), and classes omega, omega' that pass the polarization test."""
    rank = draw(st.integers(0, 3))
    ns = [draw(st.sampled_from((-2, -4, -6, -10))) for _ in range(rank)]
    if rank and draw(st.booleans()):
        ns[draw(st.integers(0, rank - 1))] = draw(st.sampled_from((2, 4)))
    if any(d > 0 for d in ns):
        t11 = draw(st.sampled_from(([], [-2])))
    else:
        t11 = [draw(st.sampled_from((2, 4)))]
    diag = ns + t11
    pos = next(i for i, d in enumerate(diag) if d > 0)

    def polarization():
        coords = [draw(st.integers(1, 3)) if i == pos else draw(_SMALL)
                  for i in range(len(diag))]
        assume(sum(d * c * c for d, c in zip(diag, coords)) > 0)
        coords = [str(Fraction(c)) for c in coords]  # "p" or "p/q"
        return {"ns": coords[:rank], "t": coords[rank:]}

    cfg = {
        "surface": {
            "ns_gram": [[d if i == j else 0 for j in range(rank)] for i, d in enumerate(ns)],
            "t11_gram": [[d] for d in t11],
            "reference_positive": [int(i == pos) for i in range(len(diag))],
        },
        "mukai": {"r": draw(st.integers(0, 4)),
                  "xi": [draw(st.integers(-2, 2)) for _ in range(rank)],
                  "a": draw(st.integers(-3, 3))},
        "omega": polarization(),
        "omega_prime": polarization(),
    }
    if draw(st.booleans()):
        cfg["twist"] = {"s": draw(st.integers(1, 3)), "b": draw(st.integers(-1, 1))}
    if draw(st.booleans()):
        cfg["existence"] = {"r": draw(st.integers(1, 3)), "d": draw(st.integers(-2, 2)),
                            "g": draw(st.integers(-4, 2))}
    return cfg


@pytest.fixture(scope="module")
def fuzz_config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


@given(cfg=valid_configs())
@settings(max_examples=50, deadline=None)
def test_valid_models_end_in_a_documented_exit_code(fuzz_config_path, cfg):
    fuzz_config_path.write_text(json.dumps(cfg))
    for command in ALL_COMMANDS:
        code, out, err = invoke([command, "--config", str(fuzz_config_path), "--format", "json"])
        assert code in (0, 2, 3), (command, err)
        if code:
            assert out == "" and err.startswith(f"mukaikit {command}: "), (command, err)
        else:
            reparsed = json.dumps(json.loads(out), sort_keys=True, indent=2, ensure_ascii=True)
            assert (err, reparsed + "\n") == ("", out)
