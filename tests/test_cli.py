"""CLI contract: request validation, reports, exit codes, determinism."""

import hashlib
import io
import json
import math
import pathlib
import subprocess
import sys

from fractions import Fraction

import pytest

from parahol import cli, linalg, sampling, schemas
from parahol.families import build
from parahol.scales import default_scale, scale_from_element

REPO = pathlib.Path(__file__).resolve().parent.parent


def run_cli(command, payload=None, *flags):
    """Invoke the CLI in a subprocess; returns (exit_code, stdout)."""
    proc = subprocess.run(
        [sys.executable, "-m", "parahol.cli", command, *flags],
        input="" if payload is None else json.dumps(payload),
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    return proc.returncode, proc.stdout


def test_classify_dilation_report():
    code, out = run_cli("classify", {
        "family": "conformal", "params": [3, 0], "element": {"D": 1},
    })
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Essential"
    assert doc["weyl_reducible"] is True
    assert doc["certificate"] == {"lambda_nonzero": 6}
    assert doc["exact"] is True


def test_classify_rotation_all_zero_witness():
    code, out = run_cli("classify", {
        "family": "conformal", "params": [3, 0], "element": {"M_12": 1},
    })
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Inessential"
    assert doc["witness"] == {"K_1": 0, "K_2": 0, "K_3": 0}


def test_classify_rational_string_coefficients():
    code, out = run_cli("classify", {
        "family": "cr", "params": [1], "element": {"E": "1/2", "S": "1"},
    })
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Essential"
    assert doc["certificate"] == {"lambda_nonzero": 6}
    assert doc["witness"] == {"K_1": 0, "K_2": 0, "S": 1}


def test_algebra_info_values():
    code, out = run_cli("algebra-info", {"family": "conformal", "params": [3, 0]})
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 10
    assert doc["grade_dims"] == {"-1": 3, "0": 4, "1": 3}
    assert doc["killing_of_grading_element"] == 6
    assert doc["kernel_dim"] == 3


@pytest.mark.parametrize("family,params", [
    ("conformal", [2, 0]), ("conformal", [1, 1]), ("conformal", [3, 0]),
    ("conformal", [2, 2]), ("cr", [1]), ("cr", [2]), ("cr", [3]),
])
def test_algebra_info_kernel_dim_counts_a_kernel_basis(family, params):
    """kernel_dim = dim g_0 - 1 is the size of a basis of Ker(lambda'), at
    the default scale E and at -E/3."""
    code, out = run_cli("algebra-info", {"family": family, "params": params})
    assert code == 0
    algebra = build(family, params)
    for scale in (default_scale(algebra), scale_from_element(
            algebra, Fraction(-1, 3) * algebra.grading_element)):
        row = [scale.lambda_prime(algebra.basis_element(i))
               for i in algebra.indices_of_grade(0)]
        den = math.lcm(*[v.denominator for v in row])
        kernel = linalg.nullspace([[v.numerator * (den // v.denominator) for v in row]])
        assert json.loads(out)["kernel_dim"] == len(kernel)


def test_algebra_verify_passes():
    code, out = run_cli("algebra-verify", {"family": "cr", "params": [1]})
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["checks"]["jacobi"] == "exact"


def test_flat_classify_dilation():
    payload = {
        "field": {"a": [0, 0, 0], "A": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                  "s": 1, "b": [0, 0, 0], "signature": [3, 0]},
        "point": [0, 0, 0],
    }
    code, out = run_cli("flat-classify", payload)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Essential"
    assert doc["singular"] is True
    assert doc["certificate"] == {"lambda_nonzero": -6}


def test_flat_classify_nonsingular_shortcut():
    payload = {
        "field": {"a": [1, 0, 0], "A": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                  "s": 0, "b": [0, 0, 0], "signature": [3, 0]},
        "point": [0, 0, 0],
    }
    code, out = run_cli("flat-classify", payload)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "NonSingular"
    assert doc["locally_inessential"] is True


def test_schema_violation_exits_one_with_path():
    code, out = run_cli("classify", {"family": "conformal", "params": [3, 0]})
    assert code == 1
    doc = json.loads(out)
    assert "element" in doc["error"]["message"]
    assert doc["error"]["path"] == "$"


def test_unknown_basis_name_is_domain_error():
    code, out = run_cli("classify", {
        "family": "conformal", "params": [3, 0], "element": {"X_9": 1},
    })
    assert code == 1
    doc = json.loads(out)
    assert "X_9" in doc["error"]["message"]


def test_negative_grade_element_is_domain_error():
    code, out = run_cli("classify", {
        "family": "conformal", "params": [3, 0], "element": {"P_1": 1},
    })
    assert code == 1


def test_non_skew_flat_field_is_domain_error():
    payload = {
        "field": {"a": [0, 0], "A": [[0, 1], [1, 0]], "s": 0, "b": [0, 0],
                  "signature": [2, 0]},
        "point": [0, 0],
    }
    code, out = run_cli("flat-classify", payload)
    assert code == 1
    assert "skew" in json.loads(out)["error"]["message"]


def _flat_request(a=(0, 0, 0), linear=None, s=1, b=(0, 0, 0), signature=(3, 0),
                  point=(0, 0, 0)):
    n = len(a)
    linear = [[0] * n for _ in range(n)] if linear is None else linear
    return {"field": {"a": list(a), "A": linear, "s": s, "b": list(b),
                      "signature": list(signature)},
            "point": list(point)}


@pytest.mark.parametrize("command,payload,path", [
    ("algebra-info", {"family": "cr", "params": [3, 0]}, "$.params"),
    ("algebra-info", {"family": "conformal", "params": [1, 0]}, "$.params"),
    ("algebra-info", {"family": "cr", "params": [0]}, "$.params"),
    ("verify-identities", {"signature": [1, 0]}, "$.signature"),
    ("classify", {"family": "conformal", "params": [3, 0],
                  "element": {"P_1": 1}}, "$.element"),
    ("flat-classify", _flat_request(point=(0, 0)), "$.point"),
    ("flat-classify", _flat_request(a=("1/0", 0, 0)), "$.field.a[0]"),
    ("flat-classify", _flat_request(s="1/0"), "$.field.s"),
    ("flat-classify", _flat_request(a=(0, 0)), "$.field"),
    ("flat-classify", _flat_request(a=(0, 0), linear=[[0, 1], [1, 0]], s=0,
                                    b=(0, 0), signature=(2, 0), point=(0, 0)),
     "$.field"),
    ("verify-identities", {"signature": [3, 0], "t": 10}, "$.t"),
    # over the build budget (families.MAX_BUILD_DIM = 253)
    ("algebra-info", {"family": "cr", "params": [14]}, "$.params"),
    ("algebra-verify", {"family": "conformal", "params": [22, 0]}, "$.params"),
    ("classify", {"family": "conformal", "params": [11, 11],
                  "element": {"D": 1}}, "$.params"),
    ("verify-identities", {"signature": [22, 0], "samples": 1}, "$.signature"),
    ("flat-classify", {"field": {"signature": [22, 0], "a": [], "A": [], "s": 0,
                                 "b": []}, "point": []}, "$.field.signature"),
    # times with no finite RK4 step count
    ("verify-identities", {"t": float("inf")}, "$.t"),
    ("verify-identities", {"t": 1e308}, "$.t"),
    # times over MAX_RK4_STEPS steps (|t| > 10)
    ("verify-identities", {"t": 1e300, "samples": 1}, "$.t"),
    ("verify-identities", {"t": 10.5}, "$.t"),
    # a rational with a final newline is outside the request grammar
    ("classify", {"family": "conformal", "params": [3, 0],
                  "element": {"D": "1\n"}}, "$.element.D"),
    # an integer time too large for a float has no finite step count either
    ("verify-identities", {"t": 10 ** 400, "samples": 1}, "$.t"),
])
def test_request_field_errors_carry_a_path(command, payload, path):
    code, out = run_cli(command, payload)
    assert code == 1
    assert json.loads(out)["error"]["path"] == path


def test_a_huge_integer_time_is_refused_with_a_short_message():
    code, out = run_cli("verify-identities", {"t": 10 ** 400, "samples": 1})
    assert code == 1
    error = json.loads(out)["error"]
    assert error["path"] == "$.t"
    assert error["message"] == "time 10000000... (401 characters) has no finite RK4 step count"
    assert len(out) < 300


def test_oracle_compare_small_run():
    code, out = run_cli("oracle-compare", {"family": "conformal", "params": [3, 0]},
                        "--instances", "25", "--grid-steps", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] == 25
    assert doc["all_agree"] is True
    assert doc["agreement"] == "25/25"


@pytest.mark.parametrize("family,params,flags,path", [
    ("conformal", [3, 0], ("--instances", "-5"), "--instances"),
    ("cr", [1], ("--grid-steps", "-2"), "--grid-steps"),
    ("cr", [1], ("--grid-steps", "0"), "--grid-steps"),
    ("cr", [1], ("--grid-radius", "1/0"), "--grid-radius"),
    # positive part of dimension 9 > oracle.MAX_POSITIVE_DIM
    ("conformal", [9, 0], (), "$.params"),
    # 81^7 lattice points > oracle.MAX_LATTICE_POINTS
    ("cr", [3], ("--grid-steps", "40"), "--grid-steps"),
    # every lattice point would be Z = 0
    ("cr", [2], ("--grid-radius", "0"), "--grid-radius"),
    # outside the request grammar of rationals, jsonio.RATIONAL_PATTERN
    ("cr", [1], ("--grid-radius", " 1e-1 "), "--grid-radius"),
    ("cr", [1], ("--grid-radius", "0.5"), "--grid-radius"),
    ("cr", [1], ("--grid-radius", "1_0"), "--grid-radius"),
    ("cr", [1], ("--grid-radius", "2\n"), "--grid-radius"),
])
def test_oracle_compare_rejects_bad_flags(family, params, flags, path):
    code, out = run_cli("oracle-compare", {"family": family, "params": params},
                        "--instances", "5", *flags)
    assert code == 1
    assert json.loads(out)["error"]["path"] == path


@pytest.mark.parametrize("radius", ["1", "3/2", "-1", "1/3"])
def test_oracle_compare_prints_the_grid_radius_as_a_string(radius):
    """The radius is parsed with the request grammar and printed with str(),
    so "1" stays the string "1" in the report."""
    code, out = run_cli("oracle-compare", {"family": "cr", "params": [1]},
                        "--instances", "4", "--grid-radius", radius)
    assert code == 0
    assert f'"grid_radius": "{radius}",' in out
    assert json.loads(out)["all_agree"] is True


@pytest.mark.parametrize("family,params,flags,path", [
    ("conformal", [9, 0], (), "$.params"),
    ("cr", [3], ("--grid-steps", "40"), "--grid-steps"),
    ("cr", [2], ("--grid-radius", "0"), "--grid-radius"),
])
def test_oracle_compare_refuses_before_drawing_instances(
        monkeypatch, capsys, family, params, flags, path):
    def draw(*args):
        raise AssertionError("instances drawn before the oracle's refusal")

    monkeypatch.setattr(sampling, "comparison_instances", draw)
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        json.dumps({"family": family, "params": params})))
    code = cli.main(["oracle-compare", "--instances", "5000", *flags])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["error"]["path"] == path


def test_verify_identities_overflow_is_a_quiet_chart_escape():
    # at t = 10 the group-side exponentials overflow; the request fails on
    # the non-finite group point without numpy warnings on stderr
    proc = subprocess.run(
        [sys.executable, "-m", "parahol.cli", "verify-identities"],
        input=json.dumps({"signature": [3, 0], "t": 10}),
        capture_output=True, text=True, cwd=REPO,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"] == {
        "message": "group point left the chart", "path": "$.t"}
    assert proc.stderr == ""


def test_verify_identities_small_run():
    code, out = run_cli("verify-identities", {"samples": 4})
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["max_residuals"]["curvature"] == 0.0


def test_verify_identities_reads_an_integral_float_sample_count():
    # draft 2020-12 counts 4.0 as an integer, so the schema lets it through
    code, out = run_cli("verify-identities", {"samples": 4.0})
    assert code == 0, out
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["samples"] == 4
    assert '"samples": 4,' in out


@pytest.mark.parametrize("command,payload,flags", [
    ("classify", {"family": "conformal", "params": [3, 0],
                  "element": {"D": 1, "K_2": "2/3"}}, ()),
    ("oracle-compare", {"family": "cr", "params": [1]},
     ("--instances", "30", "--seed", "42")),
])
def test_reports_byte_identical_across_runs(command, payload, flags):
    first = run_cli(command, payload, *flags)
    second = run_cli(command, payload, *flags)
    assert first == second
    assert first[0] == 0


def test_text_output_mode():
    code, out = run_cli("algebra-info", {"family": "conformal", "params": [2, 0]},
                        "--output", "text")
    assert code == 0
    assert "dim: 6" in out
    assert "killing_of_grading_element: 4" in out


def test_file_input(tmp_path):
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"family": "conformal", "params": [2, 1]}))
    code, out = run_cli("algebra-info", None, "--file", str(req))
    assert code == 0
    assert json.loads(out)["dim"] == 10


def _schema_keywords(schema):
    found = set(schema)
    for sub in schema.get("properties", {}).values():
        found |= _schema_keywords(sub)
    for key in ("items", "additionalProperties"):
        if isinstance(schema.get(key), dict):
            found |= _schema_keywords(schema[key])
    return found


def test_validator_implements_exactly_the_keywords_the_schemas_use():
    used = set().union(*map(_schema_keywords, schemas.BY_COMMAND.values()))
    assert used == schemas.KEYWORDS


@pytest.mark.parametrize("schema", [
    {"type": "object", "minProperties": 1},
    {"properties": {"a": {"const": 1}}},         # on a branch the payload skips
    {"items": {"format": "date"}},
    {"additionalProperties": {"oneOf": []}},
    {"items": True},
    {"enum": [1, 2]},
    {"type": "float"},
])
def test_validate_raises_on_an_unsupported_keyword(schema):
    with pytest.raises(NotImplementedError):
        schemas.validate({}, schema)


# Every request but verify-identities runs on the standard library alone.
_IMPORT_PROBE = """
import json, sys
import parahol.cli
code = parahol.cli.main(sys.argv[1:])
heavy = [m for m in ("numpy", "scipy", "jsonschema") if m in sys.modules]
sys.stderr.write(json.dumps(heavy))
sys.exit(code)
"""


@pytest.mark.parametrize("command,payload,flags,code", [
    ("classify", {"family": "cr", "params": [1],
                  "element": {"E": "1/2", "S": 1}}, (), 0),
    ("flat-classify", _flat_request(), (), 0),
    ("algebra-info", {"family": "conformal", "params": [3, 0]}, (), 0),
    ("algebra-verify", {"family": "cr", "params": [2]}, (), 0),
    ("oracle-compare", {"family": "cr", "params": [1]},
     ("--instances", "10"), 0),
    ("classify", {"family": "conformal", "params": [3, 0],
                  "element": {"D": "1/x"}}, (), 1),
])
def test_requests_import_neither_numpy_scipy_nor_jsonschema(command, payload,
                                                             flags, code):
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, command, *flags],
        input=json.dumps(payload), capture_output=True, text=True, cwd=REPO,
    )
    assert proc.returncode == code, proc.stdout
    assert json.loads(proc.stderr) == []


_STDLIB_PROBE = """
import json, sys
import parahol.cli
code = parahol.cli.main(sys.argv[1:])
sys.stderr.write(json.dumps([m for m in ("dataclasses", "inspect")
                             if m in sys.modules]))
sys.exit(code)
"""


def test_classify_request_imports_neither_dataclasses_nor_inspect():
    proc = subprocess.run(
        [sys.executable, "-c", _STDLIB_PROBE, "classify"],
        input=json.dumps({"family": "conformal", "params": [3, 0],
                          "element": {"D": 1}}),
        capture_output=True, text=True, cwd=REPO,
    )
    assert proc.returncode == 0, proc.stdout
    assert json.loads(proc.stderr) == []


def test_verify_identities_imports_numpy_but_neither_scipy_nor_jsonschema():
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, "verify-identities"],
        input=json.dumps({"samples": 4}), capture_output=True, text=True,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stdout
    assert json.loads(proc.stderr) == ["numpy"]


_SAMPLING_PROBE = """
import json, sys
import parahol.cli
code = parahol.cli.main(sys.argv[1:])
sys.stderr.write(json.dumps("parahol.sampling" in sys.modules))
sys.exit(code)
"""


@pytest.mark.parametrize("command,payload", [
    ("classify", {"family": "conformal", "params": [3, 0],
                  "element": {"D": 1}}),
    ("flat-classify", _flat_request()),
    ("algebra-info", {"family": "cr", "params": [1]}),
    ("algebra-verify", {"family": "conformal", "params": [2, 0]}),
])
def test_requests_without_random_instances_leave_the_sampler_unloaded(
        command, payload):
    proc = subprocess.run(
        [sys.executable, "-c", _SAMPLING_PROBE, command],
        input=json.dumps(payload), capture_output=True, text=True, cwd=REPO,
    )
    assert proc.returncode == 0, proc.stdout
    assert json.loads(proc.stderr) is False


_LAZY_PROBE = """
import json, sys
import parahol
loaded = [m for m in ("parahol.flat", "parahol.identities", "parahol.oracle")
          if m in sys.modules]
resolved = all(getattr(parahol, name) is not None for name in parahol.__all__)
sys.stdout.write(json.dumps([loaded, resolved, parahol.brute_force_oracle.__module__]))
"""


def test_package_loads_the_flat_model_identities_and_oracle_on_first_use():
    proc = subprocess.run([sys.executable, "-c", _LAZY_PROBE],
                          capture_output=True, text=True, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], True, "parahol.oracle"]


def test_package_names_resolve_after_importing_the_cli():
    import inspect

    import parahol
    import parahol.cli  # noqa: F401  (loads the submodule parahol.classify)

    assert inspect.isfunction(parahol.classify)
    for name in parahol.__all__:
        assert getattr(parahol, name) is not None


def test_shipped_schemas_match_source():
    for name, schema in schemas.BY_COMMAND.items():
        path = REPO / "docs" / "schemas" / f"{name}.json"
        assert path.exists(), f"missing shipped schema {path}"
        assert json.loads(path.read_text()) == schema


# The README's CLI examples, with the sha256 of each report's stdout.
# verify-identities is left out: its float residual digits depend on the
# numpy/BLAS build.
README_EXAMPLES = [
    ("algebra-info", {"family": "conformal", "params": [3, 0]}, (),
     "1b596c08c866fc421f9a7e50015d0f441736f17c525813b7a3ed642802e75cc4"),
    ("classify", {"family": "conformal", "params": [3, 0], "element": {"D": 1}},
     (), "750f82b3f8a02a276867d3b417e62c0b8bc6d7d022bf8189246f6264e2d0af80"),
    ("classify", {"family": "conformal", "params": [3, 0],
                  "element": {"M_12": 1}},
     (), "ce8793900fac90669d8d31540fad2eaf8881f8dcbea38d307f8acc748919a443"),
    ("flat-classify", _flat_request(), (),
     "87a96e7ef0aec9a1ad5e3866070b01a6f03889f4d4d667a771be32360e11a030"),
    ("oracle-compare", {"family": "conformal", "params": [3, 0]},
     ("--instances", "500", "--seed", "42", "--grid-steps", "0"),
     "a011bf12d6559bf4f5dc4c1d7fb9ae05d760e58703ab827aaf8c640898f9c776"),
    ("oracle-compare", {"family": "cr", "params": [1]},
     ("--instances", "200", "--seed", "42", "--grid-steps", "1"),
     "50e587f5e4b7cfc95a3818db12c19693a06a6c8ae8ede2629e5388cfea77b313"),
]


@pytest.mark.parametrize("command,payload,flags,digest", README_EXAMPLES)
def test_readme_examples_stdout_pinned(command, payload, flags, digest):
    code, out = run_cli(command, payload, *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
