"""Every command line, malformed or not, ends with one of the documented exit
codes (0 success, 2 configuration error, 3 data error, 4 non-convergence) as
``main``'s return value, never as an exception: argparse's rejections too
exit 2 with one line.  The arguments are drawn from a fixed vocabulary of
small tokens, each option's split into valid and malformed ones, and a line
holds at most one fault (one malformed value or one missing required option),
so most lines get past the parser and the early checks into the library.
Each run stays cheap."""

import argparse
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decolab.cli import build_parser, main

FIXTURES = Path(__file__).parent / "fixtures"
EXIT_CODES = {0, 2, 3, 4}

# (valid tokens, malformed tokens) of each kind of value
NUMBERS = (["1", "0.5", "3.2e4"], ["0", "-1", "nan", "inf", "-inf", "1e400", "1e-300", "abc", ""])
COUNTS = (["1", "2", "6"], ["0", "-1", "1.5", "x"])
#: trigger offsets: fewer than 2 are malformed
N_T0 = (["2", "6"], ["1", "0", "-1", "1.5", "x"])
N_BATHS = (["1", "17", "50"], ["0", "-3", "x"])
FRACTIONS = (["0.0013%", "1.0937%", "1e-9", "0.5"],
             ["0", "1", "100%", "-1%", "nan", "inf%", "abc%", "%"])
TIMES = (["280us", "1ms", "0.5"], ["0", "-1ms", "nanms", "infs", "1xs", "ms"])
FREQS = (["117", "22MHz", "30kHz"], ["0", "-5MHz", "nanMHz", "1xHz", "inf", "infMHz", "1e-300"])
RANGES = (
    ["1ms:2ms", "0:1ms", "-1ms:1ms", "2ms:1ms", "-5ms:-1ms", "1ms:1ms",  # start:stop
     "1ms:2ms:0.5ms", "0.1ms:20ms:0.1ms", "0:0ms:1ms"],                 # stepped, <= 200 points
    ["2ms:1ms:0.5ms", "1ms:2ms:-1ms", "1ms:2ms:0", "1ms:2ms:nanms",      # bad steps
     "nan:1ms", "1ms:inf", "-infs:1ms", "1ms", "1ms:2ms:3ms:4ms", "a:b", "1xs:2ms", ":", ""],
)
POINTS = (["2", "7", "200"], ["1", "0", "-3", "1.5", "abc"])
PRESSURES = (["120Torr", "1.6e4Pa", "100mbar"], ["0", "-1Torr", "nanPa", "1atm"])
POWERS = (["500nW", "0.5uW", "0"], ["-1nW", "nannW", "1xW"])
A_MIN = (["0.85", "0.95", "1"], ["1.1", "0", "-1", "nan", "x"])
A_MAX = (["1", "1.05", "1.27"], ["0.9", "inf", "nan", "x"])
FIX_N = (["0.5", "1", "2.5"], ["0", "-1", "6", "inf", "1e400", "x"])
#: the vocabulary of a flag that takes no value
FLAG = ([None], [])
FILES = ([str(FIXTURES / "decay_synthetic.csv"), str(FIXTURES / "arrhenius_synthetic.csv"),
          str(FIXTURES / "diffusion_500nW.csv"), str(FIXTURES / "diffusion_manifest.txt")],
         [str(FIXTURES / "missing.csv"), str(FIXTURES)])

#: command words -> (required options, optional options), each option with
#: the vocabulary its value is drawn from
GRAMMAR = {
    ("bath", "t2star"): ({"--chi": FRACTIONS, "--n-baths": N_BATHS}, {}),
    ("bath", "likelihood"): (
        {"--rho-ppb": NUMBERS, "--t2-lower": TIMES, "--n-centres": COUNTS,
         "--n-baths": N_BATHS}, {"--chi": FRACTIONS}),
    ("simulate", "hahn"): ({"--tau-range": RANGES, "--n-t0": N_T0}, {"--points": POINTS}),
    ("simulate", "cpmg"): ({"--n": COUNTS, "--tau-range": RANGES, "--n-t0": N_T0},
                           {"--points": POINTS}),
    ("simulate", "ramsey"): ({"--t-range": RANGES, "--n-t0": N_T0},
                             {"--points": POINTS, "--envelope": FLAG, "--n-a": COUNTS,
                              "--a-min": A_MIN, "--a-max": A_MAX}),
    ("simulate", "feedforward"): (
        {"--tau-range": (["1ms:3ms:1ms", "1ms:2ms", "0:1ms:1ms"], ["2ms:1ms:1ms", "nan:1ms"]),
         "--shots": COUNTS, "--repetitions": COUNTS},
        {"--drift-sigma": NUMBERS, "--drift-correlation": NUMBERS, "--frozen-drift": FLAG,
         "--points": POINTS}),
    ("diffusion", "predict"): (
        {"--gamma-i": FREQS, "--d-coeff": NUMBERS},
        {"--sink-s": (["0", "150"], ["-1", "nan", "inf"]), "--tau-range": RANGES,
         "--points": POINTS, "--detuning": FREQS, "--c0": NUMBERS, "--gamma-h": FREQS,
         "--forward-rescale": NUMBERS}),
    ("growth", "chi"): ({"--f0": NUMBERS, "--f1": NUMBERS}, {}),
    ("growth", "nitrogen"): ({"--ch4-sccm": NUMBERS},
                             {"--eta": NUMBERS, "--pressure": PRESSURES, "--n2-molps": NUMBERS,
                              "--q-leak": NUMBERS}),
    ("growth", "leak"): ({"--data": FILES}, {"--volume": NUMBERS}),
    ("fit", "decay"): ({"--data": FILES}, {"--fix-n": FIX_N}),
    ("fit", "scaling"): ({"--data": FILES}, {}),
    ("fit", "diffusion"): ({"--manifest": FILES}, {"--gamma-h": FREQS}),
    ("fit", "ionization"): (
        {"--data": FILES, "--gamma-i": FREQS, "--d-coeff": NUMBERS, "--c0": NUMBERS},
        {"--power": POWERS, "--gamma-h": FREQS, "--forward-rescale": NUMBERS}),
}


#: command lines drawn per command: 140 for the 14 commands
DRAWS_PER_COMMAND = 10


@st.composite
def command_lines(draw, words: tuple[str, ...]) -> list[str]:
    required, optional = GRAMMAR[words]
    chosen = dict(required)
    chosen.update({k: v for k, v in optional.items() if draw(st.booleans())})
    # the line's one fault, if any: a missing required option or the option
    # whose value is drawn from its malformed tokens
    fault = draw(st.sampled_from([None, "missing", *(k for k, (_, bad) in chosen.items() if bad)]))
    if fault == "missing":
        chosen.pop(draw(st.sampled_from(sorted(required))))
    argv = list(words)
    for option, (good, bad) in chosen.items():
        value = draw(st.sampled_from(bad if option == fault else good))
        argv.append(option if value is None else f"{option}={value}")
    return argv


def _leaf_options(parser: argparse.ArgumentParser, words=()) -> dict:
    """{command words: long options} of every command of the parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {words: {o for a in parser._actions for o in a.option_strings
                        if o.startswith("--")}}
    return {k: v for a in subs for name, p in a.choices.items()
            for k, v in _leaf_options(p, (*words, name)).items()}


def test_grammar_draws_every_option_of_every_command():
    # the options every command shares, and the field-model file, are not drawn
    shared = {"--help", "--seed", "--out", "--print-config", "--config"}
    assert {words: set(required) | set(optional)
            for words, (required, optional) in GRAMMAR.items()} == \
        {words: options - shared for words, options in _leaf_options(build_parser()).items()}


@given(st.data())
@settings(max_examples=DRAWS_PER_COMMAND, deadline=None)
def test_every_command_line_exits_with_a_documented_code(data):
    # one line per command in each example, so every command gets the same
    # share of the draws
    for words in sorted(GRAMMAR):
        argv = data.draw(command_lines(words))
        with tempfile.TemporaryDirectory() as out:
            code = main([*argv, "--out", out])
        assert code in EXIT_CODES, argv


PREDICT = ["diffusion", "predict", "--gamma-i", "117", "--d-coeff", "1.6e4", "--sink-s", "150"]
IONIZATION = ["fit", "ionization", "--data", str(FIXTURES / "diffusion_500nW.csv"),
              "--gamma-i", "117", "--d-coeff", "1.6e4", "--c0", "36"]


@pytest.mark.parametrize("argv", [
    *([*cmd, "--gamma-i", g] for cmd in (PREDICT, IONIZATION) for g in ("inf", "1e-300")),
    *([*PREDICT, "--sink-s", s] for s in ("-1", "nan", "inf")),
    *([*PREDICT, "--c0", c] for c in ("nan", "inf")),
    *([*PREDICT, "--forward-rescale", r] for r in ("nan", "-1")),
    [*PREDICT, "--d-coeff", "inf"],
    [*PREDICT, "--gamma-h", "inf"],
    *([*PREDICT, "--detuning", d] for d in ("nan", "inf")),
], ids=lambda argv: f"{argv[1]}{''.join(argv[-2:])}")
def test_invalid_diffusion_input_exits_2(tmp_path, capsys, recwarn, argv):
    # later options override the valid defaults above
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("decolab: ") and err.count("\n") == 1
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "out").exists()


def _finite_cells(path: Path) -> bool:
    """Every number that a CSV or JSON output holds is finite."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        def reject(constant):
            raise ValueError(constant)
        try:
            json.loads(text, parse_constant=reject)
        except ValueError:
            return False
        return True
    rows = [line.split(",") for line in text.splitlines()[2:]]
    return all(math.isfinite(float(cell)) for row in rows for cell in row)


@pytest.mark.parametrize("argv", [
    [*PREDICT, "--gamma-h", "1e-300", "--points", "3"],
    [*PREDICT[:6], "--gamma-h", "1e-300", "--points", "3"],
    [*IONIZATION, "--gamma-h", "1e-300"],
], ids=["predict-sink", "predict", "ionization"])
def test_line_width_whose_square_underflows(tmp_path, recwarn, argv):
    # hw^2 underflows to 0, so c0 hw^2 / (d^2 + hw^2) would be 0/0 at d = 0
    code = main([*argv, "--out", str(tmp_path / "out")])
    assert code in EXIT_CODES
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    outputs = [p for p in (tmp_path / "out").iterdir() if p.suffix in (".csv", ".json")]
    assert outputs and all(_finite_cells(p) for p in outputs)
