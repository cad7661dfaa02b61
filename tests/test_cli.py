import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bwtk.suffix
from bwtk.cli import _KERNEL_KINDS, run
from bwtk.suffix import BwtIndex


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, payload in (("a", b"aab"), ("b", b"abb"), ("x", b"abab")):
        p = tmp_path / f"{name}.txt"
        p.write_bytes(payload)
        paths[name] = str(p)
    return paths


def call(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kmer_kernel_line_is_byte_exact(capsys, files):
    code, out, err = call(capsys, "kernel", "--kind", "kmer", "-k", "1",
                          files["a"], files["b"])
    assert code == 0
    assert out == "kmer\t1\t0.800000000000\n"
    assert err == ""


def test_substring_complexity_line(capsys, files):
    code, out, _ = call(capsys, "complexity", "--kind", "substring", files["x"])
    assert code == 0
    assert out == "substring\t7\n"


def test_zero_denominator_exits_2(capsys, files):
    code, out, err = call(capsys, "kernel", "--kind", "kmer", "-k", "9",
                          files["a"], files["b"])
    assert code == 2
    assert out == ""
    assert "zero denominator" in err
    assert len(err.strip().splitlines()) == 1


def test_parameters_past_the_text(capsys, tmp_path):
    # k and kcap far past a 12-symbol pair: the one-line zero denominator
    # error, and the calibrations' answer at kcap = n
    paths = []
    for name, text in (("a", b"ACGTTGCAACGT"), ("b", b"ACGGTTCAACGA")):
        path = tmp_path / f"{name}.txt"
        path.write_bytes(text)
        paths.append(str(path))
    huge = "100000000000"
    for kind in ("kmer", "d2s", "kmer,d2s"):
        code, out, err = call(capsys, "kernel", "--kind", kind, "-k", huge, *paths)
        assert (code, out) == (2, "")
        assert "zero denominator" in err
        assert len(err.strip().splitlines()) == 1
    for flags in (["--kind", "kmin"], ["--kind", "kmax"], ["--kind", "kmax", "--tau", "1e-300"]):
        at_n = call(capsys, "calibrate", *flags, "--kcap", "13", paths[0])
        assert at_n[0] == 0
        assert call(capsys, "calibrate", *flags, "--kcap", huge, paths[0]) == at_n
    # no k-mer is longer than the text, whatever NumPy's integer range
    code, out, _ = call(capsys, "complexity", "--kind", "kmer", "-k", str(2**70), paths[0])
    assert (code, out) == (0, f"kmer\t{2**70}\t0\n")


def test_lengths_past_any_index_are_refused_in_one_line(capsys, tmp_path):
    # --k2 or --f2 past the longest indexable text on a 12-symbol text: one
    # stderr line, not a slot per k (which ran out of memory)
    path = tmp_path / "a.txt"
    path.write_bytes(b"ACGTTGCAACGT")
    huge = "100000000000"
    for argv in (
        ("entropy", "--k2", huge),
        ("kl", "--k2", huge),
        ("profile", "--k1", "1", "--k2", huge, "--f1", "1", "--f2", "2"),
        ("profile", "--k1", "1", "--k2", "2", "--f1", "1", "--f2", huge),
    ):
        code, out, err = call(capsys, *argv, str(path))
        assert (code, out) == (1, "")
        assert "past the longest text" in err
        assert len(err.strip().splitlines()) == 1
    # far past the text but within the bound, the rows are the closed forms
    code, out, _ = call(capsys, "entropy", "--k1", "11", "--k2", "100000", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "entropy\t100000\t0.000000000000"
    assert len(out.splitlines()) == 100000 - 11 + 1


def test_pair_past_the_length_bound_exits_1(capsys, monkeypatch, files):
    # aab and abb fit alone (4 symbols with the terminator), but their pair
    # index holds aab $ abb #, 8 symbols
    monkeypatch.setattr(bwtk.suffix, "_MAX_N", 7)
    code, out, _ = call(capsys, "complexity", "--kind", "substring", files["a"])
    assert code == 0
    code, out, err = call(capsys, "kernel", "--kind", "kmer", "-k", "1", files["a"], files["b"])
    assert (code, out) == (1, "")
    assert "8 symbols with $ and #, over 7" in err
    assert len(err.strip().splitlines()) == 1


def test_weight_overflow_exit_codes(capsys, tmp_path):
    path = tmp_path / "long.txt"
    path.write_bytes(b"abaab" * 60)
    code, out, _ = call(capsys, "kernel", "--kind", "weighted", "--weights",
                        "exponential", "--epsilon", "40", str(path), str(path))
    assert code == 0
    assert out == "weighted\texponential\t1.000000000000\n"
    code, out, err = call(capsys, "kernel", "--kind", "weighted", "--weights",
                          "charscore", "--scores", "1e200,1e200",
                          str(path), str(path))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_d2star_underflow_exits_2(capsys, tmp_path):
    # 0.25**600 underflows to 0, which d2star divides by for 600-mers that
    # occur in both texts: a text against itself
    rng = random.Random(600)
    paths = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.txt"
        path.write_bytes(bytes(rng.choice(b"ACGT") for _ in range(3000)))
        paths.append(str(path))
    for kinds in ("d2star", "kmer,d2star,markov"):
        code, out, err = call(
            capsys, "kernel", "--kind", kinds, "-k", "600", paths[0], paths[0]
        )
        assert code == 2
        assert out == ""
        assert "floating-point range" in err
        assert len(err.strip().splitlines()) == 1
    # the two texts share no 600-mer, so q cancels from every term
    code, out, err = call(capsys, "kernel", "--kind", "d2star", "-k", "600", *paths)
    assert code == 0 and err == ""
    assert float(out.split()[-1]) == pytest.approx(-2401, rel=1e-9)


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    texts=st.tuples(*[st.text("ACGT", min_size=1, max_size=12)] * 2),
    kinds=st.lists(st.sampled_from(_KERNEL_KINDS), min_size=1, max_size=5),
    k=st.one_of(st.none(), st.integers(0, 16)),
    k2=st.one_of(st.none(), st.integers(1, 8)),
    weights=st.sampled_from(("uniform", "exponential", "band", "charscore")),
    epsilon=st.sampled_from(("0.5", "2")),
    scores=st.sampled_from((None, "0.5,1,1.5,2", "1,1")),
    g=st.sampled_from(("unit", "exact")),
)
def test_fused_kinds_match_single_kind_runs(
    tmp_path_factory, texts, kinds, k, k2, weights, epsilon, scores, g
):
    paths = []
    for name, text in zip("ab", texts):
        path = tmp_path_factory.mktemp("fused") / f"{name}.fa"
        path.write_text(f">{name}\n{text}\n")
        paths.append(str(path))
    flags = ["--alphabet", "ACGT", "--weights", weights, "--epsilon", epsilon, "--g", g]
    flags += [] if k is None else ["-k", str(k)]
    flags += [] if k2 is None else ["--k2", str(k2)]
    flags += [] if scores is None else ["--scores", scores]
    fused = _run_quietly(["kernel", "--kind", ",".join(kinds), *flags, *paths])
    singles = [_run_quietly(["kernel", "--kind", kind, *flags, *paths]) for kind in kinds]
    failed = [single for single in singles if single[0] != 0]
    if failed:
        # the first kind that fails alone decides the exit code and message
        assert fused == (failed[0][0], "", failed[0][2])
        assert len(fused[2].splitlines()) == 1
    else:
        assert fused == (0, "".join(single[1] for single in singles), "")


def test_usage_errors_exit_1(capsys, files):
    code, _, err = call(capsys, "kernel", "--kind", "nope", "-k", "1",
                        files["a"], files["b"])
    assert code == 1
    code, _, _ = call(capsys, "complexity", "--kind", "kmer", files["x"])
    assert code == 1
    code, _, _ = call(capsys, "nonsense")
    assert code == 1
    code, _, _ = call(capsys, "complexity", "--kind", "substring",
                      files["x"] + ".missing")
    assert code == 1


def test_computation_error_on_bad_range_is_usage(capsys, files):
    # malformed parameter ranges are input errors, not computation errors
    code, _, err = call(capsys, "profile", "--k1", "3", "--k2", "1",
                        "--f1", "1", "--f2", "2", files["x"])
    assert code == 1
    assert "error" in err


def test_json_matches_tsv_numerics(capsys, files):
    _, tsv, _ = call(capsys, "kernel", "--kind", "kmer,markov", "-k", "2",
                     files["a"], files["b"])
    _, raw, _ = call(capsys, "kernel", "--kind", "kmer,markov", "-k", "2",
                     "--output", "json", files["a"], files["b"])
    doc = json.loads(raw)
    tsv_lines = tsv.splitlines()
    assert len(doc["records"]) == len(tsv_lines) == 2
    for rec, line in zip(doc["records"], tsv_lines):
        cols = line.split("\t")
        assert rec["measure"] == cols[0]
        assert rec["params"] == cols[1:-1]
        # the numeric literal appears verbatim inside the JSON text
        assert f'"value":{cols[-1]}' in raw


def test_precision_flag(capsys, files):
    _, out, _ = call(capsys, "kernel", "--kind", "kmer", "-k", "1",
                     "--precision", "3", files["a"], files["b"])
    assert out == "kmer\t1\t0.800\n"
    code, _, _ = call(capsys, "kernel", "--kind", "kmer", "-k", "1",
                      "--precision", "99", files["a"], files["b"])
    assert code == 1


def test_kernel_output_is_input_ordered(capsys, files):
    kinds = "maw-cosine,kmer,substring,maw-jaccard,markov"
    _, out, _ = call(capsys, "kernel", "--kind", kinds, "-k", "1",
                     files["a"], files["b"])
    assert [line.split("\t")[0] for line in out.splitlines()] == kinds.split(",")


def test_kmer_sweep_emits_defined_rows(capsys, files):
    _, out, _ = call(capsys, "kernel", "--kind", "kmer", "-k", "1", "--k2", "5",
                     files["a"], files["b"])
    ks = [line.split("\t")[1] for line in out.splitlines()]
    assert ks == ["1", "2", "3"]


def test_profile_rows(capsys, files):
    _, out, _ = call(capsys, "profile", "--k1", "1", "--k2", "2",
                     "--f1", "1", "--f2", "2", files["x"])
    assert out.splitlines() == [
        "profile\t1\t1\t0",
        "profile\t1\t2\t2",
        "profile\t2\t1\t1",
        "profile\t2\t2\t1",
    ]


def test_maw_listing_decodes_words(capsys, files):
    _, out, _ = call(capsys, "maw", "--kind", "list", files["x"])
    assert out.splitlines() == ["maw\taa", "maw\tbb", "maw\tbaba"]
    _, out, _ = call(capsys, "maw", files["x"])
    assert out == "maw-count\t3\n"


def test_entropy_and_kl_and_calibrate(capsys, files):
    _, out, _ = call(capsys, "entropy", "--k2", "1", files["a"])
    lines = out.splitlines()
    assert lines[0].startswith("entropy\t0\t0.918295834054")
    code, out, _ = call(capsys, "kl", "--k2", "3", files["x"])
    assert code == 0 and len(out.splitlines()) == 2
    _, out, _ = call(capsys, "calibrate", "--kind", "kmin", "--kcap", "3", files["x"])
    assert out == "kmin\t1\n"


def test_fasta_pair_and_union_alphabet(capsys, tmp_path):
    fa = tmp_path / "pair1.fa"
    fa.write_bytes(b">s1\naab\n")
    fb = tmp_path / "pair2.fa"
    fb.write_bytes(b">s2\nabb\n")
    code, out, _ = call(capsys, "kernel", "--kind", "kmer", "-k", "1",
                        str(fa), str(fb))
    assert code == 0
    assert out == "kmer\t1\t0.800000000000\n"
    # a byte unique to one side still lands in both alphabets
    fb.write_bytes(b">s2\nacc\n")
    code, out, _ = call(capsys, "kernel", "--kind", "kmer", "-k", "1",
                        str(fa), str(fb))
    assert code == 0


def test_multi_record_fasta_rejected(capsys, tmp_path):
    fa = tmp_path / "multi.fa"
    fa.write_bytes(b">r1\naa\n>r2\nbb\n")
    code, _, err = call(capsys, "complexity", "--kind", "substring", str(fa))
    assert code == 1
    assert "exactly one sequence" in err


def test_index_build_dump_roundtrip(capsys, tmp_path, files):
    out_path = tmp_path / "x.bwtk"
    code, out, _ = call(capsys, "index", "build", files["x"], "-o", str(out_path))
    assert code == 0
    assert out == "index\t5\t2\n"
    ix = BwtIndex.load(str(out_path))
    assert ix.text == [1, 2, 1, 2]
    code, out, _ = call(capsys, "index", "dump", str(out_path))
    assert code == 0
    assert out == "index\t5\t2\n"
    code, _, _ = call(capsys, "index", "build", files["x"])
    assert code == 1


def test_index_past_the_length_bound_exits_1(capsys, monkeypatch, tmp_path, files):
    out_path = tmp_path / "x.bwtk"
    code, _, _ = call(capsys, "index", "build", files["x"], "-o", str(out_path))
    assert code == 0
    monkeypatch.setattr(bwtk.suffix, "_MAX_N", 4)
    for argv in (("dump", str(out_path)), ("build", files["x"], "-o", str(out_path))):
        code, out, err = call(capsys, "index", *argv)
        assert code == 1
        assert out == ""
        assert "5 symbols with the terminator, over 4" in err
        assert len(err.strip().splitlines()) == 1


def test_oracle_subcommand(capsys, files, monkeypatch):
    code, out, _ = call(capsys, "oracle", "--measure", "substring-complexity",
                        files["x"])
    assert code == 0
    assert out == "substring\t7\n"
    code, out, _ = call(capsys, "oracle", "--measure", "maw-count", files["x"])
    assert out == "maw-count\t3\n"
    # the guard envvar caps brute-force input size: computation error, exit 2
    monkeypatch.setenv("BWTK_GUARD", "2")
    code, _, err = call(capsys, "oracle", "--measure", "substring-complexity",
                        files["x"])
    assert code == 2
    assert "guard" in err.lower() or "exceeds" in err.lower()


def test_output_is_deterministic(capsys, files):
    args = ("kernel", "--kind", "kmer,substring,weighted,markov", "-k", "2",
            "--weights", "exponential", "--epsilon", "0.7", files["a"], files["b"])
    _, first, _ = call(capsys, *args)
    _, second, _ = call(capsys, *args)
    assert first == second


def test_explicit_alphabet_controls_sigma(capsys, files):
    # abab over an explicit 4-letter alphabet has absent letters c,d
    code, out, _ = call(capsys, "complexity", "--kind", "kmer", "-k", "1",
                        "--alphabet", "abcd", files["x"])
    assert code == 0
    assert out == "kmer\t1\t2\n"
    code, out, _ = call(capsys, "maw", "--alphabet", "ab", files["x"])
    assert out == "maw-count\t3\n"


def test_tiny_epsilon_and_non_finite_weights(capsys, tmp_path):
    rng = random.Random(74)
    paths = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.txt"
        path.write_bytes(bytes(rng.choice(b"ACGT") for _ in range(300)))
        paths.append(str(path))
    _, kmer, _ = call(capsys, "kernel", "--kind", "kmer", "-k", "1", *paths)
    # the exponential kernel tends to the 1-mer kernel as epsilon falls
    code, out, err = call(capsys, "kernel", "--kind", "weighted", "--weights",
                          "exponential", "--epsilon", "1e-200", *paths)
    assert (code, err) == (0, "")
    assert float(out.split()[-1]) == pytest.approx(float(kmer.split()[-1]), rel=1e-9)
    for flags in (("exponential", "--epsilon", "inf"), ("exponential", "--epsilon", "nan"),
                  ("charscore", "--scores", "inf,1,1,1")):
        code, out, err = call(capsys, "kernel", "--kind", "weighted", "--weights", *flags,
                              *paths)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and "finite" in err


# ---------------------------------------------------------------------------
# contract fuzz: any argument list gives exit 0, 1 or 2 and one error line


# every flag maps to (valid values, invalid values)
def _ints(lo: int, hi: int):
    return st.integers(lo, hi).map(str), ("-2", "0", "x", "1.5", "")


def _choice(good: tuple[str, ...], bad: tuple[str, ...] = ("x",)):
    return st.sampled_from(good), bad


_FLOATS = _choice(
    ("0.5", "1", "2", "40", "1e-200", "1e-5"), ("0", "-1", "inf", "nan", "1e400", "x")
)
_COMMON_FLAGS = {
    "--format": _choice(("auto", "fasta", "raw"), ("xml",)),
    "--alphabet": _choice(("ACGT", "TGCA", "ACGTN"), ("AC", "", "AAC", "é")),
    "--output": _choice(("tsv", "json"), ("xml",)),
    "--precision": _choice(("0", "3", "17"), ("18", "-1", "x")),
}
# --k2, --f2 and --kcap stay small because the output grows with them
_FLAGS = {
    "complexity": {"--kind": _choice(("kmer", "substring")), "-k": _ints(1, 40)},
    "kernel": {
        "--kind": (
            st.lists(st.sampled_from(_KERNEL_KINDS), min_size=1, max_size=4).map(",".join),
            ("x", "", "kmer,,x"),
        ),
        "-k": _ints(1, 40),
        "--k2": _ints(1, 10),
        "--weights": _choice(("uniform", "exponential", "band", "charscore")),
        "--epsilon": _FLOATS,
        "--kmin": _ints(1, 6),
        "--kmax": _ints(1, 12),
        "--scores": _choice(("0.5,1,1.5,2", "1,2,1,2", "1e200,1,1,1"),
                            ("1,1", "inf,1,1,1", "0,1,1,1", "a,b")),
        "--q": _choice(("0.25,0.25,0.25,0.25", "0.1,0.2,0.3,0.4"),
                       ("0.5,0.5", "1,0,0,0", "nan,0.5,0.25,0.25")),
        "--g": _choice(("unit", "exact")),
    },
    "profile": {"--k1": _ints(1, 3), "--k2": _ints(3, 6), "--f1": _ints(1, 2),
                "--f2": _ints(2, 4)},
    "entropy": {"--k1": _ints(0, 4), "--k2": _ints(4, 10)},
    "maw": {"--kind": _choice(("count", "list"))},
    "kl": {"--k1": _ints(2, 5), "--k2": _ints(5, 10)},
    "calibrate": {
        "--kind": _choice(("kmin", "kmax")), "--tau": _FLOATS, "--kcap": _ints(1, 10)
    },
    "index": {"-o": _choice(("out.bwtk",), ("nodir/out.bwtk", "folder"))},
    "oracle": {
        "--measure": _choice(
            ("kmer-complexity", "substring-complexity", "maw-count", "entropy", "kl")
        ),
        "-k": _ints(0, 8),
    },
}
_INPUTS = {
    "dna.fa": b">a\nACGTTGCAACGT\n",
    "dna2.fa": b">b\nACGGTTCA\n",
    "raw.txt": b"ACGTACGTTT",
    "long.txt": b"ACGT" * 10 + b"AAAAAAAA",
    "empty.txt": b"",
    "multi.fa": b">a\nAC\n>b\nGT\n",
    "head.fa": b">a\n",
    "junk.bin": bytes(range(256)),
    "bad.bwtk": b"BWTK1" + bytes(16) + b"\xff",
}
# an index file given as text is read as text; a text given to index dump
# is not an index
_FILES = _choice(
    ("dna.fa", "dna2.fa", "raw.txt", "long.txt"),
    ("empty.txt", "multi.fa", "head.fa", "junk.bin", "bad.bwtk", "good.bwtk", "missing.fa",
     "folder"),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, payload in _INPUTS.items():
        (root / name).write_bytes(payload)
    assert run(["index", "build", str(root / "dna.fa"), "-o", str(root / "good.bwtk")]) == 0
    (root / "folder").mkdir()
    return root


@st.composite
def cli_argv(draw, root):
    """A bwtk argument list; in half of them, any flag or file may be invalid."""
    breaking = draw(st.booleans())

    def pick(values) -> str:
        good, bad = values
        if breaking and draw(st.integers(0, 7)) == 7:
            return draw(st.sampled_from(bad))
        return draw(good)

    # kernel has the most flags, so it is drawn more often
    command = pick(_choice(("kernel",) * 3 + tuple(_FLAGS), ("nonsense",)))
    argv = [command]
    own = _FLAGS.get(command, {})
    for flag, values in [*own.items(), *_COMMON_FLAGS.items()]:
        # a command's own flags, the required ones too, are usually given
        if draw(st.integers(0, 9)) < (8 if flag in own else 2):
            value = pick(values)
            argv += [flag, str(root / value) if flag == "-o" else value]
    if command == "index":
        argv.append(pick(_choice(("build", "dump"))))
    count = 2 if command == "kernel" else 1
    if breaking and draw(st.integers(0, 7)) == 7:
        count = draw(st.integers(0, 3))
    argv += [str(root / pick(_FILES)) for _ in range(count)]
    return argv


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.data())
def test_cli_contract_fuzz(fuzz_dir, data):
    argv = data.draw(cli_argv(fuzz_dir))
    code, out, err = _run_quietly(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
        return
    assert out == ""
    lines = err.splitlines()
    assert lines and lines[-1].startswith("bwtk")
    assert [line for line in lines if ": error: " in line] == [lines[-1]]
