"""The three benchmark workloads: generated inputs, set-up, one iteration, checks.

Every input comes from numpy's default_rng(seed), so a seed fixes the inputs.
The program sees only the generated symbol lists (dna_single) or FASTA files
(pair_cli, index_roundtrip). An iteration is what one user operation costs:

- dna_single: six single-string measures on one indexed sigma=4 string, in
  process. Enumeration and range_distinct dominate; no parsing, no CLI.
- pair_cli: one `bwtk kernel` subprocess with six kinds on a related pair.
- index_roundtrip: `bwtk index build` then `bwtk index dump` on a repetitive
  sigma=20 text. Suffix sort, dump and the LF walk; no enumeration. Its size
  keeps the working set small and the iterations many, since large numpy
  sorts slow down most when other processes share the memory system.

Checks run outside the timed section. A mismatch marks the operation failed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bwtk.cli
import bwtk.kernels
import bwtk.suffix
from bwtk.enumerate import enumerate_generalized, enumerate_right_maximal
from bwtk.params import WeightSpec, ZScoreParams
from bwtk.suffix import BwtIndex
from bwtk.text import Sequence, load_input, map_alphabet

import checks
from metrics import SINGLE_MEASURES

DNA = b"ACGT"
PROTEIN = b"ACDEFGHIKLMNPQRSTVWY"


@dataclass
class Op:
    """One user-visible operation of an iteration and what it produced."""

    name: str
    ok: bool
    output: object
    error: str = ""


@dataclass
class Iteration:
    wall_s: float
    rss_mb: float | None  # peak RSS of the subprocesses, None when run in process
    ops: list[Op]


def write_fasta(path: Path, name: str, codes: np.ndarray, alphabet: bytes) -> None:
    """codes are 0-based letter indexes; lines are 80 columns."""
    text = np.frombuffer(alphabet, dtype=np.uint8)[codes].tobytes()
    lines = [b">" + name.encode()] + [text[i : i + 80] for i in range(0, len(text), 80)]
    path.write_bytes(b"\n".join(lines) + b"\n")


def substitute(rng: np.random.Generator, codes: np.ndarray, count: int, sigma: int) -> np.ndarray:
    """A copy of codes with `count` positions changed to a different letter."""
    out = codes.copy()
    pos = rng.choice(codes.size, size=count, replace=False)
    out[pos] = (out[pos] + rng.integers(1, sigma, size=count)) % sigma
    return out


class Workload:
    """Inputs of one workload plus how to build, run and check them."""

    name = ""
    uses_cli = True  # False when an iteration calls the library in this process

    def __init__(self, seed: int, smoke: bool, workdir: Path, src: Path) -> None:
        self.rng = np.random.default_rng(seed)
        self.smoke = smoke
        self.workdir = workdir
        self.env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(src)}
        self.sequences: list[Sequence] = []  # inputs as symbol lists, for set-up
        self.sizes: dict = {}

    # -- set-up ---------------------------------------------------------

    def setup_once(self) -> float:
        """Seconds to build every input's index through build_bwt."""
        gc.collect()
        t0 = time.perf_counter()
        indexes = [bwtk.suffix.build_bwt(s) for s in self.sequences]
        elapsed = time.perf_counter() - t0
        self.indexes = indexes
        return elapsed

    def index_bytes_per_symbol(self) -> float:
        """Bytes that built indexes keep allocated (tracemalloc), per input symbol."""
        self.indexes = []  # the set-up indexes are no longer needed; free them first
        kept = 0
        for seq in self.sequences:
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                index = bwtk.suffix.build_bwt(seq)
                gc.collect()
                kept += tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            del index
        return kept / sum(len(s) for s in self.sequences)

    # -- running the CLI ------------------------------------------------

    def cli(self, argv: list[str], in_process: bool) -> tuple[Op, float, float | None]:
        """Run `bwtk argv`; returns the op, its wall seconds and peak RSS in MB.

        The subprocess form is what a user runs, interpreter start included.
        The in-process form calls bwtk.cli.run, which the traced run wraps.
        """
        name = argv[0] if argv[0] != "index" else f"index {argv[1]}"
        if in_process:
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = bwtk.cli.run(argv)
            wall = time.perf_counter() - t0
            return Op(name, code == 0, buf.getvalue(), f"exit {code}"), wall, None
        out_path = self.workdir / "stdout.txt"
        with open(out_path, "wb") as out, open(self.workdir / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", "from bwtk.cli import main; main()", *argv],
                stdout=out,
                stderr=err,
                cwd=self.workdir,
                env=self.env,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text()
        return Op(name, code == 0, stdout, f"exit {code}"), wall, usage.ru_maxrss / 1024

    def import_seconds(self) -> float:
        """Wall seconds of a fresh interpreter importing bwtk.cli."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import bwtk.cli"], cwd=self.workdir, env=self.env, check=True)
        return time.perf_counter() - t0

    # -- to be provided by each workload --------------------------------

    def iterate(self, in_process: bool) -> Iteration:
        """One timed iteration.

        in_process selects the traced run's form: CLI commands go through
        bwtk.cli.run in this process, and dna_single builds its index inside
        the iteration so that the set-up layers get spans too.
        """
        raise NotImplementedError

    def expected(self, first: Iteration) -> tuple[dict, dict[str, list[str]]]:
        """Expected output per op name, and check failures per op name."""
        raise NotImplementedError

    def bare_pass(self, indexes: list[BwtIndex]) -> tuple[str, dict, float] | None:
        """One enumeration pass with a no-op visitor: (kind, stats, seconds)."""
        return None


class DnaSingle(Workload):
    name = "dna_single"
    uses_cli = False

    def __init__(self, *args) -> None:
        super().__init__(*args)
        n = 3_000 if self.smoke else 200_000
        self.sizes = {"n": n, "sigma": 4, "slice": checks.SLICE}
        self.symbols = (self.rng.integers(0, 4, size=n) + 1).tolist()
        self.sequences = [Sequence(self.symbols, 4, "dna")]

    def iterate(self, in_process: bool) -> Iteration:
        ops = []
        t0 = time.perf_counter()
        index = bwtk.suffix.build_bwt(self.sequences[0]) if in_process else self.indexes[0]
        for fn, args in SINGLE_MEASURES:
            try:
                ops.append(Op(fn, True, checks.plain(getattr(bwtk.kernels, fn)(index, *args))))
            except Exception as exc:  # a failed operation is counted, not fatal
                ops.append(Op(fn, False, None, repr(exc)))
        wall = time.perf_counter() - t0
        return Iteration(wall, None, ops)

    def expected(self, first: Iteration) -> tuple[dict, dict[str, list[str]]]:
        want = {op.name: op.output for op in first.ops}
        bad = checks.single_vs_oracle(Sequence(self.symbols[: checks.SLICE], 4))
        symbols = np.asarray(self.symbols)
        want["kmer_complexity"] = checks.numpy_kmer_complexity(symbols, 4, 12)
        want["kmer_profile"] = checks.numpy_kmer_profile(symbols, 4, 1, 12, 1, 4)
        return want, bad

    def bare_pass(self, indexes):
        stats: dict = {}
        t0 = time.perf_counter()
        enumerate_right_maximal(indexes[0], _noop, stats=stats)
        return "right_maximal", stats, time.perf_counter() - t0


class PairCli(Workload):
    name = "pair_cli"
    KINDS = "kmer,substring,weighted,d2star,markov,maw-jaccard"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        n = 2_000 if self.smoke else 100_000
        self.sizes = {"n_each": n, "sigma": 4, "substitution_rate": 0.05, "k": 8, "slice": checks.SLICE}
        a = self.rng.integers(0, 4, size=n)
        b = substitute(self.rng, a, round(n * 0.05), 4)
        self.paths = [self.workdir / "a.fa", self.workdir / "b.fa"]
        for path, codes in zip(self.paths, (a, b)):
            write_fasta(path, path.stem, codes, DNA)
        self.sequences = [Sequence((c + 1).tolist(), 4, p.stem) for p, c in zip(self.paths, (a, b))]
        self.argv = [
            "kernel", "--kind", self.KINDS, "-k", "8", "--weights", "exponential",
            "--output", "json", str(self.paths[0]), str(self.paths[1]),
        ]

    def iterate(self, in_process: bool) -> Iteration:
        op, wall, rss = self.cli(self.argv, in_process)
        if op.ok:
            try:
                op.output = json.loads(op.output, parse_float=str)["records"]
            except (ValueError, KeyError, TypeError) as exc:
                op.ok, op.error = False, f"unparsable JSON: {exc!r}"
        return Iteration(wall, rss, [op])

    def expected(self, first: Iteration) -> tuple[dict, dict[str, list[str]]]:
        """The CLI's JSON must carry the library's values on the same files."""
        problems = []
        s1, s2 = map_alphabet(load_input(str(self.paths[0])) + load_input(str(self.paths[1])))
        if [s1.symbols, s2.symbols] != [s.symbols for s in self.sequences]:
            problems.append("FASTA files do not map back to the generated symbols")
        i1, i2 = bwtk.suffix.build_bwt(s1), bwtk.suffix.build_bwt(s2)
        values = pair_values(i1, i2)
        want_kernel = checks.numpy_kmer_kernel(np.asarray(s1.symbols), np.asarray(s2.symbols), 4, 8)
        if not checks.close(values[0], want_kernel):
            problems.append(f"kmer_kernel {values[0]!r} != numpy {want_kernel!r}")
        problems += checks.pair_vs_oracle(
            Sequence(s1.symbols[: checks.SLICE], 4), Sequence(s2.symbols[: checks.SLICE], 4)
        )
        records = [
            ("kmer", ["8"]), ("substring", []), ("weighted", ["exponential"]),
            ("d2star", ["8"]), ("markov", ["unit"]), ("maw-jaccard", []),
        ]
        want = [
            {"measure": m, "params": p, "value": f"{v:.12f}"} for (m, p), v in zip(records, values)
        ]
        return {"kernel": want}, {"kernel": problems} if problems else {}

    def bare_pass(self, indexes):
        stats: dict = {}
        t0 = time.perf_counter()
        enumerate_generalized(indexes[0], indexes[1], _noop, stats=stats)
        return "generalized", stats, time.perf_counter() - t0


class IndexRoundtrip(Workload):
    name = "index_roundtrip"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        # `blocks` blocks of `block` symbols, each a copy of one of `distinct`
        # random blocks, then one substitution every `spacing` symbols from a
        # seeded offset. spacing shares no factor with block, so two copies of a
        # block never have their substitutions at the same offsets: the longest
        # repeat stays just under spacing and prefix doubling takes the same
        # number of rounds on every seed (13 at full size).
        block, blocks, spacing = (500, 20, 499) if self.smoke else (4_000, 50, 4_999)
        distinct = 4
        n = block * blocks
        pool = self.rng.integers(0, 20, size=(distinct, block))
        codes = pool[self.rng.integers(0, distinct, size=blocks)].reshape(-1)
        pos = self.rng.integers(0, spacing) + spacing * np.arange(n // spacing)
        codes[pos] = (codes[pos] + self.rng.integers(1, 20, size=pos.size)) % 20
        self.sizes = {
            "n": n, "sigma": 20, "block": block, "distinct_blocks": distinct,
            "substitution_spacing": spacing, "substitutions": int(pos.size), "slice": checks.SLICE,
        }
        self.fasta = self.workdir / "x.fa"
        self.index_path = self.workdir / "x.bwtk"
        write_fasta(self.fasta, "x", codes, PROTEIN)
        self.symbols = (codes + 1).tolist()
        self.sequences = [Sequence(self.symbols, 20, "x")]

    def iterate(self, in_process: bool) -> Iteration:
        # Every build writes a new file, as a user's first build does. Rewriting
        # the previous iteration's file made the filesystem flush it on close,
        # which added a wait on the disk to the build's wall time.
        self.index_path.unlink(missing_ok=True)
        build, wall1, rss1 = self.cli(["index", "build", str(self.fasta), "-o", str(self.index_path)], in_process)
        dump, wall2, rss2 = self.cli(["index", "dump", str(self.index_path)], in_process)
        if build.ok:
            # the dumped file is part of the build's output
            digest = hashlib.sha256(self.index_path.read_bytes()).hexdigest()
            build.output = (build.output, digest)
        rss = None if in_process else max(rss1, rss2)
        return Iteration(wall1 + wall2, rss, [build, dump])

    def expected(self, first: Iteration) -> tuple[dict, dict[str, list[str]]]:
        line = f"index\t{len(self.symbols) + 1}\t20\n"
        problems = checks.suffix_vs_naive(Sequence(self.symbols[: checks.SLICE], 20))
        # every iteration's file must equal the one on disk, which must load back
        digest = None
        if self.index_path.exists():
            digest = hashlib.sha256(self.index_path.read_bytes()).hexdigest()
            if BwtIndex.load(str(self.index_path)).text != self.symbols:
                problems.append("BwtIndex.load of the dumped file differs from the input")
        bad = {"index build": problems} if problems else {}
        return {"index build": (line, digest), "index dump": line}, bad


def pair_values(i1: BwtIndex, i2: BwtIndex) -> list[float]:
    """The six pair measures the pair_cli command asks for, through the library."""
    q = (0.25,) * 4
    k = bwtk.kernels
    return [
        k.kmer_kernel(i1, i2, 8),
        k.substring_kernel(i1, i2),
        k.weighted_substring_kernel(i1, i2, WeightSpec("exponential", epsilon=0.5)),
        k.d2star_distance(i1, i2, 8, q),
        k.markov_kernel(i1, i2, ZScoreParams("unit")),
        k.maw_jaccard(i1, i2),
    ]


def _noop(ev) -> None:
    pass


WORKLOADS = {cls.name: cls for cls in (DnaSingle, PairCli, IndexRoundtrip)}
