"""Seeded inputs and oracles for the three benchmark workloads.

Every operation is built from the workload seed alone.  References are
computed when the inputs are generated, so a traced pass never records
oracle work as package time; ``Op.ref`` holds the reference the oracle
compares with.  ``Op.execute`` returns ``(ok, detail, err)``:
an exception, a wrong answer, a wrong exit code or output bytes that differ
from the operation's first run all give ``ok = False``.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

# Restart counts and tolerances of acceptance criteria 07 and 10.
ROOF_FAST = dict(restarts=6, seed=3)
ROOF_FULL = dict(restarts=8, seed=3)
ROOF_INDICATOR = dict(restarts=6, seed=7)
ROOF_TOL = 1e-4
INDICATOR_TOL = 5e-3

# One round of roof-mixed problems: (kind, rank, q).  Two thirds of the
# operations are rank-2 pairs, so the median sits inside one tight cluster;
# the three GHZ-class 2x4 blocks, where losing restarts run to
# max_iterations, are the top seventh, so p90 sits inside the other.  Rank 3
# pairs, a separable block and a two-member biseparable indicator fill the
# middle.  A single rank-4 pair or three-member indicator varies by more than
# a second between seeds, so those run only in the traced round
# (ROOF_PROBES), where they feed the per-rank timings.
ROOF_ROUND = (
    (("concurrence", 2, None),) * 4
    + (("tee", 2, 2.0),) * 5
    + (("tee", 2, 3.5),) * 5
    + (("concurrence", 3, None),)
    + (("tee", 3, 2.0),)
    + (("separable-block", 2, None),)
    + (("indicator", 2, 2.0),)
    + (("ghz-block", 2, None),) * 3
)
ROOF_PROBES = (("concurrence", 4, None), ("tee", 4, 2.0), ("indicator", 3, 2.0))

PURE_Q = (0.75, 1.0, 1.5, 2.0, 3.0, 3.5, 4.25)
PURE_N = (3, 4, 5, 6)

OP_TIMEOUT_S = 120.0


@dataclass
class Op:
    """One closed-loop operation: a call (or a CLI invocation) and its oracle."""

    label: str
    kind: str
    props: dict
    call: object = None  # () -> result, for library workloads
    check: object = None  # (ref, result) -> (ok, detail, err)
    ref: object = None

    def execute(self, mode: str):
        try:
            result = self.call()
        except Exception as exc:  # the oracle counts any raised error as a failure
            return False, f"{type(exc).__name__}: {exc}", None
        return self.check(self.ref, result)


# --- roof-mixed -----------------------------------------------------------------


def _bell() -> np.ndarray:
    mat = np.zeros((4, 4))
    mat[0, 0] = mat[0, 3] = mat[3, 0] = mat[3, 3] = 0.5
    return mat


def _projector(tq, dims, rng) -> np.ndarray:
    return tq.random_pure_state(dims, rng).to_density().matrix


def _two_qubit_mixture(tq, rank: int, cost: str, rng):
    """The state families of criterion 07: an equal or U(0.25, 0.75) pair for
    rank 2, and 0.55 Bell plus random projectors for ranks 3 and 4."""
    if rank == 2:
        w = 0.5 if cost == "tee" else rng.uniform(0.25, 0.75)
        mat = w * _projector(tq, (2, 2), rng) + (1 - w) * _projector(tq, (2, 2), rng)
    else:
        extra = rank - 1
        mat = 0.55 * _bell() + (0.45 / extra) * sum(
            _projector(tq, (2, 2), rng) for _ in range(extra)
        )
    return tq.DensityMatrix((2, 2), mat)


def _unitary(rng) -> np.ndarray:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _ghz_block(tq, rng, plain: bool):
    """The (0 | 2 3) block of a GHZ-class four-qubit state: separable, rank 2.

    plain gives the GHZ4 block itself; otherwise the amplitudes and a local
    unitary on each qubit are drawn from rng.
    """
    amps = np.zeros(16, dtype=complex)
    a = 0.5 if plain else rng.uniform(0.3, 0.7)
    amps[0], amps[15] = np.sqrt(a), np.sqrt(1 - a)
    if not plain:
        local = _unitary(rng)
        for _ in range(3):
            local = np.kron(local, _unitary(rng))
        amps = local @ amps
    psi = tq.PureState((2,) * 4, amps)
    return tq.DensityMatrix((2, 4), psi.reduced((0, 2, 3)).matrix)


def _separable_block(tq, rng):
    mat = np.zeros((8, 8), dtype=complex)
    weights = rng.random(2)
    for w in weights / weights.sum():
        vec = np.kron(
            tq.random_pure_state((2,), rng).amplitudes,
            tq.random_pure_state((4,), rng).amplitudes,
        )
        mat += w * np.outer(vec, vec.conj())
    return tq.DensityMatrix((2, 4), mat)


def _near(tol: float):
    def check(ref, value):
        err = abs(float(value) - ref)
        return err <= tol, f"value {float(value):.3e}, reference {ref:.3e}, tol {tol:g}", err

    return check


def roof_mixed(tq, seed: int, rounds: int = 16) -> list[Op]:
    rng = np.random.default_rng(seed)
    return [
        _roof_op(tq, kind, rank, q, rng, f"#{rnd}.{i}", plain=rnd == 0 and i == len(ROOF_ROUND) - 1)
        for rnd in range(rounds)
        for i, (kind, rank, q) in enumerate(ROOF_ROUND)
    ]


def roof_probes(tq, seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    return [_roof_op(tq, kind, rank, q, rng, "#probe") for kind, rank, q in ROOF_PROBES]


def _roof_op(tq, kind, rank, q, rng, tag, plain=False) -> Op:
    """One roof problem; for the indicator, rank is the number of members.

    The calls look functions up on the package at call time, so a traced
    pass sees the wrapped bindings.
    """
    if kind == "concurrence":
        rho = _two_qubit_mixture(tq, rank, kind, rng)
        cfg = tq.RoofConfig(**(ROOF_FAST if rank == 2 else ROOF_FULL))
        ref, tol = tq.concurrence_two_qubit(rho).c, ROOF_TOL
        call = lambda: tq.roof_concurrence(rho, cfg).value  # noqa: E731
    elif kind == "tee":
        rho = _two_qubit_mixture(tq, rank, kind, rng)
        cfg = tq.RoofConfig(**ROOF_FAST)
        ref, tol = tq.tee_two_qubit(rho, q), ROOF_TOL
        call = lambda: tq.minimize_roof(rho, tq.tee_cost(rho.dims, 0, q), cfg).value  # noqa: E731
    elif kind == "indicator":
        rho = tq.random_biseparable_mixture(rng, members=rank)
        cfg = tq.RoofConfig(**ROOF_INDICATOR)
        ref, tol = 0.0, INDICATOR_TOL
        call = lambda: tq.indicator(rho, q, config=cfg).value  # noqa: E731
    else:
        rho = _ghz_block(tq, rng, plain) if kind == "ghz-block" else _separable_block(tq, rng)
        cfg = tq.RoofConfig(**ROOF_FULL)
        ref, tol = 0.0, ROOF_TOL
        call = lambda: tq.roof_concurrence(rho, cfg).value  # noqa: E731
    if kind == "indicator":
        label = f"indicator-m{rank}"
    else:
        label = f"{kind}-r{rank}" + (f"-q{q:g}" if kind == "tee" else "")
    return Op(
        label=label + tag,
        kind=label,
        props={"rank": int(rho.rank()), "dims": list(rho.dims)},
        call=call,
        check=_near(tol),
        ref=ref,
    )


# --- pure-monogamy -------------------------------------------------------------------


def _pure_state(tq, n: int, kind: str, rng):
    if kind == "w":
        return tq.w_state(n)
    if kind == "ghz":
        return tq.ghz(n)
    if kind == "generalized-w":
        return tq.generalized_w(rng.uniform(0.05, np.pi - 0.05), rng.uniform(0.0, 2 * np.pi))
    return tq.random_pure_state((2,) * n, rng)


def pure_monogamy(tq, seed: int, cases: int = 600) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(cases):
        n = PURE_N[i % len(PURE_N)]
        kinds = ("random", "w", "ghz") + (("generalized-w",) if n == 3 else ())
        kind = kinds[int(rng.integers(len(kinds)))]
        psi = _pure_state(tq, n, kind, rng)
        q = PURE_Q[int(rng.integers(len(PURE_Q)))]
        focus = int(rng.integers(n))
        w_ref = float(tq.w_indicator_closed_form(n, q)) if kind == "w" else None
        ops.append(
            Op(
                label=f"{kind}-n{n}-q{q:g}-f{focus}#{i}",
                kind=f"n{n}",
                props={"n": n, "state": kind, "q": q},
                call=_pure_call(tq, psi, n, q, focus),
                check=_pure_check,
                ref=w_ref,
            )
        )
    return ops


def _pure_call(tq, psi, n, q, focus):
    def call():
        return (
            tq.tee_pure(psi, focus, q),
            tq.tee_sq_residual(psi, focus, q),
            tq.alpha_residual(psi, focus, 2.0, q),
            tq.alpha_residual(psi, focus, 3.0, q),
            tq.ckw_check(psi, focus),
            tq.hierarchical_check(psi, focus, n, q),
            tq.indicator(psi, q, focus=focus).value if n == 3 else None,
        )

    return call


def _pure_check(w_ref, result):
    tee, sq, a2, a3, ckw, hier, ind = result
    problems = [
        name
        for name, rep in (("squared", sq), ("alpha2", a2), ("alpha3", a3), ("ckw", ckw), ("k=N", hier))
        if not rep.satisfied
    ]
    errs = {
        "alpha2-vs-squared": (abs(a2.residual - sq.residual), 1e-14),
        "k=N-vs-flat": (abs(hier.residual - sq.residual), 1e-12),
        "tee-squared-vs-lhs": (abs(tee * tee - sq.lhs), 1e-14),
    }
    if ind is not None:
        errs["indicator-vs-squared"] = (abs(ind - sq.residual), 1e-14)
    if w_ref is not None:
        errs["w-closed-form"] = (abs(sq.residual - w_ref), 1e-10)
        if ind is not None:
            errs["w-indicator-closed-form"] = (abs(ind - w_ref), 1e-10)
    problems += [f"{k} {e:.2e} > {tol:g}" for k, (e, tol) in errs.items() if e > tol]
    worst = max(e for e, _ in errs.values())
    return not problems, "; ".join(problems) or "all oracles hold", worst


# --- cli-scan-verify ----------------------------------------------------------------


@dataclass
class CliOp(Op):
    """A ``tsallisq`` invocation; its first run fixes the expected bytes."""

    argv: list = field(default_factory=list)
    expect_rc: int = 0
    csv: str | None = None
    header: str | None = None
    rows: int = 0
    expect_fail: str | None = None
    workdir: str = ""
    env: dict = field(default_factory=dict)
    ref_stdout: bytes | None = None
    ref_csv: bytes | None = None
    child_rss_kb: int = 0

    def execute(self, mode: str):
        csv_path = os.path.join(self.workdir, self.csv) if self.csv else None
        if csv_path and os.path.exists(csv_path):
            os.remove(csv_path)
        try:
            if mode == "subprocess":
                rc, out = self._run_subprocess()
            else:
                rc, out = self._run_inprocess()
        except Exception as exc:  # a crash of the harness call is an op failure
            return False, f"{type(exc).__name__}: {exc}", None
        data = None
        if csv_path:
            if not os.path.exists(csv_path):
                return False, f"exit {rc}; no CSV written", None
            with open(csv_path, "rb") as fh:
                data = fh.read()
        return self.judge(rc, out, data)

    def judge(self, rc: int, out: bytes, data: bytes | None):
        if rc != self.expect_rc:
            return False, f"exit code {rc}, expected {self.expect_rc}", None
        if self.ref_stdout is None:
            problem = self._first_run_problem(out, data)
            if problem:
                return False, problem, None
            self.ref_stdout, self.ref_csv = out, data
            return True, "first run", None
        if out != self.ref_stdout:
            return False, "stdout bytes differ from the first run", None
        if data != self.ref_csv:
            return False, "CSV bytes differ from the first run", None
        return True, "bytes match the first run", None

    def _first_run_problem(self, out: bytes, data: bytes | None) -> str | None:
        text = out.decode("utf-8", "replace")
        if self.csv:
            lines = data.decode("utf-8", "replace").splitlines()
            if not lines or lines[0] != self.header:
                return f"CSV header {lines[:1]!r}, expected {self.header!r}"
            if len(lines) - 1 != self.rows:
                return f"CSV has {len(lines) - 1} rows, expected {self.rows}"
            return None
        fails = [ln for ln in text.splitlines() if ln.startswith("FAIL ")]
        wanted = [self.expect_fail] if self.expect_fail else []
        if [f.split(":", 1)[0] for f in fails] != [f"FAIL {w}" for w in wanted]:
            return f"FAIL lines {fails!r}, expected exactly {wanted!r}"
        last = text.strip().splitlines()[-1] if text.strip() else ""
        if not last.endswith("checks passed"):
            return f"verify summary line missing: {last!r}"
        return None

    def _run_subprocess(self):
        cmd = [sys.executable, "-m", "tsallisq.cli", *self.argv]
        out_path = os.path.join(self.workdir, "stdout.bin")
        with open(out_path, "wb") as out_fh:
            proc = subprocess.Popen(
                cmd, stdout=out_fh, stderr=subprocess.DEVNULL, cwd=self.workdir, env=self.env
            )
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 reaps the child and reports its own peak RSS
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        with open(out_path, "rb") as fh:
            return proc.returncode, fh.read()

    def _run_inprocess(self):
        import tsallisq.cli as cli

        buf = io.StringIO()
        here = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(list(self.argv))
        finally:
            os.chdir(here)
        return rc, buf.getvalue().encode("utf-8")


VERIFY_SUITES = ("appendix-a", "appendix-b", "appendix-c", "appendix-d", "theorem3-sweep", "examples")


def cli_scan_verify(tq, seed: int, workdir: str, env: dict) -> list[CliOp]:
    """The README's scan and verify invocations, with seeded ranges.

    The seed moves grid endpoints, the gw-indicator q and the W-family size.
    Grid sizes stay at README size and verify keeps its default seed, as in
    the README, so the work per command does not depend on the seed: the
    verify seed alone moves theorem3-sweep between about 3 and 6 s.
    """
    rng = np.random.default_rng(seed)

    def window():
        return f"{rng.uniform(0.70, 0.75):.4f}:{rng.uniform(4.25, 4.30):.4f}"

    scans = [
        # name, argv, csv header, rows
        ("curvature-c", ["tee-curvature-c", "--x", "0:1:64", "--q", f"{window()}:72", "--sign", "nonnegative"], "c,q,value", 65 * 73),
        ("curvature", ["tee-curvature", "--x", "0:1:64", "--q", f"{rng.uniform(2.0, 2.05):.4f}:{rng.uniform(2.95, 3.0):.4f}:32", "--sign", "nonnegative"], "x,q,value", 65 * 33),
        ("sq-curvature", ["tee-sq-curvature", "--x", "0:1:64", "--q", f"{window()}:72", "--sign", "nonnegative"], "x,q,value", 65 * 73),
        ("sq-curvature-700k", ["tee-sq-curvature", "--x", "0:1:1024", "--q", f"{window()}:683"], "x,q,value", 1025 * 684),
        ("gw-indicator", ["gw-indicator", "--theta", "0.02:3.12:32", "--phi", "0:2pi:64", "--q", f"{rng.uniform(1.5, 3.0):.4f}"], "theta,phi,value", 33 * 65),
        ("w-indicator", ["w-indicator", "--n", str(int(rng.integers(3, 7))), "--q", "1:4.3:64"], "q,value", 65),
        ("example3", ["example3", "--theta", "0:pi/2:48", "--q", "1.01:4.3:64", "--sign", "nonnegative"], "theta,q,value", 49 * 65),
        ("example4", ["example4", "--q", "1.01:4.3:128"], "q,value", 129),
        ("example5", ["example5", "--q", "1.01:4.3:128"], "q,value", 129),
    ]
    ops = []
    for name, args, header, rows in scans:
        csv = f"{name}.csv"
        ops.append(
            CliOp(
                label=f"scan-{name}",
                kind=f"scan-{name}",
                props={"points": rows},
                argv=["scan", *args, "--csv", csv],
                csv=csv,
                header=header,
                rows=rows,
                workdir=workdir,
                env=env,
            )
        )
    for suite in VERIFY_SUITES:
        failing = suite == "examples"
        ops.append(
            CliOp(
                label=f"verify-{suite}",
                kind=f"verify-{suite}",
                props={"points": 0},
                argv=["verify", suite],
                expect_rc=3 if failing else 0,
                expect_fail="examples/example3-grid-nonnegative" if failing else None,
                workdir=workdir,
                env=env,
            )
        )
    return ops


def build(tq, workload: str, seed: int, workdir: str, env: dict):
    """(timed operations, extra operations that only the traced round runs)."""
    if workload == "roof-mixed":
        return roof_mixed(tq, seed), roof_probes(tq, seed)
    if workload == "pure-monogamy":
        return pure_monogamy(tq, seed), []
    return cli_scan_verify(tq, seed, workdir, env), []
