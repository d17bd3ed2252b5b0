"""One worker process of an in-process workload (build, classify, crosscheck).

Usage: python bench/worker.py '<json config>'; run.py starts it. The config
holds workload, seed, start (first op index of the stream), either seconds
(measure until then) or ops (a fixed count, for traced runs), trace,
spawned (the parent's perf_counter at spawn; perf_counter is the system
monotonic clock, so it compares across processes) and out (result file).

The worker sets up (imports, builds, generates inputs, warms up), then runs
ops in a closed loop: each op is timed alone, and its output is checked
outside the timed interval. A traced worker records its set-up too, and
(except for build, which may construct each algebra only once per process)
runs its op list both untraced and traced. Results go to `out` as JSON.
"""

import itertools
import json
import sys
import time
from pathlib import Path

import checks
import gen
import spans

ROOT = Path(__file__).resolve().parents[1]

# build: every algebra once per worker process, in a seeded order per round.
# An odd count with four of dim 15 puts the median construction inside the
# dim-15 group rather than on the boundary between two sizes.
BUILD_ALGEBRAS = (
    ("conformal", (3, 0)), ("conformal", (2, 1)), ("conformal", (3, 1)),
    ("conformal", (4, 0)), ("conformal", (2, 2)), ("conformal", (4, 1)),
    ("conformal", (5, 0)), ("conformal", (6, 0)), ("cr", (1,)), ("cr", (2,)),
    ("cr", (3,)),
)
CLASSIFY_ALGEBRAS = (
    ("conformal", (3, 0)), ("conformal", (4, 1)), ("conformal", (6, 0)),
    ("cr", (1,)), ("cr", (2,)), ("cr", (3,)),
)
# instances per algebra, about what a classify run reaches, so the slowest
# ops of a run are a sample of the population rather than repeats of a few
# instances; a multiple of 8 keeps the kind mix exact
POOL = 480
TRACE_ALTERNATIONS = 4

# crosscheck: one cycle of the interleaved stream (fixed ratio)
# 16 rank : 1 lattice on cr(1) : 1 lattice on cr(2) : 2 identity suites.
# Rank-certificate ops on conformal(3,0) are 80% of ops, so the median op
# sits inside their dense middle band rather than between two op kinds; the
# lattice and suite ops still take most of the time.
CROSSCHECK_CYCLE = ("rank",) * 4 + ("lattice1",) + ("rank",) * 4 + ("suite",) \
    + ("rank",) * 4 + ("lattice2",) + ("rank",) * 4 + ("suite",)
SUITE_SIGNATURES = ((3, 0), (2, 1))
SUITE_SAMPLES = 4


def build_fn(parahol, family):
    return parahol.build_conformal if family == "conformal" else parahol.build_cr


class Op:
    """One op: `run()` is timed, `check(result)` returns None or a reason."""

    __slots__ = ("run", "check")

    def __init__(self, run, check):
        self.run = run
        self.check = check


# -- workloads: setup(parahol, cfg, tracer) -> op(i) ------------------------------


def setup_build(parahol, cfg, tracer):
    def op(i):
        order = list(BUILD_ALGEBRAS)
        gen.rng_for(cfg["seed"], "build", i // len(order)).shuffle(order)
        family, params = order[i % len(order)]
        return Op(lambda: build_fn(parahol, family)(*params), checks.check_algebra)
    return op


def _datums(parahol, algebra, scale, seed):
    pool = gen.instances(algebra, parahol.conjugate_by_exp, seed, POOL)
    return [(kind, parahol.HolonomyDatum(algebra, x, scale)) for kind, x in pool]


class _Verified:
    """Checks a classification once per pool instance; later ops of the same
    instance must reproduce the verified report exactly."""

    def __init__(self, parahol, tracer):
        self.parahol = parahol
        self.tracer = tracer
        self.seen = {}

    def check(self, key, kind, datum, result, rank_oracle=True):
        if (self.tracer is not None and self.tracer.active and datum.algebra.k == 2
                and result.verdict.value == "Essential"):
            self.tracer.counts["classify.unverified_essential"] += 1
        body = result.to_json_dict()
        if self.seen.get(key) == body:
            return None
        witness = result.witness
        reason = checks.check_verdict(self.parahol, datum, result.verdict.value, witness,
                                      planted=kind == "planted", rank_oracle=rank_oracle)
        if reason is None:
            self.seen[key] = body
        return reason


def setup_classify(parahol, cfg, tracer):
    pools = []
    for family, params in CLASSIFY_ALGEBRAS:
        algebra = build_fn(parahol, family)(*params)
        scale = parahol.default_scale(algebra)
        pools.append(_datums(parahol, algebra, scale, cfg["seed"]))
    for pool in pools:  # warm-up: first use fills the algebra's lazy tables
        parahol.classify(pool[0][1])
    verified = _Verified(parahol, tracer)

    def op(i):
        a = i % len(pools)
        n = (i // len(pools)) % POOL
        kind, datum = pools[a][n]
        return Op(lambda: parahol.classify(datum),
                  lambda result: verified.check((a, n), kind, datum, result))
    return op


def setup_crosscheck(parahol, cfg, tracer):
    algebras = {("conformal", p): parahol.build_conformal(*p) for p in SUITE_SIGNATURES}
    algebras.update({("cr", (n,)): parahol.build_cr(n) for n in (1, 2)})
    pools = {}
    for name, key in (("rank", ("conformal", (3, 0))), ("lattice1", ("cr", (1,))),
                      ("lattice2", ("cr", (2,)))):
        algebra = algebras[key]
        pools[name] = _datums(parahol, algebra, parahol.default_scale(algebra), cfg["seed"])
    verified = _Verified(parahol, tracer)

    def oracle_op(name, n):
        kind, datum = pools[name][n]
        steps = 0 if name == "rank" else 1

        def run():
            return parahol.classify(datum), parahol.brute_force_oracle(datum, grid_steps=steps)

        def check(result):
            ours, report = result
            reason = verified.check((name, n), kind, datum, ours, rank_oracle=False)
            if reason is None and report.decided and report.classification.verdict is not ours.verdict:
                reason = f"oracle says {report.classification.verdict.value}"
            if reason is None and (name == "rank" or kind == "planted") and not report.decided:
                reason = "oracle left a decidable instance undecided"
            return reason
        return Op(run, check)

    def suite_op(i, turn):
        p, q = SUITE_SIGNATURES[turn % len(SUITE_SIGNATURES)]
        algebra = algebras[("conformal", (p, q))]
        seed = gen.rng_for(cfg["seed"], "suite", i).randrange(2 ** 31)
        return Op(lambda: parahol.run_flat_identity_suite(
                      p, q, samples=SUITE_SAMPLES, seed=seed, algebra=algebra),
                  lambda result: None if result["pass"] else "identity suite failed")

    def op(i):
        cycle, pos = divmod(i, len(CROSSCHECK_CYCLE))
        name = CROSSCHECK_CYCLE[pos]
        # turn: how many ops of this kind came before op i
        turn = cycle * CROSSCHECK_CYCLE.count(name) + CROSSCHECK_CYCLE[:pos].count(name)
        return suite_op(i, turn) if name == "suite" else oracle_op(name, turn % POOL)

    # warm-up: one op of each kind (the suite's first run imports scipy)
    for i in range(len(CROSSCHECK_CYCLE)):
        op(i).run()
    return op


SETUP = {"build": setup_build, "classify": setup_classify, "crosscheck": setup_crosscheck}


def run_ops(op_at, ids, tracer, latencies, failures, deadline=None):
    """Closed loop over op indices; returns the next index. With a tracer,
    each op is a "bench.op" span and its check a "bench.verify" span."""
    i = None
    for i in ids:
        if deadline is not None and time.perf_counter() >= deadline:
            return i
        op = op_at(i)
        if tracer:
            tracer.op = i
            root = tracer.begin("bench.op")
        t0 = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # a failing op is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if tracer:
            tracer.end(root)
            tracer.paused = True
            verify = tracer.begin("bench.verify")
        reason = error or op.check(result)
        if tracer:
            tracer.end(verify)
            tracer.paused = False
            tracer.op = None
        if reason is not None:
            failures.append(f"op {i}: {reason}")
    return i + 1


def main():
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    import parahol

    tracer = spans.Tracer() if cfg["trace"] else None
    if tracer:
        undo = spans.install(tracer)
        tracer.active = True
    op_at = SETUP[cfg["workload"]](parahol, cfg, tracer)
    setup_s = time.perf_counter() - cfg["spawned"]
    out = {"setup_s": setup_s, "latencies": [], "traced_latencies": [], "failures": []}
    start = cfg["start"]
    if "seconds" in cfg:
        out["next"] = run_ops(op_at, itertools.count(start), None, out["latencies"],
                              out["failures"], deadline=time.perf_counter() + cfg["seconds"])
    elif tracer is None:
        out["next"] = run_ops(op_at, range(start, start + cfg["ops"]), None,
                              out["latencies"], out["failures"])
    elif cfg["workload"] == "build":
        out["next"] = run_ops(op_at, range(start, start + cfg["ops"]), tracer,
                              out["traced_latencies"], out["failures"])
    else:
        # the same ops run untraced and traced in alternating order, so that
        # drift in the host's speed cancels out of the tracing overhead
        size = cfg["ops"] // TRACE_ALTERNATIONS
        for c in range(TRACE_ALTERNATIONS):
            ids = range(start + c * size, start + (c + 1) * size)
            for traced in (False, True) if c % 2 == 0 else (True, False):
                if traced and undo is None:
                    undo = spans.install(tracer)
                elif not traced and undo is not None:
                    spans.uninstall(undo)
                    undo = None
                tracer.active = traced
                run_ops(op_at, ids, tracer if traced else None,
                        out["traced_latencies" if traced else "latencies"], out["failures"])
        out["next"] = start + size * TRACE_ALTERNATIONS
    if tracer:
        out["spans"] = tracer.spans
        out["counts"] = dict(tracer.counts)
    Path(cfg["out"]).write_text(json.dumps(out))


if __name__ == "__main__":
    main()
