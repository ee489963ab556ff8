"""One fresh-process probe of the idsapprox CLI.

    python3 child.py <request.json> <result.json>

The request's ``mode`` is one of

- ``setup``: time the import of ``idsapprox`` plus ``load_config`` and the
  model, colouring and rule constructors, from process start, then time
  the calibration kernel twice;
- ``command``: import the package, then time ``cli.main(argv)`` (wall and
  user+sys CPU of this process, BLAS threads included) and record the
  peak resident set; with ``trace`` set, wrap the layer functions first.
  The calibration kernel is timed before the package is imported and
  again after the command, so that the run can scale the times to a
  reference machine speed;
- ``ldl``: count eigenvalues below given energies of the restriction on
  the largest volume, from the inertia of an LDL^T factorisation.

Only the standard library is imported before the timer starts.
"""

import json
import resource
import sys
import time

START = time.perf_counter()


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def setup(req: dict) -> dict:
    from idsapprox import cli

    args = cli.build_parser().parse_args(req["argv"])
    cfg = cli.load_config(args)
    model = cfg.model()
    colouring = cfg.colouring(model)
    cfg.rule(model, colouring)
    setup_s = time.perf_counter() - START
    return {"setup_s": setup_s, "calib_s": calibrate() + calibrate()}


class _Grid:
    """Z^2 with checked tuple elements, as the package's Cayley models."""

    def check(self, g: tuple) -> tuple:
        if not isinstance(g, tuple) or len(g) != 2:
            raise TypeError(g)
        return g

    def multiply(self, g: tuple, h: tuple) -> tuple:
        g = self.check(g)
        h = self.check(h)
        return tuple(a + b for a, b in zip(g, h))


def calibrate() -> float:
    """Seconds taken by a fixed kernel of the program's two main kinds of
    work, in about equal parts: pattern matching over a dict of coloured
    tuple elements through method calls, and sorted-array intersections.
    It uses no code of the package.  (An eigensolve tracked the program's
    times worse on a shared machine and is left out.)"""
    import numpy as np

    t0 = time.perf_counter()
    grid = _Grid()
    values = {(x, y): ("open", "closed")[(x * 31 + y * 17) % 5 < 2]
              for x in range(48) for y in range(48)}
    pattern = (((0, 0), "open"), ((1, 0), "closed"), ((0, 1), "open"))
    count = 0
    for x in list(range(46)) * 8:
        for y in range(46):
            if all(values[grid.multiply(d, (x, y))] == s for d, s in pattern):
                count += 1
    coords = np.arange(40_000, dtype=np.int64) * 7919 % 100_003
    for q in range(32):
        np.intersect1d(np.sort(coords + q), np.sort(coords), assume_unique=True)
    return time.perf_counter() - t0


def command(req: dict) -> dict:
    calib_s = calibrate()
    from idsapprox import cli

    tracer = None
    missing: list[str] = []
    if req.get("trace"):
        import layers
        import tracer as tracing

        tracer = tracing.Tracer()
        missing = tracing.install(tracer, layers.TARGETS)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    if tracer is None:
        rc = cli.main(req["argv"])
    else:
        rc = tracer.call("cli", cli.main, req["argv"])
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    calib_s += calibrate()
    out = {
        "rc": rc,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "calib_s": calib_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["counts"] = dict(tracer.counts)
        out["missing"] = missing
    return out


def negative_inertia(A) -> int:
    """Number of negative eigenvalues of symmetric A (Sylvester's law),
    from the 1x1 and 2x2 diagonal blocks of a Bunch-Kaufman LDL^T."""
    import scipy.linalg

    _, d, _ = scipy.linalg.ldl(A, lower=True, hermitian=True)
    n = d.shape[0]
    neg = 0
    i = 0
    while i < n:
        if i + 1 < n and d[i + 1, i] != 0.0:
            a, b, c = d[i, i], d[i + 1, i], d[i + 1, i + 1]
            det = a * c - b * b
            neg += 1 if det < 0 else (2 if a + c < 0 else 0)
            i += 2
        else:
            neg += int(d[i, i] < 0)
            i += 1
    return neg


def ldl(req: dict) -> dict:
    import numpy as np
    from idsapprox.cayley import folner_set, shrink
    from idsapprox.config import RunConfig
    from idsapprox.operators import restrict_operator

    import layers

    with open(req["config"]) as fh:
        cfg = RunConfig.from_dict(json.load(fh))
    model = cfg.model()
    colouring = cfg.colouring(model)
    rule = cfg.rule(model, colouring)
    inner = shrink(folner_set(model, req["j"]).tile, rule.overall_range)
    H = layers.as_dense(restrict_operator(rule, colouring, inner))
    eye = np.eye(H.shape[0])
    counts = [negative_inertia(H - e * eye) for e in req["energies"]]
    return {"dim": H.shape[0], "counts": counts}


def main() -> int:
    with open(sys.argv[1]) as fh:
        req = json.load(fh)
    result = {"setup": setup, "command": command, "ldl": ldl}[req["mode"]](req)
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
