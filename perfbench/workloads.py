"""The three workloads: set-up, timed operations, and output checks.

A workload is built (its set-up) from a fresh import of parres, passed in as
`api`, and the run seed.  It exposes `ops`, a list of (key, callable); each
callable is one operation a user would run and returns its output.
`check(key, output)` returns None when the output is right and an error
message otherwise.  `checks()` runs the correctness checks that are too
costly for the timed loop and returns (label, error or None) pairs;
`sweep()` is the untraced regression sweep (only `deep` has one).
"""

from __future__ import annotations

import json
import random
from math import comb
from pathlib import Path

import ringgen

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
BUNDLED = ("r1", "r2", "regular", "hypersurface", "nonflc")
SUBCOMMANDS = ("resolve", "koszul", "invariants", "standard", "inequality",
               "main-theorem", "scan", "example")


def cli_report(api, argv):
    """Structured report of one CLI invocation, run in-process."""
    args = api.cli.build_parser().parse_args(list(argv)
                                             + ["--format", "structured"])
    return api.cli.run(args).render("structured")


def residue_field(api, ring_name, cap):
    """(structured report, minimal resolution) of the residue field k."""
    spec = api.harness.parse_ring_spec(api.cli.bundled_ring_text(ring_name),
                                       name=ring_name)
    ring = spec.ring
    rel = api.groebner.RingMatrix.from_columns(
        ring, [[ring.ambient.gen(v)] for v in ring.variables], row_degrees=[0])
    k = api.groebner.FinitelyPresentedModule(ring, [0], rel)
    res = api.resolutions.minimal_free_resolution(k, cap)
    report = api.harness.ExperimentReport("residue-field", {
        "ring": repr(ring), "cap": cap})
    report.record("betti", res.betti().to_dict())
    report.record("poincare", res.poincare().coefficients)
    return report.render("structured"), res


def default_cap_runs():
    """(golden file name, argv) of every (subcommand, bundled ring) run."""
    return [(f"{ring}.{cmd}.json", [cmd, "--ring", ring])
            for ring in BUNDLED for cmd in SUBCOMMANDS]


def _read(path):
    return path.read_text(encoding="utf-8")


def _golden_error(got, want):
    return None if got == want else "output differs from its golden report"


class Workload:
    """Defaults: no post-run checks, no regression sweep."""

    def checks(self):
        return []

    def sweep(self):
        return []


class Deep(Workload):
    """Three heavy resolution ops on bundled rings at raised caps."""

    CLI_OPS = {
        "inequality-r2-cap5": ["inequality", "--ring", "r2", "--cap", "5"],
        "main-theorem-r2-cap4": ["main-theorem", "--ring", "r2", "--cap", "4"],
    }
    RESIDUE = ("residue-field-r1-cap6", "r1", 6)
    # the residue-field resolution is checked by the oracle through this
    # internal degree (its generators in step i sit in degrees >= i)
    RESIDUE_TOP = 7

    def __init__(self, api, seed, workdir):
        self.api = api
        self.golden = {p.stem: _read(p) for p in (GOLDEN / "deep").iterdir()}
        self.ops = [(key, lambda argv=argv: cli_report(api, argv))
                    for key, argv in self.CLI_OPS.items()]
        self.ops.append((self.RESIDUE[0], self._residue))
        random.Random(seed).shuffle(self.ops)
        self.residue = None

    def _residue(self):
        text, self.residue = residue_field(self.api, *self.RESIDUE[1:])
        return text

    def check(self, key, output):
        return _golden_error(output, self.golden[key])

    def checks(self):
        if self.residue is None:
            return [("oracle exactness of the residue-field resolution",
                     "the residue-field op did not finish")]
        res = self.residue
        out = []
        for n in range(self.RESIDUE[2] + 1):
            dims = [self.api.oracle.homology_dim_at(res.complex, n, t)
                    for t in range(self.RESIDUE_TOP + 1)]
            want = [1 if n == t == 0 else 0 for t in range(len(dims))]
            out.append((f"residue field over r1: oracle H_{n}",
                        None if dims == want else f"oracle dims {dims}"))
        return out

    def sweep(self):
        """The 40 default-cap reports against their goldens."""
        out = []
        for name, argv in default_cap_runs():
            want = _read(GOLDEN / "default" / name)
            try:
                err = _golden_error(cli_report(self.api, argv), want)
            except Exception as exc:  # the sweep must go on; count it
                err = f"raised {exc!r}"
            out.append((f"default-cap {' '.join(argv)}", err))
        return out


class Random(Workload):
    """Seeded random small rings, four short CLI experiments on each."""

    EXPERIMENTS = (("koszul", []),
                   ("invariants", ["--power-max", "3"]),
                   ("standard", ["--power-max", "3"]),
                   ("resolve", ["--cap", "3"]))
    RERUN_RINGS = 4

    def __init__(self, api, seed, workdir):
        self.api = api
        self.seed = seed
        self.texts = ringgen.random_rings(api, seed)
        ringdir = workdir / f"rings-{seed}"
        ringdir.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for i, text in enumerate(self.texts):
            path = ringdir / f"ring{i:03d}.ring"
            path.write_text(text, encoding="utf-8")
            self.paths.append(str(path))
        self.ops = [(f"{i:03d}.{cmd}",
                     lambda argv=[cmd, "--ring", path] + extra:
                     cli_report(api, argv))
                    for i, path in enumerate(self.paths)
                    for cmd, extra in self.EXPERIMENTS]
        self.outputs = {}

    def check(self, key, output):
        first = self.outputs.setdefault(key, output)
        return None if first == output else "output changed between passes"

    def checks(self):
        out = [("same seed, same rings",
                None if ringgen.random_rings(self.api, self.seed) == self.texts
                else "ring generator is not deterministic")]
        for key, fn in self.ops[:self.RERUN_RINGS * len(self.EXPERIMENTS)]:
            if key in self.outputs:
                same = fn() == self.outputs[key]
                out.append((f"rerun {key}",
                            None if same else "rerun output differs"))
        for i, path in enumerate(self.paths):
            report = self.outputs.get(f"{i:03d}.koszul")
            if report is not None:
                out.extend(self._oracle_koszul(i, path, report))
        return out

    def _oracle_koszul(self, i, path, report):
        """Every finite Koszul homology length against the oracle."""
        api = self.api
        lengths = json.loads(report)["data"]["homology_lengths"]
        spec = api.harness.load_ring_spec(path)
        k = api.koszul.koszul_complex(spec.sop())
        out = []
        for n, reported in lengths.items():
            if not isinstance(reported, int):
                continue  # INFINITE
            _, h = api.complexes.homology_presentation(k, int(n))
            top = max(h.graded_length(), default=0) + 2
            got = api.oracle.module_length_upto(h, top)
            out.append((f"ring{i:03d} oracle len H_{n}",
                        None if got == reported
                        else f"oracle {got}, reported {reported}"))
        return out


class Oracle(Workload):
    """Degreewise GF(p) cross-checks of symbolic answers on bundled rings."""

    POWERS = range(1, 8)
    EXACT_RINGS = ("r1", "r2", "nonflc")
    EXACT_TOP = 13
    DEPTH_TOP = 8

    def __init__(self, api, seed, workdir):
        self.api = api
        self.ops = []
        specs = {name: api.harness.parse_ring_spec(
            api.cli.bundled_ring_text(name), name=name) for name in BUNDLED}
        for name, spec in specs.items():
            for sname in spec.sops:
                for n in self.POWERS:
                    self._length_ops(f"{name}.{sname}^{n}",
                                     spec.sop(sname).power(n))
        for name in self.EXACT_RINGS:
            self._exactness_ops(name, specs[name])
        for name, spec in specs.items():
            self._invariant_ops(name, spec)
        random.Random(seed).shuffle(self.ops)

    def _add(self, key, fn):
        self.ops.append((key, fn))

    def _length_ops(self, label, xn):
        """One op per graded piece of R/(x^n) and of each finite H_i."""
        api = self.api
        k = api.koszul.koszul_complex(xn)
        mods = [("R/(x)", xn.quotient_module())]
        mods += [(f"H_{i}", api.complexes.homology_presentation(k, i)[1])
                 for i in range(1, xn.count + 1)]
        for tag, m in mods:
            if m.length() is api.groebner.INFINITE:
                continue
            dims = m.graded_length()
            low = min(m.gen_degrees, default=0)
            for t in range(low, max(dims, default=0) + 3):
                self._add(f"dim {label} {tag} degree {t}",
                          lambda m=m, t=t, want=dims.get(t, 0):
                          api.oracle.module_dim_at(m, t) == want)

    def _exactness_ops(self, name, spec):
        """One op per (homological degree, internal degree) of R/(x)'s
        minimal resolution: H_0 is R/(x), H_n vanishes for n >= 1."""
        api = self.api
        quot = spec.sop().quotient_module()
        cap = spec.cap("homological", api.cli.DEFAULT_CAP)
        res = api.resolutions.minimal_free_resolution(quot, cap)
        dims = quot.graded_length()
        for n in range(cap + 1):
            for t in range(self.EXACT_TOP + 1):
                want = dims.get(t, 0) if n == 0 else 0
                self._add(f"exact {name} H_{n} degree {t}",
                          lambda n=n, t=t, want=want:
                          api.oracle.homology_dim_at(res.complex, n, t)
                          == want)

    def _invariant_ops(self, name, spec):
        """Depth and local cohomology lengths against the oracle."""
        api = self.api
        ring = spec.ring
        x = spec.sop()
        inv = api.invariants.invariant_report(ring, x)
        m = api.invariants.maximal_ideal_sequence(ring)
        km = api.koszul.koszul_complex(m)
        top_index = m.count - inv.depth

        def depth_op():
            dims = [[api.oracle.homology_dim_at(km, i, t)
                     for t in range(self.DEPTH_TOP + 1)]
                    for i in range(top_index, m.count + 1)]
            return any(dims[0]) and not any(map(any, dims[1:]))
        self._add(f"depth {name}", depth_op)
        if inv.lc_lengths is None:
            return
        d = x.count
        xs = x.power(inv.standard_power)
        k = api.koszul.koszul_complex(xs)
        hs = [api.complexes.homology_presentation(k, p)[1]
              for p in range(1, d + 1)]
        tops = [max(h.graded_length(), default=0) + 2 for h in hs]
        want = [sum(comb(d, i + p) * inv.lc_lengths[i] for i in range(d))
                for p in range(1, d + 1)]

        def lc_op():
            got = [api.oracle.module_length_upto(h, top)
                   for h, top in zip(hs, tops)]
            return got == want
        self._add(f"local cohomology {name}", lc_op)

    def check(self, key, output):
        return None if output is True else "oracle disagrees"


WORKLOADS = {"deep": Deep, "random": Random, "oracle": Oracle}
