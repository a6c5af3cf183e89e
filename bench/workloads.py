"""The four benchmark workloads, built from a seed.

Each builder returns the fixed query set of one pass.  A query's `run`
is the timed call into tametorus; `summarize` turns its result into
plain hashable data outside the timed region; `check` compares that
data with an independent reference from refs.py and returns None when
the answer is right, or the reason it is wrong.

The library is reached only through module attributes looked up at call
time (`T.lattice.smith_normal_form`, never a name imported once), so the
span recorders that spans.py installs see every call.  Inputs are kept
as plain data and library objects that carry caches (PadicContext,
NormTorsorFamily, GaloisLatticeModule) are built inside the timed call,
so each pass pays for them as a caller would.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import refs

CLI_CASES = Path(__file__).resolve().parent / "cli_cases.json"

# Oracle tuples (p, e, search precision) with the valuations alpha that
# the search precision answers soundly (alpha < e * (sp - 1)).  Their cold
# builds take 0.02-0.3 s; a longer one such as (7, 3, 2) at about 0.6 s
# or (11, 5, 1) at about 3 s left too few passes in a run to read a
# steady lowest latency.
ORACLE_TUPLES = [
    ((3, 2, 4), (0, 1, 2, 3)),
    ((5, 2, 2), (0, 1, 2)),
    ((5, 2, 3), (0, 1, 2, 3)),
    ((11, 2, 2), (0, 1, 2)),
    ((13, 2, 2), (0, 1, 2)),
    ((7, 2, 3), (0, 1, 2, 3)),
]
LARGE_P_QUERIES = 30
# component_group costs grow steeply with e.  The 12 queries at e in 32-37
# (each size twice) are among the slowest of the workload, so its tail is
# read from a group of nearly equal cost rather than one query.
COMPONENT_E = (2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 28, *range(32, 38), *range(32, 38))
# SNF cost and transform size are erratic in the entries from n = 20 on,
# so the large matrices are fixed (derived from their size alone) while
# the many small ones are drawn from the seed.
FIXED_SNF_SIZES = (20, 22, 24, 26)


@dataclass
class Query:
    kind: str
    run: Callable[[], Any]
    summarize: Callable[[Any], Any]
    check: Callable[[Any], "str | None"]
    info: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    queries: list[Query]
    # Per-pass quantities computed from parameters and checked outputs.
    computed: dict = field(default_factory=dict)
    # Empty the package's caches before every query, not just every pass.
    cold_per_query: bool = False


def matrix_rows(m) -> list[list[int]]:
    return [list(m.entries[i * m.cols:(i + 1) * m.cols]) for i in range(m.rows)]


# ---------------------------------------------------------------- generators

def random_unimodular(rng: random.Random, n: int, steps: int = 6) -> list[list[int]]:
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


def unimodular_inverse_rows(rows: list[list[int]]) -> list[list[int]]:
    # Gauss-Jordan over the rationals with exact integer results.
    n = len(rows)
    m = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for k in range(n):
        piv = next(i for i in range(k, n) if m[i][k])
        m[k], m[piv] = m[piv], m[k]
        m[k] = [x / m[k][k] for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                m[i] = [a - m[i][k] * b for a, b in zip(m[i], m[k])]
    return [[int(x) for x in r[n:]] for r in m]


def mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(r, c)) for c in bt] for r in a]


def signed_permutation(rng: random.Random, n: int) -> list[list[int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)]


def random_module(rng: random.Random, rank: int, n_gens: int) -> dict:
    """A finite action: signed permutations conjugated by one change of basis."""
    q = random_unimodular(rng, rank)
    q_inv = unimodular_inverse_rows(q)
    gens = [mul(mul(q, signed_permutation(rng, rank)), q_inv) for _ in range(n_gens)]
    inertia = sorted(rng.sample(range(n_gens), rng.randrange(1, n_gens + 1)))
    wild = sorted(rng.sample(inertia, rng.randrange(0, len(inertia) + 1)))
    return {
        "lattice_rank": rank,
        "generators": [{"rows": rank, "cols": rank, "entries": g} for g in gens],
        "inertia": inertia,
        "wild_inertia": wild,
        "frobenius": None,
    }


H1_TORSION = ([], [2], [3], [2, 4], [2, 2], [3, 6], [4], [2, 6])


def random_h1_input(rng: random.Random, torsion: list[int],
                    free: int) -> tuple[list[int], int, list[list[int]]]:
    """A group with a free part and a finite-order automorphism on its
    normal-form coordinates: +-1 on torsion, a signed permutation on the
    free part, and free generators sent partly into torsion."""
    t, k = len(torsion), len(torsion) + free
    frob = [[0] * k for _ in range(k)]
    for i in range(t):
        frob[i][i] = rng.choice((1, -1))
    perm = signed_permutation(rng, free)
    for i in range(free):
        for j in range(free):
            frob[t + i][t + j] = perm[i][j]
        for r in range(t):
            frob[r][t + i] = rng.randrange(torsion[r])
    return torsion, free, frob


def random_family(rng: random.Random, p: int, n_vars: int, extra_terms: int = 0) -> dict:
    """f = a unit constant plus 1-4 (or `extra_terms`) monomials of degree <= 3."""
    divisors = [d for d in range(2, 11) if (p - 1) % d == 0]
    terms = [{"c": rng.randrange(1, p), "exp": [0] * n_vars}]
    for _ in range(extra_terms or rng.randrange(1, 5)):
        exps = [0] * n_vars
        for _ in range(rng.randrange(1, 4)):
            exps[rng.randrange(n_vars)] += 1
        terms.append({"c": rng.randint(-9, 9) or 1, "exp": exps})
    return {"p": p, "precision": rng.randrange(4, 9), "e": rng.choice(divisors),
            "n_vars": n_vars, "f": terms}


PRIMES_TO_101 = [q for q in range(3, 102) if refs.is_prime(q)]


def family_terms(fam: dict) -> list[tuple[int, tuple[int, ...]]]:
    return [(t["c"], tuple(t["exp"])) for t in fam["f"]]


# ------------------------------------------------------------- lattice_tower

def lattice_tower(T, seed: int) -> Workload:
    rng = random.Random(seed)
    queries: list[Query] = []

    def component(e):
        def run():
            cg = T.torus.component_group(T.torus.norm_torus_spec(e))
            return cg, T.torus.h1_frobenius(cg)

        def summarize(out):
            cg, h1 = out
            return (cg.group.free_rank, cg.group.invariant_factors,
                    h1.free_rank, h1.invariant_factors)

        def check(s):
            free, factors, h1_free, h1_factors = s
            if (free, factors) != (0, (e,)):
                return f"component group of e={e} is not Z/{e}"
            order = 1
            for d in h1_factors:
                order *= d
            if h1_free or order != e:
                return f"|H^1| != {e}"
            return None
        return Query("component_group", run, summarize, check)

    for e in COMPONENT_E:
        queries.append(component(e))

    bits = []

    def snf(a_rows):
        A = T.lattice.IntegerMatrix.from_rows(a_rows)

        def run():
            return T.lattice.smith_normal_form(A)

        def summarize(r):
            return r.U.entries, r.S.entries, r.V.entries

        def check(s):
            n = len(a_rows)
            u, sd, v = ([list(x[i * n:(i + 1) * n]) for i in range(n)] for x in s)
            bits.append(max(abs(x).bit_length() for x in s[0] + s[2]))
            return refs.check_snf(a_rows, u, sd, v)
        return Query("snf", run, summarize, check)

    def entries(r, n):
        return [[r.randint(-20, 20) for _ in range(n)] for _ in range(n)]

    # Sizes, ranks and group shapes cycle through fixed lists and only the
    # entries are seeded: sizes drawn by the seed moved the median latency
    # by about 10% from one seed to another.
    for i in range(81):
        queries.append(snf(entries(rng, 8 + i % 9)))
    for n in FIXED_SNF_SIZES:
        queries.append(snf(entries(random.Random(f"snf-fixed-{n}"), n)))

    def module_query(data):
        n = data["lattice_rank"]
        gens = [g["entries"] for g in data["generators"]]

        def relations(indices):
            rel = [[] for _ in range(n)]
            for idx in indices:
                for i in range(n):
                    rel[i].extend(gens[idx][i][j] - (i == j) for j in range(n))
            return rel

        def run():
            module = T.galois.GaloisLatticeModule.from_json_dict(data)
            return (T.galois.coinvariants(module, "full"),
                    T.galois.coinvariants(module, "inertia"),
                    T.galois.largest_trivial_free_quotient(module))

        def summarize(out):
            return tuple((q.group.free_rank, q.group.invariant_factors,
                          tuple(tuple(r) for r in matrix_rows(q.projection)))
                         for q in out)

        def check(s):
            selections = (range(len(gens)), data["inertia"])
            for (free, factors, proj), sel in zip(s[:2], selections):
                rel = relations(sel)
                if (free, factors) != refs.quotient_structure(rel, n):
                    return "coinvariant group differs from the reference"
                orders = factors + (0,) * free
                for col in zip(*rel):
                    image = [sum(a * b for a, b in zip(row, col)) for row in proj]
                    if any(x % d if d else x for x, d in zip(image, orders)):
                        return "projection does not kill a relation"
            free, factors, proj = s[2]
            wild_rel = relations(data["wild_inertia"])
            if factors or free != refs.quotient_structure(wild_rel, n)[0]:
                return "tame quotient is not free of the reference rank"
            for col in zip(*wild_rel):
                if any(sum(a * b for a, b in zip(row, col)) for row in proj):
                    return "wild inertia does not act trivially on the tame quotient"
            return None
        return Query("module", run, summarize, check)

    for i in range(60):
        rank = (2, 3, 4)[i // 2 % 3] if i % 2 else (3, 4, 5, 6)[i // 2 % 4]
        queries.append(module_query(random_module(rng, rank, 2 if i % 2 else 1)))

    def h1_query(torsion, free, frob):
        def run():
            group = T.lattice.FgAbelianGroup(free, tuple(torsion))
            return T.galois.cyclic_h1(group, T.lattice.IntegerMatrix.from_rows(frob))

        def summarize(h):
            return h.free_rank, h.invariant_factors

        def check(s):
            k = len(frob)
            rel = [[torsion[i] if i == j else 0 for j in range(len(torsion))]
                   + [frob[i][j] - (i == j) for j in range(k)] for i in range(k)]
            _, factors = refs.quotient_structure(rel, k)
            return None if s == (0, factors) else "H^1 is not the torsion of the coinvariants"
        return Query("cyclic_h1", run, summarize, check)

    for i in range(60):
        torsion = H1_TORSION[i % len(H1_TORSION)]
        queries.append(h1_query(*random_h1_input(rng, torsion, 1 + i // len(H1_TORSION) % 3)))

    rng.shuffle(queries)
    computed = {"lattice.snf.max_transform_bits": lambda: max(bits, default=0)}
    return Workload("lattice_tower", queries, computed)


# -------------------------------------------------------------- norm_classes

def large_prime(rng: random.Random) -> int:
    while True:
        p = rng.randrange(990_000, 1_010_000) | 1
        if refs.is_prime(p):
            return p


def norm_classes(T, seed: int) -> Workload:
    rng = random.Random(seed)
    queries: list[Query] = []

    def oracle_query(p, e, sp, alpha, u):
        def run():
            ctx = T.padic.PadicContext(p, alpha + 3)
            a = ctx.integer(p**alpha * u)
            return T.padic.norm_class(a, e), T.padic.norm_class_oracle(a, e, sp)

        def summarize(out):
            return tuple((c.e, c.value) for c in out)

        def check(s):
            formula, oracle = s
            if formula[0] != e or not 0 <= formula[1] < e:
                return "norm class out of range"
            return None if formula == oracle else "norm_class differs from the oracle"
        return Query("oracle", run, summarize, check, {"cold": False})

    for (p, e, sp), alphas in ORACLE_TUPLES:
        units = [u for u in range(1, p * p) if u % p]
        for alpha in alphas:
            rng.shuffle(units)
            group = [oracle_query(p, e, sp, alpha, u) for u in units]
            # Caches are cold at the start of a pass, so the first query of
            # each (tuple, alpha) is the one that needs a new residue set.
            group[0].info["cold"] = True
            queries.extend(group)

    def large_query(p, e, a, g):
        def run():
            ctx = T.padic.PadicContext(p, 2)
            return T.padic.norm_class(ctx.integer(a), e)

        def summarize(c):
            return c.e, c.value

        def check(s):
            ok = s[0] == e and 0 <= s[1] < e and refs.is_eth_power_class(a, s[1], e, p, g)
            return None if ok else "a * g^(-r) is not an e-th power"
        return Query("large_p", run, summarize, check)

    # The linear-scan dlog costs time in proportion to the class value, so
    # the class is stratified over [0, e/2) rather than left to chance; the
    # upper half would add single queries of 60-110 ms whose lowest reading
    # follows the machine's speed drift.
    for i in range(LARGE_P_QUERIES):
        p = large_prime(rng)
        e = p - 1 if i % 2 else (p - 1) // 2
        g = refs.smallest_generator(p)
        width = e // (2 * LARGE_P_QUERIES)
        r = rng.randrange(i * width, (i + 1) * width)
        a = pow(g, r, p) * pow(rng.randrange(1, p), e, p) % p
        queries.append(large_query(p, e, a, g))

    computed = {"padic.oracle.candidates":
                lambda: sum(p ** (e * sp) for (p, e, sp), _ in ORACLE_TUPLES)}
    return Workload("norm_classes", queries, computed)


# ----------------------------------------------------------- torsor_sampling

VERIFY_SAMPLES = 150
# (n_vars, p) of the constancy fibres: 101 to 9409 points.  The two dozen
# of 1331-1369 points are the slowest group after the one 9409-point
# fibre, so the tail is read from among them.  Fibres of about 5000
# points (35-40 ms each) integrated the machine's speed drift into
# single readings and doubled the run-to-run spread.
CONSTANCY_STRATA = [(1, 101)] * 4 + [(2, 97)] + [(2, 37)] * 12 + [(3, 11)] * 12


def torsor_sampling(T, seed: int) -> Workload:
    rng = random.Random(seed)
    queries: list[Query] = []
    skips: list[int] = []

    def verify_query(fam, sample_seed):
        terms = family_terms(fam)
        p, mod = fam["p"], fam["p"] ** fam["precision"]

        def run():
            family = T.torsor.NormTorsorFamily.from_json_dict(fam)
            return T.torsor.verify_factorization(family, VERIFY_SAMPLES, sample_seed)

        def summarize(rep):
            return rep.samples_tested, rep.skipped_nonunit, len(rep.failures), rep.seed

        def check(s):
            replay = random.Random(sample_seed)
            points = [tuple(replay.randrange(mod) for _ in range(fam["n_vars"]))
                      for _ in range(VERIFY_SAMPLES)]
            skipped = sum(1 for pt in points if refs.poly_eval_mod(terms, pt, p) == 0)
            if s[2]:
                return "the factorization check recorded failures"
            if s[:2] != (VERIFY_SAMPLES - skipped, skipped) or s[3] != sample_seed:
                return "skip count differs from the replayed sample"
            skips.append(skipped)
            return None
        return Query("verify", run, summarize, check, {"points": VERIFY_SAMPLES})

    def constancy_query(fam):
        terms = family_terms(fam)
        p, e = fam["p"], fam["e"]
        g = refs.smallest_generator(p)

        def run():
            family = T.torsor.NormTorsorFamily.from_json_dict(fam)
            return T.torsor.constancy_check(family)

        def summarize(rep):
            return rep.constant, tuple(sorted(rep.classes.items()))

        def check(s):
            constant, classes = s
            units = 0
            for pt, r in classes:
                value = refs.poly_eval_mod(terms, pt, p)
                if value == 0 or not refs.is_eth_power_class(value, r, e, p, g):
                    return f"wrong class at {pt}"
                units += 1
            n = fam["n_vars"]
            expected = sum(1 for i in range(p ** n)
                           if refs.poly_eval_mod(terms, [i // p**k % p for k in range(n)], p))
            if units != expected:
                return "constancy report misses unit-locus points"
            if constant != (len({r for _, r in classes}) <= 1):
                return "constant flag disagrees with the classes"
            return None
        return Query("constancy", run, summarize, check, {"points": p ** fam["n_vars"]})

    for i in range(96):
        fam = random_family(rng, rng.choice(PRIMES_TO_101), 1 + i % 3)
        queries.append(verify_query(fam, rng.randrange(10**6)))
    for n_vars, p in CONSTANCY_STRATA:
        queries.append(constancy_query(random_family(rng, p, n_vars, extra_terms=3)))
    rng.shuffle(queries)
    verify_points = VERIFY_SAMPLES * sum(q.kind == "verify" for q in queries)
    computed = {"torsor.verify.skipped_ratio": lambda: sum(skips) / verify_points}
    return Workload("torsor_sampling", queries, computed)


# ------------------------------------------------------------------- cli_mix

# Times per pass that each recorded CLI case is run.
CLI_REPEATS = 2
CLI_SNF_DRAWS = 30


def run_cli(T, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = T.cli.main(argv)
        except SystemExit as exc:  # argparse rejects malformed command lines
            code = exc.code
    return code, out.getvalue()


def cli_mix(T, seed: int) -> Workload:
    rng = random.Random(seed)
    cases = json.loads(CLI_CASES.read_text())
    queries: list[Query] = []

    def recorded(case):
        expected = (case["exit"], case["stdout"])
        return Query("cli", lambda: run_cli(T, case["argv"]), lambda out: out,
                     lambda s: None if s == expected else
                     f"{case['argv'][0]} exit/stdout differs from the recording",
                     {"exit": case["exit"]})

    # Every recorded case the same number of times, so the seed sets the
    # order but not the cost profile: a draw with replacement could pick
    # the 11 ms oracle requests twice as often on one seed as on another.
    for case in cases:
        queries.extend(recorded(case) for _ in range(CLI_REPEATS))

    def snf_query(a_rows):
        argv = ["snf", "--matrix", json.dumps(
            {"rows": len(a_rows), "cols": len(a_rows[0]), "entries": a_rows})]

        def check(s):
            code, stdout = s
            if code != 0:
                return "snf exited nonzero"
            rep = json.loads(stdout)
            return refs.check_snf(a_rows, rep["U"]["entries"], rep["S"]["entries"],
                                  rep["V"]["entries"])
        return Query("cli", lambda: run_cli(T, argv), lambda out: out, check, {"exit": 0})

    for _ in range(CLI_SNF_DRAWS):
        n = rng.randint(2, 4)
        queries.append(snf_query([[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]))
    rng.shuffle(queries)
    nonzero = sum(q.info["exit"] != 0 for q in queries)
    # Each CLI call is its own process for a user, so none inherits a cache.
    return Workload("cli_mix", queries, {"cli.exit_nonzero.count": lambda: nonzero},
                    cold_per_query=True)


BUILDERS = {
    "lattice_tower": lattice_tower,
    "norm_classes": norm_classes,
    "torsor_sampling": torsor_sampling,
    "cli_mix": cli_mix,
}
