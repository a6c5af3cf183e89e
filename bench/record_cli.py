"""Regenerate bench/cli_cases.json, the recorded CLI requests of cli_mix.

    python3 bench/record_cli.py

Builds README-sized requests for every subcommand except `snf` (whose
transforms are not unique, so cli_mix checks it by its contract
instead), plus malformed requests (exit 2) and domain errors (exit 1).
Each request is run in-process and its exit code and stdout recorded;
before recording, every successful answer is checked against an
independent reference from refs.py.  The recording pins CLI output
byte for byte: rerun this only when a change is meant to alter it.
"""

from __future__ import annotations

import json
import random
import sys

import refs
import run
import workloads as W


def dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def module_cases(rng):
    out = []
    for i in range(24):
        data = W.random_module(rng, rng.randint(2, 3), 1 + i % 2)
        if i % 2:
            out.append(("coinvariants", ["coinvariants", "--module", dumps(data), "--subgroup",
                                         rng.choice(["full", "inertia", "wild_inertia"])], data))
        else:
            out.append(("tame-quotient", ["tame-quotient", "--module", dumps(data)], data))
    return out


def check_module(argv, data, report):
    n = data["lattice_rank"]
    sel = {"full": range(len(data["generators"])), "inertia": data["inertia"],
           "wild_inertia": data["wild_inertia"]}
    which = argv[4] if argv[0] == "coinvariants" else "wild_inertia"
    rel = [[] for _ in range(n)]
    for idx in sel[which]:
        g = data["generators"][idx]["entries"]
        for i in range(n):
            rel[i].extend(g[i][j] - (i == j) for j in range(n))
    free, factors = refs.quotient_structure(rel, n)
    if argv[0] == "tame-quotient":
        factors = ()  # the quotient by the saturation is free
    got = report["group"]
    assert (got["free_rank"], tuple(got["invariant_factors"])) == (free, factors), argv


def padic_class_ok(p, e, a, r):
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    u = (-1) ** (v * (e - 1)) * a
    return refs.is_eth_power_class(u % p, r, e, p, refs.smallest_generator(p))


def small_family(rng, max_vars=2):
    p = rng.choice([3, 5, 7, 11, 13])
    return W.random_family(rng, p, rng.randint(1, max_vars))


def unit_point(rng, fam):
    terms = W.family_terms(fam)
    while True:
        pt = [rng.randrange(fam["p"] ** fam["precision"]) for _ in range(fam["n_vars"])]
        if refs.poly_eval_mod(terms, pt, fam["p"]):
            return pt


def build_cases(rng):
    cases = module_cases(rng)
    for e in range(1, 13):
        cases.append(("component-group", ["component-group", "--torus", "norm", "--e", str(e)], e))
        cases.append(("component-group", ["component-group", "--torus", "norm", "--e", str(e),
                                          "--with-frobenius"], e))
    for e in (2, 3, 5, 8):
        cases.append(("component-group", ["component-group", "--module",
                                          dumps({"torus": "norm", "e": e})], e))
    for _ in range(16):
        torsion, free, frob = W.random_h1_input(rng, rng.choice(W.H1_TORSION),
                                                rng.randrange(1, 4))
        if rng.random() < 0.5:
            free = 0
            frob = [r[: len(torsion)] for r in frob[: len(torsion)]] or [[1]]
            torsion = torsion or [2]
        group = dumps({"free_rank": free, "invariant_factors": torsion})
        k = len(frob)
        cases.append(("h1", ["h1", "--group", group, "--frobenius",
                             dumps({"rows": k, "cols": k, "entries": frob})], (torsion, frob)))
    for (p, e, sp) in [(3, 2, 2), (3, 2, 3), (5, 2, 2), (7, 2, 2), (5, 4, 1), (7, 3, 1),
                       (13, 3, 1)]:
        for _ in range(2):
            alpha = rng.randrange(max(1, e * (sp - 1)))
            a = p ** alpha * rng.choice([u for u in range(1, p * p) if u % p])
            args = ["--p", str(p), "--e", str(e), "--a", str(a), "--precision", str(alpha + 3)]
            cases.append(("oracle-norm-class", ["oracle-norm-class", *args,
                                                "--search-precision", str(sp)], (p, e, a)))
    for _ in range(20):
        p = rng.choice([3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
        e = rng.choice([d for d in range(1, p) if (p - 1) % d == 0])
        a = p ** rng.randrange(3) * rng.randrange(1, p)
        cases.append(("norm-class", ["norm-class", "--p", str(p), "--e", str(e), "--a", str(a),
                                     "--precision", str(rng.randint(3, 6))], (p, e, a)))
    for _ in range(16):
        fam = small_family(rng)
        pt = unit_point(rng, fam)
        cases.append(("eval-torsor", ["eval-torsor", "--family", dumps(fam), "--point",
                                      ",".join(map(str, pt))], (fam, pt)))
    for _ in range(12):
        fam = small_family(rng, 3)
        cases.append(("verify-diagram", ["verify-diagram", "--family", dumps(fam), "--samples",
                                         "100", "--seed",
                                         str(rng.randrange(1000))], fam))
    for _ in range(12):
        cases.append(("constancy", ["constancy", "--family", dumps(small_family(rng))], None))

    fam = dumps({"p": 5, "precision": 4, "e": 2, "n_vars": 2,
                 "f": [{"c": 1, "exp": [2, 0]}, {"c": 1, "exp": [0, 0]}]})
    for argv in (
        ["snf", "--matrix", '{"rows":2,"cols":2,"entries":[[1,2],[3'],
        ["snf", "--matrix", '{"rows":2}'],
        ["h1", "--group", '{"free_rank":0}', "--frobenius", "identity"],
        ["eval-torsor", "--family", fam, "--point", "1,2,3"],
        ["eval-torsor", "--family", fam, "--point", "1,x"],
        ["component-group", "--torus", "norm"],
        ["component-group"],
        ["norm-class", "--p", "5", "--e", "2"],
        ["norm-class", "--p", "5", "--e", "two", "--a", "2"],
        ["frobenius-twist"],
        ["tame-quotient", "--module", '{"lattice_rank":2'],
    ):
        cases.append(("malformed", argv, None))
    for argv in (
        ["norm-class", "--p", "7", "--e", "4", "--a", "3", "--precision", "4"],
        ["norm-class", "--p", "9", "--e", "2", "--a", "3", "--precision", "4"],
        ["norm-class", "--p", "11", "--e", "5", "--a", "0", "--precision", "4"],
        ["oracle-norm-class", "--p", "13", "--e", "4", "--a", "2", "--precision", "4",
         "--search-precision", "3"],
        ["constancy", "--family", dumps({"p": 101, "precision": 4, "e": 2, "n_vars": 3,
                                         "f": [{"c": 1, "exp": [0, 0, 0]}]})],
        ["eval-torsor", "--family", dumps({"p": 7, "precision": 4, "e": 3, "n_vars": 1,
                                           "f": [{"c": 1, "exp": [1]}]}), "--point", "0"],
        ["verify-diagram", "--family", dumps({"p": 7, "precision": 4, "e": 4, "n_vars": 1,
                                              "f": [{"c": 1, "exp": [1]}]}), "--samples", "10"],
        ["component-group", "--module", dumps({"lattice_rank": 1, "generators": [
            {"rows": 1, "cols": 1, "entries": [[-1]]}], "inertia": [0], "wild_inertia": [0]})],
        ["tame-quotient", "--module", dumps({"lattice_rank": 1, "generators": [
            {"rows": 1, "cols": 1, "entries": [[2]]}]})],
    ):
        cases.append(("domain", argv, None))
    return cases


def check_case(group, argv, ref, code, stdout):
    expected_code = {"malformed": 2, "domain": 1}.get(group, 0)
    assert code == expected_code, (argv, code)
    if code:
        assert stdout == "", argv
        return
    report = json.loads(stdout)
    if group in ("coinvariants", "tame-quotient"):
        check_module(argv, ref, report)
    elif group == "component-group":
        group_json = report.get("group", report)
        assert group_json == {"free_rank": 0, "invariant_factors": [ref] if ref > 1 else []}
    elif group == "h1":
        torsion, frob = ref
        k = len(frob)
        rel = [[torsion[i] if i == j else 0 for j in range(len(torsion))]
               + [frob[i][j] - (i == j) for j in range(k)] for i in range(k)]
        assert report == {"free_rank": 0,
                          "invariant_factors": list(refs.quotient_structure(rel, k)[1])}, argv
    elif group in ("norm-class", "oracle-norm-class"):
        p, e, a = ref
        assert report["e"] == e and padic_class_ok(p, e, a, report["value"]), argv
    elif group == "eval-torsor":
        fam, pt = ref
        value = refs.poly_eval_mod(W.family_terms(fam), pt, fam["p"])
        assert refs.is_eth_power_class(value, report["value"], fam["e"], fam["p"],
                                       refs.smallest_generator(fam["p"])), argv
    elif group == "verify-diagram":
        assert report["failures"] == [], argv


def main() -> int:
    T = run.import_package()
    rng = random.Random(20091126)
    recorded = []
    for group, argv, ref in build_cases(rng):
        run.clear_caches(T)
        code, stdout = W.run_cli(T, argv)
        check_case(group, argv, ref, code, stdout)
        recorded.append({"group": group, "argv": argv, "exit": code, "stdout": stdout})
    W.CLI_CASES.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"recorded {len(recorded)} cases to {W.CLI_CASES}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
