"""Workload definitions: the fixed job lists with the outputs recorded for
them, and the seeded generator of the `verify-seeded` laws files.

A job is a CLI argument list; the sweep appends `--json`.  Nothing here
imports clawforge: the program receives only generated text."""

import json

# sha256 of each fixed job's `--json` output, recorded at the commit that
# introduced the benchmark.  A job whose output hash differs counts as failed.
FIXED_JOBS = {
    "mixed-corpus": {
        "mixed kdv --generator X4":
            "1a9728b28f6d90a4ad89d924812c5d657bcc1957ff68b310051445e373c9b819",
        "mixed kdv --generator X2":
            "1e205af387ed090c6bf47e83a94088f470db9ec452958d1cf56eb0d96f2a3833",
        "mixed fw --generator X1":
            "bb1b13808b0b313cdaa0334dd0810e9909b7b8f50298a4f875e1ffaf9e9ecc03",
        "mixed sp --generator X3":
            "983b2c405b32b3f01ad7ec7ba9b9c9932236e1945019a66d57b72da884856777",
        "mixed gas1d --generator X0 --psi-degree 1":
            "e6b85473cc346fd516bb70bb0e066559c04b1331a8aba77ee56d778678fb40e4",
    },
    "multipliers-direct": {
        "multipliers kdv --degree 4 --order 1":
            "2584c1602555dd6ac6bcc8c189b05780c4f2746384899094341cc861530d142b",
        "multipliers gas1d --degree 2 --order 1":
            "c11376cf004c58f6d2f2ad47c3c620160e9e9e1ddfc9c7634ee8dafef3ba1fd1",
        "multipliers fw --degree 3 --order 1":
            "fb78b1e5ce33894f744ede623ddd7d92ba08d95607cef5838118b02927974de6",
        "multipliers gas3d --degree 1":
            "e98d912d506df7ce4292df30d32e61cac531c2a3a473d692107f7aa341044a71",
    },
}

# Counts stated in the paper, checked on the parsed output independently of
# the recorded hash: KdV with X4 has a 15-dimensional solution space holding
# 2 nontrivial and 13 trivial laws.
PAPER_COUNTS = {
    "mixed kdv --generator X4":
        {"solution_dimension": 15, "laws": 2, "trivial_count": 13},
}

WORKLOADS = ("mixed-corpus", "multipliers-direct", "verify-seeded")

# The gas3d system in solved form (leading jet, right-hand side) and its 14
# reference laws, as text.  They are the generator's raw material.
GAS3D_EQUATIONS = (
    ("rho", "rho[t]",
     "-(u*rho[x] + v*rho[y] + w*rho[z]) - rho*(u[x] + v[y] + w[z])"),
    ("u", "u[t]", "-(u*u[x] + v*u[y] + w*u[z]) - p[x]/rho"),
    ("v", "v[t]", "-(u*v[x] + v*v[y] + w*v[z]) - p[y]/rho"),
    ("w", "w[t]", "-(u*w[x] + v*w[y] + w*w[z]) - p[z]/rho"),
    ("p", "p[t]",
     "-(u*p[x] + v*p[y] + w*p[z]) - 5/3*p*(u[x] + v[y] + w[z])"),
)

_E = "3*p + rho*(u^2 + v^2 + w^2)"
_D1 = f"t*({_E}) - rho*(u*x + v*y + w*z)"
_D2 = (f"t^2*({_E}) - 2*t*rho*(u*x + v*y + w*z) + "
       f"rho*(x^2 + y^2 + z^2)")
GAS3D_LAWS = {
    "angular-x": ("-rho*(w*y - v*z)", "-u*rho*(w*y - v*z)",
                  "-v*rho*(w*y - v*z) + p*z", "-w*rho*(w*y - v*z) - p*y"),
    "angular-y": ("-rho*(w*x - u*z)", "-u*rho*(w*x - u*z) + p*z",
                  "-v*rho*(w*x - u*z)", "-w*rho*(w*x - u*z) - p*x"),
    "angular-z": ("-rho*(u*y - v*x)", "-u*rho*(u*y - v*x) - p*y",
                  "-v*rho*(u*y - v*x) + p*x", "-w*rho*(u*y - v*x)"),
    "energy": (_E, f"u*({_E}) + 2*p*u", f"v*({_E}) + 2*p*v",
               f"w*({_E}) + 2*p*w"),
    "dilation-1": (_D1, f"u*({_D1}) + p*(2*t*u - x)",
                   f"v*({_D1}) + p*(2*t*v - y)",
                   f"w*({_D1}) + p*(2*t*w - z)"),
    "dilation-2": (_D2, f"u*({_D2}) + p*(2*t^2*u - 2*t*x)",
                   f"v*({_D2}) + p*(2*t^2*v - 2*t*y)",
                   f"w*({_D2}) + p*(2*t^2*w - 2*t*z)"),
    "center-x": ("rho*(t*u - x)", "u*rho*(t*u - x) + p*t",
                 "v*rho*(t*u - x)", "w*rho*(t*u - x)"),
    "center-y": ("rho*(t*v - y)", "u*rho*(t*v - y)",
                 "v*rho*(t*v - y) + p*t", "w*rho*(t*v - y)"),
    "center-z": ("rho*(t*w - z)", "u*rho*(t*w - z)", "v*rho*(t*w - z)",
                 "w*rho*(t*w - z) + p*t"),
    "momentum-x": ("rho*u", "rho*u^2 + p", "rho*u*v", "rho*u*w"),
    "momentum-y": ("rho*v", "rho*u*v", "rho*v^2 + p", "rho*v*w"),
    "momentum-z": ("rho*w", "rho*u*w", "rho*v*w", "rho*w^2 + p"),
    "mass": ("rho", "rho*u", "rho*v", "rho*w"),
    "entropy": ("p*rho^(-2/3)", "u*p*rho^(-2/3)", "v*p*rho^(-2/3)",
                "w*p*rho^(-2/3)"),
}

_FIELDS = tuple(name for name, _, _ in GAS3D_EQUATIONS)
_JETS = tuple(f"{f}[{d}]" for f in _FIELDS for d in ("x", "y", "z"))

# Each verify-seeded sweep checks two files that split the 14 laws: the
# first holds only positive candidates, the second NEGATIVES of its seven.
VERIFY_FILES = 2
NEGATIVES = 3


def _jet_polynomial(rng):
    """c*f*j: a field f times a first space derivative j.  One fixed shape
    keeps the cost of a candidate close to its mean."""
    c = rng.choice((-3, -2, -1, 1, 2, 3))
    return f"{c}*{rng.choice(_FIELDS)}*{rng.choice(_JETS)}"


def _candidate(rng, law, negative):
    """The law plus, for each equation F_a = lead_a - rhs_a, a term q*F_a in
    component a mod n: D_i(q*F_a) vanishes on solutions, so the candidate
    is conserved.  A negative one also adds c*f^2 (c != 0) to the density;
    D_t(f^2) = 2*f*rhs_f does not vanish on solutions."""
    comps = list(GAS3D_LAWS[law])
    for a, (_, lead, rhs) in enumerate(GAS3D_EQUATIONS):
        i = a % len(comps)
        comps[i] = f"{comps[i]} + ({_jet_polynomial(rng)})*({lead} - ({rhs}))"
    if negative:
        c = rng.choice((-2, -1, 1, 2, 3))
        sign = "-" if c < 0 else "+"
        comps[0] = f"{comps[0]} {sign} {abs(c)}*{rng.choice(_FIELDS)}^2"
    return comps


def verify_files(rng):
    """The laws files of one verify-seeded sweep, as (text, expected) pairs;
    `expected` maps each candidate name to its verdict by construction."""
    names = list(GAS3D_LAWS)
    rng.shuffle(names)
    per_file = len(names) // VERIFY_FILES
    out = []
    for k in range(VERIFY_FILES):
        chunk = names[k * per_file:(k + 1) * per_file]
        negatives = set(rng.sample(chunk, NEGATIVES)) if k else set()
        lines, expected = ["[laws]"], {}
        for law in chunk:
            name = f"{law}-{'neg' if law in negatives else 'pos'}"
            comps = _candidate(rng, law, law in negatives)
            lines.append(f"{name}: {' | '.join(comps)}")
            expected[name] = law not in negatives
        out.append(("\n".join(lines) + "\n", expected))
    return out


def check_verify_output(stdout, rc, expected):
    """True when a `verify --json` report gives every candidate the verdict
    its construction fixes, and the exit code follows from them."""
    try:
        report = json.loads(stdout)
        verdicts = {law["name"]: law["verified"] for law in report["laws"]}
    except (ValueError, KeyError, TypeError):
        return False
    return verdicts == expected and rc == (0 if all(expected.values()) else 1)


def check_paper_counts(job, stdout):
    want = PAPER_COUNTS.get(job)
    if want is None:
        return True
    try:
        report = json.loads(stdout)
        got = {"solution_dimension": report["solution_dimension"],
               "laws": len(report["laws"]),
               "trivial_count": report["trivial_count"]}
    except (ValueError, KeyError, TypeError):
        return False
    return got == want
