"""Workload names, sizes and items, shared by the parent and the child.

Nothing here imports weaklg, so the parent can plan and check runs without
loading the library it measures.
"""

WORKLOADS = ("verify-corpus", "operator-search", "polytope-geometry", "model-construction")

VERIFY_TERMS = 12
PFOP_TERMS = 40
PFOP_ENTRIES = (15, 16, 17)
EHRHART_KMAX = 6
ALTERNATE_ITEM = 18  # polytope-geometry: entry 11's alternate polynomial
MODEL_ROUNDS = 8
POWER_EXPONENT = 14
IDENTITY_TRIALS = 20

# Recorded with every run, so results are read against them.
PARAMETERS = {
    "verify-corpus": {"entries": "1..17", "terms": VERIFY_TERMS},
    "operator-search": {"entries": list(PFOP_ENTRIES), "terms": PFOP_TERMS, "sweep": "default"},
    "polytope-geometry": {"polynomials": "17 main + entry 11 alternate", "kmax": EHRHART_KMAX},
    "model-construction": {"rounds": MODEL_ROUNDS, "power": f"(x+y+z+1)^{POWER_EXPONENT}",
                           "identity_trials": IDENTITY_TRIALS},
}


def items(workload: str) -> list[int]:
    """Item ids of one pass: entry ids, polynomial numbers or round numbers."""
    if workload == "verify-corpus":
        return list(range(1, 18))
    if workload == "operator-search":
        return list(PFOP_ENTRIES)
    if workload == "polytope-geometry":
        return list(range(1, ALTERNATE_ITEM + 1))
    if workload == "model-construction":
        return list(range(1, MODEL_ROUNDS + 1))
    raise ValueError(f"unknown workload {workload!r}")
