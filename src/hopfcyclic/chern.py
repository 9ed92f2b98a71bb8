"""Hopf cyclic Chern cocycles and the gl_n-coinvariant cochain basis.

For each partition lambda of p (1 <= p <= n), realized as the product of
cycles (1..lambda_1)(lambda_1+1..)..., the cochain

  C_{p,lambda} = sum_{mu in S_n, j's} sign(mu)
      antisym( e^{j_1}[mu(1), j_{lambda(1)}] (x) ... (x) e^{j_p}[mu(p), j_{lambda(p)}] )
      (x) X_{mu(p+1)} ^ ... ^ X_{mu(n)}

lives on the n-th skew diagonal of the relative bicomplex (weight n, bidegree
(p, n-p)).  The p = 0 slot is carried by the fundamental class
1 (x) X_1 ^ ... ^ X_n.  theta(sigma, pi) is the invariant spanning set of a
coinvariant spot: weight-one eta's paired by sigma, grouped into tensor
factors by an ordered projection pi.
"""

from __future__ import annotations

from itertools import permutations, product as iproduct

from .bicomplex import Engine, engine, total_blocks
from .errors import InfeasibleCut
from .linalg import SparseMatrix, rank
from .symbols import LinComb, madd, perm_sign, wedge_normalize


def partitions(p: int):
    """All partitions of p as weakly decreasing tuples, deterministic order."""
    if p == 0:
        return [()]
    out = []

    def rec(rem, maxpart, prefix):
        if rem == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(rem, maxpart), 0, -1):
            rec(rem - part, part, prefix + [part])

    rec(p, p, [])
    return out


conjugacy_classes = partitions


def cycle_permutation(lam: tuple) -> tuple:
    """Canonical permutation of {1..p} with cycle type lam: (1..l1)(l1+1..)..."""
    p = sum(lam)
    perm = list(range(1, p + 1))
    start = 0
    for part in lam:
        for i in range(part):
            perm[start + i] = start + 1 + ((i + 1) % part)
        start += part
    return tuple(perm)


def _antisym_fword(etas: tuple) -> LinComb:
    """Signed sum over orderings of the eta factors (full antisymmetrization,
    no 1/p! normalization), keys are F-tensor words."""
    acc: dict = {}
    for perm in permutations(range(len(etas))):
        madd(acc, tuple((etas[i],) for i in perm), perm_sign(perm))
    return LinComb.from_dict(acc)


def _paired_etas(n: int, m: int, sigma):
    """The terms both C_{p,sigma} and theta(sigma, pi) sum over: for mu in S_n
    and j_1..j_m in 1..n, yield the m weight-one eta's e^{j_a}[mu(a), j_{sigma(a)}],
    the normalized wedge X_{mu(m+1)} ^ ... ^ X_{mu(n)} and sign(mu) times its
    normalization sign."""
    for mu in permutations(range(1, n + 1)):
        smu = perm_sign(mu)
        wn = wedge_normalize(tuple(("X", mu[a]) for a in range(m, n)))
        if wn.is_zero():
            continue
        ((wkey, wsign),) = wn.terms.items()
        for js in iproduct(range(1, n + 1), repeat=m):
            yield (tuple((js[a], tuple(sorted((mu[a], js[sigma[a] - 1]))), ()) for a in range(m)),
                   wkey, smu * wsign)


def build_C(n: int, p: int, sigma, eng: Engine | None = None) -> LinComb:
    """The Chern cochain C_{p,sigma} as a LinComb over (fword, wedge) words.

    sigma is a permutation of {1..p} as a tuple (or a partition, which is
    realized canonically as a product of cycles).  p = 0 gives the
    fundamental class 1 (x) X_1 ^ ... ^ X_n.
    """
    if eng is None:
        eng = engine(n, n, "relative")
    if p == 0:
        wedge = tuple(("X", k) for k in range(1, n + 1))
        return LinComb.unit(((), wedge))
    if not 1 <= p <= n:
        raise InfeasibleCut(f"need 1 <= p <= n, got p={p}, n={n}")
    if isinstance(sigma, tuple) and sorted(sigma, reverse=True) == list(sigma) and sum(sigma) == p:
        sigma = cycle_permutation(sigma)
    acc: dict = {}
    for etas, wkey, sign in _paired_etas(n, p, sigma):
        for fword, fsign in _antisym_fword(etas).terms.items():
            madd(acc, (fword, wkey), sign * fsign)
    return LinComb.from_dict(acc)


def ordered_projections(m: int, parts: int):
    """Ways to split (1..m) into `parts` consecutive nonempty groups."""
    if parts == 0:
        return [()] if m == 0 else []
    from itertools import combinations

    out = []
    for cuts in combinations(range(1, m), parts - 1):
        bounds = (0,) + cuts + (m,)
        out.append(tuple((bounds[i], bounds[i + 1]) for i in range(parts)))
    return out


def theta(n: int, sigma: tuple, pi: tuple, q: int) -> LinComb:
    """theta(sigma, pi): n-q weight-one eta's paired by sigma, grouped into
    tensor factors by the ordered projection pi; wedge of the remaining X's."""
    acc: dict = {}
    for etas, wkey, sign in _paired_etas(n, n - q, sigma):
        madd(acc, (tuple(tuple(sorted(etas[lo:hi])) for lo, hi in pi), wkey), sign)
    return LinComb.from_dict(acc)


def theta_basis(n: int, p: int, q: int):
    """Spanning set of the coinvariant spot (p, q) at weight n."""
    m = n - q
    out = []
    for sigma in permutations(range(1, m + 1)):
        for pi in ordered_projections(m, p):
            t = theta(n, sigma, pi, q)
            if not t.is_zero():
                out.append(((sigma, pi), t))
    return out


def theta_span_report(n: int, p_max: int, q_max: int) -> dict:
    """theta(sigma,pi) span == brute-force coinvariant space, and each theta
    is literally h-invariant (killed by every Y_i^j relation operator)."""
    eng = engine(n, n, "relative")
    blocks = []
    passed = True
    for p in range(0, p_max + 1):
        for q in range(0, q_max + 1):
            if p + q == 0 or n - q < p or n - q < 0:
                continue
            basis = eng.spot_basis(p, q, n)
            if not basis:
                continue
            quot = eng.quotient(p, q, n)
            thetas = theta_basis(n, p, q)
            vecs = [eng.coordinates(t.terms, p, q, n) for _, t in thetas]
            # h-invariance: each relation operator kills theta exactly
            invariant = True
            for _, t in thetas:
                for ysym in eng.y_syms:
                    img: dict = {}
                    for word, c in t.terms.items():
                        for k, v in eng.gl_relation(word, ysym).items():
                            madd(img, k, c * v)
                    if img:
                        invariant = False
            proj = [quot.project(v) for v in vecs]
            span_rank = rank(SparseMatrix.from_columns(quot.quotient_dim, proj))
            ok = invariant and span_rank == quot.quotient_dim
            passed = passed and ok
            blocks.append({
                "p": p, "q": q, "weight": n,
                "coinvariant_dim": quot.quotient_dim,
                "theta_count": len(thetas),
                "theta_span_rank": span_rank,
                "h_invariant": invariant,
                "passed": ok,
            })
    return {"schema": 1, "n": n, "p_max": p_max, "q_max": q_max,
            "blocks": blocks, "passed": passed}


def sign_invariance_report(p_max: int = 3) -> dict:
    """C_{p,sigma} = +- C_{p,tau} for sigma, tau in one conjugacy class.

    Compared directly as word combinations (no spot enumeration) so the
    p = 3 case at n = 3 stays cheap.
    """
    checks = []
    passed = True
    for p in range(1, p_max + 1):
        n = p  # smallest ambient dimension hosting p eta-factors
        eng = engine(n, n, "relative")
        by_class: dict = {}
        for sigma in permutations(range(1, p + 1)):
            by_class.setdefault(_cycle_type(sigma), []).append(sigma)
        for lam, sigmas in sorted(by_class.items()):
            ref = build_C(n, p, sigmas[0], eng)
            for sigma in sigmas[1:]:
                other = build_C(n, p, sigma, eng)
                if other == ref:
                    sign = "1"
                elif other == ref.scale(-1):
                    sign = "-1"
                else:
                    sign = None
                ok = sign is not None and not ref.is_zero()
                passed = passed and ok
                checks.append({"p": p, "class": list(lam), "sigma": list(sigma),
                               "sign": sign, "passed": ok})
    return {"schema": 1, "p_max": p_max, "checks": checks, "passed": passed}


def _cycle_type(sigma: tuple) -> tuple:
    p = len(sigma)
    seen = [False] * p
    lengths = []
    for i in range(p):
        if seen[i]:
            continue
        ln, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = sigma[j] - 1
            ln += 1
        lengths.append(ln)
    return tuple(sorted(lengths, reverse=True))


def verify_relative_classes(n: int, jet_order: int | None = None) -> dict:
    """Certify the relative Chern cocycle basis.

    Each C[p;lambda] must be closed under both differentials and nonzero in
    the coinvariant space; the set is linearly independent with cardinality
    p(0)+...+p(n), and the total-complex cohomology of the opposite parity
    vanishes on the explored (weight n) blocks."""
    eng = engine(n, n, "relative", jet_order)
    classes = [("C[0;()]", 0, ())]
    for p in range(1, n + 1):
        for lam in partitions(p):
            classes.append((f"C[{p};{','.join(map(str, lam)) or '()'}]", p, lam))
    expected = sum(len(partitions(p)) for p in range(0, n + 1))
    results = []
    vectors = []
    all_ok = True
    for label, p, lam in classes:
        q = n - p
        c = build_C(n, p, lam if p else None, eng)
        # cocycle under both differentials, computed in the full space then
        # projected to coinvariants
        beta_zero = _image_projects_to_zero(eng, "b", c, p, q, n)
        del_zero = _image_projects_to_zero(eng, "B", c, p, q, n)
        proj = eng.quotient(p, q, n).project(eng.coordinates(c.terms, p, q, n))
        nonzero = bool(proj)
        ok = beta_zero and del_zero and nonzero
        all_ok = all_ok and ok
        vectors.append((label, p, q, proj))
        results.append({"label": label, "p": p, "q": q, "weight": n,
                        "beta_closed": beta_zero, "del_closed": del_zero,
                        "nonzero_in_coinvariants": nonzero, "passed": ok})
    # linear independence across the skew diagonal (block by (p,q))
    by_spot: dict = {}
    for label, p, q, proj in vectors:
        by_spot.setdefault((p, q), []).append(proj)
    independent = True
    for (p, q), vecs in by_spot.items():
        if rank(SparseMatrix.from_columns(eng.quotient(p, q, n).quotient_dim, vecs)) != len(vecs):
            independent = False
    # wrong parity: total-complex cohomology vanishes off the parity of n
    parity_dims = {m: 0 for m in range(0, n + 1)}
    for m, _, dim, _ in total_blocks(eng, range(0, n + 1), (n,)):
        parity_dims[m] = dim
    wrong_parity_zero = all(
        parity_dims[m] == 0 for m in range(0, n + 1) if m % 2 != n % 2
    )
    main_dim = parity_dims.get(n, 0)
    count_ok = len(classes) == expected and main_dim == expected
    passed = all_ok and independent and wrong_parity_zero and count_ok
    return {
        "schema": 1,
        "n": n,
        "jet_cut": eng.J,
        "expected_count": expected,
        "classes": results,
        "independent": independent,
        "cohomology_dims_weight_n": {str(m): d for m, d in sorted(parity_dims.items())},
        "wrong_parity_zero": wrong_parity_zero,
        "count_matches": count_ok,
        "passed": passed,
    }


def _image_projects_to_zero(eng: Engine, op: str, c: LinComb, p: int, q: int, w: int) -> bool:
    """Whether b or B (op) of the cochain c on spot (p, q, w) is zero in the
    coinvariants of the target spot."""
    vec: dict = {}
    for col, coeff in zip(eng.spot_map(op, p, q, w, list(c.terms)), c.terms.values()):
        for r, v in col.items():
            madd(vec, r, coeff * v)
    return not vec or not eng.quotient(*eng.target(op, p, q), w).project(vec)
