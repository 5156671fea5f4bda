"""Regenerate the bundled rate-3/4 parity-check code asset.

n = 1992 is divisible by 4, 6, 8, and 12 coded bits per symbol, so whole
codewords map onto whole symbols for every supported constellation except
M = 1024. Variable degree 3 with 498 checks gives a regular (3, 12) graph.
The seed is scanned until the parity-check matrix has full rank, so the
systematic encoder exists.

The graph is built by progressive edge growth (Hu, Eleftheriou and Arnold,
"Regular and irregular progressive edge-growth Tanner graphs", IEEE Trans.
IT 2005). For each variable node, edges are placed one at a time on the
check node that is farthest from the variable in the current bipartite
graph (or unreachable from it), breaking ties by lowest check degree. This
keeps local girth large, which is what makes short sum-product codes usable.

Run from the repository root:  python tools/generate_bundled_code.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from qcilink.coding import BUNDLED_CODE_NAME, ParityCheckCode  # noqa: E402

N, CHECKS, DV = 1992, 498, 3
DEST = Path(__file__).resolve().parents[1] / "src" / "qcilink" / "codes" / BUNDLED_CODE_NAME


def build_peg_code(n: int, num_checks: int, var_degree: int, seed: int = 0) -> ParityCheckCode:
    """Construct an (n, n - num_checks) code with uniform variable degree.

    The seed only randomizes tie-breaking among equally good candidate
    checks; construction is deterministic given (n, num_checks,
    var_degree, seed).
    """
    if var_degree < 2:
        raise ValueError("variable degree must be >= 2")
    if not 0 < num_checks < n:
        raise ValueError("need 0 < num_checks < n")
    rng = np.random.default_rng(seed)
    tie_rank = rng.permutation(num_checks)
    check_deg = np.zeros(num_checks, dtype=np.int64)
    var_adj: list[list[int]] = [[] for _ in range(n)]
    check_adj: list[list[int]] = [[] for _ in range(num_checks)]

    def best(candidates) -> int:
        return min(candidates, key=lambda c: (check_deg[c], tie_rank[c]))

    for v in range(n):
        for t in range(var_degree):
            if t == 0:
                c = best(range(num_checks))
            else:
                reached = _bfs_check_set(v, var_adj, check_adj)
                unreached = [c for c in range(num_checks) if c not in reached]
                if unreached:
                    c = best(unreached)
                else:
                    # graph already connected: take the deepest BFS tier
                    depth = _bfs_check_depth(v, var_adj, check_adj, num_checks)
                    attached = set(var_adj[v])
                    dmax = max(depth[c] for c in range(num_checks) if c not in attached)
                    c = best([c for c in range(num_checks) if depth[c] == dmax and c not in attached])
            var_adj[v].append(c)
            check_adj[c].append(v)
            check_deg[c] += 1

    return ParityCheckCode(n, check_adj, name=f"peg_dv{var_degree}_n{n}")


def _bfs_check_set(v: int, var_adj, check_adj) -> set:
    """All check nodes reachable from variable v in the current graph."""
    seen_v = {v}
    seen_c = set(var_adj[v])
    frontier = set(var_adj[v])
    while frontier:
        next_vars = {u for c in frontier for u in check_adj[c] if u not in seen_v}
        seen_v |= next_vars
        frontier = {c for u in next_vars for c in var_adj[u] if c not in seen_c}
        seen_c |= frontier
    return seen_c


def _bfs_check_depth(v: int, var_adj, check_adj, num_checks: int) -> np.ndarray:
    """BFS tier of every check node as seen from variable v."""
    depth = np.full(num_checks, -1, dtype=np.int64)
    seen_v = {v}
    frontier = set(var_adj[v])
    tier = 0
    for c in frontier:
        depth[c] = 0
    while frontier:
        next_vars = {u for c in frontier for u in check_adj[c] if u not in seen_v}
        seen_v |= next_vars
        tier += 1
        frontier = {c for u in next_vars for c in var_adj[u] if depth[c] < 0}
        for c in frontier:
            depth[c] = tier
    return depth


def save_alist(code: ParityCheckCode, path) -> None:
    """Write the standard alist representation (zero-padded rows)."""
    var_lists = [[] for _ in range(code.n)]
    for c, vs in enumerate(code.check_lists):
        for v in vs:
            var_lists[int(v)].append(c)
    max_dv = int(np.max(code.var_deg))
    max_dc = int(np.max(code.check_deg))
    lines = [
        f"{code.n} {code.num_checks}",
        f"{max_dv} {max_dc}",
        " ".join(str(int(d)) for d in code.var_deg),
        " ".join(str(int(d)) for d in code.check_deg),
    ]
    for cs in var_lists:
        row = [str(c + 1) for c in cs] + ["0"] * (max_dv - len(cs))
        lines.append(" ".join(row))
    for vs in code.check_lists:
        row = [str(int(v) + 1) for v in vs] + ["0"] * (max_dc - len(vs))
        lines.append(" ".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def main() -> None:
    for seed in range(16):
        t0 = time.time()
        try:
            # building the code derives its systematic encoder, which a rank-deficient matrix lacks
            code = build_peg_code(N, CHECKS, DV, seed=seed)
        except ValueError:
            print(f"seed {seed}: rank deficient ({time.time() - t0:.1f}s)")
            continue
        print(f"seed {seed}: full rank {CHECKS}/{CHECKS} ({time.time() - t0:.1f}s)")
        save_alist(code, DEST)
        print(f"wrote {DEST} (n={code.n}, k={code.k}, rate={code.rate:.3f})")
        return
    raise SystemExit("no full-rank construction found in 16 seeds")


if __name__ == "__main__":
    main()
