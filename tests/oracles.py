"""Independent brute-force oracles, written as plain python loops.

These deliberately avoid the package's numpy code so that agreement
with the production implementations is meaningful. `score_var_sorted`
is the one numpy reference: it repeats the scorer's arithmetic query by
query, so that its scores can be compared exactly.
"""

import math

import numpy as np


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def norm(a):
    return math.sqrt(dot(a, a))


def cosine(a, b):
    return dot(a, b) / (norm(a) * norm(b))


def ntxent_pair_oracle(i, j, rows, tau):
    num = math.exp(cosine(rows[i], rows[j]) / tau)
    den = sum(math.exp(cosine(rows[i], rows[k]) / tau)
              for k in range(len(rows)) if k != i)
    return -math.log(num / den)


def self_supervised_oracle(rows, tau):
    n2 = len(rows)
    total = 0.0
    for k in range(n2 // 2):
        total += ntxent_pair_oracle(2 * k, 2 * k + 1, rows, tau)
        total += ntxent_pair_oracle(2 * k + 1, 2 * k, rows, tau)
    return total / n2


def concentration_oracle(members, center, alpha, floor):
    t = len(members)
    total = sum(norm([m - c for m, c in zip(row, center)]) for row in members)
    return max(total / (t * math.log(t + alpha)), floor)


def cluster_center_oracle(rows, centers, assignments, phis):
    total = 0.0
    for i, row in enumerate(rows):
        a = assignments[i]
        num = math.exp(cosine(row, centers[a]) / phis[a])
        den = 0.0
        for j, c in enumerate(centers):
            if j != a:
                den += math.exp(cosine(row, c) / phis[j])
        total += -math.log(num / den)
    return total / len(rows)


def cluster_instance_oracle(rows, assignments, tau):
    n = len(rows)
    terms = []
    for i in range(n):
        positives = [p for p in range(n)
                     if p != i and assignments[p] == assignments[i]]
        if not positives:
            continue
        den = sum(math.exp(cosine(rows[i], rows[a]) / tau)
                  for a in range(n) if a != i)
        inner = sum(math.log(math.exp(cosine(rows[i], rows[p]) / tau) / den)
                    for p in positives)
        terms.append(-inner / len(positives))
    if not terms:
        return 0.0
    return sum(terms) / len(terms)


def assign_oracle(points, centers):
    out = []
    for p in points:
        best, best_sim = 0, -2.0
        for j, c in enumerate(centers):
            s = cosine(p, c)
            if s > best_sim:
                best, best_sim = j, s
        out.append(best)
    return out


def score_cos_oracle(bank, z):
    return max(cosine(row, z) * norm(row) for row in bank)


def score_var_oracle(bank, z, k):
    scored = sorted(((cosine(row, z) * norm(row), idx)
                     for idx, row in enumerate(bank)),
                    key=lambda t: (-t[0], t[1]))
    top = [bank[idx] for _, idx in scored[:k]]
    d = len(top[0])
    mean = [sum(row[c] for row in top) / k for c in range(d)]
    var = sum(sum((row[c] - mean[c]) ** 2 for c in range(d))
              for row in top) / (k - 1)
    denom = max(math.sqrt(var), 1e-8)
    return score_cos_oracle(bank, z) / denom


def score_var_sorted(bank, queries, k):
    """`var` scores, each query's top-K rows taken by a full stable sort."""
    bank = np.asarray(bank, dtype=np.float64)
    scores = []
    for z in np.asarray(queries, dtype=np.float64):
        cand = bank @ (z / np.linalg.norm(z))
        top = np.argsort(-cand, kind="stable")[:k]
        dev = bank[top][None]
        dev = np.square(dev - dev.mean(axis=1, keepdims=True))
        spread = np.sqrt(dev.sum(axis=(1, 2))[0] / (k - 1))
        scores.append(cand.max() / max(spread, 1e-8))
    return np.array(scores)


def auroc_oracle(id_scores, ood_scores):
    wins = 0.0
    for a in id_scores:
        for b in ood_scores:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(id_scores) * len(ood_scores))
