"""``verify_certificate`` as it stood before its integer rewrite.

Oracle for ``lposd.patterns.verify_certificate``: the production check
scales every value to an integer numerator over one common denominator and
must return the same report as this ``Fraction`` version, with the same
``ok``, the same violation strings in the same order and an equal
``objective``.  Kept verbatim; do not tune it.
"""

from fractions import Fraction

from lposd.patterns import CertificateReport


def reference_verify_certificate(code, pattern) -> CertificateReport:
    cert = pattern.certificate
    tan = code.tanner
    syndrome = pattern.syndrome
    violations: list[str] = []

    for i, val in cert.x.items():
        if not 0 <= i < code.n:
            violations.append(f"x[{i}]: qubit index out of range")
        if not 0 <= val <= 1:
            violations.append(f"x[{i}] = {val} outside [0, 1]")

    per_check: dict[int, Fraction] = {}
    for (j, subset), val in cert.w.items():
        if not 0 <= j < code.hx.n_rows:
            violations.append(f"w[{j}, {subset}]: check index out of range")
            continue
        support = set(tan.x_supports[j])
        if tuple(sorted(subset)) != tuple(subset) or not set(subset) <= support:
            violations.append(
                f"w[{j}, {subset}]: not a sorted subset of the check support"
            )
            continue
        if len(subset) % 2 != int(syndrome[j]):
            violations.append(
                f"w[{j}, {subset}]: subset parity {len(subset) % 2} does not "
                f"match syndrome bit {int(syndrome[j])}"
            )
        if val < 0:
            violations.append(f"w[{j}, {subset}] = {val} is negative")
        per_check[j] = per_check.get(j, Fraction(0)) + val

    for j in range(code.hx.n_rows):
        total = per_check.get(j, Fraction(0))
        if total != 1:
            violations.append(f"check {j}: subset weights sum to {total}, not 1")

    edge_sums: dict[tuple[int, int], Fraction] = {}
    for (j, subset), val in cert.w.items():
        for i in subset:
            key = (int(i), j)
            edge_sums[key] = edge_sums.get(key, Fraction(0)) + val
    for q, j in tan.x_edges:
        got = edge_sums.get((q, j), Fraction(0))
        want = cert.x.get(q, Fraction(0))
        if got != want:
            violations.append(
                f"edge (qubit {q}, check {j}): subset weights sum to {got}, "
                f"qubit value is {want}"
            )

    total_x = sum(cert.x.values(), Fraction(0))
    if total_x != cert.objective:
        violations.append(
            f"stored objective {cert.objective} != sum of qubit values {total_x}"
        )
    if total_x != pattern.claimed_objective:
        violations.append(
            f"claimed objective {pattern.claimed_objective} != witnessed {total_x}"
        )
    if pattern.claimed_objective != pattern.weight - 1:
        violations.append(
            f"claimed objective {pattern.claimed_objective} != weight-1 "
            f"= {pattern.weight - 1}"
        )
    return CertificateReport(
        ok=not violations, violations=tuple(violations), objective=total_x
    )
