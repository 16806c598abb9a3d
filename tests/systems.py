"""Constructions of the benchmark polynomial systems used across the tests."""

from itertools import combinations, permutations

from basisdetect import Polynomial, homogenize_with_t, ring


def two_cone_example():
    R = ring("x", "y")
    x, y = R.variable("x"), R.variable("y")
    return [x**2 + y**2, x * y, y**2]


def unit_circle_pair():
    R = ring("x", "y")
    x, y = R.variable("x"), R.variable("y")
    return [x**2 + y**2 - R.constant(1), R.constant(2) * x * y - R.constant(1)]


def sagbi_trio():
    R = ring("x", "y")
    x, y = R.variable("x"), R.variable("y")
    return [x, x * y - y**2, x**2 * y]


def non_sagbi_trio():
    R = ring("x", "y")
    x, y = R.variable("x"), R.variable("y")
    return [x + y, x * y, x * y**2]


def twisted_cubic():
    R = ring("x", "y", "z", "w")
    x, y, z, w = (R.variable(v) for v in "xyzw")
    return [x * z - y**2, x * w - y * z, y * w - z**2]


def three_surfaces():
    R = ring("x", "y", "z")
    x, y, z = (R.variable(v) for v in "xyz")
    one = R.constant(1)
    return [
        x**5 + y**3 + z**2 - one,
        x**2 + y**2 + z - one,
        x**6 + y**5 + z**3 - one,
    ]


def elementary_symmetric():
    R = ring("x", "y", "z")
    x, y, z = (R.variable(v) for v in "xyz")
    return [x + y + z, x * y + x * z + y * z, x * y * z]


def gaussian_ci():
    R = ring("s12", "s13", "s22", "s23")
    s12, s13, s22, s23 = (R.variable(v) for v in R.variables)
    return [s13, s12 * s23 - s22 * s13]


def _pluecker_minors(n):
    """The 2x2 minors of a generic 2 x n matrix, columns i < j in order."""
    names = ["x1%d" % j for j in range(1, n + 1)] + [
        "x2%d" % j for j in range(1, n + 1)
    ]
    R = ring(*names)
    minors = []
    for i, j in combinations(range(1, n + 1), 2):
        minors.append(
            R.variable("x1%d" % i) * R.variable("x2%d" % j)
            - R.variable("x1%d" % j) * R.variable("x2%d" % i)
        )
    return minors


def grassmannian_2_4():
    return _pluecker_minors(4)


def grassmannian_2_5():
    """The 10 Pluecker minors of a generic 2x5 matrix (Gr(2,5))."""
    return _pluecker_minors(5)


def minors_2x2_of_3x3():
    names = ["t%d%d" % (i, j) for i in range(1, 4) for j in range(1, 4)]
    R = ring(*names)

    def v(i, j):
        return R.variable("t%d%d" % (i, j))

    minors = []
    for i, k in combinations(range(1, 4), 2):
        for j, l in combinations(range(1, 4), 2):
            minors.append(v(i, j) * v(k, l) - v(i, l) * v(k, j))
    return minors


def principal_minors_symmetric_3x3():
    """The 8 principal minors (including the empty one) of [[a11,a12,a13],
    [a12,a22,a23],[a13,a23,a33]]."""
    R = ring("a11", "a12", "a13", "a22", "a23", "a33")
    a11, a12, a13, a22, a23, a33 = (R.variable(n) for n in R.variables)
    det = (
        a11 * a22 * a33
        + R.constant(2) * a12 * a13 * a23
        - a11 * a23**2
        - a22 * a13**2
        - a33 * a12**2
    )
    return [
        R.constant(1),
        a11,
        a22,
        a33,
        a11 * a22 - a12**2,
        a11 * a33 - a13**2,
        a22 * a33 - a23**2,
        det,
    ]


def principal_minors_homogenized():
    return homogenize_with_t(principal_minors_symmetric_3x3())


def truncation_variety_generators():
    """The 20-polynomial parametrization of the truncation variety."""
    R = ring(*["z%d" % i for i in range(1, 11)])
    z = {i: R.variable("z%d" % i) for i in range(1, 11)}
    out = [R.constant(1)] + [z[i] for i in range(1, 10)]
    out += [
        z[1] * z[5] - z[2] * z[4],
        z[1] * z[6] - z[3] * z[4],
        z[2] * z[6] - z[3] * z[5],
        z[1] * z[8] - z[2] * z[7],
        z[1] * z[9] - z[3] * z[7],
        z[2] * z[9] - z[3] * z[8],
        z[4] * z[8] - z[5] * z[7],
        z[4] * z[9] - z[6] * z[7],
        z[5] * z[9] - z[6] * z[8],
    ]
    out.append(
        z[10]
        + z[1] * (z[5] * z[9] - z[6] * z[8])
        - z[2] * (z[4] * z[9] - z[6] * z[7])
        + z[3] * (z[4] * z[8] - z[5] * z[7])
    )
    return out


def truncation_variety_homogenized():
    return homogenize_with_t(truncation_variety_generators())


def sullivant_talaska_c4():
    """Determinants of the four circular-interval 3x3 submatrices of a
    symmetric 4x4 matrix: rows [a,b], columns [b,a] for the interval pairs
    (1,3), (2,4), (3,1), (4,2)."""
    names = ["s%d%d" % (i, j) for i in range(1, 5) for j in range(i, 5)]
    R = ring(*names)

    def sigma(i, j):
        return R.variable("s%d%d" % (min(i, j), max(i, j)))

    def interval(a, b):
        out = [a]
        while out[-1] != b:
            out.append(out[-1] % 4 + 1)
        return out

    def det3(rows, cols):
        total = R.constant(0)
        for perm in permutations(range(3)):
            sign = 1
            for a in range(3):
                for b in range(a + 1, 3):
                    if perm[a] > perm[b]:
                        sign = -sign
            term = R.constant(sign)
            for a in range(3):
                term = term * sigma(rows[a], cols[perm[a]])
            total = total + term
        return total

    return [
        det3(interval(a, b), interval(b, a))
        for a, b in [(1, 3), (2, 4), (3, 1), (4, 2)]
    ]


def system_file_text(polys: list[Polynomial]) -> str:
    """Render polynomials as a CLI system file (repr emits the grammar)."""
    ring_line = "ring: " + ", ".join(polys[0].ring.variables)
    return ring_line + "\npolys:\n" + "\n".join(repr(f) for f in polys) + "\n"
