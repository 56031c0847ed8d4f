"""Quadrature-free reference values of Q(0, y, z) for the benchmark's checks.

Expanding exp(i(y t^2/2 + z t)) in powers and integrating term by term over
the two decay rays of exp(i t^5/5) turns Q into a double power series whose
coefficients are gamma functions:

    Q(0, y, z) = sum_{a,b} (i y/2)^a / a! * (i z)^b / b! * M_{2a+b},
    M_n = (e^{i(n+1)pi/10} - e^{i(n+1)9pi/10}) * 5^{(n-4)/5} * Gamma((n+1)/5).

The series is entire, so it converges for every (y, z); its terms first grow
to about exp(0.8 |z|^(5/4)) before they decay, so it is summed in mpmath
with enough digits to absorb that cancellation.
"""

from __future__ import annotations

# Domain of the series table: every point the benchmark checks.
SERIES_MAX_ABS_Z = 26.0
SERIES_MAX_ABS_Y = 1.5
# Working digits: the largest intermediate term (about 10^18 at |z| = 25)
# plus the digits wanted in the result.
REFERENCE_DPS = 60


class SeriesReference:
    """Q(0, y, z) from the double series in mpmath arithmetic.

    At ``REFERENCE_DPS`` digits, summing at 95 moves no value in the domain
    by more than 1e-39, far under the tolerances the benchmark checks, and
    mpmath quadrature on the contour agrees to double precision.  Terms are
    dropped once they fall below 10^-(dps - 5) times the largest term.
    """

    def __init__(self):
        import mpmath

        self._mp = mpmath
        # enough moments for the z tail of the series at SERIES_MAX_ABS_Z plus the y part
        self._n_terms = int(12 * SERIES_MAX_ABS_Z ** 1.25) + 200
        with mpmath.workdps(REFERENCE_DPS):
            pi = mpmath.pi
            # |M_n| <= 2 * 5^{(n-4)/5} Gamma((n+1)/5); the bound never vanishes,
            # unlike M_n itself at n = 4, 9, 14, ..., so truncation tests use it
            self._moment_bounds = [
                2 * mpmath.power(5, mpmath.mpf(n - 4) / 5) * mpmath.gamma(mpmath.mpf(n + 1) / 5)
                for n in range(self._n_terms)
            ]
            self._moments = [
                (mpmath.expj((n + 1) * pi / 10) - mpmath.expj((n + 1) * 9 * pi / 10))
                * bound / 2 for n, bound in enumerate(self._moment_bounds)
            ]
            self._cutoff = mpmath.mpf(10) ** (-(REFERENCE_DPS - 5))

    def q(self, y: float, z: float) -> complex:
        """Q(0, y, z) rounded to a Python complex."""
        mp = self._mp
        if abs(z) > SERIES_MAX_ABS_Z or abs(y) > SERIES_MAX_ABS_Y:
            raise ValueError(f"reference not set up for (y, z) = ({y}, {z})")
        with mp.workdps(REFERENCE_DPS):
            moments = self._moments
            n_terms = self._n_terms
            iz = mp.mpc(0, z)
            z_pow = [mp.mpc(1)]
            peak = mp.mpf(1)
            for b in range(1, n_terms):
                term = z_pow[-1] * iz / b
                z_pow.append(term)
                mag = abs(term) * self._moment_bounds[b]
                peak = max(peak, mag)
                if b > 8 and mag < self._cutoff * peak:
                    break
            n_z = len(z_pow)
            total = mp.mpc(0)
            y_pow = mp.mpc(1)
            iy2 = mp.mpc(0, y / 2.0)
            a = 0
            while y_pow != 0 and 2 * a + n_z <= n_terms:
                part = y_pow * mp.fdot(z_pow, moments[2 * a:2 * a + n_z])
                total += part
                if a > 2 and abs(part) < self._cutoff * peak:
                    break
                a += 1
                y_pow = y_pow * iy2 / a
            else:
                if y_pow != 0:
                    raise ValueError(f"series table too short for (y, z) = ({y}, {z})")
            return complex(total)
