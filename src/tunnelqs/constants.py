"""Physical constants and unit conversions.

Everything in this package is in Hartree atomic units (hbar = m_e = e = 1)
unless a name or docstring says otherwise.
"""

__all__ = [
    "alpha_fs",
    "au_field_vcm",
    "au_intensity_wcm2",
    "au_time_as",
    "c_au",
    "field_to_intensity",
    "intensity_to_field",
]

c_au = 137.035999084            # speed of light in au (1/alpha, CODATA 2018)
alpha_fs = 1.0 / c_au           # fine-structure constant
au_time_as = 24.188843265857    # one au of time in attoseconds
au_field_vcm = 5.14220674763e9  # one au of field strength in V/cm
au_intensity_wcm2 = 3.50944758e16   # cycle-averaged intensity of a 1 au field, W/cm^2


def field_to_intensity(f: float) -> float:
    """Peak intensity in W/cm^2 for a field strength ``f`` in au."""
    return au_intensity_wcm2 * f * f


def intensity_to_field(i_wcm2: float) -> float:
    """Field strength in au for a peak intensity ``i_wcm2`` in W/cm^2."""
    return (i_wcm2 / au_intensity_wcm2) ** 0.5
