"""Exact transformations of packed Pauli sums, and their JSON form.

Coefficients are in Hartree throughout.  A sum is a ``_packed.PackedSum``:
words as (x, z) masks, sorted by key, with real coefficients and no zeros.
This module builds on ``_packed``, which it imports once, and looks its
kernels up on that module at each call.  ``from_json_dict`` rejects at load
a sum over more than ``_packed.MAX_QUBITS`` (64) qubits
(:class:`CapacityError`), a negative qubit count, a qubit count or electron
metadata (``n_electrons``, ``ms2``, where given) that is not a JSON
integer, a negative ``ms2``, an ``n_electrons`` outside 0..n_qubits, an
``ms2`` above it or of the other parity, a coefficient that is not a JSON
number (a JSON bool is neither), a non-finite coefficient and an odd-y word
(an imaginary matrix in a real Hamiltonian); a missing key, a non-list
``terms`` or a non-string word is a ``ValueError`` naming the key.

* ``dress_sequence`` conjugates a sum by exp(-i t T / 2) for each purely
  imaginary word T of an Ansatz, exactly.  A word P anticommuting with T
  keeps cos(t) of its coefficient and spawns i*P*T with a sin(t)-weighted
  real coefficient.  It is tested against the scalar ``reference_dress`` in
  ``tests/helpers.py``.
* ``prune`` drops the terms with |c| below the threshold and reports their
  absolute weight, summed left to right by ``_packed._sum``: an upper bound
  on the spectral-norm perturbation.
* ``to_json_dict`` writes the terms in (weight, x, z) order, rendered from
  the masks; ``from_json_dict`` parses the words to masks and sums
  duplicate words in ``_packed._canonical``.
* ``terms_json`` is the text ``json.dumps(..., indent=2)`` writes for
  ``to_json_dict``'s terms, built in the same order from the same
  ``pauli.render_words`` blob with no per-term dict; ``iqcc transform``
  writes it, so json's pure-Python indenting encoder never walks the terms.

The Ising decomposition that ranking needs (one block per X-string) is
computed on packed arrays by ``_packed.block_statistics``; no per-block sums
are built.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Iterable

import numpy as np

from . import _packed
from .errors import DimensionError, InvalidGeneratorError
from .pauli import PauliWord, parse_masks, render_word, render_words


def dress_sequence(
    p: _packed.PackedSum, gens: Iterable[tuple[PauliWord, float]], max_terms: int | None = None
) -> _packed.PackedSum:
    """Conjugate the packed sum ``p`` by each (generator, amplitude) pair in
    Ansatz order; returns a packed sum, ``p`` itself when every amplitude is 0.

    Conjugation nests outward, so for U = prod_j exp(-i t_j T_j / 2) the
    first pair ends up innermost: the result is U^dagger p U.  A step that
    would hold more than ``max_terms`` rows raises :class:`CapacityError`
    before it allocates them.
    """
    pairs = list(gens)
    for t_gen, t_opt in pairs:
        if p.n_qubits != t_gen.n_qubits:
            raise DimensionError("sum and generator qubit counts differ")
        if t_gen.y_count() % 2 == 0:
            raise InvalidGeneratorError(
                f"generator {render_word(t_gen)} has even y-count (not purely imaginary)"
            )
        if not math.isfinite(t_opt):
            raise ValueError(f"non-finite amplitude {t_opt!r}")
    for t_gen, t_opt in pairs:
        # looked up on the module per call, where the benchmark's tracer patches it
        p = _packed.dress_packed(p, t_gen, t_opt, max_terms)
    return p


def prune(p: _packed.PackedSum, threshold: float) -> tuple[_packed.PackedSum, float]:
    """Drop terms with |coefficient| < threshold; report dropped weight."""
    if not 0 <= threshold < math.inf:  # False for NaN
        raise ValueError("prune threshold must be finite and >= 0")
    if threshold == 0.0:
        return p, 0.0
    mag = abs(p.c)
    keep = mag >= threshold
    # gathered by index: a mask scattered row by row compresses ~4x slower;
    # the weight is summed left to right, unlike np.sum (pairwise): the CSV
    # and the digest hold its last bits
    kept, small = np.flatnonzero(keep), mag[np.flatnonzero(~keep)]
    return replace(p, x=p.x[kept], z=p.z[kept], c=p.c[kept]), _packed._sum(small)


# -- serialization ---------------------------------------------------------


def _sorted_terms(p: _packed.PackedSum) -> tuple[list[str], list[float]]:
    """The rendered words and the coefficients in (weight, x, z) order."""
    order = np.lexsort((p.z, p.x, np.bitwise_count(p.x | p.z)))
    return render_words(p.x[order], p.z[order], p.n_qubits), p.c[order].tolist()


def to_json_dict(p: _packed.PackedSum) -> dict:
    """JSON-ready form, terms in (weight, x, z) order.

    A float's repr round-trips it, so the coefficients keep all their bits.
    """
    words, coeffs = _sorted_terms(p)
    return {
        "n_qubits": p.n_qubits,
        "terms": [{"word": w, "coeff": c} for w, c in zip(words, coeffs)],
    }


# json's spelling of the floats whose repr is not JSON
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def terms_json(p: _packed.PackedSum) -> str:
    """``to_json_dict(p)["terms"]`` as ``json.dumps(..., indent=2)`` writes it
    as a value of the top-level object, byte for byte.

    A word needs no escaping, and a coefficient is written as json writes a
    float.  Every term has the layout

        {
          "word": "X0 Z3",
          "coeff": -0.5
        }

    indented by 4 spaces, so the text is joined from the two columns.
    """
    words, coeffs = _sorted_terms(p)
    if not words:
        return "[]"
    values = list(map(float.__repr__, coeffs))
    if not np.isfinite(p.c).all():
        values = [_JSON_NON_FINITE.get(v, v) for v in values]
    terms = map('",\n      "coeff": '.join, zip(words, values))
    body = '\n    },\n    {\n      "word": "'.join(terms)
    return '[\n    {\n      "word": "' + body + "\n    }\n  ]"


def _json_key(obj, key: str, where: str, kind: type = object):
    """``obj[key]``, or a ValueError naming the key if ``obj`` lacks it or
    its value is not a ``kind``."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{where} needs a JSON object with the key {key!r}: {obj!r:.80}")
    if not isinstance(obj[key], kind):
        raise ValueError(f"{key!r} needs a JSON {kind.__name__}: {obj[key]!r:.80}")
    return obj[key]


def from_json_dict(data: dict) -> _packed.PackedSum:
    """``to_json_dict``'s inverse, with the load checks the module lists."""
    n = _json_key(data, "n_qubits", "qubit JSON")
    for key in ("n_qubits", "n_electrons", "ms2"):  # the electron counts where given
        if isinstance(data.get(key, 0), bool) or not isinstance(data.get(key, 0), int):
            raise ValueError(f"{key} needs a JSON integer: {data[key]!r:.80}")
    if data.get("ms2", 0) < 0:
        raise ValueError(f"ms2 {data['ms2']} must be >= 0")
    _packed.check_qubit_bound(n)
    if "n_electrons" in data:  # as the FCIDUMP's NELEC and MS2 are checked
        n_e, ms2 = data["n_electrons"], data.get("ms2", 0)
        if not 0 <= n_e <= n:
            raise ValueError(f"n_electrons {n_e} outside 0..{n} for {n} qubits")
        if ms2 > n_e:
            raise ValueError(f"ms2 {ms2} exceeds the {n_e} electrons")
        if (n_e - ms2) % 2:
            raise ValueError(f"ms2 {ms2} and the {n_e} electrons differ in parity")
    x, z, c = [], [], []
    for term in _json_key(data, "terms", "qubit JSON", list):
        text = _json_key(term, "word", "a term")
        xi, zi = parse_masks(text, n)
        ci = _json_key(term, "coeff", f"term {text}")
        if isinstance(ci, bool) or not isinstance(ci, (int, float)):
            raise ValueError(f"coefficient of {text} needs a JSON number: {ci!r}")
        x.append(xi)
        z.append(zi)
        c.append(float(ci))
    p = _packed._canonical(n, np.array(x, np.uint64), np.array(z, np.uint64), np.array(c))
    _packed.check_finite(p.x, p.z, p.c)
    _packed.check_even_y(p)
    return p
