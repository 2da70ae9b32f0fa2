"""Committed mutation checks: each row is one exact text replacement in src/ and the tests that must catch it.

`python tests/run_mutants.py` applies each mutant to a copy of src/ and runs its
selector there; tests/test_mutants.py keeps every `old` text present exactly
once, so a refactor that moves the code has to update this table. A mutant that
survives gets a new test, or a stated reason why it is equivalent.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str  # occurs exactly once in the file
    new: str
    selector: tuple[str, ...]  # pytest arguments, run from the repository root


MUTANTS = (
    Mutant(
        "fft-without-forward-norm",
        "seqfam/kernels.py",
        'np.fft.fft(spectra, axis=2, norm="forward", out=spectra)',
        "np.fft.fft(spectra, axis=2, out=spectra)",
        ("tests/test_kernels.py::test_fft_matches_reference",),
    ),
    Mutant(
        "gemm-without-conjugate",
        "seqfam/kernels.py",
        "circ = np.conj(self._phases[cols])[:, shifts]",
        "circ = self._phases[cols][:, shifts]",
        ("tests/test_kernels.py::test_gemm_matches_reference",),
    ),
    Mutant(
        "histogram-keys-floor-for-rint",
        "seqfam/correlation.py",
        "keys = np.rint(scaled, out=scaled)",
        "keys = np.floor(scaled, out=scaled)",
        ("tests/test_correlation.py::test_tiled_scan_matches_brute_force",),
    ),
    Mutant(
        "factor-product-comparison-removed",
        "seqfam/counting.py",
        '        if leaves[0] != (base.neg(1), *[0] * (m - 1), 1):\n'
        '            raise InternalCheckError("factor product is not x**m - 1")\n',
        "",
        ("tests/test_counting.py::test_cyclotomic_factors_deep_checks_fire",),
    ),
    Mutant(
        "memory-error-exits-1",
        "seqfam/cli.py",
        'print(f"error: out of memory in {args.command}: {exc}", file=sys.stderr)\n        return EXIT_USAGE',
        'print(f"error: out of memory in {args.command}: {exc}", file=sys.stderr)\n        return 1',
        ("tests/test_cli.py::test_out_of_memory_exits_2",),
    ),
    Mutant(
        "norm-arr-unreduced-log",
        "seqfam/fields.py",
        "idx = self.log[xs] % (self.q - 1) * self.norm_ratio",
        "idx = self.log[xs] * self.norm_ratio",
        ("tests/test_fields.py::test_norm_arr_of_gf2_22_over_gf2_11",),
    ),
    Mutant(
        "histogram-total-check-removed",
        "seqfam/correlation.py",
        "    if sum(counts.values()) != period * n * (n + 1) // 2 - n:",
        "    if False:",
        ("tests/test_correlation.py::test_weight_off_by_one_fails_the_histogram_total",),
    ),
    Mutant(
        "symbol-range-check-removed",
        "seqfam/sequences.py",
        "        if sym.size and (sym.min() < 0 or sym.max() >= self.M):\n"
        '            raise ParameterError("symbols must lie in [0, M)")\n',
        "",
        ("tests/test_sequences.py::test_msequence_validation",),
    ),
    Mutant(
        "family-keeps-the-relaxed-d2-column",
        "seqfam/family.py",
        "used = [l for l in reps if l not in (0, report.dropped_column)]",
        "used = [l for l in reps if l != 0]",
        ("tests/test_family.py::test_relaxed_policy_drops_middle_column",),
    ),
    Mutant(
        "power-returns-x-at-k-0",
        "seqfam/intmath.py",
        "    if k == 0:\n        return one\n",
        "    if k == 0:\n        return x\n",
        ("tests/test_intmath.py::test_power_matches_pow_over_the_integers_mod_p",),
    ),
    Mutant(
        "is-prime-without-its-guard",
        "seqfam/intmath.py",
        "return n >= 2 and factorize(n) == {n: 1}",
        "return factorize(n) == {n: 1}",
        ("tests/test_intmath.py::test_is_prime",),
    ),
    Mutant(
        "hit-merge-drops-chunks-after-the-second",
        "seqfam/correlation.py",
        "for lo in range(0, hits[0].size, _EXPAND_CHUNK):",
        "for lo in range(0, min(hits[0].size, 2 * _EXPAND_CHUNK), _EXPAND_CHUNK):",
        ("tests/test_correlation.py::test_merges_in_several_expand_chunks_keep_the_first_violations",),
    ),
    Mutant(
        "same-column-check-with-the-pair-bound",
        "seqfam/correlation.py",
        "sharp = weil_bound(degs[members[0]], family.q)",
        "sharp = weil_bound(2 * degs[members[0]], family.q)",
        ("tests/test_correlation.py::test_same_column_bound_is_the_single_polynomial_one",),
    ),
    Mutant(
        "lambda-parts-without-the-order-filter",
        "seqfam/counting.py",
        "            if (q - 1) % m:\n                continue\n",
        "",
        ("tests/test_counting.py::test_lambda_parts_equal_the_triple_sum_of_yucas_counts",),
    ),
    Mutant(
        "count-report-without-its-q-check",
        "seqfam/counting.py",
        "    check_alphabet(q, M)\n    _check_order(q, limit)\n",
        "    check_alphabet(q, M)\n",
        (
            "tests/test_counting.py::test_not_a_prime_power",
            "tests/test_counting.py::test_oversized_order_is_refused_before_factoring",
        ),
    ),
    Mutant(
        "size-restriction-with-2d-3",
        "seqfam/family.py",
        "bound_ok=(2 * d - 1) ** 2 * q < (q - 2) ** 2,",
        "bound_ok=(2 * d - 3) ** 2 * q < (q - 2) ** 2,",
        ("tests/test_family.py::test_size_restriction_at_its_closest_cases",),
    ),
    Mutant(
        "orbit-products-without-the-base-field-check",
        "seqfam/columns.py",
        '            if coeff.max() >= q:\n'
        '                raise InternalCheckError("orbit factor has coefficients outside the base field")\n',
        "",
        ("tests/test_counting.py::test_cyclotomic_factors_checks_fire_in_chunks",),
    ),
    Mutant(
        "root-free-check-skips-zero",
        "seqfam/verify.py",
        "field_elements = np.arange(q, dtype=np.int64)",
        "field_elements = np.arange(1, q, dtype=np.int64)",
        ("tests/test_verify.py::test_each_verify_check_fails_on_its_planted_fault",),
    ),
    Mutant(
        "factors-without-the-distinct-keys-check",
        "seqfam/counting.py",
        '    if np.unique(keys).size != keys.size:\n'
        '        raise InternalCheckError("orbit factors are not pairwise distinct")\n',
        "",
        ("tests/test_counting.py::test_cyclotomic_factors_checks_fire_in_chunks",),
    ),
)
